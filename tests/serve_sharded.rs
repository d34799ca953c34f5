//! Differential tests of the partitioned (`--shards N`) daemon: at
//! every stream prefix, for shards ∈ {1, 2, 8} and all three counting
//! backends, the sharded runtime's query responses must be
//! byte-identical to the 1-shard daemon's — the partitioning is an
//! execution strategy, never an answer change. Snapshots persisted by
//! a sharded daemon must likewise be byte-identical on disk to the
//! 1-shard snapshot of the same stream.

use demon::itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon::serve::sequencer::read_root;
use demon::serve::{Client, ItemsetModel, ServeConfig, Server, ServeSummary};
use demon::types::{
    Block, BlockId, DemonError, Item, MinSupport, ModelClass, Tid, Transaction, TxBlock,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const UNIVERSE: u32 = 12;
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const COUNTERS: [CounterKind; 3] =
    [CounterKind::PtScan, CounterKind::Ecut, CounterKind::EcutPlus];

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demon-sharded-test-{name}-{}", std::process::id()))
}

/// An in-process daemon plus the join handle that yields its summary.
struct Daemon {
    client: Client,
    handle: std::thread::JoinHandle<demon::types::Result<ServeSummary>>,
}

fn spawn(shards: usize, counter: CounterKind, minsup: MinSupport, n_items: u32) -> Daemon {
    let mut config = ServeConfig::new("127.0.0.1:0", n_items, minsup);
    config.shards = shards;
    config.counter = counter;
    spawn_config(config)
}

fn spawn_config(mut config: ServeConfig) -> Daemon {
    config.workers = 2;
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let client = Client::connect(addr).expect("connect");
    Daemon { client, handle }
}

impl Daemon {
    fn finish(mut self) -> ServeSummary {
        self.client.shutdown().expect("shutdown acked");
        self.handle.join().expect("server thread").expect("run ok")
    }
}

/// A stream of small random blocks over a 12-item universe, TIDs
/// globally monotonic (same shape as `differential_counting.rs`).
fn blocks_strategy(max_blocks: usize) -> impl Strategy<Value = Vec<TxBlock>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(0..UNIVERSE, 1..6), 5..25),
        1..=max_blocks,
    )
    .prop_map(|raw_blocks| {
        let mut tid = 1u64;
        raw_blocks
            .into_iter()
            .enumerate()
            .map(|(i, txs)| {
                let records: Vec<Transaction> = txs
                    .into_iter()
                    .map(|items| {
                        let t = Transaction::new(Tid(tid), items.into_iter().map(Item).collect());
                        tid += 1;
                        t
                    })
                    .collect();
                Block::new(BlockId(i as u64 + 1), records)
            })
            .collect()
    })
}

/// Every file under `dir`, keyed by its path relative to `dir`.
/// Byte-level equality of two snapshot directories is the strongest
/// form of the "sharding never changes answers" contract.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
                out.insert(rel, std::fs::read(&path).expect("read file"));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The core differential property: for every counting backend, a
    /// 2-shard and an 8-shard daemon answer `QueryModel` and
    /// `QuerySequences` byte-identically to the 1-shard daemon at
    /// *every* stream prefix — including prefix 0, before any block
    /// has arrived.
    #[test]
    fn sharded_answers_match_single_shard_at_every_prefix(
        blocks in blocks_strategy(3),
        minsup in (0.05f64..0.4).prop_map(|k| MinSupport::new(k).unwrap()),
    ) {
        for counter in COUNTERS {
            let mut daemons: Vec<Daemon> = SHARD_COUNTS
                .iter()
                .map(|&s| spawn(s, counter, minsup, UNIVERSE))
                .collect();

            // Prefix 0: the empty model must already agree.
            let reference_empty = daemons[0].client.query_model_json().unwrap();
            for d in daemons.iter_mut().skip(1) {
                prop_assert_eq!(&d.client.query_model_json().unwrap(), &reference_empty);
            }

            for (prefix, block) in blocks.iter().enumerate() {
                for d in daemons.iter_mut() {
                    d.client.ingest(UNIVERSE, block).expect("ingest acked");
                }
                let model_1 = daemons[0].client.query_model_json().unwrap();
                let seqs_1 = daemons[0].client.query_sequences().unwrap();
                for (i, d) in daemons.iter_mut().enumerate().skip(1) {
                    let model_n = d.client.query_model_json().unwrap();
                    prop_assert_eq!(
                        &model_n, &model_1,
                        "model diverged: shards={} counter={} prefix={}",
                        SHARD_COUNTS[i], counter.name(), prefix + 1
                    );
                    let seqs_n = d.client.query_sequences().unwrap();
                    prop_assert_eq!(
                        &seqs_n, &seqs_1,
                        "sequences diverged: shards={} counter={} prefix={}",
                        SHARD_COUNTS[i], counter.name(), prefix + 1
                    );
                }
            }

            // The agreed-on final answer is also the batch answer — the
            // daemons do not share a common divergence from the engine.
            let mut store = TxStore::new(UNIVERSE);
            for b in &blocks {
                store.add_block(b.clone());
            }
            let ids = store.block_ids().to_vec();
            let batch = FrequentItemsets::mine_from(&store, &ids, minsup).unwrap();
            let final_model = daemons[0].client.query_model_json().unwrap();
            prop_assert_eq!(&final_model, &serde_json::to_string(&batch).unwrap());

            for d in daemons {
                let summary = d.finish();
                prop_assert_eq!(summary.blocks, blocks.len() as u64);
            }
        }
    }
}

/// A deterministic five-block stream over a larger universe exercises
/// the snapshot path: every shard count writes a byte-identical root,
/// and the root reads back the stream through the reader a bind uses.
#[test]
fn sharded_snapshots_are_byte_identical_across_shard_counts() {
    let n_items = 64u32;
    let minsup = MinSupport::new(0.05).unwrap();
    let mut tid = 0u64;
    let blocks: Vec<TxBlock> = (1..=5u64)
        .map(|id| {
            let txs = (0..40)
                .map(|i| {
                    tid += 1;
                    let mut items = vec![(i % 7) as u32, 7 + (i % 5) as u32];
                    if i % 3 == 0 {
                        items.push(20 + (id as u32 % 4));
                    }
                    items.sort_unstable();
                    items.dedup();
                    Transaction::new(Tid(tid), items.into_iter().map(Item).collect())
                })
                .collect();
            Block::new(BlockId(id), txs)
        })
        .collect();

    let root = tmp("snap-eq");
    std::fs::create_dir_all(&root).unwrap();
    let mut reference: Option<BTreeMap<String, Vec<u8>>> = None;
    for shards in SHARD_COUNTS {
        let mut d = spawn(shards, CounterKind::EcutPlus, minsup, n_items);
        for b in &blocks {
            d.client.ingest(n_items, b).expect("ingest");
        }
        let snap = root.join(format!("snap-{shards}"));
        let persisted = d.client.snapshot(snap.to_str().unwrap()).expect("snapshot");
        assert_eq!(persisted, blocks.len() as u64);

        let mut log = read_root(&snap, Some(ModelClass::Itemsets)).expect("snapshot reads");
        let loaded: Vec<TxBlock> = log
            .blocks::<ItemsetModel>(Some(n_items))
            .collect::<Result<_, _>>()
            .expect("snapshot blocks decode");
        assert_eq!(loaded.len(), blocks.len());
        for (got, want) in loaded.iter().zip(&blocks) {
            assert_eq!(got.records(), want.records(), "shards={shards}");
        }

        let bytes = dir_bytes(&snap);
        match &reference {
            None => reference = Some(bytes),
            Some(want) => {
                assert_eq!(
                    bytes.keys().collect::<Vec<_>>(),
                    want.keys().collect::<Vec<_>>(),
                    "snapshot file set diverged at shards={shards}"
                );
                for (name, data) in &bytes {
                    assert_eq!(
                        data, &want[name],
                        "snapshot file {name} diverged at shards={shards}"
                    );
                }
            }
        }
        d.finish();
    }
    std::fs::remove_dir_all(&root).ok();
}

/// With a pattern window the daemon answers `QuerySequences` exactly as
/// the library miner does, after every ingested block, at one shard (the
/// monitor's miner) and at two (the shard set's). The stream revisits
/// three regimes over 14 blocks, so at `w = 4` ten blocks retire.
#[test]
fn served_pattern_window_matches_the_library_miner_at_every_prefix() {
    use demon::datagen::{DriftingQuestGen, QuestParams};
    use demon::focus::{CompactSequenceMiner, ItemsetSimilarity, SimilarityConfig};
    let n_items = 60u32;
    let minsup = MinSupport::new(0.05).unwrap();
    let params = QuestParams {
        n_transactions: 0,
        avg_tx_len: 6.0,
        n_items,
        n_patterns: 20,
        avg_pattern_len: 3.0,
        ..QuestParams::default()
    };
    let schedule = vec![0, 0, 1, 0, 1, 1, 2, 0, 2, 2, 1, 0, 0, 2];
    let total = schedule.len();
    let mut gen = DriftingQuestGen::new(params, 3, 41, schedule);
    let blocks: Vec<TxBlock> = (0..total).map(|_| gen.next_block(150)).collect();

    let mut config = ServeConfig::new("127.0.0.1:0", n_items, minsup);
    config.alpha = 0.35;
    config.pattern_window = Some(4);
    let mut daemons: Vec<Daemon> = [1, 2]
        .map(|shards| {
            let mut config = config.clone();
            config.shards = shards;
            spawn_config(config)
        })
        .into();
    let oracle = ItemsetSimilarity::new(
        n_items,
        minsup,
        SimilarityConfig::Threshold { alpha: config.alpha },
    );
    let mut miner = CompactSequenceMiner::with_window(oracle, config.pattern_window).unwrap();
    for block in &blocks {
        miner.add_block(block.clone());
        for (d, shards) in daemons.iter_mut().zip([1, 2]) {
            d.client.ingest(n_items, block).expect("ingest acked");
            assert_eq!(
                d.client.query_sequences().unwrap(),
                miner.current_sequences(),
                "shards={shards} after block {}",
                block.id()
            );
        }
    }
    assert_eq!(miner.n_live(), 4);
    for d in daemons {
        d.finish();
    }
}

/// Config validation: zero shards is rejected, the GEMM window (which
/// the sharded runtime does not partition) demands `--shards 1`, and a
/// pattern window too short to hold a pattern is refused at any shard
/// count.
#[test]
fn invalid_shard_configs_are_typed_errors() {
    let minsup = MinSupport::new(0.1).unwrap();

    let mut zero = ServeConfig::new("127.0.0.1:0", UNIVERSE, minsup);
    zero.shards = 0;
    let err = match Server::bind(zero) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("shards=0 must be rejected"),
    };
    assert!(err.contains("--shards"), "{err}");

    let mut windowed = ServeConfig::new("127.0.0.1:0", UNIVERSE, minsup);
    windowed.shards = 2;
    windowed.window = Some(4);
    let err = match Server::bind(windowed) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("shards=2 with a window must be rejected"),
    };
    assert!(err.contains("--shards 1"), "{err}");

    for (shards, w) in [(1, 0), (1, 1), (2, 1)] {
        let mut short = ServeConfig::new("127.0.0.1:0", UNIVERSE, minsup);
        short.shards = shards;
        short.pattern_window = Some(w);
        match Server::bind(short) {
            Err(e @ DemonError::InvalidParameter(_)) => {
                assert!(e.to_string().contains("pattern window"), "{e}");
            }
            Err(e) => panic!("pattern window {w}: unexpected {e}"),
            Ok(_) => panic!("pattern window {w} must be rejected"),
        }
    }
}

/// Duplicate and out-of-order blocks stay typed protocol errors under
/// sharding — the sequencer enforces the same systematic-evolution
/// contract as the single-lock daemon, and the daemon keeps serving.
#[test]
fn sharded_daemon_rejects_replays_and_gaps_like_single_shard() {
    let minsup = MinSupport::new(0.1).unwrap();
    let blocks: Vec<TxBlock> = (1..=3u64)
        .map(|id| {
            let txs = (0..8)
                .map(|i| Transaction::new(Tid(id * 10 + i), vec![Item((i % 4) as u32)]))
                .collect();
            Block::new(BlockId(id), txs)
        })
        .collect();
    let mut d = spawn(4, CounterKind::Ecut, minsup, UNIVERSE);
    d.client.ingest(UNIVERSE, &blocks[0]).unwrap();

    // Replay of D1 is a typed duplicate, exactly like the 1-shard text.
    let err = d.client.ingest(UNIVERSE, &blocks[0]).unwrap_err().to_string();
    assert!(err.contains("duplicate block"), "{err}");
    assert!(err.contains("D1"), "{err}");

    // Skipping D2 is a typed sequencing error naming the expected id.
    let err = d.client.ingest(UNIVERSE, &blocks[2]).unwrap_err().to_string();
    assert!(err.contains("expected block D2"), "{err}");

    // The stream continues on the same connection.
    d.client.ingest(UNIVERSE, &blocks[1]).expect("stream continues");
    let stats = d.client.stats_json().unwrap();
    assert!(stats.contains("\"blocks\":2"), "{stats}");
    assert!(stats.contains("\"shards\":4"), "{stats}");
    assert!(stats.contains("\"shard_blocks\":"), "{stats}");
    let summary = d.finish();
    assert_eq!(summary.blocks, 2);
}
