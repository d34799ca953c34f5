//! `shards = 1` runs on the same sequencer + replica + event-loop
//! runtime as `shards ≥ 2`, for every model class: the daemon reports
//! itself as one shard, publishes exactly one replica per applied
//! block, renders each replica's model JSON at most once, and serves
//! the bytes the batch pipeline produces.
//!
//! One test function, one daemon at a time: the obs recorder is
//! process-global, and the counter deltas below must be this daemon's.

use demon::clustering::{phase2_model, BirchParams, DbscanParams};
use demon::core::{ClusterMaintainer, DbscanMaintainer, ModelMaintainer, TreeMaintainer};
use demon::itemsets::{FrequentItemsets, TxStore};
use demon::serve::sequencer::write_root;
use demon::serve::{Client, ItemsetModel, ServeConfig, Server};
use demon::store::StoreConfig;
use demon::trees::{LabeledPoint, TreeParams};
use demon::types::obs::{self, Counter};
use demon::types::{Block, BlockId, Item, MinSupport, ModelClass, Point, Tid, Transaction, TxBlock};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const N_ITEMS: u32 = 64;
const MINSUP: f64 = 0.05;
const DIM: usize = 2;
const K: usize = 4;
const CLASSES: u32 = 2;
const WINDOW: usize = 3;

fn minsup() -> MinSupport {
    MinSupport::new(MINSUP).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demon-unified-test-{name}-{}", std::process::id()))
}

/// The golden transaction stream of `tests/serve.rs`.
fn tx_blocks() -> Vec<TxBlock> {
    let mut tid = 0u64;
    (1..=5u64)
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
        .collect()
}

/// The golden point stream of `tests/serve.rs`.
fn point_blocks() -> Vec<Block<Point>> {
    (1..=4u64)
        .map(|id| {
            let pts = (0..60u64)
                .map(|i| {
                    let c = (i % 4) as f64 * 25.0;
                    let j = ((id * 13 + i * 7) % 11) as f64 * 0.1;
                    Point::new(vec![c + j, c - j])
                })
                .collect();
            Block::new(BlockId(id), pts)
        })
        .collect()
}

/// The golden labeled stream of `tests/serve.rs`.
fn labeled_blocks() -> Vec<Block<LabeledPoint>> {
    (1..=3u64)
        .map(|id| {
            let recs = (0..40u64)
                .map(|i| {
                    let label = (i % 2) as u32;
                    let base = f64::from(label) * 50.0;
                    let j = ((id * 17 + i * 5) % 13) as f64 * 0.3;
                    LabeledPoint::new(vec![base + j, base - j], label)
                })
                .collect();
            Block::new(BlockId(id), recs)
        })
        .collect()
}

fn tx_store() -> TxStore {
    let mut store = TxStore::new(N_ITEMS);
    for b in tx_blocks() {
        store.add_block(b);
    }
    store
}

/// A batch mine over the last `last` golden transaction blocks.
fn batch_itemsets(last: usize) -> String {
    let store = tx_store();
    let ids = store.block_ids();
    let model = FrequentItemsets::mine_from(&store, &ids[ids.len() - last..], minsup()).unwrap();
    serde_json::to_string(&model).unwrap()
}

/// Register + absorb every block in stream order — the batch side of
/// the point classes, as `tests/serve.rs` builds it.
fn batch_model<M: ModelMaintainer>(mut maintainer: M, blocks: Vec<Block<M::Record>>) -> M::Model {
    let mut model = maintainer.fresh();
    for block in blocks {
        let id = block.id();
        maintainer.register_block(block);
        maintainer.absorb(&mut model, id);
    }
    model
}

fn base_config(model: ModelClass) -> ServeConfig {
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, minsup());
    config.model = model;
    config.dim = DIM;
    config.k = K;
    config.classes = CLASSES;
    config.eps = 1.0;
    config.min_pts = 4;
    config.workers = 2;
    config
}

/// Every file under `dir`, keyed by its path relative to `dir`.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("dir entry").path();
        let rel = path.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
        out.insert(rel, std::fs::read(&path).expect("read file"));
    }
    out
}

struct Case {
    name: &'static str,
    config: ServeConfig,
    /// Streams the class's golden blocks; returns how many.
    ingest: fn(&mut Client) -> u64,
    reference: String,
}

fn cases() -> Vec<Case> {
    let ingest_tx = |client: &mut Client| {
        let blocks = tx_blocks();
        for b in &blocks {
            client.ingest(N_ITEMS, b).expect("ingest acked");
        }
        blocks.len() as u64
    };
    let mut windowed = base_config(ModelClass::Itemsets);
    windowed.window = Some(WINDOW);
    let birch = BirchParams::new(DIM, K);
    let density = DbscanParams::new(DIM, 1.0, 4);
    let mem = StoreConfig::InMemory;
    vec![
        Case {
            name: "itemsets",
            config: base_config(ModelClass::Itemsets),
            ingest: ingest_tx,
            reference: batch_itemsets(5),
        },
        Case {
            name: "itemsets --window 3",
            config: windowed,
            ingest: ingest_tx,
            reference: batch_itemsets(WINDOW),
        },
        Case {
            name: "clusters",
            config: base_config(ModelClass::Clusters),
            ingest: |client| {
                let blocks = point_blocks();
                for b in &blocks {
                    client.ingest_points(DIM as u32, b).expect("ingest acked");
                }
                blocks.len() as u64
            },
            reference: {
                let maintainer = ClusterMaintainer::with_store_config(birch, &mem).unwrap();
                let tree = batch_model(maintainer, point_blocks());
                serde_json::to_string(&phase2_model(&tree, &birch)).unwrap()
            },
        },
        Case {
            name: "dbscan",
            config: base_config(ModelClass::Density),
            ingest: |client| {
                let blocks = point_blocks();
                for b in &blocks {
                    client.ingest_density(DIM as u32, b).expect("ingest acked");
                }
                blocks.len() as u64
            },
            reference: {
                let maintainer = DbscanMaintainer::with_store_config(density, &mem).unwrap();
                serde_json::to_string(&batch_model(maintainer, point_blocks()).summary()).unwrap()
            },
        },
        Case {
            name: "trees",
            config: ServeConfig {
                // A window as long as the stream: the refit covers every block.
                window: Some(labeled_blocks().len()),
                ..base_config(ModelClass::Trees)
            },
            ingest: |client| {
                let blocks = labeled_blocks();
                for b in &blocks {
                    client.ingest_labeled(DIM as u32, b).expect("ingest acked");
                }
                blocks.len() as u64
            },
            reference: {
                let maintainer =
                    TreeMaintainer::with_store_config(DIM, TreeParams::new(CLASSES), &mem).unwrap();
                serde_json::to_string(&batch_model(maintainer, labeled_blocks())).unwrap()
            },
        },
    ]
}

#[test]
fn one_shard_runs_the_replica_runtime_for_every_class() {
    every_class_is_served_from_replicas();
    snapshot_is_the_plain_root_bytes();
}

fn every_class_is_served_from_replicas() {
    for case in cases() {
        let name = case.name;
        let class = case.config.model;
        let server = Server::bind(case.config).expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).expect("connect");

        // One replica swap per applied block, no more, no fewer.
        let swaps = obs::counter_value(Counter::ServeReplicaSwaps);
        let n = (case.ingest)(&mut client);
        assert_eq!(
            obs::counter_value(Counter::ServeReplicaSwaps) - swaps,
            n,
            "[{name}] replica swaps per ingested block"
        );

        // Two reads of one epoch render once, and serve the batch bytes.
        let renders = obs::counter_value(Counter::ServeReplicaLazyRenders);
        let first = client.query_model_json_for(class).expect("query-model");
        let second = client.query_model_json_for(class).expect("query-model again");
        assert_eq!(
            obs::counter_value(Counter::ServeReplicaLazyRenders) - renders,
            1,
            "[{name}] lazy renders for two queries on one epoch"
        );
        assert_eq!(first, case.reference, "[{name}] served model diverged from batch");
        assert_eq!(second, first, "[{name}] memoized body differs");

        // The daemon is the 1-shard case of the sharded Stats shape.
        let stats = client.stats_json().expect("stats");
        assert!(stats.starts_with(&format!("{{\"blocks\":{n},\"shards\":1,")), "[{name}] {stats}");
        assert!(stats.contains(&format!("\"shard_blocks\":[{n}],")), "[{name}] {stats}");
        assert!(stats.contains("\"shard_queue_depths\":[0],"), "[{name}] {stats}");

        client.shutdown().expect("shutdown");
        let summary = handle.join().expect("server thread").expect("run ok");
        assert_eq!(summary.blocks, n, "[{name}]");
    }
}

/// The `Snapshot` verb saves straight from the live maintainer, at any
/// shard count, and must write the bytes the root writer writes for the
/// same stream (what `demon-cli generate` writes) — from memory, and from
/// daemons whose `--memory-budget` keeps (next to) nothing resident —
/// without a second copy of the blocks: the spill directory never holds
/// anything but the one store's own `tx/`.
fn snapshot_is_the_plain_root_bytes() {
    let dir = tmp("snapshot");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let plain = dir.join("plain");
    write_root::<ItemsetModel>(&plain, N_ITEMS, |put| tx_blocks().iter().try_for_each(put))
        .expect("write the plain root");

    let spill = dir.join("spill");
    for (name, shards, store_config) in [
        ("memory", 1, StoreConfig::InMemory),
        ("budget", 1, StoreConfig::budget(spill.clone(), 1)),
        ("sharded budget", 2, StoreConfig::budget(spill.clone(), 1)),
    ] {
        let mut config = base_config(ModelClass::Itemsets);
        config.shards = shards;
        config.store_config = store_config;
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).expect("connect");
        for b in tx_blocks() {
            client.ingest(N_ITEMS, &b).expect("ingest acked");
        }
        let served = dir.join(name);
        assert_eq!(client.snapshot(served.to_str().unwrap()).expect("snapshot"), 5);
        assert_eq!(dir_bytes(&served), dir_bytes(&plain), "[{name}]");

        for entry in std::fs::read_dir(&spill).into_iter().flatten().flatten() {
            assert_eq!(entry.file_name(), "tx", "[{name}] a second copy of the blocks");
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("run ok");
    }
    std::fs::remove_dir_all(&dir).ok();
}
