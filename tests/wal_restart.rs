//! Restarting a durable daemon, in process: whatever the data span, a
//! daemon that is stopped and bound again over its `--wal-dir` serves
//! what it served — the write-ahead log is the only durable state, and
//! rotation may only ever drop what no window can still need.
//!
//! Every stream here is a pure function of the block id, so a daemon
//! restarted at any prefix is fed exactly what an uninterrupted one was.

use demon::clustering::{DbscanParams, DbscanSummary, WindowedDbscan};
use demon::serve::{
    Client, ClusterModel, DbscanModel, ItemsetModel, Request, ServableModel, ServeConfig,
    ServeSummary, Server, TreeModel,
};
use demon::trees::LabeledPoint;
use demon::types::wal::{self, WalWriter};
use demon::types::{
    Block, BlockId, DemonError, Item, MinSupport, ModelClass, Point, Tid, Transaction, TxBlock,
};
use std::path::{Path, PathBuf};

const N_ITEMS: u32 = 64;
const DIM: usize = 2;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("demon-restart-test-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Transaction block `id`: 24 baskets whose items shift with the regime
/// `id / 3` is in, so block similarity (and with it the compact
/// sequences) has structure.
fn tx_block(id: u64) -> TxBlock {
    let regime = (id / 3 % 2) as u32 * 12;
    let txs = (0..24u64)
        .map(|i| {
            let mut items = vec![regime + (i % 5) as u32, regime + 5 + (i % 3) as u32];
            if i % 4 == 0 {
                items.push(30 + (id % 3) as u32);
            }
            Transaction::new(Tid(id * 100 + i), items.into_iter().map(Item).collect())
        })
        .collect();
    Block::new(BlockId(id), txs)
}

/// Point block `id`: four tight groups on the diagonal, moved a little
/// per block and further per regime.
fn point_block(id: u64) -> Block<Point> {
    let shift = (id / 3 % 2) as f64 * 40.0;
    let pts = (0..32u64)
        .map(|i| {
            let c = (i % 4) as f64 * 25.0 + shift;
            let j = ((id * 13 + i * 7) % 11) as f64 * 0.1;
            Point::new(vec![c + j, c - j])
        })
        .collect();
    Block::new(BlockId(id), pts)
}

/// Labeled block `id`: two separated classes, jittered per block.
fn labeled_block(id: u64) -> Block<LabeledPoint> {
    let recs = (0..24u64)
        .map(|i| {
            let label = (i % 2) as u32;
            let base = f64::from(label) * 50.0 + (id / 3 % 2) as f64 * 7.0;
            let j = ((id * 17 + i * 5) % 13) as f64 * 0.3;
            LabeledPoint::new(vec![base + j, base - j], label)
        })
        .collect();
    Block::new(BlockId(id), recs)
}

/// A durable daemon config of `model` over `wal_dir`, rotating at
/// `wal_max_bytes`.
fn config(model: ModelClass, wal_dir: &Path, wal_max_bytes: u64) -> ServeConfig {
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(0.05).unwrap());
    config.model = model;
    config.dim = DIM;
    config.workers = 1;
    config.wal_dir = Some(wal_dir.to_path_buf());
    config.wal_max_bytes = wal_max_bytes;
    config
}

/// An in-process daemon and a client connected to it.
struct Daemon {
    class: ModelClass,
    client: Client,
    handle: std::thread::JoinHandle<demon::types::Result<ServeSummary>>,
}

impl Daemon {
    fn start(config: ServeConfig) -> Daemon {
        Daemon::try_start(config).expect("bind")
    }

    fn try_start(config: ServeConfig) -> demon::types::Result<Daemon> {
        let class = config.model;
        let server = Server::bind(config)?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let client = Client::connect(addr).expect("connect");
        Ok(Daemon {
            class,
            client,
            handle,
        })
    }

    /// Streams block `id` of the class's stream.
    fn ingest(&mut self, id: u64) {
        let dim = DIM as u32;
        match self.class {
            ModelClass::Itemsets => self.client.ingest(N_ITEMS, &tx_block(id)),
            ModelClass::Clusters => self.client.ingest_points(dim, &point_block(id)),
            ModelClass::Density => self.client.ingest_density(dim, &point_block(id)),
            ModelClass::Trees => self.client.ingest_labeled(dim, &labeled_block(id)),
        }
        .unwrap_or_else(|e| panic!("ingest of D{id}: {e}"));
    }

    /// `(QueryModel body, QuerySequences body)`; before the first block
    /// a windowed daemon has no model yet, which reads as its refusal.
    fn answers(&mut self) -> (String, Vec<Vec<BlockId>>) {
        let model = self
            .client
            .query_model_json_for(self.class)
            .unwrap_or_else(|e| format!("no model: {e}"));
        (model, self.client.query_sequences().expect("query-sequences"))
    }

    fn stop(mut self) -> ServeSummary {
        self.client.shutdown().expect("shutdown acked");
        self.handle.join().expect("server thread").expect("run ok")
    }
}

/// Twelve blocks into a `--window 3` daemon whose segments hold two or
/// three blocks each, a clean shutdown, and a second bind over the same
/// directory: it must come up and answer as it did.
fn windowed_daemon_restarts(model: ModelClass, name: &str) {
    let dir = tmp(name);
    let mut config = config(model, &dir, 2048);
    config.window = Some(3);
    let mut first = Daemon::start(config.clone());
    for id in 1..=12 {
        first.ingest(id);
    }
    let served = first.answers();
    assert_eq!(first.stop().blocks, 12);

    let mut second = Daemon::start(config);
    assert_eq!(second.answers(), served, "[{name}] answers changed across the restart");
    second.ingest(13);
    second.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn windowed_itemset_daemon_restarts_after_rotating() {
    windowed_daemon_restarts(ModelClass::Itemsets, "gemm");
}

#[test]
fn windowed_dbscan_daemon_restarts_after_rotating() {
    windowed_daemon_restarts(ModelClass::Density, "sliding");
}

/// A flipped byte in the middle of a generation that is not the lane's
/// newest is damage inside the acknowledged stream, not a torn tail:
/// six of the twelve acked blocks are behind it. Binding must refuse
/// with `Corrupt` naming the file, not come up with half the stream.
#[test]
fn damage_in_the_middle_of_the_log_refuses_to_bind() {
    let dir = tmp("midlog");
    let config = config(ModelClass::Itemsets, &dir, 8 << 20);
    let mut daemon = Daemon::start(config.clone());
    for id in 1..=12 {
        daemon.ingest(id);
    }
    daemon.stop();

    let log = wal::wal_file_path(&dir, 0);
    let mut bytes = std::fs::read(&log).expect("wal-0.log");
    let records = wal::decode_wal_records(&bytes, "wal-0.log").records.len() as u64;
    assert_eq!(records, 12, "one record per acked block");
    WalWriter::create(&wal::wal_file_path(&dir, 1), records, ModelClass::Itemsets.tag())
        .expect("empty wal-1.log");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&log, &bytes).expect("damage written");

    match Daemon::try_start(config) {
        Err(DemonError::Corrupt { file, .. }) => assert!(file.ends_with("wal-0.log"), "{file}"),
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(mut daemon) => {
            let blocks = stats_blocks(&mut daemon);
            daemon.stop();
            panic!("bound over a damaged log and serves {blocks} of 12 acked blocks");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The stream position `Stats` opens with.
fn stats_blocks(daemon: &mut Daemon) -> String {
    let stats = daemon.client.stats_json().expect("stats");
    stats.split(',').next().unwrap_or_default().to_string()
}

/// `--shards` is no durable commitment: twelve blocks acked at `from`
/// shards over segments of two or three blocks, the daemon stopped —
/// cleanly, then by a kill −9 — and bound again over the same root at
/// `to` shards, for every pair. The second daemon serves what the first
/// did, stands at D12, refuses D1 as a duplicate and takes D13 next.
#[test]
fn a_root_written_at_any_shard_count_recovers_at_any_other() {
    let body = record_len(ModelClass::Itemsets, 1);
    for kill in [false, true] {
        for (from, to) in [1, 2, 4].into_iter().flat_map(|from| [1, 2, 4].map(|to| (from, to))) {
            let label = format!("--shards {from} -> {to}{}", if kill { ", kill -9" } else { "" });
            let dir = tmp(&format!("matrix-{from}-{to}-{kill}"));
            let mut config = config(ModelClass::Itemsets, &dir, body * 5 / 2);
            config.shards = from;
            let served = if kill {
                sigkilled_after_twelve_blocks(&config)
            } else {
                let mut first = Daemon::start(config.clone());
                for id in 1..=12 {
                    first.ingest(id);
                }
                let served = first.answers();
                assert_eq!(first.stop().blocks, 12, "[{label}]");
                served
            };
            assert!(wal::list_wal_generations(&dir).unwrap().len() >= 4, "[{label}] rotated");

            config.shards = to;
            let mut second = Daemon::start(config);
            assert_eq!(second.answers(), served, "[{label}] answers changed across the restart");
            assert_eq!(stats_blocks(&mut second), "{\"blocks\":12", "[{label}]");
            match second.client.ingest(N_ITEMS, &tx_block(1)) {
                Err(DemonError::DuplicateBlock { id: 1, latest: 12 }) => {}
                other => panic!("[{label}] D1 again: {other:?}"),
            }
            second.ingest(13);
            assert_eq!(second.stop().blocks, 13, "[{label}]");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Twelve blocks into a `demon-cli serve` child over `config`'s root,
/// its answers, then SIGKILL: no shutdown, no destructor, no flush.
fn sigkilled_after_twelve_blocks(config: &ServeConfig) -> (String, Vec<Vec<BlockId>>) {
    use std::io::BufRead;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_demon-cli"))
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "1"])
        .args(["--items", &N_ITEMS.to_string(), "--minsup", "0.05"])
        .args(["--shards", &config.shards.to_string()])
        .args(["--wal-max-bytes", &config.wal_max_bytes.to_string()])
        .arg("--wal-dir")
        .arg(config.wal_dir.as_ref().expect("durable config"))
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("startup line");
    let addr = line.strip_prefix("demon-serve listening on ").expect("startup line").trim();
    let mut client = Client::connect(addr).expect("connect");
    for id in 1..=12 {
        client.ingest(N_ITEMS, &tx_block(id)).unwrap_or_else(|e| panic!("ingest of D{id}: {e}"));
    }
    let served = (
        client.query_model_json().expect("query-model"),
        client.query_sequences().expect("query-sequences"),
    );
    child.kill().expect("SIGKILL lands");
    child.wait().expect("reaps");
    served
}

// ---- the differential suite: every span, every prefix ----

/// Blocks per stream: a 2-block segment rotates eight times, the last
/// time at the final block, and every window below slides past several
/// generations.
const STREAM: u64 = 16;

/// Bytes block `id` of `class`'s stream occupies in the log: one `WL`
/// record around the request body a client sends.
fn record_len(class: ModelClass, id: u64) -> u64 {
    fn len<S: ServableModel>(block: &Block<S::Record>, meta: u32) -> u64 {
        let body = Request::IngestBlock {
            class: S::CLASS.tag(),
            id: block.id(),
            interval: block.interval(),
            meta,
            payload: S::encode_records(block).expect("encode"),
        }
        .encode();
        wal::encode_wal_record(0, S::CLASS.tag(), &body).len() as u64
    }
    let dim = DIM as u32;
    match class {
        ModelClass::Itemsets => len::<ItemsetModel>(&tx_block(id), N_ITEMS),
        ModelClass::Clusters => len::<ClusterModel>(&point_block(id), dim),
        ModelClass::Density => len::<DbscanModel>(&point_block(id), dim),
        ModelClass::Trees => len::<TreeModel>(&labeled_block(id), dim),
    }
}

/// Every entry of a WAL root as `(name, bytes)`.
fn root_files(root: &Path) -> Vec<(String, u64)> {
    std::fs::read_dir(root)
        .expect("WAL root")
        .flatten()
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.metadata().expect("metadata").len()))
        .collect()
}

/// What the uninterrupted daemon's dbscan answer and a restarted one's
/// must share once generations were dropped: the window and its counts.
/// (Centroid sums and border attachment depend on insertion history,
/// which a resumed engine does not repeat.)
fn dbscan_counts(json: &str) -> (Vec<u64>, usize, usize, usize) {
    let s: DbscanSummary = serde_json::from_str(json).unwrap_or_else(|e| panic!("{e}: {json}"));
    (s.blocks, s.n_points, s.n_core, s.n_clusters)
}

/// The batch side of a dbscan window: the listed blocks absorbed into a
/// fresh model, which must agree with a from-scratch DBSCAN.
fn dbscan_batch_counts(config: &ServeConfig, blocks: &[u64]) -> (Vec<u64>, usize, usize, usize) {
    let mut model = WindowedDbscan::new(DbscanParams::new(config.dim, config.eps, config.min_pts));
    for &id in blocks {
        model.absorb_block(BlockId(id), point_block(id).records());
    }
    model.structure().verify_against_batch().expect("batch-consistent window");
    dbscan_counts(&serde_json::to_string(&model.summary()).unwrap())
}

/// One data span, durable: the daemon is stopped and bound again after
/// *every* prefix of the stream and must answer as a daemon that was
/// never stopped does, while its WAL root holds the log and nothing else
/// — bounded under a window, exactly the logged bytes without one.
fn restarts_at_every_prefix(name: &str, span: impl Fn(&mut ServeConfig)) {
    let dir = tmp(name);
    let mut durable = config(ModelClass::Itemsets, &dir, 0);
    span(&mut durable);
    let class = durable.model;
    // A segment holds two blocks.
    durable.wal_max_bytes = record_len(class, 1) * 3 / 2;
    let windowed = durable.window.is_some() && durable.pattern_window.is_some();

    let mut uninterrupted = durable.clone();
    uninterrupted.wal_dir = None;
    let mut reference = Daemon::start(uninterrupted);
    let mut expected = reference.answers();
    for id in 1..=STREAM {
        let mut daemon = Daemon::start(durable.clone());
        let dropped = wal::read_current(&dir).expect("CURRENT") > 0;
        let check = |daemon: &mut Daemon, expected: &(String, Vec<Vec<BlockId>>), at: u64| {
            let label = format!("[{name}] bound after D{}, at D{at}", id - 1);
            let served = daemon.answers();
            if class == ModelClass::Density && dropped && at > 0 {
                let counts = dbscan_counts(&served.0);
                assert_eq!(counts, dbscan_counts(&expected.0), "{label}");
                assert_eq!(counts, dbscan_batch_counts(&durable, &counts.0), "{label}");
                assert_eq!(served.1, expected.1, "{label}");
            } else {
                assert_eq!(&served, expected, "{label}");
            }
            let stats = daemon.client.stats_json().expect("stats");
            assert!(stats.starts_with(&format!("{{\"blocks\":{at},")), "{label}: {stats}");
        };
        check(&mut daemon, &expected, id - 1);
        daemon.ingest(id);
        reference.ingest(id);
        expected = reference.answers();
        check(&mut daemon, &expected, id);
        assert_eq!(daemon.stop().blocks, id);

        let files = root_files(&dir);
        for (file, _) in &files {
            assert!(
                file == "CURRENT" || wal::parse_wal_file_name(file).is_some(),
                "[{name}] {file} in the WAL root after D{id}"
            );
        }
        let generations = wal::list_wal_generations(&dir).expect("generations");
        if windowed {
            // The widest window is 4 blocks and a segment 2: the window's
            // generations and the open one.
            assert!(generations.len() <= 4, "[{name}] after D{id}: {generations:?}");
        } else {
            let logged: u64 = (1..=id).map(|b| record_len(class, b)).sum();
            let on_disk: u64 = files.iter().filter(|(f, _)| f != "CURRENT").map(|(_, n)| n).sum();
            assert_eq!(on_disk, logged, "[{name}] after D{id}: one durable copy per block");
            assert_eq!(generations[0], 0, "[{name}] an unrestricted span drops nothing");
        }
    }
    reference.stop();
    if windowed {
        assert!(wal::read_current(&dir).unwrap() > 0, "[{name}] nothing was ever dropped");
        refuses_a_wider_span_and_a_leftover_snapshot(name, &dir, durable);
    } else if durable.shards > 1 {
        refuses_a_leftover_lane(name, &dir, durable);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `shard-<s>/` in an otherwise healthy root is a log lane of a build
/// that kept one per shard; this build has no reader for it, so the bind
/// is refused by its name — at the shard count that would have written
/// it and at one — and the same bind without it succeeds.
fn refuses_a_leftover_lane(name: &str, dir: &Path, mut config: ServeConfig) {
    std::fs::create_dir(dir.join("shard-0")).expect("plant shard-0/");
    for shards in [config.shards, 1] {
        config.shards = shards;
        match Daemon::try_start(config.clone()).err() {
            Some(DemonError::InvalidParameter(text)) => {
                assert!(text.contains("shard-0") && text.contains("per-shard log lane"), "[{name}] {text}")
            }
            other => panic!("[{name}] a leftover lane directory at --shards {shards}: {other:?}"),
        }
    }
    std::fs::remove_dir(dir.join("shard-0")).unwrap();
    let mut daemon = Daemon::start(config);
    assert_eq!(stats_blocks(&mut daemon), format!("{{\"blocks\":{STREAM}"), "[{name}]");
    daemon.stop();
}

/// Over a log trimmed for `--window 3 --pattern-window 4` (it starts at
/// D13), a daemon that comes back with `--window 5` needs D12, which is
/// gone, and one that finds a
/// `snapshot-<g>/` of an older build cannot read it: both binds are
/// refused by name, and the same bind without the cause succeeds.
fn refuses_a_wider_span_and_a_leftover_snapshot(name: &str, dir: &Path, config: ServeConfig) {
    let mut wider = config.clone();
    wider.window = Some(5);
    match Daemon::try_start(wider).err() {
        Some(DemonError::InvalidParameter(text)) => {
            assert!(text.contains("--window 5") && text.contains("needs block D12"), "[{name}] {text}")
        }
        other => panic!("[{name}] a wider window over a trimmed log: {other:?}"),
    }
    std::fs::create_dir(dir.join("snapshot-1")).expect("plant snapshot-1/");
    match Daemon::try_start(config.clone()).err() {
        Some(DemonError::InvalidParameter(text)) => assert!(text.contains("snapshot-1"), "[{name}] {text}"),
        other => panic!("[{name}] a leftover snapshot directory: {other:?}"),
    }
    std::fs::remove_dir(dir.join("snapshot-1")).unwrap();
    Daemon::start(config).stop();
}

#[test]
fn unrestricted_itemsets_restart_at_every_prefix() {
    restarts_at_every_prefix("itemsets", |_| {});
}

#[test]
fn windowed_itemsets_restart_at_every_prefix() {
    restarts_at_every_prefix("itemsets-w3-p4", |config| {
        config.window = Some(3);
        config.pattern_window = Some(4);
    });
}

#[test]
fn windowed_itemsets_with_unrestricted_patterns_restart_at_every_prefix() {
    restarts_at_every_prefix("itemsets-w3", |config| config.window = Some(3));
}

#[test]
fn windowed_trees_restart_at_every_prefix() {
    restarts_at_every_prefix("trees-w3-p4", |config| {
        config.model = ModelClass::Trees;
        config.window = Some(3);
        config.pattern_window = Some(4);
    });
}

#[test]
fn windowed_dbscan_restarts_at_every_prefix() {
    restarts_at_every_prefix("dbscan-w3-p4", |config| {
        config.model = ModelClass::Density;
        config.window = Some(3);
        config.pattern_window = Some(4);
    });
}

#[test]
fn unrestricted_clusters_restart_at_every_prefix() {
    restarts_at_every_prefix("clusters", |config| config.model = ModelClass::Clusters);
}

#[test]
fn sharded_itemsets_restart_at_every_prefix() {
    restarts_at_every_prefix("itemsets-s4", |config| config.shards = 4);
}

/// What `demon-cli serve ARGS` did within half a minute: its exit status
/// and stderr (a daemon that bound is killed — a refusal was due).
fn serve_refusal(args: &[String]) -> (Option<i32>, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_demon-cli"))
        .args(["serve", "--listen", "127.0.0.1:0", "--minsup", "0.05"])
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while child.try_wait().expect("poll").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().expect("SIGKILL lands");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("reaps");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Recovery holds every record to the daemon's block meta. A root of
/// 64-item blocks bound at `--items 16` (whose TID-lists could not hold
/// them) or `--items 100` (a universe a live ingest would refuse), and a
/// 2-d clusters root bound at `--dim 3`, are refused with the class's
/// own mismatch text — in process, and by `demon-cli serve` with exit 2
/// and no panic — while the right meta binds the whole stream.
#[test]
fn a_root_bound_with_another_block_meta_is_refused() {
    for class in [ModelClass::Itemsets, ModelClass::Clusters] {
        let dir = tmp(&format!("meta-{}", class.name()));
        let right = config(class, &dir, 8 << 20);
        let mut daemon = Daemon::start(right.clone());
        for id in 1..=4 {
            daemon.ingest(id);
        }
        daemon.stop();

        let wrong: Vec<(ServeConfig, String)> = match class {
            ModelClass::Itemsets => [16u32, 100]
                .into_iter()
                .map(|n| {
                    let mut c = right.clone();
                    c.n_items = n;
                    (c, ItemsetModel::meta_mismatch(n, N_ITEMS).expect("a mismatch"))
                })
                .collect(),
            _ => {
                let mut c = right.clone();
                c.dim = 3;
                vec![(c, ClusterModel::meta_mismatch(3, DIM as u32).expect("a mismatch"))]
            }
        };
        for (config, refusal) in wrong {
            let label = format!("{} --items {} --dim {}", class.name(), config.n_items, config.dim);
            match Daemon::try_start(config.clone()).err() {
                Some(DemonError::InvalidParameter(text)) => {
                    assert!(text.contains(&refusal) && text.contains("wal-0.log"), "[{label}] {text}")
                }
                other => panic!("[{label}] a root of another block meta: {other:?}"),
            }
            let args = [
                "--model", class.name(), "--items", &config.n_items.to_string(),
                "--dim", &config.dim.to_string(), "--wal-dir", dir.to_str().unwrap(),
            ]
            .map(String::from);
            let (code, stderr) = serve_refusal(&args);
            assert_eq!(code, Some(2), "[{label}] {stderr}");
            assert!(stderr.contains(&refusal) && !stderr.contains("panicked"), "[{label}] {stderr}");
        }
        let mut daemon = Daemon::start(right);
        assert_eq!(stats_blocks(&mut daemon), "{\"blocks\":4", "[{}]", class.name());
        daemon.stop();
        std::fs::remove_dir_all(&dir).ok();
    }
}
