//! End-to-end tests of the `demon-serve` daemon: a golden block stream
//! over a real TCP socket must produce exactly the model the batch path
//! produces — the batch path reading the very root the daemon wrote —
//! snapshots must be roots a daemon binds, and shutdown must be clean.

use demon::clustering::{phase2_model, BirchParams, DbscanParams};
use demon::core::{ClusterMaintainer, DbscanMaintainer, ModelMaintainer, TreeMaintainer};
use demon::focus::{CompactSequenceMiner, ItemsetSimilarity, SimilarityConfig};
use demon::itemsets::{FrequentItemsets, TxStore};
use demon::serve::sequencer::{read_root, write_root};
use demon::serve::{
    Client, ClusterModel, DbscanModel, ItemsetModel, ServableModel, ServeConfig, Server,
};
use demon::store::StoreConfig;
use demon::trees::{LabeledPoint, TreeParams};
use demon::types::{
    Block, BlockId, DemonError, MinSupport, ModelClass, Point, Tid, Transaction, TxBlock,
};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_demon-cli"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demon-serve-test-{name}-{}", std::process::id()))
}

const N_ITEMS: u32 = 64;
const MINSUP: f64 = 0.05;

/// The golden stream: five deterministic blocks with overlapping item
/// patterns, TIDs globally monotonic.
fn golden_blocks() -> Vec<TxBlock> {
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
                    Transaction::new(
                        Tid(tid),
                        items.into_iter().map(demon::types::Item).collect(),
                    )
                })
                .collect();
            Block::new(BlockId(id), txs)
        })
        .collect()
}

/// The batch model over the golden stream, as the canonical JSON the
/// server answers with.
fn batch_model_json() -> String {
    let mut store = TxStore::new(N_ITEMS);
    let ids: Vec<BlockId> = golden_blocks()
        .into_iter()
        .map(|b| {
            let id = b.id();
            store.add_block(b);
            id
        })
        .collect();
    let model =
        FrequentItemsets::mine_from(&store, &ids, MinSupport::new(MINSUP).unwrap()).unwrap();
    serde_json::to_string(&model).unwrap()
}

/// The blocks a root replays, read by the reader a bind uses.
fn read_blocks<S: ServableModel>(root: &std::path::Path, class: ModelClass) -> Vec<Block<S::Record>> {
    let mut log = read_root(root, Some(class)).expect("the root reads");
    log.blocks::<S>(None).collect::<Result<_, _>>().expect("its blocks decode")
}

/// Spawns `demon-cli serve` on an ephemeral port and parses the resolved
/// address from its startup line. The returned reader holds the stdout
/// pipe open — dropping it early would break the daemon's final print.
fn spawn_daemon(extra: &[&str]) -> (Child, String, impl std::io::BufRead) {
    let mut child = cli()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--items",
            &N_ITEMS.to_string(),
            "--minsup",
            &MINSUP.to_string(),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("startup line");
    let addr = line
        .strip_prefix("demon-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .trim()
        .to_string();
    (child, addr, reader)
}

#[test]
fn daemon_stream_matches_batch_mine_snapshot_loads_and_shutdown_is_clean() {
    let dir = tmp("e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let (mut child, addr, _daemon_out) = spawn_daemon(&[]);

    // Stream the golden blocks over the socket.
    let mut client = Client::connect(&addr).expect("connect");
    for block in golden_blocks() {
        client.ingest(N_ITEMS, &block).expect("ingest acked");
    }

    // The served model is byte-identical to a batch mine over the same
    // stream.
    let served = client.query_model_json().expect("query-model");
    assert_eq!(served, batch_model_json(), "served model diverged from batch");

    // `client query-model` prints exactly what `mine` prints. Write the
    // stream as a root so `mine` can replay it.
    let store_dir = dir.join("store");
    write_root::<ItemsetModel>(&store_dir, N_ITEMS, |put| {
        golden_blocks().iter().try_for_each(put)
    })
    .unwrap();
    let mine_out = cli()
        .args(["mine", store_dir.to_str().unwrap(), "--minsup", &MINSUP.to_string()])
        .output()
        .expect("mine runs");
    assert!(mine_out.status.success());
    let query_out = cli()
        .args(["client", &addr, "query-model"])
        .output()
        .expect("client runs");
    assert!(query_out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&mine_out.stdout),
        String::from_utf8_lossy(&query_out.stdout),
        "client query-model must print exactly what mine prints"
    );

    // Stats reflect the stream.
    let stats = client.stats_json().expect("stats");
    assert!(stats.contains("\"blocks\":5"), "{stats}");
    assert!(stats.contains("\"serve.requests\":"), "{stats}");

    // A snapshot lands on disk as a root that reads back whole, through
    // the reader a bind uses, and remines to the served model.
    let snap = dir.join("snap");
    let blocks = client.snapshot(snap.to_str().unwrap()).expect("snapshot");
    assert_eq!(blocks, 5);
    let loaded = read_blocks::<ItemsetModel>(&snap, ModelClass::Itemsets);
    assert_eq!(loaded.len(), 5);
    let ids: Vec<BlockId> = loaded.iter().map(|b| b.id()).collect();
    let loaded = {
        let mut store = TxStore::new(N_ITEMS);
        loaded.into_iter().for_each(|b| store.add_block(b));
        store
    };
    let remined =
        FrequentItemsets::mine_from(&loaded, &ids, MinSupport::new(MINSUP).unwrap()).unwrap();
    assert_eq!(serde_json::to_string(&remined).unwrap(), served);

    // Shutdown drains and the daemon exits 0.
    client.shutdown().expect("shutdown acked");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit 0 after Shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replayed_block_is_a_typed_remote_error_and_daemon_keeps_serving() {
    let (mut child, addr, _daemon_out) = spawn_daemon(&[]);
    let mut client = Client::connect(&addr).expect("connect");
    let blocks = golden_blocks();
    client.ingest(N_ITEMS, &blocks[0]).unwrap();
    client.ingest(N_ITEMS, &blocks[1]).unwrap();

    // Replaying D2 is a typed remote error, not a dropped connection.
    let err = client.ingest(N_ITEMS, &blocks[1]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("duplicate block"), "{msg}");
    assert!(msg.contains("D2"), "{msg}");

    // The connection and the daemon both survive: the stream continues.
    client.ingest(N_ITEMS, &blocks[2]).expect("stream continues");
    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"blocks\":3"), "{stats}");
    client.shutdown().unwrap();
    assert!(child.wait().unwrap().success());
}

/// The served model must not depend on the worker count or the storage
/// engine: 1 and 8 workers, with and without a memory budget, all
/// byte-identical to the batch reference.
#[test]
fn served_model_invariant_across_workers_and_memory_budget() {
    let reference = batch_model_json();
    let spill = tmp("spill");
    let budgets: [Option<StoreConfig>; 2] = [
        None,
        Some(StoreConfig::budget(spill.clone(), 4 * 1024)),
    ];
    for workers in [1usize, 8] {
        for budget in &budgets {
            let mut config =
                ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(MINSUP).unwrap());
            config.workers = workers;
            if let Some(b) = budget {
                config.store_config = b.clone();
            }
            let server = Server::bind(config).expect("bind");
            let addr = server.local_addr();
            let handle = std::thread::spawn(move || server.run());
            let mut client = Client::connect(addr).expect("connect");
            for block in golden_blocks() {
                client.ingest(N_ITEMS, &block).expect("ingest");
            }
            let served = client.query_model_json().expect("query");
            assert_eq!(
                served, reference,
                "model diverged at workers={workers}, budget={:?}",
                budget.is_some()
            );
            client.shutdown().expect("shutdown");
            let summary = handle.join().expect("server thread").expect("run ok");
            assert_eq!(summary.blocks, 5);
        }
    }
    std::fs::remove_dir_all(&spill).ok();
}

// ---- the generic daemon: clusters and trees over the same socket ----

const DIM: usize = 2;
const K: usize = 4;
const CLASSES: u32 = 2;

/// A clusters daemon config over a 2-d stream with 4 centroids.
fn cluster_config() -> ServeConfig {
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(MINSUP).unwrap());
    config.model = ModelClass::Clusters;
    config.dim = DIM;
    config.k = K;
    config
}

/// Deterministic point blocks: four tight groups on the diagonal with a
/// small per-block jitter, so the CF-tree has real structure.
fn golden_point_blocks() -> Vec<Block<Point>> {
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

/// The batch BIRCH+ pipeline over the golden points: register + absorb
/// each block in stream order, then the phase-2 model as canonical JSON.
fn batch_cluster_model_json() -> String {
    let params = BirchParams::new(DIM, K);
    let mut maintainer =
        ClusterMaintainer::with_store_config(params, &StoreConfig::InMemory).unwrap();
    let mut model = maintainer.fresh();
    for block in golden_point_blocks() {
        let id = block.id();
        maintainer.register_block(block);
        maintainer.absorb(&mut model, id);
    }
    serde_json::to_string(&phase2_model(&model, &params)).unwrap()
}

/// Deterministic labeled blocks: two well-separated classes with a
/// per-block jitter, so the refitted tree actually splits.
fn golden_labeled_blocks() -> Vec<Block<LabeledPoint>> {
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

#[test]
fn birch_daemon_matches_batch_and_snapshot_loads_strict() {
    let dir = tmp("birch");
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::bind(cluster_config()).expect("bind clusters daemon");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    for block in golden_point_blocks() {
        client.ingest_points(DIM as u32, &block).expect("ingest acked");
    }

    // The served cluster model is byte-identical to the batch BIRCH+
    // pipeline over the same stream.
    let served = client
        .query_model_json_for(ModelClass::Clusters)
        .expect("query-model");
    assert_eq!(served, batch_cluster_model_json(), "served model diverged from batch");

    // Class pinning is typed in both directions: a query pinned to the
    // wrong class and an itemset ingest are both refused, and the
    // connection survives.
    let err = client.query_model_json_for(ModelClass::Trees).unwrap_err();
    assert!(matches!(err, DemonError::ModelClassMismatch { .. }), "{err}");
    let err = client.ingest(N_ITEMS, &golden_blocks()[0]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("clusters") && msg.contains("itemsets"), "{msg}");

    // A snapshot is a root that reads back record-identical to the
    // stream, through the reader a bind uses.
    let snap = dir.join("snap");
    let n = client.snapshot(snap.to_str().unwrap()).expect("snapshot");
    assert_eq!(n, 4);
    let loaded = read_blocks::<ClusterModel>(&snap, ModelClass::Clusters);
    assert_eq!(loaded.len(), 4);
    for (got, want) in loaded.iter().zip(golden_point_blocks()) {
        assert_eq!(got.id(), want.id());
        assert_eq!(got.records(), want.records());
    }

    client.shutdown().expect("shutdown");
    let summary = handle.join().expect("server thread").expect("run ok");
    assert_eq!(summary.blocks, 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// A density daemon config over the same 2-d stream. ε = 1.0 reaches
/// across the jitter inside each diagonal group but not between groups.
fn dbscan_config() -> ServeConfig {
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(MINSUP).unwrap());
    config.model = ModelClass::Density;
    config.dim = DIM;
    config.eps = 1.0;
    config.min_pts = 4;
    config
}

/// The batch incremental-DBSCAN pipeline over the golden points:
/// register + absorb each block in stream order, then the windowed
/// summary as canonical JSON — exactly what the daemon renders.
fn batch_dbscan_model_json() -> String {
    let params = DbscanParams::new(DIM, 1.0, 4);
    let mut maintainer =
        DbscanMaintainer::with_store_config(params, &StoreConfig::InMemory).unwrap();
    let mut model = maintainer.fresh();
    for block in golden_point_blocks() {
        let id = block.id();
        maintainer.register_block(block);
        maintainer.absorb(&mut model, id);
    }
    serde_json::to_string(&model.summary()).unwrap()
}

#[test]
fn dbscan_daemon_matches_batch_and_snapshot_loads_strict() {
    let dir = tmp("dbscan");
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::bind(dbscan_config()).expect("bind density daemon");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    for block in golden_point_blocks() {
        client.ingest_density(DIM as u32, &block).expect("ingest acked");
    }

    // The served density model is byte-identical to the batch
    // incremental-DBSCAN pipeline over the same stream, and the summary
    // sees the four diagonal groups as four clusters.
    let served = client
        .query_model_json_for(ModelClass::Density)
        .expect("query-model");
    assert_eq!(served, batch_dbscan_model_json(), "served model diverged from batch");
    assert!(served.contains("\"n_clusters\":4"), "{served}");
    assert!(served.contains("\"n_noise\":0"), "{served}");

    // Class pinning is typed in both directions: a query pinned to the
    // wrong class and an itemset ingest are both refused, and the
    // connection survives.
    let err = client.query_model_json_for(ModelClass::Clusters).unwrap_err();
    assert!(matches!(err, DemonError::ModelClassMismatch { .. }), "{err}");
    let err = client.ingest(N_ITEMS, &golden_blocks()[0]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("dbscan") && msg.contains("itemsets"), "{msg}");

    // A snapshot is a root that reads back record-identical to the
    // stream, through the reader a bind uses.
    let snap = dir.join("snap");
    let n = client.snapshot(snap.to_str().unwrap()).expect("snapshot");
    assert_eq!(n, 4);
    let loaded = read_blocks::<DbscanModel>(&snap, ModelClass::Density);
    assert_eq!(loaded.len(), 4);
    for (got, want) in loaded.iter().zip(golden_point_blocks()) {
        assert_eq!(got.id(), want.id());
        assert_eq!(got.records(), want.records());
    }

    client.shutdown().expect("shutdown");
    let summary = handle.join().expect("server thread").expect("run ok");
    assert_eq!(summary.blocks, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tree_daemon_matches_batch_refit() {
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(MINSUP).unwrap());
    config.model = ModelClass::Trees;
    config.dim = DIM;
    config.classes = CLASSES;
    let server = Server::bind(config).expect("bind trees daemon");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    for block in golden_labeled_blocks() {
        client.ingest_labeled(DIM as u32, &block).expect("ingest acked");
    }

    let served = client
        .query_model_json_for(ModelClass::Trees)
        .expect("query-model");
    let batch = {
        let mut maintainer = TreeMaintainer::with_store_config(
            DIM,
            TreeParams::new(CLASSES),
            &StoreConfig::InMemory,
        )
        .unwrap();
        let mut model = maintainer.fresh();
        for block in golden_labeled_blocks() {
            let id = block.id();
            maintainer.register_block(block);
            maintainer.absorb(&mut model, id);
        }
        serde_json::to_string(&model).unwrap()
    };
    assert_eq!(served, batch, "served tree diverged from batch refit");

    client.shutdown().expect("shutdown");
    let summary = handle.join().expect("server thread").expect("run ok");
    assert_eq!(summary.blocks, 3);
}

/// Sharding needs an exact merge; clusters, trees and density models
/// don't have one, so `--shards ≥ 2` is a typed refusal at bind time,
/// not a wrong answer.
#[test]
fn sharding_is_refused_for_classes_without_exact_merge() {
    for class in [ModelClass::Clusters, ModelClass::Trees, ModelClass::Density] {
        let mut config = cluster_config();
        config.model = class;
        config.classes = CLASSES;
        config.shards = 4;
        let err = match Server::bind(config) {
            Ok(_) => panic!("bind must refuse --shards 4 for {}", class.name()),
            Err(e) => e,
        };
        assert!(matches!(err, DemonError::ShardsUnsupported { .. }), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(class.name()) && msg.contains("--shards 1"),
            "{msg}"
        );
    }
}

/// WAL records carry the model class: a daemon of another class refuses
/// to replay them (typed, at bind), while the rightful class recovers.
#[test]
fn cross_class_wal_replay_is_refused() {
    let wal_dir = tmp("cross-class-wal");
    std::fs::remove_dir_all(&wal_dir).ok();
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(MINSUP).unwrap());
    config.wal_dir = Some(wal_dir.clone());
    let server = Server::bind(config).expect("bind durable itemsets daemon");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    for block in golden_blocks().into_iter().take(2) {
        client.ingest(N_ITEMS, &block).expect("ingest acked");
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("run ok");

    // A clusters daemon pointed at the itemset WAL refuses to start.
    let mut config = cluster_config();
    config.wal_dir = Some(wal_dir.clone());
    let err = match Server::bind(config) {
        Ok(_) => panic!("cross-class replay must be refused"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, DemonError::ModelClassMismatch { expected, got }
            if expected == "clusters" && got == "itemsets"),
        "{err}"
    );

    // So does a density daemon: the WAL class byte distinguishes all
    // four model classes, not just the original pair.
    let mut config = dbscan_config();
    config.wal_dir = Some(wal_dir.clone());
    let err = match Server::bind(config) {
        Ok(_) => panic!("cross-class replay must be refused for dbscan"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, DemonError::ModelClassMismatch { expected, got }
            if expected == "dbscan" && got == "itemsets"),
        "{err}"
    );

    // The rightful class still recovers every acked block.
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(MINSUP).unwrap());
    config.wal_dir = Some(wal_dir.clone());
    let server = Server::bind(config).expect("same-class recovery");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect after recovery");
    let stats = client.stats_json().expect("stats");
    assert!(stats.contains("\"blocks\":2"), "{stats}");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("run ok");
    std::fs::remove_dir_all(&wal_dir).ok();
}

// ---- a block stream has one on-disk form: the daemon's root is the batch input ----

/// What `demon-cli ARGS` printed, asserting it exited 0.
fn cli_stdout(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("demon-cli runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8")
}

/// Served == batch over the daemon's own root: a durable itemset daemon
/// is fed the golden stream and shut down, and `mine` of its `--wal-dir`
/// prints exactly what `client query-model` printed before shutdown.
#[test]
fn mine_of_a_durable_daemons_root_prints_what_it_served() {
    let wal_dir = tmp("served-root");
    std::fs::remove_dir_all(&wal_dir).ok();
    let (mut child, addr, _daemon_out) =
        spawn_daemon(&["--wal-dir", wal_dir.to_str().unwrap()]);
    let mut client = Client::connect(&addr).expect("connect");
    for block in golden_blocks() {
        client.ingest(N_ITEMS, &block).expect("ingest acked");
    }
    let served = cli_stdout(&["client", &addr, "query-model", "--top", "400"]);
    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("daemon exits").success());

    let minsup = MINSUP.to_string();
    let root = wal_dir.to_str().unwrap();
    assert_eq!(cli_stdout(&["mine", root, "--minsup", &minsup, "--top", "400"]), served);
    std::fs::remove_dir_all(&wal_dir).ok();
}

/// `patterns --min-len 2` of a stream without intervals, rebuilt from a
/// `QuerySequences` answer: the rows `patterns` prints, in its order.
fn patterns_output(sequences: &[Vec<BlockId>], alpha: f64) -> String {
    let mut rows: Vec<(usize, String)> = sequences
        .iter()
        .filter(|seq| seq.len() >= 2)
        .map(|seq| (seq.len(), format!("{seq:?}")))
        .collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    rows.dedup_by(|a, b| a.1 == b.1);
    let mut out = format!("compact sequences (≥ 2 blocks, α={alpha}):\n");
    for (len, desc) in rows.iter().take(20) {
        out.push_str(&format!("  {len:>3} blocks  {desc}\n"));
    }
    if rows.is_empty() {
        out.push_str("  (none)\n");
    }
    out
}

/// A generated root binds: `serve --wal-dir` over what `generate` wrote
/// serves the stream with no ingest at all — `QueryModel` prints what
/// `mine` of the root prints, `QuerySequences` is what `patterns` of the
/// root finds (and what the library miner finds over the root's blocks),
/// and a following `client ingest` of the root finds every block
/// already applied.
#[test]
fn a_generated_root_binds_and_serves_its_stream_with_no_ingest() {
    let dir = tmp("generated");
    std::fs::remove_dir_all(&dir).ok();
    let root = dir.join("g");
    let root = root.to_str().unwrap();
    cli_stdout(&["generate", "quest", "--out", root, "--spec", "40K.8L.1I.1pats.3plen", "--scale", "0.05", "--blocks", "5"]);

    let minsup = "0.02";
    let mut daemon = cli()
        .args(["serve", "--listen", "127.0.0.1:0", "--items", "1000", "--minsup", minsup])
        .args(["--wal-dir", root])
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut out = std::io::BufReader::new(daemon.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    out.read_line(&mut line).expect("startup line");
    let addr = line.strip_prefix("demon-serve listening on ").expect("startup line").trim();

    let mined = cli_stdout(&["mine", root, "--minsup", minsup, "--top", "400"]);
    assert_eq!(cli_stdout(&["client", addr, "query-model", "--top", "400"]), mined);

    let mut client = Client::connect(addr).expect("connect");
    let sequences = client.query_sequences().expect("query-sequences");
    let blocks = read_blocks::<ItemsetModel>(std::path::Path::new(root), ModelClass::Itemsets);
    assert_eq!(blocks.len(), 5);
    let oracle = ItemsetSimilarity::new(
        1000,
        MinSupport::new(0.02).unwrap(),
        SimilarityConfig::Threshold { alpha: 0.12 },
    );
    let mut miner = CompactSequenceMiner::with_window(oracle, None).unwrap();
    for block in blocks {
        miner.add_block(block);
    }
    assert_eq!(sequences, miner.current_sequences());
    assert_eq!(
        cli_stdout(&["patterns", root, "--minsup", minsup, "--min-len", "2"]),
        patterns_output(&sequences, 0.12)
    );

    let ingest = cli_stdout(&["client", addr, "ingest", root]);
    assert!(ingest.contains("streamed 0 blocks") && ingest.contains("(5 already applied)"), "{ingest}");
    client.shutdown().expect("shutdown");
    assert!(daemon.wait().expect("daemon exits").success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A `Snapshot` of every class is a root a daemon of that class binds:
/// bound over the snapshot, it answers `QueryModel` and `QuerySequences`
/// exactly as the daemon the snapshot came from did.
#[test]
fn a_snapshot_of_every_class_binds_and_answers_like_its_daemon() {
    let dir = tmp("snapshot-binds");
    std::fs::remove_dir_all(&dir).ok();
    let mut trees = cluster_config();
    trees.model = ModelClass::Trees;
    trees.classes = CLASSES;
    let itemsets = ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(MINSUP).unwrap());
    for config in [itemsets, cluster_config(), dbscan_config(), trees] {
        let class = config.model;
        let ingest = |client: &mut Client| match class {
            ModelClass::Itemsets => golden_blocks()
                .iter()
                .try_for_each(|b| client.ingest(N_ITEMS, b)),
            ModelClass::Clusters => golden_point_blocks()
                .iter()
                .try_for_each(|b| client.ingest_points(DIM as u32, b)),
            ModelClass::Density => golden_point_blocks()
                .iter()
                .try_for_each(|b| client.ingest_density(DIM as u32, b)),
            ModelClass::Trees => golden_labeled_blocks()
                .iter()
                .try_for_each(|b| client.ingest_labeled(DIM as u32, b)),
        };
        let answers = |client: &mut Client| {
            (
                client.query_model_json_for(class).expect("query-model"),
                client.query_sequences().expect("query-sequences"),
            )
        };
        let snap = dir.join(class.name());
        let serve = |config: ServeConfig| {
            let server = Server::bind(config).expect("bind");
            let addr = server.local_addr();
            (Client::connect(addr).expect("connect"), std::thread::spawn(move || server.run()))
        };

        let (mut client, handle) = serve(config.clone());
        ingest(&mut client).expect("ingest acked");
        let served = answers(&mut client);
        assert!(client.snapshot(snap.to_str().unwrap()).expect("snapshot") > 0);
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("run ok");

        let mut bound = config;
        bound.wal_dir = Some(snap.clone());
        let (mut client, handle) = serve(bound);
        assert_eq!(answers(&mut client), served, "[{}]", class.name());
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("run ok");
    }
    std::fs::remove_dir_all(&dir).ok();
}
