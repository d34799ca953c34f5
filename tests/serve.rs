//! End-to-end tests of the `demon-serve` daemon: a golden block stream
//! over a real TCP socket must produce exactly the model the batch path
//! produces, snapshots must be loadable, and shutdown must be clean.

use demon::clustering::{phase2_model, BirchParams};
use demon::clustering::{DbscanParams, PointBlockEntry};
use demon::core::{ClusterMaintainer, DbscanMaintainer, ModelMaintainer, TreeMaintainer};
use demon::itemsets::persist::{
    load_store_configured, save_store, verify_store, RecoveryPolicy,
};
use demon::itemsets::{FrequentItemsets, TxStore};
use demon::serve::model::load_blocks_strict;
use demon::serve::{Client, ServeConfig, Server};
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

    // `client query-model` prints exactly what `mine` prints. Persist
    // the stream as a store so `mine` can replay it.
    let store_dir = dir.join("store");
    {
        let mut store = TxStore::new(N_ITEMS);
        for b in golden_blocks() {
            store.add_block(b);
        }
        save_store(&store, &store_dir).unwrap();
    }
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

    // A snapshot lands on disk as a clean, strictly-loadable store.
    let snap = dir.join("snap");
    let blocks = client.snapshot(snap.to_str().unwrap()).expect("snapshot");
    assert_eq!(blocks, 5);
    let report = verify_store(&snap).expect("verify runs");
    assert!(report.is_clean(), "snapshot store damaged: {report:?}");
    let (loaded, _) =
        load_store_configured(&snap, RecoveryPolicy::Strict, &StoreConfig::InMemory)
            .expect("snapshot loads under Strict");
    assert_eq!(loaded.len(), 5);
    let ids = loaded.block_ids().to_vec();
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

    // A snapshot lands in the generic framed layout and loads strictly,
    // record-identical to the stream.
    let snap = dir.join("snap");
    let n = client.snapshot(snap.to_str().unwrap()).expect("snapshot");
    assert_eq!(n, 4);
    let loaded = load_blocks_strict::<PointBlockEntry>(&snap, ModelClass::Clusters)
        .expect("snapshot loads under Strict");
    assert_eq!(loaded.len(), 4);
    for (got, want) in loaded.iter().zip(golden_point_blocks()) {
        assert_eq!(got.0.id(), want.id());
        assert_eq!(got.0.records(), want.records());
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

    // A snapshot lands in the generic framed layout and loads strictly,
    // record-identical to the stream.
    let snap = dir.join("snap");
    let n = client.snapshot(snap.to_str().unwrap()).expect("snapshot");
    assert_eq!(n, 4);
    let loaded = load_blocks_strict::<PointBlockEntry>(&snap, ModelClass::Density)
        .expect("snapshot loads under Strict");
    assert_eq!(loaded.len(), 4);
    for (got, want) in loaded.iter().zip(golden_point_blocks()) {
        assert_eq!(got.0.id(), want.id());
        assert_eq!(got.0.records(), want.records());
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
