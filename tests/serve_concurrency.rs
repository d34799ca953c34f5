//! Concurrency soak of the `demon-serve` daemon: 16 client threads
//! hammer one in-process server with a fixed interleaved script —
//! sequential ingest, model/stats queries, deliberate duplicate
//! replays, a mid-soak snapshot — under a wall-clock watchdog, so a
//! deadlock fails the test instead of hanging the suite. A second,
//! 64-thread soak drives the partitioned runtime (`shards = 4`) with
//! the same mix and additionally pins the mid-soak snapshot to be
//! byte-identical to a 1-shard daemon's snapshot of the same prefix.

use demon::serve::sequencer::read_root;
use demon::serve::{Client, ItemsetModel, ServeConfig, Server};
use demon::types::{Block, BlockId, Item, MinSupport, ModelClass, Tid, Transaction, TxBlock};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const N_ITEMS: u32 = 48;
const N_BLOCKS: u64 = 30;
const N_QUERIERS: usize = 13;
const QUERIES_EACH: usize = 40;
const ATTACKS: usize = 30;
const SNAPSHOT_AFTER: u64 = 15;

fn make_block(id: u64, tid0: u64) -> TxBlock {
    let txs = (0..20)
        .map(|i| {
            let mut items = vec![(i % 6) as u32, 6 + ((i + id as usize) % 7) as u32];
            items.sort_unstable();
            items.dedup();
            Transaction::new(
                Tid(tid0 + i as u64),
                items.into_iter().map(Item).collect(),
            )
        })
        .collect();
    Block::new(BlockId(id), txs)
}

/// The block ids a snapshot root replays, read by the reader a bind uses.
fn snapshot_ids(dir: &Path) -> Vec<BlockId> {
    let mut log = read_root(dir, Some(ModelClass::Itemsets)).expect("the snapshot root reads");
    log.blocks::<ItemsetModel>(Some(N_ITEMS))
        .map(|block| block.expect("a snapshot block decodes").id())
        .collect()
}

/// Pulls the daemon's own `"blocks":N` gauge out of a stats body.
fn blocks_gauge(stats: &str) -> u64 {
    let tail = stats
        .split("\"blocks\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no blocks gauge in {stats}"));
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric gauge")
}

#[test]
fn sixteen_client_soak_is_deadlock_free_and_monotone() {
    // The watchdog: the whole soak runs in a worker thread and must
    // finish well inside the timeout, or we fail loudly instead of
    // letting a deadlocked daemon hang CI.
    let (done_tx, done_rx) = mpsc::channel();
    let soak = std::thread::spawn(move || {
        run_soak();
        done_tx.send(()).ok();
    });
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("soak deadlocked: no completion inside 120 s");
    soak.join().expect("soak thread panicked");
}

fn run_soak() {
    let snap_dir: PathBuf = std::env::temp_dir().join(format!(
        "demon-serve-soak-snap-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&snap_dir).ok();

    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(0.1).unwrap());
    config.workers = 8;
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    // Block 1 goes in before any querier starts, so `query-model` is
    // never answered with "no model yet" during the soak.
    let mut seed = Client::connect(addr).expect("connect seed");
    seed.ingest(N_ITEMS, &make_block(1, 1)).expect("seed block");

    let errors = Arc::new(AtomicU64::new(0));
    let (snap_tx, snap_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        // 1 ingester: the rest of the stream, in order.
        {
            let errors = Arc::clone(&errors);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect ingester");
                let mut tid = 21u64;
                for id in 2..=N_BLOCKS {
                    if client.ingest(N_ITEMS, &make_block(id, tid)).is_err() {
                        errors.fetch_add(1, Ordering::SeqCst);
                    }
                    tid += 20;
                    if id == SNAPSHOT_AFTER {
                        snap_tx.send(()).ok();
                    }
                }
            });
        }
        // 13 queriers: interleaved model/stats reads; the daemon's block
        // gauge must be monotone non-decreasing as seen by each thread.
        for q in 0..N_QUERIERS {
            let errors = Arc::clone(&errors);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect querier");
                let mut last = 0u64;
                for i in 0..QUERIES_EACH {
                    if (i + q) % 2 == 0 {
                        if client.query_model_json().is_err() {
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                    } else {
                        match client.stats_json() {
                            Ok(stats) => {
                                let blocks = blocks_gauge(&stats);
                                assert!(
                                    blocks >= last,
                                    "block gauge went backwards: {last} -> {blocks}"
                                );
                                last = blocks;
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                }
            });
        }
        // 1 attacker: replays block 1 over and over. Every attempt must
        // be the typed duplicate rejection — never a dropped connection,
        // never an accepted replay.
        {
            let errors = Arc::clone(&errors);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect attacker");
                for _ in 0..ATTACKS {
                    match client.ingest(N_ITEMS, &make_block(1, 1)) {
                        Err(e) if e.to_string().contains("duplicate block") => {}
                        other => {
                            eprintln!("attacker expected duplicate rejection, got {other:?}");
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
        // 1 snapshotter: mid-soak, while ingest is still running.
        {
            let errors = Arc::clone(&errors);
            let snap_dir = snap_dir.clone();
            scope.spawn(move || {
                snap_rx
                    .recv_timeout(Duration::from_secs(60))
                    .expect("ingester never reached the snapshot point");
                let mut client = Client::connect(addr).expect("connect snapshotter");
                match client.snapshot(snap_dir.to_str().unwrap()) {
                    Ok(blocks) => assert!(
                        blocks >= SNAPSHOT_AFTER,
                        "snapshot saw only {blocks} blocks"
                    ),
                    Err(e) => {
                        eprintln!("mid-soak snapshot failed: {e}");
                        errors.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert_eq!(
        errors.load(Ordering::SeqCst),
        0,
        "protocol errors during the soak"
    );

    // The mid-soak snapshot is a consistent prefix: a root that reads
    // whole, at least the blocks that had been applied.
    let ids = snapshot_ids(&snap_dir);
    let n = ids.len() as u64;
    assert!(
        (SNAPSHOT_AFTER..=N_BLOCKS).contains(&n),
        "snapshot holds {n} blocks"
    );
    assert_eq!(ids.first(), Some(&BlockId(1)));
    assert_eq!(ids.last(), Some(&BlockId(n)), "snapshot is not a prefix");

    // Everything the soak ingested is there; graceful shutdown.
    let final_blocks = blocks_gauge(&seed.stats_json().expect("final stats"));
    assert_eq!(final_blocks, N_BLOCKS);
    seed.shutdown().expect("shutdown");
    let summary = server_thread
        .join()
        .expect("server thread")
        .expect("server run");
    assert_eq!(summary.blocks, N_BLOCKS);
    std::fs::remove_dir_all(&snap_dir).ok();
}

/// Every file under `dir`, keyed by its path relative to `dir`.
fn dir_bytes(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    let mut out = std::collections::BTreeMap::new();
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

/// 64 client threads against the partitioned runtime: 1 sequential
/// ingester, 58 queriers asserting a monotone block gauge, 4 duplicate
/// replay attackers and 1 mid-soak snapshotter, all on `shards = 4`.
/// Zero protocol errors allowed, and the mid-soak snapshot must load
/// `Strict` *and* be byte-identical to what a 1-shard daemon persists
/// for the same stream prefix.
#[test]
fn sixty_four_client_sharded_soak_is_deadlock_free_and_exact() {
    let (done_tx, done_rx) = mpsc::channel();
    let soak = std::thread::spawn(move || {
        run_sharded_soak();
        done_tx.send(()).ok();
    });
    done_rx
        .recv_timeout(Duration::from_secs(240))
        .expect("sharded soak deadlocked: no completion inside 240 s");
    soak.join().expect("sharded soak thread panicked");
}

fn run_sharded_soak() {
    const SHARDED_QUERIERS: usize = 58;
    const SHARDED_ATTACKERS: usize = 4;
    const SHARDED_QUERIES_EACH: usize = 20;

    let snap_dir: PathBuf = std::env::temp_dir().join(format!(
        "demon-serve-soak-sharded-snap-{}",
        std::process::id()
    ));
    let ref_dir: PathBuf = std::env::temp_dir().join(format!(
        "demon-serve-soak-sharded-ref-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&snap_dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();

    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(0.1).unwrap());
    config.workers = 4;
    config.shards = 4;
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let mut seed = Client::connect(addr).expect("connect seed");
    seed.ingest(N_ITEMS, &make_block(1, 1)).expect("seed block");

    let errors = Arc::new(AtomicU64::new(0));
    let (snap_tx, snap_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        // 1 ingester: the rest of the stream, in order.
        {
            let errors = Arc::clone(&errors);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect ingester");
                let mut tid = 21u64;
                for id in 2..=N_BLOCKS {
                    if client.ingest(N_ITEMS, &make_block(id, tid)).is_err() {
                        errors.fetch_add(1, Ordering::SeqCst);
                    }
                    tid += 20;
                    if id == SNAPSHOT_AFTER {
                        snap_tx.send(()).ok();
                    }
                }
            });
        }
        // 58 queriers: model/sequences/stats reads off the replicas; the
        // block gauge stays monotone per observer.
        for q in 0..SHARDED_QUERIERS {
            let errors = Arc::clone(&errors);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect querier");
                let mut last = 0u64;
                for i in 0..SHARDED_QUERIES_EACH {
                    match (i + q) % 3 {
                        0 => {
                            if client.query_model_json().is_err() {
                                errors.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        1 => {
                            if client.query_sequences().is_err() {
                                errors.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        _ => match client.stats_json() {
                            Ok(stats) => {
                                let blocks = blocks_gauge(&stats);
                                assert!(
                                    blocks >= last,
                                    "block gauge went backwards: {last} -> {blocks}"
                                );
                                last = blocks;
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::SeqCst);
                            }
                        },
                    }
                }
            });
        }
        // 4 attackers: duplicate replays of block 1, every one of which
        // must be the typed rejection.
        for _ in 0..SHARDED_ATTACKERS {
            let errors = Arc::clone(&errors);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect attacker");
                for _ in 0..ATTACKS {
                    match client.ingest(N_ITEMS, &make_block(1, 1)) {
                        Err(e) if e.to_string().contains("duplicate block") => {}
                        other => {
                            eprintln!("attacker expected duplicate rejection, got {other:?}");
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
        // 1 snapshotter: mid-soak, while ingest is still running.
        {
            let errors = Arc::clone(&errors);
            let snap_dir = snap_dir.clone();
            scope.spawn(move || {
                snap_rx
                    .recv_timeout(Duration::from_secs(60))
                    .expect("ingester never reached the snapshot point");
                let mut client = Client::connect(addr).expect("connect snapshotter");
                match client.snapshot(snap_dir.to_str().unwrap()) {
                    Ok(blocks) => assert!(
                        blocks >= SNAPSHOT_AFTER,
                        "snapshot saw only {blocks} blocks"
                    ),
                    Err(e) => {
                        eprintln!("mid-soak snapshot failed: {e}");
                        errors.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert_eq!(
        errors.load(Ordering::SeqCst),
        0,
        "protocol errors during the sharded soak"
    );

    // The mid-soak snapshot is a consistent prefix that reads whole.
    let ids = snapshot_ids(&snap_dir);
    let n = ids.len() as u64;
    assert!(
        (SNAPSHOT_AFTER..=N_BLOCKS).contains(&n),
        "snapshot holds {n} blocks"
    );
    assert_eq!(ids.first(), Some(&BlockId(1)));
    assert_eq!(ids.last(), Some(&BlockId(n)), "snapshot is not a prefix");

    // Byte-identity against the single-lock daemon: a 1-shard server
    // fed exactly that prefix persists the same files, bit for bit.
    {
        let config =
            ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(0.1).unwrap());
        let reference = Server::bind(config).expect("bind reference");
        let ref_addr = reference.local_addr();
        let ref_thread = std::thread::spawn(move || reference.run());
        let mut client = Client::connect(ref_addr).expect("connect reference");
        for id in 1..=n {
            client
                .ingest(N_ITEMS, &make_block(id, (id - 1) * 20 + 1))
                .expect("reference ingest");
        }
        client
            .snapshot(ref_dir.to_str().unwrap())
            .expect("reference snapshot");
        client.shutdown().expect("reference shutdown");
        ref_thread.join().expect("reference thread").expect("reference run");
        assert_eq!(
            dir_bytes(&snap_dir),
            dir_bytes(&ref_dir),
            "sharded mid-soak snapshot diverged from the 1-shard snapshot"
        );
    }

    // Everything the soak ingested is there; graceful shutdown.
    let final_stats = seed.stats_json().expect("final stats");
    assert_eq!(blocks_gauge(&final_stats), N_BLOCKS);
    assert!(final_stats.contains("\"shards\":4"), "{final_stats}");
    seed.shutdown().expect("shutdown");
    let summary = server_thread
        .join()
        .expect("server thread")
        .expect("server run");
    assert_eq!(summary.blocks, N_BLOCKS);
    std::fs::remove_dir_all(&snap_dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}
