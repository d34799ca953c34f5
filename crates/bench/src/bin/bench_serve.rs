//! `BENCH_serve.json` — the serving point of the repo's machine-readable
//! perf trajectory.
//!
//! Sweeps the daemon over a shared client script: `shards ∈ {1, 4}` ×
//! `clients ∈ {1, 4, 16, 64, 256}`, every configuration on 4 event-loop
//! threads. One client streams the block sequence while the others
//! interleave `query-model` and `stats` requests — the ingest-vs-query
//! mix the daemon is built for.
//!
//! Reports per-row request throughput, the **median** ingest and query
//! latencies across `DEMON_BENCH_REPEATS` fresh daemon runs, and a
//! histogram of the per-shard queue depths sampled from the daemon's
//! own `Stats` answers. The top-level `shard_speedup_64c` field is the
//! 4-shard ÷ 1-shard throughput ratio at 64 clients: both run the same
//! runtime, so it is what partitioning the state costs or buys on the
//! recorded machine (`cores`, `available_parallelism` in the header).
//!
//! Every configuration is run twice per repeat — once volatile and once
//! with a write-ahead log (fsync before every ingest ack) — so each row
//! carries both `ingest_median_ms` (WAL off) and `ingest_wal_median_ms`
//! (WAL on): the price of durability is a tracked number, not folklore.
//!
//! Every run asserts zero protocol errors and that the final served
//! model is byte-identical to a batch `mine_from` over the same blocks —
//! the numbers always describe a correct daemon, at every shard count.
//!
//! Knobs: `DEMON_SCALE` (block size, default 0.02) and
//! `DEMON_BENCH_REPEATS` (timed repeats per configuration, default 5).
//! The JSON is written to `BENCH_serve.json` in the working directory
//! (the repo root, when run via `cargo run`).

use demon_bench::{bench_repeats, cores, median_ms, quest_block_sized, scale, write_bench_json};
use demon_itemsets::{FrequentItemsets, TxStore};
use demon_serve::{Client, ServeConfig, Server};
use demon_types::{BlockId, MinSupport, TxBlock};
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SPEC: &str = "2M.10L.1I.2pats.4plen";
const SHARDS: [usize; 2] = [1, 4];
const CLIENTS: [usize; 5] = [1, 4, 16, 64, 256];
const N_ITEMS: u32 = 1000;
const N_BLOCKS: u64 = 12;

/// Queries each non-ingesting client issues per run. Scaled down at
/// high client counts so the total query volume per run stays bounded
/// while the *concurrency* keeps rising.
fn queries_per_client(n_clients: usize) -> usize {
    if n_clients >= 64 {
        16
    } else {
        24
    }
}

fn main() {
    let minsup = MinSupport::new(0.02).unwrap();
    let repeats = bench_repeats();
    let blocks = make_blocks();
    let block_txs = blocks[0].len();
    println!(
        "# BENCH serve: {} blocks × {} transactions, scale={}, repeats={}",
        N_BLOCKS,
        block_txs,
        scale(),
        repeats
    );

    // The batch reference every served model must match byte-for-byte.
    let reference = reference_model_json(&blocks, minsup);

    let errors = AtomicU64::new(0);
    let wal_root = std::env::temp_dir().join(format!("demon-bench-wal-{}", std::process::id()));
    let mut rows = Vec::new();
    let mut throughput_64c: BTreeMap<usize, f64> = BTreeMap::new();
    for &n_shards in &SHARDS {
        for &n_clients in &CLIENTS {
            let mut ingest_samples = Vec::new();
            let mut wal_ingest_samples = Vec::new();
            let mut query_samples = Vec::new();
            let mut depth_hist: Vec<BTreeMap<u64, u64>> = Vec::new();
            let mut requests = 0u64;
            let mut rep_throughput = Vec::with_capacity(repeats);
            for rep in 0..repeats {
                let run = drive(n_shards, n_clients, &blocks, minsup, &reference, &errors, None);
                ingest_samples.extend(run.ingest);
                query_samples.extend(run.query);
                merge_hists(&mut depth_hist, run.depth_hist);
                requests += run.requests;
                rep_throughput.push(run.requests as f64 / run.elapsed.as_secs_f64());
                // The durable twin: a fresh WAL directory per run, so no
                // run recovers its predecessor's blocks. Throughput and
                // query medians stay the volatile numbers; this run only
                // contributes the durable ingest latency.
                let wal_dir = wal_root.join(format!("s{n_shards}-c{n_clients}-r{rep}"));
                let wal_run = drive(
                    n_shards,
                    n_clients,
                    &blocks,
                    minsup,
                    &reference,
                    &errors,
                    Some(wal_dir),
                );
                wal_ingest_samples.extend(wal_run.ingest);
            }
            // Median of the per-repeat throughputs: one scheduler-noise
            // repeat (hundreds of threads on small machines) must not
            // sink or inflate the row.
            rep_throughput.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let throughput = rep_throughput[rep_throughput.len() / 2];
            if n_clients == 64 {
                throughput_64c.insert(n_shards, throughput);
            }
            let row = json!({
                // The served model class. The sweep drives the itemset
                // daemon (the one class that shards); rows for other
                // classes can join the schema without breaking readers.
                "model": "itemsets",
                "shards": n_shards,
                "clients": n_clients,
                "requests": requests,
                "throughput_rps": throughput,
                "ingest_median_ms": median_ms(&mut ingest_samples),
                "ingest_wal_median_ms": median_ms(&mut wal_ingest_samples),
                "query_median_ms": median_ms(&mut query_samples),
                "queue_depth_hist": depth_hist
                    .iter()
                    .map(|h| {
                        let mut obj = serde_json::Map::new();
                        for (depth, n) in h {
                            obj.insert(depth.to_string(), json!(n));
                        }
                        serde_json::Value::Object(obj)
                    })
                    .collect::<Vec<_>>(),
            });
            println!("# shards={n_shards} clients={n_clients}: {row}");
            rows.push(row);
        }
    }
    std::fs::remove_dir_all(&wal_root).ok();

    let n_errors = errors.load(Ordering::SeqCst);
    assert_eq!(n_errors, 0, "protocol errors during the bench");
    let speedup = throughput_64c[&4] / throughput_64c[&1];
    println!("# shard_speedup_64c = {speedup:.2}");
    let (cores, available_parallelism) = cores();
    write_bench_json(
        "BENCH_serve.json",
        json!({
            "bench": "serve",
            "cores": cores,
            "available_parallelism": available_parallelism,
            "spec": SPEC,
            "scale": scale(),
            "repeats": repeats,
            "blocks": N_BLOCKS,
            "block_txs": block_txs,
            "rows": rows,
            "shard_speedup_64c": speedup,
            "errors": n_errors,
        }),
    );
}

/// The fixed block sequence every daemon run ingests: `N_BLOCKS` Quest
/// blocks with globally monotonic TIDs.
fn make_blocks() -> Vec<TxBlock> {
    let per_block = ((scale() * 25_000.0) as usize).max(50);
    let mut tid = 1u64;
    let mut blocks = Vec::new();
    for id in 1..=N_BLOCKS {
        let b = quest_block_sized(SPEC, per_block, id, BlockId(id), tid);
        tid += b.len() as u64;
        blocks.push(b);
    }
    blocks
}

/// The batch model over the same blocks, as the server's canonical JSON.
fn reference_model_json(blocks: &[TxBlock], minsup: MinSupport) -> String {
    let mut store = TxStore::new(N_ITEMS);
    for b in blocks {
        store.add_block(b.clone());
    }
    let ids: Vec<BlockId> = blocks.iter().map(|b| b.id()).collect();
    let model = FrequentItemsets::mine_from(&store, &ids, minsup).unwrap();
    serde_json::to_string(&model).unwrap()
}

/// Pulls the per-shard `"shard_queue_depths":[..]` gauges out of a
/// `Stats` body.
fn parse_depths(stats: &str) -> Vec<u64> {
    stats
        .split("\"shard_queue_depths\":[")
        .nth(1)
        .and_then(|tail| tail.split(']').next())
        .map(|list| list.split(',').filter_map(|v| v.trim().parse().ok()).collect())
        .unwrap_or_default()
}

/// Folds one run's per-shard histograms into the row accumulator.
fn merge_hists(acc: &mut Vec<BTreeMap<u64, u64>>, run: Vec<BTreeMap<u64, u64>>) {
    if acc.len() < run.len() {
        acc.resize(run.len(), BTreeMap::new());
    }
    for (a, r) in acc.iter_mut().zip(run) {
        for (depth, n) in r {
            *a.entry(depth).or_insert(0) += n;
        }
    }
}

struct RunResult {
    ingest: Vec<Duration>,
    query: Vec<Duration>,
    /// Queue-depth observations from this run's `Stats` answers, one
    /// histogram per shard.
    depth_hist: Vec<BTreeMap<u64, u64>>,
    requests: u64,
    elapsed: Duration,
}

/// One timed daemon run: fresh server, `n_clients` concurrent clients,
/// the fixed ingest-vs-query script, graceful shutdown. With `wal_dir`
/// set the daemon serves durably (append + fsync before every ack).
fn drive(
    n_shards: usize,
    n_clients: usize,
    blocks: &[TxBlock],
    minsup: MinSupport,
    reference: &str,
    errors: &AtomicU64,
    wal_dir: Option<std::path::PathBuf>,
) -> RunResult {
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, minsup);
    config.shards = n_shards;
    config.workers = 4;
    config.wal_dir = wal_dir;
    let server = Server::bind(config).expect("bind ephemeral daemon");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let queries_each = queries_per_client(n_clients);

    // Seed the model before the query clients start, so `query-model`
    // is never answered with "no model yet".
    let mut seed_client = Client::connect(addr).expect("connect ingester");
    let t0 = Instant::now();
    let mut ingest = Vec::with_capacity(blocks.len());
    let first = Instant::now();
    if seed_client.ingest(N_ITEMS, &blocks[0]).is_err() {
        errors.fetch_add(1, Ordering::SeqCst);
    }
    ingest.push(first.elapsed());

    let mut query = Vec::new();
    let depth_hist: Mutex<Vec<BTreeMap<u64, u64>>> = Mutex::new(Vec::new());
    let observe_depths = |stats: &str| {
        let depths = parse_depths(stats);
        let mut acc = depth_hist.lock().unwrap();
        if acc.len() < depths.len() {
            acc.resize(depths.len(), BTreeMap::new());
        }
        for (h, d) in acc.iter_mut().zip(depths) {
            *h.entry(d).or_insert(0) += 1;
        }
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 1..n_clients {
            let observe_depths = &observe_depths;
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect querier");
                let mut samples = Vec::with_capacity(queries_each);
                let mut failed = 0u64;
                for q in 0..queries_each {
                    let t = Instant::now();
                    let ok = if (q + c) % 2 == 0 {
                        client.query_model_json().is_ok()
                    } else {
                        match client.stats_json() {
                            Ok(stats) => {
                                observe_depths(&stats);
                                true
                            }
                            Err(_) => false,
                        }
                    };
                    samples.push(t.elapsed());
                    failed += u64::from(!ok);
                }
                (samples, failed)
            }));
        }
        // The ingesting client streams the rest of the sequence while
        // the query clients hammer the read path.
        for b in &blocks[1..] {
            let t = Instant::now();
            if seed_client.ingest(N_ITEMS, b).is_err() {
                errors.fetch_add(1, Ordering::SeqCst);
            }
            ingest.push(t.elapsed());
        }
        if n_clients == 1 {
            // Solo configuration: the same client runs the query script
            // sequentially, so every configuration reports both medians.
            for q in 0..queries_each {
                let t = Instant::now();
                let ok = if q % 2 == 0 {
                    seed_client.query_model_json().is_ok()
                } else {
                    match seed_client.stats_json() {
                        Ok(stats) => {
                            observe_depths(&stats);
                            true
                        }
                        Err(_) => false,
                    }
                };
                query.push(t.elapsed());
                errors.fetch_add(u64::from(!ok), Ordering::SeqCst);
            }
        }
        for h in handles {
            let (samples, failed) = h.join().expect("query client panicked");
            query.extend(samples);
            errors.fetch_add(failed, Ordering::SeqCst);
        }
    });
    let elapsed = t0.elapsed();

    // Correctness gate: the served model matches the batch reference —
    // the sharded daemon is held to the same byte-identity as 1-shard.
    match seed_client.query_model_json() {
        Ok(json) => assert_eq!(json, *reference, "served model diverged from batch mine"),
        Err(_) => {
            errors.fetch_add(1, Ordering::SeqCst);
        }
    }
    seed_client.shutdown().expect("graceful shutdown");
    handle.join().expect("server thread").expect("server run");

    let n_queriers = if n_clients == 1 { 1 } else { n_clients - 1 };
    let requests = (blocks.len() + 2 + n_queriers * queries_each) as u64;
    RunResult {
        ingest,
        query,
        depth_hist: depth_hist.into_inner().unwrap(),
        requests,
        elapsed,
    }
}
