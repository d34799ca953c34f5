//! `BENCH_counting.json` — the support-counting point of the repo's
//! machine-readable perf trajectory.
//!
//! Counts the full (size ≥ 2) negative border of a mined Quest dataset
//! against the whole store with every counting backend, sweeping the
//! thread count 1/2/4/8 and reporting the **median** wall time of each
//! configuration. Counts are asserted bit-identical across backends and
//! thread counts on every run, so the numbers always describe the same
//! answer.
//!
//! Methodology: one untimed warm-up pass per backend, then `repeats`
//! rounds that each visit every (threads, backend) configuration once —
//! interleaving spreads machine-load drift across configurations. The
//! JSON carries `serial_baseline_ms` (the 1-thread medians), a per-entry
//! `speedup` map (`serial / median`) and the machine it was taken on
//! (`cores`, `available_parallelism`); the CI bench-regression gate
//! holds the committed 2-thread speedups to ≥ 1.3 when `cores ≥ 2`, and
//! a fresh reduced-scale sweep to no multi-thread entry slower than its
//! serial baseline.
//!
//! Knobs: `DEMON_SCALE` (dataset size, default 0.02) and
//! `DEMON_BENCH_REPEATS` (timed repeats per configuration, default 5).
//! The JSON is written to `BENCH_counting.json` in the working directory
//! (the repo root, when run via `cargo run`).

use demon_bench::{bench_repeats, cores, median_ms, quest_block, scale, write_bench_json};
use demon_itemsets::{count_supports_with, CounterKind, FrequentItemsets, TxStore};
use demon_types::{obs, BlockId, ItemSet, MinSupport, Parallelism};
use serde_json::json;
use std::time::Instant;

const SPEC: &str = "2M.20L.1I.4pats.4plen";
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let minsup = MinSupport::new(0.01).unwrap();
    let repeats = bench_repeats();
    let (store, ids, candidates) = prepare(minsup);
    println!(
        "# BENCH counting: {} candidates, {} blocks, scale={}, repeats={}",
        candidates.len(),
        ids.len(),
        scale(),
        repeats
    );

    let kinds = [CounterKind::PtScan, CounterKind::Ecut, CounterKind::EcutPlus];
    // Reference counts at one thread; every other configuration must match.
    let reference =
        count_supports_with(CounterKind::Ecut, &store, &ids, &candidates, Parallelism::serial());

    // Warm-up: one untimed pass per backend, so the first timed
    // configuration doesn't pay one-off page-fault / cache-fill costs
    // that later configurations skip.
    for kind in kinds {
        let _ = count_supports_with(kind, &store, &ids, &candidates, Parallelism::serial());
    }

    // Interleaved sampling: each repeat visits every (threads, backend)
    // configuration once, so slow machine-load drift spreads evenly
    // across configurations instead of biasing whichever ran last; the
    // starting configuration rotates per repeat so position-in-round
    // effects (allocator/cache state left by the previous config) are
    // shared out too.
    let configs: Vec<(usize, usize)> = (0..THREADS.len())
        .flat_map(|ti| (0..kinds.len()).map(move |ki| (ti, ki)))
        .collect();
    let mut samples: Vec<Vec<Vec<std::time::Duration>>> =
        vec![vec![Vec::with_capacity(repeats); kinds.len()]; THREADS.len()];
    for rep in 0..repeats {
        for c in 0..configs.len() {
            let (ti, ki) = configs[(c + rep) % configs.len()];
            let (t, kind) = (THREADS[ti], kinds[ki]);
            let par = Parallelism::new(t);
            let t0 = Instant::now();
            let r = count_supports_with(kind, &store, &ids, &candidates, par);
            samples[ti][ki].push(t0.elapsed());
            assert_eq!(
                reference.counts,
                r.counts,
                "{} at {} threads disagrees with the serial reference",
                kind.name(),
                t
            );
        }
    }

    // Serial (1-thread) medians double as the anti-scaling baseline the
    // CI bench-regression gate compares every multi-thread median to.
    let mut serial_baseline = serde_json::Map::new();
    for (ki, kind) in kinds.iter().enumerate() {
        serial_baseline.insert(
            kind.name().to_string(),
            json!(median_ms(&mut samples[0][ki].clone())),
        );
    }

    let mut sweep = Vec::new();
    for (ti, &t) in THREADS.iter().enumerate() {
        let mut medians = serde_json::Map::new();
        let mut speedups = serde_json::Map::new();
        for (ki, kind) in kinds.iter().enumerate() {
            let median = median_ms(&mut samples[ti][ki]);
            let base = serial_baseline
                .get(kind.name())
                .and_then(serde_json::Value::as_f64)
                .expect("serial baseline recorded");
            medians.insert(kind.name().to_string(), json!(median));
            speedups.insert(
                kind.name().to_string(),
                json!((base / median * 1000.0).round() / 1000.0),
            );
        }
        println!("# threads={t}: {medians:?}");
        sweep.push(json!({ "threads": t, "median_ms": medians, "speedup": speedups }));
    }

    // Operation counts per backend: one extra serial pass with the
    // recorder on. The timed loops above run with it off, so the medians
    // are untouched by instrumentation.
    let mut op_counts = serde_json::Map::new();
    for kind in kinds {
        obs::reset();
        obs::enable();
        let _ = count_supports_with(kind, &store, &ids, &candidates, Parallelism::serial());
        obs::disable();
        let mut section = serde_json::Map::new();
        for (name, value) in obs::snapshot().counters {
            if value > 0 {
                section.insert(name.to_string(), json!(value));
            }
        }
        op_counts.insert(kind.name().to_string(), json!(section));
    }

    let (cores, available_parallelism) = cores();
    write_bench_json(
        "BENCH_counting.json",
        json!({
            "bench": "counting",
            "cores": cores,
            "available_parallelism": available_parallelism,
            "spec": SPEC,
            "scale": scale(),
            "repeats": repeats,
            "n_candidates": candidates.len(),
            "n_blocks": ids.len(),
            "serial_baseline_ms": serial_baseline,
            "threads": sweep,
            "op_counts": op_counts,
        }),
    );
}

/// Four Quest blocks, the mined model's negative border as candidates,
/// and materialized frequent pairs so ECUT+ exercises its fast path.
fn prepare(minsup: MinSupport) -> (TxStore, Vec<BlockId>, Vec<ItemSet>) {
    let n_items = 1000;
    let mut store = TxStore::new(n_items);
    let mut tid = 1u64;
    let mut ids = Vec::new();
    for b in 1..=4u64 {
        let block = quest_block(&quarter(SPEC), b, BlockId(b), tid);
        tid += block.len() as u64;
        ids.push(block.id());
        store.add_block(block);
    }
    let model = FrequentItemsets::mine_from(&store, &ids, minsup).unwrap();
    let pairs = model.frequent_pairs_by_support();
    for &id in &ids {
        store.materialize_pairs(id, &pairs, None);
    }
    let mut candidates: Vec<ItemSet> = model
        .border()
        .keys()
        .filter(|s| s.len() >= 2)
        .cloned()
        .collect();
    candidates.sort();
    (store, ids, candidates)
}

/// Divides the spec's transaction count by 4 (loaded as 4 blocks).
fn quarter(spec: &str) -> String {
    let mut parts: Vec<String> = spec.split('.').map(str::to_string).collect();
    let m: f64 = parts[0].trim_end_matches('M').parse().unwrap();
    parts[0] = format!("{}K", (m * 1000.0 / 4.0).round() as u64);
    parts.join(".")
}
