//! `BENCH_maintenance.json` — the GEMM window-maintenance point of the
//! repo's machine-readable perf trajectory.
//!
//! Streams Quest blocks through a GEMM instance (window `w = 4`, all
//! blocks selected, frequent-itemset maintainer) and times the whole
//! arrival path — current-model update plus the off-line fan-out over the
//! `w−1` future-window models, which is the part that parallelizes —
//! sweeping the thread count 1/2/4/8 and reporting the **median** total
//! wall time per sweep. The final current model is asserted identical
//! across thread counts on every run; the header records the machine
//! (`cores`, `available_parallelism`).
//!
//! Knobs: `DEMON_SCALE` (dataset size, default 0.02) and
//! `DEMON_BENCH_REPEATS` (timed repeats per configuration, default 5).
//! The JSON is written to `BENCH_maintenance.json` in the working
//! directory (the repo root, when run via `cargo run`).

use demon_bench::{bench_repeats, cores, median_ms, quest_block, scale, write_bench_json};
use demon_core::{BlockSelector, Gemm, ItemsetMaintainer};
use demon_itemsets::CounterKind;
use demon_types::{obs, BlockId, MinSupport, Parallelism, TxBlock};
use serde_json::json;
use std::time::Instant;

const SPEC: &str = "500K.20L.1I.4pats.4plen";
const THREADS: [usize; 4] = [1, 2, 4, 8];
const W: usize = 4;
const N_BLOCKS: u64 = 6;

fn main() {
    let minsup = MinSupport::new(0.01).unwrap();
    let repeats = bench_repeats();
    let blocks = make_blocks();
    println!(
        "# BENCH maintenance: w={W}, {} blocks of ~{} txs, scale={}, repeats={}",
        blocks.len(),
        blocks.first().map_or(0, TxBlock::len),
        scale(),
        repeats
    );

    let run = |par: Parallelism| {
        let maintainer = ItemsetMaintainer::new(1000, minsup, CounterKind::Ecut);
        let mut gemm = Gemm::new(maintainer, W, BlockSelector::all())
            .unwrap()
            .with_parallelism(par);
        let t0 = Instant::now();
        for block in &blocks {
            gemm.add_block(block.clone()).unwrap();
        }
        let elapsed = t0.elapsed();
        let frequent = gemm.current_model().unwrap().frequent_sorted();
        (elapsed, frequent)
    };

    let (_, reference) = run(Parallelism::serial());
    let mut sweep = Vec::new();
    for &t in &THREADS {
        let mut samples = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let (elapsed, frequent) = run(Parallelism::new(t));
            assert_eq!(
                reference, frequent,
                "current model diverged at {t} threads"
            );
            samples.push(elapsed);
        }
        let median = median_ms(&mut samples);
        println!("# threads={t}: median_ms={median:.2}");
        sweep.push(json!({ "threads": t, "median_ms": { "gemm_stream": median } }));
    }

    // Operation counts for one full stream: an extra serial pass with the
    // recorder on, so the timed medians above stay instrumentation-free.
    obs::reset();
    obs::enable();
    let _ = run(Parallelism::serial());
    obs::disable();
    let mut op_counts = serde_json::Map::new();
    for (name, value) in obs::snapshot().counters {
        if value > 0 {
            op_counts.insert(name.to_string(), json!(value));
        }
    }

    let (cores, available_parallelism) = cores();
    write_bench_json(
        "BENCH_maintenance.json",
        json!({
            "bench": "maintenance",
            "cores": cores,
            "available_parallelism": available_parallelism,
            "spec": SPEC,
            "scale": scale(),
            "repeats": repeats,
            "window": W,
            "n_blocks": N_BLOCKS,
            "threads": sweep,
            "op_counts": op_counts,
        }),
    );
}

fn make_blocks() -> Vec<TxBlock> {
    let mut tid = 1u64;
    (1..=N_BLOCKS)
        .map(|b| {
            let block = quest_block(SPEC, b, BlockId(b), tid);
            tid += block.len() as u64;
            block
        })
        .collect()
}
