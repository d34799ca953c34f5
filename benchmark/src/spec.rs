//! The benchmark's names: workloads, end-to-end metrics and their
//! bounds, per-layer metrics and their layers. `BENCHMARK.json` at the
//! repository root declares the same names; `tests/contract.rs` holds
//! the two together.

/// Which direction of a metric is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A latency, a size.
    Lower,
    /// A rate.
    Higher,
}

/// One workload.
pub struct WorkloadSpec {
    /// Its `--workload` name.
    pub name: &'static str,
    /// Why it exists, in one sentence.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "ingest_durable",
        why: "1 connection, closed loop: 500-tx blocks into a shards=1 daemon with a WAL (fsync per block), the README-default durable path; decode, WAL append+fsync, monitor apply do the work; replicas, GEMM idle",
    },
    WorkloadSpec {
        name: "query_mixed",
        why: "2 connections, closed loops, shards=2 volatile daemon: A ingests 500-tx blocks (timed), B reads 3 QueryModel + 1 QuerySequences per ack; writes beside reads on the replica runtime; WAL, fsync idle",
    },
    WorkloadSpec {
        name: "gemm_window",
        why: "library, 1 thread: DemonEngine add_block of 500-tx blocks over the w=4 most recent window; GEMM's future-window recounts make the itemset counting kernels most of the time; sockets, WAL, FOCUS idle",
    },
    WorkloadSpec {
        name: "class_sweep",
        why: "library, 1 thread: a tick feeds point blocks to BIRCH+, incremental DBSCAN (w=4) and a decision tree (w=4) with their FOCUS oracles; itemsets, serving, WAL idle: changes there must not move it",
    },
];

/// One end-to-end metric.
pub struct EndToEndSpec {
    /// Metric name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is good.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The five end-to-end metrics. Every run prints every one of them, so
/// they are the metrics every workload has: three of the four workloads
/// issue no read, and read latency beside writes is per-layer
/// (`serve.query.hit_us`, `serve.query.miss_us`).
///
/// A bound holds for a metric on all four workloads, and is at least
/// three times the widest spread (IQR ÷ median over ten runs with ten
/// seeds) the metric showed on any of them in an ordinary hour of the
/// reference host: 4.1 % for the median, 5.0 % for the rate, 5.5 % for
/// the tail (in the worst hour seen `ingest_durable`, which fsyncs to a
/// shared disk, spread 12.7 %, 14.3 % and 18.6 % — still inside). The
/// host itself drifts by more than the issue's 0.10: single-threaded,
/// socket-free `gemm_window` reads 19.3 ms per block in one quarter of
/// an hour and 21.4 ms in the next, so a tighter bound would reject
/// changes for the neighbours' load. The resident set, read when the
/// first round ends, repeats within 1.4 % and keeps the issue's 0.05.
/// `setup_s` is one sub-second interval per round and carries the
/// largest bound, as the driver's contract asks.
pub const END_TO_END: [EndToEndSpec; 5] = [
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "ingest_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEndSpec {
        name: "ingest_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndSpec {
        name: "blocks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// `(name, unit)` of every per-layer metric, measured by a traced run
/// (`--trace 1`). The prefix up to the last dot is the layer: a module
/// of the repository, or `datagen` / `trace` / `noise` for the
/// harness's own diagnostics. `benchmark/README.md` says how each is
/// measured and which end-to-end metric it should move on which
/// workload.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.bytes_per_block", "B"),
    ("types.wal.append_us", "us"),
    ("types.wal.sync_us", "us"),
    ("types.wal.sync_tail_us", "us"),
    ("types.wal.bytes_per_block", "B"),
    ("types.wal.fsyncs_per_block", "count"),
    ("types.wal.replay_ms", "ms"),
    ("serve.server.recover_ms", "ms"),
    ("core.monitor.add_block_us", "us"),
    ("core.engine.add_block_us", "us"),
    ("focus.step_us", "us"),
    ("serve.server.rtt_floor_us", "us"),
    ("serve.event_loop.rtt_floor_us", "us"),
    ("serve.server.ingest_residual_us", "us"),
    ("serve.server.compactions", "count"),
    ("serve.server.snapshot_ms", "ms"),
    ("serve.server.ingest_stall_max_ms", "ms"),
    ("serve.shard.add_block_us", "us"),
    ("serve.shard.publish_us", "us"),
    ("serve.shard.replica_swaps", "count"),
    ("serve.shard.render_us", "us"),
    ("serve.shard.render_bytes", "B"),
    ("serve.shard.lazy_render_share", "ratio"),
    ("serve.query.hit_us", "us"),
    ("serve.query.miss_us", "us"),
    ("itemsets.counter.count_us", "us"),
    ("itemsets.counter.candidates_per_block", "count"),
    ("itemsets.counter.tids_per_block", "count"),
    ("itemsets.tidlist.tids_per_us", "1/us"),
    ("itemsets.tidlist.merge_share", "ratio"),
    ("itemsets.tidlist.gallop_share", "ratio"),
    ("itemsets.tidlist.bitset_share", "ratio"),
    ("itemsets.store.add_block_us", "us"),
    ("core.gemm.models_per_block", "count"),
    ("core.gemm.shelf_hits", "count"),
    ("core.gemm.shelf_misses", "count"),
    ("store.insert_us", "us"),
    ("store.get_hit_us", "us"),
    ("store.get_miss_us", "us"),
    ("store.evictions", "count"),
    ("store.bytes_spilled", "B"),
    ("store.bytes_resident", "B"),
    ("clustering.birch.add_block_us", "us"),
    ("clustering.dbscan.add_block_us", "us"),
    ("trees.add_block_us", "us"),
    ("focus.deviation.clusters_us", "us"),
    ("focus.deviation.dbscan_us", "us"),
    ("focus.deviation.trees_us", "us"),
    ("focus.deviation.itemsets_us", "us"),
    ("clustering.birch.cf_inserts_per_block", "count"),
    ("types.parallel.speedup_2t", "ratio"),
    ("types.parallel.regions_per_block", "count"),
    ("datagen.gen_ms_per_block", "ms"),
    ("trace.overhead_share", "ratio"),
    ("noise.segment_iqr_share", "ratio"),
    ("noise.steal_share", "ratio"),
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The `BENCHMARK.json` these tables imply.
pub fn benchmark_json() -> serde_json::Value {
    use serde_json::{json, Value};
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                },
                "bound": m.bound,
            })
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            // A rate or a hit share is better high; everything else is
            // a cost, a size or a count of work done.
            let higher = matches!(
                name,
                "itemsets.tidlist.tids_per_us"
                    | "types.parallel.speedup_2t"
                    | "core.gemm.shelf_hits"
            );
            json!({"name": name, "unit": unit, "better": if higher { "higher" } else { "lower" }})
        })
        .collect();
    json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "benchmark/Cargo.toml", "--"
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}
