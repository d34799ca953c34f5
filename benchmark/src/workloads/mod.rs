//! The four workloads and what they share: the run shape, the record of
//! a run, and the reduction of that record to the end-to-end metrics.
//!
//! Every workload is a **closed loop** (each caller waits for its ack
//! before the next op), runs a **fixed op count** (parent and change do
//! identical work) from one process with at most `nproc` client
//! threads, and pins engine parallelism to 1.

pub mod class_sweep;
pub mod gemm_window;
pub mod ingest_durable;
pub mod query_mixed;

use crate::stats::{estimate, Estimate, Samples};
use crate::trace::{Lane, Span};
use std::path::Path;
use std::time::{Duration, Instant};

/// FOCUS similarity threshold α (the daemon default).
pub const ALPHA: f64 = 0.12;
/// Pattern-detection window of every monitor. An unrestricted pattern
/// window compares each arriving block with *every* earlier block, so
/// its per-block cost grows with the stream (≈ 0.05 ms per earlier
/// block here) and a round's last segment would measure the stream's
/// length. Model windows are per workload.
pub const PATTERN_WINDOW: usize = 16;
/// Window size of the most-recent-window engines.
pub const WINDOW: usize = 4;

/// The fixed op counts of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// What one round costs on the reference host (2 vCPU Xeon
    /// 2.1 GHz), in seconds, with its share of what a run does outside
    /// rounds (generating the blocks, the batch mines of the gates):
    /// `--seconds` ÷ this is the number of rounds a run makes.
    pub round_seconds: f64,
    /// Timed segments per round.
    pub segments: usize,
    /// Blocks (ticks) absorbed per segment.
    pub ingests_per_segment: usize,
    /// Blocks absorbed during set-up, before the first timed op.
    pub prefix: usize,
}

impl Plan {
    /// Blocks one round consumes.
    pub fn blocks_per_round(&self) -> usize {
        self.prefix + self.segments * self.ingests_per_segment
    }

    /// Shrinks the plan to a smoke test (`--quick`, the contract test).
    pub fn quick(mut self) -> Plan {
        self.segments = 2;
        self.ingests_per_segment = 12;
        self.prefix = self.prefix.min(8);
        self
    }

    /// Rounds of a run that measures for `seconds`: as many whole rounds
    /// as fit, at least 2 so that every metric rests on more than one
    /// fresh instance. Op counts per round never change, so parent and
    /// change do identical work in runs of identical length.
    pub fn rounds_for(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.round_seconds) as usize).max(2)
    }
}

/// What one timed segment recorded.
#[derive(Clone, Debug)]
pub struct Segment {
    /// One latency per absorbed block (tick).
    pub ingest: Samples,
    /// First send to last ack of the segment's ingests.
    pub wall: Duration,
}

/// One timed segment of a single closed loop: `ingest` absorbs the next
/// block inside spans under the op's root span and says whether it
/// succeeded, `n` times back to back.
pub fn ingest_segment(
    n: usize,
    lane: &mut Lane,
    op_base: u64,
    out: &mut Outcome,
    mut ingest: impl FnMut(&mut Lane, u64, u64) -> bool,
) -> Segment {
    let mut samples = Samples::with_capacity(n);
    let started = Instant::now();
    for i in 0..n {
        let op_id = op_base + i as u64;
        let op = lane.begin("op.ingest", 0, op_id);
        let t = Instant::now();
        let ok = ingest(lane, op, op_id);
        samples.push(t.elapsed());
        lane.end(op);
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    Segment {
        ingest: samples,
        wall: started.elapsed(),
    }
}

/// What one round (one fresh instance) recorded.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Create the system → ready for the first timed op.
    pub setup: Duration,
    /// The timed segments, in order.
    pub segments: Vec<Segment>,
}

/// Everything a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// One entry per fresh instance.
    pub rounds: Vec<Round>,
    /// Timed ops issued.
    pub attempted: u64,
    /// Timed ops that failed: `Busy`, typed error, timeout.
    pub failed: u64,
    /// The process's high-water RSS when the first round ended, in MB.
    pub peak_rss_mb: f64,
    /// Correctness gates that did not hold (empty = correct).
    pub gate_failures: Vec<String>,
    /// Harness spans (traced runs only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a finished round. The resident set is read after the
    /// first one: that is a fresh process with one instance, what a
    /// user runs. Later instances reuse or miss the heap the earlier
    /// ones freed, depending on which allocator arena their threads are
    /// handed — at exit `query_mixed` read 567 or 625 MB by chance.
    pub fn push_round(&mut self, round: Round) {
        if self.rounds.is_empty() {
            self.peak_rss_mb = crate::env::peak_rss_mb();
        }
        self.rounds.push(round);
    }

    /// Records a failed gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }
}

/// The context a workload runs in.
pub struct Ctx<'a> {
    /// `--seed`.
    pub seed: u64,
    /// Op counts.
    pub plan: Plan,
    /// Fresh instances to run.
    pub rounds: usize,
    /// Record harness spans.
    pub traced: bool,
    /// A directory of the benchmark's own for WAL and spill files.
    pub scratch: &'a Path,
}

/// The timed end-to-end metrics of an [`Outcome`]; see [`crate::stats`]
/// for the estimator.
pub struct EndToEnd {
    /// Create the system → ready for the first timed op.
    pub setup_s: Estimate,
    /// Per-segment median ingest latency.
    pub ingest_p50_ms: Estimate,
    /// Per-segment p90 ingest latency.
    pub ingest_tail_ms: Estimate,
    /// Blocks of a segment ÷ its wall.
    pub blocks_per_s: Estimate,
    /// The slowest single ingest of the run.
    pub ingest_max_ms: f64,
}

/// Reduces the recorded samples to the end-to-end metrics.
pub fn reduce(outcome: &Outcome) -> EndToEnd {
    let positions = outcome.rounds.first().map_or(0, |r| r.segments.len());
    let by_position = |f: &dyn Fn(&Segment) -> f64| -> Vec<Vec<f64>> {
        (0..positions)
            .map(|k| outcome.rounds.iter().map(|r| f(&r.segments[k])).collect())
            .collect()
    };
    let setups = outcome
        .rounds
        .iter()
        .map(|r| r.setup.as_secs_f64())
        .collect();
    // Every segment absorbs the same number of blocks, so the rate over
    // a round is that number ÷ the mean segment wall.
    let wall = estimate(&by_position(&|s| s.wall.as_secs_f64()));
    let blocks = outcome
        .rounds
        .first()
        .and_then(|r| r.segments.first())
        .map_or(0, |s| s.ingest.0.len()) as f64;
    EndToEnd {
        setup_s: estimate(&[setups]),
        ingest_p50_ms: estimate(&by_position(&|s| s.ingest.p50_p90_ms().0)),
        ingest_tail_ms: estimate(&by_position(&|s| s.ingest.p50_p90_ms().1)),
        blocks_per_s: Estimate {
            value: blocks / wall.value,
            median: blocks / wall.median,
            quartile: blocks / wall.quartile,
            iqr_share: wall.iqr_share,
        },
        ingest_max_ms: outcome
            .rounds
            .iter()
            .flat_map(|r| &r.segments)
            .map(|s| s.ingest.max_ms())
            .fold(0.0, f64::max),
    }
}

/// Counter movement of the program's `obs` recorder since construction.
pub struct ObsDelta(demon_types::obs::Snapshot);

impl ObsDelta {
    /// Remembers the counters as they are now.
    pub fn start() -> ObsDelta {
        ObsDelta(demon_types::obs::snapshot())
    }

    /// How far `counter` moved since [`ObsDelta::start`].
    pub fn of(&self, counter: demon_types::obs::Counter) -> f64 {
        let before = self.0.counter(counter.name()).unwrap_or(0);
        demon_types::obs::counter_value(counter).saturating_sub(before) as f64
    }
}

/// Removes a scratch directory and everything under it, ignoring a
/// directory that is already gone.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// The batch reference of the correctness gates: frequent itemsets mined
/// from scratch over `blocks`, as the daemon's canonical JSON.
pub fn batch_model_json(blocks: &[demon_types::TxBlock]) -> String {
    let mut store = demon_itemsets::TxStore::new(crate::gen::N_ITEMS);
    for b in blocks {
        store.add_block(b.clone());
    }
    let ids: Vec<demon_types::BlockId> = blocks.iter().map(|b| b.id()).collect();
    let model = demon_itemsets::FrequentItemsets::mine_from(&store, &ids, crate::gen::minsup())
        .expect("batch mine over generated blocks");
    serde_json::to_string(&model).expect("model serializes")
}
