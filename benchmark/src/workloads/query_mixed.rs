//! `query_mixed` — reads beside writes on the replica / event-loop
//! runtime (`shards = 2`, `workers = 2`, no WAL).
//!
//! Connection A ingests 500-transaction blocks back to back. Connection
//! B, on a second thread, issues exactly 3 `QueryModel` + 1
//! `QuerySequences` per acked block, starting each batch when it
//! observes the ack while A continues. The first `QueryModel` of an
//! epoch pays the replica's lazy JSON render, so about a quarter of the
//! reads are render misses. A read gain bought at publish time (eager
//! rendering, say) shows as `serve.query.miss_us` down with
//! `ingest_p50_ms` up here — and not at all on `ingest_durable`.
//!
//! The end-to-end metrics are connection A's. Read latency is a
//! per-layer metric (`serve.query.hit_us`, `serve.query.miss_us`, from
//! one instance of this very loop in the stage replay): every run must
//! print every end-to-end metric, and three of the four workloads have
//! no read.

use super::ingest_durable::{connect, Daemon};
use super::{batch_model_json, Ctx, ObsDelta, Outcome, Plan, Round, Segment, PATTERN_WINDOW};
use crate::gen::{self, N_ITEMS};
use crate::stats::Samples;
use crate::trace::{Lane, Span};
use demon_serve::ServeConfig;
use demon_types::obs::{self, Counter};
use demon_types::TxBlock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Op counts: `ingest_durable`'s (eight short rounds, for the reason
/// given there), so the two daemons absorb the very same blocks;
/// ≈ 3.1 ms per ingest beside reads ⇒ ≈ 0.55 s per segment, four reads
/// per block ⇒ 720 reads per segment.
pub const PLAN: Plan = Plan {
    round_seconds: 2.4,
    segments: 3,
    ingests_per_segment: 180,
    prefix: 64,
};

/// Reads connection B issues per acked block: 3 `QueryModel` then 1
/// `QuerySequences`.
pub const READS_PER_BLOCK: usize = 4;

/// Client connections (and client threads) of this workload.
pub const CLIENT_THREADS: usize = 2;

/// The daemon under test: the partitioned runtime on two event-loop
/// threads, volatile.
pub fn config() -> ServeConfig {
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, gen::minsup());
    config.shards = 2;
    config.workers = 2;
    config.pattern_window = Some(PATTERN_WINDOW);
    config
}

/// One ingest as connection A saw it.
pub struct Ack {
    /// Send → ack.
    pub latency: Duration,
    /// When the ack arrived.
    pub acked_at: Instant,
    /// Whether the daemon accepted the block.
    pub ok: bool,
}

/// One read as connection B saw it.
pub struct Read {
    /// Send → reply.
    pub latency: Duration,
    /// For a `QueryModel`: whether a block was acked since the previous
    /// one, so that this read paid the epoch's lazy render.
    pub miss: Option<bool>,
    /// Whether the daemon answered.
    pub ok: bool,
}

/// What one fresh daemon recorded.
pub struct Instance {
    /// Bind, ingest the prefix, connect B.
    pub setup: Duration,
    /// When A sent its first timed block.
    pub started: Instant,
    /// One entry per timed block.
    pub acks: Vec<Ack>,
    /// [`READS_PER_BLOCK`] entries per timed block.
    pub reads: Vec<Read>,
    /// Replica epochs published while timed.
    pub replica_swaps: f64,
    /// Model JSON renders while timed.
    pub lazy_renders: f64,
    /// The model the daemon served after the last block.
    pub served_model: Option<String>,
    /// Both connections' spans (traced runs only).
    pub spans: Vec<Span>,
}

/// Starts a daemon, ingests `prefix`, then streams `timed` over
/// connection A while connection B reads, and shuts the daemon down.
/// The two connections record their spans in `lanes`.
pub fn instance(
    prefix: &[TxBlock],
    timed: &[TxBlock],
    [mut lane_a, mut lane_b]: [Lane; 2],
    op_base: u64,
) -> Instance {
    let t0 = Instant::now();
    let daemon = Daemon::start(config());
    let mut writer = connect(daemon.addr);
    for block in prefix {
        writer.ingest(N_ITEMS, block).expect("prefix ingest");
    }
    let mut reader = connect(daemon.addr);
    let setup = t0.elapsed();

    let counters = ObsDelta::start();
    let acked = AtomicU64::new(0);
    let started = Instant::now();
    let (acks, reads) = std::thread::scope(|scope| {
        let reader_thread =
            scope.spawn(|| read_loop(&mut reader, &acked, timed.len(), &mut lane_b, op_base));
        let acks = write_loop(
            &mut writer,
            timed,
            &acked,
            reader_thread.thread(),
            &mut lane_a,
            op_base,
        );
        (acks, reader_thread.join().expect("reader thread panicked"))
    });
    let replica_swaps = counters.of(Counter::ServeReplicaSwaps);
    let lazy_renders = counters.of(Counter::ServeReplicaLazyRenders);
    let served_model = writer.query_model_json().ok();
    drop(reader);
    daemon.stop(&mut writer);
    // Server::bind enabled the recorder; leave it as a fresh process has it.
    obs::reset();
    let mut spans = lane_a.into_spans();
    spans.extend(lane_b.into_spans());
    Instance {
        setup,
        started,
        acks,
        reads,
        replica_swaps,
        lazy_renders,
        served_model,
        spans,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let plan = ctx.plan;
    let blocks = gen::tx_stream(ctx.seed, plan.blocks_per_round());
    let (prefix, timed) = blocks.split_at(plan.prefix);
    let final_reference = batch_model_json(&blocks);

    let mut out = Outcome::default();
    let epoch = Instant::now();
    for round in 0..ctx.rounds {
        let op_base = (round * timed.len()) as u64;
        let lanes = [1, 2].map(|lane| Lane::new(epoch, lane, ctx.traced));
        let instance = instance(prefix, timed, lanes, op_base);
        let mut segment_start = instance.started;
        let segments = instance
            .acks
            .chunks(plan.ingests_per_segment)
            .map(|acks| {
                let mut ingest = Samples::with_capacity(acks.len());
                for ack in acks {
                    ingest.push(ack.latency);
                }
                let last = acks.last().expect("a segment of at least one block");
                let wall = last.acked_at - segment_start;
                segment_start = last.acked_at;
                Segment { ingest, wall }
            })
            .collect();
        out.attempted += (instance.acks.len() + instance.reads.len()) as u64;
        out.failed += instance.acks.iter().filter(|a| !a.ok).count() as u64;
        out.failed += instance.reads.iter().filter(|r| !r.ok).count() as u64;
        out.gate(
            instance.served_model.as_deref() == Some(final_reference.as_str()),
            || format!("round {round}: served model differs from the batch mine"),
        );
        out.push_round(Round {
            setup: instance.setup,
            segments,
        });
        out.spans.extend(instance.spans);
    }
    out
}

/// Connection A: ingest back to back, publish each ack to B.
fn write_loop(
    client: &mut demon_serve::Client,
    blocks: &[TxBlock],
    acked: &AtomicU64,
    reader: &std::thread::Thread,
    lane: &mut Lane,
    op_base: u64,
) -> Vec<Ack> {
    let mut acks = Vec::with_capacity(blocks.len());
    for (i, block) in blocks.iter().enumerate() {
        let op_id = op_base + i as u64;
        let op = lane.begin("op.ingest", 0, op_id);
        let t = Instant::now();
        let ok = lane.span("serve.client.ingest", op, op_id, || {
            client.ingest(N_ITEMS, block).is_ok()
        });
        let acked_at = Instant::now();
        lane.end(op);
        acks.push(Ack {
            latency: acked_at - t,
            acked_at,
            ok,
        });
        acked.store(i as u64 + 1, Ordering::Release);
        reader.unpark();
    }
    acks
}

/// Connection B: one batch of reads per observed ack.
fn read_loop(
    client: &mut demon_serve::Client,
    acked: &AtomicU64,
    n_blocks: usize,
    lane: &mut Lane,
    op_base: u64,
) -> Vec<Read> {
    let mut reads = Vec::with_capacity(n_blocks * READS_PER_BLOCK);
    let mut last_epoch = 0u64;
    for block in 0..n_blocks {
        while acked.load(Ordering::Acquire) <= block as u64 {
            std::thread::park_timeout(Duration::from_millis(5));
        }
        let op_id = op_base + block as u64;
        for q in 0..READS_PER_BLOCK {
            let model_query = q + 1 < READS_PER_BLOCK;
            let epoch_now = acked.load(Ordering::Acquire);
            let op = lane.begin("op.query", 0, op_id);
            let t = Instant::now();
            let ok = if model_query {
                lane.span("serve.client.query_model", op, op_id, || {
                    client.query_model_json().is_ok()
                })
            } else {
                lane.span("serve.client.query_sequences", op, op_id, || {
                    client.query_sequences().is_ok()
                })
            };
            let latency = t.elapsed();
            lane.end(op);
            reads.push(Read {
                latency,
                miss: model_query.then_some(epoch_now != last_epoch),
                ok,
            });
            if model_query {
                last_epoch = epoch_now;
            }
        }
    }
    reads
}
