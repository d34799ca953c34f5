//! Observability: operation counters, log₂ histograms, scoped span
//! timers, and a structured JSONL event log — all behind one global
//! on/off switch that costs a single relaxed atomic load when disabled.
//!
//! # Design
//!
//! The recorder is process-global, like [`crate::parallel::set_global`]:
//! hot paths deep inside the mining kernels cannot thread a handle
//! through every call without distorting the APIs the paper describes,
//! so they call [`add`]/[`incr`]/[`span`] directly and the functions
//! no-op unless [`enable`] ran. Every recording entry point starts with
//! `if !is_enabled() { return; }` on a `Relaxed` load, which inlines to
//! a load-and-branch — cheap enough to leave in release hot loops
//! (bench-guarded: disabled-recorder medians must stay within noise of
//! a build without any instrumentation).
//!
//! # Determinism contract
//!
//! The workspace guarantees bit-identical results at any thread count,
//! and the recorder is held to the same standard:
//!
//! * **Counters** ([`Counter`]) only measure quantities whose *totals*
//!   are independent of sharding — candidates probed, intersections
//!   performed, border promotions. They are accumulated with relaxed
//!   atomic adds, which commute, so the totals are equal at 1, 2 or 8
//!   threads (asserted by `tests/determinism.rs`).
//! * **Histograms** ([`Hist`]) hold the quantities that legitimately
//!   *do* depend on the thread count (shard sizes, region wall-clock):
//!   they are reported but never part of the invariance contract.
//! * **Events** are only emitted from outside parallel regions (span
//!   guards check [`crate::parallel::in_parallel_region`]), so the
//!   JSONL event *sequence* is deterministic; wall-clock durations in
//!   the payloads of course vary run to run.
//!
//! # Event schema
//!
//! One JSON object per line, always with `"seq"` (0-based emission
//! index) and `"type"`. See `DESIGN.md` § Observability for the full
//! catalog; the shapes are:
//!
//! ```json
//! {"seq":0,"type":"span_begin","name":"mine"}
//! {"seq":1,"type":"span_end","name":"mine","us":1234}
//! {"seq":2,"type":"counters","candidates_probed":77, ...}
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The catalog of operation counters. Every counter measures a quantity
/// whose total is independent of the thread count (see the module docs
/// for why that restriction exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Candidate itemsets whose support was asked for (any backend).
    CandidatesProbed,
    /// TID-list intersections performed by ECUT / ECUT+.
    Intersections,
    /// Pairwise intersections resolved by the naive two-pointer merge
    /// kernel (comparable list lengths, sparse overlap window).
    IntersectMerge,
    /// Pairwise intersections resolved by the galloping kernel (one
    /// list much shorter than the other).
    IntersectGallop,
    /// Pairwise intersections resolved by the u64-bitset-chunk kernel
    /// (dense overlap window).
    IntersectBitset,
    /// TID entries read while intersecting or scanning (8 bytes each).
    TidsScanned,
    /// Transactions visited by the PT-Scan backend.
    TxScanned,
    /// Bytes of encoded block payload read or written by the store codec.
    CodecBytes,
    /// Itemsets promoted across the negative border (infrequent → frequent).
    BorderPromotions,
    /// Itemsets demoted across the negative border (frequent → infrequent).
    BorderDemotions,
    /// GEMM future-model reads answered from a disk shelf. GEMM keeps its
    /// models in memory, so this stays 0; kept for the benchmark's
    /// `core.gemm.shelf_hits` row.
    ShelfHits,
    /// GEMM future-model reads rebuilt from the block stream; stays 0 like
    /// [`Counter::ShelfHits`].
    ShelfMisses,
    /// GEMM window advances served by projecting an existing model.
    GemmProjections,
    /// GEMM window advances that shifted/rebuilt model slots.
    GemmShifts,
    /// CF-tree leaf-entry insertions (BIRCH phase 1).
    CfInserts,
    /// CF-tree node splits.
    CfSplits,
    /// CF-tree rebuilds (threshold escalation).
    CfRebuilds,
    /// BIRCH phase-2 refinement iterations.
    Phase2Iterations,
    /// FOCUS bootstrap resamples drawn.
    BootstrapResamples,
    /// Parallel regions entered (`par_ranges` / `par_for_each_mut`).
    ParallelRegions,
    /// Block-store reads answered from the resident set.
    StoreHits,
    /// Block-store reads that had to load a spilled block from disk.
    StoreMisses,
    /// Blocks evicted from a block store's resident set.
    StoreEvictions,
    /// Bytes written to block-store spill files.
    StoreBytesSpilled,
    /// High-water mark of resident block-store bytes (recorded with
    /// [`record_max`], not accumulated).
    StoreBytesResident,
    /// Requests served by the `demon-serve` daemon (any verb).
    ServeRequests,
    /// Request payload bytes received by the daemon (frame headers included).
    ServeBytesIn,
    /// Response bytes sent by the daemon (frame headers included).
    ServeBytesOut,
    /// High-water mark of the daemon's ingest-queue depth (recorded with
    /// [`record_max`], not accumulated).
    ServeQueueDepth,
    /// Ingest requests rejected because the bounded queue stayed full past
    /// the backpressure deadline (or arrived after shutdown began).
    ServeRejects,
    /// Records appended to the write-ahead log.
    WalAppends,
    /// Bytes appended to the write-ahead log (frame headers included).
    WalBytes,
    /// fsyncs issued by the write-ahead log (appends and rotations).
    WalFsyncs,
    /// WAL records replayed into the monitor during startup recovery
    /// (duplicates of the snapshot are skipped and not counted).
    WalReplays,
    /// Torn WAL tails dropped during recovery (truncated or corrupt
    /// final records; at most one per WAL file read).
    WalTornTails,
    /// Blocks routed to and applied by a serving shard (sharded daemon;
    /// the total equals the blocks ingested regardless of shard count).
    ServeShardIngests,
    /// Queries answered from an immutable shard-replica snapshot
    /// (sharded daemon; the total is shard-count independent).
    ServeShardQueries,
    /// Epoch-replica pointer flips published by the sharded daemon's
    /// sequencer (one per applied block, plus the recovery publish).
    ServeReplicaSwaps,
    /// High-water mark of the block-count spread between the fullest and
    /// the emptiest serving shard (recorded with [`record_max`], not
    /// accumulated) — the router's imbalance gauge.
    ServeShardImbalance,
    /// Replica model-JSON renders performed lazily on the first
    /// `QueryModel` hit of an epoch (replicas are published with the
    /// JSON deferred; epochs nobody queries never pay the render).
    ServeReplicaLazyRenders,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 40] = [
        Counter::CandidatesProbed,
        Counter::Intersections,
        Counter::IntersectMerge,
        Counter::IntersectGallop,
        Counter::IntersectBitset,
        Counter::TidsScanned,
        Counter::TxScanned,
        Counter::CodecBytes,
        Counter::BorderPromotions,
        Counter::BorderDemotions,
        Counter::ShelfHits,
        Counter::ShelfMisses,
        Counter::GemmProjections,
        Counter::GemmShifts,
        Counter::CfInserts,
        Counter::CfSplits,
        Counter::CfRebuilds,
        Counter::Phase2Iterations,
        Counter::BootstrapResamples,
        Counter::ParallelRegions,
        Counter::StoreHits,
        Counter::StoreMisses,
        Counter::StoreEvictions,
        Counter::StoreBytesSpilled,
        Counter::StoreBytesResident,
        Counter::ServeRequests,
        Counter::ServeBytesIn,
        Counter::ServeBytesOut,
        Counter::ServeQueueDepth,
        Counter::ServeRejects,
        Counter::WalAppends,
        Counter::WalBytes,
        Counter::WalFsyncs,
        Counter::WalReplays,
        Counter::WalTornTails,
        Counter::ServeShardIngests,
        Counter::ServeShardQueries,
        Counter::ServeReplicaSwaps,
        Counter::ServeShardImbalance,
        Counter::ServeReplicaLazyRenders,
    ];

    /// The snake_case name used in `--stats` tables, JSONL events and
    /// the `BENCH_*.json` op-count section.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CandidatesProbed => "candidates_probed",
            Counter::Intersections => "intersections",
            Counter::IntersectMerge => "intersect.merge",
            Counter::IntersectGallop => "intersect.gallop",
            Counter::IntersectBitset => "intersect.bitset",
            Counter::TidsScanned => "tids_scanned",
            Counter::TxScanned => "tx_scanned",
            Counter::CodecBytes => "codec_bytes",
            Counter::BorderPromotions => "border_promotions",
            Counter::BorderDemotions => "border_demotions",
            Counter::ShelfHits => "shelf_hits",
            Counter::ShelfMisses => "shelf_misses",
            Counter::GemmProjections => "gemm_projections",
            Counter::GemmShifts => "gemm_shifts",
            Counter::CfInserts => "cf_inserts",
            Counter::CfSplits => "cf_splits",
            Counter::CfRebuilds => "cf_rebuilds",
            Counter::Phase2Iterations => "phase2_iterations",
            Counter::BootstrapResamples => "bootstrap_resamples",
            Counter::ParallelRegions => "parallel_regions",
            Counter::StoreHits => "store.hits",
            Counter::StoreMisses => "store.misses",
            Counter::StoreEvictions => "store.evictions",
            Counter::StoreBytesSpilled => "store.bytes_spilled",
            Counter::StoreBytesResident => "store.bytes_resident",
            Counter::ServeRequests => "serve.requests",
            Counter::ServeBytesIn => "serve.bytes_in",
            Counter::ServeBytesOut => "serve.bytes_out",
            Counter::ServeQueueDepth => "serve.queue_depth",
            Counter::ServeRejects => "serve.rejects",
            Counter::WalAppends => "wal.appends",
            Counter::WalBytes => "wal.bytes",
            Counter::WalFsyncs => "wal.fsyncs",
            Counter::WalReplays => "wal.replays",
            Counter::WalTornTails => "wal.torn_tails",
            Counter::ServeShardIngests => "serve.shard.ingests",
            Counter::ServeShardQueries => "serve.shard.queries",
            Counter::ServeReplicaSwaps => "serve.shard.replica_swaps",
            Counter::ServeShardImbalance => "serve.shard.imbalance",
            Counter::ServeReplicaLazyRenders => "serve.replica_lazy_renders",
        }
    }
}

/// Histograms for quantities that depend on the thread count or on
/// wall-clock time — reported, but outside the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Items per shard of a parallel region.
    ShardItems,
    /// Wall-clock microseconds per parallel region (fork to join).
    RegionMicros,
    /// Wall-clock microseconds per completed span.
    SpanMicros,
}

impl Hist {
    /// Every histogram, in display order.
    pub const ALL: [Hist; 3] = [Hist::ShardItems, Hist::RegionMicros, Hist::SpanMicros];

    /// The snake_case name used in `--stats` tables.
    pub fn name(self) -> &'static str {
        match self {
            Hist::ShardItems => "shard_items",
            Hist::RegionMicros => "region_micros",
            Hist::SpanMicros => "span_micros",
        }
    }
}

const N_COUNTERS: usize = Counter::ALL.len();
const N_HISTS: usize = Hist::ALL.len();
/// log₂ buckets: bucket `i` holds values in `[2^(i-1), 2^i)`, bucket 0
/// holds zero. 65 buckets cover the full `u64` range.
const N_BUCKETS: usize = 65;

static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];
static HIST_BUCKETS: [[AtomicU64; N_BUCKETS]; N_HISTS] =
    [const { [ZERO; N_BUCKETS] }; N_HISTS];
static HIST_SUM: [AtomicU64; N_HISTS] = [ZERO; N_HISTS];
static HIST_COUNT: [AtomicU64; N_HISTS] = [ZERO; N_HISTS];

static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Turns the recorder on. Counters start accumulating and spans start
/// emitting events. Idempotent.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off. Already-accumulated state is kept until
/// [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the recorder is currently on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every counter and histogram and discards buffered events.
/// Does not change the enabled flag.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for h in &HIST_BUCKETS {
        for b in h {
            b.store(0, Ordering::Relaxed);
        }
    }
    for s in &HIST_SUM {
        s.store(0, Ordering::Relaxed);
    }
    for c in &HIST_COUNT {
        c.store(0, Ordering::Relaxed);
    }
    EVENTS.lock().expect("obs event sink poisoned").clear();
}

/// Adds `n` to a counter. A relaxed load-and-branch when disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if !is_enabled() {
        return;
    }
    COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Adds 1 to a counter.
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Raises a counter to `value` if `value` is larger — a monotone gauge
/// (used for high-water marks like `store.bytes_resident`). `fetch_max`
/// commutes, so the determinism contract holds as long as the recorded
/// values themselves are sharding-independent.
#[inline]
pub fn record_max(counter: Counter, value: u64) {
    if !is_enabled() {
        return;
    }
    COUNTERS[counter as usize].fetch_max(value, Ordering::Relaxed);
}

/// Records one observation into a histogram.
#[inline]
pub fn observe(hist: Hist, value: u64) {
    if !is_enabled() {
        return;
    }
    let bucket = match value {
        0 => 0,
        v => 64 - v.leading_zeros() as usize,
    };
    HIST_BUCKETS[hist as usize][bucket].fetch_add(1, Ordering::Relaxed);
    HIST_SUM[hist as usize].fetch_add(value, Ordering::Relaxed);
    HIST_COUNT[hist as usize].fetch_add(1, Ordering::Relaxed);
}

/// The current value of one counter.
pub fn counter_value(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// A point-in-time copy of every counter and histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-histogram summaries, in [`Hist::ALL`] order.
    pub hists: Vec<HistSummary>,
}

/// Summary of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSummary {
    /// The histogram's snake_case name.
    pub name: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// `(bucket_upper_bound, count)` for every non-empty log₂ bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl Snapshot {
    /// The value of a counter by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Sum of all counter values — a quick "did anything record" probe.
    pub fn total(&self) -> u64 {
        self.counters.iter().map(|&(_, v)| v).sum()
    }
}

/// Captures the current counters and histograms.
pub fn snapshot() -> Snapshot {
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name(), counter_value(c)))
        .collect();
    let hists = Hist::ALL
        .iter()
        .map(|&h| {
            let i = h as usize;
            let buckets = HIST_BUCKETS[i]
                .iter()
                .enumerate()
                .filter_map(|(b, cell)| {
                    let count = cell.load(Ordering::Relaxed);
                    (count > 0).then(|| (bucket_bound(b), count))
                })
                .collect();
            HistSummary {
                name: h.name(),
                count: HIST_COUNT[i].load(Ordering::Relaxed),
                sum: HIST_SUM[i].load(Ordering::Relaxed),
                buckets,
            }
        })
        .collect();
    Snapshot { counters, hists }
}

/// Inclusive upper bound of log₂ bucket `b` (`0` for the zero bucket).
fn bucket_bound(b: usize) -> u64 {
    match b {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

/// Renders the human-readable stats table (`demon-cli --stats` prints
/// this to stderr). Zero-valued counters are omitted.
pub fn render_table(snap: &Snapshot) -> String {
    let mut out = String::from("--- obs counters ---\n");
    let width = snap
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(snap.hists.iter().map(|h| h.name.len()))
        .max()
        .unwrap_or(0);
    for &(name, value) in &snap.counters {
        if value > 0 {
            out.push_str(&format!("{name:<width$}  {value}\n"));
        }
    }
    let live: Vec<&HistSummary> = snap.hists.iter().filter(|h| h.count > 0).collect();
    if !live.is_empty() {
        out.push_str("--- obs histograms (count / sum / mean) ---\n");
        for h in live {
            let mean = h.sum as f64 / h.count as f64;
            out.push_str(&format!(
                "{:<width$}  {} / {} / {mean:.1}\n",
                h.name, h.count, h.sum
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Events and spans
// ---------------------------------------------------------------------

/// One structured event, rendered as one JSONL line.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// 0-based emission index.
    pub seq: u64,
    /// Event type: `span_begin`, `span_end`, `counters`, or a custom tag.
    pub kind: &'static str,
    /// Event payload, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// A JSON-renderable event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"seq\":{},\"type\":\"{}\"", self.seq, self.kind);
        for (key, value) in &self.fields {
            out.push_str(&format!(",\"{key}\":"));
            match value {
                FieldValue::U64(v) => out.push_str(&v.to_string()),
                FieldValue::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
                FieldValue::F64(_) => out.push_str("null"),
                FieldValue::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\t' => out.push_str("\\t"),
                            '\r' => out.push_str("\\r"),
                            c if (c as u32) < 0x20 => {
                                out.push_str(&format!("\\u{:04x}", c as u32));
                            }
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }
}

/// Emits a structured event. Dropped (silently) when the recorder is
/// disabled **or** the calling thread is inside a parallel region — the
/// event sequence must not depend on thread interleaving.
pub fn emit(kind: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    if !is_enabled() || crate::parallel::in_parallel_region() {
        return;
    }
    let mut events = EVENTS.lock().expect("obs event sink poisoned");
    let seq = events.len() as u64;
    events.push(Event { seq, kind, fields });
}

/// Takes every buffered event, leaving the sink empty.
pub fn drain_events() -> Vec<Event> {
    std::mem::take(&mut *EVENTS.lock().expect("obs event sink poisoned"))
}

/// Renders all buffered events as JSONL (one event per line, trailing
/// newline included when non-empty) without draining them.
pub fn events_jsonl() -> String {
    let events = EVENTS.lock().expect("obs event sink poisoned");
    let mut out = String::new();
    for e in events.iter() {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// An RAII span timer: emits `span_begin` on creation and `span_end`
/// (with elapsed microseconds) on drop, and records the duration into
/// [`Hist::SpanMicros`]. Inert when the recorder is disabled; begin/end
/// events are suppressed inside parallel regions (the duration is still
/// observed into the histogram).
#[must_use = "a span measures the scope it is bound to"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    armed: bool,
}

/// Opens a span. Bind it (`let _span = obs::span("mine");`) so it drops
/// at scope exit.
pub fn span(name: &'static str) -> Span {
    let armed = is_enabled();
    if armed {
        emit("span_begin", vec![("name", FieldValue::Str(name.to_string()))]);
    }
    Span { name, start: Instant::now(), armed }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let us = self.start.elapsed().as_micros() as u64;
        observe(Hist::SpanMicros, us);
        emit(
            "span_end",
            vec![
                ("name", FieldValue::Str(self.name.to_string())),
                ("us", FieldValue::U64(us)),
            ],
        );
    }
}

/// Emits a `counters` event carrying every non-zero counter — the
/// conventional final line of a `--trace-out` file.
pub fn emit_counters_event() {
    let snap = snapshot();
    let fields: Vec<(&'static str, FieldValue)> = snap
        .counters
        .iter()
        .filter(|&&(_, v)| v > 0)
        .map(|&(name, v)| (name, FieldValue::U64(v)))
        .collect();
    emit("counters", fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counters, histograms and events share process-global state, so a
    /// single test owns the whole lifecycle (the rest of the suite runs
    /// with the recorder disabled).
    #[test]
    fn recorder_lifecycle() {
        // Disabled: everything is a no-op.
        reset();
        add(Counter::Intersections, 5);
        observe(Hist::SpanMicros, 10);
        emit("custom", vec![("k", 1u64.into())]);
        {
            let _span = span("noop");
        }
        assert_eq!(counter_value(Counter::Intersections), 0);
        assert_eq!(snapshot().total(), 0);
        assert!(drain_events().is_empty());

        // Enabled: counters accumulate, spans nest, events buffer.
        enable();
        incr(Counter::CandidatesProbed);
        add(Counter::CandidatesProbed, 2);
        observe(Hist::ShardItems, 0);
        observe(Hist::ShardItems, 1000);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        emit_counters_event();
        let snap = snapshot();
        assert_eq!(snap.counter("candidates_probed"), Some(3));
        let shard = &snap.hists[Hist::ShardItems as usize];
        assert_eq!(shard.count, 2);
        assert_eq!(shard.sum, 1000);
        assert_eq!(shard.buckets.len(), 2); // zero bucket + 1000's bucket

        let jsonl = events_jsonl();
        let events = drain_events();
        // begin(outer) begin(inner) end(inner) end(outer) counters
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].kind, "span_begin");
        assert_eq!(events[2].kind, "span_end");
        assert_eq!(events[4].kind, "counters");
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        assert_eq!(jsonl.lines().count(), 5);
        for line in jsonl.lines() {
            let v: serde::Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(v.get("seq").is_some() && v.get("type").is_some());
        }

        let table = render_table(&snapshot());
        assert!(table.contains("candidates_probed"));
        assert!(table.contains("shard_items"));

        disable();
        reset();
        assert_eq!(snapshot().total(), 0);
    }

    #[test]
    fn event_json_escapes_strings() {
        let e = Event {
            seq: 0,
            kind: "x",
            fields: vec![("s", FieldValue::Str("a\"b\\c\nd".into()))],
        };
        assert_eq!(e.to_json(), r#"{"seq":0,"type":"x","s":"a\"b\\c\nd"}"#);
    }
}
