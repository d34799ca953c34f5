//! Deterministic parallel execution for the workspace's hot paths.
//!
//! Every compute-bound phase of DEMON — support counting, GEMM's fan-out
//! over the `w−1` overlapping future windows, FOCUS bootstrap resampling,
//! BIRCH phase-2 distance scans — is embarrassingly parallel: the work
//! splits into independent shards whose results are merged in a fixed
//! order. This module provides the one knob ([`Parallelism`]) and the
//! sharding primitives ([`par_ranges`], [`par_weighted_ranges`],
//! [`par_map`], [`par_for_each_mut`]) those phases share.
//!
//! # Determinism guarantee
//!
//! Results are **bit-identical at any thread count**. The primitives
//! enforce the two properties that make this true:
//!
//! 1. work is split into *contiguous* shards and each shard is computed
//!    exactly as the serial code would compute it, and
//! 2. shard results are merged **in shard order** on the calling thread,
//!    never in completion order.
//!
//! Callers keep the guarantee intact by making per-shard computation
//! independent of the number of shards (e.g. seeding a bootstrap
//! resample from its global index, not from its thread's RNG stream) and
//! by using reductions that are exact (integer sums, per-index writes)
//! or performed serially over shard results in shard order.
//!
//! # Shards vs. workers
//!
//! The requested [`Parallelism`] fixes the **shard structure**: how the
//! input is cut into contiguous ranges. How many OS threads execute
//! those shards is a separate, result-invisible choice — workers claim
//! shards from an atomic queue and deposit results into per-shard slots,
//! so the merge order is the shard order no matter which worker ran
//! what. The worker count is capped at the hardware's
//! [`std::thread::available_parallelism`]: requesting 8 threads on a
//! 1-core box still produces the 8-shard structure (and the 8-shard
//! results), but runs it inline instead of paying context-switch and
//! cache-thrash overhead for concurrency the hardware cannot deliver.
//! This cap is what keeps multi-thread configurations from *anti-scaling*
//! on small machines; the determinism guarantee makes it a free choice.
//!
//! # Payload-aware sharding
//!
//! Equal-length ranges balance poorly when items carry very different
//! amounts of work — one block can hold 100× the transactions of
//! another, one candidate's TID-lists can be 100× longer than another's.
//! [`par_weighted_ranges`] splits by cumulative *payload* (bytes, TIDs,
//! transactions — any `u64` weight per item) instead of item count:
//! shard boundaries land where the weight prefix sum crosses equal
//! fractions of the total. Boundaries depend only on the weights and the
//! requested thread count — never on the worker count or timing — so the
//! determinism guarantee is unaffected.
//!
//! # Nesting
//!
//! Shard workers run with an ambient "inside a parallel region" marker;
//! any nested call to these primitives from worker code degrades to the
//! serial path instead of multiplying threads (GEMM's parallel off-line
//! updates call parallel support counting, which would otherwise spawn
//! `w × t` threads).
//!
//! Threads are spawned per call via [`std::thread::scope`]. The shards
//! are coarse (thousands of candidate counts, whole bootstrap resamples,
//! whole window models), so spawn cost is noise next to shard cost; no
//! external thread-pool dependency is needed.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The requested degree of parallelism for the hot mining paths.
///
/// A plain value type passed to the `*_with` variants of the hot-path
/// entry points; the process-wide default used by the plain variants is
/// held by [`set_global`] / [`global`]. `threads == 1` runs everything
/// on the calling thread with no spawns at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Single-threaded execution (no worker threads are ever spawned).
    pub fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// As many threads as the hardware advertises
    /// ([`std::thread::available_parallelism`]), falling back to 1 when
    /// the hint is unavailable.
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Parallelism { threads }
    }

    /// Exactly `threads` threads; `0` means [`Parallelism::auto`].
    pub fn new(threads: usize) -> Self {
        if threads == 0 {
            Parallelism::auto()
        } else {
            Parallelism { threads }
        }
    }

    /// The configured thread count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this configuration never spawns worker threads.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Threads actually worth spawning for `n` work items: capped by the
    /// item count, and forced to 1 inside an enclosing parallel region
    /// (see the module docs on nesting).
    fn effective_threads(&self, n: usize) -> usize {
        if in_parallel_region() {
            return 1;
        }
        self.threads.min(n).max(1)
    }
}

impl Default for Parallelism {
    /// Defaults to [`Parallelism::auto`] — results are bit-identical at
    /// any thread count, so there is no correctness reason to hold back.
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// Process-wide default thread count; `0` encodes "unset" (= auto).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default [`Parallelism`] used by hot-path entry
/// points that are not handed an explicit value (e.g. the plain
/// `count_supports` in `demon-itemsets`, or the k-means assignment scan
/// in `demon-clustering`). The CLI's `--threads` flag lands here.
pub fn set_global(par: Parallelism) {
    GLOBAL_THREADS.store(par.threads, Ordering::Relaxed);
}

/// The process-wide default [`Parallelism`]: the last value passed to
/// [`set_global`], or [`Parallelism::auto`] when never set.
pub fn global() -> Parallelism {
    match GLOBAL_THREADS.load(Ordering::Relaxed) {
        0 => Parallelism::auto(),
        t => Parallelism { threads: t },
    }
}

thread_local! {
    /// Set while the current thread is a shard worker of [`par_ranges`];
    /// nested primitives then run serially instead of spawning again.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a shard worker of a parallel region.
/// The observability layer uses this to suppress event emission from
/// workers (event order must not depend on thread interleaving); nested
/// primitives use it to degrade to serial execution.
pub fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(Cell::get)
}

/// OS threads worth running concurrently: the hardware's advertised
/// parallelism, or "no cap" when the hint is unavailable. Shard
/// *structure* is set by the requested [`Parallelism`]; this only bounds
/// how many workers execute it (see the module docs, "Shards vs.
/// workers"). Asked of the OS once per process: the call reads the
/// affinity mask and the cgroup quota (≈ 12 µs in a container), and
/// every parallel region — two per block on the FOCUS path — passes
/// through here.
fn max_workers() -> usize {
    static MAX_WORKERS: OnceLock<usize> = OnceLock::new();
    *MAX_WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(usize::MAX)
    })
}

/// Whether the hardware can run at most one worker thread
/// ([`std::thread::available_parallelism`] is 1, so shards always
/// execute sequentially on the calling thread).
///
/// Callers whose shard merge is **exact** (integer sums, per-index
/// writes) may use this to skip per-shard accumulators entirely:
/// filling one shared accumulator across the would-be shards is
/// bit-identical to the per-shard merge — that invariance is precisely
/// the determinism guarantee — and skips the merge's allocation and
/// reduction cost. Callers with order-sensitive merges must not.
pub fn single_worker() -> bool {
    max_workers() == 1
}

/// Executes the shards delimited by `bounds` and returns their results
/// in shard order. Workers claim shard indices from an atomic queue and
/// write into per-shard slots, so the result order is scheduling
/// independent; with one (or no spare) worker the shards run inline on
/// the calling thread, still marked as a parallel region.
fn run_shards<R, F>(bounds: &[usize], f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let shards = bounds.len().saturating_sub(1);
    let workers = shards.min(max_workers());
    if workers <= 1 {
        // Serial execution still marks the thread as inside a region so
        // nested-region accounting is identical at every thread count.
        return with_region_flag(|| bounds.windows(2).map(|w| f(w[0]..w[1])).collect());
    }
    let slots: Vec<Mutex<Option<R>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (slots, next) = (&slots, &next);
            scope.spawn(move || {
                IN_PARALLEL_REGION.with(|c| c.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= shards {
                        break;
                    }
                    let result = f(bounds[i]..bounds[i + 1]);
                    *slots[i].lock().expect("shard slot lock") = Some(result);
                }
            });
        }
        // `scope` joins every worker before returning and re-raises any
        // worker panic, so all slots below are filled.
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("shard slot lock")
                .expect("every shard was executed")
        })
        .collect()
}

/// Splits `0..n` into at most `par.threads()` contiguous ranges of
/// near-equal length, runs `f` on each range (concurrently when more
/// than one), and returns the per-range results **in range order**.
///
/// This is the deterministic-reduction primitive everything else builds
/// on: whatever associative merge the caller performs over the returned
/// `Vec` happens serially, in a shard order that does not depend on the
/// thread count or on scheduling.
pub fn par_ranges<R, F>(par: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let region = RegionStats::open(n);
    let threads = par.effective_threads(n);
    let bounds = split_points(n, threads);
    let results = run_shards(&bounds, &f);
    region.close(&bounds);
    results
}

/// [`par_ranges`] with **payload-proportional** split points: shard
/// boundaries are placed where the cumulative weight crosses equal
/// fractions of the total, so each shard carries a near-equal amount of
/// *work* rather than a near-equal number of *items*. `weights[i]` is
/// the cost of item `i` in any caller-chosen unit (TIDs to intersect,
/// transaction bytes to scan).
///
/// Boundaries depend only on `weights` and the requested thread count,
/// so results remain bit-identical at any thread count; when every
/// weight is zero the split degrades to the equal-count one.
pub fn par_weighted_ranges<R, F>(par: Parallelism, weights: &[u64], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let region = RegionStats::open(n);
    let threads = par.effective_threads(n);
    let bounds = weighted_split_points(weights, threads);
    let results = run_shards(&bounds, &f);
    region.close(&bounds);
    results
}

/// Runs `f` with [`IN_PARALLEL_REGION`] set, restoring the prior value.
fn with_region_flag<R>(f: impl FnOnce() -> R) -> R {
    let prior = IN_PARALLEL_REGION.with(Cell::get);
    IN_PARALLEL_REGION.with(|c| c.set(true));
    let result = f();
    IN_PARALLEL_REGION.with(|c| c.set(prior));
    result
}

/// Observability bookkeeping for one parallel region. Only top-level
/// regions record (nested ones degrade to serial and would make the
/// `parallel_regions` counter depend on the shard count).
struct RegionStats {
    start: Option<std::time::Instant>,
}

impl RegionStats {
    fn open(_n: usize) -> RegionStats {
        let top_level =
            crate::obs::is_enabled() && !IN_PARALLEL_REGION.with(Cell::get);
        if top_level {
            crate::obs::incr(crate::obs::Counter::ParallelRegions);
        }
        RegionStats {
            start: top_level.then(std::time::Instant::now),
        }
    }

    fn close(self, bounds: &[usize]) {
        let Some(start) = self.start else { return };
        for w in bounds.windows(2) {
            crate::obs::observe(crate::obs::Hist::ShardItems, (w[1] - w[0]) as u64);
        }
        crate::obs::observe(
            crate::obs::Hist::RegionMicros,
            start.elapsed().as_micros() as u64,
        );
    }
}

/// Contiguous split points of `0..weights.len()` into `shards` ranges of
/// near-equal **total weight**: boundary `k` is placed after the first
/// item whose inclusive weight prefix reaches `k/shards` of the total.
/// Returns `shards + 1` monotone points starting at 0 and ending at
/// `weights.len()`; shards may be empty when a single item outweighs a
/// whole fraction. All-zero weights degrade to the equal-count split.
///
/// Deterministic: depends only on `weights` and `shards`, never on the
/// executing worker count — the property [`par_weighted_ranges`] relies
/// on for thread-count-invariant results.
pub fn weighted_split_points(weights: &[u64], shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let n = weights.len();
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if total == 0 {
        return split_points(n, shards);
    }
    let shards_w = shards as u128;
    let mut points = Vec::with_capacity(shards + 1);
    points.push(0);
    let mut acc: u128 = 0;
    let mut k: u128 = 1;
    for (i, &w) in weights.iter().enumerate() {
        acc += u128::from(w);
        while points.len() < shards && acc * shards_w >= total * k {
            points.push(i + 1);
            k += 1;
        }
    }
    while points.len() < shards {
        points.push(n);
    }
    points.push(n);
    points
}

/// `start` offsets of `threads` near-equal contiguous shards of `0..n`,
/// plus the terminal `n` — `threads + 1` monotone split points. This is
/// the equal-*count* split [`par_ranges`] uses; compare
/// [`weighted_split_points`] for the equal-*payload* variant.
pub fn split_points(n: usize, threads: usize) -> Vec<usize> {
    let threads = threads.max(1);
    let base = n / threads;
    let extra = n % threads;
    let mut points = Vec::with_capacity(threads + 1);
    let mut at = 0;
    points.push(0);
    for i in 0..threads {
        at += base + usize::from(i < extra);
        points.push(at);
    }
    points
}

/// Order-preserving parallel map: `par_map(par, items, f)` equals
/// `items.iter().map(f).collect()` for any thread count.
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut chunks = par_ranges(par, items.len(), |range| {
        items[range].iter().map(&f).collect::<Vec<R>>()
    });
    if chunks.len() == 1 {
        return chunks.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(items.len());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Runs `f(index, &mut item)` over every item, sharding the slice into
/// disjoint `&mut` chunks. Each item is touched by exactly one worker, so
/// in-place updates (GEMM absorbing a block into each future-window
/// model) stay race-free and deterministic.
pub fn par_for_each_mut<T, F>(par: Parallelism, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let region = RegionStats::open(n);
    let threads = par.effective_threads(n);
    let bounds = split_points(n, threads);
    let workers = threads.min(max_workers());
    if workers <= 1 {
        with_region_flag(|| {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
        });
        region.close(&bounds);
        return;
    }
    // Pre-split into disjoint `&mut` chunks; workers claim chunks by
    // index from an atomic queue (each chunk is taken exactly once), so
    // in-place updates stay race-free whatever the worker count.
    type ChunkSlot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;
    let mut chunks: Vec<ChunkSlot<'_, T>> = Vec::with_capacity(threads);
    let mut rest = items;
    let mut offset = 0usize;
    for w in bounds.windows(2) {
        let len = w[1] - w[0];
        let (shard, tail) = rest.split_at_mut(len);
        rest = tail;
        chunks.push(Mutex::new(Some((offset, shard))));
        offset += len;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (chunks, next, f) = (&chunks, &next, &f);
            scope.spawn(move || {
                IN_PARALLEL_REGION.with(|c| c.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= chunks.len() {
                        break;
                    }
                    let (start, shard) = chunks[i]
                        .lock()
                        .expect("chunk slot lock")
                        .take()
                        .expect("chunk claimed exactly once");
                    for (j, item) in shard.iter_mut().enumerate() {
                        f(start + j, item);
                    }
                }
            });
        }
    });
    region.close(&bounds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_points_cover_and_balance() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for t in 1..=9usize {
                let p = split_points(n, t);
                assert_eq!(p.len(), t + 1);
                assert_eq!(*p.first().unwrap(), 0);
                assert_eq!(*p.last().unwrap(), n);
                assert!(p.windows(2).all(|w| w[0] <= w[1]));
                let lens: Vec<usize> = p.windows(2).map(|w| w[1] - w[0]).collect();
                let (min, max) = (
                    lens.iter().min().copied().unwrap(),
                    lens.iter().max().copied().unwrap(),
                );
                assert!(max - min <= 1, "unbalanced {lens:?} for n={n} t={t}");
            }
        }
    }

    #[test]
    fn weighted_split_points_cover_and_balance() {
        // Uniform weights stay as balanced as the equal-count split:
        // shard lengths differ by at most one.
        for n in [1usize, 7, 64, 1000] {
            for t in 1..=9usize {
                let w = vec![1u64; n];
                let p = weighted_split_points(&w, t);
                assert_eq!(p.len(), t + 1, "n={n} t={t}");
                assert_eq!(*p.first().unwrap(), 0);
                assert_eq!(*p.last().unwrap(), n);
                let lens: Vec<usize> = p.windows(2).map(|w| w[1] - w[0]).collect();
                let (min, max) = (
                    lens.iter().min().copied().unwrap(),
                    lens.iter().max().copied().unwrap(),
                );
                assert!(max - min <= 1, "unbalanced {lens:?} for n={n} t={t}");
            }
        }
        // Skewed weights: every shard's total stays within one max item
        // of the ideal fraction.
        let weights: Vec<u64> = (0..100u64).map(|i| (i * i) % 97 + 1).collect();
        let total: u64 = weights.iter().sum();
        for t in [2usize, 3, 4, 8] {
            let p = weighted_split_points(&weights, t);
            assert_eq!(p.len(), t + 1);
            assert_eq!(*p.first().unwrap(), 0);
            assert_eq!(*p.last().unwrap(), weights.len());
            assert!(p.windows(2).all(|w| w[0] <= w[1]));
            let max_item = *weights.iter().max().unwrap();
            for w in p.windows(2) {
                let shard: u64 = weights[w[0]..w[1]].iter().sum();
                assert!(
                    shard <= total / t as u64 + max_item,
                    "shard {shard} too heavy for t={t} (ideal {})",
                    total / t as u64
                );
            }
        }
    }

    #[test]
    fn weighted_split_points_edge_cases() {
        // All-zero weights degrade to the equal-count split.
        assert_eq!(weighted_split_points(&[0; 10], 4), split_points(10, 4));
        // One huge item absorbs everything; later shards are empty.
        let p = weighted_split_points(&[1, 1000, 1, 1], 4);
        assert_eq!(*p.last().unwrap(), 4);
        assert_eq!(p.len(), 5);
        assert!(p.windows(2).all(|w| w[0] <= w[1]));
        // The heavy item's shard ends right after it.
        assert!(p.contains(&2));
    }

    #[test]
    fn par_weighted_ranges_matches_serial_at_every_thread_count() {
        let weights: Vec<u64> = (0..500u64).map(|i| i % 17).collect();
        let total: u64 = weights.iter().sum();
        for t in [1usize, 2, 3, 8, 16] {
            // Shard sums add up to the global sum regardless of t.
            let sums = par_weighted_ranges(Parallelism::new(t), &weights, |r| {
                weights[r].iter().sum::<u64>()
            });
            assert_eq!(sums.iter().sum::<u64>(), total, "thread count {t}");
            // Ranges are contiguous and in order.
            let ranges = par_weighted_ranges(Parallelism::new(t), &weights, |r| r);
            let mut at = 0;
            for r in &ranges {
                assert_eq!(r.start, at);
                at = r.end;
            }
            assert_eq!(at, weights.len());
        }
    }

    #[test]
    fn parallelism_constructors() {
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::serial().threads(), 1);
        assert!(Parallelism::new(4).threads() == 4);
        assert!(Parallelism::new(0).threads() >= 1); // auto
        assert!(Parallelism::auto().threads() >= 1);
    }

    #[test]
    fn par_map_matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for t in [1usize, 2, 3, 4, 8, 16] {
            let got = par_map(Parallelism::new(t), &items, |x| x * x + 1);
            assert_eq!(got, expected, "thread count {t}");
        }
    }

    #[test]
    fn par_ranges_results_arrive_in_range_order() {
        for t in [1usize, 2, 5, 8] {
            let ranges = par_ranges(Parallelism::new(t), 100, |r| r);
            let mut at = 0;
            for r in &ranges {
                assert_eq!(r.start, at);
                at = r.end;
            }
            assert_eq!(at, 100);
        }
    }

    #[test]
    fn par_for_each_mut_touches_every_index_once() {
        for t in [1usize, 2, 4, 8] {
            let mut items = vec![0u64; 137];
            par_for_each_mut(Parallelism::new(t), &mut items, |i, v| {
                *v += i as u64 + 1;
            });
            for (i, v) in items.iter().enumerate() {
                assert_eq!(*v, i as u64 + 1, "index {i} at {t} threads");
            }
        }
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        // Inner par_ranges inside a worker must not spawn: its shard
        // count collapses to 1 regardless of the requested threads.
        let inner_shards = par_ranges(Parallelism::new(4), 4, |_| {
            par_ranges(Parallelism::new(4), 100, |r| r).len()
        });
        assert!(inner_shards.iter().all(|&n| n == 1), "{inner_shards:?}");
        // Outside any region, the same call does shard.
        assert_eq!(par_ranges(Parallelism::new(4), 100, |r| r).len(), 4);
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u32> = Vec::new();
        assert!(par_map(Parallelism::new(8), &items, |x| *x).is_empty());
        assert!(par_ranges::<usize, _>(Parallelism::new(8), 0, |r| r.len()).is_empty());
        let mut empty: [u8; 0] = [];
        par_for_each_mut(Parallelism::new(8), &mut empty, |_, _| {});
    }

    #[test]
    fn global_roundtrips() {
        // Relaxed test: other tests may race on the global, so just check
        // set→get coherence through the public API once.
        set_global(Parallelism::new(3));
        assert_eq!(global().threads(), 3);
        set_global(Parallelism::new(0)); // back to auto
        assert!(global().threads() >= 1);
    }
}
