//! Per-block TID-lists and sorted-list intersection.
//!
//! ECUT's insight (paper §3.1.1) rests on two properties of systematic
//! block evolution: **additivity** (the support of an itemset over a window
//! is the sum of its per-block supports) and the **0/1 property** (a BSS
//! selects a block completely or not at all). Together they let each item's
//! TID-list be split into immutable per-block segments, written once when
//! the block arrives and read selectively ever after.
//!
//! TIDs increase in arrival order, so every per-block list is sorted by
//! construction and intersections are sort-merge joins.

use demon_types::{obs, BlockId, Item, Tid, TxBlock};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// TID-lists of one block: one sorted list per item, plus optionally
/// materialized 2-itemset lists for ECUT+.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BlockTidLists {
    /// `item_lists[i]` is the sorted list of TIDs of transactions in this
    /// block containing item `i`.
    item_lists: Vec<Vec<Tid>>,
    /// Materialized 2-itemset lists, keyed by the (ordered) item pair.
    pair_lists: BTreeMap<(Item, Item), Vec<Tid>>,
    /// Number of transactions in the block.
    n_transactions: u64,
}

impl BlockTidLists {
    /// Scans `block` once and materializes the TID-list of every item
    /// (paper: "The TID-lists of all items are materialized simultaneously").
    pub fn materialize(block: &TxBlock, n_items: u32) -> Self {
        let mut item_lists = vec![Vec::new(); n_items as usize];
        for tx in block.records() {
            for &item in tx.items() {
                debug_assert!(item.id() < n_items, "item {item} outside universe");
                item_lists[item.index()].push(tx.tid());
            }
        }
        BlockTidLists {
            item_lists,
            pair_lists: BTreeMap::new(),
            n_transactions: block.len() as u64,
        }
    }

    /// Number of transactions in the block.
    pub fn n_transactions(&self) -> u64 {
        self.n_transactions
    }

    /// The TID-list of `item` in this block.
    pub fn item_list(&self, item: Item) -> &[Tid] {
        self.item_lists
            .get(item.index())
            .map_or(&[], |v| v.as_slice())
    }

    /// Support (absolute count) of a single item in this block.
    pub fn item_support(&self, item: Item) -> u64 {
        self.item_list(item).len() as u64
    }

    /// The materialized TID-list of the pair `(a, b)` (ordered `a < b`),
    /// if ECUT+ chose to materialize it for this block.
    pub fn pair_list(&self, a: Item, b: Item) -> Option<&[Tid]> {
        debug_assert!(a < b);
        self.pair_lists.get(&(a, b)).map(|v| v.as_slice())
    }

    /// Stores a pre-computed pair list (ECUT+ budgeted materialization
    /// intersects first to learn the cost, then decides whether to keep).
    pub fn insert_pair(&mut self, a: Item, b: Item, list: Vec<Tid>) {
        debug_assert!(a < b);
        debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "pair list unsorted");
        self.pair_lists.insert((a, b), list);
    }

    /// Iterates over the materialized pairs of this block.
    pub fn materialized_pairs(&self) -> impl Iterator<Item = (Item, Item)> + '_ {
        self.pair_lists.keys().copied()
    }

    /// Total TIDs stored in the per-item lists. One TID models one disk
    /// word, so this doubles as the space occupied by the transactional
    /// representation (paper: the TID-list representation replaces it).
    pub fn item_space(&self) -> u64 {
        self.item_lists.iter().map(|l| l.len() as u64).sum()
    }

    /// Total TIDs stored in materialized pair lists (the *extra* space of
    /// ECUT+, reported in Figure 3).
    pub fn pair_space(&self) -> u64 {
        self.pair_lists.values().map(|l| l.len() as u64).sum()
    }
}

/// The TID-list side of the evolving database: one [`BlockTidLists`]
/// per block, immutable once written.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TidListStore {
    blocks: BTreeMap<BlockId, BlockTidLists>,
    n_items: u32,
}

impl TidListStore {
    /// An empty store over an item universe of size `n_items`.
    pub fn new(n_items: u32) -> Self {
        TidListStore {
            blocks: BTreeMap::new(),
            n_items,
        }
    }

    /// Size of the item universe.
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Materializes and stores the TID-lists of `block`.
    pub fn add_block(&mut self, block: &TxBlock) {
        let lists = BlockTidLists::materialize(block, self.n_items);
        self.blocks.insert(block.id(), lists);
    }

    /// Drops the lists of a retired block.
    pub fn remove_block(&mut self, id: BlockId) -> bool {
        self.blocks.remove(&id).is_some()
    }

    /// The lists of one block.
    pub fn block(&self, id: BlockId) -> Option<&BlockTidLists> {
        self.blocks.get(&id)
    }

    /// Iterates over stored blocks in id order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BlockTidLists)> {
        self.blocks.iter().map(|(id, b)| (*id, b))
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Which pairwise intersection kernel [`kernel_for`] selected.
///
/// All three kernels compute the identical sorted intersection — the
/// choice is purely a cost decision, so results (and therefore the
/// workspace-wide determinism contract) never depend on it. The decision
/// table, with `s = short.len()`, `l = long.len()`, and `w` the number
/// of 64-bit words spanned by the lists' overlap window:
///
/// | Condition (checked in order) | Kernel | Cost |
/// |---|---|---|
/// | `l / s ≥ GALLOP_RATIO` | [`Gallop`](IntersectKernel::Gallop) | `O(s · log(l/s))` |
/// | `w ≤ (s + l) · BITSET_WORDS_PER_ELEM` | [`Bitset`](IntersectKernel::Bitset) | `O(s + l + w)`, branch-free probes |
/// | otherwise | [`Merge`](IntersectKernel::Merge) | `O(s + l)` |
///
/// Degenerate inputs (an empty list, disjoint TID windows) report
/// [`Merge`](IntersectKernel::Merge): every kernel resolves them in a
/// handful of comparisons, so the label is cosmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntersectKernel {
    /// Naive two-pointer sort-merge join — the baseline the paper's
    /// §3.1.1 describes, best when lists are comparable in length and
    /// their overlap window is sparse.
    Merge,
    /// Galloping (exponential) search of the longer list driven by the
    /// shorter — wins when the lengths are heavily skewed, the common
    /// case when intersecting a rare item with a popular one.
    Gallop,
    /// u64-bitset-chunk probe: the shorter list is scattered into a
    /// bitmap over the overlap window and the longer list probes single
    /// bits — wins when the window is dense, where the merge kernel's
    /// per-element branches mispredict constantly.
    Bitset,
}

/// Length skew (`long / short`) at or above which galloping beats the
/// linear merge. Below it, the gallop's restart-and-binary-search
/// overhead per element exceeds the merge's ~2 comparisons.
pub const GALLOP_RATIO: usize = 16;

/// Maximum bitmap words per input TID for the bitset kernel: chosen
/// when `window_words ≤ (short + long) * BITSET_WORDS_PER_ELEM`. The
/// bitmap's fixed cost is a `memset` of the window (≈8 words/ns) plus
/// one branch-free bit-op per element, while the merge pays ~2
/// mispredicting comparisons per element — so the bitmap wins until the
/// window is roughly an order of magnitude larger than the inputs, and
/// the cap also keeps it inside L2 for typical list lengths. Measured
/// crossover on random lists (100–1000 TIDs): bitset wins up to ~8
/// words/element, loses by ~4× at ~80.
pub const BITSET_WORDS_PER_ELEM: usize = 8;

/// Picks the cheapest pairwise kernel for two sorted TID-lists. Pure:
/// depends only on the list lengths and their first/last TIDs, so the
/// same inputs select the same kernel on every run, thread and shard.
pub fn kernel_for(a: &[Tid], b: &[Tid]) -> IntersectKernel {
    let (s, l) = if a.len() <= b.len() {
        (a.len(), b.len())
    } else {
        (b.len(), a.len())
    };
    if s == 0 {
        return IntersectKernel::Merge;
    }
    if l / s >= GALLOP_RATIO {
        return IntersectKernel::Gallop;
    }
    let lo = a[0].0.max(b[0].0);
    let hi = a[a.len() - 1].0.min(b[b.len() - 1].0);
    if lo > hi {
        return IntersectKernel::Merge; // Disjoint windows: trivial either way.
    }
    let words = (hi - lo) / 64 + 1;
    if words <= ((s + l) as u64).saturating_mul(BITSET_WORDS_PER_ELEM as u64) {
        IntersectKernel::Bitset
    } else {
        IntersectKernel::Merge
    }
}

/// Reusable buffers for the intersection kernels and multiway folds.
///
/// # Scratch-buffer reuse contract
///
/// One `IntersectScratch` per worker/shard, reused across every
/// (block, candidate) pair: each call clears the *lengths* it uses but
/// keeps the *capacity*, so steady-state counting performs no
/// allocations. The buffers carry no information between calls — any
/// call sequence yields the same results as fresh buffers (asserted by
/// the tidlist unit tests). Never share one scratch between concurrent
/// workers; the parallel counting layer allocates one per shard.
#[derive(Default)]
pub struct IntersectScratch {
    /// Bitmap over the overlap window (bitset kernel).
    words: Vec<u64>,
    /// Running multiway intersection.
    acc: Vec<Tid>,
    /// Ping-pong twin of `acc`.
    tmp: Vec<Tid>,
}

impl IntersectScratch {
    /// Fresh, empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Anything a kernel can emit matching TIDs into: a result vector, or a
/// bare counter when only the support is needed (the final fold of a
/// candidate count never materializes its TID-list).
trait TidSink {
    fn emit(&mut self, t: Tid);

    /// Conditional emit — the merge kernel's inner loop. The default is
    /// a plain branch; the count-only sink overrides it with a
    /// branch-free add so the whole merge loop compiles to conditional
    /// moves (mispredicted match branches dominate the branchy version).
    #[inline]
    fn emit_if(&mut self, cond: bool, t: Tid) {
        if cond {
            self.emit(t);
        }
    }
}

impl TidSink for Vec<Tid> {
    #[inline]
    fn emit(&mut self, t: Tid) {
        self.push(t);
    }
}

/// Count-only sink: support without materialization.
struct CountSink(u64);

impl TidSink for CountSink {
    #[inline]
    fn emit(&mut self, _t: Tid) {
        self.0 += 1;
    }

    #[inline]
    fn emit_if(&mut self, cond: bool, _t: Tid) {
        self.0 += u64::from(cond);
    }
}

/// Intersects two sorted TID-lists, dispatching between the merge and
/// galloping kernels (see [`kernel_for`]; the bitset kernel needs
/// scratch — use [`intersect_into`] in hot loops).
pub fn intersect_pair(a: &[Tid], b: &[Tid]) -> Vec<Tid> {
    let mut out = Vec::new();
    intersect_pair_into(a, b, &mut out);
    out
}

/// [`intersect_pair`] writing into a caller-provided buffer (cleared
/// first), so non-hot callers can reuse one allocation across calls
/// without carrying an [`IntersectScratch`].
pub fn intersect_pair_into(a: &[Tid], b: &[Tid], out: &mut Vec<Tid>) {
    out.clear();
    match kernel_for(a, b) {
        IntersectKernel::Gallop => gallop_sink(a, b, out),
        // No scratch available: the merge kernel covers the bitset case
        // correctly (just without the dense-window speedup).
        IntersectKernel::Merge | IntersectKernel::Bitset => merge_sink(a, b, out),
    }
}

/// Intersects two sorted TID-lists into `out` (cleared first) with full
/// kernel dispatch — the counting hot path's entry point. Tallies the
/// chosen kernel in the `intersect.*` observability counters.
pub fn intersect_into(a: &[Tid], b: &[Tid], out: &mut Vec<Tid>, scratch: &mut IntersectScratch) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    match tallied_kernel(a, b) {
        IntersectKernel::Merge => merge_sink(a, b, out),
        IntersectKernel::Gallop => gallop_sink(a, b, out),
        IntersectKernel::Bitset => bitset_sink(a, b, &mut scratch.words, out),
    }
}

/// The support of `a ∩ b` without materializing the intersection — the
/// fast path for 2-itemset candidates and for the final fold of any
/// multiway intersection. Same kernel dispatch as [`intersect_into`].
pub fn intersect_count(a: &[Tid], b: &[Tid], scratch: &mut IntersectScratch) -> u64 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut sink = CountSink(0);
    match tallied_kernel(a, b) {
        IntersectKernel::Merge => merge_sink(a, b, &mut sink),
        IntersectKernel::Gallop => gallop_sink(a, b, &mut sink),
        IntersectKernel::Bitset => bitset_sink(a, b, &mut scratch.words, &mut sink),
    }
    sink.0
}

/// [`kernel_for`] plus an observability tally of the choice.
fn tallied_kernel(a: &[Tid], b: &[Tid]) -> IntersectKernel {
    let kernel = kernel_for(a, b);
    obs::incr(match kernel {
        IntersectKernel::Merge => obs::Counter::IntersectMerge,
        IntersectKernel::Gallop => obs::Counter::IntersectGallop,
        IntersectKernel::Bitset => obs::Counter::IntersectBitset,
    });
    kernel
}

/// Naive two-pointer sort-merge intersection into `sink` (appends; the
/// public wrappers clear their buffers).
pub fn intersect_merge_into(a: &[Tid], b: &[Tid], out: &mut Vec<Tid>) {
    out.clear();
    merge_sink(a, b, out);
}

/// Galloping intersection into `out` (cleared first): the shorter list
/// drives, exponentially searching the longer one.
pub fn intersect_gallop_into(a: &[Tid], b: &[Tid], out: &mut Vec<Tid>) {
    out.clear();
    gallop_sink(a, b, out);
}

/// u64-bitset-chunk intersection into `out` (cleared first): scatters
/// the shorter list into a bitmap over the lists' overlap window held in
/// `scratch`, then probes it with the longer list in order (so the
/// output stays sorted).
pub fn intersect_bitset_into(
    a: &[Tid],
    b: &[Tid],
    out: &mut Vec<Tid>,
    scratch: &mut IntersectScratch,
) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    bitset_sink(a, b, &mut scratch.words, out);
}

fn merge_sink<S: TidSink>(a: &[Tid], b: &[Tid], sink: &mut S) {
    let (mut i, mut j) = (0usize, 0usize);
    // Branch-free advance: both cursors move on a match, exactly one
    // moves otherwise. TID comparisons are data-dependent and therefore
    // unpredictable; conditional moves beat mispredicted branches here.
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        sink.emit_if(x == y, x);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
}

fn gallop_sink<S: TidSink>(a: &[Tid], b: &[Tid], sink: &mut S) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return;
    }
    let mut lo = 0usize;
    for &t in short {
        // Gallop forward in the long list until long[hi] ≥ t (or the end).
        let mut step = 1usize;
        let mut hi = lo;
        while hi < long.len() && long[hi] < t {
            lo = hi + 1;
            hi = lo + step;
            step *= 2;
        }
        // long[hi] ≥ t when hi is in range, so include it in the search.
        let hi = (hi + 1).min(long.len());
        match long[lo..hi].binary_search(&t) {
            Ok(pos) => {
                sink.emit(t);
                lo += pos + 1;
            }
            Err(pos) => {
                lo += pos;
            }
        }
        if lo >= long.len() {
            break;
        }
    }
}

/// The sub-slice of `l` whose TIDs fall inside `[lo, hi]`.
fn trim_to_window(l: &[Tid], lo: u64, hi: u64) -> &[Tid] {
    let start = l.partition_point(|t| t.0 < lo);
    let end = l.partition_point(|t| t.0 <= hi);
    &l[start..end]
}

fn bitset_sink<S: TidSink>(a: &[Tid], b: &[Tid], words: &mut Vec<u64>, sink: &mut S) {
    debug_assert!(!a.is_empty() && !b.is_empty());
    // Only the overlap window can hold matches; everything outside is
    // skipped in O(log n) rather than bitmapped.
    let lo = a[0].0.max(b[0].0);
    let hi = a[a.len() - 1].0.min(b[b.len() - 1].0);
    if lo > hi {
        return;
    }
    let a = trim_to_window(a, lo, hi);
    let b = trim_to_window(b, lo, hi);
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return;
    }
    let n_words = usize::try_from((hi - lo) / 64 + 1).expect("window fits in memory");
    words.clear();
    words.resize(n_words, 0);
    for &t in short {
        let off = t.0 - lo;
        words[(off / 64) as usize] |= 1u64 << (off % 64);
    }
    for &t in long {
        let off = t.0 - lo;
        if words[(off / 64) as usize] >> (off % 64) & 1 == 1 {
            sink.emit(t);
        }
    }
}

/// Intersects any number of sorted TID-lists. Lists are processed shortest
/// first, so the running intersection only shrinks.
///
/// Returns the full TID-list of the conjunction; its length is the support.
pub fn intersect_all(lists: &[&[Tid]]) -> Vec<Tid> {
    match lists.len() {
        0 => Vec::new(),
        1 => lists[0].to_vec(),
        _ => {
            let mut order: Vec<&[Tid]> = lists.to_vec();
            let mut acc = Vec::new();
            let mut tmp = Vec::new();
            intersect_sorted_into(&mut order, &mut acc, &mut tmp);
            acc
        }
    }
}

/// Allocation-free multiway intersection for the counting inner loop:
/// sorts `lists` shortest-first in place and leaves the conjunction's
/// TID-list in `acc`, using `tmp` as the ping-pong buffer. Returns the
/// support (i.e. `acc.len()`).
///
/// `lists` must hold at least two lists; the single- and zero-list cases
/// are the caller's fast paths (no intersection to perform).
pub fn intersect_sorted_into(lists: &mut [&[Tid]], acc: &mut Vec<Tid>, tmp: &mut Vec<Tid>) -> u64 {
    debug_assert!(lists.len() >= 2, "multiway intersection needs ≥ 2 lists");
    // Tie order among equal-length lists cannot affect the (set-valued)
    // intersection, so the unstable sort keeps results deterministic.
    lists.sort_unstable_by_key(|l| l.len());
    intersect_pair_into(lists[0], lists[1], acc);
    for l in &lists[2..] {
        if acc.is_empty() {
            break;
        }
        intersect_pair_into(acc, l, tmp);
        std::mem::swap(acc, tmp);
    }
    acc.len() as u64
}

/// Support of the conjunction of `lists` without materializing the final
/// TID-list — the counting hot path's multiway entry point. Sorts
/// `lists` shortest-first in place (like [`intersect_sorted_into`]),
/// folds all but the longest list through [`intersect_into`], and
/// resolves the last — typically by far the longest — step with the
/// count-only [`intersect_count`], skipping its output writes entirely.
/// For the dominant 2-itemset case no TID is ever written.
pub fn intersect_sorted_count(lists: &mut [&[Tid]], scratch: &mut IntersectScratch) -> u64 {
    match lists.len() {
        0 => 0,
        1 => lists[0].len() as u64,
        _ => {
            // Tie order among equal-length lists cannot affect the
            // (set-valued) intersection, so the unstable sort keeps
            // results deterministic.
            lists.sort_unstable_by_key(|l| l.len());
            let (&longest, rest) = lists.split_last().expect("≥ 2 lists");
            if rest.len() == 1 {
                return intersect_count(rest[0], longest, scratch);
            }
            // Take the ping-pong buffers out so `scratch.words` stays
            // available to the kernels while `acc` is borrowed.
            let mut acc = std::mem::take(&mut scratch.acc);
            let mut tmp = std::mem::take(&mut scratch.tmp);
            intersect_into(rest[0], rest[1], &mut acc, scratch);
            for l in &rest[2..] {
                if acc.is_empty() {
                    break;
                }
                intersect_into(&acc, l, &mut tmp, scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let support = if acc.is_empty() {
                0
            } else {
                intersect_count(&acc, longest, scratch)
            };
            scratch.acc = acc;
            scratch.tmp = tmp;
            support
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::Transaction;

    fn tids(v: &[u64]) -> Vec<Tid> {
        v.iter().copied().map(Tid).collect()
    }

    fn block(id: u64, txs: &[(u64, &[u32])]) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            txs.iter()
                .map(|(tid, items)| {
                    Transaction::new(Tid(*tid), items.iter().copied().map(Item).collect())
                })
                .collect(),
        )
    }

    #[test]
    fn intersect_pair_basic() {
        assert_eq!(
            intersect_pair(&tids(&[1, 3, 5, 7]), &tids(&[2, 3, 4, 7, 9])),
            tids(&[3, 7])
        );
        assert_eq!(intersect_pair(&tids(&[]), &tids(&[1])), tids(&[]));
        assert_eq!(intersect_pair(&tids(&[1, 2]), &tids(&[3, 4])), tids(&[]));
        assert_eq!(
            intersect_pair(&tids(&[1, 2, 3]), &tids(&[1, 2, 3])),
            tids(&[1, 2, 3])
        );
    }

    #[test]
    fn intersect_pair_skewed_gallop() {
        let long: Vec<Tid> = (0..10_000u64).map(|i| Tid(i * 3)).collect();
        let short = tids(&[3, 2998 * 3, 9999 * 3, 50_000]);
        assert_eq!(
            intersect_pair(&short, &long),
            tids(&[3, 2998 * 3, 9999 * 3])
        );
        // Argument order must not matter.
        assert_eq!(intersect_pair(&long, &short), intersect_pair(&short, &long));
    }

    #[test]
    fn intersect_all_multiway() {
        let a = tids(&[1, 2, 3, 4, 5, 6]);
        let b = tids(&[2, 4, 6, 8]);
        let c = tids(&[4, 5, 6, 7]);
        assert_eq!(intersect_all(&[&a, &b, &c]), tids(&[4, 6]));
        assert_eq!(intersect_all(&[&a]), a);
        assert_eq!(intersect_all(&[]), tids(&[]));
    }

    #[test]
    fn intersect_sorted_into_matches_intersect_all_with_reused_buffers() {
        let a = tids(&[1, 2, 3, 4, 5, 6]);
        let b = tids(&[2, 4, 6, 8]);
        let c = tids(&[4, 5, 6, 7]);
        let mut acc = Vec::new();
        let mut tmp = Vec::new();
        // Same buffers reused across calls with different list families.
        let mut lists: Vec<&[Tid]> = vec![&a, &b, &c];
        let n = intersect_sorted_into(&mut lists, &mut acc, &mut tmp);
        assert_eq!(acc, intersect_all(&[&a, &b, &c]));
        assert_eq!(n, acc.len() as u64);
        let mut lists2: Vec<&[Tid]> = vec![&a, &b];
        let n2 = intersect_sorted_into(&mut lists2, &mut acc, &mut tmp);
        assert_eq!(acc, intersect_pair(&a, &b));
        assert_eq!(n2, acc.len() as u64);
    }

    #[test]
    fn intersect_pair_into_clears_previous_contents() {
        let mut out = tids(&[9, 9, 9]);
        intersect_pair_into(&tids(&[1, 3]), &tids(&[3, 5]), &mut out);
        assert_eq!(out, tids(&[3]));
        intersect_pair_into(&tids(&[1]), &tids(&[2]), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn intersect_all_short_circuits_on_empty() {
        let a = tids(&[1, 2]);
        let empty = tids(&[]);
        let b = tids(&[1]);
        assert_eq!(intersect_all(&[&a, &empty, &b]), tids(&[]));
    }

    /// Reference intersection: naive two-pointer merge.
    fn naive(a: &[Tid], b: &[Tid]) -> Vec<Tid> {
        let mut out = Vec::new();
        merge_sink(a, b, &mut out);
        out
    }

    #[test]
    fn kernel_decision_table() {
        // Heavy skew → gallop.
        let short = tids(&[5, 500]);
        let long: Vec<Tid> = (0..100).map(|i| Tid(i * 7)).collect();
        assert_eq!(kernel_for(&short, &long), IntersectKernel::Gallop);
        assert_eq!(kernel_for(&long, &short), IntersectKernel::Gallop);
        // Comparable lengths over a dense window → bitset.
        let a: Vec<Tid> = (0..200).map(Tid).collect();
        let b: Vec<Tid> = (0..200).map(|i| Tid(i * 2)).collect();
        assert_eq!(kernel_for(&a, &b), IntersectKernel::Bitset);
        // Comparable lengths over a very sparse window → merge.
        let sa: Vec<Tid> = (0..100).map(|i| Tid(i * 100_000)).collect();
        let sb: Vec<Tid> = (0..100).map(|i| Tid(i * 100_000 + 500)).collect();
        assert_eq!(kernel_for(&sa, &sb), IntersectKernel::Merge);
        // Degenerate inputs report the merge kernel.
        assert_eq!(kernel_for(&[], &a), IntersectKernel::Merge);
        let lo = tids(&[1, 2, 3]);
        let hi = tids(&[100, 101, 102]);
        assert_eq!(kernel_for(&lo, &hi), IntersectKernel::Merge);
    }

    #[test]
    fn all_kernels_agree_on_every_shape() {
        let dense_a: Vec<Tid> = (0..300).map(|i| Tid(i * 2)).collect();
        let dense_b: Vec<Tid> = (0..300).map(|i| Tid(i * 3)).collect();
        let sparse: Vec<Tid> = (0..40).map(|i| Tid(i * i * 17)).collect();
        let skew_short = tids(&[0, 144, 9999]);
        let empty = tids(&[]);
        let disjoint_lo = tids(&[1, 2, 3]);
        let disjoint_hi = tids(&[50_000, 50_001]);
        let equal = tids(&[7, 8, 9]);
        let cases: &[(&[Tid], &[Tid])] = &[
            (&dense_a, &dense_b),
            (&dense_a, &sparse),
            (&sparse, &dense_b),
            (&skew_short, &dense_a),
            (&empty, &dense_a),
            (&dense_a, &empty),
            (&empty, &empty),
            (&disjoint_lo, &disjoint_hi),
            (&equal, &equal),
        ];
        let mut scratch = IntersectScratch::new();
        let mut out = Vec::new();
        for &(a, b) in cases {
            let expect = naive(a, b);
            intersect_gallop_into(a, b, &mut out);
            assert_eq!(out, expect, "gallop vs merge on {}x{}", a.len(), b.len());
            intersect_bitset_into(a, b, &mut out, &mut scratch);
            assert_eq!(out, expect, "bitset vs merge on {}x{}", a.len(), b.len());
            intersect_into(a, b, &mut out, &mut scratch);
            assert_eq!(out, expect, "dispatch vs merge on {}x{}", a.len(), b.len());
            assert_eq!(
                intersect_count(a, b, &mut scratch),
                expect.len() as u64,
                "count vs merge on {}x{}",
                a.len(),
                b.len()
            );
        }
    }

    #[test]
    fn scratch_reuse_carries_no_state() {
        // A dirty scratch (large bitset window, stale acc/tmp) must not
        // change any later result — the reuse contract.
        let mut scratch = IntersectScratch::new();
        let wide: Vec<Tid> = (0..500).map(|i| Tid(i * 64)).collect();
        let _ = intersect_count(&wide, &wide, &mut scratch);
        let mut lists: Vec<&[Tid]> = vec![&wide, &wide, &wide];
        let _ = intersect_sorted_count(&mut lists, &mut scratch);
        let a = tids(&[1, 5, 9]);
        let b = tids(&[5, 9, 11]);
        let mut out = Vec::new();
        intersect_bitset_into(&a, &b, &mut out, &mut scratch);
        assert_eq!(out, tids(&[5, 9]));
        assert_eq!(intersect_count(&a, &b, &mut scratch), 2);
    }

    #[test]
    fn intersect_sorted_count_matches_materialized_multiway() {
        let a = tids(&[1, 2, 3, 4, 5, 6]);
        let b = tids(&[2, 4, 6, 8]);
        let c = tids(&[4, 5, 6, 7]);
        let empty = tids(&[]);
        let mut scratch = IntersectScratch::new();
        let mut lists: Vec<&[Tid]> = vec![&a, &b, &c];
        assert_eq!(
            intersect_sorted_count(&mut lists, &mut scratch),
            intersect_all(&[&a, &b, &c]).len() as u64
        );
        let mut pair: Vec<&[Tid]> = vec![&a, &b];
        assert_eq!(
            intersect_sorted_count(&mut pair, &mut scratch),
            intersect_all(&[&a, &b]).len() as u64
        );
        let mut single: Vec<&[Tid]> = vec![&c];
        assert_eq!(intersect_sorted_count(&mut single, &mut scratch), 4);
        let mut none: Vec<&[Tid]> = vec![];
        assert_eq!(intersect_sorted_count(&mut none, &mut scratch), 0);
        let mut with_empty: Vec<&[Tid]> = vec![&a, &empty, &b];
        assert_eq!(intersect_sorted_count(&mut with_empty, &mut scratch), 0);
    }

    #[test]
    fn materialize_builds_sorted_lists() {
        let b = block(1, &[(1, &[0, 2]), (2, &[1, 2]), (3, &[0, 1, 2])]);
        let lists = BlockTidLists::materialize(&b, 4);
        assert_eq!(lists.item_list(Item(0)), &tids(&[1, 3])[..]);
        assert_eq!(lists.item_list(Item(1)), &tids(&[2, 3])[..]);
        assert_eq!(lists.item_list(Item(2)), &tids(&[1, 2, 3])[..]);
        assert_eq!(lists.item_list(Item(3)), &[] as &[Tid]);
        assert_eq!(lists.n_transactions(), 3);
        assert_eq!(lists.item_support(Item(2)), 3);
    }

    #[test]
    fn item_space_equals_total_item_occurrences() {
        let b = block(1, &[(1, &[0, 2]), (2, &[1, 2]), (3, &[0, 1, 2])]);
        let lists = BlockTidLists::materialize(&b, 4);
        // 2 + 2 + 3 = 7 item occurrences — exactly the transactional size.
        assert_eq!(lists.item_space(), 7);
        assert_eq!(lists.pair_space(), 0);
    }

    #[test]
    fn inserted_pair_list_is_the_item_lists_intersection() {
        let b = block(1, &[(1, &[0, 2]), (2, &[1, 2]), (3, &[0, 1, 2])]);
        let mut lists = BlockTidLists::materialize(&b, 4);
        let list = intersect_pair(lists.item_list(Item(1)), lists.item_list(Item(2)));
        lists.insert_pair(Item(1), Item(2), list);
        // TIDs 2 and 3 contain both.
        assert_eq!(lists.pair_list(Item(1), Item(2)).unwrap(), &tids(&[2, 3])[..]);
        assert_eq!(lists.pair_space(), 2);
        assert_eq!(
            lists.materialized_pairs().collect::<Vec<_>>(),
            vec![(Item(1), Item(2))]
        );
        assert_eq!(lists.pair_list(Item(0), Item(3)), None);
    }

    #[test]
    fn store_add_query_remove() {
        let mut store = TidListStore::new(4);
        assert!(store.is_empty());
        store.add_block(&block(1, &[(1, &[0, 1])]));
        store.add_block(&block(2, &[(2, &[1, 2])]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.block(BlockId(1)).unwrap().item_support(Item(0)), 1);
        assert_eq!(store.block(BlockId(2)).unwrap().item_support(Item(2)), 1);
        assert!(store.block(BlockId(3)).is_none());
        assert!(store.remove_block(BlockId(1)));
        assert!(!store.remove_block(BlockId(1)));
        assert_eq!(store.len(), 1);
        let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![BlockId(2)]);
    }

    #[test]
    fn additivity_across_blocks() {
        // Support over two blocks = sum of per-block supports (paper's
        // additivity property).
        let b1 = block(1, &[(1, &[0, 1]), (2, &[0])]);
        let b2 = block(2, &[(3, &[0, 1]), (4, &[1])]);
        let mut store = TidListStore::new(2);
        store.add_block(&b1);
        store.add_block(&b2);
        let total: u64 = store
            .iter()
            .map(|(_, lists)| {
                intersect_pair(lists.item_list(Item(0)), lists.item_list(Item(1))).len() as u64
            })
            .sum();
        assert_eq!(total, 2); // TIDs 1 and 3.
    }
}
