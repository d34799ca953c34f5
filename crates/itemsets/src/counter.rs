//! Pluggable support-counting backends for the BORDERS update phase.
//!
//! The update phase must count the supports of a (typically small) set of
//! new candidate itemsets over the *entire* selected dataset. The paper
//! compares three procedures:
//!
//! * **PT-Scan** — organize the candidates in a prefix tree and scan every
//!   transaction of every selected block (the original BORDERS procedure);
//! * **ECUT** — intersect the per-block TID-lists of the candidate's
//!   *items*, fetching only the relevant fraction of the data;
//! * **ECUT+** — like ECUT, but prefer materialized TID-lists of
//!   2-itemsets when a candidate can be covered by pairs, which shortens
//!   the lists to intersect.
//!
//! Besides wall-clock time (measured by the benches), every backend
//! reports `units_read` — the number of item/TID units fetched — which is
//! the hardware-independent cost model the paper argues from.
//!
//! # Parallelism
//!
//! [`count_supports_with`] shards the work over a [`Parallelism`]: ECUT
//! and ECUT+ over contiguous **candidate chunks** (each worker owns a
//! disjoint slice of the output counts), PT-Scan over contiguous
//! **transaction ranges** of the selected blocks (every worker probes
//! one shared, immutable [`FlatPrefixTree`] into its own flat count
//! array, and the per-candidate counts are summed by index in shard
//! order). Both reductions are exact integer sums in a thread-count
//! independent order, so results are bit-identical at any thread count.
//! [`count_supports`] uses the process-wide default
//! ([`demon_types::parallel::global`]).
//!
//! Shard boundaries are **payload-aware**
//! ([`demon_types::parallel::par_weighted_ranges`]): PT-Scan splits by
//! transaction length (items probed), ECUT/ECUT+ by each candidate's
//! summed TID-list length (TIDs intersected), so equal-index spans with
//! wildly different payloads no longer leave one shard with most of the
//! work. The weights are functions of the dataset alone — never of the
//! thread count — so split points depend only on (input, requested
//! shards) and determinism is preserved.
//!
//! On single-worker hardware
//! ([`demon_types::parallel::single_worker`]) both backends skip the
//! per-shard accumulators and fill one shared buffer — bit-identical
//! output (the merges are exact), none of the merge overhead, so
//! requesting many threads on a small box costs nothing.

use crate::prefix_tree::{FlatPrefixTree, SupportCell};
use crate::store::{TxEntry, TxStore};
use crate::tidlist::{intersect_sorted_count, BlockTidLists, IntersectScratch};
use demon_store::Pinned;
use demon_types::parallel::{self, par_weighted_ranges};
use demon_types::{obs, BlockId, Item, ItemSet, Parallelism, Tid, TxBlock};
use serde::{Deserialize, Serialize};

/// Which counting backend the update phase uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CounterKind {
    /// Prefix-tree scan of all selected transactions (BORDERS baseline).
    PtScan,
    /// TID-list intersection over single items.
    Ecut,
    /// TID-list intersection preferring materialized 2-itemset lists.
    EcutPlus,
    /// Estimate both costs per pass and pick the cheaper backend — the
    /// decision rule behind the paper's empirical PT-Scan/ECUT trade-off
    /// study ("whenever the number of itemsets to be counted is not
    /// large, ECUT is significantly faster"). The TID-list cost is the
    /// sum of the candidates' item-list lengths; the scan cost is the
    /// transactional size of the selected blocks.
    Adaptive,
}

impl CounterKind {
    /// Short human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::PtScan => "PT-Scan",
            CounterKind::Ecut => "ECUT",
            CounterKind::EcutPlus => "ECUT+",
            CounterKind::Adaptive => "Adaptive",
        }
    }
}

/// Result of a counting pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CountResult {
    /// Support counts, one per candidate, in input order.
    pub counts: Vec<u64>,
    /// Item/TID units fetched from the dataset representation.
    pub units_read: u64,
    /// Number of distinct list/scan fetches issued: per-block sequential
    /// scans for PT-Scan, per-block per-candidate TID-list segments for
    /// ECUT/ECUT+. On the paper's 1996 hardware each fetch costs a disk
    /// seek, which is what produces the ECUT/PT-Scan crossover of Fig. 2.
    pub lists_fetched: u64,
}

/// Counts the supports of `candidates` over the blocks `ids` of `store`
/// using the chosen backend and the process-wide default parallelism.
/// Blocks missing from the store contribute nothing (they have been
/// retired).
pub fn count_supports(
    kind: CounterKind,
    store: &TxStore,
    ids: &[BlockId],
    candidates: &[ItemSet],
) -> CountResult {
    count_supports_with(kind, store, ids, candidates, parallel::global())
}

/// [`count_supports`] with an explicit [`Parallelism`]. Results are
/// bit-identical at any thread count (see the module docs).
pub fn count_supports_with(
    kind: CounterKind,
    store: &TxStore,
    ids: &[BlockId],
    candidates: &[ItemSet],
    par: Parallelism,
) -> CountResult {
    if candidates.is_empty() {
        return CountResult::default();
    }
    // Pin every selected block up front, serially and in selection
    // order: any storage-engine loads (and their `store.*` counters)
    // happen before the parallel region, so the shards below never
    // touch the engine and results stay thread-count invariant even
    // under a memory budget. Retired blocks are skipped, as before.
    count_pinned(kind, &store.pin_entries(ids), candidates, par)
}

/// One counting pass over blocks that are already pinned.
fn count_pinned(
    kind: CounterKind,
    pinned: &[Pinned<'_, TxEntry>],
    candidates: &[ItemSet],
    par: Parallelism,
) -> CountResult {
    let resolved = match kind {
        CounterKind::Adaptive => {
            if tid_cost_estimate(pinned, candidates) <= scan_cost_estimate(pinned) {
                CounterKind::EcutPlus
            } else {
                CounterKind::PtScan
            }
        }
        fixed => fixed,
    };
    let result = match resolved {
        CounterKind::PtScan => pt_scan(pinned, candidates, par),
        CounterKind::Ecut => tid_count(pinned, candidates, false, par),
        CounterKind::EcutPlus => tid_count(pinned, candidates, true, par),
        CounterKind::Adaptive => unreachable!("resolved above"),
    };
    obs::add(obs::Counter::CandidatesProbed, candidates.len() as u64);
    let units = match resolved {
        CounterKind::PtScan => obs::Counter::TxScanned,
        _ => obs::Counter::TidsScanned,
    };
    obs::add(units, result.units_read);
    result
}

/// The shard of `n_shards` that block `id` belongs to: round-robin by
/// block id, so every stream prefix is balanced to within one block.
/// A shard is a share of a counting pass ([`count_supports_sharded`]) —
/// and the `Stats` gauges `demon-serve` keys by the same residue.
pub fn shard_of(id: BlockId, n_shards: usize) -> usize {
    ((id.value() - 1) % n_shards as u64) as usize
}

/// [`count_supports`] with the pass split by **block**: the selected
/// blocks fall into `n_shards` residue classes ([`shard_of`]), every
/// class is counted on its own (the serial pass of
/// [`count_supports_with`], so the only parallelism is the
/// one-worker-per-shard fan-out), and the per-shard results are merged by
/// candidate index **in shard order** — the per-shard-merge discipline of
/// [`demon_types::parallel::par_ranges`], which this reuses.
///
/// Supports are additive over disjoint block sets, so the merged counts
/// are bit-identical to [`count_supports`] over the whole selection at
/// any shard count. `Adaptive` may resolve to different backends on
/// different shards; every backend is exact, so the merge is still
/// bit-identical. The selection is pinned here, before the fan-out, for
/// the reason [`count_supports_with`] gives.
pub fn count_supports_sharded(
    kind: CounterKind,
    store: &TxStore,
    n_shards: usize,
    ids: &[BlockId],
    candidates: &[ItemSet],
) -> CountResult {
    if candidates.is_empty() {
        return CountResult::default();
    }
    if n_shards == 1 {
        return count_supports_with(kind, store, ids, candidates, Parallelism::serial());
    }
    let mut shards: Vec<Vec<Pinned<'_, TxEntry>>> = (0..n_shards).map(|_| Vec::new()).collect();
    for entry in store.pin_entries(ids) {
        shards[shard_of(entry.id(), n_shards)].push(entry);
    }
    let mut merged = CountResult {
        counts: vec![0u64; candidates.len()],
        ..CountResult::default()
    };
    for shard in parallel::par_map(Parallelism::new(n_shards), &shards, |shard| {
        count_pinned(kind, shard, candidates, Parallelism::serial())
    }) {
        for (total, c) in merged.counts.iter_mut().zip(shard.counts) {
            *total += c;
        }
        merged.units_read += shard.units_read;
        merged.lists_fetched += shard.lists_fetched;
    }
    merged
}

/// Units ECUT+ would read: Σ over blocks and candidates of the item-list
/// lengths (pair covers only shrink this, so it is an upper bound).
fn tid_cost_estimate(entries: &[Pinned<'_, TxEntry>], candidates: &[ItemSet]) -> u64 {
    let mut cost = 0u64;
    for entry in entries {
        let lists = &entry.lists;
        for cand in candidates {
            cost += cand
                .items()
                .iter()
                .map(|&i| lists.item_support(i))
                .sum::<u64>();
        }
    }
    cost
}

/// Units PT-Scan would read: the transactional size of the selection.
fn scan_cost_estimate(entries: &[Pinned<'_, TxEntry>]) -> u64 {
    entries.iter().map(|e| e.lists.item_space()).sum()
}

/// PT-Scan, sharded over contiguous transaction ranges of the selected
/// blocks. The prefix tree is built **once**, before the parallel
/// region, as an immutable [`FlatPrefixTree`] shared by reference:
/// every worker probes it into its own flat count array, and the
/// per-candidate counts (exact `u64`s) are summed by index in shard
/// order, which makes the result independent of the thread count.
/// Shard boundaries weight each transaction by its length, so skewed
/// blocks (a few huge transactions) still split evenly by probe work.
fn pt_scan(entries: &[Pinned<'_, TxEntry>], candidates: &[ItemSet], par: Parallelism) -> CountResult {
    let blocks: Vec<&TxBlock> = entries.iter().map(|e| &e.block).collect();
    let fetched = blocks.len() as u64;
    // Prefix sums of block lengths: shard the *global* transaction index.
    let mut starts = Vec::with_capacity(blocks.len() + 1);
    starts.push(0usize);
    for b in &blocks {
        starts.push(starts.last().copied().unwrap_or(0) + b.len());
    }
    let total_tx = *starts.last().unwrap_or(&0);
    // Probe cost of a transaction grows with its length; `+1` keeps
    // empty transactions from collapsing to weightless points.
    let mut weights = Vec::with_capacity(total_tx);
    for b in &blocks {
        weights.extend(b.records().iter().map(|tx| tx.len() as u64 + 1));
    }

    let tree = FlatPrefixTree::build(candidates);
    // Narrow (u32) shard counts halve the memory traffic on the
    // random-access count array; they cannot overflow as long as a
    // shard counts fewer than `u32::MAX` transactions. The u64 fallback
    // is unreachable for any dataset that fits in memory.
    let (counts, units) = if total_tx < u32::MAX as usize {
        pt_scan_shards::<u32>(&tree, &blocks, &starts, &weights, par)
    } else {
        pt_scan_shards::<u64>(&tree, &blocks, &starts, &weights, par)
    };
    CountResult {
        counts,
        units_read: units,
        lists_fetched: fetched,
    }
}

/// The sharded scan of [`pt_scan`], generic over the per-shard count
/// width. Returns the merged (by candidate index, in shard order)
/// counts and the total item units read.
fn pt_scan_shards<C: SupportCell + Send>(
    tree: &FlatPrefixTree,
    blocks: &[&TxBlock],
    starts: &[usize],
    weights: &[u64],
    par: Parallelism,
) -> (Vec<u64>, u64) {
    // Single-worker hardware runs shards sequentially anyway; fill one
    // shared count array instead of allocating and merging one per
    // shard. Counts are exact integer sums, so this is bit-identical to
    // the sharded merge below (see `parallel::single_worker`).
    if parallel::single_worker() {
        let mut counts = vec![C::default(); tree.len()];
        let mut units = 0u64;
        for b in blocks {
            for tx in b.records() {
                units += tx.len() as u64;
                tree.count_transaction(tx.items(), &mut counts);
            }
        }
        return (counts.into_iter().map(SupportCell::widen).collect(), units);
    }
    let shards = par_weighted_ranges(par, weights, |range| {
        let mut counts = vec![C::default(); tree.len()];
        let mut units = 0u64;
        // First block overlapping the range.
        let mut bi = match starts.binary_search(&range.start) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let mut at = range.start;
        while at < range.end && bi < blocks.len() {
            let block_end = starts[bi + 1].min(range.end);
            for tx in &blocks[bi].records()[at - starts[bi]..block_end - starts[bi]] {
                units += tx.len() as u64;
                tree.count_transaction(tx.items(), &mut counts);
            }
            at = block_end;
            bi += 1;
        }
        (counts, units)
    });

    let mut counts = vec![0u64; tree.len()];
    let mut units = 0u64;
    for (shard_counts, shard_units) in shards {
        for (total, c) in counts.iter_mut().zip(shard_counts) {
            *total += c.widen();
        }
        units += shard_units;
    }
    (counts, units)
}

/// Reusable per-worker buffers for the TID-list counting inner loop —
/// one set per shard, reused across every (block, candidate) pair, so
/// the loop performs no per-call allocations (see the scratch-buffer
/// reuse contract on [`IntersectScratch`]).
#[derive(Default)]
struct CountScratch<'s> {
    /// The TID-lists chosen to intersect for the current candidate.
    lists: Vec<&'s [Tid]>,
    /// Candidate-internal pairs with materialized lists, by list length.
    pairs: Vec<(usize, Item, Item)>,
    /// Items already covered by a chosen pair list.
    covered: Vec<Item>,
    /// Kernel scratch (bitset window + multiway ping-pong buffers).
    kernels: IntersectScratch,
}

/// ECUT / ECUT+, sharded over contiguous candidate chunks: each worker
/// owns a disjoint slice of the output counts and walks all selected
/// blocks for its candidates, accumulating into per-worker scratch.
/// Shard boundaries weight each candidate by its summed item TID-list
/// length over the selected blocks — the intersection work it will
/// cost — so a few heavy candidates no longer serialize one shard.
fn tid_count(
    entries: &[Pinned<'_, TxEntry>],
    candidates: &[ItemSet],
    use_pairs: bool,
    par: Parallelism,
) -> CountResult {
    // Single-worker hardware: one pass with one scratch set, skipping
    // both the per-candidate weight computation and the per-shard
    // output segments. Per-candidate counts are independent, so this is
    // bit-identical to the sharded path (see `parallel::single_worker`).
    if parallel::single_worker() {
        let mut counts = vec![0u64; candidates.len()];
        let mut units = 0u64;
        let mut fetched = 0u64;
        let mut scratch = CountScratch::default();
        for entry in entries {
            let lists = &entry.lists;
            for (ci, cand) in candidates.iter().enumerate() {
                let (support, read, n_lists) = if use_pairs {
                    count_in_block_with_pairs(lists, cand, &mut scratch)
                } else {
                    count_in_block_items(lists, cand, &mut scratch)
                };
                counts[ci] += support;
                units += read;
                fetched += n_lists;
            }
        }
        return CountResult {
            counts,
            units_read: units,
            lists_fetched: fetched,
        };
    }
    let weights: Vec<u64> = candidates
        .iter()
        .map(|cand| {
            let tids: u64 = entries
                .iter()
                .map(|e| {
                    cand.items()
                        .iter()
                        .map(|&i| e.lists.item_support(i))
                        .sum::<u64>()
                })
                .sum();
            tids + 1 // Never weightless: zero-support candidates still cost a probe.
        })
        .collect();
    let shards = par_weighted_ranges(par, &weights, |range| {
        let mut counts = vec![0u64; range.len()];
        let mut units = 0u64;
        let mut fetched = 0u64;
        let mut scratch = CountScratch::default();
        for entry in entries {
            let lists = &entry.lists;
            for (ci, cand) in candidates[range.clone()].iter().enumerate() {
                let (support, read, n_lists) = if use_pairs {
                    count_in_block_with_pairs(lists, cand, &mut scratch)
                } else {
                    count_in_block_items(lists, cand, &mut scratch)
                };
                counts[ci] += support;
                units += read;
                fetched += n_lists;
            }
        }
        (counts, units, fetched)
    });

    let mut counts = Vec::with_capacity(candidates.len());
    let mut units = 0u64;
    let mut fetched = 0u64;
    for (shard_counts, shard_units, shard_fetched) in shards {
        counts.extend(shard_counts);
        units += shard_units;
        fetched += shard_fetched;
    }
    CountResult {
        counts,
        units_read: units,
        lists_fetched: fetched,
    }
}

/// ECUT: intersect the single-item lists of the candidate within one block.
/// Returns `(support, units_read, lists_fetched)`.
fn count_in_block_items<'s>(
    lists: &'s BlockTidLists,
    cand: &ItemSet,
    scratch: &mut CountScratch<'s>,
) -> (u64, u64, u64) {
    debug_assert!(!cand.is_empty());
    scratch.lists.clear();
    scratch
        .lists
        .extend(cand.items().iter().map(|&i| lists.item_list(i)));
    finish_intersection(scratch)
}

/// ECUT+: greedily cover the candidate with materialized pair lists
/// (shortest first), fall back to single-item lists for uncovered items.
///
/// Any family of itemsets whose union equals the candidate yields its
/// support when their TID-lists are intersected (paper §3.1.1, ECUT+);
/// pair lists are never longer than either member's item list, so every
/// pair substitution reduces the data fetched.
fn count_in_block_with_pairs<'s>(
    lists: &'s BlockTidLists,
    cand: &ItemSet,
    scratch: &mut CountScratch<'s>,
) -> (u64, u64, u64) {
    debug_assert!(!cand.is_empty());
    if cand.len() == 1 {
        return count_in_block_items(lists, cand, scratch);
    }
    // Collect available pairs inside the candidate, with their list lengths.
    scratch.pairs.clear();
    scratch.pairs.extend(
        cand.pairs()
            .filter_map(|(a, b)| lists.pair_list(a, b).map(|l| (l.len(), a, b))),
    );
    if scratch.pairs.is_empty() {
        return count_in_block_items(lists, cand, scratch);
    }
    scratch.pairs.sort_unstable();
    scratch.covered.clear();
    scratch.lists.clear();
    for pi in 0..scratch.pairs.len() {
        let (_, a, b) = scratch.pairs[pi];
        let new_a = !scratch.covered.contains(&a);
        let new_b = !scratch.covered.contains(&b);
        if new_a || new_b {
            scratch
                .lists
                .push(lists.pair_list(a, b).expect("pair was listed"));
            if new_a {
                scratch.covered.push(a);
            }
            if new_b {
                scratch.covered.push(b);
            }
            if scratch.covered.len() == cand.len() {
                break;
            }
        }
    }
    for &item in cand.items() {
        if !scratch.covered.contains(&item) {
            scratch.lists.push(lists.item_list(item));
        }
    }
    finish_intersection(scratch)
}

/// Intersects `scratch.lists` (count-only: the conjunction's TID-list is
/// never materialized), returning `(support, units_read, lists_fetched)`;
/// the single-list fast path reads no TIDs beyond the list length.
fn finish_intersection(scratch: &mut CountScratch<'_>) -> (u64, u64, u64) {
    let read: u64 = scratch.lists.iter().map(|l| l.len() as u64).sum();
    let n_lists = scratch.lists.len() as u64;
    if scratch.lists.len() == 1 {
        return (scratch.lists[0].len() as u64, read, n_lists);
    }
    // One pairwise merge per extra list; totals are sharding-independent.
    obs::add(obs::Counter::Intersections, n_lists - 1);
    let support = intersect_sorted_count(&mut scratch.lists, &mut scratch.kernels);
    (support, read, n_lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::naive_support;
    use demon_types::{Tid, Transaction, TxBlock};

    fn block(id: u64, base_tid: u64, txs: &[&[u32]]) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            txs.iter()
                .enumerate()
                .map(|(i, items)| {
                    Transaction::new(
                        Tid(base_tid + i as u64),
                        items.iter().copied().map(Item).collect(),
                    )
                })
                .collect(),
        )
    }

    fn sample_store() -> (TxStore, Vec<TxBlock>) {
        let b1 = block(1, 1, &[&[0, 1, 2], &[0, 1], &[1, 2], &[3]]);
        let b2 = block(2, 100, &[&[0, 1, 2], &[0, 2], &[2, 3]]);
        let mut s = TxStore::new(4);
        s.add_block(b1.clone());
        s.add_block(b2.clone());
        (s, vec![b1, b2])
    }

    fn candidates() -> Vec<ItemSet> {
        vec![
            ItemSet::from_ids(&[0]),
            ItemSet::from_ids(&[0, 1]),
            ItemSet::from_ids(&[0, 1, 2]),
            ItemSet::from_ids(&[2, 3]),
            ItemSet::from_ids(&[3]),
        ]
    }

    #[test]
    fn all_backends_agree_with_naive() {
        let (mut store, blocks) = sample_store();
        // Materialize every pair in both blocks for ECUT+.
        let all_pairs: Vec<(Item, Item)> = (0..4u32)
            .flat_map(|a| (a + 1..4).map(move |b| (Item(a), Item(b))))
            .collect();
        store.materialize_pairs(BlockId(1), &all_pairs, None);
        store.materialize_pairs(BlockId(2), &all_pairs, None);
        let ids = [BlockId(1), BlockId(2)];
        let refs: Vec<&TxBlock> = blocks.iter().collect();
        for kind in [CounterKind::PtScan, CounterKind::Ecut, CounterKind::EcutPlus] {
            let r = count_supports(kind, &store, &ids, &candidates());
            for (cand, &got) in candidates().iter().zip(&r.counts) {
                assert_eq!(
                    got,
                    naive_support(cand, &refs),
                    "{} disagrees on {cand}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn ecut_reads_less_than_pt_scan_for_few_candidates() {
        let (store, _) = sample_store();
        let ids = [BlockId(1), BlockId(2)];
        let few = vec![ItemSet::from_ids(&[0, 1])];
        let pt = count_supports(CounterKind::PtScan, &store, &ids, &few);
        let ec = count_supports(CounterKind::Ecut, &store, &ids, &few);
        assert_eq!(pt.counts, ec.counts);
        assert!(
            ec.units_read < pt.units_read,
            "ECUT read {} vs PT-Scan {}",
            ec.units_read,
            pt.units_read
        );
    }

    #[test]
    fn ecut_plus_reads_no_more_than_ecut() {
        let (mut store, _) = sample_store();
        let all_pairs: Vec<(Item, Item)> = (0..4u32)
            .flat_map(|a| (a + 1..4).map(move |b| (Item(a), Item(b))))
            .collect();
        store.materialize_pairs(BlockId(1), &all_pairs, None);
        store.materialize_pairs(BlockId(2), &all_pairs, None);
        let ids = [BlockId(1), BlockId(2)];
        let cands = vec![ItemSet::from_ids(&[0, 1, 2]), ItemSet::from_ids(&[0, 1])];
        let ec = count_supports(CounterKind::Ecut, &store, &ids, &cands);
        let ep = count_supports(CounterKind::EcutPlus, &store, &ids, &cands);
        assert_eq!(ec.counts, ep.counts);
        assert!(ep.units_read <= ec.units_read);
    }

    #[test]
    fn ecut_plus_without_materialized_pairs_falls_back_to_ecut() {
        let (store, _) = sample_store();
        let ids = [BlockId(1), BlockId(2)];
        let cands = vec![ItemSet::from_ids(&[0, 1, 2])];
        let ec = count_supports(CounterKind::Ecut, &store, &ids, &cands);
        let ep = count_supports(CounterKind::EcutPlus, &store, &ids, &cands);
        assert_eq!(ec, ep);
    }

    #[test]
    fn counting_respects_block_selection() {
        // The 0/1 property: only selected blocks contribute.
        let (store, blocks) = sample_store();
        let only_b2 = [BlockId(2)];
        let cands = vec![ItemSet::from_ids(&[0, 2])];
        for kind in [CounterKind::PtScan, CounterKind::Ecut, CounterKind::EcutPlus] {
            let r = count_supports(kind, &store, &only_b2, &cands);
            assert_eq!(
                r.counts[0],
                naive_support(&cands[0], &[&blocks[1]]),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn missing_blocks_are_skipped() {
        let (store, _) = sample_store();
        let ids = [BlockId(1), BlockId(7)];
        let cands = vec![ItemSet::from_ids(&[0])];
        let r = count_supports(CounterKind::Ecut, &store, &ids, &cands);
        assert_eq!(r.counts, vec![2]);
    }

    #[test]
    fn adaptive_agrees_with_fixed_backends() {
        let (store, blocks) = sample_store();
        let ids = [BlockId(1), BlockId(2)];
        let refs: Vec<&TxBlock> = blocks.iter().collect();
        let r = count_supports(CounterKind::Adaptive, &store, &ids, &candidates());
        for (cand, &got) in candidates().iter().zip(&r.counts) {
            assert_eq!(got, naive_support(cand, &refs), "Adaptive wrong on {cand}");
        }
    }

    #[test]
    fn adaptive_picks_tid_lists_for_few_candidates_and_scan_for_many() {
        let (store, _) = sample_store();
        let ids = [BlockId(1), BlockId(2)];
        // One candidate: TID cost ≈ a few entries << scan cost.
        let few = vec![ItemSet::from_ids(&[0, 1])];
        let r_few = count_supports(CounterKind::Adaptive, &store, &ids, &few);
        let r_ecut = count_supports(CounterKind::EcutPlus, &store, &ids, &few);
        assert_eq!(r_few.units_read, r_ecut.units_read, "should use TID-lists");
        // Many (duplicated-item) candidates: TID cost exceeds the scan.
        let many: Vec<ItemSet> = (0..200).map(|_| ItemSet::from_ids(&[0, 1, 2])).collect();
        let r_many = count_supports(CounterKind::Adaptive, &store, &ids, &many);
        let r_scan = count_supports(CounterKind::PtScan, &store, &ids, &many);
        assert_eq!(r_many.units_read, r_scan.units_read, "should scan");
    }

    #[test]
    fn every_backend_is_thread_count_invariant() {
        let (mut store, _) = sample_store();
        let all_pairs: Vec<(Item, Item)> = (0..4u32)
            .flat_map(|a| (a + 1..4).map(move |b| (Item(a), Item(b))))
            .collect();
        store.materialize_pairs(BlockId(1), &all_pairs, None);
        store.materialize_pairs(BlockId(2), &all_pairs, None);
        let ids = [BlockId(1), BlockId(2)];
        for kind in [
            CounterKind::PtScan,
            CounterKind::Ecut,
            CounterKind::EcutPlus,
            CounterKind::Adaptive,
        ] {
            let serial = count_supports_with(
                kind,
                &store,
                &ids,
                &candidates(),
                Parallelism::serial(),
            );
            for threads in [2usize, 3, 8] {
                let par = count_supports_with(
                    kind,
                    &store,
                    &ids,
                    &candidates(),
                    Parallelism::new(threads),
                );
                assert_eq!(serial, par, "{} at {threads} threads", kind.name());
            }
        }
    }

    #[test]
    fn sharded_counting_is_byte_identical_to_single_store() {
        // Four blocks of one store counted as 1, 2 and 3 residue classes:
        // every split must merge to exactly the unsplit result.
        let b1 = block(1, 1, &[&[0, 1, 2], &[0, 1], &[1, 2], &[3]]);
        let b2 = block(2, 100, &[&[0, 1, 2], &[0, 2], &[2, 3]]);
        let b3 = block(3, 200, &[&[0, 3], &[1, 2, 3], &[0, 1, 2, 3]]);
        let b4 = block(4, 300, &[&[2], &[0, 1]]);
        let mut store = TxStore::new(4);
        for b in [b1, b2, b3, b4] {
            store.add_block(b);
        }
        let ids = store.block_ids().to_vec();
        assert_eq!(ids.iter().map(|&id| shard_of(id, 3)).collect::<Vec<_>>(), [0, 1, 2, 0]);
        for kind in [
            CounterKind::PtScan,
            CounterKind::Ecut,
            CounterKind::EcutPlus,
            CounterKind::Adaptive,
        ] {
            let reference =
                count_supports_with(kind, &store, &ids, &candidates(), Parallelism::serial());
            for n_shards in [1usize, 2, 3] {
                let sharded = count_supports_sharded(kind, &store, n_shards, &ids, &candidates());
                assert_eq!(
                    sharded.counts,
                    reference.counts,
                    "{} diverged at {n_shards} shards",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let (store, _) = sample_store();
        let r = count_supports(CounterKind::PtScan, &store, &[BlockId(1)], &[]);
        assert_eq!(r, CountResult::default());
    }
}
