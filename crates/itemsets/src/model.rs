//! The maintained frequent-itemset model: `L(D, κ) ∪ NB⁻(D, κ)` with exact
//! supports, evolved by the **BORDERS** algorithm (Feldman et al. '97;
//! Thomas et al. '97) with the paper's pluggable update-phase counters.
//!
//! Maintenance proceeds in two phases (paper §3.1.1):
//!
//! 1. **Detection** — when block `D_{t+1}` arrives (or is retired, for the
//!    deletion-capable `AuM` variant of §3.2.4), scan *only that block*
//!    with a prefix tree over all tracked itemsets and adjust their counts.
//! 2. **Update** — re-threshold; itemsets crossing the border move between
//!    `L` and `NB⁻`. Newly frequent border itemsets trigger candidate
//!    generation (one-item extensions of the promoted sets by the items
//!    that can pass the Apriori prune — never the whole item universe); the
//!    candidates' supports over the *whole* selected dataset are counted by the chosen
//!    [`CounterKind`] — this is where ECUT/ECUT+ beat PT-Scan — and the
//!    cascade repeats until no new frequent itemsets appear.

use crate::apriori;
use crate::counter::{count_supports, count_supports_sharded, CountResult, CounterKind};
use crate::prefix_tree::PrefixTree;
use crate::store::TxStore;
use demon_types::{
    obs, BlockId, DemonError, FastMap, FastSet, Item, ItemSet, MinSupport, Result, TxBlock,
};
use serde::{Deserialize, Serialize};

use std::time::{Duration, Instant};

/// Cost breakdown of one maintenance step, mirroring the detection/update
/// split reported in Figures 4–7.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaintenanceStats {
    /// Wall-clock time of the detection phase.
    pub detection_time: Duration,
    /// Wall-clock time of the update phase (candidate counting + cascade).
    pub update_time: Duration,
    /// Item/TID units read during detection.
    pub detection_units: u64,
    /// Item/TID units read during the update phase.
    pub update_units: u64,
    /// Number of new candidate itemsets counted in the update phase.
    pub candidates_counted: usize,
    /// One-item extensions `P ∪ {i}` of promoted itemsets the candidate
    /// generator constructed (before the Apriori prune and
    /// de-duplication). A function of the blocks and κ alone — never of the size
    /// of the item universe — so it repeats exactly where timings cannot.
    pub extensions_probed: u64,
    /// Itemsets promoted from the negative border into `L`.
    pub promoted: usize,
    /// Itemsets demoted from `L` into the negative border.
    pub demoted: usize,
}

impl MaintenanceStats {
    /// Total wall-clock time of the step.
    pub fn total_time(&self) -> Duration {
        self.detection_time + self.update_time
    }

    /// Accumulates another step's stats into this one.
    pub fn merge(&mut self, other: &MaintenanceStats) {
        self.detection_time += other.detection_time;
        self.update_time += other.update_time;
        self.detection_units += other.detection_units;
        self.update_units += other.update_units;
        self.candidates_counted += other.candidates_counted;
        self.extensions_probed += other.extensions_probed;
        self.promoted += other.promoted;
        self.demoted += other.demoted;
    }
}

/// Serializes itemset-keyed maps as (sorted) pair sequences, since JSON
/// map keys must be strings.
mod map_serde {
    use super::*;

    pub fn to_value(map: &FastMap<ItemSet, u64>) -> serde::Value {
        let mut pairs: Vec<(&ItemSet, &u64)> = map.iter().collect();
        pairs.sort();
        serde::Value::Array(pairs.iter().map(serde::Serialize::to_value).collect())
    }

    pub fn from_value(
        v: &serde::Value,
    ) -> std::result::Result<FastMap<ItemSet, u64>, serde::de::Error> {
        let pairs: Vec<(ItemSet, u64)> = serde::Deserialize::from_value(v)?;
        Ok(pairs.into_iter().collect())
    }
}

/// The first `k − 1` items of a k-itemset (`∅` for `∅`).
fn prefix(set: &ItemSet) -> &[Item] {
    set.items().split_last().map_or(&[], |(_, prefix)| prefix)
}

/// The items worth extending each of `promoted` with, given that `P ∪ {i}`
/// survives the Apriori prune only if `{i}` is frequent and, for
/// `|P| = k ≥ 2`, so is its maximal subset `P[..k−1] ∪ {i}`: the frequent
/// singletons, and the **extension index** — `P[..k−1]` → every `i` with
/// `P[..k−1] ∪ {i} ∈ L` — to be preferred where it has an entry for `P`.
///
/// The index costs k probes per frequent k-set and saves a construction
/// per (promoted k-set, frequent singleton) pair, so it is built — per
/// promotion round, never kept — only for the sizes where that is a
/// saving; a round that promotes a handful of sets extends them with the
/// singletons. Either way the work follows `L` and the promoted sets,
/// never the item universe.
fn extension_items<'p>(
    freq: &FastMap<ItemSet, u64>,
    promoted: &'p [ItemSet],
    scratch: &mut Vec<Item>,
) -> (Vec<Item>, FastMap<&'p [Item], Vec<Item>>) {
    let mut singles: Vec<Item> = Vec::new();
    // Per size k: (|L_k|, promoted k-sets). `promoted` is already in `L`.
    let mut sized = vec![(0usize, 0usize); 2];
    for set in freq.keys() {
        if let [item] = *set.items() {
            singles.push(item);
        }
        if set.len() >= sized.len() {
            sized.resize(set.len() + 1, (0, 0));
        }
        sized[set.len()].0 += 1;
    }
    for set in promoted {
        sized[set.len()].1 += 1;
    }
    let indexed: Vec<bool> = sized
        .iter()
        .enumerate()
        .map(|(k, &(l_k, promoted_k))| k >= 2 && promoted_k * singles.len() > l_k * k)
        .collect();

    let mut extensions: FastMap<&[Item], Vec<Item>> = FastMap::default();
    for set in promoted.iter().filter(|set| indexed[set.len()]) {
        extensions.entry(prefix(set)).or_default();
    }
    if !extensions.is_empty() {
        for set in freq.keys().filter(|set| indexed[set.len()]) {
            set.all_maximal_subsets(scratch, |sub, dropped| {
                if let Some(items) = extensions.get_mut(sub) {
                    items.push(dropped);
                }
                true
            });
        }
    }
    (singles, extensions)
}

/// The frequent-itemset model of a block selection: `L` and `NB⁻` with
/// exact absolute supports, plus the identifiers of the selected blocks.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrequentItemsets {
    minsup: MinSupport,
    n_items: u32,
    /// Transactions in the selected blocks.
    n: u64,
    /// Blocks this model was extracted from (ascending).
    included: Vec<BlockId>,
    #[serde(with = "map_serde")]
    freq: FastMap<ItemSet, u64>,
    #[serde(with = "map_serde")]
    border: FastMap<ItemSet, u64>,
    /// The long-lived detection-phase index: a prefix tree over every
    /// tracked itemset (`L ∪ NB⁻`), extended in place as the cascade
    /// creates candidates and rebuilt lazily after deserialization. Slots
    /// of itemsets since dropped from the model go dead (what they count
    /// matches neither map and is ignored); [`Self::ensure_detector`]
    /// rebuilds the tree once they outnumber the live ones.
    #[serde(skip)]
    detector: Option<PrefixTree>,
}

impl FrequentItemsets {
    /// The empty model over an `n_items` universe: nothing is frequent and
    /// the negative border holds every singleton with count 0. Absorbing
    /// blocks into the empty model reproduces mining from scratch through
    /// the BORDERS cascade — this is GEMM's `fresh` model.
    pub fn empty(minsup: MinSupport, n_items: u32) -> Self {
        let border = (0..n_items)
            .map(|i| (ItemSet::singleton(Item(i)), 0u64))
            .collect();
        FrequentItemsets {
            minsup,
            n_items,
            n: 0,
            included: Vec::new(),
            freq: FastMap::default(),
            border,
            detector: None,
        }
    }

    /// Batch-mines the model directly over blocks (no store needed) —
    /// used by the FOCUS deviation machinery, which models single blocks.
    pub fn mine_blocks(
        blocks: &[&demon_types::TxBlock],
        n_items: u32,
        minsup: MinSupport,
    ) -> Self {
        let mined = apriori::mine(blocks, n_items, minsup);
        let mut included: Vec<BlockId> = blocks.iter().map(|b| b.id()).collect();
        included.sort_unstable();
        included.dedup();
        FrequentItemsets {
            minsup,
            n_items,
            n: mined.n,
            included,
            freq: mined.frequent.into_iter().collect(),
            border: mined.border.into_iter().collect(),
            detector: None,
        }
    }

    /// Batch-mines the model over the given blocks of `store` with Apriori
    /// (faster than absorbing block-by-block when history is available).
    pub fn mine_from(store: &TxStore, ids: &[BlockId], minsup: MinSupport) -> Result<Self> {
        // Pin every block for the duration of the mine (pinned blocks
        // cannot be evicted by a memory-bounded store).
        let mut guards = Vec::with_capacity(ids.len());
        for &id in ids {
            guards.push(
                store
                    .try_block(id)?
                    .ok_or(DemonError::UnknownBlock(id.value()))?,
            );
        }
        let blocks: Vec<&TxBlock> = guards.iter().map(|g| &**g).collect();
        let mined = apriori::mine(&blocks, store.n_items(), minsup);
        let mut included: Vec<BlockId> = ids.to_vec();
        included.sort_unstable();
        included.dedup();
        Ok(FrequentItemsets {
            minsup,
            n_items: store.n_items(),
            n: mined.n,
            included,
            freq: mined.frequent.into_iter().collect(),
            border: mined.border.into_iter().collect(),
            detector: None,
        })
    }

    /// The minimum-support threshold.
    pub fn min_support(&self) -> MinSupport {
        self.minsup
    }

    /// Number of transactions in the selected blocks.
    pub fn n_transactions(&self) -> u64 {
        self.n
    }

    /// The absolute support count an itemset needs to be frequent.
    pub fn threshold(&self) -> u64 {
        self.minsup.count_for(self.n)
    }

    /// The blocks this model is extracted from, ascending.
    pub fn included_blocks(&self) -> &[BlockId] {
        &self.included
    }

    /// Whether a block is part of the selection.
    pub fn includes(&self, id: BlockId) -> bool {
        self.included.binary_search(&id).is_ok()
    }

    /// The frequent itemsets with their support counts.
    pub fn frequent(&self) -> &FastMap<ItemSet, u64> {
        &self.freq
    }

    /// The negative border with its support counts.
    pub fn border(&self) -> &FastMap<ItemSet, u64> {
        &self.border
    }

    /// Number of frequent itemsets.
    pub fn n_frequent(&self) -> usize {
        self.freq.len()
    }

    /// Whether `itemset` is currently frequent.
    pub fn is_frequent(&self, itemset: &ItemSet) -> bool {
        self.freq.contains_key(itemset)
    }

    /// Support count of a *tracked* itemset (frequent or border).
    pub fn support(&self, itemset: &ItemSet) -> Option<u64> {
        self.freq
            .get(itemset)
            .or_else(|| self.border.get(itemset))
            .copied()
    }

    /// Frequent itemsets sorted for deterministic output.
    pub fn frequent_sorted(&self) -> Vec<(ItemSet, u64)> {
        let mut v: Vec<(ItemSet, u64)> =
            self.freq.iter().map(|(s, c)| (s.clone(), *c)).collect();
        v.sort();
        v
    }

    /// The frequent 2-itemsets ordered by descending support — the ECUT+
    /// materialization priority list (paper §3.1.1: "an itemset with a
    /// higher overall support is chosen before another with lower").
    pub fn frequent_pairs_by_support(&self) -> Vec<(Item, Item)> {
        let mut pairs: Vec<(u64, Item, Item)> = self
            .freq
            .iter()
            .filter(|(s, _)| s.len() == 2)
            .map(|(s, c)| (*c, s.items()[0], s.items()[1]))
            .collect();
        pairs.sort_unstable_by(|a, b| b.cmp(a));
        pairs.into_iter().map(|(_, a, b)| (a, b)).collect()
    }

    /// **BORDERS block addition.** Adjusts the model to include block `id`
    /// of `store`, counting new candidates with `counter`.
    pub fn absorb_block(
        &mut self,
        store: &TxStore,
        id: BlockId,
        counter: CounterKind,
    ) -> Result<MaintenanceStats> {
        self.absorb_with(store, id, |ids, cands| {
            count_supports(counter, store, ids, cands)
        })
    }

    /// [`Self::absorb_block`] with every update-phase count split into
    /// `n_shards` shares by block id ([`count_supports_sharded`]) —
    /// per-shard exact counts summed index-wise, so the resulting model
    /// is byte-identical at any shard count.
    pub fn absorb_block_sharded(
        &mut self,
        store: &TxStore,
        n_shards: usize,
        id: BlockId,
        counter: CounterKind,
    ) -> Result<MaintenanceStats> {
        self.absorb_with(store, id, |ids, cands| {
            count_supports_sharded(counter, store, n_shards, ids, cands)
        })
    }

    /// The one body of block addition: `count` is the update phase's
    /// candidate-counting source (see [`Self::cascade_counted`]).
    fn absorb_with(
        &mut self,
        store: &TxStore,
        id: BlockId,
        count: impl FnMut(&[BlockId], &[ItemSet]) -> CountResult,
    ) -> Result<MaintenanceStats> {
        if self.includes(id) {
            return Err(DemonError::InvalidParameter(format!(
                "block {id} already absorbed"
            )));
        }
        let block = store
            .try_block(id)?
            .ok_or(DemonError::UnknownBlock(id.value()))?;

        let mut stats = MaintenanceStats::default();

        // Detection phase: scan only the new block over all tracked sets,
        // using the long-lived prefix tree.
        let t0 = Instant::now();
        self.detect(&block, &mut stats, 1);
        self.n += block.len() as u64;
        let pos = self.included.partition_point(|&b| b < id);
        self.included.insert(pos, id);
        stats.detection_time = t0.elapsed();
        // Release the pin before the update phase re-pins the selection.
        drop(block);

        // Update phase.
        let t1 = Instant::now();
        self.cascade_counted(&mut stats, count);
        stats.update_time = t1.elapsed();
        Ok(stats)
    }

    /// **`AuM` block deletion** (paper §3.2.4). Adjusts the model to
    /// exclude block `id`, which must still be present in `store` (its
    /// transactions are scanned to decrement counts before retirement).
    pub fn remove_block(
        &mut self,
        store: &TxStore,
        id: BlockId,
        counter: CounterKind,
    ) -> Result<MaintenanceStats> {
        if !self.includes(id) {
            return Err(DemonError::InvalidParameter(format!(
                "block {id} not part of the model"
            )));
        }
        let block = store
            .try_block(id)?
            .ok_or(DemonError::UnknownBlock(id.value()))?;

        let mut stats = MaintenanceStats::default();
        let t0 = Instant::now();
        self.detect(&block, &mut stats, -1);
        self.n -= block.len() as u64;
        self.included.retain(|&b| b != id);
        stats.detection_time = t0.elapsed();
        drop(block);

        let t1 = Instant::now();
        self.cascade(store, counter, &mut stats);
        stats.update_time = t1.elapsed();
        Ok(stats)
    }

    /// Counts every tracked itemset on one block with the cached prefix
    /// tree and applies `sign × count` to the stored supports.
    fn detect(&mut self, block: &demon_types::TxBlock, stats: &mut MaintenanceStats, sign: i64) {
        self.ensure_detector();
        let tree = self.detector.as_mut().expect("detector just ensured");
        tree.reset();
        for tx in block.records() {
            stats.detection_units += tx.len() as u64;
            tree.add_transaction(tx.items());
        }
        let (freq, border) = (&mut self.freq, &mut self.border);
        tree.for_each_counted(|set, delta| {
            // Dead slots (itemsets dropped from the model) match neither
            // map and are ignored.
            if let Some(c) = freq.get_mut(set).or_else(|| border.get_mut(set)) {
                *c = (*c as i64 + sign * delta as i64).max(0) as u64;
            }
        });
    }

    /// Pre-builds the detection index. Absorbing a block builds it on
    /// demand anyway; benchmarks call this to keep the one-time index
    /// construction out of the per-block detection timing.
    pub fn warm_detector(&mut self) {
        self.ensure_detector();
    }

    /// Builds the detector on first use (or after deserialization), and
    /// rebuilds it when dead slots outnumber live ones. Every tracked
    /// itemset owns exactly one slot, so `slots − tracked` *is* the number
    /// of dead ones.
    fn ensure_detector(&mut self) {
        let live = self.freq.len() + self.border.len();
        if self
            .detector
            .as_ref()
            .is_some_and(|tree| tree.len() <= 2 * live.max(1))
        {
            return;
        }
        let mut tree = PrefixTree::build(&[]);
        for set in self.freq.keys().chain(self.border.keys()) {
            tree.insert_candidate(set);
        }
        self.detector = Some(tree);
    }

    /// The shared update-phase cascade: demote, prune, promote, generate
    /// and count candidates, repeat.
    fn cascade(&mut self, store: &TxStore, counter: CounterKind, stats: &mut MaintenanceStats) {
        self.cascade_counted(stats, |ids, cands| {
            count_supports(counter, store, ids, cands)
        });
    }

    /// The cascade, generic over the candidate-counting source. The closure
    /// receives the model's included block ids and the candidate batch and
    /// must return exact supports over exactly those blocks — this is what
    /// lets a sharded daemon substitute [`count_supports_sharded`] without
    /// touching the BORDERS state machine.
    ///
    /// Its work follows the itemsets that cross the border, not the item
    /// universe or the square of the model's size: every pass below is
    /// over the sets that moved, or is a few hash probes per tracked set.
    fn cascade_counted<F>(&mut self, stats: &mut MaintenanceStats, mut count: F)
    where
        F: FnMut(&[BlockId], &[ItemSet]) -> CountResult,
    {
        let thresh = self.threshold();
        let (freq, border) = (&mut self.freq, &mut self.border);
        // Reused by every borrowed-subset probe below.
        let mut scratch: Vec<Item> = Vec::new();

        // Demotions: frequent itemsets that dropped below the threshold
        // move into the border; border itemsets that now have an
        // infrequent proper subset are no longer border members.
        let was_frequent = freq.len();
        freq.retain(|set, &mut c| {
            if c < thresh {
                border.insert(set.clone(), c);
            }
            c >= thresh
        });
        let demoted = was_frequent - freq.len();
        if demoted > 0 {
            stats.demoted += demoted;
            obs::add(obs::Counter::BorderDemotions, demoted as u64);
            // Counts are exact, hence anti-monotone: every superset of a
            // demoted set left `L` with it, and `L` is downward closed
            // again. So a border member has lost a proper subset exactly
            // when one of its maximal proper subsets is no longer in `L`
            // (singletons, whose only proper subset is ∅, always stay).
            border.retain(|set, _| {
                set.len() == 1
                    || set.all_maximal_subsets(&mut scratch, |sub, _| freq.contains_key(sub))
            });
        }

        // Promotion loop.
        loop {
            let promoted: Vec<ItemSet> = border
                .iter()
                .filter(|&(_, &c)| c >= thresh)
                .map(|(s, _)| s.clone())
                .collect();
            if promoted.is_empty() {
                break;
            }
            stats.promoted += promoted.len();
            obs::add(obs::Counter::BorderPromotions, promoted.len() as u64);
            for set in &promoted {
                if let Some((set, c)) = border.remove_entry(set) {
                    freq.insert(set, c);
                }
            }

            // Candidate generation: a set becomes a candidate exactly when
            // its *last* maximal subset turns frequent, so every new
            // candidate is a one-item extension `P ∪ {i}` of some promoted
            // set `P` — unlike a prefix join of the promoted sets against
            // `L`, which misses candidates whose promoted subset is not a
            // prefix parent. Only items that can pass the Apriori prune
            // below are tried.
            let (singles, extensions) = extension_items(freq, &promoted, &mut scratch);
            let mut candidates: FastSet<ItemSet> = FastSet::default();
            for x in &promoted {
                let items = extensions.get(prefix(x)).unwrap_or(&singles);
                for &i in items {
                    let Some(cand) = x.with_item(i) else {
                        continue;
                    };
                    stats.extensions_probed += 1;
                    // `P` was not frequent until this round, so no superset
                    // of it can be tracked yet: every tracked set has all
                    // its proper subsets in `L`.
                    debug_assert!(!freq.contains_key(&cand) && !border.contains_key(&cand));
                    // (The set drops the second copy of a candidate two
                    // sets promoted this round both extend to.)
                    if cand.all_maximal_subsets(&mut scratch, |sub, dropped| {
                        dropped == i || freq.contains_key(sub)
                    }) {
                        candidates.insert(cand);
                    }
                }
            }
            if candidates.is_empty() {
                continue;
            }
            let candidates: Vec<ItemSet> = candidates.into_iter().collect();
            stats.candidates_counted += candidates.len();
            let counted = count(&self.included, &candidates);
            stats.update_units += counted.units_read;
            border.reserve(candidates.len());
            for (cand, count) in candidates.into_iter().zip(counted.counts) {
                // Frequent candidates will be promoted next round and then
                // generate further candidates — the paper's "and so on
                // until no new frequent itemsets are found".
                if let Some(tree) = &mut self.detector {
                    tree.insert_candidate(&cand);
                }
                border.insert(cand, count);
            }
        }
    }

    /// Checks the structural invariants of the model against `store`
    /// (exactness of counts, border definition, anti-monotonicity).
    /// Test-support; panics with a description on violation.
    pub fn check_invariants(&self, store: &TxStore) {
        let thresh = self.threshold();
        let guards: Vec<_> = self
            .included
            .iter()
            .map(|id| store.block(*id).expect("included block in store"))
            .collect();
        let blocks: Vec<&TxBlock> = guards.iter().map(|g| &**g).collect();
        let total: u64 = blocks.iter().map(|b| b.len() as u64).sum();
        assert_eq!(total, self.n, "transaction count drifted");
        for (set, &c) in &self.freq {
            assert!(c >= thresh, "{set} in L but count {c} < {thresh}");
            assert_eq!(c, apriori::naive_support(set, &blocks), "{set} count wrong");
        }
        for (set, &c) in &self.border {
            assert!(c < thresh, "{set} in NB⁻ but count {c} ≥ {thresh}");
            assert_eq!(c, apriori::naive_support(set, &blocks), "{set} count wrong");
            for sub in set.proper_maximal_subsets() {
                assert!(
                    sub.is_empty() || self.freq.contains_key(&sub),
                    "border member {set} has non-frequent subset {sub}"
                );
            }
        }
        // All singletons must remain tracked.
        for i in 0..self.n_items {
            let s = ItemSet::singleton(Item(i));
            assert!(
                self.freq.contains_key(&s) || self.border.contains_key(&s),
                "singleton {s} lost"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{Tid, Transaction, TxBlock};

    fn block(id: u64, base: u64, txs: &[&[u32]]) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            txs.iter()
                .enumerate()
                .map(|(i, items)| {
                    Transaction::new(
                        Tid(base + i as u64),
                        items.iter().copied().map(Item).collect(),
                    )
                })
                .collect(),
        )
    }

    fn k(v: f64) -> MinSupport {
        MinSupport::new(v).unwrap()
    }

    /// Mining from scratch and incrementally absorbing must agree.
    fn assert_same_model(a: &FrequentItemsets, b: &FrequentItemsets) {
        let norm = |m: &FrequentItemsets| {
            let mut v: Vec<(ItemSet, u64)> =
                m.frequent().iter().map(|(s, c)| (s.clone(), *c)).collect();
            v.sort();
            v
        };
        assert_eq!(norm(a), norm(b), "frequent sets differ");
        assert_eq!(a.n_transactions(), b.n_transactions());
    }

    #[test]
    fn absorb_from_empty_equals_batch_mine() {
        let b1 = block(1, 1, &[&[0, 1, 2], &[0, 1], &[1, 2], &[0, 2], &[3]]);
        let b2 = block(2, 100, &[&[0, 1], &[0, 1, 2], &[2, 3], &[3]]);
        let mut store = TxStore::new(4);
        store.add_block(b1);
        store.add_block(b2);
        for counter in [CounterKind::PtScan, CounterKind::Ecut] {
            let mut inc = FrequentItemsets::empty(k(0.3), 4);
            inc.absorb_block(&store, BlockId(1), counter).unwrap();
            inc.check_invariants(&store);
            inc.absorb_block(&store, BlockId(2), counter).unwrap();
            inc.check_invariants(&store);
            let batch =
                FrequentItemsets::mine_from(&store, &[BlockId(1), BlockId(2)], k(0.3)).unwrap();
            assert_same_model(&inc, &batch);
        }
    }

    #[test]
    fn absorb_detects_newly_frequent_itemsets() {
        // Item 3 is rare in block 1 but dominant in block 2.
        let b1 = block(1, 1, &[&[0, 1], &[0, 1], &[0, 1], &[0, 1], &[3]]);
        let b2 = block(2, 100, &[&[3, 0], &[3, 0], &[3, 0], &[3, 0], &[3, 0]]);
        let mut store = TxStore::new(4);
        store.add_block(b1);
        store.add_block(b2);
        let mut m = FrequentItemsets::empty(k(0.4), 4);
        m.absorb_block(&store, BlockId(1), CounterKind::Ecut).unwrap();
        assert!(!m.is_frequent(&ItemSet::from_ids(&[3])));
        let stats = m
            .absorb_block(&store, BlockId(2), CounterKind::Ecut)
            .unwrap();
        assert!(m.is_frequent(&ItemSet::from_ids(&[3])));
        assert!(m.is_frequent(&ItemSet::from_ids(&[0, 3])));
        assert!(stats.promoted > 0);
        assert!(stats.candidates_counted > 0);
        m.check_invariants(&store);
    }

    #[test]
    fn absorb_demotes_stale_itemsets() {
        let b1 = block(1, 1, &[&[0, 1], &[0, 1], &[0, 1]]);
        let b2 = block(2, 100, &[&[2], &[2], &[2], &[2], &[2], &[2]]);
        let mut store = TxStore::new(3);
        store.add_block(b1);
        store.add_block(b2);
        let mut m = FrequentItemsets::empty(k(0.5), 3);
        m.absorb_block(&store, BlockId(1), CounterKind::PtScan).unwrap();
        assert!(m.is_frequent(&ItemSet::from_ids(&[0, 1])));
        let stats = m
            .absorb_block(&store, BlockId(2), CounterKind::PtScan)
            .unwrap();
        assert!(!m.is_frequent(&ItemSet::from_ids(&[0, 1])));
        assert!(m.is_frequent(&ItemSet::from_ids(&[2])));
        assert!(stats.demoted > 0);
        m.check_invariants(&store);
    }

    #[test]
    fn remove_block_inverts_absorb() {
        let b1 = block(1, 1, &[&[0, 1, 2], &[0, 1], &[1, 2], &[0, 2]]);
        let b2 = block(2, 100, &[&[2, 0], &[2], &[2, 1]]);
        let mut store = TxStore::new(3);
        store.add_block(b1);
        store.add_block(b2);
        let mut m = FrequentItemsets::empty(k(0.4), 3);
        m.absorb_block(&store, BlockId(1), CounterKind::Ecut).unwrap();
        let reference = m.clone();
        m.absorb_block(&store, BlockId(2), CounterKind::Ecut).unwrap();
        m.remove_block(&store, BlockId(2), CounterKind::Ecut).unwrap();
        m.check_invariants(&store);
        assert_same_model(&m, &reference);
    }

    #[test]
    fn absorb_rejects_duplicates_and_unknown_blocks() {
        let b1 = block(1, 1, &[&[0]]);
        let mut store = TxStore::new(1);
        store.add_block(b1);
        let mut m = FrequentItemsets::empty(k(0.5), 1);
        m.absorb_block(&store, BlockId(1), CounterKind::Ecut).unwrap();
        assert!(m.absorb_block(&store, BlockId(1), CounterKind::Ecut).is_err());
        assert!(m.absorb_block(&store, BlockId(9), CounterKind::Ecut).is_err());
        assert!(m.remove_block(&store, BlockId(9), CounterKind::Ecut).is_err());
    }

    #[test]
    fn detector_rebuild_after_massive_border_shrink() {
        // Build a model with a wide border, then absorb a block that
        // demotes almost everything: the cached detector becomes mostly
        // stale and must be rebuilt on the next absorb without corrupting
        // counts.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let raw: Vec<Vec<u32>> = (0..300)
            .map(|_| (0..4).map(|_| rng.gen_range(0..16u32)).collect())
            .collect();
        let slices: Vec<&[u32]> = raw.iter().map(|v| v.as_slice()).collect();
        let b1 = block(1, 1, &slices);
        // Ten times b1's size over two pairs: b1's pairs all fall below κ.
        let heavy: Vec<&[u32]> = (0..3000)
            .map(|i| if i % 2 == 0 { &[0u32, 1][..] } else { &[2u32, 3][..] })
            .collect();
        let b2 = block(2, 1000, &heavy);
        let b3 = block(3, 10_000, &[&[0, 1], &[0, 1], &[2, 3]]);
        let mut store = TxStore::new(16);
        for b in [b1, b2, b3] {
            store.add_block(b);
        }
        let ids = [BlockId(1), BlockId(2), BlockId(3)];
        let mut m = FrequentItemsets::empty(k(0.02), 16);
        m.absorb_block(&store, ids[0], CounterKind::Ecut).unwrap();
        let before = m.n_frequent();
        // b2 demotes almost everything, leaving stale detector slots.
        m.absorb_block(&store, ids[1], CounterKind::Ecut).unwrap();
        assert!(m.n_frequent() * 4 < before, "{} of {before} stay frequent", m.n_frequent());
        m.absorb_block(&store, ids[2], CounterKind::Ecut).unwrap();
        m.check_invariants(&store);
        let batch = FrequentItemsets::mine_from(&store, &ids, k(0.02)).unwrap();
        assert_same_model(&m, &batch);
    }

    #[test]
    fn cascade_work_is_independent_of_the_item_universe() {
        // Three blocks over items 0..16, the dominant half switching in
        // the last one so whole levels are promoted at once; absorbed
        // under a 64-item and an 8192-item universe. The items beyond 16
        // never occur, so the update phase must not do more for them.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        let raw: Vec<Vec<Vec<u32>>> = (0..3u32)
            .map(|b| {
                let base = if b < 2 { 0 } else { 8 };
                (0..200)
                    .map(|_| (0..4).map(|_| base + rng.gen_range(0..8u32)).collect())
                    .collect()
            })
            .collect();
        let run = |n_items: u32| {
            let mut store = TxStore::new(n_items);
            let mut model = FrequentItemsets::empty(k(0.05), n_items);
            let mut total = MaintenanceStats::default();
            for (b, txs) in raw.iter().enumerate() {
                let slices: Vec<&[u32]> = txs.iter().map(|v| v.as_slice()).collect();
                let id = b as u64 + 1;
                store.add_block(block(id, 1000 * id, &slices));
                let stats = model
                    .absorb_block(&store, BlockId(id), CounterKind::Ecut)
                    .unwrap();
                total.merge(&stats);
            }
            model.check_invariants(&store);
            (total, model)
        };
        let (small, small_model) = run(64);
        let (large, large_model) = run(8192);
        assert!(small.extensions_probed > 0 && small.promoted > 8);
        assert_eq!(small.extensions_probed, large.extensions_probed);
        assert_eq!(small.candidates_counted, large.candidates_counted);
        assert_eq!(small_model.frequent(), large_model.frequent());
    }

    #[test]
    fn model_roundtrips_through_serde() {
        let b1 = block(1, 1, &[&[0, 1], &[0, 1], &[2]]);
        let mut store = TxStore::new(3);
        store.add_block(b1);
        let mut m = FrequentItemsets::empty(k(0.4), 3);
        m.absorb_block(&store, BlockId(1), CounterKind::Ecut).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: FrequentItemsets = serde_json::from_str(&json).unwrap();
        assert_eq!(back.frequent(), m.frequent());
        assert_eq!(back.border(), m.border());
        assert_eq!(back.n_transactions(), m.n_transactions());
        assert_eq!(back.included_blocks(), m.included_blocks());
    }

    #[test]
    fn frequent_pairs_ordered_by_support() {
        let b1 = block(
            1,
            1,
            &[&[0, 1], &[0, 1], &[0, 1], &[1, 2], &[1, 2], &[0, 2]],
        );
        let mut store = TxStore::new(3);
        store.add_block(b1);
        let m = FrequentItemsets::mine_from(&store, &[BlockId(1)], k(0.2)).unwrap();
        let pairs = m.frequent_pairs_by_support();
        assert_eq!(pairs[0], (Item(0), Item(1)));
        assert!(pairs.contains(&(Item(1), Item(2))));
    }
}
