//! **FUP** (Cheung, Han, Ng, Wong; ICDE '96) — the first incremental
//! frequent-itemset maintenance algorithm, and the baseline BORDERS
//! improves on (paper §6: FUP "makes several iterations and in each
//! iteration scans the entire database").
//!
//! FUP proceeds level-wise over the *increment* `db`:
//!
//! * previously frequent k-itemsets only need their counts updated on
//!   `db` (winners keep, losers drop);
//! * a previously infrequent itemset can only become frequent overall if
//!   it is frequent *within the increment* (the FUP lemma), so new
//!   candidates are pre-filtered on `db` — but the survivors' supports on
//!   the **old database** are unknown, forcing one full scan of the old
//!   data per level with survivors.
//!
//! BORDERS' negative border removes most of those scans (the detection
//! phase knows immediately whether anything changed), and ECUT turns the
//! remaining full scans into selective TID-list reads. The
//! `ablation_fup` bench quantifies exactly this.

use demon_itemsets::apriori::generate_candidates;
use demon_itemsets::{PrefixTree, TxStore};
use demon_types::{BlockId, DemonError, FastMap, Item, ItemSet, MinSupport, Result};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Cost accounting of one FUP maintenance step.
#[derive(Clone, Copy, Debug, Default)]
pub struct FupStats {
    /// Wall-clock time of the step.
    pub time: Duration,
    /// Levels processed.
    pub levels: usize,
    /// Full scans of the *old* database (one per level with surviving new
    /// candidates) — the cost BORDERS avoids.
    pub old_db_scans: usize,
    /// Item units read, old data and increment together.
    pub units_read: u64,
    /// New candidates whose old-database support had to be counted.
    pub candidates_counted: usize,
}

/// The FUP-maintained model: the frequent itemsets with exact supports
/// (no negative border — that is BORDERS' innovation).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FupModel {
    minsup: MinSupport,
    n_items: u32,
    n: u64,
    included: Vec<BlockId>,
    freq: FastMap<ItemSet, u64>,
}

impl FupModel {
    /// The empty model.
    pub fn empty(minsup: MinSupport, n_items: u32) -> Self {
        FupModel {
            minsup,
            n_items,
            n: 0,
            included: Vec::new(),
            freq: FastMap::default(),
        }
    }

    /// The frequent itemsets with their counts.
    pub fn frequent(&self) -> &FastMap<ItemSet, u64> {
        &self.freq
    }

    /// Number of transactions covered.
    pub fn n_transactions(&self) -> u64 {
        self.n
    }

    /// Blocks covered, ascending.
    pub fn included_blocks(&self) -> &[BlockId] {
        &self.included
    }

    /// Absorbs block `id` of `store` with the FUP iteration.
    pub fn absorb_block(&mut self, store: &TxStore, id: BlockId) -> Result<FupStats> {
        if self.included.contains(&id) {
            return Err(DemonError::InvalidParameter(format!(
                "block {id} already absorbed"
            )));
        }
        let inc = store
            .try_block(id)?
            .ok_or(DemonError::UnknownBlock(id.value()))?;
        let t0 = Instant::now();
        let mut stats = FupStats::default();

        let n_inc = inc.len() as u64;
        let n_new = self.n + n_inc;
        let thresh = self.minsup.count_for(n_new);
        let thresh_inc = self.minsup.count_for(n_inc);
        let old_blocks: Vec<BlockId> = self.included.clone();

        let mut new_freq: FastMap<ItemSet, u64> = FastMap::default();
        // Level 1 candidates: the whole item universe.
        let mut candidates: Vec<ItemSet> = (0..self.n_items)
            .map(|i| ItemSet::singleton(Item(i)))
            .collect();

        while !candidates.is_empty() {
            stats.levels += 1;
            // One scan of the increment for this level's candidates.
            let mut tree = PrefixTree::build(&candidates);
            for tx in inc.records() {
                stats.units_read += tx.len() as u64;
                tree.add_transaction(tx.items());
            }
            let inc_counts = tree.into_counts();

            let mut level_winners: Vec<(ItemSet, u64)> = Vec::new();
            let mut unknown: Vec<(ItemSet, u64)> = Vec::new();
            for (cand, &inc_count) in candidates.iter().zip(&inc_counts) {
                match self.freq.get(cand) {
                    Some(&old_count) => {
                        let total = old_count + inc_count;
                        if total >= thresh {
                            level_winners.push((cand.clone(), total));
                        }
                    }
                    None => {
                        // FUP lemma: previously infrequent itemsets must be
                        // frequent within the increment to qualify at all.
                        if inc_count >= thresh_inc {
                            unknown.push((cand.clone(), inc_count));
                        }
                    }
                }
            }

            // Survivors force one full scan of the old database.
            if !unknown.is_empty() && !old_blocks.is_empty() {
                stats.old_db_scans += 1;
                stats.candidates_counted += unknown.len();
                let sets: Vec<ItemSet> = unknown.iter().map(|(s, _)| s.clone()).collect();
                let mut tree = PrefixTree::build(&sets);
                for bid in &old_blocks {
                    let block = store
                        .try_block(*bid)?
                        .ok_or(DemonError::UnknownBlock(bid.value()))?;
                    for tx in block.records() {
                        stats.units_read += tx.len() as u64;
                        tree.add_transaction(tx.items());
                    }
                }
                for ((cand, inc_count), &old_count) in
                    unknown.into_iter().zip(tree.counts())
                {
                    let total = old_count + inc_count;
                    if total >= thresh {
                        level_winners.push((cand, total));
                    }
                }
            } else if old_blocks.is_empty() {
                // Bootstrapping on the first block: increment counts are
                // total counts.
                for (cand, inc_count) in unknown {
                    if inc_count >= thresh {
                        level_winners.push((cand, inc_count));
                    }
                }
            }

            // Next level's candidates from the updated winners.
            let winner_sets: Vec<ItemSet> =
                level_winners.iter().map(|(s, _)| s.clone()).collect();
            let winner_lookup: HashSet<ItemSet> = winner_sets.iter().cloned().collect();
            new_freq.extend(level_winners);
            candidates = generate_candidates(&winner_sets, &winner_lookup);
        }

        self.freq = new_freq;
        self.n = n_new;
        let pos = self.included.partition_point(|&b| b < id);
        self.included.insert(pos, id);
        stats.time = t0.elapsed();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_itemsets::FrequentItemsets;

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

    #[test]
    fn fup_matches_batch_mining() {
        let b1 = block(1, 1, &[&[0, 1, 2], &[0, 1], &[1, 2], &[0, 2], &[3]]);
        let b2 = block(2, 100, &[&[0, 1], &[0, 1, 2], &[2, 3], &[3]]);
        let mut store = TxStore::new(4);
        store.add_block(b1);
        store.add_block(b2);
        let mut fup = FupModel::empty(k(0.3), 4);
        fup.absorb_block(&store, BlockId(1)).unwrap();
        fup.absorb_block(&store, BlockId(2)).unwrap();
        let batch =
            FrequentItemsets::mine_from(&store, &[BlockId(1), BlockId(2)], k(0.3)).unwrap();
        assert_eq!(fup.frequent(), batch.frequent());
        assert_eq!(fup.n_transactions(), 9);
    }

    #[test]
    fn fup_lemma_is_sound_on_shifted_distributions() {
        // Item 3 is absent in block 1 and dominant in block 2: FUP must
        // pick it up via the increment pre-filter and one old-DB scan.
        let b1 = block(1, 1, &[&[0, 1], &[0, 1], &[0, 1], &[0, 1]]);
        let b2 = block(2, 100, &[&[3, 0], &[3, 0], &[3, 0], &[3, 0], &[3, 0]]);
        let mut store = TxStore::new(4);
        store.add_block(b1);
        store.add_block(b2);
        let mut fup = FupModel::empty(k(0.4), 4);
        fup.absorb_block(&store, BlockId(1)).unwrap();
        let stats = fup.absorb_block(&store, BlockId(2)).unwrap();
        assert!(stats.old_db_scans >= 1, "new items force an old-DB scan");
        let batch =
            FrequentItemsets::mine_from(&store, &[BlockId(1), BlockId(2)], k(0.4)).unwrap();
        assert_eq!(fup.frequent(), batch.frequent());
    }

    #[test]
    fn stable_distribution_avoids_old_db_scans_beyond_prefilter() {
        // Identical blocks: every frequent itemset was already tracked, so
        // no new candidate survives the increment pre-filter at level > 1
        // ... except genuinely new ones, of which there are none.
        let txs: &[&[u32]] = &[&[0, 1], &[0, 1], &[2], &[0, 2]];
        let b1 = block(1, 1, txs);
        let b2 = block(2, 100, txs);
        let mut store = TxStore::new(3);
        store.add_block(b1);
        store.add_block(b2);
        let mut fup = FupModel::empty(k(0.3), 3);
        fup.absorb_block(&store, BlockId(1)).unwrap();
        let stats = fup.absorb_block(&store, BlockId(2)).unwrap();
        assert_eq!(stats.old_db_scans, 0, "no distribution change, no rescans");
        let batch =
            FrequentItemsets::mine_from(&store, &[BlockId(1), BlockId(2)], k(0.3)).unwrap();
        assert_eq!(fup.frequent(), batch.frequent());
    }

    #[test]
    fn rejects_duplicate_and_unknown_blocks() {
        let b1 = block(1, 1, &[&[0]]);
        let mut store = TxStore::new(1);
        store.add_block(b1);
        let mut fup = FupModel::empty(k(0.5), 1);
        fup.absorb_block(&store, BlockId(1)).unwrap();
        assert!(fup.absorb_block(&store, BlockId(1)).is_err());
        assert!(fup.absorb_block(&store, BlockId(7)).is_err());
    }

    #[test]
    fn fup_matches_batch_on_random_streams() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..10 {
            let mut store = TxStore::new(8);
            let mut fup = FupModel::empty(k(0.15), 8);
            let n_blocks = rng.gen_range(1..4u64);
            for id in 1..=n_blocks {
                let raw: Vec<Vec<u32>> = (0..rng.gen_range(10..40))
                    .map(|_| {
                        (0..rng.gen_range(1..5usize))
                            .map(|_| rng.gen_range(0..8u32))
                            .collect()
                    })
                    .collect();
                let slices: Vec<&[u32]> = raw.iter().map(|v| v.as_slice()).collect();
                store.add_block(block(id, id * 1000, &slices));
                fup.absorb_block(&store, BlockId(id)).unwrap();
            }
            let batch =
                FrequentItemsets::mine_from(&store, store.block_ids(), k(0.15)).unwrap();
            assert_eq!(fup.frequent(), batch.frequent(), "trial {trial}");
        }
    }
}
