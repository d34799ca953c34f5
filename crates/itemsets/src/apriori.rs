//! Level-wise frequent-itemset mining (Apriori, AMS+96) with negative
//! border computation.
//!
//! BORDERS maintains `L(D, κ)` *and* `NB⁻(D, κ)` — the infrequent itemsets
//! all of whose proper subsets are frequent. The level-wise candidate sets
//! of Apriori are exactly `L ∪ NB⁻` (candidates are generated with the
//! prefix join and pruned so all their maximal subsets are frequent), so a
//! single mining pass yields both with exact supports.
//!
//! Level 1 is a dense count per item. Level 2 is a dense triangular count
//! over the pairs of frequent singletons: every 1-subset of such a pair is
//! frequent, so the Apriori prune removes nothing there and the candidates
//! are exactly those pairs. Levels ≥ 3 join, prune and count with one
//! PT-Scan per level ([`generate_candidates`], [`count_with_prefix_tree`]).

use crate::prefix_tree::PrefixTree;
use demon_types::{obs, Item, ItemSet, MinSupport, TxBlock};
use std::collections::HashSet;

/// Output of [`mine`]: the frequent itemsets, the negative border, and the
/// dataset size — everything the BORDERS model needs to start maintaining.
#[derive(Clone, Debug, Default)]
pub struct MineResult {
    /// Frequent itemsets with their absolute support counts.
    pub frequent: Vec<(ItemSet, u64)>,
    /// Negative-border itemsets with their absolute support counts.
    pub border: Vec<(ItemSet, u64)>,
    /// Total number of transactions mined.
    pub n: u64,
}

impl MineResult {
    /// Number of frequent itemsets.
    pub fn n_frequent(&self) -> usize {
        self.frequent.len()
    }

    /// Support count of an itemset if it is tracked (frequent or border).
    pub fn support(&self, itemset: &ItemSet) -> Option<u64> {
        self.frequent
            .iter()
            .chain(self.border.iter())
            .find(|(s, _)| s == itemset)
            .map(|&(_, c)| c)
    }
}

/// Mines `L(D, κ)` and `NB⁻(D, κ)` over the concatenation of `blocks`.
///
/// `n_items` fixes the item universe `I`; all singletons over `I` are
/// candidates at level 1, so infrequent (even absent) items enter the
/// negative border — required for BORDERS to detect items that only become
/// frequent in later blocks.
pub fn mine(blocks: &[&TxBlock], n_items: u32, minsup: MinSupport) -> MineResult {
    let n: u64 = blocks.iter().map(|b| b.len() as u64).sum();
    let thresh = minsup.count_for(n);

    let mut result = MineResult {
        frequent: Vec::new(),
        border: Vec::new(),
        n,
    };

    // Level 1: count every item with a dense array.
    let mut item_counts = vec![0u64; n_items as usize];
    for block in blocks {
        for tx in block.records() {
            for &item in tx.items() {
                item_counts[item.index()] += 1;
            }
        }
    }
    let mut current_level: Vec<(ItemSet, u64)> = Vec::new();
    for (i, &c) in item_counts.iter().enumerate() {
        let set = ItemSet::singleton(Item(i as u32));
        if c >= thresh {
            current_level.push((set, c));
        } else {
            result.border.push((set, c));
        }
    }

    // Level 2: every pair of frequent singletons, counted densely.
    let pairs = count_pairs(&current_level, blocks, n_items);
    result.frequent.append(&mut current_level);
    for (pair, count) in pairs {
        if count >= thresh {
            current_level.push((pair, count));
        } else {
            result.border.push((pair, count));
        }
    }

    // Levels k ≥ 3.
    while !current_level.is_empty() {
        let frequent_here: HashSet<ItemSet> =
            current_level.iter().map(|(s, _)| s.clone()).collect();
        let candidates = generate_candidates(
            &current_level.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>(),
            &frequent_here,
        );
        result.frequent.append(&mut current_level);
        if candidates.is_empty() {
            break;
        }
        let counts = count_with_prefix_tree(&candidates, blocks);
        for (cand, count) in candidates.into_iter().zip(counts) {
            if count >= thresh {
                current_level.push((cand, count));
            } else {
                result.border.push((cand, count));
            }
        }
    }
    result.frequent.append(&mut current_level);
    result
}

/// Counts every pair of the frequent singletons `level` (ascending) by one
/// scan, in a triangular array indexed by the singletons' ranks.
///
/// Returns the pairs in the order [`generate_candidates`] would produce
/// them over `level` — first item outer, second inner — so the frequent
/// and border lists, and every map built from them, are the ones the
/// prefix join yields. Adds the same op counters as
/// [`count_with_prefix_tree`] over those candidates.
fn count_pairs(level: &[(ItemSet, u64)], blocks: &[&TxBlock], n_items: u32) -> Vec<(ItemSet, u64)> {
    let f = level.len();
    if f < 2 {
        return Vec::new();
    }
    let items: Vec<Item> = level.iter().map(|(s, _)| s.items()[0]).collect();
    let mut rank = vec![u32::MAX; n_items as usize];
    for (r, item) in items.iter().enumerate() {
        rank[item.index()] = r as u32;
    }
    // Row `a` holds the cells (a, a+1) … (a, f−1).
    let row = |a: usize| a * (2 * f - a - 1) / 2;
    let mut counts = vec![0u64; f * (f - 1) / 2];
    obs::add(obs::Counter::CandidatesProbed, counts.len() as u64);
    let mut ranks: Vec<usize> = Vec::new();
    for block in blocks {
        obs::add(obs::Counter::TxScanned, block.len() as u64);
        for tx in block.records() {
            // Items are sorted, so the ranks come out ascending.
            ranks.clear();
            ranks.extend(
                tx.items()
                    .iter()
                    .map(|item| rank[item.index()])
                    .filter(|&r| r != u32::MAX)
                    .map(|r| r as usize),
            );
            for (i, &a) in ranks.iter().enumerate() {
                let cells = &mut counts[row(a)..];
                for &b in &ranks[i + 1..] {
                    cells[b - a - 1] += 1;
                }
            }
        }
    }
    let pairs = items
        .iter()
        .enumerate()
        .flat_map(|(a, &x)| items[a + 1..].iter().map(move |&y| ItemSet::pair(x, y)));
    let mut out = Vec::with_capacity(counts.len());
    out.extend(pairs.zip(counts));
    out
}

/// Generates level-(k+1) candidates from the level-k frequent itemsets via
/// the prefix join, pruning candidates with an infrequent k-subset.
///
/// `level` must contain k-itemsets sorted or not — the function sorts
/// internally so joins only consider prefix-sharing runs.
pub fn generate_candidates(level: &[ItemSet], frequent_k: &HashSet<ItemSet>) -> Vec<ItemSet> {
    let mut sorted: Vec<&ItemSet> = level.iter().collect();
    sorted.sort();
    let mut out = Vec::new();
    let mut run_start = 0;
    for i in 0..=sorted.len() {
        let run_ends = i == sorted.len()
            || !shares_prefix(sorted[run_start].items(), sorted[i].items());
        if run_ends {
            for a in run_start..i {
                for b in a + 1..i {
                    if let Some(cand) = sorted[a].prefix_join(sorted[b]) {
                        if cand
                            .proper_maximal_subsets()
                            .all(|s| frequent_k.contains(&s))
                        {
                            out.push(cand);
                        }
                    }
                }
            }
            run_start = i;
        }
    }
    out
}

fn shares_prefix(a: &[Item], b: &[Item]) -> bool {
    a.len() == b.len() && !a.is_empty() && a[..a.len() - 1] == b[..b.len() - 1]
}

/// Counts candidate supports by one PT-Scan over the blocks.
pub fn count_with_prefix_tree(candidates: &[ItemSet], blocks: &[&TxBlock]) -> Vec<u64> {
    obs::add(obs::Counter::CandidatesProbed, candidates.len() as u64);
    let mut tree = PrefixTree::build(candidates);
    for block in blocks {
        obs::add(obs::Counter::TxScanned, block.len() as u64);
        tree.count_block(block);
    }
    tree.into_counts()
}

/// Naive support counting by full scan — the test oracle.
pub fn naive_support(itemset: &ItemSet, blocks: &[&TxBlock]) -> u64 {
    blocks
        .iter()
        .flat_map(|b| b.records())
        .filter(|tx| tx.contains_all(itemset.items()))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{BlockId, Tid, Transaction};

    fn block(id: u64, txs: &[&[u32]]) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            txs.iter()
                .enumerate()
                .map(|(i, items)| {
                    Transaction::new(
                        Tid(id * 1000 + i as u64),
                        items.iter().copied().map(Item).collect(),
                    )
                })
                .collect(),
        )
    }

    /// The classic 4-transaction example.
    fn sample() -> TxBlock {
        block(
            1,
            &[
                &[0, 1, 2],
                &[0, 1],
                &[0, 2],
                &[1, 2],
                &[0, 1, 2, 3],
            ],
        )
    }

    #[test]
    fn mines_frequent_sets_with_supports() {
        let b = sample();
        // κ = 0.55 → threshold = ⌈2.75⌉ = 3 of 5 transactions.
        let r = mine(&[&b], 4, MinSupport::new(0.55).unwrap());
        let mut freq: Vec<(String, u64)> = r
            .frequent
            .iter()
            .map(|(s, c)| (s.to_string(), *c))
            .collect();
        freq.sort();
        assert_eq!(
            freq,
            vec![
                ("{i0 i1}".into(), 3),
                ("{i0 i2}".into(), 3),
                ("{i0}".into(), 4),
                ("{i1 i2}".into(), 3),
                ("{i1}".into(), 4),
                ("{i2}".into(), 4),
            ]
        );
        assert_eq!(r.n, 5);
    }

    #[test]
    fn border_contains_failed_candidates_and_infrequent_singletons() {
        let b = sample();
        let r = mine(&[&b], 4, MinSupport::new(0.55).unwrap());
        let mut border: Vec<(String, u64)> =
            r.border.iter().map(|(s, c)| (s.to_string(), *c)).collect();
        border.sort();
        // i3 is infrequent (support 1); {0,1,2} fails at level 3 (support 2).
        assert_eq!(
            border,
            vec![("{i0 i1 i2}".into(), 2), ("{i3}".into(), 1)]
        );
    }

    #[test]
    fn border_definition_holds() {
        // NB⁻ = infrequent sets whose proper subsets are all frequent.
        let b = sample();
        let r = mine(&[&b], 4, MinSupport::new(0.55).unwrap());
        let freq: HashSet<ItemSet> = r.frequent.iter().map(|(s, _)| s.clone()).collect();
        let thresh = MinSupport::new(0.55).unwrap().count_for(r.n);
        for (s, c) in &r.border {
            assert!(*c < thresh, "{s} in border but frequent");
            for sub in s.proper_maximal_subsets() {
                assert!(
                    sub.is_empty() || freq.contains(&sub),
                    "border member {s} has infrequent subset {sub}"
                );
            }
        }
    }

    #[test]
    fn unseen_items_enter_border_with_zero_count() {
        let b = block(1, &[&[0], &[0]]);
        let r = mine(&[&b], 3, MinSupport::new(0.5).unwrap());
        assert_eq!(r.support(&ItemSet::from_ids(&[1])), Some(0));
        assert_eq!(r.support(&ItemSet::from_ids(&[2])), Some(0));
        assert_eq!(r.support(&ItemSet::from_ids(&[0])), Some(2));
    }

    #[test]
    fn mining_across_blocks_equals_concatenation() {
        let b1 = block(1, &[&[0, 1], &[0, 2]]);
        let b2 = block(2, &[&[0, 1], &[1, 2]]);
        let merged = block(3, &[&[0, 1], &[0, 2], &[0, 1], &[1, 2]]);
        let k = MinSupport::new(0.4).unwrap();
        let split = mine(&[&b1, &b2], 3, k);
        let mono = mine(&[&merged], 3, k);
        let norm = |r: &MineResult| {
            let mut f: Vec<(String, u64)> = r
                .frequent
                .iter()
                .map(|(s, c)| (s.to_string(), *c))
                .collect();
            f.sort();
            f
        };
        assert_eq!(norm(&split), norm(&mono));
    }

    #[test]
    fn empty_dataset_yields_empty_model() {
        let r = mine(&[], 3, MinSupport::new(0.5).unwrap());
        assert!(r.frequent.is_empty());
        assert_eq!(r.border.len(), 3); // all singletons with count 0
        assert_eq!(r.n, 0);
    }

    #[test]
    fn supports_match_naive_oracle_on_random_data() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        let txs: Vec<&[u32]> = vec![];
        drop(txs);
        let raw: Vec<Vec<u32>> = (0..200)
            .map(|_| {
                let k = rng.gen_range(1..=6usize);
                (0..k).map(|_| rng.gen_range(0..12u32)).collect()
            })
            .collect();
        let slices: Vec<&[u32]> = raw.iter().map(|v| v.as_slice()).collect();
        let b = block(1, &slices);
        let r = mine(&[&b], 12, MinSupport::new(0.05).unwrap());
        for (s, c) in r.frequent.iter().chain(r.border.iter()) {
            assert_eq!(*c, naive_support(s, &[&b]), "support mismatch for {s}");
        }
    }

    #[test]
    fn generate_candidates_prunes_on_infrequent_subsets() {
        let l2: Vec<ItemSet> = vec![
            ItemSet::from_ids(&[0, 1]),
            ItemSet::from_ids(&[0, 2]),
            ItemSet::from_ids(&[1, 3]),
        ];
        let freq: HashSet<ItemSet> = l2.iter().cloned().collect();
        // {0,1}⋈{0,2} = {0,1,2} but {1,2} is not frequent → pruned.
        let cands = generate_candidates(&l2, &freq);
        assert!(cands.is_empty());

        let l2b: Vec<ItemSet> = vec![
            ItemSet::from_ids(&[0, 1]),
            ItemSet::from_ids(&[0, 2]),
            ItemSet::from_ids(&[1, 2]),
        ];
        let freqb: HashSet<ItemSet> = l2b.iter().cloned().collect();
        let cands = generate_candidates(&l2b, &freqb);
        assert_eq!(cands, vec![ItemSet::from_ids(&[0, 1, 2])]);
    }
}
