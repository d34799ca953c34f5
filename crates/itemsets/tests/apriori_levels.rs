//! `apriori::mine` against the generic level-wise path: the dense level-2
//! count must return the very `frequent` and `border` vectors — same sets,
//! same counts, same order — and add the same op counters as joining the
//! frequent singletons with `generate_candidates` and counting the pairs
//! with `count_with_prefix_tree`.
//!
//! The obs counters are process-global, so every test here that mines
//! holds [`OBS`] while it does.

use demon_datagen::{QuestGen, QuestParams};
use demon_itemsets::apriori::{count_with_prefix_tree, generate_candidates, mine, MineResult};
use demon_types::obs::{self, Counter};
use demon_types::{BlockId, Item, ItemSet, MinSupport, Tid, Transaction, TxBlock};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

static OBS: Mutex<()> = Mutex::new(());

fn obs_guard() -> MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Apriori with the prefix join and a PT-Scan at every level k ≥ 2.
fn mine_levelwise(blocks: &[&TxBlock], n_items: u32, minsup: MinSupport) -> MineResult {
    let n: u64 = blocks.iter().map(|b| b.len() as u64).sum();
    let thresh = minsup.count_for(n);
    let mut result = MineResult {
        frequent: Vec::new(),
        border: Vec::new(),
        n,
    };
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
    while !current_level.is_empty() {
        let level: Vec<ItemSet> = current_level.iter().map(|(s, _)| s.clone()).collect();
        let frequent_here: HashSet<ItemSet> = level.iter().cloned().collect();
        let candidates = generate_candidates(&level, &frequent_here);
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
    result
}

fn block(id: u64, txs: &[Vec<u32>]) -> TxBlock {
    TxBlock::new(
        BlockId(id),
        txs.iter()
            .enumerate()
            .map(|(i, items)| {
                Transaction::new(
                    Tid(id * 100_000 + i as u64),
                    items.iter().copied().map(Item).collect(),
                )
            })
            .collect(),
    )
}

/// One 500-transaction block of demonbench's Quest stream (1000 items).
fn quest_block() -> TxBlock {
    let params = QuestParams::parse("2M.10L.1I.2pats.4plen", 1.0).unwrap();
    let mut gen = QuestGen::new(params, 2000);
    TxBlock::new(BlockId(1), gen.take_transactions(500))
}

fn k(kappa: f64) -> MinSupport {
    MinSupport::new(kappa).unwrap()
}

/// Asserts `mine` equals the level-wise path on `blocks` and returns the
/// number of frequent singletons and the longest frequent itemset.
fn assert_same(blocks: &[&TxBlock], n_items: u32, minsup: MinSupport) -> (usize, usize) {
    let fast = mine(blocks, n_items, minsup);
    let slow = mine_levelwise(blocks, n_items, minsup);
    assert_eq!(fast.n, slow.n);
    assert_eq!(fast.frequent, slow.frequent, "frequent lists differ");
    assert_eq!(fast.border, slow.border, "border lists differ");
    let singletons = fast.frequent.iter().filter(|(s, _)| s.len() == 1).count();
    let longest = fast
        .frequent
        .iter()
        .map(|(s, _)| s.len())
        .max()
        .unwrap_or(0);
    (singletons, longest)
}

#[test]
fn dense_level_two_equals_the_levelwise_path() {
    let _guard = obs_guard();
    // 0, 1 and 2 frequent singletons (threshold 3 of 4 transactions).
    let none = block(1, &[vec![0], vec![1], vec![2], vec![3]]);
    let one = block(2, &[vec![0, 1], vec![0, 2], vec![0, 3], vec![4]]);
    let two = block(3, &[vec![0, 1, 5], vec![0, 1], vec![0, 1, 2], vec![3]]);
    for (b, want) in [(&none, 0), (&one, 1), (&two, 2)] {
        assert_eq!(assert_same(&[b], 6, k(0.75)).0, want);
    }
    // No blocks at all.
    assert_same(&[], 6, k(0.5));

    // Pairs and triples frequent, so level 3 runs on the dense level 2;
    // split over several blocks as `mine_from` concatenates them.
    let txs: Vec<Vec<u32>> = (0..60u32)
        .map(|i| match i % 5 {
            0 => vec![0, 1, 2, 3],
            1 => vec![0, 1, 2],
            2 => vec![1, 2, 3, 7],
            3 => vec![0, 2, 3, i % 11],
            _ => vec![4, i % 9],
        })
        .collect();
    let parts: Vec<TxBlock> = txs
        .chunks(17)
        .enumerate()
        .map(|(i, c)| block(i as u64 + 10, c))
        .collect();
    let refs: Vec<&TxBlock> = parts.iter().collect();
    let (_, longest) = assert_same(&refs, 12, k(0.15));
    assert!(longest >= 3, "no frequent triple: level 3 never ran");
    let whole = block(9, &txs);
    assert_eq!(
        mine(&refs, 12, k(0.15)).frequent,
        mine(&[&whole], 12, k(0.15)).frequent
    );

    // One block of the benchmark shape.
    let q = quest_block();
    let (singletons, _) = assert_same(&[&q], 1000, k(0.02));
    assert!(
        singletons > 2,
        "the Quest block has {singletons} frequent items"
    );
}

#[test]
fn dense_level_two_adds_the_levelwise_op_counters() {
    let _guard = obs_guard();
    let q = quest_block();
    let (first, second) = (
        TxBlock::new(BlockId(1), q.records()[..250].to_vec()),
        TxBlock::new(BlockId(2), q.records()[250..].to_vec()),
    );
    let blocks = [&first, &second];
    let delta = |run: &dyn Fn()| {
        let before = [Counter::CandidatesProbed, Counter::TxScanned].map(obs::counter_value);
        obs::enable();
        run();
        obs::disable();
        let after = [Counter::CandidatesProbed, Counter::TxScanned].map(obs::counter_value);
        [after[0] - before[0], after[1] - before[1]]
    };
    for kappa in [0.02, 0.05, 0.5] {
        let fast = delta(&|| drop(mine(&blocks, 1000, k(kappa))));
        let slow = delta(&|| drop(mine_levelwise(&blocks, 1000, k(kappa))));
        assert_eq!(fast, slow, "op counters differ at κ = {kappa}");
    }
    // κ = 0.02 reaches level 2, so the pairs were probed and the
    // transactions scanned at least once.
    let fast = delta(&|| drop(mine(&blocks, 1000, k(0.02))));
    assert!(fast[0] > 0 && fast[1] >= 500, "{fast:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_blocks_mine_like_the_levelwise_path(
        txs in prop::collection::vec(prop::collection::vec(0u32..14, 0..7), 0..80),
        split in 0usize..80,
        kappa in 0.05f64..0.6,
    ) {
        let _guard = obs_guard();
        let cut = split.min(txs.len());
        let (a, b) = (block(1, &txs[..cut]), block(2, &txs[cut..]));
        assert_same(&[&a, &b], 14, k(kappa));
    }
}
