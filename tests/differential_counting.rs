//! Differential property test of the update-phase counters: PT-Scan,
//! ECUT and ECUT+ fed the *same* random block stream must maintain the
//! same model — identical frequent-itemset support counts and identical
//! negative borders, block by block. The paper treats the counters as
//! interchangeable cost/benefit trade-offs; this pins down that they
//! are interchangeable in answers, not just in spirit.

use demon::itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon::types::{Block, BlockId, Item, MinSupport, Tid, Transaction, TxBlock};
use proptest::prelude::*;
use std::collections::BTreeMap;

const UNIVERSE: u32 = 12;
const COUNTERS: [CounterKind; 3] =
    [CounterKind::PtScan, CounterKind::Ecut, CounterKind::EcutPlus];

/// A stream of small random blocks over a 12-item universe, TIDs
/// globally monotonic (the systematic-evolution contract).
fn blocks_strategy(max_blocks: usize) -> impl Strategy<Value = Vec<TxBlock>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(0..UNIVERSE, 1..6), 5..40),
        1..=max_blocks,
    )
    .prop_map(|raw_blocks| {
        let mut tid = 1u64;
        raw_blocks
            .into_iter()
            .enumerate()
            .map(|(i, txs)| {
                let records: Vec<Transaction> = txs
                    .into_iter()
                    .map(|items| {
                        let t = Transaction::new(Tid(tid), items.into_iter().map(Item).collect());
                        tid += 1;
                        t
                    })
                    .collect();
                Block::new(BlockId(i as u64 + 1), records)
            })
            .collect()
    })
}

/// Items of the churn stream: two halves of 8.
const CHURN_UNIVERSE: u32 = 16;

/// A stream of 6–10 blocks with a regime switch in the middle: items
/// 0..8 dominate the first half of the blocks and 8..16 the second, one
/// item in eight coming from the other half. The switch demotes most of
/// `L` and promotes whole levels at once — border traffic the uniform
/// streams above almost never produce.
fn churn_strategy() -> impl Strategy<Value = Vec<TxBlock>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec((0..8u32, 0..8u32), 1..6), 20..60),
        6..=10,
    )
    .prop_map(|raw_blocks| {
        let half = raw_blocks.len() / 2;
        let mut tid = 1u64;
        raw_blocks
            .into_iter()
            .enumerate()
            .map(|(i, txs)| {
                let records: Vec<Transaction> = txs
                    .into_iter()
                    .map(|items| {
                        let items = items
                            .into_iter()
                            .map(|(item, roll)| Item(item + 8 * u32::from((i >= half) != (roll == 0))))
                            .collect();
                        tid += 1;
                        Transaction::new(Tid(tid - 1), items)
                    })
                    .collect();
                Block::new(BlockId(i as u64 + 1), records)
            })
            .collect()
    })
}

fn minsup_strategy() -> impl Strategy<Value = MinSupport> {
    (0.05f64..0.5).prop_map(|k| MinSupport::new(k).unwrap())
}

fn store_of(blocks: &[TxBlock], universe: u32) -> TxStore {
    let mut store = TxStore::new(universe);
    for b in blocks {
        store.add_block(b.clone());
    }
    store
}

/// The full observable state of a maintained model: every frequent
/// itemset with its exact support count, and every border itemset with
/// its count.
fn observe(model: &FrequentItemsets) -> (Vec<(demon::types::ItemSet, u64)>, BTreeMap<demon::types::ItemSet, u64>) {
    let border: BTreeMap<_, _> = model
        .border()
        .iter()
        .map(|(set, &count)| (set.clone(), count))
        .collect();
    (model.frequent_sorted(), border)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All three counters, fed the identical stream block by block,
    /// agree on support counts and borders at *every* prefix — not just
    /// at the end.
    #[test]
    fn counters_agree_at_every_prefix(
        blocks in blocks_strategy(4),
        minsup in minsup_strategy(),
    ) {
        let store = store_of(&blocks, UNIVERSE);
        let mut models: Vec<FrequentItemsets> = COUNTERS
            .iter()
            .map(|_| FrequentItemsets::empty(minsup, UNIVERSE))
            .collect();
        for b in &blocks {
            for (model, kind) in models.iter_mut().zip(COUNTERS) {
                model.absorb_block(&store, b.id(), kind).unwrap();
            }
            let reference = observe(&models[0]);
            for (model, kind) in models.iter().zip(COUNTERS).skip(1) {
                prop_assert_eq!(
                    &observe(model),
                    &reference,
                    "{} diverged from {} after block {}",
                    kind.name(),
                    COUNTERS[0].name(),
                    b.id()
                );
            }
        }
    }

    /// The agreed-upon incremental answer is also the batch answer: the
    /// counters do not share a common bug that batch mining would expose.
    #[test]
    fn agreed_answer_equals_batch_mine(
        blocks in blocks_strategy(4),
        minsup in minsup_strategy(),
    ) {
        let store = store_of(&blocks, UNIVERSE);
        let batch = FrequentItemsets::mine_from(&store, store.block_ids(), minsup).unwrap();
        let reference = observe(&batch);
        for kind in COUNTERS {
            let mut model = FrequentItemsets::empty(minsup, UNIVERSE);
            for b in &blocks {
                model.absorb_block(&store, b.id(), kind).unwrap();
            }
            prop_assert_eq!(
                &observe(&model),
                &reference,
                "{} incremental diverged from batch",
                kind.name()
            );
            model.check_invariants(&store);
        }
    }

    /// Under churn the maintained model is the batch model at *every*
    /// prefix — frequent itemsets and negative border, with counts — and
    /// again after the oldest block is deleted. This is the case that
    /// drives the demotion prune and the k ≥ 2 extension index of the
    /// cascade together.
    #[test]
    fn churn_stream_equals_batch_mine_at_every_prefix(
        blocks in churn_strategy(),
        minsup in (0.02f64..0.3).prop_map(|k| MinSupport::new(k).unwrap()),
        kind in (0..COUNTERS.len()).prop_map(|i| COUNTERS[i]),
    ) {
        let store = store_of(&blocks, CHURN_UNIVERSE);
        let ids = store.block_ids();
        let mut model = FrequentItemsets::empty(minsup, CHURN_UNIVERSE);
        for (i, &id) in ids.iter().enumerate() {
            model.absorb_block(&store, id, kind).unwrap();
            let batch = FrequentItemsets::mine_from(&store, &ids[..=i], minsup).unwrap();
            prop_assert_eq!(
                &observe(&model),
                &observe(&batch),
                "{} diverged from batch after block {}",
                kind.name(),
                id
            );
        }
        model.remove_block(&store, ids[0], kind).unwrap();
        let batch = FrequentItemsets::mine_from(&store, &ids[1..], minsup).unwrap();
        prop_assert_eq!(
            &observe(&model),
            &observe(&batch),
            "{} diverged from batch after deleting block {}",
            kind.name(),
            ids[0]
        );
    }
}
