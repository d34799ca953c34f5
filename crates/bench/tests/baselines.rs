//! Differential properties of the paper comparators in
//! [`demon_bench::baselines`]: each reaches the model the production
//! algorithm (or batch mining) reaches, on arbitrary block streams.

use demon_bench::baselines::aum::AumWindow;
use demon_bench::baselines::fup::FupModel;
use demon_core::bss::{BlockSelector, WrBss};
use demon_core::{Gemm, ItemsetMaintainer};
use demon_itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon_types::{Block, BlockId, Item, MinSupport, Tid, Transaction, TxBlock};
use proptest::prelude::*;

const UNIVERSE: u32 = 12;

/// A strategy for a stream of small random blocks over a 12-item universe.
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

fn minsup_strategy() -> impl Strategy<Value = MinSupport> {
    (0.05f64..0.5).prop_map(|k| MinSupport::new(k).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GEMM and AuM agree on the maintained model for arbitrary
    /// window-relative BSS — two very different algorithms, one result.
    #[test]
    fn gemm_and_aum_agree(
        blocks in blocks_strategy(6),
        bits in prop::collection::vec(any::<bool>(), 2..4),
        minsup in minsup_strategy(),
    ) {
        prop_assume!(bits.iter().any(|&b| b));
        let w = bits.len();
        let selector = BlockSelector::WindowRelative(WrBss::new(bits));
        let mut gemm = Gemm::new(
            ItemsetMaintainer::new(UNIVERSE, minsup, CounterKind::Ecut),
            w,
            selector.clone(),
        )
        .unwrap();
        let mut aum = AumWindow::new(
            ItemsetMaintainer::new(UNIVERSE, minsup, CounterKind::Ecut),
            w,
            selector,
        )
        .unwrap();
        for b in &blocks {
            gemm.add_block(b.clone()).unwrap();
            aum.add_block(b.clone()).unwrap();
        }
        prop_assert_eq!(
            gemm.current_model().unwrap().frequent_sorted(),
            aum.model().frequent_sorted()
        );
    }

    /// FUP and BORDERS (all counters) agree with batch mining on arbitrary
    /// block streams.
    #[test]
    fn fup_equals_borders_equals_batch(
        blocks in blocks_strategy(3),
        minsup in minsup_strategy(),
    ) {
        let mut store = TxStore::new(UNIVERSE);
        for b in &blocks {
            store.add_block(b.clone());
        }
        let batch = FrequentItemsets::mine_from(&store, store.block_ids(), minsup).unwrap();
        let mut fup = FupModel::empty(minsup, UNIVERSE);
        for b in &blocks {
            fup.absorb_block(&store, b.id()).unwrap();
        }
        prop_assert_eq!(fup.frequent(), batch.frequent());
    }
}
