//! End-to-end integration tests of the frequent-itemset stack: Quest data
//! flowing through engines, cross-validated against batch mining.

use demon::core::bss::{BlockSelector, WiBss, WrBss};
use demon::core::engine::{DataSpan, DemonEngine};
use demon::core::{Gemm, ItemsetMaintainer};
use demon::datagen::{QuestGen, QuestParams};
use demon::itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon::types::{Block, BlockId, MinSupport, Tid, Transaction, TxBlock};

const N_ITEMS: u32 = 120;

fn quest_stream(n_blocks: u64, per_block: usize, seed: u64) -> Vec<TxBlock> {
    let params = QuestParams {
        n_transactions: 0,
        avg_tx_len: 6.0,
        n_items: N_ITEMS,
        n_patterns: 40,
        avg_pattern_len: 3.0,
        ..QuestParams::default()
    };
    let mut gen = QuestGen::new(params, seed);
    let mut tid = 1u64;
    (1..=n_blocks)
        .map(|id| {
            let txs: Vec<Transaction> = gen
                .take_transactions(per_block)
                .into_iter()
                .map(|t| {
                    let tx = Transaction::from_sorted(Tid(tid), t.items().to_vec());
                    tid += 1;
                    tx
                })
                .collect();
            Block::new(BlockId(id), txs)
        })
        .collect()
}

fn k(v: f64) -> MinSupport {
    MinSupport::new(v).unwrap()
}

fn assert_models_equal(a: &FrequentItemsets, b: &FrequentItemsets, ctx: &str) {
    assert_eq!(a.n_transactions(), b.n_transactions(), "{ctx}: n differs");
    assert_eq!(a.frequent(), b.frequent(), "{ctx}: frequent sets differ");
}

#[test]
fn every_counter_reaches_the_same_model() {
    let blocks = quest_stream(5, 400, 11);
    let mut reference: Option<FrequentItemsets> = None;
    for counter in [CounterKind::PtScan, CounterKind::Ecut, CounterKind::EcutPlus] {
        let mut engine = DemonEngine::new(
            ItemsetMaintainer::new(N_ITEMS, k(0.02), counter),
            DataSpan::Unrestricted(WiBss::All),
        )
        .unwrap();
        for b in blocks.clone() {
            engine.add_block(b).unwrap();
        }
        let model = engine.current_model().unwrap().clone();
        model.check_invariants(engine.maintainer().store());
        match &reference {
            None => reference = Some(model),
            Some(r) => assert_models_equal(r, &model, counter.name()),
        }
    }
}

#[test]
fn incremental_uw_equals_batch_mining() {
    let blocks = quest_stream(6, 300, 13);
    let mut engine = DemonEngine::new(
        ItemsetMaintainer::new(N_ITEMS, k(0.03), CounterKind::Ecut),
        DataSpan::Unrestricted(WiBss::All),
    )
    .unwrap();
    let mut store = TxStore::new(N_ITEMS);
    for b in blocks {
        store.add_block(b.clone());
        engine.add_block(b).unwrap();
    }
    let batch = FrequentItemsets::mine_from(&store, store.block_ids(), k(0.03)).unwrap();
    assert_models_equal(engine.current_model().unwrap(), &batch, "UW vs batch");
}

#[test]
fn gemm_sliding_window_equals_batch_mining_at_every_step() {
    let blocks = quest_stream(8, 250, 17);
    let w = 3;
    let mut gemm = Gemm::new(
        ItemsetMaintainer::new(N_ITEMS, k(0.03), CounterKind::Ecut),
        w,
        BlockSelector::all(),
    )
    .unwrap();
    let mut store = TxStore::new(N_ITEMS);
    for (i, b) in blocks.into_iter().enumerate() {
        store.add_block(b.clone());
        gemm.add_block(b).unwrap();
        let t = i as u64 + 1;
        let start = t.saturating_sub(w as u64 - 1).max(1);
        let window: Vec<BlockId> = (start..=t).map(BlockId).collect();
        let batch = FrequentItemsets::mine_from(&store, &window, k(0.03)).unwrap();
        assert_models_equal(
            gemm.current_model().unwrap(),
            &batch,
            &format!("window ending at D{t}"),
        );
    }
}

/// GEMM under a window-relative BSS equals batch mining of the blocks the
/// BSS selects. (The name predates the removal of GEMM's disk shelf.)
#[test]
fn gemm_with_window_relative_bss_and_disk_shelf() {
    let blocks = quest_stream(7, 200, 19);
    let bss = WrBss::new(vec![true, false, true, true]);
    let mut gemm = Gemm::new(
        ItemsetMaintainer::new(N_ITEMS, k(0.03), CounterKind::EcutPlus),
        4,
        BlockSelector::WindowRelative(bss.clone()),
    )
    .unwrap();

    let mut store = TxStore::new(N_ITEMS);
    for b in blocks {
        store.add_block(b.clone());
        gemm.add_block(b).unwrap();
    }
    // Window D[4,7]; BSS ⟨1011⟩ selects positions 1,3,4 → blocks 4,6,7.
    let selected = BlockSelector::WindowRelative(bss)
        .selected_in_window(BlockId(4), 4, BlockId(7));
    assert_eq!(selected, vec![BlockId(4), BlockId(6), BlockId(7)]);
    let batch = FrequentItemsets::mine_from(&store, &selected, k(0.03)).unwrap();
    assert_models_equal(gemm.current_model().unwrap(), &batch, "WR BSS");
}

#[test]
fn model_survives_serde_roundtrip_mid_stream() {
    let blocks = quest_stream(4, 300, 23);
    let maintainer = ItemsetMaintainer::new(N_ITEMS, k(0.03), CounterKind::Ecut);
    let mut engine = DemonEngine::new(maintainer, DataSpan::Unrestricted(WiBss::All)).unwrap();
    for b in blocks.iter().take(2).cloned() {
        engine.add_block(b).unwrap();
    }
    // Serialize the model, deserialize, and continue maintaining it by hand.
    let json = serde_json::to_string(engine.current_model().unwrap()).unwrap();
    let mut revived: FrequentItemsets = serde_json::from_str(&json).unwrap();
    let mut store = TxStore::new(N_ITEMS);
    for b in &blocks {
        store.add_block(b.clone());
    }
    revived
        .absorb_block(&store, BlockId(3), CounterKind::Ecut)
        .unwrap();
    revived
        .absorb_block(&store, BlockId(4), CounterKind::Ecut)
        .unwrap();
    let batch = FrequentItemsets::mine_from(&store, store.block_ids(), k(0.03)).unwrap();
    assert_models_equal(&revived, &batch, "post-serde maintenance");
}

