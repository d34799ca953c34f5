//! End-to-end integration tests of the frequent-itemset stack: Quest data
//! flowing through engines, cross-validated against batch mining.

use demon::core::bss::WiBss;
use demon::core::engine::{DataSpan, DemonEngine};
use demon::core::ItemsetMaintainer;
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

