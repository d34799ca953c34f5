//! Criterion benchmarks of the FOCUS deviation (the machinery behind
//! Figures 9–10): deviation between similar blocks (cheap — supports come
//! from the models) vs. dissimilar blocks (expensive — both blocks are
//! scanned), one compact-sequence update step, and the per-block model
//! fit every itemset monitor runs on an arriving block.

use criterion::{criterion_group, criterion_main, Criterion};
use demon_datagen::webtrace::{self, WebTraceConfig, WebTraceGen};
use demon_datagen::{QuestGen, QuestParams};
use demon_focus::deviation::itemset_deviation;
use demon_focus::{CompactSequenceMiner, ItemsetSimilarity, SimilarityConfig};
use demon_itemsets::FrequentItemsets;
use demon_types::{BlockId, MinSupport, Timestamp, TxBlock};
use std::hint::black_box;

fn trace_blocks() -> Vec<TxBlock> {
    let mut gen = WebTraceGen::new(WebTraceConfig {
        days: 7,
        base_rate: 400.0,
        ..WebTraceConfig::default()
    });
    let reqs = gen.generate();
    webtrace::segment_into_blocks(&reqs, 6, Timestamp::from_day_hour(0, 12))
}

fn bench_deviation(c: &mut Criterion) {
    let blocks = trace_blocks();
    let minsup = MinSupport::new(0.01).unwrap();
    let model = |b: &TxBlock| FrequentItemsets::mine_blocks(&[b], webtrace::N_ITEMS, minsup);
    // Blocks 2 and 6 are both working-day business blocks (similar);
    // block 20 lands on the weekend (dissimilar).
    let (a, b, weekend) = (&blocks[2], &blocks[6], &blocks[20]);
    let (ma, mb, mw) = (model(a), model(b), model(weekend));

    c.bench_function("deviation/similar_blocks", |bench| {
        bench.iter(|| itemset_deviation(black_box(a), &ma, black_box(b), &mb))
    });
    c.bench_function("deviation/dissimilar_blocks", |bench| {
        bench.iter(|| itemset_deviation(black_box(a), &ma, black_box(weekend), &mw))
    });
}

fn bench_compact_step(c: &mut Criterion) {
    let blocks = trace_blocks();
    let mut group = c.benchmark_group("compact_sequences");
    group.sample_size(10);
    group.bench_function("absorb_trace_week", |bench| {
        bench.iter(|| {
            let oracle = ItemsetSimilarity::new(
                webtrace::N_ITEMS,
                MinSupport::new(0.01).unwrap(),
                SimilarityConfig::Threshold { alpha: 0.25 },
            );
            let mut miner = CompactSequenceMiner::new(oracle);
            for b in blocks.iter().cloned() {
                miner.add_block(black_box(b));
            }
            miner.maximal_sequences().len()
        })
    });
    group.finish();
}

/// The FOCUS fit of one arriving block at demonbench's block shape: a
/// Quest `2M.10L.1I.2pats.4plen` block of 500 transactions over 1000
/// items, mined at κ = 0.02.
fn bench_fit(c: &mut Criterion) {
    let params = QuestParams::parse("2M.10L.1I.2pats.4plen", 1.0).unwrap();
    let block = TxBlock::new(
        BlockId(1),
        QuestGen::new(params, 2000).take_transactions(500),
    );
    let minsup = MinSupport::new(0.02).unwrap();
    c.bench_function("fit/quest_500tx", |bench| {
        bench.iter(|| FrequentItemsets::mine_blocks(&[black_box(&block)], 1000, minsup))
    });
}

criterion_group!(benches, bench_deviation, bench_compact_step, bench_fit);
criterion_main!(benches);
