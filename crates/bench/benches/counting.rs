//! Criterion micro-benchmarks of the support-counting backends (the
//! machinery behind Figure 2): TID-list intersection, PT-Scan, ECUT and
//! ECUT+ on a fixed candidate set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use demon_bench::quest_block;
use demon_itemsets::counter::count_supports;
use demon_itemsets::tidlist::{intersect_all, intersect_pair};
use demon_itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon_types::{BlockId, ItemSet, MinSupport, Tid};
use std::hint::black_box;

fn bench_intersection(c: &mut Criterion) {
    let a: Vec<Tid> = (0..10_000u64).map(|i| Tid(i * 3)).collect();
    let b: Vec<Tid> = (0..10_000u64).map(|i| Tid(i * 5)).collect();
    let short: Vec<Tid> = (0..100u64).map(|i| Tid(i * 300)).collect();
    c.bench_function("intersect_pair/balanced", |bench| {
        bench.iter(|| intersect_pair(black_box(&a), black_box(&b)))
    });
    c.bench_function("intersect_pair/skewed_gallop", |bench| {
        bench.iter(|| intersect_pair(black_box(&short), black_box(&a)))
    });
    let lists: Vec<&[Tid]> = vec![&a, &b, &short];
    c.bench_function("intersect_all/3way", |bench| {
        bench.iter(|| intersect_all(black_box(&lists)))
    });
}

/// Footnote 7: the paper chose the prefix tree over the hash tree for
/// candidate counting — this measures that choice.
fn bench_prefix_vs_hash_tree(c: &mut Criterion) {
    use demon_bench::baselines::hash_tree::HashTree;
    use demon_itemsets::PrefixTree;
    let mut store = TxStore::new(1000);
    let block = quest_block("100K.20L.1I.4pats.4plen", 9, BlockId(1), 1);
    store.add_block(block);
    let model =
        FrequentItemsets::mine_from(&store, &[BlockId(1)], MinSupport::new(0.01).unwrap())
            .unwrap();
    let mut cands: Vec<ItemSet> = model
        .border()
        .keys()
        .filter(|s| s.len() >= 2)
        .take(200)
        .cloned()
        .collect();
    cands.sort();
    let block = store.block(BlockId(1)).unwrap();
    let block = &*block;

    let mut group = c.benchmark_group("candidate_structures");
    group.bench_function("prefix_tree_scan", |b| {
        b.iter(|| {
            let mut t = PrefixTree::build(black_box(&cands));
            t.count_block(black_box(block));
            t.into_counts()
        })
    });
    group.bench_function("hash_tree_scan", |b| {
        b.iter(|| {
            let mut t = HashTree::build(black_box(&cands));
            t.count_block(black_box(block));
            t.into_counts()
        })
    });
    group.finish();
}

fn bench_counters(c: &mut Criterion) {
    let mut store = TxStore::new(1000);
    let block = quest_block("250K.20L.1I.4pats.4plen", 3, BlockId(1), 1);
    store.add_block(block);
    let ids = [BlockId(1)];
    let model =
        FrequentItemsets::mine_from(&store, &ids, MinSupport::new(0.01).unwrap()).unwrap();
    let pairs = model.frequent_pairs_by_support();
    store.materialize_pairs(BlockId(1), &pairs, None);
    let mut border: Vec<ItemSet> = model.border().keys().cloned().collect();
    border.sort();
    let cands: Vec<ItemSet> = border.into_iter().take(20).collect();

    let mut group = c.benchmark_group("count_supports");
    for kind in [CounterKind::PtScan, CounterKind::Ecut, CounterKind::EcutPlus] {
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
            b.iter(|| count_supports(k, black_box(&store), &ids, black_box(&cands)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_intersection,
    bench_prefix_vs_hash_tree,
    bench_counters
);
criterion_main!(benches);
