//! Criterion benchmarks of the auxiliary machinery: association-rule
//! derivation from a maintained model and the incremental-DBSCAN
//! insert/delete asymmetry of §3.2.4.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use demon_bench::quest_block;
use demon_clustering::dbscan::IncrementalDbscan;
use demon_itemsets::rules::derive_rules;
use demon_itemsets::{FrequentItemsets, TxStore};
use demon_types::{BlockId, MinSupport, Point};
use std::hint::black_box;

fn bench_rules(c: &mut Criterion) {
    let mut store = TxStore::new(1000);
    store.add_block(quest_block("500K.20L.1I.4pats.4plen", 13, BlockId(1), 1));
    let model =
        FrequentItemsets::mine_from(&store, &[BlockId(1)], MinSupport::new(0.008).unwrap())
            .unwrap();
    c.bench_function("rules/derive_from_model", |b| {
        b.iter(|| derive_rules(black_box(&model), 0.3).len())
    });
}

/// The §3.2.4 asymmetry: inserting into a DBSCAN clustering is local;
/// deleting a bridge point forces re-clustering the affected cluster.
fn bench_dbscan_asymmetry(c: &mut Criterion) {
    use rand::prelude::*;
    let build = || {
        let mut rng = StdRng::seed_from_u64(7);
        let mut d = IncrementalDbscan::new(2, 1.0, 4);
        // Two dense lobes connected through a single bridge point.
        for _ in 0..500 {
            d.insert(Point::new(vec![
                rng.gen_range(-3.0..0.0),
                rng.gen_range(-1.5..1.5),
            ]));
            d.insert(Point::new(vec![
                rng.gen_range(1.6..4.6),
                rng.gen_range(-1.5..1.5),
            ]));
        }
        let (bridge, _) = d.insert(Point::new(vec![0.8, 0.0]));
        (d, bridge)
    };
    let mut group = c.benchmark_group("incremental_dbscan");
    group.sample_size(10);
    group.bench_function("insert_interior_point", |b| {
        b.iter_batched(
            || build().0,
            |mut d| d.insert(Point::new(vec![-1.5, 0.0])),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("delete_bridge_point", |b| {
        b.iter_batched(
            &build,
            |(mut d, bridge)| d.remove(bridge),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_rules, bench_dbscan_asymmetry);
criterion_main!(benches);
