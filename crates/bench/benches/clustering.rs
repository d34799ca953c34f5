//! Criterion benchmarks of the clustering stack (the machinery behind
//! Figure 8): CF-tree insertion throughput, phase 2, and BIRCH+ vs full
//! BIRCH on a block refresh; and the density class's two kernels, the
//! DBSCAN FOCUS deviation and the deletion-based window slide.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use demon_clustering::{
    Birch, BirchParams, BirchPlus, CfTree, DbscanParams, IncrementalDbscan, WindowedDbscan,
};
use demon_datagen::{ClusterDataGen, ClusterParams, DensityDriftGen, Shape, ShapeParams};
use demon_focus::dbscan_deviation;
use demon_types::{BlockId, Point, PointBlock};
use std::hint::black_box;

fn params() -> BirchParams {
    let mut p = BirchParams::new(5, 50);
    p.tree.threshold2 = 4.0;
    p.tree.max_leaf_entries = 2048;
    p
}

fn points(n: usize, seed: u64) -> Vec<Point> {
    let mut gen = ClusterDataGen::new(
        ClusterParams {
            n_points: n,
            k: 50,
            dim: 5,
            noise_fraction: 0.02,
            sigma: 1.0,
            domain: 100.0,
        },
        seed,
    );
    gen.take_points(n)
}

fn bench_cftree_insert(c: &mut Criterion) {
    let pts = points(10_000, 1);
    c.bench_function("cftree/insert_10k_points", |b| {
        b.iter_batched(
            || CfTree::new(params().tree),
            |mut tree| {
                for p in &pts {
                    tree.insert_point(black_box(p));
                }
                tree
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_refresh(c: &mut Criterion) {
    let base = PointBlock::new(BlockId(1), points(20_000, 2));
    let new_block = PointBlock::new(BlockId(2), points(4_000, 3));
    let mut warm = BirchPlus::new(params());
    warm.absorb_block(&base);

    let mut group = c.benchmark_group("model_refresh");
    group.sample_size(10);
    group.bench_function("birch_full_rerun", |b| {
        b.iter(|| Birch::new(params()).cluster_blocks(black_box(&[&base, &new_block])))
    });
    group.bench_function("birch_plus", |b| {
        b.iter_batched(
            || warm.clone(),
            |mut plus| {
                plus.absorb_block(black_box(&new_block));
                plus.model()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// `n` blocks of 32 points, moons and rings alternating every 16 blocks,
/// clustered at ε = 0.8, MinPts = 4.
fn density_blocks(n: usize) -> Vec<PointBlock> {
    let schedule = (0..n)
        .map(|i| if (i / 16) % 2 == 0 { Shape::Moons } else { Shape::Rings })
        .collect();
    let mut gen = DensityDriftGen::new(ShapeParams::new(4.0, 0.1), 7, schedule);
    (0..n).map(|_| gen.next_block(32)).collect()
}

fn density_params() -> DbscanParams {
    DbscanParams::new(2, 0.8, 4)
}

fn bench_dbscan(c: &mut Criterion) {
    let blocks = density_blocks(600);
    let fit = |b: &PointBlock| {
        let mut m = IncrementalDbscan::with_params(density_params());
        for p in b.records() {
            m.insert(p.clone());
        }
        m
    };
    let (a, b) = (&blocks[0], &blocks[1]);
    let (da, db) = (fit(a), fit(b));
    c.bench_function("dbscan/deviation_32pts", |bench| {
        bench.iter(|| dbscan_deviation(black_box(a), &da, black_box(b), &db))
    });

    let mut group = c.benchmark_group("dbscan");
    group.sample_size(10);
    group.bench_function("window_slide_32x4", |bench| {
        bench.iter(|| {
            let mut w = WindowedDbscan::new(density_params());
            for block in &blocks {
                w.absorb_block(block.id(), black_box(block.records()));
                if w.covered_blocks().len() > 4 {
                    w.shed_block(w.covered_blocks()[0]);
                }
            }
            w
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cftree_insert, bench_refresh, bench_dbscan);
criterion_main!(benches);
