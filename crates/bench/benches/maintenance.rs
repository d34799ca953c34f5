//! Criterion benchmarks of BORDERS model maintenance (the machinery
//! behind Figures 4–7): absorbing a new block with each update-phase
//! counter, plus batch mining as the from-scratch baseline.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use demon_bench::{quest_block, quest_block_sized};
use demon_itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon_types::{BlockId, MinSupport};
use std::hint::black_box;

fn setup() -> (TxStore, FrequentItemsets) {
    let minsup = MinSupport::new(0.009).unwrap();
    let mut store = TxStore::new(1000);
    let first = quest_block("1M.20L.1I.4pats.4plen", 5, BlockId(1), 1);
    let first_len = first.len() as u64;
    store.add_block(first);
    let model = FrequentItemsets::mine_from(&store, &[BlockId(1)], minsup).unwrap();
    let pairs = model.frequent_pairs_by_support();
    store.materialize_pairs(BlockId(1), &pairs, None);
    let second = quest_block_sized("1M.20L.1I.8pats.4plen", 1500, 6, BlockId(2), first_len + 1);
    store.add_block(second);
    store.materialize_pairs(BlockId(2), &pairs, None);
    (store, model)
}

fn bench_absorb(c: &mut Criterion) {
    let (store, model) = setup();
    let mut group = c.benchmark_group("absorb_block");
    group.sample_size(10);
    for kind in [CounterKind::PtScan, CounterKind::Ecut, CounterKind::EcutPlus] {
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
            b.iter_batched(
                || model.clone(),
                |mut m| {
                    m.absorb_block(black_box(&store), BlockId(2), k).unwrap();
                    m
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_batch_mine(c: &mut Criterion) {
    let (store, _) = setup();
    let minsup = MinSupport::new(0.009).unwrap();
    let mut group = c.benchmark_group("mine_from_scratch");
    group.sample_size(10);
    group.bench_function("apriori_both_blocks", |b| {
        b.iter(|| {
            FrequentItemsets::mine_from(
                black_box(&store),
                &[BlockId(1), BlockId(2)],
                minsup,
            )
            .unwrap()
        })
    });
    group.finish();
}

/// One GEMM step (window of 4, all-ones BSS): register + response-time
/// update + off-line updates, sequential vs parallel.
fn bench_gemm_step(c: &mut Criterion) {
    use demon_core::bss::BlockSelector;
    use demon_core::{Gemm, ItemsetMaintainer};
    use demon_types::parallel::global;
    use demon_types::Parallelism;
    let minsup = MinSupport::new(0.01).unwrap();
    let blocks: Vec<demon_types::TxBlock> = {
        let mut tid = 1u64;
        (1..=5u64)
            .map(|id| {
                let b = quest_block_sized("1M.20L.1I.4pats.4plen", 800, id, BlockId(id), tid);
                tid += b.len() as u64;
                b
            })
            .collect()
    };
    let mut group = c.benchmark_group("gemm_step");
    group.sample_size(10);
    for parallel in [false, true] {
        group.bench_with_input(
            BenchmarkId::from_parameter(if parallel { "parallel" } else { "sequential" }),
            &parallel,
            |b, &par| {
                b.iter_batched(
                    || {
                        let maintainer = ItemsetMaintainer::new(1000, minsup, CounterKind::Ecut);
                        let mut gemm = Gemm::new(maintainer, 4, BlockSelector::all())
                            .unwrap()
                            .with_parallelism(if par { global() } else { Parallelism::serial() });
                        for blk in blocks.iter().take(4).cloned() {
                            gemm.add_block(blk).unwrap();
                        }
                        gemm
                    },
                    |mut gemm| {
                        gemm.add_block(blocks[4].clone()).unwrap();
                        gemm
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_absorb, bench_batch_mine, bench_gemm_step);
criterion_main!(benches);
