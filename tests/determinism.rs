//! Determinism under parallelism: the same block stream, processed at 1,
//! 2 and 8 threads, must produce **byte-identical** results everywhere —
//! support counts, maintained itemset models, GEMM's future-window models, FOCUS
//! deviation/significance scores and cluster labelings.
//!
//! Everything lives in one `#[test]` because some paths read the
//! process-wide default thread count (`demon::types::parallel::global`),
//! and Rust runs tests of one binary concurrently: a single test is the
//! simplest way to keep `set_global` sweeps race-free.

use demon::core::bss::BlockSelector;
use demon::core::{Gemm, ItemsetMaintainer};
use demon::datagen::{QuestGen, QuestParams};
use demon::focus::{
    bootstrap_significance_with, CompactSequenceMiner, ItemsetSimilarity, SimilarityConfig,
    SimilarityOracle,
};
use demon::itemsets::{count_supports_with, CounterKind, FrequentItemsets, TxStore};
use demon::types::parallel::set_global;
use demon::types::{Block, BlockId, ItemSet, MinSupport, Parallelism, Tid, Transaction, TxBlock};

const N_ITEMS: u32 = 120;
const THREADS: [usize; 3] = [1, 2, 8];

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

#[test]
fn pipeline_is_bit_identical_at_any_thread_count() {
    let blocks = quest_stream(4, 300, 23);
    counting_is_invariant(&blocks);
    skewed_payload_counting_is_invariant();
    gemm_models_are_invariant(&blocks);
    focus_scores_are_invariant(&blocks);
    patterns_are_invariant(&blocks);
    clustering_is_invariant();
    dbscan_is_invariant();
    obs_counters_are_invariant(&blocks);
    // Leave the process default as other code expects it.
    set_global(Parallelism::new(0));
}

/// Payload-aware sharding: a stream whose transaction lengths (and thus
/// TID-list payloads) are heavily skewed must still count bit-identically
/// at 1/2/8 threads, and the skew must actually move the weighted split
/// points away from the uniform ones (so the invariant above genuinely
/// exercises payload-proportional boundaries, not equal-count ones).
fn skewed_payload_counting_is_invariant() {
    use demon::types::parallel::{split_points, weighted_split_points};

    // Block 1: a few huge transactions. Blocks 2-4: many tiny ones.
    let mut tid = 1u64;
    let mut blocks = Vec::new();
    let huge: Vec<Transaction> = (0..20)
        .map(|i| {
            let items: Vec<_> = (0..N_ITEMS)
                .filter(|x| (x + i) % 2 == 0)
                .map(demon::types::Item)
                .collect();
            let tx = Transaction::new(Tid(tid), items);
            tid += 1;
            tx
        })
        .collect();
    blocks.push(Block::new(BlockId(1), huge));
    for id in 2..=4u64 {
        let tiny: Vec<Transaction> = (0..200)
            .map(|i| {
                let items: Vec<_> = [(i as u32 + id as u32) % N_ITEMS, (i as u32 * 7 + 1) % N_ITEMS]
                    .into_iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .map(demon::types::Item)
                    .collect();
                let tx = Transaction::new(Tid(tid), items);
                tid += 1;
                tx
            })
            .collect();
        blocks.push(Block::new(BlockId(id), tiny));
    }

    // The per-transaction weights PT-Scan shards by: hugely skewed, so
    // the weighted boundaries must differ from the uniform ones.
    let weights: Vec<u64> = blocks
        .iter()
        .flat_map(|b| b.records().iter().map(|tx| tx.len() as u64 + 1))
        .collect();
    for shards in [2usize, 8] {
        let weighted = weighted_split_points(&weights, shards);
        let uniform = split_points(weights.len(), shards);
        assert_ne!(
            weighted, uniform,
            "skewed stream should move {shards}-shard split points"
        );
        assert_eq!(weighted.first(), Some(&0));
        assert_eq!(weighted.last(), Some(&weights.len()));
    }

    let mut store = TxStore::new(N_ITEMS);
    let mut ids = Vec::new();
    for b in &blocks {
        ids.push(b.id());
        store.add_block(b.clone());
    }
    let model = FrequentItemsets::mine_from(&store, &ids, k(0.02)).unwrap();
    let pairs = model.frequent_pairs_by_support();
    for &id in &ids {
        store.materialize_pairs(id, &pairs, None);
    }
    let mut candidates: Vec<ItemSet> = model
        .border()
        .keys()
        .filter(|s| s.len() >= 2)
        .cloned()
        .collect();
    candidates.sort();
    assert!(candidates.len() >= 10, "workload too small to be meaningful");
    for kind in [CounterKind::PtScan, CounterKind::Ecut, CounterKind::EcutPlus] {
        let reference =
            count_supports_with(kind, &store, &ids, &candidates, Parallelism::serial());
        for &t in &THREADS[1..] {
            let r = count_supports_with(kind, &store, &ids, &candidates, Parallelism::new(t));
            assert_eq!(
                reference,
                r,
                "{} diverged at {t} threads on skewed payload",
                kind.name()
            );
        }
    }
}

/// Incremental DBSCAN over a sliding window — the maintained structure
/// and the served summary — is byte-identical at every thread count.
/// Maintenance is sequential by construction; this pins that no future
/// parallelization sneaks nondeterminism into the density model class.
fn dbscan_is_invariant() {
    use demon::clustering::{DbscanParams, WindowedDbscan};
    use demon::datagen::{DensityDriftGen, ShapeParams};

    let run = |threads: usize| -> (String, String) {
        set_global(Parallelism::new(threads));
        let mut gen = DensityDriftGen::switch_once(ShapeParams::new(4.0, 0.1), 41, 2, 4);
        let mut model = WindowedDbscan::new(DbscanParams::new(2, 0.9, 4));
        for _ in 0..4 {
            let block = gen.next_block(100);
            model.absorb_block(block.id(), block.records());
            while model.covered_blocks().len() > 2 {
                let oldest = model.covered_blocks()[0];
                model.shed_block(oldest);
            }
        }
        (
            serde_json::to_string(model.structure()).unwrap(),
            serde_json::to_string(&model.summary()).unwrap(),
        )
    };
    let reference = run(THREADS[0]);
    for &t in &THREADS[1..] {
        let got = run(t);
        assert_eq!(reference.0, got.0, "dbscan structure diverged at {t} threads");
        assert_eq!(reference.1, got.1, "dbscan summary diverged at {t} threads");
    }
}

/// Every obs counter totals the same at any thread count. (Histograms
/// deliberately hold the thread-dependent quantities — shard sizes,
/// region/span wall times — and are excluded from this invariant.)
fn obs_counters_are_invariant(blocks: &[TxBlock]) {
    use demon::types::obs;
    let run = |threads: usize| -> Vec<(&'static str, u64)> {
        set_global(Parallelism::new(threads));
        obs::reset();
        obs::enable();
        // A representative slice of every instrumented subsystem.
        let mut store = TxStore::new(N_ITEMS);
        let mut ids = Vec::new();
        for b in blocks {
            ids.push(b.id());
            store.add_block(b.clone());
        }
        let model = FrequentItemsets::mine_from(&store, &ids, k(0.02)).unwrap();
        let mut candidates: Vec<ItemSet> = model
            .border()
            .keys()
            .filter(|s| s.len() >= 2)
            .cloned()
            .collect();
        candidates.sort();
        for kind in [CounterKind::PtScan, CounterKind::EcutPlus] {
            let _ =
                count_supports_with(kind, &store, &ids, &candidates, Parallelism::new(threads));
        }
        let maintainer = ItemsetMaintainer::new(N_ITEMS, k(0.02), CounterKind::Ecut);
        let mut gemm = Gemm::new(maintainer, 3, BlockSelector::all())
            .unwrap()
            .with_parallelism(Parallelism::new(threads));
        for b in blocks {
            gemm.add_block(b.clone()).unwrap();
        }
        let _ = bootstrap_significance_with(
            &blocks[0],
            &blocks[1],
            N_ITEMS,
            k(0.05),
            8,
            3,
            Parallelism::new(threads),
        );
        obs::disable();
        let counters = obs::snapshot().counters;
        obs::reset();
        counters
    };
    let reference = run(THREADS[0]);
    assert!(
        reference.iter().any(|&(_, v)| v > 0),
        "recorder captured nothing"
    );
    for &t in &THREADS[1..] {
        let got = run(t);
        assert_eq!(reference, got, "obs counters diverged at {t} threads");
    }
}

/// Every counting backend returns the same `CountResult` (counts AND cost
/// accounting) at every thread count.
fn counting_is_invariant(blocks: &[TxBlock]) {
    let mut store = TxStore::new(N_ITEMS);
    let mut ids = Vec::new();
    for b in blocks {
        ids.push(b.id());
        store.add_block(b.clone());
    }
    let model = FrequentItemsets::mine_from(&store, &ids, k(0.02)).unwrap();
    let pairs = model.frequent_pairs_by_support();
    for &id in &ids {
        store.materialize_pairs(id, &pairs, None);
    }
    let mut candidates: Vec<ItemSet> = model
        .border()
        .keys()
        .filter(|s| s.len() >= 2)
        .cloned()
        .collect();
    candidates.sort();
    assert!(candidates.len() >= 10, "workload too small to be meaningful");

    for kind in [
        CounterKind::PtScan,
        CounterKind::Ecut,
        CounterKind::EcutPlus,
        CounterKind::Adaptive,
    ] {
        let reference =
            count_supports_with(kind, &store, &ids, &candidates, Parallelism::serial());
        for &t in &THREADS[1..] {
            let r = count_supports_with(kind, &store, &ids, &candidates, Parallelism::new(t));
            assert_eq!(reference, r, "{} diverged at {t} threads", kind.name());
        }
    }
}

/// GEMM's maintained models — current and every future-window slot —
/// are identical at every thread count.
fn gemm_models_are_invariant(blocks: &[TxBlock]) {
    let run = |threads: usize| -> (String, Vec<String>) {
        set_global(Parallelism::new(threads));
        let maintainer = ItemsetMaintainer::new(N_ITEMS, k(0.02), CounterKind::Ecut);
        let mut gemm = Gemm::new(maintainer, 3, BlockSelector::all())
            .unwrap()
            .with_parallelism(Parallelism::new(threads));
        for b in blocks {
            gemm.add_block(b.clone()).unwrap();
        }
        let current = serde_json::to_string(gemm.current_model().unwrap()).unwrap();
        let futures: Vec<String> = gemm
            .slot_starts()
            .into_iter()
            .map(|s| serde_json::to_string(gemm.future_model(s).unwrap()).unwrap())
            .collect();
        (current, futures)
    };

    let reference = run(THREADS[0]);
    for &t in &THREADS[1..] {
        let got = run(t);
        assert_eq!(reference.0, got.0, "current model diverged at {t} threads");
        assert_eq!(reference.1, got.1, "future models diverged at {t} threads");
    }
}

/// Bootstrap deviation and significance are bit-identical floats at every
/// thread count.
fn focus_scores_are_invariant(blocks: &[TxBlock]) {
    let (a, b) = (&blocks[0], &blocks[1]);
    let reference =
        bootstrap_significance_with(a, b, N_ITEMS, k(0.05), 16, 77, Parallelism::serial());
    for &t in &THREADS[1..] {
        let got =
            bootstrap_significance_with(a, b, N_ITEMS, k(0.05), 16, 77, Parallelism::new(t));
        assert_eq!(
            reference.0.to_bits(),
            got.0.to_bits(),
            "deviation diverged at {t} threads"
        );
        assert_eq!(
            reference.1.to_bits(),
            got.1.to_bits(),
            "significance diverged at {t} threads"
        );
    }
}

/// The compact-sequence miner — whose oracle fits models and judges
/// pairs through the parallel layer at the process default — produces
/// the same deviations and sequences at every thread count, in both
/// window modes, for itemsets and for a point class.
fn patterns_are_invariant(blocks: &[TxBlock]) {
    use demon::clustering::DbscanParams;
    use demon::datagen::{DensityDriftGen, ShapeParams};
    use demon::focus::DbscanSimilarity;

    let itemsets =
        || ItemsetSimilarity::new(N_ITEMS, k(0.05), SimilarityConfig::Threshold { alpha: 0.3 });
    let mut gen = DensityDriftGen::switch_once(ShapeParams::new(4.0, 0.1), 41, 2, 4);
    let shapes: Vec<_> = (0..4).map(|_| gen.next_block(100)).collect();
    let density = || DbscanSimilarity::new(DbscanParams::new(2, 0.9, 4), 0.3);
    for window in [None, Some(2)] {
        miner_is_invariant(blocks, window, itemsets);
        miner_is_invariant(&shapes, window, density);
    }
}

/// One miner configuration at 1/2/8 threads: after every block, the bits
/// of every live deviation and the reported sequences must agree.
fn miner_is_invariant<R: Clone, O: SimilarityOracle<R>>(
    blocks: &[Block<R>],
    window: Option<usize>,
    oracle: impl Fn() -> O,
) {
    type Prefix = (Vec<Option<u64>>, Vec<Vec<BlockId>>);
    let run = |threads: usize| -> Vec<Prefix> {
        set_global(Parallelism::new(threads));
        let mut miner = CompactSequenceMiner::with_window(oracle(), window).unwrap();
        blocks
            .iter()
            .map(|b| {
                miner.add_block(b.clone());
                let n = miner.n_blocks();
                let devs = (0..n)
                    .flat_map(|i| (0..i).map(move |j| (i, j)))
                    .map(|(i, j)| miner.deviation(i, j).map(f64::to_bits))
                    .collect();
                (devs, miner.current_sequences())
            })
            .collect()
    };
    let reference = run(THREADS[0]);
    assert!(
        reference.last().unwrap().0.iter().any(Option::is_some),
        "no live deviation was compared"
    );
    for &t in &THREADS[1..] {
        assert_eq!(
            reference,
            run(t),
            "deviations or sequences diverged at {t} threads (window {window:?})"
        );
    }
}

/// BIRCH phase 2 (parallel assignment scan) and block labeling are
/// identical at every thread count.
fn clustering_is_invariant() {
    use demon::clustering::{Birch, BirchParams};
    use demon::types::{Point, PointBlock};
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(5);
    let points: Vec<Point> = (0..400)
        .map(|i| {
            let c = f64::from(i % 3) * 25.0;
            Point::new(vec![
                c + rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ])
        })
        .collect();
    let block = PointBlock::new(BlockId(1), points.clone());
    let mut params = BirchParams::new(2, 3);
    params.tree.threshold2 = 1.0;

    let run = |threads: usize| -> (String, Vec<usize>) {
        set_global(Parallelism::new(threads));
        let (model, _) = Birch::new(params).cluster_points(&points);
        let labels = model.label_block(&block);
        (serde_json::to_string(&model).unwrap(), labels)
    };
    let reference = run(THREADS[0]);
    for &t in &THREADS[1..] {
        let got = run(t);
        assert_eq!(reference.0, got.0, "cluster model diverged at {t} threads");
        assert_eq!(reference.1, got.1, "labels diverged at {t} threads");
    }
}
