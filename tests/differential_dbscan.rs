//! Differential property test of incremental DBSCAN: the maintained
//! structure after any sequence of block insertions and MRW-style block
//! retirements must equal a from-scratch batch DBSCAN over the points
//! currently alive — identical cluster count, identical core-point set,
//! and identical labels up to cluster renaming (border points may
//! legitimately attach to any adjacent cluster; the checker accounts
//! for that). The paper's §3.2.4 argues incremental DBSCAN is the
//! cheap path for evolving data; this pins down that cheap also means
//! *correct*, at every stream prefix, not just at the end.

use demon::clustering::{DbscanParams, WindowedDbscan};
use demon::datagen::{DensityDriftGen, Shape, ShapeParams};
use demon::types::parallel::set_global;
use demon::types::{BlockId, Parallelism, Point};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// Random 2-D point blocks on a half-unit lattice. Coarse coordinates
/// deliberately force duplicate points, dense ε-neighborhoods and
/// border ambiguity — the cases where incremental label maintenance
/// (core promotion/demotion, region regrowing after removal) can go
/// subtly wrong.
fn blocks_strategy(max_blocks: usize) -> impl Strategy<Value = Vec<Vec<Point>>> {
    prop::collection::vec(
        prop::collection::vec((-6i32..=6, -6i32..=6), 0..14),
        1..=max_blocks,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|pts| {
                pts.into_iter()
                    .map(|(x, y)| Point::new(vec![f64::from(x) * 0.5, f64::from(y) * 0.5]))
                    .collect()
            })
            .collect()
    })
}

/// ε spans "below the lattice step" to "diagonal reach" (0.35 and 0.8
/// are the sparse and dense settings of the moons/rings streams);
/// min_pts spans trivially-core to hard-to-core.
fn params_strategy() -> impl Strategy<Value = DbscanParams> {
    (0usize..5, 2usize..=4).prop_map(|(eps_idx, min_pts)| {
        let eps = [0.35f64, 0.6, 0.75, 0.8, 1.1][eps_idx];
        DbscanParams::new(2, eps, min_pts)
    })
}

/// Moons/rings blocks of 8–64 jittered points each, the shape family
/// switching per block at random: curved, non-convex density with thin
/// bridges, where a new point often sits between two arcs.
fn shape_blocks_strategy(max_blocks: usize) -> impl Strategy<Value = Vec<Vec<Point>>> {
    (
        any::<u64>(),
        prop::collection::vec(any::<bool>(), 1..=max_blocks),
        8usize..=64,
    )
        .prop_map(|(seed, rings, n)| {
            let schedule = rings
                .iter()
                .map(|&r| if r { Shape::Rings } else { Shape::Moons })
                .collect();
            let mut gen = DensityDriftGen::new(ShapeParams::new(4.0, 0.1), seed, schedule);
            rings
                .iter()
                .map(|_| gen.next_block(n).records().to_vec())
                .collect()
        })
}

/// Absorbs `blocks` in order over a `window`-block sliding window and
/// checks batch equality after every absorb and every shed.
fn slide_and_verify(
    blocks: &[Vec<Point>],
    params: DbscanParams,
    window: usize,
) -> Result<(), String> {
    let mut w = WindowedDbscan::new(params);
    for (i, pts) in blocks.iter().enumerate() {
        w.absorb_block(BlockId(i as u64 + 1), pts);
        w.structure()
            .verify_against_batch()
            .map_err(|e| format!("absorb of block {} diverged: {e}", i + 1))?;
        while w.covered_blocks().len() > window {
            let oldest = w.covered_blocks()[0];
            w.shed_block(oldest);
            w.structure()
                .verify_against_batch()
                .map_err(|e| format!("shed of block {oldest:?} diverged: {e}"))?;
        }
        let covered = w.covered_blocks();
        if covered.len() > window || covered.last() != Some(&BlockId(i as u64 + 1)) {
            return Err(format!("window after block {} covers {covered:?}", i + 1));
        }
    }
    Ok(())
}

/// The class-sweep point stream: moons ↔ rings every 16 blocks.
fn sweep_gen(seed: u64) -> DensityDriftGen {
    let schedule = (0..4096)
        .map(|i| if (i / 16) % 2 == 0 { Shape::Moons } else { Shape::Rings })
        .collect();
    DensityDriftGen::new(ShapeParams::new(4.0, 0.1), seed, schedule)
}

/// The fixed reproducer of a wrong answer incremental DBSCAN gave on the
/// class-sweep stream (seed 7, ε = 0.8, min_pts = 4, w = 4, 32 points a
/// block): after absorbing block 120 it held 7 clusters where batch
/// DBSCAN finds 8. A new *non-core* point raised two of its neighbours to
/// core; the two are not within ε of each other, so only the new border
/// point joins them, yet the insertion put both in one cluster.
#[test]
fn sweep_stream_seed_7_matches_batch_through_block_120() {
    let mut gen = sweep_gen(7);
    let blocks: Vec<Vec<Point>> = (0..120)
        .map(|_| gen.next_block(32).records().to_vec())
        .collect();
    if let Err(e) = slide_and_verify(&blocks, DbscanParams::new(2, 0.8, 4), 4) {
        panic!("{e}");
    }
}

/// A long-running window holds memory for its live points only: 600
/// ticks of the class-sweep stream (w = 4, 32 points a block) at the
/// sparse and the dense ε, checked against batch DBSCAN after every
/// absorb and every shed. After every shed the slot table holds at most
/// `2·len() + 64` slots, so compactions happen. At the first compaction
/// the model is serialized and revived, and the revived copy must stay
/// byte-identical to the original through the next 64 ticks.
fn long_stream_stays_exact_and_bounded(seed: u64) {
    for eps in [0.35, 0.8] {
        let mut gen = sweep_gen(seed);
        let mut w = WindowedDbscan::new(DbscanParams::new(2, eps, 4));
        let mut revived: Option<(u64, WindowedDbscan)> = None;
        let mut compactions = 0;
        for tick in 1..=600u64 {
            if revived.as_ref().is_some_and(|&(at, _)| tick > at + 64) {
                revived = None;
            }
            let block = gen.next_block(32);
            let slots_before = w.structure().n_slots();
            for m in std::iter::once(&mut w).chain(revived.as_mut().map(|(_, r)| r)) {
                m.absorb_block(block.id(), block.records());
            }
            let at = |step: &str| format!("seed {seed}, eps {eps}, tick {tick}, {step}");
            if let Err(e) = w.structure().verify_against_batch() {
                panic!("{}: {e}", at("absorb"));
            }
            let oldest = w.covered_blocks()[0];
            if w.covered_blocks().len() > 4 {
                for m in std::iter::once(&mut w).chain(revived.as_mut().map(|(_, r)| r)) {
                    m.shed_block(oldest);
                }
                if let Err(e) = w.structure().verify_against_batch() {
                    panic!("{}: {e}", at("shed"));
                }
                let s = w.structure();
                assert!(s.n_slots() <= 2 * s.len() + 64, "{}: {} slots", at("shed"), s.n_slots());
                if s.n_slots() < slots_before {
                    if compactions == 0 {
                        let bytes = serde_json::to_string(&w).unwrap();
                        revived = Some((tick, serde_json::from_str(&bytes).unwrap()));
                    }
                    compactions += 1;
                }
            }
            if let Some((_, r)) = &revived {
                let (got, want) = (serde_json::to_string(r), serde_json::to_string(&w));
                assert_eq!(got.unwrap(), want.unwrap(), "{}: revived model diverged", at("end"));
            }
        }
        assert!(compactions >= 10, "seed {seed}, eps {eps}: {compactions} compactions");
    }
}

#[test]
fn long_stream_seed_7_stays_exact_and_bounded() {
    long_stream_stays_exact_and_bounded(7);
}

#[test]
fn long_stream_seed_100_stays_exact_and_bounded() {
    long_stream_stays_exact_and_bounded(100);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Insert-only streams: after every absorbed block the incremental
    /// structure equals batch DBSCAN over everything seen so far.
    #[test]
    fn insert_stream_matches_batch_at_every_prefix(
        blocks in blocks_strategy(5),
        params in params_strategy(),
    ) {
        let mut w = WindowedDbscan::new(params);
        for (i, pts) in blocks.iter().enumerate() {
            w.absorb_block(BlockId(i as u64 + 1), pts);
            if let Err(e) = w.structure().verify_against_batch() {
                prop_assert!(false, "prefix {} diverged from batch: {e}", i + 1);
            }
        }
    }

    /// Sliding-window streams: the window retires old blocks by *deleting
    /// their points* (the first deletion-based model class), so this
    /// exercises remove-heavy schedules — core demotion, cluster splits,
    /// region regrowing — and demands batch equality after every single
    /// absorb and every single shed.
    #[test]
    fn sliding_window_matches_batch_at_every_prefix(
        blocks in blocks_strategy(6),
        params in params_strategy(),
        window in 1usize..=3,
    ) {
        if let Err(e) = slide_and_verify(&blocks, params, window) {
            prop_assert!(false, "{e}");
        }
    }

    /// The same sliding-window contract over moons and rings.
    #[test]
    fn shape_stream_matches_batch_at_every_prefix(
        blocks in shape_blocks_strategy(8),
        params in params_strategy(),
        window in 1usize..=4,
    ) {
        if let Err(e) = slide_and_verify(&blocks, params, window) {
            prop_assert!(false, "{e}");
        }
    }

    /// Shedding everything leaves a genuinely empty structure — no stale
    /// grid cells, no surviving cores, no phantom clusters.
    #[test]
    fn shedding_all_blocks_empties_the_model(
        blocks in blocks_strategy(4),
        params in params_strategy(),
    ) {
        let mut w = WindowedDbscan::new(params);
        for (i, pts) in blocks.iter().enumerate() {
            w.absorb_block(BlockId(i as u64 + 1), pts);
        }
        for id in w.covered_blocks() {
            w.shed_block(id);
            if let Err(e) = w.structure().verify_against_batch() {
                prop_assert!(false, "shed of block {id:?} diverged: {e}");
            }
        }
        let summary = w.summary();
        prop_assert_eq!(summary.n_points, 0);
        prop_assert_eq!(summary.n_clusters, 0);
        prop_assert_eq!(w.structure().index_entries(), 0);
    }
}

/// The maintained model — raw serialized structure AND rendered summary
/// (what `demon-serve` answers over the wire) — is byte-identical at 1,
/// 2 and 8 threads over a sliding window of planted density drift.
/// DBSCAN maintenance is sequential by design, so this pins the
/// determinism contract the serving stack relies on.
#[test]
fn windowed_model_bytes_are_thread_invariant() {
    let run = |threads: usize| -> (String, String) {
        set_global(Parallelism::new(threads));
        let mut gen = DensityDriftGen::switch_once(ShapeParams::new(4.0, 0.1), 77, 3, 5);
        let mut w = WindowedDbscan::new(DbscanParams::new(2, 0.9, 4));
        for _ in 0..5 {
            let block = gen.next_block(120);
            w.absorb_block(block.id(), block.records());
            while w.covered_blocks().len() > 3 {
                let oldest = w.covered_blocks()[0];
                w.shed_block(oldest);
            }
        }
        w.structure().check_against_batch();
        (
            serde_json::to_string(w.structure()).unwrap(),
            serde_json::to_string(&w.summary()).unwrap(),
        )
    };
    let reference = run(THREADS[0]);
    assert!(reference.1.contains("\"n_clusters\""));
    for &t in &THREADS[1..] {
        let got = run(t);
        assert_eq!(reference.0, got.0, "dbscan model bytes diverged at {t} threads");
        assert_eq!(reference.1, got.1, "dbscan summary diverged at {t} threads");
    }
    set_global(Parallelism::new(0));
}
