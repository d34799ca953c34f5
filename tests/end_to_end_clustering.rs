//! End-to-end integration tests of the clustering stack: cluster data
//! flowing through BIRCH+, the ClusterMaintainer, and GEMM windows.

use demon::clustering::{Birch, BirchParams, BirchPlus};
use demon::core::bss::BlockSelector;
use demon::core::{ClusterMaintainer, Gemm};
use demon::datagen::{ClusterDataGen, ClusterParams};
use demon::types::{BlockId, Point, PointBlock};

fn params(dim: usize, k: usize) -> BirchParams {
    let mut p = BirchParams::new(dim, k);
    p.tree.threshold2 = 2.0;
    p.tree.max_leaf_entries = 512;
    p
}

fn gen(k: usize, dim: usize, seed: u64) -> ClusterDataGen {
    ClusterDataGen::new(
        ClusterParams {
            n_points: 0,
            k,
            dim,
            noise_fraction: 0.02,
            sigma: 1.0,
            domain: 80.0,
        },
        seed,
    )
}

/// Each true center must have a discovered centroid nearby.
fn assert_centers_recovered(truth: &[Point], found: &[Point], tol: f64, ctx: &str) {
    for t in truth {
        let d = found
            .iter()
            .map(|c| c.dist(t))
            .fold(f64::INFINITY, f64::min);
        assert!(d < tol, "{ctx}: no centroid within {tol} of {t:?} (best {d:.2})");
    }
}

#[test]
fn birch_plus_tracks_growing_database() {
    let mut g = gen(6, 4, 5);
    let truth = g.centers().to_vec();
    let mut plus = BirchPlus::new(params(4, 6));
    for id in 1..=5u64 {
        let block = PointBlock::new(BlockId(id), g.take_points(2_000));
        plus.absorb_block(&block);
        let (model, _) = plus.model();
        assert_eq!(model.n_points(), id * 2_000);
        assert_centers_recovered(&truth, &model.centroids(), 2.5, &format!("after D{id}"));
    }
}

#[test]
fn gemm_windows_cluster_models_forget_old_regimes() {
    // The data-generating process changes after block 3: a window of 2
    // must follow the new regime, forgetting the old centers.
    let dim = 3;
    let mut old_regime = gen(3, dim, 11);
    let mut new_regime = gen(3, dim, 12);
    let old_truth = old_regime.centers().to_vec();
    let new_truth = new_regime.centers().to_vec();

    let maintainer = ClusterMaintainer::new(params(dim, 3));
    let mut gemm = Gemm::new(maintainer, 2, BlockSelector::all()).unwrap();
    for id in 1..=6u64 {
        let points = if id <= 3 {
            old_regime.take_points(1_200)
        } else {
            new_regime.take_points(1_200)
        };
        gemm.add_block(PointBlock::new(BlockId(id), points)).unwrap();
    }
    let tree = gemm.current_model().unwrap();
    assert_eq!(tree.n_points(), 2 * 1_200);
    let model = demon::clustering::phase2_model(tree, gemm.maintainer().params());
    assert_centers_recovered(&new_truth, &model.centroids(), 2.5, "new regime");
    // At least one *old* center should now be far from every centroid
    // (the regimes are random in an 80-unit cube, so overlap is unlikely).
    let forgotten = old_truth.iter().any(|t| {
        model
            .centroids()
            .iter()
            .map(|c| c.dist(t))
            .fold(f64::INFINITY, f64::min)
            > 10.0
    });
    assert!(forgotten, "window should have forgotten the old regime");
}

#[test]
fn labeling_scan_is_consistent_with_subcluster_assignment() {
    let mut g = gen(4, 3, 21);
    let block = PointBlock::new(BlockId(1), g.take_points(3_000));
    let (model, _) = Birch::new(params(3, 4)).cluster_points(block.records());
    let labels = model.label_block(&block);
    assert_eq!(labels.len(), block.len());
    // Points labeled into a cluster are closer to that centroid than to
    // any other (by construction of assign_point).
    let centroids = model.centroids();
    for (p, &l) in block.records().iter().zip(&labels).take(200) {
        let d_assigned = p.dist(&centroids[l]);
        for (j, c) in centroids.iter().enumerate() {
            assert!(
                d_assigned <= p.dist(c) + 1e-9,
                "point closer to cluster {j} than its label {l}"
            );
        }
    }
}

/// A GEMM future-window CF-tree round-trips through serde byte for byte.
#[test]
fn future_window_cf_tree_roundtrips_through_serde() {
    let dim = 2;
    let mut g = gen(3, dim, 31);
    let maintainer = ClusterMaintainer::new(params(dim, 3));
    let mut gemm = Gemm::new(maintainer, 3, BlockSelector::all()).unwrap();
    for id in 1..=5u64 {
        gemm.add_block(PointBlock::new(BlockId(id), g.take_points(800)))
            .unwrap();
    }
    // A future-window tree survives serde byte for byte and stays
    // consistent.
    let newest = gemm.future_model(BlockId(5)).unwrap();
    assert_eq!(newest.n_points(), 800);
    let json = serde_json::to_string(newest).unwrap();
    let back: demon::clustering::CfTree = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    assert_eq!(back.n_points(), 800);
    back.check_invariants();
}
