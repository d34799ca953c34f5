//! The BIRCH pipeline and the BIRCH+ incremental maintainer.
//!
//! **BIRCH** (baseline): scan the dataset into a CF-tree (phase 1), then
//! globally cluster the leaf entries into `K` clusters (phase 2). The
//! non-incremental baseline of Figure 8 re-runs both phases over the whole
//! database each time a block arrives.
//!
//! **BIRCH+** (paper §3.1.2): keep the phase-1 CF-tree alive across
//! blocks — absorbing block `D_{t+1}` "as if the first phase of BIRCH had
//! been suspended and is now resumed" — and re-run only the cheap phase 2
//! on the in-memory sub-clusters when a model is needed. The result is the
//! same as running BIRCH over `D[1, t+1]` from scratch, at a fraction of
//! the cost.

use crate::cf::ClusterFeature;
use crate::cftree::{CfTree, CfTreeParams};
use crate::global::{self, GlobalClustering};
use demon_types::{Point, PointBlock};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Parameters of the BIRCH pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BirchParams {
    /// CF-tree (phase 1) parameters.
    pub tree: CfTreeParams,
    /// Number of clusters requested from phase 2.
    pub k: usize,
    /// Seed for the k-means++ initialization of phase 2.
    pub seed: u64,
    /// Maximum Lloyd iterations in phase 2.
    pub kmeans_iters: usize,
}

impl BirchParams {
    /// Defaults for `dim`-dimensional data and `k` clusters.
    pub fn new(dim: usize, k: usize) -> Self {
        BirchParams {
            tree: CfTreeParams::for_dim(dim),
            k,
            seed: 0,
            kmeans_iters: 64,
        }
    }
}

/// One discovered cluster: the merged feature of its sub-clusters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cluster {
    /// Summary of all member points.
    pub cf: ClusterFeature,
}

impl Cluster {
    /// The cluster centroid.
    pub fn centroid(&self) -> Point {
        self.cf.centroid()
    }

    /// Number of member points.
    pub fn n(&self) -> u64 {
        self.cf.n()
    }
}

/// The cluster model: `K` clusters plus the sub-cluster level detail.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BirchModel {
    /// The discovered clusters.
    pub clusters: Vec<Cluster>,
    /// The phase-1 sub-cluster summaries.
    pub subclusters: Vec<ClusterFeature>,
    /// For each sub-cluster, the cluster it belongs to.
    pub assignment: Vec<usize>,
}

impl BirchModel {
    fn from_clustering(subclusters: Vec<ClusterFeature>, g: GlobalClustering) -> Self {
        BirchModel {
            clusters: g.clusters.into_iter().map(|cf| Cluster { cf }).collect(),
            subclusters,
            assignment: g.assignment,
        }
    }

    /// Number of clusters (may be below the requested `K` when the data
    /// has fewer distinct sub-clusters).
    pub fn k(&self) -> usize {
        self.clusters.len()
    }

    /// Total points summarized.
    pub fn n_points(&self) -> u64 {
        self.clusters.iter().map(Cluster::n).sum()
    }

    /// Cluster centroids.
    pub fn centroids(&self) -> Vec<Point> {
        self.clusters.iter().map(Cluster::centroid).collect()
    }

    /// Within-cluster scatter (SSE) computed from the summaries.
    pub fn sse(&self) -> f64 {
        self.clusters.iter().map(|c| c.cf.scatter()).sum()
    }

    /// Index of the cluster whose centroid is closest to `p` — the
    /// "second scan" labeling step of §3.1.2.
    pub fn assign_point(&self, p: &Point) -> usize {
        self.clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.cf.centroid_dist2_to_point(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            .expect("model has at least one cluster")
    }

    /// Labels every point of a block by nearest cluster, sharding the
    /// scan across the process-wide default thread count. Each point's
    /// label is an independent fixed-order argmin, so the labeling is
    /// bit-identical at any thread count.
    pub fn label_block(&self, block: &PointBlock) -> Vec<usize> {
        demon_types::parallel::par_map(demon_types::parallel::global(), block.records(), |p| {
            self.assign_point(p)
        })
    }
}

/// Runs phase 2 over the leaf entries of a maintained phase-1 CF-tree,
/// yielding the cluster model — the "resume BIRCH" step of §3.1.2 shared
/// by the batch pipeline, GEMM's `ClusterMaintainer`, and the serving
/// daemon's model rendering. Deterministic for a given tree and params.
pub fn phase2_model(tree: &CfTree, params: &BirchParams) -> BirchModel {
    let subclusters = tree.leaf_entries();
    let g = global::kmeans(&subclusters, params.k, params.seed, params.kmeans_iters);
    BirchModel::from_clustering(subclusters, g)
}

/// Timing breakdown of a BIRCH run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BirchStats {
    /// Time spent scanning points into the CF-tree.
    pub phase1_time: Duration,
    /// Time spent in the global clustering of leaf entries.
    pub phase2_time: Duration,
}

impl BirchStats {
    /// Total time of both phases.
    pub fn total_time(&self) -> Duration {
        self.phase1_time + self.phase2_time
    }
}

/// The non-incremental BIRCH baseline.
#[derive(Clone, Debug)]
pub struct Birch {
    params: BirchParams,
}

impl Birch {
    /// A pipeline with the given parameters.
    pub fn new(params: BirchParams) -> Self {
        Birch { params }
    }

    /// Runs both phases over `points`.
    pub fn cluster_points(&self, points: &[Point]) -> (BirchModel, BirchStats) {
        self.cluster_chunks(std::iter::once(points))
    }

    /// Runs both phases over a sequence of blocks (the "re-run everything"
    /// baseline of Figure 8).
    pub fn cluster_blocks(&self, blocks: &[&PointBlock]) -> (BirchModel, BirchStats) {
        self.cluster_chunks(blocks.iter().map(|b| b.records()))
    }

    /// Phase 1 over the points of `chunks` in order, then
    /// [`phase2_model`], each phase timed.
    fn cluster_chunks<'p>(
        &self,
        chunks: impl Iterator<Item = &'p [Point]>,
    ) -> (BirchModel, BirchStats) {
        let t0 = Instant::now();
        let mut tree = CfTree::new(self.params.tree);
        for p in chunks.flatten() {
            tree.insert_point(p);
        }
        let phase1_time = t0.elapsed();
        let t1 = Instant::now();
        let model = phase2_model(&tree, &self.params);
        let stats = BirchStats {
            phase1_time,
            phase2_time: t1.elapsed(),
        };
        (model, stats)
    }
}

/// The BIRCH+ incremental maintainer: a long-lived phase-1 CF-tree that
/// absorbs blocks as they arrive; phase 2 is re-run on demand.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BirchPlus {
    params: BirchParams,
    tree: CfTree,
}

impl BirchPlus {
    /// A fresh maintainer (no data absorbed yet).
    pub fn new(params: BirchParams) -> Self {
        BirchPlus {
            tree: CfTree::new(params.tree),
            params,
        }
    }

    /// The parameters.
    pub fn params(&self) -> &BirchParams {
        &self.params
    }

    /// The live phase-1 tree.
    pub fn tree(&self) -> &CfTree {
        &self.tree
    }

    /// Number of points absorbed so far.
    pub fn n_points(&self) -> u64 {
        self.tree.n_points()
    }

    /// Absorbs one block into the maintained tree (resumed phase 1).
    /// Returns the phase-1 time for this block — the response-time cost of
    /// BIRCH+ in Figure 8.
    pub fn absorb_block(&mut self, block: &PointBlock) -> Duration {
        let t0 = Instant::now();
        for p in block.records() {
            self.tree.insert_point(p);
        }
        t0.elapsed()
    }

    /// Runs phase 2 on the maintained sub-clusters, yielding the current
    /// cluster model and the phase-2 time.
    pub fn model(&self) -> (BirchModel, Duration) {
        let t0 = Instant::now();
        let model = phase2_model(&self.tree, &self.params);
        (model, t0.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::BlockId;
    use rand::prelude::*;

    /// Three Gaussian blobs in 2-D, deterministic.
    fn blob_points(seed: u64, n_per: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]];
        let mut pts = Vec::new();
        for c in &centers {
            for _ in 0..n_per {
                pts.push(Point::new(vec![
                    c[0] + rng.gen_range(-1.0..1.0),
                    c[1] + rng.gen_range(-1.0..1.0),
                ]));
            }
        }
        pts.shuffle(&mut rng);
        pts
    }

    fn params() -> BirchParams {
        let mut p = BirchParams::new(2, 3);
        p.tree.threshold2 = 1.0;
        p.tree.max_leaf_entries = 256;
        p
    }

    #[test]
    fn birch_recovers_blob_centers() {
        let pts = blob_points(1, 200);
        let (model, stats) = Birch::new(params()).cluster_points(&pts);
        assert_eq!(model.k(), 3);
        assert_eq!(model.n_points(), 600);
        let centroids = model.centroids();
        for expect in [[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]] {
            let target = Point::new(expect.to_vec());
            let d = centroids
                .iter()
                .map(|c| c.dist(&target))
                .fold(f64::INFINITY, f64::min);
            assert!(d < 2.0, "no centroid near {expect:?} (closest at {d})");
        }
        assert!(stats.phase1_time >= stats.phase2_time || stats.total_time() > Duration::ZERO);
    }

    #[test]
    fn birch_plus_matches_full_rerun() {
        let pts = blob_points(2, 150);
        let (b1, b2) = pts.split_at(200);
        let block1 = PointBlock::new(BlockId(1), b1.to_vec());
        let block2 = PointBlock::new(BlockId(2), b2.to_vec());

        let mut plus = BirchPlus::new(params());
        plus.absorb_block(&block1);
        plus.absorb_block(&block2);
        let (inc_model, _) = plus.model();

        let (full_model, _) = Birch::new(params()).cluster_blocks(&[&block1, &block2]);

        assert_eq!(inc_model.n_points(), full_model.n_points());
        assert_eq!(inc_model.k(), full_model.k());
        // Centroids agree up to cluster permutation and jitter.
        for c in inc_model.centroids() {
            let d = full_model
                .centroids()
                .iter()
                .map(|f| f.dist(&c))
                .fold(f64::INFINITY, f64::min);
            assert!(d < 2.0, "incremental centroid {c:?} unmatched ({d})");
        }
    }

    #[test]
    fn assign_point_picks_nearest_cluster() {
        let pts = blob_points(3, 100);
        let (model, _) = Birch::new(params()).cluster_points(&pts);
        let near_origin = model.assign_point(&Point::new(vec![0.5, -0.5]));
        assert!(model.clusters[near_origin]
            .centroid()
            .dist(&Point::new(vec![0.0, 0.0])) < 2.0);
    }

    #[test]
    fn label_block_labels_every_point() {
        let pts = blob_points(4, 50);
        let (model, _) = Birch::new(params()).cluster_points(&pts);
        let block = PointBlock::new(BlockId(1), pts.clone());
        let labels = model.label_block(&block);
        assert_eq!(labels.len(), pts.len());
        assert!(labels.iter().all(|&l| l < model.k()));
    }

    #[test]
    fn birch_plus_serde_roundtrip() {
        let mut plus = BirchPlus::new(params());
        plus.absorb_block(&PointBlock::new(BlockId(1), blob_points(5, 40)));
        let json = serde_json::to_string(&plus).unwrap();
        let back: BirchPlus = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_points(), plus.n_points());
        let (m1, _) = plus.model();
        let (m2, _) = back.model();
        assert_eq!(m1.k(), m2.k());
        assert!((m1.sse() - m2.sse()).abs() < 1e-9);
    }

    #[test]
    fn empty_maintainer_yields_empty_model() {
        let plus = BirchPlus::new(params());
        let (model, _) = plus.model();
        assert_eq!(model.k(), 0);
        assert_eq!(model.n_points(), 0);
    }

    #[test]
    fn subcluster_assignment_covers_all_subclusters() {
        let pts = blob_points(6, 80);
        let (model, _) = Birch::new(params()).cluster_points(&pts);
        assert_eq!(model.assignment.len(), model.subclusters.len());
        assert!(model.assignment.iter().all(|&a| a < model.k()));
        // Sub-cluster masses sum to the cluster masses.
        let mut mass = vec![0u64; model.k()];
        for (cf, &a) in model.subclusters.iter().zip(&model.assignment) {
            mass[a] += cf.n();
        }
        for (m, c) in mass.iter().zip(&model.clusters) {
            assert_eq!(*m, c.n());
        }
    }
}
