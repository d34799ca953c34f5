//! BIRCH phase 2: global clustering of the sub-cluster summaries.
//!
//! Phase 1 reduces the dataset to a small in-memory set of cluster
//! features; phase 2 merges them into the user-specified `K` clusters with
//! a traditional algorithm. We provide **weighted k-means** (k-means++
//! seeding, each CF weighted by its mass) — the paper's "one's own
//! favorite clustering algorithm, e.g., K-Means" — and a centroid-linkage
//! **agglomerative** alternative used as a cross-check in tests.

use crate::cf::ClusterFeature;
use demon_types::parallel::{self, par_map};
use demon_types::{obs, Point};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Result of a global clustering pass: for each input feature, the index
/// of the cluster it was assigned to, plus the merged per-cluster features.
#[derive(Clone, Debug)]
pub struct GlobalClustering {
    /// `assignment[i]` = cluster index of input feature `i`.
    pub assignment: Vec<usize>,
    /// Merged feature of each cluster (empty clusters are dropped, so this
    /// may be shorter than the requested `k`).
    pub clusters: Vec<ClusterFeature>,
}

impl GlobalClustering {
    /// Total within-cluster scatter (SSE) of the clustering, computed from
    /// the summaries: `Σ_c N_c·R²_c`.
    pub fn sse(&self) -> f64 {
        self.clusters.iter().map(ClusterFeature::scatter).sum()
    }

    /// Cluster centroids.
    pub fn centroids(&self) -> Vec<Point> {
        self.clusters.iter().map(ClusterFeature::centroid).collect()
    }
}

/// Weighted k-means with restarts: runs [`kmeans_once`] from a few
/// distinct seedings and keeps the clustering with the lowest SSE —
/// cheap insurance against a bad k-means++ draw, since phase 2 operates
/// on the small in-memory feature set.
pub fn kmeans(
    features: &[ClusterFeature],
    k: usize,
    seed: u64,
    max_iters: usize,
) -> GlobalClustering {
    const RESTARTS: u64 = 4;
    let mut best: Option<GlobalClustering> = None;
    for r in 0..RESTARTS {
        let candidate = kmeans_once(features, k, seed.wrapping_add(r.wrapping_mul(0x9E37)), max_iters);
        let better = match &best {
            None => true,
            Some(b) => candidate.sse() < b.sse(),
        };
        if better {
            best = Some(candidate);
        }
    }
    best.expect("at least one restart ran")
}

/// One weighted k-means run over cluster features: centroids move to the
/// weighted mean of their assigned features; features are atomic (their
/// member points never separate — the tennis-ball analogy of the paper).
///
/// Deterministic in `seed`. Runs at most `max_iters` Lloyd iterations,
/// stopping early when no assignment changes.
pub fn kmeans_once(
    features: &[ClusterFeature],
    k: usize,
    seed: u64,
    max_iters: usize,
) -> GlobalClustering {
    assert!(k > 0, "k must be positive");
    let nonempty: Vec<usize> = (0..features.len())
        .filter(|&i| !features[i].is_empty())
        .collect();
    if nonempty.is_empty() {
        return GlobalClustering {
            assignment: vec![0; features.len()],
            clusters: Vec::new(),
        };
    }
    let k = k.min(nonempty.len());
    let dim = features[nonempty[0]].dim();
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ seeding over the feature centroids (weighted by mass).
    let centroids0 = seed_plus_plus(features, &nonempty, k, &mut rng);
    let mut centroids = centroids0;
    let mut assignment = vec![0usize; features.len()];

    let par = parallel::global();
    for _ in 0..max_iters {
        obs::incr(obs::Counter::Phase2Iterations);
        // Assignment scan — the hot part of phase 2. Each feature's
        // argmin is independent, so the scan shards across threads; the
        // per-feature argmin itself is a fixed-order `total_cmp` fold, so
        // the result is bit-identical at any thread count.
        let best_of = par_map(par, &nonempty, |&i| {
            let c = features[i].centroid();
            centroids
                .iter()
                .enumerate()
                .map(|(j, cen)| (j, cen.dist2(&c)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(j, _)| j)
                .expect("k >= 1")
        });
        let mut changed = false;
        for (&i, &best) in nonempty.iter().zip(&best_of) {
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // The centroid recompute below stays sequential on purpose:
        // float accumulation order must not depend on the thread count.
        // Recompute weighted centroids.
        let mut sums = vec![vec![0.0; dim]; centroids.len()];
        let mut weights = vec![0.0f64; centroids.len()];
        for &i in &nonempty {
            let j = assignment[i];
            let w = features[i].n() as f64;
            for (s, l) in sums[j].iter_mut().zip(features[i].linear_sum()) {
                *s += l; // linear sum already carries the mass
            }
            weights[j] += w;
        }
        for (j, c) in centroids.iter_mut().enumerate() {
            if weights[j] > 0.0 {
                *c = Point::new(sums[j].iter().map(|s| s / weights[j]).collect());
            }
        }
        if !changed {
            break;
        }
    }

    finalize(features, &nonempty, assignment, centroids.len(), dim)
}

fn seed_plus_plus(
    features: &[ClusterFeature],
    nonempty: &[usize],
    k: usize,
    rng: &mut StdRng,
) -> Vec<Point> {
    let mut centroids: Vec<Point> = Vec::with_capacity(k);
    let first = nonempty[rng.gen_range(0..nonempty.len())];
    centroids.push(features[first].centroid());
    while centroids.len() < k {
        // Weighted by mass × squared distance to the closest centroid.
        let weights: Vec<f64> = nonempty
            .iter()
            .map(|&i| {
                let c = features[i].centroid();
                let d2 = centroids
                    .iter()
                    .map(|cen| cen.dist2(&c))
                    .fold(f64::INFINITY, f64::min);
                d2 * features[i].n() as f64
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let next = if total <= 0.0 {
            // All mass already covered: pick any remaining feature.
            nonempty[rng.gen_range(0..nonempty.len())]
        } else {
            let mut x = rng.gen_range(0.0..total);
            let mut chosen = nonempty[nonempty.len() - 1];
            for (&i, &w) in nonempty.iter().zip(&weights) {
                if x < w {
                    chosen = i;
                    break;
                }
                x -= w;
            }
            chosen
        };
        centroids.push(features[next].centroid());
    }
    centroids
}

/// Centroid-linkage agglomerative clustering: repeatedly merge the two
/// clusters with the closest centroids until `k` remain. O(m³) — only for
/// the small in-memory feature set.
pub fn agglomerative(features: &[ClusterFeature], k: usize) -> GlobalClustering {
    assert!(k > 0, "k must be positive");
    let nonempty: Vec<usize> = (0..features.len())
        .filter(|&i| !features[i].is_empty())
        .collect();
    if nonempty.is_empty() {
        return GlobalClustering {
            assignment: vec![0; features.len()],
            clusters: Vec::new(),
        };
    }
    let dim = features[nonempty[0]].dim();
    // Each group: (merged CF, member input indices).
    let mut groups: Vec<(ClusterFeature, Vec<usize>)> = nonempty
        .iter()
        .map(|&i| (features[i].clone(), vec![i]))
        .collect();
    while groups.len() > k {
        let (mut bi, mut bj, mut best) = (0, 1, f64::INFINITY);
        for i in 0..groups.len() {
            for j in i + 1..groups.len() {
                let d = groups[i].0.centroid_dist2(&groups[j].0);
                if d < best {
                    best = d;
                    bi = i;
                    bj = j;
                }
            }
        }
        let (cf_j, members_j) = groups.swap_remove(bj);
        groups[bi].0.merge(&cf_j);
        groups[bi].1.extend(members_j);
    }
    let mut assignment = vec![0usize; features.len()];
    for (gi, (_, members)) in groups.iter().enumerate() {
        for &m in members {
            assignment[m] = gi;
        }
    }
    let order: Vec<usize> = nonempty;
    finalize(
        features,
        &order,
        assignment,
        groups.len(),
        dim,
    )
}

/// Drops empty clusters and renumbers assignments compactly.
fn finalize(
    features: &[ClusterFeature],
    nonempty: &[usize],
    assignment: Vec<usize>,
    n_clusters: usize,
    dim: usize,
) -> GlobalClustering {
    let mut merged: Vec<ClusterFeature> = vec![ClusterFeature::empty(dim); n_clusters];
    for &i in nonempty {
        merged[assignment[i]].merge(&features[i]);
    }
    let mut remap = vec![usize::MAX; n_clusters];
    let mut clusters = Vec::new();
    for (j, cf) in merged.into_iter().enumerate() {
        if !cf.is_empty() {
            remap[j] = clusters.len();
            clusters.push(cf);
        }
    }
    let assignment = assignment
        .into_iter()
        .map(|j| if remap[j] == usize::MAX { 0 } else { remap[j] })
        .collect();
    GlobalClustering {
        assignment,
        clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cf_at(coords: &[f64], n: u64) -> ClusterFeature {
        let mut cf = ClusterFeature::from_point(&Point::new(coords.to_vec()));
        for _ in 1..n {
            cf.merge(&ClusterFeature::from_point(&Point::new(coords.to_vec())));
        }
        cf
    }

    fn three_blobs() -> Vec<ClusterFeature> {
        vec![
            cf_at(&[0.0, 0.0], 10),
            cf_at(&[0.5, 0.1], 8),
            cf_at(&[10.0, 10.0], 12),
            cf_at(&[10.2, 9.8], 5),
            cf_at(&[-10.0, 10.0], 9),
            cf_at(&[-9.8, 10.3], 7),
        ]
    }

    #[test]
    fn kmeans_separates_obvious_blobs() {
        let feats = three_blobs();
        let r = kmeans(&feats, 3, 7, 50);
        assert_eq!(r.clusters.len(), 3);
        // Paired features land in the same cluster.
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[2], r.assignment[3]);
        assert_eq!(r.assignment[4], r.assignment[5]);
        // And the three pairs are distinct clusters.
        assert_ne!(r.assignment[0], r.assignment[2]);
        assert_ne!(r.assignment[0], r.assignment[4]);
        // Total mass conserved.
        let mass: u64 = r.clusters.iter().map(|c| c.n()).sum();
        assert_eq!(mass, 51);
    }

    #[test]
    fn agglomerative_agrees_on_obvious_blobs() {
        let feats = three_blobs();
        let r = agglomerative(&feats, 3);
        assert_eq!(r.clusters.len(), 3);
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[2], r.assignment[3]);
        assert_eq!(r.assignment[4], r.assignment[5]);
    }

    #[test]
    fn kmeans_deterministic_in_seed() {
        let feats = three_blobs();
        let a = kmeans(&feats, 3, 42, 50);
        let b = kmeans(&feats, 3, 42, 50);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn k_larger_than_features_is_clamped() {
        let feats = vec![cf_at(&[0.0], 3), cf_at(&[5.0], 3)];
        let r = kmeans(&feats, 10, 1, 20);
        assert!(r.clusters.len() <= 2);
        let r2 = agglomerative(&feats, 10);
        assert_eq!(r2.clusters.len(), 2);
    }

    #[test]
    fn empty_input_yields_empty_clustering() {
        let r = kmeans(&[], 3, 0, 10);
        assert!(r.clusters.is_empty());
        assert!(r.assignment.is_empty());
        let r2 = agglomerative(&[], 3);
        assert!(r2.clusters.is_empty());
    }

    #[test]
    fn empty_features_are_ignored() {
        let feats = vec![ClusterFeature::empty(1), cf_at(&[1.0], 4)];
        let r = kmeans(&feats, 1, 0, 10);
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].n(), 4);
    }

    #[test]
    fn sse_decreases_with_more_clusters() {
        let feats = three_blobs();
        let r1 = kmeans(&feats, 1, 3, 50);
        let r3 = kmeans(&feats, 3, 3, 50);
        assert!(r3.sse() < r1.sse());
    }

    #[test]
    fn centroids_match_cluster_features() {
        let feats = three_blobs();
        let r = kmeans(&feats, 3, 9, 50);
        for (cen, cf) in r.centroids().iter().zip(&r.clusters) {
            assert!(cen.dist2(&cf.centroid()) < 1e-18);
        }
    }
}
