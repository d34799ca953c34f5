//! The CF-tree: BIRCH phase 1.
//!
//! A height-balanced tree of cluster features. Leaves hold sub-cluster
//! summaries; a new point descends to the closest leaf entry and is
//! absorbed there if the merged diameter stays within the threshold `T`,
//! otherwise it starts a new entry. Overflowing nodes split on the
//! farthest entry pair. When the number of sub-clusters outgrows the
//! configured capacity, the tree is **rebuilt** with a larger threshold by
//! reinserting the leaf entries (CF additivity makes this lossless at the
//! summary level).

use crate::cf::ClusterFeature;
use demon_types::{obs, Point};
use serde::{Deserialize, Serialize};

/// Tuning parameters of the CF-tree.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CfTreeParams {
    /// Maximum children of an internal node (BIRCH's `B`).
    pub branching: usize,
    /// Maximum entries in a leaf (BIRCH's `L`).
    pub leaf_capacity: usize,
    /// Initial squared absorption threshold `T²` on the merged diameter.
    /// BIRCH starts at 0 (only identical points merge) and grows it on
    /// rebuild.
    pub threshold2: f64,
    /// Rebuild the tree with a larger threshold when the number of leaf
    /// entries (sub-clusters) exceeds this bound — the stand-in for
    /// BIRCH's memory limit.
    pub max_leaf_entries: usize,
    /// Dimensionality of the data.
    pub dim: usize,
}

impl CfTreeParams {
    /// Reasonable defaults for `dim`-dimensional data.
    pub fn for_dim(dim: usize) -> Self {
        CfTreeParams {
            branching: 8,
            leaf_capacity: 16,
            threshold2: 0.0,
            max_leaf_entries: 2048,
            dim,
        }
    }
}

type NodeId = usize;

#[derive(Clone, Debug, Serialize, Deserialize)]
enum Node {
    Leaf {
        entries: Vec<ClusterFeature>,
    },
    Internal {
        /// `(subtree summary, child id)` pairs.
        children: Vec<(ClusterFeature, NodeId)>,
    },
}

/// Outcome of a recursive insertion: the node either absorbed the feature,
/// or split and handed back a new right sibling (with its summary).
enum InsertOutcome {
    Absorbed,
    Split(ClusterFeature, NodeId),
}

/// The CF-tree.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CfTree {
    params: CfTreeParams,
    nodes: Vec<Node>,
    root: NodeId,
    n_leaf_entries: usize,
    n_points: u64,
    rebuilds: usize,
}

impl CfTree {
    /// An empty tree.
    pub fn new(params: CfTreeParams) -> Self {
        CfTree {
            params,
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
            }],
            root: 0,
            n_leaf_entries: 0,
            n_points: 0,
            rebuilds: 0,
        }
    }

    /// The current parameters (the threshold grows across rebuilds).
    pub fn params(&self) -> &CfTreeParams {
        &self.params
    }

    /// Number of points absorbed so far.
    pub fn n_points(&self) -> u64 {
        self.n_points
    }

    /// Number of sub-clusters (leaf entries).
    pub fn n_subclusters(&self) -> usize {
        self.n_leaf_entries
    }

    /// How many capacity-driven rebuilds have happened.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Inserts one point (phase 1 step).
    pub fn insert_point(&mut self, p: &Point) {
        debug_assert_eq!(p.dim(), self.params.dim);
        self.insert_cf(ClusterFeature::from_point(p));
    }

    /// Inserts a pre-summarized feature (used by rebuilds, and by BIRCH+
    /// when merging trees).
    pub fn insert_cf(&mut self, cf: ClusterFeature) {
        if cf.is_empty() {
            return;
        }
        obs::incr(obs::Counter::CfInserts);
        self.n_points += cf.n();
        self.insert_cf_inner(cf);
        if self.n_leaf_entries > self.params.max_leaf_entries {
            self.rebuild();
        }
    }

    fn insert_cf_inner(&mut self, cf: ClusterFeature) {
        if let InsertOutcome::Split(new_cf, new_id) = self.insert_at(self.root, &cf) {
            // Root split: grow a new root.
            let old_root_cf = self.subtree_cf(self.root);
            let new_root = Node::Internal {
                children: vec![(old_root_cf, self.root), (new_cf, new_id)],
            };
            self.nodes.push(new_root);
            self.root = self.nodes.len() - 1;
        }
    }

    fn insert_at(&mut self, node: NodeId, cf: &ClusterFeature) -> InsertOutcome {
        // Leaf case: absorb or append, then possibly split.
        if matches!(self.nodes[node], Node::Leaf { .. }) {
            let (threshold2, capacity) = (self.params.threshold2, self.params.leaf_capacity);
            let overflow = {
                let Node::Leaf { entries } = &mut self.nodes[node] else {
                    unreachable!();
                };
                let closest = entries
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (i, e.centroid_dist2(cf)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(i, _)| i);
                if let Some(i) = closest {
                    if entries[i].merged_diameter2(cf) <= threshold2 {
                        entries[i].merge(cf);
                        return InsertOutcome::Absorbed;
                    }
                }
                entries.push(cf.clone());
                entries.len() > capacity
            };
            self.n_leaf_entries += 1;
            if overflow {
                return self.split_leaf(node);
            }
            return InsertOutcome::Absorbed;
        }

        // Internal case: descend into the closest child.
        let (best, child_id) = {
            let Node::Internal { children } = &self.nodes[node] else {
                unreachable!();
            };
            debug_assert!(!children.is_empty());
            let best = children
                .iter()
                .enumerate()
                .map(|(i, (summary, _))| (i, summary.centroid_dist2(cf)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i)
                .expect("internal node has children");
            (best, children[best].1)
        };
        match self.insert_at(child_id, cf) {
            InsertOutcome::Absorbed => {
                let Node::Internal { children } = &mut self.nodes[node] else {
                    unreachable!();
                };
                children[best].0.merge(cf);
                InsertOutcome::Absorbed
            }
            InsertOutcome::Split(sibling_cf, sibling_id) => {
                // The old child's contents changed on split: recompute its
                // summary, then link the new sibling.
                let refreshed = self.subtree_cf(child_id);
                let overflow = {
                    let Node::Internal { children } = &mut self.nodes[node] else {
                        unreachable!();
                    };
                    children[best].0 = refreshed;
                    children.push((sibling_cf, sibling_id));
                    children.len() > self.params.branching
                };
                if overflow {
                    return self.split_internal(node);
                }
                InsertOutcome::Absorbed
            }
        }
    }

    /// Splits an overflowing leaf on its farthest entry pair; the node
    /// keeps one group, the returned sibling takes the other.
    fn split_leaf(&mut self, node: NodeId) -> InsertOutcome {
        obs::incr(obs::Counter::CfSplits);
        let entries = match &mut self.nodes[node] {
            Node::Leaf { entries } => std::mem::take(entries),
            Node::Internal { .. } => unreachable!(),
        };
        let (left, right) = partition_by_farthest_pair(entries, |e| e);
        let right_cf = sum_cfs(&right, self.params.dim);
        self.nodes[node] = Node::Leaf { entries: left };
        self.nodes.push(Node::Leaf { entries: right });
        InsertOutcome::Split(right_cf, self.nodes.len() - 1)
    }

    /// Splits an overflowing internal node on its farthest child pair.
    fn split_internal(&mut self, node: NodeId) -> InsertOutcome {
        obs::incr(obs::Counter::CfSplits);
        let children = match &mut self.nodes[node] {
            Node::Internal { children } => std::mem::take(children),
            Node::Leaf { .. } => unreachable!(),
        };
        let (left, right) = partition_by_farthest_pair(children, |(cf, _)| cf);
        let right_cf = sum_cfs_iter(right.iter().map(|(cf, _)| cf), self.params.dim);
        self.nodes[node] = Node::Internal { children: left };
        self.nodes.push(Node::Internal { children: right });
        InsertOutcome::Split(right_cf, self.nodes.len() - 1)
    }

    /// Recomputes the summary of a subtree from its node (one level).
    fn subtree_cf(&self, node: NodeId) -> ClusterFeature {
        match &self.nodes[node] {
            Node::Leaf { entries } => sum_cfs(entries, self.params.dim),
            Node::Internal { children } => {
                sum_cfs_iter(children.iter().map(|(cf, _)| cf), self.params.dim)
            }
        }
    }

    /// All sub-cluster summaries, collected left-to-right.
    pub fn leaf_entries(&self) -> Vec<ClusterFeature> {
        let mut out = Vec::with_capacity(self.n_leaf_entries);
        self.collect_leaves(self.root, &mut out);
        out
    }

    fn collect_leaves(&self, node: NodeId, out: &mut Vec<ClusterFeature>) {
        match &self.nodes[node] {
            Node::Leaf { entries } => out.extend(entries.iter().cloned()),
            Node::Internal { children } => {
                for (_, child) in children {
                    self.collect_leaves(*child, out);
                }
            }
        }
    }

    /// Rebuilds the tree with a larger threshold, reinserting the leaf
    /// entries as units. Repeats (doubling the threshold) until the
    /// capacity constraint holds — guaranteed to terminate because a large
    /// enough threshold merges everything into one entry.
    fn rebuild(&mut self) {
        let mut entries = self.leaf_entries();
        let mut threshold2 = next_threshold2(&entries, self.params.threshold2);
        loop {
            self.rebuilds += 1;
            obs::incr(obs::Counter::CfRebuilds);
            let mut params = self.params;
            params.threshold2 = threshold2;
            let mut fresh = CfTree::new(params);
            for cf in &entries {
                fresh.n_points += cf.n();
                fresh.insert_cf_inner(cf.clone());
            }
            fresh.rebuilds = self.rebuilds;
            if fresh.n_leaf_entries <= self.params.max_leaf_entries {
                *self = fresh;
                return;
            }
            entries = fresh.leaf_entries();
            threshold2 = (threshold2 * 2.0).max(1e-12);
        }
    }

    /// Structural sanity check for tests: summaries match subtree contents,
    /// leaf-entry count is consistent, point count is conserved.
    pub fn check_invariants(&self) {
        let leaves = self.leaf_entries();
        assert_eq!(leaves.len(), self.n_leaf_entries, "leaf entry count");
        let total: u64 = leaves.iter().map(|e| e.n()).sum();
        assert_eq!(total, self.n_points, "point count");
        self.check_node(self.root);
    }

    fn check_node(&self, node: NodeId) {
        if let Node::Internal { children } = &self.nodes[node] {
            assert!(!children.is_empty());
            for (summary, child) in children {
                let actual = self.subtree_cf(*child);
                assert_eq!(summary.n(), actual.n(), "stale child summary (n)");
                let d2 = if summary.n() > 0 {
                    summary.centroid_dist2(&actual)
                } else {
                    0.0
                };
                assert!(d2 < 1e-6, "stale child summary (centroid)");
                self.check_node(*child);
            }
        }
    }
}

/// Sums a slice of features.
fn sum_cfs(entries: &[ClusterFeature], dim: usize) -> ClusterFeature {
    sum_cfs_iter(entries.iter(), dim)
}

fn sum_cfs_iter<'a, I: Iterator<Item = &'a ClusterFeature>>(
    iter: I,
    dim: usize,
) -> ClusterFeature {
    let mut acc = ClusterFeature::empty(dim);
    for cf in iter {
        acc.merge(cf);
    }
    acc
}

/// Splits `entries` into two groups seeded by the farthest pair (by
/// centroid distance); every entry joins the nearer seed.
fn partition_by_farthest_pair<T, F: Fn(&T) -> &ClusterFeature>(
    entries: Vec<T>,
    cf_of: F,
) -> (Vec<T>, Vec<T>) {
    debug_assert!(entries.len() >= 2);
    let (mut si, mut sj, mut best) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in i + 1..entries.len() {
            let d = cf_of(&entries[i]).centroid_dist2(cf_of(&entries[j]));
            if d > best {
                best = d;
                si = i;
                sj = j;
            }
        }
    }
    let mut left = Vec::with_capacity(entries.len() / 2 + 1);
    let mut right = Vec::with_capacity(entries.len() / 2 + 1);
    // Seed centroids, cloned before the move.
    let seed_l = cf_of(&entries[si]).clone();
    let seed_r = cf_of(&entries[sj]).clone();
    for (idx, e) in entries.into_iter().enumerate() {
        if idx == si {
            left.push(e);
        } else if idx == sj {
            right.push(e);
        } else {
            let dl = seed_l.centroid_dist2(cf_of(&e));
            let dr = seed_r.centroid_dist2(cf_of(&e));
            if dl <= dr {
                left.push(e);
            } else {
                right.push(e);
            }
        }
    }
    (left, right)
}

/// Picks the rebuild threshold: the median merged-diameter² of each leaf
/// entry with its nearest neighbour (sampled), but at least double the
/// current threshold so rebuilds make progress.
fn next_threshold2(entries: &[ClusterFeature], current: f64) -> f64 {
    let floor = (current * 2.0).max(1e-12);
    if entries.len() < 2 {
        return floor;
    }
    // Sample up to 64 entries; for each find the nearest neighbour among
    // the sample and record the merged diameter².
    let step = (entries.len() / 64).max(1);
    let sample: Vec<&ClusterFeature> = entries.iter().step_by(step).collect();
    let mut dists: Vec<f64> = Vec::with_capacity(sample.len());
    for (i, a) in sample.iter().enumerate() {
        let mut best = f64::INFINITY;
        for (j, b) in sample.iter().enumerate() {
            if i != j {
                best = best.min(a.merged_diameter2(b));
            }
        }
        if best.is_finite() {
            dists.push(best);
        }
    }
    if dists.is_empty() {
        return floor;
    }
    dists.sort_by(f64::total_cmp);
    let median = dists[dists.len() / 2];
    median.max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: &[f64]) -> Point {
        Point::new(c.to_vec())
    }

    fn small_params() -> CfTreeParams {
        CfTreeParams {
            branching: 3,
            leaf_capacity: 3,
            threshold2: 0.25,
            max_leaf_entries: 1000,
            dim: 2,
        }
    }

    #[test]
    fn identical_points_merge_into_one_entry() {
        let mut t = CfTree::new(small_params());
        for _ in 0..10 {
            t.insert_point(&p(&[1.0, 1.0]));
        }
        assert_eq!(t.n_subclusters(), 1);
        assert_eq!(t.n_points(), 10);
        let entries = t.leaf_entries();
        assert_eq!(entries[0].n(), 10);
        t.check_invariants();
    }

    #[test]
    fn distant_points_form_separate_entries() {
        let mut t = CfTree::new(small_params());
        t.insert_point(&p(&[0.0, 0.0]));
        t.insert_point(&p(&[10.0, 0.0]));
        t.insert_point(&p(&[0.0, 10.0]));
        assert_eq!(t.n_subclusters(), 3);
        t.check_invariants();
    }

    #[test]
    fn tree_splits_and_stays_consistent() {
        let mut t = CfTree::new(small_params());
        // A grid of well-separated points forces leaf and internal splits.
        for i in 0..10 {
            for j in 0..10 {
                t.insert_point(&p(&[i as f64 * 10.0, j as f64 * 10.0]));
            }
        }
        assert_eq!(t.n_subclusters(), 100);
        assert_eq!(t.n_points(), 100);
        assert!(matches!(t.nodes[t.root], Node::Internal { .. }), "the root split");
        t.check_invariants();
    }

    #[test]
    fn nearby_points_absorb_within_threshold() {
        let mut t = CfTree::new(small_params());
        // Jittered points around two far-apart centers.
        for i in 0..20 {
            let eps = (i % 5) as f64 * 0.02;
            t.insert_point(&p(&[0.0 + eps, 0.0]));
            t.insert_point(&p(&[100.0 + eps, 0.0]));
        }
        assert!(t.n_subclusters() <= 4, "got {}", t.n_subclusters());
        assert_eq!(t.n_points(), 40);
        t.check_invariants();
    }

    #[test]
    fn capacity_triggers_rebuild_with_larger_threshold() {
        let mut params = small_params();
        params.max_leaf_entries = 16;
        params.threshold2 = 0.0;
        let mut t = CfTree::new(params);
        // 100 distinct, moderately spaced points can't all keep their own
        // sub-cluster under a 16-entry budget.
        for i in 0..100 {
            t.insert_point(&p(&[i as f64 * 0.1, 0.0]));
        }
        assert!(t.rebuilds() > 0);
        assert!(t.n_subclusters() <= 16);
        assert_eq!(t.n_points(), 100);
        assert!(t.params().threshold2 > 0.0);
        t.check_invariants();
    }

    #[test]
    fn insert_cf_preserves_mass() {
        let mut t = CfTree::new(small_params());
        let mut cf = ClusterFeature::from_point(&p(&[1.0, 2.0]));
        cf.merge(&ClusterFeature::from_point(&p(&[1.1, 2.1])));
        t.insert_cf(cf);
        t.insert_cf(ClusterFeature::empty(2)); // no-op
        assert_eq!(t.n_points(), 2);
        assert_eq!(t.n_subclusters(), 1);
    }

    #[test]
    fn serde_roundtrip() {
        let mut t = CfTree::new(small_params());
        for i in 0..30 {
            t.insert_point(&p(&[i as f64, (i * 7 % 13) as f64]));
        }
        let json = serde_json::to_string(&t).unwrap();
        let back: CfTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_points(), t.n_points());
        assert_eq!(back.n_subclusters(), t.n_subclusters());
        assert_eq!(back.leaf_entries(), t.leaf_entries());
        back.check_invariants();
    }

    #[test]
    fn order_insensitivity_of_summaries() {
        // BIRCH is robust to input order: total mass and scatter of the
        // leaf summaries must not depend on order (exact entries may).
        let pts: Vec<Point> = (0..50)
            .map(|i| p(&[(i % 7) as f64 * 5.0, (i % 3) as f64 * 5.0]))
            .collect();
        let mut fwd = CfTree::new(small_params());
        let mut rev = CfTree::new(small_params());
        for x in &pts {
            fwd.insert_point(x);
        }
        for x in pts.iter().rev() {
            rev.insert_point(x);
        }
        assert_eq!(fwd.n_points(), rev.n_points());
        // Entry granularity may differ with order (a point can start a twin
        // entry in another subtree); the mass landing at each coordinate
        // must not. Group masses by rounded centroid.
        let mass = |t: &CfTree| {
            let mut agg = std::collections::BTreeMap::<(i64, i64), u64>::new();
            for cf in t.leaf_entries() {
                let c = cf.centroid();
                let key = (
                    (c.coords()[0] * 100.0).round() as i64,
                    (c.coords()[1] * 100.0).round() as i64,
                );
                *agg.entry(key).or_default() += cf.n();
            }
            agg
        };
        assert_eq!(mass(&fwd), mass(&rev));
    }
}
