//! A greedy binary decision tree (CART-style, Gini impurity).

use demon_types::durable::{self, FrameClass, Reader, Row};
use demon_types::{DemonError, Point, Result};
use serde::{Deserialize, Serialize};

/// A labeled training record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LabeledPoint {
    /// The feature vector.
    pub point: Point,
    /// The class label, `0..n_classes`.
    pub label: u32,
}

impl LabeledPoint {
    /// Convenience constructor.
    pub fn new(coords: Vec<f64>, label: u32) -> Self {
        LabeledPoint {
            point: Point::new(coords),
            label,
        }
    }
}

/// Row layout: the label as one `u64` word, then the coordinates.
impl Row for LabeledPoint {
    const FRAME: FrameClass = FrameClass::LABELED;
    const HEAD_WORDS: usize = 1;

    fn coords(&self) -> &[f64] {
        self.point.coords()
    }

    fn put_head(&self, buf: &mut Vec<u8>) {
        durable::put_u64(buf, u64::from(self.label));
    }

    fn read(r: &mut Reader<'_>, dim: usize) -> Result<Self> {
        let label = r.u64("label")?;
        let label = u32::try_from(label)
            .map_err(|_| DemonError::Serde(format!("label {label} overflows u32")))?;
        Ok(LabeledPoint {
            point: Point::new(r.coords(dim)?),
            label,
        })
    }
}

/// Tree-growing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Number of classes in the label domain.
    pub n_classes: u32,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes with fewer records than this.
    pub min_leaf: usize,
    /// Candidate thresholds per dimension (quantile cuts).
    pub n_thresholds: usize,
}

impl TreeParams {
    /// Reasonable defaults for `n_classes` classes.
    pub fn new(n_classes: u32) -> Self {
        TreeParams {
            n_classes,
            max_depth: 8,
            min_leaf: 4,
            n_thresholds: 16,
        }
    }
}

type NodeId = usize;

#[derive(Clone, Debug, Serialize, Deserialize)]
enum Node {
    Split {
        dim: usize,
        threshold: f64,
        /// Records with `point[dim] <= threshold` go left.
        left: NodeId,
        right: NodeId,
    },
    Leaf {
        /// Per-class record counts at this leaf.
        counts: Vec<u64>,
    },
}

/// An axis-aligned leaf region: per-dimension `(lower, upper]` bounds
/// (infinite where the path never constrained the dimension), with the
/// leaf's class distribution. This is the structural + measure component
/// FOCUS consumes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Exclusive lower bounds per dimension (`-∞` as `f64::NEG_INFINITY`).
    pub lower: Vec<f64>,
    /// Inclusive upper bounds per dimension (`+∞` as `f64::INFINITY`).
    pub upper: Vec<f64>,
    /// Per-class counts of the training records that landed here.
    pub counts: Vec<u64>,
}

impl Region {
    /// Whether `p` falls inside the region.
    pub fn contains(&self, p: &Point) -> bool {
        p.coords()
            .iter()
            .zip(self.lower.iter().zip(&self.upper))
            .all(|(&x, (&lo, &hi))| x > lo && x <= hi)
    }

    /// Total records in the region.
    pub fn n(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The majority class of the region (ties: lowest label).
    pub fn majority(&self) -> u32 {
        self.counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }
}

/// The decision-tree model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DecisionTree {
    params: TreeParams,
    dim: usize,
    nodes: Vec<Node>,
    root: NodeId,
    n_records: u64,
}

impl DecisionTree {
    /// Grows a tree over `records` (all of dimension `dim`).
    pub fn fit(records: &[LabeledPoint], dim: usize, params: TreeParams) -> Self {
        assert!(params.n_classes >= 2, "need at least two classes");
        let mut tree = DecisionTree {
            params,
            dim,
            nodes: Vec::new(),
            root: 0,
            n_records: records.len() as u64,
        };
        let idx: Vec<usize> = (0..records.len()).collect();
        tree.root = tree.grow(records, idx, 0);
        tree
    }

    /// The tree-growing parameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// Training-set size.
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    fn grow(&mut self, records: &[LabeledPoint], idx: Vec<usize>, depth: usize) -> NodeId {
        let counts = self.class_counts(records, &idx);
        let impure = counts.iter().filter(|&&c| c > 0).count() > 1;
        if depth >= self.params.max_depth || idx.len() < 2 * self.params.min_leaf || !impure {
            return self.push(Node::Leaf { counts });
        }
        match self.best_split(records, &idx, &counts) {
            None => self.push(Node::Leaf { counts }),
            Some((dim, threshold)) => {
                let (l, r): (Vec<usize>, Vec<usize>) = idx
                    .into_iter()
                    .partition(|&i| records[i].point.coords()[dim] <= threshold);
                if l.len() < self.params.min_leaf || r.len() < self.params.min_leaf {
                    return self.push(Node::Leaf { counts });
                }
                let left = self.grow(records, l, depth + 1);
                let right = self.grow(records, r, depth + 1);
                self.push(Node::Split {
                    dim,
                    threshold,
                    left,
                    right,
                })
            }
        }
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn class_counts(&self, records: &[LabeledPoint], idx: &[usize]) -> Vec<u64> {
        let mut counts = vec![0u64; self.params.n_classes as usize];
        for &i in idx {
            counts[records[i].label as usize] += 1;
        }
        counts
    }

    /// Gini impurity of a count vector.
    fn gini(counts: &[u64]) -> f64 {
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let nf = n as f64;
        1.0 - counts
            .iter()
            .map(|&c| {
                let p = c as f64 / nf;
                p * p
            })
            .sum::<f64>()
    }

    /// The `(dim, threshold)` minimizing the weighted child Gini, over
    /// quantile-candidate thresholds; `None` when no split improves.
    fn best_split(
        &self,
        records: &[LabeledPoint],
        idx: &[usize],
        parent_counts: &[u64],
    ) -> Option<(usize, f64)> {
        let parent_gini = Self::gini(parent_counts);
        let n = idx.len() as f64;
        let mut best: Option<(f64, usize, f64)> = None;
        for dim in 0..self.dim {
            let mut values: Vec<f64> = idx
                .iter()
                .map(|&i| records[i].point.coords()[dim])
                .collect();
            values.sort_by(f64::total_cmp);
            values.dedup();
            if values.len() < 2 {
                continue;
            }
            // Small nodes: try every boundary; large nodes: quantile cuts.
            let step = if values.len() <= 4 * self.params.n_thresholds {
                1
            } else {
                values.len() / (self.params.n_thresholds + 1)
            };
            for cut in (step..values.len()).step_by(step) {
                let threshold = (values[cut - 1] + values[cut]) / 2.0;
                let mut left = vec![0u64; self.params.n_classes as usize];
                let mut right = vec![0u64; self.params.n_classes as usize];
                for &i in idx {
                    if records[i].point.coords()[dim] <= threshold {
                        left[records[i].label as usize] += 1;
                    } else {
                        right[records[i].label as usize] += 1;
                    }
                }
                let (nl, nr) = (
                    left.iter().sum::<u64>() as f64,
                    right.iter().sum::<u64>() as f64,
                );
                if nl == 0.0 || nr == 0.0 {
                    continue;
                }
                let weighted =
                    (nl / n) * Self::gini(&left) + (nr / n) * Self::gini(&right);
                if weighted < parent_gini - 1e-12
                    && best.is_none_or(|(b, _, _)| weighted < b)
                {
                    best = Some((weighted, dim, threshold));
                }
            }
        }
        best.map(|(_, d, t)| (d, t))
    }

    /// Predicts the class of a point (majority label of its leaf).
    pub fn predict(&self, p: &Point) -> u32 {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Split {
                    dim,
                    threshold,
                    left,
                    right,
                } => {
                    node = if p.coords()[*dim] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
                Node::Leaf { counts } => {
                    return counts
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                        .map(|(i, _)| i as u32)
                        .unwrap_or(0);
                }
            }
        }
    }

    /// Accuracy over a labeled set.
    pub fn accuracy(&self, records: &[LabeledPoint]) -> f64 {
        if records.is_empty() {
            return 1.0;
        }
        let hits = records
            .iter()
            .filter(|r| self.predict(&r.point) == r.label)
            .count();
        hits as f64 / records.len() as f64
    }

    /// The leaf regions — FOCUS's structural component with per-class
    /// measures. Regions partition the space.
    pub fn regions(&self) -> Vec<Region> {
        let mut out = Vec::with_capacity(self.n_leaves());
        let lower = vec![f64::NEG_INFINITY; self.dim];
        let upper = vec![f64::INFINITY; self.dim];
        self.collect_regions(self.root, lower, upper, &mut out);
        out
    }

    fn collect_regions(
        &self,
        node: NodeId,
        lower: Vec<f64>,
        upper: Vec<f64>,
        out: &mut Vec<Region>,
    ) {
        match &self.nodes[node] {
            Node::Leaf { counts } => out.push(Region {
                lower,
                upper,
                counts: counts.clone(),
            }),
            Node::Split {
                dim,
                threshold,
                left,
                right,
            } => {
                let mut lu = upper.clone();
                lu[*dim] = threshold.min(upper[*dim]);
                self.collect_regions(*left, lower.clone(), lu, out);
                let mut rl = lower;
                rl[*dim] = threshold.max(rl[*dim]);
                self.collect_regions(*right, rl, upper, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn labeled_blocks_spill_and_reload_identically() {
        use crate::LabeledBlockEntry;
        use demon_store::{BlockEntry, Spillable};
        use demon_types::{Block, BlockId, BlockInterval, Timestamp};
        let entry: LabeledBlockEntry = BlockEntry(Block::with_interval(
            BlockId(9),
            BlockInterval::new(Timestamp(5), Timestamp(6)),
            vec![
                LabeledPoint::new(vec![0.5, -1.5], 0),
                LabeledPoint::new(vec![2.0, 3.0], u32::MAX),
            ],
        ));
        let bytes = entry.encode().unwrap();
        // id | flag + interval | dim | count | 2 × (label + 2 coords).
        assert_eq!(bytes.len(), 8 + 17 + 8 + 8 + 2 * 24);
        let back = LabeledBlockEntry::decode(&bytes).unwrap();
        assert_eq!(back.0.id(), entry.0.id());
        assert_eq!(back.0.interval(), entry.0.interval());
        assert_eq!(back.0.records(), entry.0.records());
        assert_eq!(back.resident_bytes(), 64 + 2 * (40 + 16));
        assert!(LabeledBlockEntry::decode(&bytes[..bytes.len() - 1]).is_err());
        // A label wider than u32 is refused, not truncated.
        let mut wide = bytes.clone();
        wide[41 + 4] = 1;
        assert!(LabeledBlockEntry::decode(&wide).is_err());
    }

    /// Two Gaussian-ish classes separated along dimension 0.
    fn two_class_data(n_per: usize, seed: u64) -> Vec<LabeledPoint> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        for _ in 0..n_per {
            data.push(LabeledPoint::new(
                vec![rng.gen_range(-5.0..-1.0), rng.gen_range(-3.0..3.0)],
                0,
            ));
            data.push(LabeledPoint::new(
                vec![rng.gen_range(1.0..5.0), rng.gen_range(-3.0..3.0)],
                1,
            ));
        }
        data.shuffle(&mut rng);
        data
    }

    #[test]
    fn learns_linearly_separable_data() {
        let data = two_class_data(100, 1);
        let tree = DecisionTree::fit(&data, 2, TreeParams::new(2));
        // Quantile threshold candidates may miss the exact class boundary
        // by a few records; near-perfect accuracy is the contract.
        assert!(tree.accuracy(&data) >= 0.99, "accuracy {}", tree.accuracy(&data));
        assert_eq!(tree.predict(&Point::new(vec![-3.0, 0.0])), 0);
        assert_eq!(tree.predict(&Point::new(vec![3.0, 0.0])), 1);
        assert!(tree.n_leaves() >= 2);
    }

    #[test]
    fn xor_needs_depth_two() {
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let y: f64 = rng.gen_range(-1.0..1.0);
            let label = u32::from((x > 0.0) != (y > 0.0));
            data.push(LabeledPoint::new(vec![x, y], label));
        }
        let tree = DecisionTree::fit(&data, 2, TreeParams::new(2));
        assert!(tree.accuracy(&data) > 0.95, "xor accuracy {}", tree.accuracy(&data));
    }

    #[test]
    fn pure_data_yields_single_leaf() {
        let data: Vec<LabeledPoint> = (0..20)
            .map(|i| LabeledPoint::new(vec![i as f64], 1))
            .collect();
        let tree = DecisionTree::fit(&data, 1, TreeParams::new(2));
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&Point::new(vec![100.0])), 1);
    }

    #[test]
    fn max_depth_caps_growth() {
        let data = two_class_data(200, 3);
        let mut params = TreeParams::new(2);
        params.max_depth = 1;
        let tree = DecisionTree::fit(&data, 2, params);
        assert!(tree.n_leaves() <= 2);
    }

    #[test]
    fn min_leaf_prevents_sliver_splits() {
        let data = two_class_data(6, 4);
        let mut params = TreeParams::new(2);
        params.min_leaf = 100;
        let tree = DecisionTree::fit(&data, 2, params);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn regions_partition_the_space() {
        let data = two_class_data(80, 5);
        let tree = DecisionTree::fit(&data, 2, TreeParams::new(2));
        let regions = tree.regions();
        assert_eq!(regions.len(), tree.n_leaves());
        // Every training point falls in exactly one region, and the
        // region's majority equals the prediction.
        for r in &data {
            let homes: Vec<&Region> = regions.iter().filter(|g| g.contains(&r.point)).collect();
            assert_eq!(homes.len(), 1, "point in {} regions", homes.len());
            assert_eq!(homes[0].majority(), tree.predict(&r.point));
        }
        // Region counts sum to the training size.
        let total: u64 = regions.iter().map(Region::n).sum();
        assert_eq!(total, tree.n_records());
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let data = two_class_data(60, 6);
        let tree = DecisionTree::fit(&data, 2, TreeParams::new(2));
        let json = serde_json::to_string(&tree).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        for r in &data {
            assert_eq!(tree.predict(&r.point), back.predict(&r.point));
        }
    }

    #[test]
    fn three_classes_supported() {
        let mut data = Vec::new();
        for i in 0..60 {
            let x = (i % 3) as f64 * 10.0 + (i as f64 * 0.01);
            data.push(LabeledPoint::new(vec![x], (i % 3) as u32));
        }
        let tree = DecisionTree::fit(&data, 1, TreeParams::new(3));
        assert_eq!(tree.predict(&Point::new(vec![0.1])), 0);
        assert_eq!(tree.predict(&Point::new(vec![10.1])), 1);
        assert_eq!(tree.predict(&Point::new(vec![20.1])), 2);
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn rejects_single_class_config() {
        let data = vec![LabeledPoint::new(vec![0.0], 0)];
        DecisionTree::fit(&data, 1, TreeParams::new(1));
    }
}
