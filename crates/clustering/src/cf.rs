//! Cluster features: the `(N, LS, SS)` summaries at the heart of BIRCH.
//!
//! A cluster feature summarizes a set of points by its cardinality `N`,
//! its component-wise linear sum `LS`, and its scalar square sum
//! `SS = Σᵢ ‖xᵢ‖²`. The **additivity theorem** (`CF₁ + CF₂` summarizes the
//! union) is what makes sub-clusters incrementally maintainable — and is
//! exactly why BIRCH+ can suspend and resume phase 1 across blocks.

use demon_types::Point;
use serde::{Deserialize, Serialize};

/// A cluster feature `(N, LS, SS)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterFeature {
    n: u64,
    ls: Vec<f64>,
    ss: f64,
}

impl ClusterFeature {
    /// The empty feature in `dim` dimensions.
    pub fn empty(dim: usize) -> Self {
        ClusterFeature {
            n: 0,
            ls: vec![0.0; dim],
            ss: 0.0,
        }
    }

    /// The feature of a single point.
    pub fn from_point(p: &Point) -> Self {
        ClusterFeature {
            n: 1,
            ls: p.coords().to_vec(),
            ss: p.norm2(),
        }
    }

    /// Number of points summarized.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Whether the feature summarizes no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.ls.len()
    }

    /// The linear sum.
    #[inline]
    pub fn linear_sum(&self) -> &[f64] {
        &self.ls
    }

    /// Merges another feature (the additivity theorem).
    pub fn merge(&mut self, other: &ClusterFeature) {
        debug_assert_eq!(self.dim(), other.dim());
        self.n += other.n;
        for (l, o) in self.ls.iter_mut().zip(&other.ls) {
            *l += o;
        }
        self.ss += other.ss;
    }

    /// The merged feature of two summaries, non-destructively.
    pub fn merged(&self, other: &ClusterFeature) -> ClusterFeature {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// The centroid `LS / N`. Panics on the empty feature.
    pub fn centroid(&self) -> Point {
        assert!(self.n > 0, "centroid of empty cluster feature");
        Point::new(self.ls.iter().map(|l| l / self.n as f64).collect())
    }

    /// Squared Euclidean distance between the centroids of two features
    /// (BIRCH's D0 metric, squared).
    pub fn centroid_dist2(&self, other: &ClusterFeature) -> f64 {
        debug_assert!(self.n > 0 && other.n > 0);
        let (na, nb) = (self.n as f64, other.n as f64);
        self.ls
            .iter()
            .zip(&other.ls)
            .map(|(a, b)| {
                let d = a / na - b / nb;
                d * d
            })
            .sum()
    }

    /// Squared distance from the centroid to a point.
    pub fn centroid_dist2_to_point(&self, p: &Point) -> f64 {
        debug_assert!(self.n > 0);
        let n = self.n as f64;
        self.ls
            .iter()
            .zip(p.coords())
            .map(|(l, c)| {
                let d = l / n - c;
                d * d
            })
            .sum()
    }

    /// The average distance of member points from the centroid, squared:
    /// `R² = SS/N − ‖LS/N‖²` (BIRCH's radius).
    pub fn radius2(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        let centroid_norm2: f64 = self.ls.iter().map(|l| (l / n) * (l / n)).sum();
        (self.ss / n - centroid_norm2).max(0.0)
    }

    /// The average pairwise distance between member points, squared:
    /// `D² = (2·N·SS − 2·‖LS‖²) / (N·(N−1))` (BIRCH's diameter).
    pub fn diameter2(&self) -> f64 {
        if self.n <= 1 {
            return 0.0;
        }
        let n = self.n as f64;
        let ls_norm2: f64 = self.ls.iter().map(|l| l * l).sum();
        ((2.0 * n * self.ss - 2.0 * ls_norm2) / (n * (n - 1.0))).max(0.0)
    }

    /// The diameter² the union of the two features would have — the
    /// absorption test of the CF-tree insertion (merge iff the merged
    /// diameter stays within the threshold).
    pub fn merged_diameter2(&self, other: &ClusterFeature) -> f64 {
        let n = (self.n + other.n) as f64;
        if n <= 1.0 {
            return 0.0;
        }
        let ss = self.ss + other.ss;
        let ls_norm2: f64 = self
            .ls
            .iter()
            .zip(&other.ls)
            .map(|(a, b)| (a + b) * (a + b))
            .sum();
        ((2.0 * n * ss - 2.0 * ls_norm2) / (n * (n - 1.0))).max(0.0)
    }

    /// Sum of squared distances of members to the centroid — `N·R²`, the
    /// within-cluster scatter used for SSE quality metrics.
    pub fn scatter(&self) -> f64 {
        self.n as f64 * self.radius2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: &[f64]) -> Point {
        Point::new(c.to_vec())
    }

    #[test]
    fn from_point_and_centroid() {
        let cf = ClusterFeature::from_point(&p(&[1.0, 2.0]));
        assert_eq!(cf.n(), 1);
        assert_eq!(cf.centroid().coords(), &[1.0, 2.0]);
        assert_eq!(cf.ss, 5.0);
        assert_eq!(cf.radius2(), 0.0);
        assert_eq!(cf.diameter2(), 0.0);
    }

    #[test]
    fn additivity_theorem() {
        let pts = [p(&[0.0, 0.0]), p(&[2.0, 0.0]), p(&[1.0, 3.0])];
        let mut whole = ClusterFeature::empty(2);
        for x in &pts {
            whole.merge(&ClusterFeature::from_point(x));
        }
        let mut a = ClusterFeature::from_point(&pts[0]);
        a.merge(&ClusterFeature::from_point(&pts[1]));
        let b = ClusterFeature::from_point(&pts[2]);
        assert_eq!(a.merged(&b), whole);
    }

    #[test]
    fn centroid_of_merged_points() {
        let mut cf = ClusterFeature::from_point(&p(&[0.0, 0.0]));
        cf.merge(&ClusterFeature::from_point(&p(&[2.0, 4.0])));
        assert_eq!(cf.centroid().coords(), &[1.0, 2.0]);
    }

    #[test]
    fn radius_matches_hand_computation() {
        // Points 0 and 2 on a line: centroid 1, radius² = 1.
        let mut cf = ClusterFeature::from_point(&p(&[0.0]));
        cf.merge(&ClusterFeature::from_point(&p(&[2.0])));
        assert!((cf.radius2() - 1.0).abs() < 1e-12);
        // Diameter² = average pairwise squared distance = 4.
        assert!((cf.diameter2() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merged_diameter_equals_diameter_of_merge() {
        let mut a = ClusterFeature::from_point(&p(&[0.0, 1.0]));
        a.merge(&ClusterFeature::from_point(&p(&[1.0, 0.0])));
        let mut b = ClusterFeature::from_point(&p(&[4.0, 4.0]));
        b.merge(&ClusterFeature::from_point(&p(&[5.0, 5.0])));
        let direct = a.merged(&b).diameter2();
        assert!((a.merged_diameter2(&b) - direct).abs() < 1e-9);
    }

    #[test]
    fn centroid_distance_metrics() {
        let a = ClusterFeature::from_point(&p(&[0.0, 0.0]));
        let b = ClusterFeature::from_point(&p(&[3.0, 4.0]));
        assert!((a.centroid_dist2(&b) - 25.0).abs() < 1e-12);
        assert!((a.centroid_dist2_to_point(&p(&[3.0, 4.0])) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn scatter_is_n_times_radius2() {
        let mut cf = ClusterFeature::from_point(&p(&[0.0]));
        cf.merge(&ClusterFeature::from_point(&p(&[2.0])));
        cf.merge(&ClusterFeature::from_point(&p(&[4.0])));
        assert!((cf.scatter() - 3.0 * cf.radius2()).abs() < 1e-12);
        // Scatter = Σ (x - mean)² = (4 + 0 + 4) = 8.
        assert!((cf.scatter() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn numerical_floor_prevents_negative_variance() {
        // Degenerate identical points can go slightly negative in floating
        // point; the accessors clamp at zero.
        let mut cf = ClusterFeature::empty(1);
        for _ in 0..1000 {
            cf.merge(&ClusterFeature::from_point(&p(&[0.1000000000000001])));
        }
        assert!(cf.radius2() >= 0.0);
        assert!(cf.diameter2() >= 0.0);
    }
}
