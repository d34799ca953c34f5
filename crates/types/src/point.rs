//! Numeric points for the clustering machinery.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A d-dimensional point.
///
/// BIRCH's cluster features only ever need component-wise sums and squared
/// norms, so the point type stays a plain boxed slice of `f64`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Point(Box<[f64]>);

impl Point {
    /// Builds a point from its coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        Point(coords.into_boxed_slice())
    }

    /// Coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.0
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Panics in debug builds when dimensionalities differ; the clustering
    /// code always works inside a single fixed-dimension block sequence.
    #[inline]
    pub fn dist2(&self, other: &Point) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(&self) -> f64 {
        self.0.iter().map(|a| a * a).sum()
    }
}

impl From<Vec<f64>> for Point {
    fn from(v: Vec<f64>) -> Self {
        Point::new(v)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.3}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_match_hand_computation() {
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![3.0, 4.0]);
        assert_eq!(a.dist2(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(b.norm2(), 25.0);
    }

    #[test]
    fn dist_to_self_is_zero() {
        let p = Point::new(vec![1.5, -2.5, 7.0]);
        assert_eq!(p.dist2(&p), 0.0);
    }

    #[test]
    fn debug_prints_rounded_coords() {
        let p = Point::new(vec![1.0, 2.25]);
        assert_eq!(format!("{p:?}"), "(1.000, 2.250)");
    }
}
