//! Minimum-support thresholds.

use crate::{DemonError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validated minimum-support threshold `κ` with `0 < κ < 1` (paper §3).
///
/// Support thresholds are *fractions* of the selected data, while the mining
/// code works with absolute counts; [`MinSupport::count_for`] performs the
/// conversion, rounding up so that `count/n ≥ κ` holds exactly for every
/// itemset that meets the absolute bound.
#[derive(Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct MinSupport(f64);

impl MinSupport {
    /// Validates `0 < κ < 1`.
    pub fn new(kappa: f64) -> Result<Self> {
        if kappa.is_finite() && 0.0 < kappa && kappa < 1.0 {
            Ok(MinSupport(kappa))
        } else {
            Err(DemonError::InvalidMinSupport(kappa))
        }
    }

    /// Smallest absolute count that is frequent in a dataset of `n` records:
    /// `⌈κ·n⌉` (with a floor of 1 so the empty dataset stays degenerate-free).
    #[inline]
    pub fn count_for(self, n: u64) -> u64 {
        let raw = (self.0 * n as f64).ceil() as u64;
        raw.max(1)
    }
}

impl fmt::Display for MinSupport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "κ={}", self.0)
    }
}

impl fmt::Debug for MinSupport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_open_interval() {
        assert!(MinSupport::new(0.01).is_ok());
        assert!(MinSupport::new(0.999).is_ok());
    }

    #[test]
    fn rejects_out_of_range() {
        for bad in [0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(MinSupport::new(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn count_for_rounds_up() {
        let k = MinSupport::new(0.01).unwrap();
        assert_eq!(k.count_for(1000), 10);
        assert_eq!(k.count_for(1001), 11); // 10.01 → 11
        assert_eq!(k.count_for(50), 1);
        assert_eq!(k.count_for(0), 1); // floor of 1
    }

    #[test]
    fn count_threshold_is_tight() {
        // Every count ≥ count_for(n) has fraction ≥ κ, and count_for(n)-1 < κ·n.
        let k = MinSupport::new(0.013).unwrap();
        for n in [1u64, 7, 100, 12345] {
            let c = k.count_for(n);
            assert!(c as f64 / n as f64 >= k.0 || n == 0);
            if c > 1 {
                assert!(((c - 1) as f64) < k.0 * n as f64);
            }
        }
    }
}
