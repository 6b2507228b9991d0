//! Nearest-rank order statistics over measured samples.

use serde::{Deserialize, Serialize};

/// Zero-based index of the nearest-rank `p`-th percentile of `n` sorted
/// samples: the smallest sample with at least `p`% of the samples at or
/// below it.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `1..=100`.
pub fn rank(n: usize, p: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    (p * n).div_ceil(100) - 1
}

/// Samples ranked strictly above the `p`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, p: usize) -> usize {
    n - 1 - rank(n, p)
}

/// The highest whole percentile with at least ten samples beyond it —
/// the highest tail a sample of `n` can report — or `None` below 11
/// samples.
pub fn tail_percentile(n: usize) -> Option<usize> {
    (1..100)
        .rev()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Sample count, nearest-rank quartiles and 90th percentile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Summarises `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let at = |p| s[rank(s.len(), p)];
        Summary {
            n: s.len(),
            q1: at(25),
            median: at(50),
            q3: at(75),
            p90: at(90),
        }
    }

    /// The median of `samples`.
    pub fn median(samples: &[f64]) -> f64 {
        Summary::of(samples).median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3, s.p90), (5, 2.0, 3.0, 4.0, 5.0));
        // Even counts take the lower middle sample, never an average.
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.p90), (1.0, 2.0, 3.0, 4.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&hundred);
        assert_eq!((s.q1, s.median, s.q3, s.p90), (25.0, 50.0, 75.0, 90.0));
        assert_eq!(Summary::of(&[7.0]).p90, 7.0);
        assert_eq!(rank(3, 100), 2);
        assert_eq!(rank(3, 1), 0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(54), Some(81));
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
        for n in 11..400 {
            let p = tail_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10);
            assert!(p == 99 || samples_beyond(n, p + 1) < 10, "n {n} p {p}");
        }
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        Summary::of(&[]);
    }
}
