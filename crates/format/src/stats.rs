//! Exponent-distribution statistics (paper Fig. 1, Table II).
//!
//! [`ExponentHistogram`] bins a tensor's BF16 exponent fields and answers
//! the questions the paper's motivation section asks: what fraction of
//! values fall inside the densest 7-exponent window (the *normal ratio* of
//! Table II), and what the occurrence distribution looks like (Fig. 1).

use crate::bf16::Bf16;
use crate::shared_exp::{best_window, ExponentWindow};
use serde::{Deserialize, Serialize};

/// Occurrence counts of the 256 possible BF16 exponent fields, plus the
/// count of exact zeros (which have no meaningful exponent).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExponentHistogram {
    counts: Vec<u64>, // 256 bins
    zeros: u64,
    total: u64,
}

impl Default for ExponentHistogram {
    fn default() -> Self {
        ExponentHistogram {
            counts: vec![0; 256],
            zeros: 0,
            total: 0,
        }
    }
}

impl ExponentHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a histogram from a tensor.
    ///
    /// Non-finite values are ignored (they cannot be encoded anyway).
    ///
    /// ```
    /// use owlp_format::{Bf16, ExponentHistogram};
    /// let t: Vec<Bf16> = (1..=8).map(|i| Bf16::from_f32(i as f32)).collect();
    /// let h = ExponentHistogram::from_values(&t);
    /// assert_eq!(h.total(), 8);
    /// assert_eq!(h.count(127), 1); // only 1.0 has exponent 127
    /// ```
    pub fn from_values(data: &[Bf16]) -> Self {
        let mut h = Self::new();
        h.extend(data.iter().copied());
        h
    }

    /// Adds one value.
    pub fn push(&mut self, x: Bf16) {
        if !x.is_finite() {
            return;
        }
        self.total += 1;
        if x.is_zero() {
            self.zeros += 1;
        } else {
            self.counts[x.exponent_bits() as usize] += 1;
        }
    }

    /// Count for one exponent bin.
    pub fn count(&self, exponent: u8) -> u64 {
        self.counts[exponent as usize]
    }

    /// Count of exact zeros.
    pub fn zeros(&self) -> u64 {
        self.zeros
    }

    /// Total finite values observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// All 256 bins (bin 0 counts subnormals; zeros are tracked separately).
    pub fn bins(&self) -> &[u64] {
        &self.counts
    }

    /// The densest window of `width` consecutive exponents.
    pub fn densest_window(&self, width: u8) -> ExponentWindow {
        let mut arr = [0u64; 256];
        arr.copy_from_slice(&self.counts);
        best_window(&arr, width)
    }

    /// Fraction of values inside `window` (zeros count as inside: they are
    /// representable on the normal datapath) — the Table II metric.
    pub fn normal_ratio(&self, window: ExponentWindow) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let inside: u64 = (window.base()..=window.last())
            .map(|e| self.counts[e as usize])
            .sum::<u64>()
            + self.zeros;
        inside as f64 / self.total as f64
    }

    /// Normal ratio under the densest canonical (7-wide) window.
    pub fn best_normal_ratio(&self) -> f64 {
        self.normal_ratio(self.densest_window(crate::NORMAL_WINDOW_WIDTH))
    }

    /// Non-empty `(exponent, count)` pairs sorted by exponent — the series
    /// plotted in paper Fig. 1.
    pub fn series(&self) -> Vec<(u8, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(e, &c)| (e as u8, c))
            .collect()
    }
}

impl Extend<Bf16> for ExponentHistogram {
    fn extend<T: IntoIterator<Item = Bf16>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<Bf16> for ExponentHistogram {
    fn from_iter<T: IntoIterator<Item = Bf16>>(iter: T) -> Self {
        let mut h = Self::new();
        h.extend(iter);
        h
    }
}

/// Convenience: builds the histogram, picks the densest 7-window, and
/// returns `(window, normal_ratio)` — one call for a Table II cell.
///
/// ```
/// use owlp_format::{Bf16, stats::normal_ratio_of};
/// let t: Vec<Bf16> = (0..100).map(|i| Bf16::from_f32(1.0 + i as f32 / 100.0)).collect();
/// let (w, r) = normal_ratio_of(&t);
/// assert!(w.contains(Bf16::from_f32(1.0)));
/// assert_eq!(r, 1.0);
/// ```
pub fn normal_ratio_of(data: &[Bf16]) -> (ExponentWindow, f64) {
    let hist = ExponentHistogram::from_values(data);
    let w = hist.densest_window(crate::NORMAL_WINDOW_WIDTH);
    let r = hist.normal_ratio(w);
    (w, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_exp::exponent_counts;

    fn bf(x: f32) -> Bf16 {
        Bf16::from_f32(x)
    }

    /// The window from [`ExponentHistogram::densest_window`] must agree
    /// with [`crate::select_window`].
    fn window_agrees(data: &[Bf16]) -> bool {
        let from_hist =
            ExponentHistogram::from_values(data).densest_window(crate::NORMAL_WINDOW_WIDTH);
        let direct = best_window(&exponent_counts(data), crate::NORMAL_WINDOW_WIDTH);
        from_hist == direct
    }

    #[test]
    fn histogram_counts() {
        let data = vec![bf(1.0), bf(1.5), bf(2.0), bf(0.0), Bf16::NAN];
        let h = ExponentHistogram::from_values(&data);
        assert_eq!(h.total(), 4); // NaN ignored
        assert_eq!(h.count(127), 2);
        assert_eq!(h.count(128), 1);
        assert_eq!(h.zeros(), 1);
    }

    #[test]
    fn normal_ratio_with_outliers() {
        let mut data: Vec<Bf16> = (0..98).map(|i| bf(1.0 + i as f32 / 128.0)).collect();
        data.push(bf(1e30));
        data.push(bf(1e-30));
        let (_, r) = normal_ratio_of(&data);
        assert!((r - 0.98).abs() < 1e-9, "ratio {r}");
    }

    #[test]
    fn zeros_count_as_normal() {
        let mut data = vec![Bf16::ZERO; 50];
        data.extend((0..50).map(|i| bf(1.0 + i as f32 / 64.0)));
        let (_, r) = normal_ratio_of(&data);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn series_is_sorted_and_sparse() {
        let data = vec![bf(1.0), bf(4.0), bf(4.5)];
        let h = ExponentHistogram::from_values(&data);
        let s = h.series();
        assert_eq!(s, vec![(127, 1), (129, 2)]);
    }

    #[test]
    fn densest_window_matches_select_window() {
        let data: Vec<Bf16> = (0..500)
            .map(|i| bf((1.0 + (i % 13) as f32) * 0.037))
            .collect();
        assert!(window_agrees(&data));
    }

    #[test]
    fn empty_histogram_defaults() {
        let h = ExponentHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.best_normal_ratio(), 1.0);
        assert!(h.series().is_empty());
    }

    #[test]
    fn from_iterator() {
        let h: ExponentHistogram = (1..=4).map(|i| bf(i as f32)).collect();
        assert_eq!(h.total(), 4);
    }
}
