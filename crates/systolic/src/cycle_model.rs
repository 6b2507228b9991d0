//! Closed-form weight-stationary cycle model (paper Eq. 3 and Eq. 4).
//!
//! For operand matrices `(M, K) × (K, N)` on an `(R, C)` weight-stationary
//! array, the paper (following ScaleSIM) gives
//!
//! ```text
//! T = (2R + C + M − 2) × ⌈N / C⌉ × ⌈K / R⌉                      (Eq. 3)
//! T = (2R + C + M·r_a − 2) × ⌈N·r_w / C⌉ × ⌈K / R⌉              (Eq. 4)
//! ```
//!
//! where `r_a`/`r_w` account for the zero-insertion cycles of outlier
//! scheduling. For OwL-P, `R` in the fill/drain term is the *physical* PE
//! row count while the K-coverage per fold is `rows × lanes`; with
//! `lanes == 1` the formulas reduce exactly to the paper's.

use crate::config::ArrayConfig;
use serde::{Deserialize, Serialize};

/// Cycle count with its constituents, for reporting and cross-validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// Cycles of one fold (fill + stream + drain): `2R + C + M' − 2`.
    pub per_fold: u64,
    /// Number of weight folds: `⌈N' / C⌉ × ⌈K / k_tile⌉`.
    pub folds: u64,
    /// Effective (zero-inserted) row count `M'` streamed per fold.
    pub effective_m: u64,
    /// Effective (zero-inserted) column count `N'`.
    pub effective_n: u64,
    /// Total cycles on a single array: `per_fold × folds`.
    pub total: u64,
    /// Total cycles with folds spread over `num_arrays` arrays.
    pub total_parallel: u64,
}

impl CycleBreakdown {
    /// Wall-clock seconds at the configured frequency.
    pub fn seconds(&self, clock_mhz: f64) -> f64 {
        self.total_parallel as f64 / (clock_mhz * 1.0e6)
    }
}

/// Eq. (3): cycles without outlier-scheduling overhead.
///
/// `m`, `k`, `n` are the GEMM dimensions; zero-sized GEMMs cost zero cycles.
pub fn cycles_eq3(cfg: &ArrayConfig, m: usize, k: usize, n: usize) -> u64 {
    cycles_with_overhead(cfg, m, k, n, 1.0, 1.0).total_parallel
}

/// Eq. (4): cycles with the activation/weight scheduling overheads
/// `r_a ≥ 1`, `r_w ≥ 1` applied.
///
/// # Panics
///
/// Panics if `r_a < 1` or `r_w < 1` (the overheads only add cycles).
pub fn cycles_eq4(cfg: &ArrayConfig, m: usize, k: usize, n: usize, r_a: f64, r_w: f64) -> u64 {
    cycles_with_overhead(cfg, m, k, n, r_a, r_w).total_parallel
}

/// Full breakdown of Eq. (4) (Eq. (3) when `r_a = r_w = 1`).
///
/// # Panics
///
/// Panics if `r_a < 1` or `r_w < 1`.
pub fn cycles_with_overhead(
    cfg: &ArrayConfig,
    m: usize,
    k: usize,
    n: usize,
    r_a: f64,
    r_w: f64,
) -> CycleBreakdown {
    assert!(r_a >= 1.0, "r_a must be ≥ 1, got {r_a}");
    assert!(r_w >= 1.0, "r_w must be ≥ 1, got {r_w}");
    if m == 0 || k == 0 || n == 0 {
        return CycleBreakdown {
            per_fold: 0,
            folds: 0,
            effective_m: 0,
            effective_n: 0,
            total: 0,
            total_parallel: 0,
        };
    }
    let effective_m = (m as f64 * r_a).ceil() as u64;
    let effective_n = (n as f64 * r_w).ceil() as u64;
    let per_fold = (2 * cfg.rows + cfg.cols) as u64 + effective_m - 2;
    let folds = (effective_n).div_ceil(cfg.cols as u64) * (k as u64).div_ceil(cfg.k_tile() as u64);
    let total = per_fold * folds;
    let total_parallel = per_fold * folds.div_ceil(cfg.num_arrays as u64);
    CycleBreakdown {
        per_fold,
        folds,
        effective_m,
        effective_n,
        total,
        total_parallel,
    }
}

/// MAC-array utilisation of a GEMM under Eq. (3): useful MAC operations
/// divided by available MAC-cycles. Exposes why small-`M` decode phases are
/// memory/fill-bound.
pub fn utilization(cfg: &ArrayConfig, m: usize, k: usize, n: usize) -> f64 {
    if m == 0 || k == 0 || n == 0 {
        return 0.0;
    }
    let b = cycles_with_overhead(cfg, m, k, n, 1.0, 1.0);
    let useful = m as u64 * k as u64 * n as u64;
    let available = b.total_parallel * cfg.total_macs() as u64;
    useful as f64 / available as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq3_matches_paper_formula_for_unit_lane() {
        // With lanes = 1, the formula must be literally Eq. (3).
        let cfg = ArrayConfig::small(32, 32, 1);
        let (m, k, n) = (512, 768, 768);
        let expected =
            (2 * 32 + 32 + 512 - 2) as u64 * (768u64.div_ceil(32)) * (768u64.div_ceil(32));
        assert_eq!(cycles_eq3(&cfg, m, k, n), expected);
    }

    #[test]
    fn eq4_reduces_to_eq3_without_overhead() {
        let cfg = ArrayConfig::OWLP_PAPER;
        assert_eq!(
            cycles_eq4(&cfg, 100, 200, 300, 1.0, 1.0),
            cycles_eq3(&cfg, 100, 200, 300)
        );
    }

    #[test]
    fn overheads_increase_cycles_monotonically() {
        let cfg = ArrayConfig::OWLP_PAPER;
        let base = cycles_eq4(&cfg, 512, 768, 768, 1.0, 1.0);
        let with_ra = cycles_eq4(&cfg, 512, 768, 768, 1.3, 1.0);
        let with_rw = cycles_eq4(&cfg, 512, 768, 768, 1.3, 1.1);
        assert!(with_ra > base);
        assert!(with_rw >= with_ra);
    }

    #[test]
    fn zero_dimension_costs_nothing() {
        let cfg = ArrayConfig::OWLP_PAPER;
        assert_eq!(cycles_eq3(&cfg, 0, 10, 10), 0);
        assert_eq!(cycles_eq3(&cfg, 10, 0, 10), 0);
        assert_eq!(cycles_eq3(&cfg, 10, 10, 0), 0);
    }

    #[test]
    fn owlp_triples_compute_bound_throughput() {
        // Same fold count per array shape, but 3× the arrays and a much
        // smaller fill overhead: compute-bound cycles drop by ≥ 3×.
        let owlp = ArrayConfig::OWLP_PAPER;
        let base = ArrayConfig::BASELINE_PAPER;
        let b_owlp = cycles_with_overhead(&owlp, 512, 960, 960, 1.0, 1.0);
        let b_base = cycles_with_overhead(&base, 512, 960, 960, 1.0, 1.0);
        assert_eq!(b_owlp.folds, b_base.folds);
        let ratio = b_base.total_parallel as f64 / b_owlp.total_parallel as f64;
        assert!(ratio >= 3.0, "compute-bound speedup {ratio}");
    }

    #[test]
    fn parallel_arrays_divide_folds() {
        let mut cfg = ArrayConfig::OWLP_PAPER;
        cfg.num_arrays = 1;
        let single = cycles_with_overhead(&cfg, 64, 96 * 16, 32 * 16, 1.0, 1.0);
        cfg.num_arrays = 16;
        let sixteen = cycles_with_overhead(&cfg, 64, 96 * 16, 32 * 16, 1.0, 1.0);
        assert_eq!(single.total, sixteen.total);
        assert_eq!(sixteen.total_parallel * 16, single.total);
    }

    #[test]
    fn decode_phase_has_low_utilization() {
        // M = 1 (single-token decode): utilisation is tiny, confirming the
        // memory-bound regime the compression targets.
        let cfg = ArrayConfig::BASELINE_PAPER;
        let u_decode = utilization(&cfg, 1, 4096, 4096);
        let u_prefill = utilization(&cfg, 512, 4096, 4096);
        assert!(u_decode < 0.05, "decode utilisation {u_decode}");
        assert!(u_prefill > 10.0 * u_decode);
    }

    #[test]
    fn seconds_conversion() {
        let cfg = ArrayConfig::OWLP_PAPER;
        let b = cycles_with_overhead(&cfg, 512, 768, 768, 1.0, 1.0);
        let s = b.seconds(cfg.clock_mhz);
        assert!((s - b.total_parallel as f64 / 500.0e6).abs() < 1e-15);
    }

    #[test]
    fn effective_dimensions_round_up() {
        let cfg = ArrayConfig::OWLP_PAPER;
        let b = cycles_with_overhead(&cfg, 10, 96, 10, 1.25, 1.05);
        assert_eq!(b.effective_m, 13); // ceil(12.5)
        assert_eq!(b.effective_n, 11); // ceil(10.5)
    }
}
