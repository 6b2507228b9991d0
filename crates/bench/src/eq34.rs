//! Eq. (3)/(4) validation — the closed-form cycle model against the
//! event-driven array simulation, on sweeps of (M, K, N) and array shapes.

use crate::render::TextTable;
use owlp_model::profiles::{profile_for, Dataset, TensorRole};
use owlp_model::{ModelId, OpKind, TensorGen};
use owlp_systolic::event_sim::simulate_gemm;
use owlp_systolic::ArrayConfig;
use serde::{Deserialize, Serialize};

/// One validation point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationPoint {
    /// GEMM shape.
    pub m: usize,
    /// Reduction dim.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Array rows/cols/lanes.
    pub array: (usize, usize, usize),
    /// Event-simulated cycles.
    pub simulated: u64,
    /// Eq. (4) cycles with the simulator's effective M/N folded in exactly.
    pub closed_form: u64,
    /// Whether the simulated array stayed conflict-free.
    pub conflict_free: bool,
    /// Whether outputs matched `exact_gemm` bit-for-bit.
    pub bit_exact: bool,
}

/// The validation result set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Eq34 {
    /// All validation points.
    pub points: Vec<ValidationPoint>,
}

/// Runs the validation sweep.
pub fn run(seed: u64) -> Eq34 {
    let shapes = [
        (5usize, 17usize, 7usize),
        (8, 32, 8),
        (16, 64, 12),
        (3, 96, 33),
    ];
    let arrays = [(2usize, 3usize, 4usize), (4, 4, 2), (1, 8, 8), (3, 2, 8)];
    let act_profile = profile_for(
        ModelId::Gpt2Base,
        OpKind::QkvProj,
        TensorRole::Activation,
        Dataset::WikiText2,
    );
    let wt_profile = profile_for(
        ModelId::Gpt2Base,
        OpKind::QkvProj,
        TensorRole::Weight,
        Dataset::WikiText2,
    );
    let mut points = Vec::new();
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        for (j, &(rows, cols, lanes)) in arrays.iter().enumerate() {
            let cfg = ArrayConfig::small(rows, cols, lanes);
            let a = TensorGen::new(act_profile, m, k).values(seed + i as u64);
            let b = TensorGen::new(wt_profile, k, n).values(seed + 100 + j as u64);
            let sim = simulate_gemm(&cfg, &a, &b, m, k, n).expect("simulation runs");
            let golden = owlp_arith::exact::exact_gemm(&a, &b, m, k, n);
            let bit_exact = sim
                .outputs
                .iter()
                .zip(&golden)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            // Reconstruct the closed form from the simulator's effective
            // row/column counts (exact, unlike the global r approximation).
            let tiles = k.div_ceil(cfg.k_tile()) as u64;
            let folds_per_tile = sim
                .physical_columns
                .div_ceil(tiles)
                .div_ceil(cfg.cols as u64);
            let rows_per_tile = sim.streamed_rows() / (tiles * folds_per_tile).max(1);
            let per_fold = (2 * cfg.rows + cfg.cols) as u64 + rows_per_tile - 2;
            let closed_form = per_fold * folds_per_tile * tiles;
            points.push(ValidationPoint {
                m,
                k,
                n,
                array: (rows, cols, lanes),
                simulated: sim.cycles(),
                closed_form,
                conflict_free: sim.conflict_free,
                bit_exact,
            });
        }
    }
    Eq34 { points }
}

/// Renders the validation table.
pub fn render(e: &Eq34) -> String {
    let mut t = TextTable::new([
        "M,K,N",
        "array RxCxL",
        "sim cycles",
        "closed form",
        "rel err",
        "conflict-free",
        "bit-exact",
    ]);
    for p in &e.points {
        let rel = (p.simulated as f64 - p.closed_form as f64).abs() / p.simulated.max(1) as f64;
        t.row([
            format!("{},{},{}", p.m, p.k, p.n),
            format!("{}x{}x{}", p.array.0, p.array.1, p.array.2),
            p.simulated.to_string(),
            p.closed_form.to_string(),
            format!("{:.1}%", rel * 100.0),
            p.conflict_free.to_string(),
            p.bit_exact.to_string(),
        ]);
    }
    format!(
        "Eq. (3)/(4) validation — event-driven simulation vs closed-form cycle model\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_points_are_correct_and_conflict_free() {
        let e = run(crate::SEED);
        assert!(!e.points.is_empty());
        for p in &e.points {
            assert!(p.conflict_free, "{p:?}");
            assert!(p.bit_exact, "{p:?}");
        }
    }

    #[test]
    fn closed_form_tracks_simulation_closely() {
        let e = run(crate::SEED);
        for p in &e.points {
            let rel = (p.simulated as f64 - p.closed_form as f64).abs() / p.simulated.max(1) as f64;
            assert!(rel < 0.25, "{p:?}: rel {rel}");
        }
    }
}
