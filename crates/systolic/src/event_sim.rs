//! Event-driven cycle-accurate array simulation.
//!
//! An independent implementation of the weight-stationary dataflow used to
//! validate the closed-form cycle model and the scheduler's no-conflict
//! guarantee:
//!
//! * weights are preloaded per fold; activation rows stream through skewed;
//! * every PE's products are evaluated with the real `owlp-arith` datapath;
//! * outlier results of one input row form one wavefront travelling down
//!   the column — the simulator tracks the wavefront occupancy at every PE
//!   boundary and flags any excess over the outlier-register capacity;
//! * outputs accumulate exactly across K-folds and convert to FP32 once,
//!   so the simulated array reproduces `exact_gemm` bit-for-bit.

use crate::config::ArrayConfig;
use crate::schedule::OutlierSchedule;
use owlp_arith::kulisch::KulischAcc;
use owlp_arith::microkernel;
use owlp_arith::pe::{PeConfig, ProcessingElement};
use owlp_arith::window::WindowAcc;
use owlp_arith::ArithError;
use owlp_format::decode::DecodedOperand;
use owlp_format::{encode_tensor, Bf16};
use serde::{Deserialize, Serialize};

/// Whether a physical stream (activation row or weight column) carries no
/// tagged outliers — computed once per stream when the K-tile is built, so
/// the per-wavefront fast-path test is two boolean loads.
fn stream_is_clean(ops: &[DecodedOperand]) -> bool {
    ops.iter().all(|o| !o.tag)
}

/// A physical stream ready to meet a wavefront: logical index, whether
/// the scheduler inserted it (split index > 0), decoded operands, the
/// pre-folded signed sval plane ([`DecodedOperand::sval`], consumed by the
/// clean-pair microkernel), and the cleanliness flag.
struct Stream {
    idx: usize,
    inserted: bool,
    ops: Vec<DecodedOperand>,
    sval: Vec<i16>,
    clean: bool,
}

impl Stream {
    fn new(idx: usize, split: usize, ops: Vec<DecodedOperand>) -> Self {
        let sval = ops.iter().map(|o| o.sval()).collect();
        let clean = stream_is_clean(&ops);
        Stream {
            idx,
            inserted: split > 0,
            ops,
            sval,
            clean,
        }
    }
}

/// One streamed physical activation row of a fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowRecord {
    /// The scheduler inserted this row: it is split index > 0 of its
    /// logical row, carrying outliers the first split had no path for.
    pub inserted: bool,
    /// The row's worst outlier-wavefront occupancy across the fold's
    /// columns.
    pub occupancy: usize,
}

/// One fold of up to C physical weight columns, in issue order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FoldRecord {
    /// Cycles of the fold: R fill, one per streamed row, R + C − 2 drain
    /// (`2R + C + rows − 2`).
    pub cycles: u64,
    /// The streamed physical rows of the fold's K-tile, in stream order.
    pub rows: Vec<RowRecord>,
}

/// Outcome of an event-driven simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventSimResult {
    /// Total cycles, accumulated fold by fold (`2R + C + M_fold − 2` each).
    pub cycles: u64,
    /// Row-major `m×n` FP32 outputs.
    pub outputs: Vec<f32>,
    /// Largest outlier-wavefront occupancy observed at any column bottom
    /// (the maximum row occupancy over [`EventSimResult::folds`]).
    pub max_wavefront_occupancy: usize,
    /// Whether every wavefront stayed within the outlier-path capacity.
    pub conflict_free: bool,
    /// Effective activation rows streamed (across folds), for `r_a`
    /// cross-checks.
    pub streamed_rows: u64,
    /// Effective physical weight columns (across K-tiles), for `r_w`
    /// cross-checks.
    pub physical_columns: u64,
    /// Every fold in issue order (`Σ cycles == cycles`). The per-fold
    /// cycles are the phase-coupling hook for the `owlp-mem` co-simulator
    /// (each fold is one compute group whose makespan races its tile
    /// fetch); the per-row records drive the VCD waveform.
    pub folds: Vec<FoldRecord>,
}

/// Simulates the OwL-P array on a GEMM, **with** outlier-aware scheduling.
///
/// `a` is `m×k` row-major activations, `b` is `k×n` row-major weights.
///
/// # Errors
///
/// Propagates encoding errors ([`ArithError::Format`]) and shape mismatches.
pub fn simulate_gemm(
    cfg: &ArrayConfig,
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
) -> Result<EventSimResult, ArithError> {
    run(cfg, a, b, m, k, n, true)
}

/// Simulates **without** scheduling (raw streams). Conflicts are reported
/// via `conflict_free == false` rather than an error, so the hazard the
/// scheduler removes can be observed directly.
///
/// # Errors
///
/// As [`simulate_gemm`].
pub fn simulate_gemm_unscheduled(
    cfg: &ArrayConfig,
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
) -> Result<EventSimResult, ArithError> {
    run(cfg, a, b, m, k, n, false)
}

fn check(cond: bool, what: &'static str, expected: usize, actual: usize) -> Result<(), ArithError> {
    if cond {
        Ok(())
    } else {
        Err(ArithError::DimensionMismatch {
            what,
            expected,
            actual,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn run(
    cfg: &ArrayConfig,
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
    scheduled: bool,
) -> Result<EventSimResult, ArithError> {
    check(a.len() == m * k, "A", m * k, a.len())?;
    check(b.len() == k * n, "B", k * n, b.len())?;
    if m == 0 || k == 0 || n == 0 {
        return Ok(EventSimResult {
            cycles: 0,
            outputs: vec![0.0; m * n],
            max_wavefront_occupancy: 0,
            conflict_free: true,
            streamed_rows: 0,
            physical_columns: 0,
            folds: Vec::new(),
        });
    }
    let enc_a = encode_tensor(a, None)?;
    let enc_b = encode_tensor(b, None)?;
    let shared_a = enc_a.shared_exp();
    let shared_w = enc_b.shared_exp();
    let ops_a = enc_a.decode_operands();
    let ops_b = enc_b.decode_operands();
    let k_tile = cfg.k_tile();
    let sched = OutlierSchedule {
        k_tile,
        act_paths: cfg.act_outlier_paths.max(1),
        weight_paths: cfg.weight_outlier_paths.max(1),
    };
    let capacity = cfg.total_outlier_paths();
    let pe = ProcessingElement::new(PeConfig {
        lanes: cfg.lanes,
        act_outlier_paths: cfg.act_outlier_paths,
        weight_outlier_paths: cfg.weight_outlier_paths,
    });

    let mut accs: Vec<KulischAcc> = vec![KulischAcc::new(); m * n];
    let mut cycles = 0u64;
    let mut streamed_rows = 0u64;
    let mut physical_columns = 0u64;
    let mut folds = Vec::new();

    // The bounded window of one K-tile's all-normal wavefronts (shared by
    // every clean activation-row × weight-column pair).
    let win0 = WindowAcc::for_owlp_normal(shared_a, shared_w, k_tile.max(1));
    // Kernel tier resolved before the column fan-out so a `with_tier`
    // override on this thread applies inside every pool worker.
    let tier = microkernel::selected_tier();

    // One wavefront: an activation row meeting a weight column. Clean
    // pairs (no tagged outlier on either stream) take the bounded-window
    // fast path — the sval-plane microkernel dot product spilled into the
    // Kulisch register. Both paths add the same exact value into the
    // accumulator (Kulisch addition is exact integer addition, so the
    // decomposition into per-PE partials vs one wide spill cannot differ
    // by a bit), and a clean wavefront's occupancy is zero on either path.
    let wavefront = |arow: &Stream, wcol: &Stream, acc: &mut KulischAcc| -> usize {
        if arow.clean && wcol.clean {
            let win = microkernel::dot_sval_with(tier, &arow.sval, &wcol.sval, win0);
            win.merge_into(acc);
            return 0;
        }
        let mut occupancy = 0usize;
        for r in 0..cfg.rows {
            let a_lo = r * cfg.lanes;
            if a_lo >= arow.ops.len() {
                break;
            }
            let a_hi = (a_lo + cfg.lanes).min(arow.ops.len());
            let w_hi = (a_lo + cfg.lanes).min(wcol.ops.len());
            let out = pe.dot_unchecked(
                &arow.ops[a_lo..a_hi],
                &wcol.ops[a_lo..w_hi.max(a_lo)],
                shared_a,
                shared_w,
            );
            occupancy += out.outliers.len();
            acc.add_scaled(out.normal_sum, out.normal_frame);
            for o in &out.outliers {
                acc.add_scaled(o.mag, o.frame);
            }
        }
        occupancy
    };

    let tiles = k.div_ceil(k_tile);
    for t in 0..tiles {
        let lo = t * k_tile;
        let hi = (lo + k_tile).min(k);

        // Physical weight columns of this K-tile (with zero insertion),
        // each carrying its sval plane and precomputed cleanliness flag.
        let mut wcols: Vec<Stream> = Vec::new();
        for j in 0..n {
            let col: Vec<DecodedOperand> = (lo..hi).map(|kk| ops_b[kk * n + j]).collect();
            if scheduled {
                for (s, sub) in sched.split_weight_column(&col).into_iter().enumerate() {
                    wcols.push(Stream::new(j, s, sub));
                }
            } else {
                wcols.push(Stream::new(j, 0, col));
            }
        }
        physical_columns += wcols.len() as u64;

        // Physical activation rows of this K-tile.
        let mut arows: Vec<Stream> = Vec::new();
        for i in 0..m {
            let row: Vec<DecodedOperand> = ops_a[i * k + lo..i * k + hi].to_vec();
            if scheduled {
                for (s, sub) in sched.split_activation_row(&row).into_iter().enumerate() {
                    arows.push(Stream::new(i, s, sub));
                }
            } else {
                arows.push(Stream::new(i, 0, row));
            }
        }

        // Stream every fold of C physical columns. Cycle accounting depends
        // only on the fold structure; the numeric work shards by physical
        // column (each column's wavefront tracking is independent within a
        // fold) and merges into the Kulisch grid in column order. Kulisch
        // accumulation is an exact fixed-point integer sum, so regrouping
        // per-column partials cannot change a single bit of any output —
        // the parallel run is bit-identical to the serial sweep.
        let col_ops = 2 * (arows.len() as u64).saturating_mul((hi - lo) as u64).max(1);
        for fold in wcols.chunks(cfg.cols) {
            let fold_len = (2 * cfg.rows + cfg.cols) as u64 + arows.len() as u64 - 2;
            cycles += fold_len;
            streamed_rows += arows.len() as u64;
            let column_pass = |wcol: &Stream| {
                let mut partials = vec![KulischAcc::new(); arows.len()];
                let occupancy: Vec<usize> = arows
                    .iter()
                    .zip(&mut partials)
                    .map(|(arow, acc)| wavefront(arow, wcol, acc))
                    .collect();
                (wcol.idx, partials, occupancy)
            };
            // Dispatch weighted by the fold's actual arithmetic volume so
            // small folds stay serial rather than paying thread hand-off
            // for a handful of products.
            let shards =
                owlp_par::map_indexed_weighted(fold.len(), 1, col_ops, |c| column_pass(&fold[c]));
            let mut rows: Vec<RowRecord> = arows
                .iter()
                .map(|arow| RowRecord {
                    inserted: arow.inserted,
                    occupancy: 0,
                })
                .collect();
            for (j, partials, occupancy) in shards {
                for (row, occ) in rows.iter_mut().zip(occupancy) {
                    row.occupancy = row.occupancy.max(occ);
                }
                for (arow, partial) in arows.iter().zip(&partials) {
                    accs[arow.idx * n + j].merge(partial);
                }
            }
            folds.push(FoldRecord {
                cycles: fold_len,
                rows,
            });
        }
    }

    let outputs = accs.iter().map(|acc| acc.round_to_f32()).collect();
    let max_occ = folds
        .iter()
        .flat_map(|f| &f.rows)
        .map(|r| r.occupancy)
        .max()
        .unwrap_or(0);
    Ok(EventSimResult {
        cycles,
        outputs,
        max_wavefront_occupancy: max_occ,
        conflict_free: capacity == 0 || max_occ <= capacity,
        streamed_rows,
        physical_columns,
        folds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_model::cycles_with_overhead;
    use crate::schedule::outlier_mask;
    use owlp_arith::exact::exact_gemm;

    fn synth(len: usize, seed: u64, outlier_every: usize) -> Vec<Bf16> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 40) as f32 / (1u64 << 24) as f32;
                let sign = if state & (1 << 13) == 0 { 1.0 } else { -1.0 };
                let base = sign * (0.75 + u * 0.5);
                let v = if outlier_every > 0 && i % outlier_every == outlier_every - 1 {
                    base * 1.0e12
                } else {
                    base
                };
                Bf16::from_f32(v)
            })
            .collect()
    }

    #[test]
    fn outputs_match_exact_gemm_bitwise() {
        let cfg = ArrayConfig::small(2, 3, 4);
        let (m, k, n) = (5, 17, 7);
        let a = synth(m * k, 1, 6);
        let b = synth(k * n, 2, 9);
        let r = simulate_gemm(&cfg, &a, &b, m, k, n).unwrap();
        let golden = exact_gemm(&a, &b, m, k, n);
        for (x, y) in r.outputs.iter().zip(&golden) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(r.conflict_free);
    }

    #[test]
    fn scheduled_streams_never_exceed_capacity() {
        let cfg = ArrayConfig::small(3, 2, 4);
        let (m, k, n) = (6, 24, 4);
        // Dense outliers to stress the scheduler.
        let a = synth(m * k, 3, 3);
        let b = synth(k * n, 4, 5);
        let r = simulate_gemm(&cfg, &a, &b, m, k, n).unwrap();
        assert!(r.conflict_free, "occupancy {}", r.max_wavefront_occupancy);
        assert!(r.max_wavefront_occupancy <= cfg.total_outlier_paths());
        // Without scheduling the same tensors overflow the paths.
        let raw = simulate_gemm_unscheduled(&cfg, &a, &b, m, k, n).unwrap();
        assert!(
            !raw.conflict_free,
            "expected a conflict, got {}",
            raw.max_wavefront_occupancy
        );
        // Numerics are identical either way (the hazard is structural).
        assert_eq!(raw.outputs, r.outputs);
    }

    #[test]
    fn cycle_count_matches_closed_form_without_outliers() {
        let cfg = ArrayConfig::small(4, 4, 2);
        let (m, k, n) = (10, 32, 9);
        let a = synth(m * k, 5, 0);
        let b = synth(k * n, 6, 0);
        let r = simulate_gemm(&cfg, &a, &b, m, k, n).unwrap();
        let expect = cycles_with_overhead(&cfg, m, k, n, 1.0, 1.0);
        assert_eq!(r.cycles, expect.total);
        assert_eq!(r.streamed_rows, (m as u64) * expect.folds);
    }

    #[test]
    fn cycle_count_matches_eq4_with_measured_ratios() {
        let cfg = ArrayConfig::small(2, 4, 4);
        let (m, k, n) = (8, 16, 8);
        let a = synth(m * k, 7, 4);
        let b = synth(k * n, 8, 7);
        let r = simulate_gemm(&cfg, &a, &b, m, k, n).unwrap();
        // Measure r_a / r_w from the masks, then compare Eq. (4).
        let enc_a = encode_tensor(&a, None).unwrap();
        let enc_b = encode_tensor(&b, None).unwrap();
        let sched = OutlierSchedule::new(cfg.k_tile(), 2, 2);
        let sa = sched.activation_stats(&outlier_mask(&enc_a), m, k);
        let sw = sched.weight_stats(&outlier_mask(&enc_b), k, n);
        let eq4 = cycles_with_overhead(&cfg, m, k, n, sa.ratio, sw.ratio);
        // Eq. (4) folds per-tile overheads into one global ratio, so allow a
        // small discrepancy; the simulator is the ground truth.
        let rel = (r.cycles as f64 - eq4.total as f64).abs() / r.cycles as f64;
        assert!(rel < 0.15, "sim {} vs eq4 {}", r.cycles, eq4.total);
        assert!(r.cycles >= cycles_with_overhead(&cfg, m, k, n, 1.0, 1.0).total);
    }

    #[test]
    fn zero_dimensions() {
        let cfg = ArrayConfig::small(2, 2, 2);
        let r = simulate_gemm(&cfg, &[], &[], 0, 0, 0).unwrap();
        assert_eq!(r.cycles, 0);
        assert!(r.outputs.is_empty());
    }

    #[test]
    fn single_element_gemm() {
        let cfg = ArrayConfig::small(1, 1, 1);
        let a = vec![Bf16::from_f32(3.0)];
        let b = vec![Bf16::from_f32(-1.5)];
        let r = simulate_gemm(&cfg, &a, &b, 1, 1, 1).unwrap();
        assert_eq!(r.outputs, vec![-4.5]);
        assert_eq!(r.cycles, (2 + 1 + 1 - 2) as u64);
    }

    #[test]
    fn fp_baseline_differs_from_owlp_on_cancellation_heavy_inputs() {
        use owlp_arith::fpmac::fp_mac_gemm;
        let owlp_cfg = ArrayConfig::small(2, 4, 8);
        let (m, k, n) = (1, 12, 1);
        let mut a = vec![Bf16::from_f32(0.5); m * k];
        a[0] = Bf16::from_f32(1.0e30);
        a[11] = Bf16::from_f32(-1.0e30);
        let b = vec![Bf16::from_f32(1.0); k * n];
        let fp = fp_mac_gemm(&a, &b, m, k, n);
        let owlp = simulate_gemm(&owlp_cfg, &a, &b, m, k, n).unwrap();
        // Exact: 10 × 0.5 = 5.0 survives on OwL-P; the sequential FP32
        // accumulation of the baseline column loses it.
        assert_eq!(owlp.outputs[0], 5.0);
        assert_eq!(fp[0], 0.0);
    }

    #[test]
    fn parallel_event_sim_is_bit_identical_to_serial() {
        let cfg = ArrayConfig::small(3, 2, 4);
        let (m, k, n) = (7, 40, 9);
        let a = synth(m * k, 31, 5);
        let b = synth(k * n, 32, 7);
        let serial = owlp_par::with_threads(1, || simulate_gemm(&cfg, &a, &b, m, k, n).unwrap());
        for t in [2, 4, 8] {
            let par = owlp_par::with_threads(t, || simulate_gemm(&cfg, &a, &b, m, k, n).unwrap());
            assert_eq!(par, serial, "{t} threads");
            let raw_ser = owlp_par::with_threads(1, || {
                simulate_gemm_unscheduled(&cfg, &a, &b, m, k, n).unwrap()
            });
            let raw_par = owlp_par::with_threads(t, || {
                simulate_gemm_unscheduled(&cfg, &a, &b, m, k, n).unwrap()
            });
            assert_eq!(raw_par, raw_ser, "{t} threads (unscheduled)");
        }
    }

    #[test]
    fn fold_cycles_sum_to_total() {
        let cfg = ArrayConfig::small(3, 2, 4);
        let (m, k, n) = (5, 26, 9);
        let a = synth(m * k, 21, 6);
        let b = synth(k * n, 22, 8);
        let owlp = simulate_gemm(&cfg, &a, &b, m, k, n).unwrap();
        assert_eq!(
            owlp.folds.iter().map(|f| f.cycles).sum::<u64>(),
            owlp.cycles
        );
        assert!(!owlp.folds.is_empty());

        // Dense activation outliers force scheduler-inserted rows: every
        // fold still costs `2R + C + rows − 2`, the recorded rows add up to
        // the streamed rows, and the run's worst wavefront is the worst
        // recorded row.
        let a = synth(m * k, 23, 3);
        let r = simulate_gemm(&cfg, &a, &b, m, k, n).unwrap();
        let rows = r.folds.iter().flat_map(|f| &f.rows);
        assert!(rows.clone().any(|row| row.inserted));
        for f in &r.folds {
            let expect = (2 * cfg.rows + cfg.cols + f.rows.len()) as u64 - 2;
            assert_eq!(f.cycles, expect);
        }
        let recorded: usize = r.folds.iter().map(|f| f.rows.len()).sum();
        assert_eq!(recorded as u64, r.streamed_rows);
        let worst = rows.map(|row| row.occupancy).max().unwrap();
        assert_eq!(r.max_wavefront_occupancy, worst);
        assert!(worst > 0);
    }

    #[test]
    fn weight_splitting_increases_physical_columns() {
        let cfg = ArrayConfig::small(1, 2, 8); // k_tile 8, paths 2
        let (m, k, n) = (2, 8, 2);
        let a = synth(m * k, 9, 0);
        // Force 3 weight outliers into column 0.
        let mut bt = synth(k * n, 10, 0);
        for kk in [0usize, 3, 6] {
            bt[kk * n] = Bf16::from_f32(1.0e15);
        }
        let r = simulate_gemm(&cfg, &a, &bt, m, k, n).unwrap();
        // Column 0 splits into 2 physical columns: 3 total for 2 logical.
        assert_eq!(r.physical_columns, 3);
        let golden = exact_gemm(&a, &bt, m, k, n);
        for (x, y) in r.outputs.iter().zip(&golden) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
