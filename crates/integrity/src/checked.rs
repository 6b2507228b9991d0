//! The guarded GEMM: all three detectors threaded around one execution,
//! with sanctioned fault injection and the full escalation ladder
//! *detect → localize → repair → re-execute*.
//!
//! [`GuardedGemm`] owns a durable copy of the encoded tensors (the
//! "golden storage" a real system would hold in ECC DRAM or re-fetch) and
//! the working packed planes a strike actually damages. One [`Strike`]
//! models one single-bit upset:
//!
//! * operand-plane strikes flip a real bit of a packed word, mapped from
//!   the [`FaultSite`] wire classes of the sensitivity analysis
//!   ([`Strike::from_site`]);
//! * accumulator strikes flip a raw [`owlp_arith::WindowAcc`] bit inside
//!   the drive loop ([`LaneStrike`]).
//!
//! Detection outcomes come from the checksums themselves — side-band
//! parity and plane digests before the GEMM, ABFT after — never from a
//! coin flip. Repairs are localized when the detector localizes
//! (tile rebuild, element recompute) and escalate to a full re-execution
//! when it does not.

use owlp_arith::fault::FaultSite;
use owlp_arith::gemm::{owlp_gemm_packed, owlp_gemm_packed_abft};
use owlp_arith::{AlignUnit, ArithError, LaneStrike, OwlpGemmOutput, PeConfig};
use owlp_format::decode::DecodedOperand;
use owlp_format::{encode_tensor, Bf16, EncodedTensor, PackedOperands, PackedPanels, PackedPlane};
use serde::{Deserialize, Serialize};

use crate::abft;
use crate::digest::{sval_tile_range, IntegrityError, OperandDigests};

/// Which detectors are armed. The serving layer carries this in its
/// recovery policy; the bitmask indexes the memoized detection profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IntegrityConfig {
    /// Side-band parity over `{sh, tag, exp}` (load-time scan).
    pub parity: bool,
    /// CRC32C plane/tile digests (load-time verification).
    pub plane_crc: bool,
    /// Post-GEMM ABFT row/column checksums.
    pub abft: bool,
}

impl IntegrityConfig {
    /// Number of distinct configurations (for profile memoization).
    pub const COUNT: usize = 8;

    /// All detectors armed.
    pub const fn full() -> Self {
        IntegrityConfig {
            parity: true,
            plane_crc: true,
            abft: true,
        }
    }

    /// No detectors — the unprotected baseline.
    pub const fn off() -> Self {
        IntegrityConfig {
            parity: false,
            plane_crc: false,
            abft: false,
        }
    }

    /// Dense index in `0..Self::COUNT`.
    pub const fn bitmask(self) -> usize {
        self.parity as usize | (self.plane_crc as usize) << 1 | (self.abft as usize) << 2
    }

    /// Inverse of [`IntegrityConfig::bitmask`].
    pub const fn from_bitmask(mask: usize) -> Self {
        IntegrityConfig {
            parity: mask & 1 != 0,
            plane_crc: mask & 2 != 0,
            abft: mask & 4 != 0,
        }
    }
}

impl Default for IntegrityConfig {
    /// Full protection — matching the paper-grade serving configuration.
    fn default() -> Self {
        IntegrityConfig::full()
    }
}

/// Which checksum layer caught a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Detector {
    /// Load-time side-band parity scan.
    Parity,
    /// Load-time CRC32C plane/tile digest verification.
    PlaneCrc,
    /// Post-GEMM ABFT checksum comparison.
    Abft,
}

/// One sanctioned single-bit upset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strike {
    /// Flip a bit of one packed plane word of the activation tensor.
    OperandA {
        /// Damaged plane.
        plane: PackedPlane,
        /// Word index within the plane.
        index: usize,
        /// Bit position within the word.
        bit: u32,
    },
    /// Flip a bit of one packed plane word of the weight tensor.
    OperandB {
        /// Damaged plane.
        plane: PackedPlane,
        /// Word index within the plane.
        index: usize,
        /// Bit position within the word.
        bit: u32,
    },
    /// Flip a raw accumulator bit of one output element mid-GEMM.
    Lane(LaneStrike),
}

/// The `sval` bit that carries the operand's sign after folding.
const SVAL_SIGN_BIT: u32 = 15;

impl Strike {
    /// Maps a [`FaultSite`] wire class onto the packed word bit that
    /// stores it: significand bits and the sign live in the folded `sval`
    /// data word, the shift bit and outlier tag in the `meta` side-band
    /// byte, and outlier exponent bits in the exponent side table (where
    /// `slot` indexes the table rather than the element grid).
    pub fn from_site(site: FaultSite, on_b: bool, element: usize, slot: usize) -> Strike {
        let (plane, index, bit) = match site {
            FaultSite::Significand(b) => (PackedPlane::Sval, element, u32::from(b)),
            FaultSite::Sign => (PackedPlane::Sval, element, SVAL_SIGN_BIT),
            FaultSite::ShiftBit => (PackedPlane::Meta, element, 1),
            FaultSite::OutlierTag => (PackedPlane::Meta, element, 2),
            FaultSite::OutlierExp(b) => (PackedPlane::OutlierExp, slot, u32::from(b)),
        };
        if on_b {
            Strike::OperandB { plane, index, bit }
        } else {
            Strike::OperandA { plane, index, bit }
        }
    }
}

/// Outcome of one guarded execution.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedRun {
    /// The delivered `m×n` FP32 output.
    pub output: Vec<f32>,
    /// The first detector that fired, if any.
    pub detector: Option<Detector>,
    /// Whether detection localized the damage (element, tile, or plane) —
    /// the precondition for a bounded repair instead of re-execution.
    pub localized: bool,
    /// Bounded repairs performed (tiles rebuilt, elements recomputed,
    /// planes re-decoded from durable storage).
    pub repairs: usize,
    /// Whether the ladder escalated to a full re-execution.
    pub reexecuted: bool,
    /// Whether the delivered output is bit-identical to the fault-free
    /// oracle (`false` means the fault *escaped* or the repair failed).
    pub bit_clean: bool,
}

impl GuardedRun {
    /// Whether a detected fault was also corrected (repair or re-run).
    pub fn corrected(&self) -> bool {
        self.detector.is_some() && (self.repairs > 0 || self.reexecuted)
    }
}

/// A GEMM execution harness with durable encoded tensors, sealed digests,
/// a fault-free oracle, and working packed planes strikes can damage.
#[derive(Debug, Clone)]
pub struct GuardedGemm {
    enc_a: EncodedTensor,
    enc_b: EncodedTensor,
    packed_a: PackedOperands,
    packed_b: PackedOperands,
    pristine_a: PackedOperands,
    pristine_b: PackedOperands,
    digests_a: OperandDigests,
    digests_b: OperandDigests,
    /// Microkernel weight panels memoised from the pristine `packed_b`, as
    /// `PreparedTensor::with_shape` does in production. Only the pristine
    /// paths ([`Self::checked_run`] and the oracle) may use these:
    /// [`Self::run`] packs panels per call so strikes on the working `B`
    /// planes reach the GEMM.
    panels: PackedPanels,
    oracle: Vec<f32>,
    m: usize,
    k: usize,
    n: usize,
}

impl GuardedGemm {
    /// Encodes, packs, seals, and computes the fault-free oracle.
    ///
    /// # Errors
    ///
    /// As `owlp_gemm` — non-finite inputs or shape mismatches.
    pub fn new(a: &[Bf16], b: &[Bf16], m: usize, k: usize, n: usize) -> Result<Self, ArithError> {
        let enc_a = encode_tensor(a, None)?;
        let enc_b = encode_tensor(b, None)?;
        let packed_a = enc_a.decode_packed();
        let packed_b = enc_b.decode_packed();
        let panels = packed_b.pack_panels(k, n);
        let oracle = owlp_gemm_packed(
            &packed_a,
            &packed_b,
            Some(&panels),
            m,
            k,
            n,
            PeConfig::PAPER,
            AlignUnit::Exact,
        )?
        .output;
        Ok(GuardedGemm {
            digests_a: OperandDigests::of(&packed_a),
            digests_b: OperandDigests::of(&packed_b),
            panels,
            pristine_a: packed_a.clone(),
            pristine_b: packed_b.clone(),
            packed_a,
            packed_b,
            enc_a,
            enc_b,
            oracle,
            m,
            k,
            n,
        })
    }

    /// The fault-free reference output.
    pub fn oracle(&self) -> &[f32] {
        &self.oracle
    }

    /// `(m, k, n)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.k, self.n)
    }

    /// Length of `plane` on the chosen tensor — the valid strike index
    /// range for [`Strike::from_site`].
    pub fn plane_len(&self, on_b: bool, plane: PackedPlane) -> usize {
        if on_b {
            self.pristine_b.plane_len(plane)
        } else {
            self.pristine_a.plane_len(plane)
        }
    }

    /// One guarded execution: apply `strike` (if any) to the working
    /// state, run the armed detectors around the GEMM, repair what they
    /// localize, and restore pristine working planes for the next run.
    pub fn run(&mut self, cfg: IntegrityConfig, strike: Option<Strike>) -> GuardedRun {
        let mut lane_strike = None;
        match strike {
            Some(Strike::OperandA { plane, index, bit }) => {
                self.packed_a.flip_bit(plane, index, bit);
            }
            Some(Strike::OperandB { plane, index, bit }) => {
                self.packed_b.flip_bit(plane, index, bit);
            }
            Some(Strike::Lane(s)) => lane_strike = Some(s),
            None => {}
        }

        let mut detector = None;
        let mut localized = false;
        let mut repairs = 0usize;

        // Load-time side-band parity scan: catches latent meta/exp
        // corruption before any consumer re-derives state from it. Repair
        // is a re-decode from the durable encoded tensor.
        if cfg.parity {
            if self.packed_a.parity_scan().is_some() {
                detector = Some(Detector::Parity);
                localized = true;
                self.enc_a.decode_packed_into(&mut self.packed_a);
                repairs += 1;
            } else if self.packed_b.parity_scan().is_some() {
                detector = Some(Detector::Parity);
                localized = true;
                self.enc_b.decode_packed_into(&mut self.packed_b);
                repairs += 1;
            }
        }

        // Load-time plane digests: catch data-plane corruption parity does
        // not cover. An sval tile hit is repaired in place (mag/meta
        // verified clean first — see OperandDigests::verify); anything
        // else re-decodes the whole tensor from durable storage.
        if cfg.plane_crc && detector.is_none() {
            for side in [false, true] {
                let (digests, packed, enc) = if side {
                    (&self.digests_b, &mut self.packed_b, &self.enc_b)
                } else {
                    (&self.digests_a, &mut self.packed_a, &self.enc_a)
                };
                if let Err(err) = digests.verify(packed) {
                    detector = Some(Detector::PlaneCrc);
                    localized = true;
                    repairs += 1;
                    match err {
                        IntegrityError::PlaneDigest {
                            plane: PackedPlane::Sval,
                            tile: Some(tile),
                        } => packed.rebuild_sval_range(sval_tile_range(tile, packed.len())),
                        _ => enc.decode_packed_into(packed),
                    }
                    debug_assert!(
                        digests.verify(packed).is_ok(),
                        "repair must restore digests"
                    );
                    break;
                }
            }
        }

        // The GEMM itself, with ABFT collection when armed (or when a lane
        // strike must land — collection is how the strike hook reaches the
        // accumulator; verification stays off unless cfg.abft).
        let mut out;
        let mut reexecuted = false;
        if cfg.abft || lane_strike.is_some() {
            let (result, observed) = owlp_gemm_packed_abft(
                &self.packed_a,
                &self.packed_b,
                None,
                self.m,
                self.k,
                self.n,
                lane_strike,
            )
            .expect("guarded operands stay finite");
            out = result;
            if cfg.abft {
                let reference =
                    abft::reference_sums(&self.packed_a, &self.packed_b, self.m, self.k, self.n);
                let (bad_rows, bad_cols) = abft::mismatches(&observed, &reference);
                if !bad_rows.is_empty() || !bad_cols.is_empty() {
                    detector = detector.or(Some(Detector::Abft));
                    if bad_rows.len() == 1 && bad_cols.len() == 1 {
                        // Single-strike signature: recompute one element.
                        localized = true;
                        out.output[bad_rows[0] * self.n + bad_cols[0]] = abft::recompute_element(
                            &self.packed_a,
                            &self.packed_b,
                            out.shared_a,
                            out.shared_w,
                            self.k,
                            self.n,
                            bad_rows[0],
                            bad_cols[0],
                        );
                        repairs += 1;
                    } else {
                        // Ambiguous pattern: escalate to re-execution (the
                        // transient is gone on the retry).
                        out = self.clean_rerun();
                        reexecuted = true;
                    }
                }
            }
        } else {
            out = self.clean_rerun();
        }

        // Restore pristine working planes so the harness is reusable.
        self.packed_a.clone_from(&self.pristine_a);
        self.packed_b.clone_from(&self.pristine_b);

        let bit_clean = out
            .output
            .iter()
            .zip(&self.oracle)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        GuardedRun {
            output: out.output,
            detector,
            localized,
            repairs,
            reexecuted,
            bit_clean,
        }
    }

    /// Non-mutating checked execution on the pristine state — the
    /// production call shape: verify storage digests and parity, run the
    /// GEMM with ABFT collection, and verify the checksums.
    ///
    /// # Errors
    ///
    /// The first [`IntegrityError`] an armed detector raises.
    pub fn checked_run(&self, cfg: IntegrityConfig) -> Result<OwlpGemmOutput, IntegrityError> {
        if cfg.parity {
            if let Some(index) = self.packed_a.parity_scan() {
                return Err(IntegrityError::SideBandParity { index });
            }
            if let Some(index) = self.packed_b.parity_scan() {
                return Err(IntegrityError::SideBandParity { index });
            }
        }
        if cfg.plane_crc {
            // The per-GEMM boundary verifies the planes the kernel reads;
            // the mag plane (repair source only) is scrubbed by the full
            // `verify` in the detection/repair ladder of [`Self::run`].
            self.digests_a.verify_consumed(&self.packed_a)?;
            self.digests_b.verify_consumed(&self.packed_b)?;
        }
        if cfg.abft {
            // Pristine-state contract: the working planes equal the sealed
            // ones here, so the memoised panels are the production shape.
            let (out, observed) = owlp_gemm_packed_abft(
                &self.packed_a,
                &self.packed_b,
                Some(&self.panels),
                self.m,
                self.k,
                self.n,
                None,
            )
            .expect("guarded operands stay finite");
            let reference =
                abft::reference_sums(&self.packed_a, &self.packed_b, self.m, self.k, self.n);
            abft::verify(&observed, &reference)?;
            Ok(out)
        } else {
            Ok(self.clean_rerun())
        }
    }

    fn clean_rerun(&self) -> OwlpGemmOutput {
        owlp_gemm_packed(
            &self.packed_a,
            &self.packed_b,
            None,
            self.m,
            self.k,
            self.n,
            PeConfig::PAPER,
            AlignUnit::Exact,
        )
        .expect("guarded operands stay finite")
    }

    /// One decoded operand from the working activation/weight planes (for
    /// diagnostics and tests).
    pub fn operand(&self, on_b: bool, i: usize) -> DecodedOperand {
        if on_b {
            self.packed_b.get(i)
        } else {
            self.packed_a.get(i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synth_tensor;

    fn harness() -> GuardedGemm {
        let (m, k, n) = (6, 16, 8);
        let a = synth_tensor(m * k, 31, 9);
        let b = synth_tensor(k * n, 32, 11);
        GuardedGemm::new(&a, &b, m, k, n).expect("finite workload")
    }

    #[test]
    fn clean_runs_raise_no_detector_under_any_config() {
        let mut g = harness();
        for mask in 0..IntegrityConfig::COUNT {
            let cfg = IntegrityConfig::from_bitmask(mask);
            let run = g.run(cfg, None);
            assert_eq!(run.detector, None, "false positive under {cfg:?}");
            assert!(run.bit_clean, "clean run must match the oracle ({cfg:?})");
            assert!(g.checked_run(cfg).is_ok());
        }
    }

    #[test]
    fn sval_strike_is_caught_by_crc_and_repaired_bit_identically() {
        let mut g = harness();
        let strike = Strike::from_site(FaultSite::Significand(6), true, 37, 0);
        let run = g.run(IntegrityConfig::full(), Some(strike));
        assert_eq!(run.detector, Some(Detector::PlaneCrc));
        assert!(run.localized && run.corrected() && run.bit_clean);
    }

    #[test]
    fn side_band_strikes_are_caught_by_parity_first() {
        let mut g = harness();
        for site in [
            FaultSite::ShiftBit,
            FaultSite::OutlierTag,
            FaultSite::OutlierExp(3),
        ] {
            let run = g.run(
                IntegrityConfig::full(),
                Some(Strike::from_site(site, false, 11, 0)),
            );
            assert_eq!(run.detector, Some(Detector::Parity), "{site:?}");
            assert!(run.bit_clean, "{site:?}");
        }
    }

    #[test]
    fn accumulator_strike_is_caught_by_abft_and_recomputed() {
        let mut g = harness();
        let strike = Strike::Lane(LaneStrike {
            i: 2,
            j: 5,
            bit: 31,
        });
        let run = g.run(IntegrityConfig::full(), Some(strike));
        assert_eq!(run.detector, Some(Detector::Abft));
        assert!(run.localized, "1×1 mismatch must localize");
        assert_eq!(run.repairs, 1);
        assert!(run.bit_clean, "recomputed element must match the oracle");
    }

    #[test]
    fn unprotected_data_strike_escapes() {
        // Outlier-free workload: on the outlier-heavy harness a small sval
        // perturbation can be masked by FP32 rounding of the huge outlier
        // term, which is a *masked* outcome, not an escape.
        let (m, k, n) = (6, 16, 8);
        let a = synth_tensor(m * k, 31, 0);
        let b = synth_tensor(k * n, 32, 0);
        let mut g = GuardedGemm::new(&a, &b, m, k, n).expect("finite workload");
        // A mid-significand weight strike with every detector disarmed:
        // the corruption reaches the output unchallenged.
        let strike = Strike::from_site(FaultSite::Significand(9), true, 37, 0);
        let run = g.run(IntegrityConfig::off(), Some(strike));
        assert_eq!(run.detector, None);
        assert!(!run.bit_clean, "strike must corrupt the unprotected output");
    }

    #[test]
    fn outlier_exp_strike_escapes_only_when_both_side_band_detectors_are_off() {
        let mut g = harness();
        let strike = Strike::from_site(FaultSite::OutlierExp(5), false, 0, 0);
        let off = g.run(IntegrityConfig::off(), Some(strike));
        assert!(!off.bit_clean, "exp strike re-frames an outlier product");
        let crc_only = IntegrityConfig {
            parity: false,
            plane_crc: true,
            abft: false,
        };
        let run = g.run(crc_only, Some(strike));
        assert_eq!(run.detector, Some(Detector::PlaneCrc));
        assert!(run.bit_clean);
    }
}
