//! Fault-injection analysis of the decoded-operand datapath.
//!
//! Bit flips are injected into decoded operands (significand, sign, shift
//! bit, outlier tag, outlier exponent) and the corrupted dot product is
//! compared against the fault-free result. The analysis quantifies which
//! fields are critical — e.g. a flipped **outlier tag** mis-frames an
//! entire product by the gap between the shared and outlier exponents
//! (potentially hundreds of binary orders), while a significand LSB flip
//! moves the result by at most one pre-shift-scaled ulp. This motivates
//! protecting tag/exponent side-band wires in a real implementation.

use crate::column::PeColumn;
use crate::pe::PeConfig;
use owlp_format::decode::DecodedOperand;
use owlp_format::{Bf16, BiasDecoder, ExponentWindow};
use serde::{Deserialize, Serialize};

/// Which field of a decoded operand a fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultSite {
    /// A bit of the pre-aligned significand (`0..DecodedOperand::MAG_BITS`).
    Significand(u8),
    /// The sign wire.
    Sign,
    /// The shift bit (`sh`): a flip mis-scales the product by 2^±4.
    ShiftBit,
    /// The outlier tag: a flip re-frames the product entirely.
    OutlierTag,
    /// A bit of the outlier exponent side-band (`0..Bf16::EXP_BITS`).
    OutlierExp(u8),
}

impl FaultSite {
    /// All injectable sites. Bit ranges derive from the format constants:
    /// [`DecodedOperand::MAG_BITS`] significand wires and
    /// [`Bf16::EXP_BITS`] outlier-exponent side-band wires.
    pub fn all() -> Vec<FaultSite> {
        let mut v: Vec<FaultSite> = (0..DecodedOperand::MAG_BITS as u8)
            .map(FaultSite::Significand)
            .collect();
        v.push(FaultSite::Sign);
        v.push(FaultSite::ShiftBit);
        v.push(FaultSite::OutlierTag);
        v.extend((0..Bf16::EXP_BITS as u8).map(FaultSite::OutlierExp));
        v
    }

    /// Whether this site rides the tag/exponent **side-band** (the control
    /// wires the module-level analysis singles out as critical) rather than
    /// the significand data word. Side-band wires are the ones a parity bit
    /// over `{tag, sh, exp}` would cover in a real implementation.
    pub fn side_band(self) -> bool {
        matches!(
            self,
            FaultSite::OutlierTag | FaultSite::ShiftBit | FaultSite::OutlierExp(_)
        )
    }

    /// Applies the fault to one operand.
    pub fn inject(self, op: &mut DecodedOperand) {
        match self {
            FaultSite::Significand(b) => op.mag ^= 1 << b,
            FaultSite::Sign => op.sign = !op.sign,
            FaultSite::ShiftBit => op.sh = !op.sh,
            FaultSite::OutlierTag => op.tag = !op.tag,
            FaultSite::OutlierExp(b) => op.exp ^= 1 << b,
        }
    }
}

/// Outcome of injecting one fault into one dot product.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultOutcome {
    /// The injected site.
    pub site: FaultSite,
    /// Fault-free result.
    pub golden: f32,
    /// Faulty result.
    pub observed: f32,
    /// `|observed − golden| / max(|golden|, ε)`.
    pub relative_error: f64,
}

impl FaultOutcome {
    /// Whether the fault was silent (no output change).
    pub fn silent(&self) -> bool {
        self.observed.to_bits() == self.golden.to_bits()
    }
}

/// Injects `site` into operand `lane` of the activation vector and
/// evaluates the dot product on a PE column. `lane` must index `acts`, and
/// `acts` and `wts` must have equal lengths.
fn inject_into_dot(
    acts: &[DecodedOperand],
    wts: &[DecodedOperand],
    shared_a: u8,
    shared_w: u8,
    lane: usize,
    site: FaultSite,
) -> FaultOutcome {
    assert_eq!(acts.len(), wts.len(), "operand length mismatch");
    assert!(lane < acts.len(), "lane out of range");
    let rows = acts.len().div_ceil(PeConfig::PAPER.lanes).max(1);
    let column = PeColumn::new(PeConfig::PAPER, rows);
    let golden = column
        .compute_unchecked(acts, wts, shared_a, shared_w)
        .value;
    let mut faulty = acts.to_vec();
    site.inject(&mut faulty[lane]);
    let observed = column
        .compute_unchecked(&faulty, wts, shared_a, shared_w)
        .value;
    FaultOutcome {
        site,
        golden,
        observed,
        relative_error: (observed as f64 - golden as f64).abs()
            / (golden.abs() as f64).max(f64::MIN_POSITIVE),
    }
}

/// One row of the criticality-ranked site table: how much damage a bit
/// flip at `site` does on a representative dot product, and whether a
/// side-band parity bit would see it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SiteCriticality {
    /// The fault site.
    pub site: FaultSite,
    /// Mean relative error over the reference sweep, floored at `1e-12` so
    /// even silent sites keep a non-zero sampling weight.
    pub weight: f64,
    /// Whether the site is on the parity-protectable tag/exponent side-band
    /// (see [`FaultSite::side_band`]).
    pub side_band: bool,
}

/// The criticality-ranked site table: every injectable site scored by the
/// mean relative error it causes across a fixed, representative operand set
/// (mixed magnitudes plus genuine outliers so the tag/exponent side-band is
/// exercised), sorted most-critical first.
///
/// The table is a pure function — same ranking on every call and every
/// machine — which is what lets a serving-level SDC sampler draw sites
/// weighted by hardware criticality while staying bit-reproducible.
pub fn criticality_table() -> Vec<SiteCriticality> {
    const BASE: u8 = 124;
    let dec = BiasDecoder::new(BASE);
    let w = ExponentWindow::owlp(BASE);
    let decode = |xs: &[f32]| -> Vec<DecodedOperand> {
        xs.iter()
            .map(|&x| dec.decode_bf16(Bf16::from_f32(x), w))
            .collect()
    };
    // Two outliers per vector (1e6 and 3e-7 sit far outside the 7-exponent
    // window at base 124), the rest moderate normals.
    let acts = decode(&[1.5, -2.0, 1.0e6, 0.5, 3.0, -0.25, 3.0e-7, 2.5]);
    let wts = decode(&[0.5, 1.0, 2.0, -4.0, 0.5, 4.0, 1.0, -0.5]);
    let lanes = acts.len();
    let mut table: Vec<SiteCriticality> = FaultSite::all()
        .into_iter()
        .map(|site| {
            let mean = (0..lanes)
                .map(|lane| inject_into_dot(&acts, &wts, BASE, BASE, lane, site).relative_error)
                .sum::<f64>()
                / lanes as f64;
            SiteCriticality {
                site,
                weight: mean.max(1e-12),
                side_band: site.side_band(),
            }
        })
        .collect();
    table.sort_by(|a, b| b.weight.partial_cmp(&a.weight).expect("weights are finite"));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operands(xs: &[f32], base: u8) -> Vec<DecodedOperand> {
        let w = ExponentWindow::owlp(base);
        let dec = BiasDecoder::new(base);
        xs.iter()
            .map(|&x| dec.decode_bf16(Bf16::from_f32(x), w))
            .collect()
    }

    #[test]
    fn tag_flip_on_a_normal_operand_is_catastrophic() {
        // A normal operand suddenly claims the outlier frame (exp byte 0 →
        // subnormal scale): the product collapses by ~2^-130.
        let acts = operands(&[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], 124);
        let wts = operands(&[1.0; 8], 124);
        let out = inject_into_dot(&acts, &wts, 124, 124, 2, FaultSite::OutlierTag);
        assert!(out.relative_error > 0.05, "{out:?}");
    }

    #[test]
    fn significand_lsb_flip_is_bounded() {
        let acts = operands(&[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], 124);
        let wts = operands(&[1.0; 8], 124);
        let out = inject_into_dot(&acts, &wts, 124, 124, 0, FaultSite::Significand(0));
        // One ulp of a 1.0 operand against a sum of 20: ≤ 1/128/20.
        assert!(out.relative_error < 1e-2, "{out:?}");
        assert!(!out.silent());
    }

    #[test]
    fn shift_bit_flip_scales_by_sixteen() {
        // Operand value 1.0 with sh=0 becomes ×16 when sh flips.
        let acts = operands(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 124);
        let wts = operands(&[1.0; 8], 124);
        let out = inject_into_dot(&acts, &wts, 124, 124, 0, FaultSite::ShiftBit);
        assert_eq!(out.golden, 1.0);
        assert_eq!(out.observed, 16.0);
    }

    #[test]
    fn sign_flip_negates_the_contribution() {
        let acts = operands(&[3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 124);
        let wts = operands(&[1.0; 8], 124);
        let out = inject_into_dot(&acts, &wts, 124, 124, 0, FaultSite::Sign);
        assert_eq!(out.golden, 4.0);
        assert_eq!(out.observed, -2.0);
    }

    #[test]
    fn sensitivity_ranking_places_control_bits_first() {
        // The frame-level faults (high outlier-exponent bits, the shift
        // bit) dominate data-bit faults, and the least sensitive site is
        // the significand LSB.
        let t = criticality_table();
        let top: Vec<FaultSite> = t.iter().take(3).map(|r| r.site).collect();
        assert!(
            top.iter().all(|s| matches!(s, FaultSite::OutlierExp(5..))),
            "top sites {top:?}"
        );
        let weight_of = |site: FaultSite| t.iter().find(|r| r.site == site).unwrap().weight;
        let worst_data_bit = (0..DecodedOperand::MAG_BITS as u8)
            .map(|b| weight_of(FaultSite::Significand(b)))
            .fold(0.0, f64::max);
        assert!(weight_of(FaultSite::ShiftBit) > worst_data_bit);
        assert_eq!(t.last().unwrap().site, FaultSite::Significand(0));
    }

    #[test]
    fn site_list_is_derived_from_format_constants() {
        let all = FaultSite::all();
        let sig = all
            .iter()
            .filter(|s| matches!(s, FaultSite::Significand(_)))
            .count();
        let exp = all
            .iter()
            .filter(|s| matches!(s, FaultSite::OutlierExp(_)))
            .count();
        assert_eq!(sig, DecodedOperand::MAG_BITS as usize);
        assert_eq!(exp, Bf16::EXP_BITS as usize);
        assert_eq!(all.len(), sig + exp + 3); // + sign, shift, tag
    }

    #[test]
    fn criticality_table_is_ranked_deterministic_and_flags_side_band() {
        let t = criticality_table();
        assert_eq!(t.len(), FaultSite::all().len());
        for w in t.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
        assert!(t.iter().all(|r| r.weight > 0.0));
        assert_eq!(criticality_table(), t);
        for r in &t {
            assert_eq!(r.side_band, r.site.side_band());
        }
        // The ranking reproduces the module-level conclusion: the most
        // critical wires are all on the tag/exponent side-band (a flipped
        // high exponent bit mis-frames a product by hundreds of binary
        // orders), and even the tag out-damages the significand LSB.
        assert!(t[..4].iter().all(|r| r.side_band), "{:?}", &t[..4]);
        let weight_of = |site: FaultSite| t.iter().find(|r| r.site == site).unwrap().weight;
        assert!(weight_of(FaultSite::OutlierTag) > weight_of(FaultSite::Significand(0)));
    }

    #[test]
    fn outlier_exp_faults_on_normals_are_silent() {
        // Normal operands ignore the exponent side-band: flipping it does
        // nothing (tag is clear). This is a masking property, not a bug.
        let acts = operands(&[1.0; 8], 124);
        let wts = operands(&[1.0; 8], 124);
        let out = inject_into_dot(&acts, &wts, 124, 124, 0, FaultSite::OutlierExp(3));
        assert!(out.silent());
    }
}
