//! 28 nm-class technology component library.
//!
//! Per-component area and switching-energy constants in the range published
//! for planar 28 nm CMOS (Horowitz ISSCC'14 energy tables and standard-cell
//! datasheet orders of magnitude), with one calibration pass against the
//! paper's Table V anchors (see [`crate::design`]). All areas are µm²; all
//! energies are pJ per operation at nominal voltage.

use serde::{Deserialize, Serialize};

/// Component-level area/energy constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TechLibrary {
    /// Array-multiplier area per (operand-bit × operand-bit) product cell.
    pub mult_area_per_bit2: f64,
    /// Ripple/prefix adder area per result bit.
    pub add_area_per_bit: f64,
    /// Barrel/mux shifter area per data bit per stage.
    pub shift_area_per_bit_stage: f64,
    /// Flip-flop area per bit.
    pub reg_area_per_bit: f64,
    /// 2:1 mux area per bit.
    pub mux_area_per_bit: f64,
    /// Leading-zero/normalisation and rounding logic area per datapath bit
    /// (FP-specific overhead).
    pub fp_norm_area_per_bit: f64,

    /// Multiplier switching energy per bit² per operation.
    pub mult_energy_per_bit2: f64,
    /// Adder energy per result bit per operation.
    pub add_energy_per_bit: f64,
    /// Shifter energy per bit per stage per operation.
    pub shift_energy_per_bit_stage: f64,
    /// Register write energy per bit.
    pub reg_energy_per_bit: f64,
    /// Mux energy per bit.
    pub mux_energy_per_bit: f64,
    /// FP normalisation/rounding energy per datapath bit.
    pub fp_norm_energy_per_bit: f64,

    /// On-chip SRAM read energy per byte (large banked arrays).
    pub sram_read_pj_per_byte: f64,
    /// Off-chip HBM2 access energy per bit (I/O + DRAM core).
    pub dram_pj_per_bit: f64,
    /// Static leakage per mm² of logic, mW.
    pub leakage_mw_per_mm2: f64,
}

impl TechLibrary {
    /// The calibrated 28 nm library used throughout the reproduction.
    pub const CMOS28: TechLibrary = TechLibrary {
        mult_area_per_bit2: 4.4,
        add_area_per_bit: 4.0,
        shift_area_per_bit_stage: 1.2,
        reg_area_per_bit: 4.5,
        mux_area_per_bit: 1.4,
        fp_norm_area_per_bit: 9.0,

        mult_energy_per_bit2: 0.0034,
        add_energy_per_bit: 0.0028,
        shift_energy_per_bit_stage: 0.0011,
        reg_energy_per_bit: 0.0030,
        mux_energy_per_bit: 0.0008,
        fp_norm_energy_per_bit: 0.0090,

        sram_read_pj_per_byte: 6.0,
        dram_pj_per_bit: 2.5,
        leakage_mw_per_mm2: 18.0,
    };
}

impl Default for TechLibrary {
    fn default() -> Self {
        Self::CMOS28
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_positive() {
        let l = TechLibrary::CMOS28;
        for v in [
            l.mult_area_per_bit2,
            l.add_area_per_bit,
            l.shift_area_per_bit_stage,
            l.reg_area_per_bit,
            l.mux_area_per_bit,
            l.fp_norm_area_per_bit,
            l.mult_energy_per_bit2,
            l.add_energy_per_bit,
            l.shift_energy_per_bit_stage,
            l.reg_energy_per_bit,
            l.mux_energy_per_bit,
            l.fp_norm_energy_per_bit,
            l.sram_read_pj_per_byte,
            l.dram_pj_per_bit,
            l.leakage_mw_per_mm2,
        ] {
            assert!(v > 0.0);
        }
    }

    #[test]
    fn orders_of_magnitude_are_sane() {
        let l = TechLibrary::CMOS28;
        // An 8×8 multiplier lands in the few-hundred-µm² range.
        let m8 = l.mult_area_per_bit2 * 64.0;
        assert!((150.0..600.0).contains(&m8), "{m8}");
        // DRAM access energy dwarfs a MAC (the memory-wall premise).
        let mac_pj = l.mult_energy_per_bit2 * 64.0 + l.add_energy_per_bit * 32.0;
        assert!(l.dram_pj_per_bit * 16.0 > 50.0 * mac_pj);
    }
}
