//! # owlp-hw
//!
//! Analytical hardware cost models for the OwL-P evaluation (paper §VI-B):
//!
//! * [`tech`] — a 28 nm-class component library (area/energy per multiplier
//!   bit², adder bit, register bit, shifter stage, SRAM byte, HBM bit);
//! * [`pe`] — PE-level composition: the baseline BF16-multiply/FP32-add
//!   fused MAC (4-stage) versus the OwL-P 8-way INT dot-product PE with
//!   configurable outlier paths (2-stage) — reproducing Fig. 9's area/power
//!   scaling versus the number of outlier paths;
//! * [`design`] — array- and chip-level roll-up: MAC array, data setup,
//!   decoder/align/INT2FP ("others") and layout overhead, reproducing the
//!   Table V comparison;
//! * [`memory`] — the 12 MB on-chip SRAM and the 256 GB/s HBM2 off-chip
//!   link with per-access energies;
//! * [`energy`] — per-GEMM energy accounting (compute + SRAM + DRAM).
//!
//! ## Substitution note
//!
//! The paper synthesises RTL with Synopsys ICC II on a commercial 28 nm
//! process. We replace that flow with a component-level analytical model
//! whose constants are **calibrated once** against the paper's published
//! anchors (Table V: 49.46/49.52 mm², 13.04/8.93 W, 3× MAC density,
//! 4.89× per-PE energy). The model's *relative* scaling across outlier-path
//! counts and design points — which is what every conclusion rests on —
//! then follows from the component composition, not from further fitting.
//!
//! ```
//! use owlp_hw::{pe::PeCost, tech::TechLibrary};
//!
//! let lib = TechLibrary::CMOS28;
//! let fma = PeCost::bf16_fma(&lib);
//! let owlp = PeCost::owlp_pe(&lib, 8, 2, 2);
//! // ~3× more MACs in the same area.
//! let density = (fma.area_um2 / 1.0) / (owlp.area_um2 / 8.0);
//! assert!(density > 2.5 && density < 3.6);
//! ```

pub mod design;
pub mod energy;
pub mod memory;
pub mod pe;
pub mod tech;

pub use design::{DesignPoint, DesignSummary};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use memory::MemorySystem;
pub use pe::PeCost;
pub use tech::TechLibrary;
