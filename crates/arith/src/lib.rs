//! # owlp-arith
//!
//! Arithmetic datapath models for the OwL-P accelerator (paper §IV):
//!
//! * [`kulisch`] — an exact fixed-point super-accumulator over BF16
//!   products; the golden reference every other path is checked against.
//! * [`exact`] — correctly-rounded (single-rounding) FP32 dot products and
//!   GEMM built on the Kulisch accumulator.
//! * [`fpmac`] — the baseline **BF16-multiply / FP32-accumulate** MAC of the
//!   TPU-like comparison design (sequential rounding at every add).
//! * [`pipeline`] — register-accurate 2-stage (OwL-P) and 4-stage (FMA)
//!   PE pipeline timing models (paper Table V);
//! * [`pe`] — the OwL-P processing element: 8-way INT dot product with
//!   per-lane path selection and the `{0,4,8}`-bit post-multiply shifter
//!   (paper Fig. 4a).
//! * [`align`] / [`int2fp`] — the bottom-of-column align unit and INT-to-FP
//!   converter (paper Fig. 4b/c), in both an exact and a bounded-width
//!   hardware variant.
//! * [`mod@column`] — a weight-stationary PE column combining partial-sum and
//!   outlier-path propagation.
//! * [`gemm`] — end-to-end functional GEMMs: `owlp_gemm` (encode → decode →
//!   INT array → FP), the FP baseline, and the exact reference.
//! * [`fault`] — fault-injection sensitivity analysis of the decoded
//!   operand fields (which wires a real implementation should protect);
//! * [`testbench`] — a coverage-driven randomized self-checking testbench
//!   over the whole GEMM pipeline;
//! * [`quant`] — the comparison schemes of paper Table I: plain INT8
//!   quantization, INT8 + FP outliers, and block floating point.
//!
//! ## The numerical-accuracy claim, precisely
//!
//! OwL-P accumulates every product **exactly** in integer form and rounds
//! **once** when converting to FP32. Its result is therefore the correctly
//! rounded FP32 value of the mathematically exact dot product — at least as
//! accurate as *any* FP accumulation order, and bit-reproducible. The crate's
//! tests assert `owlp_gemm == exact_gemm` **bit-for-bit** and that the
//! sequential-FP32 baseline's error w.r.t. the exact sum is never smaller.
//!
//! ```
//! use owlp_format::Bf16;
//! use owlp_arith::{exact, gemm};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a: Vec<Bf16> = [1.5f32, -2.0, 1000.0, 3.0e-4].iter().map(|&x| Bf16::from_f32(x)).collect();
//! let b: Vec<Bf16> = [0.25f32, 4.0, -1.0e-3, 2.0].iter().map(|&x| Bf16::from_f32(x)).collect();
//! let owlp = gemm::owlp_gemm(&a, &b, 1, 4, 1)?;
//! let golden = exact::exact_gemm(&a, &b, 1, 4, 1);
//! assert_eq!(owlp.output[0].to_bits(), golden[0].to_bits());
//! # Ok(())
//! # }
//! ```

pub mod align;
pub mod column;
pub mod error;
pub mod exact;
pub mod fault;
pub mod fpmac;
pub mod gemm;
pub mod int2fp;
pub mod kulisch;
mod lanes;
pub mod microkernel;
pub mod pe;
pub mod pipeline;
pub mod quant;
pub mod testbench;
pub mod window;

pub use align::{AlignUnit, Contribution};
pub use error::ArithError;
pub use exact::{exact_dot, exact_gemm};
pub use fpmac::{fp_mac_dot, fp_mac_gemm};
pub use gemm::{
    owlp_gemm, owlp_gemm_packed_abft, owlp_gemm_prepared_f32_with, owlp_gemm_prepared_with,
    AbftSums, GemmScratch, LaneStrike, OwlpGemmOutput, PreparedTensor,
};
pub use kulisch::KulischAcc;
pub use pe::{LaneProduct, PeConfig, ProcessingElement};
pub use window::WindowAcc;
