//! # owlp-core
//!
//! The OwL-P accelerator simulator: end-to-end performance, energy and
//! numerical evaluation of LLM inference on the OwL-P design versus the
//! TPU-like BF16 baseline (the paper's §VI evaluation).
//!
//! * [`accel`] — [`Accelerator`]: runs an `owlp-model` workload through the
//!   `owlp-systolic` cycle model and the `owlp-hw` energy model, with the
//!   OwL-P number format's compression applied to off-chip traffic and the
//!   outlier-scheduling overheads `r_a`/`r_w` applied to compute cycles.
//! * [`report`] — [`SimulationReport`] with the paper's Fig. 11 per-class
//!   breakdown (QKV / attention / projection / FFN) and
//!   [`report::Comparison`] for speedup / energy-savings ratios.
//! * [`workloads`] — the ten evaluation workloads of Fig. 11.
//! * [`cosim`] — the bridge to the `owlp-mem` HBM/SRAM co-simulator:
//!   per-op fold groups racing their tile fetches, with roofline
//!   aggregation per serving phase.
//! * [`numeric`] — end-to-end numerical-equivalence verification: synthetic
//!   layers run through the full encode → INT-array → FP pipeline and
//!   compared bit-for-bit against the exact FP reference.
//!
//! ```
//! use owlp_core::{Accelerator, workloads};
//! use owlp_model::Dataset;
//!
//! let wl = &workloads::paper_workloads()[0]; // BERT-Base, 512 tokens
//! let base = Accelerator::baseline().simulate(wl, Dataset::Squad2);
//! let owlp = Accelerator::owlp().simulate(wl, Dataset::Squad2);
//! assert!(base.seconds > owlp.seconds); // OwL-P wins
//! ```

pub mod accel;
pub mod cosim;
pub mod dse;
pub mod numeric;
pub mod report;
pub mod roofline;
pub mod serving;
pub mod transformer;
pub mod workloads;

pub use accel::{Accelerator, AcceleratorKind};
pub use report::{ClassReport, Comparison, SimulationReport};
pub use transformer::{ForwardTrace, GemmEngine, TinyConfig, TinyTransformer};
