//! # owlp-systolic
//!
//! Weight-stationary systolic-array performance model for OwL-P (paper §V):
//!
//! * [`config`] — array geometries for the TPU-like BF16 baseline and the
//!   OwL-P INT design (paper Table V).
//! * [`cycle_model`] — the closed-form cycle counts: Eq. (3) for the plain
//!   weight-stationary dataflow and Eq. (4) with the outlier-scheduling
//!   overheads `r_a`/`r_w` folded in.
//! * [`schedule`] — the outlier-aware scheduler (paper Fig. 6): measures
//!   outlier pressure per input row / weight column and inserts zeros to
//!   regulate the number of simultaneous outlier results per column
//!   wavefront; computes `T_a`, `T_w` and therefore `r_a`, `r_w`.
//! * [`trace`] — VCD waveform dumps of simulated GEMMs (fold activity,
//!   streamed rows, zero insertions, outlier wavefront occupancy);
//! * [`event_sim`] — an independent cycle-accurate event-driven simulation
//!   of a (small) array that tracks outlier-path occupancy per PE per cycle,
//!   verifies the scheduler's no-conflict guarantee, reproduces the GEMM
//!   results bit-exactly and cross-validates the closed-form cycle counts.
//!
//! ```
//! use owlp_systolic::{ArrayConfig, cycle_model};
//!
//! let cfg = ArrayConfig::OWLP_PAPER;
//! let t = cycle_model::cycles_eq3(&cfg, 512, 768, 768);
//! assert!(t > 0);
//! ```

pub mod config;
pub mod cycle_model;
pub mod event_sim;
pub mod schedule;
pub mod trace;

pub use config::ArrayConfig;
pub use cycle_model::{cycles_eq3, cycles_eq4, CycleBreakdown};
pub use schedule::{OutlierSchedule, ScheduleStats};
