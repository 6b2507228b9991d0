//! # owlp-mem
//!
//! Deterministic, event-driven HBM/SRAM co-simulation for the OwL-P
//! accelerator (paper §VI-A: 12 MB on-chip buffers, 256 GB/s HBM2):
//!
//! * [`offchip`] — per-channel burst timing: each tile request's bursts
//!   interleave across the HBM channels (bank-conflict-free streaming),
//!   with exact per-channel byte accounting;
//! * [`tiles`] — the double-buffered tile manager over the SRAM budget,
//!   including the §IV-D outlier-buffer overflow spill;
//! * [`cosim`] — the prefetch recurrence coupling tile fetches to fold
//!   compute, yielding per-phase `max(compute, memory)` makespans with
//!   the non-overlapped prologue exposed.
//!
//! The per-phase roofline aggregation of these results lives with the
//! closed-form roofline in `owlp_core::roofline`, next to the workload
//! phase tags it groups by.
//!
//! The whole engine is serial f64 arithmetic over integer cycle counts —
//! bit-identical across runs and `OWLP_THREADS` settings by construction,
//! and it can only *match or exceed* the closed-form
//! `MemorySystem::transfer_seconds` lower bound.
//!
//! ```
//! use owlp_hw::MemorySystem;
//! use owlp_mem::{CosimEngine, PhaseSpec};
//!
//! let engine = CosimEngine::new(MemorySystem::paper(), 500.0e6);
//! let phase = engine.run_phase(&PhaseSpec {
//!     label: "decode/ffn_up".into(),
//!     groups: 256,
//!     compute_cycles_per_group: 8,
//!     tile_bytes_per_group: 64 * 1024,
//!     outliers_per_group: 0,
//!     resident_bytes: 1 << 20,
//!     macs: 0,
//! });
//! // One token's worth of weight tiles at batch 1: the link, not the
//! // array, sets the pace.
//! assert!(phase.memory_bound);
//! assert_eq!(phase.makespan, phase.compute_cycles.max(phase.memory_cycles) + phase.prologue);
//! ```

pub mod cosim;
pub mod offchip;
pub mod tiles;

pub use cosim::{CosimEngine, PhaseResult, PhaseSpec};
pub use offchip::ChannelSim;
pub use tiles::TilePlan;
