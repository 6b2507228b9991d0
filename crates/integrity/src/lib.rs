//! # owlp-integrity
//!
//! Cross-layer data integrity for the OwL-P datapath: storage checksums on
//! the packed operand planes, side-band parity on the control wires, and
//! exact algorithm-based fault tolerance (ABFT) over the integer GEMM —
//! with *real* fault injection, localization, and repair rather than
//! probabilistic coverage knobs.
//!
//! The layer exploits the property the paper's datapath is built on: every
//! normal product is an **integer on a shared exponent frame**, so row and
//! column sums of the raw accumulator words obey closed integer arithmetic.
//! An independently computed reference must match *exactly* — there is no
//! FP tolerance band, hence **zero false positives** — and a single upset
//! perturbs exactly one row and one column sum by `±2^bit`, localizing the
//! damaged output element for an `O(k)` repair.
//!
//! Three detectors, by fault domain:
//!
//! * **side-band parity** ([`owlp_format::packed::META_PAR`]) guards the
//!   `{sh, tag, exp}` control wires — the fields the fault-sensitivity
//!   analysis in `owlp-arith::fault` singles out as critical. Meta-plane
//!   corruption is *latent*: the hot kernel consumes pre-baked `sval`
//!   words, so a flipped tag or shift bit silently corrupts any later
//!   re-derivation. Parity catches it at load time, before it can.
//! * **plane digests** ([`OperandDigests`], CRC32C) guard the data planes.
//!   The `sval` plane is digested in [`SVAL_TILE`]-element tiles so a hit
//!   localizes to one tile, repairable in place from the (clean) `mag` and
//!   `meta` planes via [`owlp_format::PackedOperands::rebuild_sval_range`].
//! * **ABFT checksums** ([`abft`]) guard the arithmetic itself: transient
//!   upsets inside accumulator lanes that no storage checksum can see.
//!
//! [`GuardedGemm`] threads all three around one GEMM execution and drives
//! the escalation ladder *detect → localize → repair → re-execute*;
//! [`fault_sweep`] measures coverage by injecting thousands of single-bit
//! strikes into real executions; [`DetectionProfile`] condenses those
//! measurements per fault site for the serving layer's SDC model.

pub mod abft;
pub mod checked;
pub mod digest;
pub mod profile;
pub mod sweep;
pub mod workload;

pub use checked::{Detector, GuardedGemm, GuardedRun, IntegrityConfig, Strike};
pub use digest::{IntegrityError, OperandDigests, PanelDigests, SVAL_TILE};
pub use profile::{DetectionProfile, SiteProfile};
pub use sweep::{fault_sweep, ClassCoverage, SweepReport};
