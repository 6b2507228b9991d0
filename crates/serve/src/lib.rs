//! # owlp-serve
//!
//! Trace-driven continuous-batching serving simulator for the OwL-P
//! accelerator — the paper evaluates isolated GEMM workloads, this crate
//! answers the serving question: *what latency do users see under load,
//! and how much offered load does each design sustain?*
//!
//! * [`request`] — request generation: Poisson/bursty arrival processes ×
//!   configurable prompt/generation length distributions, seeded and
//!   deterministic.
//! * [`cost`] — [`CostModel`]: prices scheduler iterations through the
//!   `owlp-core` [`Accelerator`] cycle model (memoised per shape bucket).
//! * [`scheduler`] — the continuous-batching discrete-event loop:
//!   iteration-level batches, FIFO admission from a bounded queue,
//!   rejection backpressure, per-request latency records, and the fault
//!   plan's crashes, stalls, retries and SDCs.
//! * [`pool`] — multi-worker array pool: shards a trace round-robin
//!   across the [`owlp_par`] worker grid (`OWLP_THREADS`), re-dispatches a
//!   crashed worker's requests, and merges outcomes deterministically.
//! * [`fault`] — seeded fault plans (crashes, stalls, transient failures,
//!   criticality-weighted SDCs resolved against the measured
//!   `owlp-integrity` detection profile) and recovery policies (deadlines,
//!   bounded retry with jittered exponential backoff, degraded admission,
//!   localized tile recompute). The fault-free run is the empty plan.
//! * [`metrics`] — the [`MetricsReport`]: nearest-rank TTFT/TPOT/E2E
//!   percentiles at p50/p95/p99, goodput and rejection rate, plus
//!   availability and the recovery-path counters.
//! * [`error`] — the crate-level [`ServeError`].
//!
//! The simulator prices requests through the cycle model and holds no
//! weights. A functional forward pass loads its weights with
//! `owlp_core::TinyTransformer::from_archive`, which maps an archive-v2
//! file and runs every GEMM off the mapped planes.
//!
//! ```
//! use owlp_core::Accelerator;
//! use owlp_model::{Dataset, ModelId};
//! use owlp_serve::request::{ArrivalProcess, LengthDistribution, TraceSpec};
//! use owlp_serve::{serve_trace, PoolConfig};
//!
//! let trace = TraceSpec {
//!     arrivals: ArrivalProcess::Poisson { rate_rps: 20.0 },
//!     prompt: LengthDistribution::Uniform { lo: 16, hi: 128 },
//!     gen: LengthDistribution::Uniform { lo: 8, hi: 64 },
//!     requests: 64,
//!     seed: 7,
//! }
//! .generate();
//! let report = serve_trace(
//!     Accelerator::owlp(),
//!     ModelId::Gpt2Base,
//!     Dataset::WikiText2,
//!     &PoolConfig::default(),
//!     &trace,
//! )
//! .unwrap();
//! assert_eq!(report.summary.completed + report.summary.rejected, 64);
//! ```

pub mod cost;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod pool;
pub mod request;
pub mod scheduler;

pub use cost::CostModel;
pub use error::ServeError;
pub use fault::{
    backoff_delay_s, FaultPlan, FaultSpec, RecoveryPolicy, SdcSampler, StallWindow, WorkerFaultPlan,
};
pub use metrics::{summarize, MetricsReport, Percentiles, ServingSummary};
pub use owlp_integrity::IntegrityConfig;
pub use pool::{simulate_pool, PoolConfig};
pub use request::{ArrivalProcess, LengthDistribution, Request, TraceSpec};
pub use scheduler::{simulate, CompletedRequest, FaultStats, SchedulerConfig, SimOutcome};

use owlp_core::Accelerator;
use owlp_model::{Dataset, ModelId};

/// Offered load measured from the trace itself (requests over the arrival
/// span; 0 for degenerate traces).
fn offered_rps(trace: &[Request]) -> f64 {
    let span = trace.last().map(|r| r.arrival_s).unwrap_or(0.0);
    if span > 0.0 {
        trace.len() as f64 / span
    } else {
        0.0
    }
}

/// One-call convenience: simulate a trace on a pool under its fault plan
/// and recovery policy, then roll the outcome up into a [`MetricsReport`].
///
/// The offered load reported in the summary is measured from the trace
/// itself (requests over the arrival span).
///
/// # Errors
///
/// See [`simulate_pool`].
pub fn serve_trace(
    acc: Accelerator,
    model: ModelId,
    dataset: Dataset,
    pool: &PoolConfig,
    trace: &[Request],
) -> Result<MetricsReport, ServeError> {
    let cost = CostModel::new(acc, model, dataset);
    let outcome = simulate_pool(&cost, pool, trace)?;
    let design = cost.accelerator().design().name;
    Ok(summarize(design, offered_rps(trace), &outcome))
}
