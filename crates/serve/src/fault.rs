//! Seeded, deterministic fault plans and recovery policies.
//!
//! A [`FaultPlan`] is *data*: per-worker crash times, stall windows, and
//! per-iteration transient-failure / silent-data-corruption probabilities,
//! plus a per-worker RNG stream seed. The scheduler consumes the plan with
//! its own deterministic draws, so every metric stays a pure function of
//! `(trace, config, fault plan, seed)` — fault-injection runs replay
//! bit-for-bit, which is what makes robustness regressions testable.
//!
//! Three fault classes are modelled:
//!
//! * **worker crashes** — the worker halts at `crash_at_s`; everything it
//!   held (queued, running, backing off, not yet ingested) is returned to
//!   the pool as orphans and re-dispatched to surviving workers;
//! * **worker stalls** — cost multipliers over a time window (thermal
//!   throttling, contended HBM, a sick DMA engine);
//! * **transient iteration failures & SDCs** — per-iteration events. A
//!   transient failure costs one victim request its iteration and sends it
//!   through bounded retry with exponential backoff; an SDC strikes either
//!   an accumulator lane or a [`FaultSite`](SdcSite) drawn from the
//!   `owlp-arith` criticality table, and its fate comes from the **measured**
//!   [`owlp_integrity::DetectionProfile`] of the policy's armed detectors
//!   (side-band parity, plane CRCs, ABFT checksums) — real injections into
//!   real GEMMs, not a coverage coin flip. Detected-and-localized strikes
//!   are corrected at tile-recompute cost; detected-but-unlocalized ones
//!   re-execute the iteration; undetected corruptions ride a response out
//!   silently and surface in `corrupted_responses`.

use crate::request::SplitMix64;
use owlp_arith::fault::{criticality_table, SiteCriticality};
use owlp_integrity::IntegrityConfig;
use serde::Serialize;
use std::sync::OnceLock;

/// A window during which a worker runs slow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StallWindow {
    /// Window start, seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub until_s: f64,
    /// Cost multiplier applied to iterations starting inside the window
    /// (`> 1` slows the worker down).
    pub slowdown: f64,
}

/// The fault plan of one worker.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct WorkerFaultPlan {
    /// When the worker dies, if ever.
    pub crash_at_s: Option<f64>,
    /// Slow periods.
    pub stalls: Vec<StallWindow>,
    /// Per-iteration transient-failure probability, permille.
    pub iter_fail_permille: u32,
    /// Per-iteration silent-data-corruption probability, permille.
    pub sdc_permille: u32,
    /// Seed of this worker's fault-draw stream.
    pub stream_seed: u64,
}

impl WorkerFaultPlan {
    /// Whether this plan injects nothing.
    pub fn is_zero(&self) -> bool {
        self.crash_at_s.is_none()
            && self.stalls.is_empty()
            && self.iter_fail_permille == 0
            && self.sdc_permille == 0
    }

    /// Cost multiplier at time `t` (1.0 outside every stall window).
    pub fn stall_multiplier(&self, t: f64) -> f64 {
        self.stalls
            .iter()
            .find(|w| w.from_s <= t && t < w.until_s)
            .map(|w| w.slowdown.max(1.0))
            .unwrap_or(1.0)
    }
}

/// The pool-wide fault plan: one entry per worker.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct FaultPlan {
    /// Per-worker plans, indexed like the pool's workers.
    pub workers: Vec<WorkerFaultPlan>,
}

impl FaultPlan {
    /// The all-healthy plan for `workers` workers.
    pub fn none(workers: usize) -> FaultPlan {
        FaultPlan {
            workers: vec![WorkerFaultPlan::default(); workers],
        }
    }

    /// Whether no worker injects anything.
    pub fn is_zero(&self) -> bool {
        self.workers.iter().all(WorkerFaultPlan::is_zero)
    }

    /// Whether any worker ever crashes.
    pub fn has_crashes(&self) -> bool {
        self.workers.iter().any(|w| w.crash_at_s.is_some())
    }

    /// Healthy-worker count at time `t` (crash times are plan data, so this
    /// is known without simulating).
    pub fn healthy_at(&self, t: f64) -> usize {
        self.workers
            .iter()
            .filter(|w| w.crash_at_s.map(|c| c > t).unwrap_or(true))
            .count()
    }
}

/// Generator spec: samples a [`FaultPlan`] deterministically from a seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultSpec {
    /// Plan seed; same seed ⇒ identical plan.
    pub seed: u64,
    /// Time horizon crashes/stalls are placed in, seconds.
    pub horizon_s: f64,
    /// Per-worker probability of one crash inside the horizon, permille.
    pub crash_permille: u32,
    /// Per-worker probability of one stall window, permille.
    pub stall_permille: u32,
    /// Stall window length, seconds.
    pub stall_len_s: f64,
    /// Stall cost multiplier.
    pub stall_slowdown: f64,
    /// Per-iteration transient-failure probability, permille.
    pub iter_fail_permille: u32,
    /// Per-iteration SDC probability, permille.
    pub sdc_permille: u32,
}

impl FaultSpec {
    /// Materialises the plan for a pool of `workers` workers.
    pub fn plan(&self, workers: usize) -> FaultPlan {
        let mut rng = SplitMix64::new(self.seed);
        let horizon = self.horizon_s.max(0.0);
        let uniform = |rng: &mut SplitMix64| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let plans = (0..workers)
            .map(|w| {
                let crash = rng.below(1000) < u64::from(self.crash_permille.min(1000));
                let crash_at_s = crash.then(|| {
                    // Keep crashes strictly inside the horizon so there is
                    // load both before and after.
                    horizon * (0.2 + 0.6 * uniform(&mut rng))
                });
                let stall = rng.below(1000) < u64::from(self.stall_permille.min(1000));
                let stalls = if stall {
                    let from_s = horizon * uniform(&mut rng);
                    vec![StallWindow {
                        from_s,
                        until_s: from_s + self.stall_len_s.max(0.0),
                        slowdown: self.stall_slowdown.max(1.0),
                    }]
                } else {
                    Vec::new()
                };
                WorkerFaultPlan {
                    crash_at_s,
                    stalls,
                    iter_fail_permille: self.iter_fail_permille,
                    sdc_permille: self.sdc_permille,
                    stream_seed: self.seed ^ (w as u64).wrapping_mul(0xA076_1D64_78BD_642F),
                }
            })
            .collect();
        FaultPlan { workers: plans }
    }
}

/// Scheduler-level recovery knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RecoveryPolicy {
    /// Per-request end-to-end deadline; requests that cannot (queue drop)
    /// or did not (late completion) make it are counted `deadline_missed`.
    /// `None` disables deadline accounting entirely.
    pub deadline_s: Option<f64>,
    /// Retry budget per request: a request evicted by its
    /// `max_retries + 1`-th transient failure is dropped as failed.
    pub max_retries: u32,
    /// First backoff delay, seconds.
    pub backoff_base_s: f64,
    /// Backoff ceiling, seconds.
    pub backoff_cap_s: f64,
    /// Deterministic-jitter amplitude, permille of the raw delay (clamped
    /// to 500 so the schedule stays monotone under doubling).
    pub jitter_permille: u32,
    /// Which integrity detectors the datapath arms. Detection/correction
    /// outcomes come from the measured
    /// [`owlp_integrity::DetectionProfile`] of this configuration — real
    /// injection results, not probabilities.
    pub integrity: IntegrityConfig,
    /// Cost of a localized repair (tile rebuild / element recompute),
    /// permille of one decode-iteration step. Detected-but-unlocalized
    /// strikes re-execute the whole iteration instead.
    pub tile_recompute_cost_permille: u32,
    /// Tighten admission when healthy-worker count drops: each survivor's
    /// effective queue capacity scales with the healthy fraction, shedding
    /// load early instead of queueing it into certain deadline misses.
    pub degraded_admission: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            deadline_s: None,
            max_retries: 3,
            backoff_base_s: 0.05,
            backoff_cap_s: 2.0,
            jitter_permille: 250,
            integrity: IntegrityConfig::full(),
            tile_recompute_cost_permille: 50,
            degraded_admission: true,
        }
    }
}

impl RecoveryPolicy {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range knob.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(d) = self.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(format!("deadline_s must be positive and finite, got {d}"));
            }
        }
        if !self.backoff_base_s.is_finite() || self.backoff_base_s <= 0.0 {
            return Err(format!(
                "backoff_base_s must be positive and finite, got {}",
                self.backoff_base_s
            ));
        }
        if !self.backoff_cap_s.is_finite() || self.backoff_cap_s < self.backoff_base_s {
            return Err(format!(
                "backoff_cap_s must be finite and ≥ backoff_base_s, got {}",
                self.backoff_cap_s
            ));
        }
        Ok(())
    }
}

/// The retry/backoff schedule: delay before re-admitting `request_id` after
/// its `attempt`-th transient failure (`attempt` counts from 0).
///
/// Exponential doubling from `backoff_base_s` with deterministic jitter
/// hashed from `(seed, request_id, attempt)`, capped at `backoff_cap_s`.
/// The jitter factor lives in `[1, 1.5]`, so the schedule is non-decreasing
/// in `attempt` for **any** seed — doubling always out-runs the jitter —
/// while distinct requests still decorrelate (no retry stampede).
pub fn backoff_delay_s(policy: &RecoveryPolicy, seed: u64, request_id: u64, attempt: u32) -> f64 {
    let raw = policy.backoff_base_s * 2f64.powi(attempt.min(62) as i32);
    let mut rng = SplitMix64::new(
        seed ^ request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 48),
    );
    let amplitude = f64::from(policy.jitter_permille.min(500)) / 1000.0;
    let jitter = 1.0 + amplitude * (rng.below(1 << 20) as f64 / (1u64 << 20) as f64);
    (raw * jitter).min(policy.backoff_cap_s.max(policy.backoff_base_s))
}

/// Weighted sampler over the `owlp-arith` fault-site criticality table.
///
/// Sites are drawn proportionally to the relative damage they cause on the
/// reference dot-product sweep, so injected SDCs follow the hardware's real
/// sensitivity profile: mostly-harmless significand LSB flips are rare,
/// catastrophic exponent side-band flips common.
#[derive(Debug, Clone)]
pub struct SdcSampler {
    table: Vec<SiteCriticality>,
    /// Cumulative weights, same indexing as `table`.
    cumulative: Vec<f64>,
}

impl SdcSampler {
    /// Builds the sampler from [`criticality_table`]. Weights are log-scaled
    /// before accumulation — raw relative errors span ~28 decades, which
    /// would make every draw the top exponent bit.
    pub fn new() -> SdcSampler {
        Self::from_table(criticality_table())
    }

    /// The process-wide memoized sampler. [`criticality_table`] re-prices
    /// the whole sensitivity sweep (thousands of dot products) on every
    /// call, so build it once and share the result — per-worker simulation
    /// fallbacks must not pay that per invocation.
    pub fn shared() -> &'static SdcSampler {
        static SHARED: OnceLock<SdcSampler> = OnceLock::new();
        SHARED.get_or_init(SdcSampler::new)
    }

    /// Builds from an explicit table (tests).
    pub fn from_table(table: Vec<SiteCriticality>) -> SdcSampler {
        let mut cumulative = Vec::with_capacity(table.len());
        let mut acc = 0.0f64;
        for row in &table {
            // log-compress: weight 1e-12 → 1, weight 1e24 → 37.
            acc += (row.weight * 1e12).max(1.0).ln() + 1.0;
            cumulative.push(acc);
        }
        SdcSampler { table, cumulative }
    }

    /// Draws one site.
    pub fn draw(&self, rng: &mut SplitMix64) -> &SiteCriticality {
        let total = *self.cumulative.last().expect("table is non-empty");
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        let idx = self.cumulative.partition_point(|&c| c <= u);
        &self.table[idx.min(self.table.len() - 1)]
    }

    /// The underlying ranked table.
    pub fn table(&self) -> &[SiteCriticality] {
        &self.table
    }
}

impl Default for SdcSampler {
    fn default() -> Self {
        Self::new()
    }
}

/// Re-export so serving code can match on sites without depending on
/// `owlp-arith` directly.
pub use owlp_arith::fault::FaultSite as SdcSite;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_zero() {
        let p = FaultPlan::none(4);
        assert!(p.is_zero());
        assert!(!p.has_crashes());
        assert_eq!(p.healthy_at(0.0), 4);
        assert_eq!(p.healthy_at(1e9), 4);
    }

    #[test]
    fn spec_plans_are_seed_reproducible() {
        let spec = FaultSpec {
            seed: 7,
            horizon_s: 10.0,
            crash_permille: 500,
            stall_permille: 500,
            stall_len_s: 2.0,
            stall_slowdown: 3.0,
            iter_fail_permille: 20,
            sdc_permille: 10,
        };
        assert_eq!(spec.plan(8), spec.plan(8));
        let other = FaultSpec { seed: 8, ..spec };
        assert_ne!(spec.plan(8), other.plan(8));
        for w in &spec.plan(8).workers {
            if let Some(c) = w.crash_at_s {
                assert!((0.0..=10.0).contains(&c));
            }
            for s in &w.stalls {
                assert!(s.slowdown >= 1.0 && s.until_s >= s.from_s);
            }
        }
    }

    #[test]
    fn healthy_count_tracks_crash_times() {
        let mut plan = FaultPlan::none(4);
        plan.workers[1].crash_at_s = Some(5.0);
        plan.workers[3].crash_at_s = Some(9.0);
        assert_eq!(plan.healthy_at(0.0), 4);
        assert_eq!(plan.healthy_at(5.0), 3);
        assert_eq!(plan.healthy_at(9.5), 2);
        assert!(plan.has_crashes());
        assert!(!plan.is_zero());
    }

    #[test]
    fn backoff_is_deterministic_monotone_and_capped() {
        let policy = RecoveryPolicy::default();
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let mut prev = 0.0;
            for attempt in 0..12 {
                let d = backoff_delay_s(&policy, seed, 42, attempt);
                assert_eq!(d, backoff_delay_s(&policy, seed, 42, attempt));
                assert!(d >= prev, "attempt {attempt}: {d} < {prev}");
                assert!(d <= policy.backoff_cap_s);
                assert!(d >= policy.backoff_base_s);
                prev = d;
            }
        }
        // Jitter decorrelates requests.
        assert_ne!(
            backoff_delay_s(&policy, 1, 10, 0),
            backoff_delay_s(&policy, 1, 11, 0)
        );
    }

    #[test]
    fn policy_validation_catches_bad_knobs() {
        assert!(RecoveryPolicy::default().validate().is_ok());
        let bad = RecoveryPolicy {
            backoff_base_s: 0.0,
            ..RecoveryPolicy::default()
        };
        assert!(bad.validate().is_err());
        let bad = RecoveryPolicy {
            deadline_s: Some(f64::NAN),
            ..RecoveryPolicy::default()
        };
        assert!(bad.validate().is_err());
        let bad = RecoveryPolicy {
            backoff_cap_s: 0.01,
            ..RecoveryPolicy::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn shared_sampler_is_memoized_and_matches_a_fresh_one() {
        let a = SdcSampler::shared();
        let b = SdcSampler::shared();
        assert!(std::ptr::eq(a, b), "shared() must not re-price the table");
        let fresh = SdcSampler::new();
        assert_eq!(a.table().len(), fresh.table().len());
        let mut ra = SplitMix64::new(3);
        let mut rb = SplitMix64::new(3);
        for _ in 0..32 {
            assert_eq!(a.draw(&mut ra).site, fresh.draw(&mut rb).site);
        }
    }

    #[test]
    fn sdc_sampler_prefers_critical_sites() {
        let sampler = SdcSampler::new();
        let mut rng = SplitMix64::new(99);
        let mut side_band = 0usize;
        const DRAWS: usize = 4_000;
        for _ in 0..DRAWS {
            if sampler.draw(&mut rng).side_band {
                side_band += 1;
            }
        }
        // The side-band dominates the top of the criticality ranking, so
        // weighted draws should hit it far above its 10/22 share of sites.
        assert!(side_band > DRAWS / 2, "side-band draws {side_band}/{DRAWS}");
        // And the draw stream is deterministic.
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..64 {
            assert_eq!(sampler.draw(&mut a).site, sampler.draw(&mut b).site);
        }
    }
}
