//! Serving-under-faults sweep (supporting analysis).
//!
//! Drives `owlp-serve` through escalating seeded fault plans — from a
//! healthy pool to a meltdown with crashed workers, stalls, transient
//! iteration failures, and silent data corruptions — and reports what the
//! recovery machinery (failover, bounded retry with backoff, degraded
//! admission, and the `owlp-integrity` detection ladder of side-band
//! parity, plane CRC, and ABFT checksums) salvages on the baseline FP32
//! array versus OwL-P. The headline column is *clean goodput*: completions
//! per second whose responses carry no undetected corruption — with the
//! full integrity configuration every SDC is caught and corrected, so
//! `corrupt` stays zero even at meltdown. Every number is a pure function
//! of `(trace seed, fault seed, config)` and replays bit-for-bit.

use crate::render::TextTable;
use crate::SEED;
use owlp_core::Accelerator;
use owlp_model::{Dataset, ModelId};
use owlp_serve::{
    serve_trace, ArrivalProcess, FaultSpec, LengthDistribution, MetricsReport, PoolConfig,
    RecoveryPolicy, Request, SchedulerConfig, TraceSpec,
};
use serde::Serialize;

/// Requests per trace.
const REQUESTS: usize = 192;

/// Nominal Poisson arrival rate, requests per second.
const RATE_RPS: f64 = 400.0;

/// One escalation step of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultLevel {
    /// Level name.
    pub name: &'static str,
    /// Per-worker crash probability, permille.
    pub crash_permille: u32,
    /// Per-worker stall probability, permille.
    pub stall_permille: u32,
    /// Per-iteration transient-failure probability, permille.
    pub iter_fail_permille: u32,
    /// Per-iteration SDC probability, permille.
    pub sdc_permille: u32,
}

/// The escalation ladder, mild to catastrophic.
pub const LEVELS: [FaultLevel; 5] = [
    FaultLevel {
        name: "none",
        crash_permille: 0,
        stall_permille: 0,
        iter_fail_permille: 0,
        sdc_permille: 0,
    },
    FaultLevel {
        name: "sdc",
        crash_permille: 0,
        stall_permille: 0,
        iter_fail_permille: 0,
        sdc_permille: 40,
    },
    FaultLevel {
        name: "flaky",
        crash_permille: 0,
        stall_permille: 500,
        iter_fail_permille: 25,
        sdc_permille: 0,
    },
    FaultLevel {
        name: "crash",
        crash_permille: 400,
        stall_permille: 250,
        iter_fail_permille: 10,
        sdc_permille: 0,
    },
    FaultLevel {
        name: "meltdown",
        crash_permille: 600,
        stall_permille: 500,
        iter_fail_permille: 50,
        sdc_permille: 80,
    },
];

/// Both designs' reports at one fault level.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPoint {
    /// The escalation step.
    pub level: FaultLevel,
    /// Baseline FP32 systolic array.
    pub baseline: MetricsReport,
    /// OwL-P array.
    pub owlp: MetricsReport,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultSweep {
    /// One entry per fault level, escalating.
    pub points: Vec<FaultPoint>,
}

fn pool() -> PoolConfig {
    PoolConfig {
        workers: 4,
        scheduler: SchedulerConfig {
            max_batch: 16,
            queue_capacity: 32,
        },
        ..PoolConfig::default()
    }
}

fn trace() -> Vec<Request> {
    TraceSpec {
        arrivals: ArrivalProcess::Poisson { rate_rps: RATE_RPS },
        prompt: LengthDistribution::Uniform { lo: 32, hi: 96 },
        gen: LengthDistribution::Uniform { lo: 8, hi: 32 },
        requests: REQUESTS,
        seed: SEED,
    }
    .generate()
}

fn config_for(level: &FaultLevel, horizon_s: f64) -> PoolConfig {
    let pool = pool();
    let spec = FaultSpec {
        seed: SEED ^ 0xFA_17,
        horizon_s,
        crash_permille: level.crash_permille,
        stall_permille: level.stall_permille,
        stall_len_s: horizon_s * 0.25,
        stall_slowdown: 3.0,
        iter_fail_permille: level.iter_fail_permille,
        sdc_permille: level.sdc_permille,
    };
    PoolConfig {
        plan: spec.plan(pool.workers),
        recovery: RecoveryPolicy {
            deadline_s: Some(2.0),
            ..RecoveryPolicy::default()
        },
        failover_delay_s: 0.05,
        ..pool
    }
}

/// Runs the sweep on a 4-worker pool (GPT2-Base, WikiText-2 outlier rates).
pub fn run() -> FaultSweep {
    let trace = trace();
    let horizon = trace.last().map(|r| r.arrival_s).unwrap_or(1.0);
    let points = LEVELS
        .iter()
        .map(|level| {
            let cfg = config_for(level, horizon);
            let serve = |acc: Accelerator| {
                serve_trace(acc, ModelId::Gpt2Base, Dataset::WikiText2, &cfg, &trace)
                    .expect("sweep fault config is valid")
            };
            FaultPoint {
                level: *level,
                baseline: serve(Accelerator::baseline()),
                owlp: serve(Accelerator::owlp()),
            }
        })
        .collect();
    FaultSweep { points }
}

/// Renders the sweep as a text table.
pub fn render(sweep: &FaultSweep) -> String {
    let mut t = TextTable::new([
        "level",
        "design",
        "avail",
        "goodput",
        "clean goodput",
        "retry",
        "evict",
        "shed",
        "ddl miss%",
        "SDC hit/det/corr",
        "escape",
        "tile rc",
        "corrupt",
    ]);
    for p in &sweep.points {
        for r in [&p.baseline, &p.owlp] {
            t.row([
                p.level.name.to_string(),
                r.summary.design.clone(),
                format!("{:.3}", r.availability),
                format!("{:.1}", r.summary.goodput_rps),
                format!("{:.1}", r.goodput_under_faults_rps),
                format!("{}", r.retries),
                format!("{}", r.evictions),
                format!("{}", r.shed),
                format!("{:.1}", r.deadline_miss_rate * 100.0),
                format!("{}/{}/{}", r.sdc_events, r.sdc_detected, r.sdc_corrected),
                format!("{}", r.sdc_escaped),
                format!("{}", r.tile_recomputes),
                format!("{}", r.corrupted_responses),
            ]);
        }
    }
    format!(
        "Serving under faults — GPT2-Base, 4-worker pool, batch 16, queue 32\n\
         (deadline 2 s, retry budget 3, full integrity: side-band parity +\n\
         plane CRC32C + ABFT checksums, localized tile recompute;\n\
         {REQUESTS} Poisson requests at {RATE_RPS:.0} req/s, seed {SEED:#x})\n{}",
        t.render()
    )
}

/// CI gate: with the full integrity configuration no SDC may escape into
/// a delivered response, the outcome partition must balance, and every
/// fault-free level must report zero detector activity (no false
/// positives). Returns the violations, empty on a clean sweep.
pub fn gate(sweep: &FaultSweep) -> Vec<String> {
    let mut violations = Vec::new();
    for p in &sweep.points {
        for r in [&p.baseline, &p.owlp] {
            let who = format!("{}/{}", p.level.name, r.summary.design);
            if r.sdc_escaped > 0 || r.corrupted_responses > 0 {
                violations.push(format!(
                    "{who}: {} escaped SDCs corrupted {} responses under full integrity",
                    r.sdc_escaped, r.corrupted_responses
                ));
            }
            if r.sdc_detected + r.sdc_masked + r.sdc_escaped != r.sdc_events {
                violations.push(format!(
                    "{who}: SDC partition does not balance ({} + {} + {} != {})",
                    r.sdc_detected, r.sdc_masked, r.sdc_escaped, r.sdc_events
                ));
            }
            if p.level.sdc_permille == 0 && (r.sdc_events > 0 || r.sdc_detected > 0) {
                violations.push(format!("{who}: detector activity on a fault-free level"));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(run(), run());
    }

    #[test]
    fn every_level_accounts_for_every_request() {
        let sweep = run();
        assert_eq!(sweep.points.len(), LEVELS.len());
        for p in &sweep.points {
            for r in [&p.baseline, &p.owlp] {
                assert_eq!(
                    r.summary.requests, REQUESTS,
                    "{}/{} lost requests",
                    p.level.name, r.summary.design
                );
            }
        }
    }

    #[test]
    fn healthy_level_is_clean_and_escalation_hurts() {
        let sweep = run();
        let none = &sweep.points[0];
        for r in [&none.baseline, &none.owlp] {
            assert_eq!(r.availability, 1.0);
            assert_eq!(r.corrupted_responses, 0);
            assert_eq!(r.retries + r.evictions + r.sdc_events, 0);
            assert_eq!(r.goodput_under_faults_rps, r.summary.goodput_rps);
        }
        // OwL-P's per-GEMM speedup survives the roll-up.
        assert!(none.owlp.summary.goodput_rps > none.baseline.summary.goodput_rps);
        // SDC level injects; the full integrity ladder catches and
        // corrects every strike, so no response is ever corrupted.
        let sdc = &sweep.points[1];
        for r in [&sdc.baseline, &sdc.owlp] {
            assert!(r.sdc_events > 0);
            assert_eq!(r.sdc_detected + r.sdc_masked + r.sdc_escaped, r.sdc_events);
            assert_eq!(r.sdc_escaped, 0);
            assert_eq!(r.corrupted_responses, 0);
            assert!(r.sdc_corrected > 0);
            assert!(r.tile_recomputes > 0);
        }
        assert!(gate(&sweep).is_empty(), "{:?}", gate(&sweep));
        // Crash level actually kills workers and degrades availability.
        let crash = &sweep.points[3];
        assert!(crash.owlp.crashed_workers > 0);
        assert!(crash.owlp.availability < 1.0);
        // The meltdown exercises the retry path.
        let melt = &sweep.points[4];
        assert!(melt.owlp.retries > 0 || melt.owlp.evictions > 0);
    }
}
