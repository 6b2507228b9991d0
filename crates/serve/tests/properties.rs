//! Property tests for the scheduler invariants, fault-tolerance
//! machinery, and percentile math. The zero-fault property lives beside
//! its fault-free oracle, in the `pool` module's unit tests.

use owlp_core::Accelerator;
use owlp_model::{Dataset, ModelId};
use owlp_serve::metrics::{percentile_sorted, Percentiles};
use owlp_serve::request::{ArrivalProcess, LengthDistribution, Request, TraceSpec};
use owlp_serve::{
    backoff_delay_s, scheduler, simulate_pool, CostModel, FaultPlan, PoolConfig, RecoveryPolicy,
    SchedulerConfig, SimOutcome,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared cost model so the memoised shape tables amortise across
/// cases (the invariants do not depend on the design point).
fn cost() -> &'static CostModel {
    static COST: OnceLock<CostModel> = OnceLock::new();
    COST.get_or_init(|| CostModel::new(Accelerator::owlp(), ModelId::Gpt2Base, Dataset::WikiText2))
}

/// One fault-free worker: the empty plan under the default policy.
fn simulate(cfg: &SchedulerConfig, trace: &[Request]) -> SimOutcome {
    scheduler::simulate(
        cost(),
        cfg,
        &RecoveryPolicy::default(),
        &FaultPlan::default(),
        0,
        trace,
    )
}

fn trace_spec() -> impl Strategy<Value = TraceSpec> {
    (
        any::<u64>(),
        1u64..2_000,
        1usize..40,
        prop_oneof![
            Just(ArrivalProcess::Poisson { rate_rps: 0.0 }),
            Just(ArrivalProcess::Bursty {
                rate_rps: 0.0,
                burst: 4
            }),
        ],
    )
        .prop_map(|(seed, rate, requests, arrivals)| {
            let arrivals = match arrivals {
                ArrivalProcess::Poisson { .. } => ArrivalProcess::Poisson {
                    rate_rps: rate as f64,
                },
                ArrivalProcess::Bursty { burst, .. } => ArrivalProcess::Bursty {
                    rate_rps: rate as f64,
                    burst,
                },
            };
            TraceSpec {
                arrivals,
                prompt: LengthDistribution::Uniform { lo: 1, hi: 96 },
                gen: LengthDistribution::Uniform { lo: 1, hi: 24 },
                requests,
                seed,
            }
        })
}

fn config() -> impl Strategy<Value = SchedulerConfig> {
    (1usize..8, 1usize..16).prop_map(|(max_batch, queue_capacity)| SchedulerConfig {
        max_batch,
        queue_capacity,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No request starves: everything in the trace either completes or is
    /// explicitly rejected, exactly once.
    #[test]
    fn no_request_starves(spec in trace_spec(), cfg in config()) {
        let trace = spec.generate();
        let out = simulate(&cfg, &trace);
        prop_assert_eq!(out.completed.len() + out.rejected.len(), trace.len());
        let mut ids: Vec<u64> = out
            .completed
            .iter()
            .map(|c| c.id)
            .chain(out.rejected.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), trace.len());
    }

    /// Iteration batches never exceed the array capacity, and per-request
    /// timestamps stay causally ordered.
    #[test]
    fn batches_respect_capacity(spec in trace_spec(), cfg in config()) {
        let trace = spec.generate();
        let out = simulate(&cfg, &trace);
        prop_assert!(out.stats.peak_batch <= cfg.max_batch.max(1));
        prop_assert!(out.stats.peak_queue <= cfg.queue_capacity.max(1));
        for c in &out.completed {
            prop_assert!(c.arrival_s <= c.admitted_s);
            prop_assert!(c.admitted_s < c.first_token_s);
            prop_assert!(c.first_token_s <= c.finished_s);
        }
    }

    /// The simulation is a pure function of (trace, config).
    #[test]
    fn simulation_is_deterministic(spec in trace_spec(), cfg in config()) {
        let trace = spec.generate();
        let a = simulate(&cfg, &trace);
        let b = simulate(&cfg, &trace);
        prop_assert_eq!(a, b);
    }

    /// Nearest-rank percentiles match a naive counting oracle: the p-th
    /// percentile is the smallest sample value with at least ⌈q·n⌉ samples
    /// at or below it.
    #[test]
    fn percentile_matches_counting_oracle(
        values in prop::collection::vec(0.0f64..1_000.0, 1..120),
        q_permille in 1u32..=1000,
    ) {
        let q = q_permille as f64 / 1000.0;
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got = percentile_sorted(&sorted, q);
        let need = (q * values.len() as f64).ceil().max(1.0) as usize;
        let oracle = sorted
            .iter()
            .copied()
            .find(|x| sorted.iter().filter(|v| *v <= x).count() >= need)
            .unwrap();
        prop_assert_eq!(got, oracle);
        // And the three rolled-up ranks agree with direct evaluation.
        let p = Percentiles::of(&values);
        prop_assert_eq!(p.p50, percentile_sorted(&sorted, 0.50));
        prop_assert_eq!(p.p99, percentile_sorted(&sorted, 0.99));
    }

    /// The retry/backoff schedule is deterministic, monotone non-decreasing
    /// in the attempt number, and bounded by [base, cap] — for any seed,
    /// request id, and jitter amplitude.
    #[test]
    fn backoff_schedule_is_deterministic_and_monotone(
        seed in any::<u64>(),
        request_id in any::<u64>(),
        base_ms in 1u32..500,
        cap_x in 1u32..64,
        jitter_permille in 0u32..=1000,
    ) {
        let policy = RecoveryPolicy {
            backoff_base_s: base_ms as f64 / 1000.0,
            backoff_cap_s: base_ms as f64 / 1000.0 * cap_x as f64,
            jitter_permille,
            ..RecoveryPolicy::default()
        };
        let mut prev = 0.0f64;
        for attempt in 0..16 {
            let d = backoff_delay_s(&policy, seed, request_id, attempt);
            prop_assert_eq!(d, backoff_delay_s(&policy, seed, request_id, attempt));
            prop_assert!(d >= prev, "attempt {}: {} < {}", attempt, d, prev);
            prop_assert!(d >= policy.backoff_base_s);
            prop_assert!(d <= policy.backoff_cap_s.max(policy.backoff_base_s));
            prev = d;
        }
    }

    /// Killing workers never loses or duplicates a request id: completed,
    /// rejected, failed, deadline-missed, and shed partition the trace
    /// exactly, and the pool leaves no orphan behind.
    #[test]
    fn killed_workers_lose_no_request_ids(
        spec in trace_spec(),
        cfg in config(),
        kill_mask in 1u8..15,
        crash_frac in 0u32..=100,
    ) {
        let trace = spec.generate();
        let workers = 4usize;
        let span = trace.last().map(|r| r.arrival_s).unwrap_or(0.0);
        let mut plan = FaultPlan::none(workers);
        for (w, p) in plan.workers.iter_mut().enumerate() {
            if kill_mask & (1 << w) != 0 {
                // Crash times spread over the arrival span (including 0 and
                // past-the-end), staggered per worker.
                let frac = (crash_frac as f64 / 100.0 + w as f64 * 0.17) % 1.1;
                p.crash_at_s = Some(span * frac);
            }
        }
        let pool = PoolConfig {
            workers,
            scheduler: cfg,
            plan,
            failover_delay_s: 0.02,
            ..PoolConfig::default()
        };
        let out = simulate_pool(cost(), &pool, &trace).unwrap();
        prop_assert!(out.orphans.is_empty());
        let mut ids: Vec<u64> = out.completed.iter().map(|c| c.id).collect();
        ids.extend(&out.rejected);
        ids.extend(&out.failed);
        ids.extend(&out.deadline_missed);
        ids.extend(&out.shed);
        ids.sort_unstable();
        let mut expected: Vec<u64> = trace.iter().map(|r| r.id).collect();
        expected.sort_unstable();
        prop_assert_eq!(ids, expected);
        // And the fault-injected run replays bit-for-bit.
        prop_assert_eq!(&out, &simulate_pool(cost(), &pool, &trace).unwrap());
    }
}
