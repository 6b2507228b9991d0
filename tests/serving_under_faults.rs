//! End-to-end serving under fault injection: the acceptance scenario.
//!
//! A 4-worker pool serves a fixed-seed Poisson trace while the fault plan
//! kills one worker mid-run. Every admitted request must complete or be
//! explicitly shed / deadline-missed — none silently lost — and the whole
//! run must replay bit-for-bit across independent invocations.

use owlp_core::Accelerator;
use owlp_model::{Dataset, ModelId};
use owlp_serve::{
    serve_trace, simulate_pool, ArrivalProcess, CostModel, FaultPlan, FaultSpec,
    LengthDistribution, PoolConfig, RecoveryPolicy, Request, SchedulerConfig, TraceSpec,
};

const SEED: u64 = 0x0DD5_EED5;

fn trace(rate_rps: f64, requests: usize) -> Vec<Request> {
    TraceSpec {
        arrivals: ArrivalProcess::Poisson { rate_rps },
        prompt: LengthDistribution::Uniform { lo: 16, hi: 96 },
        gen: LengthDistribution::Uniform { lo: 8, hi: 32 },
        requests,
        seed: SEED,
    }
    .generate()
}

/// 4 workers, worker 1 killed in the middle of the arrival span.
fn kill_one_config(trace: &[Request]) -> PoolConfig {
    let mut plan = FaultPlan::none(4);
    plan.workers[1].crash_at_s = Some(trace[trace.len() / 2].arrival_s);
    PoolConfig {
        plan,
        recovery: RecoveryPolicy {
            deadline_s: Some(2.0),
            ..RecoveryPolicy::default()
        },
        failover_delay_s: 0.05,
        workers: 4,
        scheduler: SchedulerConfig {
            max_batch: 16,
            queue_capacity: 32,
        },
    }
}

#[test]
fn killed_worker_mid_run_loses_nothing_and_replays_bit_for_bit() {
    let t = trace(400.0, 192);
    let cfg = kill_one_config(&t);
    let cost = CostModel::new(Accelerator::owlp(), ModelId::Gpt2Base, Dataset::WikiText2);
    let out = simulate_pool(&cost, &cfg, &t).unwrap();

    // Every admitted request completes or is explicitly shed /
    // deadline-missed / rejected — the ids partition the trace exactly.
    let mut ids: Vec<u64> = out.completed.iter().map(|c| c.id).collect();
    ids.extend(&out.rejected);
    ids.extend(&out.failed);
    ids.extend(&out.deadline_missed);
    ids.extend(&out.shed);
    ids.sort_unstable();
    let expected: Vec<u64> = t.iter().map(|r| r.id).collect();
    assert_eq!(ids, expected, "request ids must partition the trace");
    assert!(out.orphans.is_empty(), "pool must re-dispatch every orphan");

    // The crash is visible in the fault accounting.
    assert_eq!(out.faults.crashed_workers, 1);
    assert!(out.availability < 1.0, "a dead worker costs availability");
    assert!(out.availability > 0.5, "three of four workers survived");

    // Survivors actually absorbed work: the pool still completes most of
    // the trace.
    assert!(out.completed.len() > t.len() / 2);

    // Bit-for-bit reproducible across two fully independent invocations
    // (fresh cost model, fresh thread pool).
    let cost2 = CostModel::new(Accelerator::owlp(), ModelId::Gpt2Base, Dataset::WikiText2);
    let again = simulate_pool(&cost2, &cfg, &t).unwrap();
    assert_eq!(out, again);
}

#[test]
fn fault_report_is_reproducible_and_degrades_gracefully() {
    let t = trace(400.0, 192);
    let cfg = kill_one_config(&t);
    let run = || {
        serve_trace(
            Accelerator::owlp(),
            ModelId::Gpt2Base,
            Dataset::WikiText2,
            &cfg,
            &t,
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert_eq!(a.summary.requests, t.len());
    assert_eq!(a.crashed_workers, 1);
    assert!(a.availability < 1.0);
    assert!(a.goodput_under_faults_rps <= a.summary.goodput_rps);

    // The same trace on a healthy pool of the same shape does better.
    let healthy = PoolConfig {
        plan: FaultPlan::none(4),
        ..cfg.clone()
    };
    let h = serve_trace(
        Accelerator::owlp(),
        ModelId::Gpt2Base,
        Dataset::WikiText2,
        &healthy,
        &t,
    )
    .unwrap();
    assert_eq!(h.availability, 1.0);
    assert!(h.summary.completed >= a.summary.completed);
}

#[test]
fn seeded_fault_specs_reproduce_across_invocations() {
    let t = trace(400.0, 128);
    let spec = FaultSpec {
        seed: SEED ^ 0xFA_17,
        horizon_s: t.last().unwrap().arrival_s,
        crash_permille: 500,
        stall_permille: 500,
        stall_len_s: 0.2,
        stall_slowdown: 3.0,
        iter_fail_permille: 30,
        sdc_permille: 30,
    };
    let cfg = PoolConfig {
        workers: 4,
        scheduler: SchedulerConfig {
            max_batch: 16,
            queue_capacity: 32,
        },
        plan: spec.plan(4),
        ..PoolConfig::default()
    };
    let cost = CostModel::new(Accelerator::owlp(), ModelId::Gpt2Base, Dataset::WikiText2);
    let a = simulate_pool(&cost, &cfg, &t).unwrap();
    let b = simulate_pool(&cost, &cfg, &t).unwrap();
    assert_eq!(a, b);
    // The plan itself regenerates identically from its seed.
    assert_eq!(spec.plan(4), cfg.plan);
}
