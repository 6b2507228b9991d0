//! Multi-worker array pool: fan a trace out across OS threads.
//!
//! Models a deployment of several independent accelerator array groups
//! behind one front door. Requests are dispatched **round-robin in trace
//! order** — a deterministic policy, so the sharding (and therefore every
//! latency number) depends only on the trace and the fault plan, never on
//! thread timing. Workers run concurrently on the [`owlp_par`]
//! deterministic pool (the shared [`CostModel`] is `Sync` via its
//! `parking_lot` caches), bounded by the `OWLP_THREADS` budget; per-worker
//! outcomes come back **in worker order** and merge by request id into one
//! pool-level result that is bit-identical to a sequential run of the same
//! shards — `OWLP_THREADS=1` and `=N` produce the same metrics to the last
//! bit.
//!
//! A fault plan adds failover: requests stranded by a worker crash come
//! back as orphans and are re-dispatched to survivors after a failover
//! delay. Crashed workers are processed in **crash-time order**, which
//! makes the cascade well-founded: an orphan re-arrives strictly after its
//! old worker's crash, so any worker that can receive it crashes strictly
//! later and has not been processed yet — no orphan is ever dropped or
//! dispatched twice, even when several workers die in sequence. The
//! default, empty plan is the fault-free run.

use crate::cost::CostModel;
use crate::error::ServeError;
use crate::fault::{FaultPlan, RecoveryPolicy};
use crate::request::Request;
use crate::scheduler::{self, FaultStats, SchedulerConfig, SimOutcome, SimStats};
use serde::Serialize;

/// Pool shape plus the fault plan and recovery policy of one run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PoolConfig {
    /// Worker (array-group) count; must be at least 1.
    pub workers: usize,
    /// Per-worker scheduler knobs.
    pub scheduler: SchedulerConfig,
    /// Recovery knobs shared by every worker's scheduler.
    pub recovery: RecoveryPolicy,
    /// Per-worker fault plan: empty (the fault-free run, at any worker
    /// count) or exactly `workers` entries.
    pub plan: FaultPlan,
    /// Detection + re-dispatch latency for a crashed worker's orphans: an
    /// orphan re-arrives at a survivor no earlier than
    /// `crash + failover_delay_s`.
    pub failover_delay_s: f64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            scheduler: SchedulerConfig::default(),
            recovery: RecoveryPolicy::default(),
            plan: FaultPlan::default(),
            failover_delay_s: 0.05,
        }
    }
}

impl PoolConfig {
    /// Validates the pool shape, plan sizing, and recovery knobs.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidPool`] for shape/plan problems,
    /// [`ServeError::InvalidPolicy`] for recovery-knob problems.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidPool(
                "worker count must be at least 1".into(),
            ));
        }
        if !self.plan.workers.is_empty() && self.plan.workers.len() != self.workers {
            return Err(ServeError::InvalidPool(format!(
                "fault plan sized for {} workers, pool has {}",
                self.plan.workers.len(),
                self.workers
            )));
        }
        if !self.failover_delay_s.is_finite() || self.failover_delay_s < 0.0 {
            return Err(ServeError::InvalidPool(format!(
                "failover_delay_s must be finite and non-negative, got {}",
                self.failover_delay_s
            )));
        }
        for (w, p) in self.plan.workers.iter().enumerate() {
            if let Some(c) = p.crash_at_s {
                if !c.is_finite() || c < 0.0 {
                    return Err(ServeError::InvalidPool(format!(
                        "worker {w}: crash_at_s must be finite and non-negative, got {c}"
                    )));
                }
            }
            for s in &p.stalls {
                if !(s.from_s.is_finite() && s.until_s.is_finite() && s.slowdown.is_finite()) {
                    return Err(ServeError::InvalidPool(format!(
                        "worker {w}: stall window fields must be finite"
                    )));
                }
            }
        }
        self.recovery.validate().map_err(ServeError::InvalidPolicy)
    }
}

/// Round-robin sharding in trace order that skips workers already dead at
/// a request's arrival (with a crash-free plan, plain round-robin).
/// Returns the shards plus the ids that found **no** live worker.
fn shard(trace: &[Request], plan: &FaultPlan, workers: usize) -> (Vec<Vec<Request>>, Vec<u64>) {
    let mut shards = vec![Vec::with_capacity(trace.len() / workers + 1); workers];
    let mut unserved = Vec::new();
    for (i, r) in trace.iter().enumerate() {
        let alive = |w: usize| {
            plan.workers
                .get(w)
                .and_then(|p| p.crash_at_s)
                .is_none_or(|c| r.arrival_s < c)
        };
        match (0..workers).map(|k| (i + k) % workers).find(|&w| alive(w)) {
            Some(w) => shards[w].push(*r),
            None => unserved.push(r.id),
        }
    }
    (shards, unserved)
}

/// Simulates the trace across the pool's workers under its fault plan,
/// with failover, and merges the per-worker outcomes deterministically.
///
/// Workers run in parallel on the `owlp-par` worker pool. Crashed workers
/// are then processed sequentially in crash-time order: each one's orphans
/// re-arrive at `max(arrival, crash + failover_delay_s)` and go round-robin
/// to workers still alive at that time (none alive ⇒ the request is shed
/// pool-wide). Workers that received orphans re-run — receiving workers
/// always crash strictly later than the sender (or never), so the cascade
/// terminates and every orphan is dispatched exactly once.
///
/// # Errors
///
/// See [`PoolConfig::validate`].
pub fn simulate_pool(
    cost: &CostModel,
    cfg: &PoolConfig,
    trace: &[Request],
) -> Result<SimOutcome, ServeError> {
    cfg.validate()?;
    let workers = cfg.workers;
    let (mut shards, mut pool_shed) = shard(trace, &cfg.plan, workers);

    // One wave = the given workers re-simulated concurrently on the
    // owlp-par pool; results come back in `which` order, so the wave is
    // deterministic at every thread budget.
    let run_wave = |shards: &[Vec<Request>], which: &[usize]| -> Vec<SimOutcome> {
        owlp_par::map_indexed(which.len(), 1, |idx| {
            let w = which[idx];
            scheduler::simulate(
                cost,
                &cfg.scheduler,
                &cfg.recovery,
                &cfg.plan,
                w,
                &shards[w],
            )
        })
    };

    let all: Vec<usize> = (0..workers).collect();
    let mut outcomes = run_wave(&shards, &all);
    let mut dirty = vec![false; workers];

    // Failover: drain each crashed worker's orphans in crash-time order.
    let mut crashed: Vec<(f64, usize)> = cfg
        .plan
        .workers
        .iter()
        .enumerate()
        .filter_map(|(w, p)| p.crash_at_s.map(|c| (c, w)))
        .collect();
    crashed.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut rr = 0usize;
    for (crash, w) in crashed {
        if std::mem::take(&mut dirty[w]) {
            // This worker received orphans from an earlier crash before
            // dying itself: replay it so its own orphan set is final.
            outcomes[w] = scheduler::simulate(
                cost,
                &cfg.scheduler,
                &cfg.recovery,
                &cfg.plan,
                w,
                &shards[w],
            );
        }
        for mut o in std::mem::take(&mut outcomes[w].orphans) {
            o.arrival_s = o.arrival_s.max(crash + cfg.failover_delay_s);
            let alive = |v: usize| {
                cfg.plan.workers[v]
                    .crash_at_s
                    .is_none_or(|c| c > o.arrival_s)
            };
            let pick = (0..workers).map(|k| (rr + k) % workers).find(|&v| alive(v));
            rr += 1;
            match pick {
                Some(v) => {
                    let at =
                        shards[v].partition_point(|q| (q.arrival_s, q.id) <= (o.arrival_s, o.id));
                    shards[v].insert(at, o);
                    dirty[v] = true;
                }
                None => pool_shed.push(o.id),
            }
        }
    }

    // Replay the survivors that picked up orphans, in parallel again.
    let redo: Vec<usize> = (0..workers).filter(|&w| dirty[w]).collect();
    for (w, out) in redo.iter().copied().zip(run_wave(&shards, &redo)) {
        outcomes[w] = out;
    }

    Ok(merge(&cfg.plan, outcomes, pool_shed))
}

/// Merges worker outcomes into one pool-level outcome (order-insensitive);
/// `pool_shed` carries the ids no live worker could take. Pool
/// availability is healthy worker-seconds over total worker-seconds across
/// the merged serving window.
fn merge(plan: &FaultPlan, outcomes: Vec<SimOutcome>, pool_shed: Vec<u64>) -> SimOutcome {
    let mut completed = Vec::new();
    let mut rejected = Vec::new();
    let mut failed = Vec::new();
    let mut deadline_missed = Vec::new();
    let mut shed = pool_shed;
    let mut corrupted = Vec::new();
    let mut orphans = Vec::new();
    let mut stats = SimStats::default();
    let mut faults = FaultStats::default();
    for o in outcomes {
        completed.extend(o.completed);
        rejected.extend(o.rejected);
        failed.extend(o.failed);
        deadline_missed.extend(o.deadline_missed);
        shed.extend(o.shed);
        corrupted.extend(o.corrupted);
        orphans.extend(o.orphans);
        stats.iterations += o.stats.iterations;
        stats.peak_batch = stats.peak_batch.max(o.stats.peak_batch);
        stats.peak_queue = stats.peak_queue.max(o.stats.peak_queue);
        stats.end_s = stats.end_s.max(o.stats.end_s);
        faults.absorb(&o.faults);
    }
    // Crash accounting is plan data: a worker whose shard drained before its
    // crash time never hits the crash branch in simulation, but it is still
    // a dead worker from the operator's point of view.
    faults.crashed_workers = plan
        .workers
        .iter()
        .filter(|w| w.crash_at_s.is_some())
        .count() as u32;
    completed.sort_by_key(|c| c.id);
    rejected.sort_unstable();
    failed.sort_unstable();
    deadline_missed.sort_unstable();
    shed.sort_unstable();
    corrupted.sort_unstable();
    let end = stats.end_s;
    let availability = if end > 0.0 && !plan.workers.is_empty() {
        let healthy: f64 = plan
            .workers
            .iter()
            .map(|w| w.crash_at_s.map_or(end, |c| c.clamp(0.0, end)))
            .sum();
        healthy / (plan.workers.len() as f64 * end)
    } else {
        1.0
    };
    SimOutcome {
        completed,
        rejected,
        failed,
        deadline_missed,
        shed,
        corrupted,
        orphans,
        stats,
        faults,
        availability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::summarize;
    use crate::request::{ArrivalProcess, LengthDistribution, TraceSpec};
    use owlp_core::Accelerator;
    use owlp_model::{Dataset, ModelId};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn cost() -> CostModel {
        CostModel::new(Accelerator::owlp(), ModelId::Gpt2Base, Dataset::WikiText2)
    }

    fn trace(requests: usize) -> Vec<Request> {
        TraceSpec {
            arrivals: ArrivalProcess::Poisson { rate_rps: 40.0 },
            prompt: LengthDistribution::Uniform { lo: 16, hi: 96 },
            gen: LengthDistribution::Uniform { lo: 4, hi: 24 },
            requests,
            seed: 0x0DD5_EED5,
        }
        .generate()
    }

    fn pool(workers: usize, scheduler: SchedulerConfig) -> PoolConfig {
        PoolConfig {
            workers,
            scheduler,
            ..PoolConfig::default()
        }
    }

    /// The fault-free reference pool: the trace split round-robin across
    /// `workers`, each part run through the fault-free oracle loop, and the
    /// parts merged.
    fn oracle_pool(
        cm: &CostModel,
        cfg: &SchedulerConfig,
        workers: usize,
        trace: &[Request],
    ) -> SimOutcome {
        let mut parts = vec![Vec::new(); workers];
        for (i, r) in trace.iter().enumerate() {
            parts[i % workers].push(*r);
        }
        let outcomes = parts
            .iter()
            .map(|p| scheduler::simulate_fault_free(cm, cfg, p))
            .collect();
        merge(&FaultPlan::default(), outcomes, Vec::new())
    }

    #[test]
    fn sharding_is_round_robin_and_total() {
        let t = trace(10);
        let (shards, unserved) = shard(&t, &FaultPlan::default(), 3);
        assert!(unserved.is_empty());
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 10);
        assert_eq!(shards[0].len(), 4);
        assert_eq!(shards[1][0].id, 1);
        assert_eq!(shards[2][1].id, 5);
    }

    #[test]
    fn faulty_sharding_without_crashes_matches_plain() {
        let t = trace(24);
        let plain = shard(&t, &FaultPlan::default(), 3);
        assert_eq!(shard(&t, &FaultPlan::none(3), 3), plain);
        assert!(plain.1.is_empty());
    }

    #[test]
    fn faulty_sharding_skips_dead_workers() {
        let t = trace(24);
        let mut plan = FaultPlan::none(3);
        plan.workers[1].crash_at_s = Some(0.0);
        let (shards, unserved) = shard(&t, &plan, 3);
        assert!(shards[1].is_empty());
        assert_eq!(shards[0].len() + shards[2].len(), 24);
        assert!(unserved.is_empty());
        // Everybody dead at t=0 ⇒ everything unserved.
        for w in &mut plan.workers {
            w.crash_at_s = Some(0.0);
        }
        let (_, unserved) = shard(&t, &plan, 3);
        assert_eq!(unserved.len(), 24);
    }

    #[test]
    fn zero_worker_pool_is_a_typed_error() {
        let cm = cost();
        let cfg = pool(0, SchedulerConfig::default());
        assert!(matches!(
            simulate_pool(&cm, &cfg, &trace(4)),
            Err(ServeError::InvalidPool(_))
        ));
    }

    #[test]
    fn fault_config_validation_is_typed() {
        let cfg = PoolConfig {
            plan: FaultPlan::none(3), // pool has 4
            ..PoolConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(ServeError::InvalidPool(_))));
        let cfg = PoolConfig {
            failover_delay_s: f64::NAN,
            ..PoolConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(ServeError::InvalidPool(_))));
        let mut cfg = PoolConfig::default();
        cfg.recovery.backoff_base_s = -1.0;
        assert!(matches!(cfg.validate(), Err(ServeError::InvalidPolicy(_))));
        // The empty plan fits every worker count; a sized plan fits its own.
        assert!(PoolConfig::default().validate().is_ok());
        for workers in [1, 7] {
            assert!(pool(workers, SchedulerConfig::default()).validate().is_ok());
        }
        let cfg = PoolConfig {
            plan: FaultPlan::none(4),
            ..PoolConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn pool_runs_are_reproducible_across_thread_schedules() {
        let cm = cost();
        let cfg = pool(4, SchedulerConfig::default());
        let t = trace(160);
        let a = simulate_pool(&cm, &cfg, &t).unwrap();
        let b = simulate_pool(&cm, &cfg, &t).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.completed.len() + a.rejected.len(), t.len());
    }

    #[test]
    fn pool_matches_sequential_shard_runs() {
        let cm = cost();
        let cfg = pool(3, SchedulerConfig::default());
        let t = trace(90);
        let threaded = simulate_pool(&cm, &cfg, &t).unwrap();
        let (shards, unserved) = shard(&t, &cfg.plan, 3);
        let sequential = merge(
            &cfg.plan,
            shards
                .iter()
                .enumerate()
                .map(|(w, sh)| {
                    scheduler::simulate(&cm, &cfg.scheduler, &cfg.recovery, &cfg.plan, w, sh)
                })
                .collect(),
            unserved,
        );
        assert_eq!(threaded, sequential);
    }

    #[test]
    fn more_workers_serve_heavy_load_sooner() {
        let cm = cost();
        let t = TraceSpec {
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 5_000.0,
                burst: 16,
            },
            prompt: LengthDistribution::Fixed(64),
            gen: LengthDistribution::Fixed(16),
            requests: 256,
            seed: 1,
        }
        .generate();
        let end = |workers: usize| {
            let cfg = pool(
                workers,
                SchedulerConfig {
                    max_batch: 8,
                    queue_capacity: 512,
                },
            );
            simulate_pool(&cm, &cfg, &t).unwrap().stats.end_s
        };
        assert!(end(4) < end(1));
    }

    #[test]
    fn zero_fault_pool_is_bit_identical_to_plain_pool() {
        let cm = cost();
        let t = trace(120);
        let cfg = PoolConfig::default();
        let plain = oracle_pool(&cm, &cfg.scheduler, cfg.workers, &t);
        assert_eq!(simulate_pool(&cm, &cfg, &t).unwrap(), plain);
        let healthy = PoolConfig {
            plan: FaultPlan::none(cfg.workers),
            ..cfg
        };
        assert_eq!(simulate_pool(&cm, &healthy, &t).unwrap(), plain);
        assert_eq!(plain.availability, 1.0);
    }

    #[test]
    fn crashed_worker_loses_no_requests() {
        let cm = cost();
        let t = trace(160);
        let mut cfg = PoolConfig {
            plan: FaultPlan::none(4),
            ..PoolConfig::default()
        };
        // Kill worker 2 mid-run; everyone else stays up.
        let mid = t[t.len() / 2].arrival_s;
        cfg.plan.workers[2].crash_at_s = Some(mid);
        let out = simulate_pool(&cm, &cfg, &t).unwrap();
        let mut ids: Vec<u64> = out.completed.iter().map(|c| c.id).collect();
        ids.extend(&out.rejected);
        ids.extend(&out.failed);
        ids.extend(&out.deadline_missed);
        ids.extend(&out.shed);
        ids.sort_unstable();
        let expected: Vec<u64> = t.iter().map(|r| r.id).collect();
        assert_eq!(ids, expected, "ids must partition exactly");
        assert!(out.orphans.is_empty(), "pool re-dispatches every orphan");
        assert_eq!(out.faults.crashed_workers, 1);
        assert!(out.availability < 1.0);
        // And the whole thing replays bit-for-bit.
        assert_eq!(out, simulate_pool(&cm, &cfg, &t).unwrap());
    }

    #[test]
    fn cascading_crashes_terminate_and_partition() {
        let cm = cost();
        let t = trace(200);
        let mut cfg = PoolConfig {
            plan: FaultPlan::none(4),
            ..PoolConfig::default()
        };
        let span = t.last().unwrap().arrival_s;
        // Three of four workers die in sequence: orphans cascade forward.
        cfg.plan.workers[0].crash_at_s = Some(span * 0.3);
        cfg.plan.workers[1].crash_at_s = Some(span * 0.5);
        cfg.plan.workers[3].crash_at_s = Some(span * 0.7);
        let out = simulate_pool(&cm, &cfg, &t).unwrap();
        let total = out.completed.len()
            + out.rejected.len()
            + out.failed.len()
            + out.deadline_missed.len()
            + out.shed.len();
        assert_eq!(total, t.len());
        assert!(out.orphans.is_empty());
        assert_eq!(out.faults.crashed_workers, 3);
        assert_eq!(out, simulate_pool(&cm, &cfg, &t).unwrap());
    }

    /// One shared cost model so the memoised shape tables amortise across
    /// property cases.
    fn shared_cost() -> &'static CostModel {
        static COST: OnceLock<CostModel> = OnceLock::new();
        COST.get_or_init(cost)
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

        /// A fault-free plan is invisible: the pool under the empty plan
        /// and under an all-healthy plan reproduces, bit for bit, the trace
        /// split round-robin across the workers, each part run through the
        /// fault-free oracle loop, and the parts merged — outcome and
        /// metrics report alike, for any trace and pool shape.
        #[test]
        fn zero_fault_plan_matches_the_fault_free_oracle(
            spec in trace_spec(),
            cfg in config(),
            workers in 1usize..5,
        ) {
            let trace = spec.generate();
            let oracle = oracle_pool(shared_cost(), &cfg, workers, &trace);
            let oracle_report = summarize("x", 1.0, &oracle);
            prop_assert_eq!(oracle_report.summary.requests, trace.len());
            prop_assert_eq!(
                oracle_report.goodput_under_faults_rps,
                oracle_report.summary.goodput_rps
            );
            for plan in [FaultPlan::default(), FaultPlan::none(workers)] {
                let out = simulate_pool(
                    shared_cost(),
                    &PoolConfig { plan, ..pool(workers, cfg) },
                    &trace,
                )
                .unwrap();
                prop_assert_eq!(&out, &oracle);
                prop_assert_eq!(&summarize("x", 1.0, &out), &oracle_report);
            }
        }
    }
}
