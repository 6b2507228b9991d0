//! Multi-worker array pool: fan a trace out across OS threads.
//!
//! Models a deployment of several independent accelerator array groups
//! behind one front door. Requests are dispatched **round-robin in trace
//! order** — a deterministic policy, so the sharding (and therefore every
//! latency number) depends only on the trace, never on thread timing.
//! Workers run concurrently on the [`owlp_par`] deterministic pool (the
//! shared [`CostModel`] is `Sync` via its `parking_lot` caches), bounded
//! by the `OWLP_THREADS` budget; per-worker outcomes come back **in worker
//! order** and merge by request id into one pool-level result that is
//! bit-identical to a sequential run of the same shards — `OWLP_THREADS=1`
//! and `=N` produce the same metrics to the last bit.
//!
//! The fault-aware entry point [`simulate_pool_faulty`] adds failover:
//! requests stranded by a worker crash come back as orphans and are
//! re-dispatched to survivors after a failover delay. Crashed workers are
//! processed in **crash-time order**, which makes the cascade well-founded:
//! an orphan re-arrives strictly after its old worker's crash, so any
//! worker that can receive it crashes strictly later and has not been
//! processed yet — no orphan is ever dropped or dispatched twice, even when
//! several workers die in sequence.

use crate::cost::CostModel;
use crate::error::ServeError;
use crate::fault::{FaultPlan, RecoveryPolicy, SdcSampler};
use crate::request::Request;
use crate::scheduler::{self, FaultSimOutcome, FaultStats, SchedulerConfig, SimOutcome, SimStats};
use serde::Serialize;

/// Pool shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PoolConfig {
    /// Worker (array-group) count; must be at least 1.
    pub workers: usize,
    /// Per-worker scheduler knobs.
    pub scheduler: SchedulerConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            scheduler: SchedulerConfig::default(),
        }
    }
}

/// Pool shape plus the fault plan and recovery policy of one
/// fault-injected run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPoolConfig {
    /// The underlying pool shape.
    pub pool: PoolConfig,
    /// Recovery knobs shared by every worker's scheduler.
    pub recovery: RecoveryPolicy,
    /// Per-worker fault plan; must have exactly `pool.workers` entries.
    pub plan: FaultPlan,
    /// Detection + re-dispatch latency for a crashed worker's orphans: an
    /// orphan re-arrives at a survivor no earlier than
    /// `crash + failover_delay_s`.
    pub failover_delay_s: f64,
}

impl Default for FaultPoolConfig {
    fn default() -> Self {
        let pool = PoolConfig::default();
        FaultPoolConfig {
            recovery: RecoveryPolicy::default(),
            plan: FaultPlan::none(pool.workers),
            failover_delay_s: 0.05,
            pool,
        }
    }
}

impl FaultPoolConfig {
    /// Validates the pool shape, plan sizing, and recovery knobs.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidPool`] for shape/plan problems,
    /// [`ServeError::InvalidPolicy`] for recovery-knob problems.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.pool.workers == 0 {
            return Err(ServeError::InvalidPool(
                "worker count must be at least 1".into(),
            ));
        }
        if self.plan.workers.len() != self.pool.workers {
            return Err(ServeError::InvalidPool(format!(
                "fault plan sized for {} workers, pool has {}",
                self.plan.workers.len(),
                self.pool.workers
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

/// Splits a trace round-robin in trace order.
fn shard(trace: &[Request], workers: usize) -> Vec<Vec<Request>> {
    let mut shards = vec![Vec::with_capacity(trace.len() / workers + 1); workers];
    for (i, r) in trace.iter().enumerate() {
        shards[i % workers].push(*r);
    }
    shards
}

/// Round-robin sharding that skips workers already dead at a request's
/// arrival. With a crash-free plan this reduces exactly to [`shard`].
/// Returns the shards plus the ids that found **no** live worker.
fn shard_faulty(
    trace: &[Request],
    plan: &FaultPlan,
    workers: usize,
) -> (Vec<Vec<Request>>, Vec<u64>) {
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

/// Simulates the trace across the pool's workers (concurrently, on the
/// `owlp-par` worker pool) and merges the per-worker outcomes
/// deterministically.
///
/// # Errors
///
/// [`ServeError::InvalidPool`] on a zero-worker pool.
pub fn simulate_pool(
    cost: &CostModel,
    cfg: &PoolConfig,
    trace: &[Request],
) -> Result<SimOutcome, ServeError> {
    if cfg.workers == 0 {
        return Err(ServeError::InvalidPool(
            "worker count must be at least 1".into(),
        ));
    }
    let shards = shard(trace, cfg.workers);
    let outcomes = owlp_par::map_indexed(shards.len(), 1, |w| {
        scheduler::simulate(cost, &cfg.scheduler, &shards[w])
    });
    Ok(merge(outcomes))
}

/// Simulates the trace across the pool under a fault plan, with failover.
///
/// Healthy workers run in parallel threads exactly as [`simulate_pool`]
/// does. Crashed workers are then processed sequentially in crash-time
/// order: each one's orphans re-arrive at `max(arrival, crash +
/// failover_delay_s)` and go round-robin to workers still alive at that
/// time (none alive ⇒ the request is shed pool-wide). Workers that
/// received orphans re-run — receiving workers always crash strictly
/// later than the sender (or never), so the cascade terminates and every
/// orphan is dispatched exactly once. With a zero plan the result's `base`
/// is **bit-identical** to [`simulate_pool`] (property-tested).
///
/// # Errors
///
/// See [`FaultPoolConfig::validate`]. ([`ServeError::WorkerPanicked`] is
/// retained as a defensive invariant check on the outcome table.)
pub fn simulate_pool_faulty(
    cost: &CostModel,
    cfg: &FaultPoolConfig,
    trace: &[Request],
) -> Result<FaultSimOutcome, ServeError> {
    cfg.validate()?;
    let workers = cfg.pool.workers;
    let (mut shards, mut pool_shed) = shard_faulty(trace, &cfg.plan, workers);
    // One process-wide sampler: the criticality sweep prices a few
    // thousand dot products, no reason to pay it per worker or even per
    // pool run.
    let sampler = cfg
        .plan
        .workers
        .iter()
        .any(|w| w.sdc_permille > 0)
        .then(SdcSampler::shared);

    // One wave = the given workers re-simulated concurrently on the
    // owlp-par pool; results come back in `which` order, so the wave is
    // deterministic at every thread budget.
    let run_wave = |shards: &[Vec<Request>], which: &[usize]| -> Vec<(usize, FaultSimOutcome)> {
        let outs = owlp_par::map_indexed(which.len(), 1, |idx| {
            let w = which[idx];
            scheduler::simulate_faulty(
                cost,
                &cfg.pool.scheduler,
                &cfg.recovery,
                &cfg.plan,
                w,
                sampler,
                &shards[w],
            )
        });
        which.iter().copied().zip(outs).collect()
    };

    let all: Vec<usize> = (0..workers).collect();
    let mut outcomes: Vec<Option<FaultSimOutcome>> = (0..workers).map(|_| None).collect();
    for (w, out) in run_wave(&shards, &all) {
        outcomes[w] = Some(out);
    }
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
            outcomes[w] = Some(scheduler::simulate_faulty(
                cost,
                &cfg.pool.scheduler,
                &cfg.recovery,
                &cfg.plan,
                w,
                sampler,
                &shards[w],
            ));
        }
        let Some(out) = outcomes[w].as_mut() else {
            return Err(ServeError::WorkerPanicked);
        };
        for mut o in std::mem::take(&mut out.orphans) {
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
    if !redo.is_empty() {
        for (w, out) in run_wave(&shards, &redo) {
            outcomes[w] = Some(out);
        }
    }

    let mut collected = Vec::with_capacity(workers);
    for out in outcomes {
        let Some(out) = out else {
            return Err(ServeError::WorkerPanicked);
        };
        collected.push(out);
    }
    Ok(merge_faulty(&cfg.plan, collected, pool_shed))
}

/// Merges worker outcomes into one pool-level outcome (order-insensitive).
fn merge(outcomes: Vec<SimOutcome>) -> SimOutcome {
    let mut completed = Vec::new();
    let mut rejected = Vec::new();
    let mut stats = SimStats::default();
    for o in outcomes {
        completed.extend(o.completed);
        rejected.extend(o.rejected);
        stats.iterations += o.stats.iterations;
        stats.peak_batch = stats.peak_batch.max(o.stats.peak_batch);
        stats.peak_queue = stats.peak_queue.max(o.stats.peak_queue);
        stats.end_s = stats.end_s.max(o.stats.end_s);
    }
    completed.sort_by_key(|c| c.id);
    rejected.sort_unstable();
    SimOutcome {
        completed,
        rejected,
        stats,
    }
}

/// Merges fault-aware worker outcomes; `pool_shed` carries the ids no live
/// worker could take. Pool availability is healthy worker-seconds over
/// total worker-seconds across the merged serving window.
fn merge_faulty(
    plan: &FaultPlan,
    outcomes: Vec<FaultSimOutcome>,
    pool_shed: Vec<u64>,
) -> FaultSimOutcome {
    let mut failed = Vec::new();
    let mut deadline_missed = Vec::new();
    let mut shed = pool_shed;
    let mut corrupted = Vec::new();
    let mut orphans = Vec::new();
    let mut faults = FaultStats::default();
    let mut bases = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        failed.extend(o.failed);
        deadline_missed.extend(o.deadline_missed);
        shed.extend(o.shed);
        corrupted.extend(o.corrupted);
        orphans.extend(o.orphans);
        faults.absorb(&o.faults);
        bases.push(o.base);
    }
    let base = merge(bases);
    // Crash accounting is plan data: a worker whose shard drained before its
    // crash time never hits the crash branch in simulation, but it is still
    // a dead worker from the operator's point of view.
    faults.crashed_workers = plan
        .workers
        .iter()
        .filter(|w| w.crash_at_s.is_some())
        .count() as u32;
    failed.sort_unstable();
    deadline_missed.sort_unstable();
    shed.sort_unstable();
    corrupted.sort_unstable();
    let end = base.stats.end_s;
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
    FaultSimOutcome {
        base,
        failed,
        deadline_missed,
        shed,
        corrupted,
        orphans,
        faults,
        availability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ArrivalProcess, LengthDistribution, TraceSpec};
    use owlp_core::Accelerator;
    use owlp_model::{Dataset, ModelId};

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

    #[test]
    fn sharding_is_round_robin_and_total() {
        let t = trace(10);
        let shards = shard(&t, 3);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 10);
        assert_eq!(shards[0].len(), 4);
        assert_eq!(shards[1][0].id, 1);
        assert_eq!(shards[2][1].id, 5);
    }

    #[test]
    fn faulty_sharding_without_crashes_matches_plain() {
        let t = trace(24);
        let (shards, unserved) = shard_faulty(&t, &FaultPlan::none(3), 3);
        assert_eq!(shards, shard(&t, 3));
        assert!(unserved.is_empty());
    }

    #[test]
    fn faulty_sharding_skips_dead_workers() {
        let t = trace(24);
        let mut plan = FaultPlan::none(3);
        plan.workers[1].crash_at_s = Some(0.0);
        let (shards, unserved) = shard_faulty(&t, &plan, 3);
        assert!(shards[1].is_empty());
        assert_eq!(shards[0].len() + shards[2].len(), 24);
        assert!(unserved.is_empty());
        // Everybody dead at t=0 ⇒ everything unserved.
        for w in &mut plan.workers {
            w.crash_at_s = Some(0.0);
        }
        let (_, unserved) = shard_faulty(&t, &plan, 3);
        assert_eq!(unserved.len(), 24);
    }

    #[test]
    fn zero_worker_pool_is_a_typed_error() {
        let cm = cost();
        let cfg = PoolConfig {
            workers: 0,
            scheduler: SchedulerConfig::default(),
        };
        assert!(matches!(
            simulate_pool(&cm, &cfg, &trace(4)),
            Err(ServeError::InvalidPool(_))
        ));
    }

    #[test]
    fn fault_config_validation_is_typed() {
        let cfg = FaultPoolConfig {
            plan: FaultPlan::none(3), // pool has 4
            ..FaultPoolConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(ServeError::InvalidPool(_))));
        let cfg = FaultPoolConfig {
            failover_delay_s: f64::NAN,
            ..FaultPoolConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(ServeError::InvalidPool(_))));
        let mut cfg = FaultPoolConfig::default();
        cfg.recovery.backoff_base_s = -1.0;
        assert!(matches!(cfg.validate(), Err(ServeError::InvalidPolicy(_))));
        assert!(FaultPoolConfig::default().validate().is_ok());
    }

    #[test]
    fn pool_runs_are_reproducible_across_thread_schedules() {
        let cm = cost();
        let cfg = PoolConfig {
            workers: 4,
            scheduler: SchedulerConfig::default(),
        };
        let t = trace(160);
        let a = simulate_pool(&cm, &cfg, &t).unwrap();
        let b = simulate_pool(&cm, &cfg, &t).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.completed.len() + a.rejected.len(), t.len());
    }

    #[test]
    fn pool_matches_sequential_shard_runs() {
        let cm = cost();
        let cfg = PoolConfig {
            workers: 3,
            scheduler: SchedulerConfig::default(),
        };
        let t = trace(90);
        let threaded = simulate_pool(&cm, &cfg, &t).unwrap();
        let sequential = merge(
            shard(&t, 3)
                .iter()
                .map(|sh| scheduler::simulate(&cm, &cfg.scheduler, sh))
                .collect(),
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
            let cfg = PoolConfig {
                workers,
                scheduler: SchedulerConfig {
                    max_batch: 8,
                    queue_capacity: 512,
                },
            };
            simulate_pool(&cm, &cfg, &t).unwrap().stats.end_s
        };
        assert!(end(4) < end(1));
    }

    #[test]
    fn zero_fault_pool_is_bit_identical_to_plain_pool() {
        let cm = cost();
        let t = trace(120);
        let cfg = FaultPoolConfig::default();
        let faulty = simulate_pool_faulty(&cm, &cfg, &t).unwrap();
        let plain = simulate_pool(&cm, &cfg.pool, &t).unwrap();
        assert_eq!(faulty.base, plain);
        assert!(faulty.failed.is_empty());
        assert!(faulty.shed.is_empty());
        assert!(faulty.corrupted.is_empty());
        assert!(faulty.orphans.is_empty());
        assert_eq!(faulty.availability, 1.0);
    }

    #[test]
    fn crashed_worker_loses_no_requests() {
        let cm = cost();
        let t = trace(160);
        let mut cfg = FaultPoolConfig::default();
        // Kill worker 2 mid-run; everyone else stays up.
        let mid = t[t.len() / 2].arrival_s;
        cfg.plan.workers[2].crash_at_s = Some(mid);
        let out = simulate_pool_faulty(&cm, &cfg, &t).unwrap();
        let mut ids: Vec<u64> = out.base.completed.iter().map(|c| c.id).collect();
        ids.extend(&out.base.rejected);
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
        assert_eq!(out, simulate_pool_faulty(&cm, &cfg, &t).unwrap());
    }

    #[test]
    fn cascading_crashes_terminate_and_partition() {
        let cm = cost();
        let t = trace(200);
        let mut cfg = FaultPoolConfig::default();
        let span = t.last().unwrap().arrival_s;
        // Three of four workers die in sequence: orphans cascade forward.
        cfg.plan.workers[0].crash_at_s = Some(span * 0.3);
        cfg.plan.workers[1].crash_at_s = Some(span * 0.5);
        cfg.plan.workers[3].crash_at_s = Some(span * 0.7);
        let out = simulate_pool_faulty(&cm, &cfg, &t).unwrap();
        let total = out.base.completed.len()
            + out.base.rejected.len()
            + out.failed.len()
            + out.deadline_missed.len()
            + out.shed.len();
        assert_eq!(total, t.len());
        assert!(out.orphans.is_empty());
        assert_eq!(out.faults.crashed_workers, 3);
        assert_eq!(out, simulate_pool_faulty(&cm, &cfg, &t).unwrap());
    }
}
