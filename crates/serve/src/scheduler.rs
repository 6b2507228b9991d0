//! Continuous-batching scheduler: a discrete-event serving simulation.
//!
//! The scheduler advances a virtual clock in iteration-level steps (per
//! Orca): each loop turn ingests arrivals into a **bounded admission
//! queue** (overflow is rejected — the backpressure policy), admits queued
//! requests FIFO into free slots of the running batch, charges their
//! prefill, then runs one decode iteration for the whole running batch.
//! Sequences leave as soon as their generation finishes, freeing slots for
//! the next admission — the batch re-forms every iteration rather than
//! draining.
//!
//! Token accounting: prefill primes the KV cache; decode step `s` emits
//! output token `s+1`. TTFT is therefore queue wait + prefill + the first
//! decode step, and TPOT averages the remaining `gen_len − 1` steps.
//!
//! Faults ride the same loop: a [`FaultPlan`] adds crashes, stalls,
//! transient failures and SDCs, and the fault-free run is the empty plan.
//! The simulation is a pure function of the trace, config and plan — no
//! wall clock, no OS randomness — which is what lets the multi-worker pool
//! (see [`crate::pool`]) reproduce metrics bit-for-bit from a seed.

use crate::cost::CostModel;
use crate::fault::{backoff_delay_s, FaultPlan, RecoveryPolicy, SdcSampler, WorkerFaultPlan};
use crate::request::{Request, SplitMix64};
use owlp_integrity::{DetectionProfile, Detector};
use serde::Serialize;
use std::collections::VecDeque;

/// Scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SchedulerConfig {
    /// Array capacity: concurrent sequences per iteration batch.
    pub max_batch: usize,
    /// Admission-queue bound; arrivals beyond it are rejected (clamped to
    /// at least 1).
    pub queue_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_batch: 32,
            queue_capacity: 64,
        }
    }
}

/// Per-request latency record of a served request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CompletedRequest {
    /// Request id.
    pub id: u64,
    /// Prompt tokens.
    pub prompt_len: usize,
    /// Generated tokens.
    pub gen_len: usize,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// When the scheduler admitted it out of the queue.
    pub admitted_s: f64,
    /// When its first output token appeared.
    pub first_token_s: f64,
    /// When its last output token appeared.
    pub finished_s: f64,
}

impl CompletedRequest {
    /// Time to first token (queue wait + prefill + first decode step).
    pub fn ttft_s(&self) -> f64 {
        self.first_token_s - self.arrival_s
    }

    /// Mean time per output token after the first (0 for one-token
    /// generations, which have no inter-token gaps).
    pub fn tpot_s(&self) -> f64 {
        if self.gen_len <= 1 {
            0.0
        } else {
            (self.finished_s - self.first_token_s) / (self.gen_len - 1) as f64
        }
    }

    /// End-to-end latency.
    pub fn e2e_s(&self) -> f64 {
        self.finished_s - self.arrival_s
    }
}

/// Aggregate counters of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct SimStats {
    /// Decode iterations executed.
    pub iterations: u64,
    /// Largest iteration batch formed (≤ `max_batch` by construction).
    pub peak_batch: usize,
    /// Deepest the admission queue got.
    pub peak_queue: usize,
    /// Final virtual-clock value, seconds.
    pub end_s: f64,
}

/// Fault-path counters of one worker (or, summed, one pool) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct FaultStats {
    /// Retry re-admissions scheduled after transient failures.
    pub retries: u64,
    /// Requests evicted after exhausting their retry budget.
    pub evictions: u64,
    /// Transient iteration faults that struck.
    pub iter_faults: u64,
    /// Silent-data-corruption strikes.
    pub sdc_events: u64,
    /// SDC strikes an armed integrity detector caught (parity, plane CRC,
    /// or ABFT — per the measured detection profile).
    pub sdc_detected: u64,
    /// Detected strikes corrected in place by a localized repair (tile
    /// rebuild or element recompute).
    pub sdc_corrected: u64,
    /// Undetected strikes that corrupted a response (true escapes).
    pub sdc_escaped: u64,
    /// Undetected strikes absorbed with no output effect (e.g. FP32
    /// rounding masked the perturbation, or the damage was latent
    /// metadata the kernel never consumed).
    pub sdc_masked: u64,
    /// Localized repairs performed (each charged at the policy's
    /// tile-recompute cost instead of a full re-execution).
    pub tile_recomputes: u64,
    /// Summed detection latency of caught SDCs, in iterations: load-time
    /// detectors (parity, plane CRC) catch before the iteration's compute
    /// (latency 0), ABFT catches after it (latency 1).
    pub sdc_detect_latency_iters: u64,
    /// Iterations re-executed after a detected SDC.
    pub reexec_iterations: u64,
    /// Workers that crashed.
    pub crashed_workers: u32,
}

impl FaultStats {
    /// Accumulates another run's counters.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.retries += other.retries;
        self.evictions += other.evictions;
        self.iter_faults += other.iter_faults;
        self.sdc_events += other.sdc_events;
        self.sdc_detected += other.sdc_detected;
        self.sdc_corrected += other.sdc_corrected;
        self.sdc_escaped += other.sdc_escaped;
        self.sdc_masked += other.sdc_masked;
        self.tile_recomputes += other.tile_recomputes;
        self.sdc_detect_latency_iters += other.sdc_detect_latency_iters;
        self.reexec_iterations += other.reexec_iterations;
        self.crashed_workers += other.crashed_workers;
    }
}

/// Everything a simulation run produced.
///
/// Request ids partition exactly: every trace id lands in exactly one of
/// `completed`, `rejected`, `failed`, `deadline_missed`, `shed`, or
/// (worker-level, until the pool re-dispatches them) `orphans`.
/// `corrupted` is a subset of `completed`. Under an empty fault plan only
/// `completed` and `rejected` fill.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimOutcome {
    /// Served requests, sorted by id.
    pub completed: Vec<CompletedRequest>,
    /// Rejected request ids (admission-queue overflow), sorted.
    pub rejected: Vec<u64>,
    /// Requests dropped after exhausting their retry budget, sorted.
    pub failed: Vec<u64>,
    /// Requests that missed their deadline (dropped in queue or finished
    /// late), sorted.
    pub deadline_missed: Vec<u64>,
    /// Requests shed by degraded-mode admission tightening (the queue had
    /// nominal room, but the healthy-worker count said otherwise), sorted.
    pub shed: Vec<u64>,
    /// Served requests whose response carries an undetected corruption,
    /// sorted; a subset of `completed` ids.
    pub corrupted: Vec<u64>,
    /// In-flight/queued/future requests stranded by a worker crash; empty
    /// at pool level (the pool re-dispatches them to survivors).
    pub orphans: Vec<Request>,
    /// Run counters.
    pub stats: SimStats,
    /// Fault-path counters.
    pub faults: FaultStats,
    /// Healthy worker-seconds over total worker-seconds (1.0 fault-free;
    /// recomputed by the pool from crash times).
    pub availability: f64,
}

struct PendingReq {
    req: Request,
    /// Transient failures suffered so far.
    attempt: u32,
    /// Earliest re-admission time (backoff); equals arrival for fresh
    /// requests.
    ready_s: f64,
}

struct Running {
    req: Request,
    attempt: u32,
    produced: usize,
    first_token_s: Option<f64>,
    admitted_s: f64,
    corrupted: bool,
}

/// Inserts into the retry list keeping `(ready_s, id)` order.
fn insert_retry(retries: &mut Vec<PendingReq>, p: PendingReq) {
    let at = retries.partition_point(|q| (q.ready_s, q.req.id) <= (p.ready_s, p.req.id));
    retries.insert(at, p);
}

/// Share of SDC strikes that hit accumulator lanes mid-GEMM, permille;
/// the rest strike operand storage at a criticality-weighted site. Lane
/// upsets are what ABFT exists for, so the mix keeps both detector
/// domains exercised.
pub const ACC_STRIKE_PERMILLE: u64 = 250;

/// Simulates serving `trace` through one array group under a fault plan.
///
/// The trace must be sorted by arrival time (as produced by
/// [`crate::request::TraceSpec::generate`]); requests with `gen_len == 0`
/// are treated as one-token generations.
///
/// `worker` indexes this worker's entry in `plan` (an out-of-range index,
/// and so every index of the empty plan, means a fault-free worker); the
/// whole plan is needed because degraded admission keys off the pool-wide
/// healthy count. A fault-free worker under a policy with no deadline
/// serves exactly like the plain continuous-batching loop: the fault
/// branches charge no time and draw no randomness, so the happy path
/// cannot drift (property-tested against the fault-free oracle).
///
/// Semantics, all at iteration granularity and fully deterministic:
///
/// * **crash** — checked at loop top: the worker halts, everything it holds
///   (running, queued, backing off, not yet ingested) returns as `orphans`;
/// * **stall** — iteration/prefill charges are multiplied by the stall
///   window's slowdown at charge time;
/// * **transient failure** — one victim request loses the iteration and
///   re-enters admission after [`backoff_delay_s`] (its generation restarts;
///   `max_retries` exceeded ⇒ evicted into `failed`);
/// * **SDC** — the strike hits an accumulator lane (a fixed
///   [`ACC_STRIKE_PERMILLE`] share) or an operand [`crate::fault::SdcSite`]
///   drawn by the process-wide [`SdcSampler`]; its fate is read from the
///   **measured** [`DetectionProfile`] of the policy's armed detectors.
///   Detected and localized ⇒ corrected at `tile_recompute_cost_permille`
///   of one step; detected but unlocalized ⇒ the iteration re-executes at
///   full price; undetected ⇒ either masked (bit-clean output anyway) or
///   one victim response is silently corrupted;
/// * **deadline** — queued/backing-off requests past their deadline are
///   dropped before admission; completions past the deadline count as
///   missed, not served;
/// * **degraded admission** — with crashes in the plan, the effective queue
///   bound scales by the pool-wide healthy fraction; arrivals refused only
///   by the tightened bound count as `shed`, not `rejected`.
pub fn simulate(
    cost: &CostModel,
    cfg: &SchedulerConfig,
    recovery: &RecoveryPolicy,
    plan: &FaultPlan,
    worker: usize,
    trace: &[Request],
) -> SimOutcome {
    let zero_plan = WorkerFaultPlan::default();
    let wp = plan.workers.get(worker).unwrap_or(&zero_plan);
    // Measured detection outcomes for the armed detectors and the
    // criticality-weighted site sampler, both memoized process-wide; only
    // fetched when SDCs can actually strike.
    let sdc = (wp.sdc_permille > 0).then(|| {
        (
            DetectionProfile::shared(recovery.integrity),
            SdcSampler::shared(),
        )
    });

    let max_batch = cfg.max_batch.max(1);
    let queue_capacity = cfg.queue_capacity.max(1);
    let total_workers = plan.workers.len().max(1);
    let degraded = recovery.degraded_admission && plan.has_crashes();
    let mut rng = SplitMix64::new(wp.stream_seed);
    let mut clock = 0.0f64;
    let mut next = 0usize;
    let mut queue: VecDeque<PendingReq> = VecDeque::new();
    let mut retries: Vec<PendingReq> = Vec::new();
    let mut running: Vec<Running> = Vec::new();
    let mut completed: Vec<CompletedRequest> = Vec::new();
    let mut rejected: Vec<u64> = Vec::new();
    let mut failed: Vec<u64> = Vec::new();
    let mut deadline_missed: Vec<u64> = Vec::new();
    let mut shed: Vec<u64> = Vec::new();
    let mut corrupted: Vec<u64> = Vec::new();
    let mut orphans: Vec<Request> = Vec::new();
    let mut stats = SimStats::default();
    let mut faults = FaultStats::default();

    loop {
        // The crash takes effect at the first iteration boundary past it.
        if let Some(crash) = wp.crash_at_s {
            if clock >= crash {
                faults.crashed_workers = 1;
                orphans.extend(running.drain(..).map(|r| r.req));
                orphans.extend(queue.drain(..).map(|p| p.req));
                orphans.extend(retries.drain(..).map(|p| p.req));
                orphans.extend_from_slice(&trace[next..]);
                break;
            }
        }

        // Ingest every arrival up to the current clock; the bounded queue
        // is the backpressure point, tightened in degraded mode.
        let eff_cap = if degraded {
            let healthy = plan.healthy_at(clock).max(1);
            (queue_capacity * healthy)
                .div_ceil(total_workers)
                .clamp(1, queue_capacity)
        } else {
            queue_capacity
        };
        while next < trace.len() && trace[next].arrival_s <= clock {
            let r = trace[next];
            if queue.len() < eff_cap {
                queue.push_back(PendingReq {
                    req: r,
                    attempt: 0,
                    ready_s: r.arrival_s,
                });
            } else if queue.len() < queue_capacity {
                shed.push(r.id);
            } else {
                rejected.push(r.id);
            }
            next += 1;
        }
        stats.peak_queue = stats.peak_queue.max(queue.len());

        // Deadline-doomed waiters are dropped before they waste service.
        if let Some(d) = recovery.deadline_s {
            let expired = |p: &PendingReq| p.req.arrival_s + d <= clock;
            for p in queue.iter().filter(|p| expired(p)) {
                deadline_missed.push(p.req.id);
            }
            queue.retain(|p| !expired(p));
            for p in retries.iter().filter(|p| expired(p)) {
                deadline_missed.push(p.req.id);
            }
            retries.retain(|p| !expired(p));
        }

        let retry_ready = retries.first().map(|p| p.ready_s);
        if running.is_empty() && queue.is_empty() && retry_ready.is_none_or(|t| t > clock) {
            // Idle: jump straight to the next event (arrival or backoff
            // expiry), whichever comes first.
            let arrival = trace.get(next).map(|r| r.arrival_s);
            clock = match (arrival, retry_ready) {
                (Some(a), Some(t)) => a.min(t),
                (Some(a), None) => a,
                (None, Some(t)) => t,
                (None, None) => break,
            };
            continue;
        }

        // Admit into free slots — expired backoffs first (they are the
        // oldest requests), then FIFO from the queue — charging prefill.
        while running.len() < max_batch {
            let p = if retries.first().is_some_and(|p| p.ready_s <= clock) {
                retries.remove(0)
            } else {
                let Some(p) = queue.pop_front() else { break };
                p
            };
            let admitted_s = clock;
            clock += cost.prefill_seconds(p.req.prompt_len) * wp.stall_multiplier(admitted_s);
            running.push(Running {
                req: p.req,
                attempt: p.attempt,
                produced: 0,
                first_token_s: None,
                admitted_s,
                corrupted: false,
            });
        }

        // One decode iteration across the running batch.
        let kv_lens: Vec<usize> = running
            .iter()
            .map(|r| r.req.prompt_len + r.produced + 1)
            .collect();
        let step = cost.decode_step_seconds(&kv_lens) * wp.stall_multiplier(clock);
        clock += step;
        stats.iterations += 1;
        stats.peak_batch = stats.peak_batch.max(running.len());

        // Transient iteration failure: one victim loses its token and goes
        // through backoff (or out, once the retry budget is spent).
        if wp.iter_fail_permille > 0
            && !running.is_empty()
            && rng.below(1000) < u64::from(wp.iter_fail_permille.min(1000))
        {
            faults.iter_faults += 1;
            let v = rng.below(running.len() as u64) as usize;
            let r = running.remove(v);
            if r.attempt >= recovery.max_retries {
                faults.evictions += 1;
                failed.push(r.req.id);
            } else {
                faults.retries += 1;
                let ready_s =
                    clock + backoff_delay_s(recovery, wp.stream_seed, r.req.id, r.attempt);
                insert_retry(
                    &mut retries,
                    PendingReq {
                        req: r.req,
                        attempt: r.attempt + 1,
                        ready_s,
                    },
                );
            }
        }

        // SDC: strike an accumulator lane or a criticality-weighted operand
        // site, then read the strike's fate from the measured detection
        // profile of the armed detectors — detection is a property of the
        // checksums, not a coin flip.
        if wp.sdc_permille > 0
            && !running.is_empty()
            && rng.below(1000) < u64::from(wp.sdc_permille.min(1000))
        {
            faults.sdc_events += 1;
            let (profile, sampler) = sdc.expect("fetched when sdc_permille > 0");
            let outcome = if rng.below(1000) < ACC_STRIKE_PERMILLE {
                profile.accumulator
            } else {
                *profile.site(sampler.draw(&mut rng).site)
            };
            match outcome.detector {
                Some(detector) => {
                    faults.sdc_detected += 1;
                    // Load-time detectors fire before the iteration's
                    // compute; ABFT verifies after it.
                    if detector == Detector::Abft {
                        faults.sdc_detect_latency_iters += 1;
                    }
                    if outcome.localized && outcome.corrected {
                        faults.sdc_corrected += 1;
                        faults.tile_recomputes += 1;
                        clock += step * f64::from(recovery.tile_recompute_cost_permille.min(1000))
                            / 1000.0;
                    } else {
                        faults.reexec_iterations += 1;
                        stats.iterations += 1;
                        clock += step; // re-run the iteration at full price
                    }
                }
                None if outcome.bit_clean => faults.sdc_masked += 1,
                None => {
                    faults.sdc_escaped += 1;
                    let v = rng.below(running.len() as u64) as usize;
                    running[v].corrupted = true;
                }
            }
        }

        let mut i = 0;
        while i < running.len() {
            let r = &mut running[i];
            r.produced += 1;
            r.first_token_s.get_or_insert(clock);
            if r.produced >= r.req.gen_len.max(1) {
                let r = running.remove(i);
                let missed = recovery
                    .deadline_s
                    .is_some_and(|d| clock - r.req.arrival_s > d);
                if missed {
                    deadline_missed.push(r.req.id);
                } else {
                    if r.corrupted {
                        corrupted.push(r.req.id);
                    }
                    completed.push(CompletedRequest {
                        id: r.req.id,
                        prompt_len: r.req.prompt_len,
                        gen_len: r.req.gen_len.max(1),
                        arrival_s: r.req.arrival_s,
                        admitted_s: r.admitted_s,
                        first_token_s: r.first_token_s.unwrap_or(clock),
                        finished_s: clock,
                    });
                }
            } else {
                i += 1;
            }
        }
    }

    stats.end_s = clock;
    completed.sort_by_key(|c| c.id);
    rejected.sort_unstable();
    failed.sort_unstable();
    deadline_missed.sort_unstable();
    shed.sort_unstable();
    corrupted.sort_unstable();
    let availability = match wp.crash_at_s {
        Some(c) if clock > 0.0 => (c / clock).clamp(0.0, 1.0),
        _ => 1.0,
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

/// The fault-free continuous-batching loop, kept as the reference that
/// [`simulate`] must reproduce bit for bit under a fault-free plan (the
/// zero-fault tests in `pool`). It shares no loop code with [`simulate`].
#[cfg(test)]
pub(crate) fn simulate_fault_free(
    cost: &CostModel,
    cfg: &SchedulerConfig,
    trace: &[Request],
) -> SimOutcome {
    struct Slot {
        req: Request,
        produced: usize,
        first_token_s: Option<f64>,
        admitted_s: f64,
    }
    let max_batch = cfg.max_batch.max(1);
    let queue_capacity = cfg.queue_capacity.max(1);
    let mut clock = 0.0f64;
    let mut next = 0usize;
    let mut queue: VecDeque<Request> = VecDeque::new();
    let mut running: Vec<Slot> = Vec::new();
    let mut completed: Vec<CompletedRequest> = Vec::new();
    let mut rejected: Vec<u64> = Vec::new();
    let mut stats = SimStats::default();

    loop {
        while next < trace.len() && trace[next].arrival_s <= clock {
            if queue.len() < queue_capacity {
                queue.push_back(trace[next]);
            } else {
                rejected.push(trace[next].id);
            }
            next += 1;
        }
        stats.peak_queue = stats.peak_queue.max(queue.len());

        if running.is_empty() && queue.is_empty() {
            match trace.get(next) {
                Some(r) => {
                    clock = r.arrival_s;
                    continue;
                }
                None => break,
            }
        }

        while running.len() < max_batch {
            let Some(req) = queue.pop_front() else { break };
            let admitted_s = clock;
            clock += cost.prefill_seconds(req.prompt_len);
            running.push(Slot {
                req,
                produced: 0,
                first_token_s: None,
                admitted_s,
            });
        }

        let kv_lens: Vec<usize> = running
            .iter()
            .map(|r| r.req.prompt_len + r.produced + 1)
            .collect();
        clock += cost.decode_step_seconds(&kv_lens);
        stats.iterations += 1;
        stats.peak_batch = stats.peak_batch.max(running.len());

        let mut i = 0;
        while i < running.len() {
            let r = &mut running[i];
            r.produced += 1;
            r.first_token_s.get_or_insert(clock);
            if r.produced >= r.req.gen_len.max(1) {
                let r = running.remove(i);
                completed.push(CompletedRequest {
                    id: r.req.id,
                    prompt_len: r.req.prompt_len,
                    gen_len: r.req.gen_len.max(1),
                    arrival_s: r.req.arrival_s,
                    admitted_s: r.admitted_s,
                    first_token_s: r.first_token_s.unwrap_or(clock),
                    finished_s: clock,
                });
            } else {
                i += 1;
            }
        }
    }

    stats.end_s = clock;
    completed.sort_by_key(|c| c.id);
    rejected.sort_unstable();
    SimOutcome {
        completed,
        rejected,
        failed: Vec::new(),
        deadline_missed: Vec::new(),
        shed: Vec::new(),
        corrupted: Vec::new(),
        orphans: Vec::new(),
        stats,
        faults: FaultStats::default(),
        availability: 1.0,
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

    /// One fault-free worker: the empty plan under the default policy.
    fn run(cm: &CostModel, cfg: &SchedulerConfig, trace: &[Request]) -> SimOutcome {
        simulate(
            cm,
            cfg,
            &RecoveryPolicy::default(),
            &FaultPlan::default(),
            0,
            trace,
        )
    }

    fn trace(rate_rps: f64, requests: usize) -> Vec<Request> {
        TraceSpec {
            arrivals: ArrivalProcess::Poisson { rate_rps },
            prompt: LengthDistribution::Uniform { lo: 16, hi: 64 },
            gen: LengthDistribution::Uniform { lo: 4, hi: 32 },
            requests,
            seed: 0x0DD5_EED5,
        }
        .generate()
    }

    #[test]
    fn every_request_is_accounted_for() {
        let cm = cost();
        let t = trace(50.0, 200);
        let out = run(&cm, &SchedulerConfig::default(), &t);
        assert_eq!(out.completed.len() + out.rejected.len(), t.len());
        assert!(out.stats.peak_batch <= 32);
    }

    #[test]
    fn latencies_are_causally_ordered() {
        let cm = cost();
        let out = run(&cm, &SchedulerConfig::default(), &trace(20.0, 100));
        for c in &out.completed {
            assert!(c.admitted_s >= c.arrival_s, "req {}", c.id);
            assert!(c.first_token_s > c.admitted_s, "req {}", c.id);
            assert!(c.finished_s >= c.first_token_s, "req {}", c.id);
            assert!(c.ttft_s() > 0.0);
            assert!(c.tpot_s() >= 0.0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let cm = cost();
        let t = trace(30.0, 150);
        let a = run(&cm, &SchedulerConfig::default(), &t);
        let b = run(&cm, &SchedulerConfig::default(), &t);
        assert_eq!(a, b);
    }

    #[test]
    fn overload_rejects_but_underload_does_not() {
        let cm = cost();
        let cfg = SchedulerConfig {
            max_batch: 4,
            queue_capacity: 4,
        };
        let calm = run(&cm, &cfg, &trace(5.0, 100));
        assert!(calm.rejected.is_empty(), "{:?}", calm.rejected.len());
        let slam = run(&cm, &cfg, &trace(100_000.0, 400));
        assert!(!slam.rejected.is_empty());
        assert_eq!(slam.completed.len() + slam.rejected.len(), 400);
    }

    #[test]
    fn queue_wait_grows_with_load() {
        let cm = cost();
        let cfg = SchedulerConfig {
            max_batch: 8,
            queue_capacity: 512,
        };
        let wait = |rate: f64| {
            let out = run(&cm, &cfg, &trace(rate, 120));
            out.completed
                .iter()
                .map(|c| c.admitted_s - c.arrival_s)
                .sum::<f64>()
                / out.completed.len() as f64
        };
        assert!(wait(2_000.0) > 2.0 * wait(2.0));
    }
}
