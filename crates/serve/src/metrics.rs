//! Percentile roll-ups of per-request latency records.
//!
//! Percentiles use the **nearest-rank** definition on a sorted sample
//! (`p(q) = x[⌈q·n⌉ − 1]`): exact, monotone in `q`, and matched against a
//! naive counting oracle in the property tests.

use crate::scheduler::{CompletedRequest, SimOutcome};
use serde::Serialize;

/// p50/p95/p99 of one latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Computes the three ranks from unsorted values (0s when empty).
    pub fn of(values: &[f64]) -> Percentiles {
        if values.is_empty() {
            return Percentiles::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        Percentiles {
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample;
/// `q` is clamped to `(0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The serving figure-of-merit roll-up for one run at one offered load.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServingSummary {
    /// Design-point name.
    pub design: String,
    /// Offered load, requests per second.
    pub offered_rps: f64,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests rejected by admission backpressure.
    pub rejected: usize,
    /// `rejected / requests`.
    pub rejection_rate: f64,
    /// Completed requests per second of serving time (arrival of the first
    /// request to completion of the last) — the throughput the operator
    /// actually banks.
    pub goodput_rps: f64,
    /// Generated tokens per second over the same window.
    pub output_tokens_per_s: f64,
    /// Time-to-first-token percentiles, milliseconds.
    pub ttft_ms: Percentiles,
    /// Time-per-output-token percentiles, milliseconds.
    pub tpot_ms: Percentiles,
    /// End-to-end latency percentiles, milliseconds.
    pub e2e_ms: Percentiles,
}

/// The full figure-of-merit roll-up of one run: the latency/goodput
/// [`ServingSummary`] plus availability, recovery-path counters, and the
/// fault-adjusted goodput an operator actually banks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsReport {
    /// Latency/goodput roll-up of the served requests. `requests` and
    /// `rejection_rate` are computed over the *full* id partition
    /// (completed + rejected + failed + deadline-missed + shed), which is
    /// completed + rejected on a fault-free run.
    pub summary: ServingSummary,
    /// Retry re-admissions scheduled after transient failures.
    pub retries: u64,
    /// Requests evicted after exhausting their retry budget.
    pub evictions: u64,
    /// Requests shed by degraded-mode admission tightening.
    pub shed: usize,
    /// Requests that missed their deadline.
    pub deadline_missed: usize,
    /// `deadline_missed / requests`.
    pub deadline_miss_rate: f64,
    /// Served responses carrying an *escaped* corruption — strikes no
    /// detector fired on. Detected-and-corrected strikes never land here.
    pub corrupted_responses: usize,
    /// SDC strikes injected.
    pub sdc_events: u64,
    /// SDC strikes any integrity detector (parity, plane CRC, ABFT)
    /// caught.
    pub sdc_detected: u64,
    /// Detected strikes repaired in place by a bounded tile recompute,
    /// delivering oracle-identical bits without a full re-execution.
    pub sdc_corrected: u64,
    /// Undetected strikes that corrupted a delivered response.
    pub sdc_escaped: u64,
    /// Undetected strikes absorbed by FP32 rounding (bit-clean output).
    pub sdc_masked: u64,
    /// Bounded tile recomputes performed by the localized-repair path.
    pub tile_recomputes: u64,
    /// Mean detection latency of caught SDCs, in iterations (storage
    /// checks fire at load, ABFT at the end of the struck iteration).
    pub sdc_detect_latency_iters: f64,
    /// Iterations re-executed after detected-but-unlocalized SDCs.
    pub reexec_iterations: u64,
    /// Transient iteration faults injected.
    pub iter_faults: u64,
    /// Workers that crashed during the run.
    pub crashed_workers: u32,
    /// Healthy worker-seconds over total worker-seconds (1.0 fault-free).
    pub availability: f64,
    /// Goodput counting only *clean* (uncorrupted) completions — the
    /// number OwL-P's side-band parity is defending.
    pub goodput_under_faults_rps: f64,
}

/// Rolls one simulation outcome up into a [`MetricsReport`].
pub fn summarize(design: &str, offered_rps: f64, out: &SimOutcome) -> MetricsReport {
    let requests = out.completed.len()
        + out.rejected.len()
        + out.failed.len()
        + out.deadline_missed.len()
        + out.shed.len();
    let share = |n: usize| {
        if requests == 0 {
            0.0
        } else {
            n as f64 / requests as f64
        }
    };
    let ms = |latency_s: fn(&CompletedRequest) -> f64| {
        let sample: Vec<f64> = out.completed.iter().map(|c| latency_s(c) * 1e3).collect();
        Percentiles::of(&sample)
    };
    let span = out
        .completed
        .iter()
        .map(|c| c.finished_s)
        .fold(0.0f64, f64::max)
        - out
            .completed
            .iter()
            .map(|c| c.arrival_s)
            .fold(f64::INFINITY, f64::min);
    let span = if span.is_finite() && span > 0.0 {
        span
    } else {
        f64::INFINITY // zero/undefined window ⇒ zero rates below
    };
    let served = out.completed.len();
    let tokens: usize = out.completed.iter().map(|c| c.gen_len).sum();
    let summary = ServingSummary {
        design: design.to_string(),
        offered_rps,
        requests,
        completed: served,
        rejected: out.rejected.len(),
        rejection_rate: share(out.rejected.len()),
        goodput_rps: served as f64 / span,
        output_tokens_per_s: tokens as f64 / span,
        ttft_ms: ms(CompletedRequest::ttft_s),
        tpot_ms: ms(CompletedRequest::tpot_s),
        e2e_ms: ms(CompletedRequest::e2e_s),
    };
    let goodput_under_faults_rps = if served == 0 {
        0.0
    } else {
        // Ratio first: with zero corruptions it is exactly 1.0, so a clean
        // run's clean goodput equals its goodput to the bit.
        summary.goodput_rps * ((served - out.corrupted.len()) as f64 / served as f64)
    };
    MetricsReport {
        summary,
        retries: out.faults.retries,
        evictions: out.faults.evictions,
        shed: out.shed.len(),
        deadline_missed: out.deadline_missed.len(),
        deadline_miss_rate: share(out.deadline_missed.len()),
        corrupted_responses: out.corrupted.len(),
        sdc_events: out.faults.sdc_events,
        sdc_detected: out.faults.sdc_detected,
        sdc_corrected: out.faults.sdc_corrected,
        sdc_escaped: out.faults.sdc_escaped,
        sdc_masked: out.faults.sdc_masked,
        tile_recomputes: out.faults.tile_recomputes,
        sdc_detect_latency_iters: if out.faults.sdc_detected == 0 {
            0.0
        } else {
            out.faults.sdc_detect_latency_iters as f64 / out.faults.sdc_detected as f64
        },
        reexec_iterations: out.faults.reexec_iterations,
        iter_faults: out.faults.iter_faults,
        crashed_workers: out.faults.crashed_workers,
        availability: out.availability,
        goodput_under_faults_rps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{FaultStats, SimStats};

    fn outcome(completed: Vec<CompletedRequest>, rejected: Vec<u64>) -> SimOutcome {
        SimOutcome {
            completed,
            rejected,
            failed: vec![],
            deadline_missed: vec![],
            shed: vec![],
            corrupted: vec![],
            orphans: vec![],
            stats: SimStats::default(),
            faults: FaultStats::default(),
            availability: 1.0,
        }
    }

    #[test]
    fn nearest_rank_on_known_sample() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.95), 95.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn percentiles_of_empty_are_zero() {
        assert_eq!(Percentiles::of(&[]), Percentiles::default());
    }

    #[test]
    fn summary_counts_and_rates() {
        let completed = vec![
            CompletedRequest {
                id: 0,
                prompt_len: 8,
                gen_len: 10,
                arrival_s: 0.0,
                admitted_s: 0.0,
                first_token_s: 0.5,
                finished_s: 1.0,
            },
            CompletedRequest {
                id: 1,
                prompt_len: 8,
                gen_len: 10,
                arrival_s: 1.0,
                admitted_s: 1.0,
                first_token_s: 1.5,
                finished_s: 2.0,
            },
        ];
        let r = summarize("owlp", 4.0, &outcome(completed, vec![2, 3]));
        assert_eq!(r.goodput_under_faults_rps, r.summary.goodput_rps);
        assert_eq!(r.availability, 1.0);
        let s = r.summary;
        assert_eq!(s.requests, 4);
        assert_eq!(s.completed, 2);
        assert_eq!(s.rejection_rate, 0.5);
        // 2 requests over the [0, 2] s window.
        assert!((s.goodput_rps - 1.0).abs() < 1e-12);
        assert!((s.output_tokens_per_s - 10.0).abs() < 1e-12);
        assert_eq!(s.ttft_ms.p50, 500.0);
    }

    #[test]
    fn fault_report_partitions_and_discounts_goodput() {
        let completed = vec![
            CompletedRequest {
                id: 0,
                prompt_len: 8,
                gen_len: 10,
                arrival_s: 0.0,
                admitted_s: 0.0,
                first_token_s: 0.5,
                finished_s: 1.0,
            },
            CompletedRequest {
                id: 1,
                prompt_len: 8,
                gen_len: 10,
                arrival_s: 1.0,
                admitted_s: 1.0,
                first_token_s: 1.5,
                finished_s: 2.0,
            },
        ];
        let out = SimOutcome {
            failed: vec![3],
            deadline_missed: vec![4],
            shed: vec![5, 6],
            corrupted: vec![1],
            faults: FaultStats {
                retries: 2,
                evictions: 1,
                sdc_events: 10,
                sdc_detected: 6,
                sdc_corrected: 5,
                sdc_escaped: 1,
                sdc_masked: 3,
                tile_recomputes: 5,
                sdc_detect_latency_iters: 3,
                ..FaultStats::default()
            },
            availability: 0.75,
            ..outcome(completed, vec![2])
        };
        let r = summarize("owlp", 4.0, &out);
        // 2 completed + 1 rejected + 1 failed + 1 missed + 2 shed.
        assert_eq!(r.summary.requests, 7);
        assert!((r.summary.rejection_rate - 1.0 / 7.0).abs() < 1e-12);
        assert!((r.deadline_miss_rate - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(r.shed, 2);
        assert_eq!(r.corrupted_responses, 1);
        assert_eq!(r.retries, 2);
        assert_eq!(r.evictions, 1);
        // Every strike is detected, masked, or escaped — corrected ones
        // are a subset of detected, not a separate partition cell.
        assert_eq!(r.sdc_detected + r.sdc_masked + r.sdc_escaped, r.sdc_events);
        assert_eq!(r.sdc_corrected, 5);
        assert_eq!(r.tile_recomputes, 5);
        assert!((r.sdc_detect_latency_iters - 0.5).abs() < 1e-12);
        // Only the escape corrupts a completion: clean goodput is halved,
        // and the five corrected strikes cost tile recomputes, not goodput.
        assert!((r.goodput_under_faults_rps - 0.5 * r.summary.goodput_rps).abs() < 1e-12);
        assert_eq!(r.availability, 0.75);
    }
}
