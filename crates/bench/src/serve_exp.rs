//! Load sweep over the serving simulator (supporting analysis).
//!
//! Drives `owlp-serve` with Poisson traces at increasing offered load and
//! reports the latency/throughput curve of the baseline FP32 array versus
//! OwL-P: p50/p95/p99 TTFT and TPOT, goodput, and rejection rate at each
//! point. The per-GEMM speedup of the paper's Fig. 11 compounds under
//! continuous batching — before saturation OwL-P banks strictly more
//! goodput, and past the baseline's knee it keeps tail TTFT flat roughly
//! one octave of load longer.

use crate::render::TextTable;
use crate::SEED;
use owlp_core::Accelerator;
use owlp_model::{Dataset, ModelId};
use owlp_serve::{
    serve_trace, ArrivalProcess, LengthDistribution, PoolConfig, SchedulerConfig, ServingSummary,
    TraceSpec,
};
use serde::Serialize;

/// Offered-load points swept, requests per second.
pub const LOADS_RPS: [f64; 5] = [50.0, 200.0, 800.0, 3_200.0, 12_800.0];

/// Requests per trace.
const REQUESTS: usize = 256;

/// Both designs' summaries at one offered load.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LoadPoint {
    /// Nominal Poisson arrival rate, requests per second.
    pub offered_rps: f64,
    /// Baseline FP32 systolic array.
    pub baseline: ServingSummary,
    /// OwL-P array.
    pub owlp: ServingSummary,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LoadSweep {
    /// One entry per offered-load point, ascending.
    pub points: Vec<LoadPoint>,
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

fn trace_at(rate_rps: f64) -> Vec<owlp_serve::Request> {
    TraceSpec {
        arrivals: ArrivalProcess::Poisson { rate_rps },
        prompt: LengthDistribution::Uniform { lo: 32, hi: 96 },
        gen: LengthDistribution::Uniform { lo: 8, hi: 32 },
        requests: REQUESTS,
        seed: SEED,
    }
    .generate()
}

/// Runs the sweep on a 4-worker pool (GPT2-Base, WikiText-2 outlier rates).
pub fn run() -> LoadSweep {
    let points = LOADS_RPS
        .iter()
        .map(|&rate| {
            let trace = trace_at(rate);
            let serve = |acc: Accelerator| {
                serve_trace(acc, ModelId::Gpt2Base, Dataset::WikiText2, &pool(), &trace)
                    .expect("sweep pool config is valid")
                    .summary
            };
            LoadPoint {
                offered_rps: rate,
                baseline: serve(Accelerator::baseline()),
                owlp: serve(Accelerator::owlp()),
            }
        })
        .collect();
    LoadSweep { points }
}

/// Renders the sweep as a text table.
pub fn render(sweep: &LoadSweep) -> String {
    let mut t = TextTable::new([
        "load req/s",
        "design",
        "goodput",
        "reject%",
        "TTFT p50",
        "TTFT p95",
        "TTFT p99",
        "TPOT p50",
        "TPOT p95",
        "TPOT p99",
    ]);
    for p in &sweep.points {
        for s in [&p.baseline, &p.owlp] {
            t.row([
                format!("{:.0}", p.offered_rps),
                s.design.clone(),
                format!("{:.1}", s.goodput_rps),
                format!("{:.1}", s.rejection_rate * 100.0),
                format!("{:.2}", s.ttft_ms.p50),
                format!("{:.2}", s.ttft_ms.p95),
                format!("{:.2}", s.ttft_ms.p99),
                format!("{:.3}", s.tpot_ms.p50),
                format!("{:.3}", s.tpot_ms.p95),
                format!("{:.3}", s.tpot_ms.p99),
            ]);
        }
    }
    format!(
        "Serving load sweep — GPT2-Base, 4-worker pool, batch 16, queue 32\n\
         (TTFT/TPOT in ms; {} Poisson requests per point, seed {SEED:#x})\n{}",
        REQUESTS,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owlp_sustains_strictly_higher_goodput() {
        let sweep = run();
        assert_eq!(sweep.points.len(), LOADS_RPS.len());
        for p in &sweep.points {
            // Before the baseline saturates the margin is thin (both designs
            // keep up with arrivals and goodput tracks offered load); past
            // the knee it opens to >2x. Strict at every point either way.
            assert!(
                p.owlp.goodput_rps > p.baseline.goodput_rps,
                "owlp goodput {} <= baseline {} at {} req/s",
                p.owlp.goodput_rps,
                p.baseline.goodput_rps,
                p.offered_rps
            );
        }
    }

    #[test]
    fn latency_percentiles_are_ordered_and_grow_with_load() {
        let sweep = run();
        for p in &sweep.points {
            for s in [&p.baseline, &p.owlp] {
                assert!(s.ttft_ms.p50 <= s.ttft_ms.p95 && s.ttft_ms.p95 <= s.ttft_ms.p99);
                assert!(s.tpot_ms.p50 <= s.tpot_ms.p95 && s.tpot_ms.p95 <= s.tpot_ms.p99);
                assert!(s.tpot_ms.p50 > 0.0);
            }
        }
        // Tail TTFT at the heaviest load dwarfs the lightest for the
        // baseline (it is saturated), and the gap is far smaller for OwL-P.
        let first = &sweep.points[0];
        let last = sweep.points.last().unwrap();
        assert!(last.baseline.ttft_ms.p99 > 4.0 * first.baseline.ttft_ms.p99);
        assert!(last.baseline.ttft_ms.p99 > 2.0 * last.owlp.ttft_ms.p99);
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(run(), run());
    }
}
