//! Serving under load: drive the continuous-batching simulator with a
//! Poisson arrival trace and compare what users experience on the
//! baseline FP32 array versus the OwL-P array.
//!
//! ```text
//! cargo run --release --example serving_load
//! ```

use owlp_core::Accelerator;
use owlp_model::{Dataset, ModelId};
use owlp_serve::{
    serve_trace, ArrivalProcess, LengthDistribution, PoolConfig, SchedulerConfig, ServingSummary,
    TraceSpec,
};

fn print_summary(s: &ServingSummary) {
    println!(
        "  {:<10} goodput {:>8.2} req/s   tok/s {:>9.1}   rejected {:>5.1}%",
        s.design,
        s.goodput_rps,
        s.output_tokens_per_s,
        s.rejection_rate * 100.0
    );
    println!(
        "  {:<10} TTFT p50/p95/p99 {:>8.2}/{:>8.2}/{:>8.2} ms   TPOT p50/p95 {:>6.3}/{:>6.3} ms",
        "", s.ttft_ms.p50, s.ttft_ms.p95, s.ttft_ms.p99, s.tpot_ms.p50, s.tpot_ms.p95
    );
}

fn main() {
    let pool = PoolConfig {
        workers: 4,
        scheduler: SchedulerConfig {
            max_batch: 16,
            queue_capacity: 32,
        },
        ..PoolConfig::default()
    };
    println!("GPT2-Base serving, 4-worker array pool, batch 16, queue 32");
    for rate in [50.0, 200.0, 800.0, 3200.0] {
        let trace = TraceSpec {
            arrivals: ArrivalProcess::Poisson { rate_rps: rate },
            prompt: LengthDistribution::Uniform { lo: 32, hi: 96 },
            gen: LengthDistribution::Uniform { lo: 8, hi: 32 },
            requests: 192,
            seed: 0x0DD5_EED5,
        }
        .generate();
        println!("\noffered load {rate:.0} req/s ({} requests):", trace.len());
        for acc in [Accelerator::baseline(), Accelerator::owlp()] {
            let r = serve_trace(acc, ModelId::Gpt2Base, Dataset::WikiText2, &pool, &trace)
                .expect("example pool config is valid");
            print_summary(&r.summary);
        }
    }
}
