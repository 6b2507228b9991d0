//! Serving-level metrics: translate simulated cycles into the numbers an
//! inference-serving operator cares about — tokens/second, time per output
//! token, time to first token — for the generation workloads.

use crate::accel::Accelerator;
use crate::report::SimulationReport;
use owlp_model::{workload, Dataset, GemmOp, ModelId, Phase, Workload};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why serving metrics could not be derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingError {
    /// `gen_len == 0`: there are no output tokens to account time to.
    ZeroGenerationLength,
    /// `workload.batch == 0`: there are no sequences.
    ZeroBatch,
    /// The report covers no simulated time (an empty workload, or a
    /// simulation that produced zero cycles), so every rate is undefined.
    ZeroDuration,
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServingError::ZeroGenerationLength => "generation length is zero",
            ServingError::ZeroBatch => "workload batch is zero",
            ServingError::ZeroDuration => "simulation report covers zero seconds",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ServingError {}

/// Serving metrics derived from a generation-workload simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingMetrics {
    /// Workload name.
    pub workload: String,
    /// Design name.
    pub design: String,
    /// Generated tokens per second, across the whole batch.
    pub tokens_per_second: f64,
    /// Mean time per output token per sequence, milliseconds.
    pub time_per_output_token_ms: f64,
    /// Time to first token (the prefill share of the run), milliseconds.
    pub time_to_first_token_ms: f64,
    /// End-to-end seconds.
    pub total_seconds: f64,
}

/// Derives serving metrics from a generation simulation.
///
/// `batch` sequences each produce `gen_len` tokens. Prefill time (TTFT) is
/// the MAC-weighted share of the ops tagged [`Phase::Prefill`]; decode-only
/// workloads (no prompt, or a one-token prompt, which is decode-shaped)
/// therefore report a TTFT of exactly zero. Untagged workloads (all ops
/// [`Phase::Single`], e.g. hand-built streams) fall back to the `M > batch`
/// shape heuristic.
///
/// # Errors
///
/// [`ServingError::ZeroGenerationLength`] / [`ServingError::ZeroBatch`] on
/// degenerate arguments, and [`ServingError::ZeroDuration`] when the report
/// covers no simulated time (rates would divide by zero).
pub fn serving_metrics(
    report: &SimulationReport,
    workload: &Workload,
    gen_len: usize,
) -> Result<ServingMetrics, ServingError> {
    if gen_len == 0 {
        return Err(ServingError::ZeroGenerationLength);
    }
    if workload.batch == 0 {
        return Err(ServingError::ZeroBatch);
    }
    if report.seconds <= 0.0 {
        return Err(ServingError::ZeroDuration);
    }
    let total_tokens = (workload.batch * gen_len) as f64;
    let tagged = workload.ops.iter().any(|o| o.phase != Phase::Single);
    let is_prefill = |o: &&GemmOp| {
        if tagged {
            o.phase == Phase::Prefill
        } else {
            o.m > workload.batch
        }
    };
    let prefill_macs: u64 = workload
        .ops
        .iter()
        .filter(is_prefill)
        .map(|o| o.macs())
        .sum();
    let total_macs: u64 = workload.ops.iter().map(|o| o.macs()).sum();
    let prefill_fraction = if total_macs == 0 {
        0.0
    } else {
        prefill_macs as f64 / total_macs as f64
    };
    let ttft = report.seconds * prefill_fraction;
    let decode_seconds = report.seconds - ttft;
    Ok(ServingMetrics {
        workload: report.workload.clone(),
        design: report.design.clone(),
        tokens_per_second: total_tokens / report.seconds,
        time_per_output_token_ms: decode_seconds / gen_len as f64 * 1e3,
        time_to_first_token_ms: ttft * 1e3,
        total_seconds: report.seconds,
    })
}

/// Convenience: simulate and derive metrics in one call.
///
/// # Panics
///
/// Panics if `gen_len == 0` or `batch == 0` (propagated from the workload
/// builder and [`serving_metrics`]).
pub fn simulate_serving(
    acc: &Accelerator,
    model: ModelId,
    batch: usize,
    prompt_len: usize,
    gen_len: usize,
    dataset: Dataset,
) -> ServingMetrics {
    let wl = workload::generation_workload(model, batch, prompt_len, gen_len);
    let report = acc.simulate(&wl, dataset);
    serving_metrics(&report, &wl, gen_len).expect("generation workload yields valid metrics")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owlp_serves_more_tokens_per_second() {
        let base = simulate_serving(
            &Accelerator::baseline(),
            ModelId::Gpt2Base,
            32,
            128,
            256,
            Dataset::WikiText2,
        );
        let owlp = simulate_serving(
            &Accelerator::owlp(),
            ModelId::Gpt2Base,
            32,
            128,
            256,
            Dataset::WikiText2,
        );
        assert!(owlp.tokens_per_second > 2.0 * base.tokens_per_second);
        assert!(owlp.time_per_output_token_ms < base.time_per_output_token_ms);
        assert!(owlp.time_to_first_token_ms < base.time_to_first_token_ms);
    }

    #[test]
    fn metrics_are_internally_consistent() {
        let m = simulate_serving(
            &Accelerator::owlp(),
            ModelId::Llama2_7b,
            32,
            128,
            512,
            Dataset::WikiText2,
        );
        // tokens/s × total time ≈ batch × gen.
        let tokens = m.tokens_per_second * m.total_seconds;
        assert!((tokens - (32.0 * 512.0)).abs() < 1.0, "{tokens}");
        // TTFT + decode time = total.
        let decode = m.time_per_output_token_ms * 512.0 / 1e3;
        assert!((m.time_to_first_token_ms / 1e3 + decode - m.total_seconds).abs() < 1e-9);
    }

    #[test]
    fn longer_prompts_increase_ttft() {
        let short = simulate_serving(
            &Accelerator::owlp(),
            ModelId::Gpt2Base,
            8,
            32,
            64,
            Dataset::WikiText2,
        );
        let long = simulate_serving(
            &Accelerator::owlp(),
            ModelId::Gpt2Base,
            8,
            512,
            64,
            Dataset::WikiText2,
        );
        assert!(long.time_to_first_token_ms > 2.0 * short.time_to_first_token_ms);
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let wl = workload::generation_workload(ModelId::Gpt2Base, 4, 16, 8);
        let report = Accelerator::owlp().simulate(&wl, Dataset::WikiText2);
        assert_eq!(
            serving_metrics(&report, &wl, 0),
            Err(ServingError::ZeroGenerationLength)
        );
        let mut empty_batch = wl.clone();
        empty_batch.batch = 0;
        assert_eq!(
            serving_metrics(&report, &empty_batch, 8),
            Err(ServingError::ZeroBatch)
        );
        // A fresh report has zero duration: rates are undefined, not inf.
        let blank = SimulationReport::new("d", "w");
        assert_eq!(
            serving_metrics(&blank, &wl, 8),
            Err(ServingError::ZeroDuration)
        );
        assert!(ServingError::ZeroDuration.to_string().contains("zero"));
    }

    #[test]
    fn decode_only_workloads_have_zero_ttft() {
        // A one-token prompt is decode-shaped; the old `M > batch`
        // heuristic handled it inconsistently across batch sizes.
        for (batch, prompt) in [(1usize, 1usize), (8, 1), (32, 1), (4, 0)] {
            let m = simulate_serving(
                &Accelerator::owlp(),
                ModelId::Gpt2Base,
                batch,
                prompt,
                64,
                Dataset::WikiText2,
            );
            assert_eq!(m.time_to_first_token_ms, 0.0, "batch {batch}");
            assert!(
                m.time_per_output_token_ms.is_finite() && m.time_per_output_token_ms > 0.0,
                "batch {batch}"
            );
            // With no prefill, decode accounts for the whole run.
            let decode = m.time_per_output_token_ms * 64.0 / 1e3;
            assert!((decode - m.total_seconds).abs() < 1e-12);
        }
    }

    #[test]
    fn short_prompts_still_attribute_prefill_time() {
        // prompt < batch: the shape heuristic dropped the prompt-attention
        // ops (M = prompt ≤ batch) from TTFT; phase tags keep them.
        let wl = workload::generation_workload(ModelId::Gpt2Base, 32, 16, 64);
        let report = Accelerator::owlp().simulate(&wl, Dataset::WikiText2);
        let m = serving_metrics(&report, &wl, 64).unwrap();
        assert!(m.time_to_first_token_ms > 0.0);
        let tagged: u64 = wl
            .ops
            .iter()
            .filter(|o| o.phase == owlp_model::Phase::Prefill)
            .map(|o| o.macs())
            .sum();
        let heuristic: u64 = wl
            .ops
            .iter()
            .filter(|o| o.m > wl.batch)
            .map(|o| o.macs())
            .sum();
        assert!(tagged > heuristic, "{tagged} vs {heuristic}");
    }

    #[test]
    fn throughput_is_plausible_for_the_hardware() {
        // GPT2-Base on a 16k-MAC 500 MHz engine: thousands of tokens/s at
        // batch 32, not millions and not single digits.
        let base = simulate_serving(
            &Accelerator::baseline(),
            ModelId::Gpt2Base,
            32,
            128,
            256,
            Dataset::WikiText2,
        );
        assert!(
            (100.0..5_000_000.0).contains(&base.tokens_per_second),
            "{}",
            base.tokens_per_second
        );
    }
}
