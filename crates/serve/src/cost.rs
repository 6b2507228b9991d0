//! Iteration cost model: prices scheduler iterations on the accelerator.
//!
//! The scheduler works in iteration-level units (one prefill admission, one
//! decode step across the running batch). Each unit is priced by building
//! the corresponding single-iteration workload
//! ([`owlp_model::workload::prefill_workload`] /
//! [`owlp_model::workload::decode_step_workload`]) and running it through
//! the [`Accelerator`] cycle model — the same Eq. (4) + bandwidth-overlap
//! model behind the paper's batch results, so serving latencies inherit its
//! calibration.
//!
//! Decode cost decomposes as `projections(batch) + Σ attention(kv_i)`: the
//! projection GEMMs batch all running sequences into `M = batch` rows while
//! attention runs per sequence against its own cache, so the per-sequence
//! attention cost is priced at batch 1 and summed. KV lengths are rounded
//! up to powers of two (the repo's bucketing idiom) to keep the memoised
//! tables small; the cache is behind a `parking_lot` mutex so one cost
//! model can serve all pool workers.

use owlp_core::Accelerator;
use owlp_model::{workload, Dataset, GemmOp, ModelId, OpClass, Workload};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Memoised iteration prices for one (design, model, dataset) triple.
pub struct CostModel {
    acc: Accelerator,
    model: ModelId,
    dataset: Dataset,
    prefill: Mutex<HashMap<usize, f64>>,
    projection: Mutex<HashMap<usize, f64>>,
    attention: Mutex<HashMap<usize, f64>>,
}

impl CostModel {
    /// Builds a cost model for one design point, model and dataset.
    pub fn new(acc: Accelerator, model: ModelId, dataset: Dataset) -> Self {
        CostModel {
            acc,
            model,
            dataset,
            prefill: Mutex::new(HashMap::new()),
            projection: Mutex::new(HashMap::new()),
            attention: Mutex::new(HashMap::new()),
        }
    }

    /// Prices one op of `wl`.
    fn op_seconds(&self, wl: &Workload, op: &GemmOp) -> f64 {
        self.acc
            .seconds_for(self.acc.op_report(wl, op, self.dataset).cycles)
    }

    /// The design point being priced.
    pub fn accelerator(&self) -> &Accelerator {
        &self.acc
    }

    /// Seconds to prefill one sequence's `prompt_len`-token prompt.
    /// Decode-shaped prompts (`prompt_len ≤ 1`) cost nothing here — their
    /// single token rides the next decode iteration.
    pub fn prefill_seconds(&self, prompt_len: usize) -> f64 {
        if prompt_len <= 1 {
            return 0.0;
        }
        let len = bucket(prompt_len);
        if let Some(&s) = self.prefill.lock().get(&len) {
            return s;
        }
        let wl = workload::prefill_workload(self.model, 1, len);
        let s = self.acc.simulate(&wl, self.dataset).seconds;
        self.prefill.lock().insert(len, s);
        s
    }

    /// Seconds for one decode iteration: `batch` sequences each generate
    /// one token, sequence `i` attending over `kv_lens[i]` cache entries.
    pub fn decode_step_seconds(&self, kv_lens: &[usize]) -> f64 {
        if kv_lens.is_empty() {
            return 0.0;
        }
        let mut s = self.projection_seconds(kv_lens.len());
        for &kv in kv_lens {
            s += self.attention_seconds(kv);
        }
        s
    }

    /// Seconds of the batched projection/FFN GEMMs of one decode step.
    pub fn projection_seconds(&self, batch: usize) -> f64 {
        let batch = batch.max(1);
        if let Some(&s) = self.projection.lock().get(&batch) {
            return s;
        }
        let wl = workload::decode_step_workload(self.model, batch, 1);
        let s: f64 = wl
            .ops
            .iter()
            .filter(|o| o.class() != OpClass::Attention)
            .map(|o| self.op_seconds(&wl, o))
            .sum();
        self.projection.lock().insert(batch, s);
        s
    }

    /// Seconds of one sequence's decode attention over a `kv_len` cache.
    pub fn attention_seconds(&self, kv_len: usize) -> f64 {
        let kv = bucket(kv_len.max(1));
        if let Some(&s) = self.attention.lock().get(&kv) {
            return s;
        }
        let wl = workload::decode_step_workload(self.model, 1, kv);
        let s: f64 = wl
            .ops
            .iter()
            .filter(|o| o.class() == OpClass::Attention)
            .map(|o| self.op_seconds(&wl, o))
            .sum();
        self.attention.lock().insert(kv, s);
        s
    }
}

/// Rounds up to the next power of two (the KV-length bucketing idiom).
fn bucket(n: usize) -> usize {
    n.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(Accelerator::owlp(), ModelId::Gpt2Base, Dataset::WikiText2)
    }

    #[test]
    fn costs_are_positive_and_monotone() {
        let cm = model();
        assert_eq!(cm.prefill_seconds(1), 0.0);
        let p_short = cm.prefill_seconds(64);
        let p_long = cm.prefill_seconds(512);
        assert!(p_short > 0.0);
        assert!(p_long > p_short);
        let d_small = cm.decode_step_seconds(&[64; 4]);
        let d_big = cm.decode_step_seconds(&[1024; 4]);
        assert!(d_small > 0.0);
        assert!(d_big > d_small, "{d_big} vs {d_small}");
    }

    #[test]
    fn batching_decode_is_cheaper_than_serial_steps() {
        let cm = model();
        let batched = cm.decode_step_seconds(&[128; 8]);
        let serial = 8.0 * cm.decode_step_seconds(&[128]);
        assert!(batched < serial, "{batched} vs {serial}");
    }

    #[test]
    fn owlp_decodes_faster_than_baseline() {
        let owlp = model();
        let base = CostModel::new(
            Accelerator::baseline(),
            ModelId::Gpt2Base,
            Dataset::WikiText2,
        );
        let kv = [256usize; 16];
        assert!(owlp.decode_step_seconds(&kv) < base.decode_step_seconds(&kv));
        assert!(owlp.prefill_seconds(256) < base.prefill_seconds(256));
    }

    #[test]
    fn memoisation_is_transparent() {
        let cm = model();
        let a = cm.decode_step_seconds(&[100, 200]);
        let b = cm.decode_step_seconds(&[100, 200]);
        assert_eq!(a, b);
        // Bucketing: lengths in the same power-of-two bucket price equally.
        assert_eq!(cm.attention_seconds(65), cm.attention_seconds(128));
    }
}
