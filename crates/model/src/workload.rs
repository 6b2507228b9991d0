//! Workload construction: the GEMM stream of full-model inference.
//!
//! Two builders mirror the paper's evaluation setups (§VI-C):
//!
//! * [`encoder_workload`] — BERT-style single-pass inference over a fixed
//!   token length (512 in the paper);
//! * [`generation_workload`] — GPT2/Llama2 auto-regressive generation with
//!   **KV caching** and **continuous batching** at batch 32 (per Orca):
//!   a prefill pass over the prompt followed by `gen_len` decode steps in
//!   which the batch contributes `batch` activation rows to every projection
//!   GEMM while attention runs per sequence against the growing KV cache.
//!
//! Decode-step attention shapes grow with the cache; the builders emit one
//! aggregated [`GemmOp`] per power-of-two cache-length bucket so cycle
//! models see representative shapes without enumerating thousands of steps.

use crate::config::{Arch, ModelId};
use crate::layers::{GemmOp, OpKind, Phase};
use serde::{Deserialize, Serialize};

/// A named stream of GEMMs plus its provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Human-readable name, e.g. `"GPT2-Base gen 256"`.
    pub name: String,
    /// Source model.
    pub model: ModelId,
    /// Batch size.
    pub batch: usize,
    /// The GEMM stream.
    pub ops: Vec<GemmOp>,
}

impl Workload {
    /// Total MAC count.
    pub fn total_macs(&self) -> u64 {
        self.ops.iter().map(GemmOp::macs).sum()
    }

    /// Total FLOPs (2 × MACs).
    pub fn total_flops(&self) -> u64 {
        self.ops.iter().map(GemmOp::flops).sum()
    }

    /// Static-weight elements of the model touched by this workload,
    /// counted once per distinct weight matrix (`layers` per static op),
    /// for footprint estimates.
    pub fn unique_weight_elements(&self) -> u64 {
        let layers = self.model.config().layers as u64;
        // Deduplicate static ops by (kind, k, n): prefill and decode reuse
        // the same weight matrices.
        let mut seen = std::collections::BTreeSet::new();
        self.ops
            .iter()
            .filter(|o| o.kind.weight_is_static())
            .filter(|o| seen.insert((format!("{}", o.kind), o.k, o.n)))
            .map(|o| o.weight_elements() * layers)
            .sum()
    }
}

/// Builds the encoder (BERT) workload: one forward pass, `seq` tokens.
///
/// # Panics
///
/// Panics if called for a decoder-family model.
pub fn encoder_workload(model: ModelId, seq: usize, batch: usize) -> Workload {
    let cfg = model.config();
    assert_eq!(
        cfg.arch,
        Arch::Encoder,
        "encoder workload requires an encoder model"
    );
    let l = cfg.layers as u64;
    let h = cfg.hidden;
    let heads = cfg.heads as u64;
    let d = cfg.head_dim();
    let m = seq * batch;
    let ops = vec![
        GemmOp::new(OpKind::QkvProj, m, h, 3 * h, l),
        GemmOp::new(OpKind::AttnScore, seq, d, seq, l * heads * batch as u64),
        GemmOp::new(OpKind::AttnContext, seq, seq, d, l * heads * batch as u64),
        GemmOp::new(OpKind::OutProj, m, h, h, l),
        GemmOp::new(OpKind::FfnUp, m, h, cfg.ffn_dim, l),
        GemmOp::new(OpKind::FfnDown, m, cfg.ffn_dim, h, l),
    ];
    Workload {
        name: format!("{model} seq {seq}"),
        model,
        batch,
        ops,
    }
}

/// Builds the generation workload: prefill over `prompt_len` tokens, then
/// `gen_len` decode steps with KV caching, at `batch` concurrent sequences
/// (continuous batching keeps the batch full, so every decode step carries
/// `batch` tokens).
///
/// # Panics
///
/// Panics if called for an encoder model or with `gen_len == 0`.
pub fn generation_workload(
    model: ModelId,
    batch: usize,
    prompt_len: usize,
    gen_len: usize,
) -> Workload {
    let cfg = model.config();
    assert_ne!(
        cfg.arch,
        Arch::Encoder,
        "generation workload requires a decoder model"
    );
    assert!(gen_len > 0, "generation length must be positive");
    let l = cfg.layers as u64;
    let h = cfg.hidden;
    let heads = cfg.heads as u64;
    let d = cfg.head_dim();
    let kv = cfg.kv_dim();
    let qkv_n = h + 2 * kv;
    let gated = cfg.arch == Arch::GatedDecoder;
    let mut ops = Vec::new();

    // --- Prefill: all prompt tokens at once, per sequence in the batch.
    // A one-token prompt is decode-shaped (one token per sequence, same
    // per-token cost as a generation step), so it counts as decode: there
    // is no prompt-crunching ahead of the first token and TTFT is zero.
    let prefill = if prompt_len > 1 {
        Phase::Prefill
    } else {
        Phase::Decode
    };
    if prompt_len > 0 {
        let m = prompt_len * batch;
        ops.push(GemmOp::new(OpKind::QkvProj, m, h, qkv_n, l).in_phase(prefill));
        ops.push(
            GemmOp::new(
                OpKind::AttnScore,
                prompt_len,
                d,
                prompt_len,
                l * heads * batch as u64,
            )
            .in_phase(prefill),
        );
        ops.push(
            GemmOp::new(
                OpKind::AttnContext,
                prompt_len,
                prompt_len,
                d,
                l * heads * batch as u64,
            )
            .in_phase(prefill),
        );
        ops.push(GemmOp::new(OpKind::OutProj, m, h, h, l).in_phase(prefill));
        if gated {
            ops.push(GemmOp::new(OpKind::FfnGate, m, h, cfg.ffn_dim, l).in_phase(prefill));
        }
        ops.push(GemmOp::new(OpKind::FfnUp, m, h, cfg.ffn_dim, l).in_phase(prefill));
        ops.push(GemmOp::new(OpKind::FfnDown, m, cfg.ffn_dim, h, l).in_phase(prefill));
    }

    // --- Decode: one token per sequence per step; projections batch the
    // whole continuous batch into M = batch rows.
    let steps = gen_len as u64;
    let dec = Phase::Decode;
    ops.push(GemmOp::new(OpKind::QkvProj, batch, h, qkv_n, l * steps).in_phase(dec));
    ops.push(GemmOp::new(OpKind::OutProj, batch, h, h, l * steps).in_phase(dec));
    if gated {
        ops.push(GemmOp::new(OpKind::FfnGate, batch, h, cfg.ffn_dim, l * steps).in_phase(dec));
    }
    ops.push(GemmOp::new(OpKind::FfnUp, batch, h, cfg.ffn_dim, l * steps).in_phase(dec));
    ops.push(GemmOp::new(OpKind::FfnDown, batch, cfg.ffn_dim, h, l * steps).in_phase(dec));

    // --- Decode attention against the growing KV cache, bucketed by
    // power-of-two cache length so shapes stay representative.
    for (kv_len, bucket_steps) in kv_length_buckets(prompt_len, gen_len) {
        let reps = l * heads * batch as u64 * bucket_steps;
        ops.push(GemmOp::new(OpKind::AttnScore, 1, d, kv_len, reps).in_phase(dec));
        ops.push(GemmOp::new(OpKind::AttnContext, 1, kv_len, d, reps).in_phase(dec));
    }

    Workload {
        name: format!("{model} gen {gen_len}"),
        model,
        batch,
        ops,
    }
}

/// [`generation_workload`] with **exact per-step attention shapes** — one
/// op pair per decode step instead of power-of-two buckets. Linear in
/// `gen_len`; used to validate the bucketed builder (their totals agree to
/// within the bucket quantisation).
///
/// # Panics
///
/// As [`generation_workload`].
pub fn generation_workload_exact(
    model: ModelId,
    batch: usize,
    prompt_len: usize,
    gen_len: usize,
) -> Workload {
    let mut w = generation_workload(model, batch, prompt_len, gen_len);
    // Replace the bucketed decode-attention ops with exact per-step ones.
    let cfg = model.config();
    let l = cfg.layers as u64;
    let heads = cfg.heads as u64;
    let d = cfg.head_dim();
    w.ops
        .retain(|o| !(o.m == 1 && matches!(o.kind, OpKind::AttnScore | OpKind::AttnContext)));
    for s in 0..gen_len {
        let kv_len = prompt_len + s + 1;
        let reps = l * heads * batch as u64;
        w.ops
            .push(GemmOp::new(OpKind::AttnScore, 1, d, kv_len, reps).in_phase(Phase::Decode));
        w.ops
            .push(GemmOp::new(OpKind::AttnContext, 1, kv_len, d, reps).in_phase(Phase::Decode));
    }
    w.name = format!("{model} gen {gen_len} (exact)");
    w
}

/// Builds the prefill pass alone: prompt processing for `batch` concurrent
/// sequences, `prompt_len` tokens each — one admission iteration of a
/// continuous-batching scheduler. All ops are tagged [`Phase::Prefill`]
/// (a `prompt_len ≤ 1` prompt is decode-shaped and yields an empty
/// workload; see [`generation_workload`]).
///
/// # Panics
///
/// Panics if called for an encoder model.
pub fn prefill_workload(model: ModelId, batch: usize, prompt_len: usize) -> Workload {
    let cfg = model.config();
    assert_ne!(
        cfg.arch,
        Arch::Encoder,
        "generation workload requires a decoder model"
    );
    let mut ops = Vec::new();
    if prompt_len > 1 {
        let l = cfg.layers as u64;
        let h = cfg.hidden;
        let heads = cfg.heads as u64;
        let d = cfg.head_dim();
        let qkv_n = h + 2 * cfg.kv_dim();
        let m = prompt_len * batch;
        let reps = l * heads * batch as u64;
        let p = Phase::Prefill;
        ops.push(GemmOp::new(OpKind::QkvProj, m, h, qkv_n, l).in_phase(p));
        ops.push(GemmOp::new(OpKind::AttnScore, prompt_len, d, prompt_len, reps).in_phase(p));
        ops.push(GemmOp::new(OpKind::AttnContext, prompt_len, prompt_len, d, reps).in_phase(p));
        ops.push(GemmOp::new(OpKind::OutProj, m, h, h, l).in_phase(p));
        if cfg.arch == Arch::GatedDecoder {
            ops.push(GemmOp::new(OpKind::FfnGate, m, h, cfg.ffn_dim, l).in_phase(p));
        }
        ops.push(GemmOp::new(OpKind::FfnUp, m, h, cfg.ffn_dim, l).in_phase(p));
        ops.push(GemmOp::new(OpKind::FfnDown, m, cfg.ffn_dim, h, l).in_phase(p));
    }
    Workload {
        name: format!("{model} prefill {prompt_len}"),
        model,
        batch,
        ops,
    }
}

/// Builds one decode iteration: every sequence of the batch generates one
/// token, attending over a `kv_len`-entry cache — the unit of work a
/// continuous-batching scheduler prices per step. All ops are tagged
/// [`Phase::Decode`].
///
/// # Panics
///
/// Panics if called for an encoder model or with `batch == 0` or
/// `kv_len == 0`.
pub fn decode_step_workload(model: ModelId, batch: usize, kv_len: usize) -> Workload {
    let cfg = model.config();
    assert_ne!(
        cfg.arch,
        Arch::Encoder,
        "generation workload requires a decoder model"
    );
    assert!(batch > 0, "batch must be positive");
    assert!(kv_len > 0, "kv length must be positive");
    let l = cfg.layers as u64;
    let h = cfg.hidden;
    let heads = cfg.heads as u64;
    let d = cfg.head_dim();
    let qkv_n = h + 2 * cfg.kv_dim();
    let dec = Phase::Decode;
    let mut ops = vec![
        GemmOp::new(OpKind::QkvProj, batch, h, qkv_n, l).in_phase(dec),
        GemmOp::new(OpKind::OutProj, batch, h, h, l).in_phase(dec),
    ];
    if cfg.arch == Arch::GatedDecoder {
        ops.push(GemmOp::new(OpKind::FfnGate, batch, h, cfg.ffn_dim, l).in_phase(dec));
    }
    ops.push(GemmOp::new(OpKind::FfnUp, batch, h, cfg.ffn_dim, l).in_phase(dec));
    ops.push(GemmOp::new(OpKind::FfnDown, batch, cfg.ffn_dim, h, l).in_phase(dec));
    let reps = l * heads * batch as u64;
    ops.push(GemmOp::new(OpKind::AttnScore, 1, d, kv_len, reps).in_phase(dec));
    ops.push(GemmOp::new(OpKind::AttnContext, 1, kv_len, d, reps).in_phase(dec));
    Workload {
        name: format!("{model} decode step kv {kv_len}"),
        model,
        batch,
        ops,
    }
}

/// Buckets the decode steps by KV-cache length: step `s` (0-based) attends
/// over `prompt_len + s + 1` entries; steps are grouped so that within a
/// bucket the cache length varies by at most 2× and is represented by its
/// midpoint.
pub fn kv_length_buckets(prompt_len: usize, gen_len: usize) -> Vec<(usize, u64)> {
    let mut buckets: Vec<(usize, u64)> = Vec::new();
    let mut s = 0usize;
    while s < gen_len {
        let len_here = prompt_len + s + 1;
        // Bucket until the cache doubles.
        let bucket_end_len = len_here * 2;
        let last_s = (bucket_end_len - prompt_len).min(gen_len);
        let steps = (last_s - s) as u64;
        // Representative length: midpoint of the lengths in [s+1, last_s].
        let mid = prompt_len + (s + 1 + last_s) / 2;
        buckets.push((mid, steps));
        s = last_s;
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::OpClass;

    #[test]
    fn encoder_flop_count_matches_formula() {
        let w = encoder_workload(ModelId::BertBase, 512, 1);
        let c = ModelId::BertBase.config();
        let (s, h, f, l) = (512u64, c.hidden as u64, c.ffn_dim as u64, c.layers as u64);
        // Per layer: QKV 3h², proj h², FFN 2hf (× s) + attention 2s²h.
        let expected_macs = l * (s * (3 * h * h + h * h + 2 * h * f) + 2 * s * s * h);
        assert_eq!(w.total_macs(), expected_macs);
    }

    #[test]
    fn kv_buckets_cover_every_step() {
        for (prompt, gen) in [(0usize, 1usize), (128, 256), (1, 4096), (512, 1024)] {
            let buckets = kv_length_buckets(prompt, gen);
            let total: u64 = buckets.iter().map(|&(_, s)| s).sum();
            assert_eq!(total, gen as u64, "prompt {prompt} gen {gen}");
            for &(len, _) in &buckets {
                assert!(len > prompt);
                assert!(len <= prompt + gen);
            }
        }
    }

    #[test]
    fn generation_has_gated_ffn_only_for_llama() {
        let g = generation_workload(ModelId::Gpt2Base, 32, 128, 256);
        assert!(!g.ops.iter().any(|o| o.kind == OpKind::FfnGate));
        let ll = generation_workload(ModelId::Llama2_7b, 32, 128, 256);
        assert!(ll.ops.iter().any(|o| o.kind == OpKind::FfnGate));
    }

    #[test]
    fn gqa_shrinks_qkv_width() {
        let w70 = generation_workload(ModelId::Llama2_70b, 32, 128, 64);
        let qkv = w70.ops.iter().find(|o| o.kind == OpKind::QkvProj).unwrap();
        let c = ModelId::Llama2_70b.config();
        assert_eq!(qkv.n, c.hidden + 2 * c.kv_dim());
        assert!(qkv.n < 3 * c.hidden);
    }

    #[test]
    fn decode_projections_are_memory_bound_shapes() {
        let w = generation_workload(ModelId::Llama2_7b, 32, 128, 1024);
        // Decode QKV has M = batch = 32, far below K = 4096.
        let decode_qkv = w
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::QkvProj)
            .max_by_key(|o| o.count)
            .unwrap();
        assert_eq!(decode_qkv.m, 32);
        assert_eq!(decode_qkv.count, 32 * 1024);
    }

    #[test]
    fn attention_macs_grow_with_generation_length() {
        let short = generation_workload(ModelId::Gpt2Base, 32, 128, 256);
        let long = generation_workload(ModelId::Gpt2Base, 32, 128, 1024);
        let attention_macs = |w: &Workload| -> u64 {
            w.ops
                .iter()
                .filter(|o| o.class() == OpClass::Attention)
                .map(GemmOp::macs)
                .sum()
        };
        let a_short = attention_macs(&short);
        let a_long = attention_macs(&long);
        assert!(a_long > 3 * a_short, "{a_long} vs {a_short}");
    }

    #[test]
    #[should_panic(expected = "requires an encoder model")]
    fn encoder_builder_rejects_decoders() {
        let _ = encoder_workload(ModelId::Gpt2Base, 512, 1);
    }

    #[test]
    #[should_panic(expected = "requires a decoder model")]
    fn generation_builder_rejects_encoders() {
        let _ = generation_workload(ModelId::BertBase, 32, 128, 256);
    }

    #[test]
    fn bucketed_macs_match_exact_within_quantisation() {
        for (prompt, gen) in [(128usize, 256usize), (0, 100), (512, 64)] {
            let bucketed = generation_workload(ModelId::Gpt2Base, 8, prompt, gen);
            let exact = generation_workload_exact(ModelId::Gpt2Base, 8, prompt, gen);
            let b = bucketed.total_macs() as f64;
            let e = exact.total_macs() as f64;
            let rel = (b - e).abs() / e;
            assert!(rel < 0.05, "prompt {prompt} gen {gen}: {b} vs {e} ({rel})");
            // Non-attention ops are identical.
            let non_attn = |w: &Workload| -> u64 {
                w.ops
                    .iter()
                    .filter(|o| o.class() != OpClass::Attention)
                    .map(GemmOp::macs)
                    .sum()
            };
            assert_eq!(non_attn(&bucketed), non_attn(&exact));
        }
    }

    #[test]
    fn exact_workload_has_one_op_pair_per_step() {
        let w = generation_workload_exact(ModelId::Gpt2Base, 4, 16, 50);
        let decode_attn = w
            .ops
            .iter()
            .filter(|o| o.m == 1 && o.class() == OpClass::Attention)
            .count();
        assert_eq!(decode_attn, 100);
    }

    #[test]
    fn unique_weights_match_block_params() {
        // Prefill and decode share weights; the unique count must equal the
        // model's block parameter count exactly.
        let w = generation_workload(ModelId::Llama2_7b, 32, 128, 256);
        assert_eq!(
            w.unique_weight_elements(),
            ModelId::Llama2_7b.config().block_params()
        );
        let we = encoder_workload(ModelId::BertBase, 512, 1);
        assert_eq!(
            we.unique_weight_elements(),
            ModelId::BertBase.config().block_params()
        );
    }

    #[test]
    fn zero_prompt_generation() {
        let w = generation_workload(ModelId::Gpt2Base, 4, 0, 16);
        assert!(w.total_macs() > 0);
        assert!(!w.ops.iter().any(|o| o.m == 0));
    }

    #[test]
    fn generation_ops_carry_phase_tags() {
        let w = generation_workload(ModelId::Gpt2Base, 32, 128, 64);
        assert!(w.ops.iter().all(|o| o.phase != Phase::Single));
        assert!(w.ops.iter().any(|o| o.phase == Phase::Prefill));
        assert!(w.ops.iter().any(|o| o.phase == Phase::Decode));
        // Prefill attention runs over the prompt even when the prompt is
        // shorter than the batch (the shape heuristic `m > batch` missed
        // this case).
        let prefill_attn = w
            .ops
            .iter()
            .find(|o| o.phase == Phase::Prefill && o.kind == OpKind::AttnScore)
            .unwrap();
        assert_eq!(prefill_attn.m, 128);
    }

    #[test]
    fn one_token_prompt_is_decode_only() {
        // A 1-token prompt is decode-shaped: no prompt crunching precedes
        // the first generated token, so everything is decode phase.
        for batch in [1usize, 32] {
            let w = generation_workload(ModelId::Gpt2Base, batch, 1, 16);
            assert!(w.ops.iter().all(|o| o.phase == Phase::Decode), "{batch}");
        }
        let w0 = generation_workload(ModelId::Gpt2Base, 4, 0, 16);
        assert!(w0.ops.iter().all(|o| o.phase == Phase::Decode));
    }

    #[test]
    fn encoder_ops_are_single_phase() {
        let w = encoder_workload(ModelId::BertBase, 512, 1);
        assert!(w.ops.iter().all(|o| o.phase == Phase::Single));
    }

    #[test]
    fn iteration_builders_recompose_the_full_generation() {
        // Prefill + per-step decode iterations must cover exactly the MACs
        // of the exact generation workload — the scheduler's unit costs
        // tile the whole run.
        let (model, batch, prompt, gen) = (ModelId::Llama2_7b, 8usize, 64usize, 16usize);
        let full = generation_workload_exact(model, batch, prompt, gen);
        let mut macs = prefill_workload(model, batch, prompt).total_macs();
        for s in 0..gen {
            macs += decode_step_workload(model, batch, prompt + s + 1).total_macs();
        }
        assert_eq!(macs, full.total_macs());
    }

    #[test]
    fn iteration_builders_tag_phases() {
        let p = prefill_workload(ModelId::Gpt2Base, 4, 32);
        assert!(!p.ops.is_empty());
        assert!(p.ops.iter().all(|o| o.phase == Phase::Prefill));
        let d = decode_step_workload(ModelId::Gpt2Base, 4, 33);
        assert!(d.ops.iter().all(|o| o.phase == Phase::Decode));
        // Decode-shaped prompts produce no prefill work.
        assert!(prefill_workload(ModelId::Gpt2Base, 4, 1).ops.is_empty());
        assert!(prefill_workload(ModelId::Gpt2Base, 4, 0).ops.is_empty());
    }
}
