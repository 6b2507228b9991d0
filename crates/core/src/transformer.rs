//! End-to-end functional transformer inference on the OwL-P datapath.
//!
//! The paper's "bullet-proof" claim is network-level: *running an
//! FP-trained model on OwL-P hardware changes nothing about its outputs*.
//! This module makes that testable: a small but complete pre-norm
//! transformer encoder (multi-head attention with softmax, residuals,
//! layernorm, GELU FFN) whose every GEMM can be executed by one of three
//! engines:
//!
//! * [`GemmEngine::Exact`] — the correctly-rounded reference;
//! * [`GemmEngine::Owlp`] — the full OwL-P pipeline (encode → INT array
//!   with outlier bypass → align → INT2FP);
//! * [`GemmEngine::FpBaseline`] — BF16-multiply / FP32-sequential-accumulate
//!   (the TPU-like baseline's arithmetic).
//!
//! All non-GEMM math (softmax, layernorm, GELU, residuals) is identical
//! f32 code across engines, and GEMM inputs are rounded to BF16 exactly as
//! an accelerator's vector unit would. The test suite asserts that the
//! OwL-P forward pass is **bit-identical** to the exact engine at every
//! intermediate tensor, while the FP baseline drifts by per-add rounding —
//! the network-level restatement of paper Table I's last row.

use owlp_arith::exact::exact_gemm;
use owlp_arith::fpmac::fp_mac_gemm;
use owlp_arith::gemm::{owlp_gemm, owlp_gemm_prepared_f32_with, GemmScratch, PreparedTensor};
use owlp_arith::ArithError;
use owlp_format::{ArchiveError, ArchiveSummary, ArchiveWriter, Bf16, FormatError, MappedArchive};
use owlp_model::profiles::{profile_for, Dataset, TensorRole};
use owlp_model::{ModelId, OpKind, TensorGen};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Which datapath executes the GEMMs of a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GemmEngine {
    /// Correctly-rounded exact reference.
    Exact,
    /// The OwL-P integer datapath.
    Owlp,
    /// BF16 multiply, FP32 sequential accumulation (baseline hardware).
    FpBaseline,
}

impl GemmEngine {
    fn gemm(
        self,
        a: &[Bf16],
        b: &[Bf16],
        m: usize,
        k: usize,
        n: usize,
    ) -> Result<Vec<f32>, ArithError> {
        match self {
            GemmEngine::Exact => {
                // `exact_gemm` panics on a non-finite operand: report the
                // first one as the OwL-P engine's encoder does.
                for t in [a, b] {
                    if let Some(index) = t.iter().position(|x| !x.is_finite()) {
                        return Err(ArithError::Format(FormatError::NonFinite { index }));
                    }
                }
                Ok(exact_gemm(a, b, m, k, n))
            }
            GemmEngine::Owlp => Ok(owlp_gemm(a, b, m, k, n)?.output),
            GemmEngine::FpBaseline => Ok(fp_mac_gemm(a, b, m, k, n)),
        }
    }
}

/// Dimensions of the test transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TinyConfig {
    /// Sequence length.
    pub seq: usize,
    /// Model dimension.
    pub hidden: usize,
    /// Attention heads (`hidden % heads == 0`).
    pub heads: usize,
    /// FFN intermediate dimension.
    pub ffn: usize,
    /// Layers.
    pub layers: usize,
}

impl TinyConfig {
    /// A small default that exercises every code path quickly.
    pub fn small() -> Self {
        TinyConfig {
            seq: 8,
            hidden: 32,
            heads: 4,
            ffn: 64,
            layers: 2,
        }
    }

    fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// `(k, n)` of the four weight tensors of one layer, in the
    /// wqkv/wo/w1/w2 order of [`LayerWeights`].
    fn weight_shapes(&self) -> [(usize, usize); 4] {
        [
            (self.hidden, 3 * self.hidden),
            (self.hidden, self.hidden),
            (self.hidden, self.ffn),
            (self.ffn, self.hidden),
        ]
    }
}

/// Archive-v2 name of weight tensor `t` (wqkv/wo/w1/w2 order) of layer `l`.
fn tensor_name(l: usize, t: usize) -> String {
    const NAMES: [&str; 4] = ["wqkv", "wo", "w1", "w2"];
    format!("layer{l}/{}", NAMES[t])
}

/// The four weights of one layer, wqkv/wo/w1/w2, in their OwL-P-prepared
/// form only: encoded, packed **and panel-tiled** once, so repeated
/// forward passes — a serving loop's decode iterations — never re-encode,
/// re-decode or re-tile a weight tensor. The planes are lossless, so the
/// reference engines read each weight's BF16 values back from them
/// ([`owlp_format::PackedOperands::to_bf16_vec`]) instead of a second copy.
type LayerWeights = [PreparedTensor; 4];

/// A complete functional transformer with profile-generated weights.
#[derive(Debug, Clone, PartialEq)]
pub struct TinyTransformer {
    config: TinyConfig,
    layers: Vec<LayerWeights>,
}

/// The forward pass result: final hidden states plus the raw output of
/// every GEMM, for engine-vs-engine comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForwardTrace {
    /// Final `seq × hidden` hidden states.
    pub output: Vec<f32>,
    /// Every GEMM's raw f32 outputs, in execution order.
    pub gemm_outputs: Vec<Vec<f32>>,
}

impl TinyTransformer {
    /// Builds a transformer whose weights follow `model`'s calibrated
    /// weight profiles (so real outlier statistics are exercised).
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads`.
    pub fn new(config: TinyConfig, model: ModelId, seed: u64) -> Self {
        assert_eq!(
            config.hidden % config.heads,
            0,
            "hidden must divide into heads"
        );
        const OPS: [OpKind; 4] = [
            OpKind::QkvProj,
            OpKind::OutProj,
            OpKind::FfnUp,
            OpKind::FfnDown,
        ];
        let shapes = config.weight_shapes();
        let layers = (0..config.layers)
            .map(|l| {
                let s = (l as u64 + 1) * 0x9E37;
                std::array::from_fn(|t| {
                    let (k, n) = shapes[t];
                    let p = profile_for(model, OPS[t], TensorRole::Weight, Dataset::WikiText2);
                    let w = TensorGen::new(p, k, n).values(seed ^ s ^ (t as u64 * 0x11));
                    PreparedTensor::with_shape(&w, k, n).expect("generated weights are finite")
                })
            })
            .collect();
        TinyTransformer { config, layers }
    }

    /// The configuration.
    pub fn config(&self) -> TinyConfig {
        self.config
    }

    /// Writes every weight into an archive-v2 file at `path`: each
    /// weight's own planes, sorted outlier tables and microkernel panels,
    /// laid out exactly as the GEMM consumes them (a loaded weight whose
    /// archive carried no panels has them packed first). The offline half
    /// of the serving cold start: [`TinyTransformer::from_archive`] maps
    /// the result back with zero decode or re-pack work.
    ///
    /// # Errors
    ///
    /// I/O failures ([`ArchiveError`]).
    pub fn save_archive(&self, path: &Path) -> Result<ArchiveSummary, ArchiveError> {
        let mut writer = ArchiveWriter::create(path)?;
        let shapes = self.config.weight_shapes();
        for (l, layer) in self.layers.iter().enumerate() {
            for (t, (&(k, n), prepared)) in shapes.iter().zip(layer).enumerate() {
                let packed = prepared.packed();
                let repacked;
                let panels = match prepared.panels() {
                    Some(panels) => panels,
                    None => {
                        repacked = packed.pack_panels(k, n);
                        &repacked
                    }
                };
                writer.add_planes(&tensor_name(l, t), k, n, packed, panels)?;
            }
        }
        writer.finish()
    }

    /// Rebuilds a transformer from a packed archive, borrowing every
    /// weight plane and panel straight out of the mapped file: each
    /// tensor's digests are verified and its prepared form adopts the
    /// mapped planes with no decode, re-pack or BF16 copy — the serving
    /// cold-start path. The result is equal to the transformer that wrote
    /// the archive, and its forward pass is bit-identical.
    ///
    /// # Errors
    ///
    /// [`ArchiveError`] for unreadable/corrupt archives, missing tensors,
    /// or shapes that disagree with `config`. A `config` that
    /// [`TinyTransformer::new`] would reject — `heads` zero or not
    /// dividing `hidden` — gives [`FormatError::ShapeMismatch`] with
    /// `expected: hidden` and `actual: heads·⌊hidden/heads⌋` (0 when
    /// `heads` is 0), before the archive is opened.
    pub fn from_archive(config: TinyConfig, path: &Path) -> Result<Self, ArchiveError> {
        let covered = config.heads * config.hidden.checked_div(config.heads).unwrap_or(0);
        if config.heads == 0 || covered != config.hidden {
            return Err(ArchiveError::Format(FormatError::ShapeMismatch {
                expected: config.hidden,
                actual: covered,
            }));
        }
        let archive = MappedArchive::open(path)?;
        let shapes = config.weight_shapes();
        let layers = (0..config.layers)
            .map(|l| {
                let mut layer = Vec::with_capacity(shapes.len());
                for (t, &(k, n)) in shapes.iter().enumerate() {
                    let mapped = archive.tensor(&tensor_name(l, t))?;
                    if (mapped.k(), mapped.n()) != (k, n) {
                        return Err(ArchiveError::Format(FormatError::ShapeMismatch {
                            expected: k * n,
                            actual: mapped.k() * mapped.n(),
                        }));
                    }
                    layer.push(PreparedTensor::from_mapped(mapped));
                }
                Ok(layer.try_into().expect("four weights per layer"))
            })
            .collect::<Result<Vec<_>, ArchiveError>>()?;
        Ok(TinyTransformer { config, layers })
    }

    /// Runs the forward pass on `input` (`seq × hidden` BF16, row-major).
    ///
    /// # Errors
    ///
    /// [`ArithError::DimensionMismatch`] (`what: "input"`) if
    /// `input.len() != seq × hidden`, checked before any work on every
    /// engine; otherwise propagates datapath errors (cannot occur for
    /// finite inputs). A non-finite GEMM operand gives
    /// [`ArithError::Format`] with [`FormatError::NonFinite`] on the
    /// [`GemmEngine::Exact`] and [`GemmEngine::Owlp`] engines;
    /// [`GemmEngine::FpBaseline`] propagates NaN and ±∞ as IEEE
    /// arithmetic does.
    pub fn forward(&self, input: &[Bf16], engine: GemmEngine) -> Result<ForwardTrace, ArithError> {
        let c = self.config;
        if input.len() != c.seq * c.hidden {
            return Err(ArithError::DimensionMismatch {
                what: "input",
                expected: c.seq * c.hidden,
                actual: input.len(),
            });
        }
        let mut trace = ForwardTrace {
            output: Vec::new(),
            gemm_outputs: Vec::new(),
        };
        // One activation-side scratch for the whole pass: every weight GEMM
        // rounds, re-encodes, and decodes its f32 activations through the
        // same reused buffers — the packed-form fused path, no per-call
        // BF16 tensor materialisation on the OwL-P engine.
        let mut scratch = GemmScratch::default();
        let mut x: Vec<f32> = input.iter().map(|b| b.to_f32()).collect();
        for lw in &self.layers {
            // --- Attention block (pre-norm).
            let normed = layernorm(&x, c.seq, c.hidden);
            let qkv = self.run_weight(
                engine,
                &mut trace,
                &mut scratch,
                &normed,
                &lw[0],
                c.seq,
                c.hidden,
                3 * c.hidden,
            )?;
            let d = c.head_dim();
            let scale = 1.0 / (d as f32).sqrt();
            let mut ctx = vec![0.0f32; c.seq * c.hidden];
            for h in 0..c.heads {
                // Slice Q/K/V for this head out of the fused projection.
                let slice = |base: usize| -> Vec<Bf16> {
                    let mut out = Vec::with_capacity(c.seq * d);
                    for t in 0..c.seq {
                        for j in 0..d {
                            out.push(Bf16::from_f32(qkv[t * 3 * c.hidden + base + h * d + j]));
                        }
                    }
                    out
                };
                let q = slice(0);
                let k = slice(c.hidden);
                let v = slice(2 * c.hidden);
                // scores = Q · Kᵀ: run as GEMM with K transposed.
                let k_t = transpose(&k, c.seq, d);
                let scores = self.run(engine, &mut trace, &q, &k_t, c.seq, d, c.seq)?;
                // softmax rows (identical f32 code on all engines).
                let probs = softmax_rows(&scores, c.seq, c.seq, scale);
                let probs_bf = to_bf16(&probs);
                let head_ctx = self.run(engine, &mut trace, &probs_bf, &v, c.seq, c.seq, d)?;
                for t in 0..c.seq {
                    for j in 0..d {
                        ctx[t * c.hidden + h * d + j] = head_ctx[t * d + j];
                    }
                }
            }
            let proj = self.run_weight(
                engine,
                &mut trace,
                &mut scratch,
                &ctx,
                &lw[1],
                c.seq,
                c.hidden,
                c.hidden,
            )?;
            for (xi, pi) in x.iter_mut().zip(&proj) {
                *xi += pi;
            }
            // --- FFN block (pre-norm).
            let normed = layernorm(&x, c.seq, c.hidden);
            let up = self.run_weight(
                engine,
                &mut trace,
                &mut scratch,
                &normed,
                &lw[2],
                c.seq,
                c.hidden,
                c.ffn,
            )?;
            let act: Vec<f32> = up.iter().map(|&u| gelu(u)).collect();
            let down = self.run_weight(
                engine,
                &mut trace,
                &mut scratch,
                &act,
                &lw[3],
                c.seq,
                c.ffn,
                c.hidden,
            )?;
            for (xi, di) in x.iter_mut().zip(&down) {
                *xi += di;
            }
        }
        trace.output = x;
        Ok(trace)
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        engine: GemmEngine,
        trace: &mut ForwardTrace,
        a: &[Bf16],
        b: &[Bf16],
        m: usize,
        k: usize,
        n: usize,
    ) -> Result<Vec<f32>, ArithError> {
        let out = engine.gemm(a, b, m, k, n)?;
        trace.gemm_outputs.push(out.clone());
        Ok(out)
    }

    /// A weight GEMM, fed raw f32 activations: on the OwL-P engine the
    /// weight side skips straight to its prepared (encoded + packed +
    /// panel-tiled) form and the activation side rounds/encodes/decodes
    /// through the caller's reused scratch buffers — no per-call BF16
    /// tensor is ever materialised. The reference engines round with the
    /// identical `Bf16::from_f32` conversion and read the weight's BF16
    /// values back out of its lossless planes, so every engine's GEMM sees
    /// the same BF16 inputs and the bit-identity contract of [`Self::run`]
    /// is unchanged.
    #[allow(clippy::too_many_arguments)]
    fn run_weight(
        &self,
        engine: GemmEngine,
        trace: &mut ForwardTrace,
        scratch: &mut GemmScratch,
        a: &[f32],
        prepared: &PreparedTensor,
        m: usize,
        k: usize,
        n: usize,
    ) -> Result<Vec<f32>, ArithError> {
        let out = match engine {
            GemmEngine::Owlp => owlp_gemm_prepared_f32_with(a, prepared, m, k, n, scratch)?.output,
            _ => engine.gemm(&to_bf16(a), &prepared.packed().to_bf16_vec(), m, k, n)?,
        };
        trace.gemm_outputs.push(out.clone());
        Ok(out)
    }
}

fn to_bf16(xs: &[f32]) -> Vec<Bf16> {
    xs.iter().map(|&x| Bf16::from_f32(x)).collect()
}

fn transpose(m: &[Bf16], rows: usize, cols: usize) -> Vec<Bf16> {
    let mut out = vec![Bf16::ZERO; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = m[r * cols + c];
        }
    }
    out
}

/// Row-wise layernorm (γ=1, β=0), plain f32.
fn layernorm(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv = 1.0 / (var + 1e-5).sqrt();
        for c in 0..cols {
            out[r * cols + c] = (row[c] - mean) * inv;
        }
    }
    out
}

/// Row-wise scaled softmax, plain f32.
fn softmax_rows(scores: &[f32], rows: usize, cols: usize, scale: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; scores.len()];
    for r in 0..rows {
        let row = &scores[r * cols..(r + 1) * cols];
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b * scale));
        let mut denom = 0.0f32;
        for c in 0..cols {
            let e = (row[c] * scale - max).exp();
            out[r * cols + c] = e;
            denom += e;
        }
        for c in 0..cols {
            out[r * cols + c] /= denom;
        }
    }
    out
}

/// tanh-approximation GELU, plain f32.
fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(cfg: TinyConfig, seed: u64) -> Vec<Bf16> {
        let p = profile_for(
            ModelId::Gpt2Base,
            OpKind::QkvProj,
            TensorRole::Activation,
            Dataset::WikiText2,
        );
        TensorGen::new(p, cfg.seq, cfg.hidden).values(seed)
    }

    #[test]
    fn owlp_forward_is_bit_identical_to_exact() {
        let cfg = TinyConfig::small();
        let model = TinyTransformer::new(cfg, ModelId::Gpt2Base, 1);
        let x = input(cfg, 2);
        let exact = model.forward(&x, GemmEngine::Exact).unwrap();
        let owlp = model.forward(&x, GemmEngine::Owlp).unwrap();
        assert_eq!(exact.gemm_outputs.len(), owlp.gemm_outputs.len());
        for (i, (e, o)) in exact
            .gemm_outputs
            .iter()
            .zip(&owlp.gemm_outputs)
            .enumerate()
        {
            for (x, y) in e.iter().zip(o) {
                assert_eq!(x.to_bits(), y.to_bits(), "gemm {i} diverged");
            }
        }
        for (x, y) in exact.output.iter().zip(&owlp.output) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fp_baseline_drifts_but_stays_close() {
        let cfg = TinyConfig::small();
        let model = TinyTransformer::new(cfg, ModelId::Gpt2Base, 3);
        let x = input(cfg, 4);
        let exact = model.forward(&x, GemmEngine::Exact).unwrap();
        let fp = model.forward(&x, GemmEngine::FpBaseline).unwrap();
        let mut any_diff = false;
        let mut max_rel = 0.0f32;
        for (e, f) in exact.output.iter().zip(&fp.output) {
            if e.to_bits() != f.to_bits() {
                any_diff = true;
            }
            let rel = (e - f).abs() / e.abs().max(1e-3);
            max_rel = max_rel.max(rel);
        }
        assert!(
            any_diff,
            "sequential FP32 should differ in at least one ulp somewhere"
        );
        assert!(max_rel < 1e-2, "but only by rounding noise: {max_rel}");
    }

    #[test]
    fn gemm_count_matches_architecture() {
        let cfg = TinyConfig::small();
        let model = TinyTransformer::new(cfg, ModelId::Gpt2Base, 5);
        let x = input(cfg, 6);
        let t = model.forward(&x, GemmEngine::Exact).unwrap();
        // Per layer: qkv + heads×(score + context) + proj + up + down.
        let expected = cfg.layers * (1 + cfg.heads * 2 + 1 + 2);
        assert_eq!(t.gemm_outputs.len(), expected);
    }

    #[test]
    fn forward_is_deterministic() {
        let cfg = TinyConfig::small();
        let model = TinyTransformer::new(cfg, ModelId::Llama2_7b, 7);
        let x = input(cfg, 8);
        let a = model.forward(&x, GemmEngine::Owlp).unwrap();
        let b = model.forward(&x, GemmEngine::Owlp).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn outputs_are_finite_and_normalised() {
        let cfg = TinyConfig {
            seq: 6,
            hidden: 24,
            heads: 3,
            ffn: 48,
            layers: 3,
        };
        let model = TinyTransformer::new(cfg, ModelId::BertBase, 9);
        let x = input(cfg, 10);
        let t = model.forward(&x, GemmEngine::Owlp).unwrap();
        assert!(t.output.iter().all(|v| v.is_finite()));
        // Residual stream should not explode through 3 layers.
        let max = t.output.iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        assert!(max < 1e4, "residual stream blew up: {max}");
    }

    #[test]
    fn wrong_input_shape_is_a_typed_error_on_every_engine() {
        let cfg = TinyConfig::small();
        let model = TinyTransformer::new(cfg, ModelId::Gpt2Base, 1);
        for engine in [GemmEngine::Exact, GemmEngine::Owlp, GemmEngine::FpBaseline] {
            let err = model.forward(&[Bf16::ONE; 3], engine).unwrap_err();
            assert_eq!(
                err,
                ArithError::DimensionMismatch {
                    what: "input",
                    expected: cfg.seq * cfg.hidden,
                    actual: 3,
                },
                "{engine:?}"
            );
        }
    }

    #[test]
    fn nan_input_is_a_typed_error_on_the_exact_and_owlp_engines() {
        let cfg = TinyConfig::small();
        let model = TinyTransformer::new(cfg, ModelId::Gpt2Base, 1);
        let mut x = input(cfg, 2);
        x[cfg.hidden + 5] = Bf16::from_f32(f32::NAN);
        let exact = model.forward(&x, GemmEngine::Exact).unwrap_err();
        let owlp = model.forward(&x, GemmEngine::Owlp).unwrap_err();
        assert!(
            matches!(exact, ArithError::Format(FormatError::NonFinite { .. })),
            "{exact:?}"
        );
        assert_eq!(exact, owlp, "both engines name the same operand");
        let fp = model.forward(&x, GemmEngine::FpBaseline).unwrap();
        assert!(fp.output.iter().any(|v| v.is_nan()), "FP propagates NaN");
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "owlp-transformer-test-{}-{name}.owl2",
            std::process::id()
        ));
        p
    }

    #[test]
    fn archive_roundtrip_reloads_an_equal_transformer() {
        let cfg = TinyConfig::small();
        let model = TinyTransformer::new(cfg, ModelId::Gpt2Base, 11);
        let path = temp_path("roundtrip");
        model.save_archive(&path).unwrap();
        let loaded = TinyTransformer::from_archive(cfg, &path).unwrap();
        // Mapped planes compare by contents, so equality covers every
        // weight value, packed plane, and memoised panel.
        assert_eq!(model, loaded);
        // The bytes depend only on the weights: saving the mapped planes
        // again, or re-encoding the weight values, writes the same file.
        let first = std::fs::read(&path).unwrap();
        let again = temp_path("roundtrip-again");
        loaded.save_archive(&again).unwrap();
        assert!(std::fs::read(&again).unwrap() == first, "mapped planes");
        let mut w = ArchiveWriter::create(&again).unwrap();
        let shapes = cfg.weight_shapes();
        for (l, layer) in model.layers.iter().enumerate() {
            for (t, (&(k, n), prepared)) in shapes.iter().zip(layer).enumerate() {
                let values = prepared.packed().to_bf16_vec();
                w.add_tensor_slice(&tensor_name(l, t), k, n, &values)
                    .unwrap();
            }
        }
        w.finish().unwrap();
        assert!(std::fs::read(&again).unwrap() == first, "weight values");
        std::fs::remove_file(&again).ok();
        let x = input(cfg, 12);
        let a = model.forward(&x, GemmEngine::Owlp).unwrap();
        let b = loaded.forward(&x, GemmEngine::Owlp).unwrap();
        assert_eq!(a, b, "mapped weights must not change a bit");
        let exact = loaded.forward(&x, GemmEngine::Exact).unwrap();
        for (x, y) in exact.output.iter().zip(&b.output) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_archive_rejects_a_mismatched_config() {
        let cfg = TinyConfig::small();
        let model = TinyTransformer::new(cfg, ModelId::Gpt2Base, 13);
        let path = temp_path("mismatch");
        model.save_archive(&path).unwrap();
        let mut wider = cfg;
        wider.ffn *= 2;
        assert!(TinyTransformer::from_archive(wider, &path).is_err());
        let mut deeper = cfg;
        deeper.layers += 1;
        assert!(TinyTransformer::from_archive(deeper, &path).is_err());
        // Head counts `new` rejects: `forward` would divide by zero, or
        // attend over only `heads·⌊hidden/heads⌋` columns.
        for (heads, covered) in [(0, 0), (5, 30)] {
            let split = TinyConfig { heads, ..cfg };
            let err = TinyTransformer::from_archive(split, &path).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArchiveError::Format(FormatError::ShapeMismatch { expected, actual })
                        if expected == cfg.hidden && actual == covered
                ),
                "heads {heads}: {err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
