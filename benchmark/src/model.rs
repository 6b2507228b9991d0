//! Weight generation, packing, and an outside-in replay of
//! `TinyTransformer::from_archive` and `TinyTransformer::forward` through
//! the layers' public calls, with a span around each call.

use crate::trace::Tracer;
use owlp_arith::gemm::{owlp_gemm_packed, PreparedTensor};
use owlp_arith::{AlignUnit, ArithError, PeConfig};
use owlp_core::TinyConfig;
use owlp_format::{
    encode_tensor, encode_tensor_into, ArchiveError, ArchiveSummary, ArchiveWriter, Bf16,
    EncodedTensor, FormatError, MappedArchive, PackedOperands,
};
use owlp_model::profiles::{profile_for, Dataset, TensorRole};
use owlp_model::{ModelId, OpKind, TensorGen};
use std::path::Path;

/// One weight tensor in archive order.
#[derive(Debug, Clone)]
pub struct Tensor {
    /// Archive name, `layer{l}/{wqkv,wo,w1,w2}`.
    pub name: String,
    /// Rows (reduction depth).
    pub k: usize,
    /// Columns.
    pub n: usize,
    /// Row-major values.
    pub data: Vec<Bf16>,
}

/// `(k, n)` and generating op of the four weights of a layer, in the
/// wqkv/wo/w1/w2 order `TinyTransformer` stores them.
fn layer_shapes(c: TinyConfig) -> [(&'static str, usize, usize, OpKind); 4] {
    [
        ("wqkv", c.hidden, 3 * c.hidden, OpKind::QkvProj),
        ("wo", c.hidden, c.hidden, OpKind::OutProj),
        ("w1", c.hidden, c.ffn, OpKind::FfnUp),
        ("w2", c.ffn, c.hidden, OpKind::FfnDown),
    ]
}

/// Total weights of a configuration.
pub fn weight_count(c: TinyConfig) -> usize {
    c.layers * layer_shapes(c).iter().map(|s| s.1 * s.2).sum::<usize>()
}

/// Draws every weight tensor from `model`'s WikiText2 weight profiles.
pub fn generate_weights(model: ModelId, c: TinyConfig, seed: u64) -> Vec<Tensor> {
    let mut out = Vec::new();
    for l in 0..c.layers {
        for (t, (name, k, n, op)) in layer_shapes(c).into_iter().enumerate() {
            let p = profile_for(model, op, TensorRole::Weight, Dataset::WikiText2);
            let salt = ((l as u64 + 1) * 0x9E37) ^ (t as u64 * 0x11);
            out.push(Tensor {
                name: format!("layer{l}/{name}"),
                k,
                n,
                data: TensorGen::new(p, k, n).values(seed ^ salt),
            });
        }
    }
    out
}

/// Draws `count` distinct `seq × hidden` inputs from `model`'s activation
/// profile.
pub fn generate_inputs(model: ModelId, c: TinyConfig, seed: u64, count: usize) -> Vec<Vec<Bf16>> {
    let p = profile_for(
        model,
        OpKind::QkvProj,
        TensorRole::Activation,
        Dataset::WikiText2,
    );
    (0..count)
        .map(|i| TensorGen::new(p, c.seq, c.hidden).values(seed ^ (0xA11CE + i as u64)))
        .collect()
}

/// FNV-1a over the bits of `values`, to check that a load reproduced
/// the generated weights without keeping them.
pub fn digest(values: &[Bf16]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Streams `tensors` through an [`ArchiveWriter`] under the default
/// streaming budget.
pub fn pack(
    tensors: &[Tensor],
    path: &Path,
    tr: &mut Tracer,
) -> Result<ArchiveSummary, ArchiveError> {
    let mut writer = tr.span("format.write", |_| ArchiveWriter::create(path))?;
    for t in tensors {
        tr.span("format.write", |_| {
            writer.add_tensor_slice(&t.name, t.k, t.n, &t.data)
        })?;
    }
    tr.span("format.write", |_| writer.finish())
}

/// The weights of a loaded archive in the form the GEMM consumes.
#[derive(Debug)]
pub struct Replay {
    cfg: TinyConfig,
    layers: Vec<[PreparedTensor; 4]>,
}

impl Replay {
    /// Replays `TinyTransformer::from_archive`: open, a digest-verified
    /// `tensor` per weight, its BF16 reconstruction, and adoption of the
    /// mapped planes. Returns the weights and their BF16 values, in
    /// archive order.
    pub fn load(
        cfg: TinyConfig,
        path: &Path,
        tr: &mut Tracer,
    ) -> Result<(Replay, Vec<Vec<Bf16>>), ArchiveError> {
        let archive = tr.span("format.open", |_| MappedArchive::open(path))?;
        let mut values = Vec::new();
        let mut layers = Vec::new();
        for l in 0..cfg.layers {
            let mut prepared = Vec::new();
            for (name, k, n, _) in layer_shapes(cfg) {
                let name = format!("layer{l}/{name}");
                let mapped = tr.span("format.verify", |_| archive.tensor(&name))?;
                if (mapped.k(), mapped.n()) != (k, n) {
                    return Err(FormatError::ShapeMismatch {
                        expected: k * n,
                        actual: mapped.k() * mapped.n(),
                    }
                    .into());
                }
                values.push(tr.span("format.bf16", |_| mapped.to_bf16_vec()));
                prepared
                    .push(tr.span("arith.from_mapped", |_| PreparedTensor::from_mapped(mapped)));
            }
            layers.push(prepared.try_into().expect("four weights per layer"));
        }
        Ok((Replay { cfg, layers }, values))
    }

    /// Replays `TinyTransformer::forward` on the OwL-P engine and returns
    /// the final hidden states followed by every GEMM output, in the order
    /// of `ForwardTrace`.
    pub fn forward(
        &self,
        input: &[Bf16],
        tr: &mut Tracer,
    ) -> Result<(Vec<f32>, Vec<Vec<f32>>), ArithError> {
        let c = self.cfg;
        let mut gemms = Vec::new();
        let mut act = ActScratch::default();
        let mut x: Vec<f32> = tr.span("core.glue", |_| input.iter().map(|b| b.to_f32()).collect());
        for w in &self.layers {
            let normed = tr.span("core.glue", |_| layernorm(&x, c.seq, c.hidden));
            let qkv = weight_gemm(
                tr,
                "gemm.wqkv",
                &mut act,
                &normed,
                &w[0],
                c.seq,
                c.hidden,
                3 * c.hidden,
            )?;
            keep(tr, &mut gemms, &qkv);
            let d = c.hidden / c.heads;
            let scale = 1.0 / (d as f32).sqrt();
            let mut ctx = tr.span("core.glue", |_| vec![0.0f32; c.seq * c.hidden]);
            for h in 0..c.heads {
                let (q, k_t, v) = tr.span("core.glue", |_| {
                    let slice = |base: usize| -> Vec<Bf16> {
                        let mut out = Vec::with_capacity(c.seq * d);
                        for t in 0..c.seq {
                            for j in 0..d {
                                out.push(Bf16::from_f32(qkv[t * 3 * c.hidden + base + h * d + j]));
                            }
                        }
                        out
                    };
                    let k = slice(c.hidden);
                    (slice(0), transpose(&k, c.seq, d), slice(2 * c.hidden))
                });
                let scores = attn_gemm(tr, "gemm.qk", &q, &k_t, c.seq, d, c.seq)?;
                keep(tr, &mut gemms, &scores);
                let probs = tr.span("core.glue", |_| {
                    to_bf16(&softmax_rows(&scores, c.seq, c.seq, scale))
                });
                let head_ctx = attn_gemm(tr, "gemm.pv", &probs, &v, c.seq, c.seq, d)?;
                keep(tr, &mut gemms, &head_ctx);
                tr.span("core.glue", |_| {
                    for t in 0..c.seq {
                        for j in 0..d {
                            ctx[t * c.hidden + h * d + j] = head_ctx[t * d + j];
                        }
                    }
                });
            }
            let proj = weight_gemm(
                tr, "gemm.wo", &mut act, &ctx, &w[1], c.seq, c.hidden, c.hidden,
            )?;
            keep(tr, &mut gemms, &proj);
            let normed = tr.span("core.glue", |_| {
                for (xi, pi) in x.iter_mut().zip(&proj) {
                    *xi += pi;
                }
                layernorm(&x, c.seq, c.hidden)
            });
            let up = weight_gemm(
                tr, "gemm.w1", &mut act, &normed, &w[2], c.seq, c.hidden, c.ffn,
            )?;
            keep(tr, &mut gemms, &up);
            let gelu_up: Vec<f32> = tr.span("core.glue", |_| up.iter().map(|&u| gelu(u)).collect());
            let down = weight_gemm(
                tr, "gemm.w2", &mut act, &gelu_up, &w[3], c.seq, c.ffn, c.hidden,
            )?;
            keep(tr, &mut gemms, &down);
            tr.span("core.glue", |_| {
                for (xi, di) in x.iter_mut().zip(&down) {
                    *xi += di;
                }
            });
        }
        Ok((x, gemms))
    }
}

/// The forward pass keeps a copy of every GEMM output; so does the replay,
/// so both do the same work.
fn keep(tr: &mut Tracer, gemms: &mut Vec<Vec<f32>>, out: &[f32]) {
    tr.span("core.glue", |_| gemms.push(out.to_vec()));
}

/// Activation-side buffers reused by every weight GEMM of a pass.
#[derive(Debug, Default)]
struct ActScratch {
    bf: Vec<Bf16>,
    enc: EncodedTensor,
    packed: PackedOperands,
}

/// A weight GEMM on f32 activations: round, encode, decode, kernel —
/// the stages of `owlp_gemm_prepared_f32_with`.
#[allow(clippy::too_many_arguments)]
fn weight_gemm(
    tr: &mut Tracer,
    name: &str,
    s: &mut ActScratch,
    a: &[f32],
    w: &PreparedTensor,
    m: usize,
    k: usize,
    n: usize,
) -> Result<Vec<f32>, ArithError> {
    tr.span(name, |tr| {
        tr.span("format.round", |_| {
            s.bf.clear();
            s.bf.extend(a.iter().map(|&x| Bf16::from_f32(x)));
        });
        tr.span("format.encode", |_| {
            encode_tensor_into(&s.bf, None, &mut s.enc)
        })?;
        tr.span("format.decode", |_| s.enc.decode_packed_into(&mut s.packed));
        let out = tr.span("arith.weight_kernel", |_| {
            owlp_gemm_packed(
                &s.packed,
                w.packed(),
                w.panels(),
                m,
                k,
                n,
                PeConfig::PAPER,
                AlignUnit::Exact,
            )
        })?;
        tr.count("weight_macs", m * k * n);
        tr.count(
            "weight_panel_bytes",
            w.panels().map_or(0, |p| p.data().len() * 2),
        );
        tr.count("outlier_products", out.total_outlier_products);
        Ok(out.output)
    })
}

/// An attention GEMM on two BF16 activations: encode both, decode both,
/// tile the right operand into panels, kernel — the stages of `owlp_gemm`.
fn attn_gemm(
    tr: &mut Tracer,
    name: &str,
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
) -> Result<Vec<f32>, ArithError> {
    tr.span(name, |tr| {
        let (ea, eb) = tr.span("format.attn_encode", |_| {
            Ok::<_, FormatError>((encode_tensor(a, None)?, encode_tensor(b, None)?))
        })?;
        tr.count("act_outliers", ea.outlier_count() + eb.outlier_count());
        let (pa, pb) = tr.span("format.attn_decode", |_| {
            (ea.decode_packed(), eb.decode_packed())
        });
        let panels = tr.span("format.attn_panels", |_| pb.pack_panels(k, n));
        let out = tr.span("arith.attn_kernel", |_| {
            owlp_gemm_packed(
                &pa,
                &pb,
                Some(&panels),
                m,
                k,
                n,
                PeConfig::PAPER,
                AlignUnit::Exact,
            )
        })?;
        tr.count("attn_macs", m * k * n);
        tr.count("outlier_products", out.total_outlier_products);
        Ok(out.output)
    })
}

// The f32 glue below is a copy of `owlp_core::transformer`'s private
// helpers; the replay is only valid while the two stay identical, which
// the bit-identity check on every traced request enforces.

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

fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::TempArchive;
    use owlp_core::{GemmEngine, TinyTransformer};

    #[test]
    fn replay_matches_the_forward_pass_bit_for_bit() {
        let cfg = TinyConfig {
            seq: 5,
            hidden: 16,
            heads: 2,
            ffn: 24,
            layers: 2,
        };
        let weights = generate_weights(ModelId::Gpt2Base, cfg, 3);
        assert_eq!(
            weights.iter().map(|t| t.data.len()).sum::<usize>(),
            weight_count(cfg)
        );
        let file = TempArchive::new("model-test").unwrap();
        pack(&weights, file.path(), &mut Tracer::new(false)).unwrap();
        let model = TinyTransformer::from_archive(cfg, file.path()).unwrap();
        let mut tr = Tracer::new(true);
        let (replay, values) = tr
            .request("load", |tr| Replay::load(cfg, file.path(), tr))
            .unwrap();
        assert!(values.iter().zip(&weights).all(|(v, t)| *v == t.data));
        for x in generate_inputs(ModelId::Gpt2Base, cfg, 4, 2) {
            let fwd = model.forward(&x, GemmEngine::Owlp).unwrap();
            let (out, gemms) = tr.request("forward", |tr| replay.forward(&x, tr)).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&fwd.output));
            assert_eq!(gemms.len(), fwd.gemm_outputs.len());
            for (g, f) in gemms.iter().zip(&fwd.gemm_outputs) {
                assert_eq!(bits(g), bits(f));
            }
        }
        let reqs = tr.requests();
        assert_eq!(
            reqs[1].counts["weight_macs"] as usize,
            2 * 5 * (16 * 48 + 16 * 16 + 16 * 24 + 24 * 16)
        );
        assert!(reqs[1].by_name.contains_key("arith.attn_kernel"));
    }
}
