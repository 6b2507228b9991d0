//! Whole-model compression: pack a model's weight tensors, drawn from its
//! calibrated profiles, into the paper's Fig. 5 memory map
//! ([`PackedTensor`]), chunk after chunk as a deployment would lay them
//! out in the accelerator's off-chip memory (paper §IV-D). This measures
//! the paper's footprint; the file format that serves weights is
//! archive v2 (`owlp_format::archive2`).
//!
//! Full-size LLM tensors would make tests and examples slow, so the
//! builder takes a `scale` divisor applied to every dimension; compression
//! statistics are scale-invariant because they only depend on the value
//! distribution.

use crate::config::{Arch, ModelId};
use crate::layers::OpKind;
use crate::profiles::{profile_for, Dataset, TensorRole};
use crate::tensorgen::TensorGen;
use owlp_format::chunk::{ChunkMeta, PackedTensor};
use owlp_format::{encode_tensor, FormatError};

/// Weight matrices of one transformer layer, with their shapes.
fn layer_tensors(model: ModelId) -> Vec<(OpKind, &'static str, usize, usize)> {
    let c = model.config();
    let mut v = vec![
        (OpKind::QkvProj, "qkv", c.hidden, c.hidden + 2 * c.kv_dim()),
        (OpKind::OutProj, "out_proj", c.hidden, c.hidden),
        (OpKind::FfnUp, "ffn_up", c.hidden, c.ffn_dim),
        (OpKind::FfnDown, "ffn_down", c.ffn_dim, c.hidden),
    ];
    if c.arch == Arch::GatedDecoder {
        v.push((OpKind::FfnGate, "ffn_gate", c.hidden, c.ffn_dim));
    }
    v
}

/// Packs every weight tensor of `model` at `1/scale` linear dimensions,
/// in layer order, each named `layer{l}.{qkv,out_proj,ffn_up,ffn_down}`
/// (plus `ffn_gate` on gated decoders). Each chunk's start address is the
/// footprint of the chunks before it, so the chunks lie back to back.
///
/// # Errors
///
/// Propagates encoding/packing failures (cannot occur for profile-generated
/// tensors).
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn pack_model(
    model: ModelId,
    dataset: Dataset,
    seed: u64,
    scale: usize,
) -> Result<Vec<(String, PackedTensor)>, FormatError> {
    assert!(scale > 0, "scale must be positive");
    let layers = model.config().layers;
    let mut tensors = Vec::new();
    let mut start_addr = 0u64;
    for layer in 0..layers {
        for (kind, name, rows, cols) in layer_tensors(model) {
            let r = (rows / scale).max(1);
            let c = (cols / scale).max(1);
            let p = profile_for(model, kind, TensorRole::Weight, dataset);
            let values = TensorGen::new(p, r, c).values(seed ^ (layer as u64) << 8 ^ kind as u64);
            let enc = encode_tensor(&values, Some(p.window()))?;
            let packed = PackedTensor::pack(
                &enc,
                ChunkMeta {
                    start_addr: start_addr as u32,
                    layer_info: layer as u32,
                },
            )?;
            start_addr += packed.total_bytes();
            tensors.push((format!("layer{layer}.{name}"), packed));
        }
    }
    Ok(tensors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(tensors: &[(String, PackedTensor)]) -> Vec<&str> {
        tensors.iter().map(|(n, _)| n.as_str()).collect()
    }

    #[test]
    fn packs_every_layer_tensor() {
        let a = pack_model(ModelId::Gpt2Base, Dataset::WikiText2, 3, 16).unwrap();
        let c = ModelId::Gpt2Base.config();
        let names = names(&a);
        assert_eq!(names.len(), c.layers * 4);
        assert_eq!(names.first(), Some(&"layer0.qkv"));
        assert_eq!(names.last(), Some(&"layer11.ffn_down"));
        assert!(!names.contains(&"layer12.qkv"));
    }

    #[test]
    fn gated_models_have_five_tensors_per_layer() {
        let a = pack_model(ModelId::Llama2_7b, Dataset::WikiText2, 3, 64).unwrap();
        assert_eq!(a.len(), ModelId::Llama2_7b.config().layers * 5);
        assert!(names(&a).contains(&"layer0.ffn_gate"));
    }

    #[test]
    fn archive_compression_matches_the_format_claim() {
        let a = pack_model(ModelId::Gpt2Base, Dataset::WikiText2, 9, 8).unwrap();
        let raw: u64 = a.iter().map(|(_, t)| 2 * t.elements() as u64).sum();
        let packed: u64 = a.iter().map(|(_, t)| t.total_bytes()).sum();
        let r = raw as f64 / packed as f64;
        // ≈ 16 bits → ~11.7 bits/value: ratio ≈ 1.36.
        assert!((1.30..=1.42).contains(&r), "{r}");
    }

    #[test]
    fn archive_roundtrips_through_bytes() {
        let a = pack_model(ModelId::BertBase, Dataset::Squad2, 5, 32).unwrap();
        // The chunks lie back to back from address 0.
        let mut next = 0u64;
        for (name, t) in &a {
            assert_eq!(u64::from(t.meta().start_addr), next, "{name}");
            next += t.total_bytes();
        }
        // A sampled tensor decodes to the values `pack_model` drew.
        let (_, t) = a.iter().find(|(n, _)| n == "layer3.ffn_up").unwrap();
        let c = ModelId::BertBase.config();
        let p = profile_for(
            ModelId::BertBase,
            OpKind::FfnUp,
            TensorRole::Weight,
            Dataset::Squad2,
        );
        let values = TensorGen::new(p, c.hidden / 32, c.ffn_dim / 32)
            .values(5 ^ 3 << 8 ^ OpKind::FfnUp as u64);
        assert_eq!(t.unpack().unwrap().to_bf16_vec(), values);
    }
}
