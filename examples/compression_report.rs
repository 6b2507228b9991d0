//! Model compression report: footprint of each evaluated model's weights in
//! raw BF16 versus the OwL-P memory map (paper §III/IV-D), plus the
//! effective-bandwidth gain the compressed format buys on the HBM2 link.
//!
//! ```text
//! cargo run --release --example compression_report
//! ```

use owlp_repro::format::chunk::{ChunkMeta, PackedTensor};
use owlp_repro::format::encode_tensor;
use owlp_repro::hw::MemorySystem;
use owlp_repro::model::profiles::{profile_for, Dataset, TensorRole};
use owlp_repro::model::{workload, ModelId, OpKind, TensorGen};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let memory = MemorySystem::paper();
    println!(
        "{:<12} {:>14} {:>14} {:>8} {:>12} {:>10}",
        "model", "BF16 weights", "OwL-P packed", "ratio", "outlier %", "BW gain"
    );
    for model in ModelId::ALL {
        // Measure the packing ratio on a sampled weight tensor, then scale
        // to the model's full block-parameter footprint.
        let p = profile_for(model, OpKind::FfnUp, TensorRole::Weight, Dataset::WikiText2);
        let sample = TensorGen::new(p, 1024, 512).values(42);
        let enc = encode_tensor(&sample, None)?;
        let packed = PackedTensor::pack(&enc, ChunkMeta::default())?;
        let ratio = packed.compression_ratio();
        let outlier_pct = 100.0 * enc.outlier_count() as f64 / enc.len() as f64;

        let params = match model {
            ModelId::BertBase | ModelId::BertLarge => {
                workload::encoder_workload(model, 512, 1).unique_weight_elements()
            }
            _ => workload::generation_workload(model, 32, 128, 256).unique_weight_elements(),
        };
        let bf16_bytes = params * 2;
        let packed_bytes = (bf16_bytes as f64 / ratio) as u64;
        println!(
            "{:<12} {:>11.2} GB {:>11.2} GB {:>7.2}x {:>11.2} {:>9.2}x",
            model.name(),
            bf16_bytes as f64 / 1e9,
            packed_bytes as f64 / 1e9,
            ratio,
            outlier_pct,
            ratio // effective bandwidth gain equals the byte reduction
        );
        // How long a full weight sweep takes over HBM2 at 256 GB/s — the
        // floor of one decode step's latency in the memory-bound regime.
        let t_raw = memory.transfer_seconds(bf16_bytes);
        let t_packed = memory.transfer_seconds(packed_bytes);
        println!(
            "{:<12} one weight sweep over HBM2: {:.2} ms raw -> {:.2} ms packed",
            "",
            t_raw * 1e3,
            t_packed * 1e3
        );
    }

    // Pack a (down-scaled) GPT2-Base chunk after chunk, as its weights
    // would lie in off-chip memory.
    let tensors =
        owlp_repro::model::compress::pack_model(ModelId::Gpt2Base, Dataset::WikiText2, 7, 8)?;
    let (_, last) = tensors.last().expect("GPT2-Base has weights");
    let packed_bytes = u64::from(last.meta().start_addr) + last.total_bytes();
    let bf16_bytes: u64 = tensors.iter().map(|(_, t)| 2 * t.elements() as u64).sum();
    println!(
        "\npacked GPT2-Base at 1/8 scale: {} tensors, {:.2} MB back to back, {:.2}x vs BF16",
        tensors.len(),
        packed_bytes as f64 / 1e6,
        bf16_bytes as f64 / packed_bytes as f64
    );
    // Every chunk decodes and re-packs to the same regions.
    for (name, t) in &tensors {
        let back = PackedTensor::pack(&t.unpack()?, t.meta())?;
        assert_eq!(&back, t, "{name}");
    }
    println!("every chunk round-trips bit-exactly through the memory map");
    Ok(())
}
