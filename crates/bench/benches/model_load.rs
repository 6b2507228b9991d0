//! Criterion: model cold start — eager decode vs zero-copy archive mmap.
//!
//! The mmap path is the tentpole claim of the archive-v2 layout: opening
//! the file and adopting every plane must be O(index), independent of
//! tensor bytes, where the eager path re-encodes and re-packs every
//! weight from BF16.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use owlp_arith::gemm::PreparedTensor;
use owlp_core::{TinyConfig, TinyTransformer};
use owlp_format::{Bf16, MappedArchive};
use owlp_model::ModelId;
use std::path::PathBuf;

/// The model every case loads: the deterministic smoke transformer.
fn model() -> (TinyConfig, TinyTransformer) {
    let cfg = TinyConfig::small();
    (
        cfg,
        TinyTransformer::new(cfg, ModelId::Gpt2Base, 0x0005_1eed),
    )
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "owlp-bench-model-load-{}-{name}.owl2",
        std::process::id()
    ));
    p
}

fn bench_model_load(c: &mut Criterion) {
    let (_, m) = model();
    let path = temp_path("mmap");
    let summary = m.save_archive(&path).unwrap();

    // Flat copies of every weight for the eager case, shaped as the
    // archive stores them.
    let archive = MappedArchive::open(&path).unwrap();
    let names: Vec<String> = archive.names().map(str::to_string).collect();
    let tensors: Vec<(usize, usize, Vec<Bf16>)> = names
        .iter()
        .map(|n| {
            let t = archive.tensor(n).unwrap();
            (t.k(), t.n(), t.to_bf16_vec())
        })
        .collect();
    let weight_bytes: u64 = tensors.iter().map(|(_, _, v)| 2 * v.len() as u64).sum();
    drop(archive);

    let mut group = c.benchmark_group("model_load");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Bytes(weight_bytes));
    // Eager: encode + pack + panel-tile every tensor from BF16.
    group.bench_function("eager_decode", |b| {
        b.iter(|| {
            tensors
                .iter()
                .map(|(k, n, v)| PreparedTensor::with_shape(v, *k, *n).unwrap())
                .collect::<Vec<_>>()
        })
    });
    // Zero-copy: map the file and adopt the planes (no digest pass).
    group.bench_function("mmap_adopt", |b| {
        b.iter(|| {
            let a = MappedArchive::open(&path).unwrap();
            names
                .iter()
                .map(|n| PreparedTensor::from_mapped(a.tensor_unverified(n).unwrap()))
                .collect::<Vec<_>>()
        })
    });
    // Digest-verified variant: what `ServedWeights::load` pays.
    group.bench_function("mmap_adopt_verified", |b| {
        b.iter(|| {
            let a = MappedArchive::open(&path).unwrap();
            names
                .iter()
                .map(|n| PreparedTensor::from_mapped(a.tensor(n).unwrap()))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
    std::fs::remove_file(&path).ok();

    // Sanity tie-back to the offline summary: the mmap cases above load
    // exactly what the pack step wrote.
    assert_eq!(summary.tensors, names.len());
}

criterion_group!(benches, bench_model_load);
criterion_main!(benches);
