//! Integration: the zero-copy archive-v2 path — offline encode and write →
//! mmap load → GEMM straight off the mapped planes — is bit-identical to
//! the in-memory prepare path and to the exact engine on every tensor
//! shape, outlier density, SIMD tier, and thread count.
//!
//! This is the storage analogue of `numerical_equivalence.rs`: the archive
//! may change *where* the planes live (page cache instead of heap), but it
//! must never change a single output bit.

use owlp_repro::arith::exact_gemm;
use owlp_repro::arith::gemm::{owlp_gemm_prepared_with, GemmScratch, PreparedTensor};
use owlp_repro::arith::microkernel;
use owlp_repro::format::{ArchiveWriter, Bf16, MappedArchive};
use owlp_repro::par::with_threads;
use proptest::prelude::*;
use std::path::PathBuf;

/// Fresh temp file per proptest case (cases run concurrently).
fn temp_path(tag: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "owlp-archive-roundtrip-{}-{tag:016x}.owl2",
        std::process::id()
    ));
    p
}

/// A tensor whose outlier density is controlled by `outlier_mod`: every
/// `outlier_mod`-th value escapes the shared window (0 = none).
fn tensor(len: usize, salt: u64, outlier_mod: usize) -> Vec<Bf16> {
    (0..len)
        .map(|i| {
            let x = ((i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 97) as f32;
            let v = 0.5 + x / 97.0;
            if outlier_mod > 0 && i % outlier_mod == 0 {
                Bf16::from_f32(v * 1e26)
            } else if outlier_mod > 0 && i % outlier_mod == 1 {
                Bf16::ZERO
            } else {
                Bf16::from_f32(v)
            }
        })
        .collect()
}

proptest! {
    // Each case writes, maps, and deletes a file — keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mapped GEMM == owned GEMM == the exact engine, bit for bit, at
    /// every available SIMD tier, serial and fanned out. Shapes
    /// deliberately straddle panel/tile remainders (the microkernel's
    /// `PANEL_K_PAD` and the digest tile size).
    #[test]
    fn mapped_gemm_is_bit_identical_to_owned(
        seed in 0u64..1u64 << 48,
        m in 1usize..12,
        k in 1usize..80,
        n in 1usize..40,
        outlier_mod in 0usize..24,
    ) {
        let a = tensor(m * k, seed, outlier_mod);
        let b = tensor(k * n, seed.wrapping_add(1), outlier_mod);

        let path = temp_path(seed ^ ((m * k * n) as u64) << 8);
        let mut w = ArchiveWriter::create(&path)
            .map_err(|e| TestCaseError::fail(format!("create failed: {e}")))?;
        w.add_tensor_slice("w", k, n, &b)
            .map_err(|e| TestCaseError::fail(format!("add failed: {e}")))?;
        w.finish()
            .map_err(|e| TestCaseError::fail(format!("finish failed: {e}")))?;

        let archive = MappedArchive::open(&path)
            .map_err(|e| TestCaseError::fail(format!("open failed: {e}")))?;
        let mapped_t = archive.tensor("w")
            .map_err(|e| TestCaseError::fail(format!("digest-verified load failed: {e}")))?;
        // The archive is lossless before it is fast.
        prop_assert_eq!(mapped_t.to_bf16_vec(), &b[..]);

        let owned = PreparedTensor::with_shape(&b, k, n).expect("finite weights prepare");
        let mapped = PreparedTensor::from_mapped(mapped_t);
        let golden = exact_gemm(&a, &b, m, k, n);
        let mut scratch = GemmScratch::default();
        for &tier in microkernel::available_tiers() {
            for threads in [1, 4] {
                let (ro, rm) = microkernel::with_tier(tier, || {
                    with_threads(threads, || {
                        let ro = owlp_gemm_prepared_with(&a, &owned, m, k, n, &mut scratch)
                            .expect("owned gemm");
                        let rm = owlp_gemm_prepared_with(&a, &mapped, m, k, n, &mut scratch)
                            .expect("mapped gemm");
                        (ro, rm)
                    })
                });
                for ((x, y), g) in ro.output.iter().zip(&rm.output).zip(&golden) {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "tier {} at {} threads diverged",
                        tier,
                        threads
                    );
                    prop_assert_eq!(
                        y.to_bits(),
                        g.to_bits(),
                        "tier {} at {} threads: mapped output differs from the exact engine",
                        tier,
                        threads
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
