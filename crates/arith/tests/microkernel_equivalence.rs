//! Cross-product equivalence of the two GEMM paths: kernel tier ×
//! thread count must never change a single output bit.
//!
//! Both paths accumulate in exact integer arithmetic, so any regrouping
//! of the sums — SIMD lanes, register tiles, parallel chunks — is pure
//! re-association. The oracle is the forced-scalar tier on one thread;
//! every other combination must reproduce it exactly.

use owlp_arith::gemm::{owlp_gemm, owlp_gemm_packed};
use owlp_arith::microkernel::{self, K_SPILL};
use owlp_arith::{exact_gemm, AlignUnit, KulischAcc, PeConfig};
use owlp_format::simd::KernelTier;
use owlp_format::{
    encode_tensor, ArchiveWriter, Bf16, MappedArchive, PackedOperands, PackedPanels, PackedPlane,
};
use proptest::prelude::*;

/// Seeded BF16 tensor mixing small values with sparse large outliers,
/// mirroring the bench generator so both paths exercise the outlier
/// lanes.
fn tensor(len: usize, mut state: u64) -> Vec<Bf16> {
    state |= 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let small = ((state >> 32) as i32 % 1000) as f32 * 1e-3;
            let v = if state.is_multiple_of(61) {
                small * 1e20
            } else {
                small
            };
            Bf16::from_f32(v)
        })
        .collect()
}

/// Output bits of both GEMM paths under the given tier and thread count.
fn run_all(
    a: &[Bf16],
    b: &[Bf16],
    (m, k, n): (usize, usize, usize),
    tier: KernelTier,
    threads: usize,
) -> (Vec<u32>, Vec<u32>) {
    microkernel::with_tier(tier, || {
        owlp_par::with_threads(threads, || {
            let exact: Vec<u32> = exact_gemm(a, b, m, k, n)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let owlp: Vec<u32> = owlp_gemm(a, b, m, k, n)
                .expect("finite inputs")
                .output
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (exact, owlp)
        })
    })
}

proptest! {
    // Each case fans out over tiers × thread counts.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn blocking_tier_thread_sweep_is_bit_identical(
        m in 1usize..22,
        k in 1usize..48,
        n in 1usize..22,
        seed in any::<u64>(),
    ) {
        let a = tensor(m * k, seed);
        let b = tensor(k * n, seed ^ 0x9e37_79b9_7f4a_7c15);
        let oracle = run_all(&a, &b, (m, k, n), KernelTier::Scalar, 1);
        for &tier in microkernel::available_tiers() {
            for threads in [1usize, 4, 8] {
                let got = run_all(&a, &b, (m, k, n), tier, threads);
                prop_assert_eq!(
                    &got,
                    &oracle,
                    "diverged at {}x{}x{} tier {:?} threads {}",
                    m,
                    k,
                    n,
                    tier,
                    threads
                );
            }
        }
    }
}

/// One BF16 value per element: a normal-band value, or — with probability
/// `pct[line(i)]`% — an outlier drawn from scales spanning several bands,
/// the extreme exponents 254 and 1, and subnormals.
fn tagged(len: usize, line: impl Fn(usize) -> usize, pct: &[u64], mut state: u64) -> Vec<Bf16> {
    state |= 1;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let sign = ((state >> 63) as u16) << 15;
            let frac = (state >> 40) as u16 & 0x7F;
            if (state >> 8) % 100 >= pct[line(i)] {
                // Exponents 127..=130: inside one 7-wide normal window.
                return Bf16::from_bits(sign | (127 + (state >> 20) as u16 % 4) << 7 | frac);
            }
            let exp = match (state >> 24) % 9 {
                0 => 254,
                1 => 1,
                2 => 0, // subnormal (frac may be 0: a stored zero)
                3 => 127 + 40,
                4 => 127 - 45,
                5 => 127 + 9 + (state >> 30) as u16 % 8,
                6 => 127 - 2 - (state >> 30) as u16 % 8,
                7 => 127 + 100,
                _ => 127 - 100,
            };
            Bf16::from_bits(sign | exp << 7 | frac)
        })
        .collect()
}

/// The exact output and outlier statistics of an OwL-P GEMM computed
/// straight from the planes: every `sval_a · panel` product on its
/// tag-derived frame, summed in a Kulisch register and rounded once.
fn plane_oracle(
    pa: &PackedOperands,
    pb: &PackedOperands,
    panels: &PackedPanels,
    (m, k, n): (usize, usize, usize),
) -> (Vec<u32>, usize, usize) {
    let exp_of = |p: &PackedOperands| {
        let mut e = vec![i32::from(p.shared_exp()); p.len()];
        let mut tag = vec![false; p.len()];
        for (&pos, &x) in p.outlier_positions().iter().zip(p.outlier_exps()) {
            e[pos as usize] = i32::from(x.max(1));
            tag[pos as usize] = true;
        }
        (e, tag)
    };
    let ((ea, ta), (eb, tb)) = (exp_of(pa), exp_of(pb));
    let nr = owlp_format::packed::PANEL_NR;
    let (mut out, mut max, mut total) = (Vec::with_capacity(m * n), 0, 0);
    for i in 0..m {
        for j in 0..n {
            let mut acc = KulischAcc::new();
            let mut routed = 0;
            for kk in 0..k {
                let v = i64::from(pa.svals()[i * k + kk])
                    * i64::from(panels.panel(j / nr)[kk * nr + j % nr]);
                acc.add_scaled(v, ea[i * k + kk] + eb[kk * n + j] - 268);
                routed += usize::from(v != 0 && (ta[i * k + kk] || tb[kk * n + j]));
            }
            out.push(acc.round_to_f32().to_bits());
            max = routed.max(max);
            total += routed;
        }
    }
    (out, max, total)
}

/// Strikes bits 11–15 of tagged svals so they leave the decoded ±255
/// range (and may flip sign); on the B side the same word of `panels` is
/// struck so the two stay consistent.
fn strike_tagged(p: &mut PackedOperands, panels: Option<&mut PackedPanels>, n: usize, seed: u64) {
    let pos: Vec<usize> = p.outlier_positions().iter().map(|&x| x as usize).collect();
    let mut hits = Vec::new();
    for (x, &at) in pos
        .iter()
        .enumerate()
        .filter(|(x, _)| (*x as u64 + seed).is_multiple_of(3))
    {
        let bit = 11 + ((x as u64 ^ seed) % 5) as u32;
        p.flip_bit(PackedPlane::Sval, at, bit);
        hits.push((at, bit));
    }
    if let Some(panels) = panels {
        let nr = owlp_format::packed::PANEL_NR;
        for (at, bit) in hits {
            let (kk, j) = (at / n, at % n);
            panels.flip_bit((j / nr) * panels.padded_k() * nr + kk * nr + j % nr, bit);
        }
    }
}

fn temp_archive(tag: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "owlp-bandlanes-{}-{tag}-{seed:x}.owl2",
        std::process::id()
    ))
}

/// The band-lane correction of an `m×k×n` GEMM against the plane-level
/// oracle: per-line tag densities cycling through `dens`, fully tagged
/// and untagged, struck out-of-range svals, every tier × {1, 4} threads,
/// and memoised (planned per call when the weight is small), per-call and
/// mapped weight panels.
fn check_band_lanes(m: usize, k: usize, n: usize, dens: u64, seed: u64) {
    // Per-line densities: the sampled one, a fully tagged line (the
    // softmax shape) and an untagged one.
    let pct_a: Vec<u64> = (0..m).map(|i| [dens, 100, 0, dens / 2][i % 4]).collect();
    let pct_b: Vec<u64> = (0..n).map(|j| [dens, 0, 100][j % 3]).collect();
    let a = tagged(m * k, |i| i / k, &pct_a, seed);
    let b = tagged(k * n, |i| i % n, &pct_b, seed ^ 0x5851_f42d_4c95_7f2d);
    let mut pa = encode_tensor(&a, None).unwrap().decode_packed();
    let mut pb = encode_tensor(&b, None).unwrap().decode_packed();
    strike_tagged(&mut pa, None, k, seed);
    strike_tagged(&mut pb, None, n, seed >> 7);
    let memo = pb.pack_panels(k, n);
    let want = plane_oracle(&pa, &pb, &memo, (m, k, n));

    // Mapped weight planes, struck the same way (copy-on-write).
    let path = temp_archive("b", seed);
    let mut w = ArchiveWriter::create(&path).unwrap();
    w.add_tensor_slice("b", k, n, &b).unwrap();
    w.finish().unwrap();
    let ar = MappedArchive::open(&path).unwrap();
    let (mut mpb, mpanels) = ar.tensor("b").unwrap().into_parts();
    let mut mpanels = mpanels.expect("the archive stores panels");
    strike_tagged(&mut mpb, Some(&mut mpanels), n, seed >> 7);
    assert_eq!(&mpanels, &memo);

    for &tier in microkernel::available_tiers() {
        for threads in [1usize, 4] {
            let run = |pb: &PackedOperands, panels: Option<&PackedPanels>| {
                microkernel::with_tier(tier, || {
                    owlp_par::with_threads(threads, || {
                        let r = owlp_gemm_packed(
                            &pa,
                            pb,
                            panels,
                            m,
                            k,
                            n,
                            PeConfig::PAPER,
                            AlignUnit::Exact,
                        )
                        .unwrap();
                        let bits: Vec<u32> = r.output.iter().map(|v| v.to_bits()).collect();
                        (bits, r.max_wavefront_outliers, r.total_outlier_products)
                    })
                })
            };
            for (label, got) in [
                ("memoised", run(&pb, Some(&memo))),
                ("per-call", run(&pb, None)),
                ("mapped", run(&mpb, Some(&mpanels))),
            ] {
                assert_eq!(
                    &got, &want,
                    "{} panels diverged at {}x{}x{} tier {:?} threads {}",
                    label, m, k, n, tier, threads
                );
            }
        }
    }
    drop(ar);
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// [`check_band_lanes`] across shapes with `k` off the 4/8 grid, `m`
    /// leaving a remainder tile of 1–3 rows alone or after a 4-row tile,
    /// `n` spanning up to four 16-column panels with partial edges, tag
    /// densities from none to fully tagged lines, offsets spanning several
    /// bands (and the Kulisch fallback).
    #[test]
    fn band_lanes_match_the_plane_oracle(
        m in prop::sample::select(vec![1usize, 2, 3, 6, 9, 10, 11, 64]),
        k4 in 0usize..24,
        k_off in 1usize..4,
        n in 1usize..50,
        dens in prop::sample::select(vec![0u64, 3, 20, 60, 100]),
        seed in any::<u64>(),
    ) {
        check_band_lanes(m, 4 * k4 + k_off, n, dens, seed);
    }
}

/// [`check_band_lanes`] on fixed shapes that pin both weight-side plans:
/// decode's per-head attention GEMMs, whose 128-element right operands
/// are planned per call, and a weight large enough to be memoised. The
/// last shape is deeper than [`K_SPILL`], so its tiles spill their lanes
/// mid-depth; one density keeps it cheap, and its line cycle still holds
/// fully tagged and untagged lines.
#[test]
fn band_lanes_match_the_plane_oracle_on_small_and_memoised_weights() {
    for (m, k, n) in [(1, 128, 1), (1, 1, 128), (9, 70, 29)] {
        for (dens, seed) in [(3, 0x5EED), (20, 7), (100, 0xBADC0DE)] {
            check_band_lanes(m, k, n, dens, seed);
        }
    }
    check_band_lanes(5, K_SPILL + 37, 6, 20, 7);
}
