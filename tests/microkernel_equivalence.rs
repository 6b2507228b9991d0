//! Integration: the register-tiled microkernel drive loop (`owlp_gemm`'s
//! packed-plane fast path and the prepared/panel-cached variant) and the
//! per-element `exact_gemm` equal the scalar per-product Kulisch oracle
//! bit-for-bit — across outlier densities from all-normal to all-outlier,
//! across shapes that leave MR/NR edge remainders, and at every thread
//! count.

use owlp_repro::arith::exact::exact_gemm;
use owlp_repro::arith::gemm::{owlp_gemm, owlp_gemm_prepared_with, GemmScratch, PreparedTensor};
use owlp_repro::arith::microkernel::{
    self, available_tiers, dot_sval_with, madd_period_holds, tile_dot_i16_with, with_tier,
    KernelTier, MR, NR,
};
use owlp_repro::arith::{KulischAcc, WindowAcc};
use owlp_repro::format::packed::sval_bound;
use owlp_repro::format::Bf16;
use owlp_repro::par::with_threads;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Thread counts for the cross-tier sweep: the serial path and one
/// fan-out wide enough to split every chunking strategy.
const TIER_THREADS: [usize; 2] = [1, 4];

/// Outlier densities in permille: all-normal, the paper's realistic ~3%,
/// and all-outlier (every nonzero element far outside the shared window).
const DENSITIES: [u32; 3] = [0, 30, 1000];

/// A tensor with a tunable outlier ratio (permille of entries pushed far
/// outside any plausible exponent window), zeros included.
fn tensor(len: usize, outlier_permille: u32, seed: u64) -> Vec<Bf16> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let base = ((state >> 40) as i32 % 500) as f32 * 4e-3;
            let v = if (state % 1000) < outlier_permille as u64 {
                base * 1e25
            } else {
                base
            };
            Bf16::from_f32(v)
        })
        .collect()
}

/// The scalar oracle: one full Kulisch register per output element, one
/// product at a time, rounded once.
fn kulisch_oracle(a: &[Bf16], b: &[Bf16], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = KulischAcc::new();
            for kk in 0..k {
                acc.add_product(a[i * k + kk], b[kk * n + j]);
            }
            out.push(acc.round_to_f32());
        }
    }
    out
}

fn assert_bits_equal(name: &str, got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", name);
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{}[{}]: {} vs {}", name, i, x, y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every GEMM path equals the scalar Kulisch oracle, for shapes
    /// deliberately straddling the MR×NR grid, at 0/30/1000‰ outlier
    /// density, at 1/2/4/8 threads.
    #[test]
    fn tiled_gemms_match_the_scalar_kulisch_oracle(
        m_tiles in 0usize..3,
        m_rem in 0usize..MR,
        n_tiles in 0usize..3,
        n_rem in 0usize..NR,
        k in 1usize..48,
        density_idx in 0usize..DENSITIES.len(),
        seed in any::<u64>(),
    ) {
        let m = (m_tiles * MR + m_rem).max(1);
        let n = (n_tiles * NR + n_rem).max(1);
        let density = DENSITIES[density_idx];
        let a = tensor(m * k, density, seed);
        let b = tensor(k * n, density, seed.rotate_left(17) | 2);
        let oracle = kulisch_oracle(&a, &b, m, k, n);
        let prepared = PreparedTensor::with_shape(&b, k, n).expect("finite inputs");
        let mut scratch = GemmScratch::default();
        for t in THREADS {
            let owlp = with_threads(t, || owlp_gemm(&a, &b, m, k, n)).expect("finite inputs");
            assert_bits_equal("owlp_gemm", &owlp.output, &oracle)?;
            let prep = with_threads(t, || {
                owlp_gemm_prepared_with(&a, &prepared, m, k, n, &mut scratch)
            })
            .expect("finite inputs");
            assert_bits_equal("owlp_gemm_prepared_with", &prep.output, &oracle)?;
            let exact = with_threads(t, || exact_gemm(&a, &b, m, k, n));
            assert_bits_equal("exact_gemm", &exact, &oracle)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every SIMD tier this host offers produces bit-identical GEMM
    /// outputs to the forced-scalar oracle — across outlier densities,
    /// k values that leave pairwise-madd and K_PAD remainders, and at
    /// serial and fanned-out thread counts. Signs are exercised by the
    /// generator (roughly half of all entries are negative).
    #[test]
    fn every_tier_matches_the_forced_scalar_oracle(
        m_rem in 0usize..MR,
        n_rem in 0usize..NR,
        k in 1usize..48,
        density_idx in 0usize..DENSITIES.len(),
        seed in any::<u64>(),
    ) {
        let (m, n) = (MR + m_rem, NR + n_rem);
        let density = DENSITIES[density_idx];
        let a = tensor(m * k, density, seed);
        let b = tensor(k * n, density, seed.rotate_left(23) | 2);
        let scalar_owlp = with_tier(KernelTier::Scalar, || owlp_gemm(&a, &b, m, k, n))
            .expect("finite inputs");
        let scalar_exact = with_tier(KernelTier::Scalar, || exact_gemm(&a, &b, m, k, n));
        for &tier in available_tiers() {
            for t in TIER_THREADS {
                let owlp = with_tier(tier, || with_threads(t, || owlp_gemm(&a, &b, m, k, n)))
                    .expect("finite inputs");
                assert_bits_equal(tier.name(), &owlp.output, &scalar_owlp.output)?;
                let exact = with_tier(tier, || with_threads(t, || exact_gemm(&a, &b, m, k, n)));
                assert_bits_equal(tier.name(), &exact, &scalar_exact)?;
            }
        }
    }

    /// The raw kernel entry points agree with the scalar tier exactly at
    /// the extremes of their input contracts, at depths straddling the
    /// SIMD lane widths: the tile at every height the drive loop runs (1,
    /// 2, 3 and MR rows) on svals sampled from {0, ±1, ±small, ±16320}
    /// (16320 is the largest the encoder writes, the widest the tile's
    /// `i32` period admits on both sides), and `dot_sval`, which widens
    /// every pair, with ±32752 (the largest folded-significand magnitude
    /// the 11-bit type holds) added.
    #[test]
    fn raw_kernels_agree_with_scalar_at_extreme_svals(
        k in 1usize..70,
        seed in any::<u64>(),
    ) {
        const EXTREMES: [i16; 11] = [0, 1, -1, 7, -7, 300, -300, 16320, -16320, 32752, -32752];
        let mut state = seed | 1;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            EXTREMES[(state % n as u64) as usize]
        };
        let rows: Vec<Vec<i16>> = (0..MR).map(|_| (0..k).map(|_| next(9)).collect()).collect();
        let panel: Vec<i16> = (0..k * NR).map(|_| next(9)).collect();
        let win0 = WindowAcc::new(0);
        tile_agrees_with_scalar::<1>(&rows, &panel, win0)?;
        tile_agrees_with_scalar::<2>(&rows, &panel, win0)?;
        tile_agrees_with_scalar::<3>(&rows, &panel, win0)?;
        tile_agrees_with_scalar::<MR>(&rows, &panel, win0)?;
        let (a, b): (Vec<i16>, Vec<i16>) = (0..k).map(|_| (next(11), next(11))).unzip();
        let dot_oracle = dot_sval_with(KernelTier::Scalar, &a, &b, win0);
        for &tier in available_tiers() {
            let dot = dot_sval_with(tier, &a, &b, win0);
            prop_assert_eq!(dot.raw(), dot_oracle.raw(), "dot_sval {} k={}", tier, k);
        }
    }
}

/// An `R`-row `tile_dot_i16_with` over the first `R` of `rows` on every
/// tier equals the scalar tier's, window for window. The operands must
/// prove the `i32` period, as the drive loop checks before it runs a SIMD
/// tier.
fn tile_agrees_with_scalar<const R: usize>(
    rows: &[Vec<i16>],
    panel: &[i16],
    win0: WindowAcc,
) -> Result<(), TestCaseError> {
    let a_rows: [&[i16]; R] = std::array::from_fn(|r| rows[r].as_slice());
    let k = rows[0].len();
    let amax = a_rows.iter().map(|r| sval_bound(r)).max().unwrap_or(0);
    prop_assert!(madd_period_holds(amax, sval_bound(panel)));
    let oracle = tile_dot_i16_with(KernelTier::Scalar, a_rows, panel, win0);
    for &tier in available_tiers() {
        let wins = tile_dot_i16_with(tier, a_rows, panel, win0);
        for (wr, or) in wins.iter().zip(&oracle) {
            for (w, o) in wr.iter().zip(or) {
                prop_assert_eq!(w.raw(), o.raw(), "tile_dot_i16 {} R={} k={}", tier, R, k);
            }
        }
    }
    Ok(())
}

/// `with_tier` requests above what the host supports clamp to an
/// available tier and still match the oracle (e.g. `avx2` forced on an
/// SSE2-only machine, `neon` on x86) — the env-override safety net.
#[test]
fn unavailable_tier_requests_clamp_and_stay_exact() {
    let (m, k, n) = (MR + 1, 13, NR + 2);
    let a = tensor(m * k, 30, 0xC1A5);
    let b = tensor(k * n, 30, 0x51DE);
    let oracle = kulisch_oracle(&a, &b, m, k, n);
    for tier in [KernelTier::Sse2, KernelTier::Avx2, KernelTier::Neon] {
        let out =
            microkernel::with_tier(tier, || owlp_gemm(&a, &b, m, k, n)).expect("finite inputs");
        for (x, y) in out.output.iter().zip(&oracle) {
            assert_eq!(x.to_bits(), y.to_bits(), "forced {tier}");
        }
    }
}

/// Deterministic sweep of the exact MR/NR boundary shapes (1, MR−1, MR,
/// MR+1, 2·MR+3, and the NR analogues) at the realistic density, plus
/// a 2-row remainder tile alone (m = 2) and after 8 rows (m = 2·MR+2).
#[test]
fn edge_remainder_shapes_are_bit_exact() {
    let k = 19;
    let ms = [1, MR - 1, MR, MR + 1, 2 * MR + 3, 2, 2 * MR + 2];
    let ns = [1, NR - 1, NR, NR + 1, 2 * NR + 3];
    for (i, &m) in ms.iter().enumerate() {
        for (j, &n) in ns.iter().enumerate() {
            let seed = 0xED6E ^ ((i as u64) << 8) ^ (j as u64);
            let a = tensor(m * k, 30, seed);
            let b = tensor(k * n, 30, seed | 1 << 20);
            let oracle = kulisch_oracle(&a, &b, m, k, n);
            let owlp = owlp_gemm(&a, &b, m, k, n).expect("finite inputs");
            let exact = exact_gemm(&a, &b, m, k, n);
            for (x, y) in owlp.output.iter().zip(&oracle) {
                assert_eq!(x.to_bits(), y.to_bits(), "owlp {m}x{k}x{n}");
            }
            for (x, y) in exact.iter().zip(&oracle) {
                assert_eq!(x.to_bits(), y.to_bits(), "exact {m}x{k}x{n}");
            }
        }
    }
}
