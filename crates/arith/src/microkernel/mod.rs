//! Register-tiled GEMM microkernels with explicit SIMD tiers and
//! runtime dispatch.
//!
//! The scalar hot loop of [`crate::gemm::owlp_gemm_packed`] historically
//! did one `u16 as i64 × u16 as i64` FMA per product, plus a per-product
//! branch for the sign and the `{0,4,8}` post-multiply shift. The paper's
//! whole point is that the OwL-P datapath is *integer-only* — so the
//! software model should run at integer-SIMD speed too. This module
//! restructures the inner loop around two facts:
//!
//! 1. **Products are exact in narrow integers.** A packed operand's folded
//!    significand (`sval = ±(mag << 4·sh)`, see
//!    [`owlp_format::packed::PackedOperands::svals`]) satisfies
//!    `|sval| ≤ (2^11 − 1)·2^4 = 32752 < 2^15`, so it fits an `i16` and a
//!    product of two fits an `i32` (`|p| < 2^30`) with no rounding — the
//!    `{0,4,8}` shifter and both signs are already folded in. The
//!    `i16×i16→i32` multiply-add shape is exactly what packed integer
//!    SIMD units are built for — and since PR7 the kernels use them
//!    **explicitly** rather than hoping the autovectorizer does.
//!
//! 2. **Lane sums provably cannot overflow before the spill.** Partial
//!    sums are kept in `i64` lanes and spilled into the existing
//!    [`WindowAcc`] `i128` frame every [`K_SPILL`] terms. The bound:
//!    `K_SPILL · max|p| ≤ 2^14 · 2^30 = 2^44 ≪ 2^63`, so the `i64` lane
//!    is exact by a margin of 19 bits (any `K_SPILL ≤ 2^32` would do;
//!    2^14 keeps a segment resident in L1). Integer addition is
//!    associative and commutative, so regrouping the dot product into
//!    R×NR register tiles, K segments, per-lane partials — **or the
//!    pairwise-`madd` adjacent sums of the SIMD tiers** — computes the
//!    *same* exact integer as the scalar sweep; bit-identity with the
//!    Kulisch oracle is preserved by construction at every tier. The one
//!    extra SIMD obligation, that `madd`'s intra-instruction `i32` pair
//!    sum itself cannot wrap, follows from the sval bound
//!    (`2·32752² < 2^31`; only `(-32768)²·2` would overflow) — see the
//!    module docs of `microkernel/x86.rs` for the full argument.
//!
//! ## Tiers and dispatch
//!
//! Every entry point has a scalar reference implementation ([`scalar`],
//! the always-on oracle) plus optional SIMD tiers: SSE2 and AVX2 on
//! x86-64 (`x86.rs`), NEON on aarch64 (`neon.rs`). A tier is selected once
//! per process ([`selected_tier`]) from runtime CPU detection
//! and the `OWLP_SIMD=scalar|sse2|avx2|neon|auto` override; tests force
//! tiers per-scope with [`with_tier`]. The GEMM drive loop resolves the
//! tier *before* fanning out to the thread pool and calls the `*_with`
//! variants so a forced tier holds at every thread count. [`band_dot`]
//! vectorizes only on AVX2 (it needs a signed widening 32-bit multiply);
//! all other entry points vectorize on every non-scalar tier.
//!
//! The kernel computes an `R`×[`NR`] output tile per call: `R` rows of A
//! (flat sval slices) against one [`owlp_format::PackedPanels`] panel of
//! `NR` interleaved weight columns. The tile height `R` is a const
//! generic, and a tile has exactly its live rows: the drive loop runs
//! [`MR8`]-row tiles on AVX2, then [`MR`]-row tiles, then one tile of the
//! `m % MR` rows left, so no zero row is ever multiplied. Columns rely on
//! the panel's zero padding — zero svals contribute nothing, so there are
//! no edge-case variants to diverge from the proof above. Panels may
//! carry zero-padded depths beyond the K segment
//! ([`owlp_format::PackedPanels::padded_k`]); the kernels only require
//! `panel.len() ≥ seg·NR`.
//!
//! The exact oracle [`crate::exact::exact_gemm`] calls none of these
//! kernels: it shares no fast code with the path it judges.

#[cfg(target_arch = "aarch64")]
mod neon;
pub mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

use owlp_format::simd::clamp;
pub use owlp_format::simd::{
    available_tiers, detected_features, env_request, selected_tier, with_tier, KernelTier, ENV_SIMD,
};

use crate::window::WindowAcc;

/// Output-tile rows of the drive loop's standard tile.
pub const MR: usize = 4;

/// Output-tile rows of the AVX2 drive loop's tall tile: one panel load
/// and its in-register interleave serve eight A rows. The drive loop runs
/// it on AVX2 only — on SSE2 its accumulators alone would fill all sixteen
/// xmm registers.
pub const MR8: usize = 2 * MR;

/// Output-tile columns per microkernel call — fixed by the panel layout.
pub const NR: usize = owlp_format::packed::PANEL_NR;

/// K-depth between lane spills into the [`WindowAcc`] frame. With
/// products `|p| < 2^30`, a lane accumulates `< 2^44` per segment —
/// provably exact in `i64` (see the module docs).
pub const K_SPILL: usize = 1 << 14;

/// Multiplies one K-segment of an R×NR tile into the `i64` lane array:
/// `lanes[r][c] += Σ_kk a_rows[r][kk] · panel[kk·NR + c]`, on `tier`
/// (clamped).
///
/// `a_rows` are `seg`-long sval slices, one per live row; `panel` is a
/// K-major panel segment of at least `seg·NR` entries (extra zero-padded
/// depths are ignored). The caller must spill at least every [`K_SPILL`]
/// terms.
#[inline]
fn tile_mul_i16_with<const R: usize>(
    tier: KernelTier,
    a_rows: [&[i16]; R],
    panel: &[i16],
    lanes: &mut [[i64; NR]; R],
) {
    let seg = a_rows[0].len();
    debug_assert!(seg <= K_SPILL, "segment longer than the spill period");
    debug_assert!(a_rows.iter().all(|r| r.len() == seg));
    debug_assert!(panel.len() >= seg * NR, "panel shorter than the K segment");
    match clamp(tier) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp` only yields Avx2 when runtime detection saw it.
        KernelTier::Avx2 => unsafe { x86::tile_mul_i16_avx2(a_rows, panel, lanes) },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => x86::tile_mul_i16_sse2(a_rows, panel, lanes),
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => neon::tile_mul_i16_neon(a_rows, panel, lanes),
        _ => scalar::tile_mul_i16(a_rows, panel, lanes),
    }
}

/// Full-depth R×NR tile: segments of [`K_SPILL`] terms accumulate in
/// `i64` lanes and spill into per-element [`WindowAcc`]s cloned from
/// `win0` (the shared-frame window of the GEMM call).
#[inline]
pub fn tile_dot_i16<const R: usize>(
    a_rows: [&[i16]; R],
    panel: &[i16],
    win0: WindowAcc,
) -> [[WindowAcc; NR]; R] {
    tile_dot_i16_with(selected_tier(), a_rows, panel, win0)
}

/// [`tile_dot_i16`] on an explicit tier (clamped once up front).
#[inline]
pub fn tile_dot_i16_with<const R: usize>(
    tier: KernelTier,
    a_rows: [&[i16]; R],
    panel: &[i16],
    win0: WindowAcc,
) -> [[WindowAcc; NR]; R] {
    let tier = clamp(tier);
    let k = a_rows[0].len();
    debug_assert!(panel.len() >= k * NR);
    let mut wins = [[win0; NR]; R];
    let mut lanes = [[0i64; NR]; R];
    let mut s = 0usize;
    while s < k {
        let seg = K_SPILL.min(k - s);
        let sub: [&[i16]; R] = std::array::from_fn(|r| &a_rows[r][s..s + seg]);
        tile_mul_i16_with(tier, sub, &panel[s * NR..(s + seg) * NR], &mut lanes);
        for (wr, lr) in wins.iter_mut().zip(&mut lanes) {
            for (w, lane) in wr.iter_mut().zip(lr.iter_mut()) {
                w.add_aligned(std::mem::take(lane));
            }
        }
        s += seg;
    }
    wins
}

/// Clean-pair dot product over folded significands, spilled into a copy
/// of `win0` per [`K_SPILL`] segment — the systolic event simulator's
/// all-normal wavefront (streams may differ in length; the shorter one
/// bounds the depth, matching the zip semantics of the scalar loop).
#[inline]
pub fn dot_sval(a: &[i16], b: &[i16], win0: WindowAcc) -> WindowAcc {
    dot_sval_with(selected_tier(), a, b, win0)
}

/// [`dot_sval`] on an explicit tier (clamped once up front).
#[inline]
pub fn dot_sval_with(tier: KernelTier, a: &[i16], b: &[i16], win0: WindowAcc) -> WindowAcc {
    let tier = clamp(tier);
    let len = a.len().min(b.len());
    let mut win = win0;
    let mut s = 0usize;
    while s < len {
        let seg = K_SPILL.min(len - s);
        let (sa, sb) = (&a[s..s + seg], &b[s..s + seg]);
        let sum = match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `clamp` only yields Avx2 when runtime detection saw it.
            KernelTier::Avx2 => unsafe { x86::dot_seg_avx2(sa, sb) },
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => x86::dot_seg_sse2(sa, sb),
            #[cfg(target_arch = "aarch64")]
            KernelTier::Neon => neon::dot_seg_neon(sa, sb),
            _ => scalar::dot_seg(sa, sb),
        };
        win.add_aligned(sum);
        s += seg;
    }
    win
}

/// One band of the GEMM's outlier correction (see `owlp_format::bands`):
/// `lanes[c] = Σ coefs[x] · panel[depths[x]·NR + c]`, on the
/// process-selected tier. With `counts`, also adds to `counts[c]` how many
/// of those panel words are nonzero — the outlier products the PE's
/// bypass path carries.
///
/// Exact in `i64`: a coefficient is below `2^31` and a panel word at most
/// `2^15` in magnitude, and a band holds at most
/// [`owlp_format::bands::BAND_MAX_RECORDS`] `= 2^16` records, so every lane
/// stays below `2^62`.
#[inline]
pub fn band_dot(
    depths: &[u32],
    coefs: &[i32],
    panel: &[i16],
    counts: Option<&mut [u32; NR]>,
) -> [i64; NR] {
    band_dot_with(selected_tier(), depths, coefs, panel, counts)
}

/// [`band_dot`] on an explicit (clamped) tier. Only AVX2 has a vector
/// path (signed `i32×i32→i64` lanes); every other tier runs the scalar
/// oracle.
#[inline]
pub fn band_dot_with(
    tier: KernelTier,
    depths: &[u32],
    coefs: &[i32],
    panel: &[i16],
    counts: Option<&mut [u32; NR]>,
) -> [i64; NR] {
    debug_assert_eq!(depths.len(), coefs.len());
    debug_assert!(depths.len() <= owlp_format::bands::BAND_MAX_RECORDS);
    match clamp(tier) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp` only yields Avx2 when runtime detection saw it.
        KernelTier::Avx2 => unsafe { x86::band_dot_avx2(depths, coefs, panel, counts) },
        _ => scalar::band_dot(depths, coefs, panel, counts),
    }
}

/// The tier each public entry point *effectively* runs on under the
/// current selection — they differ only where an ISA level lacks the
/// needed instruction (every non-AVX2 tier's `band_dot`). For
/// `repro features`.
pub fn entry_point_tiers() -> [(&'static str, KernelTier); 3] {
    let t = selected_tier();
    let band_tier = if t == KernelTier::Avx2 {
        t
    } else {
        KernelTier::Scalar
    };
    [
        ("tile_dot_i16", t),
        ("dot_sval", t),
        ("band_dot", band_tier),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use owlp_format::{encode_tensor, Bf16};

    fn bf(x: f32) -> Bf16 {
        Bf16::from_f32(x)
    }

    /// Normal-band values so every product lands on the shared frame.
    fn normals(len: usize, seed: u64) -> Vec<Bf16> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state >> 40) as f32 / (1u64 << 24) as f32;
                let sign = if state & 2 == 0 { 1.0 } else { -1.0 };
                bf(sign * (0.75 + u * 0.5))
            })
            .collect()
    }

    #[test]
    fn sval_bound_is_i16_safe() {
        // The proof constant: max mag (11 bits) at max shift.
        let max = ((1i32 << 11) - 1) << 4;
        assert_eq!(max, 32752);
        assert!(max <= i16::MAX as i32);
        // And the product bound used for K_SPILL.
        assert!((max as i64 * max as i64) < 1 << 30);
        assert!((K_SPILL as i64) << 30 <= 1 << 44);
        // The madd-specific bound: an adjacent pair sum fits i32.
        assert!(2 * (max as i64) * (max as i64) < 1 << 31);
    }

    #[test]
    fn tile_matches_scalar_dot_per_element() {
        let k = 3 * K_SPILL / 2 + 7; // forces a mid-depth spill + remainder
        let a: Vec<Bf16> = normals(MR * k, 11);
        let b: Vec<Bf16> = normals(k * NR, 22);
        let ea = encode_tensor(&a, None).unwrap();
        let eb = encode_tensor(&b, None).unwrap();
        let pa = ea.decode_packed();
        let pb = eb.decode_packed();
        let panels = pb.pack_panels(k, NR);
        let win0 = WindowAcc::for_owlp_normal(ea.shared_exp(), eb.shared_exp(), k);
        let a_rows: [&[i16]; MR] = std::array::from_fn(|r| &pa.svals()[r * k..(r + 1) * k]);
        for &tier in available_tiers() {
            let wins = tile_dot_i16_with(tier, a_rows, panels.panel(0), win0);
            for (r, wrow) in wins.iter().enumerate() {
                for (c, wtile) in wrow.iter().enumerate() {
                    let mut win = win0;
                    let mut sum = 0i64;
                    for kk in 0..k {
                        sum += pa.svals()[r * k + kk] as i64 * pb.svals()[kk * NR + c] as i64;
                        if kk & 0x1F == 0x1F {
                            win.add_aligned(sum);
                            sum = 0;
                        }
                    }
                    win.add_aligned(sum);
                    assert_eq!(
                        wtile.round_to_f32().to_bits(),
                        win.round_to_f32().to_bits(),
                        "tier {tier} tile ({r},{c})"
                    );
                }
            }
        }
    }

    /// The rows of an `R`-row tile on `tier` against `R` one-row tiles on
    /// the scalar tier (and on `tier`): a tile's rows are independent sums.
    fn tile_equals_one_row_tiles<const R: usize>(rows: &[&[i16]], panel: &[i16], win0: WindowAcc) {
        let a_rows: [&[i16]; R] = std::array::from_fn(|r| rows[r]);
        let oracle: Vec<[WindowAcc; NR]> = a_rows
            .iter()
            .map(|&row| tile_dot_i16_with(KernelTier::Scalar, [row], panel, win0)[0])
            .collect();
        for &tier in available_tiers() {
            let wins = tile_dot_i16_with(tier, a_rows, panel, win0);
            for (r, &row) in a_rows.iter().enumerate() {
                let [one] = tile_dot_i16_with(tier, [row], panel, win0);
                for c in 0..NR {
                    let want = oracle[r][c].raw();
                    assert_eq!(wins[r][c].raw(), want, "tier {tier} R={R} ({r},{c})");
                    assert_eq!(one[c].raw(), want, "tier {tier} one-row ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn r_row_tile_equals_r_one_row_tiles_on_every_tier() {
        let k = K_SPILL + 21; // spill crossing + odd remainder for the tails
        let a: Vec<Bf16> = normals(MR8 * k, 77);
        let b: Vec<Bf16> = normals(k * NR, 88);
        let ea = encode_tensor(&a, None).unwrap();
        let eb = encode_tensor(&b, None).unwrap();
        let (pa, pb) = (ea.decode_packed(), eb.decode_packed());
        let panels = pb.pack_panels(k, NR);
        let win0 = WindowAcc::for_owlp_normal(ea.shared_exp(), eb.shared_exp(), k);
        let rows: Vec<&[i16]> = pa.svals().chunks_exact(k).collect();
        let panel = panels.panel(0);
        tile_equals_one_row_tiles::<2>(&rows, panel, win0);
        tile_equals_one_row_tiles::<3>(&rows, panel, win0);
        tile_equals_one_row_tiles::<MR>(&rows, panel, win0);
        tile_equals_one_row_tiles::<MR8>(&rows, panel, win0);
    }

    #[test]
    fn dot_sval_matches_scalar_spill_loop() {
        let k = K_SPILL + 33;
        let a = normals(k, 5);
        let b = normals(k, 6);
        let ea = encode_tensor(&a, None).unwrap();
        let eb = encode_tensor(&b, None).unwrap();
        let (pa, pb) = (ea.decode_packed(), eb.decode_packed());
        let win0 = WindowAcc::for_owlp_normal(ea.shared_exp(), eb.shared_exp(), k);
        let mut win = win0;
        for kk in 0..k {
            win.add_aligned(pa.svals()[kk] as i64 * pb.svals()[kk] as i64);
        }
        for &tier in available_tiers() {
            let fast = dot_sval_with(tier, pa.svals(), pb.svals(), win0);
            assert_eq!(
                fast.round_to_f32().to_bits(),
                win.round_to_f32().to_bits(),
                "tier {tier}"
            );
        }
    }

    #[test]
    fn zero_padded_rows_and_columns_contribute_nothing() {
        let k = 37;
        let a = normals(k, 3);
        let ea = encode_tensor(&a, None).unwrap();
        let pa = ea.decode_packed();
        let zero = vec![0i16; k];
        let a_rows: [&[i16]; MR] =
            std::array::from_fn(|r| if r == 0 { pa.svals() } else { zero.as_slice() });
        let panel = vec![0i16; k * NR];
        let win0 = WindowAcc::for_owlp_normal(ea.shared_exp(), 127, k);
        for &tier in available_tiers() {
            let wins = tile_dot_i16_with(tier, a_rows, &panel, win0);
            for row in &wins {
                for w in row {
                    assert!(w.is_zero(), "tier {tier}");
                }
            }
        }
    }

    #[test]
    fn max_magnitude_svals_are_exact_on_every_tier() {
        // The madd worst case: every operand at ±32752 with alternating
        // signs, odd length so the remainder path runs too.
        let k = 2 * K_SPILL + 15;
        let a: Vec<i16> = (0..k)
            .map(|i| if i % 2 == 0 { 32752 } else { -32752 })
            .collect();
        let b: Vec<i16> = (0..k)
            .map(|i| if i % 3 == 0 { -32752 } else { 32752 })
            .collect();
        let win0 = WindowAcc::for_owlp_normal(127, 127, k);
        let oracle = dot_sval_with(KernelTier::Scalar, &a, &b, win0);
        for &tier in available_tiers() {
            let got = dot_sval_with(tier, &a, &b, win0);
            assert_eq!(got.raw(), oracle.raw(), "tier {tier}");
        }
        // And through the tile path at every height, one column of each
        // sign pattern.
        let panel: Vec<i16> = (0..k)
            .flat_map(|i| {
                let v = if i % 5 == 0 { -32752i16 } else { 32752 };
                [v, -v, v, -v]
            })
            .collect();
        fn check<const R: usize>(a: &[i16], b: &[i16], panel: &[i16], win0: WindowAcc) {
            let a_rows: [&[i16]; R] = std::array::from_fn(|r| if r % 2 == 0 { a } else { b });
            let oracle = tile_dot_i16_with(KernelTier::Scalar, a_rows, panel, win0);
            for &tier in available_tiers() {
                let got = tile_dot_i16_with(tier, a_rows, panel, win0);
                for r in 0..R {
                    for c in 0..NR {
                        let (g, o) = (got[r][c].raw(), oracle[r][c].raw());
                        assert_eq!(g, o, "tier {tier} R={R} ({r},{c})");
                    }
                }
            }
        }
        check::<1>(&a, &b, &panel, win0);
        check::<2>(&a, &b, &panel, win0);
        check::<3>(&a, &b, &panel, win0);
        check::<MR>(&a, &b, &panel, win0);
        check::<MR8>(&a, &b, &panel, win0);
    }

    #[test]
    fn padded_panels_are_ignored_beyond_the_segment() {
        // A panel longer than seg·NR (the PR7 zero-padded layout) must
        // produce the same lanes as the exact-length panel, at every tile
        // height.
        let k = 21; // odd: exercises every tier's tail
        let a: Vec<i16> = (0..k as i16).map(|i| (i * 7 - 50) * 3).collect();
        let exact: Vec<i16> = (0..k * NR).map(|i| (i as i16 % 111) - 55).collect();
        let mut padded = exact.clone();
        padded.extend(std::iter::repeat_n(0i16, 3 * NR));
        fn check<const R: usize>(a: &[i16], exact: &[i16], padded: &[i16]) {
            let a_rows: [&[i16]; R] = [a; R];
            for &tier in available_tiers() {
                let mut lanes_a = [[0i64; NR]; R];
                let mut lanes_b = [[0i64; NR]; R];
                tile_mul_i16_with(tier, a_rows, exact, &mut lanes_a);
                tile_mul_i16_with(tier, a_rows, padded, &mut lanes_b);
                assert_eq!(lanes_a, lanes_b, "tier {tier} R={R}");
            }
        }
        check::<1>(&a, &exact, &padded);
        check::<2>(&a, &exact, &padded);
        check::<3>(&a, &exact, &padded);
        check::<MR>(&a, &exact, &padded);
        check::<MR8>(&a, &exact, &padded);
    }

    #[test]
    fn band_dot_matches_scalar_at_extreme_words() {
        // Widest coefficients against extreme panel words, repeated
        // depths, zero words, and the bounds the lane proof rests on.
        let k = 37;
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const WORDS: [i16; 7] = [0, 1, -1, 255, -255, i16::MAX, i16::MIN];
        const COEFS: [i32; 6] = [1, -1, 255 << 23, -(255 << 23), i32::MAX, -i32::MAX];
        let panel: Vec<i16> = (0..k * NR).map(|_| WORDS[(next() % 7) as usize]).collect();
        let depths: Vec<u32> = (0..300).map(|_| (next() % k as u64) as u32).collect();
        let coefs: Vec<i32> = (0..300).map(|_| COEFS[(next() % 6) as usize]).collect();
        let mut want_counts = [3u32; NR];
        let want = band_dot_with(
            KernelTier::Scalar,
            &depths,
            &coefs,
            &panel,
            Some(&mut want_counts),
        );
        for c in 0..NR {
            let lane: i64 = depths
                .iter()
                .zip(&coefs)
                .map(|(&kk, &cf)| cf as i64 * panel[kk as usize * NR + c] as i64)
                .sum();
            assert_eq!(want[c], lane);
        }
        for &tier in available_tiers() {
            let mut counts = [3u32; NR];
            let got = band_dot_with(tier, &depths, &coefs, &panel, Some(&mut counts));
            assert_eq!(got, want, "tier {tier}");
            assert_eq!(counts, want_counts, "tier {tier}");
            assert_eq!(band_dot_with(tier, &depths, &coefs, &panel, None), want);
        }
    }

    #[test]
    fn entry_point_tiers_are_consistent() {
        let tiers = entry_point_tiers();
        assert_eq!(tiers.len(), 3);
        for (name, tier) in tiers {
            assert!(
                available_tiers().contains(&tier),
                "{name} reports unavailable tier {tier}"
            );
        }
    }
}
