//! x86-64 SIMD tiers: SSE2 (baseline, always safe to call) and AVX2
//! (guarded by runtime detection in `owlp_format::simd`).
//!
//! ## Why `madd_epi16` is exact here
//!
//! `_mm_madd_epi16` / `_mm256_madd_epi16` compute, per `i32` output lane,
//! `a[2i]·b[2i] + a[2i+1]·b[2i+1]` — two `i16×i16` products and their sum
//! in `i32`. The **only** input for which that sum overflows `i32` is
//! `(-32768)² + (-32768)² = 2^31`; sval planes satisfy `|sval| ≤ 32752 <
//! 32768` ([`owlp_format::packed::sval_of`]'s bound, re-proved in the
//! microkernel tests), so every pairwise sum here is `≤ 2·32752² <
//! 2^31` — exact. Each madd result is then widened to `i64` **before**
//! any further accumulation (a madd result can reach ~2^31, so `i32`
//! lane accumulation would be wrong); per-lane `i64` sums stay below
//! `2^44` per [`super::K_SPILL`] segment exactly as in the scalar proof.
//! The pairwise regrouping itself is just another association order of
//! the same exact integer sum, so bit-identity with the scalar oracle
//! holds by construction.
//!
//! All loads are unaligned (`loadu`); the 32-byte alignment provided by
//! `owlp_format::aligned` is a performance property, never a safety
//! contract. A-row pairs are read with `read_unaligned` on `i32`-sized
//! windows — on little-endian x86 the low half is `a[kk]`, the high half
//! `a[kk+1]`, matching madd's in-register pair order.

#![allow(unsafe_code)]

use super::{scalar, NR};
use std::arch::x86_64::*;

/// Finishes the `seg % width` remainder depths through the scalar oracle
/// (identical association order per term, so exactness is untouched).
#[inline]
fn scalar_tail<const R: usize>(
    a_rows: [&[i16]; R],
    panel: &[i16],
    lanes: &mut [[i64; NR]; R],
    done: usize,
) {
    let seg = a_rows[0].len();
    if done < seg {
        let sub: [&[i16]; R] = std::array::from_fn(|r| &a_rows[r][done..]);
        scalar::tile_mul_i16(sub, &panel[done * NR..], lanes);
    }
}

/// SSE2 tier of `tile_mul_i16_with`: two K-depths × `NR` columns per
/// step. One 128-bit panel load covers depths `kk, kk+1`; the in-register
/// interleave pairs each column's two depths adjacently for `madd`.
///
/// SSE2 is part of the x86-64 baseline ABI, so this is a safe function.
#[inline]
pub fn tile_mul_i16_sse2<const R: usize>(
    a_rows: [&[i16]; R],
    panel: &[i16],
    lanes: &mut [[i64; NR]; R],
) {
    let seg = a_rows[0].len();
    let pairs = seg & !1;
    unsafe {
        let p = panel.as_ptr();
        // Two 2×i64 accumulators per row = one i64 lane per column.
        let mut acc = [[_mm_setzero_si128(); 2]; R];
        let mut kk = 0usize;
        while kk < pairs {
            // [c0..c3 | d0..d3] (depths kk, kk+1 × NR columns) →
            // [c0,d0,c1,d1,c2,d2,c3,d3]: each column's depth pair adjacent.
            let b = _mm_loadu_si128(p.add(kk * NR) as *const __m128i);
            let bi = _mm_unpacklo_epi16(b, _mm_unpackhi_epi64(b, b));
            for r in 0..R {
                let pair = (a_rows[r].as_ptr().add(kk) as *const i32).read_unaligned();
                let prod = _mm_madd_epi16(_mm_set1_epi32(pair), bi);
                // Widen the four i32 column sums to i64 before accumulating.
                let sign = _mm_srai_epi32::<31>(prod);
                acc[r][0] = _mm_add_epi64(acc[r][0], _mm_unpacklo_epi32(prod, sign));
                acc[r][1] = _mm_add_epi64(acc[r][1], _mm_unpackhi_epi32(prod, sign));
            }
            kk += 2;
        }
        for (lr, ar) in lanes.iter_mut().zip(&acc) {
            let mut t = [0i64; NR];
            _mm_storeu_si128(t.as_mut_ptr() as *mut __m128i, ar[0]);
            _mm_storeu_si128(t.as_mut_ptr().add(2) as *mut __m128i, ar[1]);
            for (lane, v) in lr.iter_mut().zip(t) {
                *lane += v;
            }
        }
    }
    scalar_tail(a_rows, panel, lanes, pairs);
}

/// AVX2 tier of `tile_mul_i16_with`: four K-depths × `NR` columns per
/// step. One 256-bit panel load covers depths `kk..kk+4`; each 128-bit
/// half is interleaved like the SSE2 tier, and the A side broadcasts one
/// depth pair per half. One `madd` then yields all four column sums for
/// two depth pairs, widened and folded into one 4×i64 accumulator per
/// row.
///
/// The panel load and its interleave are shared by all `R` rows, so a
/// taller tile streams the panel fewer times per output row. At `R = 8`
/// (the drive loop's [`super::MR8`] tile) the eight accumulators, the
/// interleaved panel vector and the per-row temporaries still fit the
/// sixteen ymm registers, so the inner loop stays spill-free.
///
/// # Safety
/// The caller must have verified AVX2 support (`owlp_format::simd::clamp` /
/// `available_tiers`).
#[target_feature(enable = "avx2")]
pub unsafe fn tile_mul_i16_avx2<const R: usize>(
    a_rows: [&[i16]; R],
    panel: &[i16],
    lanes: &mut [[i64; NR]; R],
) {
    let seg = a_rows[0].len();
    let quads = seg & !3;
    let p = panel.as_ptr();
    let mut acc = [_mm256_setzero_si256(); R];
    let mut kk = 0usize;
    while kk < quads {
        let b = _mm256_loadu_si256(p.add(kk * NR) as *const __m256i);
        // Per 128-bit half: [c0..c3 | d0..d3] → [c0,d0,...,c3,d3].
        let bi = _mm256_unpacklo_epi16(b, _mm256_shuffle_epi32::<0xEE>(b));
        for r in 0..R {
            let ar = a_rows[r].as_ptr().add(kk);
            let p0 = (ar as *const i32).read_unaligned();
            let p1 = (ar.add(2) as *const i32).read_unaligned();
            let av = _mm256_set_m128i(_mm_set1_epi32(p1), _mm_set1_epi32(p0));
            let prod = _mm256_madd_epi16(av, bi);
            // Low half: columns × depth pair 0; high half: × depth pair 1.
            let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(prod));
            let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(prod));
            acc[r] = _mm256_add_epi64(acc[r], _mm256_add_epi64(lo, hi));
        }
        kk += 4;
    }
    for (lr, ar) in lanes.iter_mut().zip(&acc) {
        let mut t = [0i64; NR];
        _mm256_storeu_si256(t.as_mut_ptr() as *mut __m256i, *ar);
        for (lane, v) in lr.iter_mut().zip(t) {
            *lane += v;
        }
    }
    scalar_tail(a_rows, panel, lanes, quads);
}

/// SSE2 tier of one [`super::dot_sval`] K-segment: 8 products per step
/// through `madd`, widened to two 2×i64 accumulators.
#[inline]
pub fn dot_seg_sse2(a: &[i16], b: &[i16]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let len = a.len();
    let wide = len & !7;
    let sum;
    unsafe {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc_lo = _mm_setzero_si128();
        let mut acc_hi = _mm_setzero_si128();
        let mut i = 0usize;
        while i < wide {
            let x = _mm_loadu_si128(pa.add(i) as *const __m128i);
            let y = _mm_loadu_si128(pb.add(i) as *const __m128i);
            let prod = _mm_madd_epi16(x, y);
            let sign = _mm_srai_epi32::<31>(prod);
            acc_lo = _mm_add_epi64(acc_lo, _mm_unpacklo_epi32(prod, sign));
            acc_hi = _mm_add_epi64(acc_hi, _mm_unpackhi_epi32(prod, sign));
            i += 8;
        }
        let mut t = [0i64; 2];
        _mm_storeu_si128(
            t.as_mut_ptr() as *mut __m128i,
            _mm_add_epi64(acc_lo, acc_hi),
        );
        sum = t[0] + t[1];
    }
    sum + scalar::dot_seg(&a[wide..], &b[wide..])
}

/// AVX2 tier of one [`super::dot_sval`] K-segment: 16 products per step.
///
/// # Safety
/// The caller must have verified AVX2 support.
#[target_feature(enable = "avx2")]
pub unsafe fn dot_seg_avx2(a: &[i16], b: &[i16]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let len = a.len();
    let wide = len & !15;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm256_setzero_si256();
    let mut i = 0usize;
    while i < wide {
        let x = _mm256_loadu_si256(pa.add(i) as *const __m256i);
        let y = _mm256_loadu_si256(pb.add(i) as *const __m256i);
        let prod = _mm256_madd_epi16(x, y);
        let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(prod));
        let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(prod));
        acc = _mm256_add_epi64(acc, _mm256_add_epi64(lo, hi));
        i += 16;
    }
    let mut t = [0i64; 4];
    _mm256_storeu_si256(t.as_mut_ptr() as *mut __m256i, acc);
    t.iter().sum::<i64>() + scalar::dot_seg(&a[wide..], &b[wide..])
}

/// AVX2 tier of [`super::band_dot`]: one record per step — the panel row's
/// four `i16` words sign-extend into `i64` lanes, and `mul_epi32` takes
/// the exact signed `i32×i32→i64` product of each lane's low half with the
/// broadcast coefficient. Same per-lane sum as the scalar oracle.
///
/// # Safety
/// The caller must have verified AVX2 support (`owlp_format::simd::clamp` /
/// `available_tiers`).
#[target_feature(enable = "avx2")]
pub unsafe fn band_dot_avx2(
    depths: &[u32],
    coefs: &[i32],
    panel: &[i16],
    counts: Option<&mut [u32; NR]>,
) -> [i64; NR] {
    let zero = _mm256_setzero_si256();
    let mut acc = zero;
    let mut zeros = zero;
    for (&kk, &cf) in depths.iter().zip(coefs) {
        let b = &panel[kk as usize * NR..kk as usize * NR + NR];
        // `b` holds exactly NR = 4 i16 words: the 8 bytes loaded.
        let p = _mm256_cvtepi16_epi64(_mm_loadl_epi64(b.as_ptr() as *const __m128i));
        acc = _mm256_add_epi64(acc, _mm256_mul_epi32(_mm256_set1_epi64x(cf as i64), p));
        zeros = _mm256_sub_epi64(zeros, _mm256_cmpeq_epi64(p, zero));
    }
    let mut lanes = [0i64; NR];
    let mut z = [0i64; NR];
    // Both destinations are 4 × i64 = 32 bytes.
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    _mm256_storeu_si256(z.as_mut_ptr() as *mut __m256i, zeros);
    if let Some(counts) = counts {
        let records = depths.len().min(coefs.len()) as u32;
        for (n, z) in counts.iter_mut().zip(z) {
            *n += records - z as u32;
        }
    }
    lanes
}
