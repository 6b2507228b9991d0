//! x86-64 SIMD tiers: SSE2 (baseline, always safe to call) and AVX2
//! (guarded by runtime detection in `owlp_format::simd`).
//!
//! ## Why `madd_epi16` is exact here
//!
//! `_mm_madd_epi16` / `_mm256_madd_epi16` compute, per `i32` output lane,
//! `a[2i]·b[2i] + a[2i+1]·b[2i+1]` — two `i16×i16` products and their sum
//! in `i32`. With `amax`/`bmax` the largest `|sval|` of the two operands,
//! one lane is at most `2·amax·bmax`; the AVX2 tile adds
//! [`super::MADD_PERIOD`]` = 4` such lanes in `i32` before widening them
//! to `i64`, so it needs `8·amax·bmax < 2^31`. The GEMM drive loop proves
//! that from bounds measured on the operands (`super::madd_period_holds`)
//! before it runs a SIMD tier; every encoder output qualifies
//! (`|sval| ≤ 16 320`, `8·16 320² = 2 130 739 200`). The SSE2 tile widens
//! every `madd` result, so the same proof covers it. `dot_seg_*` widen
//! every `madd` result too, but no caller measures their operands: they
//! rely on encoder-bounded input — only encoder output reaches
//! `owlp-systolic`'s event simulator — and two `i16::MIN` words in one
//! pair would wrap. Per-lane `i64` sums stay below `2^44` per
//! [`super::K_SPILL`] segment exactly as in the scalar proof, and the
//! regrouping is just another association order of the same exact
//! integer sum, so bit-identity with the scalar oracle holds by
//! construction.
//!
//! All loads are unaligned (`loadu`); the 32-byte alignment provided by
//! `owlp_format::aligned` is a performance property, never a safety
//! contract. A-row pairs are read with `read_unaligned` on `i32`-sized
//! windows — on little-endian x86 the low half is `a[kk]`, the high half
//! `a[kk+1]`, matching madd's in-register pair order.

#![allow(unsafe_code)]

use super::{scalar, MADD_PERIOD, NR};
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

/// SSE2 tier of `tile_mul_i16_with`: the panel in four groups of four
/// columns, two K-depths per step. Two 64-bit loads fetch one group at
/// depths `kk` and `kk+1`; one interleave pairs each column's two depths
/// adjacently for `madd`, whose `i32` sums are widened at once.
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
        for g in (0..NR).step_by(4) {
            // Two 2×i64 accumulators per row = one i64 lane per column.
            let mut acc = [[_mm_setzero_si128(); 2]; R];
            let mut kk = 0usize;
            while kk < pairs {
                let b0 = _mm_loadl_epi64(p.add(kk * NR + g) as *const __m128i);
                let b1 = _mm_loadl_epi64(p.add(kk * NR + NR + g) as *const __m128i);
                // [c0,d0,c1,d1,c2,d2,c3,d3]: each column's depth pair adjacent.
                let bi = _mm_unpacklo_epi16(b0, b1);
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
                let mut t = [0i64; 4];
                _mm_storeu_si128(t.as_mut_ptr() as *mut __m128i, ar[0]);
                _mm_storeu_si128(t.as_mut_ptr().add(2) as *mut __m128i, ar[1]);
                for (lane, v) in lr[g..g + 4].iter_mut().zip(t) {
                    *lane += v;
                }
            }
        }
    }
    scalar_tail(a_rows, panel, lanes, pairs);
}

/// AVX2 tier of `tile_mul_i16_with`: two K-depths × all 16 columns per
/// step, summed in `i32` for periods of [`MADD_PERIOD`] steps.
///
/// Each step loads the two 16-word panel rows at depths `kk` and `kk+1`
/// and interleaves them in registers: `unpacklo_epi16` pairs columns
/// `0–3 | 8–11` with their second depth, `unpackhi_epi16` columns
/// `4–7 | 12–15`. That interleave is shared by every row of the tile.
/// Each row then broadcasts its A depth pair once and feeds it to two
/// `madd`s, adding into two `i32` accumulators. At the end of each period
/// the accumulators widen into four `i64` vectors per row (columns `0–3`,
/// `4–7`, `8–11`, `12–15`). At `R = 4` the eight `i32` accumulators and
/// the two interleaved rows stay in registers; the sixteen `i64` vectors
/// of `wide` do not fit beside them, so they spill and are touched once
/// per period.
///
/// # Safety
/// The caller must have verified AVX2 support (`owlp_format::simd::clamp` /
/// `available_tiers`), and the operands must satisfy
/// `8·amax·bmax < 2^31` (see the module docs).
#[target_feature(enable = "avx2")]
pub unsafe fn tile_mul_i16_avx2<const R: usize>(
    a_rows: [&[i16]; R],
    panel: &[i16],
    lanes: &mut [[i64; NR]; R],
) {
    let seg = a_rows[0].len();
    let pairs = seg / 2;
    let p = panel.as_ptr();
    let mut wide = [[_mm256_setzero_si256(); 4]; R];
    // One depth pair into the `i32` accumulators of every row.
    macro_rules! step {
        ($acc:ident, $q:expr) => {{
            let kk = 2 * $q;
            let b0 = _mm256_loadu_si256(p.add(kk * NR) as *const __m256i);
            let b1 = _mm256_loadu_si256(p.add(kk * NR + NR) as *const __m256i);
            let lo = _mm256_unpacklo_epi16(b0, b1);
            let hi = _mm256_unpackhi_epi16(b0, b1);
            for r in 0..R {
                let pair = (a_rows[r].as_ptr().add(kk) as *const i32).read_unaligned();
                let av = _mm256_set1_epi32(pair);
                $acc[r][0] = _mm256_add_epi32($acc[r][0], _mm256_madd_epi16(av, lo));
                $acc[r][1] = _mm256_add_epi32($acc[r][1], _mm256_madd_epi16(av, hi));
            }
        }};
    }
    // Ends a period: widens the `i32` sums into the `i64` lanes.
    macro_rules! widen {
        ($acc:ident) => {
            for (w, a) in wide.iter_mut().zip(&$acc) {
                let parts = [
                    _mm256_castsi256_si128(a[0]),
                    _mm256_castsi256_si128(a[1]),
                    _mm256_extracti128_si256::<1>(a[0]),
                    _mm256_extracti128_si256::<1>(a[1]),
                ];
                for (wq, part) in w.iter_mut().zip(parts) {
                    *wq = _mm256_add_epi64(*wq, _mm256_cvtepi32_epi64(part));
                }
            }
        };
    }
    let full = pairs - pairs % MADD_PERIOD;
    let mut q = 0usize;
    while q < full {
        let mut acc = [[_mm256_setzero_si256(); 2]; R];
        for i in 0..MADD_PERIOD {
            step!(acc, q + i);
        }
        widen!(acc);
        q += MADD_PERIOD;
    }
    if q < pairs {
        let mut acc = [[_mm256_setzero_si256(); 2]; R];
        while q < pairs {
            step!(acc, q);
            q += 1;
        }
        widen!(acc);
    }
    for (lr, wr) in lanes.iter_mut().zip(&wide) {
        let mut t = [0i64; NR];
        for (i, w) in wr.iter().enumerate() {
            _mm256_storeu_si256(t.as_mut_ptr().add(4 * i) as *mut __m256i, *w);
        }
        for (lane, v) in lr.iter_mut().zip(t) {
            *lane += v;
        }
    }
    scalar_tail(a_rows, panel, lanes, 2 * pairs);
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

/// AVX2 tier of [`super::band_dot`]: one record per step. One 32-byte
/// load fetches the panel row's 16 `i16` words; four rounds each
/// sign-extend four of them into `i64` lanes (`cvtepi16_epi64`), take the
/// exact signed `i32×i32→i64` product of each lane's low half with the
/// broadcast coefficient (`mul_epi32`) and add. With `counts`, the zero
/// words are tallied in `i32` lanes, which cannot overflow at
/// `BAND_MAX_RECORDS = 2^16` records (`i16` lanes would). Same per-lane
/// sums as the scalar oracle.
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
    match counts {
        Some(counts) => {
            let (lanes, zeros) = band_dot_avx2_body::<true>(depths, coefs, panel);
            let records = depths.len().min(coefs.len()) as u32;
            for (n, z) in counts.iter_mut().zip(zeros) {
                *n += records - z;
            }
            lanes
        }
        None => band_dot_avx2_body::<false>(depths, coefs, panel).0,
    }
}

/// [`band_dot_avx2`]'s loop: the lanes and, when `COUNT`, the per-column
/// count of zero words.
#[target_feature(enable = "avx2")]
unsafe fn band_dot_avx2_body<const COUNT: bool>(
    depths: &[u32],
    coefs: &[i32],
    panel: &[i16],
) -> ([i64; NR], [u32; NR]) {
    let zero = _mm256_setzero_si256();
    let mut acc = [zero; 4];
    let mut zeros = [zero; 2];
    for (&kk, &cf) in depths.iter().zip(coefs) {
        let b = &panel[kk as usize * NR..kk as usize * NR + NR];
        // `b` holds exactly NR = 16 i16 words: the 32 bytes loaded.
        let row = _mm256_loadu_si256(b.as_ptr() as *const __m256i);
        let c = _mm256_set1_epi64x(i64::from(cf));
        let (lo, hi) = (
            _mm256_castsi256_si128(row),
            _mm256_extracti128_si256::<1>(row),
        );
        let quarters = [
            lo,
            _mm_unpackhi_epi64(lo, lo),
            hi,
            _mm_unpackhi_epi64(hi, hi),
        ];
        for (a, q) in acc.iter_mut().zip(quarters) {
            *a = _mm256_add_epi64(*a, _mm256_mul_epi32(c, _mm256_cvtepi16_epi64(q)));
        }
        if COUNT {
            let z = _mm256_cmpeq_epi16(row, zero);
            let halves = [_mm256_castsi256_si128(z), _mm256_extracti128_si256::<1>(z)];
            for (n, h) in zeros.iter_mut().zip(halves) {
                *n = _mm256_sub_epi32(*n, _mm256_cvtepi16_epi32(h));
            }
        }
    }
    let mut lanes = [0i64; NR];
    for (i, a) in acc.iter().enumerate() {
        _mm256_storeu_si256(lanes.as_mut_ptr().add(4 * i) as *mut __m256i, *a);
    }
    let mut z = [0u32; NR];
    if COUNT {
        for (i, n) in zeros.iter().enumerate() {
            _mm256_storeu_si256(z.as_mut_ptr().add(8 * i) as *mut __m256i, *n);
        }
    }
    (lanes, z)
}
