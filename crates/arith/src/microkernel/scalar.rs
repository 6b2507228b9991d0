//! The scalar reference kernels — the always-on oracle.
//!
//! These are the PR5 register-tiled loops, verbatim: every SIMD tier in
//! [`super::x86`] / [`super::neon`] is differential-tested against them
//! (`tests/microkernel_equivalence.rs`), and `OWLP_SIMD=scalar` forces
//! them at runtime on any host. They carry the exactness contract the
//! SIMD tiers inherit: products are exact in `i32`, `i64` lane sums are
//! exact per [`super::K_SPILL`] segment, and integer regrouping cannot
//! change the sum.
//!
//! Contracts here are the relaxed module-level ones (`panel.len() ≥
//! seg·NR`) — the public wrappers in [`super`] own the debug assertions.

use super::NR;

/// Scalar tier of `tile_mul_i16_with`: one `i16×i16→i32` FMA per
/// product, widened to the `i64` lane once per term.
#[inline]
pub fn tile_mul_i16<const R: usize>(
    a_rows: [&[i16]; R],
    panel: &[i16],
    lanes: &mut [[i64; NR]; R],
) {
    let seg = a_rows[0].len();
    for kk in 0..seg {
        let b = &panel[kk * NR..kk * NR + NR];
        for r in 0..R {
            let av = a_rows[r][kk] as i32;
            for (c, lane) in lanes[r].iter_mut().enumerate() {
                // i16×i16 → exact i32 product, widened once per lane.
                *lane += (av * b[c] as i32) as i64;
            }
        }
    }
}

/// Scalar tier of one [`super::dot_sval`] K-segment: the plain
/// multiply-accumulate sweep (`a.len() == b.len() ≤ K_SPILL`).
#[inline]
pub fn dot_seg(a: &[i16], b: &[i16]) -> i64 {
    let mut sum = 0i64;
    for (x, y) in a.iter().zip(b) {
        sum += (*x as i32 * *y as i32) as i64;
    }
    sum
}

/// Scalar tier of [`super::band_dot`]: one `i32×i16→i64` product per
/// record and column, plus the nonzero-word count when asked.
#[inline]
pub fn band_dot(
    depths: &[u32],
    coefs: &[i32],
    panel: &[i16],
    counts: Option<&mut [u32; NR]>,
) -> [i64; NR] {
    let mut lanes = [0i64; NR];
    let mut nonzero = [0u32; NR];
    for (&kk, &cf) in depths.iter().zip(coefs) {
        let b = &panel[kk as usize * NR..kk as usize * NR + NR];
        for c in 0..NR {
            lanes[c] += cf as i64 * b[c] as i64;
            nonzero[c] += u32::from(b[c] != 0);
        }
    }
    if let Some(counts) = counts {
        for (n, z) in counts.iter_mut().zip(nonzero) {
            *n += z;
        }
    }
    lanes
}
