//! AArch64 NEON tier: `smlal`-family widening multiply-accumulates.
//!
//! The exactness argument mirrors the SSE2 tile in `x86.rs`: one
//! `vmull_s16` plus one `vmlal_s16` sums two `i16×i16` products per `i32`
//! lane, at most `2·amax·bmax`, below `2^31` whenever the drive loop's
//! proof for the AVX2 period holds (`super::madd_period_holds`), which it
//! checks before it picks a SIMD tier. Every `i32` partial is widened to
//! `i64` lanes (`vaddw_s32` / `vpadalq_s32`) before further accumulation.
//! NEON is mandatory in AArch64, so these are safe functions dispatched
//! whenever the tier is selected.

#![allow(unsafe_code)]

use super::{scalar, NR};
use std::arch::aarch64::*;

/// NEON tier of `tile_mul_i16_with`: the panel in four groups of four
/// columns, two K-depths per step, one `vmull_s16` + `vmlal_s16` per row,
/// widened via `vaddw_s32`.
#[inline]
pub fn tile_mul_i16_neon<const R: usize>(
    a_rows: [&[i16]; R],
    panel: &[i16],
    lanes: &mut [[i64; NR]; R],
) {
    let seg = a_rows[0].len();
    let pairs = seg & !1;
    unsafe {
        let p = panel.as_ptr();
        for g in (0..NR).step_by(4) {
            let mut acc = [[vdupq_n_s64(0); 2]; R];
            let mut kk = 0usize;
            while kk < pairs {
                let b0 = vld1_s16(p.add(kk * NR + g)); // depth kk, columns g..g+4
                let b1 = vld1_s16(p.add((kk + 1) * NR + g)); // depth kk+1
                for r in 0..R {
                    let a0 = vdup_n_s16(*a_rows[r].get_unchecked(kk));
                    let a1 = vdup_n_s16(*a_rows[r].get_unchecked(kk + 1));
                    // Exact i32 column sums over the depth pair.
                    let s = vmlal_s16(vmull_s16(a0, b0), a1, b1);
                    acc[r][0] = vaddw_s32(acc[r][0], vget_low_s32(s));
                    acc[r][1] = vaddw_s32(acc[r][1], vget_high_s32(s));
                }
                kk += 2;
            }
            for (lr, ar) in lanes.iter_mut().zip(&acc) {
                let mut t = [0i64; 4];
                vst1q_s64(t.as_mut_ptr(), ar[0]);
                vst1q_s64(t.as_mut_ptr().add(2), ar[1]);
                for (lane, v) in lr[g..g + 4].iter_mut().zip(t) {
                    *lane += v;
                }
            }
        }
    }
    if pairs < seg {
        let sub: [&[i16]; R] = std::array::from_fn(|r| &a_rows[r][pairs..]);
        scalar::tile_mul_i16(sub, &panel[pairs * NR..], lanes);
    }
}

/// NEON tier of one [`super::dot_sval`] K-segment: 8 products per step,
/// pairwise-accumulated into i64 lanes with `vpadalq_s32`.
#[inline]
pub fn dot_seg_neon(a: &[i16], b: &[i16]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let len = a.len();
    let wide = len & !7;
    let mut sum;
    unsafe {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = vdupq_n_s64(0);
        let mut i = 0usize;
        while i < wide {
            let x = vld1q_s16(pa.add(i));
            let y = vld1q_s16(pb.add(i));
            // Two i16×i16 products per i32 lane — exact under the sval bound.
            let prod = vmlal_s16(
                vmull_s16(vget_low_s16(x), vget_low_s16(y)),
                vget_high_s16(x),
                vget_high_s16(y),
            );
            acc = vpadalq_s32(acc, prod);
            i += 8;
        }
        sum = vaddvq_s64(acc);
    }
    sum += scalar::dot_seg(&a[wide..], &b[wide..]);
    sum
}
