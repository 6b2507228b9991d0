//! Correctly-rounded reference dot products and GEMM.
//!
//! These are the golden functions of the whole reproduction: the
//! mathematically exact sum of BF16 products, rounded **once** to FP32.
//! [`crate::gemm::owlp_gemm`] must match them bit-for-bit; the sequential
//! FP32 baseline of [`crate::fpmac`] generally does not (it rounds at every
//! accumulation step).

use crate::gemm::{AbftSums, LaneStrike};
use crate::kulisch::KulischAcc;
use crate::microkernel::{self, MR, NR};
use crate::window::WindowAcc;
use owlp_format::Bf16;

/// ABFT checksum pair of one [`exact_gemm_abft`] run: the *observed*
/// row/column sums of the banded fast path's i64 lanes, and the
/// *reference* sums computed independently from the aligned band planes.
/// Both live on the same integer grid (`2^(base_a + base_b)`), so
/// `observed == reference` holds exactly on a clean run — there is no
/// roundoff tolerance to tune. Out-of-band tag corrections bypass the
/// lanes on both sides of the comparison, so they cannot raise a false
/// positive either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbftCheck {
    /// Row/column sums the drive loop actually accumulated.
    pub observed: AbftSums,
    /// The same sums recomputed from the band planes (`rows[i] =
    /// Σ_k plane_a[i,k]·(Σ_j plane_b[k,j])`, and transposed for columns).
    pub reference: AbftSums,
}

impl AbftCheck {
    /// Row and column indices whose observed sum disagrees with the
    /// reference — empty on a clean run; exactly one of each after a
    /// single lane strike, intersecting at the damaged element.
    pub fn mismatches(&self) -> (Vec<usize>, Vec<usize>) {
        let rows = (0..self.observed.rows.len())
            .filter(|&i| self.observed.rows[i] != self.reference.rows[i])
            .collect();
        let cols = (0..self.observed.cols.len())
            .filter(|&j| self.observed.cols[j] != self.reference.cols[j])
            .collect();
        (rows, cols)
    }
}

/// Magnitude bits of one BF16×BF16 product (8-bit × 8-bit significands).
const PRODUCT_BITS: i32 = 16;

/// The frame span of a tensor's nonzero elements (min/max of
/// [`Bf16::pow2_frame`]), or `None` when every element is zero. Also
/// enforces the exact-arithmetic finiteness contract for *all* elements,
/// exactly as the per-product path would.
///
/// # Panics
///
/// Panics on non-finite values.
fn frame_span(t: &[Bf16]) -> Option<(i32, i32)> {
    let mut span: Option<(i32, i32)> = None;
    for &x in t {
        assert!(x.is_finite(), "non-finite operand in exact product");
        if x.significand() == 0 {
            continue;
        }
        let f = x.pow2_frame();
        span = Some(match span {
            None => (f, f),
            Some((lo, hi)) => (lo.min(f), hi.max(f)),
        });
    }
    span
}

/// A WindowAcc template covering every product of the two spans (`None`
/// when the span is too wide for the 126-bit window, or when one side is
/// all zeros — the caller handles both).
fn product_window(sa: (i32, i32), sb: (i32, i32), terms: usize) -> Option<WindowAcc> {
    WindowAcc::for_span(sa.0 + sb.0, sa.1 + sb.1 + PRODUCT_BITS, terms as u64)
}

/// Widest in-band frame range (inclusive, above the band base) one operand
/// side may use: an in-band element is stored *aligned* as
/// `significand << (frame − base)` with an 8-bit significand, and the
/// aligned value must fit the signed `i32` band plane (`8 + 23 = 31` bits).
const MAX_BAND_WIDTH: i32 = 23;

/// Splits a total in-band bit `budget` between the two operand sides,
/// favouring whichever side actually spans more frames. Both widths are
/// clamped to [`MAX_BAND_WIDTH`] and their sum never exceeds `budget`.
fn split_band_widths(span_a: i32, span_b: i32, budget: i32) -> (i32, i32) {
    let wa = span_a
        .min((budget - span_b.min(budget / 2)).max(0))
        .clamp(0, MAX_BAND_WIDTH);
    let wb = span_b.min(budget - wa).clamp(0, MAX_BAND_WIDTH);
    (wa, wb)
}

/// Base frame of the densest width-`width` band of `t`'s nonzero frames —
/// the placement that leaves the fewest elements out-of-band. BF16 frames
/// live in a span of at most a few hundred values, so a flat histogram
/// plus a sliding-window max is exact and cheap.
fn densest_band(t: &[Bf16], span: (i32, i32), width: i32) -> i32 {
    let (lo, hi) = span;
    if hi - lo <= width {
        return lo; // the whole tensor fits one band
    }
    let bins = (hi - lo + 1) as usize;
    let mut hist = vec![0u64; bins];
    for &x in t {
        if x.significand() != 0 {
            hist[(x.pow2_frame() - lo) as usize] += 1;
        }
    }
    let w = (width + 1) as usize;
    let mut cur: u64 = hist[..w].iter().sum();
    let (mut best, mut best_at) = (cur, 0usize);
    for s in 1..=bins - w {
        cur += hist[s + w - 1];
        cur -= hist[s - 1];
        if cur > best {
            best = cur;
            best_at = s;
        }
    }
    lo + best_at as i32
}

/// Out-of-band elements of one row (of A) or column (of B): `(k-index,
/// signed significand, frame)`, in increasing k-index order.
type BandTags = Vec<Vec<(u32, i64, i32)>>;

/// Decomposes row-major `m×k` A into an aligned signed-`i32` band plane
/// (zeros for zero or out-of-band elements) plus per-row out-of-band tags.
fn band_rows(a: &[Bf16], k: usize, base: i32, width: i32) -> (Vec<i32>, BandTags) {
    let mut plane = vec![0i32; a.len()];
    let mut tags: BandTags = vec![Vec::new(); a.len() / k.max(1)];
    for (pos, &x) in a.iter().enumerate() {
        let sig = x.significand() as i32;
        if sig == 0 {
            continue;
        }
        let sig = if x.sign() { -sig } else { sig };
        let f = x.pow2_frame();
        if f >= base && f - base <= width {
            plane[pos] = sig << (f - base);
        } else {
            tags[pos / k].push(((pos % k) as u32, sig as i64, f));
        }
    }
    (plane, tags)
}

/// Decomposes row-major `k×n` B into zero-padded K-major `NR`-wide aligned
/// `i32` panels (the layout [`microkernel::tile_dot_i32`] consumes) plus
/// per-column out-of-band tags.
fn band_col_panels(b: &[Bf16], k: usize, n: usize, base: i32, width: i32) -> (Vec<i32>, BandTags) {
    let panels = n.div_ceil(NR).max(1);
    let mut data = vec![0i32; panels * k * NR];
    let mut tags: BandTags = vec![Vec::new(); n];
    for kk in 0..k {
        for (j, &x) in b[kk * n..(kk + 1) * n].iter().enumerate() {
            let sig = x.significand() as i32;
            if sig == 0 {
                continue;
            }
            let sig = if x.sign() { -sig } else { sig };
            let f = x.pow2_frame();
            if f >= base && f - base <= width {
                data[(j / NR) * k * NR + kk * NR + (j % NR)] = sig << (f - base);
            } else {
                tags[j].push((kk as u32, sig as i64, f));
            }
        }
    }
    (data, tags)
}

/// The exact dot product of two BF16 slices, rounded once to `f32`
/// (round-to-nearest-even).
///
/// When the two spans of nonzero frames are narrow enough that every
/// product fits one 126-bit window (the common case — and always the case
/// for shared-exponent-encoded data), the sum is taken in a flat
/// [`WindowAcc`]; otherwise each product goes through the full Kulisch
/// register via the batched API. Both paths compute the identical exact
/// sum and round it once, so the result is bit-identical either way.
///
/// # Panics
///
/// Panics if the slices differ in length or contain non-finite values.
///
/// ```
/// use owlp_format::Bf16;
/// use owlp_arith::exact_dot;
/// let a = vec![Bf16::from_f32(1e30), Bf16::from_f32(1.0), Bf16::from_f32(-1e30)];
/// let b = vec![Bf16::ONE; 3];
/// assert_eq!(exact_dot(&a, &b), 1.0); // no catastrophic cancellation
/// ```
pub fn exact_dot(a: &[Bf16], b: &[Bf16]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    let (sa, sb) = (frame_span(a), frame_span(b));
    let (Some(sa), Some(sb)) = (sa, sb) else {
        return 0.0; // one side all zero → exact +0.0, as Kulisch returns
    };
    if let Some(mut win) = product_window(sa, sb, a.len()) {
        for (&x, &y) in a.iter().zip(b) {
            let p = x.significand() as i64 * y.significand() as i64;
            if p == 0 {
                continue;
            }
            let p = if x.sign() ^ y.sign() { -p } else { p };
            win.add(p, x.pow2_frame() + y.pow2_frame());
        }
        return win.round_to_f32();
    }
    let mut acc = KulischAcc::new();
    acc.add_product_batch(a, b);
    acc.round_to_f32()
}

/// The exact dot product evaluated in extended precision `f64` view — used
/// as the error yardstick for the approximate quantization schemes of
/// paper Table I (where f32's own grid would mask their error).
pub fn exact_dot_f64(a: &[Bf16], b: &[Bf16]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    let mut acc = KulischAcc::new();
    acc.add_product_batch(a, b);
    acc.to_f64_lossy()
}

/// Row tiles per parallel chunk: aim for roughly this many scalar products
/// per chunk so thread fan-out only engages on GEMMs that can pay for it.
const GEMM_GRAIN_OPS: usize = 1 << 14;

/// Rows of output per parallel chunk for an `m×k · k×n` GEMM.
pub(crate) fn row_grain(k: usize, n: usize) -> usize {
    (GEMM_GRAIN_OPS / (k.saturating_mul(n)).max(1)).max(1)
}

/// Exact GEMM: `C[m][n] = round_once(Σ_k A[m][k]·B[k][n])`.
///
/// `a` is `m×k` row-major, `b` is `k×n` row-major; the result is `m×n`
/// row-major. Output rows are computed tile-parallel on the [`owlp_par`]
/// grid and assembled in row order; every output element is an independent
/// single-rounded exact sum, so the result is bit-identical at every
/// thread count.
///
/// # Panics
///
/// Panics on shape mismatch or non-finite inputs.
pub fn exact_gemm(a: &[Bf16], b: &[Bf16], m: usize, k: usize, n: usize) -> Vec<f32> {
    exact_gemm_impl::<false>(a, b, m, k, n, None).0
}

/// [`exact_gemm`] with ABFT checksum collection and optionally a
/// sanctioned single-bit lane strike (applied to the in-band i64 lane of
/// one output element, corrupting output and checksums consistently).
///
/// Returns `None` for the check when the banded fast path did not run —
/// an all-zero factor (nothing to protect) or the Kulisch proof-boundary
/// fallback (whose per-product accumulation has no shared integer frame
/// to checksum). Callers treat `None` as "ABFT unavailable", not as a
/// verdict.
///
/// # Panics
///
/// As [`exact_gemm`].
pub fn exact_gemm_abft(
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
    strike: Option<LaneStrike>,
) -> (Vec<f32>, Option<AbftCheck>) {
    exact_gemm_impl::<true>(a, b, m, k, n, strike)
}

// `ABFT` is const so the plain `exact_gemm` monomorphization carries no
// per-element strike/checksum checks in the banded hot loop (the PR6
// bench recorded that leak as a serial regression).
fn exact_gemm_impl<const ABFT: bool>(
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
    strike: Option<LaneStrike>,
) -> (Vec<f32>, Option<AbftCheck>) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    let (sa, sb) = (frame_span(a), frame_span(b));
    let (Some(sa), Some(sb)) = (sa, sb) else {
        return (vec![0.0; m * n], None); // one factor all zero → exact +0.0
    };
    // Banded fast path budget: an in-band product magnitude is below
    // 2^(16 + wa + wb), and a k-term lane sum of those needs
    // ⌈log2 k⌉ + 1 headroom bits on top, so the whole lane provably fits
    // a signed i64 iff 16 + wa + wb + headroom ≤ 63.
    let headroom = 64 - (k.max(1) as u64).leading_zeros() as i32;
    let budget = 47 - headroom;
    let ops_per_row = 2 * (k as u64) * (n as u64);
    let mut reference: Option<AbftSums> = None;
    let row_blocks = if budget >= 0 {
        // Fast path: align the densest frame band of each tensor to a
        // signed-i32 plane, run the register-tiled integer microkernel
        // over the planes (every in-band product is exact in the i64
        // lanes by the budget above), and patch the few out-of-band
        // elements per output with exact per-tag corrections. Tagged and
        // zero elements store 0 in the plane, so the lane needs no
        // subtraction — the corrections are purely additive and the total
        // is the same exact sum, rounded once.
        let (wa, wb) = split_band_widths(sa.1 - sa.0, sb.1 - sb.0, budget);
        let base_a = densest_band(a, sa, wa);
        let base_b = densest_band(b, sb, wb);
        let (aplane, row_tags) = band_rows(a, k, base_a, wa);
        let (bpanels, col_tags) = band_col_panels(b, k, n, base_b, wb);
        // ABFT reference sums straight from the band planes (the panel
        // zero-padding contributes nothing): what the lanes *must* add up
        // to, independently of the kernel's regrouping.
        reference = ABFT.then(|| {
            // Marginals in i64 (the band planes are i32, so ~2^31 summands
            // of slack) and widening 64×64→128 multiplies for the final
            // sums: this runs on every checked GEMM and is priced against
            // the ≤5% integrity overhead budget. The panels are walked
            // panel-major so the inner loops stay contiguous; the zero
            // padding of edge panels contributes nothing to either sum.
            let mut asum = vec![0i64; k];
            for row in aplane.chunks_exact(k) {
                for (s, &v) in asum.iter_mut().zip(row) {
                    *s += i64::from(v);
                }
            }
            let mut bsum = vec![0i64; k];
            let mut cols_ref = vec![0i128; n];
            for (pb, panel) in bpanels.chunks_exact(k * NR).enumerate() {
                let j0 = pb * NR;
                let width = NR.min(n - j0);
                for (kk, lane) in panel.chunks_exact(NR).enumerate() {
                    bsum[kk] += lane.iter().map(|&v| i64::from(v)).sum::<i64>();
                    let s = i128::from(asum[kk]);
                    for (c, &v) in lane.iter().take(width).enumerate() {
                        cols_ref[j0 + c] += s * i128::from(v);
                    }
                }
            }
            let rows_ref = aplane
                .chunks_exact(k)
                .map(|row| {
                    row.iter()
                        .zip(&bsum)
                        .map(|(&v, &s)| i128::from(v) * i128::from(s))
                        .sum()
                })
                .collect();
            AbftSums {
                rows: rows_ref,
                cols: cols_ref,
            }
        });
        let lo = base_a + base_b;
        let zero_row = vec![0i32; k];
        // MR-aligned grain so no MR×NR tile straddles a chunk boundary.
        let grain = row_grain(k, n).next_multiple_of(MR);
        // Resolved before the fan-out so a `with_tier` override on this
        // thread applies inside every pool worker.
        let tier = microkernel::selected_tier();
        owlp_par::map_chunks_weighted(m, grain, ops_per_row, |rows| {
            let mut block = vec![0.0f32; rows.len() * n];
            let mut sums = ABFT.then(|| (vec![0i128; rows.len()], vec![0i128; n]));
            // Finalizes one MR×NR lane tile: the sanctioned strike, the
            // checksum partials, and the per-element out-of-band
            // corrections.
            let mut finalize_tile = |lanes: &[[i64; NR]; MR], ib: usize, jb: usize| {
                let mr = MR.min(rows.end - ib);
                let nr = NR.min(n - jb);
                let panel = &bpanels[(jb / NR) * k * NR..(jb / NR + 1) * k * NR];
                // Tile-local checksum partials, flushed once per tile:
                // i128 addition is exact and order-free, so batching
                // the per-element read-modify-writes into registers
                // leaves the checksums bit-identical.
                let mut tile_rs = [0i128; MR];
                let mut tile_cs = [0i128; NR];
                for (r, lane_row) in lanes.iter().enumerate().take(mr) {
                    let i = ib + r;
                    let rtags = &row_tags[i];
                    let arow = &aplane[i * k..(i + 1) * k];
                    for (c, &lane) in lane_row.iter().enumerate().take(nr) {
                        let j = jb + c;
                        let mut lane = lane;
                        // Sanctioned lane upset: flip before both the
                        // output use and the checksum collection so the
                        // two corrupt consistently. Compiled out of the
                        // non-ABFT monomorphization.
                        if ABFT {
                            if let Some(s) = strike {
                                if s.i == i && s.j == j {
                                    lane ^= 1i64 << s.bit;
                                }
                            }
                            tile_rs[r] += lane as i128;
                            tile_cs[c] += lane as i128;
                        }
                        let ctags = &col_tags[j];
                        let out = &mut block[(i - rows.start) * n + j];
                        if rtags.is_empty() && ctags.is_empty() {
                            let mut win = WindowAcc::new(lo);
                            win.add_aligned(lane);
                            *out = win.round_to_f32();
                            continue;
                        }
                        // Merge-walk both tag lists in k order so a
                        // doubly-tagged position contributes its one
                        // exact product rather than two mixed terms.
                        let mut acc = KulischAcc::new();
                        acc.add_scaled(lane, lo);
                        let (mut x, mut y) = (0usize, 0usize);
                        while x < rtags.len() || y < ctags.len() {
                            let ka = rtags.get(x).map_or(u32::MAX, |t| t.0);
                            let kb = ctags.get(y).map_or(u32::MAX, |t| t.0);
                            if ka < kb {
                                let (kk, sig, f) = rtags[x];
                                x += 1;
                                let other = panel[kk as usize * NR + c] as i64;
                                acc.add_scaled(sig * other, f + base_b);
                            } else if kb < ka {
                                let (kk, sig, f) = ctags[y];
                                y += 1;
                                let other = arow[kk as usize] as i64;
                                acc.add_scaled(sig * other, base_a + f);
                            } else {
                                let (_, siga, fa) = rtags[x];
                                let (_, sigb, fb) = ctags[y];
                                x += 1;
                                y += 1;
                                acc.add_scaled(siga * sigb, fa + fb);
                            }
                        }
                        *out = acc.round_to_f32();
                    }
                }
                if ABFT {
                    if let Some((rs, cs)) = sums.as_mut() {
                        for (r, part) in tile_rs.iter().enumerate().take(mr) {
                            rs[ib + r - rows.start] += part;
                        }
                        for (c, part) in tile_cs.iter().enumerate().take(nr) {
                            cs[jb + c] += part;
                        }
                    }
                }
            };
            // Weight-stationary traversal: each NR panel sweeps this
            // chunk's rows in MR tiles over the full depth, which the band
            // budget keeps exact in the i64 lanes.
            for jb in (0..n).step_by(NR) {
                let panel = &bpanels[(jb / NR) * k * NR..(jb / NR + 1) * k * NR];
                for ib in rows.clone().step_by(MR) {
                    let mr = MR.min(rows.end - ib);
                    let a_rows: [&[i32]; MR] = std::array::from_fn(|r| {
                        if r < mr {
                            &aplane[(ib + r) * k..(ib + r + 1) * k]
                        } else {
                            zero_row.as_slice()
                        }
                    });
                    let lanes = microkernel::tile_dot_i32_with(tier, a_rows, panel);
                    finalize_tile(&lanes, ib, jb);
                }
            }
            (block, sums)
        })
    } else {
        // Proof-boundary fallback (`k` so large the lane headroom eats the
        // whole band budget — beyond any realizable tensor): full Kulisch
        // register per element via the batched product API.
        let mut bt = vec![Bf16::ZERO; k * n];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        owlp_par::map_chunks_weighted(m, row_grain(k, n), ops_per_row, |rows| {
            let mut block = Vec::with_capacity(rows.len() * n);
            for i in rows {
                let row = &a[i * k..(i + 1) * k];
                for j in 0..n {
                    let mut acc = KulischAcc::new();
                    acc.add_product_batch(row, &bt[j * k..(j + 1) * k]);
                    block.push(acc.round_to_f32());
                }
            }
            (block, None)
        })
    };
    let mut out = Vec::with_capacity(m * n);
    // Observed ABFT sums: row partials concatenate in chunk (row) order;
    // column partials merge elementwise — i128 adds, so order-free and
    // bit-identical at every thread count.
    let mut observed = (ABFT && reference.is_some()).then(|| AbftSums {
        rows: Vec::with_capacity(m),
        cols: vec![0i128; n],
    });
    for (block, chunk_sums) in row_blocks {
        out.extend(block);
        if let (Some(dst), Some((rs, cs))) = (observed.as_mut(), chunk_sums) {
            dst.rows.extend(rs);
            for (d, s) in dst.cols.iter_mut().zip(cs) {
                *d += s;
            }
        }
    }
    let check = match (observed, reference) {
        (Some(observed), Some(reference)) => Some(AbftCheck {
            observed,
            reference,
        }),
        _ => None,
    };
    (out, check)
}

/// Exact GEMM in the `f64` error yardstick (see [`exact_dot_f64`]).
pub fn exact_gemm_f64(a: &[Bf16], b: &[Bf16], m: usize, k: usize, n: usize) -> Vec<f64> {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    let mut bt = vec![Bf16::ZERO; k * n];
    for kk in 0..k {
        for j in 0..n {
            bt[j * k + kk] = b[kk * n + j];
        }
    }
    let row_blocks =
        owlp_par::map_chunks_weighted(m, row_grain(k, n), 2 * (k as u64) * (n as u64), |rows| {
            let mut block = Vec::with_capacity(rows.len() * n);
            for i in rows {
                let row = &a[i * k..(i + 1) * k];
                for j in 0..n {
                    let mut acc = KulischAcc::new();
                    acc.add_product_batch(row, &bt[j * k..(j + 1) * k]);
                    block.push(acc.to_f64_lossy());
                }
            }
            block
        });
    let mut out = Vec::with_capacity(m * n);
    for block in row_blocks {
        out.extend(block);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bf(x: f32) -> Bf16 {
        Bf16::from_f32(x)
    }

    #[test]
    fn dot_simple() {
        let a: Vec<Bf16> = [1.0f32, 2.0, 3.0].iter().map(|&x| bf(x)).collect();
        let b: Vec<Bf16> = [4.0f32, 5.0, 6.0].iter().map(|&x| bf(x)).collect();
        assert_eq!(exact_dot(&a, &b), 32.0);
    }

    #[test]
    fn dot_empty_is_positive_zero() {
        assert_eq!(exact_dot(&[], &[]).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn gemm_identity() {
        // A × I = A for a 3×3.
        let a: Vec<Bf16> = (1..=9).map(|i| bf(i as f32 * 0.5)).collect();
        let mut eye = vec![Bf16::ZERO; 9];
        for i in 0..3 {
            eye[i * 3 + i] = Bf16::ONE;
        }
        let c = exact_gemm(&a, &eye, 3, 3, 3);
        for (ci, ai) in c.iter().zip(&a) {
            assert_eq!(*ci, ai.to_f32());
        }
    }

    #[test]
    fn gemm_shapes_nonsquare() {
        // 2×3 × 3×1.
        let a: Vec<Bf16> = [1.0f32, 0.5, 2.0, -1.0, 4.0, 0.25]
            .iter()
            .map(|&x| bf(x))
            .collect();
        let b: Vec<Bf16> = [2.0f32, 4.0, 8.0].iter().map(|&x| bf(x)).collect();
        let c = exact_gemm(&a, &b, 2, 3, 1);
        assert_eq!(
            c,
            vec![1.0 * 2.0 + 0.5 * 4.0 + 2.0 * 8.0, -2.0 + 16.0 + 2.0]
        );
    }

    #[test]
    fn exactness_where_f32_sequential_fails() {
        let mut a = vec![bf(1e30), bf(-1e30)];
        let mut b = vec![Bf16::ONE, Bf16::ONE];
        // Interleave small terms that a sequential f32 accumulator loses.
        for _ in 0..10 {
            a.push(bf(0.5));
            b.push(bf(0.5));
        }
        // Exact: 10 × 0.25 = 2.5.
        assert_eq!(exact_dot(&a, &b), 2.5);
    }

    #[test]
    fn f64_yardstick_agrees_on_easy_cases() {
        let a: Vec<Bf16> = (0..32).map(|i| bf(i as f32 / 8.0)).collect();
        let b: Vec<Bf16> = (0..32).map(|i| bf(1.0 - i as f32 / 64.0)).collect();
        let v32 = exact_dot(&a, &b) as f64;
        let v64 = exact_dot_f64(&a, &b);
        assert!((v32 - v64).abs() <= v64.abs() * 1e-7);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = exact_dot(&[Bf16::ONE], &[]);
    }

    /// Per-product Kulisch GEMM — the pre-fast-path reference.
    fn oracle_gemm(a: &[Bf16], b: &[Bf16], m: usize, k: usize, n: usize) -> Vec<f32> {
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

    fn mixed_tensor(len: usize, outlier_every: usize, seed: u64) -> Vec<Bf16> {
        let mut state = seed | 1;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let base = ((state >> 33) as i32 % 999) as f32 * 3e-3 - 1.2;
                let v = match () {
                    _ if i % 11 == 3 => 0.0,
                    _ if outlier_every > 0 && i % outlier_every == 1 => base * 1e24,
                    _ => base,
                };
                bf(v)
            })
            .collect()
    }

    #[test]
    fn window_fast_path_matches_per_product_oracle() {
        // Narrow span: the window fast path fires.
        let (m, k, n) = (7, 33, 11);
        let a = mixed_tensor(m * k, 0, 7);
        let b = mixed_tensor(k * n, 0, 8);
        let fast = exact_gemm(&a, &b, m, k, n);
        let oracle = oracle_gemm(&a, &b, m, k, n);
        for (x, y) in fast.iter().zip(&oracle) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn wide_span_tagged_path_matches_per_product_oracle() {
        // Outliers stretch the product span far past any single band (and
        // past the i128 window), so the banded path must tag out-of-band
        // elements and patch each output with exact corrections. The
        // second shape is deeper than the i16 kernels' spill period.
        for (m, k, n) in [(5, 29, 9), (3, microkernel::K_SPILL + 37, 5)] {
            let a = mixed_tensor(m * k, 13, 17);
            let b = mixed_tensor(k * n, 7, 23);
            let span_a = frame_span(&a).expect("nonzero");
            let span_b = frame_span(&b).expect("nonzero");
            assert!(
                product_window(span_a, span_b, k).is_none(),
                "test tensors must be span-hostile"
            );
            let banded = exact_gemm(&a, &b, m, k, n);
            let oracle = oracle_gemm(&a, &b, m, k, n);
            for (x, y) in banded.iter().zip(&oracle) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn abft_check_is_clean_and_localizes_a_lane_strike() {
        let (m, k, n) = (7, 33, 11);
        let a = mixed_tensor(m * k, 0, 7);
        let b = mixed_tensor(k * n, 0, 8);
        let (out, check) = exact_gemm_abft(&a, &b, m, k, n, None);
        assert_eq!(out, exact_gemm(&a, &b, m, k, n), "ABFT must not perturb");
        let check = check.expect("fast path ran");
        assert_eq!(check.observed, check.reference, "clean run, exact match");
        assert_eq!(check.mismatches(), (vec![], vec![]));
        let strike = LaneStrike {
            i: 2,
            j: 5,
            bit: 33,
        };
        let (bad, struck) = exact_gemm_abft(&a, &b, m, k, n, Some(strike));
        let struck = struck.expect("fast path ran");
        assert_eq!(struck.mismatches(), (vec![2], vec![5]), "localized");
        assert_ne!(bad[2 * n + 5].to_bits(), out[2 * n + 5].to_bits());
    }

    #[test]
    fn abft_ignores_out_of_band_tag_corrections() {
        // Span-hostile tensors: outliers go down the tag-correction path,
        // which bypasses the lanes on both sides of the comparison — a
        // heavy-outlier run must still check perfectly clean.
        let (m, k, n) = (5, 29, 9);
        let a = mixed_tensor(m * k, 13, 17);
        let b = mixed_tensor(k * n, 7, 23);
        let (out, check) = exact_gemm_abft(&a, &b, m, k, n, None);
        assert_eq!(out, exact_gemm(&a, &b, m, k, n));
        let check = check.expect("banded path ran");
        assert_eq!(check.observed, check.reference);
    }

    #[test]
    fn abft_is_bit_identical_across_thread_counts() {
        let (m, k, n) = (4 * row_grain(37, 19), 37, 19);
        let a = mixed_tensor(m * k, 0, 31);
        let b = mixed_tensor(k * n, 0, 37);
        let serial = owlp_par::with_threads(1, || exact_gemm_abft(&a, &b, m, k, n, None));
        for t in [2, 4, 8] {
            let par = owlp_par::with_threads(t, || exact_gemm_abft(&a, &b, m, k, n, None));
            assert_eq!(par.1, serial.1, "{t} threads");
            for (x, y) in par.0.iter().zip(&serial.0) {
                assert_eq!(x.to_bits(), y.to_bits(), "{t} threads");
            }
        }
    }

    #[test]
    fn band_split_respects_budget_and_caps() {
        for span_a in [0, 3, 23, 40, 200] {
            for span_b in [0, 5, 23, 47, 180] {
                for budget in [0, 7, 24, 46] {
                    let (wa, wb) = split_band_widths(span_a, span_b, budget);
                    assert!(wa >= 0 && wb >= 0);
                    assert!(wa + wb <= budget, "{span_a} {span_b} {budget}");
                    assert!(wa <= MAX_BAND_WIDTH && wb <= MAX_BAND_WIDTH);
                    assert!(wa <= span_a && wb <= span_b);
                }
            }
        }
    }

    #[test]
    fn densest_band_prefers_the_crowded_frames() {
        // 30 values near 1.0 and a lone 1e30 outlier: the densest width-4
        // band must sit on the cluster, not the outlier.
        let mut t: Vec<Bf16> = (0..30).map(|i| bf(1.0 + i as f32 / 64.0)).collect();
        t.push(bf(1e30));
        let span = frame_span(&t).expect("nonzero");
        let base = densest_band(&t, span, 4);
        let cluster_frames: Vec<i32> = t[..30].iter().map(|x| x.pow2_frame()).collect();
        let lo = *cluster_frames.iter().min().unwrap();
        assert!(base <= lo && lo <= base + 4, "base {base} misses cluster");
    }

    #[test]
    fn all_zero_factor_gives_positive_zero_grid() {
        let a = vec![Bf16::ZERO; 6];
        let b = mixed_tensor(6, 0, 5);
        let c = exact_gemm(&a, &b, 2, 3, 2);
        assert!(c.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
    }

    #[test]
    fn parallel_gemm_is_bit_identical_to_serial() {
        // m is a few multiples of the row grain so the run really spans
        // several parallel chunks.
        let (m, k, n) = (4 * row_grain(37, 19), 37, 19);
        let a: Vec<Bf16> = (0..m * k)
            .map(|i| bf(((i * 37 % 101) as f32 - 50.0) * 0.03125))
            .collect();
        let b: Vec<Bf16> = (0..k * n)
            .map(|i| bf(((i * 17 % 89) as f32 - 44.0) * 0.0625))
            .collect();
        let serial = owlp_par::with_threads(1, || exact_gemm(&a, &b, m, k, n));
        for t in [2, 4, 8] {
            let par = owlp_par::with_threads(t, || exact_gemm(&a, &b, m, k, n));
            for (x, y) in par.iter().zip(&serial) {
                assert_eq!(x.to_bits(), y.to_bits(), "{t} threads");
            }
            let par64 = owlp_par::with_threads(t, || exact_gemm_f64(&a, &b, m, k, n));
            let ser64 = owlp_par::with_threads(1, || exact_gemm_f64(&a, &b, m, k, n));
            for (x, y) in par64.iter().zip(&ser64) {
                assert_eq!(x.to_bits(), y.to_bits(), "{t} threads (f64)");
            }
        }
    }
}
