//! Correctly-rounded reference dot products and GEMM.
//!
//! These are the golden functions of the whole reproduction: the
//! mathematically exact sum of BF16 products, rounded **once** to FP32.
//! [`crate::gemm::owlp_gemm`] must match them bit-for-bit; the sequential
//! FP32 baseline of [`crate::fpmac`] generally does not (it rounds at every
//! accumulation step).

use crate::kulisch::KulischAcc;
use crate::window::WindowAcc;
use owlp_format::Bf16;

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

/// The window template covering every product of `a`'s and `b`'s frame
/// spans in a sum of `terms` products — taken once per call, for all of
/// its dot products. `None` when the spans are too wide for the 126-bit
/// window, and each sum takes a Kulisch register instead. When one side
/// is all zeros every product is zero, and any window holds their sum.
fn call_window(a: &[Bf16], b: &[Bf16], terms: usize) -> Option<WindowAcc> {
    match (frame_span(a), frame_span(b)) {
        (Some(sa), Some(sb)) => {
            WindowAcc::for_span(sa.0 + sb.0, sa.1 + sb.1 + PRODUCT_BITS, terms as u64)
        }
        _ => Some(WindowAcc::new(0)),
    }
}

/// The exact sum of one dot product, before its single rounding.
enum ExactSum {
    Window(WindowAcc),
    Kulisch(KulischAcc),
}

impl ExactSum {
    /// Rounds once to `f32` (round-to-nearest-even; exact zero is `+0.0`).
    fn round_to_f32(&self) -> f32 {
        match self {
            ExactSum::Window(win) => win.round_to_f32(),
            ExactSum::Kulisch(acc) => acc.round_to_f32(),
        }
    }

    /// The `f64` view of [`KulischAcc::to_f64_lossy`].
    fn to_f64_lossy(&self) -> f64 {
        match self {
            ExactSum::Window(win) => {
                let mut acc = KulischAcc::new();
                win.merge_into(&mut acc);
                acc.to_f64_lossy()
            }
            ExactSum::Kulisch(acc) => acc.to_f64_lossy(),
        }
    }
}

/// The per-element body of every function here: the exact sum of
/// `Σ a[i]·b[i]`, taken in a copy of `window` (the call's
/// [`call_window`]) or, without one, in a Kulisch register.
fn exact_sum(window: Option<WindowAcc>, a: &[Bf16], b: &[Bf16]) -> ExactSum {
    let Some(mut win) = window else {
        let mut acc = KulischAcc::new();
        acc.add_product_batch(a, b);
        return ExactSum::Kulisch(acc);
    };
    for (&x, &y) in a.iter().zip(b) {
        let p = x.significand() as i64 * y.significand() as i64;
        if p == 0 {
            continue;
        }
        let p = if x.sign() ^ y.sign() { -p } else { p };
        win.add(p, x.pow2_frame() + y.pow2_frame());
    }
    ExactSum::Window(win)
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
    exact_sum(call_window(a, b, a.len()), a, b).round_to_f32()
}

/// The exact dot product evaluated in extended precision `f64` view — used
/// as the error yardstick for the approximate quantization schemes of
/// paper Table I (where f32's own grid would mask their error).
///
/// # Panics
///
/// As [`exact_dot`].
pub fn exact_dot_f64(a: &[Bf16], b: &[Bf16]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    exact_sum(call_window(a, b, a.len()), a, b).to_f64_lossy()
}

/// Rows per parallel chunk: aim for roughly this many scalar products per
/// chunk so thread fan-out only engages on GEMMs that can pay for it.
const GEMM_GRAIN_OPS: usize = 1 << 14;

/// Rows of output per parallel chunk for an `m×k · k×n` GEMM.
pub(crate) fn row_grain(k: usize, n: usize) -> usize {
    (GEMM_GRAIN_OPS / (k.saturating_mul(n)).max(1)).max(1)
}

/// Every element of `a` (`m×k`) · `b` (`k×n`) through [`exact_sum`], with
/// one window for the whole call, `B` transposed once, and rows on the
/// [`owlp_par`] grid, each element finished by `finish`.
fn exact_gemm_by<T: Send>(
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
    finish: impl Fn(&ExactSum) -> T + Sync,
) -> Vec<T> {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    let window = call_window(a, b, k);
    let mut bt = vec![Bf16::ZERO; k * n];
    for kk in 0..k {
        for j in 0..n {
            bt[j * k + kk] = b[kk * n + j];
        }
    }
    let ops_per_row = 2 * (k as u64) * (n as u64);
    owlp_par::map_chunks_weighted(m, row_grain(k, n), ops_per_row, |rows| {
        let mut block = Vec::with_capacity(rows.len() * n);
        for i in rows {
            let row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                block.push(finish(&exact_sum(window, row, &bt[j * k..(j + 1) * k])));
            }
        }
        block
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Exact GEMM: `C[m][n] = round_once(Σ_k A[m][k]·B[k][n])`.
///
/// `a` is `m×k` row-major, `b` is `k×n` row-major; the result is `m×n`
/// row-major. Each element is one [`exact_dot`]-style sum: in one
/// [`WindowAcc`] when every product of the two tensors fits it, otherwise
/// in a Kulisch register. Output rows are computed on the [`owlp_par`]
/// grid and assembled in row order; every output element is an
/// independent single-rounded exact sum, so the result is bit-identical
/// at every thread count.
///
/// # Panics
///
/// Panics on shape mismatch or non-finite inputs.
pub fn exact_gemm(a: &[Bf16], b: &[Bf16], m: usize, k: usize, n: usize) -> Vec<f32> {
    exact_gemm_by(a, b, m, k, n, ExactSum::round_to_f32)
}

/// Exact GEMM in the `f64` error yardstick (see [`exact_dot_f64`]).
///
/// # Panics
///
/// As [`exact_gemm`].
pub fn exact_gemm_f64(a: &[Bf16], b: &[Bf16], m: usize, k: usize, n: usize) -> Vec<f64> {
    exact_gemm_by(a, b, m, k, n, ExactSum::to_f64_lossy)
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

    /// Rewrites row `i` of `a` (`m×k`) as pairs `(x, −x)` and makes each
    /// pair of rows `(2t, 2t + 1)` of `b` (`k×n`) equal, so every product
    /// of row `i` meets its exact negation: that row of `a·b` is exactly
    /// zero, while the other rows keep their own mix.
    fn cancel_row(a: &mut [Bf16], b: &mut [Bf16], i: usize, k: usize, n: usize) {
        for kk in (0..k).step_by(2) {
            let x = a[i * k + kk];
            if kk + 1 < k {
                a[i * k + kk + 1] = x.neg();
                b.copy_within(kk * n..(kk + 1) * n, (kk + 1) * n);
            } else {
                a[i * k + kk] = Bf16::ZERO;
            }
        }
    }

    /// Asserts `got` equals the per-product oracle bit for bit, and that
    /// the rows in `zero_rows` are `+0.0`.
    fn assert_oracle(got: &[f32], oracle: &[f32], n: usize, zero_rows: &[usize], what: &str) {
        for (x, y) in got.iter().zip(oracle) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
        }
        for &i in zero_rows {
            for x in &got[i * n..(i + 1) * n] {
                assert_eq!(x.to_bits(), 0.0f32.to_bits(), "{what} row {i}");
            }
        }
    }

    #[test]
    fn window_fast_path_matches_per_product_oracle() {
        // Narrow span: the window fast path fires. Row 2 cancels to an
        // exact zero.
        let (m, k, n) = (7, 33, 11);
        let mut a = mixed_tensor(m * k, 0, 7);
        let mut b = mixed_tensor(k * n, 0, 8);
        cancel_row(&mut a, &mut b, 2, k, n);
        assert!(
            call_window(&a, &b, k).is_some(),
            "test tensors must fit the window"
        );
        let fast = exact_gemm(&a, &b, m, k, n);
        assert_oracle(&fast, &oracle_gemm(&a, &b, m, k, n), n, &[2], "window");
    }

    #[test]
    fn wide_span_tagged_path_matches_per_product_oracle() {
        // Outliers stretch the product span past the i128 window, so every
        // element takes the Kulisch register. The second shape is deep
        // (past 2^14 terms). Row 1 cancels to an exact zero.
        for (m, k, n) in [(5, 29, 9), (3, (1 << 14) + 37, 5)] {
            let mut a = mixed_tensor(m * k, 13, 17);
            let mut b = mixed_tensor(k * n, 7, 23);
            cancel_row(&mut a, &mut b, 1, k, n);
            assert!(
                call_window(&a, &b, k).is_none(),
                "test tensors must be span-hostile"
            );
            let wide = exact_gemm(&a, &b, m, k, n);
            let what = format!("{m}x{k}x{n}");
            assert_oracle(&wide, &oracle_gemm(&a, &b, m, k, n), n, &[1], &what);
        }
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
