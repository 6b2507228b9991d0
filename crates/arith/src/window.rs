//! Bounded-window wide-integer accumulation — the fast path of the
//! all-normal wavefront.
//!
//! The paper's shared-exponent encoding (§IV) bounds the frame span of
//! normal×normal products *statically*: every normal operand's magnitude
//! is an integer on the grid `2^(shared − 134)` (11 magnitude bits with the
//! `{0,4,8}` pre-shift already folded in), so every normal product of one
//! GEMM call lives in the **single** frame
//! `shared_a + shared_w − 2·(127 + 7)` and spans at most ~30 bits. A
//! 768-bit Kulisch register is overkill for that window: an `i128` with a
//! fixed least-significant frame holds the entire sum with > 90 bits of
//! carry headroom.
//!
//! Because integer addition is associative and commutative, regrouping the
//! products into this window and rounding **once** at the end produces the
//! *same* correctly-rounded FP32 value as pushing every product through
//! [`KulischAcc`] — both compute the exact sum, and both round it with the
//! identical round-to-nearest-even conversion ([`int_to_f32`] /
//! [`KulischAcc::round_to_f32`]). Bit-exactness is preserved by
//! construction, not by luck; the property tests in
//! `tests/parallel_determinism.rs` pit the two against each other anyway.

use crate::int2fp::int_to_f32;
use crate::kulisch::KulischAcc;

/// Bits of an `i128` usable for magnitude before the sign bit (one spare
/// bit kept below the two's-complement sign).
const CAPACITY_BITS: i32 = 126;

/// Worst-case magnitude bits of one OwL-P PE product (normal or outlier —
/// the datapath is the same multiplier): 11-bit × 11-bit magnitudes (hidden
/// bit + 7-bit fraction + ≤3 pre-shift bits) plus the `{0,4,8}`
/// post-multiply shifter.
pub const OWLP_PRODUCT_BITS: i32 = 11 + 11 + 8;

/// A fixed-window exact accumulator: the value is `acc × 2^lo`.
///
/// Constructed for a *specific* workload whose product frames provably fit
/// the window (see [`WindowAcc::for_span`] / [`WindowAcc::for_owlp_normal`]);
/// within that contract it is exact, and [`WindowAcc::round_to_f32`] is the
/// same single RNE rounding the Kulisch path performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowAcc {
    acc: i128,
    /// Frame (power of two) of bit 0 of `acc`.
    lo: i32,
}

impl WindowAcc {
    /// An accumulator whose least-significant bit sits at `2^lo`.
    ///
    /// The caller asserts (by construction of its workload) that every
    /// added term has `frame ≥ lo` and that the running sum stays within
    /// the `i128`; use [`WindowAcc::for_span`] to have that checked.
    pub fn new(lo: i32) -> Self {
        WindowAcc { acc: 0, lo }
    }

    /// An accumulator for up to `terms` terms, each a value of magnitude
    /// `< 2^hi_bit` on the grid `2^lo` — or `None` when the worst-case sum
    /// cannot be proven to fit the 126-bit window (the caller then falls
    /// back to [`KulischAcc`]).
    pub fn for_span(lo: i32, hi_bit: i32, terms: u64) -> Option<Self> {
        let span = (hi_bit - lo).max(0);
        // Headroom: terms each < 2^span sum to < 2^(span + ceil_log2(terms)).
        let headroom = 64 - terms.leading_zeros() as i32;
        if span + headroom <= CAPACITY_BITS {
            Some(WindowAcc::new(lo))
        } else {
            None
        }
    }

    /// The window of one OwL-P GEMM's all-normal wavefronts, derived from
    /// the two tensors' shared exponents plus the PE shift range: every
    /// normal product is an integer `< 2^30` in the frame
    /// `shared_a + shared_w − 2·(127 + 7)`.
    ///
    /// Infallible for any real `k`: 30 product bits + log₂(k) headroom is
    /// nowhere near 126 bits.
    pub fn for_owlp_normal(shared_a: u8, shared_w: u8, k: usize) -> Self {
        let lo = shared_a as i32 + shared_w as i32 - 2 * (127 + 7);
        Self::for_span(lo, lo + OWLP_PRODUCT_BITS, k as u64)
            .expect("OwL-P normal window always fits i128")
    }

    /// The frame of bit 0.
    pub fn frame(&self) -> i32 {
        self.lo
    }

    /// Whether the accumulated value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.acc == 0
    }

    /// Adds `mag × 2^frame` exactly (`frame ≥ lo` per the window contract).
    #[inline]
    pub fn add(&mut self, mag: i64, frame: i32) {
        debug_assert!(
            frame >= self.lo,
            "term frame {frame} below window {}",
            self.lo
        );
        self.acc += (mag as i128) << (frame - self.lo);
    }

    /// Adds `mag` already expressed in the window's own frame — the inner
    /// loop of the all-normal GEMM path, where every product shares `lo`.
    #[inline]
    pub fn add_aligned(&mut self, mag: i64) {
        self.acc += mag as i128;
    }

    /// Adds `v × 2^frame` exactly for a full-width `i128` value
    /// (`frame ≥ lo`; the caller proves the shifted sum fits, e.g. by
    /// sizing the window with [`WindowAcc::for_span`]).
    #[inline]
    pub fn add_wide(&mut self, v: i128, frame: i32) {
        debug_assert!(
            frame >= self.lo,
            "term frame {frame} below window {}",
            self.lo
        );
        self.acc += v << (frame - self.lo);
    }

    /// The raw accumulator word (the exact value is `raw × 2^frame`) — the
    /// ABFT checksum input: integer row/column sums over these words obey
    /// the same closed arithmetic as the data itself.
    pub fn raw(&self) -> i128 {
        self.acc
    }

    /// Flips one bit of the accumulator word — the sanctioned
    /// accumulator-lane upset for fault-injection studies (an involution).
    pub fn toggle_bit(&mut self, bit: u32) {
        self.acc ^= 1i128 << bit;
    }

    /// Rounds the exact value to `f32` — the identical single RNE rounding
    /// as [`KulischAcc::round_to_f32`].
    pub fn round_to_f32(&self) -> f32 {
        int_to_f32(self.acc, self.lo, false)
    }

    /// Spills the exact value into a Kulisch register (used when a fast
    /// partial sum joins an outlier-carrying accumulation).
    pub fn merge_into(&self, acc: &mut KulischAcc) {
        acc.add_wide(self.acc, self.lo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owlp_format::Bf16;

    fn bf(x: f32) -> Bf16 {
        Bf16::from_f32(x)
    }

    /// Deterministic pseudo-random stream of (mag, frame) terms.
    fn terms(seed: u64, count: usize, lo: i32, span: i32) -> Vec<(i64, i32)> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let mag = ((state >> 16) as u32 & 0x3FFF_FFFF) as i64;
                let mag = if state & 1 == 0 { -mag } else { mag };
                let frame = lo + (state >> 48) as i32 % span.max(1);
                (mag, frame)
            })
            .collect()
    }

    #[test]
    fn matches_kulisch_on_random_windows() {
        for (seed, lo) in [(1u64, -200), (99, -37), (12345, 40)] {
            let ts = terms(seed, 5_000, lo, 20);
            let mut win =
                WindowAcc::for_span(lo, lo + 20 + 30, ts.len() as u64).expect("window fits");
            let mut acc = KulischAcc::new();
            for &(mag, frame) in &ts {
                win.add(mag, frame);
                acc.add_scaled(mag, frame);
            }
            assert_eq!(
                win.round_to_f32().to_bits(),
                acc.round_to_f32().to_bits(),
                "seed {seed} lo {lo}"
            );
            // The spill path agrees too.
            let mut spilled = KulischAcc::new();
            win.merge_into(&mut spilled);
            assert_eq!(spilled, acc, "spill seed {seed}");
        }
    }

    #[test]
    fn owlp_normal_window_matches_kulisch_products() {
        // Normal-range BF16 products against the Kulisch oracle via the
        // shared-frame (add_aligned) path, exactly as the GEMM uses it.
        // All values sit in [1, 2) so their exponent equals the shared
        // exponent and every product lands exactly on the window frame.
        let vals: Vec<Bf16> = (0..64)
            .map(|i| {
                let sign = if i % 3 == 0 { -1.0 } else { 1.0 };
                bf(sign * (1.0 + i as f32 * 0.01))
            })
            .collect();
        let shared = 127u8; // exponent of every value in [1, 2)
        let lo = shared as i32 + shared as i32 - 268;
        let mut win = WindowAcc::for_owlp_normal(shared, shared, vals.len());
        assert_eq!(win.frame(), lo);
        let mut acc = KulischAcc::new();
        for (i, &x) in vals.iter().enumerate() {
            let y = vals[(i * 7 + 3) % vals.len()];
            // Express the product on the shared normal grid by hand.
            let fx = x.pow2_frame();
            let fy = y.pow2_frame();
            let p = x.significand() as i64 * y.significand() as i64;
            let p = if x.sign() ^ y.sign() { -p } else { p };
            let sh = (fx + fy) - lo;
            assert!(sh >= 0, "test values stay in the normal window");
            win.add_aligned(p << sh);
            acc.add_product(x, y);
        }
        assert_eq!(win.round_to_f32().to_bits(), acc.round_to_f32().to_bits());
    }

    #[test]
    fn for_span_rejects_oversized_windows() {
        assert!(WindowAcc::for_span(-266, -266 + 110, 1 << 20).is_none());
        assert!(WindowAcc::for_span(-266, -266 + 63, u64::MAX).is_none());
        assert!(WindowAcc::for_span(0, 30, 1 << 20).is_some());
    }

    #[test]
    fn zero_rounds_to_positive_zero() {
        let win = WindowAcc::new(-50);
        assert!(win.is_zero());
        assert_eq!(win.round_to_f32().to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn cancellation_is_exact() {
        let mut win = WindowAcc::new(-100);
        win.add(i64::MAX / 4, -80);
        win.add(-(i64::MAX / 4), -80);
        win.add(3, -100);
        assert_eq!(win.round_to_f32(), 3.0 * (-100f32).exp2());
    }
}
