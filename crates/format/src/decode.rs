//! The bias decoding scheme (paper §III-B, Algorithm 1).
//!
//! Before data enters the INT PE array, the **bias decoder** converts each
//! OwL-P code into a pre-aligned integer operand:
//!
//! * *outliers* (`bias == 0b111`) pass their 8-bit significand through
//!   unshifted, with the outlier tag set and the out-of-line exponent
//!   attached;
//! * *normal* values have their significand shifted left by the **two LSBs**
//!   of the bias; the bias MSB becomes the *shift bit* `sh`, which the PE
//!   later turns into a `4·(sh_a + sh_w)`-bit shift after multiplication
//!   (paper §IV-B). Splitting the 3-bit shift this way replaces a variable
//!   barrel shifter per operand with a cheap 2-bit pre-shift plus a 3-way
//!   {0,4,8} post-multiply shifter per product.
//!
//! A datapath convention beyond the paper's pseudocode: an outlier whose
//! significand is zero (an exact ±0, stored with `outlier_exp == 0`) is
//! emitted with `tag = 0` and `mag = 0`. A zero contributes nothing to the
//! dot product, so routing it down the normal path keeps results bit-exact
//! while ensuring stored zeros never consume outlier-path bandwidth — the
//! same observation that lets the scheduler's *inserted* zeros (paper Fig. 6)
//! flow through normal paths.

use crate::bf16::Bf16;
use crate::shared_exp::ExponentWindow;
use crate::value::{EncodedValue, OwlpCode};
use serde::{Deserialize, Serialize};

/// One decoded operand as it enters the PE array: the output record of
/// paper Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct DecodedOperand {
    /// Pre-aligned integer significand `p`. For normals this is
    /// `significand << (bias & 0b11)` (≤ 11 bits); for outliers the raw
    /// 8-bit significand.
    pub mag: u16,
    /// Shift bit `sh` (MSB of the bias); the PE shifts the product left by
    /// 4 bits per set operand shift bit.
    pub sh: bool,
    /// Sign bit.
    pub sign: bool,
    /// Outlier tag: product results involving a tagged operand bypass the
    /// vector-sum block via the intra-PE outlier path.
    pub tag: bool,
    /// The outlier's original 8-bit BF16 exponent field (0 for normals; only
    /// meaningful when `tag` is set).
    pub exp: u8,
}

impl DecodedOperand {
    /// Largest pre-shift the decoder applies to a normal significand — the
    /// two LSBs of the 3-bit bias, so `0b11`.
    pub const MAX_PRE_SHIFT: u32 = 0b11;

    /// Width in bits of the pre-aligned significand `mag`: the hidden bit
    /// plus [`Bf16::FRAC_BITS`] fraction bits, shifted left by at most
    /// [`Self::MAX_PRE_SHIFT`].
    pub const MAG_BITS: u32 = 1 + Bf16::FRAC_BITS + Self::MAX_PRE_SHIFT;

    /// A decoded zero: the operand the outlier scheduler inserts when it
    /// splits an over-subscribed column (paper Fig. 6).
    pub const ZERO: DecodedOperand = DecodedOperand {
        mag: 0,
        sh: false,
        sign: false,
        tag: false,
        exp: 0,
    };

    /// Whether this operand contributes nothing to a dot product.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.mag == 0
    }

    /// The sign- and `sh`-folded significand `±(mag << 4·sh)` — the same
    /// value `owlp_format::packed::PackedOperands::svals` stores. `mag` is
    /// ≤ 11 bits, so the result is ≤ `32752` and always fits an `i16`; a
    /// product of two svals is exact in `i32` (the microkernel's operand
    /// form).
    #[inline]
    pub fn sval(self) -> i16 {
        let v = (self.mag as i16) << (if self.sh { 4 } else { 0 });
        if self.sign {
            -v
        } else {
            v
        }
    }

    /// The exact value this operand denotes, as `(signed_mag, pow2)` with
    /// `value = signed_mag × 2^pow2`, given the tensor's shared exponent.
    ///
    /// Normals live in the frame `2^(shared − 127 − 7)` before their decoder
    /// pre-shift and PE shift; this method folds the pre-shift already
    /// applied to `mag` and the pending `sh` shift in, so the result is the
    /// frame-independent exact value. Outliers use their own exponent with
    /// BF16 subnormal semantics (`exp == 0` ⇒ effective exponent 1, no
    /// hidden bit — already reflected in `mag`).
    pub fn exact_value(self, shared_exp: u8) -> (i64, i32) {
        let mag = (self.mag as i64) << (4 * self.sh as i64);
        let signed = if self.sign { -mag } else { mag };
        let frame = if self.tag {
            let eff = if self.exp == 0 { 1 } else { self.exp as i32 };
            eff - 127 - 7
        } else {
            shared_exp as i32 - 127 - 7
        };
        (signed, frame)
    }

    /// Reference value as `f64` (exact; for testing and diagnostics).
    pub fn to_f64(self, shared_exp: u8) -> f64 {
        let (m, p) = self.exact_value(shared_exp);
        m as f64 * (p as f64).exp2()
    }

    /// Reconstructs the original BF16 value — the exact inverse of
    /// [`BiasDecoder::decode`] under the same shared exponent, bit-for-bit
    /// (including the sign of zero). This is the decode half of the
    /// weight archive: the packed planes alone recover the source
    /// weights losslessly, so no BF16 copy needs to ride in the container.
    ///
    /// Outliers carry their exponent byte verbatim; for subnormals
    /// (`exp == 0`) the magnitude has no hidden bit, so `mag & 0x7F` is
    /// the fraction either way. A normal's pre-shift is recovered from
    /// the magnitude's top bit (the hidden bit landed at position
    /// `7 + pre-shift`), giving back the bias LSBs; the bias MSB is `sh`.
    pub fn to_bf16(self, shared_exp: u8) -> Bf16 {
        let sign = (self.sign as u16) << 15;
        if self.tag {
            return Bf16::from_bits(
                sign | u16::from(self.exp) << Bf16::FRAC_BITS | (self.mag & 0x7F),
            );
        }
        if self.mag == 0 {
            // A stored ±0 (outlier code with zero significand, emitted
            // untagged by the decoder's zero rule).
            return Bf16::from_bits(sign);
        }
        // A decoded normal keeps its hidden bit at position 7 + pre with
        // pre ≤ MAX_PRE_SHIFT, where the mask is the identity. Planes from
        // an unverified archive view can hold any magnitude; wrapping and
        // masking map those to *some* value rather than panicking.
        let pre = 15u32
            .wrapping_sub(self.mag.leading_zeros())
            .wrapping_sub(Bf16::FRAC_BITS)
            & Self::MAX_PRE_SHIFT;
        let frac = (self.mag >> pre) & 0x7F;
        let bias = pre as u16 | (self.sh as u16) << 2;
        Bf16::from_bits(sign | (u16::from(shared_exp) + bias) << Bf16::FRAC_BITS | frac)
    }
}

/// The bias decoder unit: holds the tensor's shared exponent and converts
/// codes (plus side-tabled outlier exponents) into [`DecodedOperand`]s.
///
/// ```
/// use owlp_format::{Bf16, BiasDecoder, ExponentWindow};
/// let w = ExponentWindow::owlp(125);
/// let dec = BiasDecoder::new(w.base());
/// let op = dec.decode_bf16(Bf16::from_f32(3.0), w);
/// assert!(!op.tag);
/// assert_eq!(op.to_f64(w.base()), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BiasDecoder {
    shared_exp: u8,
}

impl BiasDecoder {
    /// Creates a decoder for a tensor whose shared exponent is `shared_exp`.
    pub fn new(shared_exp: u8) -> Self {
        BiasDecoder { shared_exp }
    }

    /// The shared exponent this decoder aligns normals against.
    pub fn shared_exp(&self) -> u8 {
        self.shared_exp
    }

    /// Decodes one code. `outlier_exp` must be the value's out-of-line
    /// exponent byte when `code.is_outlier()`, and is ignored otherwise —
    /// mirroring how the hardware streams the outlier region alongside the
    /// normal region (paper Fig. 5).
    ///
    /// This is paper Algorithm 1 verbatim, plus the zero-significand rule
    /// documented at module level.
    pub fn decode(&self, code: OwlpCode, outlier_exp: u8) -> DecodedOperand {
        if code.is_outlier() {
            // Outlier: untouched significand, no pre-shift, tag set.
            let sig = if outlier_exp == 0 {
                code.frac()
            } else {
                0x80 | code.frac()
            };
            DecodedOperand {
                mag: sig as u16,
                sh: false,
                sign: code.sign(),
                // An exact zero never needs the outlier path.
                tag: sig != 0,
                exp: outlier_exp,
            }
        } else {
            let bias = code.bias();
            let sig = (0x80 | code.frac()) as u16;
            DecodedOperand {
                mag: sig << (bias & 0b11),
                sh: bias & 0b100 != 0,
                sign: code.sign(),
                tag: false,
                exp: 0,
            }
        }
    }

    /// Decodes a semantic [`EncodedValue`] (convenience for tests/models).
    pub fn decode_value(&self, v: EncodedValue) -> DecodedOperand {
        match v {
            EncodedValue::Normal { .. } => self.decode(v.code(), 0),
            EncodedValue::Outlier { exp, .. } => self.decode(v.code(), exp),
        }
    }

    /// Classifies and decodes a raw BF16 value under `window` in one step.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN/∞ (unencodable) or `window.base()` differs from
    /// this decoder's shared exponent.
    pub fn decode_bf16(&self, x: Bf16, window: ExponentWindow) -> DecodedOperand {
        assert_eq!(
            window.base(),
            self.shared_exp,
            "window/decoder shared exponent mismatch"
        );
        let ev = EncodedValue::classify(x, window).expect("non-finite value cannot be decoded");
        self.decode_value(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf16::all_finite;

    #[test]
    fn normal_decode_pre_shifts_by_two_lsbs() {
        let dec = BiasDecoder::new(120);
        for bias in 0u8..7 {
            let code = OwlpCode::normal(false, bias, 0x2A);
            let op = dec.decode(code, 0);
            assert_eq!(op.mag, (0x80u16 | 0x2A) << (bias & 0b11), "bias {bias}");
            assert_eq!(op.sh, bias >= 4, "bias {bias}");
            assert!(!op.tag);
        }
    }

    #[test]
    fn outlier_decode_passes_significand_through() {
        let dec = BiasDecoder::new(120);
        let op = dec.decode(OwlpCode::outlier(true, 0x10), 140);
        assert_eq!(op.mag, 0x90);
        assert!(!op.sh);
        assert!(op.sign);
        assert!(op.tag);
        assert_eq!(op.exp, 140);
    }

    #[test]
    fn stored_zero_is_untagged() {
        let dec = BiasDecoder::new(120);
        let op = dec.decode(OwlpCode::outlier(false, 0), 0);
        assert!(op.is_zero());
        assert!(!op.tag, "a zero must not consume the outlier path");
    }

    #[test]
    fn subnormal_outlier_has_no_hidden_bit() {
        let dec = BiasDecoder::new(120);
        let op = dec.decode(OwlpCode::outlier(false, 0x01), 0);
        assert_eq!(op.mag, 1);
        assert!(op.tag);
        // 1 × 2^(1-134) = 2^-133 = smallest subnormal.
        assert_eq!(op.to_f64(120), Bf16::MIN_POSITIVE_SUBNORMAL.to_f64());
    }

    #[test]
    fn decode_is_exact_for_every_finite_bf16_and_several_windows() {
        for base in [1u8, 100, 127, 248] {
            let w = ExponentWindow::owlp(base);
            let dec = BiasDecoder::new(base);
            for x in all_finite() {
                let op = dec.decode_bf16(x, w);
                assert_eq!(
                    op.to_f64(base),
                    x.to_f64(),
                    "mismatch for {x:?} base {base}"
                );
            }
        }
    }

    #[test]
    fn to_bf16_inverts_decode_for_every_finite_value() {
        for base in [1u8, 100, 127, 248] {
            let w = ExponentWindow::owlp(base);
            let dec = BiasDecoder::new(base);
            for x in all_finite() {
                let op = dec.decode_bf16(x, w);
                assert_eq!(
                    op.to_bf16(base).to_bits(),
                    x.to_bits(),
                    "round-trip mismatch for {x:?} base {base}"
                );
            }
        }
    }

    #[test]
    fn exact_value_folds_pending_shift() {
        let dec = BiasDecoder::new(127); // frame 2^(127-134) = 2^-7
                                         // bias 5 → pre-shift 1, sh=1 (pending ×16). Value 1.0×2^(127+5-127)=32... wait:
                                         // e = 127+5 = 132 → value = 1.frac × 2^5. With frac=0: 32.0.
        let op = dec.decode(OwlpCode::normal(false, 5, 0), 0);
        assert_eq!(op.to_f64(127), 32.0);
    }

    #[test]
    fn inserted_zero_constant() {
        let zero = DecodedOperand::ZERO;
        assert!(zero.is_zero());
        assert!(!zero.tag);
        assert_eq!(DecodedOperand::ZERO.to_f64(127), 0.0);
    }

    #[test]
    #[should_panic(expected = "shared exponent mismatch")]
    fn mismatched_window_panics() {
        let dec = BiasDecoder::new(100);
        let w = ExponentWindow::owlp(120);
        let _ = dec.decode_bf16(Bf16::ONE, w);
    }
}
