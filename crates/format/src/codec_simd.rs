//! SIMD-vectorised codec plane transforms: the encode-side classify loop
//! of [`crate::encode::encode_tensor`] and the decode-side
//! `mag`/`meta`/`sval` plane build of
//! [`crate::packed::PackedOperands`], behind the same `OWLP_SIMD` tier
//! dispatch ([`crate::simd`]) as the GEMM microkernels.
//!
//! Both transforms are element-wise maps with one rare irregular side
//! channel — the out-of-line outlier exponent stream. The vector kernels
//! exploit exactly that shape: 8 (SSE2) or 16 (AVX2) elements classify
//! or decode per iteration through pure lane arithmetic, and a movemask
//! picks out the lanes that touch the exponent stream. A block with no
//! marked lane never leaves the vector path; a block that does carry an
//! outlier (or, on encode, a non-finite input) falls back to the scalar
//! per-element transform *for that block only*, which preserves the
//! in-order exponent-stream association and the first-error-index
//! semantics bit-for-bit.
//!
//! Every tier produces identical bytes: the lane arithmetic is the same
//! integer math as the scalar transform, just eight or sixteen at a
//! time. The forced-scalar oracle (`OWLP_SIMD=scalar`) therefore remains
//! the ground truth for the whole codec, and the equivalence tests below
//! sweep every available tier against it.
//!
//! NEON has no codec kernel yet: AArch64 builds route the `Neon` tier to
//! the scalar transform here (a documented fallback, not an error — the
//! GEMM microkernels still run their NEON paths).

use crate::bf16::Bf16;
use crate::decode::BiasDecoder;
use crate::packed::{pack_meta, sval_of};
use crate::shared_exp::ExponentWindow;
use crate::simd::{self, KernelTier};
use crate::value::{EncodedValue, OwlpCode};

/// The decode-side output planes, sliced to the element range being
/// decoded. `mag`/`meta`/`sval` are indexed by local element position;
/// tagged outliers append `(index_base + i, exp)` to the side tables.
pub(crate) struct PlaneOut<'a> {
    pub mag: &'a mut [u16],
    pub meta: &'a mut [u8],
    pub sval: &'a mut [i16],
    pub pos: &'a mut Vec<u32>,
    pub pexp: &'a mut Vec<u8>,
}

/// Classifies `data` against `window`, appending one code per element to
/// `codes` and the outlier exponents in element order to `exps` — the
/// tier-dispatched body of [`crate::encode::encode_tensor`].
///
/// # Errors
///
/// `Err(index)` of the first non-finite element, matching the scalar
/// scan (on error the appended codes are garbage; callers discard them).
pub(crate) fn classify_slice(
    tier: KernelTier,
    data: &[Bf16],
    window: ExponentWindow,
    codes: &mut Vec<OwlpCode>,
    exps: &mut Vec<u8>,
) -> Result<(), usize> {
    // The vector arms model only the canonical bias field: windows wider
    // than 7 would put in-window biases onto the outlier marker pattern,
    // a case the scalar constructors own (they panic on it).
    #[cfg(target_arch = "x86_64")]
    if window.width() <= crate::NORMAL_WINDOW_WIDTH {
        match simd::clamp(tier) {
            // SAFETY: `clamp` only reports tiers the CPU supports.
            KernelTier::Avx2 => return unsafe { x86::classify_avx2(data, window, codes, exps) },
            KernelTier::Sse2 => return unsafe { x86::classify_sse2(data, window, codes, exps) },
            _ => {}
        }
    }
    let _ = simd::clamp(tier);
    classify_scalar(data, window, codes, exps)
}

/// The scalar classify loop — the oracle every vector tier must match.
fn classify_scalar(
    data: &[Bf16],
    window: ExponentWindow,
    codes: &mut Vec<OwlpCode>,
    exps: &mut Vec<u8>,
) -> Result<(), usize> {
    codes.reserve(data.len());
    for (index, &x) in data.iter().enumerate() {
        let v = EncodedValue::classify(x, window).ok_or(index)?;
        codes.push(v.code());
        if let EncodedValue::Outlier { exp, .. } = v {
            exps.push(exp);
        }
    }
    Ok(())
}

/// Scalar classification of `data[from..]` into pre-sized code slots —
/// the tail loop shared by the vector kernels.
#[cfg(target_arch = "x86_64")]
fn classify_tail(
    data: &[Bf16],
    from: usize,
    window: ExponentWindow,
    out: &mut [u16],
    exps: &mut Vec<u8>,
) -> Result<(), usize> {
    for (index, &x) in data.iter().enumerate().skip(from) {
        let v = EncodedValue::classify(x, window).ok_or(index)?;
        out[index] = v.code().to_bits();
        if let EncodedValue::Outlier { exp, .. } = v {
            exps.push(exp);
        }
    }
    Ok(())
}

/// Decodes a run of codes into the output planes, starting `exps` reads
/// at `next_outlier`; returns the advanced cursor. The tier-dispatched
/// body of [`crate::packed::PackedOperands`]' plane build
/// (`decode_packed_into`), shared by its serial walk and each parallel
/// chunk (which passes its own `next_outlier` base and `index_base`).
pub(crate) fn decode_packed_slice(
    tier: KernelTier,
    dec: &BiasDecoder,
    codes: &[OwlpCode],
    exps: &[u8],
    next_outlier: usize,
    index_base: usize,
    out: &mut PlaneOut<'_>,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    match simd::clamp(tier) {
        // SAFETY: `clamp` only reports tiers the CPU supports.
        KernelTier::Avx2 => {
            return unsafe { x86::decode_avx2(dec, codes, exps, next_outlier, index_base, out) }
        }
        KernelTier::Sse2 => {
            return unsafe { x86::decode_sse2(dec, codes, exps, next_outlier, index_base, out) }
        }
        _ => {}
    }
    let _ = simd::clamp(tier);
    decode_scalar_range(
        dec,
        codes,
        exps,
        next_outlier,
        index_base,
        0..codes.len(),
        out,
    )
}

/// The scalar per-element decode over `range` — the oracle, the
/// outlier-block fallback, and the vector kernels' tail loop.
fn decode_scalar_range(
    dec: &BiasDecoder,
    codes: &[OwlpCode],
    exps: &[u8],
    mut next_outlier: usize,
    index_base: usize,
    range: std::ops::Range<usize>,
    out: &mut PlaneOut<'_>,
) -> usize {
    for i in range {
        let c = codes[i];
        let exp = if c.is_outlier() {
            let e = exps[next_outlier];
            next_outlier += 1;
            e
        } else {
            0
        };
        let op = dec.decode(c, exp);
        out.mag[i] = op.mag;
        out.meta[i] = pack_meta(op.sign, op.sh, op.tag, op.exp);
        out.sval[i] = sval_of(op.mag, op.sh, op.sign);
        if op.tag {
            out.pos.push((index_base + i) as u32);
            out.pexp.push(op.exp);
        }
    }
    next_outlier
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    #![allow(unsafe_code)]

    use core::arch::x86_64::*;

    use super::{classify_tail, decode_scalar_range, PlaneOut};
    use crate::bf16::Bf16;
    use crate::decode::BiasDecoder;
    use crate::packed::{META_PAR, META_SH, META_SIGN};
    use crate::shared_exp::ExponentWindow;
    use crate::value::OwlpCode;

    /// The raw BF16 bit patterns (`Bf16` is `repr(transparent)` over `u16`).
    fn bits_of(data: &[Bf16]) -> &[u16] {
        // SAFETY: `Bf16` is `repr(transparent)` over `u16`, so the slice
        // layouts are identical.
        unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u16, data.len()) }
    }

    /// The raw 11-bit code words (`OwlpCode` is `repr(transparent)`).
    fn code_bits(codes: &[OwlpCode]) -> &[u16] {
        // SAFETY: `OwlpCode` is `repr(transparent)` over `u16`.
        unsafe { std::slice::from_raw_parts(codes.as_ptr() as *const u16, codes.len()) }
    }

    /// Appends `n` zero-code slots and exposes them as raw `u16` words.
    /// Every word the kernels store is a valid 11-bit pattern by
    /// construction (sign·`0x400` | bias·`0x80` ≤ `0x380` | frac ≤ `0x7F`).
    fn code_slots(codes: &mut Vec<OwlpCode>, n: usize) -> &mut [u16] {
        let start = codes.len();
        codes.resize(start + n, OwlpCode::from_bits(0));
        // SAFETY: `OwlpCode` is `repr(transparent)` over `u16`, and the
        // 11-bit invariant is upheld by every store (see above).
        unsafe { std::slice::from_raw_parts_mut(codes.as_mut_ptr().add(start) as *mut u16, n) }
    }

    /// # Safety
    /// Requires SSE2 (baseline on x86_64; gate via [`crate::simd::clamp`]).
    #[target_feature(enable = "sse2")]
    pub unsafe fn classify_sse2(
        data: &[Bf16],
        window: ExponentWindow,
        codes: &mut Vec<OwlpCode>,
        exps: &mut Vec<u8>,
    ) -> Result<(), usize> {
        const L: usize = 8;
        let bits = bits_of(data);
        let out = code_slots(codes, bits.len());
        let base = _mm_set1_epi16(window.base() as i16);
        let below = _mm_sub_epi16(base, _mm_set1_epi16(1));
        let above = _mm_set1_epi16(window.last() as i16 + 1);
        let nonfin = _mm_set1_epi16(255);
        let expmask = _mm_set1_epi16(0xFF);
        let mut i = 0usize;
        while i + L <= bits.len() {
            let v = _mm_loadu_si128(bits.as_ptr().add(i) as *const __m128i);
            // The 8-bit exponent field; all lane values are ≤ 255 from
            // here on, so 16-bit *signed* compares are exact.
            let exp = _mm_and_si128(_mm_srli_epi16::<7>(v), expmask);
            let nf = _mm_movemask_epi8(_mm_cmpeq_epi16(exp, nonfin)) as u32;
            if nf != 0 {
                // First non-finite element in element order (two mask
                // bits per 16-bit lane). The codes written so far are
                // discarded by the caller along with the error.
                return Err(i + nf.trailing_zeros() as usize / 2);
            }
            let inwin = _mm_and_si128(_mm_cmpgt_epi16(exp, below), _mm_cmpgt_epi16(above, exp));
            // bias·2^7 for in-window lanes, the outlier marker otherwise.
            let field = _mm_or_si128(
                _mm_and_si128(inwin, _mm_slli_epi16::<7>(_mm_sub_epi16(exp, base))),
                _mm_andnot_si128(inwin, _mm_set1_epi16(0x380)),
            );
            let code = _mm_or_si128(
                _mm_or_si128(
                    _mm_and_si128(_mm_srli_epi16::<5>(v), _mm_set1_epi16(0x400)),
                    _mm_and_si128(v, _mm_set1_epi16(0x7F)),
                ),
                field,
            );
            _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, code);
            let mut marked = !_mm_movemask_epi8(inwin) as u32 & 0xFFFF;
            if marked != 0 {
                let mut ebuf = [0u16; L];
                _mm_storeu_si128(ebuf.as_mut_ptr() as *mut __m128i, exp);
                while marked != 0 {
                    let lane = marked.trailing_zeros() as usize / 2;
                    exps.push(ebuf[lane] as u8);
                    marked &= !(0b11 << (2 * lane));
                }
            }
            i += L;
        }
        classify_tail(data, i, window, out, exps)
    }

    /// # Safety
    /// Requires AVX2 (gate via [`crate::simd::clamp`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn classify_avx2(
        data: &[Bf16],
        window: ExponentWindow,
        codes: &mut Vec<OwlpCode>,
        exps: &mut Vec<u8>,
    ) -> Result<(), usize> {
        const L: usize = 16;
        let bits = bits_of(data);
        let out = code_slots(codes, bits.len());
        let base = _mm256_set1_epi16(window.base() as i16);
        let below = _mm256_sub_epi16(base, _mm256_set1_epi16(1));
        let above = _mm256_set1_epi16(window.last() as i16 + 1);
        let nonfin = _mm256_set1_epi16(255);
        let expmask = _mm256_set1_epi16(0xFF);
        let mut i = 0usize;
        while i + L <= bits.len() {
            let v = _mm256_loadu_si256(bits.as_ptr().add(i) as *const __m256i);
            let exp = _mm256_and_si256(_mm256_srli_epi16::<7>(v), expmask);
            let nf = _mm256_movemask_epi8(_mm256_cmpeq_epi16(exp, nonfin)) as u32;
            if nf != 0 {
                return Err(i + nf.trailing_zeros() as usize / 2);
            }
            let inwin = _mm256_and_si256(
                _mm256_cmpgt_epi16(exp, below),
                _mm256_cmpgt_epi16(above, exp),
            );
            let field = _mm256_or_si256(
                _mm256_and_si256(inwin, _mm256_slli_epi16::<7>(_mm256_sub_epi16(exp, base))),
                _mm256_andnot_si256(inwin, _mm256_set1_epi16(0x380)),
            );
            let code = _mm256_or_si256(
                _mm256_or_si256(
                    _mm256_and_si256(_mm256_srli_epi16::<5>(v), _mm256_set1_epi16(0x400)),
                    _mm256_and_si256(v, _mm256_set1_epi16(0x7F)),
                ),
                field,
            );
            _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, code);
            let mut marked = !(_mm256_movemask_epi8(inwin) as u32);
            if marked != 0 {
                let mut ebuf = [0u16; L];
                _mm256_storeu_si256(ebuf.as_mut_ptr() as *mut __m256i, exp);
                while marked != 0 {
                    let lane = marked.trailing_zeros() as usize / 2;
                    exps.push(ebuf[lane] as u8);
                    marked &= !(0b11 << (2 * lane));
                }
            }
            i += L;
        }
        classify_tail(data, i, window, out, exps)
    }

    /// # Safety
    /// Requires SSE2 (baseline on x86_64; gate via [`crate::simd::clamp`]).
    #[target_feature(enable = "sse2")]
    pub unsafe fn decode_sse2(
        dec: &BiasDecoder,
        codes: &[OwlpCode],
        exps: &[u8],
        mut next_outlier: usize,
        index_base: usize,
        out: &mut PlaneOut<'_>,
    ) -> usize {
        const L: usize = 8;
        let bits = code_bits(codes);
        let seven = _mm_set1_epi16(7);
        let one = _mm_set1_epi16(1);
        let mut i = 0usize;
        while i + L <= bits.len() {
            let c = _mm_loadu_si128(bits.as_ptr().add(i) as *const __m128i);
            let bias = _mm_and_si128(_mm_srli_epi16::<7>(c), seven);
            if _mm_movemask_epi8(_mm_cmpeq_epi16(bias, seven)) != 0 {
                // The block holds at least one outlier code: decode it
                // element-wise so the exponent-stream cursor advances in
                // order and the zero-significand rule applies verbatim.
                next_outlier =
                    decode_scalar_range(dec, codes, exps, next_outlier, index_base, i..i + L, out);
                i += L;
                continue;
            }
            // All-normal block: mag = (0x80|frac) << (bias&3), computed
            // as a multiply by 2^(bias&3) = (1 + (bias&1))·(1 + 3·(bias>>1&1)).
            let sig = _mm_or_si128(_mm_and_si128(c, _mm_set1_epi16(0x7F)), _mm_set1_epi16(0x80));
            let p1 = _mm_add_epi16(one, _mm_and_si128(bias, one));
            let t = _mm_and_si128(_mm_srli_epi16::<1>(bias), one);
            let p2 = _mm_add_epi16(one, _mm_add_epi16(t, _mm_add_epi16(t, t)));
            let mag = _mm_mullo_epi16(sig, _mm_mullo_epi16(p1, p2));
            // sh = bias&4; the folded sval applies a further ×16.
            let shm = _mm_cmpgt_epi16(bias, _mm_set1_epi16(3));
            let folded = _mm_or_si128(
                _mm_and_si128(shm, _mm_slli_epi16::<4>(mag)),
                _mm_andnot_si128(shm, mag),
            );
            let signm = _mm_cmpeq_epi16(
                _mm_and_si128(c, _mm_set1_epi16(0x400)),
                _mm_set1_epi16(0x400),
            );
            let sval = _mm_sub_epi16(_mm_xor_si128(folded, signm), signm);
            // Normal meta: sign, sh, no tag, parity = sh ⊕ 0 ⊕ 0 = sh.
            let meta = _mm_or_si128(
                _mm_and_si128(signm, _mm_set1_epi16(META_SIGN as i16)),
                _mm_and_si128(shm, _mm_set1_epi16((META_SH | META_PAR) as i16)),
            );
            _mm_storeu_si128(out.mag.as_mut_ptr().add(i) as *mut __m128i, mag);
            _mm_storeu_si128(out.sval.as_mut_ptr().add(i) as *mut __m128i, sval);
            _mm_storel_epi64(
                out.meta.as_mut_ptr().add(i) as *mut __m128i,
                _mm_packus_epi16(meta, meta),
            );
            i += L;
        }
        decode_scalar_range(
            dec,
            codes,
            exps,
            next_outlier,
            index_base,
            i..bits.len(),
            out,
        )
    }

    /// # Safety
    /// Requires AVX2 (gate via [`crate::simd::clamp`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_avx2(
        dec: &BiasDecoder,
        codes: &[OwlpCode],
        exps: &[u8],
        mut next_outlier: usize,
        index_base: usize,
        out: &mut PlaneOut<'_>,
    ) -> usize {
        const L: usize = 16;
        let bits = code_bits(codes);
        let seven = _mm256_set1_epi16(7);
        let one = _mm256_set1_epi16(1);
        let mut i = 0usize;
        while i + L <= bits.len() {
            let c = _mm256_loadu_si256(bits.as_ptr().add(i) as *const __m256i);
            let bias = _mm256_and_si256(_mm256_srli_epi16::<7>(c), seven);
            if _mm256_movemask_epi8(_mm256_cmpeq_epi16(bias, seven)) != 0 {
                next_outlier =
                    decode_scalar_range(dec, codes, exps, next_outlier, index_base, i..i + L, out);
                i += L;
                continue;
            }
            let sig = _mm256_or_si256(
                _mm256_and_si256(c, _mm256_set1_epi16(0x7F)),
                _mm256_set1_epi16(0x80),
            );
            let p1 = _mm256_add_epi16(one, _mm256_and_si256(bias, one));
            let t = _mm256_and_si256(_mm256_srli_epi16::<1>(bias), one);
            let p2 = _mm256_add_epi16(one, _mm256_add_epi16(t, _mm256_add_epi16(t, t)));
            let mag = _mm256_mullo_epi16(sig, _mm256_mullo_epi16(p1, p2));
            let shm = _mm256_cmpgt_epi16(bias, _mm256_set1_epi16(3));
            let folded = _mm256_or_si256(
                _mm256_and_si256(shm, _mm256_slli_epi16::<4>(mag)),
                _mm256_andnot_si256(shm, mag),
            );
            let signm = _mm256_cmpeq_epi16(
                _mm256_and_si256(c, _mm256_set1_epi16(0x400)),
                _mm256_set1_epi16(0x400),
            );
            let sval = _mm256_sub_epi16(_mm256_xor_si256(folded, signm), signm);
            let meta = _mm256_or_si256(
                _mm256_and_si256(signm, _mm256_set1_epi16(META_SIGN as i16)),
                _mm256_and_si256(shm, _mm256_set1_epi16((META_SH | META_PAR) as i16)),
            );
            _mm256_storeu_si256(out.mag.as_mut_ptr().add(i) as *mut __m256i, mag);
            _mm256_storeu_si256(out.sval.as_mut_ptr().add(i) as *mut __m256i, sval);
            // packus interleaves the 128-bit halves; permute the qwords
            // back into memory order before storing the low 16 bytes.
            let packed = _mm256_permute4x64_epi64::<0xD8>(_mm256_packus_epi16(meta, meta));
            _mm_storeu_si128(
                out.meta.as_mut_ptr().add(i) as *mut __m128i,
                _mm256_castsi256_si128(packed),
            );
            i += L;
        }
        decode_scalar_range(
            dec,
            codes,
            exps,
            next_outlier,
            index_base,
            i..bits.len(),
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_tensor, encode_tensor_into};
    use crate::select_window;
    use crate::simd::{available_tiers, with_tier};

    /// Deterministic BF16 soup: every exponent regime (zeros, subnormals,
    /// in-window normals, huge/tiny outliers), both signs, no NaN/∞.
    fn soup(len: usize, seed: u64) -> Vec<Bf16> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mut bits = (s >> 33) as u16;
                if (bits >> 7) & 0xFF == 0xFF {
                    bits &= !(1 << 7); // demote NaN/∞ to a large finite
                }
                if s.is_multiple_of(11) {
                    bits &= 0x807F; // exponent 0: zero or subnormal
                }
                Bf16::from_bits(bits)
            })
            .collect()
    }

    #[test]
    fn classify_matches_scalar_on_every_tier() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 31, 64, 1000] {
            let data = soup(len, 0x5EED + len as u64);
            let window = select_window(&data);
            let mut codes = Vec::new();
            let mut exps = Vec::new();
            classify_scalar(&data, window, &mut codes, &mut exps).unwrap();
            for &tier in available_tiers() {
                let mut tc = Vec::new();
                let mut te = Vec::new();
                classify_slice(tier, &data, window, &mut tc, &mut te).unwrap();
                assert_eq!(tc, codes, "codes diverge on {tier} (len {len})");
                assert_eq!(te, exps, "exps diverge on {tier} (len {len})");
            }
        }
    }

    #[test]
    fn classify_reports_first_nonfinite_index_on_every_tier() {
        for bad_at in [0usize, 3, 8, 17, 30] {
            let mut data = soup(33, 99);
            data[bad_at] = Bf16::NAN;
            data[32] = Bf16::INFINITY; // later non-finite must not win
            let window = ExponentWindow::owlp(120);
            for &tier in available_tiers() {
                let mut tc = Vec::new();
                let mut te = Vec::new();
                let err = classify_slice(tier, &data, window, &mut tc, &mut te);
                assert_eq!(err, Err(bad_at), "wrong error index on {tier}");
            }
        }
    }

    #[test]
    fn decode_planes_match_scalar_on_every_tier() {
        for len in [0usize, 1, 8, 13, 16, 40, 257, 1024] {
            let data = soup(len, 0xDEC0DE + len as u64);
            let enc = encode_tensor(&data, None).unwrap();
            let dec = BiasDecoder::new(enc.shared_exp());
            let fill = |tier: KernelTier| {
                let n = enc.codes().len();
                let mut mag = vec![0u16; n];
                let mut meta = vec![0u8; n];
                let mut sval = vec![0i16; n];
                let mut pos = Vec::new();
                let mut pexp = Vec::new();
                let consumed = decode_packed_slice(
                    tier,
                    &dec,
                    enc.codes(),
                    enc.outlier_exps(),
                    0,
                    0,
                    &mut PlaneOut {
                        mag: &mut mag,
                        meta: &mut meta,
                        sval: &mut sval,
                        pos: &mut pos,
                        pexp: &mut pexp,
                    },
                );
                assert_eq!(consumed, enc.outlier_exps().len());
                (mag, meta, sval, pos, pexp)
            };
            let oracle = fill(KernelTier::Scalar);
            for &tier in available_tiers() {
                assert_eq!(fill(tier), oracle, "planes diverge on {tier} (len {len})");
            }
        }
    }

    #[test]
    fn public_codec_is_tier_invariant_end_to_end() {
        let data = soup(4099, 7);
        let baseline = with_tier(KernelTier::Scalar, || {
            let enc = encode_tensor(&data, None).unwrap();
            (enc.clone(), enc.decode_packed())
        });
        // The buffer-reuse entry points, refilled from the previous tier.
        let (mut enc, mut packed) = Default::default();
        for &tier in available_tiers() {
            let got = with_tier(tier, || {
                let enc = encode_tensor(&data, None).unwrap();
                (enc.clone(), enc.decode_packed())
            });
            assert_eq!(got, baseline, "end-to-end codec diverges on {tier}");
            with_tier(tier, || {
                encode_tensor_into(&data, None, &mut enc).unwrap();
                enc.decode_packed_into(&mut packed);
            });
            assert_eq!(
                (&enc, &packed),
                (&baseline.0, &baseline.1),
                "reused codec buffers diverge on {tier}"
            );
        }
    }
}
