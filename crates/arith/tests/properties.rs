//! Property-based tests of the arithmetic datapath invariants.

use owlp_arith::align::{AlignUnit, Contribution};
use owlp_arith::exact::{exact_dot, exact_dot_f64, exact_gemm};
use owlp_arith::fault::FaultSite;
use owlp_arith::fpmac::{fp_mac_dot, fp_tree_dot};
use owlp_arith::gemm::owlp_gemm;
use owlp_arith::int2fp::int_to_f32;
use owlp_arith::kulisch::KulischAcc;
use owlp_format::decode::DecodedOperand;
use owlp_format::Bf16;
use proptest::prelude::*;

fn finite_bf16() -> impl Strategy<Value = Bf16> {
    (0u16..0x80, 0u16..255, any::<bool>())
        .prop_map(|(frac, exp, sign)| Bf16::from_bits(((sign as u16) << 15) | (exp << 7) | frac))
}

/// A "moderate" BF16 whose products/sums stay within exact-f64 territory:
/// exponents 122..133 give products whose bits span < 45 binary orders, so
/// any sum of a few dozen of them is exactly representable in f64.
fn moderate_bf16() -> impl Strategy<Value = Bf16> {
    (0u16..0x80, 122u16..133, any::<bool>())
        .prop_map(|(frac, exp, sign)| Bf16::from_bits(((sign as u16) << 15) | (exp << 7) | frac))
}

fn any_operand() -> impl Strategy<Value = DecodedOperand> {
    (
        0u16..(1 << DecodedOperand::MAG_BITS),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<u8>(),
    )
        .prop_map(|(mag, sh, sign, tag, exp)| DecodedOperand {
            mag,
            sh,
            sign,
            tag,
            exp,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every fault site is a pure bit/bool toggle: injecting it twice
    /// restores the operand exactly (and once always changes it) — the
    /// property that lets the integrity sweep inject and undo strikes
    /// without re-decoding tensors.
    #[test]
    fn fault_injection_is_an_involution(
        op in any_operand(),
        site in prop::sample::select(FaultSite::all()),
    ) {
        let mut struck = op;
        site.inject(&mut struck);
        prop_assert_ne!(struck, op, "{:?} must not be silent on the operand", site);
        site.inject(&mut struck);
        prop_assert_eq!(struck, op, "{:?} must be an involution", site);
    }

    /// `side_band()` partitions the site list exactly: the side-band sites
    /// are precisely {ShiftBit, OutlierTag, OutlierExp(_)} and every site
    /// appears in exactly one class (with no duplicates in `all()`).
    #[test]
    fn side_band_partitions_the_sites(_nothing in 0u8..1) {
        let all = FaultSite::all();
        for (i, s) in all.iter().enumerate() {
            prop_assert_eq!(
                s.side_band(),
                matches!(s, FaultSite::ShiftBit | FaultSite::OutlierTag | FaultSite::OutlierExp(_)),
                "{:?}", s
            );
            prop_assert!(!all[i + 1..].contains(s), "{:?} duplicated", s);
        }
        let side: usize = all.iter().filter(|s| s.side_band()).count();
        let data = all.iter().filter(|s| !s.side_band()).count();
        prop_assert_eq!(side + data, all.len());
        prop_assert_eq!(side, 2 + Bf16::EXP_BITS as usize);
        prop_assert_eq!(data, DecodedOperand::MAG_BITS as usize + 1); // + sign
    }

    /// The Kulisch accumulator agrees with f64 wherever f64 is exact.
    #[test]
    fn kulisch_matches_f64_on_moderate_inputs(
        pairs in prop::collection::vec((moderate_bf16(), moderate_bf16()), 0..24),
    ) {
        let mut acc = KulischAcc::new();
        let mut reference = 0.0f64;
        for &(a, b) in &pairs {
            acc.add_product(a, b);
            reference += a.to_f64() * b.to_f64();
        }
        // Moderate range keeps every product and the sum exactly
        // representable in f64 (53-bit significand, 24 needed per term and
        // < 6 bits of carry growth here).
        prop_assert_eq!(acc.to_f64_lossy(), reference);
    }

    /// Accumulation order is irrelevant (exactness ⇒ commutativity).
    #[test]
    fn kulisch_is_order_independent(
        pairs in prop::collection::vec((finite_bf16(), finite_bf16()), 0..24),
        seed in 0u64..1000,
    ) {
        let mut forward = KulischAcc::new();
        for &(a, b) in &pairs {
            forward.add_product(a, b);
        }
        // Deterministic shuffle.
        let mut shuffled = pairs.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        let mut backward = KulischAcc::new();
        for &(a, b) in &shuffled {
            backward.add_product(a, b);
        }
        prop_assert_eq!(forward.round_to_f32().to_bits(), backward.round_to_f32().to_bits());
    }

    /// The exact dot is the correct rounding: it differs from the f64 view
    /// by at most half an ulp of f32.
    #[test]
    fn exact_dot_is_correctly_rounded(
        pairs in prop::collection::vec((moderate_bf16(), moderate_bf16()), 1..16),
    ) {
        let (a, b): (Vec<Bf16>, Vec<Bf16>) = pairs.into_iter().unzip();
        let rounded = exact_dot(&a, &b) as f64;
        let real = exact_dot_f64(&a, &b);
        if real != 0.0 {
            let ulp = (real.abs() as f32).to_bits();
            let ulp = f64::from(f32::from_bits(ulp + 1)) - f64::from(f32::from_bits(ulp));
            prop_assert!((rounded - real).abs() <= ulp / 2.0 + f64::EPSILON * real.abs());
        }
    }

    /// OwL-P == exact on random GEMMs (the central theorem, re-proved at
    /// the crate boundary with unrestrained inputs), and exact == one
    /// Kulisch register per product over the whole finite BF16 range:
    /// subnormals, ±0, and exponents 1 and 254.
    #[test]
    fn owlp_equals_exact_gemm(
        a in prop::collection::vec(finite_bf16(), 12),
        b in prop::collection::vec(finite_bf16(), 12),
    ) {
        let (m, k, n) = (3, 4, 3);
        let r = owlp_gemm(&a, &b, m, k, n).expect("finite inputs");
        let golden = exact_gemm(&a, &b, m, k, n);
        for (x, y) in r.output.iter().zip(&golden) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for (idx, y) in golden.iter().enumerate() {
            let (i, j) = (idx / n, idx % n);
            let mut acc = KulischAcc::new();
            for kk in 0..k {
                acc.add_product(a[i * k + kk], b[kk * n + j]);
            }
            prop_assert_eq!(y.to_bits(), acc.round_to_f32().to_bits(), "C[{}][{}]", i, j);
        }
    }

    /// FP accumulation (sequential or tree) is never *more* accurate than
    /// the exact path w.r.t. the true sum.
    #[test]
    fn fp_error_is_nonnegative(
        pairs in prop::collection::vec((moderate_bf16(), moderate_bf16()), 1..20),
    ) {
        let (a, b): (Vec<Bf16>, Vec<Bf16>) = pairs.into_iter().unzip();
        let real = exact_dot_f64(&a, &b);
        let exact_err = (exact_dot(&a, &b) as f64 - real).abs();
        let seq_err = (fp_mac_dot(&a, &b) as f64 - real).abs();
        let tree_err = (fp_tree_dot(&a, &b) as f64 - real).abs();
        prop_assert!(seq_err + 1e-300 >= exact_err);
        prop_assert!(tree_err + 1e-300 >= exact_err);
    }

    /// INT2FP equals a direct f64→f32 conversion wherever the value fits in
    /// one f64 exactly.
    #[test]
    fn int2fp_matches_f64_path(mag in -(1i64 << 50)..(1i64 << 50), frame in -60i32..60) {
        let direct = int_to_f32(mag as i128, frame, false);
        let via = (mag as f64 * (frame as f64).exp2()) as f32;
        prop_assert_eq!(direct.to_bits(), via.to_bits());
    }

    /// The exact align unit is insensitive to contribution order.
    #[test]
    fn align_reduce_is_order_independent(
        contributions in prop::collection::vec((-5000i64..5000, -40i32..40), 0..16),
    ) {
        let c1: Vec<Contribution> =
            contributions.iter().map(|&(mag, frame)| Contribution { mag, frame }).collect();
        let mut c2 = c1.clone();
        c2.reverse();
        let u = AlignUnit::exact();
        prop_assert_eq!(u.reduce(&c1).to_bits(), u.reduce(&c2).to_bits());
    }

    /// Bounded align units converge to the exact result as width grows.
    #[test]
    fn bounded_align_converges(
        contributions in prop::collection::vec((-5000i64..5000, -20i32..20), 1..10),
    ) {
        let c: Vec<Contribution> =
            contributions.iter().map(|&(mag, frame)| Contribution { mag, frame }).collect();
        let exact = AlignUnit::exact().reduce(&c);
        // The span of frames here is ≤ 40 bits + 13 magnitude bits, so a
        // 64-bit unit is already exact.
        let b64 = AlignUnit::bounded(64).reduce(&c);
        prop_assert_eq!(exact.to_bits(), b64.to_bits());
    }
}
