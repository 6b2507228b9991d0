//! Integration: the closed-form cycle model, the outlier scheduler and the
//! event-driven simulator agree with each other across randomized shapes.

use owlp_repro::format::Bf16;
use owlp_repro::model::profiles::{profile_for, Dataset, TensorRole};
use owlp_repro::model::{ModelId, OpKind, TensorGen};
use owlp_repro::systolic::cycle_model::cycles_with_overhead;
use owlp_repro::systolic::event_sim::simulate_gemm;
use owlp_repro::systolic::ArrayConfig;
use proptest::prelude::*;

fn tensors(m: usize, k: usize, n: usize, seed: u64) -> (Vec<Bf16>, Vec<Bf16>) {
    let act = profile_for(
        ModelId::Gpt2Base,
        OpKind::QkvProj,
        TensorRole::Activation,
        Dataset::WikiText2,
    );
    let wt = profile_for(
        ModelId::Gpt2Base,
        OpKind::QkvProj,
        TensorRole::Weight,
        Dataset::WikiText2,
    );
    (
        TensorGen::new(act, m, k).values(seed),
        TensorGen::new(wt, k, n).values(seed ^ 0x5a5a),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The event simulator never violates the outlier-path budget once the
    /// scheduler has run, never mangles the numerics, and its cycle count
    /// is bounded below by Eq. (3) and tracks Eq. (4).
    #[test]
    fn simulator_and_closed_form_agree(
        m in 1usize..12,
        k in 1usize..80,
        n in 1usize..12,
        rows in 1usize..5,
        cols in 1usize..6,
        lanes_pow in 0u32..4,
        seed in 0u64..10_000,
    ) {
        let lanes = 1usize << lanes_pow;
        let cfg = ArrayConfig::small(rows, cols, lanes);
        let (a, b) = tensors(m, k, n, seed);
        let sim = simulate_gemm(&cfg, &a, &b, m, k, n).expect("simulation runs");
        prop_assert!(sim.conflict_free, "occupancy {}", sim.max_wavefront_occupancy);
        // Numerical ground truth.
        let golden = owlp_repro::arith::exact_gemm(&a, &b, m, k, n);
        for (x, y) in sim.outputs.iter().zip(&golden) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        // Eq. (3) is a lower bound (scheduling only adds cycles).
        let eq3 = cycles_with_overhead(&cfg, m, k, n, 1.0, 1.0);
        prop_assert!(sim.cycles() >= eq3.total, "sim {} < eq3 {}", sim.cycles(), eq3.total);
        // And the simulated cycles stay within 2x of the outlier-free bound
        // for these profiles (r values are small).
        prop_assert!(sim.cycles() <= 2 * eq3.total.max(1), "sim {} vs eq3 {}", sim.cycles(), eq3.total);
    }

    /// Without outliers, the event simulator reproduces Eq. (3) exactly.
    #[test]
    fn clean_tensors_hit_eq3_exactly(
        m in 1usize..10,
        k in 1usize..64,
        n in 1usize..10,
        seed in 0u64..1000,
    ) {
        let cfg = ArrayConfig::small(2, 3, 8);
        // Values confined to one exponent: no outliers at all.
        let a: Vec<Bf16> = (0..m * k)
            .map(|i| Bf16::from_f32(1.0 + ((seed + i as u64) % 128) as f32 / 128.0))
            .collect();
        let b: Vec<Bf16> = (0..k * n)
            .map(|i| Bf16::from_f32(1.0 + ((seed + 7 + i as u64) % 128) as f32 / 128.0))
            .collect();
        let sim = simulate_gemm(&cfg, &a, &b, m, k, n).expect("simulation runs");
        let eq3 = cycles_with_overhead(&cfg, m, k, n, 1.0, 1.0);
        prop_assert_eq!(sim.cycles(), eq3.total);
    }
}
