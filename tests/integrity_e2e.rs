//! End-to-end data-integrity acceptance: the seeded fault sweep.
//!
//! Injects ≥10k real single-bit strikes — every [`owlp_arith::fault::FaultSite`]
//! wire class on both operands plus accumulator lanes — through the fully
//! checksummed GEMM path and demands the acceptance triple: **zero
//! escapes**, **zero false positives** on fault-free probes, and every
//! corrected result **bit-identical** to the fault-free oracle. A second
//! test pins the serving-layer SDC accounting to be bit-identical across
//! `owlp-par` thread budgets (the JSON artefacts CI `cmp`s are the same
//! sweep run out-of-process).

use owlp_integrity::{fault_sweep, DetectionProfile, IntegrityConfig};

/// The acceptance volume: ten thousand strikes per sweep.
const SWEEP_FAULTS: u64 = 10_000;

#[test]
fn ten_thousand_fault_sweep_has_zero_escapes_and_zero_false_positives() {
    let r = fault_sweep(0xF00D, SWEEP_FAULTS, IntegrityConfig::full());
    assert_eq!(r.faults, SWEEP_FAULTS);
    assert_eq!(r.escaped, 0, "an SDC escaped the full integrity ladder");
    assert_eq!(r.false_positives, 0, "exact checksums must never cry wolf");
    assert!(
        r.corrected_bit_identical,
        "a correction diverged from the fault-free oracle"
    );
    assert_eq!(r.detected + r.masked + r.escaped, r.faults);
    assert_eq!(r.corrected, r.detected, "full config corrects all it sees");
    assert!(r.clean_probes >= 16);

    // Every wire class of the sensitivity analysis was exercised and none
    // leaked: significand, sign, shift bit, outlier tag, outlier exponent,
    // and the accumulator lanes.
    assert_eq!(r.classes.len(), 6);
    for class in &r.classes {
        assert!(class.injected > 0, "{} never struck", class.class);
        assert_eq!(class.escaped, 0, "{} leaked corruption", class.class);
        assert_eq!(class.corrected, class.detected, "{}", class.class);
    }
}

#[test]
fn measured_detection_profile_backs_the_serving_outcomes() {
    // The serving scheduler resolves SDC outcomes from this memoized
    // profile; the acceptance bar is that the *measured* full profile
    // detects and bit-cleanly corrects every wire class and the
    // accumulator — so serving's "corrupted_responses: 0" is grounded in
    // real injections, not an assumed coverage constant.
    let p = DetectionProfile::shared(IntegrityConfig::full());
    for site in &p.sites {
        assert!(site.detected() && site.corrected && site.bit_clean);
    }
    assert!(p.accumulator.detected() && p.accumulator.corrected && p.accumulator.bit_clean);
    assert_eq!(p.coverage_permille(), 1000);

    // The unprotected baseline detects nothing — the profile is a
    // measurement, not a constant.
    let off = DetectionProfile::shared(IntegrityConfig::off());
    assert_eq!(off.coverage_permille(), 0);
}

#[test]
fn serving_sdc_accounting_is_bit_identical_across_thread_budgets() {
    use owlp_core::Accelerator;
    use owlp_model::{Dataset, ModelId};
    use owlp_serve::{
        serve_trace, ArrivalProcess, FaultSpec, LengthDistribution, PoolConfig, SchedulerConfig,
        TraceSpec,
    };

    let trace = TraceSpec {
        arrivals: ArrivalProcess::Poisson { rate_rps: 400.0 },
        prompt: LengthDistribution::Uniform { lo: 16, hi: 96 },
        gen: LengthDistribution::Uniform { lo: 8, hi: 32 },
        requests: 96,
        seed: 0x1E57,
    }
    .generate();
    let workers = 4;
    let spec = FaultSpec {
        seed: 0x5DC,
        horizon_s: trace.last().unwrap().arrival_s,
        crash_permille: 0,
        stall_permille: 0,
        stall_len_s: 0.0,
        stall_slowdown: 1.0,
        iter_fail_permille: 0,
        sdc_permille: 60,
    };
    let cfg = PoolConfig {
        workers,
        scheduler: SchedulerConfig {
            max_batch: 16,
            queue_capacity: 32,
        },
        plan: spec.plan(workers),
        ..PoolConfig::default()
    };
    let run = || {
        serve_trace(
            Accelerator::owlp(),
            ModelId::Gpt2Base,
            Dataset::WikiText2,
            &cfg,
            &trace,
        )
        .unwrap()
    };
    let serial = owlp_par::with_threads(1, run);
    let fanned = owlp_par::with_threads(4, run);
    assert_eq!(
        serial, fanned,
        "SDC accounting drifted across thread budgets"
    );
    assert!(serial.sdc_events > 0, "the sweep must actually inject SDCs");
    assert_eq!(serial.sdc_escaped, 0, "full integrity lets nothing escape");
    assert_eq!(serial.corrupted_responses, 0);
    assert!(serial.sdc_corrected > 0);
}
