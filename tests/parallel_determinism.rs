//! Integration: the `owlp-par` determinism contract — every parallelised
//! hot path (format codec, OwL-P GEMM, event simulation, serving pool)
//! produces bit-identical results at every thread count.
//!
//! `owlp_par::with_threads` pins the budget thread-locally, so each case
//! replays the same workload at 1/2/4/8 threads and compares against the
//! serial run wholesale (`PartialEq` on the full outcome structs covers
//! every field, including statistics counters).

use owlp_repro::arith::gemm::{owlp_gemm_prepared_f32_with, GemmScratch, PreparedTensor};
use owlp_repro::arith::{exact_gemm, owlp_gemm, KulischAcc};
use owlp_repro::format::{encode_tensor, Bf16};
use owlp_repro::par::with_threads;
use owlp_repro::serve::{
    simulate_pool, summarize, ArrivalProcess, CostModel, FaultPlan, LengthDistribution, PoolConfig,
    SchedulerConfig, TraceSpec,
};
use owlp_repro::systolic::{event_sim, ArrayConfig};
use owlp_repro::{core::Accelerator, model::Dataset, model::ModelId};
use proptest::prelude::*;

const THREADS: [usize; 3] = [2, 4, 8];

/// A tensor with a tunable outlier ratio (permille of entries pushed far
/// outside any plausible exponent window).
fn tensor(len: usize, outlier_permille: u32, seed: u64) -> Vec<Bf16> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let base = ((state >> 40) as i32 % 500) as f32 * 4e-3;
            let v = if (state % 1000) < outlier_permille as u64 {
                base * 1e25
            } else {
                base
            };
            Bf16::from_f32(v)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Encode → decode is thread-count invariant, including the reusable
    /// [`decode_into`](owlp_repro::format::EncodedTensor::decode_into)
    /// buffer path, on tensors long enough to span many parallel chunks.
    #[test]
    fn codec_is_thread_count_invariant(
        len in 1usize..20_000,
        outlier_permille in 0u32..120,
        seed in any::<u64>(),
    ) {
        let data = tensor(len, outlier_permille, seed);
        let serial = with_threads(1, || encode_tensor(&data, None)).unwrap();
        for t in THREADS {
            let enc = with_threads(t, || encode_tensor(&data, None)).unwrap();
            prop_assert_eq!(enc.codes(), serial.codes());
            prop_assert_eq!(enc.outlier_count(), serial.outlier_count());
            let mut buf = Vec::new();
            with_threads(t, || enc.decode_into(&mut buf));
            prop_assert_eq!(&buf, &data);
        }
    }

    /// The full OwL-P GEMM (encode + decode + INT datapath) is bit-identical
    /// across thread counts — output values and wavefront statistics alike.
    #[test]
    fn owlp_gemm_is_thread_count_invariant(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..48,
        outlier_permille in 0u32..80,
        seed in any::<u64>(),
    ) {
        let a = tensor(m * k, outlier_permille, seed);
        let b = tensor(k * n, outlier_permille, seed.wrapping_add(1));
        let serial = with_threads(1, || owlp_gemm(&a, &b, m, k, n)).unwrap();
        for t in THREADS {
            let par = with_threads(t, || owlp_gemm(&a, &b, m, k, n)).unwrap();
            prop_assert_eq!(&par, &serial, "{} threads", t);
        }
    }

    /// The event-driven array simulation returns the same
    /// [`EventSimResult`](owlp_repro::systolic::event_sim::EventSimResult)
    /// — cycles, outputs, occupancy, streaming counters — at every thread
    /// count, scheduled and unscheduled.
    #[test]
    fn event_sim_is_thread_count_invariant(
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..40,
        outlier_permille in 0u32..80,
        seed in any::<u64>(),
    ) {
        let cfg = ArrayConfig::OWLP_PAPER;
        let a = tensor(m * k, outlier_permille, seed);
        let b = tensor(k * n, outlier_permille, seed.wrapping_add(1));
        let serial = with_threads(1, || event_sim::simulate_gemm(&cfg, &a, &b, m, k, n)).unwrap();
        let serial_raw =
            with_threads(1, || event_sim::simulate_gemm_unscheduled(&cfg, &a, &b, m, k, n))
                .unwrap();
        for t in THREADS {
            let par = with_threads(t, || event_sim::simulate_gemm(&cfg, &a, &b, m, k, n)).unwrap();
            prop_assert_eq!(&par, &serial, "{} threads", t);
            let raw =
                with_threads(t, || event_sim::simulate_gemm_unscheduled(&cfg, &a, &b, m, k, n))
                    .unwrap();
            prop_assert_eq!(&raw, &serial_raw, "{} threads (unscheduled)", t);
        }
    }
}

/// Per-product Kulisch super-accumulator GEMM — the slowest, most direct
/// oracle: no batching, no window fast path, no parallelism. Everything the
/// fast paths produce must match this bit-for-bit.
fn kulisch_oracle_gemm(a: &[Bf16], b: &[Bf16], m: usize, k: usize, n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = KulischAcc::new();
            for kk in 0..k {
                acc.add_product(a[i * k + kk], b[kk * n + j]);
            }
            out.push(acc.round_to_f32().to_bits());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The bounded-window fast paths (`WindowAcc` inside `exact_gemm` and
    /// the all-normal wavefronts of `owlp_gemm`) against the per-product
    /// `KulischAcc` oracle, across the outlier-density spectrum — 0‰
    /// (every wavefront takes the fast path), ~30‰ (mixed fast/fallback),
    /// and the adversarial 1000‰ all-outlier tensor (no wavefront may take
    /// it) — at 1/2/4/8 threads.
    #[test]
    fn fast_path_gemms_match_kulisch_oracle_at_all_densities(
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..24,
        density_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let permille = [0u32, 30, 1000][density_idx];
        let a = tensor(m * k, permille, seed);
        let b = tensor(k * n, permille, seed.wrapping_add(1));
        let oracle = kulisch_oracle_gemm(&a, &b, m, k, n);
        for t in [1usize, 2, 4, 8] {
            let exact = with_threads(t, || exact_gemm(&a, &b, m, k, n));
            let exact_bits: Vec<u32> = exact.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&exact_bits, &oracle, "exact_gemm, {} threads, {}permille", t, permille);
            let owlp = with_threads(t, || owlp_gemm(&a, &b, m, k, n)).unwrap();
            let owlp_bits: Vec<u32> = owlp.output.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&owlp_bits, &oracle, "owlp_gemm, {} threads, {}permille", t, permille);
        }
    }
}

/// Two client threads run decode-shaped (`m = 1`) GEMMs on one shared,
/// tagged weight at once, each fanning out onto the pool: the first calls
/// race to build the weight's band memo, and whichever caller finds the
/// pool's dispatch in flight runs serially. Every output must equal the
/// single-thread output bit for bit, at 2 and 4 threads.
#[test]
fn concurrent_decode_callers_match_the_single_thread_output() {
    const CALLS: usize = 20;
    let (k, n) = (256, 512);
    assert!(
        2 * (k * n) as u64 >= owlp_repro::par::MIN_PARALLEL_OPS,
        "each GEMM fans out"
    );
    let weight = tensor(k * n, 30, 0xDEC0DE);
    let acts: Vec<Vec<f32>> = (0..4)
        .map(|s| {
            tensor(k, 30, 0xAC7 + s)
                .iter()
                .map(|x| x.to_f32())
                .collect()
        })
        .collect();
    let oracle_w = PreparedTensor::with_shape(&weight, k, n).unwrap();
    let mut scratch = GemmScratch::default();
    let want: Vec<_> = acts
        .iter()
        .map(|a| {
            with_threads(1, || {
                owlp_gemm_prepared_f32_with(a, &oracle_w, 1, k, n, &mut scratch).unwrap()
            })
        })
        .collect();
    assert!(
        want.iter().all(|o| o.total_outlier_products > 0),
        "the weight is tagged"
    );
    for threads in [2, 4] {
        // A fresh weight per round, so its band memo is unbuilt when the
        // callers start.
        let shared = PreparedTensor::with_shape(&weight, k, n).unwrap();
        assert!(shared.panels().unwrap().memoised_bands().is_none());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for caller in 0..2 {
                let (shared, acts, want, start) = (&shared, &acts, &want, &start);
                s.spawn(move || {
                    let mut scratch = GemmScratch::default();
                    start.wait();
                    with_threads(threads, || {
                        for call in 0..CALLS {
                            let x = (call + caller) % acts.len();
                            let got = owlp_gemm_prepared_f32_with(
                                &acts[x],
                                shared,
                                1,
                                k,
                                n,
                                &mut scratch,
                            )
                            .unwrap();
                            assert_eq!(
                                got, want[x],
                                "caller {caller} call {call}, {threads} threads"
                            );
                        }
                    });
                });
            }
        });
    }
}

/// The serving pool — fault-free, and fault-injected with crash-ordered
/// orphan re-dispatch — replays bit-for-bit at every thread count, down to the
/// metrics roll-up. One deterministic heavyweight case rather than a
/// proptest: the cost model's shape tables make each run expensive.
#[test]
fn faulty_pool_is_thread_count_invariant() {
    let trace = TraceSpec {
        arrivals: ArrivalProcess::Poisson { rate_rps: 300.0 },
        prompt: LengthDistribution::Uniform { lo: 16, hi: 96 },
        gen: LengthDistribution::Uniform { lo: 4, hi: 24 },
        requests: 96,
        seed: 0x0DD5_EED5,
    }
    .generate();
    let cost = CostModel::new(Accelerator::owlp(), ModelId::Gpt2Base, Dataset::WikiText2);
    let workers = 4usize;
    let mut plan = FaultPlan::none(workers);
    // Two staggered crashes so failover and orphan re-dispatch both fire.
    plan.workers[1].crash_at_s = Some(0.05);
    plan.workers[3].crash_at_s = Some(0.11);
    let cfg = PoolConfig {
        workers,
        scheduler: SchedulerConfig {
            max_batch: 8,
            queue_capacity: 16,
        },
        plan,
        failover_delay_s: 0.02,
        ..PoolConfig::default()
    };
    let healthy = PoolConfig {
        plan: FaultPlan::default(),
        ..cfg.clone()
    };
    let plain = with_threads(1, || simulate_pool(&cost, &healthy, &trace)).unwrap();
    let serial = with_threads(1, || simulate_pool(&cost, &cfg, &trace)).unwrap();
    assert!(serial.faults.crashed_workers > 0, "fault plan must fire");
    let serial_report = summarize("owlp", 300.0, &serial);
    for t in THREADS {
        let par = with_threads(t, || simulate_pool(&cost, &healthy, &trace)).unwrap();
        assert_eq!(par, plain, "{t} threads (fault-free pool)");
        let par = with_threads(t, || simulate_pool(&cost, &cfg, &trace)).unwrap();
        assert_eq!(par, serial, "{t} threads");
        assert_eq!(
            summarize("owlp", 300.0, &par),
            serial_report,
            "{t} threads (metrics)"
        );
    }
}
