//! Integration: the `owlp-mem` HBM/SRAM co-simulation against the rest of
//! the stack — the paper's serving-phase claims at paper defaults, the
//! makespan decomposition against the event-driven array simulator, and
//! the determinism contract across thread counts.

use owlp_repro::core::{cosim, Accelerator};
use owlp_repro::mem::{CosimEngine, PhaseSpec};
use owlp_repro::model::{workload, Dataset, ModelId, Phase};
use owlp_repro::par::with_threads;
use owlp_repro::systolic::{event_sim, ArrayConfig};

/// The paper's serving configuration: Llama2-7B, batch 32, 128-token
/// prompts, HBM2 @ 256 GB/s, 12 MB SRAM, 500 MHz.
fn paper_workload() -> owlp_repro::model::Workload {
    workload::generation_workload(ModelId::Llama2_7b, 32, 128, 64)
}

/// The headline verdict: at paper defaults the decode phase is bandwidth-
/// bound on OwL-P (the compressed stream saturates the roof) while prefill
/// stays compute-bound on both designs.
#[test]
fn decode_is_memory_bound_and_prefill_compute_bound_at_paper_defaults() {
    let wl = paper_workload();
    let owlp = cosim::cosim_workload(&Accelerator::owlp(), &wl, Dataset::WikiText2);
    let dec = owlp.class_aggregate(Phase::Decode).expect("decode ops");
    let pre = owlp.class_aggregate(Phase::Prefill).expect("prefill ops");
    assert!(dec.memory_bound, "decode must be bandwidth-bound");
    assert!(!pre.memory_bound, "prefill must be compute-bound");
    assert!(dec.achieved_gbps > 0.5 * owlp.peak_gbps);
    assert!(dec.achieved_gbps <= owlp.peak_gbps + 1e-9);
    assert!(owlp.bytes_conserved());

    let base = cosim::cosim_workload(&Accelerator::baseline(), &wl, Dataset::WikiText2);
    let bpre = base.class_aggregate(Phase::Prefill).expect("prefill ops");
    assert!(!bpre.memory_bound, "baseline prefill must be compute-bound");
    assert!(base.bytes_conserved());
}

/// The overlap rule holds against a *real* array simulation, not just the
/// closed-form fold trace: couple the per-fold cycle stream of
/// [`event_sim::simulate_gemm`] to the memory timeline and check the
/// makespan decomposes exactly as `max(compute, memory) + prologue`.
#[test]
fn coupled_event_sim_makespan_decomposes_as_max_plus_prologue() {
    let cfg = ArrayConfig::OWLP_PAPER;
    let (m, k, n) = (24, 96, 64);
    let data = |len: usize, salt: u64| -> Vec<owlp_repro::format::Bf16> {
        let mut state = 0x5EED ^ salt;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                owlp_repro::format::Bf16::from_f32(((state >> 40) as i32 % 500) as f32 * 3e-3)
            })
            .collect()
    };
    let (a, b) = (data(m * k, 1), data(k * n, 2));
    let sim = event_sim::simulate_gemm(&cfg, &a, &b, m, k, n).expect("finite inputs");
    assert!(!sim.folds.is_empty());
    assert_eq!(sim.folds.iter().map(|f| f.cycles).sum::<u64>(), sim.cycles);

    let acc = Accelerator::owlp();
    let engine = cosim::engine_for(&acc);
    let weight_bytes = (k * n * 2) as u64; // BF16 weights, uncompressed
    let spec = PhaseSpec {
        label: "event-sim gemm".into(),
        groups: sim.folds.len() as u64,
        compute_cycles_per_group: 0, // ignored: explicit trace supplied
        tile_bytes_per_group: weight_bytes.div_ceil(sim.folds.len() as u64),
        outliers_per_group: 0,
        resident_bytes: 0,
        macs: (m * k * n) as u64,
    };
    let r = engine.couple_event_sim(&spec, &sim);
    assert_eq!(r.compute_cycles, sim.cycles as f64);
    let slack = 1e-9 * r.makespan.max(1.0);
    assert!(
        (r.makespan - (r.compute_cycles.max(r.memory_cycles) + r.prologue)).abs() <= slack,
        "makespan {} != max({}, {}) + {}",
        r.makespan,
        r.compute_cycles,
        r.memory_cycles,
        r.prologue
    );
    assert!(r.prologue >= 0.0);
    assert!(r.conserves_bytes());
    // The co-sim can only match or exceed the perfect-overlap closed form.
    assert!(r.memory_cycles >= engine.transfer_cycles(r.fetched_bytes) - slack);
}

/// The co-simulation is a pure function of its inputs: the full roofline
/// report is bit-identical whether the surrounding stack runs serial or
/// fanned out (`OWLP_THREADS` 1 vs 4).
#[test]
fn cosim_is_bit_identical_across_thread_counts() {
    let wl = workload::generation_workload(ModelId::Llama2_7b, 32, 128, 8);
    let acc = Accelerator::owlp();
    let serial = with_threads(1, || cosim::cosim_workload(&acc, &wl, Dataset::WikiText2));
    let parallel = with_threads(4, || cosim::cosim_workload(&acc, &wl, Dataset::WikiText2));
    assert_eq!(serial, parallel);
}

/// Per-phase makespans respond to the knobs the paper turns: more HBM
/// channels can only help, and a single-buffered SRAM can only hurt.
#[test]
fn makespan_is_monotone_in_channels_and_buffering() {
    let mem = owlp_repro::hw::MemorySystem::paper();
    let engine = CosimEngine::new(mem, 500e6);
    let spec = PhaseSpec {
        label: "sweep".into(),
        groups: 4096,
        compute_cycles_per_group: 200,
        tile_bytes_per_group: 1 << 16,
        outliers_per_group: 0,
        resident_bytes: 0,
        macs: 1 << 30,
    };
    let base = engine.run_phase(&spec);

    let mut single = mem;
    single.double_buffer = 1;
    let serialized = CosimEngine::new(single, 500e6).run_phase(&spec);
    assert!(serialized.makespan >= base.makespan);

    let mut wide = mem;
    wide.channels = 16;
    let wider = CosimEngine::new(wide, 500e6).run_phase(&spec);
    assert!(wider.memory_cycles <= base.memory_cycles);
}
