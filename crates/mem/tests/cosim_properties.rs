//! Property tests for the co-simulation invariants the rest of the
//! workspace builds on: exact byte conservation across channels, the
//! closed-form transfer time as an unbeatable lower bound, and
//! non-negative exposed prologue with `makespan == max(c, m) + prologue`.

use owlp_hw::MemorySystem;
use owlp_mem::offchip::request_footprint;
use owlp_mem::{ChannelSim, CosimEngine, PhaseSpec};
use proptest::prelude::*;

fn spec(groups: u64, compute: u64, bytes: u64, outliers: usize, resident: u64) -> PhaseSpec {
    PhaseSpec {
        label: "prop".into(),
        groups,
        compute_cycles_per_group: compute,
        tile_bytes_per_group: bytes,
        outliers_per_group: outliers,
        resident_bytes: resident,
        macs: 1,
    }
}

fn varied_memory(channels: usize, burst: u64, depth: usize) -> MemorySystem {
    let mut m = MemorySystem::paper();
    m.channels = channels;
    m.burst_bytes = burst;
    m.double_buffer = depth;
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Σ per-channel payload bytes == requested bytes, for any request
    /// size and channel geometry.
    #[test]
    fn channel_sim_conserves_bytes(
        channels in 1usize..16,
        burst in 1u64..512,
        requests in prop::collection::vec(0u64..100_000, 1..20),
    ) {
        let mem = varied_memory(channels, burst, 2);
        let mut sim = ChannelSim::new(&mem, 500.0e6);
        let mut t = 0.0;
        for &r in &requests {
            t = sim.request(t, r);
        }
        let total: u64 = requests.iter().sum();
        prop_assert_eq!(sim.total_bytes(), total);
        prop_assert_eq!(sim.channel_bytes().iter().sum::<u64>(), total);
        for &r in &requests {
            let foot = request_footprint(channels, burst, r);
            prop_assert_eq!(foot.iter().sum::<u64>(), r);
        }
    }

    /// Phase traffic: Σ per-channel bytes == groups × (tile bytes +
    /// outlier spill), including the extrapolated fast path.
    #[test]
    fn phase_traffic_conserves_bytes(
        channels in 1usize..16,
        burst in 1u64..256,
        depth in 1usize..4,
        groups in 1u64..5_000,
        compute in 0u64..2_000,
        bytes in 0u64..100_000,
        extra_outliers in 0usize..4_096,
    ) {
        let mem = varied_memory(channels, burst, depth);
        let outliers = mem.outlier_buffer.entries + extra_outliers;
        let e = CosimEngine::new(mem, 500.0e6);
        let r = e.run_phase(&spec(groups, compute, bytes, outliers, 0));
        let spill = extra_outliers as u64 * mem.outlier_buffer.burst_bytes;
        prop_assert!(r.conserves_bytes());
        prop_assert_eq!(r.fetched_bytes, groups * (bytes + spill));
        prop_assert_eq!(r.overflow_bytes, groups * spill);
    }

    /// The event-driven model never beats the closed-form
    /// `transfer_seconds` bound, and the makespan decomposes exactly into
    /// `max(compute, memory) + prologue` with `prologue ≥ 0`.
    #[test]
    fn cosim_never_beats_closed_form_and_prologue_is_nonnegative(
        channels in 1usize..16,
        burst in 1u64..256,
        depth in 1usize..4,
        groups in 1u64..5_000,
        compute in 0u64..2_000,
        bytes in 1u64..100_000,
        resident in 0u64..(16 * 1024 * 1024),
    ) {
        let mem = varied_memory(channels, burst, depth);
        let e = CosimEngine::new(mem, 500.0e6);
        let r = e.run_phase(&spec(groups, compute, bytes, 0, resident));
        let closed = e.transfer_cycles(r.fetched_bytes);
        prop_assert!(r.memory_cycles >= closed - 1e-6 * closed.max(1.0),
            "memory {} vs closed {}", r.memory_cycles, closed);
        prop_assert!(r.prologue >= 0.0);
        let recomposed = r.compute_cycles.max(r.memory_cycles) + r.prologue;
        prop_assert!((r.makespan - recomposed).abs() <= 1e-9 * r.makespan.max(1.0));
        prop_assert!(r.makespan >= r.compute_cycles);
        prop_assert!(r.makespan >= r.memory_cycles - 1e-9 * r.memory_cycles);
    }

    /// Extrapolated uniform phases agree exactly with the fully
    /// simulated recurrence.
    #[test]
    fn extrapolation_is_exact(
        channels in 1usize..16,
        burst in 1u64..256,
        depth in 1usize..4,
        groups in 65u64..400,
        compute in 0u64..2_000,
        bytes in 0u64..50_000,
    ) {
        let mem = varied_memory(channels, burst, depth);
        let e = CosimEngine::new(mem, 500.0e6);
        let s = spec(groups, compute, bytes, 0, 0);
        let fast = e.run_phase(&s);
        let full = e.run_groups(&s, &vec![compute; groups as usize]);
        prop_assert!((fast.makespan - full.makespan).abs()
            <= 1e-9 * full.makespan.max(1.0),
            "fast {} vs full {}", fast.makespan, full.makespan);
        prop_assert_eq!(fast.channel_bytes, full.channel_bytes);
        prop_assert_eq!(fast.memory_cycles, full.memory_cycles);
    }
}
