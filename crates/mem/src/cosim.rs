//! The compute/memory co-simulation engine.
//!
//! A GEMM phase is a stream of *fold groups*: every group preloads one
//! stationary weight-tile set (all arrays in parallel) and then computes
//! its folds. The engine races each group's tile fetch — timed burst by
//! burst on the per-channel HBM model — against the previous group's
//! compute, under the tile manager's prefetch depth:
//!
//! ```text
//! fetch_start(g)   = max(fetch_end(g−1), compute_end(g−depth))
//! compute_start(g) = max(compute_end(g−1), fetch_end(g))
//! compute_end(g)   = compute_start(g) + compute_cycles(g)
//! ```
//!
//! `fetch_end` comes from [`ChannelSim::request`]. With depth ≥ 2 the
//! steady state runs at `max(compute_one, fetch_one)` per group, so the
//! phase makespan is `max(compute_cycles, memory_cycles)` plus a
//! non-overlapped prologue (the head fetch when compute-bound, the tail
//! compute when bandwidth-bound) — exposed explicitly as
//! [`PhaseResult::prologue`]. Depth 1 serialises fetch and compute.
//!
//! Uniform phases (every group identical) take a steady-state fast path:
//! the recurrence is simulated exactly for a warm-up window, verified to
//! have settled into a constant per-group increment, and extrapolated —
//! bit-reproducibly, since the whole engine is serial f64 arithmetic.

use crate::offchip::{request_footprint, ChannelSim};
use crate::tiles::TilePlan;
use owlp_hw::MemorySystem;
use owlp_systolic::event_sim::EventSimResult;
use serde::{Deserialize, Serialize};

/// One uniform GEMM phase: `groups` identical fold groups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Human-readable op label (e.g. `"decode/ffn_up"`).
    pub label: String,
    /// Fold groups in the stream.
    pub groups: u64,
    /// Compute cycles of one group (all arrays run it in lockstep).
    pub compute_cycles_per_group: u64,
    /// Off-chip bytes of one group's stationary tile set (compressed).
    pub tile_bytes_per_group: u64,
    /// Outlier-exponent entries one tile set stages on chip.
    pub outliers_per_group: usize,
    /// Phase-persistent SRAM bytes (streamed activations + outputs) that
    /// shrink the tile-buffer budget.
    pub resident_bytes: u64,
    /// MAC operations the phase performs (for roofline intensity).
    pub macs: u64,
}

/// Timing outcome of one phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseResult {
    /// Label copied from the spec.
    pub label: String,
    /// Fold groups simulated.
    pub groups: u64,
    /// Pure compute time: Σ per-group compute cycles.
    pub compute_cycles: f64,
    /// Pure memory time: the phase's traffic streamed at full tilt
    /// (most-loaded channel's total busy time, no compute coupling).
    pub memory_cycles: f64,
    /// Coupled end-to-end cycles of the phase.
    pub makespan: f64,
    /// Non-overlapped cycles: `makespan − max(compute, memory)` ≥ 0.
    pub prologue: f64,
    /// Tile-buffer slots the SRAM budget allowed (1 = no overlap).
    pub effective_depth: usize,
    /// Whether one group plus the resident set fit on chip at all.
    pub fits: bool,
    /// Total off-chip payload bytes (tiles + outlier spill).
    pub fetched_bytes: u64,
    /// Portion of `fetched_bytes` from outlier-buffer overflow.
    pub overflow_bytes: u64,
    /// Payload bytes delivered by each HBM channel.
    pub channel_bytes: Vec<u64>,
    /// MAC operations (copied from the spec).
    pub macs: u64,
    /// `memory_cycles > compute_cycles`: the phase is bandwidth-bound.
    pub memory_bound: bool,
}

impl PhaseResult {
    /// Byte-conservation check: every requested byte is accounted to
    /// exactly one channel.
    pub fn conserves_bytes(&self) -> bool {
        self.channel_bytes.iter().sum::<u64>() == self.fetched_bytes
    }

    /// Overlap efficiency: `max(compute, memory) / makespan` (1.0 means
    /// the prologue vanished; lower means exposed serialisation).
    pub fn overlap_efficiency(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 1.0;
        }
        self.compute_cycles.max(self.memory_cycles) / self.makespan
    }
}

/// Groups the engine simulates exactly before extrapolating a uniform
/// stream (enough to flush the prefetch pipeline and channel skew).
const WARMUP_GROUPS: u64 = 64;

/// The deterministic compute/memory co-simulator for one memory system.
#[derive(Debug, Clone)]
pub struct CosimEngine {
    mem: MemorySystem,
    clock_hz: f64,
}

impl CosimEngine {
    /// An engine over `mem` at `clock_hz`.
    pub fn new(mem: MemorySystem, clock_hz: f64) -> Self {
        CosimEngine { mem, clock_hz }
    }

    /// The memory system being simulated.
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Accelerator clock, Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Seconds for `cycles` at the engine clock.
    pub fn seconds(&self, cycles: f64) -> f64 {
        cycles / self.clock_hz
    }

    /// Closed-form fallback: cycles to move `bytes` at perfect channel
    /// utilisation ([`MemorySystem::transfer_seconds`] in cycle units).
    pub fn transfer_cycles(&self, bytes: u64) -> f64 {
        self.mem.transfer_seconds(bytes) * self.clock_hz
    }

    /// Runs one uniform phase.
    pub fn run_phase(&self, spec: &PhaseSpec) -> PhaseResult {
        let plan = TilePlan::new(
            &self.mem,
            spec.tile_bytes_per_group,
            spec.outliers_per_group,
            spec.resident_bytes,
        );
        let g = spec.groups;
        if g == 0 || (spec.compute_cycles_per_group == 0 && plan.group_bytes == 0) {
            return self.empty_result(spec, &plan);
        }

        let warmup = g.min(WARMUP_GROUPS.max(plan.effective_depth as u64 + 8));
        let computes = vec![spec.compute_cycles_per_group; warmup as usize];
        let trace = self.simulate(&plan, &computes);

        let (makespan, channel_bytes) = if g == warmup {
            (trace.makespan, trace.channel_bytes)
        } else {
            // Steady state: the per-group increment settles to a constant
            // once the prefetch pipeline is full; extrapolate the rest.
            let ce = &trace.compute_ends;
            let w = ce.len();
            let d1 = ce[w - 1] - ce[w - 2];
            let d2 = ce[w - 2] - ce[w - 3];
            debug_assert!(
                (d1 - d2).abs() <= 1e-6 * d1.abs().max(1.0),
                "uniform stream did not reach steady state: {d1} vs {d2}"
            );
            let makespan = ce[w - 1] + (g - warmup) as f64 * d1;
            let foot = request_footprint(self.mem.channels, self.mem.burst_bytes, plan.group_bytes);
            let channel_bytes = foot.iter().map(|b| b * g).collect();
            (makespan, channel_bytes)
        };

        self.finish(
            spec,
            &plan,
            g,
            g as f64 * spec.compute_cycles_per_group as f64,
            makespan,
            channel_bytes,
        )
    }

    /// Runs a phase whose per-group compute cycles are given explicitly
    /// (no extrapolation) — e.g. the measured fold trace of an event
    /// simulation. Every group still fetches `tile_bytes_per_group`.
    pub fn run_groups(&self, spec: &PhaseSpec, compute_cycles: &[u64]) -> PhaseResult {
        let plan = TilePlan::new(
            &self.mem,
            spec.tile_bytes_per_group,
            spec.outliers_per_group,
            spec.resident_bytes,
        );
        if compute_cycles.is_empty() {
            return self.empty_result(spec, &plan);
        }
        let trace = self.simulate(&plan, compute_cycles);
        self.finish(
            spec,
            &plan,
            compute_cycles.len() as u64,
            compute_cycles.iter().map(|&c| c as f64).sum(),
            trace.makespan,
            trace.channel_bytes,
        )
    }

    /// Couples the engine to an event-simulation run: each simulated fold
    /// becomes one compute group racing its tile fetch. The spec's
    /// `groups`/`compute_cycles_per_group` are ignored in favour of the
    /// measured per-fold cycles of [`EventSimResult::folds`].
    pub fn couple_event_sim(&self, spec: &PhaseSpec, sim: &EventSimResult) -> PhaseResult {
        let fold_cycles: Vec<u64> = sim.folds.iter().map(|f| f.cycles).collect();
        self.run_groups(spec, &fold_cycles)
    }

    /// The prefetch recurrence over an explicit compute trace.
    fn simulate(&self, plan: &TilePlan, compute_cycles: &[u64]) -> StreamTrace {
        let depth = plan.effective_depth;
        let mut hbm = ChannelSim::new(&self.mem, self.clock_hz);
        let mut fetch_end = 0.0f64;
        // compute_end(g−depth) gate: ring buffer of the last `depth` ends.
        let mut ring = vec![0.0f64; depth];
        let mut compute_end = 0.0f64;
        let mut compute_ends = Vec::with_capacity(compute_cycles.len());
        for (g, &c) in compute_cycles.iter().enumerate() {
            let freed = ring[g % depth];
            let fetch_start = fetch_end.max(freed);
            fetch_end = hbm.request(fetch_start, plan.group_bytes);
            let compute_start = compute_end.max(fetch_end);
            compute_end = compute_start + c as f64;
            ring[g % depth] = compute_end;
            compute_ends.push(compute_end);
        }
        StreamTrace {
            makespan: compute_end,
            channel_bytes: hbm.channel_bytes().to_vec(),
            compute_ends,
        }
    }

    /// Pure memory time: the stream's bursts delivered back to back — the
    /// most-loaded channel (channel 0, which round-robin fills first)
    /// carries `⌈bursts/channels⌉` bursts per group.
    fn stream_memory_cycles(&self, group_bytes: u64, groups: u64) -> f64 {
        if group_bytes == 0 {
            return 0.0;
        }
        let bursts = group_bytes.div_ceil(self.mem.burst_bytes.max(1));
        let per_channel = bursts.div_ceil(self.mem.channels.max(1) as u64);
        groups as f64 * per_channel as f64 * self.mem.burst_cycles(self.clock_hz)
    }

    fn finish(
        &self,
        spec: &PhaseSpec,
        plan: &TilePlan,
        groups: u64,
        compute_cycles: f64,
        makespan: f64,
        channel_bytes: Vec<u64>,
    ) -> PhaseResult {
        let memory_cycles = self.stream_memory_cycles(plan.group_bytes, groups);
        let bound = compute_cycles.max(memory_cycles);
        PhaseResult {
            label: spec.label.clone(),
            groups,
            compute_cycles,
            memory_cycles,
            makespan,
            prologue: makespan - bound,
            effective_depth: plan.effective_depth,
            fits: plan.fits,
            fetched_bytes: groups * plan.group_bytes,
            overflow_bytes: groups * plan.overflow_bytes,
            channel_bytes,
            macs: spec.macs,
            memory_bound: memory_cycles > compute_cycles,
        }
    }

    fn empty_result(&self, spec: &PhaseSpec, plan: &TilePlan) -> PhaseResult {
        PhaseResult {
            label: spec.label.clone(),
            groups: 0,
            compute_cycles: 0.0,
            memory_cycles: 0.0,
            makespan: 0.0,
            prologue: 0.0,
            effective_depth: plan.effective_depth,
            fits: plan.fits,
            fetched_bytes: 0,
            overflow_bytes: 0,
            channel_bytes: vec![0; self.mem.channels.max(1)],
            macs: spec.macs,
            memory_bound: false,
        }
    }
}

struct StreamTrace {
    makespan: f64,
    channel_bytes: Vec<u64>,
    compute_ends: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> CosimEngine {
        CosimEngine::new(MemorySystem::paper(), 500.0e6)
    }

    fn spec(groups: u64, compute: u64, bytes: u64) -> PhaseSpec {
        PhaseSpec {
            label: "test".into(),
            groups,
            compute_cycles_per_group: compute,
            tile_bytes_per_group: bytes,
            outliers_per_group: 0,
            resident_bytes: 0,
            macs: 0,
        }
    }

    /// One group of 512 B is 1 fetch cycle at paper defaults (8 × 64 B in
    /// parallel); fetch of group i+1 hides behind compute of group i.
    #[test]
    fn compute_bound_matches_double_buffered_closed_form() {
        let e = engine();
        for groups in [1u64, 2, 5, 64, 1000, 1_000_000] {
            let r = e.run_phase(&spec(groups, 100, 512));
            // fetch_one = 1 cycle, compute_one = 100 cycles:
            // T = fetch_one + groups × compute_one.
            let expect = double_buffered(100, 1, groups);
            assert_eq!(r.makespan, expect as f64, "{groups} groups");
            assert_eq!(r.prologue, 1.0);
            assert!(!r.memory_bound);
            assert!(r.conserves_bytes());
            assert_eq!(r.fetched_bytes, groups * 512);
        }
    }

    /// Closed-form double buffering: one un-overlapped head fetch, then
    /// every group at the slower of its compute and fetch rates.
    fn double_buffered(compute_one: u64, fetch_one: u64, groups: u64) -> u64 {
        fetch_one + groups * compute_one.max(fetch_one)
    }

    #[test]
    fn bandwidth_bound_runs_at_memory_speed_plus_tail_compute() {
        let e = engine();
        // 8 KB per group = 16 cycles of fetch vs 4 cycles of compute.
        let r = e.run_phase(&spec(100, 4, 8192));
        assert!(r.memory_bound);
        assert_eq!(r.memory_cycles, 1600.0);
        // Steady state at fetch rate; the last group's compute is exposed.
        assert_eq!(r.makespan, 1600.0 + 4.0);
        assert_eq!(r.prologue, 4.0);
        assert!(r.overlap_efficiency() > 0.99);
    }

    #[test]
    fn extrapolated_and_fully_simulated_streams_agree() {
        let e = engine();
        for (c, b) in [(100u64, 512u64), (4, 8192), (37, 700), (1, 64)] {
            // 200 groups: above the warm-up window, so run_phase
            // extrapolates; run_groups simulates every group.
            let s = spec(200, c, b);
            let fast = e.run_phase(&s);
            let full = e.run_groups(&s, &vec![c; 200]);
            assert_eq!(fast.makespan, full.makespan, "c={c} b={b}");
            assert_eq!(fast.channel_bytes, full.channel_bytes);
            assert_eq!(fast.memory_cycles, full.memory_cycles);
        }
    }

    #[test]
    fn depth_one_serialises_fetch_and_compute() {
        let mut mem = MemorySystem::paper();
        mem.double_buffer = 1;
        let e = CosimEngine::new(mem, 500.0e6);
        let r = e.run_phase(&spec(10, 100, 512));
        // No overlap: every group pays fetch (1) + compute (100).
        assert_eq!(r.makespan, 10.0 * 101.0);
        assert_eq!(r.effective_depth, 1);
    }

    #[test]
    fn cosim_never_beats_the_closed_form_transfer_time() {
        let e = engine();
        for (g, c, b) in [
            (100u64, 10u64, 513u64),
            (7, 0, 64),
            (1000, 3, 100),
            (64, 1000, 8192),
        ] {
            let r = e.run_phase(&spec(g, c, b));
            let closed = e.transfer_cycles(r.fetched_bytes);
            assert!(
                r.memory_cycles >= closed - 1e-9,
                "memory {} < closed-form {closed}",
                r.memory_cycles
            );
            assert!(r.makespan >= r.memory_cycles);
            assert!(r.makespan >= r.compute_cycles);
            assert!(r.prologue >= 0.0);
        }
    }

    #[test]
    fn outlier_overflow_adds_traffic_and_can_flip_the_verdict() {
        let e = engine();
        let lean = PhaseSpec {
            outliers_per_group: 0,
            ..spec(50, 8, 2048)
        };
        let entries = e.memory().outlier_buffer.entries;
        let spilling = PhaseSpec {
            outliers_per_group: entries + 256,
            ..lean.clone()
        };
        let a = e.run_phase(&lean);
        let b = e.run_phase(&spilling);
        assert_eq!(a.overflow_bytes, 0);
        assert_eq!(b.overflow_bytes, 50 * 256 * 32);
        assert!(b.fetched_bytes > a.fetched_bytes);
        assert!(b.memory_cycles > a.memory_cycles);
        assert!(b.conserves_bytes());
        // The spill alone turns a compute-bound stream bandwidth-bound.
        assert!(!a.memory_bound);
        assert!(b.memory_bound);
    }

    #[test]
    fn empty_phase_is_zero_cost() {
        let e = engine();
        let r = e.run_phase(&spec(0, 100, 512));
        assert_eq!(r.makespan, 0.0);
        assert!(r.conserves_bytes());
        assert_eq!(r.overlap_efficiency(), 1.0);
    }

    #[test]
    fn event_sim_coupling_uses_the_measured_fold_trace() {
        use owlp_format::Bf16;
        use owlp_systolic::{event_sim::simulate_gemm, ArrayConfig};
        let cfg = ArrayConfig::small(4, 4, 2);
        let (m, k, n) = (6, 32, 12);
        let a: Vec<Bf16> = (0..m * k)
            .map(|i| Bf16::from_f32(0.5 + (i % 7) as f32 * 0.1))
            .collect();
        let b: Vec<Bf16> = (0..k * n)
            .map(|i| Bf16::from_f32(1.0 - (i % 5) as f32 * 0.05))
            .collect();
        let sim = simulate_gemm(&cfg, &a, &b, m, k, n).unwrap();
        let e = engine();
        let s = spec(0, 0, 512);
        let coupled = e.couple_event_sim(&s, &sim);
        assert_eq!(coupled.groups, sim.folds.len() as u64);
        assert_eq!(coupled.compute_cycles, sim.cycles as f64);
        // Compute-bound here, so the coupled makespan is exactly
        // max(compute, memory) + head fetch.
        assert_eq!(
            coupled.makespan,
            coupled.compute_cycles.max(coupled.memory_cycles) + coupled.prologue
        );
        assert!(coupled.conserves_bytes());
    }
}
