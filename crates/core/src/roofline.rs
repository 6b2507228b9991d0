//! Roofline analysis of the two design points.
//!
//! The paper's performance story is a roofline story: the baseline's decode
//! GEMMs sit left of the ridge (bandwidth-bound), OwL-P raises the
//! bandwidth roof by compressing traffic (×~1.4) and the compute roof by
//! tripling MACs. This module holds both views of that claim:
//!
//! * [`analyze`] places every GEMM op on a design's roofline in closed
//!   form — arithmetic intensity and attainable throughput per op;
//! * [`RooflineReport`] aggregates the event-driven `owlp-mem`
//!   co-simulation (built by [`crate::cosim::cosim_workload`]) per serving
//!   phase, with the achieved bandwidth and an explicit
//!   memory-bound/compute-bound verdict: decode touches every weight byte
//!   once per token and lives on the bandwidth roof, while prefill
//!   amortises the same bytes over the whole prompt.

use crate::accel::Accelerator;
use owlp_hw::MemorySystem;
use owlp_mem::PhaseResult;
use owlp_model::profiles::Dataset;
use owlp_model::{GemmOp, Phase, Workload};
use serde::{Deserialize, Serialize};

/// Roofline placement of one op on one design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Op kind string (for reporting).
    pub op: String,
    /// Arithmetic intensity: MACs per off-chip byte.
    pub intensity: f64,
    /// The ridge point of the design (MACs/byte where compute = bandwidth).
    pub ridge: f64,
    /// Attainable MAC throughput (MACs/cycle, capped by both roofs).
    pub attainable: f64,
    /// Whether the op is bandwidth-bound on this design.
    pub memory_bound: bool,
}

/// Computes the ridge point of a design: peak MACs/cycle divided by
/// off-chip bytes/cycle.
pub fn ridge_point(acc: &Accelerator) -> f64 {
    let macs_per_cycle = acc.array().total_macs() as f64;
    let bytes_per_cycle = acc.design().memory.offchip_bytes_per_s / (acc.array().clock_mhz * 1e6);
    macs_per_cycle / bytes_per_cycle
}

/// Places every op of a workload on the design's roofline.
pub fn analyze(acc: &Accelerator, workload: &Workload, dataset: Dataset) -> Vec<RooflinePoint> {
    let ridge = ridge_point(acc);
    let macs_per_cycle = acc.array().total_macs() as f64;
    let bytes_per_cycle = acc.design().memory.offchip_bytes_per_s / (acc.array().clock_mhz * 1e6);
    workload
        .ops
        .iter()
        .map(|op| {
            // Off-chip bytes of one repetition (compressed for OwL-P, raw
            // BF16 for the baseline): the simulator's own per-op traffic.
            let one = GemmOp { count: 1, ..*op };
            let bytes = acc.op_report(workload, &one, dataset).dram_bytes as f64;
            let intensity = if bytes == 0.0 {
                f64::INFINITY
            } else {
                (op.macs() / op.count.max(1)) as f64 / bytes
            };
            let attainable = macs_per_cycle.min(intensity * bytes_per_cycle);
            RooflinePoint {
                op: format!("{} {}x{}x{}", op.kind, op.m, op.k, op.n),
                intensity,
                ridge,
                attainable,
                memory_bound: intensity < ridge,
            }
        })
        .collect()
}

/// Co-simulated totals and roofline verdict of one serving phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseAggregate {
    /// The phase being aggregated.
    pub class: Phase,
    /// Σ compute cycles across the phase's ops.
    pub compute_cycles: f64,
    /// Σ pure-memory cycles.
    pub memory_cycles: f64,
    /// Σ makespans (ops execute back to back within a phase).
    pub makespan: f64,
    /// Σ off-chip payload bytes.
    pub fetched_bytes: u64,
    /// Σ outlier-spill bytes.
    pub overflow_bytes: u64,
    /// Σ MACs.
    pub macs: u64,
    /// Phase-level arithmetic intensity, MACs per byte.
    pub intensity_macs_per_byte: f64,
    /// Achieved bandwidth over the phase makespan, GB/s.
    pub achieved_gbps: f64,
    /// Fraction of the phase makespan covered by `max(compute, memory)`.
    pub overlap_efficiency: f64,
    /// The roofline verdict: `Σ memory > Σ compute`.
    pub memory_bound: bool,
    /// Whether every op in the phase conserved bytes across channels.
    pub bytes_conserved: bool,
}

/// The co-simulated roofline of a workload: per-phase aggregates and the
/// machine limits they are judged against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RooflineReport {
    /// Accelerator clock, Hz.
    pub clock_hz: f64,
    /// Peak off-chip bandwidth, GB/s.
    pub peak_gbps: f64,
    /// One aggregate per phase present, in [`Phase`] declaration order
    /// (Single, Prefill, Decode).
    pub aggregates: Vec<PhaseAggregate>,
}

impl RooflineReport {
    /// Builds the report from co-sim results, each tagged with the phase
    /// of the op it simulated.
    pub fn new(mem: &MemorySystem, clock_hz: f64, results: &[(Phase, PhaseResult)]) -> Self {
        let aggregates = [Phase::Single, Phase::Prefill, Phase::Decode]
            .into_iter()
            .filter_map(|class| aggregate(results, class, clock_hz))
            .collect();
        RooflineReport {
            clock_hz,
            peak_gbps: mem.offchip_bytes_per_s / 1e9,
            aggregates,
        }
    }

    /// The aggregate for `class`, if any op of that phase was simulated.
    pub fn class_aggregate(&self, class: Phase) -> Option<&PhaseAggregate> {
        self.aggregates.iter().find(|a| a.class == class)
    }

    /// Whether every simulated op conserved bytes.
    pub fn bytes_conserved(&self) -> bool {
        self.aggregates.iter().all(|a| a.bytes_conserved)
    }
}

fn aggregate(
    results: &[(Phase, PhaseResult)],
    class: Phase,
    clock_hz: f64,
) -> Option<PhaseAggregate> {
    let of_class: Vec<&PhaseResult> = results
        .iter()
        .filter(|(phase, _)| *phase == class)
        .map(|(_, r)| r)
        .collect();
    if of_class.is_empty() {
        return None;
    }
    let compute_cycles: f64 = of_class.iter().map(|r| r.compute_cycles).sum();
    let memory_cycles: f64 = of_class.iter().map(|r| r.memory_cycles).sum();
    let makespan: f64 = of_class.iter().map(|r| r.makespan).sum();
    let fetched_bytes: u64 = of_class.iter().map(|r| r.fetched_bytes).sum();
    let overflow_bytes: u64 = of_class.iter().map(|r| r.overflow_bytes).sum();
    let macs: u64 = of_class.iter().map(|r| r.macs).sum();
    let seconds = makespan / clock_hz;
    Some(PhaseAggregate {
        class,
        compute_cycles,
        memory_cycles,
        makespan,
        fetched_bytes,
        overflow_bytes,
        macs,
        intensity_macs_per_byte: if fetched_bytes > 0 {
            macs as f64 / fetched_bytes as f64
        } else {
            f64::INFINITY
        },
        achieved_gbps: if seconds > 0.0 {
            fetched_bytes as f64 / seconds / 1e9
        } else {
            0.0
        },
        overlap_efficiency: if makespan > 0.0 {
            compute_cycles.max(memory_cycles) / makespan
        } else {
            1.0
        },
        memory_bound: memory_cycles > compute_cycles,
        bytes_conserved: of_class.iter().all(|r| r.conserves_bytes()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use owlp_mem::{CosimEngine, PhaseSpec};
    use owlp_model::{workload, ModelId};

    fn result(compute: u64, bytes: u64) -> PhaseResult {
        let e = CosimEngine::new(MemorySystem::paper(), 500.0e6);
        e.run_phase(&PhaseSpec {
            label: "test".into(),
            groups: 100,
            compute_cycles_per_group: compute,
            tile_bytes_per_group: bytes,
            outliers_per_group: 0,
            resident_bytes: 0,
            macs: 1_000_000,
        })
    }

    #[test]
    fn ridge_points_differ_as_expected() {
        // OwL-P has 3× the compute on the same link: its ridge is 3× higher
        // — it needs more intensity to stay compute-bound, which the
        // compressed format partially gives back.
        let rb = ridge_point(&Accelerator::baseline());
        let ro = ridge_point(&Accelerator::owlp());
        assert!((ro / rb - 3.0).abs() < 1e-9, "{ro} vs {rb}");
        // Baseline ridge: 16384 MACs/cycle ÷ 512 B/cycle = 32 MACs/B.
        assert!((rb - 32.0).abs() < 1e-9, "{rb}");
    }

    #[test]
    fn decode_gemms_are_memory_bound_prefill_is_not() {
        let wl = workload::generation_workload(ModelId::Llama2_7b, 32, 128, 8);
        let acc = Accelerator::baseline();
        let points = analyze(&acc, &wl, Dataset::WikiText2);
        // Decode QKV (m = 32): intensity = 32 MACs/weight-element / 2 B =
        // 16 MACs/B < ridge 32 → memory-bound.
        let decode = points
            .iter()
            .find(|p| p.op.starts_with("qkv_proj 32x"))
            .unwrap();
        assert!(decode.memory_bound, "{decode:?}");
        // Prefill QKV (m = 128×32): far right of the ridge.
        let prefill = points
            .iter()
            .find(|p| p.op.starts_with("qkv_proj 4096x"))
            .unwrap();
        assert!(!prefill.memory_bound, "{prefill:?}");
        assert!(prefill.attainable > decode.attainable);
    }

    #[test]
    fn compression_raises_attainable_throughput_when_memory_bound() {
        let wl = workload::generation_workload(ModelId::Llama2_7b, 32, 0, 4);
        let base_points = analyze(&Accelerator::baseline(), &wl, Dataset::WikiText2);
        let owlp_points = analyze(&Accelerator::owlp(), &wl, Dataset::WikiText2);
        let b = base_points
            .iter()
            .find(|p| p.op.starts_with("qkv_proj 32x"))
            .unwrap();
        let o = owlp_points
            .iter()
            .find(|p| p.op.starts_with("qkv_proj 32x"))
            .unwrap();
        // Same MAC work per rep, fewer bytes → higher intensity on OwL-P.
        assert!(
            o.intensity > 1.25 * b.intensity,
            "{} vs {}",
            o.intensity,
            b.intensity
        );
    }

    #[test]
    fn aggregates_split_by_class_and_carry_the_verdict() {
        let mem = MemorySystem::paper();
        let rep = RooflineReport::new(
            &mem,
            500.0e6,
            &[
                (Phase::Prefill, result(5000, 512)),
                (Phase::Decode, result(4, 8192)),
                (Phase::Decode, result(8, 8192)),
            ],
        );
        assert_eq!(rep.aggregates.len(), 2);
        let pre = rep.class_aggregate(Phase::Prefill).unwrap();
        let dec = rep.class_aggregate(Phase::Decode).unwrap();
        assert!(!pre.memory_bound);
        assert!(dec.memory_bound);
        assert!(rep.bytes_conserved());
        assert_eq!(rep.peak_gbps, 256.0);
        // Achieved bandwidth can approach but never beat the roof.
        for a in &rep.aggregates {
            assert!(
                a.achieved_gbps <= rep.peak_gbps + 1e-9,
                "{}",
                a.achieved_gbps
            );
        }
        assert!(dec.achieved_gbps > 0.9 * rep.peak_gbps);
    }

    #[test]
    fn intensity_orders_prefill_above_decode() {
        let mem = MemorySystem::paper();
        let rep = RooflineReport::new(
            &mem,
            500.0e6,
            &[
                (Phase::Prefill, result(5000, 512)),
                (Phase::Decode, result(4, 8192)),
            ],
        );
        let pre = rep.class_aggregate(Phase::Prefill).unwrap();
        let dec = rep.class_aggregate(Phase::Decode).unwrap();
        assert!(pre.intensity_macs_per_byte > dec.intensity_macs_per_byte);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let mem = MemorySystem::paper();
        let rep = RooflineReport::new(&mem, 500.0e6, &[(Phase::Single, result(10, 512))]);
        let v = rep.to_value();
        let back = RooflineReport::from_value(&v).unwrap();
        assert_eq!(back, rep);
    }
}
