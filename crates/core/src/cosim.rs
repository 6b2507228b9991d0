//! Bridge from [`Accelerator`] workloads to the `owlp-mem` co-simulator.
//!
//! [`Accelerator::simulate`] prices each op with the closed-form
//! `max(compute, transfer)` overlap; this module lowers the same ops into
//! [`PhaseSpec`]s — fold groups racing their stationary-tile fetches on
//! the per-channel HBM model — and aggregates the event-driven results
//! into a [`RooflineReport`]. The lowering reuses the accelerator's own
//! compute model (Eq. 4 fold structure) and compressed bytes-per-element,
//! so compute cycles agree exactly with [`Accelerator::op_report`]; only
//! the memory side gains fidelity (channel skew, burst padding, prefetch
//! depth, outlier-buffer spill).

use crate::accel::Accelerator;
use crate::roofline::RooflineReport;
use owlp_mem::tiles::tile_outlier_entries;
use owlp_mem::{CosimEngine, PhaseSpec};
use owlp_model::profiles::Dataset;
use owlp_model::{GemmOp, Workload};
use owlp_systolic::cycle_model;

/// A co-sim engine over this accelerator's memory system and clock.
pub fn engine_for(acc: &Accelerator) -> CosimEngine {
    CosimEngine::new(acc.design().memory, acc.array().clock_mhz * 1e6)
}

/// Lowers one op into a uniform phase spec: `groups` fold groups (one per
/// parallel sweep of the arrays, across repetitions), each computing
/// `per_fold` cycles and fetching its share of the op's compressed
/// stationary-weight traffic.
pub fn op_phase_spec(
    acc: &Accelerator,
    workload: &Workload,
    op: &GemmOp,
    dataset: Dataset,
) -> PhaseSpec {
    let (r_a, r_w) = acc.overheads(workload, op, dataset);
    let b = cycle_model::cycles_with_overhead(acc.array(), op.m, op.k, op.n, r_a, r_w);
    let total_folds = b.folds.saturating_mul(op.count);
    let groups = if total_folds == 0 {
        0
    } else {
        total_folds.div_ceil(acc.array().num_arrays.max(1) as u64)
    };
    let bpe = acc.bytes_per_element(workload, op, dataset);
    let weight_bytes = (op.weight_elements() as f64 * bpe.weight * op.count as f64).ceil() as u64;
    let (tile_bytes, outliers) = if groups == 0 {
        (0, 0)
    } else {
        let per_group_elements = (op.weight_elements() * op.count).div_ceil(groups);
        (
            weight_bytes.div_ceil(groups),
            tile_outlier_entries(
                per_group_elements,
                acc.outlier_storage_rate(workload, op, dataset),
            ),
        )
    };
    PhaseSpec {
        label: format!("{:?}/{}", op.phase, op.kind).to_lowercase(),
        groups,
        compute_cycles_per_group: b.per_fold,
        tile_bytes_per_group: tile_bytes,
        outliers_per_group: outliers,
        // Activations and outputs stream through small staging buffers
        // rather than residing whole; their energy is already booked by
        // the closed-form model, so the tile budget sees only weights.
        resident_bytes: 0,
        macs: op.macs(),
    }
}

/// Co-simulates a whole workload and aggregates the per-op results, each
/// tagged with its op's phase, into a roofline report (per-phase verdicts
/// included).
pub fn cosim_workload(acc: &Accelerator, workload: &Workload, dataset: Dataset) -> RooflineReport {
    let engine = engine_for(acc);
    let results: Vec<_> = workload
        .ops
        .iter()
        .map(|op| {
            let spec = op_phase_spec(acc, workload, op, dataset);
            (op.phase, engine.run_phase(&spec))
        })
        .collect();
    RooflineReport::new(&acc.design().memory, engine.clock_hz(), &results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use owlp_model::{workload, ModelId, Phase};

    const PAPER_BATCH: usize = 32;

    #[test]
    fn lowered_compute_cycles_match_the_closed_form_model() {
        let wl = workload::generation_workload(ModelId::Llama2_7b, PAPER_BATCH, 128, 64);
        let acc = Accelerator::owlp();
        for op in &wl.ops {
            let spec = op_phase_spec(&acc, &wl, op, Dataset::WikiText2);
            let rep = acc.op_report(&wl, op, Dataset::WikiText2);
            assert_eq!(
                spec.groups * spec.compute_cycles_per_group,
                rep.compute_cycles,
                "{}",
                spec.label
            );
        }
    }

    #[test]
    fn decode_is_memory_bound_and_prefill_compute_bound_at_paper_defaults() {
        let wl = workload::generation_workload(ModelId::Llama2_7b, PAPER_BATCH, 128, 64);
        let acc = Accelerator::owlp();
        let report = cosim_workload(&acc, &wl, Dataset::WikiText2);
        let dec = report.class_aggregate(Phase::Decode).unwrap();
        let pre = report.class_aggregate(Phase::Prefill).unwrap();
        assert!(dec.memory_bound, "decode must be bandwidth-bound");
        assert!(!pre.memory_bound, "prefill must be compute-bound");
        assert!(report.bytes_conserved());
        // The bandwidth-bound phase streams near the roof.
        assert!(dec.achieved_gbps > 0.5 * report.peak_gbps);
        assert!(dec.achieved_gbps <= report.peak_gbps + 1e-9);
    }

    #[test]
    fn cosim_memory_never_beats_the_closed_form_transfer() {
        let wl = workload::generation_workload(ModelId::Gpt2Base, 8, 64, 32);
        for acc in [Accelerator::owlp(), Accelerator::baseline()] {
            let engine = engine_for(&acc);
            for op in &wl.ops {
                let r = engine.run_phase(&op_phase_spec(&acc, &wl, op, Dataset::WikiText2));
                let closed = engine.transfer_cycles(r.fetched_bytes);
                assert!(
                    r.memory_cycles >= closed - 1e-6 * closed.max(1.0),
                    "{}: {} < {closed}",
                    r.label,
                    r.memory_cycles
                );
                assert!(r.prologue >= 0.0);
                assert!(r.conserves_bytes());
            }
        }
    }

    #[test]
    fn op_seconds_track_the_closed_form_price_within_the_overlap_slack() {
        // The co-sim price and the closed-form price agree on the
        // dominant term; they differ only in prologue/epilogue handling
        // and channel quantisation, so the ratio stays near 1.
        let wl = workload::generation_workload(ModelId::Llama2_7b, PAPER_BATCH, 128, 16);
        let acc = Accelerator::owlp();
        let engine = engine_for(&acc);
        for op in &wl.ops {
            let r = engine.run_phase(&op_phase_spec(&acc, &wl, op, Dataset::WikiText2));
            let cosim = engine.seconds(r.makespan);
            let closed = acc.seconds_for(acc.op_report(&wl, op, Dataset::WikiText2).cycles);
            let ratio = cosim / closed;
            assert!(
                (0.45..=2.2).contains(&ratio),
                "{}: cosim {cosim} vs closed {closed}",
                op.kind
            );
        }
    }

    #[test]
    fn compression_raises_decode_throughput_on_the_same_roofline() {
        // The paper's core serving claim: decode makespan scales with the
        // bytes moved, so the ~1.39× traffic compression shows up as a
        // proportionally shorter decode phase.
        let wl = workload::generation_workload(ModelId::Llama2_7b, PAPER_BATCH, 128, 16);
        let base = cosim_workload(&Accelerator::baseline(), &wl, Dataset::WikiText2);
        let owlp = cosim_workload(&Accelerator::owlp(), &wl, Dataset::WikiText2);
        let bd = base.class_aggregate(Phase::Decode).unwrap();
        let od = owlp.class_aggregate(Phase::Decode).unwrap();
        assert!(od.fetched_bytes < bd.fetched_bytes);
        // Same 500 MHz clock on both designs: compare cycles directly.
        assert_eq!(base.clock_hz, owlp.clock_hz);
        let traffic_ratio = bd.fetched_bytes as f64 / od.fetched_bytes as f64;
        let speedup = bd.makespan / od.makespan;
        assert!(
            speedup > 0.8 * traffic_ratio,
            "{speedup} vs {traffic_ratio}"
        );
    }
}
