//! The accelerator simulator.
//!
//! [`Accelerator::simulate`] runs every [`GemmOp`] of a workload through:
//!
//! 1. **scheduling overheads** — the calibrated exponent profiles give
//!    `r_a`/`r_w` per operand (OwL-P only; the FP baseline has none);
//! 2. **compute cycles** — paper Eq. (4) with rep-level fold parallelism
//!    across the 16 arrays;
//! 3. **off-chip traffic** — the stationary operand streams from HBM2 each
//!    repetition (multi-GB weight/KV footprints cannot persist in the 12 MB
//!    buffer); OwL-P moves the compressed memory-map bytes of Fig. 5, the
//!    baseline moves raw BF16;
//! 4. **effective time** — compute and transfer overlap, so each op costs
//!    `max(compute, transfer)` cycles (the memory-bound decode phase is
//!    bandwidth-limited, which is where compression pays);
//! 5. **energy** — MAC energy × useful MACs, SRAM movement, DRAM movement,
//!    leakage over the effective window.

use crate::report::{ClassReport, SimulationReport};
use owlp_format::chunk::PackingLayout;
use owlp_hw::{DesignPoint, EnergyModel, MemorySystem};
use owlp_model::profiles::{profile_for, Dataset, TensorRole};
use owlp_model::{GemmOp, Workload};
use owlp_systolic::{cycle_model, ArrayConfig};
use serde::{Deserialize, Serialize};

/// Which design point an [`Accelerator`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AcceleratorKind {
    /// TPU-like BF16 baseline.
    Baseline,
    /// The OwL-P INT design with the compressed number format.
    Owlp,
}

/// A simulated accelerator design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accelerator {
    kind: AcceleratorKind,
    array: ArrayConfig,
    design: DesignPoint,
}

impl Accelerator {
    /// The TPU-like BF16 baseline (Table V left column).
    pub fn baseline() -> Self {
        Accelerator {
            kind: AcceleratorKind::Baseline,
            array: ArrayConfig::BASELINE_PAPER,
            design: DesignPoint::baseline_paper(),
        }
    }

    /// The OwL-P design point (Table V right column).
    pub fn owlp() -> Self {
        Accelerator {
            kind: AcceleratorKind::Owlp,
            array: ArrayConfig::OWLP_PAPER,
            design: DesignPoint::owlp_paper(),
        }
    }

    /// An OwL-P variant with a different outlier-path split (Fig. 10
    /// sweeps).
    pub fn owlp_with_paths(act: usize, weight: usize) -> Self {
        let mut a = Self::owlp();
        a.array = a.array.with_outlier_paths(act, weight);
        a
    }

    /// An OwL-P variant with a custom array organisation (design-space
    /// exploration; the hardware cost model keeps the Table V anchors since
    /// total MACs and PE structure are unchanged).
    pub fn owlp_with_array(array: ArrayConfig) -> Self {
        let mut a = Self::owlp();
        a.array = array;
        a
    }

    /// The same design with a different memory system — the entry point
    /// for `repro` sweeps that vary channel count / burst size /
    /// double-buffer depth from JSON config.
    pub fn with_memory(mut self, memory: MemorySystem) -> Self {
        self.design.memory = memory;
        self
    }

    /// Which design this is.
    pub fn kind(&self) -> AcceleratorKind {
        self.kind
    }

    /// The systolic-array configuration.
    pub fn array(&self) -> &ArrayConfig {
        &self.array
    }

    /// The hardware design point.
    pub fn design(&self) -> &DesignPoint {
        &self.design
    }

    /// Simulates a workload with `r_a`/`r_w` **measured** on sampled
    /// synthetic masks through the real scheduler, instead of the analytic
    /// Poisson expectation — a cross-validation of [`Accelerator::simulate`]
    /// (slower; samples up to `sample × k` mask elements per op).
    pub fn simulate_measured(
        &self,
        workload: &Workload,
        dataset: Dataset,
        seed: u64,
        sample: usize,
    ) -> SimulationReport {
        self.simulate_inner(workload, dataset, Some((seed, sample.max(1))))
    }

    /// Simulates a workload under a dataset's activation statistics.
    pub fn simulate(&self, workload: &Workload, dataset: Dataset) -> SimulationReport {
        self.simulate_inner(workload, dataset, None)
    }

    fn simulate_inner(
        &self,
        workload: &Workload,
        dataset: Dataset,
        measured: Option<(u64, usize)>,
    ) -> SimulationReport {
        let memory = self.design.memory;
        let energy_model = EnergyModel {
            pe: self.design.pe,
            memory,
            logic_area_mm2: self.design.compute_area_mm2(),
        };
        let mut report = SimulationReport::new(self.design.name, &workload.name);
        let mut ra_weighted = 0.0;
        let mut rw_weighted = 0.0;
        let mut mac_total = 0u64;
        for op in &workload.ops {
            let (r_a, r_w) = match measured {
                None => self.overheads(workload, op, dataset),
                Some((seed, sample)) => {
                    self.measured_overheads(workload, op, dataset, seed, sample)
                }
            };
            let class = self.simulate_op(workload, op, dataset, r_a, r_w, &energy_model, &memory);
            ra_weighted += r_a * op.macs() as f64;
            rw_weighted += r_w * op.macs() as f64;
            mac_total += op.macs();
            report.accumulate(op.class(), &class);
        }
        if mac_total > 0 {
            report.avg_r_a = ra_weighted / mac_total as f64;
            report.avg_r_w = rw_weighted / mac_total as f64;
        }
        report.seconds = report.cycles as f64 / (self.array.clock_mhz * 1e6);
        report
    }

    /// Costs one op in isolation: scheduling overheads plus the full
    /// cycle/energy model, as one [`ClassReport`]. This is the per-op
    /// entry point the serving scheduler builds its cost tables from;
    /// accumulating it over a workload's ops reproduces
    /// [`Accelerator::simulate`] exactly.
    pub fn op_report(&self, workload: &Workload, op: &GemmOp, dataset: Dataset) -> ClassReport {
        let memory = self.design.memory;
        let energy_model = EnergyModel {
            pe: self.design.pe,
            memory,
            logic_area_mm2: self.design.compute_area_mm2(),
        };
        let (r_a, r_w) = self.overheads(workload, op, dataset);
        self.simulate_op(workload, op, dataset, r_a, r_w, &energy_model, &memory)
    }

    /// Wall-clock seconds for a cycle count at this design's frequency.
    pub fn seconds_for(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.array.clock_mhz * 1e6)
    }

    /// Scheduling overheads for one op (1.0/1.0 on the baseline).
    pub fn overheads(&self, workload: &Workload, op: &GemmOp, dataset: Dataset) -> (f64, f64) {
        if self.kind == AcceleratorKind::Baseline {
            return (1.0, 1.0);
        }
        let tile = self.array.k_tile().min(op.k.max(1));
        let act = profile_for(workload.model, op.kind, TensorRole::Activation, dataset);
        let wt = profile_for(workload.model, op.kind, TensorRole::Weight, dataset);
        let r_a = act.expected_extra_ratio(tile, self.array.act_outlier_paths.max(1));
        let r_w = wt.expected_extra_ratio(tile, self.array.weight_outlier_paths.max(1));
        (r_a, r_w)
    }

    /// Scheduling overheads measured on sampled masks through the real
    /// scheduler (see [`Accelerator::simulate_measured`]).
    pub fn measured_overheads(
        &self,
        workload: &Workload,
        op: &GemmOp,
        dataset: Dataset,
        seed: u64,
        sample: usize,
    ) -> (f64, f64) {
        if self.kind == AcceleratorKind::Baseline {
            return (1.0, 1.0);
        }
        use owlp_model::TensorGen;
        use owlp_systolic::schedule::OutlierSchedule;
        let k = op.k.clamp(1, 4096);
        let m = op.m.min(sample).max(1);
        let n = op.n.min(sample).max(1);
        let act = profile_for(workload.model, op.kind, TensorRole::Activation, dataset);
        let wt = profile_for(workload.model, op.kind, TensorRole::Weight, dataset);
        let act_mask = TensorGen::new(act, m, k).mask(seed);
        let wt_mask = TensorGen::new(wt, k, n).mask(seed ^ 0xBEEF);
        let tile = self.array.k_tile().min(k);
        let sched = OutlierSchedule::new(
            tile,
            self.array.act_outlier_paths.max(1),
            self.array.weight_outlier_paths.max(1),
        );
        let r_a = sched.activation_stats(&act_mask, m, k).ratio;
        let r_w = sched.weight_stats(&wt_mask, k, n).ratio;
        (r_a, r_w)
    }

    #[allow(clippy::too_many_arguments)]
    fn simulate_op(
        &self,
        workload: &Workload,
        op: &GemmOp,
        dataset: Dataset,
        r_a: f64,
        r_w: f64,
        energy_model: &EnergyModel,
        memory: &MemorySystem,
    ) -> ClassReport {
        // --- Compute cycles: Eq. (4) per repetition, with fold-level
        // parallelism across arrays shared by the repetitions.
        let b = cycle_model::cycles_with_overhead(&self.array, op.m, op.k, op.n, r_a, r_w);
        let total_folds = b.folds.saturating_mul(op.count);
        let compute_cycles = if total_folds == 0 {
            0
        } else {
            b.per_fold * total_folds.div_ceil(self.array.num_arrays as u64)
        };

        // --- Off-chip traffic: the stationary operand streams per
        // repetition; activations/outputs stay on chip for these shapes.
        let bpe = self.bytes_per_element(workload, op, dataset);
        let weight_bytes =
            (op.weight_elements() as f64 * bpe.weight * op.count as f64).ceil() as u64;
        // §IV-D fallback: outlier exponents beyond the on-chip buffer are
        // re-fetched from HBM per resident tile set, one burst per entry
        // (zero at paper outlier rates — the 64 Ki-entry buffer holds a
        // full tile set's outliers with an order of magnitude to spare).
        let groups = total_folds.div_ceil(self.array.num_arrays.max(1) as u64);
        let spill = if groups == 0 {
            0
        } else {
            let per_group = (op.weight_elements() * op.count).div_ceil(groups);
            let entries = owlp_mem::tiles::tile_outlier_entries(
                per_group,
                self.outlier_storage_rate(workload, op, dataset),
            );
            memory.outlier_buffer.overflow_bytes(entries) * groups
        };
        let dram_bytes = weight_bytes + spill;
        // On-chip movement: stationary operand + streamed activations +
        // outputs (FP32 accumulators written back as BF16/OwL-P).
        let sram_bytes = dram_bytes
            + ((op.activation_elements() + op.output_elements()) as f64
                * bpe.activation
                * op.count as f64)
                .ceil() as u64;

        // --- Effective time: double-buffered compute/transfer overlap
        // (steady state at the slower rate, plus one un-overlapped head
        // fetch per op group).
        let transfer_cycles =
            (memory.transfer_seconds(dram_bytes) * self.array.clock_mhz * 1e6).ceil() as u64;
        let head_fetch = transfer_cycles / op.count.max(1);
        let cycles = compute_cycles.max(transfer_cycles) + head_fetch.min(compute_cycles);
        let seconds = cycles as f64 / (self.array.clock_mhz * 1e6);

        ClassReport {
            cycles,
            compute_cycles,
            macs: op.macs(),
            dram_bytes,
            energy: energy_model.energy_with_cycles(
                compute_cycles,
                self.array.total_macs(),
                owlp_hw::design::ACTIVITY_FACTOR,
                dram_bytes,
                sram_bytes,
                seconds,
            ),
        }
    }

    /// Fraction of stored weight elements that occupy an outlier-buffer
    /// entry while their tile set is resident (outliers plus zeros, which
    /// the format stores as exponent-0 outlier entries; see
    /// [`Accelerator::bytes_per_element`]). Zero on the baseline, which
    /// has no outlier path.
    pub(crate) fn outlier_storage_rate(
        &self,
        workload: &Workload,
        op: &GemmOp,
        dataset: Dataset,
    ) -> f64 {
        match self.kind {
            AcceleratorKind::Baseline => 0.0,
            AcceleratorKind::Owlp => {
                let p = profile_for(workload.model, op.kind, TensorRole::Weight, dataset);
                p.expected_outlier_rate() + p.zero_fraction
            }
        }
    }

    /// Bytes per stored element on the off-chip link.
    pub(crate) fn bytes_per_element(
        &self,
        workload: &Workload,
        op: &GemmOp,
        dataset: Dataset,
    ) -> BytesPerElement {
        match self.kind {
            AcceleratorKind::Baseline => BytesPerElement {
                weight: 2.0,
                activation: 2.0,
            },
            AcceleratorKind::Owlp => {
                let layout = PackingLayout::PAPER;
                let per = |role: TensorRole| {
                    let p = profile_for(workload.model, op.kind, role, dataset);
                    // Zeros are stored as exponent-0 outlier entries.
                    let outlier_storage = p.expected_outlier_rate() + p.zero_fraction;
                    let elements = 100_000usize;
                    let outliers = (elements as f64 * outlier_storage).round() as usize;
                    layout.packed_bits(elements, outliers) as f64 / 8.0 / elements as f64
                };
                BytesPerElement {
                    weight: per(TensorRole::Weight),
                    activation: per(TensorRole::Activation),
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct BytesPerElement {
    pub(crate) weight: f64,
    pub(crate) activation: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Comparison;
    use owlp_model::{workload, ModelId};

    #[test]
    fn owlp_beats_baseline_on_bert() {
        let wl = workload::encoder_workload(ModelId::BertBase, 512, 1);
        let b = Accelerator::baseline().simulate(&wl, Dataset::Squad2);
        let o = Accelerator::owlp().simulate(&wl, Dataset::Squad2);
        let c = Comparison::between(&b, &o);
        assert!(c.speedup > 1.5, "speedup {}", c.speedup);
        assert!(c.energy_ratio > 1.5, "energy ratio {}", c.energy_ratio);
    }

    #[test]
    fn owlp_beats_baseline_on_generation() {
        let wl = workload::generation_workload(ModelId::Gpt2Base, 32, 128, 256);
        let b = Accelerator::baseline().simulate(&wl, Dataset::WikiText2);
        let o = Accelerator::owlp().simulate(&wl, Dataset::WikiText2);
        let c = Comparison::between(&b, &o);
        assert!(c.speedup > 1.2, "speedup {}", c.speedup);
        assert!(c.energy_ratio > 1.5, "energy ratio {}", c.energy_ratio);
        // Compression shrinks traffic by ≈ 16/11.5 ≈ 1.39×.
        assert!(
            (1.25..=1.55).contains(&c.traffic_ratio),
            "traffic {}",
            c.traffic_ratio
        );
    }

    #[test]
    fn baseline_has_no_scheduling_overhead() {
        let wl = workload::encoder_workload(ModelId::BertLarge, 512, 1);
        let b = Accelerator::baseline().simulate(&wl, Dataset::Glue);
        assert_eq!(b.avg_r_a, 1.0);
        assert_eq!(b.avg_r_w, 1.0);
    }

    #[test]
    fn owlp_overheads_are_in_paper_bands() {
        let wl = workload::generation_workload(ModelId::Llama2_7b, 32, 128, 64);
        let o = Accelerator::owlp().simulate(&wl, Dataset::WikiText2);
        assert!((1.05..=1.40).contains(&o.avg_r_a), "r_a {}", o.avg_r_a);
        assert!((1.01..=1.10).contains(&o.avg_r_w), "r_w {}", o.avg_r_w);
    }

    #[test]
    fn decode_phase_bandwidth_pressure() {
        // For the Llama2 decode QKV op on the baseline, transfer time
        // exceeds the *ideal* (MAC-limited) compute time — decode is
        // memory-bound for any well-utilised array — and stays the same
        // order as the Eq. (3) cycles with fill overhead. Compression must
        // therefore move the bottleneck.
        let wl = workload::generation_workload(ModelId::Llama2_7b, 32, 0, 4);
        let acc = Accelerator::baseline();
        let op = wl.ops.iter().find(|o| o.m == 32).unwrap();
        let mem = acc.design.memory;
        let b = cycle_model::cycles_with_overhead(&acc.array, op.m, op.k, op.n, 1.0, 1.0);
        let compute = b.per_fold * b.folds.div_ceil(acc.array.num_arrays as u64);
        let ideal = op.m as u64 * op.k as u64 * op.n as u64 / acc.array.total_macs() as u64;
        let bytes = op.weight_elements() * 2;
        let transfer = (mem.transfer_seconds(bytes) * acc.array.clock_mhz * 1e6).ceil() as u64;
        assert!(transfer > ideal, "transfer {transfer} vs ideal {ideal}");
        assert!(
            transfer * 4 > compute,
            "transfer {transfer} vs compute {compute}"
        );
    }

    #[test]
    fn more_outlier_paths_reduce_cycles() {
        let wl = workload::encoder_workload(ModelId::BertBase, 512, 1);
        let few = Accelerator::owlp_with_paths(1, 1).simulate(&wl, Dataset::Squad2);
        let many = Accelerator::owlp_with_paths(4, 4).simulate(&wl, Dataset::Squad2);
        assert!(many.cycles <= few.cycles);
        assert!(many.avg_r_a < few.avg_r_a);
    }

    #[test]
    fn compressed_bytes_per_element_is_about_1_5() {
        let wl = workload::encoder_workload(ModelId::BertBase, 512, 1);
        let acc = Accelerator::owlp();
        let op = &wl.ops[0];
        let bpe = acc.bytes_per_element(&wl, op, Dataset::Squad2);
        assert!(
            (1.40..=1.60).contains(&bpe.weight),
            "weight bpe {}",
            bpe.weight
        );
        assert!(
            bpe.activation >= bpe.weight,
            "activations carry more outliers"
        );
        assert!(bpe.activation < 1.7);
    }

    #[test]
    fn measured_overheads_cross_validate_analytic() {
        // The measured-mask path must agree with the Poisson analytic on
        // both the overheads and the end-to-end speedup.
        let wl = workload::encoder_workload(ModelId::BertBase, 256, 1);
        let owlp = Accelerator::owlp();
        let analytic = owlp.simulate(&wl, Dataset::Squad2);
        let measured = owlp.simulate_measured(&wl, Dataset::Squad2, 99, 256);
        assert!(
            (analytic.avg_r_a - measured.avg_r_a).abs() < 0.06,
            "r_a {} vs {}",
            analytic.avg_r_a,
            measured.avg_r_a
        );
        assert!(
            (analytic.avg_r_w - measured.avg_r_w).abs() < 0.03,
            "r_w {} vs {}",
            analytic.avg_r_w,
            measured.avg_r_w
        );
        let rel = (analytic.cycles as f64 - measured.cycles as f64).abs() / analytic.cycles as f64;
        assert!(rel < 0.08, "cycle mismatch {rel}");
    }

    #[test]
    fn outlier_buffer_overflow_feeds_traffic_and_energy() {
        // At paper sizing the 64 Ki-entry buffer absorbs every tile set's
        // outliers; shrinking it to nothing forces the §IV-D spill path,
        // which must show up in traffic, cycles, and DRAM energy.
        let wl = workload::generation_workload(ModelId::Llama2_7b, 32, 128, 16);
        let stock = Accelerator::owlp().simulate(&wl, Dataset::WikiText2);
        let mut mem = owlp_hw::MemorySystem::paper();
        mem.outlier_buffer.entries = 0;
        let starved = Accelerator::owlp()
            .with_memory(mem)
            .simulate(&wl, Dataset::WikiText2);
        assert!(
            starved.dram_bytes > stock.dram_bytes,
            "{} vs {}",
            starved.dram_bytes,
            stock.dram_bytes
        );
        assert!(starved.cycles >= stock.cycles);
        assert!(starved.energy.dram_j > stock.energy.dram_j);
    }

    #[test]
    fn report_classes_cover_whole_workload() {
        let wl = workload::generation_workload(ModelId::Gpt2Large, 32, 128, 256);
        let o = Accelerator::owlp().simulate(&wl, Dataset::WikiText2);
        let share_sum: f64 = owlp_model::OpClass::ALL
            .iter()
            .map(|&c| o.class_cycle_share(c))
            .sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn op_reports_sum_to_simulated_total() {
        // `owlp-serve`'s closed-form cost model prices each op with
        // `seconds_for(op_report(..).cycles)`; summed over a workload's
        // ops that must reproduce `simulate` exactly.
        let wl = workload::generation_workload(ModelId::Gpt2Base, 8, 64, 32);
        for acc in [Accelerator::baseline(), Accelerator::owlp()] {
            let report = acc.simulate(&wl, Dataset::WikiText2);
            let ops: Vec<ClassReport> = wl
                .ops
                .iter()
                .map(|op| acc.op_report(&wl, op, Dataset::WikiText2))
                .collect();
            let cycle_sum: u64 = ops.iter().map(|r| r.cycles).sum();
            assert_eq!(cycle_sum, report.cycles);
            let sec_sum: f64 = ops.iter().map(|r| acc.seconds_for(r.cycles)).sum();
            assert!((sec_sum - report.seconds).abs() < 1e-9);
        }
    }
}
