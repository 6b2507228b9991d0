//! VCD (Value Change Dump) waveform tracing for the array simulation.
//!
//! Dumps per-cycle signals of a simulated GEMM — fold activity, streamed
//! row index, outlier-wavefront occupancy, busy flags — as an IEEE-1364
//! VCD file viewable in GTKWave & friends. Useful for eyeballing the
//! skew/fill/drain behaviour and for seeing the zero-inserted rows the
//! outlier scheduler adds. The waveform is drawn from the event
//! simulator's per-fold record ([`event_sim::FoldRecord`]), so it shows
//! exactly the schedule the simulator ran.

use crate::config::ArrayConfig;
use crate::event_sim;
use owlp_arith::ArithError;
use owlp_format::Bf16;
use std::fmt::Write as _;

/// One traced signal.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signal {
    id: char,
    name: &'static str,
    width: u32,
    last: Option<u64>,
}

/// A simple VCD writer over a fixed signal set.
#[derive(Debug, Clone)]
pub struct VcdTrace {
    signals: Vec<Signal>,
    body: String,
    time: u64,
}

impl VcdTrace {
    fn new(signals: &[(&'static str, u32)]) -> Self {
        let signals = signals
            .iter()
            .enumerate()
            .map(|(i, &(name, width))| Signal {
                id: (b'!' + i as u8) as char,
                name,
                width,
                last: None,
            })
            .collect();
        VcdTrace {
            signals,
            body: String::new(),
            time: 0,
        }
    }

    fn tick(&mut self, time: u64, values: &[u64]) {
        debug_assert_eq!(values.len(), self.signals.len());
        let mut changes = String::new();
        for (sig, &v) in self.signals.iter_mut().zip(values) {
            if sig.last != Some(v) {
                if sig.width == 1 {
                    let _ = writeln!(changes, "{}{}", v & 1, sig.id);
                } else {
                    let _ = writeln!(changes, "b{:b} {}", v, sig.id);
                }
                sig.last = Some(v);
            }
        }
        if !changes.is_empty() {
            let _ = write!(self.body, "#{time}\n{changes}");
        }
        self.time = time;
    }

    /// Renders the complete VCD file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("$date owlp-repro $end\n$version owlp-systolic vcd trace $end\n");
        out.push_str("$timescale 1ns $end\n$scope module owlp_array $end\n");
        for s in &self.signals {
            let _ = writeln!(out, "$var wire {} {} {} $end", s.width, s.id, s.name);
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        out.push_str(&self.body);
        let _ = writeln!(out, "#{}", self.time + 1);
        out
    }
}

/// Simulates a (small) GEMM on the OwL-P array with
/// [`event_sim::simulate_gemm`] and renders its per-fold record as a
/// waveform: `busy`, `fold` (current fold index), `row` (streamed physical
/// row), `zero_inserted` (the row is a scheduler-inserted split), and
/// `wavefront_outliers` (the row's worst occupancy across the fold's
/// columns). Each fold shows R fill ticks, one tick per streamed row and
/// R + C − 2 drain ticks; a final idle tick closes the trace.
///
/// Returns the VCD text and the total traced cycles.
///
/// # Errors
///
/// Propagates encoding errors; shapes must satisfy `a.len() == m·k`,
/// `b.len() == k·n`.
pub fn trace_gemm(
    cfg: &ArrayConfig,
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(String, u64), ArithError> {
    let sim = event_sim::simulate_gemm(cfg, a, b, m, k, n)?;
    let mut vcd = VcdTrace::new(&[
        ("busy", 1),
        ("fold", 16),
        ("row", 16),
        ("zero_inserted", 1),
        ("wavefront_outliers", 8),
    ]);
    if sim.folds.is_empty() {
        return Ok((vcd.render(), 0));
    }
    let mut cycle = 0u64;
    for (f, fold) in sim.folds.iter().enumerate() {
        let f = f as u64;
        for _ in 0..cfg.rows {
            cycle += 1;
            vcd.tick(cycle, &[1, f, 0, 0, 0]);
        }
        for (r, row) in fold.rows.iter().enumerate() {
            cycle += 1;
            let values = [1, f, r as u64, row.inserted as u64, row.occupancy as u64];
            vcd.tick(cycle, &values);
        }
        for _ in 0..(cfg.rows + cfg.cols - 2) {
            cycle += 1;
            vcd.tick(cycle, &[1, f, 0, 0, 0]);
        }
    }
    cycle += 1;
    vcd.tick(cycle, &[0, sim.folds.len() as u64, 0, 0, 0]);
    Ok((vcd.render(), cycle))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(len: usize, outlier_every: usize) -> Vec<Bf16> {
        (0..len)
            .map(|i| {
                let base = 1.0 + (i % 19) as f32 / 16.0;
                Bf16::from_f32(
                    if outlier_every > 0 && i % outlier_every == outlier_every - 1 {
                        base * 1.0e15
                    } else {
                        base
                    },
                )
            })
            .collect()
    }

    #[test]
    fn vcd_has_valid_structure() {
        let cfg = ArrayConfig::small(2, 2, 4);
        let a = synth(4 * 16, 5);
        let b = synth(16 * 3, 0);
        let (vcd, cycles) = trace_gemm(&cfg, &a, &b, 4, 16, 3).unwrap();
        assert!(cycles > 0);
        assert!(vcd.starts_with("$date"));
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("$var wire 1 ! busy"));
        assert!(vcd.contains("#1\n"));
        // Signals toggle: busy rises and falls.
        assert!(vcd.contains("1!"));
        assert!(vcd.contains("0!"));
    }

    #[test]
    fn inserted_rows_are_marked() {
        let cfg = ArrayConfig::small(2, 2, 4); // k_tile 8, 2+2 paths
                                               // 3 outliers in one row-tile → a split → zero_inserted pulses.
        let mut xs = [1.0f32; 2 * 8];
        xs[1] = 1e20;
        xs[3] = 2e20;
        xs[6] = 3e20;
        let a: Vec<Bf16> = xs.iter().map(|&x| Bf16::from_f32(x)).collect();
        let b = synth(8 * 2, 0);
        let (vcd, _) = trace_gemm(&cfg, &a, &b, 2, 8, 2).unwrap();
        // The zero_inserted signal (id '$') must go high somewhere.
        assert!(
            vcd.contains("1$"),
            "no inserted-row marker in trace:\n{vcd}"
        );
    }

    #[test]
    fn cycle_count_matches_closed_form() {
        use crate::cycle_model::cycles_with_overhead;
        let cfg = ArrayConfig::small(3, 2, 2);
        let a = synth(5 * 12, 0);
        let b = synth(12 * 4, 0);
        let (_, cycles) = trace_gemm(&cfg, &a, &b, 5, 12, 4).unwrap();
        let eq3 = cycles_with_overhead(&cfg, 5, 12, 4, 1.0, 1.0);
        // +1 for the final idle tick.
        assert_eq!(cycles, eq3.total + 1);
    }

    #[test]
    fn empty_gemm_traces_cleanly() {
        let cfg = ArrayConfig::small(1, 1, 1);
        let (vcd, cycles) = trace_gemm(&cfg, &[], &[], 0, 0, 0).unwrap();
        assert_eq!(cycles, 0);
        assert!(vcd.contains("$enddefinitions"));
    }
}
