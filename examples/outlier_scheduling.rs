//! Outlier-scheduling walkthrough: visualises the zero-insertion scheme of
//! paper Fig. 6 on a real activation row, then validates it on a live
//! event-driven array simulation.
//!
//! ```text
//! cargo run --release --example outlier_scheduling
//! ```

use owlp_repro::format::{encode_tensor, Bf16};
use owlp_repro::model::profiles::{profile_for, Dataset, TensorRole};
use owlp_repro::model::{ModelId, OpKind, TensorGen};
use owlp_repro::systolic::event_sim::{simulate_gemm, simulate_gemm_unscheduled};
use owlp_repro::systolic::schedule::OutlierSchedule;
use owlp_repro::systolic::ArrayConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: the Fig. 6 picture on one 32-element input column.
    let mut xs: Vec<f32> = (0..32)
        .map(|i| 0.8 + (i as f32 * 0.711).sin() * 0.3)
        .collect();
    for i in [3usize, 11, 20] {
        xs[i] = 2.0e19; // three outliers, two activation paths
    }
    let t: Vec<Bf16> = xs.iter().map(|&x| Bf16::from_f32(x)).collect();
    let enc = encode_tensor(&t, None)?;
    let ops = enc.decode_operands();
    let sched = OutlierSchedule::new(32, 2, 2);
    let subs = sched.split_activation_row(&ops);
    println!("input column with 3 outliers, 2 outlier paths per PE:");
    let glyph = |o: &owlp_repro::format::DecodedOperand| {
        if o.is_zero() {
            '.'
        } else if o.tag {
            'O'
        } else {
            'n'
        }
    };
    println!("  original : {}", ops.iter().map(glyph).collect::<String>());
    for (i, sub) in subs.iter().enumerate() {
        println!(
            "  column {}-{}: {}",
            2,
            i + 1,
            sub.iter().map(glyph).collect::<String>()
        );
    }
    println!(
        "  -> {} sub-columns ('.' are inserted zeros), T_a adds {} cycle(s)\n",
        subs.len(),
        subs.len() - 1
    );

    // --- Part 2: the hazard and the fix, on a live array.
    let cfg = ArrayConfig::small(4, 4, 8); // k_tile 32, 4 outlier paths total
    let (m, k, n) = (24, 64, 12);
    let act = profile_for(
        ModelId::Gpt2Base,
        OpKind::AttnContext,
        TensorRole::Activation,
        Dataset::WikiText2,
    );
    let wt = profile_for(
        ModelId::Gpt2Base,
        OpKind::AttnContext,
        TensorRole::Weight,
        Dataset::WikiText2,
    );
    let a = TensorGen::new(act, m, k).values(9);
    let b = TensorGen::new(wt, k, n).values(10);

    let raw = simulate_gemm_unscheduled(&cfg, &a, &b, m, k, n)?;
    let fixed = simulate_gemm(&cfg, &a, &b, m, k, n)?;
    println!(
        "event-driven simulation of a {}x{} array (8-lane PEs, 4 outlier paths):",
        cfg.rows, cfg.cols
    );
    println!(
        "  unscheduled: max wavefront occupancy {} -> conflict-free: {}",
        raw.max_wavefront_occupancy, raw.conflict_free
    );
    println!(
        "  scheduled:   max wavefront occupancy {} -> conflict-free: {} ({} extra cycles: {} vs {})",
        fixed.max_wavefront_occupancy,
        fixed.conflict_free,
        fixed.cycles() - raw.cycles(),
        fixed.cycles(),
        raw.cycles()
    );
    assert!(fixed.conflict_free);

    // Numerics are untouched by scheduling.
    assert_eq!(raw.outputs, fixed.outputs);
    println!(
        "  outputs identical with and without zero insertion (scheduling is purely structural)"
    );
    Ok(())
}
