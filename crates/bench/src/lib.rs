//! # owlp-bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation, each producing a data structure plus a text rendering that
//! mirrors the paper's rows/series, with the paper's published values
//! printed alongside for comparison.
//!
//! Run everything with the `repro` binary:
//!
//! ```text
//! cargo run -p owlp-bench --bin repro --release -- all
//! cargo run -p owlp-bench --bin repro --release -- fig11
//! ```
//!
//! | module | paper artefact |
//! |---|---|
//! | [`table1`] | Table I — numerical accuracy by method |
//! | [`table2`] | Table II — normal-value ratios |
//! | [`fig1`]   | Fig. 1 — exponent histogram (GPT2-Base FFN weights) |
//! | [`fig8`]   | Fig. 8 — `r_a`/`r_w` across models and submodules |
//! | [`table3`] | Table III — Llama2 `r_a` per dataset |
//! | [`table4`] | Table IV — BERT `r_a`/`r_w` per dataset |
//! | [`fig9`]   | Fig. 9 — area/power vs outlier paths |
//! | [`fig10`]  | Fig. 10 — `r_a`/`r_w` vs outlier paths |
//! | [`table5`] | Table V — design comparison |
//! | [`fig11`]  | Fig. 11 — relative cycles & energy on 10 workloads |
//! | [`eq34`]   | Eq. (3)/(4) — closed form vs event-driven simulation |
//! | [`ablation`] | extra design-choice ablations (align width, bias bits, path split, subset size) |
//! | [`roofline_exp`] | roofline placement of decode GEMMs (supporting analysis) |
//! | [`batch_sweep`] | speedup vs batch size (supporting analysis) |
//! | [`serving_exp`] | tokens/s, TPOT, TTFT per design (supporting analysis) |
//! | [`serve_exp`] | load sweep through the `owlp-serve` continuous-batching simulator |
//! | [`serve_faults_exp`] | serving under escalating fault injection (supporting analysis) |
//! | [`dse_exp`] | array-organisation design-space exploration (supporting analysis) |

pub mod ablation;
pub mod batch_sweep;
pub mod dse_exp;
pub mod eq34;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig8;
pub mod fig9;
pub mod render;
pub mod roofline_exp;
pub mod serve_exp;
pub mod serve_faults_exp;
pub mod serving_exp;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

/// Deterministic base seed for every experiment (reproducible runs).
pub const SEED: u64 = 0x0DD5_EED5;

/// Measures `r_a` (activation) for one tensor mask through the real
/// scheduler — shared by several experiments.
pub fn measured_ra(
    model: owlp_model::ModelId,
    kind: owlp_model::OpKind,
    dataset: owlp_model::Dataset,
    m: usize,
    k: usize,
    paths: usize,
    seed: u64,
) -> f64 {
    use owlp_model::profiles::{profile_for, TensorRole};
    let p = profile_for(model, kind, TensorRole::Activation, dataset);
    let mask = owlp_model::TensorGen::new(p, m, k).mask(seed);
    let sched = owlp_systolic::schedule::OutlierSchedule::new(32, paths, paths);
    sched.activation_stats(&mask, m, k).ratio
}

/// Measures `r_w` (weight) analogously.
pub fn measured_rw(
    model: owlp_model::ModelId,
    kind: owlp_model::OpKind,
    k: usize,
    n: usize,
    paths: usize,
    seed: u64,
) -> f64 {
    use owlp_model::profiles::{profile_for, Dataset, TensorRole};
    let p = profile_for(model, kind, TensorRole::Weight, Dataset::WikiText2);
    let mask = owlp_model::TensorGen::new(p, k, n).mask(seed);
    let sched = owlp_systolic::schedule::OutlierSchedule::new(32, paths, paths);
    sched.weight_stats(&mask, k, n).ratio
}

#[cfg(test)]
mod tests {
    use super::*;
    use owlp_model::{Dataset, ModelId, OpKind};

    #[test]
    fn measured_ra_is_in_band() {
        let r = measured_ra(
            ModelId::Gpt2Base,
            OpKind::QkvProj,
            Dataset::WikiText2,
            256,
            768,
            2,
            SEED,
        );
        assert!((1.05..=1.40).contains(&r), "r_a {r}");
    }

    #[test]
    fn measured_rw_is_in_band() {
        let r = measured_rw(ModelId::Gpt2Base, OpKind::QkvProj, 768, 768, 2, SEED);
        assert!((1.01..=1.12).contains(&r), "r_w {r}");
    }
}
