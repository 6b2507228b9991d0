//! `repro` — regenerate every table and figure of the OwL-P paper.
//!
//! ```text
//! repro all            run every experiment
//! repro table1         Table I   numerical accuracy by method
//! repro table2         Table II  normal-value ratios
//! repro fig1           Fig. 1    exponent histogram
//! repro fig8           Fig. 8    r_a / r_w across models & submodules
//! repro table3         Table III Llama2 r_a per dataset
//! repro table4         Table IV  BERT r_a / r_w per dataset
//! repro fig9           Fig. 9    area/power vs outlier paths
//! repro fig10          Fig. 10   r_a / r_w vs outlier paths
//! repro table5         Table V   design comparison
//! repro fig11          Fig. 11   relative cycles & energy (10 workloads)
//! repro eq34           Eq. (3)/(4) validation vs event simulation
//! repro ablations      align-width / bias-bits / path-split ablations
//! repro serve-faults   serving under escalating fault injection
//! ```
//!
//! Plus two non-paper maintenance commands:
//!
//! ```text
//! repro pack [--out PATH] [--verify]
//! repro features [--archive PATH]
//! ```
//!
//! `pack` writes the deterministic smoke model's weight planes into an
//! archive-v2 file; `--verify` maps the archive back, scrubs every plane
//! and tile digest, reloads the transformer from it, and re-runs the
//! forward pass off the mapped planes bit-for-bit against the exact engine
//! — the CI serving-cold-start gate.
//!
//! `features` prints the detected CPU features, the kernel tier each
//! microkernel entry point dispatches to, and the effective `OWLP_SIMD` /
//! `OWLP_THREADS` overrides; with `--archive PATH` it also scrubs that
//! archive-v2 file (whole-plane and per-tile CRC32C digests) and reports
//! what it verified.
//!
//! `repro serve-faults --json PATH` writes the fault sweep as JSON to
//! `PATH` and exits nonzero when the integrity gate fails (an SDC escaped
//! into a delivered response under the full detector configuration) —
//! the machine-readable form CI diffs across thread budgets.
//!
//! `repro roofline --smoke` shortens the co-simulated generation tail so
//! CI can gate on the phase verdicts cheaply.

use owlp_bench::{
    ablation, batch_sweep, dse_exp, eq34, fig1, fig10, fig11, fig8, fig9, roofline_exp, serve_exp,
    serve_faults_exp, serving_exp, table1, table2, table3, table4, table5, SEED,
};

/// One experiment's result: the JSON value `--json` prints and the text
/// table printed otherwise.
type Output = (serde_json::Value, String);

/// Runs an experiment once; the flag is `--smoke`.
type Experiment = fn(bool) -> Output;

/// Pairs an experiment's result with its rendering.
fn output<T: serde::Serialize>(result: T, render: fn(&T) -> String) -> Output {
    let json = serde_json::to_value(&result);
    (json, render(&result))
}

/// Every experiment `repro all` runs, in order.
const EXPERIMENTS: [(&str, Experiment); 18] = [
    ("table1", |_| output(table1::run(SEED), table1::render)),
    ("table2", |_| output(table2::run(SEED), table2::render)),
    ("fig1", |_| output(fig1::run(SEED), fig1::render)),
    ("fig8", |_| output(fig8::run(SEED, 2), fig8::render)),
    ("table3", |_| output(table3::run(SEED), table3::render)),
    ("table4", |_| output(table4::run(SEED), table4::render)),
    ("fig9", |_| output(fig9::run(), fig9::render)),
    ("fig10", |_| output(fig10::run(SEED), fig10::render)),
    ("table5", |_| output(table5::run(), table5::render)),
    ("fig11", |_| output(fig11::run(), fig11::render)),
    ("eq34", |_| output(eq34::run(SEED), eq34::render)),
    ("ablations", |_| {
        let (align, window, paths, blocks, blockfp) = (
            ablation::align_width(SEED),
            ablation::window_width(SEED),
            ablation::path_split(),
            ablation::block_size(SEED),
            ablation::blockfp_sweep(SEED),
        );
        let text = format!(
            "{}\n{}\n{}\n{}\n{}",
            ablation::render_align(&align),
            ablation::render_window(&window),
            ablation::render_paths(&paths),
            ablation::render_blocks(&blocks),
            ablation::render_blockfp(&blockfp)
        );
        let json = serde_json::json!({
            "align_width": align,
            "window_width": window,
            "path_split": paths,
            "block_size": blocks,
            "blockfp_sweep": blockfp,
        });
        (json, text)
    }),
    ("roofline", |smoke| {
        output(roofline_exp::run_with(smoke), roofline_exp::render)
    }),
    ("batch", |_| output(batch_sweep::run(), batch_sweep::render)),
    ("serving", |_| {
        output(serving_exp::run(), serving_exp::render)
    }),
    ("serve", |_| output(serve_exp::run(), serve_exp::render)),
    ("serve-faults", |_| {
        output(serve_faults_exp::run(), serve_faults_exp::render)
    }),
    ("dse", |_| output(dse_exp::run(), dse_exp::render)),
];

/// `repro pack [--out PATH] [--verify]` — the offline half of the serving
/// cold start: write the deterministic smoke model's weight planes into an
/// archive-v2 file. With `--verify`, map the archive back, scrub every
/// plane and tile digest, reload the transformer from it, and re-run the
/// forward pass off the mapped planes bit-for-bit against the exact engine.
fn run_pack(args: &[String]) {
    use owlp_core::{GemmEngine, TinyConfig, TinyTransformer};
    use owlp_model::ModelId;

    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("model.owl2", String::as_str);
    let verify = args.iter().any(|a| a == "--verify");

    let cfg = TinyConfig::small();
    let model = TinyTransformer::new(cfg, ModelId::Gpt2Base, SEED);
    let summary = match model.save_archive(std::path::Path::new(out)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot pack {out}: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "packed {} tensor{} into {out}: {} bytes, peak {} bytes",
        summary.tensors,
        if summary.tensors == 1 { "" } else { "s" },
        summary.file_len,
        summary.peak_alloc
    );
    if !verify {
        return;
    }

    scrub_archive(out);

    // The end-to-end gate: a transformer rebuilt from the mapped archive
    // must equal the model that wrote it, and its OwL-P forward pass must
    // reproduce the exact engine's bits.
    let loaded = match TinyTransformer::from_archive(cfg, std::path::Path::new(out)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot reload {out}: {e}");
            std::process::exit(1);
        }
    };
    if loaded != model {
        eprintln!("error: the reloaded transformer differs from the packed one");
        std::process::exit(1);
    }
    let x: Vec<owlp_format::Bf16> = (0..cfg.seq * cfg.hidden)
        .map(|i| owlp_format::Bf16::from_f32(((i % 13) as f32 - 6.0) * 0.125))
        .collect();
    let owlp = loaded
        .forward(&x, GemmEngine::Owlp)
        .expect("finite forward");
    let exact = loaded
        .forward(&x, GemmEngine::Exact)
        .expect("finite forward");
    let identical = owlp
        .output
        .iter()
        .zip(&exact.output)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    if !identical {
        eprintln!("error: the mapped forward pass diverged from the exact engine");
        std::process::exit(1);
    }
    println!("verify: mapped forward pass bit-identical to the exact engine");
}

/// `repro features [--archive PATH]` — print the detected CPU features,
/// the kernel tier each microkernel entry point dispatches to, and the
/// effective environment overrides, so a bench or CI log can be
/// interpreted without re-deriving what the host supports. With
/// `--archive`, scrub that archive-v2 file's digests and report the
/// verified plane/tile counts.
fn run_features(args: &[String]) {
    use owlp_arith::microkernel;
    let features = microkernel::detected_features();
    let tiers: Vec<&str> = microkernel::available_tiers()
        .iter()
        .map(|t| t.name())
        .collect();
    println!("cpu features : {}", features.join(" "));
    println!("kernel tiers : {}", tiers.join(" "));
    println!("selected tier: {}", microkernel::selected_tier());
    println!("entry points :");
    let entries = microkernel::entry_point_tiers();
    let width = entries
        .iter()
        .map(|(entry, _)| entry.len())
        .max()
        .unwrap_or(0);
    for (entry, tier) in entries {
        println!("  {entry:<width$} {tier}");
    }
    let env_of = |k: &str| std::env::var(k).unwrap_or_else(|_| "(unset)".into());
    println!(
        "{:<13}: {}",
        microkernel::ENV_SIMD,
        env_of(microkernel::ENV_SIMD)
    );
    println!(
        "{:<13}: {}",
        owlp_par::ENV_THREADS,
        env_of(owlp_par::ENV_THREADS)
    );
    println!("threads      : {}", owlp_par::thread_budget());
    if let Some(path) = args
        .iter()
        .position(|a| a == "--archive")
        .and_then(|i| args.get(i + 1))
    {
        scrub_archive(path);
    }
}

/// Scrubs the archive-v2 file at `path` (whole-plane and per-tile CRC32C
/// digests) and prints what it verified; exits 2 if the file does not
/// open and 1 if a digest fails.
fn scrub_archive(path: &str) {
    match owlp_format::MappedArchive::open(std::path::Path::new(path)) {
        Ok(archive) => match archive.verify() {
            Ok(report) => println!(
                "archive      : {path} ok — {} tensors, {} planes, {} tiles verified (mmap {})",
                report.tensors,
                report.planes,
                report.tiles,
                archive.was_mapped()
            ),
            Err(e) => {
                eprintln!("error: archive {path} failed its digest scrub: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("error: cannot open archive {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// `repro serve-faults --json PATH` — write the fault sweep as JSON and
/// enforce the serving-layer integrity gate.
fn run_serve_faults_json(path: &str) {
    let sweep = serve_faults_exp::run();
    // Same `{experiment, result}` envelope as the stdout `--json` path.
    let json = serde_json::to_string_pretty(
        &serde_json::json!({ "experiment": "serve-faults", "result": &sweep }),
    )
    .expect("sweep serializes");
    if let Err(e) = std::fs::write(path, json + "\n") {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {path}");
    let violations = serve_faults_exp::gate(&sweep);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("error: {v}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `serve-faults --json PATH` (with a path operand) writes the gated
    // machine-readable sweep; bare `--json` keeps the stdout behaviour.
    // Checked before the global `--json` strip so the path survives.
    if args.first().map(String::as_str) == Some("serve-faults") {
        if let Some(path) = args
            .iter()
            .position(|a| a == "--json")
            .and_then(|i| args.get(i + 1))
            .filter(|p| !p.starts_with('-'))
        {
            run_serve_faults_json(path);
            return;
        }
    }
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    if args.first().map(String::as_str) == Some("pack") {
        run_pack(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("features") {
        run_features(&args[1..]);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let names = || {
        EXPERIMENTS
            .iter()
            .map(|&(name, _)| name)
            .collect::<Vec<_>>()
            .join("|")
    };
    let targets = match args.first().map(String::as_str) {
        None | Some("all") => EXPERIMENTS.to_vec(),
        Some("--help") | Some("-h") => {
            eprintln!(
                "usage: repro [all|{}] [--json] [--smoke]\n       repro pack [--out PATH] [--verify]\n       repro features [--archive PATH]\n       repro serve-faults --json PATH",
                names()
            );
            return;
        }
        Some(name) => match EXPERIMENTS.iter().find(|&&(n, _)| n == name) {
            Some(&experiment) => vec![experiment],
            None => {
                eprintln!("error: unknown experiment '{name}'");
                eprintln!("usage: repro [all|{}] [--json]", names());
                std::process::exit(2);
            }
        },
    };
    for (i, (name, run)) in targets.into_iter().enumerate() {
        let (value, text) = run(smoke);
        if json {
            let envelope = serde_json::json!({ "experiment": name, "result": value });
            println!(
                "{}",
                serde_json::to_string_pretty(&envelope).expect("JSON values serialize")
            );
        } else {
            if i > 0 {
                println!("\n{}\n", "=".repeat(78));
            }
            println!("{text}");
        }
    }
}
