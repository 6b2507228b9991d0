//! Benchmark of the OwL-P forward pass and weight archive: four
//! workloads, end-to-end metrics from an untraced run, per-layer metrics
//! from a traced replay. See `README.md` for what each number means.

mod host;
mod model;
mod report;
mod stats;
mod trace;
mod workload;

use report::{agree, spec, RunReport, WorkloadReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::str::FromStr;
use workload::{Kind, Opts, WORKLOADS};

/// Seed of `run` and `trace` when none is given.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 0.3;
/// Range `core.span_coverage` must fall in on the forward workloads for
/// `trace` to pass: the replay must account for the black-box time.
const COVERAGE: std::ops::RangeInclusive<f64> = 0.95..=1.05;

const USAGE: &str = "usage:
  owlp-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--report PATH]
  owlp-benchmark run   [--seed N] [--runs N] [--seconds S] [--smoke] [--out PATH]
  owlp-benchmark trace [--seed N] [--runs N] [--seconds S] [--smoke] [--out PATH]
  owlp-benchmark agree A.json B.json";

/// An exit code and the reason for it.
struct Exit(u8, String);

fn usage(msg: impl Into<String>) -> Exit {
    Exit(2, format!("{}\n{USAGE}", msg.into()))
}

fn failed(msg: impl std::fmt::Display) -> Exit {
    Exit(1, msg.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite(&args[1..], false),
        Some("trace") => suite(&args[1..], true),
        Some("agree") => compare(&args[1..]),
        Some(_) => single(&args),
        None => Err(usage("no command given")),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(Exit(code, msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(code)
        }
    }
}

/// Parses `--flag value` pairs and bare `--switch`es.
fn flags(
    args: &[String],
    valued: &[&str],
    bare: &[&str],
) -> Result<BTreeMap<String, String>, Exit> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = if bare.contains(&a.as_str()) {
            String::new()
        } else if valued.contains(&a.as_str()) {
            it.next()
                .ok_or_else(|| usage(format!("{a} needs a value")))?
                .clone()
        } else {
            return Err(usage(format!("unknown argument {a}")));
        };
        out.insert(a.clone(), value);
    }
    Ok(out)
}

fn num<T: FromStr>(f: &BTreeMap<String, String>, key: &str, default: T) -> Result<T, Exit> {
    match f.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| usage(format!("{key} {v} is not a number"))),
    }
}

/// Refuses to run under any `OWLP_*` override, so that every run of
/// every commit measures the same configuration.
fn check_env() -> Result<(), Exit> {
    let set = host::owlp_env();
    if set.is_empty() {
        Ok(())
    } else {
        Err(Exit(
            2,
            format!(
                "unset {} first: they change which kernels run",
                set.join(", ")
            ),
        ))
    }
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), Exit> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(failed)?;
    }
    let text = serde_json::to_string_pretty(value).map_err(failed)?;
    std::fs::write(path, text).map_err(|e| failed(format!("{}: {e}", path.display())))
}

fn read_json<T: for<'de> serde::Deserialize<'de>>(path: &Path) -> Result<T, Exit> {
    let text =
        std::fs::read_to_string(path).map_err(|e| failed(format!("{}: {e}", path.display())))?;
    serde_json::from_str(&text).map_err(|e| failed(format!("{}: {e}", path.display())))
}

/// One workload in this process: prints its metrics and, as the last line
/// of standard output, the result line. Exits 1 if any request failed.
fn single(args: &[String]) -> Result<u8, Exit> {
    let f = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--report"],
        &["--smoke"],
    )?;
    check_env()?;
    let name = f
        .get("--workload")
        .ok_or_else(|| usage("--workload is required"))?;
    let w = workload::find(name).ok_or_else(|| usage(format!("no workload {name}")))?;
    let trace = match f.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(usage(format!("--trace {v} is not 0 or 1"))),
    };
    let opts = Opts {
        seed: num(&f, "--seed", DEFAULT_SEED)?,
        seconds: num(&f, "--seconds", spec().run_seconds as f64)?,
        trace,
        smoke: f.contains_key("--smoke"),
    };
    host::sweep_stale_archives();
    let (mut report, spans) =
        workload::run(w, &opts).map_err(|e| failed(format!("{}: {e}", w.name)))?;
    if trace {
        // Spans go to a file of their own, so that reading a report back
        // never parses them.
        let spans_file = host::work_dir().join(format!("spans-{}.json", w.name));
        write_json(&spans_file, &spans)?;
        report.spans_file = Some(spans_file.display().to_string());
    }
    let mode = if trace { "trace" } else { "run" };
    let path = f
        .get("--report")
        .map(PathBuf::from)
        .unwrap_or_else(|| host::work_dir().join(format!("last-{}-{mode}.json", w.name)));
    write_json(&path, &report)?;
    for (k, m) in &report.metrics {
        eprintln!(
            "{:<14} {:<26} {:>14.6} {:<10} n={}",
            w.name, k, m.value, m.unit, m.n
        );
    }
    let line = serde_json::to_string(&report.line()).map_err(failed)?;
    println!("{line}");
    Ok(if report.failed == 0 { 0 } else { 1 })
}

/// `--runs` rounds over every workload, each run in a child process of
/// its own; prints the metrics with their spread and writes the combined
/// report.
fn suite(args: &[String], traced: bool) -> Result<u8, Exit> {
    let f = flags(
        args,
        &["--seed", "--runs", "--seconds", "--out"],
        &["--smoke"],
    )?;
    check_env()?;
    let seed = num(&f, "--seed", DEFAULT_SEED)?;
    let runs = num(&f, "--runs", 1usize)?.max(1);
    let smoke = f.contains_key("--smoke");
    let seconds = num(
        &f,
        "--seconds",
        if smoke {
            SMOKE_SECONDS
        } else {
            spec().run_seconds as f64
        },
    )?;
    let mode = if traced { "trace" } else { "run" };
    let out = f
        .get("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| host::work_dir().join(format!("{mode}-seed{seed}.json")));
    let exe = std::env::current_exe().map_err(failed)?;
    let mut ok = true;
    let mut workloads = Vec::new();
    // Rounds go over every workload in turn, so that a slow phase of the
    // host does not fall on one workload's runs alone.
    for w in (0..runs).flat_map(|_| &WORKLOADS) {
        let child_report =
            host::work_dir().join(format!("child-{}-{}.json", w.name, std::process::id()));
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }, "--report"])
        .arg(&child_report)
        .stdout(Stdio::null());
        if smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(failed)?;
        ok &= status.success();
        match read_json::<WorkloadReport>(&child_report) {
            Ok(r) => workloads.push(r),
            Err(Exit(_, msg)) => eprintln!("error: {} wrote no report ({status}): {msg}", w.name),
        }
        let _ = std::fs::remove_file(&child_report);
    }
    let run = RunReport {
        mode: mode.to_string(),
        seed,
        workloads,
    };
    print_table(&run, traced);
    if traced {
        for r in &run.workloads {
            let forward = workload::find(&r.workload).is_some_and(|w| w.kind == Kind::Forward);
            let cov = r.metrics["core.span_coverage"].value;
            if forward && !smoke && !COVERAGE.contains(&cov) {
                eprintln!(
                    "error: {} core.span_coverage {cov:.4} is outside {COVERAGE:?}",
                    r.workload
                );
                ok = false;
            }
        }
    }
    write_json(&out, &run)?;
    eprintln!("wrote {}", out.display());
    Ok(if ok && run.workloads.len() == runs * WORKLOADS.len() {
        0
    } else {
        1
    })
}

fn print_table(run: &RunReport, traced: bool) {
    let declared = if traced {
        &spec().per_layer
    } else {
        &spec().end_to_end
    };
    println!(
        "{:<13} {:<26} {:<11} {:>14} {:>5} {:>14} {:>14} {:>14}",
        "workload", "metric", "unit", "value", "n", "median", "q1", "q3"
    );
    for r in &run.workloads {
        for d in declared {
            if let Some(m) = r.metrics.get(&d.name) {
                println!(
                    "{:<13} {:<26} {:<11} {:>14.6} {:>5} {:>14.6} {:>14.6} {:>14.6}",
                    r.workload, d.name, m.unit, m.value, m.n, m.median, m.q1, m.q3
                );
            }
        }
        println!(
            "{:<13} attempted {} failed {} timed {} latency tail p{}",
            r.workload,
            r.attempted,
            r.failed,
            r.latency_s.len(),
            stats::tail_percentile(r.latency_s.len()).map_or("-".to_string(), |p| p.to_string())
        );
    }
}

/// Prints, for each end-to-end metric of each workload, its median over
/// the runs of each report and whether the two agree within the metric's
/// bound. Exits 1 on any disagreement.
fn compare(args: &[String]) -> Result<u8, Exit> {
    let [a, b] = args else {
        return Err(usage("agree takes two report paths"));
    };
    let (a, b): (RunReport, RunReport) = (read_json(Path::new(a))?, read_json(Path::new(b))?);
    let rows = agree(&a, &b);
    println!(
        "{:<13} {:<16} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "a", "b", "b/a-1", "bound"
    );
    for r in &rows {
        println!(
            "{:<13} {:<16} {:>14.6} {:>14.6} {:>7.2}% {:>5.1}% {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            (r.b / r.a - 1.0) * 100.0,
            r.bound * 100.0,
            if r.agrees { "agree" } else { "DISAGREE" }
        );
    }
    let ok = !rows.is_empty() && rows.iter().all(|r| r.agrees);
    Ok(if ok { 0 } else { 1 })
}
