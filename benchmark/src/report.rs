//! Report types, the metric catalogue in `BENCHMARK.json`, and the
//! comparison of two reports.

use crate::host::Host;
use crate::stats::Summary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One measured metric with its spread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The reported value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` names it.
    pub unit: String,
    /// Samples the value is computed from.
    pub n: usize,
    /// First quartile, in the metric's unit.
    pub q1: f64,
    /// Median, in the metric's unit.
    pub median: f64,
    /// Third quartile, in the metric's unit.
    pub q3: f64,
}

impl Metric {
    /// A value computed once, without a spread.
    pub fn single(value: f64, unit: &str) -> Metric {
        Metric {
            value,
            unit: unit.to_string(),
            n: 1,
            q1: value,
            median: value,
            q3: value,
        }
    }

    /// The median of `samples` scaled by `scale`.
    pub fn median_of(samples: &[f64], scale: f64, unit: &str) -> Metric {
        let s = Summary::of(samples);
        Metric {
            value: s.median * scale,
            unit: unit.to_string(),
            n: s.n,
            q1: s.q1 * scale,
            median: s.median * scale,
            q3: s.q3 * scale,
        }
    }

    /// `work` divided by the median of the `secs` samples; the quartiles
    /// are `work` over the opposite quartiles of `secs`.
    pub fn rate(work: f64, secs: &[f64], unit: &str) -> Metric {
        let s = Summary::of(secs);
        Metric {
            value: work / s.median,
            unit: unit.to_string(),
            n: s.n,
            q1: work / s.q3,
            median: work / s.median,
            q3: work / s.q1,
        }
    }
}

/// Shape and size of what a workload ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Shape {
    /// Model whose profiles drew the weights and inputs.
    pub model: String,
    /// Tokens per request.
    pub seq: usize,
    /// Model width.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN width.
    pub ffn: usize,
    /// Layers.
    pub layers: usize,
    /// Weights in the archive.
    pub weights: usize,
    /// Archive size in bytes.
    pub archive_bytes: u64,
}

/// Everything one workload run measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were drawn from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Whether the smoke shapes ran.
    pub smoke: bool,
    /// What ran.
    pub shape: Shape,
    /// The host.
    pub host: Host,
    /// Requests (or cycles) sent, warm-up and traced replays included.
    pub attempted: u64,
    /// Requests that returned an error or any output bit that differs
    /// from the Exact engine.
    pub failed: u64,
    /// Every timed black-box request latency, in seconds, in order.
    pub latency_s: Vec<f64>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Where the traced run wrote its spans.
    pub spans_file: Option<String>,
}

/// The workload reports of one `run` or `trace` invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// `run` or `trace`.
    pub mode: String,
    /// Seed of every workload.
    pub seed: u64,
    /// One report per workload.
    pub workloads: Vec<WorkloadReport>,
}

/// A value and its unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The one-line result printed last on standard output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Line {
    /// No request failed.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// Every metric of the run, by name.
    pub metrics: BTreeMap<String, Reading>,
}

impl WorkloadReport {
    /// The result line of this report.
    pub fn line(&self) -> Line {
        Line {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .metrics
                .iter()
                .map(|(k, m)| {
                    let r = Reading {
                        value: m.value,
                        unit: m.unit.clone(),
                    };
                    (k.clone(), r)
                })
                .collect(),
        }
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// A workload as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecWorkload {
    /// Workload name.
    pub name: String,
    /// Why the workload exists.
    pub why: String,
}

/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<SpecWorkload>,
    /// Metrics the untraced run reports.
    pub end_to_end: Vec<SpecMetric>,
    /// Metrics the traced run reports.
    pub per_layer: Vec<SpecMetric>,
}

impl Spec {
    /// The unit of metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `BENCHMARK.json` does not declare `name`.
    pub fn unit(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
            .unwrap_or_else(|| panic!("metric {name} is not declared in BENCHMARK.json"))
    }
}

/// The `BENCHMARK.json` this binary was built with.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    })
}

/// One (metric, workload) comparison of two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Agreement {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median over the first report's runs.
    pub a: f64,
    /// Median over the second report's runs.
    pub b: f64,
    /// The metric's bound.
    pub bound: f64,
    /// `|b / a - 1| <= bound`.
    pub agrees: bool,
}

/// Median of metric `name` over the runs of `workload` in `r`.
fn median_over_runs(r: &RunReport, workload: &str, name: &str) -> Option<f64> {
    let v: Vec<f64> = r
        .workloads
        .iter()
        .filter(|w| w.workload == workload)
        .filter_map(|w| w.metrics.get(name).map(|m| m.value))
        .collect();
    (!v.is_empty()).then(|| Summary::median(&v))
}

/// Compares every end-to-end metric of every workload present in both
/// reports. A pair agrees when the medians over each report's runs differ
/// by at most the metric's bound, in either direction.
pub fn agree(a: &RunReport, b: &RunReport) -> Vec<Agreement> {
    let mut out = Vec::new();
    for w in spec().workloads.iter().map(|w| w.name.as_str()) {
        for m in &spec().end_to_end {
            let (Some(ma), Some(mb)) = (
                median_over_runs(a, w, &m.name),
                median_over_runs(b, w, &m.name),
            ) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics declare a bound");
            out.push(Agreement {
                workload: w.to_string(),
                metric: m.name.clone(),
                a: ma,
                b: mb,
                bound,
                agrees: (mb / ma - 1.0).abs() <= bound,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(name: &str, tok_s: f64) -> WorkloadReport {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "tok_s".to_string(),
            Metric::rate(64.0, &[0.5, 0.25, 0.4], "tok/s"),
        );
        metrics.get_mut("tok_s").unwrap().value = tok_s;
        metrics.insert("peak_rss_mb".to_string(), Metric::single(88.5, "MB"));
        WorkloadReport {
            workload: name.to_string(),
            seed: 7,
            traced: false,
            smoke: false,
            shape: Shape {
                model: "BertBase".to_string(),
                seq: 64,
                hidden: 768,
                heads: 12,
                ffn: 3072,
                layers: 1,
                weights: 7_077_888,
                archive_bytes: 50_000_000,
            },
            host: Host::fingerprint(4096),
            attempted: 103,
            failed: 0,
            latency_s: vec![0.25, 0.5, 0.4],
            metrics,
            spans_file: Some("benchmark/.work/spans-prefill.json".to_string()),
        }
    }

    #[test]
    fn report_json_round_trips() {
        let r = RunReport {
            mode: "run".to_string(),
            seed: 7,
            workloads: vec![sample_report("prefill", 171.123_456_789)],
        };
        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: RunReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
        let line = serde_json::to_string(&r.workloads[0].line()).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":103,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"tok_s\":{\"value\":171.123456789,\"unit\":\"tok/s\"}"));
    }

    #[test]
    fn rates_invert_the_quartiles() {
        let m = Metric::rate(10.0, &[1.0, 2.0, 4.0, 5.0, 10.0], "1/s");
        assert_eq!((m.q1, m.median, m.q3, m.n), (2.0, 2.5, 5.0, 5));
    }

    #[test]
    fn agreement_is_within_the_bound_both_ways() {
        let bound = spec()
            .end_to_end
            .iter()
            .find(|m| m.name == "tok_s")
            .unwrap()
            .bound
            .unwrap();
        let a = RunReport {
            mode: "run".to_string(),
            seed: 1,
            workloads: vec![sample_report("prefill", 100.0)],
        };
        let mut b = a.clone();
        for (scale, agrees) in [
            (1.0 + bound * 0.9, true),
            (1.0 - bound * 0.9, true),
            (1.0 + bound * 1.1, false),
            (1.0 - bound * 1.1, false),
        ] {
            b.workloads[0].metrics.get_mut("tok_s").unwrap().value = 100.0 * scale;
            let out = agree(&a, &b);
            let tok = out.iter().find(|x| x.metric == "tok_s").unwrap();
            assert_eq!(tok.agrees, agrees, "scale {scale}");
            assert!(
                out.iter()
                    .find(|x| x.metric == "peak_rss_mb")
                    .unwrap()
                    .agrees
            );
        }
        // With several runs per workload, each side is the median run.
        let mut many = a.clone();
        for v in [60.0, 100.0, 1000.0] {
            many.workloads.push(sample_report("prefill", v));
        }
        let out = agree(&a, &many);
        assert_eq!(out.len(), 2);
        assert_eq!(out.iter().find(|x| x.metric == "tok_s").unwrap().b, 100.0);
    }
}
