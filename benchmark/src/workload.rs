//! The four workloads and how one run of each is measured.
//!
//! Every workload is a closed loop from one client thread: the next
//! request is sent when the previous one returns, and the `owlp-par`
//! pool fans each GEMM out over the host's cores. Every output is checked
//! bit for bit against the Exact engine's, computed once per distinct
//! input before anything is timed.

use crate::host::{peak_rss_mb, release_free_heap, reset_peak_rss, Host, TempArchive};
use crate::model::{digest, generate_inputs, generate_weights, pack, weight_count, Replay, Tensor};
use crate::report::{spec, Metric, Shape, WorkloadReport};
use crate::stats::Summary;
use crate::trace::{RequestTotals, Span, Tracer};
use owlp_core::{ForwardTrace, GemmEngine, TinyConfig, TinyTransformer};
use owlp_format::Bf16;
use owlp_model::ModelId;
use std::collections::BTreeMap;
use std::error::Error;
use std::time::Instant;

/// What a request of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One forward pass over a model loaded once in set-up.
    Forward,
    /// Pack the weights to a new archive, load it with every digest
    /// verified, and run the first token.
    PackLoad,
}

impl Kind {
    /// Name of the root span of a traced request.
    fn root(self) -> &'static str {
        match self {
            Kind::Forward => "forward",
            Kind::PackLoad => "cycle",
        }
    }

    /// Name of the root span of a traced request on one thread.
    fn single_thread_root(self) -> &'static str {
        match self {
            Kind::Forward => "forward-1t",
            Kind::PackLoad => "cycle-1t",
        }
    }
}

/// A workload: a model shape, whose profiles draw the weights and
/// inputs, and a request kind.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Model whose WikiText2 profiles draw weights and inputs.
    pub model: ModelId,
    /// Request kind.
    pub kind: Kind,
    /// The measured shape.
    pub full: TinyConfig,
    /// A tiny shape through the same code, for `--smoke`.
    pub smoke: TinyConfig,
}

const fn cfg(seq: usize, hidden: usize, heads: usize, ffn: usize, layers: usize) -> TinyConfig {
    TinyConfig {
        seq,
        hidden,
        heads,
        ffn,
        layers,
    }
}

/// The workloads, in `BENCHMARK.json` order. Why each exists is stated
/// there and in the README.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "prefill",
        model: ModelId::BertBase,
        kind: Kind::Forward,
        full: cfg(64, 768, 12, 3072, 1),
        smoke: cfg(8, 32, 4, 64, 1),
    },
    Workload {
        name: "decode",
        model: ModelId::Llama2_7b,
        kind: Kind::Forward,
        full: cfg(1, 768, 6, 2064, 1),
        smoke: cfg(1, 64, 4, 96, 1),
    },
    Workload {
        name: "long_context",
        model: ModelId::Gpt2Base,
        kind: Kind::Forward,
        full: cfg(512, 128, 2, 512, 1),
        smoke: cfg(32, 16, 2, 32, 1),
    },
    Workload {
        name: "pack_load",
        model: ModelId::BertBase,
        kind: Kind::PackLoad,
        full: cfg(1, 768, 12, 3072, 1),
        smoke: cfg(1, 32, 4, 64, 2),
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How one run is made.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed of the weights and inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Replay requests with spans instead of reporting end-to-end
    /// numbers.
    pub trace: bool,
    /// Run the smoke shape.
    pub smoke: bool,
}

/// Distinct inputs, sent round-robin.
const INPUTS: usize = 4;
/// Rounds the measured window is split into, each opened by a burst of
/// set-up loads. The host's speed drifts over tens of seconds, so loads
/// spread over the whole run give a steadier `setup_s` than loads made
/// at one moment of it.
const ROUNDS: usize = 5;
/// Untimed requests before the first round.
const WARMUP: usize = 3;
/// Untimed requests after each later burst of loads, which evicts the
/// caches the requests had filled.
const REWARM: usize = 1;
/// Set-up loads per burst: at least [`SETUP_LOADS`], continuing until
/// [`SETUP_BURST_SECS`] have passed or [`SETUP_LOADS_MAX`] were made, so
/// the median of a fast load rests on many samples.
const SETUP_LOADS: usize = 1;
const SETUP_BURST_SECS: f64 = 0.2;
const SETUP_LOADS_MAX: usize = 200;
/// Timed requests a traced run pairs with a replay: the first ones of the
/// window. A cap keeps the spans of a fast workload to a few MB.
const TRACED_REPLAYS: usize = 100;
/// Traced replays under a one-thread budget, after the window.
const SINGLE_THREAD_REPLAYS: usize = 5;

type BoxError = Box<dyn Error>;

/// Attempted and failed requests.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            if self.failed == 0 {
                eprintln!("error: {what} output differs from the Exact engine or failed");
            }
            self.failed += 1;
        }
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether final hidden states and every GEMM output match `want` bit
/// for bit.
fn matches(output: &[f32], gemms: &[Vec<f32>], want: &ForwardTrace) -> bool {
    same_bits(output, &want.output)
        && gemms.len() == want.gemm_outputs.len()
        && gemms
            .iter()
            .zip(&want.gemm_outputs)
            .all(|(a, b)| same_bits(a, b))
}

fn forward_ok<E>(out: &Result<ForwardTrace, E>, want: &ForwardTrace) -> bool {
    out.as_ref()
        .is_ok_and(|t| matches(&t.output, &t.gemm_outputs, want))
}

fn replay_ok<E>(out: &Result<(Vec<f32>, Vec<Vec<f32>>), E>, want: &ForwardTrace) -> bool {
    out.as_ref().is_ok_and(|(o, g)| matches(o, g, want))
}

/// Whether loaded weights match the digests of the generated ones.
fn same_weights(values: &[Vec<Bf16>], digests: &[u64]) -> bool {
    values.len() == digests.len() && values.iter().zip(digests).all(|(v, &d)| digest(v) == d)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The archive set-up wrote.
struct Packed {
    archive: TempArchive,
    stream_peak: usize,
    digests: Vec<u64>,
}

/// Packs the weights to a fresh archive.
fn pack_setup(name: &str, weights: &[Tensor], tr: &mut Tracer) -> Result<Packed, BoxError> {
    let archive = TempArchive::new(name)?;
    let summary = tr.request("pack", |tr| pack(weights, archive.path(), tr))?;
    Ok(Packed {
        archive,
        stream_peak: summary.peak_alloc,
        digests: weights.iter().map(|t| digest(&t.data)).collect(),
    })
}

/// What set-up leaves for the measured window.
struct Setup {
    inputs: Vec<Vec<Bf16>>,
    refs: Vec<ForwardTrace>,
    archive_bytes: u64,
    packed: Packed,
}

/// A cold load of the set-up archive, and in a traced run its replay.
/// Declare it after the [`Setup`] whose archive it maps, so that it drops
/// first and the archive is unlinked only once no mapping of it is left.
struct Loaded {
    model: TinyTransformer,
    replay: Option<Replay>,
}

/// Draws the inputs, computes their reference outputs, and resets the
/// peak RSS.
fn prepare(w: &Workload, c: TinyConfig, o: &Opts, packed: Packed) -> Result<Setup, BoxError> {
    let path = packed.archive.path();
    let inputs = generate_inputs(w.model, c, o.seed, INPUTS);
    let refs = {
        let exact = TinyTransformer::from_archive(c, path)?;
        inputs
            .iter()
            .map(|x| exact.forward(x, GemmEngine::Exact))
            .collect::<Result<Vec<_>, _>>()?
    };
    release_free_heap();
    if !reset_peak_rss() {
        eprintln!("warning: cannot reset the peak RSS; peak_rss_mb includes set-up");
    }
    Ok(Setup {
        inputs,
        refs,
        archive_bytes: std::fs::metadata(path)?.len(),
        packed,
    })
}

/// A burst of cold loads of the set-up archive (`setup_s`), leaving the
/// last one in `slot`.
fn reload(
    c: TinyConfig,
    o: &Opts,
    s: &Setup,
    slot: &mut Option<Loaded>,
    load_s: &mut Vec<f64>,
    tr: &mut Tracer,
) -> Result<(), BoxError> {
    let path = s.packed.archive.path();
    let start = Instant::now();
    let mut loads = 0;
    while loads < SETUP_LOADS || (secs(start) < SETUP_BURST_SECS && loads < SETUP_LOADS_MAX) {
        // Drop the previous load first, so that the peak RSS holds one.
        drop(slot.take());
        let t = Instant::now();
        let model = TinyTransformer::from_archive(c, path)?;
        load_s.push(secs(t));
        let replay = if o.trace {
            let (r, values) = tr.request("load", |tr| Replay::load(c, path, tr))?;
            if !same_weights(&values, &s.packed.digests) {
                return Err("replayed load does not reproduce the packed weights".into());
            }
            Some(r)
        } else {
            None
        };
        *slot = Some(Loaded { model, replay });
        loads += 1;
    }
    Ok(())
}

/// One black-box pack → verified load → first token cycle.
fn cycle(
    c: TinyConfig,
    name: &str,
    weights: &[Tensor],
    x: &[Bf16],
    want: &ForwardTrace,
) -> Result<(bool, f64), BoxError> {
    let file = TempArchive::new(name)?;
    let t = Instant::now();
    let loaded = pack(weights, file.path(), &mut Tracer::new(false))
        .and_then(|_| TinyTransformer::from_archive(c, file.path()));
    let ok = match loaded {
        Ok(model) => forward_ok(&model.forward(x, GemmEngine::Owlp), want),
        Err(_) => false,
    };
    Ok((ok, secs(t)))
}

/// The same cycle through the traced replay.
#[allow(clippy::too_many_arguments)]
fn replay_cycle(
    c: TinyConfig,
    name: &str,
    weights: &[Tensor],
    x: &[Bf16],
    want: &ForwardTrace,
    digests: &[u64],
    tr: &mut Tracer,
    kind: &str,
) -> Result<bool, BoxError> {
    let file = TempArchive::new(name)?;
    let out = tr.request(kind, |tr| -> Result<_, BoxError> {
        pack(weights, file.path(), tr)?;
        let (replay, values) = Replay::load(c, file.path(), tr)?;
        Ok((values, replay_ok(&replay.forward(x, tr), want)))
    });
    Ok(out.is_ok_and(|(values, ok)| ok && same_weights(&values, digests)))
}

/// A request outside the tracer on the current load: whether its output
/// was correct, and its latency in seconds.
type BlackBox<'a> = dyn FnMut(&Loaded, usize) -> Result<(bool, f64), BoxError> + 'a;
/// The same request replayed under spans, as a request of the given kind.
type Traced<'a> = dyn FnMut(&Loaded, usize, &mut Tracer, &str) -> Result<bool, BoxError> + 'a;

/// What the measured window has gathered so far.
#[derive(Debug, Default)]
struct Window {
    tally: Tally,
    /// Black-box latencies; their count is the index of the next timed
    /// request, so inputs stay round-robin across rounds.
    latency_s: Vec<f64>,
}

/// One round of the measured window: untimed warm-up requests, then timed
/// requests for its share of `o.seconds`, at least one. A traced run
/// interleaves each of the first [`TRACED_REPLAYS`] black-box requests
/// with a replay of it, alternating which goes first so neither always
/// runs in the other's wake.
fn round(
    o: &Opts,
    kind: Kind,
    l: &Loaded,
    black_box: &mut BlackBox,
    traced: &mut Traced,
    tr: &mut Tracer,
    win: &mut Window,
) -> Result<(), BoxError> {
    let warmup = if win.latency_s.is_empty() {
        WARMUP
    } else {
        REWARM
    };
    for i in 0..warmup {
        win.tally.record(black_box(l, i)?.0, "warm-up request");
    }
    let first = win.latency_s.len();
    let start = Instant::now();
    while win.latency_s.len() == first || secs(start) < o.seconds / ROUNDS as f64 {
        let i = win.latency_s.len();
        let replay = o.trace && i < TRACED_REPLAYS;
        if replay && !i.is_multiple_of(2) {
            win.tally
                .record(traced(l, i, tr, kind.root())?, "traced replay");
        }
        let (ok, latency) = black_box(l, i)?;
        win.tally.record(ok, "request");
        win.latency_s.push(latency);
        if replay && i.is_multiple_of(2) {
            win.tally
                .record(traced(l, i, tr, kind.root())?, "traced replay");
        }
    }
    Ok(())
}

/// Runs workload `w` once.
///
/// # Errors
///
/// Set-up failures: the archive cannot be written or read, or the
/// reference forward pass fails. A request that fails is counted, not
/// returned.
/// Returns the report and, for a traced run, every span.
pub fn run(w: &Workload, o: &Opts) -> Result<(WorkloadReport, Vec<Span>), BoxError> {
    let c = if o.smoke { w.smoke } else { w.full };
    let host = Host::fingerprint(if o.smoke { 8 << 20 } else { 256 << 20 });
    let mut tr = Tracer::new(o.trace);
    let weights = generate_weights(w.model, c, o.seed);
    let packed = pack_setup(w.name, &weights, &mut tr)?;
    // Only a pack/load cycle needs the weights after packing.
    let weights = if w.kind == Kind::PackLoad {
        weights
    } else {
        drop(weights);
        Vec::new()
    };
    let s = prepare(w, c, o, packed)?;
    let (inputs, refs, digests) = (&s.inputs, &s.refs, &s.packed.digests);
    let job = |i: usize| (&inputs[i % INPUTS], &refs[i % INPUTS]);
    let (mut black_box, mut traced): (Box<BlackBox>, Box<Traced>) = match w.kind {
        Kind::Forward => (
            Box::new(|l, i| {
                let (x, want) = job(i);
                let t = Instant::now();
                let out = l.model.forward(x, GemmEngine::Owlp);
                let latency = secs(t);
                Ok((forward_ok(&out, want), latency))
            }),
            Box::new(|l, i, tr, kind| {
                let (x, want) = job(i);
                let r = l.replay.as_ref().expect("a traced run replays");
                Ok(replay_ok(&tr.request(kind, |tr| r.forward(x, tr)), want))
            }),
        ),
        Kind::PackLoad => (
            Box::new(|_, i| {
                let (x, want) = job(i);
                cycle(c, w.name, &weights, x, want)
            }),
            Box::new(|_, i, tr, kind| {
                let (x, want) = job(i);
                replay_cycle(c, w.name, &weights, x, want, digests, tr, kind)
            }),
        ),
    };
    let mut load_s = Vec::new();
    let mut win = Window::default();
    let mut loaded = None;
    for _ in 0..ROUNDS {
        reload(c, o, &s, &mut loaded, &mut load_s, &mut tr)?;
        let l = loaded.as_ref().expect("a burst loads at least once");
        round(o, w.kind, l, &mut black_box, &mut traced, &mut tr, &mut win)?;
    }
    if o.trace {
        let l = loaded.as_ref().expect("a burst loads at least once");
        for i in 0..SINGLE_THREAD_REPLAYS {
            let ok =
                owlp_par::with_threads(1, || traced(l, i, &mut tr, w.kind.single_thread_root()))?;
            win.tally.record(ok, "one-thread traced replay");
        }
    }
    drop(loaded);
    let Window { tally, latency_s } = win;
    let weights_n = weight_count(c);
    let metrics = if o.trace {
        per_layer(w.kind, &tr.requests(), &latency_s, &s, &host, weights_n)
    } else {
        end_to_end(c, &latency_s, &load_s)
    };
    let report = WorkloadReport {
        workload: w.name.to_string(),
        seed: o.seed,
        traced: o.trace,
        smoke: o.smoke,
        shape: Shape {
            model: format!("{:?}", w.model),
            seq: c.seq,
            hidden: c.hidden,
            heads: c.heads,
            ffn: c.ffn,
            layers: c.layers,
            weights: weights_n,
            archive_bytes: s.archive_bytes,
        },
        host,
        attempted: tally.attempted,
        failed: tally.failed,
        latency_s,
        metrics,
        spans_file: None,
    };
    Ok((report, tr.spans().to_vec()))
}

/// The untraced run's metrics.
fn end_to_end(c: TinyConfig, latency_s: &[f64], load_s: &[f64]) -> BTreeMap<String, Metric> {
    let unit = |name: &str| spec().unit(name);
    let p90 = Metric {
        value: Summary::of(latency_s).p90 * 1e3,
        ..Metric::median_of(latency_s, 1e3, unit("ms_p90"))
    };
    [
        (
            "tok_s",
            Metric::rate(c.seq as f64, latency_s, unit("tok_s")),
        ),
        ("ms_p90", p90),
        ("setup_s", Metric::median_of(load_s, 1.0, unit("setup_s"))),
        (
            "peak_rss_mb",
            Metric::single(peak_rss_mb().unwrap_or(f64::NAN), unit("peak_rss_mb")),
        ),
    ]
    .into_iter()
    .map(|(k, m)| (k.to_string(), m))
    .collect()
}

/// The traced run's metrics, from the spans and counters of its replays.
fn per_layer(
    kind: Kind,
    reqs: &[RequestTotals],
    latency_s: &[f64],
    s: &Setup,
    host: &Host,
    weights: usize,
) -> BTreeMap<String, Metric> {
    let main: Vec<&RequestTotals> = reqs.iter().filter(|r| r.kind == kind.root()).collect();
    let single: Vec<&RequestTotals> = reqs
        .iter()
        .filter(|r| r.kind == kind.single_thread_root())
        .collect();
    let span_ns = |r: &RequestTotals, name: &str| r.by_name.get(name).copied().unwrap_or(0) as f64;
    let one = |name: &'static str, v: f64| (name, Metric::single(v, spec().unit(name)));
    // Per-request milliseconds in spans called `span`, over every
    // full-budget request that made such a call.
    let ms = |name: &'static str, span: &str| {
        let v: Vec<f64> = reqs
            .iter()
            .filter(|r| r.kind != kind.single_thread_root())
            .filter_map(|r| r.by_name.get(span).map(|&ns| ns as f64 / 1e6))
            .collect();
        (name, Metric::median_of(&v, 1.0, spec().unit(name)))
    };
    // Counters are exact for a seed: average them over the first replay
    // of each distinct input.
    let count = |name: &str| {
        let first = &main[..main.len().min(INPUTS)];
        first
            .iter()
            .map(|r| r.counts.get(name).copied().unwrap_or(0) as f64)
            .sum::<f64>()
            / first.len() as f64
    };
    let median_ns = |rs: &[&RequestTotals], f: &dyn Fn(&RequestTotals) -> f64| {
        Summary::median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let kernel_ns =
        |r: &RequestTotals| span_ns(r, "arith.weight_kernel") + span_ns(r, "arith.attn_kernel");
    let weight_kernel_ns = median_ns(&main, &|r| span_ns(r, "arith.weight_kernel"));
    let attn_kernel_ns = median_ns(&main, &|r| span_ns(r, "arith.attn_kernel"));
    // Each replay ran next to one black-box request of the same input;
    // comparing within those pairs cancels drifts in host speed.
    let vs_black_box = |f: &dyn Fn(&RequestTotals) -> f64| {
        let ratios: Vec<f64> = main
            .iter()
            .zip(latency_s)
            .map(|(r, bb)| f(r) / (bb * 1e9))
            .collect();
        Summary::median(&ratios)
    };
    let threads = owlp_par::thread_budget() as f64;
    let speedup = median_ns(&single, &kernel_ns) / median_ns(&main, &kernel_ns);
    let macs = count("weight_macs") + count("attn_macs");
    let stream_gb_s = count("weight_panel_bytes") / weight_kernel_ns;
    let self_ms: Vec<f64> = main.iter().map(|r| r.self_ns as f64 / 1e6).collect();
    [
        ms("arith.weight_kernel_ms", "arith.weight_kernel"),
        one(
            "arith.weight_gmac_s",
            count("weight_macs") / weight_kernel_ns,
        ),
        ms("arith.attn_kernel_ms", "arith.attn_kernel"),
        one("arith.attn_gmac_s", count("attn_macs") / attn_kernel_ns),
        one("arith.outlier_products", count("outlier_products")),
        one("arith.outlier_share", count("outlier_products") / macs),
        one("arith.weight_stream_gb_s", stream_gb_s),
        one("arith.roof_frac", stream_gb_s / host.copy_gb_s),
        ms("format.round_ms", "format.round"),
        ms("format.encode_ms", "format.encode"),
        ms("format.decode_ms", "format.decode"),
        ms("format.attn_encode_ms", "format.attn_encode"),
        ms("format.attn_decode_ms", "format.attn_decode"),
        ms("format.attn_panels_ms", "format.attn_panels"),
        one("format.act_outliers", count("act_outliers")),
        ms("format.write_ms", "format.write"),
        one("format.stream_peak_mb", s.packed.stream_peak as f64 / 1e6),
        ms("format.open_ms", "format.open"),
        ms("format.verify_ms", "format.verify"),
        ms("format.bf16_ms", "format.bf16"),
        one(
            "format.bytes_per_weight",
            s.archive_bytes as f64 / weights as f64,
        ),
        ms("core.glue_ms", "core.glue"),
        (
            "core.self_ms",
            Metric::median_of(&self_ms, 1.0, spec().unit("core.self_ms")),
        ),
        one("par.threads", threads),
        one("par.kernel_speedup", speedup),
        one("par.efficiency", speedup / threads),
        one("core.span_coverage", vs_black_box(&|r| r.leaf_ns as f64)),
        one(
            "trace.overhead_frac",
            vs_black_box(&|r| r.total_ns as f64) - 1.0,
        ),
        one("host.copy_gb_s", host.copy_gb_s),
    ]
    .into_iter()
    .map(|(k, m)| (k.to_string(), m))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_match_benchmark_json() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let declared: Vec<&str> = spec().workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, declared);
    }

    /// Every workload's smoke shape runs untraced and traced, passes its
    /// bit-identity checks, and reports exactly the metrics
    /// `BENCHMARK.json` declares for that mode.
    #[test]
    fn smoke_runs_every_workload_in_both_modes() {
        for w in &WORKLOADS {
            for trace in [false, true] {
                let o = Opts {
                    seed: 5,
                    seconds: 0.05,
                    trace,
                    smoke: true,
                };
                let (r, spans) = run(w, &o).unwrap();
                assert_eq!(r.failed, 0, "{} trace={trace}", w.name);
                let timed = r.latency_s.len();
                assert!(r.attempted as usize > timed && timed >= ROUNDS);
                let declared = if trace {
                    &spec().per_layer
                } else {
                    &spec().end_to_end
                };
                let names: Vec<&String> = r.metrics.keys().collect();
                let mut want: Vec<&String> = declared.iter().map(|m| &m.name).collect();
                want.sort();
                assert_eq!(names, want, "{} trace={trace}", w.name);
                assert_eq!(spans.is_empty(), !trace);
                if !trace {
                    assert!(
                        r.metrics.values().all(|m| m.value > 0.0),
                        "{}: {:?}",
                        w.name,
                        r.metrics
                    );
                }
            }
        }
    }

    #[test]
    fn setup_keeps_its_archive_until_dropped() {
        let w = &WORKLOADS[0];
        let o = Opts {
            seed: 9,
            seconds: 0.0,
            trace: false,
            smoke: true,
        };
        let weights = generate_weights(w.model, w.smoke, o.seed);
        let mut tr = Tracer::new(false);
        let packed = pack_setup(w.name, &weights, &mut tr).unwrap();
        let s = prepare(w, w.smoke, &o, packed).unwrap();
        let (mut loaded, mut load_s) = (None, Vec::new());
        reload(w.smoke, &o, &s, &mut loaded, &mut load_s, &mut tr).unwrap();
        assert!(loaded.is_some() && load_s.len() >= SETUP_LOADS);
        let path = s.packed.archive.path().to_path_buf();
        drop(loaded);
        assert!(path.exists());
        drop(s);
        assert!(!path.exists());
    }
}
