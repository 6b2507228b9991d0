//! Outside-in spans: the benchmark times each layer's public calls from
//! its own code, keeps every span in memory, and writes them out at exit.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The enclosing span, `None` for a request's root.
    pub parent: Option<usize>,
    /// The request every span of one root shares.
    pub request: usize,
    /// `layer.call` name, e.g. `arith.weight_kernel`; a root is named
    /// after its request kind.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A tracer that is off runs every closure unchanged and
/// records nothing, so traced and untraced code paths are the same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Per-request counters, indexed by request.
    counts: Vec<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    /// A recording tracer when `on`, else one that records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Runs `f` as a new request whose root span is named `kind`.
    pub fn request<R>(&mut self, kind: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        assert!(self.open.is_empty(), "requests do not nest");
        self.counts.push(BTreeMap::new());
        self.span(kind, f)
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.counts.len() - 1,
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start = self.now();
        let out = f(self);
        let end = self.now();
        self.open.pop();
        let span = &mut self.spans[id];
        (span.start_ns, span.end_ns) = (start, end);
        out
    }

    /// Adds `value` to counter `name` of the current request.
    pub fn count(&mut self, name: &'static str, value: usize) {
        if let Some(c) = self.counts.last_mut() {
            *c.entry(name).or_default() += value as u64;
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-request totals, one per request root, in request order.
    pub fn requests(&self) -> Vec<RequestTotals> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push(s.id);
            }
        }
        let mut out: Vec<RequestTotals> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|root| RequestTotals {
                kind: root.name.clone(),
                total_ns: root.ns(),
                self_ns: self_time(root, children[root.id].iter().map(|&c| &self.spans[c])),
                leaf_ns: 0,
                by_name: BTreeMap::new(),
                counts: self.counts[root.request].clone(),
            })
            .collect();
        for s in self.spans.iter().filter(|s| s.parent.is_some()) {
            let r = &mut out[s.request];
            *r.by_name.entry(s.name.clone()).or_default() += s.ns();
            if children[s.id].is_empty() {
                r.leaf_ns += s.ns();
            }
        }
        out
    }
}

/// A span's duration minus the part of its interval that its children
/// cover.
pub fn self_time<'a>(span: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.ns() - covered
}

/// What one request's spans add up to.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTotals {
    /// The root span's name.
    pub kind: String,
    /// The root span's duration.
    pub total_ns: u64,
    /// The root span's self time.
    pub self_ns: u64,
    /// Summed duration of the request's spans that have no children.
    pub leaf_ns: u64,
    /// Summed duration per span name, the root excluded.
    pub by_name: BTreeMap<String, u64>,
    /// The request's counters.
    pub counts: BTreeMap<&'static str, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(0, None, 100, 200);
        assert_eq!(self_time(&root, [].iter()), 100);
        let disjoint = [span(1, Some(0), 110, 130), span(2, Some(0), 150, 160)];
        assert_eq!(self_time(&root, disjoint.iter()), 70);
        // Overlapping and out-of-range children are counted once and
        // clipped to the parent's interval.
        let messy = [
            span(1, Some(0), 150, 170),
            span(2, Some(0), 90, 120),
            span(3, Some(0), 160, 180),
            span(4, Some(0), 195, 250),
        ];
        assert_eq!(self_time(&root, messy.iter()), 100 - 20 - 30 - 5);
    }

    #[test]
    fn tracer_nests_spans_and_totals_requests() {
        let mut tr = Tracer::new(true);
        let v = tr.request("forward", |tr| {
            tr.span("gemm", |tr| {
                tr.count("macs", 6);
                tr.span("kernel", |_| std::hint::black_box(3))
            }) + tr.span("glue", |_| 4)
        });
        assert_eq!(v, 7);
        tr.request("forward", |tr| tr.count("macs", 2));
        let spans = tr.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].request, 1);
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        let reqs = tr.requests();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].counts["macs"], 6);
        assert_eq!(reqs[1].counts["macs"], 2);
        assert_eq!(
            reqs[0].leaf_ns,
            reqs[0].by_name["kernel"] + reqs[0].by_name["glue"]
        );
        assert!(
            reqs[0].self_ns + reqs[0].by_name["gemm"] + reqs[0].by_name["glue"] <= reqs[0].total_ns
        );
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.request("r", |tr| tr.span("s", |_| 5)), 5);
        tr.count("c", 1);
        assert!(tr.spans().is_empty());
        assert!(tr.requests().is_empty());
    }
}
