//! In-memory spans for the traced run.  The benchmark opens a span around
//! each call it makes into a layer's public functions; nothing inside the
//! program is instrumented.  Spans are written out once, at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The root span of one request: its self time is the part of the request
/// no layer span covers.
pub const ROOT: &str = "request";

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration.
    pub fn end(&mut self, span: usize) -> u64 {
        debug_assert_eq!(self.open.last(), Some(&span), "spans close innermost first");
        self.open.pop();
        self.spans[span].end_ns = self.now_ns();
        self.spans[span].duration_ns()
    }

    /// Times `f` as a span named `name`; returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let span = self.begin(name, request);
        let out = f();
        (out, self.end(span))
    }

    /// Moves another tracer's spans (same epoch) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`, and how many there were.
    pub fn total_ns(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
    }

    /// Self time (duration minus children's) summed per layer, the layer
    /// being the span name up to its first `.`; the root span's self time
    /// is reported as `unattributed`.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut layers = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = if span.name == ROOT {
                "unattributed"
            } else {
                span.name.split('.').next().unwrap_or(span.name)
            };
            *layers.entry(layer).or_insert(0) += span.duration_ns().saturating_sub(children);
        }
        layers
    }

    /// Writes one JSON object per span: name, start, end, parent index and
    /// request id.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}
