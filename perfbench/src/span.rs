//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! A span has a name, a measured duration, and the span that caused it.
//! Spans of one request (a frontier point, a fleet pass, a serving pass)
//! share a request id. A layer's self time is its span's duration minus
//! the durations of its child spans: children run one after another
//! inside their parent, so their durations never overlap.

use dpm_bench::timed;
use dpm_harness::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request the span belongs to.
    pub request: usize,
    /// Layer-qualified name, such as `core.ctmdp`.
    pub name: &'static str,
    /// Index of the causing span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    /// Measured duration in seconds.
    pub duration_s: f64,
}

/// The spans of a run, kept in memory until the run ends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    spans: Vec<Span>,
    requests: usize,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends a span and returns its index. Parent indices refer to
    /// spans already in this trace.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Moves every span of `other` into this trace, re-basing its parent
    /// links and request ids.
    pub fn append(&mut self, other: Trace) {
        let base = self.spans.len();
        let requests = self.requests;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.request += requests;
            s
        }));
        self.requests += other.requests;
    }

    /// The recorded spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`'s duration minus the durations of its children.
    #[must_use]
    pub fn self_time_s(&self, id: usize) -> f64 {
        let Some(span) = self.spans.get(id) else {
            return 0.0;
        };
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.duration_s)
            .sum();
        span.duration_s - children
    }

    /// Total duration of every span called `name`.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_s)
            .sum()
    }

    /// Total self time of every span called `name`.
    #[must_use]
    pub fn total_self_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans.get(i).is_some_and(|s| s.name == name))
            .map(|i| self.self_time_s(i))
            .sum()
    }

    /// The spans as a JSON array, for the trace file.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    let mut o = Json::object();
                    o.set("request", s.request);
                    o.set("name", s.name);
                    o.set("parent", s.parent.map_or(Json::Null, Json::from));
                    o.set("duration_s", Json::num(s.duration_s));
                    o
                })
                .collect(),
        )
    }
}

/// Records the spans of one request: [`Recorder::span`] times a call and
/// nests the spans its body records under it.
#[derive(Debug)]
pub struct Recorder<'a> {
    trace: &'a mut Trace,
    request: usize,
    parent: Option<usize>,
}

impl<'a> Recorder<'a> {
    /// Starts a new request in `trace`.
    pub fn new(trace: &'a mut Trace) -> Recorder<'a> {
        let request = trace.requests;
        trace.requests += 1;
        Recorder {
            trace,
            request,
            parent: None,
        }
    }

    /// Runs `body` inside a span called `name`; spans it records through
    /// the recorder it is handed become the span's children.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Recorder<'_>) -> T) -> T {
        let id = self.trace.push(Span {
            request: self.request,
            name,
            parent: self.parent,
            duration_s: 0.0,
        });
        let mut child = Recorder {
            trace: &mut *self.trace,
            request: self.request,
            parent: Some(id),
        };
        let (out, secs) = timed(|| body(&mut child));
        if let Some(span) = self.trace.spans.get_mut(id) {
            span.duration_s = secs;
        }
        out
    }

    /// A span with no children of its own.
    pub fn leaf<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> T {
        self.span(name, |_| body())
    }
}
