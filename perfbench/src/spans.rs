//! In-memory span recorder for the traced run.
//!
//! Spans are recorded here, in the benchmark, around each call into a layer
//! of the program; the program itself is not instrumented. Every span keeps
//! its name, start, end, parent span and step id. Records stay in memory
//! while the run measures and are written as JSON lines when it ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `comm.allreduce`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Global step (training) or repetition (trace simulation) the span
    /// belongs to.
    pub step: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be ended"]
pub struct SpanId(usize);

/// Records spans with explicit begin/end so spans can nest.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, step: u64) -> SpanId {
        let parent = self.open.last().copied();
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, step });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id` (which must be the innermost open span) and return its
    /// duration in microseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id.0), "spans must close innermost first");
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e3
    }

    /// All recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every closed span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Write one JSON object per span:
    /// `{"id","name","start_us","end_us","parent","step"}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"step\":{}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.step
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 3);
        let inner = t.begin("inner", 3);
        let d_inner = t.end(inner);
        let d_outer = t.end(outer);
        assert!(d_outer >= d_inner);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.durations_us("inner").len(), 1);
    }
}
