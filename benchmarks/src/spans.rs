//! Benchmark-owned wall-clock spans: recorded in memory around the
//! calls into each layer, written as Chrome trace-event JSON when the
//! benchmark ends. A span's self time is its duration minus the part
//! of it covered by its children.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Per-name totals over a log.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// All spans of one workload's benchmark process.
pub struct SpanLog {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(workload: &'static str, origin: Instant) -> Self {
        Self { workload, origin, spans: Vec::new(), open: Vec::new() }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record a span that was timed elsewhere (a rank's step or regrid)
    /// as a child of the innermost open span, or of `parent`.
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        let parent = parent.or(self.open.last().copied());
        self.spans.push(Span { name: name.to_owned(), start_ns, end_ns, parent });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name.clone()).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events in microseconds, with the parent index and the workload in
    /// `args`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{}\"}}}}",
                json_escape(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                json_escape(self.workload),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Escape a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new("w", Instant::now());
        log.scope("outer", |log| {
            let outer = 0;
            log.record("inner", 10, 40, Some(outer));
            log.record("inner", 50, 60, None); // innermost open span = outer
        });
        // Pin the outer span's clock readings for an exact check.
        log.spans[0].start_ns = 0;
        log.spans[0].end_ns = 100;
        let t = log.totals();
        assert_eq!(t["inner"], SpanTotals { count: 2, total_ns: 40, self_ns: 40 });
        assert_eq!(t["outer"], SpanTotals { count: 1, total_ns: 100, self_ns: 60 });
        assert_eq!(log.spans()[2].parent, Some(0));
    }

    #[test]
    fn nested_scopes_link_to_their_parent() {
        let mut log = SpanLog::new("w", Instant::now());
        log.scope("a", |log| log.scope("b", |log| log.scope("c", |_| ())));
        log.scope("d", |_| ());
        let parents: Vec<_> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), None]);
        assert!(log.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn chrome_trace_is_escaped_and_balanced() {
        let mut log = SpanLog::new("w\"x", Instant::now());
        log.scope("na\\me\n", |_| ());
        let json = log.chrome_trace();
        assert!(json.contains("na\\\\me\\u000a"));
        assert!(json.contains("w\\\"x"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
