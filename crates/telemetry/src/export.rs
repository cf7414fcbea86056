//! Exporters: Chrome trace-event JSON, flat JSON metrics snapshot,
//! and the Fig. 11 text report. All output is deterministic — spans
//! are timestamped by the virtual clock and maps are ordered — so the
//! same simulation always produces byte-identical artifacts.

use crate::recorder::{EdgeEvent, EdgeKind, Recorder};
use rbamr_perfmodel::{Category, TimeBreakdown};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microseconds of virtual time, fixed-point so output is stable.
fn micros(seconds: f64) -> String {
    format!("{:.3}", seconds * 1.0e6)
}

/// Render all ranks' spans as Chrome trace-event JSON (the format
/// `chrome://tracing` and Perfetto load). One track (`tid`) per rank;
/// timestamps are **virtual** microseconds.
pub fn chrome_trace(recorders: &[Recorder]) -> String {
    let mut recs: Vec<&Recorder> = recorders.iter().filter(|r| r.is_enabled()).collect();
    recs.sort_by_key(|r| r.rank());
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
         \"args\":{\"name\":\"rbamr (virtual time)\"}}",
    );
    for rec in &recs {
        let rank = rec.rank();
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\
             \"args\":{{\"name\":\"rank {rank}\"}}}}",
        );
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\
             \"args\":{{\"sort_index\":{rank}}}}}",
        );
    }
    for rec in &recs {
        let rank = rec.rank();
        for span in rec.spans() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{rank},\"args\":{{\"seq\":{}",
                escape_json(span.name),
                span.category.name(),
                micros(span.begin.total()),
                micros(span.elapsed().total()),
                span.seq,
            );
            if let Some(arg) = span.arg {
                let _ = write!(out, ",\"level\":{arg}");
            }
            out.push_str("}}");
        }
    }
    // Message-flow events: an arrow from each send (`ph:"s"`) to its
    // matching recv (`ph:"f"`, binding to the enclosing slice), plus a
    // multi-point flow tying together the ranks of one rendezvous
    // collective. Perfetto renders these as arrows between tracks.
    let mut collectives: BTreeMap<u64, Vec<(usize, EdgeEvent)>> = BTreeMap::new();
    for rec in &recs {
        let rank = rec.rank();
        for edge in rec.edges() {
            match edge.kind {
                EdgeKind::Send => {
                    let _ = write!(
                        out,
                        ",\n{{\"name\":\"msg\",\"cat\":\"{}\",\"ph\":\"s\",\"ts\":{},\
                         \"pid\":0,\"tid\":{rank},\"id\":{},\
                         \"args\":{{\"seq\":{},\"bytes\":{}}}}}",
                        edge.category.name(),
                        micros(edge.time.total()),
                        edge.flow_id(),
                        edge.ctx.seq,
                        edge.bytes,
                    );
                }
                EdgeKind::Recv => {
                    let _ = write!(
                        out,
                        ",\n{{\"name\":\"msg\",\"cat\":\"{}\",\"ph\":\"f\",\"bp\":\"e\",\
                         \"ts\":{},\"pid\":0,\"tid\":{rank},\"id\":{},\
                         \"args\":{{\"seq\":{},\"bytes\":{}}}}}",
                        edge.category.name(),
                        micros(edge.time.total()),
                        edge.flow_id(),
                        edge.ctx.seq,
                        edge.bytes,
                    );
                }
                EdgeKind::Collective => {
                    collectives.entry(edge.tag).or_default().push((rank, edge));
                }
            }
        }
    }
    for group in collectives.values() {
        if group.len() < 2 {
            continue;
        }
        for (i, (rank, edge)) in group.iter().enumerate() {
            let (ph, bind) = if i == 0 {
                ("s", "")
            } else if i + 1 == group.len() {
                ("f", ",\"bp\":\"e\"")
            } else {
                ("t", "")
            };
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\"{bind},\"ts\":{},\
                 \"pid\":0,\"tid\":{rank},\"id\":{},\
                 \"args\":{{\"seq\":{},\"bytes\":{}}}}}",
                escape_json(edge.name),
                edge.category.name(),
                micros(edge.time.total()),
                edge.flow_id(),
                edge.ctx.seq,
                edge.bytes,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

fn breakdown_json(b: &TimeBreakdown) -> String {
    let mut out = String::from("{");
    for (i, &c) in Category::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{:.9}", c.name(), b.get(c));
    }
    let _ = write!(out, ",\"total\":{:.9}}}", b.total());
    out
}

fn map_json(map: &BTreeMap<String, u64>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", escape_json(k));
    }
    out.push('}');
    out
}

/// Aggregated view of one or more recorders: counters summed across
/// ranks, gauges combined by max, and the two per-category breakdowns
/// (raw clock vs. reconstructed from top-level spans) merged.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters, summed over ranks.
    pub counters: BTreeMap<String, u64>,
    /// Peak gauges, max over ranks.
    pub gauges: BTreeMap<String, u64>,
    /// Raw clock breakdown, merged (summed) over ranks.
    pub clock: TimeBreakdown,
    /// Span-derived breakdown (top-level spans), merged over ranks.
    pub spans: TimeBreakdown,
}

impl MetricsSnapshot {
    pub fn from_recorder(rec: &Recorder) -> Self {
        Self::from_recorders(std::slice::from_ref(rec))
    }

    pub fn from_recorders(recorders: &[Recorder]) -> Self {
        let mut snap = Self::default();
        for rec in recorders.iter().filter(|r| r.is_enabled()) {
            for (k, v) in rec.counters() {
                *snap.counters.entry(k).or_insert(0) += v;
            }
            for (k, v) in rec.gauges() {
                let entry = snap.gauges.entry(k).or_insert(0);
                *entry = (*entry).max(v);
            }
            snap.clock = snap.clock.merged(&rec.clock_snapshot());
            snap.spans = snap.spans.merged(&rec.span_breakdown());
        }
        snap
    }

    /// Fraction of clock-charged virtual time covered by top-level
    /// spans (1.0 = every charged second happened inside a span).
    pub fn coverage(&self) -> f64 {
        if self.clock.total() == 0.0 {
            1.0
        } else {
            (self.spans.total() / self.clock.total()).min(1.0)
        }
    }

    /// Do the span-derived and clock breakdowns agree within `tol`
    /// (a fraction of total runtime) on **every** category? This is
    /// the Fig. 11 honesty check: the paper's series are percentages
    /// of total time, so the natural tolerance is in those units.
    pub fn agreement_within(&self, tol: f64) -> bool {
        let scale = self.clock.total().max(f64::MIN_POSITIVE);
        Category::ALL.iter().all(|&c| (self.spans.get(c) - self.clock.get(c)).abs() / scale <= tol)
    }
}

/// Flat JSON metrics snapshot: one object per rank plus aggregated
/// totals, ready for `jq` or a dashboard.
pub fn metrics_json(recorders: &[Recorder]) -> String {
    let mut recs: Vec<&Recorder> = recorders.iter().filter(|r| r.is_enabled()).collect();
    recs.sort_by_key(|r| r.rank());
    let mut out = String::from("{\"ranks\":[\n");
    for (i, rec) in recs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"rank\":{},\"clock\":{},\"spans\":{},\"counters\":{},\"gauges\":{}}}",
            rec.rank(),
            breakdown_json(&rec.clock_snapshot()),
            breakdown_json(&rec.span_breakdown()),
            map_json(&rec.counters()),
            map_json(&rec.gauges()),
        );
    }
    let totals = MetricsSnapshot::from_recorders(recorders);
    let _ = write!(
        out,
        "\n],\"total\":{{\"clock\":{},\"spans\":{},\"counters\":{},\"gauges\":{},\
         \"coverage\":{:.6}}}}}\n",
        breakdown_json(&totals.clock),
        breakdown_json(&totals.spans),
        map_json(&totals.counters),
        map_json(&totals.gauges),
        totals.coverage(),
    );
    out
}

/// The paper's Fig. 11 series, in presentation order.
fn fig11_series(b: &TimeBreakdown) -> [(&'static str, f64); 4] {
    [
        ("Hydrodynamics", b.hydrodynamics()),
        ("Synchronization", b.get(Category::Synchronize)),
        ("Regridding", b.get(Category::Regrid)),
        ("Timestep", b.get(Category::Timestep)),
    ]
}

/// Aligned text report reproducing the paper's Fig. 11 percentage
/// breakdown, with the raw-clock and span-derived columns side by
/// side so drift in instrumentation coverage is immediately visible.
pub fn fig11_report(clock: &TimeBreakdown, spans: &TimeBreakdown) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "{:<16} {:>12} {:>7}   {:>12} {:>7}", "series", "clock", "%", "spans", "%");
    let (ct, st) = (clock.total().max(f64::MIN_POSITIVE), spans.total().max(f64::MIN_POSITIVE));
    for ((name, cv), (_, sv)) in fig11_series(clock).into_iter().zip(fig11_series(spans)) {
        let _ = writeln!(
            out,
            "{name:<16} {cv:>11.4}s {:>6.1}%   {sv:>11.4}s {:>6.1}%",
            100.0 * cv / ct,
            100.0 * sv / st,
        );
    }
    let other = (clock.get(Category::Other), spans.get(Category::Other));
    let _ = writeln!(
        out,
        "{:<16} {:>11.4}s {:>6.1}%   {:>11.4}s {:>6.1}%",
        "Other",
        other.0,
        100.0 * other.0 / ct,
        other.1,
        100.0 * other.1 / st,
    );
    let _ = writeln!(
        out,
        "{:<16} {:>11.4}s {:>7}   {:>11.4}s",
        "total",
        clock.total(),
        "",
        spans.total()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_perfmodel::Clock;

    fn scripted_recorder(rank: usize) -> Recorder {
        let clock = Clock::new();
        let rec = Recorder::new(rank, clock.clone());
        {
            let _step = rec.span("step", Category::Other);
            {
                let _k = rec.span("flux-calc", Category::HydroKernel);
                clock.advance(Category::HydroKernel, 2.0);
            }
            {
                let _halo = clock.scope(Category::HaloExchange);
                let _fill = rec.span_arg("halo-fill", 1);
                clock.advance(Category::HaloExchange, 0.5);
            }
            {
                let _dt = rec.span("dt-reduce", Category::Timestep);
                clock.advance(Category::Timestep, 0.25);
            }
            rec.count("net.send_bytes", 4096);
        }
        {
            let _rg = rec.span("regrid", Category::Regrid);
            clock.advance(Category::Regrid, 1.0);
        }
        {
            let _sync = rec.span("synchronize", Category::Synchronize);
            clock.advance(Category::Synchronize, 0.25);
        }
        rec
    }

    #[test]
    fn chrome_trace_is_deterministic_and_well_formed() {
        let a = chrome_trace(&[scripted_recorder(0), scripted_recorder(1)]);
        let b = chrome_trace(&[scripted_recorder(1), scripted_recorder(0)]);
        // Same spans, either construction order: byte-identical.
        assert_eq!(a, b);
        assert!(a.contains("\"tid\":0"));
        assert!(a.contains("\"tid\":1"));
        assert!(a.contains("\"name\":\"halo-fill\""));
        assert!(a.contains("\"level\":1"));
        // Every Category appears as a span category.
        for c in Category::ALL {
            assert!(a.contains(&format!("\"cat\":\"{}\"", c.name())), "missing {c:?}");
        }
        // Balanced braces/brackets — cheap well-formedness proxy.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn nested_span_ordering_is_stable() {
        let rec = scripted_recorder(0);
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(
            names,
            [
                ("step", 0),
                ("flux-calc", 1),
                ("halo-fill", 1),
                ("dt-reduce", 1),
                ("regrid", 0),
                ("synchronize", 0)
            ]
        );
        // Sequence numbers strictly increase in begin order.
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
        // The trace orders events by the same sequence.
        let json = chrome_trace(&[rec]);
        let step = json.find("\"name\":\"step\"").unwrap();
        let fill = json.find("\"name\":\"halo-fill\"").unwrap();
        let regrid = json.find("\"name\":\"regrid\"").unwrap();
        assert!(step < fill && fill < regrid);
    }

    #[test]
    fn snapshot_aggregates_and_agrees() {
        let snap = MetricsSnapshot::from_recorders(&[scripted_recorder(0), scripted_recorder(1)]);
        assert_eq!(snap.counters["net.send_bytes"], 8192);
        assert_eq!(snap.clock.get(Category::HydroKernel), 4.0);
        // Fully covered scripted run: spans reproduce the clock.
        assert!(snap.agreement_within(1e-12));
        assert!((snap.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_json_lists_all_ranks() {
        let json = metrics_json(&[scripted_recorder(1), scripted_recorder(0)]);
        assert!(json.contains("\"rank\":0"));
        assert!(json.contains("\"rank\":1"));
        assert!(json.contains("\"net.send_bytes\":4096"));
        assert!(json.find("\"rank\":0").unwrap() < json.find("\"rank\":1").unwrap());
    }

    #[test]
    fn fig11_report_shows_both_columns() {
        let rec = scripted_recorder(0);
        let report = fig11_report(&rec.clock_snapshot(), &rec.span_breakdown());
        assert!(report.contains("Hydrodynamics"));
        assert!(report.contains("Synchronization"));
        assert!(report.contains("Regridding"));
        assert!(report.contains("Timestep"));
        // Fully instrumented: both columns render the same totals.
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 7); // header + 5 series + total
    }

    #[test]
    fn flow_events_pair_sends_and_recvs() {
        let make = || {
            let ca = Clock::new();
            let a = Recorder::new(0, ca.clone());
            let cb = Clock::new();
            let b = Recorder::new(1, cb.clone());
            a.edge_send(1, 5, 0, 256);
            cb.advance(Category::HaloExchange, 0.125);
            b.edge_recv(0, 5, 0, 256, 0.125);
            a.edge_collective("allreduce-min", 0, 8, 0.01);
            b.edge_collective("allreduce-min", 0, 8, 0.01);
            vec![a, b]
        };
        let json = chrome_trace(&make());
        assert_eq!(json, chrome_trace(&make()));
        // One send start, one recv finish, same flow id.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 2); // msg + collective
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 2);
        let id = make()[0].edges()[0].flow_id();
        assert_eq!(json.matches(&format!("\"id\":{id}")).count(), 2);
        assert!(json.contains("\"name\":\"allreduce-min\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escapes_special_characters_in_labels() {
        assert_eq!(escape_json("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(escape_json("ctrl\u{1}"), "ctrl\\u0001");
        let clock = Clock::new();
        let rec = Recorder::new(0, clock.clone());
        {
            let _s = rec.span("weird \"label\" with \\slashes\\", Category::Other);
            clock.advance(Category::Other, 1.0);
        }
        let json = chrome_trace(&[rec]);
        assert!(json.contains("weird \\\"label\\\" with \\\\slashes\\\\"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The escaped output parses back to the original label.
        let parsed = parse_json(&json);
        let events = parsed.get("traceEvents").as_arr();
        let found =
            events.iter().any(|e| e.get("name").as_str() == "weird \"label\" with \\slashes\\");
        assert!(found, "escaped label did not roundtrip");
    }

    #[test]
    fn metrics_json_roundtrips_through_a_parser() {
        let recs = [scripted_recorder(0), scripted_recorder(1)];
        let parsed = parse_json(&metrics_json(&recs));
        let ranks = parsed.get("ranks").as_arr();
        assert_eq!(ranks.len(), 2);
        assert_eq!(ranks[0].get("rank").as_num(), 0.0);
        assert_eq!(ranks[1].get("rank").as_num(), 1.0);
        assert_eq!(ranks[0].get("counters").get("net.send_bytes").as_num(), 4096.0);
        let total = parsed.get("total");
        assert_eq!(total.get("counters").get("net.send_bytes").as_num(), 8192.0);
        let clock_total = total.get("clock").get("total").as_num();
        assert!((clock_total - 2.0 * recs[0].clock_snapshot().total()).abs() < 1e-6);
        assert!((total.get("coverage").as_num() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fig11_percentages_sum_to_100() {
        let rec = scripted_recorder(0);
        let report = fig11_report(&rec.clock_snapshot(), &rec.span_breakdown());
        let lines: Vec<&str> = report.lines().collect();
        let mut clock_pct = 0.0;
        let mut span_pct = 0.0;
        // Rows 1..=5: the four Fig. 11 series plus Other.
        for line in &lines[1..6] {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let pcts: Vec<f64> = tokens
                .iter()
                .filter(|t| t.ends_with('%'))
                .map(|t| t.trim_end_matches('%').parse().unwrap())
                .collect();
            assert_eq!(pcts.len(), 2, "row missing a percentage: {line}");
            clock_pct += pcts[0];
            span_pct += pcts[1];
        }
        assert!((clock_pct - 100.0).abs() <= 0.1, "clock % sum {clock_pct}");
        assert!((span_pct - 100.0).abs() <= 0.1, "span % sum {span_pct}");
    }

    /// Minimal JSON value + recursive-descent parser, test-only: the
    /// workspace has no vendored JSON crate, and round-tripping our
    /// hand-rolled output through an independent reader is the point.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
                other => panic!("get({key}) on non-object {other:?}"),
            }
        }
        fn as_arr(&self) -> &[Json] {
            match self {
                Json::Arr(v) => v,
                other => panic!("not an array: {other:?}"),
            }
        }
        fn as_num(&self) -> f64 {
            match self {
                Json::Num(n) => *n,
                other => panic!("not a number: {other:?}"),
            }
        }
        fn as_str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }
    }

    fn parse_json(s: &str) -> Json {
        let mut p = Parser { b: s.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing garbage after JSON value");
        v
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn expect(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.b[self.i], c, "expected {} at byte {}", c as char, self.i);
            self.i += 1;
        }
        fn value(&mut self) -> Json {
            self.ws();
            match self.b[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut m = BTreeMap::new();
                    self.ws();
                    if self.b[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(m);
                    }
                    loop {
                        self.ws();
                        let k = self.string();
                        self.expect(b':');
                        m.insert(k, self.value());
                        self.ws();
                        match self.b[self.i] {
                            b',' => self.i += 1,
                            b'}' => {
                                self.i += 1;
                                return Json::Obj(m);
                            }
                            c => panic!("bad object separator {}", c as char),
                        }
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut v = Vec::new();
                    self.ws();
                    if self.b[self.i] == b']' {
                        self.i += 1;
                        return Json::Arr(v);
                    }
                    loop {
                        v.push(self.value());
                        self.ws();
                        match self.b[self.i] {
                            b',' => self.i += 1,
                            b']' => {
                                self.i += 1;
                                return Json::Arr(v);
                            }
                            c => panic!("bad array separator {}", c as char),
                        }
                    }
                }
                b'"' => Json::Str(self.string()),
                b't' => {
                    self.i += 4;
                    Json::Bool(true)
                }
                b'f' => {
                    self.i += 5;
                    Json::Bool(false)
                }
                b'n' => {
                    self.i += 4;
                    Json::Null
                }
                _ => {
                    let start = self.i;
                    while self.i < self.b.len()
                        && matches!(self.b[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    {
                        self.i += 1;
                    }
                    Json::Num(std::str::from_utf8(&self.b[start..self.i]).unwrap().parse().unwrap())
                }
            }
        }
        fn string(&mut self) -> String {
            assert_eq!(self.b[self.i], b'"');
            self.i += 1;
            let mut out = Vec::new();
            loop {
                let c = self.b[self.i];
                self.i += 1;
                match c {
                    b'"' => break,
                    b'\\' => {
                        let e = self.b[self.i];
                        self.i += 1;
                        match e {
                            b'"' => out.push(b'"'),
                            b'\\' => out.push(b'\\'),
                            b'/' => out.push(b'/'),
                            b'n' => out.push(b'\n'),
                            b't' => out.push(b'\t'),
                            b'r' => out.push(b'\r'),
                            b'u' => {
                                let hex = std::str::from_utf8(&self.b[self.i..self.i + 4]).unwrap();
                                self.i += 4;
                                let cp = u32::from_str_radix(hex, 16).unwrap();
                                let mut buf = [0u8; 4];
                                let s = char::from_u32(cp).unwrap().encode_utf8(&mut buf);
                                out.extend_from_slice(s.as_bytes());
                            }
                            c => panic!("bad escape \\{}", c as char),
                        }
                    }
                    c => out.push(c),
                }
            }
            String::from_utf8(out).unwrap()
        }
    }

    #[test]
    fn disabled_recorders_are_skipped() {
        let json = chrome_trace(&[Recorder::disabled()]);
        assert!(!json.contains("thread_name"));
        let snap = MetricsSnapshot::from_recorders(&[Recorder::disabled()]);
        assert_eq!(snap.clock.total(), 0.0);
        assert_eq!(snap.coverage(), 1.0);
    }
}
