//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around each call into
//! a layer of the simulator; nothing inside the simulator is instrumented.
//! A recorder that is off costs one branch per `begin`/`end`, and the
//! end-to-end pass runs with it off.

use crate::json::Json;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one request (an engine job id).
    pub id: Option<u64>,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans on one thread (the client thread of every workload).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch recording on or off between phases of one run (the traced
    /// pass times the same operations both ways to price the tracing).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            id: None,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        self.end_with_id(open, None);
    }

    /// Close `open` and attach the request identifier learnt meanwhile.
    pub fn end_with_id(&mut self, open: Open, id: Option<u64>) {
        let Some(idx) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].id = id;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children recorded by one thread never overlap,
/// so the covered part is the sum of their durations.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Share of the wall time of all spans called `root` that their direct
/// children cover (1 when there is no such span: nothing is unaccounted).
#[must_use]
pub fn coverage_frac(spans: &[Span], root: &str) -> f64 {
    let own = self_times_ns(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own_ns) in spans.iter().zip(&own) {
        if s.name == root {
            total += s.dur_ns();
            uncovered += own_ns;
        }
    }
    if total == 0 {
        1.0
    } else {
        1.0 - uncovered as f64 / total as f64
    }
}

/// Total self time per span name in milliseconds, largest first.
#[must_use]
pub fn self_ms_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let own = self_times_ns(spans);
    let mut rows: Vec<(&'static str, f64, usize)> = Vec::new();
    for (s, own_ns) in spans.iter().zip(&own) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += *own_ns as f64 / 1e6;
                r.2 += 1;
            }
            None => rows.push((s.name, *own_ns as f64 / 1e6, 1)),
        }
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

/// Most spans written to a trace file; a serving run records hundreds of
/// thousands and the first rounds show the shape of all of them.
pub const MAX_SPANS_WRITTEN: usize = 20_000;

/// The spans in Chrome trace-event format (`chrome://tracing`, Perfetto):
/// one complete (`"ph": "X"`) event per span, microsecond timestamps, the
/// span's index, parent and request id in `args`.
#[must_use]
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let events = spans
        .iter()
        .take(MAX_SPANS_WRITTEN)
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![("span".to_string(), Json::Num(i as f64))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::Num(p as f64)));
            }
            if let Some(id) = s.id {
                args.push(("id".into(), Json::Num(id as f64)));
            }
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(workload)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj([
                ("workload", Json::str(workload)),
                ("spans_recorded", Json::Num(spans.len() as f64)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100] ▸ reset [0,10], run [10,90] ▸ inner [20,50]
        let spans = vec![
            span("op", 0, 100, None),
            span("reset", 0, 10, Some(0)),
            span("run", 10, 90, Some(0)),
            span("inner", 20, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 10, 50, 30]);
        // Children cover 90 of the op's 100 ns; the grandchild does not count twice.
        assert!((coverage_frac(&spans, "op") - 0.9).abs() < 1e-12);
        assert_eq!(coverage_frac(&spans, "absent"), 1.0);
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name[0].0, "run");
        assert_eq!(by_name.iter().map(|r| r.2).sum::<usize>(), 4);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        let a = t.begin("a");
        let b = t.begin("b");
        t.end_with_id(b, Some(7));
        t.end(a);
        t.span("c", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!(s[1].id, Some(7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        let o = off.begin("x");
        off.end(o);
        assert_eq!(off.span("y", || 3), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![
            span("op", 1_000, 3_000, None),
            span("run", 1_500, 2_500, Some(0)),
        ];
        let doc = chrome_trace(&spans, "w");
        let parsed = Json::parse(&doc.encode()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
