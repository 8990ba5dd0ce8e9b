//! Host-time spans recorded by the harness around every call it makes into
//! a layer. Kept in memory, written as Chrome trace-event JSON at exit.
//!
//! `dramstack::obs::ChromeTrace` is not reused: it stamps events in
//! simulated DRAM cycles, and these spans are host time.

use std::time::Instant;

use serde::Value;

/// One finished span. `start_ns`/`end_ns` count from the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one, in the same list.
    pub parent: Option<usize>,
    /// Spans of one round (or one serve job) share an identifier.
    pub id: u64,
    /// Recording thread (Chrome `tid`).
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. Recorders of several threads share
/// an origin and are merged with [`Recorder::absorb`].
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    tid: u64,
    id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant, tid: u64) -> Self {
        Recorder {
            enabled: true,
            origin,
            tid,
            id: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing: `span` only calls its closure. The
    /// end-to-end rounds run with this one, so tracing is off for them.
    pub fn off() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new(Instant::now(), 0)
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the identifier stamped on spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            id: self.id,
            tid: self.tid,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Appends another thread's finished spans.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration in seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.dur_ns() as f64 / 1e9)
    }

    /// Durations in milliseconds of every span named `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children that touch or overlap are merged
/// first, and clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Span lists as one Chrome trace-event document (`ph: "X"`, microseconds),
/// loadable in Perfetto or `chrome://tracing`; each `(label, spans)` pair
/// becomes a process of its own.
pub fn chrome_json(processes: &[(&str, &[Span])]) -> String {
    let text = |s: &str| Value::Str(s.to_string());
    let mut events = Vec::new();
    for (pid, (label, spans)) in processes.iter().enumerate() {
        let pid = Value::Int(pid as i128 + 1);
        events.push(Value::Map(vec![
            ("name".to_string(), text("process_name")),
            ("ph".to_string(), text("M")),
            ("pid".to_string(), pid.clone()),
            (
                "args".to_string(),
                Value::Map(vec![("name".to_string(), text(label))]),
            ),
        ]));
        for (s, own) in spans.iter().zip(self_times_ns(spans)) {
            let mut args = vec![
                ("id".to_string(), Value::Int(i128::from(s.id))),
                ("self_us".to_string(), Value::Float(own as f64 / 1e3)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), text(spans[p].name)));
            }
            events.push(Value::Map(vec![
                ("name".to_string(), text(s.name)),
                ("cat".to_string(), text(layer_of(s.name))),
                ("ph".to_string(), text("X")),
                ("ts".to_string(), Value::Float(s.start_ns as f64 / 1e3)),
                ("dur".to_string(), Value::Float(s.dur_ns() as f64 / 1e3)),
                ("pid".to_string(), pid.clone()),
                ("tid".to_string(), Value::Int(i128::from(s.tid))),
                ("args".to_string(), Value::Map(args)),
            ]));
        }
    }
    let doc = Value::Map(vec![
        ("displayTimeUnit".to_string(), text("ms")),
        ("traceEvents".to_string(), Value::Seq(events)),
    ]);
    serde_json::to_string(&doc).expect("the vendored serializer is infallible")
}

/// The layer (crate) a span name belongs to: the part before the dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            id: 0,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("round", None, 0, 100),
            // Two adjacent children and one nested grandchild.
            span("sim.construct", Some(0), 10, 30),
            span("sim.advance", Some(0), 30, 80),
            span("sim.checkpoint", Some(2), 40, 50),
            // A child that overlaps its sibling and overruns the parent is
            // counted once and clipped.
            span("sim.report", Some(0), 70, 120),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 90, "10..100 is covered by children");
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 50 - 10);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 50);
    }

    #[test]
    fn recorder_nests_and_merges_threads() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 0);
        rec.set_id(7);
        let got = rec.span("serve.job", |r| r.span("serve.submit", |_| 42));
        assert_eq!(got, 42);
        let mut other = Recorder::new(origin, 1);
        other.span("serve.job", |r| r.span("serve.wait", |_| ()));
        rec.absorb(other);
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[2].parent, s[3].parent), (None, Some(2)));
        assert_eq!((s[1].id, s[3].tid), (7, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(rec.durations_ms("serve.job").len(), 2);

        let mut off = Recorder::off();
        assert_eq!(off.span("sim.advance", |r| r.span("sim.report", |_| 1)), 1);
        assert!(off.spans().is_empty());

        let json = chrome_json(&[("serve_closed_2c", s)]);
        let doc: Value = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
        assert_eq!(events.len(), 1 + 4, "a process name, then the spans");
        assert_eq!(events[2].get("cat").and_then(Value::as_str), Some("serve"));
        let parent = events[2].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(Value::as_str), Some("serve.job"));
    }
}
