//! Chrome trace-event (Perfetto-compatible) export.
//!
//! [`ChromeTraceProbe`] records the controller's probe stream; the
//! [`ChromeTraceHandle`] it hands out builds a [`ChromeTrace`] whose
//! JSON loads directly into Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`:
//!
//! * each **read request** becomes a duration span (`ph: "X"`) on its
//!   bank's track, with nested `queued` (arrival → CAS) and `burst`
//!   (CAS → data return) child spans;
//! * each **write request** becomes a span from arrival to its CAS;
//! * every **DRAM command** (ACT/PRE/RD/WR/REF) becomes an instant event
//!   (`ph: "i"`) on the same bank track, carrying its cycle and
//!   row/column in `args`;
//! * **write-drain** and **refresh** windows become spans on dedicated
//!   tracks;
//! * queue occupancy is emitted as counter events (`ph: "C"`) whenever a
//!   depth changes.
//!
//! Timestamps are microseconds of simulated time (`cycle × cycle_ns /
//! 1000`); the originating DRAM cycle is preserved exactly in
//! `args.cycle`.

use std::cell::RefCell;
use std::rc::Rc;

use serde::{Serialize, Sink};

use dramstack_dram::{Command, Cycle};

use crate::probe::Probe;

/// Track (Chrome `tid`) of the write-drain window span.
pub const TID_DRAIN: usize = 1000;
/// Base track of per-rank refresh windows (`TID_REFRESH + rank`).
pub const TID_REFRESH: usize = 1100;
/// Track of the queue-occupancy counters.
pub const TID_QUEUES: usize = 1200;

/// The shape of one trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A complete duration span (`ph: "X"`) of the given length.
    Span {
        /// Span length in DRAM cycles.
        dur_cycles: Cycle,
    },
    /// An instant event (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`).
    Counter,
}

/// One recorded event, still in simulation units.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (request label, command mnemonic, counter name).
    pub name: String,
    /// Chrome category.
    pub cat: &'static str,
    /// Start cycle.
    pub at: Cycle,
    /// Span / instant / counter.
    pub kind: TraceEventKind,
    /// Track within the channel (flat bank index, or a `TID_*` constant).
    pub tid: usize,
    /// Extra key/value payload (`args` in the JSON).
    pub args: Vec<(&'static str, u64)>,
}

#[derive(Debug)]
struct OpenRequest {
    id: u64,
    phys: u64,
    is_write: bool,
    arrival: Option<Cycle>,
    cas_at: Option<Cycle>,
    flat_bank: usize,
    row_hit: bool,
}

#[derive(Debug)]
struct Recorder {
    channel: usize,
    cycle_ns: f64,
    events: Vec<TraceEvent>,
    open: Vec<OpenRequest>,
    drain_since: Option<Cycle>,
    last_read_q: usize,
    last_write_q: usize,
}

impl Recorder {
    fn find(&mut self, id: u64) -> Option<&mut OpenRequest> {
        self.open.iter_mut().find(|r| r.id == id)
    }

    fn close(&mut self, id: u64) -> Option<OpenRequest> {
        let idx = self.open.iter().position(|r| r.id == id)?;
        Some(self.open.swap_remove(idx))
    }
}

/// A recording probe writing into a shared buffer; build the trace from
/// the paired [`ChromeTraceHandle`].
#[derive(Debug)]
pub struct ChromeTraceProbe {
    inner: Rc<RefCell<Recorder>>,
}

/// Read side of a [`ChromeTraceProbe`]: call
/// [`build`](ChromeTraceHandle::build) after the run.
#[derive(Debug, Clone)]
pub struct ChromeTraceHandle {
    inner: Rc<RefCell<Recorder>>,
}

impl ChromeTraceProbe {
    /// Creates a probe for one controller (`channel` becomes the Chrome
    /// `pid`; `cycle_ns` converts cycles to trace timestamps).
    pub fn new(channel: usize, cycle_ns: f64) -> (Self, ChromeTraceHandle) {
        let inner = Rc::new(RefCell::new(Recorder {
            channel,
            cycle_ns,
            events: Vec::new(),
            open: Vec::new(),
            drain_since: None,
            last_read_q: usize::MAX,
            last_write_q: usize::MAX,
        }));
        (
            ChromeTraceProbe {
                inner: Rc::clone(&inner),
            },
            ChromeTraceHandle { inner },
        )
    }
}

impl Probe for ChromeTraceProbe {
    fn request_accepted(&mut self, id: u64, phys: u64, is_write: bool) {
        self.inner.borrow_mut().open.push(OpenRequest {
            id,
            phys,
            is_write,
            arrival: None,
            cas_at: None,
            flat_bank: 0,
            row_hit: false,
        });
    }

    fn request_arrival(&mut self, id: u64, now: Cycle) {
        if let Some(r) = self.inner.borrow_mut().find(id) {
            r.arrival = Some(now);
        }
    }

    fn cas_issued(&mut self, id: u64, now: Cycle, is_write: bool, row_hit: bool, flat_bank: usize) {
        let mut rec = self.inner.borrow_mut();
        let Some(r) = rec.find(id) else { return };
        r.cas_at = Some(now);
        r.flat_bank = flat_bank;
        r.row_hit = row_hit;
        if !is_write {
            return; // the read span closes at data_returned
        }
        // A write is done (from the requester's view) once its CAS issues.
        let Some(r) = rec.close(id) else { return };
        let start = r.arrival.unwrap_or(now);
        rec.events.push(TraceEvent {
            name: format!("write #{id}"),
            cat: "request",
            at: start,
            kind: TraceEventKind::Span {
                dur_cycles: now.saturating_sub(start).max(1),
            },
            tid: flat_bank,
            args: vec![
                ("id", id),
                ("phys", r.phys),
                ("row_hit", u64::from(row_hit)),
            ],
        });
    }

    fn data_returned(&mut self, id: u64, now: Cycle) {
        let mut rec = self.inner.borrow_mut();
        let Some(r) = rec.close(id) else { return };
        if r.is_write {
            return;
        }
        let start = r.arrival.unwrap_or(now);
        let cas = r.cas_at.unwrap_or(now).clamp(start, now);
        let tid = r.flat_bank;
        rec.events.push(TraceEvent {
            name: format!("read #{id}"),
            cat: "request",
            at: start,
            kind: TraceEventKind::Span {
                dur_cycles: now.saturating_sub(start).max(1),
            },
            tid,
            args: vec![
                ("id", id),
                ("phys", r.phys),
                ("row_hit", u64::from(r.row_hit)),
            ],
        });
        if cas > start {
            rec.events.push(TraceEvent {
                name: "queued".to_string(),
                cat: "request",
                at: start,
                kind: TraceEventKind::Span {
                    dur_cycles: cas - start,
                },
                tid,
                args: vec![("id", id)],
            });
        }
        if now > cas {
            rec.events.push(TraceEvent {
                name: "burst".to_string(),
                cat: "request",
                at: cas,
                kind: TraceEventKind::Span {
                    dur_cycles: now - cas,
                },
                tid,
                args: vec![("id", id)],
            });
        }
    }

    fn command_issued(&mut self, now: Cycle, cmd: Command, flat_bank: usize) {
        let mut rec = self.inner.borrow_mut();
        rec.events.push(TraceEvent {
            name: cmd.kind.to_string(),
            cat: "command",
            at: now,
            kind: TraceEventKind::Instant,
            tid: flat_bank,
            args: vec![
                ("cycle", now),
                ("row", u64::from(cmd.row)),
                ("col", u64::from(cmd.column)),
            ],
        });
    }

    fn write_drain_entered(&mut self, now: Cycle, wq_len: usize) {
        let mut rec = self.inner.borrow_mut();
        rec.drain_since = Some(now);
        let _ = wq_len;
    }

    fn write_drain_exited(&mut self, now: Cycle) {
        let mut rec = self.inner.borrow_mut();
        if let Some(start) = rec.drain_since.take() {
            rec.events.push(TraceEvent {
                name: "write drain".to_string(),
                cat: "controller",
                at: start,
                kind: TraceEventKind::Span {
                    dur_cycles: now.saturating_sub(start).max(1),
                },
                tid: TID_DRAIN,
                args: Vec::new(),
            });
        }
    }

    fn refresh_window(&mut self, rank: usize, start: Cycle, end: Cycle) {
        self.inner.borrow_mut().events.push(TraceEvent {
            name: format!("refresh rank {rank}"),
            cat: "controller",
            at: start,
            kind: TraceEventKind::Span {
                dur_cycles: end.saturating_sub(start).max(1),
            },
            tid: TID_REFRESH + rank,
            args: Vec::new(),
        });
    }

    fn tick(&mut self, now: Cycle, read_q: usize, write_q: usize, _in_flight: usize, _drain: bool) {
        let mut rec = self.inner.borrow_mut();
        if read_q != rec.last_read_q || write_q != rec.last_write_q {
            rec.last_read_q = read_q;
            rec.last_write_q = write_q;
            rec.events.push(TraceEvent {
                name: "queues".to_string(),
                cat: "controller",
                at: now,
                kind: TraceEventKind::Counter,
                tid: TID_QUEUES,
                args: vec![("reads", read_q as u64), ("writes", write_q as u64)],
            });
        }
    }
}

impl ChromeTraceHandle {
    /// Builds the trace recorded so far (open requests are dropped).
    pub fn build(&self) -> ChromeTrace {
        let rec = self.inner.borrow();
        ChromeTrace {
            channel: rec.channel,
            cycle_ns: rec.cycle_ns,
            events: rec.events.clone(),
        }
    }
}

/// A finished Chrome trace for one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeTrace {
    /// Channel index (the Chrome `pid`).
    pub channel: usize,
    /// Nanoseconds per DRAM cycle.
    pub cycle_ns: f64,
    /// Recorded events in simulation units.
    pub events: Vec<TraceEvent>,
}

impl ChromeTrace {
    /// The `(cycle, mnemonic)` sequence of recorded DRAM commands, in
    /// issue order — directly comparable with a
    /// [`dramstack_dram::trace`] command trace.
    pub fn command_sequence(&self) -> Vec<(Cycle, String)> {
        self.events
            .iter()
            .filter(|e| e.cat == "command")
            .map(|e| (e.at, e.name.clone()))
            .collect()
    }

    /// Spans of the given category as `(name, start_cycle, end_cycle,
    /// tid)`.
    pub fn spans(&self, cat: &str) -> Vec<(String, Cycle, Cycle, usize)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Span { dur_cycles } if e.cat == cat => {
                    Some((e.name.clone(), e.at, e.at + dur_cycles, e.tid))
                }
                _ => None,
            })
            .collect()
    }

    fn ts_us(&self, cycle: Cycle) -> f64 {
        cycle as f64 * self.cycle_ns / 1000.0
    }

    /// Writes one event as a Chrome trace-event object.
    fn serialize_event(&self, e: &TraceEvent, out: &mut dyn Sink) {
        let phase_fields = match e.kind {
            TraceEventKind::Span { .. } | TraceEventKind::Instant => 2,
            TraceEventKind::Counter => 1,
        };
        out.map(5 + phase_fields + usize::from(!e.args.is_empty()));
        out.key("name");
        out.str(&e.name);
        out.key("cat");
        out.str(e.cat);
        out.key("ts");
        out.float(self.ts_us(e.at));
        out.key("pid");
        self.channel.serialize(out);
        out.key("tid");
        e.tid.serialize(out);
        out.key("ph");
        match e.kind {
            TraceEventKind::Span { dur_cycles } => {
                out.str("X");
                out.key("dur");
                out.float(dur_cycles as f64 * self.cycle_ns / 1000.0);
            }
            TraceEventKind::Instant => {
                out.str("i");
                out.key("s");
                out.str("t");
            }
            TraceEventKind::Counter => out.str("C"),
        }
        if !e.args.is_empty() {
            out.key("args");
            out.map(e.args.len());
            for (k, v) in &e.args {
                out.key(k);
                v.serialize(out);
            }
            out.end();
        }
        out.end();
    }

    /// Renders the trace as Chrome trace-event JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }
}

/// The Chrome trace-event document: the events under `traceEvents`, with
/// timestamps in microseconds.
impl Serialize for ChromeTrace {
    fn serialize(&self, out: &mut dyn Sink) {
        out.map(2);
        out.key("displayTimeUnit");
        out.str("ns");
        out.key("traceEvents");
        out.seq(self.events.len());
        for e in &self.events {
            self.serialize_event(e, out);
        }
        out.end();
        out.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramstack_dram::BankAddr;
    use serde::Value;

    fn probe() -> (ChromeTraceProbe, ChromeTraceHandle) {
        ChromeTraceProbe::new(0, 0.8333)
    }

    #[test]
    fn read_lifecycle_produces_nested_spans() {
        let (mut p, h) = probe();
        p.request_accepted(1, 0x1000, false);
        p.request_arrival(1, 10);
        p.cas_issued(1, 25, false, false, 3);
        p.data_returned(1, 50);
        let trace = h.build();
        let spans = trace.spans("request");
        assert_eq!(spans.len(), 3);
        let (_, s0, e0, tid) = spans[0].clone();
        assert_eq!((s0, e0, tid), (10, 50, 3));
        // queued and burst nest inside the request span and tile it.
        assert_eq!(spans[1].1, 10);
        assert_eq!(spans[1].2, 25);
        assert_eq!(spans[2].1, 25);
        assert_eq!(spans[2].2, 50);
    }

    #[test]
    fn write_closes_at_cas() {
        let (mut p, h) = probe();
        p.request_accepted(2, 0x40, true);
        p.request_arrival(2, 5);
        p.cas_issued(2, 30, true, true, 7);
        let spans = h.build().spans("request");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].0, "write #2");
        assert_eq!((spans[0].1, spans[0].2, spans[0].3), (5, 30, 7));
    }

    #[test]
    fn commands_become_instant_events_in_order() {
        let (mut p, h) = probe();
        let b = BankAddr::new(0, 1, 2);
        p.command_issued(3, Command::activate(b, 9), 6);
        p.command_issued(20, Command::read(b, 4), 6);
        let seq = h.build().command_sequence();
        assert_eq!(seq, vec![(3, "ACT".to_string()), (20, "RD".to_string())]);
    }

    #[test]
    fn drain_and_refresh_windows_are_spans() {
        let (mut p, h) = probe();
        p.write_drain_entered(100, 28);
        p.write_drain_exited(250);
        p.refresh_window(0, 300, 804);
        let trace = h.build();
        let spans = trace.spans("controller");
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].1, spans[0].2, spans[0].3), (100, 250, TID_DRAIN));
        assert_eq!(
            (spans[1].1, spans[1].2, spans[1].3),
            (300, 804, TID_REFRESH)
        );
    }

    #[test]
    fn queue_counters_emit_only_on_change() {
        let (mut p, h) = probe();
        p.tick(0, 1, 0, 0, false);
        p.tick(1, 1, 0, 0, false);
        p.tick(2, 2, 0, 0, false);
        let n = h
            .build()
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Counter))
            .count();
        assert_eq!(n, 2);
    }

    /// Every event kind, with and without `args`, as the text the trace
    /// printed when it was a `Value` tree (re-printed compact).
    #[test]
    fn json_fields_are_pinned() {
        let (mut p, h) = ChromeTraceProbe::new(1, 0.8333);
        p.request_accepted(1, 0x1000, false);
        p.request_arrival(1, 0);
        p.cas_issued(1, 10, false, true, 0);
        p.data_returned(1, 40);
        p.command_issued(10, Command::read(BankAddr::new(0, 0, 0), 0), 0);
        p.tick(41, 2, 1, 0, false);
        let trace = h.build();
        let v: Value = serde_json::from_str(&trace.to_json()).expect("valid JSON");
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            concat!(
                r#"{"displayTimeUnit":"ns","traceEvents":["#,
                r#"{"name":"read #1","cat":"request","ts":0.0,"pid":1,"tid":0,"ph":"X","#,
                r#""dur":0.033332,"args":{"id":1,"phys":4096,"row_hit":1}},"#,
                r#"{"name":"queued","cat":"request","ts":0.0,"pid":1,"tid":0,"ph":"X","#,
                r#""dur":0.008333,"args":{"id":1}},"#,
                r#"{"name":"burst","cat":"request","ts":0.008333,"pid":1,"tid":0,"ph":"X","#,
                r#""dur":0.024999000000000004,"args":{"id":1}},"#,
                r#"{"name":"RD","cat":"command","ts":0.008333,"pid":1,"tid":0,"ph":"i","#,
                r#""s":"t","args":{"cycle":10,"row":0,"col":0}},"#,
                r#"{"name":"queues","cat":"controller","ts":0.0341653,"pid":1,"tid":1200,"#,
                r#""ph":"C","args":{"reads":2,"writes":1}}]}"#,
            )
        );
        assert_eq!(serde_json::to_string_pretty(&v).unwrap(), trace.to_json());
    }

    #[test]
    fn json_is_valid_and_has_expected_fields() {
        let (mut p, h) = probe();
        p.request_accepted(1, 0x1000, false);
        p.request_arrival(1, 0);
        p.cas_issued(1, 10, false, true, 0);
        p.data_returned(1, 40);
        p.command_issued(10, Command::read(BankAddr::new(0, 0, 0), 0), 0);
        let json = h.build().to_json();
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_seq)
            .expect("traceEvents array");
        assert!(events.len() >= 4);
        for e in events {
            assert!(e.get("name").is_some());
            assert!(e.get("ph").is_some());
            assert!(e.get("ts").is_some());
            assert!(e.get("pid").is_some());
            assert!(e.get("tid").is_some());
        }
    }

    #[test]
    fn timestamps_scale_by_cycle_time() {
        let (mut p, h) = ChromeTraceProbe::new(2, 2.0);
        p.command_issued(500, Command::precharge(BankAddr::new(0, 0, 0)), 0);
        let trace = h.build();
        assert!(
            (trace.ts_us(500) - 1.0).abs() < 1e-12,
            "500 cycles × 2 ns = 1 µs"
        );
        let json = trace.to_json();
        assert!(json.contains("\"ts\": 1.0"), "{json}");
    }
}
