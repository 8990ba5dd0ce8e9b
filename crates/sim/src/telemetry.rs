//! Live stack telemetry: the streaming layer between the simulator's
//! sample windows and the outside world.
//!
//! A [`Telemetry`] instance attached via
//! [`Simulator::attach_telemetry`](crate::Simulator::attach_telemetry)
//! receives every completed sample window as it rolls (including windows
//! rolled inside a skipped span). It
//!
//! * retains a bounded-memory [`StackSeries`] of [`TimeSample`]s (pairwise
//!   downsampling keeps arbitrarily long runs in 256 buckets),
//! * runs a live [`Advisor`] so the current bottleneck class is known
//!   while the simulation runs,
//! * streams one JSON-lines record per window to an optional writer,
//! * renders a Prometheus-style text exposition on demand, and writes it
//!   once at the end of the run, and
//! * fans each window out to any number of [`TelemetrySink`]s (the live
//!   terminal dashboard is one).
//!
//! Telemetry is an observer: it reads windows the sampler produced and
//! never touches simulation state, so runs are bit-identical with or
//! without it attached (asserted in `tests/telemetry.rs`).

use std::io::Write;

use serde::{Serialize, Sink};

use dramstack_core::{BwComponent, LatComponent, TimeSample};
use dramstack_obs::{Advisor, BottleneckClass, StackSeries, WindowObservation};

/// Ring capacity of the retained window series; the ring downsamples
/// pairwise when full.
const SERIES_CAPACITY: usize = 256;

/// The argument of [`Telemetry::new`]. Telemetry has no settings; kept
/// only for the benchmark's callers, and goes when they do.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig;

/// A consumer of published sample windows (e.g. the live dashboard).
///
/// `Send` so a [`Telemetry`] (and the simulator carrying it) can move
/// across threads — the serve worker pool hands jobs, telemetry
/// attached, to supervised attempt threads.
pub trait TelemetrySink: Send {
    /// One system-level sample window, already aggregated over channels,
    /// with its advisor projection and the advisor's current sustained
    /// bottleneck (if any).
    fn window(
        &mut self,
        index: u64,
        sample: &TimeSample,
        obs: &WindowObservation,
        current: Option<BottleneckClass>,
    );

    /// The run ended; flush any buffered output.
    fn finish(&mut self) {}
}

/// The streaming telemetry state attached to a [`Simulator`](crate::Simulator).
pub struct Telemetry {
    series: StackSeries<TimeSample>,
    advisor: Advisor,
    windows: u64,
    last: Option<WindowObservation>,
    jsonl: Option<Box<dyn Write + Send>>,
    prom: Option<Box<dyn Write + Send>>,
    sinks: Vec<Box<dyn TelemetrySink>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("windows", &self.windows)
            .field("series_len", &self.series.len())
            .field("jsonl", &self.jsonl.is_some())
            .field("prom", &self.prom.is_some())
            .field("sinks", &self.sinks.len())
            .finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    /// Telemetry with no writers and no sinks.
    fn default() -> Self {
        Telemetry {
            series: StackSeries::new(SERIES_CAPACITY),
            advisor: Advisor::default(),
            windows: 0,
            last: None,
            jsonl: None,
            prom: None,
            sinks: Vec::new(),
        }
    }
}

impl Telemetry {
    /// [`default`](Self::default). Kept only for the benchmark's callers;
    /// the stub goes when they do.
    #[doc(hidden)]
    pub fn new(_: TelemetryConfig) -> Self {
        Self::default()
    }

    /// Streams one JSON object per published window to `w`.
    pub fn with_jsonl(mut self, w: Box<dyn Write + Send>) -> Self {
        self.jsonl = Some(w);
        self
    }

    /// Writes the Prometheus text exposition to `w` once, at the end of
    /// the run (use [`Simulator::telemetry`](crate::Simulator::telemetry)
    /// and [`prometheus_snapshot`](Self::prometheus_snapshot) to render on
    /// demand instead).
    pub fn with_prometheus(mut self, w: Box<dyn Write + Send>) -> Self {
        self.prom = Some(w);
        self
    }

    /// Adds a window consumer (e.g. the live dashboard adapter).
    pub fn add_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.sinks.push(sink);
    }

    /// The retained (possibly downsampled) window series.
    pub fn series(&self) -> &StackSeries<TimeSample> {
        &self.series
    }

    /// Windows published so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Ingests one system-level sample window. Called by the simulator's
    /// drive loop whenever a sampler window rolls.
    pub(crate) fn publish(&mut self, sample: &TimeSample) {
        let obs = sample.observation();
        self.advisor.observe(&obs);
        let current = self.advisor.current();
        let index = self.windows;
        self.windows += 1;
        if let Some(w) = &mut self.jsonl {
            let record = jsonl_record(index, sample, &obs, current);
            // Best-effort: telemetry must never kill the simulation.
            let _ = writeln!(w, "{record}");
        }
        for sink in &mut self.sinks {
            sink.window(index, sample, &obs, current);
        }
        self.series.push(sample.clone());
        self.last = Some(obs);
    }

    /// Feeds a window sample from outside the simulator drive loop.
    /// Lets a service aggregate windows from many jobs into one shared
    /// [`Telemetry`] whose [`prometheus_snapshot`](Self::prometheus_snapshot)
    /// covers the whole fleet.
    pub fn ingest_window(&mut self, sample: &TimeSample) {
        self.publish(sample);
    }

    /// Renders the Prometheus-style text exposition of the current state:
    /// aggregate stack shares over the retained series, last-window
    /// gauges, and run counters.
    pub fn prometheus_snapshot(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP dramstack_windows_total Sample windows published\n");
        out.push_str("# TYPE dramstack_windows_total counter\n");
        out.push_str(&format!("dramstack_windows_total {}\n", self.windows));

        // Aggregate over everything retained (buckets plus the pending
        // partial bucket) — downsampling conserves all of these.
        let mut agg: Option<TimeSample> = None;
        for s in self.series.buckets().iter().chain(self.series.pending()) {
            match &mut agg {
                Some(a) => {
                    use dramstack_obs::WindowMerge;
                    a.merge_window(s);
                }
                None => agg = Some(s.clone()),
            }
        }
        if let Some(a) = agg {
            out.push_str("# HELP dramstack_bw_share Aggregate bandwidth-stack share of peak\n");
            out.push_str("# TYPE dramstack_bw_share gauge\n");
            for c in BwComponent::ALL {
                out.push_str(&format!(
                    "dramstack_bw_share{{component=\"{}\"}} {:.6}\n",
                    c.label(),
                    a.bandwidth.fraction(c)
                ));
            }
            out.push_str("# HELP dramstack_achieved_gbps Aggregate achieved bandwidth\n");
            out.push_str("# TYPE dramstack_achieved_gbps gauge\n");
            out.push_str(&format!(
                "dramstack_achieved_gbps {:.6}\n",
                a.bandwidth.achieved_gbps()
            ));
            out.push_str("# HELP dramstack_lat_ns Aggregate latency-stack component, ns\n");
            out.push_str("# TYPE dramstack_lat_ns gauge\n");
            for c in LatComponent::ALL {
                out.push_str(&format!(
                    "dramstack_lat_ns{{component=\"{}\"}} {:.6}\n",
                    c.label(),
                    a.latency.ns(c)
                ));
            }
            out.push_str("# HELP dramstack_reads_total Reads completed in retained windows\n");
            out.push_str("# TYPE dramstack_reads_total counter\n");
            out.push_str(&format!("dramstack_reads_total {}\n", a.latency.reads));
        }
        if let Some(obs) = &self.last {
            out.push_str("# HELP dramstack_row_hit_rate Last-window row-buffer hit rate\n");
            out.push_str("# TYPE dramstack_row_hit_rate gauge\n");
            out.push_str(&format!("dramstack_row_hit_rate {:.6}\n", obs.row_hit_rate));
            out.push_str("# HELP dramstack_read_queue_depth Last-window mean read-queue depth\n");
            out.push_str("# TYPE dramstack_read_queue_depth gauge\n");
            out.push_str(&format!(
                "dramstack_read_queue_depth {:.6}\n",
                obs.mean_read_queue_depth
            ));
        }
        out.push_str("# HELP dramstack_bottleneck Current sustained bottleneck (1 = active)\n");
        out.push_str("# TYPE dramstack_bottleneck gauge\n");
        for c in BottleneckClass::ALL {
            let active = self.advisor.current() == Some(c);
            out.push_str(&format!(
                "dramstack_bottleneck{{class=\"{}\"}} {}\n",
                c.name(),
                u8::from(active)
            ));
        }
        out
    }

    /// End of run: the Prometheus snapshot, flush JSONL, finish sinks.
    pub(crate) fn finish_run(&mut self) {
        if let Some(mut w) = self.prom.take() {
            let _ = w.write_all(self.prometheus_snapshot().as_bytes());
            let _ = w.flush();
            self.prom = Some(w);
        }
        if let Some(w) = &mut self.jsonl {
            let _ = w.flush();
        }
        for sink in &mut self.sinks {
            sink.finish();
        }
    }
}

/// One JSON-lines record: flat scalars plus labeled share objects, so
/// `jq` consumers need no knowledge of the stack component order.
pub fn jsonl_record(
    index: u64,
    sample: &TimeSample,
    obs: &WindowObservation,
    current: Option<BottleneckClass>,
) -> String {
    let record = Record {
        index,
        sample,
        obs,
        current,
    };
    serde_json::to_string(&record).unwrap_or_default()
}

/// The fields of a [`jsonl_record`], written as they are serialized.
struct Record<'a> {
    index: u64,
    sample: &'a TimeSample,
    obs: &'a WindowObservation,
    current: Option<BottleneckClass>,
}

impl Serialize for Record<'_> {
    fn serialize(&self, out: &mut dyn Sink) {
        let (sample, obs) = (self.sample, self.obs);
        out.map(12);
        out.key("window");
        self.index.serialize(out);
        out.key("start_cycle");
        sample.start_cycle.serialize(out);
        out.key("cycles");
        sample.cycles.serialize(out);
        out.key("achieved_gbps");
        out.float(sample.bandwidth.achieved_gbps());
        out.key("peak_gbps");
        out.float(sample.bandwidth.peak_gbps());
        out.key("bw_share");
        out.map(BwComponent::ALL.len());
        for &c in &BwComponent::ALL {
            out.key(c.label());
            out.float(sample.bandwidth.fraction(c));
        }
        out.end();
        out.key("lat_ns");
        out.map(LatComponent::ALL.len());
        for &c in &LatComponent::ALL {
            out.key(c.label());
            out.float(sample.latency.ns(c));
        }
        out.end();
        out.key("reads");
        sample.latency.reads.serialize(out);
        out.key("row_hit_rate");
        out.float(obs.row_hit_rate);
        out.key("read_queue_depth");
        out.float(obs.mean_read_queue_depth);
        out.key("drain_occupancy");
        out.float(obs.drain_occupancy);
        out.key("bottleneck");
        self.current.map(BottleneckClass::name).serialize(out);
        out.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A Write that appends into a shared buffer the test can read back.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample(start: u64) -> TimeSample {
        use dramstack_dram::{BurstKind, CycleView};
        let mut s = dramstack_core::StackSampler::new(16, 19.2, 0.8333, 100);
        let mut busy = CycleView::idle(16);
        busy.bus = Some(BurstKind::Read);
        for _ in 0..100 {
            s.account(&busy);
        }
        let mut out = s.finish().remove(0);
        out.start_cycle = start;
        out
    }

    #[test]
    fn jsonl_stream_is_one_valid_object_per_window() {
        let buf = Shared::default();
        let mut t = Telemetry::default().with_jsonl(Box::new(buf.clone()));
        for i in 0..5 {
            t.publish(&sample(i * 100));
        }
        t.finish_run();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for (i, l) in lines.iter().enumerate() {
            let v: serde::Value = serde_json::from_str(l).expect("valid JSON line");
            assert_eq!(
                v.get("window").and_then(serde::Value::as_u64),
                Some(i as u64)
            );
            let read_share = v
                .get("bw_share")
                .and_then(|m| m.get("read"))
                .and_then(serde::Value::as_f64)
                .expect("bw_share.read present");
            assert!(read_share > 0.9);
            assert_eq!(v.get("cycles").and_then(serde::Value::as_u64), Some(100));
        }
    }

    #[test]
    fn prometheus_snapshot_has_all_series() {
        let mut t = Telemetry::default();
        for i in 0..3 {
            t.publish(&sample(i * 100));
        }
        let snap = t.prometheus_snapshot();
        assert!(snap.contains("dramstack_windows_total 3"));
        for c in BwComponent::ALL {
            assert!(
                snap.contains(&format!(
                    "dramstack_bw_share{{component=\"{}\"}}",
                    c.label()
                )),
                "missing {c:?} in:\n{snap}"
            );
        }
        for c in LatComponent::ALL {
            assert!(snap.contains(&format!("dramstack_lat_ns{{component=\"{}\"}}", c.label())));
        }
        assert!(snap.contains("dramstack_bottleneck{class=\"saturated\"}"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for l in snap.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = l.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad exposition line: {l}");
        }
    }

    #[test]
    fn series_is_bounded_and_conserves_cycles() {
        let mut t = Telemetry::default();
        for i in 0..1000 {
            t.publish(&sample(i * 100));
        }
        assert!(t.series().len() <= SERIES_CAPACITY);
        assert_eq!(t.series().total_pushed(), 1000);
        let cycles: u64 = t
            .series()
            .buckets()
            .iter()
            .chain(t.series().pending())
            .map(|s| s.cycles)
            .sum();
        assert_eq!(cycles, 1000 * 100);
    }

    #[test]
    fn sinks_see_every_window_and_finish() {
        struct Probe(Arc<Mutex<(u64, bool)>>);
        impl TelemetrySink for Probe {
            fn window(
                &mut self,
                _i: u64,
                _s: &TimeSample,
                _o: &WindowObservation,
                _c: Option<BottleneckClass>,
            ) {
                self.0.lock().unwrap().0 += 1;
            }
            fn finish(&mut self) {
                self.0.lock().unwrap().1 = true;
            }
        }
        let state = Arc::new(Mutex::new((0, false)));
        let mut t = Telemetry::default();
        t.add_sink(Box::new(Probe(Arc::clone(&state))));
        for i in 0..7 {
            t.publish(&sample(i * 100));
        }
        t.finish_run();
        let s = state.lock().unwrap();
        assert_eq!(s.0, 7);
        assert!(s.1);
    }

    #[test]
    fn saturated_windows_surface_a_live_diagnosis() {
        // All-read windows are fully saturated; after the hysteresis the
        // advisor's live classification must say so.
        let mut t = Telemetry::default();
        for i in 0..6 {
            t.publish(&sample(i * 100));
        }
        assert_eq!(t.advisor.current(), Some(BottleneckClass::Saturated));
    }
}
