//! The telemetry bridge between a running job and its stream readers.
//!
//! A [`StreamHub`] is a bounded, append-only line buffer with a condvar:
//! the worker's [`TelemetrySink`] pushes one JSONL record per sample
//! window, any number of `/jobs/<id>/stream` connections block on
//! [`StreamHub::wait_from`] and replay from whatever index they have
//! reached. Closing the hub wakes every reader for the final drain. Only
//! the server closes it, after the job's terminal status is stored — never
//! the sink at the end of telemetry, which comes first — so a reader that
//! has seen the stream end finds the job finished. The bound turns a
//! runaway job into a truncated stream instead of unbounded server memory.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dramstack_core::TimeSample;
use dramstack_obs::{BottleneckClass, WindowObservation};
use dramstack_sim::telemetry::{jsonl_record, Telemetry};
use dramstack_sim::TelemetrySink;

/// Retained lines per job stream; pushes beyond this are counted, not
/// stored.
pub const STREAM_CAP_LINES: usize = 10_000;

#[derive(Debug, Default)]
struct HubInner {
    lines: Vec<String>,
    closed: bool,
    dropped: u64,
}

/// Bounded broadcast buffer for one job's JSONL telemetry stream.
#[derive(Debug, Default)]
pub struct StreamHub {
    inner: Mutex<HubInner>,
    cond: Condvar,
}

impl StreamHub {
    /// An open, empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one line (dropped and counted past [`STREAM_CAP_LINES`])
    /// and wakes readers.
    pub fn push(&self, line: String) {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if g.lines.len() < STREAM_CAP_LINES {
            g.lines.push(line);
        } else {
            g.dropped += 1;
        }
        drop(g);
        self.cond.notify_all();
    }

    /// Marks the stream finished and wakes readers. Idempotent. For a
    /// job's hub the caller must have published the terminal status first
    /// (see the module docs).
    pub fn close(&self) {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        g.closed = true;
        drop(g);
        self.cond.notify_all();
    }

    /// Lines dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dropped
    }

    /// Blocks until there are lines past `from` or the hub closes (or
    /// `timeout` elapses), then returns everything new plus the closed
    /// flag. A `(empty, true)` return means the reader has seen it all.
    pub fn wait_from(&self, from: usize, timeout: Duration) -> (Vec<String>, bool) {
        let deadline = Instant::now() + timeout;
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        while g.lines.len() <= from && !g.closed {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, res) = self
                .cond
                .wait_timeout(g, left)
                .unwrap_or_else(PoisonError::into_inner);
            g = guard;
            if res.timed_out() {
                break;
            }
        }
        let start = from.min(g.lines.len());
        (g.lines[start..].to_vec(), g.closed)
    }
}

/// The [`TelemetrySink`] installed on every job's telemetry: forwards
/// each window to the job's [`StreamHub`] as a JSONL line and folds it
/// into the fleet-wide [`Telemetry`] behind `/metrics`.
pub struct HubSink {
    hub: Arc<StreamHub>,
    fleet: Arc<Mutex<Telemetry>>,
}

impl std::fmt::Debug for HubSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HubSink").finish_non_exhaustive()
    }
}

impl HubSink {
    /// A sink feeding `hub` and the shared `fleet` aggregate.
    pub fn new(hub: Arc<StreamHub>, fleet: Arc<Mutex<Telemetry>>) -> Self {
        HubSink { hub, fleet }
    }
}

impl TelemetrySink for HubSink {
    fn window(
        &mut self,
        index: u64,
        sample: &TimeSample,
        obs: &WindowObservation,
        current: Option<BottleneckClass>,
    ) {
        self.hub.push(jsonl_record(index, sample, obs, current));
        self.fleet
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .ingest_window(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn wait_from_sees_pushes_and_close() {
        let hub = Arc::new(StreamHub::new());
        let h = hub.clone();
        let t = thread::spawn(move || {
            h.push("a".to_string());
            h.push("b".to_string());
            h.close();
        });
        let mut from = 0;
        let mut all = Vec::new();
        loop {
            let (lines, closed) = hub.wait_from(from, Duration::from_secs(5));
            from += lines.len();
            all.extend(lines);
            if closed && from == 2 {
                break;
            }
        }
        t.join().unwrap();
        assert_eq!(all, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn cap_drops_and_counts() {
        let hub = StreamHub::new();
        for i in 0..(STREAM_CAP_LINES + 3) {
            hub.push(format!("{i}"));
        }
        assert_eq!(hub.dropped(), 3);
        let (lines, _) = hub.wait_from(0, Duration::from_millis(1));
        assert_eq!(lines.len(), STREAM_CAP_LINES);
    }

    #[test]
    fn wait_times_out_without_traffic() {
        let hub = StreamHub::new();
        let (lines, closed) = hub.wait_from(0, Duration::from_millis(10));
        assert!(lines.is_empty());
        assert!(!closed);
    }
}
