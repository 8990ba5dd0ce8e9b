//! `dramstack serve`: a resilient, std-only simulation service.
//!
//! A long-running daemon that accepts simulation jobs over HTTP/1.1
//! (hand-rolled on [`std::net`] — no registry dependencies), runs them
//! on a supervised worker pool, and degrades gracefully under every
//! kind of abuse this repo knows how to inject:
//!
//! * **Admission control** — a bounded queue; overload answers 429 with
//!   `Retry-After` instead of queueing unboundedly.
//! * **Fault isolation** — each job runs under
//!   [`parallel::supervise`](dramstack_sim::parallel): a panicking or
//!   hung job is caught/abandoned by the watchdog and reported as a
//!   typed failure while sibling jobs keep running.
//! * **Slow-loris defense** — per-connection read/write deadlines and a
//!   hard request-body cap, each mapping to a typed 4xx.
//! * **Graceful drain** — on SIGTERM/SIGINT (or
//!   [`ServerHandle::drain`]), stop accepting, shed the queue, let
//!   running jobs finish within a grace period, then cancel them
//!   cooperatively — cancelled jobs checkpoint for resume when a
//!   checkpoint directory is configured.
//!
//! # API
//!
//! | Endpoint | Behavior |
//! |---|---|
//! | `POST /jobs` | Submit a [`JobSpec`](dramstack_sim::JobSpec) JSON body → 202 `{id}`, 400 typed, 429 shed, 503 draining |
//! | `GET /jobs/<id>` | Status JSON (`elapsed_ms` = `queue_ms` + `run_ms`; report inline once done); 404 once the job is among the finished ones beyond [`MAX_FINISHED_JOBS`] |
//! | `GET /jobs/<id>/stream` | Chunked JSONL: one telemetry record per sample window; ends only once the job's terminal status is readable |
//! | `GET /healthz` | Liveness (always 200 while the loop runs) |
//! | `GET /readyz` | Readiness (503 once draining) |
//! | `GET /metrics` | Prometheus text: fleet-aggregated stacks + serve counters |
//!
//! ```no_run
//! use dramstack_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..ServeConfig::default()
//! })?;
//! let addr = server.local_addr();
//! let handle = server.handle();
//! std::thread::spawn(move || server.serve());
//!
//! let client = Client::new(addr.to_string());
//! let id = client.submit_job(r#"{"pattern":"seq","cores":2,"us":5}"#)?;
//! let final_status = client.wait_job(id, std::time::Duration::from_secs(60))?;
//! handle.drain();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::path::PathBuf;
use std::time::Duration;

pub mod client;
pub mod http;
pub mod hub;
mod server;

pub use client::{Client, ClientError};
pub use hub::{HubSink, StreamHub, STREAM_CAP_LINES};
pub use server::{ServeStats, Server, ServerHandle, MAX_FINISHED_JOBS};

/// Everything tunable about the daemon. The defaults are production-ish;
/// tests shrink the timeouts and caps to provoke every failure path
/// quickly.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` for an OS-assigned port).
    pub addr: String,
    /// Worker threads executing jobs (≥ 1 enforced).
    pub workers: usize,
    /// Bounded admission queue; submissions past this shed with 429.
    pub queue_cap: usize,
    /// Hard request-body cap → 413.
    pub max_body_bytes: usize,
    /// Per-connection read deadline (slow-loris defense) → 408.
    pub read_timeout: Duration,
    /// Per-connection write deadline (slow readers get dropped).
    pub write_timeout: Duration,
    /// Per-job wall-clock budget; `None` disables it. The supervisor's
    /// watchdog backstops it with a 2 s margin.
    pub job_deadline: Option<Duration>,
    /// No-progress watchdog for jobs (catches hangs that never pulse).
    pub job_stall_timeout: Duration,
    /// How long drain waits for running jobs before cancelling them.
    pub drain_grace: Duration,
    /// Where cancelled jobs checkpoint (`ckpt-job-<id>.*`); `None`
    /// disables checkpoint-on-cancel.
    pub checkpoint_dir: Option<PathBuf>,
    /// Concurrent-connection cap; excess connections get a fast 503.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7077".to_string(),
            workers: 2,
            queue_cap: 16,
            max_body_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            job_deadline: Some(Duration::from_secs(300)),
            job_stall_timeout: Duration::from_secs(10),
            drain_grace: Duration::from_secs(10),
            checkpoint_dir: None,
            max_connections: 64,
        }
    }
}
