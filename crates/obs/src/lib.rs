//! Observability for the dramstack simulator.
//!
//! Simulation models answer *what happened*; this crate makes it cheap to
//! see *how* it happened without perturbing the model. None of the pieces
//! below may change simulation results:
//!
//! * [`Probe`] — a hook trait the memory controller calls at every
//!   interesting event (request lifecycle, DRAM command issue, write-drain
//!   and refresh windows). The default [`NullProbe`] turns every hook into
//!   an inlined no-op, and the controller additionally gates per-cycle
//!   hooks behind an `attached` flag, so an uninstrumented simulation pays
//!   nothing.
//! * [`CtrlWindowStats`] — controller health over one sampling window
//!   (CAS and row-hit counts, drain cycles, queue-depth
//!   [`HistogramSnapshot`]s), which the stack sampler fills cycle by
//!   cycle and attaches to every through-time sample.
//! * [`ChromeTraceProbe`] — a recording probe that renders request
//!   lifecycles as duration spans and DRAM commands as instant events in
//!   the Chrome trace-event JSON format (loadable in Perfetto or
//!   `chrome://tracing`).
//! * [`PhaseTimers`] / [`PerfReport`] — wall-clock self-profiling of the
//!   simulator's drive loop: where host time goes, and how many simulated
//!   cycles per second the run achieved.
//! * [`StackSeries`] — a bounded-memory streaming through-time series
//!   with pairwise downsampling, the backbone of live telemetry.
//! * [`Advisor`] — the paper's stack-reading diagnosis logic as code:
//!   rule-based bottleneck classification over window shares with
//!   hysteresis, emitting typed [`Diagnosis`] records.
//! * [`DeltaStack`] — A/B differential stacks with a significance
//!   threshold, powering `dramstack diff`.
//!
//! The contract: attaching any probe or enabling any profiling must leave
//! simulation results bit-identical. Probes observe; they never steer.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod advisor;
pub mod chrome;
pub mod diff;
pub mod perf;
mod probe;
pub mod series;
pub mod window;

pub use advisor::{Advisor, BottleneckClass, Diagnosis, WindowObservation};
pub use chrome::{ChromeTrace, ChromeTraceHandle, ChromeTraceProbe, TraceEvent, TraceEventKind};
pub use diff::{ComponentDelta, DeltaStack};
pub use perf::{PerfReport, PhaseTimers, SimPhase};
pub use probe::{NullProbe, Probe, TeeProbe};
pub use series::{StackSeries, WindowMerge};
pub use window::{CtrlWindowStats, HistogramSnapshot, QUEUE_DEPTH_BOUNDS};
