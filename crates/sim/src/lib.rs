//! Full-system closed-loop simulator and the paper's experiment harness.
//!
//! Wires together the workspace crates — cores and caches
//! (`dramstack-cpu`), memory controller (`dramstack-memctrl`), the DRAM
//! device (`dramstack-dram`) and the stack accounting (`dramstack-core`) —
//! into one cycle-driven simulation, plus ready-made drivers for every
//! figure of the paper in [`experiments`].
//!
//! # Example
//!
//! ```
//! use dramstack_sim::{Simulator, SystemConfig};
//! use dramstack_workloads::SyntheticPattern;
//!
//! let cfg = SystemConfig::paper_default(1);
//! let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
//! let report = sim.run_for_us(20.0);
//! assert!(report.achieved_gbps() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binary;
pub mod campaign;
pub mod ckpt;
mod config;
pub mod experiments;
pub mod jobs;
pub mod parallel;
mod parking;
pub mod replay;
mod report;
mod snapshot;
mod system;
pub mod telemetry;

pub use campaign::{job_key, Campaign, CampaignError};
pub use ckpt::{
    catch_termination_signals, clear_interrupt, interrupt_signal, interrupted, request_interrupt,
    request_interrupt_signal, CheckpointChain, CheckpointWriter, SnapshotFormat,
};
pub use config::{ConfigError, SystemConfig};
pub use jobs::{run_job, JobCancel, JobCheckpoint, JobError, JobOptions, JobSpec};
pub use report::{diff_reports, load_report, ReportLoadError, SimReport};
pub use snapshot::{
    Snapshot, SnapshotDelta, SnapshotError, SNAPSHOT_BINARY_VERSION, SNAPSHOT_FORMAT_VERSION,
};
pub use system::Simulator;
pub use telemetry::{Telemetry, TelemetryConfig, TelemetrySink};
