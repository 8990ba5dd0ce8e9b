//! DRAM bandwidth and latency **stacks** — the contribution of
//! *"DRAM Bandwidth and Latency Stacks: Visualizing DRAM Bottlenecks"*
//! (Eyerman, Heirman, Hur — ISPASS 2022).
//!
//! A **bandwidth stack** decomposes the peak bandwidth of a DRAM channel
//! into the achieved read/write bandwidth plus the bandwidth lost to
//! refresh, precharge/activate, timing constraints, unused bank
//! parallelism and plain idleness. The accounting is hierarchical and
//! never double-counts: every DRAM cycle lands in exactly one component
//! (per-bank fractions summing to one cycle), so the stack always adds up
//! to the peak bandwidth.
//!
//! A **latency stack** decomposes the average DRAM read latency into the
//! uncontended base latency, precharge/activate penalties, refresh delays,
//! write-burst delays and residual queueing.
//!
//! The crate also provides [`through_time`] sampling (stacks per time
//! window, for phase analysis) and the paper's stack-based bandwidth
//! extrapolation to higher core counts ([`predict_bandwidth_stack`]).
//!
//! # Example
//!
//! ```
//! use dramstack_core::{BandwidthAccountant, BwComponent};
//! use dramstack_dram::{CycleView, BankActivity, BurstKind};
//!
//! let mut acc = BandwidthAccountant::new(16, 19.2);
//! let mut view = CycleView::idle(16);
//!
//! view.bus = Some(BurstKind::Read);
//! acc.account(&view); // a useful cycle
//! view.bus = None;
//! view.banks[0] = BankActivity::Activating;
//! acc.account(&view); // 1/16 activate + 15/16 bank-idle
//!
//! let stack = acc.stack();
//! assert!((stack.total_gbps() - 19.2).abs() < 1e-9);
//! assert!(stack.gbps(BwComponent::Read) > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bandwidth;
mod components;
mod extrapolate;
mod histogram;
mod latency;
pub mod offline;
mod stack;
pub mod through_time;

pub use bandwidth::{BandwidthAccountant, FirstCauseAccountant};
pub use components::{BwComponent, LatComponent};
pub use extrapolate::{extrapolate_stack, predict_bandwidth_naive, predict_bandwidth_stack};
pub use histogram::LatencyHistogram;
pub use latency::{LatencyAccountant, LatencyStack};
pub use stack::BandwidthStack;
pub use through_time::{SamplerDelta, SamplerState, StackSampler, TimeSample};
