//! DRAM memory controller model.
//!
//! Translates read/write requests into DRAM command sequences under a
//! scheduling policy, page policy and address-mapping scheme, and records
//! the per-request latency breakdown that feeds the latency stacks of
//! `dramstack-core`:
//!
//! * **Queues** — a read queue and a write queue with high/low watermarks;
//!   writes are buffered and drained in bursts (the paper's `writeburst`
//!   latency component).
//! * **Scheduling** — FR-FCFS (row hits first, then oldest) or plain FCFS.
//! * **Page policy** — open (rows stay open) or closed (auto-precharge when
//!   no further hits are queued), Section VII-C of the paper.
//! * **Address mapping** — the paper's default row:bank:bank-group:column
//!   layout (Fig. 5a) and the cache-line-interleaved layout (Fig. 5b).
//!
//! # Example
//!
//! ```
//! use dramstack_memctrl::{MemoryController, CtrlConfig};
//! use dramstack_dram::CycleView;
//!
//! let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
//! let mut view = CycleView::idle(ctrl.total_banks());
//! ctrl.enqueue_read(0x1000, 7);
//! for now in 0..200 {
//!     ctrl.tick(now, &mut view);
//! }
//! let done: Vec<_> = ctrl.drain_completions().collect();
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].meta, 7);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod controller;
mod mapping;
mod policy;
mod queue;
mod request;
mod stats;
mod timing;
mod waits;

pub use controller::{CtrlConfig, CtrlSnapshot, MemoryController};
pub use mapping::{AddressMapping, MappingScheme};
pub use policy::{PagePolicy, SchedulerPolicy};
pub use request::{CompletedRead, LatencyBreakdown, RequestId};
pub use stats::{CtrlStats, CtrlWork};
