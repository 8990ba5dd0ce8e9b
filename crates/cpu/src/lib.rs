//! CPU substrate for the DRAM stack simulator: out-of-order-proxy cores,
//! a write-back cache hierarchy with a stream prefetcher, and CPU cycle
//! (CPI) stacks.
//!
//! The cores close the loop that the paper's analysis depends on: a core
//! only issues more memory requests while its reorder buffer and MSHRs
//! have room, so higher DRAM latency lowers the request rate — which is
//! exactly the feedback the bandwidth stacks visualize.
//!
//! # Example
//!
//! ```
//! use dramstack_cpu::{CoreModel, CoreConfig, Hierarchy, HierarchyConfig};
//! use dramstack_cpu::{VecStream, Instr};
//!
//! let mut hier = Hierarchy::new(1, HierarchyConfig::paper_default());
//! let mut core = CoreModel::new(0, CoreConfig::paper_default());
//! let mut prog = VecStream::new(vec![Instr::Load { addr: 0x1000 }]);
//!
//! core.tick(&mut prog, &mut hier, 0);
//! // The cold load missed all the way to DRAM:
//! let req = hier.pop_read().expect("outbound DRAM read");
//! assert_eq!(req.line, 0x1000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod core_model;
mod cycle_stack;
mod hierarchy;
mod instr;
mod mshr;
mod prefetch;

pub use cache::{Cache, CacheConfig, CacheDelta, CacheOutcome, CacheStats, DirtySets, SetPatch};
pub use core_model::{CoreConfig, CoreModel, CoreState, StallKind};
pub use cycle_stack::{CycleComponent, CycleStack};
pub use hierarchy::{
    AccessResult, Hierarchy, HierarchyConfig, HierarchyDelta, HierarchyLive, HierarchyState,
    HierarchyStats, OutboundRead, Woken,
};
pub use instr::{FnStream, Instr, InstrStream, VecStream};
pub use prefetch::{PrefetchConfig, StreamPrefetcher};
