//! # dramstack — DRAM Bandwidth and Latency Stacks
//!
//! A from-scratch Rust reproduction of *"DRAM Bandwidth and Latency Stacks:
//! Visualizing DRAM Bottlenecks"* (Eyerman, Heirman, Hur — ISPASS 2022):
//! a cycle-level DDR4 model, a memory controller, a closed-loop multicore
//! simulator, and — the paper's contribution — hierarchical **bandwidth
//! stacks** and per-read **latency stacks** that explain where peak DRAM
//! bandwidth is lost and where read latency comes from.
//!
//! This crate is a facade that re-exports the workspace crates:
//!
//! * [`dram`] — DDR4 device timing model.
//! * [`memctrl`] — memory controller (FR-FCFS, write bursts, page policies,
//!   address mapping).
//! * [`obs`] — observability: controller probes, metrics registry,
//!   Chrome-trace export and simulator self-profiling.
//! * [`audit`] — shadow JEDEC protocol auditor, stack-conservation
//!   invariants and seeded-fault injection (armed by default in debug
//!   and test builds).
//! * [`stacks`] — bandwidth/latency stack accounting, through-time
//!   sampling and bandwidth extrapolation (the paper's contribution).
//! * [`cpu`] — out-of-order-proxy cores, caches, prefetcher, cycle stacks.
//! * [`workloads`] — synthetic streams and GAP-style graph kernels.
//! * [`sim`] — the full-system simulator and paper experiment configs.
//! * [`serve`] — the resilient simulation service (`dramstack serve`):
//!   admission control, backpressure, graceful drain.
//! * [`viz`] — ASCII/SVG/CSV renderings of stacks.
//!
//! plus two modules of its own: [`live`] (streaming telemetry on the
//! terminal stack dashboard) and [`figures`] (the paper's figures).
//!
//! # Quickstart
//!
//! ```
//! use dramstack::sim::{Simulator, SystemConfig};
//! use dramstack::workloads::SyntheticPattern;
//!
//! // One core reading sequentially, the paper's Figure 2 leftmost bar.
//! let cfg = SystemConfig::paper_default(1);
//! let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
//! let report = sim.run_for_us(200.0);
//! let bw = report.bandwidth_stack;
//! assert!(bw.achieved_gbps() > 1.0);
//! assert!(bw.achieved_gbps() < bw.peak_gbps());
//! ```

pub mod figures;
pub mod live;

pub use dramstack_audit as audit;
pub use dramstack_core as stacks;
pub use dramstack_cpu as cpu;
pub use dramstack_dram as dram;
pub use dramstack_memctrl as memctrl;
pub use dramstack_obs as obs;
pub use dramstack_serve as serve;
pub use dramstack_sim as sim;
pub use dramstack_viz as viz;
pub use dramstack_workloads as workloads;
