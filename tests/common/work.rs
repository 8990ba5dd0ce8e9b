//! The work-counter configurations: the six refbench workloads plus an
//! instruction-less run (`idle_1c`), built at a chosen [`Size`].
//!
//! `examples/ctrl_work.rs` runs them at [`Size::FULL`] and prints the
//! tables EXPERIMENTS.md records; `tests/work_goldens.rs` runs them at
//! [`Size::GOLDEN`] and compares the counters with a committed CSV. The
//! inputs are rebuilt the way `refbench/src/workloads.rs` generates them
//! (same configurations, same seed use); counts do not depend on
//! slicing, checkpointing or the HTTP path, so those are left out.
#![allow(dead_code)]

use dramstack::obs::PerfReport;
use dramstack::sim::{Simulator, SystemConfig};
use dramstack::workloads::{GapConfig, GapKernel, Graph, SyntheticPattern, TraceBuilder};

/// How much of each configuration to run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Factor on the simulated time of the timed runs (`stream_rd_8c`,
    /// `rand_rw_8c`, `ckpt_stream_2c`, `idle_1c`); `serve_closed_2c`
    /// keeps its two 20 us jobs at every size.
    pub time: f64,
    /// Dependent loads `chase_1c` issues.
    pub chase_loads: usize,
    /// Kronecker scale of `gap_pr_8c`'s graph (`2^scale` vertices).
    pub graph_scale: u32,
}

impl Size {
    /// The sizes the refbench workloads run at.
    pub const FULL: Size = Size {
        time: 1.0,
        chase_loads: 400_000,
        graph_scale: 14,
    };

    /// The size of the committed work golden: a few seconds in a debug
    /// build, yet every row runs past several refreshes and every row but
    /// `idle_1c` skips stalled spans.
    pub const GOLDEN: Size = Size {
        time: 0.05,
        chase_loads: 4_000,
        graph_scale: 9,
    };
}

fn synth(cores: usize, mut pattern: SyntheticPattern, seed: u64, us: f64) -> PerfReport {
    pattern.seed = seed;
    Simulator::with_synthetic(SystemConfig::paper_default(cores), pattern)
        .run_for_us(us)
        .perf
}

fn chase(seed: u64, loads: usize) -> PerfReport {
    let (footprint, stride) = (256u64 << 20, 8192u64);
    let mut t = TraceBuilder::new(1);
    let mut pos = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (footprint / stride) * stride;
    for _ in 0..loads {
        t.chain_load(0, 0x4000_0000 + pos, 0);
        pos = (pos + stride) % footprint;
    }
    Simulator::with_traces(SystemConfig::paper_default(1), t.into_traces())
        .run_to_completion(200_000_000)
        .perf
}

fn gap_pr(seed: u64, scale: u32) -> PerfReport {
    let graph = Graph::kronecker(scale, 16, seed);
    let traces = GapKernel::Pr.trace(&graph, 8, &GapConfig::default());
    let mut cfg = SystemConfig::paper_gap(8);
    cfg.sample_period = cfg.us_to_cycles(2.0);
    Simulator::with_traces(cfg, traces)
        .run_to_completion(200_000_000)
        .perf
}

/// `a` plus `b`'s deterministic work counters.
fn add_work(mut a: PerfReport, b: &PerfReport) -> PerfReport {
    a.ctrl_ticks += b.ctrl_ticks;
    a.timing_queries += b.timing_queries;
    a.queue_entries_visited += b.queue_entries_visited;
    a.core_ticks += b.core_ticks;
    a.core_polls += b.core_polls;
    a.hier_accesses += b.hier_accesses;
    a.fast_forwarded_cycles += b.fast_forwarded_cycles;
    a.busy_forwarded_cycles += b.busy_forwarded_cycles;
    a
}

/// The seven configurations in table order, each with its run's
/// `SimReport::perf`.
pub fn rows(seed: u64, size: Size) -> Vec<(&'static str, PerfReport)> {
    // serve_closed_2c alternates two 20 us jobs; one of each is its unit.
    let serve = add_work(
        synth(2, SyntheticPattern::sequential(0.0), seed, 20.0),
        &synth(2, SyntheticPattern::random(0.3), seed, 20.0),
    );
    // A millisecond of simulated time at this size.
    let ms = 1000.0 * size.time;
    vec![
        (
            "stream_rd_8c",
            synth(8, SyntheticPattern::sequential(0.0), seed, ms),
        ),
        (
            "rand_rw_8c",
            synth(8, SyntheticPattern::random(0.5), seed, ms),
        ),
        ("chase_1c", chase(seed, size.chase_loads)),
        ("gap_pr_8c", gap_pr(seed, size.graph_scale)),
        (
            "ckpt_stream_2c",
            synth(2, SyntheticPattern::sequential(0.3), seed, 2.0 * ms),
        ),
        ("serve_closed_2c", serve),
        (
            "idle_1c",
            Simulator::with_traces(SystemConfig::paper_default(1), vec![Vec::new()])
                .run_for_us(ms)
                .perf,
        ),
    ]
}
