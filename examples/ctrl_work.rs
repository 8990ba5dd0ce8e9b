//! Controller and cpu-layer work per tick on the six refbench
//! configurations, plus an instruction-less run (`idle_1c`) whose
//! `ctrl_ticks` are exactly what the skip engine leaves to step around
//! each refresh.
//!
//! Prints `SimReport::perf`'s deterministic work counters — `ctrl_ticks`,
//! `timing_queries`, `queue_entries_visited`, then `core_ticks`,
//! `core_polls`, `hier_accesses`, then the device's `memo_hits`,
//! `memo_refolds` — as the per-controller-tick tables EXPERIMENTS.md
//! records before and after a change to any of the three layers. The
//! inputs are rebuilt here the way `refbench/src/workloads.rs` generates
//! them (same configurations, same seed use); counts do not depend on
//! slicing, checkpointing or the HTTP path, so those are left out.
//!
//! ```text
//! cargo run --release --example ctrl_work [SEED]     # default seed 1
//! ```

use dramstack::obs::PerfReport;
use dramstack::sim::{Simulator, SystemConfig};
use dramstack::workloads::{GapConfig, GapKernel, Graph, SyntheticPattern, TraceBuilder};

fn synth(cores: usize, mut pattern: SyntheticPattern, seed: u64, us: f64) -> PerfReport {
    pattern.seed = seed;
    Simulator::with_synthetic(SystemConfig::paper_default(cores), pattern)
        .run_for_us(us)
        .perf
}

fn chase(seed: u64) -> PerfReport {
    let (footprint, stride) = (256u64 << 20, 8192u64);
    let mut t = TraceBuilder::new(1);
    let mut pos = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (footprint / stride) * stride;
    for _ in 0..400_000 {
        t.chain_load(0, 0x4000_0000 + pos, 0);
        pos = (pos + stride) % footprint;
    }
    Simulator::with_traces(SystemConfig::paper_default(1), t.into_traces())
        .run_to_completion(200_000_000)
        .perf
}

fn gap_pr(seed: u64) -> PerfReport {
    let graph = Graph::kronecker(14, 16, seed);
    let traces = GapKernel::Pr.trace(&graph, 8, &GapConfig::default());
    let mut cfg = SystemConfig::paper_gap(8);
    cfg.sample_period = cfg.us_to_cycles(2.0);
    Simulator::with_traces(cfg, traces)
        .run_to_completion(200_000_000)
        .perf
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map_or(1, |s| s.parse().expect("seed must be an integer"));
    // serve_closed_2c alternates two 20 us jobs; one of each is its unit.
    let serve = {
        let mut a = synth(2, SyntheticPattern::sequential(0.0), seed, 20.0);
        let b = synth(2, SyntheticPattern::random(0.3), seed, 20.0);
        a.ctrl_ticks += b.ctrl_ticks;
        a.timing_queries += b.timing_queries;
        a.queue_entries_visited += b.queue_entries_visited;
        a.core_ticks += b.core_ticks;
        a.core_polls += b.core_polls;
        a.hier_accesses += b.hier_accesses;
        a.memo_hits += b.memo_hits;
        a.memo_refolds += b.memo_refolds;
        a
    };
    let rows = [
        (
            "stream_rd_8c",
            synth(8, SyntheticPattern::sequential(0.0), seed, 1000.0),
        ),
        (
            "rand_rw_8c",
            synth(8, SyntheticPattern::random(0.5), seed, 1000.0),
        ),
        ("chase_1c", chase(seed)),
        ("gap_pr_8c", gap_pr(seed)),
        (
            "ckpt_stream_2c",
            synth(2, SyntheticPattern::sequential(0.3), seed, 2000.0),
        ),
        ("serve_closed_2c", serve),
        (
            "idle_1c",
            Simulator::with_traces(SystemConfig::paper_default(1), vec![Vec::new()])
                .run_for_us(1000.0)
                .perf,
        ),
    ];
    println!("| config | ctrl_ticks | timing_queries/tick | queue_entries_visited/tick |");
    println!("|---|---|---|---|");
    for (name, p) in &rows {
        let ticks = p.ctrl_ticks.max(1) as f64;
        println!(
            "| `{name}` | {} | {:.2} | {:.2} |",
            p.ctrl_ticks,
            p.timing_queries as f64 / ticks,
            p.queue_entries_visited as f64 / ticks,
        );
    }
    println!();
    println!("| config | core_ticks | core_polls | hier_accesses | per ctrl tick |");
    println!("|---|---|---|---|---|");
    for (name, p) in &rows {
        let ticks = p.ctrl_ticks.max(1) as f64;
        println!(
            "| `{name}` | {} | {} | {} | {:.2} / {:.2} / {:.2} |",
            p.core_ticks,
            p.core_polls,
            p.hier_accesses,
            p.core_ticks as f64 / ticks,
            p.core_polls as f64 / ticks,
            p.hier_accesses as f64 / ticks,
        );
    }
    println!();
    println!("| config | memo_hits | memo_refolds | per ctrl tick |");
    println!("|---|---|---|---|");
    for (name, p) in &rows {
        let ticks = p.ctrl_ticks.max(1) as f64;
        println!(
            "| `{name}` | {} | {} | {:.2} / {:.2} |",
            p.memo_hits,
            p.memo_refolds,
            p.memo_hits as f64 / ticks,
            p.memo_refolds as f64 / ticks,
        );
    }
}
