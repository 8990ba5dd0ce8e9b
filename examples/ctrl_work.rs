//! Controller and cpu-layer work per tick on the six refbench
//! configurations, plus an instruction-less run (`idle_1c`) whose
//! `ctrl_ticks` are exactly what the skip engine leaves to step around
//! each refresh.
//!
//! Prints `SimReport::perf`'s deterministic work counters — `ctrl_ticks`,
//! `timing_queries`, `queue_entries_visited`, then `core_ticks`,
//! `core_polls`, `hier_accesses` — as the per-controller-tick tables
//! EXPERIMENTS.md records before and after a change to either layer. The
//! configurations are defined once, in `tests/common/work.rs`, which
//! `tests/work_goldens.rs` runs at a reduced size against a committed CSV.
//!
//! ```text
//! cargo run --release --example ctrl_work [SEED]     # default seed 1
//! ```

#[path = "../tests/common/work.rs"]
mod work;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map_or(1, |s| s.parse().expect("seed must be an integer"));
    let rows = work::rows(seed, work::Size::FULL);
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
}
