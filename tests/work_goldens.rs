//! Work golden: the deterministic work counters of `ctrl_work`'s seven
//! configurations, at [`Size::GOLDEN`], against
//! `tests/data/work/counters.csv`.
//!
//! The counters (controller ticks, timing queries, queue entries visited,
//! core ticks and polls, hierarchy accesses, skipped cycles) are host-side
//! work, not simulation results: a change that should only move host time
//! must leave every row as it is, and a change that means to remove work
//! shows here by how much. Regenerate with
//! `DRAMSTACK_REGEN_GOLDEN=1 cargo test --test work_goldens` and give each
//! moved row a line in CHANGES.md. The CI `refbench` job pins some of the
//! same counters at full size.

mod common;
#[path = "common/work.rs"]
mod work;

use dramstack::obs::PerfReport;
use work::Size;

const GOLDEN: &str = "tests/data/work/counters.csv";

const HEADER: &str = "config,ctrl_ticks,timing_queries,queue_entries_visited,core_ticks,\
                      core_polls,hier_accesses,fast_forwarded_cycles,busy_forwarded_cycles";

fn csv_row(name: &str, p: &PerfReport) -> String {
    format!(
        "{name},{},{},{},{},{},{},{},{}",
        p.ctrl_ticks,
        p.timing_queries,
        p.queue_entries_visited,
        p.core_ticks,
        p.core_polls,
        p.hier_accesses,
        p.fast_forwarded_cycles,
        p.busy_forwarded_cycles,
    )
}

#[test]
fn work_counters_match_their_golden() {
    let mut fresh = format!("{HEADER}\n");
    for (name, perf) in work::rows(1, Size::GOLDEN) {
        fresh += &csv_row(name, &perf);
        fresh.push('\n');
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if common::regen_golden() {
        std::fs::create_dir_all(path.parent().expect("golden has a directory"))
            .expect("create the golden directory");
        std::fs::write(&path, &fresh).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let moved: Vec<String> = golden
        .lines()
        .zip(fresh.lines())
        .filter(|(g, f)| g != f)
        .map(|(g, f)| format!("golden  {g}\n  now     {f}"))
        .collect();
    assert!(
        moved.is_empty() && golden.lines().count() == fresh.lines().count(),
        "work counters moved against {GOLDEN} (columns: {HEADER}):\n  {}\n\
         If the change behind this means to move work, regenerate with \
         DRAMSTACK_REGEN_GOLDEN=1 cargo test --test work_goldens and add a line \
         to CHANGES.md naming each moved row and why it moved.",
        moved.join("\n  ")
    );
}
