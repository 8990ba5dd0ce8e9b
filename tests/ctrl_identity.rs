//! Tier-1 slice of `crates/memctrl/tests/tick_identity.rs`: the per-bank
//! summary tick against the full-queue scan tick, in lockstep, on the
//! paper's controller under random read/write traffic, with a mid-run
//! snapshot/restore. The full matrix runs with `cargo test --workspace`.

#[allow(dead_code)] // the full matrix uses the rest of the harness
#[path = "../crates/memctrl/tests/lockstep/mod.rs"]
mod lockstep;

use dramstack_memctrl::{PagePolicy, SchedulerPolicy};
use lockstep::{config, run, tape, Traffic};

#[test]
fn summary_tick_equals_scan_tick_on_random_traffic() {
    let cfg = config(SchedulerPolicy::FrFcfs, PagePolicy::Open, false);
    let arrivals = tape(Traffic::Random, 2_500, 1);
    let out = run(&cfg, Traffic::Random, &arrivals, 12_000, Some(5_000));
    assert!(out.reads_done > 1_000 && out.writes_done > 300, "{out:?}");
    assert!(out.refreshes >= 1, "{out:?}");
}
