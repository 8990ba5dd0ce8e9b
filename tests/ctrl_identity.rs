//! Tier-1 slice of `crates/memctrl/tests/tick_identity.rs`: the paper's
//! controller under random read/write traffic in lockstep with a twin
//! that is never restored, across a mid-run snapshot/restore (debug
//! builds check every pass against its full-queue `*_scan` oracle), and
//! the per-read breakdowns of a run that replays its stall spans against
//! one that ticks every cycle. The full matrix runs with `cargo test
//! --workspace`.

#[allow(dead_code)] // the full matrix uses the rest of the harness
#[path = "../crates/memctrl/tests/lockstep/mod.rs"]
mod lockstep;

use dramstack_dram::Cycle;
use dramstack_memctrl::{MemoryController, PagePolicy, SchedulerPolicy};
use lockstep::{config, run, tape, Arrival, Driver, Traffic};

#[test]
fn summary_tick_equals_scan_tick_on_random_traffic() {
    let cfg = config(SchedulerPolicy::FrFcfs, PagePolicy::Open, false);
    let arrivals = tape(Traffic::Random, 2_500, 1);
    let out = run(&cfg, Traffic::Random, &arrivals, 12_000, Some(5_000));
    assert!(out.reads_done > 1_000 && out.writes_done > 300, "{out:?}");
    assert!(out.refreshes >= 1, "{out:?}");
}

#[test]
fn replayed_stall_spans_give_every_read_the_ticked_breakdown() {
    // Span replay adds `n` cycles to the attribution totals at once; each
    // read's share must come out as if every cycle had ticked. A prime
    // sample period cuts spans (refresh shadows, write-drain turnarounds,
    // tRCD/CL waits of a pointer chase) at arbitrary places.
    let cfg = config(SchedulerPolicy::FrFcfs, PagePolicy::Open, false);
    let mut arrivals = tape(Traffic::Random, 2_000, 1);
    // A sparse tail: one read every 150 cycles, mostly idle-but-waiting.
    let tail = tape(Traffic::Random, 60, 5);
    let start = arrivals.last().unwrap().at;
    arrivals.extend(tail.iter().enumerate().map(|(i, a)| Arrival {
        at: start + 150 * (i as Cycle + 1),
        write: false,
        ..*a
    }));
    // Every cycle ticked, against every offered span replayed, cut at a
    // 997-cycle sample period.
    let mut ticked = Driver::new(MemoryController::new(cfg.clone()), &arrivals, 0);
    let mut replayed = Driver::new(MemoryController::new(cfg), &arrivals, 0);
    replayed.replay_period = Some(997);
    ticked.run(0..26_000);
    replayed.run(0..26_000);
    assert!(
        replayed.skipped > 10_000 && replayed.cuts >= 8,
        "{} cycles replayed, {} spans cut",
        replayed.skipped,
        replayed.cuts
    );
    assert!(ticked.done.len() > 1_200, "{} reads", ticked.done.len());
    assert_eq!(ticked.done, replayed.done);
}
