//! Tier-1 slice of `crates/memctrl/tests/tick_identity.rs`: the per-bank
//! summary tick against the full-queue scan tick, in lockstep, on the
//! paper's controller under random read/write traffic, with a mid-run
//! snapshot/restore, and the per-read breakdowns of a run that replays
//! its stall spans against one that ticks every cycle. The full matrix
//! runs with `cargo test --workspace`.

#[allow(dead_code)] // the full matrix uses the rest of the harness
#[path = "../crates/memctrl/tests/lockstep/mod.rs"]
mod lockstep;

use dramstack_dram::{Cycle, CycleView};
use dramstack_memctrl::{CompletedRead, CtrlConfig, MemoryController, PagePolicy, SchedulerPolicy};
use lockstep::{config, run, tape, Arrival, Traffic};

#[test]
fn summary_tick_equals_scan_tick_on_random_traffic() {
    let cfg = config(SchedulerPolicy::FrFcfs, PagePolicy::Open, false);
    let arrivals = tape(Traffic::Random, 2_500, 1);
    let out = run(&cfg, Traffic::Random, &arrivals, 12_000, Some(5_000));
    assert!(out.reads_done > 1_000 && out.writes_done > 300, "{out:?}");
    assert!(out.refreshes >= 1, "{out:?}");
}

/// Runs `arrivals` for `cycles` cycles and returns every completion. With
/// `skip`, the engine is on and every span `stall_horizon` offers is
/// replayed by `apply_stall_span` instead of ticked — cut, as the
/// simulator's drive loops cut it, at the next multiple of
/// `sample_period` and at the next arrival the queues have room for, and
/// chained from there. Without, the engine is off and every cycle ticks.
/// Returns the completions, the number of cycles skipped and the number
/// of spans a sample boundary cut short.
fn drive(
    cfg: &CtrlConfig,
    arrivals: &[Arrival],
    cycles: Cycle,
    sample_period: Cycle,
    skip: bool,
) -> (Vec<CompletedRead>, u64, u64) {
    let mut ctrl = MemoryController::new(cfg.clone());
    ctrl.set_busy_engine(skip);
    let mut view = CycleView::idle(ctrl.total_banks());
    let (mut done, mut skipped, mut cuts) = (Vec::new(), 0, 0);
    let (mut next, mut now) = (0, 0);
    let room = |ctrl: &MemoryController, a: &Arrival| {
        if a.write {
            ctrl.can_accept_write()
        } else {
            ctrl.can_accept_read()
        }
    };
    while now < cycles {
        while let Some(a) = arrivals.get(next).filter(|a| a.at <= now && room(&ctrl, a)) {
            if a.write {
                ctrl.enqueue_write(a.addr);
            } else {
                ctrl.enqueue_read(a.addr, next as u64);
            }
            next += 1;
        }
        ctrl.tick(now, &mut view);
        done.extend(ctrl.drain_completions());
        // `last` is the latest cycle accounted for, ticked or replayed.
        let mut last = now;
        while let Some(h) = ctrl.stall_horizon(last).filter(|_| skip) {
            let boundary = (last / sample_period + 1) * sample_period;
            let mut end = h.min(cycles).min(boundary);
            if let Some(a) = arrivals.get(next).filter(|a| room(&ctrl, a)) {
                end = end.min(a.at);
            }
            if end <= last + 1 {
                break;
            }
            ctrl.apply_stall_span(last, end - last - 1);
            skipped += end - last - 1;
            cuts += u64::from(end == boundary && end < h);
            last = end - 1;
        }
        now = last + 1;
    }
    (done, skipped, cuts)
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
    let (ticked, none, _) = drive(&cfg, &arrivals, 26_000, 997, false);
    let (replayed, skipped, cuts) = drive(&cfg, &arrivals, 26_000, 997, true);
    assert_eq!(none, 0);
    assert!(
        skipped > 10_000 && cuts >= 8,
        "{skipped} cycles replayed, {cuts} spans cut"
    );
    assert!(ticked.len() > 1_200, "{} reads", ticked.len());
    assert_eq!(ticked, replayed);
}
