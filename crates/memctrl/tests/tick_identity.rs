//! `MemoryController::tick` with the per-bank summaries is the tick of
//! the full-queue scans: engine-on and engine-off controllers in lockstep
//! over {FR-FCFS, FCFS} × {open, closed page} × {single, dual rank} ×
//! four traffic shapes, a mid-run snapshot/restore, and a bounded proptest
//! over random enqueue/tick interleavings. See `lockstep::run` for what is
//! compared every cycle.

mod lockstep;

use proptest::prelude::*;

use dramstack_memctrl::{PagePolicy, SchedulerPolicy};
use lockstep::{config, run, tape, Arrival, Traffic, ALL_TRAFFIC};

/// Long enough to cross two refresh intervals (tREFI = 9360 cycles).
const CYCLES: u64 = 20_000;

#[test]
fn engine_on_equals_engine_off_across_the_matrix() {
    for scheduler in [SchedulerPolicy::FrFcfs, SchedulerPolicy::Fcfs] {
        for page in [PagePolicy::Open, PagePolicy::Closed] {
            for dual_rank in [false, true] {
                let cfg = config(scheduler, page, dual_rank);
                for traffic in ALL_TRAFFIC {
                    let arrivals = tape(traffic, 3_000, 11);
                    let out = run(&cfg, traffic, &arrivals, CYCLES, None);
                    let case = format!("{scheduler:?}/{page:?}/dual={dual_rank}/{traffic:?}");
                    assert!(out.reads_done + out.writes_done > 300, "{case}: {out:?}");
                    assert!(out.refreshes >= 1, "{case}: {out:?}");
                    if traffic == Traffic::WriteHeavy {
                        assert!(out.writes_done > 300, "{case}: {out:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn stall_horizons_are_offered_and_never_overshoot() {
    // A pointer chase leaves long frozen spans (tRCD, CL, refresh shadows).
    let cfg = config(SchedulerPolicy::FrFcfs, PagePolicy::Open, false);
    let arrivals = tape(Traffic::OneAtATime, 400, 5);
    let out = run(&cfg, Traffic::OneAtATime, &arrivals, CYCLES, None);
    assert!(out.horizons_checked > 100, "{out:?}");
}

#[test]
fn summaries_are_rebuilt_by_a_mid_run_restore() {
    for (page, traffic) in [
        (PagePolicy::Open, Traffic::Random),
        (PagePolicy::Closed, Traffic::WriteHeavy),
        (PagePolicy::Open, Traffic::RowHitStream),
    ] {
        let cfg = config(SchedulerPolicy::FrFcfs, page, true);
        let arrivals = tape(traffic, 2_000, 3);
        // Full queues at 700; a refresh drain in progress around 9_400.
        for at in [700, 9_400] {
            let out = run(&cfg, traffic, &arrivals, 12_000, Some(at));
            assert!(out.reads_done > 100, "{page:?}/{traffic:?}@{at}: {out:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleavings of enqueues and ticks: bursts into few banks
    /// and rows (hits, conflicts, same-bank pile-ups) with random gaps.
    #[test]
    fn random_interleavings_stay_identical(
        fcfs in any::<bool>(),
        closed in any::<bool>(),
        dual_rank in any::<bool>(),
        ops in prop::collection::vec((0u64..24, 0u64..6, 0u64..8, any::<bool>(), 0u64..12), 1..300),
        restore in (any::<bool>(), 0u64..2_000),
    ) {
        let scheduler = if fcfs { SchedulerPolicy::Fcfs } else { SchedulerPolicy::FrFcfs };
        let page = if closed { PagePolicy::Closed } else { PagePolicy::Open };
        let cfg = config(scheduler, page, dual_rank);
        let mut at = 0;
        let arrivals: Vec<Arrival> = ops
            .iter()
            .map(|&(bank, row, col, write, gap)| {
                at += gap;
                // Default mapping: column bits 6..13, bank bits 13..17(18), row above.
                Arrival { at, addr: row << 18 | bank << 13 | col << 6, write }
            })
            .collect();
        let out = run(&cfg, Traffic::Random, &arrivals, 60_000, restore.0.then_some(restore.1));
        prop_assert!(out.reads_done + out.writes_done == arrivals.len() as u64, "{:?}", out);
    }
}
