//! `MemoryController::tick` in lockstep with a twin and a reference
//! latency model over {FR-FCFS, FCFS} × {open, closed page} × {single,
//! dual rank} × four traffic shapes, a mid-run snapshot/restore, a pinned
//! snapshot image, and a bounded proptest over random enqueue/tick
//! interleavings. Debug builds also check every per-bank summary pass
//! against its full-queue `*_scan` oracle on every tick, so run them in
//! debug. See `lockstep::run` for what is compared every cycle.

mod lockstep;

use proptest::prelude::*;

use dramstack_dram::BankActivity;
use dramstack_memctrl::{CtrlConfig, CtrlSnapshot, MemoryController, PagePolicy, SchedulerPolicy};
use lockstep::{config, run, tape, Arrival, Driver, Traffic, ALL_TRAFFIC};

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
                    // All but the reads still in flight at the cut-off.
                    assert!(
                        out.breakdowns_checked + 8 >= out.reads_done,
                        "{case}: {out:?}"
                    );
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

#[test]
fn breakdowns_hold_under_auto_precharge_and_rank_by_rank_refresh() {
    // Closed page on two ranks for three refresh intervals: every CAS
    // without a pending hit auto-precharges (a slot drop no command
    // announces) and each REF closes one rank while the other works on.
    let cfg = config(SchedulerPolicy::FrFcfs, PagePolicy::Closed, true);
    let arrivals = tape(Traffic::Random, 8_000, 23);
    let out = run(&cfg, Traffic::Random, &arrivals, 30_000, None);
    assert!(out.refreshes >= 6 && out.auto_precharges > 2_000, "{out:?}");
    assert!(out.breakdowns_checked > 2_000, "{out:?}");
}

#[test]
fn a_snapshot_holds_settled_counters_in_the_pinned_bytes() {
    // The image below was written by the controller that kept the four
    // wait counters in the queued entries and bumped them every tick.
    // Attribution by running totals must serialise to the same bytes at
    // a tick with reads mid-wait: PREs and ACTs already caused, their
    // banks mid-transition, nonzero queue and preact counters.
    const PINNED: &str = include_str!("data/controller_image_cycle_64.json");
    const AT: u64 = 64;
    let cfg: CtrlConfig = config(SchedulerPolicy::FrFcfs, PagePolicy::Open, false);
    // Conflicts on bank 0 and bank 1, hits behind them, a lone bank 2.
    let read = |bank: u64, row: u64, col: u64| Arrival {
        at: 0,
        addr: row << 17 | bank << 13 | col << 6,
        write: false,
    };
    let arrivals = [
        read(0, 1, 0),
        read(0, 2, 0),
        read(0, 1, 1),
        read(1, 1, 0),
        read(1, 3, 0),
        read(2, 5, 0),
        read(0, 2, 1),
        read(0, 4, 0),
    ];
    let mut live = Driver::new(MemoryController::new(cfg.clone()), &arrivals, 0);
    live.run(0..AT);
    let moving =
        |a: &&BankActivity| matches!(a, BankActivity::Precharging | BankActivity::Activating);
    assert_eq!(live.view.banks.iter().filter(moving).count(), 2);
    let json = serde_json::to_string(&live.ctrl.snapshot_state()).unwrap();
    for flag in ["\"caused_pre\":true", "\"caused_act\":true"] {
        assert_eq!(json.matches(flag).count(), 2, "{flag} in {json}");
    }
    assert_eq!(json, PINNED.trim_end());

    // A controller restored from the bytes finishes the tape exactly as
    // the live one does: re-baselined totals owe the entries nothing.
    let snap: CtrlSnapshot = serde_json::from_str(&json).unwrap();
    let mut restored = Driver::new(MemoryController::new(cfg), &arrivals, live.next);
    restored.ctrl.restore_state(&snap);
    live.done.clear();
    live.run(AT..1_000);
    restored.run(AT..1_000);
    assert!(
        live.ctrl.is_idle() && live.done.len() >= 4,
        "{:?}",
        live.done
    );
    assert_eq!(live.done, restored.done);
    assert_eq!(live.ctrl.snapshot_state(), restored.ctrl.snapshot_state());
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
