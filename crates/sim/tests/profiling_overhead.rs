//! `enable_profiling()` has to measure the program it profiles: the same
//! results, and (because `PhaseTimers` times one step in 64) the same
//! cost per step to within 10 %.

use std::time::Instant;

use dramstack_sim::{SimReport, Simulator, SystemConfig};
use dramstack_workloads::SyntheticPattern;

const CYCLES: u64 = 200_000;

/// One 200 k-cycle run; host nanoseconds per stepped cycle and the report.
fn run(profile: bool) -> (f64, SimReport) {
    let cfg = SystemConfig::paper_default(2);
    let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.3));
    if profile {
        sim.enable_profiling();
    }
    let t = Instant::now();
    sim.advance_to_cycle(CYCLES);
    let ns = t.elapsed().as_nanos() as f64;
    let report = sim.report();
    let stepped = CYCLES - report.perf.busy_forwarded_cycles - report.perf.fast_forwarded_cycles;
    (ns / stepped as f64, report)
}

#[test]
fn profiling_changes_neither_results_nor_step_cost() {
    // Best of alternating rounds on each side: a co-tenant's burst slows
    // single runs here by far more than the clock reads could. Stops as
    // soon as the two bests agree.
    let (mut plain, mut profiled) = (f64::MAX, f64::MAX);
    let mut reports = None;
    for round in 0..8 {
        let order = if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for profile in order {
            let (ns, report) = run(profile);
            let best = if profile { &mut profiled } else { &mut plain };
            *best = best.min(ns);
            if profile {
                assert!(report.perf.enabled);
                let phases: f64 = report.perf.phases.iter().map(|(_, s)| s).sum();
                // The scaled phases stand for the whole drive loop.
                assert!(
                    phases > 0.5 * report.perf.wall_seconds
                        && phases < 1.5 * report.perf.wall_seconds,
                    "phases {phases} s of {} s",
                    report.perf.wall_seconds
                );
            }
            let stripped = report.strip_perf();
            match &reports {
                None => reports = Some(stripped),
                Some(first) => assert_eq!(&stripped, first, "profiling {profile}"),
            }
        }
        if round >= 1 && (profiled / plain - 1.0).abs() < 0.10 {
            eprintln!("ns/step: {plain:.0} unprofiled, {profiled:.0} profiled");
            return;
        }
    }
    panic!("ns/step: {plain:.0} unprofiled, {profiled:.0} profiled");
}
