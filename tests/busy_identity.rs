//! Bit-identity of the busy-path event engine across DDR4 presets and
//! synthetic traffic shapes.
//!
//! The busy engine (timing memoization, dirty-bank tracking, event-horizon
//! stepping) must be a pure performance optimization: with it on or off,
//! `SimReport::strip_perf()` is identical field for field, and the shadow
//! auditor — armed by default in test builds — still sees every command
//! and stays clean. This file pins that deterministically across the full
//! five-preset matrix and over a bounded random sample of configurations.

use proptest::prelude::*;

use dramstack::cpu::{InstrStream, VecStream};
use dramstack::dram::TimingParams;
use dramstack::memctrl::PagePolicy;
use dramstack::sim::{SimReport, Simulator, SystemConfig};
use dramstack::workloads::{PatternKind, SyntheticPattern};

fn presets() -> [(&'static str, TimingParams); 5] {
    [
        ("ddr4_2133", TimingParams::ddr4_2133()),
        ("ddr4_2400", TimingParams::ddr4_2400()),
        ("ddr4_2666", TimingParams::ddr4_2666()),
        ("ddr4_2933", TimingParams::ddr4_2933()),
        ("ddr4_3200", TimingParams::ddr4_3200()),
    ]
}

fn shapes() -> [(&'static str, SyntheticPattern); 4] {
    let mut seq_rw = SyntheticPattern::sequential(0.3);
    seq_rw.seed = 7;
    let mut rand_mlp = SyntheticPattern::random(0.0);
    rand_mlp.chains = 8;
    let mut rand_rw = SyntheticPattern::random(0.2);
    rand_rw.chains = 2;
    rand_rw.seed = 21;
    [
        ("seq_read", SyntheticPattern::sequential(0.0)),
        ("seq_rw", seq_rw),
        ("rand_mlp", rand_mlp),
        ("rand_rw", rand_rw),
    ]
}

#[allow(clippy::too_many_arguments)]
fn run(
    timing: TimingParams,
    pattern: SyntheticPattern,
    cores: usize,
    channels: usize,
    policy: PagePolicy,
    us: f64,
    busy: bool,
) -> SimReport {
    let mut cfg = SystemConfig::paper_default(cores);
    cfg.ctrl.device.timing = timing;
    cfg.ctrl.page_policy = policy;
    cfg.channels = channels;
    let mut sim = Simulator::with_synthetic(cfg, pattern);
    sim.set_busy_engine(busy);
    sim.run_for_us(us)
}

/// Exhaustive matrix: every DDR4 speed grade × every traffic shape.
#[test]
fn busy_engine_bit_identical_across_preset_matrix() {
    for (tname, timing) in presets() {
        for (pname, pattern) in shapes() {
            let on = run(timing, pattern, 2, 1, PagePolicy::Open, 6.0, true);
            let off = run(timing, pattern, 2, 1, PagePolicy::Open, 6.0, false);
            assert_eq!(
                on.strip_perf(),
                off.strip_perf(),
                "{tname}/{pname}: busy engine changed the report"
            );
            assert_eq!(off.perf.busy_forwarded_cycles, 0, "{tname}/{pname}");
            assert!(
                on.ctrl_stats.reads_done > 0,
                "{tname}/{pname} did no work — the matrix proves nothing"
            );
            // Test builds arm the shadow auditor by default: it must have
            // observed the run and found it clean with the engine on.
            if on.audit.armed {
                assert!(on.audit.commands_audited > 0, "{tname}/{pname}");
                assert!(
                    on.audit.is_clean(),
                    "{tname}/{pname}: {:?}",
                    on.audit.first_violation()
                );
            }
        }
    }
}

/// The other skip engine, at its best case: with no instructions to run,
/// everything except the refresh grid is idle, so the idle fast-forward
/// must carry nearly the whole run — and change nothing in the report.
#[test]
fn idle_run_fast_forwards_over_nine_tenths_of_its_cycles_unchanged() {
    let run = |fast_forward: bool| {
        let idle: Vec<Box<dyn InstrStream>> = vec![Box::new(VecStream::new(Vec::new()))];
        let mut sim = Simulator::new(SystemConfig::paper_default(1), idle);
        sim.set_fast_forward(fast_forward);
        sim.run_for_us(100.0)
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(on.strip_perf(), off.strip_perf());
    assert_eq!(off.perf.fast_forwarded_cycles, 0);
    assert!(
        on.perf.fast_forwarded_cycles * 10 > on.sim_cycles * 9,
        "only {} of {} idle cycles were fast-forwarded",
        on.perf.fast_forwarded_cycles,
        on.sim_cycles
    );
}

fn arbitrary_pattern() -> impl Strategy<Value = SyntheticPattern> {
    (
        prop_oneof![Just(PatternKind::Sequential), Just(PatternKind::Random)],
        0u32..=100,
        1u8..=8,
        any::<u64>(),
    )
        .prop_map(|(kind, store_pct, chains, seed)| {
            let mut p = match kind {
                PatternKind::Sequential => {
                    SyntheticPattern::sequential(f64::from(store_pct) / 100.0)
                }
                PatternKind::Random => SyntheticPattern::random(f64::from(store_pct) / 100.0),
            };
            p.chains = chains;
            p.seed = seed;
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized corner of the matrix: any preset, shape, core count,
    /// channel count and page policy — still bit-identical, still clean.
    #[test]
    fn busy_engine_bit_identical_on_random_configs(
        preset in 0usize..5,
        pattern in arbitrary_pattern(),
        cores in 1usize..=4,
        channels in prop_oneof![Just(1usize), Just(2usize)],
        policy in prop_oneof![Just(PagePolicy::Open), Just(PagePolicy::Closed)],
    ) {
        let timing = presets()[preset].1;
        let on = run(timing, pattern, cores, channels, policy, 5.0, true);
        let off = run(timing, pattern, cores, channels, policy, 5.0, false);
        prop_assert_eq!(on.strip_perf(), off.strip_perf());
        prop_assert_eq!(off.perf.busy_forwarded_cycles, 0);
        if on.audit.armed {
            prop_assert!(on.audit.is_clean(), "{:?}", on.audit.first_violation());
        }
    }
}
