//! Bit-identity of the busy-path event engine across DDR4 presets,
//! synthetic traffic shapes and the skip scenarios.
//!
//! The busy engine (indexed scheduling, dirty-bank tracking, parked
//! cores, the event-horizon skip) must be a pure performance
//! optimization: with it on or off, `SimReport::strip_perf()` is identical
//! field for field, and the shadow auditor — armed by default in test
//! builds — still sees every command and stays clean. This file pins that
//! deterministically across the full five-preset matrix, over one row per
//! skip scenario (idle, idle tails, saturated, multi-channel, a mid-run
//! switch) and over a bounded random sample of configurations.

use proptest::prelude::*;

use dramstack::cpu::Instr;
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

/// `cores` copies of `n` loads at `stride` over `channels` channels, with
/// the engine set.
fn loads(cores: usize, channels: usize, n: u64, stride: u64, engine: bool) -> Simulator {
    let mut cfg = SystemConfig::paper_default(cores);
    cfg.channels = channels;
    let trace: Vec<Instr> = (0..n).map(|i| Instr::Load { addr: i * stride }).collect();
    let mut sim = Simulator::with_traces(cfg, vec![trace; cores]);
    sim.set_busy_engine(engine);
    sim
}

fn synth(cores: usize, pattern: SyntheticPattern, engine: bool) -> Simulator {
    let mut sim = Simulator::with_synthetic(SystemConfig::paper_default(cores), pattern);
    sim.set_busy_engine(engine);
    sim
}

/// The skip at its best case: with no instructions to run, everything
/// except the refresh grid is idle, so nearly the whole run is skipped —
/// as spans with no request pending — and nothing in the report changes.
#[test]
fn idle_run_fast_forwards_over_nine_tenths_of_its_cycles_unchanged() {
    let run =
        |us: f64, channels: usize, engine: bool| loads(1, channels, 0, 0, engine).run_for_us(us);
    let (on, off) = (run(100.0, 1, true), run(100.0, 1, false));
    assert_eq!(on.strip_perf(), off.strip_perf());
    assert_eq!(off.perf.fast_forwarded_cycles, 0);
    // Only cycle 0 and three ticks per refresh are stepped on each
    // channel: the REF, the cycle after it and the end of its tRFC shadow.
    for channels in [1, 2] {
        for us in [100.0, 1000.0, 20_000.0] {
            let r = run(us, channels, true);
            assert_eq!(
                r.perf.ctrl_ticks,
                3 * r.ctrl_stats.refreshes + channels as u64,
                "{us} us on {channels} channels"
            );
        }
    }
    let long = run(20_000.0, 1, true);
    assert_eq!(long.perf.busy_forwarded_cycles, 0);
    assert!(
        long.perf.fast_forwarded_cycles * 1000 >= long.sim_cycles * 999,
        "only {} of {} idle cycles were fast-forwarded",
        long.perf.fast_forwarded_cycles,
        long.sim_cycles
    );
}

/// What a scenario's engine-on run must show in its skip counters.
enum Skips {
    Any,
    /// Spans of either kind cover over nine tenths of the run.
    NineTenths,
    /// Some span had no request pending (an idle tail).
    Fast,
    /// Some span had requests pending.
    Busy,
}

/// One row per skip scenario: a run taking the engine position, and what
/// its counters must show with the engine on.
type Scenario = (&'static str, fn(bool) -> SimReport, Skips);

const SCENARIOS: [Scenario; 10] = [
    (
        "empty workload",
        |e| loads(1, 1, 0, 0, e).run_for_us(100.0),
        Skips::NineTenths,
    ),
    (
        "64 loads, idle tail",
        |e| loads(1, 1, 64, 8192, e).run_for_us(100.0),
        Skips::Fast,
    ),
    (
        "128 loads, idle tail",
        |e| loads(1, 1, 128, 4096, e).run_for_us(100.0),
        Skips::Fast,
    ),
    (
        "2 cores x 2 channels, idle tail",
        |e| loads(2, 2, 32, 8192, e).run_for_us(60.0),
        Skips::Any,
    ),
    (
        "seq 8c saturated",
        |e| synth(8, SyntheticPattern::sequential(0.0), e).run_for_us(30.0),
        Skips::Busy,
    ),
    (
        "rand 2c",
        |e| synth(2, SyntheticPattern::random(0.0), e).run_for_us(30.0),
        Skips::Any,
    ),
    (
        "seq 0.3 4c",
        |e| synth(4, SyntheticPattern::sequential(0.3), e).run_for_us(30.0),
        Skips::Any,
    ),
    (
        "seq 0.4 8c",
        |e| synth(8, SyntheticPattern::sequential(0.4), e).run_for_us(30.0),
        Skips::Any,
    ),
    (
        "2 cores x 2 channels to completion",
        |e| loads(2, 2, 256, 64, e).run_to_completion(5_000_000),
        Skips::Any,
    ),
    // The engine-on run switches the engine off half way, while cores are
    // parked: the switch itself must put them back on the step loop.
    (
        "seq 8c, engine switched off mid-run",
        |e| {
            let mut sim = synth(8, SyntheticPattern::sequential(0.0), e);
            sim.advance_for_us(15.0);
            if e {
                assert!(sim.parked_cores() > 0, "no core parked at the switch");
                sim.set_busy_engine(false);
                assert_eq!(sim.parked_cores(), 0);
            }
            sim.run_for_us(15.0)
        },
        Skips::Any,
    ),
];

/// Every skip scenario against `set_busy_engine(false)` stepping from
/// cycle 0, which ticks every core and controller every cycle.
#[test]
fn skip_engine_matches_stepping_on_every_scenario() {
    for (name, run, skips) in SCENARIOS {
        let (on, off) = (run(true), run(false));
        assert_eq!(on.strip_perf(), off.strip_perf(), "{name}");
        assert_eq!(off.perf.fast_forwarded_cycles, 0, "{name}");
        assert_eq!(off.perf.busy_forwarded_cycles, 0, "{name}");
        let fast = on.perf.fast_forwarded_cycles;
        let busy = on.perf.busy_forwarded_cycles;
        match skips {
            Skips::Any => {}
            Skips::NineTenths => assert!(
                (fast + busy) * 10 > on.sim_cycles * 9,
                "{name}: only {fast} + {busy} of {} cycles skipped",
                on.sim_cycles
            ),
            Skips::Fast => assert!(fast > 0, "{name}: the idle tail was stepped"),
            Skips::Busy => assert!(busy > 0, "{name}: no busy span was skipped"),
        }
    }
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
