//! Cross-crate integration tests asserting the paper's headline
//! qualitative results at reduced scale, and the design ablations of
//! DESIGN.md §4: scheduler policy, accounting split, DDR4 speed grade.

use dramstack::dram::{CycleView, DeviceConfig};
use dramstack::memctrl::{
    CtrlConfig, MappingScheme, MemoryController, PagePolicy, SchedulerPolicy,
};
use dramstack::sim::experiments::run_synthetic;
use dramstack::sim::{Simulator, SystemConfig};
use dramstack::stacks::{BandwidthAccountant, BwComponent, FirstCauseAccountant, LatComponent};
use dramstack::workloads::SyntheticPattern;

const US: f64 = 25.0;

fn default_run(cores: usize, p: SyntheticPattern) -> dramstack::sim::SimReport {
    run_synthetic(cores, p, PagePolicy::Open, MappingScheme::RowBankColumn, US).unwrap()
}

#[test]
fn stacks_always_sum_to_peak() {
    for report in [
        default_run(1, SyntheticPattern::sequential(0.0)),
        default_run(2, SyntheticPattern::random(0.3)),
        default_run(8, SyntheticPattern::sequential(0.1)),
    ] {
        assert!(report.bandwidth_stack.is_consistent());
        assert!((report.bandwidth_stack.total_gbps() - 19.2).abs() < 1e-6);
    }
}

#[test]
fn sequential_beats_random_and_both_scale() {
    let seq1 = default_run(1, SyntheticPattern::sequential(0.0));
    let seq4 = default_run(4, SyntheticPattern::sequential(0.0));
    let rand1 = default_run(1, SyntheticPattern::random(0.0));
    let rand4 = default_run(4, SyntheticPattern::random(0.0));
    assert!(seq1.achieved_gbps() > rand1.achieved_gbps());
    assert!(seq4.achieved_gbps() > seq1.achieved_gbps() * 1.8);
    assert!(rand4.achieved_gbps() > rand1.achieved_gbps() * 1.8);
    // Sequential: high page-hit rate; random: none (paper: 99 % vs 0 %).
    assert!(seq1.ctrl_stats.read_hit_rate() > 0.9);
    assert!(rand1.ctrl_stats.read_hit_rate() < 0.05);
}

#[test]
fn sequential_saturates_by_four_cores() {
    let seq4 = default_run(4, SyntheticPattern::sequential(0.0));
    let peak_minus_refresh = 19.2 * (1.0 - 420.0 / 9360.0);
    assert!(
        seq4.achieved_gbps() > 0.9 * peak_minus_refresh,
        "4-core sequential should approach peak − refresh: {}",
        seq4.achieved_gbps()
    );
    // Queueing latency rises steeply at saturation (paper Fig. 2 bottom).
    let seq1 = default_run(1, SyntheticPattern::sequential(0.0));
    assert!(
        seq4.latency_stack.ns(LatComponent::Queue) > seq1.latency_stack.ns(LatComponent::Queue)
    );
}

#[test]
fn random_pattern_shows_preact_and_bank_idle() {
    let r = default_run(1, SyntheticPattern::random(0.0));
    let bw = &r.bandwidth_stack;
    assert!(bw.gbps(BwComponent::Precharge) + bw.gbps(BwComponent::Activate) > 0.5);
    assert!(bw.gbps(BwComponent::BankIdle) > 2.0);
    // Latency stack shows the pre/act penalty of 0 % page hits.
    assert!(r.latency_stack.ns(LatComponent::PreAct) > 10.0);
}

#[test]
fn stores_on_sequential_hurt_but_stores_on_random_help() {
    // The store sweep must run at saturation (4 cores): a single
    // request-limited core has headroom, so write-backs add traffic
    // without displacing reads and the total cannot drop.
    let seq0 = default_run(4, SyntheticPattern::sequential(0.0));
    let seq50 = default_run(4, SyntheticPattern::sequential(0.5));
    let rand0 = default_run(4, SyntheticPattern::random(0.0));
    let rand50 = default_run(4, SyntheticPattern::random(0.5));
    // Paper Section VII-B: seq total drops, rand total rises monotonically.
    assert!(
        seq50.achieved_gbps() < seq0.achieved_gbps(),
        "seq: {} !< {}",
        seq50.achieved_gbps(),
        seq0.achieved_gbps()
    );
    assert!(rand50.achieved_gbps() > rand0.achieved_gbps());
    // Writeburst latency appears with stores.
    assert!(seq50.latency_stack.ns(LatComponent::WriteBurst) > 1.0);
    assert!(seq50.bandwidth_stack.gbps(BwComponent::Write) > 0.5);
}

#[test]
fn closed_page_hurts_sequential_helps_random() {
    let run = |p, policy| run_synthetic(2, p, policy, MappingScheme::RowBankColumn, US).unwrap();
    let seq_open = run(SyntheticPattern::sequential(0.0), PagePolicy::Open);
    let seq_closed = run(SyntheticPattern::sequential(0.0), PagePolicy::Closed);
    let rand_open = run(SyntheticPattern::random(0.0), PagePolicy::Open);
    let rand_closed = run(SyntheticPattern::random(0.0), PagePolicy::Closed);
    assert!(seq_closed.achieved_gbps() < seq_open.achieved_gbps());
    assert!(rand_closed.achieved_gbps() > rand_open.achieved_gbps());
    // Paper Fig. 4: random latency *reduces* under closed (pre/act saved).
    assert!(
        rand_closed.latency_stack.ns(LatComponent::PreAct)
            < rand_open.latency_stack.ns(LatComponent::PreAct)
    );
}

#[test]
fn interleaved_mapping_fixes_the_two_fig6_cases() {
    let case1 = |m| {
        run_synthetic(
            1,
            SyntheticPattern::sequential(0.5),
            PagePolicy::Open,
            m,
            US,
        )
        .unwrap()
    };
    let case2 = |m| {
        run_synthetic(
            2,
            SyntheticPattern::sequential(0.0),
            PagePolicy::Closed,
            m,
            US,
        )
        .unwrap()
    };
    for (def, int) in [
        (
            case1(MappingScheme::RowBankColumn),
            case1(MappingScheme::CacheLineInterleaved),
        ),
        (
            case2(MappingScheme::RowBankColumn),
            case2(MappingScheme::CacheLineInterleaved),
        ),
    ] {
        assert!(
            int.achieved_gbps() > def.achieved_gbps(),
            "interleaving should help: {} !> {}",
            int.achieved_gbps(),
            def.achieved_gbps()
        );
        assert!(int.avg_read_latency_ns() < def.avg_read_latency_ns());
        // The trade-off: pre/act grows under interleaving.
        assert!(
            int.latency_stack.ns(LatComponent::PreAct) > def.latency_stack.ns(LatComponent::PreAct)
        );
    }
}

#[test]
fn refresh_fraction_matches_trfc_over_trefi() {
    // An idle system still refreshes at tRFC/tREFI (≈ 4.5 %).
    let cfg = SystemConfig::paper_default(1);
    let streams: Vec<Box<dyn dramstack::cpu::InstrStream>> =
        vec![Box::new(dramstack::cpu::VecStream::new(Vec::new()))];
    let mut sim = Simulator::new(cfg, streams);
    let r = sim.run_for_us(100.0);
    let frac = r.bandwidth_stack.fraction(BwComponent::Refresh);
    assert!(
        (frac - 420.0 / 9360.0).abs() < 0.01,
        "refresh fraction {frac}"
    );
}

/// Achieved bandwidth of `US` simulated microseconds of `pattern` on
/// `cfg`, sampled in 10 µs windows.
fn ablation_run(mut cfg: SystemConfig, pattern: SyntheticPattern) -> f64 {
    cfg.sample_period = 12_000;
    Simulator::with_synthetic(cfg, pattern)
        .run_for_us(US)
        .achieved_gbps()
}

#[test]
fn frfcfs_never_loses_to_fcfs_on_random_traffic() {
    let run = |scheduler| {
        let mut cfg = SystemConfig::paper_default(4);
        cfg.ctrl.scheduler = scheduler;
        ablation_run(cfg, SyntheticPattern::random(0.2))
    };
    let (frfcfs, fcfs) = (run(SchedulerPolicy::FrFcfs), run(SchedulerPolicy::Fcfs));
    assert!(
        frfcfs >= 0.95 * fcfs,
        "FR-FCFS {frfcfs:.2} GB/s vs FCFS {fcfs:.2} GB/s"
    );
}

#[test]
fn ddr4_3200_lifts_the_saturated_sequential_plateau() {
    let run = |device| {
        let mut cfg = SystemConfig::paper_default(8);
        cfg.ctrl.device = device;
        ablation_run(cfg, SyntheticPattern::sequential(0.0))
    };
    let (slow, fast) = (
        run(DeviceConfig::ddr4_2400()),
        run(DeviceConfig::ddr4_3200()),
    );
    assert!(
        fast > slow,
        "DDR4-3200 {fast:.2} GB/s vs DDR4-2400 {slow:.2} GB/s"
    );
}

#[test]
fn split_accounting_shows_bank_idle_that_first_cause_hides() {
    // One controller, no cores: a row-hit stream of one read every 12
    // cycles, classified by the paper's 1/n per-bank split and by the
    // whole-cycle-to-first-cause alternative side by side.
    let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
    let mut view = CycleView::idle(ctrl.total_banks());
    let peak = ctrl.config().device.peak_bandwidth_gbps();
    let mut split = BandwidthAccountant::new(ctrl.total_banks(), peak);
    let mut first = FirstCauseAccountant::new(ctrl.total_banks(), peak);
    let mut next_addr = 0u64;
    for now in 0..12_000 {
        if now % 12 == 0 && ctrl.can_accept_read() {
            ctrl.enqueue_read(next_addr, 0);
            next_addr += 64;
        }
        ctrl.tick(now, &mut view);
        split.account(&view);
        first.account(&view);
        ctrl.drain_completions().for_each(drop);
    }
    let split = split.stack().gbps(BwComponent::BankIdle);
    let first = first.stack().gbps(BwComponent::BankIdle);
    assert!(split > 0.0, "split bank-idle {split:.2} GB/s");
    assert_eq!(first, 0.0, "first-cause bank-idle {first:.2} GB/s");
}
