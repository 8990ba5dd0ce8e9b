//! Online vs offline stack construction: the same controller run, once
//! accounted live and once reconstructed from its command trace.

use dramstack::dram::{trace, CommandError, CycleView};
use dramstack::memctrl::{CtrlConfig, MemoryController};
use dramstack::stacks::offline::{stack_from_trace, OfflineError};
use dramstack::stacks::{BandwidthAccountant, BwComponent};

/// Drives a controller with a deterministic request mix, returning the
/// online stack and the recorded command trace.
fn run_online(
    cycles: u64,
    mut arrivals: impl FnMut(u64, &mut MemoryController),
) -> (
    dramstack::stacks::BandwidthStack,
    Vec<dramstack::dram::TimedCommand>,
) {
    let cfg = CtrlConfig::paper_default();
    let peak = cfg.device.peak_bandwidth_gbps();
    let mut ctrl = MemoryController::new(cfg);
    ctrl.enable_command_trace();
    let mut acc = BandwidthAccountant::new(ctrl.total_banks(), peak);
    let mut view = CycleView::idle(ctrl.total_banks());
    for now in 0..cycles {
        arrivals(now, &mut ctrl);
        ctrl.tick(now, &mut view);
        acc.account(&view);
        ctrl.drain_completions().for_each(drop);
    }
    (acc.stack(), ctrl.take_command_trace())
}

#[test]
fn offline_matches_online_for_sequential_reads() {
    let (online, cmds) = run_online(60_000, |now, ctrl| {
        if now % 12 == 0 && ctrl.can_accept_read() {
            ctrl.enqueue_read(now / 12 * 64, 0);
        }
    });
    let offline =
        stack_from_trace(&cmds, dramstack::dram::DeviceConfig::ddr4_2400(), 60_000).unwrap();

    // Deterministically derivable components agree exactly.
    for c in [BwComponent::Read, BwComponent::Write, BwComponent::Refresh] {
        assert!(
            (online.gbps(c) - offline.gbps(c)).abs() < 1e-9,
            "{c}: online {} vs offline {}",
            online.gbps(c),
            offline.gbps(c)
        );
    }
    // Pre/act come from bank states — also deterministic.
    for c in [BwComponent::Precharge, BwComponent::Activate] {
        assert!(
            (online.gbps(c) - offline.gbps(c)).abs() < 0.05,
            "{c}: online {} vs offline {}",
            online.gbps(c),
            offline.gbps(c)
        );
    }
    // Constraint attribution is inferred offline (no arrival times): the
    // lost-cycle mass must match, and the constraints estimate must be in
    // the right ballpark.
    let lost = |s: &dramstack::stacks::BandwidthStack| {
        s.gbps(BwComponent::Constraints) + s.gbps(BwComponent::BankIdle) + s.gbps(BwComponent::Idle)
    };
    assert!((lost(&online) - lost(&offline)).abs() < 0.1);
    assert!(
        (online.gbps(BwComponent::Constraints) - offline.gbps(BwComponent::Constraints)).abs()
            < 1.0,
        "constraints: online {} vs offline {}",
        online.gbps(BwComponent::Constraints),
        offline.gbps(BwComponent::Constraints)
    );
}

#[test]
fn offline_matches_online_for_random_mix_with_writes() {
    let mut state = 0x12345u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let (online, cmds) = run_online(60_000, move |now, ctrl| {
        if now % 9 == 0 && ctrl.can_accept_read() {
            ctrl.enqueue_read(rng() % (1 << 30), 0);
        }
        if now % 31 == 0 && ctrl.can_accept_write() {
            ctrl.enqueue_write(rng() % (1 << 30));
        }
    });
    let offline =
        stack_from_trace(&cmds, dramstack::dram::DeviceConfig::ddr4_2400(), 60_000).unwrap();
    for c in [BwComponent::Read, BwComponent::Write, BwComponent::Refresh] {
        assert!((online.gbps(c) - offline.gbps(c)).abs() < 1e-9, "{c}");
    }
    assert!(offline.is_consistent());
    assert!(
        (online.gbps(BwComponent::Precharge) - offline.gbps(BwComponent::Precharge)).abs() < 0.1
    );
    assert!((online.gbps(BwComponent::Activate) - offline.gbps(BwComponent::Activate)).abs() < 0.1);
}

#[test]
fn trace_text_roundtrip_preserves_the_stack() {
    let (_, cmds) = run_online(20_000, |now, ctrl| {
        if now % 15 == 0 && ctrl.can_accept_read() {
            ctrl.enqueue_read(now * 64, 0);
        }
    });
    let text = trace::write_trace(&cmds);
    let parsed = trace::parse_trace(&text).unwrap();
    assert_eq!(parsed, cmds);
    let a = stack_from_trace(&cmds, dramstack::dram::DeviceConfig::ddr4_2400(), 20_000).unwrap();
    let b = stack_from_trace(&parsed, dramstack::dram::DeviceConfig::ddr4_2400(), 20_000).unwrap();
    assert_eq!(a, b);
}

#[test]
fn precharge_to_a_closed_bank_is_rejected_as_such() {
    let cmds = trace::parse_trace("0 PRE 0 0 0 0 0\n").unwrap();
    let err = stack_from_trace(&cmds, dramstack::dram::DeviceConfig::ddr4_2400(), 10).unwrap_err();
    let bank = dramstack::dram::BankAddr::new(0, 0, 0);
    assert!(
        matches!(
            err,
            OfflineError::CommandRejected {
                source: CommandError::BankNotOpen(b),
                ..
            } if b == bank
        ),
        "{err}"
    );
    assert!(err.to_string().contains("which has no open row"), "{err}");
}
