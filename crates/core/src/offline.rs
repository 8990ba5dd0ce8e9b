//! Offline bandwidth-stack construction from a timed command trace.
//!
//! Section IV of the paper: "a command trace (including timings) can be
//! collected from the hardware or a DRAM simulator, and the bandwidth
//! stack can be constructed offline from this trace using the accounting
//! mechanism described in this section."
//!
//! The analyzer replays the trace into a fresh [`DramDevice`] (validating
//! every command against the full timing model — a malformed trace is
//! rejected, not mis-accounted) and classifies every cycle with the same
//! hierarchical rules as the online accountant. The only information a
//! command trace lacks is request *arrival* times, so blocked-request
//! analysis is approximated from the next command in the trace, exactly
//! as the paper describes ("analyzing the commands before that first
//! channel transfer to find the events that prevented a transfer"):
//! pre/act, refresh, read/write and bank-occupancy attribution are exact;
//! the boundary between `constraints`/`bank-idle` and `idle` is inferred.
//!
//! Latency stacks cannot be reconstructed from command traces (they need
//! per-request arrival times); use the online
//! [`LatencyAccountant`](crate::LatencyAccountant) for those.

use std::error::Error;
use std::fmt;

use dramstack_dram::{
    BankActivity, BankState, BlockLevel, BlockReason, CommandError, Cycle, CycleView, DeviceConfig,
    DramDevice, TimedCommand,
};

use crate::bandwidth::BandwidthAccountant;
use crate::stack::BandwidthStack;

/// Error from offline trace analysis.
#[derive(Debug)]
pub enum OfflineError {
    /// Commands are not sorted by issue cycle.
    TraceNotSorted {
        /// Index of the out-of-order record.
        index: usize,
    },
    /// The device rejected a command — the trace is inconsistent with the
    /// timing model.
    CommandRejected {
        /// The offending record.
        cmd: TimedCommand,
        /// The device's reason.
        source: CommandError,
    },
}

impl fmt::Display for OfflineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfflineError::TraceNotSorted { index } => {
                write!(f, "trace not sorted by cycle at record {index}")
            }
            OfflineError::CommandRejected { cmd, source } => {
                write!(
                    f,
                    "device rejected `{}` at cycle {}: {source}",
                    cmd.cmd, cmd.at
                )
            }
        }
    }
}

impl Error for OfflineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OfflineError::CommandRejected { source, .. } => Some(source),
            OfflineError::TraceNotSorted { .. } => None,
        }
    }
}

/// Builds the bandwidth stack of a command trace covering
/// `[0, total_cycles)`.
///
/// # Errors
///
/// Returns [`OfflineError`] if the trace is unsorted or violates the
/// timing model of `config`.
pub fn stack_from_trace(
    trace: &[TimedCommand],
    config: DeviceConfig,
    total_cycles: Cycle,
) -> Result<BandwidthStack, OfflineError> {
    for (i, w) in trace.windows(2).enumerate() {
        if w[1].at < w[0].at {
            return Err(OfflineError::TraceNotSorted { index: i + 1 });
        }
    }
    let mut device = DramDevice::new(config);
    let n_banks = config.geometry.total_banks() as usize;
    let mut acc = BandwidthAccountant::new(n_banks, config.peak_bandwidth_gbps());
    let mut view = CycleView::idle(n_banks);
    let mut next_cmd = 0usize;

    for now in 0..total_cycles {
        device.advance(now);
        while next_cmd < trace.len() && trace[next_cmd].at == now {
            let t = trace[next_cmd];
            device
                .issue(t.cmd, now)
                .map_err(|source| OfflineError::CommandRejected { cmd: t, source })?;
            next_cmd += 1;
        }
        build_offline_view(&device, trace.get(next_cmd), now, &mut view);
        acc.account(&view);
    }
    Ok(acc.stack())
}

/// Classifies one cycle from device state plus the next trace command.
fn build_offline_view(
    device: &DramDevice,
    upcoming: Option<&TimedCommand>,
    now: Cycle,
    view: &mut CycleView,
) {
    view.reset();
    view.bus = device.bus_activity(now);
    let ranks = device.geometry().ranks;
    view.refreshing = (0..ranks).any(|r| device.is_refreshing(r, now));
    view.has_pending = upcoming.is_some();

    let g = device.geometry();
    for flat in 0..g.total_banks() as usize {
        view.banks[flat] = match device.bank_state(flat, now) {
            BankState::Precharging => BankActivity::Precharging,
            BankState::Activating => BankActivity::Activating,
            _ => BankActivity::Idle,
        };
    }
    if view.bus.is_some() || view.refreshing {
        return;
    }
    // The refresh-drain window is reconstructible offline: a refresh is
    // due (the tREFI grid) but its REF has not issued yet. The online
    // controller charges these lost cycles to refresh; do the same.
    if (0..ranks).any(|r| device.refresh_due(r, now)) {
        view.rank_block = BlockReason::Refresh;
        return;
    }

    // Infer why the *next* command hasn't issued yet: if the device says it
    // could not have issued at `now` AND it did issue as soon as the
    // constraint lifted, the gap is a constraint; otherwise the request
    // simply hadn't arrived (idle).
    let Some(next) = upcoming else {
        return;
    };
    let bank = next.cmd.bank;
    let earliest = match next.cmd.kind {
        k if k.is_read() => device.earliest_read(bank, now),
        k if k.is_write() => device.earliest_write(bank, now),
        dramstack_dram::CommandKind::Activate => device.earliest_activate(bank, now),
        dramstack_dram::CommandKind::Precharge => device.earliest_precharge(bank, now),
        // Refresh gaps are handled by the refresh-due window above.
        _ => return,
    };
    if earliest.ready(now) {
        return; // could have issued: the gap is arrival time, i.e. idle
    }
    if next.at > earliest.at.saturating_add(1) {
        // It issued later than the constraint required, so the constraint
        // was not what delayed it — the request arrived late.
        return;
    }
    match earliest.reason.level() {
        BlockLevel::BankGroup => {
            for b in g.iter_banks() {
                if b.rank == bank.rank && b.bank_group == bank.bank_group {
                    let flat = g.flat_bank(b);
                    if view.banks[flat] == BankActivity::Idle {
                        view.banks[flat] = BankActivity::Constrained;
                    }
                }
            }
        }
        BlockLevel::Rank => {
            let flat = g.flat_bank(bank);
            if view.banks[flat] == BankActivity::Idle {
                view.banks[flat] = BankActivity::Constrained;
            }
            if view.rank_block == BlockReason::None {
                view.rank_block = earliest.reason;
            }
        }
        BlockLevel::Bank | BlockLevel::None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramstack_dram::{BankAddr, Command};

    use crate::components::BwComponent;

    fn cfg() -> DeviceConfig {
        DeviceConfig::ddr4_2400()
    }

    #[test]
    fn simple_trace_produces_read_bandwidth() {
        let b = BankAddr::new(0, 0, 0);
        let t = dramstack_dram::TimingParams::ddr4_2400();
        let trace = vec![
            TimedCommand::new(0, Command::activate(b, 3)),
            TimedCommand::new(t.t_rcd, Command::read(b, 0)),
            TimedCommand::new(t.t_rcd + t.t_ccd_l, Command::read(b, 1)),
        ];
        let stack = stack_from_trace(&trace, cfg(), 200).unwrap();
        assert!(stack.is_consistent());
        // Two bursts of 4 cycles over 200 cycles.
        assert!((stack.fraction(BwComponent::Read) - 8.0 / 200.0).abs() < 1e-9);
        assert!(stack.fraction(BwComponent::Activate) > 0.0);
        // The tCCD_L gap between the reads shows up as constraints.
        assert!(stack.fraction(BwComponent::Constraints) > 0.0);
    }

    #[test]
    fn unsorted_trace_is_rejected() {
        let b = BankAddr::new(0, 0, 0);
        let trace = vec![
            TimedCommand::new(50, Command::activate(b, 3)),
            TimedCommand::new(10, Command::precharge(b)),
        ];
        let err = stack_from_trace(&trace, cfg(), 100).unwrap_err();
        assert!(matches!(err, OfflineError::TraceNotSorted { index: 1 }));
    }

    #[test]
    fn illegal_trace_is_rejected_with_reason() {
        let b = BankAddr::new(0, 0, 0);
        // Read without an open row.
        let trace = vec![TimedCommand::new(5, Command::read(b, 0))];
        let err = stack_from_trace(&trace, cfg(), 100).unwrap_err();
        assert!(matches!(err, OfflineError::CommandRejected { .. }));
        assert!(err.to_string().contains("rejected"));
        // tRCD violation.
        let trace = vec![
            TimedCommand::new(0, Command::activate(b, 1)),
            TimedCommand::new(3, Command::read(b, 0)),
        ];
        assert!(stack_from_trace(&trace, cfg(), 100).is_err());
    }

    #[test]
    fn empty_trace_is_idle_throughout() {
        let stack = stack_from_trace(&[], cfg(), 1000).unwrap();
        assert!((stack.fraction(BwComponent::Idle) - 1.0).abs() < 1e-12);
    }
}
