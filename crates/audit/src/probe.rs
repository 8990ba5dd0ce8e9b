//! Probe adapters arming the shadow auditor on a live controller.
//!
//! [`AuditProbe`] plugs into the controller's `obs::Probe` socket and
//! forwards every issued command to a shared [`ProtocolAuditor`];
//! [`AuditHandle`] keeps access to the findings (and accumulates
//! conservation failures) after the probe has been handed over. The pair
//! shares state through `Rc<RefCell<…>>`, mirroring the
//! `ChromeTraceProbe`/`ChromeTraceHandle` split in `dramstack-obs`.

use std::cell::RefCell;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use dramstack_dram::{Command, Cycle, DeviceConfig};
use dramstack_memctrl::CompletedRead;
use dramstack_obs::Probe;

use crate::conserve;
use crate::report::{AuditReport, AuditViolation, ConservationFailure, MAX_RECORDED};
use crate::shadow::ProtocolAuditor;

#[derive(Debug)]
struct AuditShared {
    auditor: ProtocolAuditor,
    reads_checked: u64,
    conservation_total: u64,
    conservation: Vec<ConservationFailure>,
}

/// Serializable state of an armed audit channel — the shadow auditor's
/// full bookkeeping plus the conservation counters. Captured by
/// [`AuditHandle::snapshot_state`] so a restored simulation resumes with
/// the exact audit history (the final [`AuditReport`] is part of report
/// bit-identity).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditState {
    auditor: ProtocolAuditor,
    reads_checked: u64,
    conservation_total: u64,
    conservation: Vec<ConservationFailure>,
}

/// The probe half: attach to a controller (directly or inside a
/// `TeeProbe`) to feed it every issued command.
#[derive(Debug)]
pub struct AuditProbe {
    inner: Rc<RefCell<AuditShared>>,
}

impl Probe for AuditProbe {
    fn command_issued(&mut self, now: Cycle, cmd: Command, _flat_bank: usize) {
        self.inner.borrow_mut().auditor.observe(now, cmd);
    }

    /// The auditor is purely event-driven, so the event-horizon skip stays
    /// enabled while it is armed.
    fn wants_ticks(&self) -> bool {
        false
    }
}

/// The handle half: query findings, feed conservation checks, build the
/// final [`AuditReport`].
#[derive(Debug, Clone)]
pub struct AuditHandle {
    inner: Rc<RefCell<AuditShared>>,
}

impl AuditHandle {
    /// Mints another probe sharing this handle's auditor (used to tee the
    /// auditor alongside a user probe).
    pub fn probe(&self) -> AuditProbe {
        AuditProbe {
            inner: Rc::clone(&self.inner),
        }
    }

    /// Commands audited so far.
    pub fn commands_observed(&self) -> u64 {
        self.inner.borrow().auditor.commands_observed()
    }

    /// Total protocol violations found so far.
    pub fn violations_total(&self) -> u64 {
        self.inner.borrow().auditor.violations_total()
    }

    /// Clones out the recorded violations.
    pub fn violations(&self) -> Vec<AuditViolation> {
        self.inner.borrow().auditor.violations().to_vec()
    }

    /// Whether nothing has been flagged yet (protocol or conservation).
    pub fn is_clean(&self) -> bool {
        let s = self.inner.borrow();
        s.auditor.is_clean() && s.conservation_total == 0
    }

    /// Runs the per-read latency-conservation check on a completed read.
    pub fn check_completion(&self, c: &CompletedRead) {
        let mut s = self.inner.borrow_mut();
        s.reads_checked += 1;
        if let Some(f) = conserve::check_read(c) {
            s.conservation_total += 1;
            if s.conservation.len() < MAX_RECORDED {
                s.conservation.push(f);
            }
        }
    }

    /// Captures the full audit state (shadow bookkeeping + conservation
    /// counters) for a simulator snapshot.
    pub fn snapshot_state(&self) -> AuditState {
        let s = self.inner.borrow();
        AuditState {
            auditor: s.auditor.clone(),
            reads_checked: s.reads_checked,
            conservation_total: s.conservation_total,
            conservation: s.conservation.clone(),
        }
    }

    /// Restores state captured by [`snapshot_state`](Self::snapshot_state)
    /// into this (re-armed) channel.
    pub fn restore_state(&self, state: &AuditState) {
        let mut s = self.inner.borrow_mut();
        s.auditor = state.auditor.clone();
        s.reads_checked = state.reads_checked;
        s.conservation_total = state.conservation_total;
        s.conservation = state.conservation.clone();
    }

    /// Snapshots everything into a report (`armed` is always true — an
    /// unarmed run simply has no handle).
    pub fn report(&self) -> AuditReport {
        let s = self.inner.borrow();
        AuditReport {
            armed: true,
            commands_audited: s.auditor.commands_observed(),
            reads_checked: s.reads_checked,
            violations_total: s.auditor.violations_total(),
            violations: s.auditor.violations().to_vec(),
            conservation_total: s.conservation_total,
            conservation: s.conservation.clone(),
        }
    }
}

/// Builds an armed probe/handle pair for one channel.
pub fn audit_channel(cfg: &DeviceConfig) -> (AuditProbe, AuditHandle) {
    let inner = Rc::new(RefCell::new(AuditShared {
        auditor: ProtocolAuditor::new(cfg),
        reads_checked: 0,
        conservation_total: 0,
        conservation: Vec::new(),
    }));
    (
        AuditProbe {
            inner: Rc::clone(&inner),
        },
        AuditHandle { inner },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramstack_dram::BankAddr;

    #[test]
    fn probe_and_handle_share_state() {
        let cfg = DeviceConfig::ddr4_2400();
        let (mut probe, handle) = audit_channel(&cfg);
        let b = BankAddr::new(0, 0, 0);
        probe.command_issued(0, Command::activate(b, 1), 0);
        probe.command_issued(5, Command::read(b, 0), 0); // tRCD broken
        assert_eq!(handle.commands_observed(), 2);
        assert_eq!(handle.violations_total(), 1);
        assert!(!handle.is_clean());
        let report = handle.report();
        assert!(report.armed);
        assert_eq!(report.violations_total, 1);
    }

    #[test]
    fn minted_probes_feed_the_same_auditor() {
        let cfg = DeviceConfig::ddr4_2400();
        let (mut p1, handle) = audit_channel(&cfg);
        let mut p2 = handle.probe();
        let b = BankAddr::new(0, 0, 0);
        p1.command_issued(0, Command::activate(b, 1), 0);
        p2.command_issued(17, Command::read(b, 0), 0);
        assert_eq!(handle.commands_observed(), 2);
        assert!(handle.is_clean());
    }

    #[test]
    fn audit_probe_declines_ticks() {
        let cfg = DeviceConfig::ddr4_2400();
        let (probe, _handle) = audit_channel(&cfg);
        assert!(!probe.wants_ticks());
    }
}
