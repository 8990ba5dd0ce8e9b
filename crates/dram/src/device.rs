//! The DRAM device: banks + rank timing + data bus behind one channel.

use serde::{Deserialize, Serialize};

use crate::bank::{Bank, BankState};
use crate::bus::{BurstKind, DataBus};
use crate::command::{Command, CommandKind};
use crate::error::{CommandError, ConfigError};
use crate::fault::SeededFault;
use crate::geometry::{BankAddr, DramGeometry};
use crate::rank::{RankState, RankTimingState};
use crate::timing::TimingParams;
use crate::view::BlockReason;
use crate::Cycle;

/// Configuration of one DRAM channel: geometry, timing set and bus width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Channel organization.
    pub geometry: DramGeometry,
    /// Timing-constraint set.
    pub timing: TimingParams,
    /// Data-bus width in bytes (8 for DDR4).
    pub bus_bytes: u32,
}

impl DeviceConfig {
    /// The paper's configuration: DDR4-2400, one rank, 16 banks, 8 B bus,
    /// 19.2 GB/s peak.
    pub fn ddr4_2400() -> Self {
        DeviceConfig {
            geometry: DramGeometry::ddr4_single_rank(),
            timing: TimingParams::ddr4_2400(),
            bus_bytes: 8,
        }
    }

    /// Dual-rank DDR4-2400: same channel bandwidth, twice the banks.
    pub fn ddr4_2400_dual_rank() -> Self {
        DeviceConfig {
            geometry: DramGeometry::ddr4_dual_rank(),
            timing: TimingParams::ddr4_2400(),
            bus_bytes: 8,
        }
    }

    /// DDR4-3200 variant for the speed-grade ablation.
    pub fn ddr4_3200() -> Self {
        DeviceConfig {
            geometry: DramGeometry::ddr4_single_rank(),
            timing: TimingParams::ddr4_3200(),
            bus_bytes: 8,
        }
    }

    /// Validates geometry and timing.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.geometry.validate()?;
        self.timing.validate()?;
        if self.bus_bytes == 0 || !self.bus_bytes.is_power_of_two() {
            return Err(ConfigError::InvalidGeometry("bus_bytes"));
        }
        if u64::from(self.bus_bytes) * 2 * self.timing.burst_cycles
            != u64::from(self.geometry.line_bytes)
        {
            return Err(ConfigError::InvalidGeometry(
                "burst_cycles x 2 x bus_bytes must equal line_bytes",
            ));
        }
        Ok(())
    }

    /// Peak bandwidth of this channel in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.timing.peak_bandwidth_gbps(self.bus_bytes)
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

/// An earliest-issue answer: the cycle and the binding constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Earliest {
    /// Earliest cycle the command may issue.
    pub at: Cycle,
    /// The constraint that produced `at` ([`BlockReason::None`] when the
    /// command could have issued earlier than asked).
    pub reason: BlockReason,
}

impl Earliest {
    fn now() -> Self {
        Earliest {
            at: 0,
            reason: BlockReason::None,
        }
    }

    fn tighten(&mut self, cand: Cycle, reason: BlockReason) {
        if cand > self.at {
            self.at = cand;
            self.reason = reason;
        }
    }

    /// Whether the command is ready at `now`.
    pub fn ready(&self, now: Cycle) -> bool {
        self.at <= now
    }
}

/// Serializable image of one channel's full DRAM state, as captured by
/// [`DramDevice::snapshot_state`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSnapshot {
    /// Per-flat-bank state (open rows, timing windows, per-bank stats).
    pub banks: Vec<Bank>,
    /// Per-rank timing state (tFAW windows, refresh bookkeeping).
    pub ranks: Vec<RankTimingState>,
    /// Data-bus schedule and burst totals.
    pub bus: DataBus,
    /// Device-level command counts.
    pub stats: DeviceStats,
    /// Injected chaos fault, if any (the enforced timing set is derived
    /// from this on restore).
    pub fault: SeededFault,
    /// Flat bank indices with a pending auto-precharge.
    pub auto_pre_pending: Vec<usize>,
    /// Dirty-bank list for the transitioning-bank sweep.
    pub transitioning: Vec<usize>,
}

/// Cumulative command counts for the whole device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// ACT commands issued.
    pub activates: u64,
    /// Explicit PRE commands issued (auto-precharges are counted in the
    /// per-bank stats).
    pub precharges: u64,
    /// Read CAS commands.
    pub reads: u64,
    /// Write CAS commands.
    pub writes: u64,
    /// REF commands.
    pub refreshes: u64,
}

/// One DRAM channel: all banks, rank timing state and the data bus.
#[derive(Debug, Clone)]
pub struct DramDevice {
    config: DeviceConfig,
    banks: Vec<Bank>,
    ranks: Vec<RankTimingState>,
    bus: DataBus,
    stats: DeviceStats,
    /// The timing set the device actually enforces. Equal to
    /// `config.timing` unless a [`SeededFault`] was injected, in which
    /// case it is the deliberately corrupted copy — every internal
    /// query, issue check and bookkeeping update uses this set, so the
    /// device stays self-consistent while violating the true spec.
    enforced: TimingParams,
    fault: SeededFault,
    /// Flat indices of banks with a pending auto-precharge, so `advance`
    /// visits only them instead of sweeping every bank.
    auto_pre_pending: Vec<usize>,
    /// Flat indices of the banks the latest `advance` auto-precharged —
    /// transient within a tick, so not part of the snapshot.
    auto_precharged: Vec<usize>,
    /// Dirty-bank list: flat indices whose state may read `Precharging` or
    /// `Activating` — the only states the per-cycle `CycleView` sweep needs
    /// to visit. Banks are pushed on the command that starts the transition
    /// and lazily pruned once settled.
    transitioning: Vec<usize>,
    /// Membership flags of `transitioning`, per flat bank — derived, so
    /// not part of the snapshot.
    in_transition: Vec<bool>,
}

impl DramDevice {
    /// Creates a device from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails; use [`DramDevice::try_new`] for
    /// a fallible constructor.
    pub fn new(config: DeviceConfig) -> Self {
        Self::try_new(config).expect("invalid device configuration")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from validation.
    pub fn try_new(config: DeviceConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let n_banks = config.geometry.total_banks() as usize;
        let ranks = (0..config.geometry.ranks)
            .map(|_| RankTimingState::new(config.geometry.bank_groups, &config.timing))
            .collect();
        Ok(DramDevice {
            enforced: config.timing,
            fault: SeededFault::None,
            auto_pre_pending: Vec::new(),
            auto_precharged: Vec::new(),
            transitioning: Vec::new(),
            in_transition: vec![false; n_banks],
            config,
            banks: vec![Bank::new(); n_banks],
            ranks,
            bus: DataBus::new(),
            stats: DeviceStats::default(),
        })
    }

    /// Does nothing: every `earliest_*` query folds its constraints
    /// afresh, and there is no memo left to switch. Kept only for its one
    /// caller, `refbench/src/layers.rs`, outside the workspace; the stub
    /// goes when that call does.
    pub fn set_memoize(&mut self, _on: bool) {}

    fn touch_bank(&mut self, flat: usize) {
        if !self.in_transition[flat] {
            self.in_transition[flat] = true;
            self.transitioning.push(flat);
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The configured (true) timing parameter set. Reporting and audit
    /// code must use this; it is unaffected by seeded faults.
    pub fn timing(&self) -> &TimingParams {
        &self.config.timing
    }

    /// Injects a seeded bookkeeping fault: from now on the device
    /// enforces `fault.corrupt(config.timing)` instead of the configured
    /// timing. Chaos/audit harness only — see [`SeededFault`].
    pub fn inject_fault(&mut self, fault: SeededFault) {
        self.fault = fault;
        self.enforced = fault.corrupt(self.config.timing);
    }

    /// The currently injected fault ([`SeededFault::None`] normally).
    pub fn fault(&self) -> SeededFault {
        self.fault
    }

    /// The channel geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.config.geometry
    }

    /// Cumulative device-level command counts.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Cumulative `(read_bursts, write_bursts)` moved over the bus.
    pub fn bus_totals(&self) -> (u64, u64) {
        self.bus.totals()
    }

    /// Immutable access to a bank by address.
    pub fn bank(&self, addr: BankAddr) -> &Bank {
        &self.banks[self.config.geometry.flat_bank(addr)]
    }

    /// The open row of the bank with flat index `flat`, if any.
    pub fn open_row(&self, flat: usize) -> Option<u32> {
        self.banks[flat].open_row()
    }

    /// Flat indices of the banks whose pending auto-precharge the latest
    /// [`advance`](Self::advance) applied — the one open-row change no
    /// issued command announces.
    pub fn auto_precharged(&self) -> &[usize] {
        &self.auto_precharged
    }

    /// Housekeeping at the start of cycle `now`: applies due auto-precharges
    /// and retires finished bursts. Call once per cycle before queries.
    ///
    /// Only banks with a pending auto-precharge are visited (the pending
    /// list is maintained at CAS issue), so the sweep is O(pending), not
    /// O(banks).
    pub fn advance(&mut self, now: Cycle) {
        self.auto_precharged.clear();
        let mut i = 0;
        while i < self.auto_pre_pending.len() {
            let flat = self.auto_pre_pending[i];
            if self.banks[flat].apply_auto_precharge(now, &self.enforced) {
                self.auto_pre_pending.swap_remove(i);
                self.auto_precharged.push(flat);
                self.touch_bank(flat);
            } else if !self.banks[flat].has_auto_pre() {
                // Cleared behind our back by a refresh's force-precharge.
                self.auto_pre_pending.swap_remove(i);
            } else {
                i += 1;
            }
        }
        self.bus.retire_before(now);
    }

    // ---- earliest-issue queries -------------------------------------------------

    /// Earliest cycle an ACT for `addr` may issue, with the binding reason.
    pub fn earliest_activate(&self, addr: BankAddr, now: Cycle) -> Earliest {
        let bank = self.bank(addr);
        let mut e = Earliest::now();
        e.tighten(now, BlockReason::None);
        // Rank-level constraints first so that on ties (e.g. a refresh that
        // also reset the bank precharge window) the rank-level reason wins,
        // matching the accounting hierarchy.
        let (rank_at, rank_reason) =
            self.ranks[addr.rank as usize].earliest_activate(addr.bank_group, &self.enforced);
        e.tighten(rank_at, rank_reason);
        e.tighten(
            bank.earliest_activate(&self.enforced),
            BlockReason::RowCycle,
        );
        if e.reason == BlockReason::RowCycle && bank.state(now) == BankState::Precharging {
            e.reason = BlockReason::PrechargePending;
        }
        e
    }

    /// Earliest cycle a PRE for `addr` may issue.
    pub fn earliest_precharge(&self, addr: BankAddr, now: Cycle) -> Earliest {
        let mut e = Earliest::now();
        e.tighten(now, BlockReason::None);
        e.tighten(
            self.bank(addr).earliest_precharge(),
            BlockReason::PrechargeWindow,
        );
        e.tighten(
            self.ranks[addr.rank as usize].refresh_end(),
            BlockReason::Refresh,
        );
        e
    }

    /// Earliest cycle a read CAS for `addr` may issue (row must be open or
    /// opening; otherwise the reason is [`BlockReason::RowClosed`]).
    pub fn earliest_read(&self, addr: BankAddr, now: Cycle) -> Earliest {
        self.earliest_cas(addr, now, false)
    }

    /// Earliest cycle a write CAS for `addr` may issue.
    pub fn earliest_write(&self, addr: BankAddr, now: Cycle) -> Earliest {
        self.earliest_cas(addr, now, true)
    }

    fn earliest_cas(&self, addr: BankAddr, now: Cycle, is_write: bool) -> Earliest {
        let timing = &self.enforced;
        let mut e = Earliest::now();
        e.tighten(now, BlockReason::None);
        match self.bank(addr).earliest_cas() {
            Some(act_done) => e.tighten(act_done, BlockReason::ActivatePending),
            None => {
                // No row open: a CAS cannot issue at all; report the reason
                // and a conservative lower bound.
                return Earliest {
                    at: Cycle::MAX,
                    reason: BlockReason::RowClosed,
                };
            }
        }
        let (rank_at, rank_reason) =
            self.ranks[addr.rank as usize].earliest_cas(addr.bank_group, !is_write, timing);
        e.tighten(rank_at, rank_reason);

        // Data-bus slot: the burst starts CL/CWL after the CAS, and no
        // earlier than the end of the last scheduled burst.
        let cas_to_data = if is_write { timing.cwl } else { timing.cl };
        let backlog = self.bus.backlog_end();
        if backlog > e.at + cas_to_data {
            e.tighten(backlog - cas_to_data, BlockReason::BusBusy);
        }
        // Read→write turnaround bubble on the bus.
        if is_write {
            let after_read = self.bus.last_read_end() + timing.rtw_gap;
            if after_read > e.at + cas_to_data {
                e.tighten(after_read - cas_to_data, BlockReason::ReadToWrite);
            }
        }
        e
    }

    // ---- issue -------------------------------------------------------------------

    /// Issues `cmd` at cycle `now`.
    ///
    /// Returns the completion cycle: for ACT/PRE the end of tRCD/tRP, for
    /// CAS the end of the data burst, for REF the end of tRFC.
    ///
    /// # Errors
    ///
    /// [`CommandError::TimingViolation`] when a constraint blocks the
    /// command, [`CommandError::RowMismatch`] / `BankNotPrecharged` /
    /// `BankNotOpen` / `RefreshWhileBusy` for state violations, `AddressOutOfRange` for bad
    /// operands.
    pub fn issue(&mut self, cmd: Command, now: Cycle) -> Result<Cycle, CommandError> {
        self.check_address(&cmd)?;
        match cmd.kind {
            CommandKind::Activate => self.issue_activate(cmd.bank, cmd.row, now),
            CommandKind::Precharge => self.issue_precharge(cmd.bank, now),
            CommandKind::Read | CommandKind::ReadAp => {
                self.issue_cas(cmd.bank, now, false, cmd.kind.auto_precharges())
            }
            CommandKind::Write | CommandKind::WriteAp => {
                self.issue_cas(cmd.bank, now, true, cmd.kind.auto_precharges())
            }
            CommandKind::Refresh => self.issue_refresh(cmd.bank.rank, now),
        }
    }

    fn check_address(&self, cmd: &Command) -> Result<(), CommandError> {
        let g = &self.config.geometry;
        if cmd.bank.rank >= g.ranks {
            return Err(CommandError::AddressOutOfRange("rank"));
        }
        if cmd.bank.bank_group >= g.bank_groups {
            return Err(CommandError::AddressOutOfRange("bank_group"));
        }
        if cmd.bank.bank >= g.banks_per_group {
            return Err(CommandError::AddressOutOfRange("bank"));
        }
        if cmd.kind == CommandKind::Activate && cmd.row >= g.rows {
            return Err(CommandError::AddressOutOfRange("row"));
        }
        if cmd.kind.is_cas() && cmd.column >= g.columns {
            return Err(CommandError::AddressOutOfRange("column"));
        }
        Ok(())
    }

    fn issue_activate(
        &mut self,
        addr: BankAddr,
        row: u32,
        now: Cycle,
    ) -> Result<Cycle, CommandError> {
        let flat = self.config.geometry.flat_bank(addr);
        if self.banks[flat].open_row().is_some() {
            return Err(CommandError::BankNotPrecharged(addr));
        }
        let e = self.earliest_activate(addr, now);
        if !e.ready(now) {
            return Err(CommandError::TimingViolation {
                bank: addr,
                ready_at: e.at,
                reason: e.reason,
            });
        }
        self.banks[flat].issue_activate(now, row, &self.enforced);
        self.ranks[addr.rank as usize].record_activate(now, addr.bank_group);
        self.touch_bank(flat);
        self.stats.activates += 1;
        Ok(now + self.enforced.t_rcd)
    }

    fn issue_precharge(&mut self, addr: BankAddr, now: Cycle) -> Result<Cycle, CommandError> {
        let flat = self.config.geometry.flat_bank(addr);
        if self.banks[flat].open_row().is_none() {
            // Precharging a precharged bank is a harmless NOP per JEDEC, but
            // the controller should never do it; flag as a state error.
            return Err(CommandError::BankNotOpen(addr));
        }
        let e = self.earliest_precharge(addr, now);
        if !e.ready(now) {
            return Err(CommandError::TimingViolation {
                bank: addr,
                ready_at: e.at,
                reason: e.reason,
            });
        }
        self.banks[flat].issue_precharge(now, &self.enforced);
        self.touch_bank(flat);
        self.stats.precharges += 1;
        Ok(now + self.enforced.t_rp)
    }

    fn issue_cas(
        &mut self,
        addr: BankAddr,
        now: Cycle,
        is_write: bool,
        auto_pre: bool,
    ) -> Result<Cycle, CommandError> {
        let timing = self.enforced;
        let flat = self.config.geometry.flat_bank(addr);
        if self.banks[flat].open_row().is_none() {
            return Err(CommandError::RowMismatch {
                bank: addr,
                open_row: None,
                wanted_row: 0,
            });
        }
        let e = self.earliest_cas(addr, now, is_write);
        if !e.ready(now) {
            return Err(CommandError::TimingViolation {
                bank: addr,
                ready_at: e.at,
                reason: e.reason,
            });
        }
        let cas_to_data = if is_write { timing.cwl } else { timing.cl };
        let burst_start = now + cas_to_data;
        let kind = if is_write {
            BurstKind::Write
        } else {
            BurstKind::Read
        };
        self.bus.reserve(burst_start, timing.burst_cycles, kind);
        if is_write {
            self.banks[flat].issue_write(now, burst_start, auto_pre, &timing);
            self.stats.writes += 1;
        } else {
            self.banks[flat].issue_read(now, burst_start, auto_pre, &timing);
            self.stats.reads += 1;
        }
        self.ranks[addr.rank as usize].record_cas(now, addr.bank_group, is_write);
        self.touch_bank(flat);
        if auto_pre {
            self.auto_pre_pending.push(flat);
        }
        Ok(burst_start + timing.burst_cycles)
    }

    fn issue_refresh(&mut self, rank: u32, now: Cycle) -> Result<Cycle, CommandError> {
        let g = self.config.geometry;
        if let Some(flat) = g.rank_banks(rank).find(|&f| !self.banks[f].is_quiet(now)) {
            return Err(CommandError::RefreshWhileBusy(g.bank_addr(flat)));
        }
        if self.bus.busy_at_or_after(now) {
            return Err(CommandError::RefreshWhileBusy(BankAddr::new(rank, 0, 0)));
        }
        self.ranks[rank as usize].start_refresh(now, &self.enforced);
        let end = self.ranks[rank as usize].refresh_end();
        for flat in g.rank_banks(rank) {
            self.banks[flat].force_precharged(end);
            self.touch_bank(flat);
        }
        self.stats.refreshes += 1;
        Ok(end)
    }

    // ---- accounting queries --------------------------------------------------------

    /// Data-bus activity at cycle `t` (only valid for `t` at or after the
    /// last `advance`).
    pub fn bus_activity(&self, t: Cycle) -> Option<BurstKind> {
        self.bus.activity_at(t)
    }

    /// Whether `rank` is inside a refresh at `t`.
    pub fn is_refreshing(&self, rank: u32, t: Cycle) -> bool {
        matches!(
            self.ranks[rank as usize].state(t),
            RankState::Refreshing { .. }
        )
    }

    /// Whether a refresh is overdue on `rank`.
    pub fn refresh_due(&self, rank: u32, now: Cycle) -> bool {
        self.ranks[rank as usize].refresh_due(now)
    }

    /// Cycle the next refresh falls due on `rank`.
    pub fn next_refresh_at(&self, rank: u32) -> Cycle {
        self.ranks[rank as usize].next_refresh_at()
    }

    /// Whether every bank of `rank` is quiet (refresh could issue, bus
    /// permitting).
    pub fn rank_quiet(&self, rank: u32, now: Cycle) -> bool {
        self.config
            .geometry
            .rank_banks(rank)
            .all(|flat| self.banks[flat].is_quiet(now))
            && !self.bus.busy_at_or_after(now)
    }

    /// State of the bank with flat index `flat` at cycle `t`.
    pub fn bank_state(&self, flat: usize, t: Cycle) -> BankState {
        self.banks[flat].state(t)
    }

    /// Visits every bank whose state at `now` is `Precharging` or
    /// `Activating` — the only two states the per-cycle view sweep cares
    /// about — using the dirty-bank list instead of scanning all banks.
    /// Settled entries are pruned as they are encountered; a bank can only
    /// re-enter a transition through a command, which re-registers it.
    pub fn visit_transitioning_banks(&mut self, now: Cycle, mut f: impl FnMut(usize, BankState)) {
        let mut i = 0;
        while i < self.transitioning.len() {
            let flat = self.transitioning[i];
            let st = self.banks[flat].state(now);
            match st {
                BankState::Precharging | BankState::Activating => {
                    f(flat, st);
                    i += 1;
                }
                _ => {
                    // `Precharging` needs pre_done_at > now and `Activating`
                    // act_done_at > now; both windows are behind `now` and
                    // only move forward via commands (incl. the auto-pre
                    // sweep), each of which calls `touch_bank`. Note a bank
                    // with a *pending* auto-precharge stays listed via its
                    // burst/CAS entry being re-pushed when the precharge
                    // fires, so pruning here is safe.
                    self.in_transition[flat] = false;
                    self.transitioning.swap_remove(i);
                }
            }
        }
    }

    /// Earliest cycle strictly after `now` at which any bank's observable
    /// state changes without a new command (precharge/activate completes,
    /// burst ends, auto-precharge fires). `Cycle::MAX` when all banks are
    /// settled past `now`. One of the caps of the controller's busy-park
    /// horizon.
    pub fn next_bank_transition(&self, now: Cycle) -> Cycle {
        self.banks
            .iter()
            .map(|b| b.next_transition_after(now))
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Earliest data-bus burst edge strictly after `now` (next cycle
    /// [`bus_activity`](Self::bus_activity) can change, absent new CAS).
    pub fn next_bus_boundary(&self, now: Cycle) -> Cycle {
        self.bus.next_boundary_after(now)
    }

    /// End cycle of the refresh in progress (or most recently finished) on
    /// `rank`.
    pub fn refresh_end(&self, rank: u32) -> Cycle {
        self.ranks[rank as usize].refresh_end()
    }

    /// Number of refreshes performed on `rank`.
    pub fn refreshes_done(&self, rank: u32) -> u64 {
        self.ranks[rank as usize].refreshes_done()
    }

    // ---- checkpoint/restore --------------------------------------------------------

    /// Captures the full simulation state of this channel.
    pub fn snapshot_state(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            banks: self.banks.clone(),
            ranks: self.ranks.clone(),
            bus: self.bus.clone(),
            stats: self.stats,
            fault: self.fault,
            auto_pre_pending: self.auto_pre_pending.clone(),
            transitioning: self.transitioning.clone(),
        }
    }

    /// Restores state captured by [`snapshot_state`](Self::snapshot_state)
    /// into a device built from the same configuration; answers are
    /// identical to an uninterrupted run's.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's geometry (bank/rank counts) does not match
    /// this device's configuration.
    pub fn restore_state(&mut self, snap: &DeviceSnapshot) {
        assert_eq!(snap.banks.len(), self.banks.len(), "bank count mismatch");
        assert_eq!(snap.ranks.len(), self.ranks.len(), "rank count mismatch");
        self.banks = snap.banks.clone();
        self.ranks = snap.ranks.clone();
        self.bus = snap.bus.clone();
        self.stats = snap.stats;
        self.fault = snap.fault;
        self.enforced = snap.fault.corrupt(self.config.timing);
        self.auto_pre_pending = snap.auto_pre_pending.clone();
        self.auto_precharged.clear();
        self.transitioning = snap.transitioning.clone();
        self.in_transition.fill(false);
        for &flat in &self.transitioning {
            self.in_transition[flat] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DramDevice {
        DramDevice::new(DeviceConfig::ddr4_2400())
    }

    #[test]
    fn config_validates() {
        DeviceConfig::ddr4_2400().validate().unwrap();
        DeviceConfig::ddr4_3200().validate().unwrap();
        let mut c = DeviceConfig::ddr4_2400();
        c.bus_bytes = 3;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::ddr4_2400();
        c.bus_bytes = 16; // 16 B × 2 × 4 cycles ≠ 64 B line
        assert!(c.validate().is_err());
    }

    #[test]
    fn act_then_read_full_sequence() {
        let mut d = dev();
        let t = *d.timing();
        let b = BankAddr::new(0, 0, 0);
        d.issue(Command::activate(b, 3), 0).unwrap();
        // Read before tRCD is rejected.
        let err = d.issue(Command::read(b, 0), 5).unwrap_err();
        assert!(matches!(
            err,
            CommandError::TimingViolation {
                reason: BlockReason::ActivatePending,
                ..
            }
        ));
        let done = d.issue(Command::read(b, 0), t.t_rcd).unwrap();
        assert_eq!(done, t.t_rcd + t.cl + t.burst_cycles);
        // The burst occupies the bus.
        assert_eq!(d.bus_activity(t.t_rcd + t.cl), Some(BurstKind::Read));
        assert_eq!(d.bus_activity(t.t_rcd + t.cl - 1), None);
    }

    #[test]
    fn cas_without_open_row_is_rejected() {
        let mut d = dev();
        let b = BankAddr::new(0, 0, 0);
        let err = d.issue(Command::read(b, 0), 0).unwrap_err();
        assert!(matches!(err, CommandError::RowMismatch { .. }));
        let e = d.earliest_read(b, 0);
        assert_eq!(e.reason, BlockReason::RowClosed);
    }

    #[test]
    fn same_bank_group_reads_spaced_by_ccd_l() {
        let mut d = dev();
        let t = *d.timing();
        let b0 = BankAddr::new(0, 1, 0);
        let b1 = BankAddr::new(0, 1, 1);
        d.issue(Command::activate(b0, 0), 0).unwrap();
        d.issue(Command::activate(b1, 0), t.t_rrd_l).unwrap();
        // Read b0 well after both ACTs completed so tCCD_L is the only
        // constraint left on b1's read.
        let first = 30;
        d.issue(Command::read(b0, 0), first).unwrap();
        let e = d.earliest_read(b1, first + 1);
        assert_eq!(e.at, first + t.t_ccd_l);
        assert_eq!(e.reason, BlockReason::CcdLong);
    }

    #[test]
    fn cross_bank_group_reads_spaced_by_ccd_s() {
        let mut d = dev();
        let t = *d.timing();
        let b0 = BankAddr::new(0, 0, 0);
        let b1 = BankAddr::new(0, 2, 0);
        d.issue(Command::activate(b0, 0), 0).unwrap();
        d.issue(Command::activate(b1, 0), t.t_rrd_s).unwrap();
        let first = t.t_rcd.max(t.t_rrd_s);
        d.issue(Command::read(b0, 0), first).unwrap();
        let e = d.earliest_read(b1, first);
        assert_eq!(e.at, first + t.t_ccd_s);
    }

    #[test]
    fn write_then_read_pays_wtr() {
        let mut d = dev();
        let t = *d.timing();
        let b = BankAddr::new(0, 0, 0);
        d.issue(Command::activate(b, 0), 0).unwrap();
        d.issue(Command::write(b, 0), t.t_rcd).unwrap();
        let e = d.earliest_read(b, t.t_rcd + 1);
        assert_eq!(e.at, t.t_rcd + t.write_to_read_same_bg());
        assert_eq!(e.reason, BlockReason::WtrLong);
    }

    #[test]
    fn read_then_write_pays_bus_turnaround() {
        let mut d = dev();
        let t = *d.timing();
        let b0 = BankAddr::new(0, 0, 0);
        let b1 = BankAddr::new(0, 2, 0);
        d.issue(Command::activate(b0, 0), 0).unwrap();
        d.issue(Command::activate(b1, 0), t.t_rrd_s).unwrap();
        let rd_at = t.t_rcd.max(t.t_rrd_s);
        d.issue(Command::read(b0, 0), rd_at).unwrap();
        let e = d.earliest_write(b1, rd_at + t.t_ccd_s);
        // Write burst must start after the read burst end + the bubble:
        // wr_cas + CWL >= rd_cas + CL + burst + gap.
        let min_cas = rd_at + t.cl + t.burst_cycles + t.rtw_gap - t.cwl;
        assert_eq!(e.at, min_cas);
        assert_eq!(e.reason, BlockReason::ReadToWrite);
    }

    #[test]
    fn refresh_requires_quiet_rank_and_blocks_activates() {
        let mut d = dev();
        let t = *d.timing();
        let b = BankAddr::new(0, 0, 0);
        d.issue(Command::activate(b, 0), 0).unwrap();
        let err = d.issue(Command::refresh(0), 1).unwrap_err();
        assert!(matches!(err, CommandError::RefreshWhileBusy(_)));
        // Close the bank, then refresh succeeds.
        let pre_at = d.earliest_precharge(b, 1).at;
        d.issue(Command::precharge(b), pre_at).unwrap();
        let quiet_at = pre_at + t.t_rp;
        d.advance(quiet_at);
        assert!(d.rank_quiet(0, quiet_at));
        let end = d.issue(Command::refresh(0), quiet_at).unwrap();
        assert_eq!(end, quiet_at + t.t_rfc);
        assert!(d.is_refreshing(0, quiet_at + 1));
        assert!(!d.is_refreshing(0, end));
        let e = d.earliest_activate(b, quiet_at + 1);
        assert_eq!(e.at, end);
        assert_eq!(e.reason, BlockReason::Refresh);
        assert_eq!(d.refreshes_done(0), 1);
    }

    #[test]
    fn auto_precharge_closes_bank_for_next_activate() {
        let mut d = dev();
        let t = *d.timing();
        let b = BankAddr::new(0, 0, 0);
        d.issue(Command::activate(b, 7), 0).unwrap();
        d.issue(Command::read_ap(b, 0), t.t_rcd).unwrap();
        // After tRAS and tRP the bank can re-activate a different row.
        let reopen = t.t_ras.max(t.t_rcd + t.t_rtp) + t.t_rp;
        d.advance(reopen);
        let e = d.earliest_activate(b, reopen);
        assert!(
            e.at <= reopen.max(t.t_rc),
            "auto-precharge should have closed the row"
        );
        d.issue(Command::activate(b, 8), e.at.max(reopen)).unwrap();
        assert_eq!(d.bank(b).open_row(), Some(8));
    }

    #[test]
    fn precharge_to_closed_bank_is_rejected() {
        let mut d = dev();
        let b = BankAddr::new(0, 0, 0);
        let err = d.issue(Command::precharge(b), 0).unwrap_err();
        assert_eq!(err, CommandError::BankNotOpen(b));
        assert_eq!(
            err.to_string(),
            "precharge to bank r0g0b0 which has no open row"
        );
        assert_eq!(d.stats().precharges, 0);
    }

    #[test]
    fn address_range_checks() {
        let mut d = dev();
        assert!(matches!(
            d.issue(Command::activate(BankAddr::new(1, 0, 0), 0), 0),
            Err(CommandError::AddressOutOfRange("rank"))
        ));
        assert!(matches!(
            d.issue(Command::activate(BankAddr::new(0, 4, 0), 0), 0),
            Err(CommandError::AddressOutOfRange("bank_group"))
        ));
        assert!(matches!(
            d.issue(Command::activate(BankAddr::new(0, 0, 0), 1 << 20), 0),
            Err(CommandError::AddressOutOfRange("row"))
        ));
    }

    #[test]
    fn rank_constraints_are_independent() {
        // Fill rank 0's tFAW window; rank 1 activates freely.
        let mut d = DramDevice::new(DeviceConfig::ddr4_2400_dual_rank());
        let t = *d.timing();
        let mut at = 0;
        for bg in 0..4u32 {
            let b = BankAddr::new(0, bg, 0);
            at = d.earliest_activate(b, at).at;
            d.issue(Command::activate(b, 0), at).unwrap();
            at += t.t_rrd_s;
        }
        let blocked = d.earliest_activate(BankAddr::new(0, 0, 1), at);
        assert!(blocked.at > at, "rank 0 is tFAW-limited");
        let free = d.earliest_activate(BankAddr::new(1, 0, 0), at);
        assert_eq!(free.at, at, "rank 1 is unconstrained");
        d.issue(Command::activate(BankAddr::new(1, 0, 0), 0), at)
            .unwrap();
    }

    #[test]
    fn ranks_refresh_independently() {
        let mut d = DramDevice::new(DeviceConfig::ddr4_2400_dual_rank());
        let t = *d.timing();
        let due = t.t_refi;
        d.advance(due);
        assert!(d.refresh_due(0, due));
        assert!(d.refresh_due(1, due));
        d.issue(Command::refresh(0), due).unwrap();
        assert!(d.is_refreshing(0, due + 1));
        assert!(!d.is_refreshing(1, due + 1));
        // Rank 1 can still activate while rank 0 refreshes.
        d.issue(Command::activate(BankAddr::new(1, 0, 0), 0), due + 1)
            .unwrap();
        d.issue(Command::refresh(1), due + 2).unwrap_err(); // rank 1 busy now
    }

    #[test]
    fn stats_accumulate() {
        let mut d = dev();
        let t = *d.timing();
        let b = BankAddr::new(0, 0, 0);
        d.issue(Command::activate(b, 0), 0).unwrap();
        d.issue(Command::read(b, 0), t.t_rcd).unwrap();
        d.issue(Command::read(b, 1), t.t_rcd + t.t_ccd_l).unwrap();
        let s = d.stats();
        assert_eq!((s.activates, s.reads, s.writes), (1, 2, 0));
        assert_eq!(d.bus_totals(), (2, 0));
    }

    #[test]
    fn back_to_back_reads_different_groups_saturate_bus() {
        // Reads to alternating bank groups can keep the bus fully busy:
        // burst every tCCD_S = burst_cycles.
        let mut d = dev();
        let t = *d.timing();
        let banks = [BankAddr::new(0, 0, 0), BankAddr::new(0, 1, 0)];
        d.issue(Command::activate(banks[0], 0), 0).unwrap();
        d.issue(Command::activate(banks[1], 0), t.t_rrd_s).unwrap();
        let mut at = t.t_rcd.max(t.t_rrd_s + t.t_rcd);
        for i in 0..8 {
            let bank = banks[i % 2];
            let e = d.earliest_read(bank, at);
            at = e.at;
            d.issue(Command::read(bank, i as u32), at).unwrap();
        }
        // After pipeline fill, every cycle in a window is a read burst.
        let window_start = at + t.cl;
        for cyc in window_start - 2 * t.burst_cycles..window_start + t.burst_cycles {
            assert_eq!(d.bus_activity(cyc), Some(BurstKind::Read), "cycle {cyc}");
        }
    }
}
