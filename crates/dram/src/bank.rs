//! Per-bank row-buffer state machine and bank-local timing windows.

use serde::{Deserialize, Serialize};

use crate::timing::TimingParams;
use crate::Cycle;

/// What a bank is doing at a given cycle, as far as bank-local state goes.
///
/// This is the raw state; the stack accounting combines it with pending
/// request information to produce a [`BankActivity`](crate::BankActivity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BankState {
    /// No row open, no operation in flight.
    Precharged,
    /// A PRE is in progress (within tRP).
    Precharging,
    /// An ACT is in progress (within tRCD).
    Activating,
    /// Row open, CAS issued, data burst not yet finished.
    CasInFlight,
    /// Row open and the bank is otherwise quiescent.
    Open,
}

/// State of a single DRAM bank.
///
/// The bank tracks its open row plus the absolute cycles at which each of
/// its bank-local timing windows expires. All command legality questions are
/// answered in terms of those windows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bank {
    open_row: Option<u32>,
    /// Cycle the in-progress PRE finishes (ACT allowed from here).
    pre_done_at: Cycle,
    /// Cycle the in-progress ACT finishes (CAS allowed from here).
    act_done_at: Cycle,
    /// Issue time of the most recent ACT (for tRAS / tRC).
    last_act_at: Cycle,
    /// Earliest cycle a PRE may issue (max of tRAS, tRTP, tWR windows).
    pre_allowed_at: Cycle,
    /// End of the most recent data burst from/to this bank.
    burst_end_at: Cycle,
    /// Issue time of the most recent CAS to this bank.
    last_cas_at: Cycle,
    /// Pending auto-precharge start time, if a RDA/WRA is in flight.
    auto_pre_at: Option<Cycle>,
    /// Statistics: activates, precharges, reads, writes issued to this bank.
    stats: BankStats,
}

/// Per-bank command counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankStats {
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued (including auto-precharges).
    pub precharges: u64,
    /// Read CAS commands issued.
    pub reads: u64,
    /// Write CAS commands issued.
    pub writes: u64,
}

impl Bank {
    /// A freshly precharged, idle bank.
    pub fn new() -> Self {
        Bank {
            open_row: None,
            pre_done_at: 0,
            act_done_at: 0,
            last_act_at: 0,
            pre_allowed_at: 0,
            burst_end_at: 0,
            last_cas_at: 0,
            auto_pre_at: None,
            stats: BankStats::default(),
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Cumulative command counters for this bank.
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// Applies a pending auto-precharge if its start time has been reached.
    /// Must be called (cheaply) before querying state at cycle `now`.
    /// Returns whether the auto-precharge fired (the bank changed state).
    pub fn apply_auto_precharge(&mut self, now: Cycle, timing: &TimingParams) -> bool {
        if let Some(start) = self.auto_pre_at {
            if now >= start {
                self.auto_pre_at = None;
                self.open_row = None;
                self.pre_done_at = start + timing.t_rp;
                self.stats.precharges += 1;
                return true;
            }
        }
        false
    }

    /// Whether a RDA/WRA auto-precharge is still pending on this bank.
    pub fn has_auto_pre(&self) -> bool {
        self.auto_pre_at.is_some()
    }

    /// Cycle the in-progress (or most recent) precharge finishes. Exposed
    /// for the device's next-legal-cycle tables: while `now` is before this
    /// cycle the bank reports [`BankState::Precharging`].
    pub fn pre_done_at(&self) -> Cycle {
        self.pre_done_at
    }

    /// Earliest cycle strictly after `now` at which this bank's observable
    /// state can change without a new command: a precharge or activate
    /// completes, a data burst ends, or a pending auto-precharge fires.
    /// Returns `Cycle::MAX` when the bank is settled past `now`.
    pub fn next_transition_after(&self, now: Cycle) -> Cycle {
        let mut h = Cycle::MAX;
        for t in [self.pre_done_at, self.act_done_at, self.burst_end_at] {
            if t > now {
                h = h.min(t);
            }
        }
        if let Some(a) = self.auto_pre_at {
            // Callers run `advance(now)` first, so a pending auto-precharge
            // always starts in the future here.
            debug_assert!(a > now, "unapplied auto-precharge at {a} <= {now}");
            h = h.min(a.max(now + 1));
        }
        h
    }

    /// The bank's state at cycle `now`. Callers must have applied pending
    /// auto-precharges first.
    pub fn state(&self, now: Cycle) -> BankState {
        if now < self.pre_done_at {
            BankState::Precharging
        } else if self.open_row.is_some() && now < self.act_done_at {
            BankState::Activating
        } else if self.open_row.is_some() && now < self.burst_end_at {
            BankState::CasInFlight
        } else if self.open_row.is_some() {
            BankState::Open
        } else {
            BankState::Precharged
        }
    }

    /// Whether the bank is fully idle (precharged, nothing in flight) — the
    /// condition a refresh needs.
    pub fn is_quiet(&self, now: Cycle) -> bool {
        self.open_row.is_none() && now >= self.pre_done_at && self.auto_pre_at.is_none()
    }

    /// Earliest cycle an ACT may issue to this bank (bank-local constraints
    /// only: tRP after PRE, tRC after the previous ACT).
    pub fn earliest_activate(&self, timing: &TimingParams) -> Cycle {
        let after_pre = self.pre_done_at;
        let after_rc = if self.stats.activates > 0 {
            self.last_act_at + timing.t_rc
        } else {
            0
        };
        after_pre.max(after_rc)
    }

    /// Earliest cycle a PRE may issue (tRAS, tRTP and tWR windows).
    pub fn earliest_precharge(&self) -> Cycle {
        self.pre_allowed_at
    }

    /// Earliest cycle a CAS may issue, considering only this bank's ACT
    /// completion (callers add bank-group / rank / bus constraints).
    ///
    /// Returns `None` if no row is open (a CAS is not possible at all).
    pub fn earliest_cas(&self) -> Option<Cycle> {
        self.open_row.map(|_| self.act_done_at)
    }

    /// Issues an ACT at cycle `at` for `row`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the bank is precharged and timing windows allow it;
    /// the device validates before calling.
    pub fn issue_activate(&mut self, at: Cycle, row: u32, timing: &TimingParams) {
        debug_assert!(self.open_row.is_none());
        debug_assert!(at >= self.earliest_activate(timing));
        self.open_row = Some(row);
        self.last_act_at = at;
        self.act_done_at = at + timing.t_rcd;
        self.pre_allowed_at = self.pre_allowed_at.max(at + timing.t_ras);
        self.stats.activates += 1;
    }

    /// Issues a PRE at cycle `at`.
    pub fn issue_precharge(&mut self, at: Cycle, timing: &TimingParams) {
        debug_assert!(self.open_row.is_some());
        debug_assert!(at >= self.pre_allowed_at);
        self.open_row = None;
        self.pre_done_at = at + timing.t_rp;
        self.stats.precharges += 1;
    }

    /// Issues a read CAS at cycle `at` whose data burst occupies
    /// `[burst_start, burst_start + burst)`. If `auto_pre`, schedules the
    /// auto-precharge at the latest of the tRAS/tRTP windows.
    pub fn issue_read(
        &mut self,
        at: Cycle,
        burst_start: Cycle,
        auto_pre: bool,
        timing: &TimingParams,
    ) {
        debug_assert!(self.open_row.is_some());
        debug_assert!(at >= self.act_done_at);
        self.last_cas_at = at;
        self.burst_end_at = burst_start + timing.burst_cycles;
        self.pre_allowed_at = self.pre_allowed_at.max(at + timing.t_rtp);
        self.stats.reads += 1;
        if auto_pre {
            self.auto_pre_at = Some(self.pre_allowed_at.max(at + timing.t_rtp));
        }
    }

    /// Issues a write CAS at cycle `at` whose data burst occupies
    /// `[burst_start, burst_start + burst)`. Write recovery (tWR) runs from
    /// the end of the burst.
    pub fn issue_write(
        &mut self,
        at: Cycle,
        burst_start: Cycle,
        auto_pre: bool,
        timing: &TimingParams,
    ) {
        debug_assert!(self.open_row.is_some());
        debug_assert!(at >= self.act_done_at);
        self.last_cas_at = at;
        let burst_end = burst_start + timing.burst_cycles;
        self.burst_end_at = burst_end;
        self.pre_allowed_at = self.pre_allowed_at.max(burst_end + timing.t_wr);
        self.stats.writes += 1;
        if auto_pre {
            self.auto_pre_at = Some(burst_end + timing.t_wr);
        }
    }

    /// Forces the bank into the precharged state at `at` (used by refresh
    /// completion: refresh leaves every bank precharged).
    pub fn force_precharged(&mut self, at: Cycle) {
        self.open_row = None;
        self.auto_pre_at = None;
        self.pre_done_at = self.pre_done_at.max(at);
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr4_2400()
    }

    #[test]
    fn fresh_bank_is_precharged() {
        let b = Bank::new();
        assert_eq!(b.state(0), BankState::Precharged);
        assert_eq!(b.open_row(), None);
        assert!(b.is_quiet(0));
        assert_eq!(b.earliest_activate(&t()), 0);
        assert_eq!(b.earliest_cas(), None);
    }

    #[test]
    fn activate_opens_row_after_trcd() {
        let timing = t();
        let mut b = Bank::new();
        b.issue_activate(10, 42, &timing);
        assert_eq!(b.open_row(), Some(42));
        assert_eq!(b.state(10), BankState::Activating);
        assert_eq!(b.state(10 + timing.t_rcd - 1), BankState::Activating);
        assert_eq!(b.state(10 + timing.t_rcd), BankState::Open);
        assert_eq!(b.earliest_cas(), Some(10 + timing.t_rcd));
    }

    #[test]
    fn precharge_respects_tras_and_closes_row() {
        let timing = t();
        let mut b = Bank::new();
        b.issue_activate(0, 1, &timing);
        assert_eq!(b.earliest_precharge(), timing.t_ras);
        b.issue_precharge(timing.t_ras, &timing);
        assert_eq!(b.open_row(), None);
        assert_eq!(b.state(timing.t_ras), BankState::Precharging);
        assert_eq!(b.state(timing.t_ras + timing.t_rp), BankState::Precharged);
        // tRC: next ACT no earlier than last ACT + tRC.
        assert_eq!(
            b.earliest_activate(&timing),
            timing.t_rc.max(timing.t_ras + timing.t_rp)
        );
    }

    #[test]
    fn read_extends_pre_window_by_trtp() {
        let timing = t();
        let mut b = Bank::new();
        b.issue_activate(0, 1, &timing);
        let cas_at = timing.t_rcd;
        b.issue_read(cas_at, cas_at + timing.cl, false, &timing);
        assert_eq!(b.state(cas_at + 1), BankState::CasInFlight);
        assert_eq!(
            b.earliest_precharge(),
            timing.t_ras.max(cas_at + timing.t_rtp)
        );
        let burst_end = cas_at + timing.cl + timing.burst_cycles;
        assert_eq!(b.state(burst_end), BankState::Open);
    }

    #[test]
    fn write_recovery_blocks_precharge() {
        let timing = t();
        let mut b = Bank::new();
        b.issue_activate(0, 1, &timing);
        let cas_at = timing.t_rcd;
        let burst_start = cas_at + timing.cwl;
        b.issue_write(cas_at, burst_start, false, &timing);
        let burst_end = burst_start + timing.burst_cycles;
        assert_eq!(b.earliest_precharge(), burst_end + timing.t_wr);
    }

    #[test]
    fn auto_precharge_fires() {
        let timing = t();
        let mut b = Bank::new();
        b.issue_activate(0, 1, &timing);
        let cas_at = timing.t_rcd;
        b.issue_read(cas_at, cas_at + timing.cl, true, &timing);
        let pre_at = timing.t_ras.max(cas_at + timing.t_rtp);
        b.apply_auto_precharge(pre_at - 1, &timing);
        assert_eq!(b.open_row(), Some(1));
        b.apply_auto_precharge(pre_at, &timing);
        assert_eq!(b.open_row(), None);
        assert_eq!(b.state(pre_at), BankState::Precharging);
        assert_eq!(b.stats().precharges, 1);
    }

    #[test]
    fn stats_count_commands() {
        let timing = t();
        let mut b = Bank::new();
        b.issue_activate(0, 1, &timing);
        let cas = timing.t_rcd;
        b.issue_read(cas, cas + timing.cl, false, &timing);
        b.issue_read(cas + 6, cas + 6 + timing.cl, false, &timing);
        b.issue_write(cas + 30, cas + 30 + timing.cwl, false, &timing);
        let pre_at = b.earliest_precharge();
        b.issue_precharge(pre_at, &timing);
        let s = b.stats();
        assert_eq!((s.activates, s.precharges, s.reads, s.writes), (1, 1, 2, 1));
    }

    #[test]
    fn force_precharged_clears_everything() {
        let timing = t();
        let mut b = Bank::new();
        b.issue_activate(0, 5, &timing);
        b.force_precharged(100);
        assert_eq!(b.open_row(), None);
        assert!(b.is_quiet(100));
    }
}
