//! The shadow JEDEC protocol auditor.
//!
//! [`ProtocolAuditor`] is a deliberately simple, *independent*
//! re-implementation of the DDR4 timing rules. It observes every command
//! the controller issues (via the `obs::Probe` command hook) and checks it
//! against its own bookkeeping — it shares **no code** with the device
//! model in `dramstack-dram`: no `Bank`/`RankTimingState`/`DataBus` types,
//! no `earliest_*` helpers, not even `TimingParams` methods. The only
//! thing taken from the device configuration is the raw parameter
//! *values*, copied field by field into [`ShadowTiming`] at construction.
//! A bookkeeping bug in the optimized device model therefore cannot hide
//! itself by also corrupting the checker.
//!
//! Rules checked per command:
//!
//! * `ACT` — tRP (precharge done), tRC (row cycle), tRRD_S/L (ACT-to-ACT
//!   spacing), tFAW (four-activate window), tRFC (rank not refreshing),
//!   row-buffer state (bank must be precharged).
//! * `RD`/`RDA`/`WR`/`WRA` — tRCD, tCCD_S/L, tWTR_S/L (reads after a
//!   write), read-to-write bus turnaround (writes after a read), data-bus
//!   burst overlap, tRFC, row-buffer state (a row must be open).
//! * `PRE` — tRAS, tRTP, tWR, tRFC, row-buffer state.
//! * `REF` — tRFC (back-to-back), tREFI cadence (±8×tREFI JEDEC
//!   postponement allowance), all banks of the rank idle.
//!
//! Violations are recorded (never panicked on) and bookkeeping continues
//! updating afterwards, so one early command does not cascade into a wall
//! of spurious reports.

use serde::{Deserialize, Serialize};

use dramstack_dram::{BankAddr, Command, CommandKind, Cycle, DeviceConfig};

use crate::report::{AuditRule, AuditViolation, MAX_RECORDED};

/// The auditor's own snapshot of the JEDEC parameters, copied field by
/// field from the device configuration (values only — see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowTiming {
    /// READ command to first data beat.
    pub cl: Cycle,
    /// WRITE command to first data beat.
    pub cwl: Cycle,
    /// Data burst length in bus cycles.
    pub burst: Cycle,
    /// ACT to CAS.
    pub t_rcd: Cycle,
    /// PRE to ACT.
    pub t_rp: Cycle,
    /// ACT to PRE.
    pub t_ras: Cycle,
    /// ACT to ACT, same bank.
    pub t_rc: Cycle,
    /// CAS to CAS, different bank group.
    pub t_ccd_s: Cycle,
    /// CAS to CAS, same bank group.
    pub t_ccd_l: Cycle,
    /// ACT to ACT, different bank group.
    pub t_rrd_s: Cycle,
    /// ACT to ACT, same bank group.
    pub t_rrd_l: Cycle,
    /// Four-activate window.
    pub t_faw: Cycle,
    /// READ to PRE.
    pub t_rtp: Cycle,
    /// End of write burst to PRE.
    pub t_wr: Cycle,
    /// End of write burst to READ, different bank group.
    pub t_wtr_s: Cycle,
    /// End of write burst to READ, same bank group.
    pub t_wtr_l: Cycle,
    /// Bus bubble between a read burst and a following write burst.
    pub rtw_gap: Cycle,
    /// Average refresh interval.
    pub t_refi: Cycle,
    /// Refresh cycle time.
    pub t_rfc: Cycle,
}

impl ShadowTiming {
    /// Copies the raw parameter values out of a device configuration.
    fn from_config(cfg: &DeviceConfig) -> Self {
        let t = &cfg.timing;
        ShadowTiming {
            cl: t.cl,
            cwl: t.cwl,
            burst: t.burst_cycles,
            t_rcd: t.t_rcd,
            t_rp: t.t_rp,
            t_ras: t.t_ras,
            t_rc: t.t_rc,
            t_ccd_s: t.t_ccd_s,
            t_ccd_l: t.t_ccd_l,
            t_rrd_s: t.t_rrd_s,
            t_rrd_l: t.t_rrd_l,
            t_faw: t.t_faw,
            t_rtp: t.t_rtp,
            t_wr: t.t_wr,
            t_wtr_s: t.t_wtr_s,
            t_wtr_l: t.t_wtr_l,
            rtw_gap: t.rtw_gap,
            t_refi: t.t_refi,
            t_rfc: t.t_rfc,
        }
    }
}

/// JEDEC allows refreshes to be postponed or pulled in by up to eight
/// tREFI intervals.
const REFI_SLACK: Cycle = 8;

/// Shadow state of one bank's row buffer and per-bank timing windows.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct ShadowBank {
    /// The open row, if any.
    open_row: Option<u32>,
    /// Issue cycle of the last ACT (valid once `ever_activated`).
    act_at: Cycle,
    ever_activated: bool,
    /// Earliest cycle the next ACT may issue (tRP after the last PRE).
    pre_done_at: Cycle,
    /// `act_at + tRAS`: earliest PRE with respect to row-active time.
    ras_until: Cycle,
    /// Last read CAS + tRTP: earliest PRE with respect to read-to-PRE.
    rtp_until: Cycle,
    /// Last write burst end + tWR: earliest PRE w.r.t. write recovery.
    wr_until: Cycle,
    /// A scheduled auto-precharge (RDA/WRA) that has not started yet.
    auto_pre_at: Option<Cycle>,
}

impl ShadowBank {
    /// Applies a scheduled auto-precharge whose start has passed.
    fn settle(&mut self, now: Cycle, t_rp: Cycle) {
        if let Some(start) = self.auto_pre_at {
            if start <= now {
                self.open_row = None;
                self.pre_done_at = start + t_rp;
                self.auto_pre_at = None;
            }
        }
    }

    /// Earliest cycle a PRE (explicit or auto) may begin, and the rule
    /// that binds it.
    fn pre_allowed(&self) -> (Cycle, AuditRule) {
        let mut at = self.ras_until;
        let mut rule = AuditRule::TRas;
        if self.rtp_until > at {
            at = self.rtp_until;
            rule = AuditRule::TRtp;
        }
        if self.wr_until > at {
            at = self.wr_until;
            rule = AuditRule::TWr;
        }
        (at, rule)
    }

    /// Whether the bank is idle enough for its rank to refresh: row
    /// closed, no auto-precharge pending, precharge complete.
    fn idle_for_refresh(&self, now: Cycle) -> bool {
        self.open_row.is_none() && self.auto_pre_at.is_none() && now >= self.pre_done_at
    }
}

/// Shadow state of one rank: ACT/CAS spacing, tFAW window, refresh.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ShadowRank {
    /// Issue cycles of up to the last four ACTs (for tFAW).
    faw_window: Vec<Cycle>,
    last_act_any: Option<Cycle>,
    last_act_bg: Vec<Option<Cycle>>,
    last_cas_any: Option<Cycle>,
    last_cas_bg: Vec<Option<Cycle>>,
    last_write_cas_any: Option<Cycle>,
    last_write_cas_bg: Vec<Option<Cycle>>,
    /// End of the refresh in progress (commands illegal before this).
    refresh_until: Cycle,
    /// Refreshes observed so far (for the tREFI cadence bound).
    refreshes_done: u64,
}

impl ShadowRank {
    fn new(bank_groups: usize) -> Self {
        ShadowRank {
            faw_window: Vec::with_capacity(4),
            last_act_any: None,
            last_act_bg: vec![None; bank_groups],
            last_cas_any: None,
            last_cas_bg: vec![None; bank_groups],
            last_write_cas_any: None,
            last_write_cas_bg: vec![None; bank_groups],
            refresh_until: 0,
            refreshes_done: 0,
        }
    }
}

/// One violated rule with its earliest-legal cycle, collected while
/// checking a command.
#[derive(Debug, Clone, Copy)]
struct Breach {
    rule: AuditRule,
    earliest: Cycle,
}

/// The shadow protocol auditor (see module docs).
///
/// Feed it every issued command via [`observe`](Self::observe); read the
/// findings with [`violations`](Self::violations). It can be used
/// standalone or wrapped in an [`AuditProbe`](crate::AuditProbe), which
/// [`audit_channel`](crate::audit_channel) builds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolAuditor {
    t: ShadowTiming,
    bank_groups: usize,
    banks_per_group: usize,
    banks: Vec<ShadowBank>,
    ranks: Vec<ShadowRank>,
    /// End of every burst reserved so far is `<= bus_free_at`.
    bus_free_at: Cycle,
    /// End of the most recent *read* burst (for read-to-write turnaround).
    last_read_burst_end: Cycle,
    commands: u64,
    violations_total: u64,
    violations: Vec<AuditViolation>,
}

impl ProtocolAuditor {
    /// Builds an auditor for a channel with the given configuration.
    pub fn new(cfg: &DeviceConfig) -> Self {
        let g = &cfg.geometry;
        let (ranks, bgs, bpg) = (
            g.ranks as usize,
            g.bank_groups as usize,
            g.banks_per_group as usize,
        );
        ProtocolAuditor {
            t: ShadowTiming::from_config(cfg),
            bank_groups: bgs,
            banks_per_group: bpg,
            banks: vec![ShadowBank::default(); ranks * bgs * bpg],
            ranks: (0..ranks).map(|_| ShadowRank::new(bgs)).collect(),
            bus_free_at: 0,
            last_read_burst_end: 0,
            commands: 0,
            violations_total: 0,
            violations: Vec::new(),
        }
    }

    /// Commands checked so far.
    pub fn commands_observed(&self) -> u64 {
        self.commands
    }

    /// Total violations found (including beyond the recording cap).
    pub fn violations_total(&self) -> u64 {
        self.violations_total
    }

    /// The recorded violations, in observation order.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// The first violation, if any.
    pub fn first_violation(&self) -> Option<&AuditViolation> {
        self.violations.first()
    }

    /// Whether no violation has been observed.
    pub fn is_clean(&self) -> bool {
        self.violations_total == 0
    }

    fn flat(&self, b: BankAddr) -> usize {
        (b.rank as usize * self.bank_groups + b.bank_group as usize) * self.banks_per_group
            + b.bank as usize
    }

    /// Checks one issued command and updates the shadow state.
    pub fn observe(&mut self, now: Cycle, cmd: Command) {
        self.commands += 1;
        let mut breaches: Vec<Breach> = Vec::new();
        match cmd.kind {
            CommandKind::Activate => self.observe_activate(now, cmd, &mut breaches),
            CommandKind::Precharge => self.observe_precharge(now, cmd, &mut breaches),
            k if k.is_cas() => self.observe_cas(now, cmd, &mut breaches),
            _ => self.observe_refresh(now, cmd, &mut breaches),
        }
        if let Some(binding) =
            breaches
                .into_iter()
                .reduce(|a, b| if b.earliest > a.earliest { b } else { a })
        {
            self.record(now, cmd, binding);
        }
    }

    fn record(&mut self, now: Cycle, cmd: Command, b: Breach) {
        self.violations_total += 1;
        if self.violations.len() < MAX_RECORDED {
            let detail = if b.earliest == Cycle::MAX {
                "illegal in the bank's current row-buffer state".to_string()
            } else {
                format!(
                    "issued {} cycle(s) before the {} constraint allows",
                    b.earliest - now,
                    b.rule
                )
            };
            self.violations.push(AuditViolation {
                at: now,
                kind: cmd.kind,
                bank: cmd.bank,
                row: cmd.row,
                column: cmd.column,
                rule: b.rule,
                earliest_legal: b.earliest,
                detail,
            });
        }
    }

    fn check_refresh_blackout(rank: &ShadowRank, now: Cycle, breaches: &mut Vec<Breach>) {
        if now < rank.refresh_until {
            breaches.push(Breach {
                rule: AuditRule::TRfc,
                earliest: rank.refresh_until,
            });
        }
    }

    fn observe_activate(&mut self, now: Cycle, cmd: Command, breaches: &mut Vec<Breach>) {
        let flat = self.flat(cmd.bank);
        let bg = cmd.bank.bank_group as usize;
        let t = self.t;
        self.banks[flat].settle(now, t.t_rp);
        let rank = &self.ranks[cmd.bank.rank as usize];
        Self::check_refresh_blackout(rank, now, breaches);
        // tRRD_S / tRRD_L / tFAW (rank scope).
        if let Some(last) = rank.last_act_any {
            if now < last + t.t_rrd_s {
                breaches.push(Breach {
                    rule: AuditRule::TRrdS,
                    earliest: last + t.t_rrd_s,
                });
            }
        }
        if let Some(last) = rank.last_act_bg[bg] {
            if now < last + t.t_rrd_l {
                breaches.push(Breach {
                    rule: AuditRule::TRrdL,
                    earliest: last + t.t_rrd_l,
                });
            }
        }
        if rank.faw_window.len() == 4 {
            let oldest = rank.faw_window[0];
            if now < oldest + t.t_faw {
                breaches.push(Breach {
                    rule: AuditRule::TFaw,
                    earliest: oldest + t.t_faw,
                });
            }
        }
        // Bank scope: row buffer must be precharged, tRP elapsed, tRC
        // elapsed since the previous ACT.
        let bank = &self.banks[flat];
        if bank.open_row.is_some() || bank.auto_pre_at.is_some() {
            breaches.push(Breach {
                rule: AuditRule::RowState,
                earliest: Cycle::MAX,
            });
        }
        if now < bank.pre_done_at {
            breaches.push(Breach {
                rule: AuditRule::TRp,
                earliest: bank.pre_done_at,
            });
        }
        if bank.ever_activated && now < bank.act_at + t.t_rc {
            breaches.push(Breach {
                rule: AuditRule::TRc,
                earliest: bank.act_at + t.t_rc,
            });
        }
        // Update shadow state.
        let rank = &mut self.ranks[cmd.bank.rank as usize];
        rank.last_act_any = Some(now);
        rank.last_act_bg[bg] = Some(now);
        if rank.faw_window.len() == 4 {
            rank.faw_window.remove(0);
        }
        rank.faw_window.push(now);
        let bank = &mut self.banks[flat];
        bank.open_row = Some(cmd.row);
        bank.act_at = now;
        bank.ever_activated = true;
        bank.ras_until = now + t.t_ras;
        bank.auto_pre_at = None;
    }

    fn observe_precharge(&mut self, now: Cycle, cmd: Command, breaches: &mut Vec<Breach>) {
        let flat = self.flat(cmd.bank);
        let t = self.t;
        self.banks[flat].settle(now, t.t_rp);
        Self::check_refresh_blackout(&self.ranks[cmd.bank.rank as usize], now, breaches);
        let bank = &self.banks[flat];
        if bank.open_row.is_none() {
            // Precharging a precharged bank is a controller bookkeeping
            // bug in this model (the scheduler only PREs to open a
            // different row).
            breaches.push(Breach {
                rule: AuditRule::RowState,
                earliest: Cycle::MAX,
            });
        }
        let (allowed, rule) = bank.pre_allowed();
        if now < allowed {
            breaches.push(Breach {
                rule,
                earliest: allowed,
            });
        }
        let bank = &mut self.banks[flat];
        bank.open_row = None;
        bank.auto_pre_at = None;
        bank.pre_done_at = now + t.t_rp;
    }

    fn observe_cas(&mut self, now: Cycle, cmd: Command, breaches: &mut Vec<Breach>) {
        let flat = self.flat(cmd.bank);
        let bg = cmd.bank.bank_group as usize;
        let t = self.t;
        let is_write = cmd.kind.is_write();
        self.banks[flat].settle(now, t.t_rp);
        let rank = &self.ranks[cmd.bank.rank as usize];
        Self::check_refresh_blackout(rank, now, breaches);
        // CAS-to-CAS spacing (rank scope).
        if let Some(last) = rank.last_cas_any {
            if now < last + t.t_ccd_s {
                breaches.push(Breach {
                    rule: AuditRule::TCcdS,
                    earliest: last + t.t_ccd_s,
                });
            }
        }
        if let Some(last) = rank.last_cas_bg[bg] {
            if now < last + t.t_ccd_l {
                breaches.push(Breach {
                    rule: AuditRule::TCcdL,
                    earliest: last + t.t_ccd_l,
                });
            }
        }
        // Write-to-read turnaround: tWTR runs from the end of the write
        // burst (write CAS + CWL + burst).
        if !is_write {
            if let Some(wr) = rank.last_write_cas_any {
                let legal = wr + t.cwl + t.burst + t.t_wtr_s;
                if now < legal {
                    breaches.push(Breach {
                        rule: AuditRule::TWtrS,
                        earliest: legal,
                    });
                }
            }
            if let Some(wr) = rank.last_write_cas_bg[bg] {
                let legal = wr + t.cwl + t.burst + t.t_wtr_l;
                if now < legal {
                    breaches.push(Breach {
                        rule: AuditRule::TWtrL,
                        earliest: legal,
                    });
                }
            }
        }
        // Bank scope: a row must be open and tRCD elapsed.
        let bank = &self.banks[flat];
        if bank.open_row.is_none() {
            breaches.push(Breach {
                rule: AuditRule::RowState,
                earliest: Cycle::MAX,
            });
        } else if now < bank.act_at + t.t_rcd {
            breaches.push(Breach {
                rule: AuditRule::TRcd,
                earliest: bank.act_at + t.t_rcd,
            });
        }
        // Shared data bus: bursts must not overlap, and a write burst
        // must leave the turnaround bubble after a read burst.
        let burst_start = now + if is_write { t.cwl } else { t.cl };
        let burst_end = burst_start + t.burst;
        if burst_start < self.bus_free_at {
            breaches.push(Breach {
                rule: AuditRule::BusOverlap,
                // Legal once the CAS is late enough for its burst to
                // start at the bus free cycle.
                earliest: now + (self.bus_free_at - burst_start),
            });
        }
        if is_write && self.last_read_burst_end > 0 {
            let legal_start = self.last_read_burst_end + t.rtw_gap;
            if burst_start < legal_start {
                breaches.push(Breach {
                    rule: AuditRule::ReadToWrite,
                    earliest: now + (legal_start - burst_start),
                });
            }
        }
        // Update shadow state.
        let rank = &mut self.ranks[cmd.bank.rank as usize];
        rank.last_cas_any = Some(now);
        rank.last_cas_bg[bg] = Some(now);
        if is_write {
            rank.last_write_cas_any = Some(now);
            rank.last_write_cas_bg[bg] = Some(now);
        }
        if burst_end > self.bus_free_at {
            self.bus_free_at = burst_end;
        }
        if !is_write && burst_end > self.last_read_burst_end {
            self.last_read_burst_end = burst_end;
        }
        let bank = &mut self.banks[flat];
        if is_write {
            let recovered = burst_end + t.t_wr;
            if recovered > bank.wr_until {
                bank.wr_until = recovered;
            }
        } else {
            let recovered = now + t.t_rtp;
            if recovered > bank.rtp_until {
                bank.rtp_until = recovered;
            }
        }
        if cmd.kind.auto_precharges() {
            let (allowed, _) = bank.pre_allowed();
            bank.auto_pre_at = Some(allowed);
        }
    }

    fn observe_refresh(&mut self, now: Cycle, cmd: Command, breaches: &mut Vec<Breach>) {
        let t = self.t;
        let r = cmd.bank.rank as usize;
        // Settle pending auto-precharges so bank idleness is current.
        let base = r * self.bank_groups * self.banks_per_group;
        let per_rank = self.bank_groups * self.banks_per_group;
        for bank in &mut self.banks[base..base + per_rank] {
            bank.settle(now, t.t_rp);
        }
        let rank = &self.ranks[r];
        Self::check_refresh_blackout(rank, now, breaches);
        // Cadence: REF number n (1-based) belongs near n*tREFI; JEDEC
        // allows postponing or pulling in by up to eight intervals.
        let n = rank.refreshes_done + 1;
        let due = n * t.t_refi;
        if now + REFI_SLACK * t.t_refi < due {
            breaches.push(Breach {
                rule: AuditRule::TRefi,
                earliest: due - REFI_SLACK * t.t_refi,
            });
        }
        if now > due + REFI_SLACK * t.t_refi {
            // Too late: there is no future legal cycle for a refresh that
            // already starved, so the earliest-legal is the deadline.
            breaches.push(Breach {
                rule: AuditRule::TRefi,
                earliest: due + REFI_SLACK * t.t_refi,
            });
        }
        // Every bank of the rank must be idle.
        if self.banks[base..base + per_rank]
            .iter()
            .any(|b| !b.idle_for_refresh(now))
        {
            breaches.push(Breach {
                rule: AuditRule::RowState,
                earliest: Cycle::MAX,
            });
        }
        let rank = &mut self.ranks[r];
        rank.refreshes_done += 1;
        rank.refresh_until = now + t.t_rfc;
        for bank in &mut self.banks[base..base + per_rank] {
            bank.open_row = None;
            bank.auto_pre_at = None;
            if now + t.t_rfc > bank.pre_done_at {
                bank.pre_done_at = now + t.t_rfc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auditor() -> ProtocolAuditor {
        ProtocolAuditor::new(&DeviceConfig::ddr4_2400())
    }

    fn b(g: u32, k: u32) -> BankAddr {
        BankAddr::new(0, g, k)
    }

    #[test]
    fn legal_read_sequence_is_clean() {
        let mut a = auditor();
        // ACT, wait tRCD, RD, wait tRTP-compatible PRE, wait tRP, ACT.
        a.observe(100, Command::activate(b(0, 0), 5));
        a.observe(117, Command::read(b(0, 0), 3)); // tRCD = 17
        a.observe(139, Command::precharge(b(0, 0))); // tRAS = 39 binds
        a.observe(156, Command::activate(b(0, 0), 6)); // tRP = 17, tRC = 56
        a.observe(173, Command::read(b(0, 0), 4));
        assert!(a.is_clean(), "{:?}", a.first_violation());
        assert_eq!(a.commands_observed(), 5);
    }

    #[test]
    fn early_cas_breaks_trcd() {
        let mut a = auditor();
        a.observe(100, Command::activate(b(0, 0), 5));
        a.observe(116, Command::read(b(0, 0), 3)); // one early
        let v = a.first_violation().expect("violation");
        assert_eq!(v.rule, AuditRule::TRcd);
        assert_eq!(v.earliest_legal, 117);
        assert_eq!(v.at, 116);
    }

    #[test]
    fn early_precharge_breaks_tras() {
        let mut a = auditor();
        a.observe(100, Command::activate(b(0, 0), 5));
        a.observe(117, Command::read(b(0, 0), 3));
        a.observe(137, Command::precharge(b(0, 0))); // tRAS ends at 139
        let v = a.first_violation().expect("violation");
        assert_eq!(v.rule, AuditRule::TRas);
        assert_eq!(v.earliest_legal, 139);
    }

    #[test]
    fn fifth_act_in_window_breaks_tfaw() {
        let mut a = auditor();
        // tRRD_S = 4, tFAW = 26: four ACTs at 0,4,8,12 are legal, a fifth
        // at 16 violates tFAW (earliest 0 + 26 = 26).
        for (i, at) in [0u64, 4, 8, 12].into_iter().enumerate() {
            a.observe(at, Command::activate(b((i % 4) as u32, (i / 4) as u32), 1));
        }
        assert!(a.is_clean());
        a.observe(16, Command::activate(b(0, 1), 1));
        let v = a.first_violation().expect("violation");
        assert_eq!(v.rule, AuditRule::TFaw);
        assert_eq!(v.earliest_legal, 26);
    }

    #[test]
    fn write_then_early_read_breaks_twtr() {
        let mut a = auditor();
        a.observe(0, Command::activate(b(0, 0), 1));
        a.observe(17, Command::write(b(0, 0), 0));
        // Write burst ends 17 + 12 + 4 = 33; same-bg read legal at 33 +
        // tWTR_L(9) = 42.
        a.observe(38, Command::read(b(0, 0), 1));
        let v = a.first_violation().expect("violation");
        assert_eq!(v.rule, AuditRule::TWtrL);
        assert_eq!(v.earliest_legal, 42);
    }

    #[test]
    fn refresh_with_open_row_is_flagged() {
        let mut a = auditor();
        a.observe(0, Command::activate(b(0, 0), 1));
        a.observe(9360, Command::refresh(0));
        let v = a.first_violation().expect("violation");
        assert_eq!(v.rule, AuditRule::RowState);
    }

    #[test]
    fn command_during_refresh_breaks_trfc() {
        let mut a = auditor();
        a.observe(9360, Command::refresh(0));
        a.observe(9400, Command::activate(b(0, 0), 1)); // tRFC = 420
        let v = a.first_violation().expect("violation");
        assert_eq!(v.rule, AuditRule::TRfc);
        assert_eq!(v.earliest_legal, 9360 + 420);
    }

    #[test]
    fn auto_precharge_closes_the_row_in_the_shadow() {
        let mut a = auditor();
        a.observe(0, Command::activate(b(0, 0), 1));
        a.observe(17, Command::read_ap(b(0, 0), 0));
        // Auto-pre starts at tRAS end (39, since 17 + tRTP = 26 < 39) and
        // finishes at 39 + 17 = 56; tRC also ends at 56.
        a.observe(56, Command::activate(b(0, 0), 2));
        assert!(a.is_clean(), "{:?}", a.first_violation());
        // A CAS one cycle into the new row-open is still tRCD-bound.
        a.observe(57, Command::read(b(0, 0), 0));
        let v = a.first_violation().expect("violation");
        assert_eq!(v.rule, AuditRule::TRcd);
    }

    #[test]
    fn binding_rule_is_the_latest_earliest_legal() {
        let mut a = auditor();
        a.observe(0, Command::activate(b(0, 0), 1));
        // PRE at 10 violates tRAS (legal 39); ACT straight after at 11
        // violates both tRP (legal 27) and tRC (legal 56) — tRC binds.
        a.observe(10, Command::precharge(b(0, 0)));
        a.observe(11, Command::activate(b(0, 0), 2));
        assert_eq!(a.violations_total(), 2);
        let v = &a.violations()[1];
        assert_eq!(v.rule, AuditRule::TRc);
        assert_eq!(v.earliest_legal, 56);
    }

    #[test]
    fn bookkeeping_survives_a_violation() {
        let mut a = auditor();
        a.observe(0, Command::activate(b(0, 0), 1));
        a.observe(5, Command::read(b(0, 0), 0)); // early (tRCD)
        assert_eq!(a.violations_total(), 1);
        // Subsequent legal traffic stays clean.
        a.observe(17, Command::read(b(0, 0), 1));
        assert_eq!(a.violations_total(), 1);
    }
}
