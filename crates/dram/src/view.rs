//! Observation types consumed by the stack accounting.
//!
//! The bandwidth-stack accountant of `dramstack-core` classifies every DRAM
//! cycle from a [`CycleView`]: what the data bus is doing, whether the rank
//! is refreshing, what each bank is doing, and — when nothing is happening —
//! why the oldest pending request could not issue.

use serde::{Deserialize, Serialize};

use crate::bus::BurstKind;

/// Why a command could not issue at a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockReason {
    /// Nothing blocks the command.
    None,
    /// Target bank is precharging (tRP window).
    PrechargePending,
    /// Target bank is activating (tRCD window).
    ActivatePending,
    /// No row open in the target bank; an ACT is needed first.
    RowClosed,
    /// A different row is open; a PRE is needed first.
    RowConflict,
    /// CAS-to-CAS spacing within the bank group (tCCD_L).
    CcdLong,
    /// CAS-to-CAS spacing across bank groups (tCCD_S).
    CcdShort,
    /// Write-to-read turnaround within the bank group (tWTR_L).
    WtrLong,
    /// Write-to-read turnaround across bank groups (tWTR_S).
    WtrShort,
    /// Read-to-write bus turnaround bubble.
    ReadToWrite,
    /// The data bus has no free slot for the burst.
    BusBusy,
    /// Four-activate window (tFAW).
    Faw,
    /// ACT-to-ACT spacing within the bank group (tRRD_L).
    RrdLong,
    /// ACT-to-ACT spacing across bank groups (tRRD_S).
    RrdShort,
    /// Row-cycle time on the bank (tRC).
    RowCycle,
    /// Minimum row-open time before PRE (tRAS) or read/write-to-PRE windows.
    PrechargeWindow,
    /// The rank is refreshing.
    Refresh,
}

/// Scope of a blocking constraint — decides whether the constraints
/// component is charged to one bank group's banks or to the whole rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockLevel {
    /// Nothing is blocked.
    None,
    /// Constraint scoped to one bank (tRC, tRAS, tRP, tRCD, row state).
    Bank,
    /// Constraint scoped to one bank group (tCCD_L, tWTR_L, tRRD_L).
    BankGroup,
    /// Constraint scoped to the rank or channel (tCCD_S, tWTR_S, tFAW,
    /// tRRD_S, bus turnaround, bus occupancy, refresh).
    Rank,
}

impl BlockReason {
    /// The scope of this constraint.
    pub fn level(self) -> BlockLevel {
        use BlockReason::*;
        match self {
            None => BlockLevel::None,
            PrechargePending | ActivatePending | RowClosed | RowConflict | RowCycle
            | PrechargeWindow => BlockLevel::Bank,
            CcdLong | WtrLong | RrdLong => BlockLevel::BankGroup,
            CcdShort | WtrShort | ReadToWrite | BusBusy | Faw | RrdShort | Refresh => {
                BlockLevel::Rank
            }
        }
    }
}

impl std::fmt::Display for BlockReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BlockReason::None => "none",
            BlockReason::PrechargePending => "tRP",
            BlockReason::ActivatePending => "tRCD",
            BlockReason::RowClosed => "row closed",
            BlockReason::RowConflict => "row conflict",
            BlockReason::CcdLong => "tCCD_L",
            BlockReason::CcdShort => "tCCD_S",
            BlockReason::WtrLong => "tWTR_L",
            BlockReason::WtrShort => "tWTR_S",
            BlockReason::ReadToWrite => "read-to-write turnaround",
            BlockReason::BusBusy => "data bus busy",
            BlockReason::Faw => "tFAW",
            BlockReason::RrdLong => "tRRD_L",
            BlockReason::RrdShort => "tRRD_S",
            BlockReason::RowCycle => "tRC",
            BlockReason::PrechargeWindow => "tRAS/tRTP/tWR",
            BlockReason::Refresh => "refresh",
        };
        f.write_str(s)
    }
}

/// What one bank contributes to the per-bank split of a lost cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BankActivity {
    /// Executing a precharge (within tRP).
    Precharging,
    /// Executing an activate (within tRCD).
    Activating,
    /// Occupied by a constraint: CAS in flight (CL/CWL wait), or this bank
    /// sits in the bank group / rank resource that blocks an
    /// otherwise-ready pending request.
    Constrained,
    /// Idle while other banks are active — lost bank parallelism.
    Idle,
}

/// Everything the stack accounting needs to classify one DRAM cycle.
///
/// Built by the memory controller each cycle (or once per homogeneous span)
/// and handed to `dramstack_core::BandwidthAccountant`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleView {
    /// Data-bus activity this cycle (classified as useful read/write).
    pub bus: Option<BurstKind>,
    /// Whether the rank is inside a refresh (tRFC window).
    pub refreshing: bool,
    /// Per-bank activity, indexed by flat bank index.
    pub banks: Vec<BankActivity>,
    /// When *all* banks are idle: the constraint blocking the oldest
    /// pending request, if there is a pending request at all.
    pub rank_block: BlockReason,
    /// Whether any request (read or write) is pending in the controller or
    /// in flight in the device.
    pub has_pending: bool,
    /// Read-queue depth at the start of this cycle.
    pub read_q_depth: usize,
    /// Write-queue depth at the start of this cycle.
    pub write_q_depth: usize,
    /// Whether the controller is in write-drain mode this cycle.
    pub drain: bool,
    /// When a CAS issued this cycle: whether it hit the open row.
    pub cas_hit: Option<bool>,
}

impl CycleView {
    /// A view for an entirely idle channel with `banks` banks.
    pub fn idle(banks: usize) -> Self {
        CycleView {
            bus: None,
            refreshing: false,
            banks: vec![BankActivity::Idle; banks],
            rank_block: BlockReason::None,
            has_pending: false,
            read_q_depth: 0,
            write_q_depth: 0,
            drain: false,
            cas_hit: None,
        }
    }

    /// Resets the view in place for reuse (avoids reallocation in the
    /// per-cycle hot loop).
    pub fn reset(&mut self) {
        self.bus = None;
        self.refreshing = false;
        for b in &mut self.banks {
            *b = BankActivity::Idle;
        }
        self.rank_block = BlockReason::None;
        self.has_pending = false;
        self.read_q_depth = 0;
        self.write_q_depth = 0;
        self.drain = false;
        self.cas_hit = None;
    }

    /// Whether at least one bank is doing something.
    pub fn any_bank_active(&self) -> bool {
        self.banks.iter().any(|b| !matches!(b, BankActivity::Idle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_match_spec() {
        assert_eq!(BlockReason::CcdLong.level(), BlockLevel::BankGroup);
        assert_eq!(BlockReason::WtrLong.level(), BlockLevel::BankGroup);
        assert_eq!(BlockReason::RrdLong.level(), BlockLevel::BankGroup);
        assert_eq!(BlockReason::CcdShort.level(), BlockLevel::Rank);
        assert_eq!(BlockReason::Faw.level(), BlockLevel::Rank);
        assert_eq!(BlockReason::BusBusy.level(), BlockLevel::Rank);
        assert_eq!(BlockReason::Refresh.level(), BlockLevel::Rank);
        assert_eq!(BlockReason::RowConflict.level(), BlockLevel::Bank);
        assert_eq!(BlockReason::None.level(), BlockLevel::None);
    }

    #[test]
    fn idle_view_reports_no_activity() {
        let v = CycleView::idle(16);
        assert!(!v.any_bank_active());
        assert_eq!(v.banks.len(), 16);
        assert_eq!(v.rank_block, BlockReason::None);
    }

    #[test]
    fn reset_clears_everything() {
        let mut v = CycleView::idle(4);
        v.bus = Some(BurstKind::Read);
        v.refreshing = true;
        v.banks[2] = BankActivity::Activating;
        v.rank_block = BlockReason::Faw;
        v.has_pending = true;
        v.read_q_depth = 3;
        v.write_q_depth = 9;
        v.drain = true;
        v.cas_hit = Some(true);
        v.reset();
        assert_eq!(v, CycleView::idle(4));
    }

    #[test]
    fn display_reasons_nonempty() {
        for r in [
            BlockReason::None,
            BlockReason::CcdLong,
            BlockReason::Refresh,
            BlockReason::PrechargeWindow,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }
}
