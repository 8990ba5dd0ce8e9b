//! Tick-local memo of the device's `earliest_*` answers.
//!
//! Within one controller tick the scheduling passes, the `CycleView`
//! analysis and the stall horizon keep asking the same questions: when may
//! this bank's CAS / PRE / ACT issue, and what holds it? The answer
//! depends on the bank and the command only, so [`TimingTable`] keeps one
//! slot per flat bank and [`Class`]. The controller clears it after
//! `DramDevice::advance`; an issued command drops just the answers it can
//! have moved; and what a tick that issued nothing leaves behind is still
//! right when its view and stall horizon ask.

use std::cell::Cell;
use std::ops::Range;

use dramstack_dram::{BankAddr, BlockLevel, BlockReason, CommandKind, Cycle, DramDevice, Earliest};

use crate::queue::MAX_BANKS;

/// The command a queued request waits on: its CAS when it hits the open
/// row, else the PRE of an open bank or the ACT of a closed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    Read,
    Write,
    Pre,
    Act,
}

impl Class {
    /// The CAS of the read or the write queue.
    pub(crate) fn cas(writes: bool) -> Class {
        if writes {
            Class::Write
        } else {
            Class::Read
        }
    }

    /// What the other entries of bank `flat` wait on.
    pub(crate) fn miss(device: &DramDevice, flat: usize) -> Class {
        match device.open_row(flat) {
            Some(_) => Class::Pre,
            None => Class::Act,
        }
    }

    /// Asks the device (no memo: this is also what the oracles call).
    pub(crate) fn ask(self, device: &DramDevice, bank: BankAddr, now: Cycle) -> Earliest {
        match self {
            Class::Read => device.earliest_read(bank, now),
            Class::Write => device.earliest_write(bank, now),
            Class::Pre => device.earliest_precharge(bank, now),
            Class::Act => device.earliest_activate(bank, now),
        }
    }
}

/// One answer slot per class and flat bank, a validity mask per class,
/// and per class the ranks in which an answer named a rank-level block.
/// `Cell`s because the query passes take `&self`.
#[derive(Debug)]
pub(crate) struct TimingTable {
    slots: [[Cell<Earliest>; MAX_BANKS]; 4],
    valid: [Cell<u64>; 4],
    rank_blocked: [Cell<u64>; 4],
}

impl TimingTable {
    pub(crate) fn new() -> Self {
        let unset = Earliest {
            at: 0,
            reason: BlockReason::None,
        };
        TimingTable {
            slots: std::array::from_fn(|_| std::array::from_fn(|_| Cell::new(unset))),
            valid: Default::default(),
            rank_blocked: Default::default(),
        }
    }

    /// The answer recorded this tick, if any.
    pub(crate) fn get(&self, class: Class, flat: usize) -> Option<Earliest> {
        (self.valid[class as usize].get() >> flat & 1 == 1)
            .then(|| self.slots[class as usize][flat].get())
    }

    /// Records the device's answer `e` at `now` for `bank` (flat `flat`).
    pub(crate) fn put(&self, class: Class, flat: usize, bank: BankAddr, e: Earliest, now: Cycle) {
        let c = class as usize;
        self.slots[c][flat].set(e);
        self.valid[c].set(self.valid[c].get() | 1 << flat);
        if !e.ready(now) && e.reason.level() == BlockLevel::Rank {
            self.rank_blocked[c].set(self.rank_blocked[c].get() | 1 << bank.rank);
        }
    }

    /// Whether an answer of this tick showed the class blocked at rank
    /// level in `rank`. A rank-level constraint (tRRD_S, tFAW, tCCD_S,
    /// tWTR_S, bus, refresh) binds every command of its class in the
    /// rank, so none of them can be ready.
    pub(crate) fn rank_blocked(&self, class: Class, rank: u32) -> bool {
        self.rank_blocked[class as usize].get() >> rank & 1 == 1
    }

    pub(crate) fn clear(&self) {
        for v in self.valid.iter().chain(&self.rank_blocked) {
            v.set(0);
        }
    }

    /// Drops the answers a command of `kind` on bank `flat` (whose rank
    /// spans the flat banks `rank`) can have moved. Every chain reads its
    /// own bank; beyond that an ACT reads the rank's tRRD/tFAW windows,
    /// which only ACTs move, a CAS reads the tCCD/tWTR windows and the
    /// bus, which only CASes move, and a PRE reads nothing shared.
    pub(crate) fn command_issued(&self, kind: CommandKind, flat: usize, rank: Range<usize>) {
        // No scheduling pass follows a command within its tick.
        self.rank_blocked.iter().for_each(|r| r.set(0));
        let drop = |class: Class, banks: u64| {
            let valid = &self.valid[class as usize];
            valid.set(valid.get() & !banks);
        };
        match kind {
            CommandKind::Refresh => return self.clear(),
            CommandKind::Activate => drop(Class::Act, u64::MAX >> (64 - rank.len()) << rank.start),
            CommandKind::Precharge => {}
            _ => {
                drop(Class::Read, u64::MAX);
                drop(Class::Write, u64::MAX);
            }
        }
        for class in [Class::Read, Class::Write, Class::Pre, Class::Act] {
            drop(class, 1 << flat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocked(at: Cycle, reason: BlockReason) -> Earliest {
        Earliest { at, reason }
    }

    #[test]
    fn commands_drop_only_what_they_can_move() {
        let t = TimingTable::new();
        let fill = || {
            t.clear();
            for class in [Class::Read, Class::Write, Class::Pre, Class::Act] {
                for flat in 0..32 {
                    let bank = BankAddr::new(flat as u32 / 16, 0, 0);
                    t.put(class, flat, bank, blocked(9, BlockReason::RowCycle), 5);
                }
            }
        };
        let kept = |class| (0..32).filter(|&f| t.get(class, f).is_some()).count();

        fill();
        t.command_issued(CommandKind::Precharge, 3, 0..16);
        assert_eq!(
            [kept(Class::Read), kept(Class::Pre), kept(Class::Act)],
            [31; 3]
        );

        fill();
        t.command_issued(CommandKind::Activate, 19, 16..32);
        assert_eq!((kept(Class::Act), kept(Class::Pre)), (16, 31));
        assert!(t.get(Class::Act, 15).is_some() && t.get(Class::Act, 16).is_none());

        fill();
        t.command_issued(CommandKind::ReadAp, 3, 0..16);
        assert_eq!((kept(Class::Read), kept(Class::Write)), (0, 0));
        assert_eq!((kept(Class::Pre), kept(Class::Act)), (31, 31));

        fill();
        t.command_issued(CommandKind::Refresh, 0, 0..16);
        assert_eq!(kept(Class::Pre) + kept(Class::Act) + kept(Class::Read), 0);
    }

    #[test]
    fn rank_level_answers_block_their_rank_only() {
        let t = TimingTable::new();
        let bank = BankAddr::new(1, 2, 0);
        t.put(Class::Act, 24, bank, blocked(9, BlockReason::Faw), 5);
        assert!(t.rank_blocked(Class::Act, 1));
        assert!(!t.rank_blocked(Class::Act, 0) && !t.rank_blocked(Class::Pre, 1));
        // Ready answers and bank-level blocks say nothing about the rank.
        t.clear();
        t.put(Class::Act, 24, bank, blocked(5, BlockReason::None), 5);
        t.put(Class::Act, 25, bank, blocked(9, BlockReason::RowCycle), 5);
        assert!(!t.rank_blocked(Class::Act, 1));
    }
}
