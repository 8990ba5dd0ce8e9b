//! Persistent table of the device's `earliest_*` answers.
//!
//! The scheduling passes, the `CycleView` analysis and the stall horizon
//! keep asking the same questions: when may this bank's CAS / PRE / ACT
//! issue, and what holds it? Every constraint behind the answer is an
//! absolute cycle that only an issued command (or an auto-precharge the
//! device applies) moves, so the answer is a now-independent deadline and
//! [`TimingTable`] keeps it, one slot per flat bank and [`Class`], until
//! one of those events drops it: a read-out at `now` is `max(now, at)`.
//! The controller asks the device only for a slot that was dropped.

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

/// The device's answer with `now` taken out of it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Earliest legal issue cycle, or the cycle of the question when the
    /// command was already legal then.
    at: Cycle,
    /// What binds the command until `at`, with an ACT's
    /// `PrechargePending` stored as the `RowCycle` it is rewritten from.
    reason: BlockReason,
    /// ACT only: the bank's `pre_done_at`. `RowCycle` reads as
    /// `PrechargePending` while the bank is still precharging, which
    /// depends on the cycle of the read-out.
    pre_done_at: Cycle,
}

/// One deadline slot per class and flat bank, a validity mask per class,
/// and per class and rank the cycle until which an answer named a
/// rank-level block. `Cell`s because the query passes take `&self`.
#[derive(Debug)]
pub(crate) struct TimingTable {
    slots: [[Cell<Slot>; MAX_BANKS]; 4],
    valid: [Cell<u64>; 4],
    /// Indexed by rank (a rank has at least one bank). Monotone: every
    /// rank-level constraint is a maximum over windows that commands only
    /// push forward, so a block seen once holds until its cycle whatever
    /// issues in between.
    blocked_until: [[Cell<Cycle>; MAX_BANKS]; 4],
}

impl TimingTable {
    pub(crate) fn new() -> Self {
        let unset = Slot {
            at: 0,
            reason: BlockReason::None,
            pre_done_at: 0,
        };
        TimingTable {
            slots: std::array::from_fn(|_| std::array::from_fn(|_| Cell::new(unset))),
            valid: Default::default(),
            blocked_until: std::array::from_fn(|_| std::array::from_fn(|_| Cell::new(0))),
        }
    }

    /// What the device would answer at `now`, if the slot is held.
    pub(crate) fn get(&self, class: Class, flat: usize, now: Cycle) -> Option<Earliest> {
        if self.valid[class as usize].get() >> flat & 1 == 0 {
            return None;
        }
        let s = self.slots[class as usize][flat].get();
        let reason = if s.at <= now {
            BlockReason::None
        } else if s.reason == BlockReason::RowCycle && now < s.pre_done_at {
            BlockReason::PrechargePending
        } else {
            s.reason
        };
        Some(Earliest {
            at: s.at.max(now),
            reason,
        })
    }

    /// Records the device's answer `e` at `now` for flat bank `flat` of
    /// `rank`, whose precharge finishes at `pre_done_at`.
    pub(crate) fn put(
        &self,
        class: Class,
        flat: usize,
        rank: u32,
        e: Earliest,
        pre_done_at: Cycle,
        now: Cycle,
    ) {
        let c = class as usize;
        let reason = match e.reason {
            BlockReason::PrechargePending => BlockReason::RowCycle,
            other => other,
        };
        self.slots[c][flat].set(Slot {
            at: e.at,
            reason,
            pre_done_at,
        });
        self.valid[c].set(self.valid[c].get() | 1 << flat);
        if !e.ready(now) && reason.level() == BlockLevel::Rank {
            let until = &self.blocked_until[c][rank as usize];
            until.set(until.get().max(e.at));
        }
    }

    /// Whether an answer showed the class blocked at rank level in `rank`
    /// past `now`. A rank-level constraint (tRRD_S, tFAW, tCCD_S, tWTR_S,
    /// bus, refresh) binds every command of its class in the rank, so
    /// none of them can be ready.
    pub(crate) fn rank_blocked(&self, class: Class, rank: u32, now: Cycle) -> bool {
        now < self.blocked_until[class as usize][rank as usize].get()
    }

    /// Forgets everything: the device was restored or its enforced timing
    /// set replaced, the two events that can move a deadline backwards.
    pub(crate) fn clear(&self) {
        self.valid.iter().for_each(|v| v.set(0));
        for until in self.blocked_until.iter().flatten() {
            until.set(0);
        }
    }

    /// Drops every answer for bank `flat`: its open row or one of its own
    /// windows changed (a command on it, or an auto-precharge).
    pub(crate) fn bank_moved(&self, flat: usize) {
        for valid in &self.valid {
            valid.set(valid.get() & !(1 << flat));
        }
    }

    /// Drops the answers a command of `kind` on bank `flat` (whose rank
    /// spans the flat banks `rank`) can have moved. Every chain reads its
    /// own bank; beyond that an ACT reads the rank's tRRD/tFAW windows,
    /// which only ACTs move, a CAS reads the tCCD/tWTR windows and the
    /// bus, which only CASes move, and a PRE reads nothing shared.
    pub(crate) fn command_issued(&self, kind: CommandKind, flat: usize, rank: Range<usize>) {
        let drop = |class: Class, banks: u64| {
            let valid = &self.valid[class as usize];
            valid.set(valid.get() & !banks);
        };
        match kind {
            // Closes every bank of its rank and starts the tRFC shadow.
            CommandKind::Refresh => return self.valid.iter().for_each(|v| v.set(0)),
            CommandKind::Activate => drop(Class::Act, u64::MAX >> (64 - rank.len()) << rank.start),
            CommandKind::Precharge => {}
            _ => {
                drop(Class::Read, u64::MAX);
                drop(Class::Write, u64::MAX);
            }
        }
        self.bank_moved(flat);
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
                    let e = blocked(9, BlockReason::RowCycle);
                    t.put(class, flat, flat as u32 / 16, e, 0, 5);
                }
            }
        };
        let kept = |class| (0..32).filter(|&f| t.get(class, f, 5).is_some()).count();

        fill();
        t.command_issued(CommandKind::Precharge, 3, 0..16);
        assert_eq!(
            [kept(Class::Read), kept(Class::Pre), kept(Class::Act)],
            [31; 3]
        );

        fill();
        t.command_issued(CommandKind::Activate, 19, 16..32);
        assert_eq!((kept(Class::Act), kept(Class::Pre)), (16, 31));
        assert!(t.get(Class::Act, 15, 5).is_some() && t.get(Class::Act, 16, 5).is_none());

        fill();
        t.command_issued(CommandKind::ReadAp, 3, 0..16);
        assert_eq!((kept(Class::Read), kept(Class::Write)), (0, 0));
        assert_eq!((kept(Class::Pre), kept(Class::Act)), (31, 31));

        fill();
        t.command_issued(CommandKind::Refresh, 0, 0..16);
        assert_eq!(kept(Class::Pre) + kept(Class::Act) + kept(Class::Read), 0);

        fill();
        t.bank_moved(7);
        for class in [Class::Read, Class::Write, Class::Pre, Class::Act] {
            assert_eq!(kept(class), 31);
            assert!(t.get(class, 7, 5).is_none());
        }
    }

    #[test]
    fn a_slot_reads_out_as_the_device_would_answer_later() {
        let t = TimingTable::new();
        // Asked at 5: tRC holds the ACT until 20, the bank precharges
        // until 12, so the device said PrechargePending.
        let e = blocked(20, BlockReason::PrechargePending);
        t.put(Class::Act, 3, 0, e, 12, 5);
        assert_eq!(t.get(Class::Act, 3, 5), Some(e));
        assert_eq!(t.get(Class::Act, 3, 11), Some(e));
        let rc = blocked(20, BlockReason::RowCycle);
        assert_eq!(t.get(Class::Act, 3, 12), Some(rc));
        assert_eq!(t.get(Class::Act, 3, 19), Some(rc));
        for now in [20, 21, 500] {
            let ready = blocked(now, BlockReason::None);
            assert_eq!(t.get(Class::Act, 3, now), Some(ready));
        }
        // An answer that was ready when asked stays ready.
        t.put(Class::Pre, 3, 0, blocked(5, BlockReason::None), 0, 5);
        assert_eq!(t.get(Class::Pre, 3, 9), Some(blocked(9, BlockReason::None)));
        assert_eq!(t.get(Class::Read, 3, 9), None);
    }

    #[test]
    fn rank_level_answers_block_their_rank_until_their_cycle() {
        let t = TimingTable::new();
        t.put(Class::Act, 24, 1, blocked(9, BlockReason::Faw), 0, 5);
        assert!(t.rank_blocked(Class::Act, 1, 5) && t.rank_blocked(Class::Act, 1, 8));
        assert!(!t.rank_blocked(Class::Act, 1, 9));
        assert!(!t.rank_blocked(Class::Act, 0, 5) && !t.rank_blocked(Class::Pre, 1, 5));
        // Monotone: an earlier block does not shorten it, no command
        // resets it, and only `clear` forgets it.
        t.put(Class::Act, 25, 1, blocked(7, BlockReason::RrdShort), 0, 5);
        t.command_issued(CommandKind::Refresh, 16, 16..32);
        assert!(t.rank_blocked(Class::Act, 1, 8));
        t.clear();
        assert!(!t.rank_blocked(Class::Act, 1, 5));
        // Ready answers and bank-level blocks say nothing about the rank.
        t.put(Class::Act, 24, 1, blocked(5, BlockReason::None), 0, 5);
        t.put(Class::Act, 25, 1, blocked(9, BlockReason::RowCycle), 0, 5);
        assert!(!t.rank_blocked(Class::Act, 1, 5));
    }
}
