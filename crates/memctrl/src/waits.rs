//! Latency attribution by running totals.
//!
//! Every cycle a read waits in the queue is charged to exactly one
//! component — write drain, refresh, a PRE/ACT the read caused, or plain
//! queueing — and which one is a property of the cycle (and, for PRE/ACT,
//! of the read's bank), not of the read. So the controller counts cycles
//! of each kind in [`WaitTotals`] and a queued read remembers, in a
//! [`WaitBase`], what the totals read when it started waiting; its four
//! counters are the differences, taken when somebody needs them
//! ([`WaitTotals::settle`]).

use dramstack_dram::Cycle;

use crate::queue::{bits, MAX_BANKS};
use crate::request::QueueEntry;

/// Cycles of each attribution kind since construction or the last restore.
#[derive(Debug, Clone)]
pub(crate) struct WaitTotals {
    /// Cycles in write-drain mode.
    drain: Cycle,
    /// Other cycles with a refresh in progress or being drained for.
    refresh: Cycle,
    /// All remaining ("normal") cycles.
    normal: Cycle,
    /// Per flat bank, the normal cycles in which it was precharging or
    /// activating.
    bank: [Cycle; MAX_BANKS],
}

/// The totals a queued read's counters are measured from: `drain`,
/// `refresh` and `normal` as they read when its arrival was stamped,
/// `bank` (its own bank's total) when its first PRE or ACT issued.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WaitBase {
    drain: Cycle,
    refresh: Cycle,
    normal: Cycle,
    bank: Cycle,
}

impl WaitTotals {
    /// Zero totals, which zero baselines are measured from without owing
    /// anything: the state after construction and after a restore.
    pub(crate) fn new() -> Self {
        WaitTotals {
            drain: 0,
            refresh: 0,
            normal: 0,
            bank: [0; MAX_BANKS],
        }
    }

    /// Accounts `n` identical cycles: in drain mode, else refreshing, else
    /// normal with the banks of `transitioning` precharging or activating.
    pub(crate) fn add(&mut self, n: u64, drain: bool, refreshing: bool, transitioning: u64) {
        if drain {
            self.drain += n;
        } else if refreshing {
            self.refresh += n;
        } else {
            self.normal += n;
            for flat in bits(transitioning) {
                self.bank[flat] += n;
            }
        }
    }

    /// The baseline of a read whose arrival is stamped now.
    pub(crate) fn arrival_base(&self) -> WaitBase {
        WaitBase {
            drain: self.drain,
            refresh: self.refresh,
            normal: self.normal,
            bank: 0,
        }
    }

    /// Notes that a PRE or ACT is about to be marked on `e` (bank `flat`):
    /// from the first one on, cycles its bank spends transitioning are the
    /// read's own `preact` and no longer queueing.
    pub(crate) fn note_cause(&self, e: &QueueEntry, base: &mut WaitBase, flat: usize) {
        if !(e.caused_pre || e.caused_act) {
            base.bank = self.bank[flat];
        }
    }

    /// Adds to `e`'s four counters what accrued since `base` was taken.
    pub(crate) fn settle(&self, e: &mut QueueEntry, base: WaitBase, flat: usize) {
        let preact = if e.caused_pre || e.caused_act {
            self.bank[flat] - base.bank
        } else {
            0
        };
        e.writeburst_wait += self.drain - base.drain;
        e.refresh_wait += self.refresh - base.refresh;
        e.preact_wait += preact;
        e.queue_wait += self.normal - base.normal - preact;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use dramstack_dram::{BankAddr, DramAddress};

    #[test]
    fn counters_are_differences_of_the_totals() {
        let mut t = WaitTotals::new();
        t.add(7, false, false, 1 << 3); // before the read arrives
        let addr = DramAddress::new(BankAddr::new(0, 0, 3), 1, 0);
        let mut e = QueueEntry::new(RequestId(0), 0, 0, addr, 7);
        let mut base = t.arrival_base();

        t.add(2, false, false, 1 << 3); // bank 3 busy for somebody else
        t.add(3, true, true, 0); // drain wins over refresh
        t.add(4, false, true, 1 << 3);
        t.note_cause(&e, &mut base, 3);
        e.caused_pre = true;
        t.add(5, false, false, 1 << 3 | 1 << 9);
        t.note_cause(&e, &mut base, 3); // the ACT after the PRE: no new baseline
        e.caused_act = true;
        t.add(6, false, false, 1 << 9); // own bank settled: queueing

        // What a restored entry carries is added to, not replaced.
        e.queue_wait = 100;
        t.settle(&mut e, base, 3);
        assert_eq!(
            (
                e.writeburst_wait,
                e.refresh_wait,
                e.preact_wait,
                e.queue_wait
            ),
            (3, 4, 5, 100 + 2 + 6)
        );
    }
}
