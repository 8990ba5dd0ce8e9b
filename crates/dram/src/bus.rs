//! The channel data bus: a schedule of data bursts.
//!
//! CAS commands reserve a burst slot `CL`/`CWL` cycles after issue. Because
//! the device only admits a CAS when its burst does not collide with already
//! scheduled ones, the schedule is an ordered list of disjoint intervals.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::Cycle;

/// Direction of a data burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BurstKind {
    /// Data flowing from DRAM to the controller.
    Read,
    /// Data flowing from the controller to DRAM.
    Write,
}

/// One scheduled occupancy of the data bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Burst {
    /// First cycle of the burst.
    pub start: Cycle,
    /// One past the last cycle of the burst.
    pub end: Cycle,
    /// Read or write.
    pub kind: BurstKind,
}

/// The data-bus schedule of one channel.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataBus {
    bursts: VecDeque<Burst>,
    /// End of the most recent read burst (for read→write turnaround).
    last_read_end: Cycle,
    /// End of the most recent write burst.
    last_write_end: Cycle,
    /// Totals for bandwidth bookkeeping.
    read_bursts: u64,
    write_bursts: u64,
}

impl DataBus {
    /// An empty bus schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// End of the last scheduled burst, or the later of the remembered
    /// read/write ends when the schedule is empty: the first cycle a new
    /// burst may start. Bursts are appended in issue order, so no earlier
    /// gap is ever free. The value is the same before and after
    /// [`retire_before`](Self::retire_before).
    pub fn backlog_end(&self) -> Cycle {
        match self.bursts.back() {
            Some(b) => b.end,
            None => self.last_read_end.max(self.last_write_end),
        }
    }

    /// Earliest burst edge (start or end) strictly after `now` — the next
    /// cycle at which [`activity_at`](Self::activity_at) can change, absent
    /// new reservations. `Cycle::MAX` when no scheduled burst has an edge
    /// past `now`.
    pub fn next_boundary_after(&self, now: Cycle) -> Cycle {
        // Bursts are ordered and disjoint, so the first edge found is the
        // minimum.
        for b in &self.bursts {
            if b.start > now {
                return b.start;
            }
            if b.end > now {
                return b.end;
            }
        }
        Cycle::MAX
    }

    /// End cycle of the most recent read burst scheduled so far.
    pub fn last_read_end(&self) -> Cycle {
        self.bursts
            .iter()
            .rev()
            .find(|b| b.kind == BurstKind::Read)
            .map(|b| b.end)
            .unwrap_or(self.last_read_end)
    }

    /// Reserves `[start, start + len)` for a burst.
    ///
    /// # Panics
    ///
    /// Debug-asserts the slot does not overlap an existing reservation and
    /// is not in the past relative to the last reservation. In release
    /// builds this invariant is instead enforced without panicking by the
    /// shadow auditor (`dramstack-audit`, `AuditRule::BusOverlap`), which
    /// re-derives burst occupancy from the observed command stream and
    /// reports any collision as a typed violation.
    pub fn reserve(&mut self, start: Cycle, len: Cycle, kind: BurstKind) {
        if let Some(last) = self.bursts.back() {
            debug_assert!(start >= last.end, "burst overlap: {start} < {}", last.end);
        }
        self.bursts.push_back(Burst {
            start,
            end: start + len,
            kind,
        });
        match kind {
            BurstKind::Read => self.read_bursts += 1,
            BurstKind::Write => self.write_bursts += 1,
        }
    }

    /// The burst occupying cycle `t`, if any.
    pub fn activity_at(&self, t: Cycle) -> Option<BurstKind> {
        self.bursts
            .iter()
            .take_while(|b| b.start <= t)
            .find(|b| t >= b.start && t < b.end)
            .map(|b| b.kind)
    }

    /// Drops bursts that ended at or before `t`, remembering the most recent
    /// read/write ends for turnaround queries.
    pub fn retire_before(&mut self, t: Cycle) {
        while let Some(front) = self.bursts.front() {
            if front.end <= t {
                match front.kind {
                    BurstKind::Read => self.last_read_end = self.last_read_end.max(front.end),
                    BurstKind::Write => self.last_write_end = self.last_write_end.max(front.end),
                }
                self.bursts.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of bursts still scheduled (in flight or future).
    pub fn pending(&self) -> usize {
        self.bursts.len()
    }

    /// `(read_bursts, write_bursts)` reserved so far, cumulative.
    pub fn totals(&self) -> (u64, u64) {
        (self.read_bursts, self.write_bursts)
    }

    /// Whether any scheduled burst is still pending at or after `t`
    /// (in-flight data the rank must finish before refreshing).
    pub fn busy_at_or_after(&self, t: Cycle) -> bool {
        self.bursts.back().is_some_and(|b| b.end > t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_are_ordered_and_queryable() {
        let mut bus = DataBus::new();
        bus.reserve(10, 4, BurstKind::Read);
        bus.reserve(14, 4, BurstKind::Write);
        assert_eq!(bus.activity_at(9), None);
        assert_eq!(bus.activity_at(10), Some(BurstKind::Read));
        assert_eq!(bus.activity_at(13), Some(BurstKind::Read));
        assert_eq!(bus.activity_at(14), Some(BurstKind::Write));
        assert_eq!(bus.activity_at(18), None);
        assert_eq!(bus.pending(), 2);
        assert_eq!(bus.totals(), (1, 1));
    }

    #[test]
    fn backlog_end_follows_last_burst() {
        let mut bus = DataBus::new();
        assert_eq!(bus.backlog_end(), 0);
        bus.reserve(5, 4, BurstKind::Read);
        assert_eq!(bus.backlog_end(), 9);
        bus.retire_before(20);
        assert_eq!(bus.backlog_end(), 9, "retiring keeps the backlog end");
    }

    #[test]
    fn retire_keeps_turnaround_state() {
        let mut bus = DataBus::new();
        bus.reserve(0, 4, BurstKind::Read);
        bus.reserve(8, 4, BurstKind::Write);
        bus.retire_before(20);
        assert_eq!(bus.pending(), 0);
        assert_eq!(bus.last_read_end(), 4);
        assert_eq!(bus.last_write_end, 12);
        assert!(!bus.busy_at_or_after(20));
    }

    #[test]
    fn busy_at_or_after_sees_future_bursts() {
        let mut bus = DataBus::new();
        bus.reserve(100, 4, BurstKind::Read);
        assert!(bus.busy_at_or_after(50));
        assert!(bus.busy_at_or_after(103));
        assert!(!bus.busy_at_or_after(104));
    }
}
