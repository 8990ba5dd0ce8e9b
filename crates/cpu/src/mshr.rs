//! The MSHR file: every line in flight between the caches and DRAM, in
//! fixed storage.
//!
//! A line is in flight from the access (or prefetch) that sends its read
//! until [`Hierarchy::complete_read`](crate::Hierarchy::complete_read).
//! Each core holds at most `l1_mshrs` demand lines and started at most
//! `prefetch_outstanding` prefetches, and every line in flight was started
//! by exactly one of the two, so `(l1_mshrs + prefetch_outstanding) ×
//! cores` slots are never exceeded. Lines are found through an
//! open-addressed index with a multiplicative hash (keys are simulated
//! addresses, not outside input). A slot lists its waiting cores, each at
//! most once, in arrival order: the order the completion fills their
//! caches in and therefore the order of the write-backs those fills
//! evict. Nothing here allocates after `new`.

use crate::hierarchy::PendingLine;

const NONE: u32 = u32::MAX;

/// A slot holding no line: real line addresses are line-aligned.
const FREE: Slot = Slot {
    line: u64::MAX,
    n_waiters: 0,
    prefetch_for: NONE,
    any_store: false,
};

#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    /// Cores waiting, the first `n_waiters` of the slot's row of
    /// [`MshrFile::waiters`] (none: a prefetch nobody asked for yet).
    n_waiters: u32,
    /// Core whose prefetcher started the line, `NONE` for a demand miss.
    prefetch_for: u32,
    /// Whether any waiter was a store (fill dirty).
    any_store: bool,
}

impl Slot {
    fn prefetch_for(&self) -> Option<usize> {
        (self.prefetch_for != NONE).then_some(self.prefetch_for as usize)
    }
}

#[derive(Debug)]
pub(crate) struct MshrFile {
    slots: Vec<Slot>,
    /// Free slot numbers (a stack).
    free_slots: Vec<u32>,
    /// One row of `cores` entries per slot.
    waiters: Vec<u32>,
    /// Open-addressed `line → slot` index, linear probing, `NONE` = empty;
    /// at most half full.
    index: Vec<u32>,
    index_shift: u32,
    /// Per core: demand lines it waits on, prefetches it started.
    demand: Vec<usize>,
    prefetch: Vec<usize>,
}

impl MshrFile {
    pub(crate) fn new(n_cores: usize, l1_mshrs: usize, prefetch_outstanding: usize) -> Self {
        let n_slots = (l1_mshrs + prefetch_outstanding) * n_cores;
        assert!(n_slots < NONE as usize, "MSHR file too large: {n_slots}");
        let index_len = (2 * n_slots).next_power_of_two().max(2);
        MshrFile {
            slots: vec![FREE; n_slots],
            free_slots: (0..n_slots as u32).rev().collect(),
            waiters: vec![0; n_slots * n_cores],
            index: vec![NONE; index_len],
            index_shift: 64 - index_len.trailing_zeros(),
            demand: vec![0; n_cores],
            prefetch: vec![0; n_cores],
        }
    }

    fn home(&self, line: u64) -> usize {
        // Fibonacci hashing spreads sequential lines over the table.
        ((line >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// Where `line` is in the index: `(position, slot)`.
    fn probe(&self, line: u64) -> Option<(usize, usize)> {
        let mut i = self.home(line);
        loop {
            match self.index[i] {
                NONE => return None,
                s if self.slots[s as usize].line == line => return Some((i, s as usize)),
                _ => i = (i + 1) & (self.index.len() - 1),
            }
        }
    }

    /// The slot holding `line`, if it is in flight.
    pub(crate) fn find(&self, line: u64) -> Option<usize> {
        self.probe(line).map(|(_, slot)| slot)
    }

    /// Whether no line is in flight.
    pub(crate) fn is_empty(&self) -> bool {
        self.free_slots.len() == self.slots.len()
    }

    /// Demand lines `core` waits on.
    pub(crate) fn demand(&self, core: usize) -> usize {
        self.demand[core]
    }

    /// Prefetches `core` started that are still in flight.
    pub(crate) fn prefetches(&self, core: usize) -> usize {
        self.prefetch[core]
    }

    /// The cores waiting on the line in `slot`, in arrival order.
    fn waiters(&self, slot: usize) -> &[u32] {
        let row = slot * self.demand.len();
        &self.waiters[row..row + self.slots[slot].n_waiters as usize]
    }

    /// Puts `line` (not in flight) in flight with no waiter; a prefetch
    /// counts against `prefetch_for`'s budget.
    ///
    /// # Panics
    ///
    /// Panics when every slot is taken, which the per-core limits the
    /// hierarchy enforces rule out.
    pub(crate) fn insert(&mut self, line: u64, prefetch_for: Option<usize>) -> usize {
        debug_assert!(self.find(line).is_none());
        let s = self.free_slots.pop().expect("MSHR file full");
        self.slots[s as usize] = Slot {
            line,
            prefetch_for: prefetch_for.map_or(NONE, |c| c as u32),
            ..FREE
        };
        if let Some(core) = prefetch_for {
            self.prefetch[core] += 1;
        }
        let mut i = self.home(line);
        while self.index[i] != NONE {
            i = (i + 1) & (self.index.len() - 1);
        }
        self.index[i] = s;
        s as usize
    }

    /// Whether `core` already waits on the line in `slot`.
    pub(crate) fn waits(&self, slot: usize, core: usize) -> bool {
        self.waiters(slot).contains(&(core as u32))
    }

    /// Appends `core` (not yet waiting on it) to the waiters of `slot`.
    pub(crate) fn add_waiter(&mut self, slot: usize, core: usize) {
        debug_assert!(!self.waits(slot, core));
        let at = slot * self.demand.len() + self.slots[slot].n_waiters as usize;
        self.waiters[at] = core as u32;
        self.slots[slot].n_waiters += 1;
        self.demand[core] += 1;
    }

    /// Records that a store waits on the line in `slot`.
    pub(crate) fn mark_store(&mut self, slot: usize) {
        self.slots[slot].any_store = true;
    }

    /// Takes `line` out of flight, writing its waiters to `waiters` in
    /// arrival order. Returns whether a store waited and whose prefetch it
    /// was; `None` if the line was not in flight.
    pub(crate) fn remove(
        &mut self,
        line: u64,
        waiters: &mut Vec<usize>,
    ) -> Option<(bool, Option<usize>)> {
        waiters.clear();
        let (mut i, s) = self.probe(line)?;
        // Backward-shift deletion: close the hole so probe chains stay
        // unbroken without tombstones.
        let mask = self.index.len() - 1;
        let mut next = (i + 1) & mask;
        while self.index[next] != NONE {
            let home = self.home(self.slots[self.index[next] as usize].line);
            // Move the entry back unless its home lies cyclically in (i, next].
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(i) & mask) {
                self.index[i] = self.index[next];
                i = next;
            }
            next = (next + 1) & mask;
        }
        self.index[i] = NONE;

        waiters.extend(self.waiters(s).iter().map(|&c| c as usize));
        for &core in waiters.iter() {
            self.demand[core] -= 1;
        }
        let slot = std::mem::replace(&mut self.slots[s], FREE);
        if let Some(core) = slot.prefetch_for() {
            self.prefetch[core] -= 1;
        }
        self.free_slots.push(s as u32);
        Some((slot.any_store, slot.prefetch_for()))
    }

    /// Every line in flight in the snapshot form, ascending by line.
    pub(crate) fn pending(&self) -> Vec<(u64, PendingLine)> {
        let live = (0..self.slots.len()).filter(|&s| self.slots[s].line != FREE.line);
        let mut out: Vec<(u64, PendingLine)> = live
            .map(|s| {
                let line = PendingLine {
                    waiters: self.waiters(s).iter().map(|&c| c as usize).collect(),
                    any_store: self.slots[s].any_store,
                    prefetch_for: self.slots[s].prefetch_for(),
                };
                (self.slots[s].line, line)
            })
            .collect();
        out.sort_unstable_by_key(|(line, _)| *line);
        out
    }

    /// Empties the file and refills it from the snapshot form.
    ///
    /// # Panics
    ///
    /// Panics if `pending` holds more lines than a hierarchy of this
    /// configuration can have in flight, or names a core out of range.
    pub(crate) fn restore(&mut self, pending: &[(u64, PendingLine)]) {
        assert!(
            pending.len() <= self.slots.len(),
            "hierarchy snapshot holds {} lines in flight, the MSHR file {}",
            pending.len(),
            self.slots.len()
        );
        self.slots.fill(FREE);
        self.free_slots.clear();
        self.free_slots.extend((0..self.slots.len() as u32).rev());
        self.index.fill(NONE);
        self.demand.fill(0);
        self.prefetch.fill(0);
        for (line, p) in pending {
            let slot = self.insert(*line, p.prefetch_for);
            for &core in &p.waiters {
                self.add_waiter(slot, core);
            }
            self.slots[slot].any_store = p.any_store;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_come_and_go_without_breaking_probe_chains() {
        // 2 cores x (2 + 1) slots: a small index, so chains collide.
        let mut f = MshrFile::new(2, 2, 1);
        let mut out = Vec::new();
        let lines: Vec<u64> = (0..6u64).map(|i| i * 0x1_0040).collect();
        for (i, &l) in lines.iter().enumerate() {
            let s = f.insert(l, i.checked_sub(4));
            if i < 4 {
                f.add_waiter(s, i % 2);
            }
        }
        assert_eq!((f.demand(0), f.demand(1)), (2, 2));
        assert_eq!((f.prefetches(0), f.prefetches(1)), (1, 1));
        // Remove in an order unrelated to insertion; the rest stay findable.
        let mut live = vec![true; lines.len()];
        for k in [3usize, 0, 5, 1, 4, 2] {
            let freed = f.remove(lines[k], &mut out).expect("in flight");
            live[k] = false;
            assert_eq!(freed.1, k.checked_sub(4));
            assert_eq!(out, if k < 4 { vec![k % 2] } else { vec![] });
            for (j, &l) in lines.iter().enumerate() {
                assert_eq!(f.find(l).is_some(), live[j], "line {j} after removing {k}");
            }
        }
        assert!(f.is_empty());
        assert!(f.remove(lines[0], &mut out).is_none());
    }

    #[test]
    fn waiters_keep_arrival_order_and_nodes_recycle() {
        let mut f = MshrFile::new(3, 1, 0);
        let mut out = Vec::new();
        for round in 0..4 {
            let s = f.insert(0x40 * (round + 1), None);
            for core in [2usize, 0, 1] {
                assert!(!f.waits(s, core));
                f.add_waiter(s, core);
                assert!(f.waits(s, core));
            }
            f.mark_store(s);
            let freed = f.remove(0x40 * (round + 1), &mut out).unwrap();
            assert!(freed.0, "a store waited");
            assert_eq!(out, vec![2, 0, 1]);
        }
    }

    #[test]
    fn snapshot_form_roundtrips() {
        let mut f = MshrFile::new(2, 2, 2);
        let a = f.insert(0x1000, None);
        f.add_waiter(a, 1);
        f.add_waiter(a, 0);
        f.mark_store(a);
        f.insert(0x40, Some(1));
        let pending = f.pending();
        assert_eq!(pending[0].0, 0x40);
        assert_eq!(pending[1].1.waiters, vec![1, 0]);
        let mut g = MshrFile::new(2, 2, 2);
        g.restore(&pending);
        assert_eq!(g.pending(), pending);
        assert_eq!((g.demand(0), g.demand(1), g.prefetches(1)), (1, 1, 1));
    }
}
