//! A request queue with flat per-bank summaries.
//!
//! The bank is the unit of contention: every same-bank row hit shares one
//! CAS timing answer and only a bank's oldest request may drive an ACT or
//! PRE. So the scheduler never needs the queue itself, only — per flat
//! bank — how many entries target it, how many of them hit its open row,
//! and where the oldest hit and the oldest non-hit sit. [`BankedQueue`]
//! keeps exactly that in flat arrays beside the entries, plus masks of
//! the banks that have work, a queued row hit, or a non-hit for a driver,
//! and updates it only where the queue or a bank's open row changes.
//! Per-tick passes iterate set bits of a mask.
//!
//! Beside each entry sits its [`WaitBase`]: the latency attribution of a
//! queued read is a difference of running totals (see `waits.rs`), so no
//! pass walks the entries to count waiting cycles either.

use dramstack_dram::Cycle;

use crate::request::QueueEntry;
use crate::waits::{WaitBase, WaitTotals};

/// "No such entry" in the position arrays.
pub(crate) const NONE: u32 = u32::MAX;

/// Most banks a controller can address: the work mask is one `u64`.
pub(crate) const MAX_BANKS: usize = 64;

/// Iterates the set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// A FIFO-ordered request queue and its derived per-bank summary.
///
/// Invariants (recounted by [`check`](Self::check) in debug builds), for
/// every flat bank `b` with open row `open(b)`:
///
/// * `count[b]` entries have `bank_of == b`; `work` has bit `b` iff
///   `count[b] > 0`;
/// * `hits[b]` of them have `addr.row == open(b)` (0 for a closed bank);
/// * `oldest_hit[b]` / `oldest_miss[b]` is the lowest queue position of
///   such an entry / of any other entry of the bank, or [`NONE`];
/// * `hit_mask` has bit `b` iff `hits[b] > 0`; `miss_driven` iff the
///   bank's oldest entry is a non-hit (`oldest_miss[b] < oldest_hit[b]`);
/// * entries `[0, stamped)` carry an arrival cycle, the rest are the
///   suffix pushed since the last tick.
#[derive(Debug)]
pub(crate) struct BankedQueue {
    entries: Vec<QueueEntry>,
    /// Flat bank of each queue position.
    bank_of: Vec<u8>,
    /// Attribution baseline of each queue position.
    base: Vec<WaitBase>,
    /// The four wait counters of each position as the per-entry walk the
    /// baselines replaced would have left them (debug oracle).
    #[cfg(debug_assertions)]
    shadow: Vec<[Cycle; 4]>,
    count: [u32; MAX_BANKS],
    hits: [u32; MAX_BANKS],
    oldest_hit: [u32; MAX_BANKS],
    oldest_miss: [u32; MAX_BANKS],
    work: u64,
    hit_mask: u64,
    miss_driven: u64,
    stamped: usize,
}

/// `e`'s four wait counters, in the order the debug shadow keeps them.
#[cfg(debug_assertions)]
fn wait_counters(e: &QueueEntry) -> [Cycle; 4] {
    [
        e.writeburst_wait,
        e.refresh_wait,
        e.preact_wait,
        e.queue_wait,
    ]
}

impl BankedQueue {
    pub(crate) fn new() -> Self {
        BankedQueue {
            entries: Vec::new(),
            bank_of: Vec::new(),
            base: Vec::new(),
            #[cfg(debug_assertions)]
            shadow: Vec::new(),
            count: [0; MAX_BANKS],
            hits: [0; MAX_BANKS],
            oldest_hit: [NONE; MAX_BANKS],
            oldest_miss: [NONE; MAX_BANKS],
            work: 0,
            hit_mask: 0,
            miss_driven: 0,
            stamped: 0,
        }
    }

    /// Rebuilds a queue from restored entries; `flat_of` maps an entry to
    /// its flat bank and `open` a flat bank to its open row. The entries
    /// carry settled wait counters, so their baselines are zero: what
    /// [`WaitTotals::new`] is measured from.
    pub(crate) fn rebuild(
        entries: &[QueueEntry],
        flat_of: impl Fn(&QueueEntry) -> usize,
        open: impl Fn(usize) -> Option<u32>,
    ) -> Self {
        let mut q = Self::new();
        for e in entries {
            let flat = flat_of(e);
            q.push(e.clone(), flat, open(flat));
        }
        q.stamped = entries
            .iter()
            .position(|e| e.arrival == Cycle::MAX)
            .unwrap_or(entries.len());
        debug_assert!(
            entries[q.stamped..].iter().all(|e| e.arrival == Cycle::MAX),
            "unstamped entries must be a suffix"
        );
        q
    }

    pub(crate) fn entries(&self) -> &[QueueEntry] {
        &self.entries
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mask of flat banks with at least one entry.
    pub(crate) fn work(&self) -> u64 {
        self.work
    }

    /// Mask of flat banks with a queued open-row hit: the CAS candidates.
    pub(crate) fn hit_mask(&self) -> u64 {
        self.hit_mask
    }

    /// Mask of flat banks whose oldest entry is a non-hit: the banks an
    /// ACT or PRE may be issued for.
    pub(crate) fn miss_driven(&self) -> u64 {
        self.miss_driven
    }

    /// Whether any entry hits the open row of `flat`.
    pub(crate) fn has_hit(&self, flat: usize) -> bool {
        self.hit_mask >> flat & 1 == 1
    }

    /// Queue position of the oldest open-row hit of `flat`, or [`NONE`].
    pub(crate) fn oldest_hit(&self, flat: usize) -> u32 {
        self.oldest_hit[flat]
    }

    /// Queue position of the oldest non-hit of `flat`, or [`NONE`].
    pub(crate) fn oldest_miss(&self, flat: usize) -> u32 {
        self.oldest_miss[flat]
    }

    /// Whether every entry has its arrival stamped (nothing was pushed
    /// since the last [`stamp_arrivals`](Self::stamp_arrivals)).
    pub(crate) fn all_stamped(&self) -> bool {
        self.stamped == self.entries.len()
    }

    /// Appends `e`, which targets flat bank `flat` whose open row is `open`.
    pub(crate) fn push(&mut self, e: QueueEntry, flat: usize, open: Option<u32>) {
        let pos = self.entries.len() as u32;
        self.count[flat] += 1;
        self.work |= 1 << flat;
        if open == Some(e.addr.row) {
            self.hits[flat] += 1;
            if self.oldest_hit[flat] == NONE {
                self.oldest_hit[flat] = pos;
            }
        } else if self.oldest_miss[flat] == NONE {
            self.oldest_miss[flat] = pos;
        }
        self.update_masks(flat);
        self.bank_of.push(flat as u8);
        self.base.push(WaitBase::default());
        #[cfg(debug_assertions)]
        self.shadow.push(wait_counters(&e));
        self.entries.push(e);
    }

    /// Brings the two driver masks in line with `oldest_hit[flat]` and
    /// `oldest_miss[flat]`; called wherever either changes.
    fn update_masks(&mut self, flat: usize) {
        let bit = 1 << flat;
        let (hit, miss) = (self.oldest_hit[flat], self.oldest_miss[flat]);
        self.hit_mask = (self.hit_mask & !bit) | if hit != NONE { bit } else { 0 };
        self.miss_driven = (self.miss_driven & !bit) | if miss < hit { bit } else { 0 };
    }

    /// Stamps the entries pushed since the last call with arrival `now`
    /// and attribution baseline `base`, and returns them.
    pub(crate) fn stamp_arrivals(&mut self, now: Cycle, base: WaitBase) -> &[QueueEntry] {
        let fresh = &mut self.entries[self.stamped..];
        for e in fresh.iter_mut() {
            debug_assert_eq!(e.arrival, Cycle::MAX);
            e.arrival = now;
        }
        self.base[self.stamped..].fill(base);
        self.stamped += fresh.len();
        fresh
    }

    /// Removes the entry at `idx` for its CAS. A CAS is only ever chosen
    /// for its bank's oldest hit (CAS readiness is uniform across a bank's
    /// hits), which is what keeps this update local: later positions
    /// shift down and the bank's next hit, if any, is found from `idx` on.
    pub(crate) fn remove_for_cas(&mut self, idx: usize) -> QueueEntry {
        let flat = self.bank_of.remove(idx) as usize;
        let e = self.entries.remove(idx);
        self.base.remove(idx);
        #[cfg(debug_assertions)]
        self.shadow.remove(idx);
        debug_assert_eq!(self.oldest_hit[flat], idx as u32);
        debug_assert!(idx < self.stamped);
        self.stamped -= 1;
        for b in bits(self.work) {
            for pos in [&mut self.oldest_hit[b], &mut self.oldest_miss[b]] {
                if *pos != NONE && *pos > idx as u32 {
                    *pos -= 1;
                }
            }
        }
        self.count[flat] -= 1;
        self.hits[flat] -= 1;
        self.oldest_hit[flat] = if self.hits[flat] == 0 {
            NONE
        } else {
            (idx..self.entries.len())
                .find(|&i| {
                    self.bank_of[i] as usize == flat && self.entries[i].addr.row == e.addr.row
                })
                .expect("hit count says another hit is queued") as u32
        };
        if self.count[flat] == 0 {
            self.work &= !(1 << flat);
        }
        self.update_masks(flat);
        e
    }

    /// Re-splits the entries of `flat` into hits and non-hits after its
    /// open row became `open` (ACT, PRE, auto-precharge).
    pub(crate) fn reclassify(&mut self, flat: usize, open: Option<u32>) {
        if self.count[flat] == 0 {
            return;
        }
        let (mut hits, mut oldest_hit, mut oldest_miss) = (0, NONE, NONE);
        match open {
            // A closed bank has no hits: the two classes merge.
            None => oldest_miss = self.oldest_hit[flat].min(self.oldest_miss[flat]),
            Some(row) => {
                for (i, (e, &b)) in self.entries.iter().zip(&self.bank_of).enumerate() {
                    if b as usize != flat {
                        continue;
                    }
                    if e.addr.row == row {
                        hits += 1;
                        oldest_hit = oldest_hit.min(i as u32);
                    } else {
                        oldest_miss = oldest_miss.min(i as u32);
                    }
                }
            }
        }
        self.hits[flat] = hits;
        self.oldest_hit[flat] = oldest_hit;
        self.oldest_miss[flat] = oldest_miss;
        self.update_masks(flat);
    }

    /// The entry at `idx` and its attribution baseline.
    pub(crate) fn entry_mut(&mut self, idx: usize) -> (&mut QueueEntry, &mut WaitBase) {
        (&mut self.entries[idx], &mut self.base[idx])
    }

    /// A copy of the entry at `idx` with its four wait counters brought
    /// up to `totals`: what leaves the queue with a read's CAS and what a
    /// snapshot holds. An entry not yet stamped has not started waiting.
    pub(crate) fn settled(&self, idx: usize, totals: &WaitTotals) -> QueueEntry {
        let mut e = self.entries[idx].clone();
        if idx < self.stamped {
            totals.settle(&mut e, self.base[idx], self.bank_of[idx] as usize);
        }
        #[cfg(debug_assertions)]
        assert_eq!(wait_counters(&e), self.shadow[idx], "entry {idx}: {e:?}");
        e
    }

    /// The per-entry walk the baselines replaced, kept on the shadow
    /// counters: `n` identical cycles, each charged to one component.
    #[cfg(debug_assertions)]
    pub(crate) fn shadow_attribute(&mut self, n: u64, drain: bool, refreshing: bool, moving: u64) {
        assert!(self.all_stamped(), "attribution runs on stamped queues");
        let entries = self.entries.iter().zip(&self.bank_of);
        for ((e, &flat), [writeburst, refresh, preact, queue]) in entries.zip(&mut self.shadow) {
            if drain {
                *writeburst += n;
            } else if refreshing {
                *refresh += n;
            } else if (e.caused_pre || e.caused_act) && moving >> flat & 1 == 1 {
                *preact += n;
            } else {
                *queue += n;
            }
        }
    }

    /// Recounts every summary field from the entries and panics on any
    /// difference (debug oracle; `rebuild` is the from-scratch recount).
    /// It reads no debug-only field, so the unit tests call it in release too.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check(
        &self,
        flat_of: impl Fn(&QueueEntry) -> usize,
        open: impl Fn(usize) -> Option<u32>,
    ) {
        let fresh = Self::rebuild(&self.entries, flat_of, open);
        assert_eq!(self.bank_of, fresh.bank_of);
        assert_eq!(self.count, fresh.count);
        assert_eq!(self.hits, fresh.hits);
        assert_eq!(self.oldest_hit, fresh.oldest_hit);
        assert_eq!(self.oldest_miss, fresh.oldest_miss);
        assert_eq!(self.work, fresh.work);
        assert_eq!(self.hit_mask, fresh.hit_mask);
        assert_eq!(self.miss_driven, fresh.miss_driven);
        assert_eq!(self.stamped, fresh.stamped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use dramstack_dram::{BankAddr, DramAddress};

    fn entry(id: u64, flat: usize, row: u32) -> QueueEntry {
        let addr = DramAddress::new(BankAddr::new(0, flat as u32 / 4, flat as u32 % 4), row, 0);
        QueueEntry::new(RequestId(id), 0, id, addr, Cycle::MAX)
    }

    fn flat_of(e: &QueueEntry) -> usize {
        (e.addr.bank.bank_group * 4 + e.addr.bank.bank) as usize
    }

    #[test]
    fn bits_yields_set_positions_in_order() {
        assert_eq!(bits(0).count(), 0);
        assert_eq!(bits(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
        assert_eq!(bits(1 << 63).collect::<Vec<_>>(), [63]);
    }

    #[test]
    fn summary_follows_push_open_cas_and_close() {
        let mut open = [None; 16];
        let mut q = BankedQueue::new();
        // Bank 3: rows 7, 9, 7; bank 5: row 1. Everything is closed.
        for (id, (flat, row)) in [(3, 7), (5, 1), (3, 9), (3, 7)].into_iter().enumerate() {
            q.push(entry(id as u64, flat, row), flat, open[flat]);
        }
        assert_eq!(q.work(), 1 << 3 | 1 << 5);
        assert_eq!((q.oldest_hit(3), q.oldest_miss(3)), (NONE, 0));
        assert!(!q.all_stamped());
        assert_eq!((q.hit_mask(), q.miss_driven()), (0, 1 << 3 | 1 << 5));
        assert_eq!(q.stamp_arrivals(10, WaitBase::default()).len(), 4);
        assert!(q.all_stamped());

        // ACT row 7 on bank 3: positions 0 and 3 hit, position 2 does not.
        open[3] = Some(7);
        q.reclassify(3, open[3]);
        assert!(q.has_hit(3) && !q.has_hit(5));
        assert_eq!((q.oldest_hit(3), q.oldest_miss(3)), (0, 2));
        assert_eq!((q.hit_mask(), q.miss_driven()), (1 << 3, 1 << 5));
        q.check(flat_of, |f| open[f]);

        // CAS for position 0: everything shifts, the next hit is found.
        assert_eq!(q.remove_for_cas(0).id, RequestId(0));
        assert_eq!((q.oldest_hit(3), q.oldest_miss(3)), (2, 1));
        assert_eq!((q.hit_mask(), q.miss_driven()), (1 << 3, 1 << 3 | 1 << 5));
        assert_eq!(q.oldest_miss(5), 0);
        q.check(flat_of, |f| open[f]);

        // A push between ticks is the unstamped suffix.
        q.push(entry(9, 5, 1), 5, open[5]);
        assert!(!q.all_stamped());
        q.check(flat_of, |f| open[f]);
        q.stamp_arrivals(11, WaitBase::default());

        // Last hit leaves, then the bank closes: the classes merge.
        q.remove_for_cas(2);
        assert_eq!((q.oldest_hit(3), q.oldest_miss(3)), (NONE, 1));
        assert_eq!(q.hit_mask(), 0);
        open[3] = None;
        q.reclassify(3, None);
        q.check(flat_of, |f| open[f]);
        assert_eq!(q.len(), 3);
    }
}
