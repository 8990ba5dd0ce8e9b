//! The three-level cache hierarchy: private L1D and L2 per core, a shared
//! LLC, an L2 stream prefetcher, MSHR-limited outstanding misses and
//! write-back/write-allocate semantics.
//!
//! The hierarchy is the boundary between the cores and the memory
//! controller: demand/prefetch misses appear in [`Hierarchy::pop_read`],
//! dirty LLC evictions in [`Hierarchy::pop_write`], and the simulator
//! reports DRAM completions back via [`Hierarchy::complete_read`].

use std::collections::VecDeque;

use serde::{Deserialize, Serialize, Sink};

use crate::cache::{Cache, CacheConfig, CacheDelta, CacheStats, DirtySets};
use crate::mshr::MshrFile;
use crate::prefetch::{PrefetchConfig, StreamPrefetcher};

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// Per-core unified L2.
    pub l2: CacheConfig,
    /// Shared last-level cache (size independent of core count, as in the
    /// paper).
    pub llc: CacheConfig,
    /// Outstanding demand misses per core (L1 MSHRs).
    pub l1_mshrs: usize,
    /// Outstanding prefetches per core.
    pub prefetch_outstanding: usize,
    /// L2 stream prefetcher parameters.
    pub prefetch: PrefetchConfig,
}

impl HierarchyConfig {
    /// The paper's Skylake-like setup.
    pub fn paper_default() -> Self {
        HierarchyConfig {
            l1: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            llc: CacheConfig::llc(),
            l1_mshrs: 10,
            prefetch_outstanding: 8,
            prefetch: PrefetchConfig::default(),
        }
    }
}

/// Outcome of a core's access into the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// Served by a cache; data ready at the returned absolute core cycle.
    Hit {
        /// Core cycle at which the data is available.
        ready_at: u64,
    },
    /// Goes to DRAM; completion arrives via
    /// [`Hierarchy::complete_read`].
    Miss,
    /// No MSHR available — the core must retry next cycle.
    MshrFull,
}

/// A read request headed to the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutboundRead {
    /// Line address.
    pub line: u64,
    /// Requesting core.
    pub core: usize,
    /// Whether this is a prefetch (no core waits on it).
    pub is_prefetch: bool,
}

/// One in-flight line as snapshots carry it (the live form is a slot of
/// the [`MshrFile`]).
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct PendingLine {
    /// Cores with demand waiters on this line, in arrival order.
    pub(crate) waiters: Vec<usize>,
    /// Whether any waiter was a store (fill dirty).
    pub(crate) any_store: bool,
    /// Core whose prefetcher requested the line, if it started as a
    /// prefetch.
    pub(crate) prefetch_for: Option<usize>,
}

/// The cores whose demand accesses waited on a completed line, in arrival
/// order; what [`Hierarchy::complete_read`] returns. The fills are done by
/// the time it exists, so it may be dropped unread.
#[derive(Debug)]
pub struct Woken<'a>(std::slice::Iter<'a, usize>);

impl Iterator for Woken<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.0.next().copied()
    }
}

/// Aggregated hierarchy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Demand reads sent to DRAM.
    pub dram_demand_reads: u64,
    /// Prefetch reads sent to DRAM.
    pub dram_prefetch_reads: u64,
    /// Dirty lines written back to DRAM.
    pub dram_writes: u64,
    /// Demand misses that merged into an in-flight line.
    pub mshr_merges: u64,
    /// Prefetches that arrived before the demand access (useful).
    pub prefetch_hits: u64,
}

/// Serializable state of the whole [`Hierarchy`], captured by
/// [`Hierarchy::snapshot_state`] and re-injected by
/// [`Hierarchy::restore_state`] into a hierarchy built with the same
/// configuration and core count. The MSHR file is stored as the
/// line-sorted `pending` list plus the per-core line sets it implies
/// (`demand_outstanding`: lines a core waits on; `prefetch_outstanding`:
/// lines its prefetcher started). Checkpoints write the same layout
/// straight from the live hierarchy ([`Hierarchy::live_state`]).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct HierarchyState {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    prefetchers: Vec<StreamPrefetcher>,
    demand_outstanding: Vec<Vec<u64>>,
    prefetch_outstanding: Vec<Vec<u64>>,
    pending: Vec<(u64, PendingLine)>,
    outbound_reads: Vec<OutboundRead>,
    outbound_writes: Vec<u64>,
    stats: HierarchyStats,
}

/// Dirty-state patch for the whole hierarchy, written by a delta
/// checkpoint ([`Hierarchy::live_delta`]) and replayed onto a base
/// [`HierarchyState`] by [`HierarchyState::apply_delta`]. The caches —
/// the only large members — carry per-set patches; everything else
/// (prefetchers, MSHR sets, pending lines, outbound queues, counters) is
/// tiny and captured whole, with the same canonical sorted encoding as
/// [`HierarchyState`].
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct HierarchyDelta {
    l1: Vec<CacheDelta>,
    l2: Vec<CacheDelta>,
    llc: CacheDelta,
    prefetchers: Vec<StreamPrefetcher>,
    demand_outstanding: Vec<Vec<u64>>,
    prefetch_outstanding: Vec<Vec<u64>>,
    pending: Vec<(u64, PendingLine)>,
    outbound_reads: Vec<OutboundRead>,
    outbound_writes: Vec<u64>,
    stats: HierarchyStats,
}

/// The one serialized layout of [`HierarchyState`] and
/// [`HierarchyDelta`], borrowed from either or from the live
/// [`Hierarchy`]: the caches go whole in a state and as their patched
/// sets in a delta, the rest is the same.
#[derive(Serialize)]
struct HierarchyView<'a> {
    l1: &'a dyn Serialize,
    l2: &'a dyn Serialize,
    llc: &'a dyn Serialize,
    prefetchers: &'a [StreamPrefetcher],
    demand_outstanding: &'a [Vec<u64>],
    prefetch_outstanding: &'a [Vec<u64>],
    pending: &'a [(u64, PendingLine)],
    outbound_reads: &'a [OutboundRead],
    outbound_writes: &'a [u64],
    stats: HierarchyStats,
}

/// `Serialize` for the owned state and delta: they lend their fields,
/// which carry the view's names, to [`HierarchyView`].
macro_rules! serialize_through_view {
    ($($owned:ty),*) => {$(
        impl Serialize for $owned {
            fn serialize(&self, out: &mut dyn Sink) {
                HierarchyView {
                    l1: &self.l1,
                    l2: &self.l2,
                    llc: &self.llc,
                    prefetchers: &self.prefetchers,
                    demand_outstanding: &self.demand_outstanding,
                    prefetch_outstanding: &self.prefetch_outstanding,
                    pending: &self.pending,
                    outbound_reads: &self.outbound_reads,
                    outbound_writes: &self.outbound_writes,
                    stats: self.stats,
                }
                .serialize(out);
            }
        }
    )*};
}

serialize_through_view!(HierarchyState, HierarchyDelta);

/// The live [`Hierarchy`] serialized as a [`HierarchyState`] or, with
/// `dirty_only`, as the [`HierarchyDelta`] of the sets touched since the
/// last [`mark_clean`](Hierarchy::mark_clean). The caches are read where
/// they sit; only the small members are gathered first.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyLive<'a> {
    hier: &'a Hierarchy,
    dirty_only: bool,
}

impl Serialize for HierarchyLive<'_> {
    fn serialize(&self, out: &mut dyn Sink) {
        let h = self.hier;
        let pending = h.mshrs.pending();
        let [demand_outstanding, prefetch_outstanding] = h.line_sets(&pending);
        let outbound_reads: Vec<OutboundRead> = h.outbound_reads.iter().copied().collect();
        let outbound_writes: Vec<u64> = h.outbound_writes.iter().copied().collect();
        let write =
            |out: &mut dyn Sink, l1: &dyn Serialize, l2: &dyn Serialize, llc: &dyn Serialize| {
                HierarchyView {
                    l1,
                    l2,
                    llc,
                    prefetchers: &h.prefetchers,
                    demand_outstanding: &demand_outstanding,
                    prefetch_outstanding: &prefetch_outstanding,
                    pending: &pending,
                    outbound_reads: &outbound_reads,
                    outbound_writes: &outbound_writes,
                    stats: h.stats,
                }
                .serialize(out);
            };
        if self.dirty_only {
            let l1: Vec<DirtySets> = h.l1.iter().map(Cache::dirty_sets).collect();
            let l2: Vec<DirtySets> = h.l2.iter().map(Cache::dirty_sets).collect();
            write(out, &l1, &l2, &h.llc.dirty_sets());
        } else {
            write(out, &h.l1, &h.l2, &h.llc);
        }
    }
}

impl HierarchyState {
    /// Replays a [`HierarchyDelta`] captured from a hierarchy that was
    /// clean relative to this state, producing the hierarchy state at the
    /// delta's capture point.
    ///
    /// # Errors
    ///
    /// Returns a message when the delta does not fit this state's shape
    /// (core count or cache geometry mismatch).
    pub fn apply_delta(&mut self, delta: &HierarchyDelta) -> Result<(), String> {
        if delta.l1.len() != self.l1.len() || delta.l2.len() != self.l2.len() {
            return Err(format!(
                "hierarchy delta covers {} cores, state has {}",
                delta.l1.len(),
                self.l1.len()
            ));
        }
        for (c, d) in self.l1.iter_mut().zip(&delta.l1) {
            c.apply_delta(d)?;
        }
        for (c, d) in self.l2.iter_mut().zip(&delta.l2) {
            c.apply_delta(d)?;
        }
        self.llc.apply_delta(&delta.llc)?;
        self.prefetchers = delta.prefetchers.clone();
        self.demand_outstanding = delta.demand_outstanding.clone();
        self.prefetch_outstanding = delta.prefetch_outstanding.clone();
        self.pending = delta.pending.clone();
        self.outbound_reads = delta.outbound_reads.clone();
        self.outbound_writes = delta.outbound_writes.clone();
        self.stats = delta.stats;
        Ok(())
    }
}

/// The shared memory hierarchy of all cores.
#[derive(Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    prefetchers: Vec<StreamPrefetcher>,
    /// All in-flight lines with their waiting cores, and the per-core
    /// demand (bounded by `l1_mshrs`) and prefetch counts.
    mshrs: MshrFile,
    outbound_reads: VecDeque<OutboundRead>,
    outbound_writes: VecDeque<u64>,
    prefetch_buf: Vec<u64>,
    /// Scratch: the waiters of the line [`complete_read`](Self::complete_read)
    /// just finished.
    woken: Vec<usize>,
    line_mask: u64,
    stats: HierarchyStats,
    /// Calls to [`access`](Self::access) since construction: host-side
    /// work for `SimReport::perf`, not simulation state (never
    /// snapshotted or restored).
    accesses: u64,
}

impl Hierarchy {
    /// Builds the hierarchy for `n_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if any cache geometry is invalid or `n_cores` is zero.
    pub fn new(n_cores: usize, cfg: HierarchyConfig) -> Self {
        assert!(n_cores > 0, "need at least one core");
        Hierarchy {
            cfg,
            l1: (0..n_cores).map(|_| Cache::new(cfg.l1)).collect(),
            l2: (0..n_cores).map(|_| Cache::new(cfg.l2)).collect(),
            llc: Cache::new(cfg.llc),
            prefetchers: (0..n_cores)
                .map(|_| StreamPrefetcher::new(cfg.prefetch))
                .collect(),
            mshrs: MshrFile::new(n_cores, cfg.l1_mshrs, cfg.prefetch_outstanding),
            outbound_reads: VecDeque::new(),
            outbound_writes: VecDeque::new(),
            prefetch_buf: Vec::new(),
            woken: Vec::with_capacity(n_cores),
            line_mask: !(u64::from(cfg.l1.line_bytes) - 1),
            stats: HierarchyStats::default(),
            accesses: 0,
        }
    }

    /// Calls to [`access`](Self::access) since construction.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// `(l1, l2, llc)` cache statistics; `l1`/`l2` summed over cores.
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        let sum = |cs: &[Cache]| {
            let mut out = CacheStats::default();
            for c in cs {
                let s = c.stats();
                out.hits += s.hits;
                out.misses += s.misses;
                out.writebacks += s.writebacks;
            }
            out
        };
        (sum(&self.l1), sum(&self.l2), self.llc.stats())
    }

    /// A demand access from `core`. `now` is the current core cycle.
    pub fn access(&mut self, core: usize, addr: u64, is_write: bool, now: u64) -> AccessResult {
        self.accesses += 1;
        let line = addr & self.line_mask;
        // L1 (lookup only: allocation happens when the fill arrives).
        if self.l1[core].lookup(line, is_write) {
            return AccessResult::Hit {
                ready_at: now + self.cfg.l1.latency,
            };
        }

        // Merge into an in-flight line if present.
        if let Some(slot) = self.mshrs.find(line) {
            if !self.mshrs.waits(slot, core) {
                if self.mshrs.demand(core) >= self.cfg.l1_mshrs {
                    return AccessResult::MshrFull;
                }
                self.mshrs.add_waiter(slot, core);
            }
            if is_write {
                self.mshrs.mark_store(slot);
            }
            self.stats.mshr_merges += 1;
            return AccessResult::Miss;
        }

        // L2 (train the prefetcher on every L2 lookup).
        self.train_prefetcher(core, line);
        if self.l2[core].lookup(line, false) {
            self.fill_l1(core, line, is_write);
            return AccessResult::Hit {
                ready_at: now + self.cfg.l2.latency,
            };
        }

        // LLC.
        if self.llc.lookup(line, false) {
            self.fill_l2(core, line, false);
            self.fill_l1(core, line, is_write);
            return AccessResult::Hit {
                ready_at: now + self.cfg.llc.latency,
            };
        }

        // DRAM.
        if self.mshrs.demand(core) >= self.cfg.l1_mshrs {
            return AccessResult::MshrFull;
        }
        let slot = self.mshrs.insert(line, None);
        self.mshrs.add_waiter(slot, core);
        if is_write {
            self.mshrs.mark_store(slot);
        }
        self.outbound_reads.push_back(OutboundRead {
            line,
            core,
            is_prefetch: false,
        });
        self.stats.dram_demand_reads += 1;
        AccessResult::Miss
    }

    fn train_prefetcher(&mut self, core: usize, line: u64) {
        let line_idx = line >> self.cfg.l1.line_bytes.trailing_zeros();
        let mut buf = std::mem::take(&mut self.prefetch_buf);
        buf.clear();
        self.prefetchers[core].train(line_idx, &mut buf);
        for idx in &buf {
            let pline = idx << self.cfg.l1.line_bytes.trailing_zeros();
            if self.mshrs.prefetches(core) >= self.cfg.prefetch_outstanding {
                break;
            }
            if self.mshrs.find(pline).is_some()
                || self.l2[core].probe(pline)
                || self.llc.probe(pline)
            {
                continue;
            }
            self.mshrs.insert(pline, Some(core));
            self.outbound_reads.push_back(OutboundRead {
                line: pline,
                core,
                is_prefetch: true,
            });
            self.stats.dram_prefetch_reads += 1;
        }
        self.prefetch_buf = buf;
    }

    /// Next read for the memory controller, if any. Take it only once
    /// [`peek_read`](Self::peek_read) shows the controller can accept it.
    pub fn pop_read(&mut self) -> Option<OutboundRead> {
        self.outbound_reads.pop_front()
    }

    /// Next writeback for the memory controller, if any (see
    /// [`peek_write`](Self::peek_write)).
    pub fn pop_write(&mut self) -> Option<u64> {
        self.outbound_writes.pop_front()
    }

    /// Head of the outbound read queue without removing it — the request
    /// the pump would try next. The pump is head-of-line blocking, so a
    /// full target controller here stalls the whole direction.
    pub fn peek_read(&self) -> Option<&OutboundRead> {
        self.outbound_reads.front()
    }

    /// Head of the outbound write queue without removing it.
    pub fn peek_write(&self) -> Option<u64> {
        self.outbound_writes.front().copied()
    }

    /// Whether any miss is still in flight anywhere.
    pub fn quiescent(&self) -> bool {
        self.mshrs.is_empty() && self.outbound_reads.is_empty() && self.outbound_writes.is_empty()
    }

    /// A DRAM read for `line` finished: fill the caches and return the
    /// cores whose demand loads waited on it, in arrival order.
    pub fn complete_read(&mut self, line: u64) -> Woken<'_> {
        let mut woken = std::mem::take(&mut self.woken);
        if let Some((any_store, prefetch_for)) = self.mshrs.remove(line, &mut woken) {
            self.fill_llc(line, false);
            if woken.is_empty() {
                // Pure prefetch: fill LLC + the requesting core's L2.
                if let Some(core) = prefetch_for {
                    self.fill_l2(core, line, false);
                }
            } else if prefetch_for.is_some() {
                self.stats.prefetch_hits += 1;
            }
            for &core in &woken {
                self.fill_l2(core, line, false);
                self.fill_l1(core, line, any_store);
            }
        }
        self.woken = woken;
        Woken(self.woken.iter())
    }

    /// Functionally warms the LLC with `line` (optionally dirty) without
    /// timing, demand statistics or writeback of the evicted victim — used
    /// to start steady-state measurements with a realistically full cache,
    /// so dirty evictions (DRAM writes) flow from cycle 0. Call
    /// [`reset_stats`](Self::reset_stats) after warming.
    pub fn prefill_llc(&mut self, line: u64, dirty: bool) {
        let _ = self.llc.fill(line & self.line_mask, dirty);
    }

    /// Clears all cache and hierarchy counters (after a warm-up).
    pub fn reset_stats(&mut self) {
        for c in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            c.reset_stats();
        }
        self.llc.reset_stats();
        self.stats = HierarchyStats::default();
    }

    /// Captures the full state of caches, prefetchers, MSHR sets, pending
    /// lines and outbound queues.
    pub fn snapshot_state(&self) -> HierarchyState {
        let pending = self.mshrs.pending();
        let [demand_outstanding, prefetch_outstanding] = self.line_sets(&pending);
        HierarchyState {
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            llc: self.llc.clone(),
            prefetchers: self.prefetchers.clone(),
            demand_outstanding,
            prefetch_outstanding,
            pending,
            outbound_reads: self.outbound_reads.iter().copied().collect(),
            outbound_writes: self.outbound_writes.iter().copied().collect(),
            stats: self.stats,
        }
    }

    /// The per-core line sets `pending` implies, each ascending: the lines
    /// a core waits on, and the lines its prefetcher started.
    fn line_sets(&self, pending: &[(u64, PendingLine)]) -> [Vec<Vec<u64>>; 2] {
        let mut demand = vec![Vec::new(); self.cores()];
        let mut prefetch = vec![Vec::new(); self.cores()];
        for (line, p) in pending {
            for &core in &p.waiters {
                demand[core].push(*line);
            }
            if let Some(core) = p.prefetch_for {
                prefetch[core].push(*line);
            }
        }
        [demand, prefetch]
    }

    /// The whole hierarchy as a [`HierarchyState`] serializes it, read in
    /// place.
    pub fn live_state(&self) -> HierarchyLive<'_> {
        HierarchyLive {
            hier: self,
            dirty_only: false,
        }
    }

    /// The hierarchy as the [`HierarchyDelta`] of the cache sets touched
    /// since the last [`mark_clean`](Self::mark_clean) serializes it, read
    /// in place.
    pub fn live_delta(&self) -> HierarchyLive<'_> {
        HierarchyLive {
            hier: self,
            dirty_only: true,
        }
    }

    /// Marks every cache clean, so the next
    /// [`live_delta`](Self::live_delta) names only sets mutated after this
    /// call. Call after writing a checkpoint.
    pub fn mark_clean(&mut self) {
        for c in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            c.mark_clean();
        }
        self.llc.mark_clean();
    }

    /// Restores state captured by [`snapshot_state`](Self::snapshot_state).
    /// The target must have been built with the same configuration and core
    /// count the snapshot was taken under.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's core count does not match this hierarchy's,
    /// or it holds more lines in flight than this configuration allows.
    pub fn restore_state(&mut self, state: &HierarchyState) {
        assert_eq!(
            state.l1.len(),
            self.l1.len(),
            "hierarchy snapshot core count mismatch"
        );
        self.l1 = state.l1.clone();
        self.l2 = state.l2.clone();
        self.llc = state.llc.clone();
        self.prefetchers = state.prefetchers.clone();
        // `pending` implies the per-core line sets stored beside it.
        self.mshrs.restore(&state.pending);
        self.outbound_reads = state.outbound_reads.iter().copied().collect();
        self.outbound_writes = state.outbound_writes.iter().copied().collect();
        // Scratch only lives within `train_prefetcher`; it is always empty
        // at snapshot boundaries.
        self.prefetch_buf.clear();
        self.stats = state.stats;
    }

    // -- fill helpers with dirty-eviction cascade --------------------------------

    fn fill_l1(&mut self, core: usize, line: u64, dirty: bool) {
        if let Some(victim) = self.l1[core].fill(line, dirty) {
            self.fill_l2(core, victim, true);
        }
    }

    fn fill_l2(&mut self, core: usize, line: u64, dirty: bool) {
        if let Some(victim) = self.l2[core].fill(line, dirty) {
            self.fill_llc(victim, true);
        }
    }

    fn fill_llc(&mut self, line: u64, dirty: bool) {
        if let Some(victim) = self.llc.fill(line, dirty) {
            self.outbound_writes.push_back(victim);
            self.stats.dram_writes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hierarchy(cores: usize) -> Hierarchy {
        // Tiny caches so evictions happen quickly in tests.
        let cfg = HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 512,
                ways: 2,
                line_bytes: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 2048,
                ways: 2,
                line_bytes: 64,
                latency: 14,
            },
            llc: CacheConfig {
                size_bytes: 8192,
                ways: 2,
                line_bytes: 64,
                latency: 44,
            },
            l1_mshrs: 4,
            prefetch_outstanding: 4,
            prefetch: PrefetchConfig {
                streams: 4,
                degree: 1,
                distance: 4,
                confidence: 2,
            },
        };
        Hierarchy::new(cores, cfg)
    }

    #[test]
    fn cold_miss_goes_to_dram_and_fills_on_completion() {
        let mut h = small_hierarchy(1);
        assert_eq!(h.access(0, 0x1000, false, 0), AccessResult::Miss);
        let r = h.pop_read().unwrap();
        assert_eq!(
            r,
            OutboundRead {
                line: 0x1000,
                core: 0,
                is_prefetch: false
            }
        );
        let waiters: Vec<usize> = h.complete_read(0x1000).collect();
        assert_eq!(waiters, vec![0]);
        // Now it hits in L1.
        assert_eq!(
            h.access(0, 0x1010, false, 100),
            AccessResult::Hit { ready_at: 104 }
        );
        assert!(h.quiescent());
    }

    #[test]
    fn merge_same_line_same_core() {
        let mut h = small_hierarchy(1);
        assert_eq!(h.access(0, 0x1000, false, 0), AccessResult::Miss);
        assert_eq!(h.access(0, 0x1008, false, 1), AccessResult::Miss);
        assert_eq!(h.stats().mshr_merges, 1);
        assert_eq!(h.stats().dram_demand_reads, 1);
        assert_eq!(h.outbound_reads.len(), 1, "merged miss sends one read");
    }

    #[test]
    fn merge_across_cores_notifies_both() {
        let mut h = small_hierarchy(2);
        assert_eq!(h.access(0, 0x2000, false, 0), AccessResult::Miss);
        assert_eq!(h.access(1, 0x2000, false, 0), AccessResult::Miss);
        let waiters: Vec<usize> = h.complete_read(0x2000).collect();
        assert_eq!(waiters, vec![0, 1], "arrival order");
    }

    #[test]
    fn mshr_limit_blocks_new_misses() {
        let mut h = small_hierarchy(1);
        for i in 0..4u64 {
            assert_eq!(
                h.access(0, 0x10_0000 + i * 0x1000, false, 0),
                AccessResult::Miss
            );
        }
        assert_eq!(h.access(0, 0x50_0000, false, 0), AccessResult::MshrFull);
        // Completing one frees an MSHR.
        h.complete_read(0x10_0000);
        assert_eq!(h.access(0, 0x50_0000, false, 1), AccessResult::Miss);
    }

    #[test]
    fn store_miss_fills_dirty_and_evicts_as_writeback() {
        let mut h = small_hierarchy(1);
        assert_eq!(h.access(0, 0x0, true, 0), AccessResult::Miss);
        h.pop_read();
        h.complete_read(0x0);
        // Push the dirty line out of every level: lines 0x0, 0x200, 0x400…
        // share L1 set 0 (8 sets? 512B/64/2 = 4 sets → stride 0x100).
        for i in 1..40u64 {
            let a = i * 0x100;
            if h.access(0, a, false, i) == AccessResult::Miss {
                h.pop_read();
                h.complete_read(a & !63);
            }
        }
        assert!(h.stats().dram_writes > 0, "dirty line written back to DRAM");
        assert!(!h.outbound_writes.is_empty());
    }

    #[test]
    fn sequential_demand_stream_issues_prefetches() {
        let mut h = small_hierarchy(1);
        let mut prefetches = 0;
        for i in 0..32u64 {
            let addr = 0x4_0000 + i * 64;
            match h.access(0, addr, false, i) {
                AccessResult::Miss => {
                    while let Some(r) = h.pop_read() {
                        if r.is_prefetch {
                            prefetches += 1;
                        }
                        h.complete_read(r.line);
                    }
                }
                AccessResult::Hit { .. } => {}
                AccessResult::MshrFull => panic!("unexpected MshrFull"),
            }
        }
        assert!(prefetches > 0, "stream prefetcher fired");
        assert!(h.stats().dram_prefetch_reads > 0);
        // Prefetched lines make later demand accesses hit.
        let (l1, l2, _) = h.cache_stats();
        assert!(l1.hits + l2.hits > 0);
    }

    /// What a delta checkpoint writes of `h`, decoded; `h` is clean
    /// afterwards, as a checkpoint leaves it.
    fn take_delta(h: &mut Hierarchy) -> HierarchyDelta {
        let delta = HierarchyDelta::from_value(&h.live_delta().to_value()).expect("delta decodes");
        h.mark_clean();
        delta
    }

    /// Cache sets a delta patches, across every level.
    fn patched_sets(d: &HierarchyDelta) -> usize {
        d.l1.iter()
            .chain(&d.l2)
            .chain([&d.llc])
            .map(|c| c.sets.len())
            .sum()
    }

    #[test]
    fn delta_replays_onto_base_state() {
        let mut h = small_hierarchy(2);
        for i in 0..16u64 {
            h.access(0, 0x4_0000 + i * 64, i % 3 == 0, i);
            while let Some(r) = h.pop_read() {
                h.complete_read(r.line);
            }
        }
        let mut base = h.snapshot_state();
        assert_eq!(
            h.live_state().to_value(),
            base.to_value(),
            "live and owned states differ"
        );
        h.mark_clean();

        for i in 0..24u64 {
            h.access(1, 0x8_0000 + i * 0x140, i % 2 == 0, 100 + i);
        }
        h.access(0, 0x4_0000, true, 200);
        let delta = take_delta(&mut h);
        assert!(patched_sets(&delta) > 0);

        base.apply_delta(&delta).expect("delta fits the base");
        assert_eq!(base, h.snapshot_state());

        // A clean hierarchy yields an empty patch set that still replays.
        let delta2 = take_delta(&mut h);
        assert_eq!(patched_sets(&delta2), 0);
        base.apply_delta(&delta2).expect("empty delta fits");
        assert_eq!(base, h.snapshot_state());
    }

    #[test]
    fn delta_rejects_core_count_mismatch() {
        let mut h1 = small_hierarchy(1);
        let h2 = small_hierarchy(2);
        let delta = take_delta(&mut h1);
        let mut state = h2.snapshot_state();
        assert!(state.apply_delta(&delta).is_err());
    }

    #[test]
    fn llc_hit_after_other_cores_fill() {
        let mut h = small_hierarchy(2);
        h.access(0, 0x3000, false, 0);
        h.pop_read();
        h.complete_read(0x3000);
        // Core 1 finds it in the LLC.
        match h.access(1, 0x3000, false, 50) {
            AccessResult::Hit { ready_at } => assert_eq!(ready_at, 50 + 44),
            other => panic!("expected LLC hit, got {other:?}"),
        }
    }
}
