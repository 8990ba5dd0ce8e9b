//! The flat MSHR file against the hash-container hierarchy it replaced.
//!
//! [`Model`] is that hierarchy, kept here as the reference: three std hash
//! containers and a `Vec` of waiters per line around the same public
//! `Cache` and `StreamPrefetcher`. Random multi-core interleavings of
//! `access` and `complete_read` must give the same `AccessResult`s, the
//! same `pop_read`/`pop_write` order, the same waiter order and an equal
//! `snapshot_state()`. A counting allocator then checks that the
//! steady-state loop through `tick`/`access`/`complete_read`/
//! `complete_line` allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};

use proptest::prelude::*;
use serde::{Serialize, Value};

use dramstack_cpu::{
    AccessResult, Cache, CacheConfig, CoreConfig, CoreModel, FnStream, Hierarchy, HierarchyConfig,
    HierarchyStats, Instr, OutboundRead, PrefetchConfig, StreamPrefetcher,
};

/// Small caches so evictions, write-backs and LLC hits happen within a few
/// hundred accesses; 3 MSHRs and 2 prefetches per core so both limits bind.
fn config() -> HierarchyConfig {
    let cache = |size_bytes, latency| CacheConfig {
        size_bytes,
        ways: 2,
        line_bytes: 64,
        latency,
    };
    HierarchyConfig {
        l1: cache(512, 4),
        l2: cache(2048, 14),
        llc: cache(8192, 44),
        l1_mshrs: 3,
        prefetch_outstanding: 2,
        prefetch: PrefetchConfig {
            streams: 4,
            degree: 2,
            distance: 6,
            confidence: 2,
        },
    }
}

#[derive(Default)]
struct ModelLine {
    waiters: Vec<usize>,
    any_store: bool,
    prefetch_for: Option<usize>,
}

/// The hierarchy as it was before the MSHR file.
struct Model {
    cfg: HierarchyConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    prefetchers: Vec<StreamPrefetcher>,
    demand_outstanding: Vec<HashSet<u64>>,
    prefetch_outstanding: Vec<HashSet<u64>>,
    pending: HashMap<u64, ModelLine>,
    outbound_reads: VecDeque<OutboundRead>,
    outbound_writes: VecDeque<u64>,
    stats: HierarchyStats,
}

impl Model {
    fn new(n_cores: usize, cfg: HierarchyConfig) -> Self {
        Model {
            cfg,
            l1: (0..n_cores).map(|_| Cache::new(cfg.l1)).collect(),
            l2: (0..n_cores).map(|_| Cache::new(cfg.l2)).collect(),
            llc: Cache::new(cfg.llc),
            prefetchers: (0..n_cores)
                .map(|_| StreamPrefetcher::new(cfg.prefetch))
                .collect(),
            demand_outstanding: vec![HashSet::new(); n_cores],
            prefetch_outstanding: vec![HashSet::new(); n_cores],
            pending: HashMap::new(),
            outbound_reads: VecDeque::new(),
            outbound_writes: VecDeque::new(),
            stats: HierarchyStats::default(),
        }
    }

    fn access(&mut self, core: usize, addr: u64, is_write: bool, now: u64) -> AccessResult {
        let line = addr & !63;
        if self.l1[core].lookup(line, is_write) {
            return AccessResult::Hit {
                ready_at: now + self.cfg.l1.latency,
            };
        }
        if let Some(p) = self.pending.get_mut(&line) {
            if self.demand_outstanding[core].contains(&line) {
                p.any_store |= is_write;
                self.stats.mshr_merges += 1;
                return AccessResult::Miss;
            }
            if self.demand_outstanding[core].len() >= self.cfg.l1_mshrs {
                return AccessResult::MshrFull;
            }
            p.any_store |= is_write;
            p.waiters.push(core);
            self.demand_outstanding[core].insert(line);
            self.stats.mshr_merges += 1;
            return AccessResult::Miss;
        }
        self.train_prefetcher(core, line);
        if self.l2[core].lookup(line, false) {
            self.fill_l1(core, line, is_write);
            return AccessResult::Hit {
                ready_at: now + self.cfg.l2.latency,
            };
        }
        if self.llc.lookup(line, false) {
            self.fill_l2(core, line, false);
            self.fill_l1(core, line, is_write);
            return AccessResult::Hit {
                ready_at: now + self.cfg.llc.latency,
            };
        }
        if self.demand_outstanding[core].len() >= self.cfg.l1_mshrs {
            return AccessResult::MshrFull;
        }
        self.demand_outstanding[core].insert(line);
        self.pending.insert(
            line,
            ModelLine {
                waiters: vec![core],
                any_store: is_write,
                prefetch_for: None,
            },
        );
        self.outbound_reads.push_back(OutboundRead {
            line,
            core,
            is_prefetch: false,
        });
        self.stats.dram_demand_reads += 1;
        AccessResult::Miss
    }

    fn train_prefetcher(&mut self, core: usize, line: u64) {
        let mut buf = Vec::new();
        self.prefetchers[core].train(line >> 6, &mut buf);
        for idx in buf {
            let pline = idx << 6;
            if self.prefetch_outstanding[core].len() >= self.cfg.prefetch_outstanding {
                break;
            }
            if self.pending.contains_key(&pline)
                || self.l2[core].probe(pline)
                || self.llc.probe(pline)
            {
                continue;
            }
            self.prefetch_outstanding[core].insert(pline);
            self.pending.insert(
                pline,
                ModelLine {
                    prefetch_for: Some(core),
                    ..ModelLine::default()
                },
            );
            self.outbound_reads.push_back(OutboundRead {
                line: pline,
                core,
                is_prefetch: true,
            });
            self.stats.dram_prefetch_reads += 1;
        }
    }

    fn complete_read(&mut self, line: u64) -> Vec<usize> {
        let Some(p) = self.pending.remove(&line) else {
            return Vec::new();
        };
        if let Some(core) = p.prefetch_for {
            self.prefetch_outstanding[core].remove(&line);
            if p.waiters.is_empty() {
                self.fill_llc(line, false);
                self.fill_l2(core, line, false);
                return Vec::new();
            }
            self.stats.prefetch_hits += 1;
        }
        self.fill_llc(line, false);
        for &core in &p.waiters {
            self.demand_outstanding[core].remove(&line);
            self.fill_l2(core, line, false);
            self.fill_l1(core, line, p.any_store);
        }
        p.waiters
    }

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

    /// What `Hierarchy::snapshot_state()` serializes to, field for field.
    fn snapshot_value(&self) -> Value {
        let sorted = |sets: &[HashSet<u64>]| -> Vec<Vec<u64>> {
            sets.iter()
                .map(|s| {
                    let mut v: Vec<u64> = s.iter().copied().collect();
                    v.sort_unstable();
                    v
                })
                .collect()
        };
        let mut pending: Vec<(u64, Value)> = self
            .pending
            .iter()
            .map(|(&line, p)| {
                let fields = vec![
                    ("waiters".to_string(), p.waiters.to_value()),
                    ("any_store".to_string(), p.any_store.to_value()),
                    ("prefetch_for".to_string(), p.prefetch_for.to_value()),
                ];
                (line, Value::Map(fields))
            })
            .collect();
        pending.sort_unstable_by_key(|(line, _)| *line);
        let field = |k: &str, v: Value| (k.to_string(), v);
        Value::Map(vec![
            field("l1", self.l1.to_value()),
            field("l2", self.l2.to_value()),
            field("llc", self.llc.to_value()),
            field("prefetchers", self.prefetchers.to_value()),
            field(
                "demand_outstanding",
                sorted(&self.demand_outstanding).to_value(),
            ),
            field(
                "prefetch_outstanding",
                sorted(&self.prefetch_outstanding).to_value(),
            ),
            field("pending", pending.to_value()),
            field("outbound_reads", self.outbound_reads.to_value()),
            field("outbound_writes", self.outbound_writes.to_value()),
            field("stats", self.stats.to_value()),
        ])
    }
}

/// The file and the model side by side, with the reads both have sent.
struct Pair {
    real: Hierarchy,
    model: Model,
    in_flight: Vec<u64>,
    now: u64,
    /// `AccessResult`s seen: hits, misses, `MshrFull`s.
    seen: [u64; 3],
}

impl Pair {
    fn new(cores: usize) -> Self {
        Pair {
            real: Hierarchy::new(cores, config()),
            model: Model::new(cores, config()),
            in_flight: Vec::new(),
            now: 0,
            seen: [0; 3],
        }
    }

    fn access(&mut self, core: usize, addr: u64, is_write: bool) -> Result<(), TestCaseError> {
        self.now += 1;
        let got = self.real.access(core, addr, is_write, self.now);
        let want = self.model.access(core, addr, is_write, self.now);
        prop_assert_eq!(got, want, "access({}, {:#x}, {})", core, addr, is_write);
        self.seen[match got {
            AccessResult::Hit { .. } => 0,
            AccessResult::Miss => 1,
            AccessResult::MshrFull => 2,
        }] += 1;
        self.drain()
    }

    /// Pops both outbound queues of both sides to the end, in step.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        loop {
            let got = self.real.pop_read();
            prop_assert_eq!(got, self.model.outbound_reads.pop_front(), "pop_read");
            match got {
                Some(r) => self.in_flight.push(r.line),
                None => break,
            }
        }
        loop {
            let got = self.real.pop_write();
            prop_assert_eq!(got, self.model.outbound_writes.pop_front(), "pop_write");
            if got.is_none() {
                return Ok(());
            }
        }
    }

    /// Completes the in-flight read `pick` names (modulo how many there are).
    fn complete(&mut self, pick: usize) -> Result<(), TestCaseError> {
        if self.in_flight.is_empty() {
            return Ok(());
        }
        let line = self.in_flight.swap_remove(pick % self.in_flight.len());
        let got: Vec<usize> = self.real.complete_read(line).collect();
        prop_assert_eq!(
            got,
            self.model.complete_read(line),
            "waiters of {:#x}",
            line
        );
        self.drain()
    }

    fn same_snapshot(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            self.real.snapshot_state().to_value(),
            self.model.snapshot_value()
        );
        Ok(())
    }
}

/// One step of an interleaving: `kind` 0..=5 are accesses from `core`
/// (a private sequential stream, lines all cores share, far random lines),
/// 6..=8 complete a read, 9 completes everything in flight.
fn apply(
    pair: &mut Pair,
    streams: &mut [u64],
    op: (u8, usize, u64, bool),
) -> Result<(), TestCaseError> {
    let (kind, core, r, is_write) = op;
    let core = core % streams.len();
    match kind {
        0..=2 => {
            // 16-byte steps: four accesses per line, so later ones merge
            // into the miss or the prefetch the earlier ones started.
            streams[core] += 16;
            let addr = ((core as u64 + 1) << 24) + streams[core];
            pair.access(core, addr, is_write)
        }
        3 | 4 => pair.access(core, 0x4000 + (r % 24) * 64, is_write),
        5 => pair.access(core, (r % 4096) * 0x1040, is_write),
        6..=8 => pair.complete(r as usize),
        _ => {
            while !pair.in_flight.is_empty() {
                pair.complete(r as usize)?;
            }
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_interleavings_match_the_hash_model(
        cores in 1usize..5,
        ops in prop::collection::vec((0u8..10, 0usize..4, any::<u64>(), any::<bool>()), 1..600),
    ) {
        let mut pair = Pair::new(cores);
        let mut streams = vec![0u64; cores];
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut pair, &mut streams, op)?;
            if i % 97 == 0 {
                pair.same_snapshot()?;
            }
        }
        pair.same_snapshot()?;
        // A restored file is the same file.
        let mut copy = Hierarchy::new(cores, config());
        copy.restore_state(&pair.real.snapshot_state());
        prop_assert_eq!(copy.snapshot_state(), pair.real.snapshot_state());
        pair.real = copy;
        for &op in ops.iter().take(100) {
            apply(&mut pair, &mut streams, op)?;
        }
        pair.same_snapshot()?;
    }
}

#[test]
fn scripted_run_meets_every_outcome() {
    // Nothing completes for a while: the MSHRs fill, cores merge into each
    // other's lines and into prefetches, and further misses are refused.
    let mut pair = Pair::new(3);
    let mut streams = vec![0u64; 3];
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..4_000u64 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let kind = if i % 200 < 120 {
            (lcg >> 60) as u8 % 6
        } else {
            (lcg >> 60) as u8 % 10
        };
        let op = (kind, (lcg >> 32) as usize, lcg >> 8, lcg & 1 == 1);
        apply(&mut pair, &mut streams, op).unwrap();
    }
    pair.same_snapshot().unwrap();
    let [hits, misses, full] = pair.seen;
    assert!(hits > 100 && misses > 100 && full > 100, "{:?}", pair.seen);
    let stats = pair.real.stats();
    assert!(stats.mshr_merges > 50, "{stats:?}");
    assert!(
        stats.dram_prefetch_reads > 50 && stats.prefetch_hits > 10,
        "{stats:?}"
    );
    assert!(stats.dram_writes > 10, "{stats:?}");
}

// -- allocation count -------------------------------------------------------

thread_local! {
    /// Allocations made by this thread (the tests of this file run on
    /// threads of their own, so one test never counts another's).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System` for every operation; the count is a
// const-initialised thread-local `Cell` without a destructor, so touching
// it from the allocator neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn steady_state_allocates_nothing() {
    // Four cores with the paper's MSHRs, prefetcher and ROB over caches
    // small enough to evict: a sequential stream with stores (prefetches,
    // merges, write-backs) on the even ones, random loads that fill the
    // MSHRs on the odd ones, against a memory that answers after 150 core
    // cycles. The in-flight queue is sized up front; everything else has
    // to have found its size during the warm-up.
    const CORES: usize = 4;
    let cfg = HierarchyConfig {
        l1: CacheConfig {
            size_bytes: 4 << 10,
            ..CacheConfig::l1d()
        },
        l2: CacheConfig {
            size_bytes: 32 << 10,
            ..CacheConfig::l2()
        },
        llc: CacheConfig {
            size_bytes: 256 << 10,
            ways: 16,
            ..CacheConfig::llc()
        },
        ..HierarchyConfig::paper_default()
    };
    let mut hier = Hierarchy::new(CORES, cfg);
    let mut cores: Vec<CoreModel> = (0..CORES)
        .map(|i| CoreModel::new(i, CoreConfig::paper_default()))
        .collect();
    let mut streams: Vec<_> = (0..CORES as u64)
        .map(|c| {
            let mut n = 0u64;
            let mut lcg = c + 1;
            FnStream(move || {
                n += 1;
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Some(match (n % 4, c % 2) {
                    (0, _) => Instr::Compute { count: 3 },
                    (1, 0) if lcg >> 62 == 0 => Instr::Store {
                        addr: (c << 32) + n * 8,
                    },
                    (_, 0) => Instr::Load {
                        addr: (c << 32) + n * 8,
                    },
                    (2, _) => Instr::Branch {
                        mispredict: lcg >> 58 == 0,
                    },
                    _ => Instr::Load {
                        addr: (c << 32) + (lcg >> 24) % (1 << 28),
                    },
                })
            })
        })
        .collect();
    let mut in_flight: VecDeque<(u64, u64)> = VecDeque::with_capacity(4096);

    let mut now = 0u64;
    let mut run_until = |accesses: u64, hier: &mut Hierarchy| {
        while hier.accesses() < accesses {
            while in_flight.front().is_some_and(|&(at, _)| at <= now) {
                let (_, line) = in_flight.pop_front().expect("checked");
                for core in hier.complete_read(line) {
                    cores[core].complete_line(line);
                }
            }
            for (core, stream) in cores.iter_mut().zip(&mut streams) {
                core.tick(stream, hier, now);
            }
            while let Some(r) = hier.pop_read() {
                assert!(in_flight.len() < in_flight.capacity());
                in_flight.push_back((now + 150, r.line));
            }
            while hier.pop_write().is_some() {}
            now += 1;
        }
    };

    run_until(200_000, &mut hier);
    let before = ALLOCATIONS.with(Cell::get);
    run_until(300_000, &mut hier);
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(
        allocated, 0,
        "allocations over 100 000 steady-state accesses"
    );

    let stats = hier.stats();
    assert!(
        stats.mshr_merges > 10_000 && stats.dram_prefetch_reads > 1_000,
        "{stats:?}"
    );
    assert!(stats.dram_writes > 1_000, "{stats:?}");
}
