//! The out-of-order-proxy core model.
//!
//! The model captures exactly what the bandwidth/latency stacks are
//! sensitive to: a finite instruction window (ROB) that bounds memory-level
//! parallelism, retirement that stalls on incomplete loads at the ROB
//! head, stores that never stall (absorbed by the store buffer), branch
//! mispredict bubbles and barrier idling. It does not model register
//! renaming, functional units or speculation beyond that — the paper's
//! stacks depend on request-rate dynamics, not core internals.

use serde::{Deserialize, Serialize};

use crate::cycle_stack::{CycleComponent, CycleStack};
use crate::hierarchy::{AccessResult, Hierarchy};
use crate::instr::{Instr, InstrStream};

/// Core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Reorder-buffer entries (224 — Skylake-like, as in the paper).
    pub rob_entries: usize,
    /// Dispatch/retire width.
    pub width: u32,
    /// Front-end bubble after a mispredicted branch, in core cycles.
    pub mispredict_penalty: u64,
    /// Stall cycles on a DRAM load within this window after issue count as
    /// `dram-latency`; beyond it as `dram-queue` (the uncontended
    /// round-trip time through the hierarchy).
    pub dram_base_window: u64,
}

impl CoreConfig {
    /// The paper's 4-wide, 224-entry-ROB core.
    pub fn paper_default() -> Self {
        CoreConfig {
            rob_entries: 224,
            width: 4,
            mispredict_penalty: 15,
            dram_base_window: 140,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum SlotState {
    /// Can retire.
    Ready,
    /// Ready at the given absolute core cycle (cache hit latency).
    WaitUntil(u64),
    /// Waiting for a DRAM line fill.
    WaitLine(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct RobSlot {
    state: SlotState,
    issued_at: u64,
    /// Dependence chain of a `ChainLoad`, released at completion.
    chain: Option<u8>,
}

/// Serializable state of one [`CoreModel`], captured by
/// [`CoreModel::snapshot_state`] and re-injected by
/// [`CoreModel::restore_state`] into a core built with the same
/// configuration. The `id`/`cfg` are deliberately not part of the state —
/// the simulator-level snapshot validates the whole `SystemConfig` instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreState {
    rob: Vec<RobSlot>,
    /// The lines loads wait on, ascending, each with the sequence numbers
    /// of the waiting ROB slots in dispatch order.
    by_line: Vec<(u64, Vec<u64>)>,
    front_seq: u64,
    next_seq: u64,
    fetch_stall_until: u64,
    pending_compute: u32,
    deferred: Option<Instr>,
    pending_barrier: Option<u32>,
    at_barrier: Option<u32>,
    stream_done: bool,
    stack: CycleStack,
    retired: u64,
    chain_inflight: Vec<u32>,
    mshr_blocked: bool,
}

impl CoreState {
    /// Adds the stall cycles `[start, start + n)` of `kind` that a core
    /// taken off the step loop has not accrued yet (see
    /// [`CoreModel::add_stall_cycles`]), for a snapshot of such a core.
    pub fn add_stall_cycles(&mut self, cfg: &CoreConfig, start: u64, n: u64, kind: StallKind) {
        accrue_stall(&mut self.stack, cfg, start, n, kind);
    }
}

/// The loads of one core waiting on one DRAM line.
#[derive(Debug, Default)]
struct LineWait {
    line: u64,
    /// ROB entry numbers (see [`Rob`]), in dispatch order.
    entries: Vec<u64>,
}

/// One ring entry: a packed [`SlotState`] and the dispatch cycle.
///
/// `word & 3` is the tag. `READY`: a run of `word >> 2` retirable
/// instructions dispatched in the same cycle (compute, stores and branches
/// come four to a cycle, so a run stands for up to `width` slots).
/// `UNTIL`: ready at core cycle `word >> 2`. `LINE`/`CHAIN_LINE`: waiting
/// for the line `word & !63`, the latter holding dependence chain
/// `word >> 2 & 15`.
#[derive(Debug, Clone, Copy, Default)]
struct RobEntry {
    word: u64,
    issued_at: u64,
}

const READY: u64 = 0;
const UNTIL: u64 = 1;
const LINE: u64 = 2;
const CHAIN_LINE: u64 = 3;
/// A `READY` run of one.
const ONE_READY: u64 = 1 << 2 | READY;

impl RobEntry {
    fn tag(self) -> u64 {
        self.word & 3
    }

    /// Whether the head instruction of this entry can retire at `now`.
    fn retirable(self, now: u64) -> bool {
        match self.tag() {
            READY => true,
            UNTIL => self.word >> 2 <= now,
            _ => false,
        }
    }

    /// The instructions this entry stands for, as snapshots carry them.
    fn slots(self) -> impl Iterator<Item = RobSlot> {
        let (state, chain, n) = match self.tag() {
            READY => (SlotState::Ready, None, self.word >> 2),
            UNTIL => (SlotState::WaitUntil(self.word >> 2), None, 1),
            LINE => (SlotState::WaitLine(self.word & !63), None, 1),
            _ => (
                SlotState::WaitLine(self.word & !63),
                Some((self.word >> 2 & 15) as u8),
                1,
            ),
        };
        let slot = RobSlot {
            state,
            issued_at: self.issued_at,
            chain,
        };
        (0..n).map(move |_| slot)
    }
}

/// The reorder buffer: a power-of-two ring of [`RobEntry`]s. Entries are
/// numbered from 0 in push order (`head..tail` are live); an entry's
/// number is what [`LineWait`] remembers, since a run makes instruction
/// sequence numbers and ring positions differ.
#[derive(Debug)]
struct Rob {
    ring: Box<[RobEntry]>,
    mask: u64,
    head: u64,
    tail: u64,
    /// Instructions held (runs counted in full).
    instrs: usize,
}

impl Rob {
    fn new(rob_entries: usize) -> Self {
        let len = rob_entries.next_power_of_two();
        Rob {
            ring: vec![RobEntry::default(); len].into_boxed_slice(),
            mask: len as u64 - 1,
            head: 0,
            tail: 0,
            instrs: 0,
        }
    }

    fn at(&mut self, entry: u64) -> &mut RobEntry {
        &mut self.ring[(entry & self.mask) as usize]
    }

    fn front(&self) -> Option<RobEntry> {
        (self.head != self.tail).then(|| self.ring[(self.head & self.mask) as usize])
    }

    /// Appends `n` retirable instructions dispatched at `now`: one more
    /// entry, or `n` more in the run at the back if it is of the same cycle.
    fn push_ready(&mut self, n: u32, now: u64) {
        self.instrs += n as usize;
        if self.head != self.tail {
            let back = self.at(self.tail - 1);
            if back.tag() == READY && back.issued_at == now {
                back.word += u64::from(n) << 2;
                return;
            }
        }
        self.push_entry(u64::from(n) << 2 | READY, now);
    }

    /// Appends one instruction in state `word` and returns its entry
    /// number.
    fn push_waiting(&mut self, word: u64, now: u64) -> u64 {
        self.instrs += 1;
        self.push_entry(word, now)
    }

    fn push_entry(&mut self, word: u64, now: u64) -> u64 {
        let entry = self.tail;
        *self.at(entry) = RobEntry {
            word,
            issued_at: now,
        };
        self.tail += 1;
        entry
    }

    /// Retires up to `width` instructions retirable at `now`, in order.
    fn retire(&mut self, width: u32, now: u64) -> u32 {
        let mut retired = 0;
        while retired < width && self.head != self.tail {
            let head = self.head;
            let e = self.at(head);
            if !e.retirable(now) {
                break;
            }
            if e.tag() == READY {
                let n = (e.word >> 2).min(u64::from(width - retired));
                e.word -= n << 2;
                retired += n as u32;
                if e.word >> 2 > 0 {
                    break;
                }
            } else {
                retired += 1;
            }
            self.head += 1;
        }
        self.instrs -= retired as usize;
        retired
    }
}

/// The single stack class a stalled core accrues over a skipped span.
///
/// Returned by [`CoreModel::stall_horizon`] and replayed in bulk by
/// [`CoreModel::add_stall_cycles`]. `Dram` carries the head load's issue
/// cycle so the bulk replay can split the span at the
/// [`CoreConfig::dram_base_window`] boundary exactly as per-cycle
/// classification would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Finished or parked at a barrier: idle cycles.
    Idle,
    /// Front-end bubble after a mispredict: branch cycles.
    Branch,
    /// Head waits on a cache-hit latency: d-cache cycles.
    Dcache,
    /// Head waits on a DRAM line fill issued at `issued_at`.
    Dram {
        /// Core cycle the head load entered the ROB.
        issued_at: u64,
    },
}

/// One out-of-order-proxy core.
#[derive(Debug)]
pub struct CoreModel {
    id: usize,
    cfg: CoreConfig,
    rob: Rob,
    /// Lines this core has loads waiting on, each with the ROB entries to
    /// wake: the first `live_waits` are in use, the rest keep their
    /// buffers for reuse. The hierarchy's `l1_mshrs` bounds the live ones,
    /// so finding a line is a short scan.
    waits: Vec<LineWait>,
    live_waits: usize,
    front_seq: u64,
    next_seq: u64,
    fetch_stall_until: u64,
    pending_compute: u32,
    deferred: Option<Instr>,
    pending_barrier: Option<u32>,
    at_barrier: Option<u32>,
    stream_done: bool,
    stack: CycleStack,
    retired: u64,
    chain_inflight: [u32; Instr::MAX_CHAINS],
    /// Dispatch hit `MshrFull`: the deferred access is not retried until a
    /// line completion (the only event that frees an MSHR) wakes the core.
    /// Keeps the retry from hammering the hierarchy every cycle — and makes
    /// the blocked state provable for [`stall_horizon`](Self::stall_horizon).
    mshr_blocked: bool,
}

impl CoreModel {
    /// Creates core number `id`.
    pub fn new(id: usize, cfg: CoreConfig) -> Self {
        CoreModel {
            id,
            cfg,
            rob: Rob::new(cfg.rob_entries),
            waits: Vec::new(),
            live_waits: 0,
            front_seq: 0,
            next_seq: 0,
            fetch_stall_until: 0,
            pending_compute: 0,
            deferred: None,
            pending_barrier: None,
            at_barrier: None,
            stream_done: false,
            stack: CycleStack::new(),
            retired: 0,
            chain_inflight: [0; Instr::MAX_CHAINS],
            mshr_blocked: false,
        }
    }

    /// This core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The cycle stack accumulated so far.
    pub fn stack(&self) -> &CycleStack {
        &self.stack
    }

    /// Snapshots and resets the cycle stack (through-time sampling).
    pub fn take_stack_sample(&mut self) -> CycleStack {
        self.stack.take_sample()
    }

    /// The barrier id this core is parked at, if any.
    pub fn at_barrier(&self) -> Option<u32> {
        self.at_barrier
    }

    /// Releases the core from its barrier.
    ///
    /// # Panics
    ///
    /// Panics if the core is not at a barrier.
    pub fn release_barrier(&mut self) {
        assert!(
            self.at_barrier.is_some(),
            "core {} is not at a barrier",
            self.id
        );
        self.at_barrier = None;
    }

    /// Whether the program ended and every in-flight instruction retired.
    pub fn is_finished(&self) -> bool {
        self.stream_done
            && self.rob.instrs == 0
            && self.deferred.is_none()
            && self.pending_compute == 0
            && self.pending_barrier.is_none()
            && self.at_barrier.is_none()
    }

    /// Busy-path stall horizon: the first core cycle `h > now` at which
    /// [`tick`](Self::tick) could do anything beyond accruing one stack
    /// cycle of the returned [`StallKind`], assuming no external event
    /// (line completion, barrier release) lands in `[now, h)`.
    ///
    /// `None` means the very next tick may retire, dispatch or otherwise
    /// mutate state, so the span cannot be skipped. A horizon of
    /// `u64::MAX` means only an external event ends the stall: a finished
    /// core, a barrier, a full ROB or MSHR file behind a DRAM load.
    pub fn stall_horizon(&self, now: u64) -> Option<(u64, StallKind)> {
        if self.at_barrier.is_some() {
            // Barrier ticks only add idle; release is an external event.
            return Some((u64::MAX, StallKind::Idle));
        }
        if self.is_finished() {
            return if now < self.fetch_stall_until {
                Some((self.fetch_stall_until, StallKind::Branch))
            } else {
                Some((u64::MAX, StallKind::Idle))
            };
        }
        match self.rob.front() {
            Some(head) => {
                // Dispatch must provably do nothing every cycle of the
                // span: either it cannot run (front-end bubble, pending
                // barrier), cannot insert (ROB full), has nothing to
                // insert (drained stream), or its deferred access is held
                // by a block that only a line completion — an external
                // event, hence a span boundary — can release: a full MSHR
                // file, or an in-flight predecessor of the same chain.
                let blocked_deferred = match &self.deferred {
                    None => false,
                    Some(Instr::ChainLoad { chain, .. }) => {
                        self.mshr_blocked
                            || self.chain_inflight[*chain as usize % Instr::MAX_CHAINS] > 0
                    }
                    Some(_) => self.mshr_blocked,
                };
                let dispatch_noop = self.rob.instrs == self.cfg.rob_entries
                    || self.pending_barrier.is_some()
                    || (self.pending_compute == 0
                        && ((self.deferred.is_none() && self.stream_done) || blocked_deferred));
                if !dispatch_noop && now >= self.fetch_stall_until {
                    return None;
                }
                let dispatch_cap = if dispatch_noop {
                    u64::MAX
                } else {
                    self.fetch_stall_until
                };
                match head.tag() {
                    // Head retirable: the next tick retires it.
                    _ if head.retirable(now) => None,
                    UNTIL => Some(((head.word >> 2).min(dispatch_cap), StallKind::Dcache)),
                    _ => Some((
                        dispatch_cap,
                        StallKind::Dram {
                            issued_at: head.issued_at,
                        },
                    )),
                }
            }
            None => {
                // Empty ROB, program not finished: only a front-end bubble
                // with no pending barrier is a pure Branch stretch (the
                // barrier drain transition would fire on the next tick).
                if self.pending_barrier.is_none() && now < self.fetch_stall_until {
                    Some((self.fetch_stall_until, StallKind::Branch))
                } else {
                    None
                }
            }
        }
    }

    /// Bulk equivalent of ticking a stalled core for the `n` cycles
    /// `[start, start + n)` of a span vetted by
    /// [`stall_horizon`](Self::stall_horizon): the only effect of those
    /// ticks is `n` stack cycles of `kind`, with the DRAM wait split at the
    /// base-window boundary exactly as per-cycle classification does.
    pub fn add_stall_cycles(&mut self, start: u64, n: u64, kind: StallKind) {
        accrue_stall(&mut self.stack, &self.cfg, start, n, kind);
    }

    /// A DRAM line arrived: wake every load waiting on it.
    pub fn complete_line(&mut self, line: u64) {
        // A completion for this core may have freed an MSHR: retry the
        // deferred access on the next tick.
        self.mshr_blocked = false;
        let live = &mut self.waits[..self.live_waits];
        let Some(i) = live.iter().position(|w| w.line == line) else {
            return;
        };
        live.swap(i, self.live_waits - 1);
        self.live_waits -= 1;
        let wait = &mut self.waits[self.live_waits];
        for entry in wait.entries.drain(..) {
            debug_assert!(entry >= self.rob.head, "a waiting load cannot retire");
            let e = self.rob.at(entry);
            debug_assert!(e.tag() >= LINE && e.word & !63 == line);
            if e.tag() == CHAIN_LINE {
                self.chain_inflight[(e.word >> 2 & 15) as usize] -= 1;
            }
            e.word = ONE_READY;
        }
    }

    /// Advances the core by one cycle: retire, classify the cycle, dispatch.
    ///
    /// Returns whether the core may be stalled from the next cycle on: the
    /// head of the ROB cannot retire then and dispatch did not end with
    /// width and room to spare. A cheap necessary condition for
    /// [`stall_horizon`](Self::stall_horizon)`(now + 1)` to be `Some`,
    /// so a drive loop knows when asking is worth it.
    pub fn tick(&mut self, stream: &mut dyn InstrStream, hier: &mut Hierarchy, now: u64) -> bool {
        if self.at_barrier.is_some() {
            self.stack.add(CycleComponent::Idle);
            return true;
        }

        let retired_now = self.rob.retire(self.cfg.width, now);
        self.front_seq += u64::from(retired_now);
        self.retired += u64::from(retired_now);

        // Classify this cycle.
        let head = self.rob.front();
        let component = if retired_now > 0 {
            CycleComponent::Base
        } else if let Some(head) = head {
            match head.tag() {
                READY => CycleComponent::Base,
                UNTIL => CycleComponent::Dcache,
                _ if now.saturating_sub(head.issued_at) <= self.cfg.dram_base_window => {
                    CycleComponent::DramBase
                }
                _ => CycleComponent::DramQueue,
            }
        } else if now < self.fetch_stall_until {
            CycleComponent::Branch
        } else if self.stream_done || self.pending_barrier.is_some() {
            CycleComponent::Idle
        } else {
            CycleComponent::Base
        };
        self.stack.add(component);
        let head_blocked = !head.is_some_and(|h| h.retirable(now + 1));

        // Dispatch.
        let mut dispatch_open = false;
        if now >= self.fetch_stall_until && self.pending_barrier.is_none() {
            let dispatched = self.dispatch(stream, hier, now);
            dispatch_open = dispatched == self.cfg.width && self.rob.instrs < self.cfg.rob_entries;
        }

        // Enter the barrier once the pipeline drained.
        if let Some(id) = self.pending_barrier {
            if self.rob.instrs == 0 && self.pending_compute == 0 && self.deferred.is_none() {
                self.pending_barrier = None;
                self.at_barrier = Some(id);
            }
        }
        head_blocked && !dispatch_open
    }

    /// Dispatches up to `width` instructions; returns how many entered the
    /// ROB.
    fn dispatch(&mut self, stream: &mut dyn InstrStream, hier: &mut Hierarchy, now: u64) -> u32 {
        if self.mshr_blocked {
            debug_assert!(self.deferred.is_some());
            return 0;
        }
        let mut dispatched = 0;
        while dispatched < self.cfg.width && self.rob.instrs < self.cfg.rob_entries {
            if self.pending_compute > 0 {
                let room = (self.cfg.rob_entries - self.rob.instrs) as u32;
                let n = self
                    .pending_compute
                    .min(self.cfg.width - dispatched)
                    .min(room);
                self.pending_compute -= n;
                self.push_ready(n, now);
                dispatched += n;
                continue;
            }
            let instr = match self.deferred.take() {
                Some(i) => i,
                None => {
                    if self.stream_done || self.pending_barrier.is_some() {
                        break;
                    }
                    match stream.next_instr() {
                        Some(i) => i,
                        None => {
                            self.stream_done = true;
                            break;
                        }
                    }
                }
            };
            match instr {
                Instr::Compute { count } => {
                    self.pending_compute = count;
                }
                Instr::Load { addr } | Instr::ChainLoad { addr, .. } => {
                    let chain = match instr {
                        Instr::ChainLoad { chain, .. } => Some(chain as usize % Instr::MAX_CHAINS),
                        _ => None,
                    };
                    if chain.is_some_and(|c| self.chain_inflight[c] > 0) {
                        // The previous load of this chain still owns the
                        // address — dependence stalls dispatch.
                        self.deferred = Some(instr);
                        break;
                    }
                    match hier.access(self.id, addr, false, now) {
                        AccessResult::Hit { ready_at } => {
                            self.push_waiting(ready_at << 2 | UNTIL, now);
                        }
                        AccessResult::Miss => {
                            let line = addr & !63;
                            let word = match chain {
                                Some(c) => {
                                    self.chain_inflight[c] += 1;
                                    line | (c as u64) << 2 | CHAIN_LINE
                                }
                                None => line | LINE,
                            };
                            let entry = self.push_waiting(word, now);
                            self.wait_on(line, entry);
                        }
                        AccessResult::MshrFull => {
                            self.deferred = Some(instr);
                            self.mshr_blocked = true;
                            break;
                        }
                    }
                    dispatched += 1;
                }
                Instr::Store { addr } => match hier.access(self.id, addr, true, now) {
                    AccessResult::Hit { .. } | AccessResult::Miss => {
                        // Stores retire immediately (store buffer).
                        self.push_ready(1, now);
                        dispatched += 1;
                    }
                    AccessResult::MshrFull => {
                        self.deferred = Some(instr);
                        self.mshr_blocked = true;
                        break;
                    }
                },
                Instr::Branch { mispredict } => {
                    self.push_ready(1, now);
                    dispatched += 1;
                    if mispredict {
                        self.fetch_stall_until = now + self.cfg.mispredict_penalty;
                        break;
                    }
                }
                Instr::Barrier { id } => {
                    self.pending_barrier = Some(id);
                    break;
                }
            }
        }
        dispatched
    }

    fn push_ready(&mut self, n: u32, now: u64) {
        self.next_seq += u64::from(n);
        self.rob.push_ready(n, now);
    }

    fn push_waiting(&mut self, word: u64, now: u64) -> u64 {
        self.next_seq += 1;
        self.rob.push_waiting(word, now)
    }

    /// Records that ROB entry `entry` waits for `line`.
    fn wait_on(&mut self, line: u64, entry: u64) {
        let live = &mut self.waits[..self.live_waits];
        let i = match live.iter().position(|w| w.line == line) {
            Some(i) => i,
            None => {
                if self.live_waits == self.waits.len() {
                    self.waits.push(LineWait::default());
                }
                self.waits[self.live_waits].line = line;
                self.live_waits += 1;
                self.live_waits - 1
            }
        };
        self.waits[i].entries.push(entry);
    }

    /// Captures this core's full architectural state.
    pub fn snapshot_state(&self) -> CoreState {
        // Expand the runs, remembering each entry's first sequence number.
        let mut rob = Vec::with_capacity(self.rob.instrs);
        let mut first_seq = Vec::with_capacity((self.rob.tail - self.rob.head) as usize);
        for entry in self.rob.head..self.rob.tail {
            first_seq.push(self.front_seq + rob.len() as u64);
            rob.extend(self.rob.ring[(entry & self.rob.mask) as usize].slots());
        }
        let mut by_line: Vec<(u64, Vec<u64>)> = self.waits[..self.live_waits]
            .iter()
            .map(|w| {
                let seqs = w.entries.iter();
                (
                    w.line,
                    seqs.map(|e| first_seq[(e - self.rob.head) as usize])
                        .collect(),
                )
            })
            .collect();
        by_line.sort_unstable_by_key(|(line, _)| *line);
        CoreState {
            rob,
            by_line,
            front_seq: self.front_seq,
            next_seq: self.next_seq,
            fetch_stall_until: self.fetch_stall_until,
            pending_compute: self.pending_compute,
            deferred: self.deferred,
            pending_barrier: self.pending_barrier,
            at_barrier: self.at_barrier,
            stream_done: self.stream_done,
            stack: self.stack,
            retired: self.retired,
            chain_inflight: self.chain_inflight.to_vec(),
            mshr_blocked: self.mshr_blocked,
        }
    }

    /// Restores state captured by [`snapshot_state`](Self::snapshot_state)
    /// into this core. The target must have been built with the same
    /// configuration the snapshot was taken under.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's chain table width does not match
    /// [`Instr::MAX_CHAINS`], its ROB does not fit this core's, or a waiter
    /// names a sequence number outside the ROB.
    pub fn restore_state(&mut self, state: &CoreState) {
        assert_eq!(
            state.chain_inflight.len(),
            Instr::MAX_CHAINS,
            "core snapshot chain table width mismatch"
        );
        assert!(
            state.rob.len() <= self.cfg.rob_entries,
            "core snapshot holds {} ROB slots, this core {}",
            state.rob.len(),
            self.cfg.rob_entries
        );
        self.rob = Rob::new(self.cfg.rob_entries);
        let entry_of: Vec<u64> = state
            .rob
            .iter()
            .map(|slot| match (slot.state, slot.chain) {
                (SlotState::Ready, _) => {
                    self.rob.push_ready(1, slot.issued_at);
                    self.rob.tail - 1
                }
                (SlotState::WaitUntil(t), _) => {
                    self.rob.push_waiting(t << 2 | UNTIL, slot.issued_at)
                }
                (SlotState::WaitLine(line), None) => {
                    self.rob.push_waiting(line | LINE, slot.issued_at)
                }
                (SlotState::WaitLine(line), Some(c)) => self
                    .rob
                    .push_waiting(line | u64::from(c & 15) << 2 | CHAIN_LINE, slot.issued_at),
            })
            .collect();
        self.waits.iter_mut().for_each(|w| w.entries.clear());
        self.live_waits = 0;
        for (line, seqs) in &state.by_line {
            for seq in seqs {
                self.wait_on(*line, entry_of[(seq - state.front_seq) as usize]);
            }
        }
        self.front_seq = state.front_seq;
        self.next_seq = state.next_seq;
        self.fetch_stall_until = state.fetch_stall_until;
        self.pending_compute = state.pending_compute;
        self.deferred = state.deferred;
        self.pending_barrier = state.pending_barrier;
        self.at_barrier = state.at_barrier;
        self.stream_done = state.stream_done;
        self.stack = state.stack;
        self.retired = state.retired;
        self.chain_inflight.copy_from_slice(&state.chain_inflight);
        self.mshr_blocked = state.mshr_blocked;
    }
}

/// Adds the `n` stall cycles `[start, start + n)` of `kind` to `stack`,
/// splitting a DRAM wait at the base-window boundary exactly as per-cycle
/// classification does.
fn accrue_stall(stack: &mut CycleStack, cfg: &CoreConfig, start: u64, n: u64, kind: StallKind) {
    match kind {
        StallKind::Idle => stack.add_n(CycleComponent::Idle, n),
        StallKind::Branch => stack.add_n(CycleComponent::Branch, n),
        StallKind::Dcache => stack.add_n(CycleComponent::Dcache, n),
        StallKind::Dram { issued_at } => {
            // Cycle c is DramBase while c - issued_at <= window, so the
            // first DramQueue cycle is issued_at + window + 1.
            let boundary = issued_at + cfg.dram_base_window + 1;
            let base = boundary.saturating_sub(start).min(n);
            if base > 0 {
                stack.add_n(CycleComponent::DramBase, base);
            }
            if n > base {
                stack.add_n(CycleComponent::DramQueue, n - base);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::hierarchy::HierarchyConfig;
    use crate::instr::VecStream;
    use crate::prefetch::PrefetchConfig;

    fn hierarchy() -> Hierarchy {
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
            prefetch_outstanding: 0,
            prefetch: PrefetchConfig {
                streams: 2,
                degree: 0,
                distance: 1,
                confidence: 99,
            },
        };
        Hierarchy::new(1, cfg)
    }

    /// Runs the core, completing every DRAM read after `mem_latency` cycles.
    fn run(
        core: &mut CoreModel,
        stream: &mut VecStream,
        hier: &mut Hierarchy,
        mem_latency: u64,
        max_cycles: u64,
    ) -> u64 {
        let mut pending: Vec<(u64, u64)> = Vec::new(); // (done_at, line)
        for now in 0..max_cycles {
            core.tick(stream, hier, now);
            while let Some(r) = hier.pop_read() {
                pending.push((now + mem_latency, r.line));
            }
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0 <= now {
                    let (_, line) = pending.swap_remove(i);
                    for c in hier.complete_read(line) {
                        let _ = c;
                        core.complete_line(line);
                    }
                } else {
                    i += 1;
                }
            }
            if core.is_finished() {
                return now;
            }
        }
        panic!("core did not finish in {max_cycles} cycles");
    }

    #[test]
    fn compute_only_retires_at_full_width() {
        let mut core = CoreModel::new(0, CoreConfig::paper_default());
        let mut stream = VecStream::new(vec![Instr::Compute { count: 400 }]);
        let mut h = hierarchy();
        let end = run(&mut core, &mut stream, &mut h, 10, 10_000);
        assert_eq!(core.retired(), 400);
        // 4-wide: ~100 cycles plus small pipeline ramp.
        assert!(end <= 110, "took {end} cycles");
        assert!(core.stack().fraction(CycleComponent::Base) > 0.9);
    }

    #[test]
    fn load_miss_stalls_and_classifies_dram() {
        let mut core = CoreModel::new(0, CoreConfig::paper_default());
        let mut stream = VecStream::new(vec![Instr::Load { addr: 0x10_0000 }]);
        let mut h = hierarchy();
        run(&mut core, &mut stream, &mut h, 300, 10_000);
        // Waited ~300 cycles: some within the base window, the rest queue.
        assert!(core.stack().cycles(CycleComponent::DramBase) > 0);
        assert!(core.stack().cycles(CycleComponent::DramQueue) > 0);
    }

    #[test]
    fn independent_loads_overlap_mlp() {
        // 4 independent miss loads with a 200-cycle memory: MLP-limited
        // (4 MSHRs) so total time ≈ one latency, not four.
        let mut core = CoreModel::new(0, CoreConfig::paper_default());
        let loads: Vec<_> = (0..4)
            .map(|i| Instr::Load {
                addr: 0x100_0000 + i * 0x1_0000,
            })
            .collect();
        let mut stream = VecStream::new(loads);
        let mut h = hierarchy();
        let end = run(&mut core, &mut stream, &mut h, 200, 10_000);
        assert!(end < 2 * 200, "MLP should overlap misses: took {end}");
    }

    #[test]
    fn stores_do_not_stall_retirement() {
        let mut core = CoreModel::new(0, CoreConfig::paper_default());
        let mut stream = VecStream::new(vec![
            Instr::Store { addr: 0x20_0000 },
            Instr::Compute { count: 8 },
        ]);
        let mut h = hierarchy();
        let end = run(&mut core, &mut stream, &mut h, 500, 10_000);
        // Finishes long before the 500-cycle fill would allow if stalled…
        // except is_finished also waits for nothing: stores retire at once.
        assert!(end < 50, "stores must not stall: took {end}");
        assert_eq!(core.retired(), 9);
    }

    #[test]
    fn mispredicted_branch_costs_a_bubble() {
        let mut core = CoreModel::new(0, CoreConfig::paper_default());
        let mut stream = VecStream::new(vec![
            Instr::Compute { count: 4 },
            Instr::Branch { mispredict: true },
            Instr::Compute { count: 4 },
        ]);
        let mut h = hierarchy();
        run(&mut core, &mut stream, &mut h, 10, 1_000);
        assert!(core.stack().cycles(CycleComponent::Branch) >= 10);
    }

    #[test]
    fn barrier_parks_the_core() {
        let mut core = CoreModel::new(0, CoreConfig::paper_default());
        let mut stream =
            VecStream::new(vec![Instr::Compute { count: 2 }, Instr::Barrier { id: 1 }]);
        let mut h = hierarchy();
        for now in 0..100 {
            core.tick(&mut stream, &mut h, now);
        }
        assert_eq!(core.at_barrier(), Some(1));
        assert!(!core.is_finished());
        assert!(core.stack().cycles(CycleComponent::Idle) > 50);
        core.release_barrier();
        for now in 100..110 {
            core.tick(&mut stream, &mut h, now);
        }
        assert!(core.is_finished());
    }

    #[test]
    fn rob_bounds_outstanding_work() {
        let cfg = CoreConfig {
            rob_entries: 8,
            ..CoreConfig::paper_default()
        };
        let mut core = CoreModel::new(0, cfg);
        let mut stream = VecStream::new(vec![Instr::Compute { count: 100 }]);
        let mut h = hierarchy();
        core.tick(&mut stream, &mut h, 0);
        assert!(core.rob.instrs <= 8);
    }

    #[test]
    fn chain_loads_serialize_within_a_chain() {
        // 4 chain loads in ONE chain, 200-cycle memory: must take ~4 × 200.
        let mut core = CoreModel::new(0, CoreConfig::paper_default());
        let loads: Vec<_> = (0..4)
            .map(|i| Instr::ChainLoad {
                addr: 0x100_0000 + i * 0x1_0000,
                chain: 0,
            })
            .collect();
        let mut stream = VecStream::new(loads);
        let mut h = hierarchy();
        let end = run(&mut core, &mut stream, &mut h, 200, 10_000);
        assert!(end >= 4 * 200, "dependent chain must serialize: took {end}");
    }

    #[test]
    fn chain_loads_in_different_chains_overlap() {
        let mut core = CoreModel::new(0, CoreConfig::paper_default());
        let loads: Vec<_> = (0..4u64)
            .map(|i| Instr::ChainLoad {
                addr: 0x100_0000 + i * 0x1_0000,
                chain: i as u8,
            })
            .collect();
        let mut stream = VecStream::new(loads);
        let mut h = hierarchy();
        let end = run(&mut core, &mut stream, &mut h, 200, 10_000);
        assert!(end < 2 * 200, "independent chains overlap: took {end}");
    }

    #[test]
    fn l2_hit_stall_counts_as_dcache() {
        let mut core = CoreModel::new(0, CoreConfig::paper_default());
        // Miss to DRAM first, then (after finishing) the same line is in
        // L1; a *different* line in the same L2 set… simplest: one load,
        // complete it, then re-load a line that L1 evicted but L2 kept.
        let mut stream = VecStream::new(vec![Instr::Load { addr: 0 }]);
        let mut h = hierarchy();
        run(&mut core, &mut stream, &mut h, 100, 10_000);
        // L1 is 4 sets × 2 ways: lines 0x000,0x100,0x200 alias to set 0.
        // Fill two more lines one at a time (fresh cores, shared caches),
        // evicting line 0 from L1 while L2 keeps it.
        for addr in [0x100u64, 0x200] {
            let mut c = CoreModel::new(0, CoreConfig::paper_default());
            let mut s = VecStream::new(vec![Instr::Load { addr }]);
            run(&mut c, &mut s, &mut h, 100, 10_000);
        }
        let mut c = CoreModel::new(0, CoreConfig::paper_default());
        let mut s = VecStream::new(vec![Instr::Load { addr: 0x0 }]);
        run(&mut c, &mut s, &mut h, 100, 10_000);
        assert!(
            c.stack().cycles(CycleComponent::Dcache) > 0,
            "{:?}",
            c.stack()
        );
    }
}
