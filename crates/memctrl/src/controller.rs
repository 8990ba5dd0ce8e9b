//! The memory controller: queues, scheduling, refresh orchestration,
//! write-burst draining and per-request latency attribution.

use std::cell::Cell;

use serde::{Deserialize, Serialize};

use dramstack_dram::{
    BankActivity, BankAddr, BankState, BlockLevel, BlockReason, Command, CommandKind, Cycle,
    CycleView, DeviceConfig, DramDevice, Earliest, SeededFault, TimedCommand,
};
use dramstack_obs::{NullProbe, Probe};

use crate::mapping::{AddressMapping, MappingScheme};
use crate::policy::{PagePolicy, SchedulerPolicy};
use crate::queue::{bits, BankedQueue, MAX_BANKS, NONE};
use crate::request::{CompletedRead, LatencyBreakdown, QueueEntry, RequestId};
use crate::stats::{CtrlStats, CtrlWork};
use crate::timing::{Class, TimingTable};
use crate::waits::WaitTotals;

/// Memory-controller configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CtrlConfig {
    /// The DRAM channel behind this controller.
    pub device: DeviceConfig,
    /// Address-mapping scheme (Fig. 5 of the paper).
    pub mapping: MappingScheme,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Request scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Read-queue capacity.
    pub read_queue_cap: usize,
    /// Write-queue capacity (32 in the paper; 128 in the Fig. 8 variant).
    pub write_queue_cap: usize,
    /// Enter write-drain mode at this write-queue occupancy.
    pub wq_high: usize,
    /// Leave write-drain mode at this occupancy.
    pub wq_low: usize,
    /// Fixed controller pipeline overhead added to every read, in DRAM
    /// cycles (the `base-cntlr` latency component).
    pub ctrl_overhead: Cycle,
}

impl CtrlConfig {
    /// The paper's configuration: DDR4-2400, FR-FCFS, open page, default
    /// mapping, 32-entry write queue.
    pub fn paper_default() -> Self {
        CtrlConfig {
            device: DeviceConfig::ddr4_2400(),
            mapping: MappingScheme::RowBankColumn,
            page_policy: PagePolicy::Open,
            scheduler: SchedulerPolicy::FrFcfs,
            read_queue_cap: 64,
            write_queue_cap: 32,
            wq_high: 28,
            wq_low: 8,
            ctrl_overhead: 30,
        }
    }

    /// Scales the write-queue watermarks when the capacity changes, keeping
    /// the paper's 28/32 and 8/32 ratios.
    pub fn with_write_queue(mut self, cap: usize) -> Self {
        self.write_queue_cap = cap;
        self.wq_high = cap * 7 / 8;
        self.wq_low = cap / 4;
        self
    }
}

impl Default for CtrlConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A read whose CAS has issued; data arrives at `done_at`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct InFlightRead {
    id: RequestId,
    meta: u64,
    phys: u64,
    arrival: Cycle,
    done_at: Cycle,
    preact: Cycle,
    refresh_wait: Cycle,
    writeburst_wait: Cycle,
    queue_wait: Cycle,
}

/// Serializable image of one controller's full simulation state, as
/// captured by [`MemoryController::snapshot_state`]. Attachments (probes,
/// the command trace) are not part of it; the per-bank queue summaries and
/// the address decoder are derived state, rebuilt on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CtrlSnapshot {
    device: dramstack_dram::DeviceSnapshot,
    read_q: Vec<QueueEntry>,
    write_q: Vec<QueueEntry>,
    in_flight: Vec<InFlightRead>,
    completions: Vec<CompletedRead>,
    drain_mode: bool,
    refresh_draining: bool,
    next_id: u64,
    stats: CtrlStats,
    cas_this_cycle: Option<bool>,
    issued_this_cycle: bool,
}

/// One DRAM memory controller and its channel.
#[derive(Debug)]
pub struct MemoryController {
    cfg: CtrlConfig,
    device: DramDevice,
    map: AddressMapping,
    read_q: BankedQueue,
    write_q: BankedQueue,
    in_flight: Vec<InFlightRead>,
    completions: Vec<CompletedRead>,
    /// True while draining the write queue (a "write burst").
    drain_mode: bool,
    /// True while stopping traffic so an overdue refresh can issue.
    refresh_draining: bool,
    next_id: u64,
    stats: CtrlStats,
    /// When enabled, every issued command is recorded for offline stack
    /// construction (the paper's hardware-trace workflow).
    trace_enabled: bool,
    trace: Vec<TimedCommand>,
    /// Observation sink. Probes receive copies of events and cannot steer
    /// the simulation; with the default [`NullProbe`] every hook inlines
    /// to nothing and `probe_active` gates the per-cycle call sites.
    probe: Box<dyn Probe>,
    probe_active: bool,
    /// Row-hit flag of the CAS issued this cycle (if any), exported via
    /// [`CycleView::cas_hit`] for per-window row-hit-rate sampling.
    cas_this_cycle: Option<bool>,
    /// Whether the last tick issued *any* command (ACT/PRE/CAS/REF). A
    /// candidate that merely lost arbitration to it becomes issuable the
    /// very next cycle, so [`stall_horizon`](Self::stall_horizon) must not
    /// skip past that cycle.
    issued_this_cycle: bool,
    /// The device's `earliest_*` answers, kept until an event moves them.
    timing: TimingTable,
    /// Running latency-attribution totals the queued reads' baselines
    /// are measured from. Not simulation state: a snapshot holds settled
    /// entries and a restore starts the totals over.
    waits: WaitTotals,
    /// `base_dram` of every read: CL + burst of the configured timing.
    base_read_cycles: Cycle,
    /// Host-side work counters (`Cell`: the query passes take `&self`).
    work: Cell<CtrlWork>,
}

impl MemoryController {
    /// Creates a controller over a fresh DRAM device.
    ///
    /// # Panics
    ///
    /// Panics if the device configuration is invalid.
    pub fn new(cfg: CtrlConfig) -> Self {
        let device = DramDevice::new(cfg.device);
        let map = AddressMapping::new(cfg.device.geometry, cfg.mapping);
        assert!(
            device.geometry().total_banks() as usize <= MAX_BANKS,
            "at most {MAX_BANKS} banks per controller"
        );
        MemoryController {
            base_read_cycles: device.timing().base_read_cycles(),
            cfg,
            device,
            map,
            read_q: BankedQueue::new(),
            write_q: BankedQueue::new(),
            in_flight: Vec::new(),
            completions: Vec::new(),
            drain_mode: false,
            refresh_draining: false,
            next_id: 0,
            stats: CtrlStats::default(),
            trace_enabled: false,
            trace: Vec::new(),
            probe: Box::new(NullProbe),
            probe_active: false,
            cas_this_cycle: None,
            issued_this_cycle: false,
            timing: TimingTable::new(),
            waits: WaitTotals::new(),
            work: Cell::new(CtrlWork::default()),
        }
    }

    /// Does nothing: the controller has one scheduler, and its full-queue
    /// `*_scan` forms run only as debug-build cross-checks. Kept for the
    /// benchmark's one remaining caller.
    #[doc(hidden)]
    pub fn set_busy_engine(&mut self, _on: bool) {}

    /// Attaches an observation probe; it receives every controller event
    /// until [`take_probe`](Self::take_probe). Attaching a probe never
    /// changes simulation results.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probe = probe;
        self.probe_active = true;
    }

    /// Detaches the current probe (replacing it with [`NullProbe`]) and
    /// returns it.
    pub fn take_probe(&mut self) -> Box<dyn Probe> {
        self.probe_active = false;
        std::mem::replace(&mut self.probe, Box::new(NullProbe))
    }

    /// Whether a probe is attached.
    pub fn probe_attached(&self) -> bool {
        self.probe_active
    }

    /// Starts recording every issued DRAM command (see
    /// [`take_command_trace`](Self::take_command_trace)).
    pub fn enable_command_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// Returns and clears the recorded command trace.
    pub fn take_command_trace(&mut self) -> Vec<TimedCommand> {
        std::mem::take(&mut self.trace)
    }

    /// The controller configuration.
    pub fn config(&self) -> &CtrlConfig {
        &self.cfg
    }

    /// Number of banks behind this controller (the `CycleView` width).
    pub fn total_banks(&self) -> usize {
        self.device.geometry().total_banks() as usize
    }

    /// The address decoder in use.
    pub fn mapping(&self) -> &AddressMapping {
        &self.map
    }

    /// The DRAM device (for inspection).
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Injects a seeded bookkeeping fault into the device timing
    /// enforcement (see [`SeededFault`]). The scheduler keeps believing
    /// the corrupted timing, so commands issue early without tripping any
    /// model-internal check — only an attached protocol auditor can tell.
    /// Chaos/audit harness only.
    pub fn inject_fault(&mut self, fault: SeededFault) {
        self.device.inject_fault(fault);
        self.timing.clear();
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CtrlStats {
        self.stats
    }

    /// Host-side work counters since construction (see [`CtrlWork`]).
    pub fn work(&self) -> CtrlWork {
        self.work.get()
    }

    /// Adds to the timing-query and visited-entry work counters; a pass
    /// tallies locally and calls this once.
    fn count(&self, queries: u64, visited: usize) {
        let mut w = self.work.get();
        w.timing_queries += queries;
        w.queue_entries_visited += visited as u64;
        self.work.set(w);
    }

    /// Whether the read queue has space.
    pub fn can_accept_read(&self) -> bool {
        self.read_q.len() < self.cfg.read_queue_cap
    }

    /// Whether the write queue has space.
    pub fn can_accept_write(&self) -> bool {
        self.write_q.len() < self.cfg.write_queue_cap
    }

    /// Whether anything is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty() && self.in_flight.is_empty()
    }

    /// Enqueues a read for physical line address `phys`. `meta` is returned
    /// untouched in the completion (e.g. an MSHR index).
    ///
    /// # Panics
    ///
    /// Panics if the read queue is full; check
    /// [`can_accept_read`](Self::can_accept_read) first.
    pub fn enqueue_read(&mut self, phys: u64, meta: u64) -> RequestId {
        assert!(self.can_accept_read(), "read queue full");
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let addr = self.map.decode(phys);
        // The sim enqueues between ticks, so the arrival cycle is not
        // known here: `Cycle::MAX` marks the entry unstamped until the
        // next tick observes it.
        let flat = self.device.geometry().flat_bank(addr.bank);
        let e = QueueEntry::new(id, meta, phys, addr, Cycle::MAX);
        self.read_q.push(e, flat, self.device.open_row(flat));
        self.stats.reads_accepted += 1;
        if self.probe_active {
            self.probe.request_accepted(id.0, phys, false);
        }
        id
    }

    /// Enqueues a writeback for physical line address `phys`.
    ///
    /// # Panics
    ///
    /// Panics if the write queue is full; check
    /// [`can_accept_write`](Self::can_accept_write) first.
    pub fn enqueue_write(&mut self, phys: u64) -> RequestId {
        assert!(self.can_accept_write(), "write queue full");
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let addr = self.map.decode(phys);
        let flat = self.device.geometry().flat_bank(addr.bank);
        let e = QueueEntry::new(id, 0, phys, addr, Cycle::MAX);
        self.write_q.push(e, flat, self.device.open_row(flat));
        self.stats.writes_accepted += 1;
        if self.probe_active {
            self.probe.request_accepted(id.0, phys, true);
        }
        id
    }

    /// Completed reads since the last drain.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, CompletedRead> {
        self.completions.drain(..)
    }

    /// Moves completed reads into `out` (appending), leaving the internal
    /// buffer empty but with its capacity intact. Allocation-free variant
    /// of [`drain_completions`](Self::drain_completions) for per-cycle hot
    /// loops that reuse a scratch buffer.
    pub fn take_completions_into(&mut self, out: &mut Vec<CompletedRead>) {
        out.append(&mut self.completions);
    }

    /// Busy-path stall horizon: called with `now` = the last ticked cycle,
    /// returns `Some(h)` when ticks at every cycle `t` in `(now, h)` are
    /// provably pure bookkeeping — no command issues, no completion lands,
    /// no refresh or drain threshold trips, and the `CycleView` equals the
    /// one the tick at `now` produced. Those ticks can then be replayed in
    /// bulk by [`apply_stall_span`](Self::apply_stall_span) plus span-based
    /// sampler accounting — stalled-but-busy spans (saturated bus backlog,
    /// tRFC shadows, tFAW windows, write-drain turnarounds) and, with
    /// nothing queued, the idle stretch up to the next refresh.
    ///
    /// `h` is capped by every cycle at which the frozen state could act:
    /// the next in-flight completion, refresh deadline or refresh end,
    /// bank PRE/ACT/auto-PRE transition, data-bus burst edge, and each
    /// queued request's own next-legal issue cycle for the command class
    /// it currently needs. Requests already issuable stay blocked for the
    /// whole span precisely because the tick at `now` issued *nothing* —
    /// so they are held by a structural block (drain mode, a pending row
    /// hit, per-bank ordering) whose release is itself capped by `h`. A
    /// tick that issued any command disqualifies the span outright: a
    /// candidate that lost only the one-command-per-cycle arbitration is
    /// free again at `now + 1`.
    pub fn stall_horizon(&self, now: Cycle) -> Option<Cycle> {
        // O(1) disqualifiers first: a refresh drain is on, a completion
        // is undelivered, `now` issued a command, or a probe watches every
        // tick.
        if self.refresh_draining
            || !self.completions.is_empty()
            || self.issued_this_cycle
            || (self.probe_active && self.probe.wants_ticks())
        {
            return None;
        }
        debug_assert!(self.cas_this_cycle.is_none());
        // A span needs at least one skippable cycle between `now` and the
        // wake tick at `h`, so each cap is followed by an early bail once
        // `h` drops below `now + 2` — the cheap O(1) caps usually decide
        // before the walk over banks with work is paid.
        let floor = now.saturating_add(2);
        let mut h = self.device.next_bus_boundary(now);
        h = h.min(self.device.next_bank_transition(now));
        if h < floor {
            return None;
        }
        for r in 0..self.device.geometry().ranks {
            let end = self.device.refresh_end(r);
            if end > now {
                h = h.min(end);
            }
            let due = self.device.next_refresh_at(r);
            if due > now {
                h = h.min(due);
            } else if !self.device.is_refreshing(r, now) {
                // An overdue refresh without the drain flag set should be
                // impossible after a tick; refuse to skip if it happens.
                return None;
            }
        }
        if h < floor {
            return None;
        }
        for f in &self.in_flight {
            if f.done_at <= now {
                return None; // undelivered completion
            }
            h = h.min(f.done_at);
        }
        if h < floor {
            return None;
        }
        if !self.read_q.all_stamped() || !self.write_q.all_stamped() {
            return None; // the pump enqueued since the tick at `now`
        }
        // The tick at `now` issued nothing, so the answers its passes left
        // in the timing table still hold and most lookups are free.
        let in_time = [false, true].into_iter().all(|writes| {
            self.visit_waiting(writes, now, |_, _, earliest| {
                if earliest.at > now {
                    h = h.min(earliest.at);
                }
                h >= floor
            })
        });
        in_time.then_some(h)
    }

    /// Bulk replay of the per-tick bookkeeping for the `n` skipped cycles
    /// `(now, now + n]` of a span vetted by
    /// [`stall_horizon`](Self::stall_horizon): drain-cycle statistics and
    /// the latency attribution of the waiting reads, all of which are
    /// constant across the span by the horizon's construction.
    pub fn apply_stall_span(&mut self, now: Cycle, n: u64) {
        if self.drain_mode {
            self.stats.drain_cycles += n;
        }
        let refreshing = self.refresh_draining || self.is_any_rank_refreshing(now);
        let (pre, act) = self.transitioning_banks(now);
        self.attribute_waits(n, refreshing, pre | act);
    }

    /// Latency attribution for reads still waiting in the queue, for `n`
    /// identical cycles. Every waiting cycle is charged to exactly one
    /// component — write drain, refresh, a PRE/ACT this entry caused (its
    /// bank is in `transitioning`), or plain queueing — so the final
    /// breakdown sums to the measured service time with no clamped
    /// residual (audited by `conserve::check_read`). Which component is a
    /// property of the cycle, so the cycle is added to a running total
    /// and each read's share is a difference settled when the read leaves
    /// the queue or a snapshot copies it (see [`WaitTotals`]).
    fn attribute_waits(&mut self, n: u64, refreshing: bool, transitioning: u64) {
        self.waits
            .add(n, self.drain_mode, refreshing, transitioning);
        #[cfg(debug_assertions)]
        self.read_q
            .shadow_attribute(n, self.drain_mode, refreshing, transitioning);
    }

    // ---- checkpoint/restore --------------------------------------------------------

    /// Captures the full simulation state of this controller and its
    /// device. Probes and the command trace are attachments and are not
    /// captured; reattach them after [`restore_state`](Self::restore_state).
    /// The queued reads are copied with their wait counters settled, so
    /// the image does not depend on how attribution is kept.
    pub fn snapshot_state(&self) -> CtrlSnapshot {
        let reads = 0..self.read_q.len();
        CtrlSnapshot {
            device: self.device.snapshot_state(),
            read_q: reads.map(|i| self.read_q.settled(i, &self.waits)).collect(),
            write_q: self.write_q.entries().to_vec(),
            in_flight: self.in_flight.clone(),
            completions: self.completions.clone(),
            drain_mode: self.drain_mode,
            refresh_draining: self.refresh_draining,
            next_id: self.next_id,
            stats: self.stats,
            cas_this_cycle: self.cas_this_cycle,
            issued_this_cycle: self.issued_this_cycle,
        }
    }

    /// Restores state captured by [`snapshot_state`](Self::snapshot_state)
    /// into a controller built from the same configuration. The per-bank
    /// queue summaries are rebuilt from the restored queues, the timing
    /// tables (the device's and the controller's) are invalidated and the
    /// attribution totals start over from the settled counters the
    /// entries carry, so subsequent scheduling and attribution are
    /// bit-identical to an uninterrupted run.
    /// Controller time is monotonic: the first `tick` after a restore must
    /// be at or past the cycle the snapshot was taken.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's geometry does not match this controller's
    /// configuration.
    pub fn restore_state(&mut self, snap: &CtrlSnapshot) {
        self.device.restore_state(&snap.device);
        self.timing.clear();
        self.waits = WaitTotals::new();
        let (g, device) = (*self.device.geometry(), &self.device);
        let rebuild = |entries| {
            BankedQueue::rebuild(
                entries,
                |e| g.flat_bank(e.addr.bank),
                |flat| device.open_row(flat),
            )
        };
        self.read_q = rebuild(&snap.read_q);
        self.write_q = rebuild(&snap.write_q);
        self.in_flight = snap.in_flight.clone();
        self.completions = snap.completions.clone();
        self.drain_mode = snap.drain_mode;
        self.refresh_draining = snap.refresh_draining;
        self.next_id = snap.next_id;
        self.stats = snap.stats;
        self.cas_this_cycle = snap.cas_this_cycle;
        self.issued_this_cycle = snap.issued_this_cycle;
    }

    /// Advances the controller by one DRAM cycle: issues at most one
    /// command, tracks latency components, collects completions and fills
    /// `view` with this cycle's classification inputs for the bandwidth
    /// stack.
    pub fn tick(&mut self, now: Cycle, view: &mut CycleView) {
        let mut w = self.work.get();
        w.ticks += 1;
        self.work.set(w);
        self.device.advance(now);
        for &flat in self.device.auto_precharged() {
            self.timing.bank_moved(flat);
            self.read_q.reclassify(flat, None);
            self.write_q.reclassify(flat, None);
        }
        self.stamp_arrivals(now);
        self.cas_this_cycle = None;
        self.issued_this_cycle = false;
        // Start-of-cycle queue occupancy, exported through the view for
        // per-window sampling regardless of what issues below.
        let read_q_depth = self.read_q.len();
        let write_q_depth = self.write_q.len();

        // Refresh orchestration: when a refresh falls due, stop normal
        // traffic on that rank, close open banks, then issue REF.
        let ranks = self.device.geometry().ranks;
        if !self.refresh_draining {
            for r in 0..ranks {
                if self.device.refresh_due(r, now) && !self.device.is_refreshing(r, now) {
                    self.refresh_draining = true;
                }
            }
        }

        // Write-drain hysteresis.
        if !self.drain_mode && self.write_q.len() >= self.cfg.wq_high {
            self.drain_mode = true;
            self.stats.write_drains += 1;
            if self.probe_active {
                self.probe.write_drain_entered(now, write_q_depth);
            }
        }
        if self.drain_mode && self.write_q.len() <= self.cfg.wq_low {
            self.drain_mode = false;
            if self.probe_active {
                self.probe.write_drain_exited(now);
            }
        }
        if self.drain_mode {
            self.stats.drain_cycles += 1;
        }
        if self.probe_active {
            self.probe.tick(
                now,
                read_q_depth,
                write_q_depth,
                self.in_flight.len(),
                self.drain_mode,
            );
        }

        // Issue at most one command on the command bus.
        if self.refresh_draining {
            self.schedule_refresh(now);
        } else {
            self.schedule(now);
        }

        // Bank and rank state is final for this cycle: read it once for
        // both the latency attribution and the view.
        let refreshing = self.is_any_rank_refreshing(now);
        let (pre, act) = self.transitioning_banks(now);
        self.attribute_waits(1, self.refresh_draining || refreshing, pre | act);

        self.collect_completions(now);
        self.build_view(now, view, refreshing, pre, act);
        #[cfg(debug_assertions)]
        self.check_summaries();
        view.read_q_depth = read_q_depth;
        view.write_q_depth = write_q_depth;
        view.drain = self.drain_mode;
        view.cas_hit = self.cas_this_cycle;
    }

    fn is_any_rank_refreshing(&self, now: Cycle) -> bool {
        (0..self.device.geometry().ranks).any(|r| self.device.is_refreshing(r, now))
    }

    /// Entries pushed between ticks get their arrival stamped at the first
    /// tick that observes them — they are each queue's unstamped suffix,
    /// so after this no entry has `arrival > now`.
    fn stamp_arrivals(&mut self, now: Cycle) {
        let base = self.waits.arrival_base();
        for q in [&mut self.read_q, &mut self.write_q] {
            let fresh = q.stamp_arrivals(now, base);
            let mut w = self.work.get();
            w.queue_entries_visited += fresh.len() as u64;
            self.work.set(w);
            if self.probe_active {
                for e in fresh {
                    self.probe.request_arrival(e.id.0, now);
                }
            }
        }
    }

    /// Recounts both queue summaries against the queues and the device's
    /// open rows (debug oracle, armed on every tick).
    #[cfg(debug_assertions)]
    fn check_summaries(&self) {
        let g = self.device.geometry();
        for q in [&self.read_q, &self.write_q] {
            q.check(
                |e| g.flat_bank(e.addr.bank),
                |flat| self.device.open_row(flat),
            );
        }
    }

    /// Issues `cmd` on the device and keeps every piece of derived state
    /// in step: the command trace and probe, the timing table and, when
    /// the command changes a bank's open row, both queue summaries.
    fn issue(&mut self, cmd: Command, now: Cycle) -> Cycle {
        let done_at = self
            .device
            .issue(cmd, now)
            .expect("scheduler validated the command");
        let g = self.device.geometry();
        let flat = g.flat_bank(cmd.bank);
        self.timing
            .command_issued(cmd.kind, flat, g.rank_banks(cmd.bank.rank));
        match cmd.kind {
            CommandKind::Activate | CommandKind::Precharge => {
                let open = self.device.open_row(flat);
                self.read_q.reclassify(flat, open);
                self.write_q.reclassify(flat, open);
            }
            // A refresh needs its rank quiet, so no row is open to close.
            CommandKind::Refresh => debug_assert!(g
                .rank_banks(cmd.bank.rank)
                .all(|f| !self.read_q.has_hit(f) && !self.write_q.has_hit(f))),
            // A CAS leaves the row open; an auto-precharge closes it at a
            // later `advance`, which reports it.
            _ => {}
        }
        self.issued_this_cycle = true;
        if self.trace_enabled {
            self.trace.push(TimedCommand::new(now, cmd));
        }
        if self.probe_active {
            self.probe.command_issued(now, cmd, flat);
        }
        done_at
    }

    // ---- refresh ---------------------------------------------------------------

    fn schedule_refresh(&mut self, now: Cycle) {
        let g = *self.device.geometry();
        // Close the first open bank once its precharge window allows it.
        let n = g.total_banks() as usize;
        if let Some(flat) = (0..n).find(|&f| self.device.open_row(f).is_some()) {
            let addr = g.bank_addr(flat);
            self.count(1, 0);
            if self.device.earliest_precharge(addr, now).ready(now) {
                self.issue(Command::precharge(addr), now); // one command per cycle
            }
            return;
        }
        // All banks closed: refresh each due rank once quiet.
        for r in 0..g.ranks {
            if self.device.refresh_due(r, now) && self.device.rank_quiet(r, now) {
                self.issue(Command::refresh(r), now);
                self.stats.refreshes += 1;
                self.refresh_draining = false;
                if self.probe_active {
                    let t_rfc = self.device.timing().t_rfc;
                    self.probe.refresh_window(r as usize, now, now + t_rfc);
                }
                return;
            }
        }
    }

    // ---- normal scheduling --------------------------------------------------------

    /// Which queue feeds the scheduler this cycle.
    fn use_writes(&self) -> bool {
        self.drain_mode || (self.read_q.is_empty() && !self.write_q.is_empty())
    }

    fn queue(&self, writes: bool) -> &BankedQueue {
        if writes {
            &self.write_q
        } else {
            &self.read_q
        }
    }

    /// How many head-of-queue positions the scheduler may consider.
    fn limit(&self) -> usize {
        match self.cfg.scheduler {
            SchedulerPolicy::FrFcfs => usize::MAX,
            SchedulerPolicy::Fcfs => 1,
        }
    }

    fn schedule(&mut self, now: Cycle) {
        let writes = self.use_writes();
        // Pass 1 (first-ready): oldest CAS-ready row hit.
        if let Some(idx) = self.find_ready_cas(now, writes) {
            self.issue_cas_for(now, writes, idx);
        // Pass 2: oldest-per-bank ACT/PRE that can issue.
        } else if let Some((cmd, idx, caused)) = self.find_actpre(now, writes) {
            self.issue(cmd, now);
            let flat = self.device.geometry().flat_bank(cmd.bank);
            let q = if writes {
                &mut self.write_q
            } else {
                &mut self.read_q
            };
            let (e, base) = q.entry_mut(idx);
            self.waits.note_cause(e, base, flat);
            match caused {
                Caused::Act => e.caused_act = true,
                Caused::Pre => e.caused_pre = true,
            }
        }
    }

    /// Visits what the entries of a queue wait on, once per (bank, class):
    /// a bank's row hits wait on their CAS, its other entries on the PRE
    /// of an open bank or the ACT of a closed one, and every entry of a
    /// pair shares the pair's answer. `visit` gets the queue position of
    /// the pair's oldest entry, its bank and the answer; returning false
    /// stops the walk (and is returned).
    fn visit_waiting(
        &self,
        writes: bool,
        now: Cycle,
        mut visit: impl FnMut(u32, BankAddr, Earliest) -> bool,
    ) -> bool {
        let q = self.queue(writes);
        let mut visited = 0;
        let done = bits(q.work()).all(|flat| {
            let (cas, miss) = (Class::cas(writes), Class::miss(&self.device, flat));
            [(cas, q.oldest_hit(flat)), (miss, q.oldest_miss(flat))]
                .into_iter()
                .filter(|&(_, pos)| pos != NONE)
                .all(|(class, pos)| {
                    visited += 1;
                    let bank = q.entries()[pos as usize].addr.bank;
                    visit(pos, bank, self.earliest(class, flat, bank, now))
                })
        });
        self.count(0, visited);
        done
    }

    /// The device's answer at `now` for a command of `class` on `bank`,
    /// asked only when an event dropped the slot (see [`TimingTable`]).
    fn earliest(&self, class: Class, flat: usize, bank: BankAddr, now: Cycle) -> Earliest {
        if let Some(e) = self.timing.get(class, flat, now) {
            debug_assert_eq!(e, class.ask(&self.device, bank, now));
            return e;
        }
        self.count(1, 0);
        let e = class.ask(&self.device, bank, now);
        let pre_done_at = self.device.bank(bank).pre_done_at();
        self.timing.put(class, flat, bank.rank, e, pre_done_at, now);
        e
    }

    /// Whether that command can issue at `now` — all a scheduling pass
    /// needs, so a bank of a rank known to be blocked is not asked.
    fn ready(&self, class: Class, flat: usize, bank: BankAddr, now: Cycle) -> bool {
        if let Some(e) = self.timing.get(class, flat, now) {
            debug_assert_eq!(e, class.ask(&self.device, bank, now));
            return e.ready(now);
        }
        if self.timing.rank_blocked(class, bank.rank, now) {
            debug_assert!(!class.ask(&self.device, bank, now).ready(now));
            return false;
        }
        self.earliest(class, flat, bank, now).ready(now)
    }

    /// FR-FCFS pass 1. CAS readiness is uniform across same-bank row hits
    /// (the answer depends only on the bank), so the oldest hit of each
    /// bank is that bank's only candidate and the queue-order winner is
    /// the minimum position over banks.
    fn find_ready_cas(&self, now: Cycle, writes: bool) -> Option<usize> {
        let limit = self.limit();
        let q = self.queue(writes);
        let (mut best, mut visited) = (limit, 0);
        for flat in bits(q.hit_mask()) {
            let pos = q.oldest_hit(flat) as usize;
            if pos >= best {
                continue; // younger than the winner so far
            }
            visited += 1;
            let bank = q.entries()[pos].addr.bank;
            if self.ready(Class::cas(writes), flat, bank, now) {
                best = pos;
            }
        }
        self.count(0, visited);
        let got = (best != limit).then_some(best);
        #[cfg(debug_assertions)]
        assert_eq!(got, self.find_ready_cas_scan(now, writes, limit));
        got
    }

    /// Pass 1 as a walk over the whole queue, asking the device (debug
    /// oracle).
    #[cfg(debug_assertions)]
    fn find_ready_cas_scan(&self, now: Cycle, writes: bool, limit: usize) -> Option<usize> {
        for (idx, e) in self.queue(writes).entries().iter().take(limit).enumerate() {
            if self.device.bank(e.addr.bank).open_row() != Some(e.addr.row) {
                continue;
            }
            let cas = Class::cas(writes);
            if cas.ask(&self.device, e.addr.bank, now).ready(now) {
                return Some(idx);
            }
        }
        None
    }

    fn issue_cas_for(&mut self, now: Cycle, writes: bool, idx: usize) {
        // A read leaves with its wait counters settled; a write has none.
        let e = if writes {
            self.write_q.remove_for_cas(idx)
        } else {
            let settled = self.read_q.settled(idx, &self.waits);
            self.read_q.remove_for_cas(idx);
            settled
        };
        let flat = self.device.geometry().flat_bank(e.addr.bank);
        let auto_pre =
            self.cfg.page_policy == PagePolicy::Closed && !self.any_pending_hit(flat, e.addr.row);
        let cmd = match (writes, auto_pre) {
            (false, false) => Command::read(e.addr.bank, e.addr.column),
            (false, true) => Command::read_ap(e.addr.bank, e.addr.column),
            (true, false) => Command::write(e.addr.bank, e.addr.column),
            (true, true) => Command::write_ap(e.addr.bank, e.addr.column),
        };
        let done_at = self.issue(cmd, now);
        let hit = !e.caused_act && !e.caused_pre;
        self.cas_this_cycle = Some(hit);
        if self.probe_active {
            self.probe.cas_issued(e.id.0, now, writes, hit, flat);
        }
        if writes {
            self.stats.writes_done += 1;
            if hit {
                self.stats.write_hits += 1;
            }
        } else {
            self.stats.reads_done += 1;
            if hit {
                self.stats.read_hits += 1;
            }
            self.in_flight.push(InFlightRead {
                id: e.id,
                meta: e.meta,
                phys: e.phys,
                arrival: e.arrival,
                done_at,
                preact: e.preact_wait,
                refresh_wait: e.refresh_wait,
                writeburst_wait: e.writeburst_wait,
                queue_wait: e.queue_wait,
            });
        }
    }

    /// Whether any queued request (either queue) targets the open `row` of
    /// `bank` — the closed page policy keeps a row open while it does.
    fn any_pending_hit(&self, flat: usize, row: u32) -> bool {
        debug_assert_eq!(self.device.open_row(flat), Some(row));
        let got = self.read_q.has_hit(flat) || self.write_q.has_hit(flat);
        #[cfg(debug_assertions)]
        assert_eq!(
            got,
            self.any_pending_hit_scan(self.device.geometry().bank_addr(flat), row)
        );
        got
    }

    /// The pending-hit question asked of every entry of both queues (debug
    /// oracle).
    #[cfg(debug_assertions)]
    fn any_pending_hit_scan(&self, bank: BankAddr, row: u32) -> bool {
        self.read_q
            .entries()
            .iter()
            .chain(self.write_q.entries())
            .any(|e| e.addr.bank == bank && e.addr.row == row)
    }

    /// Pass 2. Each bank's oldest entry is its only driver; when that is a
    /// non-hit it asks for an ACT (closed bank) or a PRE (row conflict),
    /// and the queue-order winner is the minimum position over banks.
    fn find_actpre(&self, now: Cycle, writes: bool) -> Option<(Command, usize, Caused)> {
        let limit = self.limit();
        let q = self.queue(writes);
        let (mut best, mut got, mut visited) = (limit, None, 0);
        // A bank a row hit drives is pass 1's: only miss-driven banks.
        for flat in bits(q.miss_driven()) {
            let pos = q.oldest_miss(flat) as usize;
            if pos >= best {
                continue;
            }
            visited += 1;
            if let Some(found) = self.actpre_for_entry(now, writes, flat, pos) {
                (best, got) = (pos, Some(found));
            }
        }
        self.count(0, visited);
        #[cfg(debug_assertions)]
        assert_eq!(got, self.find_actpre_scan(now, writes, limit));
        got
    }

    /// Pass 2 as a walk over the whole queue, remembering the banks an
    /// older entry already drives (debug oracle).
    #[cfg(debug_assertions)]
    fn find_actpre_scan(
        &self,
        now: Cycle,
        writes: bool,
        limit: usize,
    ) -> Option<(Command, usize, Caused)> {
        let mut seen_banks = [false; MAX_BANKS];
        for (idx, e) in self.queue(writes).entries().iter().take(limit).enumerate() {
            let flat = self.device.geometry().flat_bank(e.addr.bank);
            if seen_banks[flat] {
                continue; // only the oldest request per bank drives the bank
            }
            seen_banks[flat] = true;
            if let Some(found) = self.actpre_for_entry(now, writes, flat, idx) {
                return Some(found);
            }
        }
        None
    }

    /// The ACT/PRE decision for the entry at `idx` driving bank `flat`,
    /// shared by pass 2 and its debug oracle.
    fn actpre_for_entry(
        &self,
        now: Cycle,
        writes: bool,
        flat: usize,
        idx: usize,
    ) -> Option<(Command, usize, Caused)> {
        let q = self.queue(writes);
        let e = &q.entries()[idx];
        let bank = e.addr.bank;
        let ready = |class| self.ready(class, flat, bank, now);
        match self.device.open_row(flat) {
            // Skip banks still precharging and banks being refreshed.
            None => {
                ready(Class::Act).then(|| (Command::activate(bank, e.addr.row), idx, Caused::Act))
            }
            Some(open) if open != e.addr.row => {
                // Conflict: close the row, but under FR-FCFS never
                // while same-queue row hits are still pending on it
                // (hits are served first). Strict FCFS closes
                // unconditionally — only the head request matters.
                let hits_pending = self.cfg.scheduler == SchedulerPolicy::FrFcfs && q.has_hit(flat);
                (!hits_pending && ready(Class::Pre))
                    .then(|| (Command::precharge(bank), idx, Caused::Pre))
            }
            Some(_) => None, // row hit whose CAS is constrained: pass 1 handles it
        }
    }

    fn collect_completions(&mut self, now: Cycle) {
        if self.in_flight.is_empty() {
            return;
        }
        let overhead = self.cfg.ctrl_overhead;
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].done_at <= now {
                let f = self.in_flight.swap_remove(i);
                if self.probe_active {
                    self.probe.data_returned(f.id.0, f.done_at);
                }
                // Queue ticks were counted exactly while the read waited,
                // so no residual subtraction (and no clamp) is needed:
                // preact + refresh + writeburst + queue cover every cycle
                // in [arrival, CAS) and base_dram covers [CAS, done_at).
                let base_dram = self.base_read_cycles;
                self.completions.push(CompletedRead {
                    id: f.id,
                    meta: f.meta,
                    addr: f.phys,
                    arrival: f.arrival,
                    done_at: f.done_at + overhead,
                    breakdown: LatencyBreakdown {
                        base_cntlr: overhead,
                        base_dram,
                        preact: f.preact,
                        refresh: f.refresh_wait,
                        writeburst: f.writeburst_wait,
                        queue: f.queue_wait,
                    },
                });
            } else {
                i += 1;
            }
        }
    }

    // ---- cycle-view construction for the bandwidth stack ---------------------------

    /// Masks of the banks that are `(Precharging, Activating)` at `now`,
    /// swept from the device's dirty-bank list.
    fn transitioning_banks(&mut self, now: Cycle) -> (u64, u64) {
        let mut masks = (0, 0);
        self.device
            .visit_transitioning_banks(now, |flat, st| mark_transition(&mut masks, flat, st));
        #[cfg(debug_assertions)]
        assert_eq!(masks, self.transitioning_banks_scan(now));
        masks
    }

    /// The same masks with every bank asked (debug oracle).
    #[cfg(debug_assertions)]
    fn transitioning_banks_scan(&self, now: Cycle) -> (u64, u64) {
        let mut masks = (0, 0);
        for flat in 0..self.total_banks() {
            mark_transition(&mut masks, flat, self.device.bank_state(flat, now));
        }
        masks
    }

    fn build_view(&self, now: Cycle, view: &mut CycleView, refreshing: bool, pre: u64, act: u64) {
        view.reset();
        view.bus = self.device.bus_activity(now);
        view.refreshing = refreshing;
        view.has_pending = !self.is_idle();
        debug_assert_eq!(view.banks.len(), self.total_banks());
        // `reset` left every bank Idle, which is exactly the mapping for
        // the settled states.
        for flat in bits(pre) {
            view.banks[flat] = BankActivity::Precharging;
        }
        for flat in bits(act) {
            view.banks[flat] = BankActivity::Activating;
        }

        // Cycles already classified as useful or refresh need no analysis.
        if view.bus.is_some() || view.refreshing {
            return;
        }
        if self.refresh_draining {
            // Lost to the refresh drain window; banks may be precharging
            // (classified above); if everything is idle, charge refresh.
            view.rank_block = BlockReason::Refresh;
            return;
        }

        // Explain why pending requests cannot move: mark constrained banks
        // and record a rank-level reason for the all-idle case.
        let writes_first = self.use_writes();
        #[cfg(debug_assertions)]
        let mut oracle = view.clone();
        for writes in [writes_first, !writes_first] {
            if view.rank_block != BlockReason::None {
                break; // the scheduled queue already explains the cycle
            }
            self.analyze_blocked(now, writes, view);
        }
        #[cfg(debug_assertions)]
        {
            for writes in [writes_first, !writes_first] {
                if oracle.rank_block == BlockReason::None {
                    self.analyze_blocked_scan(now, writes, &mut oracle);
                }
            }
            assert_eq!(*view, oracle);
        }
    }

    /// Marks what a blocked command occupies: its whole bank group, or its
    /// bank for a rank-level constraint (returning true for those — the
    /// caller records the reason of the oldest one).
    fn mark_blocked(&self, bank: BankAddr, earliest: Earliest, view: &mut CycleView) -> bool {
        let g = self.device.geometry();
        let banks = match earliest.reason.level() {
            BlockLevel::BankGroup => g.bank_group_banks(bank.rank, bank.bank_group),
            BlockLevel::Rank => {
                let flat = g.flat_bank(bank);
                flat..flat + 1
            }
            BlockLevel::Bank | BlockLevel::None => return false,
        };
        for flat in banks {
            if view.banks[flat] == BankActivity::Idle {
                view.banks[flat] = BankActivity::Constrained;
            }
        }
        earliest.reason.level() == BlockLevel::Rank
    }

    /// The view needs each (bank, class) pair once; the rank-level reason
    /// is that of the oldest blocked entry, i.e. of the pair with the
    /// lowest queue position.
    fn analyze_blocked(&self, now: Cycle, writes: bool, view: &mut CycleView) {
        let mut oldest = NONE;
        self.visit_waiting(writes, now, |pos, bank, earliest| {
            // Ready ones will issue on a later pass this or next cycle.
            if !earliest.ready(now) && self.mark_blocked(bank, earliest, view) && pos < oldest {
                oldest = pos;
                view.rank_block = earliest.reason;
            }
            true
        });
    }

    /// The same view with every entry asked of the device (debug oracle).
    #[cfg(debug_assertions)]
    fn analyze_blocked_scan(&self, now: Cycle, writes: bool, view: &mut CycleView) {
        for e in self.queue(writes).entries() {
            let bank = e.addr.bank;
            let class = match self.device.bank(bank).open_row() {
                Some(open) if open == e.addr.row => Class::cas(writes),
                Some(_) => Class::Pre,
                None => Class::Act,
            };
            let earliest = class.ask(&self.device, bank, now);
            if !earliest.ready(now)
                && self.mark_blocked(bank, earliest, view)
                && view.rank_block == BlockReason::None
            {
                view.rank_block = earliest.reason;
            }
        }
    }
}

/// Sets bank `flat` in the `(precharging, activating)` masks if `st` is one
/// of the two. A CAS in its CL/CWL window occupies no resource another
/// request could use this cycle, so it reads as settled like the open and
/// precharged states; blocked-request analysis decides what is constrained.
fn mark_transition(masks: &mut (u64, u64), flat: usize, st: BankState) {
    match st {
        BankState::Precharging => masks.0 |= 1 << flat,
        BankState::Activating => masks.1 |= 1 << flat,
        BankState::CasInFlight | BankState::Open | BankState::Precharged => {}
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Caused {
    Act,
    Pre,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ticks from `start` until idle. Controller time is monotonic (the
    /// dirty-bank sweep and the timing table rely on it), so resuming a
    /// controller must pass a `start` at or past the previous run's end.
    fn run_until_done_from(
        ctrl: &mut MemoryController,
        start: Cycle,
        max: Cycle,
    ) -> Vec<CompletedRead> {
        let mut view = CycleView::idle(ctrl.total_banks());
        let mut out = Vec::new();
        for now in start..start + max {
            ctrl.tick(now, &mut view);
            out.extend(ctrl.drain_completions());
            if ctrl.is_idle() {
                break;
            }
        }
        out
    }

    fn run_until_done(ctrl: &mut MemoryController, max: Cycle) -> Vec<CompletedRead> {
        run_until_done_from(ctrl, 0, max)
    }

    #[test]
    fn single_read_latency_is_base_plus_preact() {
        let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
        ctrl.enqueue_read(0x10_0000, 1);
        let done = run_until_done(&mut ctrl, 500);
        assert_eq!(done.len(), 1);
        let b = done[0].breakdown;
        let t = dramstack_dram::TimingParams::ddr4_2400();
        // Cold bank: ACT needed but no PRE.
        assert_eq!(b.preact, t.t_rcd);
        assert_eq!(b.base_dram, t.cl + t.burst_cycles);
        assert_eq!(b.refresh, 0);
        assert_eq!(b.writeburst, 0);
        // ACT issues the first tick that observes the request and the CAS
        // the cycle tRCD elapses: exact attribution leaves no queue ticks.
        assert_eq!(b.queue, 0);
        // Exactness: the components sum to the measured service time.
        assert_eq!(b.total(), done[0].done_at - done[0].arrival);
        assert_eq!(ctrl.stats().reads_done, 1);
        assert_eq!(ctrl.stats().read_hits, 0);
    }

    #[test]
    fn second_read_same_row_is_a_hit() {
        let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
        ctrl.enqueue_read(0x10_0000, 1);
        ctrl.enqueue_read(0x10_0040, 2);
        let done = run_until_done(&mut ctrl, 500);
        assert_eq!(done.len(), 2);
        assert_eq!(ctrl.stats().read_hits, 1);
        let hit = done.iter().find(|c| c.meta == 2).unwrap();
        assert_eq!(hit.breakdown.preact, 0);
    }

    #[test]
    fn row_conflict_pays_precharge_and_activate() {
        let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
        let t = dramstack_dram::TimingParams::ddr4_2400();
        // Same bank (low bits below bit 13 identical), different row
        // (bit 17+).
        ctrl.enqueue_read(0x0, 1);
        let first = run_until_done(&mut ctrl, 1000);
        assert_eq!(first.len(), 1);
        ctrl.enqueue_read(1 << 17, 2);
        let second = run_until_done_from(&mut ctrl, 1000, 2000);
        assert_eq!(second.len(), 1);
        let b = second[0].breakdown;
        assert_eq!(b.preact, t.t_rp + t.t_rcd, "conflict: PRE + ACT");
    }

    #[test]
    fn closed_policy_uses_auto_precharge() {
        let mut cfg = CtrlConfig::paper_default();
        cfg.page_policy = PagePolicy::Closed;
        let mut ctrl = MemoryController::new(cfg);
        ctrl.enqueue_read(0x0, 1);
        // Run past the auto-precharge window (tRAS + tRP) without stopping
        // at the first completion.
        let mut view = CycleView::idle(ctrl.total_banks());
        for now in 0..1000 {
            ctrl.tick(now, &mut view);
        }
        // Bank closed again after the read completed.
        let bank = ctrl.mapping().decode(0).bank;
        assert_eq!(ctrl.device().bank(bank).open_row(), None);
        // Under the open policy the row would remain open.
        let mut ctrl2 = MemoryController::new(CtrlConfig::paper_default());
        ctrl2.enqueue_read(0x0, 1);
        run_until_done(&mut ctrl2, 1000);
        assert_eq!(ctrl2.device().bank(bank).open_row(), Some(0));
    }

    #[test]
    fn closed_policy_keeps_row_open_for_pending_hits() {
        let mut cfg = CtrlConfig::paper_default();
        cfg.page_policy = PagePolicy::Closed;
        let mut ctrl = MemoryController::new(cfg);
        for i in 0..4 {
            ctrl.enqueue_read(i * 64, i);
        }
        let done = run_until_done(&mut ctrl, 2000);
        assert_eq!(done.len(), 4);
        // Only the first read misses; the rest hit before the auto-PRE.
        assert_eq!(ctrl.stats().read_hits, 3);
    }

    #[test]
    fn write_drain_triggers_at_high_watermark() {
        let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
        let hi = ctrl.config().wq_high;
        for i in 0..hi as u64 {
            ctrl.enqueue_write(i * 64 * 128 * 3); // spread across banks
        }
        let mut view = CycleView::idle(ctrl.total_banks());
        for now in 0..20_000 {
            ctrl.tick(now, &mut view);
            if ctrl.is_idle() {
                break;
            }
        }
        assert!(ctrl.is_idle(), "writes drained");
        assert_eq!(ctrl.stats().writes_done as usize, hi);
        assert!(ctrl.stats().write_drains >= 1);
    }

    #[test]
    fn reads_wait_during_write_burst_and_account_writeburst() {
        let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
        let hi = ctrl.config().wq_high;
        // Fill the write queue to the high watermark to force a drain,
        // then a read arrives.
        for i in 0..hi as u64 {
            ctrl.enqueue_write((i * 64) % (1 << 13)); // same bank, same row region
        }
        let mut view = CycleView::idle(ctrl.total_banks());
        ctrl.tick(0, &mut view); // enters drain mode
        ctrl.enqueue_read(0x40, 9);
        let mut done = Vec::new();
        for now in 1..50_000 {
            ctrl.tick(now, &mut view);
            done.extend(ctrl.drain_completions());
            if ctrl.is_idle() {
                break;
            }
        }
        assert_eq!(done.len(), 1);
        assert!(
            done[0].breakdown.writeburst > 0,
            "read delayed by write burst: {:?}",
            done[0].breakdown
        );
    }

    #[test]
    fn refresh_happens_periodically_and_delays_reads() {
        let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
        let t = *ctrl.device().timing();
        let mut view = CycleView::idle(ctrl.total_banks());
        // Tick through one tREFI with no traffic: a refresh must occur.
        for now in 0..t.t_refi + t.t_rfc + 100 {
            ctrl.tick(now, &mut view);
        }
        assert_eq!(ctrl.stats().refreshes, 1);
        // A read arriving mid-refresh accrues refresh latency.
        let due = ctrl.device().next_refresh_at(0);
        let mut done = Vec::new();
        let mut now = t.t_refi + t.t_rfc + 100;
        while now < due + 10 {
            ctrl.tick(now, &mut view);
            now += 1;
        }
        ctrl.enqueue_read(0x77_0040, 5);
        while now < due + 3 * t.t_rfc {
            ctrl.tick(now, &mut view);
            done.extend(ctrl.drain_completions());
            if ctrl.is_idle() {
                break;
            }
            now += 1;
        }
        assert_eq!(done.len(), 1);
        assert!(
            done[0].breakdown.refresh > 0,
            "read should see refresh delay: {:?}",
            done[0].breakdown
        );
    }

    #[test]
    fn fr_fcfs_prefers_row_hits_over_older_conflict() {
        let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
        // Warm up: open row 0 of bank 0.
        ctrl.enqueue_read(0, 0);
        run_until_done(&mut ctrl, 1000);
        // Older conflicting request to the same bank, newer hit to row 0.
        ctrl.enqueue_read(1 << 17, 1); // conflict (row 1)
        ctrl.enqueue_read(64, 2); // hit (row 0, col 1)
        let done = run_until_done_from(&mut ctrl, 1000, 3000);
        assert_eq!(done.len(), 2);
        // FR-FCFS may serve the hit before the conflict resolves; at the
        // very least the hit must not pay pre/act.
        let hit = done.iter().find(|c| c.meta == 2).unwrap();
        assert_eq!(hit.breakdown.preact, 0);
        assert!(done.iter().find(|c| c.meta == 1).unwrap().done_at >= hit.done_at);
    }

    #[test]
    fn fcfs_serves_strictly_in_order() {
        let mut cfg = CtrlConfig::paper_default();
        cfg.scheduler = SchedulerPolicy::Fcfs;
        let mut ctrl = MemoryController::new(cfg);
        ctrl.enqueue_read(0, 0);
        run_until_done(&mut ctrl, 1000);
        ctrl.enqueue_read(1 << 17, 1); // conflict first
        ctrl.enqueue_read(64, 2); // hit second
        let done = run_until_done_from(&mut ctrl, 1000, 3000);
        let first = done.iter().find(|c| c.meta == 1).unwrap();
        let second = done.iter().find(|c| c.meta == 2).unwrap();
        assert!(first.done_at <= second.done_at, "FCFS is in order");
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
        for i in 0..20u64 {
            ctrl.enqueue_read(i * 7919 * 64, i);
        }
        let done = run_until_done(&mut ctrl, 100_000);
        assert_eq!(done.len(), 20);
        for c in done {
            let b = c.breakdown;
            assert_eq!(
                b.total(),
                b.base_cntlr + b.base_dram + b.preact + b.refresh + b.writeburst + b.queue
            );
        }
    }

    #[test]
    fn view_reports_read_cycles_on_the_bus() {
        let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
        let mut view = CycleView::idle(ctrl.total_banks());
        ctrl.enqueue_read(0, 1);
        let mut saw_read = false;
        let mut saw_activate = false;
        for now in 0..300 {
            ctrl.tick(now, &mut view);
            if view.bus == Some(dramstack_dram::BurstKind::Read) {
                saw_read = true;
            }
            if view.banks.contains(&BankActivity::Activating) {
                saw_activate = true;
            }
        }
        assert!(saw_read, "read burst observed");
        assert!(saw_activate, "activate observed");
    }

    #[test]
    fn view_flags_bank_group_constraint_for_back_to_back_hits() {
        // Two hits to the same row: the second waits tCCD_L; during that
        // wait the whole bank group must appear constrained.
        let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
        let mut view = CycleView::idle(ctrl.total_banks());
        ctrl.enqueue_read(0, 1);
        ctrl.enqueue_read(64, 2);
        ctrl.enqueue_read(128, 3);
        let mut constrained_group_seen = false;
        for now in 0..500 {
            ctrl.tick(now, &mut view);
            if view.bus.is_none() {
                let g0: Vec<_> = view.banks[0..4].to_vec();
                if g0.contains(&BankActivity::Constrained) {
                    constrained_group_seen = true;
                }
            }
        }
        assert!(constrained_group_seen);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
        for i in 0..ctrl.config().read_queue_cap as u64 {
            assert!(ctrl.can_accept_read());
            ctrl.enqueue_read(i * 64, i);
        }
        assert!(!ctrl.can_accept_read());
    }

    #[test]
    fn dual_rank_requests_complete_and_both_ranks_refresh() {
        let mut cfg = CtrlConfig::paper_default();
        cfg.device = dramstack_dram::DeviceConfig::ddr4_2400_dual_rank();
        let mut ctrl = MemoryController::new(cfg);
        assert_eq!(ctrl.total_banks(), 32);
        // Bit 17 is the rank bit in the default dual-rank layout.
        ctrl.enqueue_read(0, 0);
        ctrl.enqueue_read(1 << 17, 1);
        assert_ne!(
            ctrl.mapping().decode(0).bank.rank,
            ctrl.mapping().decode(1 << 17).bank.rank,
            "addresses target both ranks"
        );
        let done = run_until_done(&mut ctrl, 5_000);
        assert_eq!(done.len(), 2);
        // Run past two refresh intervals: both ranks must refresh.
        let mut view = CycleView::idle(ctrl.total_banks());
        for now in 5_000..25_000 {
            ctrl.tick(now, &mut view);
        }
        assert!(
            ctrl.stats().refreshes >= 4,
            "2 ranks × ≥2 tREFI: {}",
            ctrl.stats().refreshes
        );
        assert_eq!(
            ctrl.device().refreshes_done(0),
            ctrl.device().refreshes_done(1)
        );
    }

    #[test]
    fn page_hit_counting_is_symmetric_for_reads_and_writes() {
        // Regression: a same-row burst must count n-1 row hits whether it
        // is served as reads (normal mode) or writes (drain mode). Write
        // hits are attributed in drain mode exactly like read hits — the
        // first CAS pays the ACT, the rest hit the open row.
        let n = 8u64;

        let mut rctrl = MemoryController::new(CtrlConfig::paper_default());
        for i in 0..n {
            rctrl.enqueue_read(i * 64, i);
        }
        run_until_done(&mut rctrl, 10_000);
        assert_eq!(rctrl.stats().reads_done, n);
        assert_eq!(
            rctrl.stats().read_hits,
            n - 1,
            "first read misses, rest hit"
        );

        // Force drain mode with a low watermark so the same-row writes are
        // served as a write burst.
        let mut cfg = CtrlConfig::paper_default();
        cfg.wq_high = n as usize;
        cfg.wq_low = 0;
        let mut wctrl = MemoryController::new(cfg);
        for i in 0..n {
            wctrl.enqueue_write(i * 64);
        }
        let mut view = CycleView::idle(wctrl.total_banks());
        for now in 0..10_000 {
            wctrl.tick(now, &mut view);
            if wctrl.is_idle() {
                break;
            }
        }
        assert!(wctrl.stats().write_drains >= 1, "burst ran in drain mode");
        assert_eq!(wctrl.stats().writes_done, n);
        assert_eq!(
            wctrl.stats().write_hits,
            n - 1,
            "write hits counted like read hits"
        );

        // The aggregate page-hit rate is the same either way.
        assert!((rctrl.stats().page_hit_rate() - wctrl.stats().page_hit_rate()).abs() < 1e-12);
    }

    #[test]
    fn probe_hooks_fire_without_perturbing_results() {
        // Same workload with and without a probe: identical completions
        // and stats; the probe observes the full request lifecycle.
        #[derive(Debug, Default)]
        struct CountingProbe {
            accepted: u64,
            arrivals: u64,
            cas: u64,
            returned: u64,
            commands: u64,
            ticks: u64,
        }
        impl dramstack_obs::Probe for CountingProbe {
            fn request_accepted(&mut self, _id: u64, _phys: u64, _w: bool) {
                self.accepted += 1;
            }
            fn request_arrival(&mut self, _id: u64, _now: Cycle) {
                self.arrivals += 1;
            }
            fn cas_issued(&mut self, _id: u64, _now: Cycle, _w: bool, _hit: bool, _fb: usize) {
                self.cas += 1;
            }
            fn data_returned(&mut self, _id: u64, _now: Cycle) {
                self.returned += 1;
            }
            fn command_issued(&mut self, _now: Cycle, _cmd: Command, _fb: usize) {
                self.commands += 1;
            }
            fn tick(&mut self, _now: Cycle, _rq: usize, _wq: usize, _inf: usize, _d: bool) {
                self.ticks += 1;
            }
        }

        let drive = |probe: bool| {
            let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
            if probe {
                ctrl.attach_probe(Box::new(CountingProbe::default()));
            }
            for i in 0..10u64 {
                ctrl.enqueue_read(i * 7919 * 64, i);
                ctrl.enqueue_write(i * 64);
            }
            let done = run_until_done(&mut ctrl, 100_000);
            (done, ctrl)
        };

        let (done_bare, bare) = drive(false);
        let (done_probed, mut probed) = drive(true);
        assert_eq!(done_bare.len(), done_probed.len());
        for (a, b) in done_bare.iter().zip(&done_probed) {
            assert_eq!(a.done_at, b.done_at, "identical completion times");
            assert_eq!(a.breakdown, b.breakdown);
        }
        assert_eq!(bare.stats(), probed.stats());

        let boxed = probed.take_probe();
        assert!(!probed.probe_attached());
        let counts = format!("{boxed:?}");
        // 20 requests accepted and arrived; 10 reads returned data.
        assert!(counts.contains("accepted: 20"), "{counts}");
        assert!(counts.contains("arrivals: 20"), "{counts}");
        assert!(counts.contains("returned: 10"), "{counts}");
        assert!(counts.contains("cas: 20"), "{counts}");
    }

    #[test]
    fn with_write_queue_scales_watermarks() {
        let cfg = CtrlConfig::paper_default().with_write_queue(128);
        assert_eq!(cfg.write_queue_cap, 128);
        assert_eq!(cfg.wq_high, 112);
        assert_eq!(cfg.wq_low, 32);
    }
}
