//! The closed-loop full-system simulator: cores ⇄ caches ⇄ controller(s) ⇄
//! DRAM, with stack accounting attached.

use dramstack_audit::{
    audit_channel, conserve, AuditHandle, AuditReport, AuditState, MAX_RECORDED,
};
use dramstack_core::{
    through_time::{aggregate_bandwidth, aggregate_latency},
    BandwidthStack, LatencyHistogram, LatencyStack, SamplerDelta, SamplerState, StackSampler,
    TimeSample,
};
use dramstack_cpu::{CoreModel, CycleStack, Hierarchy, InstrStream, VecStream};
use dramstack_dram::{Cycle, CycleView, SeededFault};
use dramstack_memctrl::{CompletedRead, CtrlSnapshot, MemoryController};
use dramstack_obs::{
    advisor::{diagnose, diagnose_channel_imbalance, WindowObservation},
    PhaseTimers, Probe, SimPhase, TeeProbe,
};
use dramstack_workloads::SyntheticPattern;

use crate::binary;
use crate::config::{ConfigError, SystemConfig};
use crate::parking::Parking;
use crate::report::SimReport;
use crate::snapshot::{DeltaView, Snapshot, SnapshotError, SnapshotView, SNAPSHOT_FORMAT_VERSION};
use crate::telemetry::Telemetry;

/// The full-system simulator.
///
/// One or more memory channels sit behind the shared cache hierarchy;
/// consecutive cache lines interleave across channels and each channel
/// gets its own bandwidth/latency stack (aggregated in the report, as the
/// paper describes).
pub struct Simulator {
    cfg: SystemConfig,
    cores: Vec<CoreModel>,
    streams: Vec<Box<dyn InstrStream>>,
    hier: Hierarchy,
    ctrls: Vec<MemoryController>,
    views: Vec<CycleView>,
    samplers: Vec<StackSampler>,
    cycle_samples: Vec<CycleStack>,
    cycle_total: CycleStack,
    histogram: LatencyHistogram,
    dram_cycle: Cycle,
    next_cycle_sample: Cycle,
    timers: PhaseTimers,
    /// Streaming telemetry attached via
    /// [`attach_telemetry`](Self::attach_telemetry); observes completed
    /// sample windows as the run progresses.
    telemetry: Option<Telemetry>,
    /// System-level windows already handed to the telemetry layer.
    windows_published: usize,
    /// Busy-path event engine: parked cores and the event-horizon skip
    /// (see [`set_busy_engine`](Self::set_busy_engine)).
    busy_engine: bool,
    /// The cycle the per-channel [`CycleView`]s were last built for, or
    /// `None` when they are stale (before the first tick, or after a
    /// [`restore`](Self::restore)). The event-horizon skip reuses the
    /// views for bulk accounting and must know they describe the
    /// immediately preceding cycle.
    views_valid_at: Option<Cycle>,
    /// Which cores are parked (off the step loop) and which `step` ticks.
    parking: Parking,
    /// Scratch buffer for draining controller completions without a
    /// per-cycle allocation.
    completion_buf: Vec<CompletedRead>,
    /// `CoreModel::tick` calls made by the drive loop (host-side work for
    /// `SimReport::perf`, like [`Parking::polls`]).
    core_ticks: u64,
    /// Per-channel shadow-auditor handles; `Some` while the auditor is
    /// armed (default in debug/test builds, off in release).
    audits: Vec<Option<AuditHandle>>,
    /// Delta-chain bookkeeping: what the previous checkpoint captured,
    /// set by [`checkpoint_base`](Self::checkpoint_base), advanced by every
    /// [`checkpoint_delta`](Self::checkpoint_delta), cleared by
    /// [`restore`](Self::restore). `None` until a base is taken.
    ckpt_marks: Option<CkptMarks>,
}

/// Bookkeeping for delta checkpoints: where the previous checkpoint in
/// the chain left the series that grow. (Dirty cache sets are tracked by
/// the caches themselves.)
struct CkptMarks {
    /// Cycle the previous checkpoint was captured at (the `base_cycle`
    /// the next delta will be stamped with).
    last_cycle: Cycle,
    /// Sequence number of the next delta (1 right after the base).
    next_seq: u64,
    /// Per-channel rolled-window counts at the previous checkpoint.
    sampler_lens: Vec<usize>,
    /// Rolled CPU cycle-window count at the previous checkpoint.
    cycle_samples_len: usize,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("n_cores", &self.cores.len())
            .field("channels", &self.ctrls.len())
            .field("dram_cycle", &self.dram_cycle)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Builds a simulator over arbitrary per-core instruction streams.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count
    /// or the configuration is invalid; use [`try_new`](Self::try_new)
    /// to handle user-supplied configurations gracefully.
    pub fn new(cfg: SystemConfig, streams: Vec<Box<dyn InstrStream>>) -> Self {
        Self::try_new(cfg, streams).expect("invalid simulator configuration")
    }

    /// Builds a simulator, returning a typed error instead of panicking
    /// when the configuration (or the stream count) is invalid.
    ///
    /// In debug/test builds the shadow protocol auditor is armed on every
    /// channel by default (see [`set_audit`](Self::set_audit)); release
    /// builds run unarmed and pay nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the violated constraint.
    pub fn try_new(
        cfg: SystemConfig,
        streams: Vec<Box<dyn InstrStream>>,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if streams.len() != cfg.n_cores {
            return Err(ConfigError::StreamCount {
                expected: cfg.n_cores,
                got: streams.len(),
            });
        }
        let ctrls: Vec<MemoryController> = (0..cfg.channels)
            .map(|_| MemoryController::new(cfg.ctrl.clone()))
            .collect();
        let n_banks = ctrls[0].total_banks();
        let peak = cfg.ctrl.device.peak_bandwidth_gbps();
        let samplers = (0..cfg.channels)
            .map(|_| StackSampler::new(n_banks, peak, cfg.dram_cycle_ns(), cfg.sample_period))
            .collect();
        let mut sim = Simulator {
            cores: (0..cfg.n_cores)
                .map(|i| CoreModel::new(i, cfg.core))
                .collect(),
            hier: Hierarchy::new(cfg.n_cores, cfg.hierarchy),
            views: vec![CycleView::idle(n_banks); cfg.channels],
            samplers,
            cycle_samples: Vec::new(),
            cycle_total: CycleStack::new(),
            histogram: LatencyHistogram::new(),
            dram_cycle: 0,
            next_cycle_sample: cfg.sample_period,
            timers: PhaseTimers::new(),
            telemetry: None,
            windows_published: 0,
            busy_engine: true,
            views_valid_at: None,
            parking: Parking::new(cfg.n_cores),
            completion_buf: Vec::new(),
            core_ticks: 0,
            audits: vec![None; cfg.channels],
            ckpt_marks: None,
            streams,
            ctrls,
            cfg,
        };
        if cfg!(debug_assertions) {
            sim.set_audit(true);
        }
        Ok(sim)
    }

    /// Arms (or disarms) the shadow protocol auditor on every channel.
    ///
    /// Armed, an independent re-implementation of the JEDEC timing rules
    /// observes every issued DRAM command and every completed read; its
    /// findings land in [`SimReport::audit`]. The auditor is event-driven
    /// (the event-horizon skip stays enabled) and purely observational —
    /// simulation results are bit-identical armed or not.
    ///
    /// Disarming detaches the audit probes; a user probe attached *after*
    /// arming (teed alongside the auditor) is dropped with them, so
    /// disarm before attaching probes you want to keep.
    pub fn set_audit(&mut self, on: bool) {
        for ch in 0..self.ctrls.len() {
            self.set_channel_audit(ch, on);
        }
    }

    /// Arms (teed with any user probe already attached) or disarms the
    /// shadow auditor of channel `ch`; returns its handle while armed.
    fn set_channel_audit(&mut self, ch: usize, on: bool) -> Option<&AuditHandle> {
        if on && self.audits[ch].is_none() {
            let (probe, handle) = audit_channel(&self.cfg.ctrl.device);
            let probe: Box<dyn Probe> = if self.ctrls[ch].probe_attached() {
                Box::new(TeeProbe::new(self.ctrls[ch].take_probe(), Box::new(probe)))
            } else {
                Box::new(probe)
            };
            self.ctrls[ch].attach_probe(probe);
            self.audits[ch] = Some(handle);
        } else if !on && self.audits[ch].take().is_some() {
            let _ = self.ctrls[ch].take_probe();
        }
        self.audits[ch].as_ref()
    }

    /// Corrupts the *effective* timing enforcement of `channel`'s DRAM
    /// device, modeling a controller-bookkeeping bug (chaos/fault
    /// injection; see [`SeededFault`]). The scheduler stays internally
    /// consistent with the corrupted timing, so only the armed shadow
    /// auditor — which checks against the true specification — notices.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn inject_fault(&mut self, channel: usize, fault: SeededFault) {
        self.ctrls[channel].inject_fault(fault);
    }

    /// Enables or disables the busy-path event engine (on by default).
    ///
    /// The engine covers two coupled optimizations: parked cores, and the
    /// event-horizon skip here in the drive loop (which bulk-accounts
    /// spans where every core is parked on a stall and no DRAM command,
    /// completion, or refresh boundary can land).
    /// It never changes simulation results — reports are bit-identical
    /// either way modulo `perf` — so the off position, which ticks every
    /// core and every controller every cycle, is the oracle of the
    /// determinism tests proving that.
    pub fn set_busy_engine(&mut self, on: bool) {
        self.busy_engine = on;
        if !on {
            // Nothing parks or skips with the engine off: cores parked
            // before a mid-run switch tick again from the next step.
            let core_now = self.dram_cycle * u64::from(self.cfg.core_clock_mult);
            self.parking.wake_all(&mut self.cores, core_now);
        }
    }

    /// Turns on wall-clock self-profiling of the drive loop; the
    /// breakdown lands in [`SimReport::perf`]. Profiling reads only the
    /// host clock and never changes simulation results.
    pub fn enable_profiling(&mut self) {
        self.timers.enable();
    }

    /// Attaches a [`Telemetry`] (replacing any existing one) and returns
    /// a mutable handle to it. Telemetry observes each completed sample
    /// window live; it never changes results.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) -> &mut Telemetry {
        self.windows_published = 0;
        self.telemetry = Some(telemetry);
        self.telemetry.as_mut().expect("telemetry just attached")
    }

    /// The attached telemetry, if any (live series, advisor state,
    /// Prometheus snapshots on demand).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Hands every system-level sample window completed since the last
    /// publication to the telemetry layer (aggregating across channels
    /// window-by-window, exactly like the report does).
    fn publish_windows(&mut self) {
        let Some(tel) = self.telemetry.as_mut() else {
            return;
        };
        let available = self
            .samplers
            .iter()
            .map(|s| s.samples().len())
            .min()
            .unwrap_or(0);
        while self.windows_published < available {
            let i = self.windows_published;
            if self.samplers.len() == 1 {
                tel.publish(&self.samplers[0].samples()[i]);
            } else {
                let one_window: Vec<&[TimeSample]> =
                    self.samplers.iter().map(|s| &s.samples()[i..=i]).collect();
                let agg = aggregate_channel_samples(&one_window);
                tel.publish(&agg[0]);
            }
            self.windows_published += 1;
        }
    }

    /// Attaches an observation probe (e.g. a
    /// [`ChromeTraceProbe`](dramstack_obs::ChromeTraceProbe)) to the
    /// controller of `channel`.
    ///
    /// If the shadow auditor is armed on that channel the probe is teed
    /// alongside it, so both observe every event.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn attach_probe(&mut self, channel: usize, probe: Box<dyn Probe>) {
        match &self.audits[channel] {
            Some(h) => {
                let tee = TeeProbe::new(probe, Box::new(h.probe()));
                self.ctrls[channel].attach_probe(Box::new(tee));
            }
            None => self.ctrls[channel].attach_probe(probe),
        }
    }

    /// Builds a simulator running the given synthetic pattern on every
    /// core (each core gets its own region and RNG stream).
    ///
    /// The LLC is functionally pre-warmed with the lines the streams
    /// "already" touched, so steady-state effects — notably dirty
    /// evictions turning stores into DRAM writes — are present from the
    /// first cycle instead of only after the 11 MB LLC fills.
    pub fn with_synthetic(cfg: SystemConfig, pattern: SyntheticPattern) -> Self {
        let n = cfg.n_cores;
        let streams: Vec<Box<dyn InstrStream>> = (0..n)
            .map(|c| Box::new(pattern.stream_for_core(c, n)) as Box<dyn InstrStream>)
            .collect();
        let mut sim = Self::new(cfg, streams);
        let llc_lines =
            sim.cfg.hierarchy.llc.size_bytes / u64::from(sim.cfg.hierarchy.llc.line_bytes);
        let per_core = llc_lines / n as u64;
        for core in 0..n {
            for (line, dirty) in pattern.warm_lines(core, per_core) {
                sim.hier.prefill_llc(line, dirty);
            }
        }
        sim.hier.reset_stats();
        sim
    }

    /// Builds a simulator replaying pre-generated traces (GAP kernels).
    ///
    /// # Panics
    ///
    /// Panics if the trace count differs from the core count.
    pub fn with_traces(cfg: SystemConfig, traces: Vec<Vec<dramstack_cpu::Instr>>) -> Self {
        let streams: Vec<Box<dyn InstrStream>> = traces
            .into_iter()
            .map(|t| Box::new(VecStream::new(t)) as Box<dyn InstrStream>)
            .collect();
        Self::new(cfg, streams)
    }

    /// Current DRAM cycle.
    pub fn now(&self) -> Cycle {
        self.dram_cycle
    }

    /// Whether every core finished its stream and the memory system
    /// drained.
    pub fn finished(&self) -> bool {
        self.cores.iter().all(CoreModel::is_finished)
            && self.hier.quiescent()
            && self.ctrls.iter().all(MemoryController::is_idle)
    }

    /// Which channel a line address belongs to.
    fn channel_of(&self, line: u64) -> usize {
        ((line >> 6) % self.cfg.channels as u64) as usize
    }

    /// Strips the channel bits out of a line address for the per-channel
    /// controller (which addresses only its own capacity).
    fn strip_channel(&self, line: u64) -> u64 {
        ((line >> 6) / self.cfg.channels as u64) << 6
    }

    /// Advances the system by one DRAM cycle: one stage per [`SimPhase`],
    /// in order. Phase timing chains through `mark` — one clock read per
    /// phase boundary instead of an end/begin pair. The stages are
    /// inlined: splitting them out costs the per-cycle path nothing.
    pub fn step(&mut self) {
        let now = self.dram_cycle;
        let c0 = now * u64::from(self.cfg.core_clock_mult);
        let t = self.timers.begin_step();
        self.tick_controllers(now);
        let t = self.timers.mark(SimPhase::Ctrl, t);
        self.deliver_completions(c0);
        let t = self.timers.mark(SimPhase::Completions, t);
        self.tick_cores(c0);
        let t = self.timers.mark(SimPhase::Cores, t);
        self.pump();
        let t = self.timers.mark(SimPhase::Pump, t);
        self.advance_clock(now + 1);
        self.timers.mark(SimPhase::Sampling, t);
        if self.telemetry.is_some() {
            self.publish_windows();
        }
    }

    /// Memory controllers + DRAM + bandwidth-stack accounting for cycle
    /// `now`.
    #[inline(always)]
    fn tick_controllers(&mut self, now: Cycle) {
        for ch in 0..self.ctrls.len() {
            self.ctrls[ch].tick(now, &mut self.views[ch]);
            self.samplers[ch].account(&self.views[ch]);
        }
        self.views_valid_at = Some(now);
    }

    /// Completions propagate up: latency stack, cache fills, cores.
    /// `meta` carries the original (pre-strip) line address. A completion
    /// is one of the two events that can end a parked core's stall, so
    /// such a core is settled, told, and asked again: it stays parked (a
    /// line other than the one its ROB head waits for) or wakes and ticks
    /// from core cycle `c0` on.
    #[inline(always)]
    fn deliver_completions(&mut self, c0: u64) {
        let mut buf = std::mem::take(&mut self.completion_buf);
        for ch in 0..self.ctrls.len() {
            self.ctrls[ch].take_completions_into(&mut buf);
            for c in buf.drain(..) {
                self.samplers[ch].add_read(&c.breakdown);
                self.histogram.add(c.breakdown.total());
                if let Some(h) = &self.audits[ch] {
                    h.check_completion(&c);
                }
                let original_line = c.meta;
                for core in self.hier.complete_read(original_line) {
                    self.parking.settle(&mut self.cores, core, c0);
                    self.cores[core].complete_line(original_line);
                    if self.parking.parked[core].is_some()
                        && !self.parking.try_park(&self.cores, core, c0)
                    {
                        self.parking.wake(&mut self.cores, core, c0);
                    }
                }
            }
        }
        self.completion_buf = buf;
    }

    /// The awake cores run `core_clock_mult` cycles from core cycle `c0`,
    /// in core order, then the barrier releases if every unfinished core
    /// waits at it. With the busy engine on, a core whose tick says it may
    /// be stalled is asked for its stall horizon and parked from the next
    /// cycle on; a parked core provably never touches the shared
    /// hierarchy, so the others see what they would have seen.
    #[inline(always)]
    fn tick_cores(&mut self, c0: u64) {
        let mult = u64::from(self.cfg.core_clock_mult);
        for core_now in c0..c0 + mult {
            if core_now >= self.parking.next_wake {
                self.parking.wake_due(&mut self.cores, core_now);
            }
            self.core_ticks += self.parking.awake.len() as u64;
            let mut kept = 0;
            for i in 0..self.parking.awake.len() {
                let c = self.parking.awake[i];
                let may_stall =
                    self.cores[c].tick(self.streams[c].as_mut(), &mut self.hier, core_now);
                if may_stall
                    && self.busy_engine
                    && self.parking.try_park(&self.cores, c, core_now + 1)
                {
                    continue;
                }
                self.parking.awake[kept] = c;
                kept += 1;
            }
            self.parking.awake.truncate(kept);
        }
        self.release_barriers(c0 + mult);
    }

    /// Moves requests from the hierarchy into the controller queues, head
    /// of line per direction.
    #[inline(always)]
    fn pump(&mut self) {
        while let Some(line) = self.pump_head(false) {
            self.hier.pop_read();
            let (ch, stripped) = (self.channel_of(line), self.strip_channel(line));
            self.ctrls[ch].enqueue_read(stripped, line);
        }
        while let Some(line) = self.pump_head(true) {
            self.hier.pop_write();
            let (ch, stripped) = (self.channel_of(line), self.strip_channel(line));
            self.ctrls[ch].enqueue_write(stripped);
        }
    }

    /// The pump's head-of-line rule: the line at the head of the outbound
    /// reads (or, with `writes`, writebacks) if its channel's queue accepts
    /// it now. `None` blocks the whole direction.
    fn pump_head(&self, writes: bool) -> Option<u64> {
        let line = if writes {
            self.hier.peek_write()?
        } else {
            self.hier.peek_read()?.line
        };
        let ctrl = &self.ctrls[self.channel_of(line)];
        let accepts = if writes {
            ctrl.can_accept_write()
        } else {
            ctrl.can_accept_read()
        };
        accepts.then_some(line)
    }

    /// Moves the clock to `to` and closes the CPU cycle-stack window if it
    /// ends there.
    #[inline(always)]
    fn advance_clock(&mut self, to: Cycle) {
        self.dram_cycle = to;
        if to == self.next_cycle_sample {
            self.roll_cycle_window();
        }
    }

    /// Sums and resets every core's cycle stack as of the current DRAM
    /// cycle. Parked cores are settled first: this is where their stacks
    /// are read, and a window must hold exactly its own cycles.
    fn take_cycle_window(&mut self) -> CycleStack {
        let core_now = self.dram_cycle * u64::from(self.cfg.core_clock_mult);
        self.parking.settle_all(&mut self.cores, core_now);
        let mut window = CycleStack::new();
        for core in &mut self.cores {
            window.merge(&core.take_stack_sample());
        }
        window
    }

    /// Closes the CPU cycle-stack window that ends at the current cycle.
    fn roll_cycle_window(&mut self) {
        self.next_cycle_sample += self.cfg.sample_period;
        let window = self.take_cycle_window();
        self.cycle_total.merge(&window);
        self.cycle_samples.push(window);
    }

    /// Releases the barrier once every unfinished core waits at it; the
    /// released cores tick again from `next_core_cycle` (the other event,
    /// besides a line completion, that ends a parked core's stall).
    fn release_barriers(&mut self, next_core_cycle: u64) {
        let mut waiting = false;
        for core in &self.cores {
            if core.at_barrier().is_some() {
                waiting = true;
            } else if !core.is_finished() {
                return;
            }
        }
        if !waiting {
            return;
        }
        for c in 0..self.cores.len() {
            if self.cores[c].at_barrier().is_some() {
                self.parking.wake(&mut self.cores, c, next_core_cycle);
                self.cores[c].release_barrier();
            }
        }
    }

    /// Attempts to bulk-skip stall cycles, stopping before `limit`.
    ///
    /// One protocol. An awake core, or a pump that can move a request
    /// into a controller queue, ends the attempt. Otherwise the span
    /// `[now, end)` ends at the earliest of `limit`, the parked cores'
    /// next wake, every controller's [`MemoryController::stall_horizon`]
    /// (no command issues, no completion lands and no refresh boundary
    /// trips before it) and the next CPU cycle-stack window edge. Every
    /// per-cycle observable is then constant over the span, so it is
    /// replayed in bulk, bit-identically to stepping cycle by cycle: one
    /// [`MemoryController::apply_stall_span`] per controller, the frozen
    /// [`CycleView`]s re-accounted once per sampler, and at most one
    /// window roll at `end`. An idle machine is the case with nothing
    /// queued, whose only future event is the fixed-grid refresh. The
    /// parked cores need nothing: their stall cycles accrue when they
    /// wake or a window rolls.
    ///
    /// Returns true when at least one cycle was skipped.
    fn try_skip(&mut self, limit: Cycle) -> bool {
        let now = self.dram_cycle;
        // The per-channel views must describe the immediately preceding
        // cycle: bulk accounting replays them verbatim.
        if !self.busy_engine
            || now == 0
            || limit <= now
            || self.views_valid_at != Some(now - 1)
            || !self.parking.awake.is_empty()
        {
            return false;
        }
        // Every core is stalled for core cycles [now * mult, next_wake), so
        // whole DRAM cycles up to `next_wake / mult` cap the span.
        let mult = u64::from(self.cfg.core_clock_mult);
        if self.parking.next_wake < (now + 1) * mult {
            return false;
        }
        let mut end = limit
            .min(self.next_cycle_sample)
            .min(self.parking.next_wake / mult);
        // Every horizon a controller offers lies past `now`.
        for ctrl in &self.ctrls {
            let Some(h) = ctrl.stall_horizon(now - 1) else {
                return false;
            };
            end = end.min(h);
        }
        // Queue occupancy is frozen over a span (no CAS retires an entry,
        // no completion drains in-flight), so a pump blocked now stays
        // blocked for the whole span.
        if self.pump_head(false).is_some() || self.pump_head(true).is_some() {
            return false;
        }
        let t = self.timers.begin();
        let skipped = end - now;
        for ctrl in &mut self.ctrls {
            ctrl.apply_stall_span(now - 1, skipped);
        }
        for (s, v) in self.samplers.iter_mut().zip(&self.views) {
            s.account_span(v, skipped);
        }
        self.advance_clock(end);
        // The views still describe every cycle of the span, including the
        // one just before where we landed — consecutive spans chain.
        self.views_valid_at = Some(end - 1);
        if self.views.iter().any(|v| v.has_pending) {
            self.timers.add_busy_forwarded(skipped);
            self.timers.end(SimPhase::BusyForward, t);
        } else {
            self.timers.add_fast_forwarded(skipped);
            self.timers.end(SimPhase::FastForward, t);
        }
        self.publish_windows();
        true
    }

    /// Runs for a fixed simulated duration (synthetic steady-state runs).
    pub fn run_for_us(&mut self, us: f64) -> SimReport {
        let cycles = self.cfg.us_to_cycles(us);
        let end = self.dram_cycle + cycles;
        self.advance_to_cycle(end);
        self.report()
    }

    /// Runs until every trace finishes (or `max_cycles` elapse).
    pub fn run_to_completion(&mut self, max_cycles: Cycle) -> SimReport {
        while !self.finished() && self.dram_cycle < max_cycles {
            if !self.try_skip(max_cycles) {
                self.step();
            }
        }
        self.report()
    }

    /// Advances the simulation to absolute DRAM cycle `end` without
    /// building a report (the drive loop of [`run_for_us`](Self::run_for_us),
    /// exposed separately so checkpoint/resume flows can interleave
    /// snapshots with simulation). Skips stall spans exactly like the
    /// `run_*` drivers.
    pub fn advance_to_cycle(&mut self, end: Cycle) {
        while self.dram_cycle < end {
            if !self.try_skip(end) {
                self.step();
            }
        }
    }

    /// Advances the simulation by `us` microseconds of DRAM time without
    /// building a report.
    pub fn advance_for_us(&mut self, us: f64) {
        let end = self.dram_cycle + self.cfg.us_to_cycles(us);
        self.advance_to_cycle(end);
    }

    /// Captures the full machine state as a versioned [`Snapshot`].
    ///
    /// Captures everything needed for bit-identical resume: per-channel
    /// device/controller/sampler/auditor state, the cache hierarchy,
    /// cores, workload RNG streams, accumulated cycle-stack windows, the
    /// latency histogram, and the cycle counters. Attachments (probes,
    /// telemetry, profiling timers) and the stepping oracle's switch
    /// ([`set_busy_engine`](Self::set_busy_engine)) are *not* captured —
    /// they belong to the hosting process and are preserved on the
    /// restore target.
    ///
    /// Fails with [`SnapshotError::StreamUnsupported`] if any core's
    /// instruction stream lacks `checkpoint` support (synthetic and
    /// vector-trace streams both support it).
    pub fn snapshot(&self) -> Result<Snapshot, SnapshotError> {
        let streams = self.stream_checkpoints()?;
        Ok(Snapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            config: self.cfg.clone(),
            dram_cycle: self.dram_cycle,
            next_cycle_sample: self.next_cycle_sample,
            cores: self.core_states(),
            streams,
            hierarchy: self.hier.snapshot_state(),
            controllers: self.controller_states(),
            samplers: self.sampler_states(),
            audits: self.audit_states(),
            cycle_samples: self.cycle_samples.clone(),
            cycle_total: self.cycle_total,
            histogram: self.histogram.clone(),
        })
    }

    /// Every channel's controller and device state.
    fn controller_states(&self) -> Vec<CtrlSnapshot> {
        let ctrls = self.ctrls.iter();
        ctrls.map(MemoryController::snapshot_state).collect()
    }

    /// Every channel's stack sampler, its open window included.
    fn sampler_states(&self) -> Vec<SamplerState> {
        let samplers = self.samplers.iter();
        samplers.map(StackSampler::snapshot_state).collect()
    }

    /// Every armed auditor's bookkeeping, `None` per unarmed channel.
    fn audit_states(&self) -> Vec<Option<AuditState>> {
        let audits = self.audits.iter();
        audits
            .map(|a| a.as_ref().map(AuditHandle::snapshot_state))
            .collect()
    }

    /// Every core's instruction-stream checkpoint.
    fn stream_checkpoints(&self) -> Result<Vec<Vec<u64>>, SnapshotError> {
        let streams = self.streams.iter().enumerate();
        let unsupported = |core| SnapshotError::StreamUnsupported { core };
        streams
            .map(|(core, s)| s.checkpoint().ok_or_else(|| unsupported(core)))
            .collect()
    }

    /// Every core's state as of the current cycle. A parked core's stack
    /// is read here, so the stall cycles it owes are added to the copy.
    fn core_states(&self) -> Vec<dramstack_cpu::CoreState> {
        let core_now = self.dram_cycle * u64::from(self.cfg.core_clock_mult);
        let states = self.cores.iter().zip(&self.parking.parked);
        states
            .map(|(core, parked)| {
                let mut state = core.snapshot_state();
                if let Some(p) = parked {
                    state.add_stall_cycles(&self.cfg.core, p.since, core_now - p.since, p.kind);
                }
                state
            })
            .collect()
    }

    /// Encodes a base checkpoint of the live machine into the binary
    /// `.dsnp` container — the bytes of [`snapshot`](Self::snapshot)
    /// followed by [`Snapshot::to_binary`], without the copy — and arms
    /// delta tracking: subsequent [`checkpoint_delta`](Self::checkpoint_delta)
    /// calls write only the cache sets dirtied and the windows rolled since
    /// the previous checkpoint in the chain. The caches are read where they
    /// sit.
    ///
    /// # Errors
    ///
    /// The stream checkpoint errors of [`snapshot`](Self::snapshot).
    pub fn checkpoint_base(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let streams = self.stream_checkpoints()?;
        let cores = self.core_states();
        let samplers = self.sampler_states();
        let view = SnapshotView {
            version: SNAPSHOT_FORMAT_VERSION,
            config: &self.cfg,
            dram_cycle: self.dram_cycle,
            next_cycle_sample: self.next_cycle_sample,
            cores: &cores,
            streams: &streams,
            hierarchy: &self.hier.live_state(),
            controllers: &self.controller_states(),
            samplers: &samplers,
            audits: &self.audit_states(),
            cycle_samples: &self.cycle_samples,
            cycle_total: self.cycle_total,
            histogram: &self.histogram,
        };
        let bytes = binary::encode(&view, binary::KIND_FULL, SNAPSHOT_FORMAT_VERSION);
        self.hier.mark_clean();
        self.ckpt_marks = Some(CkptMarks {
            last_cycle: self.dram_cycle,
            next_seq: 1,
            sampler_lens: samplers.iter().map(SamplerState::samples_len).collect(),
            cycle_samples_len: self.cycle_samples.len(),
        });
        Ok(bytes)
    }

    /// Encodes a delta checkpoint of the live machine: the state grown
    /// since the previous [`checkpoint_base`](Self::checkpoint_base) /
    /// `checkpoint_delta`, in the layout of
    /// [`SnapshotDelta`](crate::SnapshotDelta). Caches contribute their
    /// dirtied sets, read where they sit, and samplers and the CPU cycle
    /// stack their newly rolled windows; every other member is captured
    /// whole. Returns the delta's sequence number in the chain (1 right
    /// after the base) and its bytes.
    ///
    /// Capture mutates nothing observable — a delta-checkpointed run
    /// stays bit-identical to an uncheckpointed one. Do not interleave
    /// [`report`](Self::report) calls with an open chain: reporting
    /// drains the rolled-window series the chain bookkeeping refers to.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::DeltaBaseMissing`] when no base checkpoint was
    /// taken (or the chain was cleared by a restore), plus the stream
    /// checkpoint errors of [`snapshot`](Self::snapshot).
    pub fn checkpoint_delta(&mut self) -> Result<(u64, Vec<u8>), SnapshotError> {
        let Some(marks) = &self.ckpt_marks else {
            return Err(SnapshotError::DeltaBaseMissing);
        };
        let streams = self.stream_checkpoints()?;
        let cores = self.core_states();
        let samplers: Vec<SamplerDelta> = self
            .samplers
            .iter()
            .zip(&marks.sampler_lens)
            .map(|(s, &len)| s.delta_since(len))
            .collect();
        assert!(
            marks.cycle_samples_len <= self.cycle_samples.len(),
            "cycle windows shrank mid-chain — report() drained them; \
             take a fresh checkpoint_base after reporting"
        );
        let seq = marks.next_seq;
        let view = DeltaView {
            version: SNAPSHOT_FORMAT_VERSION,
            seq,
            base_cycle: marks.last_cycle,
            dram_cycle: self.dram_cycle,
            next_cycle_sample: self.next_cycle_sample,
            cores: &cores,
            streams: &streams,
            hierarchy: &self.hier.live_delta(),
            controllers: &self.controller_states(),
            samplers: &samplers,
            audits: &self.audit_states(),
            cycle_samples_base_len: marks.cycle_samples_len as u64,
            cycle_samples_appended: &self.cycle_samples[marks.cycle_samples_len..],
            cycle_total: self.cycle_total,
            histogram: &self.histogram,
        };
        let bytes = binary::encode(&view, binary::KIND_DELTA, SNAPSHOT_FORMAT_VERSION);
        self.hier.mark_clean();
        let marks = self.ckpt_marks.as_mut().expect("checked above");
        for (len, s) in marks.sampler_lens.iter_mut().zip(&self.samplers) {
            *len = s.samples().len();
        }
        marks.cycle_samples_len = self.cycle_samples.len();
        marks.last_cycle = self.dram_cycle;
        marks.next_seq += 1;
        Ok((seq, bytes))
    }

    /// Restores the machine state captured by
    /// [`snapshot`](Self::snapshot), after which the run resumes
    /// bit-identically to one that was never interrupted.
    ///
    /// The target must have been built from a [`SystemConfig`] equal to
    /// `snap.config` (typically `Simulator::with_synthetic(cfg, pattern)`
    /// with the same arguments as the original run). The snapshot's
    /// audit-arming layout is re-applied per channel, so a restored
    /// release-build simulator audits iff the captured one did. Scratch
    /// and derived state (cycle views, parked cores, completion buffer) is
    /// invalidated; telemetry attached to the target treats
    /// windows that predate the snapshot as already published.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        if snap.version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                expected: SNAPSHOT_FORMAT_VERSION,
                got: u64::from(snap.version),
            });
        }
        if snap.config != self.cfg {
            return Err(SnapshotError::ConfigMismatch);
        }
        // Config equality pins n_cores and channels, so all the Vec
        // lengths below line up. Validate the streams first: they are the
        // only component that can reject, and failing before any mutation
        // leaves the target untouched on error.
        for (core, words) in snap.streams.iter().enumerate() {
            if !self.streams[core].restore_checkpoint(words) {
                return Err(SnapshotError::StreamRestoreFailed { core });
            }
        }
        for (core, state) in self.cores.iter_mut().zip(&snap.cores) {
            core.restore_state(state);
        }
        self.hier.restore_state(&snap.hierarchy);
        for (ctrl, state) in self.ctrls.iter_mut().zip(&snap.controllers) {
            ctrl.restore_state(state);
        }
        for (sampler, state) in self.samplers.iter_mut().zip(&snap.samplers) {
            sampler.restore_state(state);
        }
        // Re-apply the snapshot's audit arming per channel, preserving
        // any user probe, then restore the auditors' bookkeeping.
        for (ch, state) in snap.audits.iter().enumerate() {
            if let (Some(h), Some(state)) = (self.set_channel_audit(ch, state.is_some()), state) {
                h.restore_state(state);
            }
        }
        self.cycle_samples = snap.cycle_samples.clone();
        self.cycle_total = snap.cycle_total;
        self.histogram = snap.histogram.clone();
        self.dram_cycle = snap.dram_cycle;
        self.next_cycle_sample = snap.next_cycle_sample;
        // Scratch and derived state: rebuilt or invalidated so the first
        // post-restore cycle steps normally (the busy engine re-engages
        // once fresh views exist; results are identical either way).
        let n_banks = self.ctrls[0].total_banks();
        self.views = vec![CycleView::idle(n_banks); self.ctrls.len()];
        self.views_valid_at = None;
        // The snapshot holds every stall cycle owed at capture, so the
        // restored cores start awake with nothing owed and park again on
        // their first stalled tick.
        self.parking = Parking {
            polls: self.parking.polls,
            ..Parking::new(self.cores.len())
        };
        self.completion_buf.clear();
        // Any open delta chain refers to pre-restore state; callers start
        // a fresh chain with `checkpoint_base` after restoring.
        self.ckpt_marks = None;
        // Telemetry attached to the target starts from here: windows the
        // snapshot already accumulated are not (re)published.
        self.windows_published = self
            .samplers
            .iter()
            .map(|s| s.samples().len())
            .min()
            .unwrap_or(0);
        Ok(())
    }

    /// Builds the report for everything simulated so far.
    ///
    /// The per-window CPU cycle-stack series is moved into the report
    /// rather than cloned; a subsequent `report()` covers only windows
    /// sampled after this call.
    pub fn report(&mut self) -> SimReport {
        // Flush the open sampling windows.
        let window = self.take_cycle_window();
        if window.total() > 0 {
            self.cycle_total.merge(&window);
            self.cycle_samples.push(window);
        }
        // Per-channel sample series (borrowed from the samplers), then
        // aggregate window-by-window.
        for s in &mut self.samplers {
            s.flush_partial();
        }
        // The flush may have completed one final window per channel; hand
        // it to the telemetry layer and close out the run's writers.
        self.publish_windows();
        if let Some(tel) = &mut self.telemetry {
            tel.finish_run();
        }
        let (samples, channel_stacks) = {
            let per_channel: Vec<&[TimeSample]> =
                self.samplers.iter().map(StackSampler::samples).collect();
            let samples = aggregate_channel_samples(&per_channel);
            let channel_stacks: Vec<BandwidthStack> = per_channel
                .iter()
                .map(|series| {
                    aggregate_bandwidth(series).unwrap_or_else(|| {
                        BandwidthStack::empty(self.cfg.ctrl.device.peak_bandwidth_gbps())
                    })
                })
                .collect();
            (samples, channel_stacks)
        };
        let bandwidth_stack = aggregate_bandwidth(&samples)
            .unwrap_or_else(|| BandwidthStack::empty(self.cfg.system_peak_gbps()));
        let latency_stack: LatencyStack = aggregate_latency(&samples);
        // Bottleneck advisor over the full sample series. Derived purely
        // from the samples, so it is deterministic and identical whether
        // or not live telemetry was attached.
        let diagnoses = {
            let observations: Vec<_> = samples.iter().map(TimeSample::observation).collect();
            let mut diagnoses = diagnose(&observations);
            // Multi-channel runs additionally get the cross-channel
            // imbalance rule, fed the per-channel window series the
            // aggregate above was built from.
            if self.samplers.len() > 1 {
                let per_channel: Vec<Vec<WindowObservation>> = self
                    .samplers
                    .iter()
                    .map(|s| s.samples().iter().map(TimeSample::observation).collect())
                    .collect();
                let series: Vec<&[WindowObservation]> =
                    per_channel.iter().map(Vec::as_slice).collect();
                diagnoses.extend(diagnose_channel_imbalance(&series));
            }
            diagnoses
        };
        // Merge per-channel auditor findings, then run the report-time
        // conservation checks over the aggregated sample series and the
        // whole-run stack.
        let mut audit = AuditReport::default();
        for h in self.audits.iter().flatten() {
            audit.merge(&h.report());
        }
        if audit.armed {
            let mut record = |f: Option<dramstack_audit::ConservationFailure>| {
                if let Some(f) = f {
                    audit.conservation_total += 1;
                    if audit.conservation.len() < MAX_RECORDED {
                        audit.conservation.push(f);
                    }
                }
            };
            for (i, s) in samples.iter().enumerate() {
                record(conserve::check_window(i, s));
            }
            record(conserve::check_aggregate(&bandwidth_stack));
        }
        let ctrl_stats = {
            let mut total = dramstack_memctrl::CtrlStats::default();
            for c in &self.ctrls {
                let s = c.stats();
                total.reads_accepted += s.reads_accepted;
                total.writes_accepted += s.writes_accepted;
                total.reads_done += s.reads_done;
                total.writes_done += s.writes_done;
                total.read_hits += s.read_hits;
                total.write_hits += s.write_hits;
                total.write_drains += s.write_drains;
                total.drain_cycles += s.drain_cycles;
                total.refreshes += s.refreshes;
            }
            total
        };
        let mut perf = self.timers.report(self.dram_cycle);
        for c in &self.ctrls {
            let w = c.work();
            perf.ctrl_ticks += w.ticks;
            perf.timing_queries += w.timing_queries;
            perf.queue_entries_visited += w.queue_entries_visited;
        }
        perf.core_ticks = self.core_ticks;
        perf.core_polls = self.parking.polls;
        perf.hier_accesses = self.hier.accesses();
        SimReport {
            bandwidth_stack,
            latency_stack,
            cycle_stack: self.cycle_total,
            cycle_samples: std::mem::take(&mut self.cycle_samples),
            sim_cycles: self.dram_cycle,
            elapsed_us: self.dram_cycle as f64 * self.cfg.dram_cycle_ns() / 1000.0,
            ctrl_stats,
            hierarchy_stats: self.hier.stats(),
            cache_stats: self.hier.cache_stats(),
            instrs_retired: self.cores.iter().map(CoreModel::retired).sum(),
            latency_histogram: self.histogram.clone(),
            channel_stacks,
            samples,
            perf,
            audit,
            diagnoses,
        }
    }

    /// The memory controller of `channel` (for inspection in tests).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn controller(&self, channel: usize) -> &MemoryController {
        &self.ctrls[channel]
    }

    /// How many cores are parked right now (for inspection in tests).
    pub fn parked_cores(&self) -> usize {
        self.cores.len() - self.parking.awake.len()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }
}

/// Zips per-channel sample series into system-level samples: bandwidth
/// stacks aggregated across channels, latencies merged read-weighted.
///
/// Takes the per-channel series by reference so the caller does not have
/// to clone each channel's samples; only the aggregated output windows
/// are materialized.
fn aggregate_channel_samples(per_channel: &[&[TimeSample]]) -> Vec<TimeSample> {
    if per_channel.len() == 1 {
        return per_channel[0].to_vec();
    }
    let windows = per_channel.iter().map(|s| s.len()).min().unwrap_or(0);
    let mut out = Vec::with_capacity(windows);
    let mut stacks: Vec<&BandwidthStack> = Vec::with_capacity(per_channel.len());
    for w in 0..windows {
        stacks.clear();
        stacks.extend(per_channel.iter().map(|s| &s[w].bandwidth));
        let mut latency = LatencyStack::empty();
        let mut ctrl = dramstack_obs::CtrlWindowStats::default();
        for s in per_channel {
            latency.merge(&s[w].latency);
            ctrl.merge(&s[w].ctrl);
        }
        out.push(TimeSample {
            start_cycle: per_channel[0][w].start_cycle,
            cycles: per_channel[0][w].cycles,
            bandwidth: BandwidthStack::aggregate_channel_refs(&stacks),
            latency,
            ctrl,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramstack_core::BwComponent;
    use dramstack_workloads::{GapConfig, GapKernel, Graph};

    #[test]
    fn sequential_one_core_reads_something() {
        let cfg = SystemConfig::paper_default(1);
        let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
        let r = sim.run_for_us(30.0);
        assert!(r.achieved_gbps() > 1.0, "got {}", r.achieved_gbps());
        assert!(r.bandwidth_stack.is_consistent());
        assert!(r.avg_read_latency_ns() > 10.0);
        assert_eq!(r.bandwidth_stack.gbps(BwComponent::Write), 0.0);
    }

    #[test]
    fn stack_always_sums_to_peak() {
        let cfg = SystemConfig::paper_default(2);
        let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::random(0.2));
        let r = sim.run_for_us(30.0);
        assert!((r.bandwidth_stack.total_gbps() - 19.2).abs() < 1e-6);
        for s in &r.samples {
            assert!(s.bandwidth.is_consistent());
        }
    }

    #[test]
    fn refresh_component_is_visible() {
        // Even an idle system refreshes: tRFC/tREFI ≈ 4.5 % of peak.
        let cfg = SystemConfig::paper_default(1);
        let streams: Vec<Box<dyn InstrStream>> = vec![Box::new(VecStream::new(Vec::new()))];
        let mut sim = Simulator::new(cfg, streams);
        let r = sim.run_for_us(100.0);
        let refresh_frac = r.bandwidth_stack.fraction(BwComponent::Refresh);
        assert!(
            (refresh_frac - 420.0 / 9360.0).abs() < 0.01,
            "refresh fraction {refresh_frac}"
        );
        assert!(r.bandwidth_stack.fraction(BwComponent::Idle) > 0.9);
    }

    #[test]
    fn gap_trace_runs_to_completion() {
        let g = Graph::kronecker(7, 4, 5);
        let traces = GapKernel::Bfs.trace(&g, 2, &GapConfig::default());
        let cfg = SystemConfig::paper_default(2);
        let mut sim = Simulator::with_traces(cfg, traces);
        let r = sim.run_to_completion(20_000_000);
        assert!(sim.finished(), "bfs must finish");
        assert!(r.instrs_retired > 1000);
        assert!(r.bandwidth_stack.is_consistent());
    }

    #[test]
    fn more_cores_more_bandwidth() {
        let bw = |n: usize| {
            let cfg = SystemConfig::paper_default(n);
            let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
            sim.run_for_us(30.0).achieved_gbps()
        };
        let one = bw(1);
        let four = bw(4);
        assert!(four > 1.5 * one, "1c {one} → 4c {four}");
    }

    #[test]
    fn stores_produce_write_bandwidth() {
        let cfg = SystemConfig::paper_default(1);
        let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.5));
        let r = sim.run_for_us(50.0);
        assert!(
            r.bandwidth_stack.gbps(BwComponent::Write) > 0.1,
            "write bandwidth {}",
            r.bandwidth_stack.gbps(BwComponent::Write)
        );
        assert!(r.ctrl_stats.writes_done > 0);
    }

    #[test]
    fn two_channels_double_the_saturated_bandwidth() {
        let run = |channels: usize| {
            let mut cfg = SystemConfig::paper_default(8);
            cfg.channels = channels;
            let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
            sim.run_for_us(30.0)
        };
        let one = run(1);
        let two = run(2);
        assert!((two.bandwidth_stack.peak_gbps() - 38.4).abs() < 1e-9);
        assert_eq!(two.channel_stacks.len(), 2);
        assert!(
            two.achieved_gbps() > 1.4 * one.achieved_gbps(),
            "2 channels: {} vs 1 channel: {}",
            two.achieved_gbps(),
            one.achieved_gbps()
        );
        // Lines interleave: both channels carry comparable traffic.
        let a = two.channel_stacks[0].achieved_gbps();
        let b = two.channel_stacks[1].achieved_gbps();
        assert!(
            (a - b).abs() < 0.3 * a.max(b),
            "channel balance: {a} vs {b}"
        );
        // The aggregate is consistent against the system peak.
        assert!(two.bandwidth_stack.is_consistent());
        assert!((two.bandwidth_stack.total_gbps() - 38.4).abs() < 1e-6);
    }

    #[test]
    fn skewed_channel_mapping_is_diagnosed() {
        // With 2 channels, address bit 6 picks the channel: a 128-byte
        // stride starting at 0 lands every access on channel 0. The
        // advisor's cross-channel rule must call that out, and stay quiet
        // on the interleaved (64-byte stride) control run.
        let run = |stride: u64| {
            let mut cfg = SystemConfig::paper_default(4);
            cfg.channels = 2;
            cfg.sample_period = 6_000;
            let traces: Vec<Vec<dramstack_cpu::Instr>> = (0..4u64)
                .map(|c| {
                    (0..6000u64)
                        .map(|i| dramstack_cpu::Instr::Load {
                            addr: (c << 32) + i * stride,
                        })
                        .collect()
                })
                .collect();
            let mut sim = Simulator::with_traces(cfg, traces);
            sim.run_for_us(60.0)
        };
        let skewed = run(128);
        let imbalance = |r: &SimReport| {
            r.diagnoses
                .iter()
                .filter(|d| d.class == dramstack_obs::BottleneckClass::ChannelImbalance)
                .count()
        };
        assert!(imbalance(&skewed) > 0, "{:?}", skewed.diagnoses);
        let d = skewed
            .diagnoses
            .iter()
            .find(|d| d.class == dramstack_obs::BottleneckClass::ChannelImbalance)
            .unwrap();
        assert!(d.evidence.contains("channel 0"), "{}", d.evidence);
        assert!(d.windows >= 3, "{d:?}");
        let balanced = run(64);
        assert_eq!(imbalance(&balanced), 0, "{:?}", balanced.diagnoses);
    }

    #[test]
    fn default_armed_auditor_is_clean_on_paper_runs() {
        // Debug/test builds arm the shadow auditor on every default
        // simulation; the paper-figure configurations must audit clean —
        // protocol-legal command streams AND integer-exact stacks. Release
        // builds start disarmed, so the runs arm it to pass in both.
        let armed = |mut sim: Simulator| {
            assert_eq!(
                sim.audits.iter().all(Option::is_some),
                cfg!(debug_assertions)
            );
            sim.set_audit(true);
            sim
        };
        let check = |r: &crate::SimReport, what: &str| {
            assert!(r.audit.armed, "{what}: auditor not armed");
            assert!(r.audit.commands_audited > 0, "{what}: nothing audited");
            assert!(r.audit.reads_checked > 0, "{what}: no reads checked");
            assert!(
                r.audit.is_clean(),
                "{what}: violation {:?} / conservation {:?}",
                r.audit.first_violation(),
                r.audit.conservation.first()
            );
        };
        let mut sim = armed(Simulator::with_synthetic(
            SystemConfig::paper_default(2),
            SyntheticPattern::sequential(0.3),
        ));
        check(&sim.run_for_us(30.0), "sequential 2-core");

        let mut sim = armed(Simulator::with_synthetic(
            SystemConfig::paper_default(4),
            SyntheticPattern::random(0.2),
        ));
        check(&sim.run_for_us(30.0), "random 4-core");

        let mut cfg = SystemConfig::paper_default(2);
        cfg.channels = 2;
        let mut sim = armed(Simulator::with_synthetic(
            cfg,
            SyntheticPattern::sequential(0.0),
        ));
        check(&sim.run_for_us(30.0), "two channels");

        let g = Graph::kronecker(7, 4, 5);
        let traces = GapKernel::Bfs.trace(&g, 2, &GapConfig::default());
        let mut sim = armed(Simulator::with_traces(SystemConfig::paper_gap(2), traces));
        check(&sim.run_to_completion(20_000_000), "gap bfs");
    }

    #[test]
    fn auditor_never_perturbs_results() {
        // Armed vs. disarmed runs must be bit-identical once the audit
        // findings themselves (present only when armed) are normalized
        // away — the auditor observes, it never steers. And because the
        // audit probe is event-driven, fast-forwarding stays engaged.
        let run = |armed: bool| {
            let cfg = SystemConfig::paper_default(1);
            let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.2));
            sim.set_audit(armed);
            assert_eq!(sim.audits.iter().any(Option::is_some), armed);
            let r = sim.run_for_us(40.0);
            let ff = r.perf.fast_forwarded_cycles;
            let mut stripped = r.strip_perf();
            stripped.audit = dramstack_audit::AuditReport::default();
            (ff, stripped)
        };
        let (_, armed) = run(true);
        let (_, bare) = run(false);
        assert_eq!(armed, bare);

        // Same equivalence on an idle run, where fast-forward dominates:
        // arming must not re-disable the skip.
        let idle = |armed: bool| {
            let streams: Vec<Box<dyn InstrStream>> = vec![Box::new(VecStream::new(Vec::new()))];
            let mut sim = Simulator::new(SystemConfig::paper_default(1), streams);
            sim.set_audit(armed);
            let r = sim.run_for_us(100.0);
            let ff = r.perf.fast_forwarded_cycles;
            let mut stripped = r.strip_perf();
            stripped.audit = dramstack_audit::AuditReport::default();
            (ff, stripped)
        };
        let (ff_armed, r_armed) = idle(true);
        let (ff_bare, r_bare) = idle(false);
        assert_eq!(r_armed, r_bare);
        assert!(
            ff_armed > r_armed.sim_cycles / 2,
            "auditor disabled fast-forward: only {ff_armed} skipped"
        );
        assert_eq!(ff_armed, ff_bare);
    }

    #[test]
    fn injected_fault_surfaces_in_the_sim_report() {
        let cfg = SystemConfig::paper_default(2);
        let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
        sim.set_audit(true);
        sim.inject_fault(0, SeededFault::TrcdOneEarly);
        let r = sim.run_for_us(30.0);
        assert!(
            r.audit.violations_total > 0,
            "seeded tRCD fault not caught end-to-end"
        );
        let v = r.audit.first_violation().unwrap();
        assert_eq!(v.rule, dramstack_audit::AuditRule::TRcd, "{v}");
    }

    #[test]
    fn user_probe_tees_alongside_armed_auditor() {
        #[derive(Debug, Default)]
        struct Counter(std::rc::Rc<std::cell::Cell<u64>>);
        impl Probe for Counter {
            fn command_issued(&mut self, _: Cycle, _: dramstack_dram::Command, _: usize) {
                self.0.set(self.0.get() + 1);
            }
        }
        let count = std::rc::Rc::new(std::cell::Cell::new(0));
        let cfg = SystemConfig::paper_default(1);
        let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
        sim.set_audit(true);
        sim.attach_probe(0, Box::new(Counter(std::rc::Rc::clone(&count))));
        let r = sim.run_for_us(10.0);
        // Both observers saw the same command stream.
        assert!(count.get() > 0);
        assert_eq!(r.audit.commands_audited, count.get());
        assert!(r.audit.is_clean());
    }

    #[test]
    fn try_new_rejects_bad_configs_without_panicking() {
        let mut cfg = SystemConfig::paper_default(1);
        cfg.channels = 3;
        let streams: Vec<Box<dyn InstrStream>> = vec![Box::new(VecStream::new(Vec::new()))];
        match Simulator::try_new(cfg, streams) {
            Err(crate::ConfigError::BadChannelCount(3)) => {}
            other => panic!("expected BadChannelCount, got {other:?}"),
        }
        let cfg = SystemConfig::paper_default(2);
        match Simulator::try_new(cfg, Vec::new()) {
            Err(crate::ConfigError::StreamCount {
                expected: 2,
                got: 0,
            }) => {}
            other => panic!("expected StreamCount, got {other:?}"),
        }
    }

    #[test]
    fn channel_latency_drops_under_load_split() {
        let run = |channels: usize| {
            let mut cfg = SystemConfig::paper_default(8);
            cfg.channels = channels;
            let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
            sim.run_for_us(30.0).avg_read_latency_ns()
        };
        // Splitting a saturated load over two channels relieves queueing.
        assert!(run(2) < run(1));
    }
}
