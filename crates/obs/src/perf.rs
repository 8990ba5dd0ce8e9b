//! Wall-clock self-profiling of the simulator's drive loop.
//!
//! [`PhaseTimers`] accumulates host time per [`SimPhase`] of the step
//! loop and summarizes into a serializable [`PerfReport`]; when disabled
//! (the default), [`PhaseTimers::begin`] returns `None` and the hot loop
//! pays a single branch. When enabled it times one step in
//! [`STEP_SAMPLE`] and scales the per-step phases up: six clock reads on
//! every ~1 µs step would make the profiled program a different one.
//!
//! None of this touches simulated state: profiling reads the host clock
//! only, so results are bit-identical whether or not it is enabled.

use std::time::Instant;

use serde::{get_field, Deserialize, Serialize, Sink, Value};

/// A phase of the simulator's per-cycle drive loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPhase {
    /// Memory-controller (and DRAM device) ticks.
    Ctrl,
    /// Delivering completed reads back to cores.
    Completions,
    /// Core model ticks.
    Cores,
    /// Pumping core requests into the controllers.
    Pump,
    /// Through-time sampling / window rolling.
    Sampling,
    /// Bulk skipping of spans with no request pending (idle machine).
    FastForward,
    /// Bulk skipping of spans with requests pending (stalled but busy).
    BusyForward,
}

impl SimPhase {
    /// All phases, in loop order.
    pub const ALL: [SimPhase; 7] = [
        SimPhase::Ctrl,
        SimPhase::Completions,
        SimPhase::Cores,
        SimPhase::Pump,
        SimPhase::Sampling,
        SimPhase::FastForward,
        SimPhase::BusyForward,
    ];

    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SimPhase::Ctrl => "ctrl",
            SimPhase::Completions => "completions",
            SimPhase::Cores => "cores",
            SimPhase::Pump => "pump",
            SimPhase::Sampling => "sampling",
            SimPhase::FastForward => "fast_forward",
            SimPhase::BusyForward => "busy_forward",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Whether the phase is part of every step (timed by sampling) rather
    /// than a whole skipped span (timed exactly).
    fn per_step(self) -> bool {
        !matches!(self, SimPhase::FastForward | SimPhase::BusyForward)
    }
}

/// [`PhaseTimers::begin_step`] times one step in this many.
pub const STEP_SAMPLE: u64 = 64;

/// Accumulates wall-clock time per [`SimPhase`].
///
/// Usage in the drive loop:
///
/// ```
/// # use dramstack_obs::{PhaseTimers, SimPhase};
/// let mut timers = PhaseTimers::new();
/// timers.enable();
/// let t = timers.begin();
/// // ... do the phase's work ...
/// timers.end(SimPhase::Ctrl, t);
/// assert!(timers.seconds(SimPhase::Ctrl) >= 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhaseTimers {
    enabled: bool,
    nanos: [u128; 7],
    started: Option<Instant>,
    wall_nanos: u128,
    /// Cost of one clock read, taken off every [`mark`](Self::mark)ed
    /// interval.
    read_nanos: u128,
    /// Calls to [`begin_step`](Self::begin_step), and how many were timed.
    steps: u64,
    timed_steps: u64,
    ff_cycles: u64,
    busy_ff_cycles: u64,
}

impl PhaseTimers {
    /// Disabled timers (every `begin` is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns profiling on and starts the overall wall clock.
    pub fn enable(&mut self) {
        self.enabled = true;
        if self.started.is_none() {
            // What one clock read costs: every interval between two marks
            // of a timed step holds one, a third of a ~100 ns phase.
            self.read_nanos = (0..32)
                .map(|_| {
                    let t = Instant::now();
                    Instant::now().duration_since(t).as_nanos()
                })
                .min()
                .unwrap_or(0);
            self.started = Some(Instant::now());
        }
    }

    /// Whether profiling is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing a phase; returns `None` (for free) when disabled.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Starts timing a step's phases, for one step in [`STEP_SAMPLE`]
    /// (`None` otherwise, which [`mark`](Self::mark) passes on for free);
    /// [`seconds`](Self::seconds) scales what the timed steps took to all
    /// of them.
    #[inline]
    pub fn begin_step(&mut self) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        self.steps += 1;
        if self.steps % STEP_SAMPLE != 1 {
            return None;
        }
        self.timed_steps += 1;
        Some(Instant::now())
    }

    /// Ends timing the phase started by [`begin`](Self::begin).
    #[inline]
    pub fn end(&mut self, phase: SimPhase, started: Option<Instant>) {
        if let Some(t) = started {
            self.nanos[phase.index()] += t.elapsed().as_nanos();
        }
    }

    /// Closes the phase running since `prev` and opens the next with a
    /// single clock read — for timing back-to-back phases in the hot step
    /// loop without a `begin`/`end` pair (two reads) per phase.
    #[inline]
    pub fn mark(&mut self, phase: SimPhase, prev: Option<Instant>) -> Option<Instant> {
        prev.map(|t| {
            let at = Instant::now();
            let nanos = at.duration_since(t).as_nanos();
            self.nanos[phase.index()] += nanos.saturating_sub(self.read_nanos);
            at
        })
    }

    /// Records `n` simulated cycles skipped with no request pending
    /// (tracked regardless of whether wall-clock profiling is enabled).
    #[inline]
    pub fn add_fast_forwarded(&mut self, n: u64) {
        self.ff_cycles += n;
    }

    /// Records `n` simulated cycles skipped with requests pending
    /// (tracked regardless of whether wall profiling is enabled).
    #[inline]
    pub fn add_busy_forwarded(&mut self, n: u64) {
        self.busy_ff_cycles += n;
    }

    /// Stops the overall wall clock (idempotent; called at report time).
    pub fn finish(&mut self) {
        if let Some(t) = self.started.take() {
            self.wall_nanos += t.elapsed().as_nanos();
        }
    }

    /// Seconds accumulated in a phase so far; for a per-step phase timed
    /// through [`begin_step`](Self::begin_step), the timed steps' seconds
    /// scaled to all steps.
    pub fn seconds(&self, phase: SimPhase) -> f64 {
        let seconds = self.nanos[phase.index()] as f64 / 1e9;
        if phase.per_step() && self.timed_steps > 0 {
            seconds * self.steps as f64 / self.timed_steps as f64
        } else {
            seconds
        }
    }

    /// Summarizes into a report for a run of `sim_cycles` DRAM cycles.
    pub fn report(&mut self, sim_cycles: u64) -> PerfReport {
        self.finish();
        let wall_seconds = self.wall_nanos as f64 / 1e9;
        PerfReport {
            enabled: self.enabled,
            wall_seconds,
            sim_cycles,
            sim_cycles_per_second: if wall_seconds > 0.0 {
                sim_cycles as f64 / wall_seconds
            } else {
                0.0
            },
            fast_forwarded_cycles: self.ff_cycles,
            busy_forwarded_cycles: self.busy_ff_cycles,
            phases: SimPhase::ALL
                .iter()
                .map(|p| (p.name().to_string(), self.seconds(*p)))
                .collect(),
            ctrl_ticks: 0,
            timing_queries: 0,
            queue_entries_visited: 0,
            core_ticks: 0,
            core_polls: 0,
            hier_accesses: 0,
        }
    }
}

/// Where the host time of a run went.
///
/// Carried in `SimReport::perf`. All-zero (with `enabled == false`) when
/// profiling was off; excluded from determinism comparisons because wall
/// clocks differ between runs even when simulation results do not.
///
/// Serialization is hand-written: the work counters are
/// written only when nonzero and read as zero when absent, so a stripped
/// report keeps the byte-exact JSON it had before the counters existed
/// and reports dumped by older builds still load.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Whether profiling was enabled for the run.
    pub enabled: bool,
    /// Total wall-clock seconds of the drive loop.
    pub wall_seconds: f64,
    /// Simulated DRAM cycles covered.
    pub sim_cycles: u64,
    /// Simulation speed in simulated cycles per host second.
    pub sim_cycles_per_second: f64,
    /// Simulated cycles skipped with no request pending rather than
    /// stepped (recorded even when wall profiling is off).
    pub fast_forwarded_cycles: u64,
    /// Simulated cycles skipped with requests pending rather than
    /// stepped (recorded even when wall profiling is off).
    pub busy_forwarded_cycles: u64,
    /// `(phase name, seconds)` per drive-loop phase, in loop order.
    pub phases: Vec<(String, f64)>,
    /// Controller ticks executed, summed over channels (deterministic,
    /// recorded even when wall profiling is off, like the two below).
    pub ctrl_ticks: u64,
    /// `earliest_*` timing queries the controllers asked of their devices.
    pub timing_queries: u64,
    /// Queue entries the controllers' per-tick passes looked at.
    pub queue_entries_visited: u64,
    /// Calls to `CoreModel::tick` made by the drive loop.
    pub core_ticks: u64,
    /// `CoreModel::stall_horizon` evaluations made by the drive loop.
    pub core_polls: u64,
    /// Calls to `Hierarchy::access`.
    pub hier_accesses: u64,
}

impl Serialize for PerfReport {
    fn serialize(&self, out: &mut dyn Sink) {
        let counters = [
            ("ctrl_ticks", self.ctrl_ticks),
            ("timing_queries", self.timing_queries),
            ("queue_entries_visited", self.queue_entries_visited),
            ("core_ticks", self.core_ticks),
            ("core_polls", self.core_polls),
            ("hier_accesses", self.hier_accesses),
        ];
        out.map(7 + counters.iter().filter(|(_, count)| *count != 0).count());
        out.key("enabled");
        self.enabled.serialize(out);
        out.key("wall_seconds");
        self.wall_seconds.serialize(out);
        out.key("sim_cycles");
        self.sim_cycles.serialize(out);
        out.key("sim_cycles_per_second");
        self.sim_cycles_per_second.serialize(out);
        out.key("fast_forwarded_cycles");
        self.fast_forwarded_cycles.serialize(out);
        out.key("busy_forwarded_cycles");
        self.busy_forwarded_cycles.serialize(out);
        out.key("phases");
        self.phases.serialize(out);
        for (key, count) in counters {
            if count != 0 {
                out.key(key);
                count.serialize(out);
            }
        }
        out.end();
    }
}

impl Deserialize for PerfReport {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let counter = |key| v.get(key).map_or(Ok(0), u64::from_value);
        Ok(PerfReport {
            enabled: bool::from_value(get_field(v, "enabled")?)?,
            wall_seconds: f64::from_value(get_field(v, "wall_seconds")?)?,
            sim_cycles: u64::from_value(get_field(v, "sim_cycles")?)?,
            sim_cycles_per_second: f64::from_value(get_field(v, "sim_cycles_per_second")?)?,
            fast_forwarded_cycles: u64::from_value(get_field(v, "fast_forwarded_cycles")?)?,
            busy_forwarded_cycles: u64::from_value(get_field(v, "busy_forwarded_cycles")?)?,
            phases: Deserialize::from_value(get_field(v, "phases")?)?,
            ctrl_ticks: counter("ctrl_ticks")?,
            timing_queries: counter("timing_queries")?,
            queue_entries_visited: counter("queue_entries_visited")?,
            core_ticks: counter("core_ticks")?,
            core_polls: counter("core_polls")?,
            hier_accesses: counter("hier_accesses")?,
        })
    }
}

impl PerfReport {
    /// A zeroed report (profiling off).
    pub fn disabled() -> Self {
        PerfReport {
            enabled: false,
            wall_seconds: 0.0,
            sim_cycles: 0,
            sim_cycles_per_second: 0.0,
            fast_forwarded_cycles: 0,
            busy_forwarded_cycles: 0,
            phases: Vec::new(),
            ctrl_ticks: 0,
            timing_queries: 0,
            queue_entries_visited: 0,
            core_ticks: 0,
            core_polls: 0,
            hier_accesses: 0,
        }
    }
}

impl Default for PerfReport {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timers_record_nothing() {
        let mut t = PhaseTimers::new();
        let h = t.begin();
        assert!(h.is_none());
        t.end(SimPhase::Ctrl, h);
        assert_eq!(t.seconds(SimPhase::Ctrl), 0.0);
        let r = t.report(1000);
        assert!(!r.enabled);
        assert_eq!(r.wall_seconds, 0.0);
        assert_eq!(r.sim_cycles_per_second, 0.0);
    }

    #[test]
    fn enabled_timers_accumulate_per_phase() {
        let mut t = PhaseTimers::new();
        t.enable();
        let h = t.begin();
        assert!(h.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(SimPhase::Cores, h);
        assert!(t.seconds(SimPhase::Cores) > 0.0);
        assert_eq!(t.seconds(SimPhase::Pump), 0.0);
        let r = t.report(5000);
        assert!(r.enabled);
        assert!(r.wall_seconds > 0.0);
        assert!(r.sim_cycles_per_second > 0.0);
        assert_eq!(r.sim_cycles, 5000);
        assert!(r.phases.iter().any(|(n, s)| n == "cores" && *s > 0.0));
        assert_eq!(r.phases.len(), 7);
    }

    #[test]
    fn mark_chains_attribute_to_the_closed_phase() {
        let mut t = PhaseTimers::new();
        t.enable();
        let h = t.begin();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let h = t.mark(SimPhase::Ctrl, h);
        let h = t.mark(SimPhase::Completions, h);
        t.end(SimPhase::Cores, h);
        assert!(t.seconds(SimPhase::Ctrl) > 0.0);
        // Disabled timers mark for free.
        let mut off = PhaseTimers::new();
        assert!(off.mark(SimPhase::Ctrl, None).is_none());
        assert_eq!(off.seconds(SimPhase::Ctrl), 0.0);
    }

    #[test]
    fn one_step_in_sixty_four_is_timed_and_scaled() {
        let mut t = PhaseTimers::new();
        assert!(t.begin_step().is_none(), "disabled: never timed");
        t.enable();
        let mut timed = 0;
        for _ in 0..2 * STEP_SAMPLE {
            let h = t.begin_step();
            if h.is_some() {
                timed += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let h = t.mark(SimPhase::Ctrl, h);
            t.mark(SimPhase::Cores, h);
        }
        assert_eq!(timed, 2);
        // 2 ms measured over 2 of 128 steps stands for ~128 ms.
        assert!(
            t.seconds(SimPhase::Ctrl) > 0.1,
            "{}",
            t.seconds(SimPhase::Ctrl)
        );
        // Spans are exact, not scaled.
        let h = t.begin();
        t.end(SimPhase::BusyForward, h);
        assert!(t.seconds(SimPhase::BusyForward) < 0.01);
    }

    #[test]
    fn busy_forwarded_cycles_are_recorded() {
        let mut t = PhaseTimers::new();
        t.add_busy_forwarded(250);
        t.add_busy_forwarded(50);
        let r = t.report(1_000);
        assert_eq!(r.busy_forwarded_cycles, 300);
    }

    #[test]
    fn fast_forwarded_cycles_are_recorded_even_when_disabled() {
        let mut t = PhaseTimers::new();
        t.add_fast_forwarded(1_000);
        t.add_fast_forwarded(500);
        let r = t.report(2_000);
        assert!(!r.enabled);
        assert_eq!(r.fast_forwarded_cycles, 1_500);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut t = PhaseTimers::new();
        t.enable();
        let r = t.report(123);
        let json = serde_json::to_string(&r).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn work_counters_roundtrip_and_vanish_when_zero() {
        let mut r = PhaseTimers::new().report(10);
        let bare = serde_json::to_string(&r).unwrap();
        assert!(!bare.contains("ctrl_ticks"), "{bare}");
        assert_eq!(serde_json::from_str::<PerfReport>(&bare).unwrap(), r);
        r.ctrl_ticks = 7;
        r.timing_queries = 21;
        r.queue_entries_visited = 99;
        r.core_ticks = 5;
        r.core_polls = 3;
        r.hier_accesses = 2;
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<PerfReport>(&json).unwrap(), r);
    }

    #[test]
    fn reports_from_older_builds_still_load() {
        // A report the CLI's `diff` golden reads as input, written when the
        // device still counted its memo's hits and refolds: those two keys
        // are ignored, every other counter comes back.
        let old: Value =
            serde_json::from_str(include_str!("../../../tests/data/cli/diff/before.json")).unwrap();
        let perf = old.get("perf").expect("the report has a perf section");
        assert_eq!(perf.as_map().map(<[_]>::len), Some(15), "{perf:?}");
        let r = PerfReport::from_value(perf).unwrap();
        assert_eq!(
            (
                r.sim_cycles,
                r.fast_forwarded_cycles,
                r.busy_forwarded_cycles
            ),
            (12_000, 0, 635)
        );
        assert_eq!(
            (r.ctrl_ticks, r.timing_queries, r.queue_entries_visited),
            (11_365, 904, 8_433)
        );
        assert_eq!(
            (r.core_ticks, r.core_polls, r.hier_accesses),
            (19_500, 884, 7_091)
        );
        // Written back, it carries the 13 fields a report has now.
        let back: Value = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back.as_map().map(<[_]>::len), Some(13));
    }

    #[test]
    fn disabled_report_is_default() {
        assert_eq!(PerfReport::default(), PerfReport::disabled());
    }
}
