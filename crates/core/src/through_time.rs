//! Through-time stacks: bandwidth and latency stacks per time window
//! (Section VIII-A of the paper, Fig. 7).
//!
//! A single aggregated stack hides phase behaviour; the sampler snapshots
//! both accountants every `period` DRAM cycles, producing a stack series
//! that exposes phases and feeds the per-sample extrapolation of Fig. 9.

use serde::{Deserialize, Serialize};

use dramstack_dram::{Cycle, CycleView};
use dramstack_memctrl::LatencyBreakdown;
use dramstack_obs::{CtrlWindowStats, WindowMerge, WindowObservation};

use crate::bandwidth::BandwidthAccountant;
use crate::components::{BwComponent, LatComponent};
use crate::latency::{LatencyAccountant, LatencyStack};
use crate::stack::BandwidthStack;

/// One sample of the through-time series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSample {
    /// First cycle covered by this sample.
    pub start_cycle: Cycle,
    /// Cycles covered.
    pub cycles: u64,
    /// The bandwidth stack of this window.
    pub bandwidth: BandwidthStack,
    /// The latency stack of reads completing in this window.
    pub latency: LatencyStack,
    /// Controller health over this window (queue depths, row-hit rate,
    /// drain occupancy), sampled from the per-cycle [`CycleView`] fields.
    pub ctrl: CtrlWindowStats,
}

impl TimeSample {
    /// Projects this window onto the advisor's neutral share vocabulary:
    /// bandwidth-stack fractions of peak, latency-stack fractions of mean
    /// read latency and controller health figures.
    pub fn observation(&self) -> WindowObservation {
        let bw = &self.bandwidth;
        let lat = &self.latency;
        let lat_total = lat.total_ns();
        let lat_frac = |c: LatComponent| {
            if lat_total > 0.0 {
                lat.ns(c) / lat_total
            } else {
                0.0
            }
        };
        WindowObservation {
            start_cycle: self.start_cycle,
            cycles: self.cycles,
            bw_data: bw.fraction(BwComponent::Read) + bw.fraction(BwComponent::Write),
            bw_refresh: bw.fraction(BwComponent::Refresh),
            bw_precharge: bw.fraction(BwComponent::Precharge),
            bw_activate: bw.fraction(BwComponent::Activate),
            bw_constraints: bw.fraction(BwComponent::Constraints),
            bw_idle: bw.fraction(BwComponent::Idle),
            lat_queue: lat_frac(LatComponent::Queue),
            lat_refresh: lat_frac(LatComponent::Refresh),
            lat_writeburst: lat_frac(LatComponent::WriteBurst),
            lat_preact: lat_frac(LatComponent::PreAct),
            row_hit_rate: self.ctrl.row_hit_rate(),
            drain_occupancy: self.ctrl.drain_occupancy(),
            mean_read_queue_depth: self.ctrl.mean_read_queue_depth(),
            reads: lat.reads,
        }
    }
}

/// Folding adjacent windows for the telemetry ring: cycle counts add,
/// bandwidth weights add, latency averages merge read-weighted and
/// controller health merges — the same arithmetic as whole-run
/// aggregation, so a downsampled series conserves every quantity.
impl WindowMerge for TimeSample {
    fn merge_window(&mut self, next: &Self) {
        self.cycles += next.cycles;
        self.bandwidth.merge(&next.bandwidth);
        self.latency.merge(&next.latency);
        self.ctrl.merge(&next.ctrl);
    }
}

/// Serializable state of a [`StackSampler`], captured by
/// [`StackSampler::snapshot_state`] and re-injected with
/// [`StackSampler::restore_state`] into a sampler constructed with the
/// same parameters. Captures the open (partial) window — accountants,
/// controller health — alongside the rolled samples, so a restored
/// sampler continues the window bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplerState {
    bw: BandwidthAccountant,
    lat: LatencyAccountant,
    window_start: Cycle,
    samples: Vec<TimeSample>,
    window: CtrlWindowStats,
}

impl SamplerState {
    /// Number of rolled windows held by this state.
    pub fn samples_len(&self) -> usize {
        self.samples.len()
    }

    /// Replays a [`SamplerDelta`] onto this (base) state.
    ///
    /// # Errors
    ///
    /// Returns a message when the delta was captured against a base with
    /// a different rolled-window count than this state holds.
    pub fn apply_delta(&mut self, delta: &SamplerDelta) -> Result<(), String> {
        if self.samples.len() as u64 != delta.base_len {
            return Err(format!(
                "sampler delta expects a base with {} windows, state has {}",
                delta.base_len,
                self.samples.len()
            ));
        }
        self.bw = delta.bw.clone();
        self.lat = delta.lat;
        self.window_start = delta.window_start;
        self.samples.extend(delta.appended.iter().cloned());
        self.window = delta.window.clone();
        Ok(())
    }
}

/// Dirty-state patch for one sampler: the full open-window bookkeeping
/// (accountants, controller health — all small) plus only the windows
/// rolled since the base snapshot. Produced by
/// [`StackSampler::delta_since`], replayed by
/// [`SamplerState::apply_delta`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplerDelta {
    bw: BandwidthAccountant,
    lat: LatencyAccountant,
    window_start: Cycle,
    base_len: u64,
    appended: Vec<TimeSample>,
    window: CtrlWindowStats,
}

/// Samples bandwidth and latency stacks every fixed number of cycles.
#[derive(Debug, Clone)]
pub struct StackSampler {
    bw: BandwidthAccountant,
    lat: LatencyAccountant,
    period: Cycle,
    cycle_ns: f64,
    window_start: Cycle,
    samples: Vec<TimeSample>,
    /// Controller health of the open window, accumulated from the view
    /// and moved into [`TimeSample::ctrl`] at each roll. Its `cycles` is
    /// the open window's length so far.
    window: CtrlWindowStats,
}

impl StackSampler {
    /// Creates a sampler for a channel with `n_banks` banks, `peak_gbps`
    /// peak bandwidth, a command clock of `cycle_ns` nanoseconds per cycle
    /// and the given sampling `period` in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(n_banks: usize, peak_gbps: f64, cycle_ns: f64, period: Cycle) -> Self {
        assert!(period > 0, "sampling period must be nonzero");
        StackSampler {
            bw: BandwidthAccountant::new(n_banks, peak_gbps),
            lat: LatencyAccountant::new(),
            period,
            cycle_ns,
            window_start: 0,
            samples: Vec::new(),
            window: CtrlWindowStats::default(),
        }
    }

    /// Accounts one cycle and rolls the window when the period elapses.
    pub fn account(&mut self, view: &CycleView) {
        if view.is_all_idle() {
            // An all-idle cycle touches two accountant counters and the
            // zero bucket of both depth histograms; skip classification.
            self.account_idle(1);
            return;
        }
        self.bw.account(view);
        let w = &mut self.window;
        if let Some(hit) = view.cas_hit {
            w.cas += 1;
            w.cas_hits += u64::from(hit);
        }
        w.drain_cycles += u64::from(view.drain);
        w.read_queue_depth.observe(view.read_q_depth as u64);
        w.write_queue_depth.observe(view.write_q_depth as u64);
        w.cycles += 1;
        if w.cycles == self.period {
            self.roll();
        }
    }

    /// Accounts `n` fully idle cycles in bulk — bit-identical to calling
    /// [`account`](Self::account) `n` times with [`CycleView::idle`],
    /// including any window rolls inside the span, but at O(windows)
    /// instead of O(cycles) cost. This is what
    /// [`account_span`](Self::account_span) does with an all-idle view.
    pub fn account_idle(&mut self, mut n: u64) {
        while n > 0 {
            let take = n.min(self.period - self.window.cycles);
            self.bw.account_idle(take);
            let w = &mut self.window;
            w.read_queue_depth.observe_n(0, take);
            w.write_queue_depth.observe_n(0, take);
            w.cycles += take;
            n -= take;
            if w.cycles == self.period {
                self.roll();
            }
        }
    }

    /// Accounts `n` identical cycles of `view` in bulk — bit-identical to
    /// calling [`account`](Self::account) `n` times with the same view,
    /// including window rolls inside the span. This is the sampler half of
    /// the event-horizon skip: a stalled controller span (saturated bus
    /// backlog, tRFC shadow, write drain, or nothing queued at all) has a
    /// constant view, so its whole stretch classifies in O(windows).
    ///
    /// The span must not contain CAS issues (`view.cas_hit` is `None`); a
    /// CAS would end the stall that made the span skippable.
    pub fn account_span(&mut self, view: &CycleView, mut n: u64) {
        if view.is_all_idle() {
            self.account_idle(n);
            return;
        }
        debug_assert!(view.cas_hit.is_none(), "CAS inside a bulk busy span");
        while n > 0 {
            let take = n.min(self.period - self.window.cycles);
            self.bw.account_span(view, take);
            let w = &mut self.window;
            if view.drain {
                w.drain_cycles += take;
            }
            w.read_queue_depth.observe_n(view.read_q_depth as u64, take);
            w.write_queue_depth
                .observe_n(view.write_q_depth as u64, take);
            w.cycles += take;
            n -= take;
            if w.cycles == self.period {
                self.roll();
            }
        }
    }

    /// Records a completed read into the current window.
    pub fn add_read(&mut self, b: &LatencyBreakdown) {
        self.lat.add(b);
    }

    fn roll(&mut self) {
        let bandwidth = self.bw.take_sample();
        let latency = self.lat.take_sample(self.cycle_ns);
        let ctrl = std::mem::take(&mut self.window);
        let start_cycle = self.window_start;
        self.window_start += ctrl.cycles;
        self.samples.push(TimeSample {
            start_cycle,
            cycles: ctrl.cycles,
            bandwidth,
            latency,
            ctrl,
        });
    }

    /// Finishes the trailing partial window (if any) and returns all
    /// samples.
    pub fn finish(mut self) -> Vec<TimeSample> {
        self.flush_partial();
        self.samples
    }

    /// Rolls the open partial window into the sample list without
    /// consuming the sampler (no-op when the window is empty).
    pub fn flush_partial(&mut self) {
        if self.window.cycles > 0 {
            self.roll();
        }
    }

    /// Samples collected so far (not including the open window).
    pub fn samples(&self) -> &[TimeSample] {
        &self.samples
    }

    /// Captures the sampler's full state, including the open window.
    pub fn snapshot_state(&self) -> SamplerState {
        SamplerState {
            bw: self.bw.clone(),
            lat: self.lat,
            window_start: self.window_start,
            samples: self.samples.clone(),
            window: self.window.clone(),
        }
    }

    /// Captures a [`SamplerDelta`] directly from the live sampler against
    /// a base that held `base_len` rolled windows: the (small) open-window
    /// bookkeeping plus only the windows rolled since the base.
    ///
    /// # Panics
    ///
    /// Panics if `base_len` exceeds the current window count (stale base
    /// bookkeeping; the series is append-only between reports).
    pub fn delta_since(&self, base_len: usize) -> SamplerDelta {
        assert!(
            base_len <= self.samples.len(),
            "sampler shrank from {base_len} to {} windows — samples are append-only",
            self.samples.len()
        );
        SamplerDelta {
            bw: self.bw.clone(),
            lat: self.lat,
            window_start: self.window_start,
            base_len: base_len as u64,
            appended: self.samples[base_len..].to_vec(),
            window: self.window.clone(),
        }
    }

    /// Restores state captured by [`snapshot_state`](Self::snapshot_state).
    /// The target must have been constructed with the same parameters
    /// (banks, peak, cycle time, period) as the snapshot source; only the
    /// mutable state is re-injected.
    pub fn restore_state(&mut self, state: &SamplerState) {
        self.bw = state.bw.clone();
        self.lat = state.lat;
        self.window_start = state.window_start;
        self.samples = state.samples.clone();
        self.window = state.window.clone();
    }

    /// The sampling period in cycles.
    pub fn period(&self) -> Cycle {
        self.period
    }
}

/// A detected execution phase: a contiguous run of samples with similar
/// bandwidth behaviour, with its aggregated stacks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Index of the first sample of this phase.
    pub start_sample: usize,
    /// Number of samples covered.
    pub len: usize,
    /// First cycle of the phase.
    pub start_cycle: Cycle,
    /// Cycles covered.
    pub cycles: u64,
    /// Aggregated bandwidth stack of the phase.
    pub bandwidth: BandwidthStack,
    /// Aggregated latency stack of the phase.
    pub latency: LatencyStack,
}

/// Segments a through-time series into phases: a new phase starts when a
/// sample's achieved-bandwidth fraction moves more than `threshold` away
/// from the running phase mean. Runs shorter than `min_len` samples are
/// folded into their successor, so noise does not fragment the series.
///
/// # Example
///
/// ```
/// use dramstack_core::through_time::detect_phases;
///
/// // No samples, no phases; a real series comes from a StackSampler or
/// // a SimReport's `samples` field.
/// assert!(detect_phases(&[], 0.15, 3).is_empty());
/// ```
///
/// # Panics
///
/// Panics if `threshold` is not positive or `min_len` is zero.
pub fn detect_phases(samples: &[TimeSample], threshold: f64, min_len: usize) -> Vec<Phase> {
    assert!(threshold > 0.0, "threshold must be positive");
    assert!(min_len > 0, "min_len must be nonzero");
    let mut boundaries = vec![0usize];
    let mut mean = f64::NAN;
    let mut count = 0usize;
    for (i, s) in samples.iter().enumerate() {
        let v = s.bandwidth.fraction(crate::BwComponent::Read)
            + s.bandwidth.fraction(crate::BwComponent::Write);
        if count == 0 {
            mean = v;
            count = 1;
            continue;
        }
        if (v - mean).abs() > threshold && i - boundaries.last().unwrap() >= min_len {
            boundaries.push(i);
            mean = v;
            count = 1;
        } else {
            mean = (mean * count as f64 + v) / (count + 1) as f64;
            count += 1;
        }
    }
    boundaries.push(samples.len());
    boundaries
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| {
            let slice = &samples[w[0]..w[1]];
            let bandwidth = aggregate_bandwidth(slice).expect("nonempty phase");
            let latency = aggregate_latency(slice);
            Phase {
                start_sample: w[0],
                len: slice.len(),
                start_cycle: slice[0].start_cycle,
                cycles: slice.iter().map(|s| s.cycles).sum(),
                bandwidth,
                latency,
            }
        })
        .collect()
}

/// Aggregates a sample series back into one overall bandwidth stack.
pub fn aggregate_bandwidth(samples: &[TimeSample]) -> Option<BandwidthStack> {
    let mut iter = samples.iter();
    let mut total = iter.next()?.bandwidth.clone();
    for s in iter {
        total.merge(&s.bandwidth);
    }
    Some(total)
}

/// Aggregates a sample series into one overall latency stack
/// (read-count weighted).
pub fn aggregate_latency(samples: &[TimeSample]) -> LatencyStack {
    let mut total = LatencyStack::empty();
    for s in samples {
        total.merge(&s.latency);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::BwComponent;
    use dramstack_dram::BurstKind;

    fn sampler() -> StackSampler {
        StackSampler::new(16, 19.2, 0.8333, 100)
    }

    #[test]
    fn windows_roll_at_period() {
        let mut s = sampler();
        let mut busy = CycleView::idle(16);
        busy.bus = Some(BurstKind::Read);
        let idle = CycleView::idle(16);
        for _ in 0..100 {
            s.account(&busy);
        }
        for _ in 0..100 {
            s.account(&idle);
        }
        let samples = s.finish();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].start_cycle, 0);
        assert_eq!(samples[1].start_cycle, 100);
        assert!((samples[0].bandwidth.fraction(BwComponent::Read) - 1.0).abs() < 1e-12);
        assert!((samples[1].bandwidth.fraction(BwComponent::Idle) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_window_is_flushed_by_finish() {
        let mut s = sampler();
        for _ in 0..150 {
            s.account(&CycleView::idle(16));
        }
        let samples = s.finish();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].cycles, 50);
    }

    #[test]
    fn reads_land_in_their_window() {
        let mut s = sampler();
        let b = LatencyBreakdown {
            base_cntlr: 10,
            base_dram: 20,
            ..Default::default()
        };
        s.add_read(&b);
        for _ in 0..100 {
            s.account(&CycleView::idle(16));
        }
        s.add_read(&b);
        s.add_read(&b);
        for _ in 0..100 {
            s.account(&CycleView::idle(16));
        }
        let samples = s.finish();
        assert_eq!(samples[0].latency.reads, 1);
        assert_eq!(samples[1].latency.reads, 2);
    }

    #[test]
    fn aggregation_matches_unsampled_accounting() {
        let mut s = sampler();
        let mut busy = CycleView::idle(16);
        busy.bus = Some(BurstKind::Write);
        for i in 0..250 {
            if i % 2 == 0 {
                s.account(&busy);
            } else {
                s.account(&CycleView::idle(16));
            }
        }
        let samples = s.finish();
        let agg = aggregate_bandwidth(&samples).unwrap();
        assert_eq!(agg.total_cycles, 250);
        assert!((agg.fraction(BwComponent::Write) - 125.0 / 250.0).abs() < 1e-12);
        assert!(agg.is_consistent());
    }

    #[test]
    fn aggregate_of_empty_series() {
        assert!(aggregate_bandwidth(&[]).is_none());
        assert_eq!(aggregate_latency(&[]).reads, 0);
    }

    /// Builds a sample with the given read fraction.
    fn sample_with_read(start: Cycle, frac: f64) -> TimeSample {
        let mut s = StackSampler::new(16, 19.2, 0.8333, 100);
        let mut busy = CycleView::idle(16);
        busy.bus = Some(BurstKind::Read);
        let idle = CycleView::idle(16);
        for i in 0..100 {
            if (i as f64) < frac * 100.0 {
                s.account(&busy);
            } else {
                s.account(&idle);
            }
        }
        let mut out = s.finish().remove(0);
        out.start_cycle = start;
        out
    }

    #[test]
    fn phases_are_detected_at_bandwidth_shifts() {
        // 10 low-bandwidth windows, then 10 high, then 10 low again.
        let mut samples = Vec::new();
        for i in 0..30u64 {
            let frac = if (10..20).contains(&i) { 0.8 } else { 0.1 };
            samples.push(sample_with_read(i * 100, frac));
        }
        let phases = detect_phases(&samples, 0.2, 2);
        assert_eq!(phases.len(), 3, "{phases:?}");
        assert_eq!(phases[0].len, 10);
        assert_eq!(phases[1].start_sample, 10);
        assert!(phases[1].bandwidth.fraction(crate::BwComponent::Read) > 0.7);
        assert!(phases[2].bandwidth.fraction(crate::BwComponent::Read) < 0.2);
        // Phases partition the series.
        let covered: usize = phases.iter().map(|p| p.len).sum();
        assert_eq!(covered, samples.len());
        let cycles: u64 = phases.iter().map(|p| p.cycles).sum();
        assert_eq!(cycles, 3000);
    }

    #[test]
    fn uniform_series_is_one_phase() {
        let samples: Vec<_> = (0..20).map(|i| sample_with_read(i * 100, 0.5)).collect();
        let phases = detect_phases(&samples, 0.15, 2);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].len, 20);
    }

    #[test]
    fn short_blips_do_not_fragment() {
        // One deviant window inside a uniform series, min_len 3.
        let mut samples: Vec<_> = (0..20).map(|i| sample_with_read(i * 100, 0.2)).collect();
        samples[7] = sample_with_read(700, 0.9);
        let phases = detect_phases(&samples, 0.25, 3);
        assert!(
            phases.len() <= 3,
            "blip should not explode phases: {}",
            phases.len()
        );
    }

    #[test]
    fn empty_series_has_no_phases() {
        assert!(detect_phases(&[], 0.1, 1).is_empty());
    }

    #[test]
    fn ctrl_window_stats_accumulate_from_view() {
        let mut s = sampler();
        let mut v = CycleView::idle(16);
        v.read_q_depth = 4;
        v.write_q_depth = 1;
        v.drain = true;
        v.cas_hit = Some(true);
        for _ in 0..50 {
            s.account(&v);
        }
        v.cas_hit = Some(false);
        v.drain = false;
        for _ in 0..50 {
            s.account(&v);
        }
        let samples = s.finish();
        assert_eq!(samples.len(), 1);
        let c = &samples[0].ctrl;
        assert_eq!(c.cycles, 100);
        assert_eq!(c.cas, 100);
        assert_eq!(c.cas_hits, 50);
        assert_eq!(c.drain_cycles, 50);
        assert_eq!(c.read_queue_depth.count, 100);
        assert!((c.mean_read_queue_depth() - 4.0).abs() < 1e-12);
        assert!((c.row_hit_rate() - 0.5).abs() < 1e-12);
        assert!((c.drain_occupancy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bulk_idle_equals_repeated_idle_accounting() {
        // Span crosses two window boundaries and leaves a partial window;
        // bulk accounting must produce identical samples, including rolls.
        let mut bulk = sampler();
        let mut single = sampler();
        let idle = CycleView::idle(16);
        let mut busy = CycleView::idle(16);
        busy.bus = Some(BurstKind::Read);
        // A little non-idle prefix so the bulk span starts mid-window.
        for _ in 0..37 {
            bulk.account(&busy);
            single.account(&busy);
        }
        bulk.account_idle(263);
        for _ in 0..263 {
            single.account(&idle);
        }
        let a = bulk.finish();
        let b = single.finish();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn bulk_span_equals_repeated_accounting() {
        // A busy (non-idle, no-CAS) view spanning window boundaries: the
        // bulk path must match per-cycle accounting sample for sample.
        let mut bulk = sampler();
        let mut single = sampler();
        let mut busy = CycleView::idle(16);
        busy.bus = Some(BurstKind::Write);
        busy.read_q_depth = 7;
        busy.write_q_depth = 3;
        busy.drain = true;
        let mut cas = CycleView::idle(16);
        cas.cas_hit = Some(true);
        for _ in 0..37 {
            bulk.account(&cas);
            single.account(&cas);
        }
        bulk.account_span(&busy, 263);
        for _ in 0..263 {
            single.account(&busy);
        }
        // An all-idle span delegates to the idle path.
        bulk.account_span(&CycleView::idle(16), 41);
        for _ in 0..41 {
            single.account(&CycleView::idle(16));
        }
        let a = bulk.finish();
        let b = single.finish();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].ctrl.drain_cycles, 63);
        assert_eq!(a[1].ctrl.drain_cycles, 100);
    }

    #[test]
    fn ctrl_stats_reset_between_windows() {
        let mut s = sampler();
        let mut v = CycleView::idle(16);
        v.cas_hit = Some(true);
        for _ in 0..100 {
            s.account(&v);
        }
        v.cas_hit = None;
        for _ in 0..100 {
            s.account(&v);
        }
        let samples = s.finish();
        assert_eq!(samples[0].ctrl.cas, 100);
        assert_eq!(samples[1].ctrl.cas, 0);
    }
}
