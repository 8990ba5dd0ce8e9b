//! Automated bottleneck advisor: the paper's diagnosis logic as code.
//!
//! The whole point of a bandwidth/latency stack is that its shape tells
//! you what to fix. This module encodes that reading as deterministic
//! rules over per-window stack shares: each sample window is classified
//! into a [`BottleneckClass`] (or none), hysteresis across windows
//! suppresses single-window noise, and sustained conditions are emitted
//! as typed [`Diagnosis`] records carrying the evidence and the paper's
//! suggested remedy.
//!
//! The advisor consumes a neutral [`WindowObservation`] of named shares
//! rather than the stack types themselves, so it can run here — below the
//! stack crates in the dependency order — and be fed by any of them.

use serde::{Deserialize, Serialize};

/// Stack shares and controller health of one sample window, normalized
/// so the advisor needs no knowledge of the stack types.
///
/// Bandwidth shares are fractions of peak bandwidth and sum to ~1;
/// latency shares are fractions of the window's mean read latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowObservation {
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Cycles covered.
    pub cycles: u64,
    /// Useful data-transfer share (read + write bursts).
    pub bw_data: f64,
    /// Refresh share of the bandwidth stack.
    pub bw_refresh: f64,
    /// Precharge share.
    pub bw_precharge: f64,
    /// Activate share.
    pub bw_activate: f64,
    /// Timing-constraint share (tFAW, tRRD, tCCD, bus turnaround).
    pub bw_constraints: f64,
    /// Idle share (no request waiting).
    pub bw_idle: f64,
    /// Latency share of queueing.
    pub lat_queue: f64,
    /// Latency share of refresh stalls.
    pub lat_refresh: f64,
    /// Latency share of write-drain stalls.
    pub lat_writeburst: f64,
    /// Latency share of precharge/activate serialization.
    pub lat_preact: f64,
    /// Row-buffer hit rate of the window's CAS commands.
    pub row_hit_rate: f64,
    /// Fraction of cycles spent in write-drain mode.
    pub drain_occupancy: f64,
    /// Mean read-queue depth over the window.
    pub mean_read_queue_depth: f64,
    /// Reads completed in the window.
    pub reads: u64,
}

impl WindowObservation {
    /// An all-zero observation (useful as a builder base in tests).
    pub fn zero() -> Self {
        WindowObservation {
            start_cycle: 0,
            cycles: 0,
            bw_data: 0.0,
            bw_refresh: 0.0,
            bw_precharge: 0.0,
            bw_activate: 0.0,
            bw_constraints: 0.0,
            bw_idle: 0.0,
            lat_queue: 0.0,
            lat_refresh: 0.0,
            lat_writeburst: 0.0,
            lat_preact: 0.0,
            row_hit_rate: 0.0,
            drain_occupancy: 0.0,
            mean_read_queue_depth: 0.0,
            reads: 0,
        }
    }
}

/// The bottleneck classes the advisor can diagnose, mirroring the
/// paper's reading of stack shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BottleneckClass {
    /// Refresh occupies far more than its nominal tRFC/tREFI share.
    RefreshBound,
    /// Write drains stall reads for a significant share of time.
    WriteDrainBound,
    /// The data bus is (nearly) fully utilized: the bandwidth ceiling.
    Saturated,
    /// Precharge/activate dominate with a poor row-hit rate.
    RowConflictBound,
    /// Activate-rate limits (tFAW/tRRD) and other timing constraints
    /// dominate despite decent locality.
    ActivateBound,
    /// DRAM sits idle because too few requests arrive.
    RequestLimited,
    /// Achieved bandwidth diverges across channels: the address mapping
    /// concentrates traffic on a subset of them.
    ChannelImbalance,
}

impl BottleneckClass {
    /// Every class, in diagnosis priority order.
    pub const ALL: [BottleneckClass; 7] = [
        BottleneckClass::RefreshBound,
        BottleneckClass::WriteDrainBound,
        BottleneckClass::Saturated,
        BottleneckClass::RowConflictBound,
        BottleneckClass::ActivateBound,
        BottleneckClass::RequestLimited,
        BottleneckClass::ChannelImbalance,
    ];

    /// Stable lowercase name used in reports and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            BottleneckClass::RefreshBound => "refresh-bound",
            BottleneckClass::WriteDrainBound => "write-drain-bound",
            BottleneckClass::Saturated => "saturated",
            BottleneckClass::RowConflictBound => "row-conflict-bound",
            BottleneckClass::ActivateBound => "activate-bound",
            BottleneckClass::RequestLimited => "request-limited",
            BottleneckClass::ChannelImbalance => "channel-imbalance",
        }
    }

    /// The paper's suggested remedy for this bottleneck.
    pub fn suggestion(self) -> &'static str {
        match self {
            BottleneckClass::RefreshBound => {
                "refresh dominates: raise tREFI (temperature allowing), use \
                 per-bank refresh, or spread traffic over more ranks"
            }
            BottleneckClass::WriteDrainBound => {
                "write drains stall reads: enlarge the write queue or widen \
                 the drain hysteresis watermarks"
            }
            BottleneckClass::Saturated => {
                "the data bus is the bottleneck: add channels, reduce \
                 traffic, or accept the bandwidth ceiling"
            }
            BottleneckClass::RowConflictBound => {
                "row conflicts dominate: improve locality, try another \
                 address mapping, or a different page policy"
            }
            BottleneckClass::ActivateBound => {
                "activate-rate limited (tFAW/tRRD): spread accesses across \
                 bank groups or increase row reuse"
            }
            BottleneckClass::RequestLimited => {
                "DRAM is under-used: issue more parallel requests (more \
                 cores, deeper MLP, prefetching)"
            }
            BottleneckClass::ChannelImbalance => {
                "channels are unevenly loaded: pick an address mapping that \
                 interleaves the hot stride across channels (e.g. hash or \
                 permute the channel bits)"
            }
        }
    }
}

impl std::fmt::Display for BottleneckClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One sustained bottleneck diagnosed over a span of windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// The diagnosed bottleneck class.
    pub class: BottleneckClass,
    /// Index of the first window of the sustained span.
    pub first_window: usize,
    /// Number of windows the condition held.
    pub windows: usize,
    /// First cycle of the span.
    pub start_cycle: u64,
    /// Human-readable evidence (the shares that triggered the rule,
    /// averaged over the span).
    pub evidence: String,
    /// The paper's suggested remedy.
    pub suggestion: String,
}

impl std::fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} over {} window(s) from window {}: {} — {}",
            self.class, self.windows, self.first_window, self.evidence, self.suggestion
        )
    }
}

// Thresholds and hysteresis of the rule set. They encode the paper's
// qualitative reading of stack shapes (e.g. refresh nominally costs
// tRFC/tREFI ≈ 4.5 %; triple that is anomalous).

/// Consecutive windows a class must hold before a diagnosis opens, and
/// must lapse before it closes (noise suppression).
const HYSTERESIS_WINDOWS: usize = 3;
/// Refresh bandwidth share that flags refresh-bound.
const REFRESH_SHARE: f64 = 0.12;
/// Write-drain occupancy (or latency share) that flags drain-bound.
const DRAIN_SHARE: f64 = 0.20;
/// Data share of peak that counts as saturated.
const SATURATED_SHARE: f64 = 0.70;
/// Combined precharge+activate share that flags conflict-bound.
const PREACT_SHARE: f64 = 0.15;
/// Row-hit rate below which pre/act pressure reads as conflicts.
const CONFLICT_HIT_RATE: f64 = 0.60;
/// Constraint share that flags activate/tFAW-bound.
const CONSTRAINT_SHARE: f64 = 0.20;
/// Idle share above which a window is request-limited.
const IDLE_SHARE: f64 = 0.60;
/// Busiest-to-laziest channel data-share ratio that flags a window as
/// channel-imbalanced (cross-channel rule).
const IMBALANCE_RATIO: f64 = 2.0;
/// Minimum data share the busiest channel must carry before skew is
/// worth flagging — keeps near-idle runs quiet, where tiny absolute
/// differences produce huge ratios.
const IMBALANCE_MIN_SHARE: f64 = 0.10;

/// Streaming bottleneck classifier with hysteresis.
///
/// Feed one [`WindowObservation`] per sample window via
/// [`observe`](Advisor::observe); sustained conditions accumulate and
/// [`finish`](Advisor::finish) returns them. [`current`](Advisor::current)
/// exposes the open diagnosis for live display.
#[derive(Debug, Clone, Default)]
pub struct Advisor {
    window: usize,
    /// Candidate class and its consecutive-window streak (pre-diagnosis).
    candidate: Option<(BottleneckClass, usize)>,
    /// Open diagnosis span, if any.
    open: Option<OpenSpan>,
    done: Vec<Diagnosis>,
}

#[derive(Debug, Clone)]
struct OpenSpan {
    class: BottleneckClass,
    first_window: usize,
    start_cycle: u64,
    windows: usize,
    /// Consecutive non-matching windows (closes at hysteresis).
    lapse: usize,
    /// Running sums for the evidence line.
    sum_primary: f64,
    sum_secondary: f64,
}

impl Advisor {
    /// Classifies one window (no hysteresis); `None` means healthy.
    pub fn classify(w: &WindowObservation) -> Option<BottleneckClass> {
        // Priority order: specific pathologies before the generic
        // saturated/request-limited endpoints.
        if w.bw_refresh >= REFRESH_SHARE || w.lat_refresh >= 2.0 * REFRESH_SHARE {
            return Some(BottleneckClass::RefreshBound);
        }
        if w.drain_occupancy >= DRAIN_SHARE || w.lat_writeburst >= DRAIN_SHARE {
            return Some(BottleneckClass::WriteDrainBound);
        }
        if w.bw_data >= SATURATED_SHARE {
            return Some(BottleneckClass::Saturated);
        }
        let preact = w.bw_precharge + w.bw_activate;
        if preact >= PREACT_SHARE && w.row_hit_rate < CONFLICT_HIT_RATE {
            return Some(BottleneckClass::RowConflictBound);
        }
        if w.bw_constraints >= CONSTRAINT_SHARE
            || (w.bw_activate + w.bw_constraints >= CONSTRAINT_SHARE
                && w.row_hit_rate >= CONFLICT_HIT_RATE)
        {
            return Some(BottleneckClass::ActivateBound);
        }
        if w.bw_idle >= IDLE_SHARE && w.mean_read_queue_depth < 1.0 && w.reads > 0 {
            return Some(BottleneckClass::RequestLimited);
        }
        None
    }

    /// Evidence inputs for `class` from one window: the primary share the
    /// rule fired on plus a secondary corroborating figure.
    fn evidence_inputs(w: &WindowObservation, class: BottleneckClass) -> (f64, f64) {
        match class {
            BottleneckClass::RefreshBound => (w.bw_refresh, w.lat_refresh),
            BottleneckClass::WriteDrainBound => (w.drain_occupancy, w.lat_writeburst),
            BottleneckClass::Saturated => (w.bw_data, w.mean_read_queue_depth),
            BottleneckClass::RowConflictBound => (w.bw_precharge + w.bw_activate, w.row_hit_rate),
            BottleneckClass::ActivateBound => (w.bw_constraints, w.row_hit_rate),
            BottleneckClass::RequestLimited => (w.bw_idle, w.mean_read_queue_depth),
            // Cross-channel: a single observation carries no cross-channel
            // view; `diagnose_channel_imbalance` assembles the real
            // evidence from the per-channel series.
            BottleneckClass::ChannelImbalance => (w.bw_data, 0.0),
        }
    }

    fn evidence_line(class: BottleneckClass, primary: f64, secondary: f64) -> String {
        match class {
            BottleneckClass::RefreshBound => format!(
                "refresh takes {:.1} % of peak bandwidth ({:.1} % of read latency); nominal is ~4.5 %",
                primary * 100.0,
                secondary * 100.0
            ),
            BottleneckClass::WriteDrainBound => format!(
                "write drains occupy {:.1} % of cycles ({:.1} % of read latency)",
                primary * 100.0,
                secondary * 100.0
            ),
            BottleneckClass::Saturated => format!(
                "data transfers use {:.1} % of peak bandwidth at mean read-queue depth {:.1}",
                primary * 100.0,
                secondary
            ),
            BottleneckClass::RowConflictBound => format!(
                "precharge+activate take {:.1} % of peak with a {:.1} % row-hit rate",
                primary * 100.0,
                secondary * 100.0
            ),
            BottleneckClass::ActivateBound => format!(
                "timing constraints block {:.1} % of peak at a {:.1} % row-hit rate",
                primary * 100.0,
                secondary * 100.0
            ),
            BottleneckClass::RequestLimited => format!(
                "DRAM idles {:.1} % of peak with mean read-queue depth {:.2}",
                primary * 100.0,
                secondary
            ),
            BottleneckClass::ChannelImbalance => format!(
                "per-channel data shares diverge (flagged channel at {:.1} % of peak)",
                primary * 100.0
            ),
        }
    }

    /// Feeds one window. Returns the class of any diagnosis that *closed*
    /// on this window (rarely needed; most callers poll
    /// [`current`](Advisor::current) or read [`finish`](Advisor::finish)).
    pub fn observe(&mut self, w: &WindowObservation) -> Option<BottleneckClass> {
        let class = Self::classify(w);
        let idx = self.window;
        self.window += 1;
        let mut closed = None;

        if let Some(span) = &mut self.open {
            if class == Some(span.class) {
                span.windows += 1;
                span.lapse = 0;
                let (p, s) = Self::evidence_inputs(w, span.class);
                span.sum_primary += p;
                span.sum_secondary += s;
            } else {
                span.lapse += 1;
                if span.lapse >= HYSTERESIS_WINDOWS {
                    closed = Some(span.class);
                    self.close_open();
                }
            }
        }
        if self.open.is_none() {
            match (class, self.candidate) {
                (Some(c), Some((cand, streak))) if c == cand => {
                    let streak = streak + 1;
                    if streak >= HYSTERESIS_WINDOWS {
                        let (p, s) = Self::evidence_inputs(w, c);
                        self.open = Some(OpenSpan {
                            class: c,
                            first_window: idx + 1 - streak,
                            start_cycle: w.start_cycle,
                            windows: streak,
                            lapse: 0,
                            // Seed the running evidence with the streak's
                            // last window; earlier ones are close by
                            // construction (same class held).
                            sum_primary: p * streak as f64,
                            sum_secondary: s * streak as f64,
                        });
                        self.candidate = None;
                    } else {
                        self.candidate = Some((c, streak));
                    }
                }
                (Some(c), _) => self.candidate = Some((c, 1)),
                (None, _) => self.candidate = None,
            }
        }
        closed
    }

    fn close_open(&mut self) {
        if let Some(span) = self.open.take() {
            let n = span.windows.max(1) as f64;
            self.done.push(Diagnosis {
                class: span.class,
                first_window: span.first_window,
                windows: span.windows,
                start_cycle: span.start_cycle,
                evidence: Self::evidence_line(
                    span.class,
                    span.sum_primary / n,
                    span.sum_secondary / n,
                ),
                suggestion: span.class.suggestion().to_string(),
            });
        }
    }

    /// The class of the currently open (sustained, not yet closed)
    /// diagnosis, for live display.
    pub fn current(&self) -> Option<BottleneckClass> {
        self.open.as_ref().map(|s| s.class)
    }

    /// Closes any open span and returns every diagnosis, in onset order.
    pub fn finish(mut self) -> Vec<Diagnosis> {
        self.close_open();
        self.done
    }
}

/// Runs the advisor over a complete observation series.
pub fn diagnose(windows: &[WindowObservation]) -> Vec<Diagnosis> {
    let mut a = Advisor::default();
    for w in windows {
        a.observe(w);
    }
    a.finish()
}

/// Open span of the cross-channel imbalance rule: window bookkeeping plus
/// a running per-channel data-share sum for the evidence line.
struct ImbalanceSpan {
    first_window: usize,
    start_cycle: u64,
    windows: usize,
    lapse: usize,
    sum_share: Vec<f64>,
}

impl ImbalanceSpan {
    fn close(self) -> Diagnosis {
        let n = self.windows.max(1) as f64;
        let means: Vec<f64> = self.sum_share.iter().map(|s| s / n).collect();
        let (busiest, bmean) = means
            .iter()
            .copied()
            .enumerate()
            .fold((0, f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
        let (laziest, lmean) = means
            .iter()
            .copied()
            .enumerate()
            .fold((0, f64::MAX), |a, b| if b.1 < a.1 { b } else { a });
        let skew = if lmean > 0.0 {
            format!(" ({:.1}x skew)", bmean / lmean)
        } else {
            String::new()
        };
        Diagnosis {
            class: BottleneckClass::ChannelImbalance,
            first_window: self.first_window,
            windows: self.windows,
            start_cycle: self.start_cycle,
            evidence: format!(
                "channel {busiest} averages {:.1} % of peak data vs {:.1} % on channel {laziest}{skew}",
                bmean * 100.0,
                lmean * 100.0,
            ),
            suggestion: BottleneckClass::ChannelImbalance.suggestion().to_string(),
        }
    }
}

/// Runs the cross-channel imbalance rule over per-channel observation
/// series — one window-aligned series per channel, as produced by
/// per-channel samplers sharing a window clock.
///
/// A window is imbalanced when the busiest channel's data share is at
/// least 10 % of its peak and at least twice the laziest channel's. The same hysteresis as the single-series
/// rules suppresses transient skew (e.g. one channel refreshing).
pub fn diagnose_channel_imbalance(per_channel: &[&[WindowObservation]]) -> Vec<Diagnosis> {
    let channels = per_channel.len();
    if channels < 2 {
        return Vec::new();
    }
    let windows = per_channel.iter().map(|s| s.len()).min().unwrap_or(0);
    let mut done = Vec::new();
    let mut streak = 0usize;
    let mut open: Option<ImbalanceSpan> = None;
    for i in 0..windows {
        let shares: Vec<f64> = per_channel.iter().map(|s| s[i].bw_data).collect();
        let busiest = shares.iter().copied().fold(0.0_f64, f64::max);
        let laziest = shares.iter().copied().fold(f64::INFINITY, f64::min);
        let skewed = busiest >= IMBALANCE_MIN_SHARE && busiest >= IMBALANCE_RATIO * laziest;
        if let Some(span) = &mut open {
            if skewed {
                span.windows += 1;
                span.lapse = 0;
                for (sum, s) in span.sum_share.iter_mut().zip(&shares) {
                    *sum += s;
                }
            } else {
                span.lapse += 1;
                if span.lapse >= HYSTERESIS_WINDOWS {
                    done.push(open.take().unwrap().close());
                }
            }
            continue;
        }
        if skewed {
            streak += 1;
            if streak >= HYSTERESIS_WINDOWS {
                let first_window = i + 1 - streak;
                open = Some(ImbalanceSpan {
                    first_window,
                    start_cycle: per_channel[0][first_window].start_cycle,
                    windows: streak,
                    lapse: 0,
                    // Seed the evidence with the streak's last window;
                    // earlier ones are close by construction.
                    sum_share: shares.iter().map(|s| s * streak as f64).collect(),
                });
                streak = 0;
            }
        } else {
            streak = 0;
        }
    }
    if let Some(span) = open {
        done.push(span.close());
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refresh_heavy(i: u64) -> WindowObservation {
        WindowObservation {
            start_cycle: i * 1000,
            cycles: 1000,
            bw_refresh: 0.25,
            lat_refresh: 0.4,
            bw_data: 0.3,
            reads: 50,
            ..WindowObservation::zero()
        }
    }

    fn healthy(i: u64) -> WindowObservation {
        WindowObservation {
            start_cycle: i * 1000,
            cycles: 1000,
            bw_data: 0.4,
            bw_refresh: 0.045,
            bw_idle: 0.3,
            mean_read_queue_depth: 3.0,
            row_hit_rate: 0.9,
            reads: 50,
            ..WindowObservation::zero()
        }
    }

    #[test]
    fn sustained_refresh_pressure_is_diagnosed() {
        let obs: Vec<_> = (0..10).map(refresh_heavy).collect();
        let d = diagnose(&obs);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].class, BottleneckClass::RefreshBound);
        assert_eq!(d[0].first_window, 0);
        assert_eq!(d[0].windows, 10);
        assert!(d[0].evidence.contains("refresh"), "{}", d[0].evidence);
        assert!(!d[0].suggestion.is_empty());
    }

    #[test]
    fn single_window_blips_are_suppressed() {
        // healthy, one bad window, healthy: hysteresis of 3 keeps quiet.
        let mut obs: Vec<_> = (0..10).map(healthy).collect();
        obs[4] = refresh_heavy(4);
        let d = diagnose(&obs);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn diagnosis_survives_short_lapses() {
        // 4 bad, 1 healthy, 4 bad: one diagnosis spanning 8 bad windows,
        // not two — the 1-window lapse is inside the hysteresis.
        let mut obs: Vec<_> = (0..9).map(refresh_heavy).collect();
        obs[4] = healthy(4);
        let d = diagnose(&obs);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].windows, 8);
    }

    #[test]
    fn distinct_phases_get_distinct_diagnoses() {
        let mut obs: Vec<_> = (0..6).map(refresh_heavy).collect();
        // A clearly saturated phase, separated by enough healthy windows.
        for i in 6..12 {
            obs.push(healthy(i));
        }
        for i in 12..18 {
            obs.push(WindowObservation {
                start_cycle: i * 1000,
                cycles: 1000,
                bw_data: 0.85,
                mean_read_queue_depth: 20.0,
                row_hit_rate: 0.8,
                reads: 300,
                ..WindowObservation::zero()
            });
        }
        let d = diagnose(&obs);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].class, BottleneckClass::RefreshBound);
        assert_eq!(d[1].class, BottleneckClass::Saturated);
        assert!(d[1].first_window >= 12);
    }

    #[test]
    fn request_limited_requires_idle_and_shallow_queue() {
        let w = WindowObservation {
            bw_idle: 0.8,
            mean_read_queue_depth: 0.2,
            reads: 10,
            ..WindowObservation::zero()
        };
        assert_eq!(Advisor::classify(&w), Some(BottleneckClass::RequestLimited));
        // Deep queues mean the idle is someone else's fault.
        let busy_queue = WindowObservation {
            mean_read_queue_depth: 8.0,
            ..w
        };
        assert_eq!(Advisor::classify(&busy_queue), None);
    }

    #[test]
    fn conflict_and_activate_bound_split_on_hit_rate() {
        let conflicts = WindowObservation {
            bw_precharge: 0.12,
            bw_activate: 0.10,
            row_hit_rate: 0.2,
            bw_data: 0.3,
            reads: 100,
            ..WindowObservation::zero()
        };
        assert_eq!(
            Advisor::classify(&conflicts),
            Some(BottleneckClass::RowConflictBound)
        );
        let faw = WindowObservation {
            bw_constraints: 0.3,
            row_hit_rate: 0.9,
            bw_data: 0.4,
            reads: 100,
            ..WindowObservation::zero()
        };
        assert_eq!(
            Advisor::classify(&faw),
            Some(BottleneckClass::ActivateBound)
        );
    }

    #[test]
    fn current_exposes_open_diagnosis_for_live_display() {
        let mut a = Advisor::default();
        assert!(a.current().is_none());
        for i in 0..5 {
            a.observe(&refresh_heavy(i));
        }
        assert_eq!(a.current(), Some(BottleneckClass::RefreshBound));
        let d = a.finish();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn class_names_and_suggestions_are_stable() {
        for c in BottleneckClass::ALL {
            assert!(!c.name().is_empty());
            assert!(!c.suggestion().is_empty());
            assert_eq!(c.to_string(), c.name());
        }
    }

    fn channel_series(share: f64, n: u64) -> Vec<WindowObservation> {
        (0..n)
            .map(|i| WindowObservation {
                start_cycle: i * 1000,
                cycles: 1000,
                bw_data: share,
                reads: (share * 100.0) as u64,
                ..WindowObservation::zero()
            })
            .collect()
    }

    #[test]
    fn sustained_channel_skew_is_diagnosed() {
        let hot = channel_series(0.48, 8);
        let cold = channel_series(0.02, 8);
        let d = diagnose_channel_imbalance(&[&hot, &cold]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].class, BottleneckClass::ChannelImbalance);
        assert_eq!(d[0].first_window, 0);
        assert_eq!(d[0].windows, 8);
        assert!(d[0].evidence.contains("channel 0"), "{}", d[0].evidence);
        assert!(d[0].evidence.contains("channel 1"), "{}", d[0].evidence);
        assert!(d[0].evidence.contains("skew"), "{}", d[0].evidence);
    }

    #[test]
    fn balanced_channels_stay_quiet() {
        let a = channel_series(0.40, 8);
        let b = channel_series(0.35, 8);
        let d = diagnose_channel_imbalance(&[&a, &b]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn idle_channels_are_not_flagged_despite_huge_ratios() {
        // 0.04 vs 0.001 is a 40x ratio, but the busiest channel is far
        // below the 10 % floor: nothing worth rebalancing.
        let a = channel_series(0.04, 8);
        let b = channel_series(0.001, 8);
        let d = diagnose_channel_imbalance(&[&a, &b]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn transient_skew_is_suppressed_by_hysteresis() {
        let mut hot = channel_series(0.38, 10);
        let cold = channel_series(0.36, 10);
        // Two skewed windows (below the 3-window hysteresis) stay quiet.
        hot[4].bw_data = 0.8;
        hot[5].bw_data = 0.8;
        let d = diagnose_channel_imbalance(&[&hot, &cold]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn one_dead_channel_is_reported_without_a_ratio() {
        let hot = channel_series(0.50, 6);
        let dead = channel_series(0.0, 6);
        let d = diagnose_channel_imbalance(&[&hot, &dead]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].evidence.contains("0.0 % on channel 1"),
            "{}",
            d[0].evidence
        );
        assert!(!d[0].evidence.contains("skew"), "{}", d[0].evidence);
    }

    #[test]
    fn single_channel_series_never_imbalanced() {
        let only = channel_series(0.9, 8);
        let d = diagnose_channel_imbalance(&[&only]);
        assert!(d.is_empty());
    }

    #[test]
    fn diagnosis_roundtrips_through_json() {
        let obs: Vec<_> = (0..5).map(refresh_heavy).collect();
        let d = diagnose(&obs);
        let json = serde_json::to_string(&d).unwrap();
        let back: Vec<Diagnosis> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
