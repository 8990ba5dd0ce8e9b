//! Per-sampling-window controller health, attached to every
//! through-time sample.

use serde::{Deserialize, Serialize};

/// Inclusive upper edges of the queue-depth histogram buckets.
pub const QUEUE_DEPTH_BOUNDS: [u64; 7] = [0, 1, 2, 4, 8, 16, 32];

/// A histogram of `u64` observations over the buckets of
/// [`QUEUE_DEPTH_BOUNDS`], plus one overflow bucket for everything above
/// the last edge.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations per bucket (last entry is the overflow bucket).
    pub counts: [u64; QUEUE_DEPTH_BOUNDS.len() + 1],
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Records `n` identical observations of `value` — exact (integer)
    /// equivalent of calling [`observe`](Self::observe) `n` times, at O(1)
    /// cost. Used by bulk accounting of homogeneous cycle spans.
    pub fn observe_n(&mut self, value: u64, n: u64) {
        let idx = QUEUE_DEPTH_BOUNDS
            .iter()
            .position(|edge| value <= *edge)
            .unwrap_or(QUEUE_DEPTH_BOUNDS.len());
        self.counts[idx] += n;
        self.count += n;
        self.sum += value * n;
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Adds another histogram into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Controller-health metrics for one sampling window, built by the stack
/// sampler from the per-cycle [`CycleView`](dramstack_dram::CycleView)
/// fields the controller now exports.
///
/// These complement the bandwidth/latency stacks of the same window: the
/// stacks say where the window's cycles *went*, these say what the
/// controller *looked like* while it spent them. The default is an
/// empty window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CtrlWindowStats {
    /// Cycles covered by the window.
    pub cycles: u64,
    /// CAS commands issued in the window.
    pub cas: u64,
    /// CAS commands that hit an open row.
    pub cas_hits: u64,
    /// Cycles spent in write-drain mode.
    pub drain_cycles: u64,
    /// Distribution of the read-queue depth, sampled every cycle.
    pub read_queue_depth: HistogramSnapshot,
    /// Distribution of the write-queue depth, sampled every cycle.
    pub write_queue_depth: HistogramSnapshot,
}

impl CtrlWindowStats {
    /// Row-buffer hit rate over the window's CAS commands, in `[0, 1]`
    /// (0 when no CAS issued).
    pub fn row_hit_rate(&self) -> f64 {
        if self.cas == 0 {
            return 0.0;
        }
        self.cas_hits as f64 / self.cas as f64
    }

    /// Fraction of the window spent in write-drain mode, in `[0, 1]`.
    pub fn drain_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.drain_cycles as f64 / self.cycles as f64
    }

    /// Mean read-queue depth over the window.
    pub fn mean_read_queue_depth(&self) -> f64 {
        self.read_queue_depth.mean()
    }

    /// Accumulates another window (or channel) into this one.
    pub fn merge(&mut self, other: &CtrlWindowStats) {
        self.cycles += other.cycles;
        self.cas += other.cas;
        self.cas_hits += other.cas_hits;
        self.drain_cycles += other.drain_cycles;
        self.read_queue_depth.merge(&other.read_queue_depth);
        self.write_queue_depth.merge(&other.write_queue_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = HistogramSnapshot::default();
        for v in [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 1000] {
            h.observe(v);
        }
        assert_eq!(h.counts, [1, 1, 1, 2, 2, 2, 2, 2]);
        assert_eq!(h.count, 13);
        assert_eq!(h.sum, 1130);
        assert!((h.mean() - 1130.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn observe_n_equals_repeated_observe() {
        let mut bulk = HistogramSnapshot::default();
        let mut single = HistogramSnapshot::default();
        for (value, n) in [(0, 5), (3, 2), (17, 4), (16, 1), (40, 3)] {
            bulk.observe_n(value, n);
            for _ in 0..n {
                single.observe(value);
            }
        }
        assert_eq!(bulk, single);
    }

    #[test]
    fn histogram_merge_adds_bucketwise() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        a.observe(1);
        b.observe(1);
        b.observe(40);
        a.merge(&b);
        assert_eq!(a.counts, [0, 2, 0, 0, 0, 0, 0, 1]);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 42);
    }

    #[test]
    fn empty_window_has_zero_rates() {
        let w = CtrlWindowStats::default();
        assert_eq!(w.row_hit_rate(), 0.0);
        assert_eq!(w.drain_occupancy(), 0.0);
        assert_eq!(w.mean_read_queue_depth(), 0.0);
    }

    #[test]
    fn rates_follow_counts() {
        let w = CtrlWindowStats {
            cycles: 100,
            cas: 10,
            cas_hits: 9,
            drain_cycles: 25,
            ..CtrlWindowStats::default()
        };
        assert!((w.row_hit_rate() - 0.9).abs() < 1e-12);
        assert!((w.drain_occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = CtrlWindowStats {
            cycles: 50,
            cas: 5,
            ..CtrlWindowStats::default()
        };
        a.read_queue_depth.observe(3);
        let mut b = CtrlWindowStats {
            cycles: 50,
            cas_hits: 2,
            ..CtrlWindowStats::default()
        };
        b.read_queue_depth.observe(7);
        a.merge(&b);
        assert_eq!(a.cycles, 100);
        assert_eq!(a.cas, 5);
        assert_eq!(a.cas_hits, 2);
        assert_eq!(a.read_queue_depth.count, 2);
        assert_eq!(a.read_queue_depth.sum, 10);
    }

    #[test]
    fn window_roundtrips_through_json() {
        let mut w = CtrlWindowStats {
            cycles: 7,
            ..CtrlWindowStats::default()
        };
        w.write_queue_depth.observe(4);
        let json = serde_json::to_string(&w).unwrap();
        let back: CtrlWindowStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
    }
}
