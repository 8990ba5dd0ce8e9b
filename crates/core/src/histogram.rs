//! Read-latency histograms — an extension beyond the paper's averages.
//!
//! The latency *stack* reports the average decomposition; the histogram
//! captures the distribution (tail latencies under write bursts and
//! refreshes are invisible in an average). Buckets are logarithmic with
//! four sub-steps per octave, covering ~20 ns to ~100 µs of DRAM cycles.

use serde::{Deserialize, Serialize};

use dramstack_dram::Cycle;

/// Number of histogram buckets.
const BUCKETS: usize = 64;

/// A log-bucketed histogram of read latencies (in DRAM cycles).
///
/// # Example
///
/// ```
/// use dramstack_core::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for latency in [40, 45, 50, 55, 900] {
///     h.add(latency); // one tail read among fast ones
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(50.0) < 100);
/// assert_eq!(h.percentile(100.0), 900);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    min: Cycle,
    max: Cycle,
    sum: u128,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            total: 0,
            min: Cycle::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Bucket index for a latency: 4 sub-steps per power of two above 16
    /// cycles.
    fn bucket(latency: Cycle) -> usize {
        if latency < 16 {
            return 0;
        }
        let octave = 63 - latency.leading_zeros() as usize; // ≥ 4
        let sub = ((latency >> (octave - 2)) & 0b11) as usize;
        (((octave - 4) * 4) + sub + 1).min(BUCKETS - 1)
    }

    /// Lower bound (cycles) of bucket `i`.
    fn bucket_floor(i: usize) -> Cycle {
        if i == 0 {
            return 0;
        }
        let i = i - 1;
        let octave = i / 4 + 4;
        let sub = (i % 4) as u64;
        (1u64 << octave) + (sub << (octave - 2))
    }

    /// Records one read latency.
    pub fn add(&mut self, latency: Cycle) {
        self.counts[Self::bucket(latency)] += 1;
        self.total += 1;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
        self.sum += u128::from(latency);
    }

    /// Number of reads recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded latency (cycles); 0 when empty.
    pub fn min(&self) -> Cycle {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded latency (cycles).
    pub fn max(&self) -> Cycle {
        self.max
    }

    /// Mean latency in cycles; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Approximate `p`-th percentile (0–100) in cycles, resolved to the
    /// bucket floor.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Cycle {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.total == 0 {
            return 0;
        }
        let rank = (p / 100.0 * self.total as f64).ceil().max(1.0) as u64;
        if rank >= self.total {
            return self.max;
        }
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// `(bucket_floor_cycles, count)` pairs for non-empty buckets.
    pub fn buckets(&self) -> Vec<(Cycle, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (Self::bucket_floor(i), *c))
            .collect()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn basic_stats() {
        let mut h = LatencyHistogram::new();
        for v in [40u64, 50, 60, 400] {
            h.add(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 40);
        assert_eq!(h.max(), 400);
        assert!((h.mean() - 137.5).abs() < 1e-9);
        // Median lands in the 40–60 region, p100 at the max.
        let p50 = h.percentile(50.0);
        assert!((40..=60).contains(&p50), "p50 {p50}");
        assert_eq!(h.percentile(100.0), 400);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        a.add(100);
        let mut b = LatencyHistogram::new();
        b.add(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.min(), 100);
    }

    proptest! {
        #[test]
        fn buckets_are_monotonic_and_ordered(values in prop::collection::vec(1u64..1_000_000, 1..200)) {
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.add(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            // Percentiles are monotone.
            let mut last = 0;
            for p in [1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
                let v = h.percentile(p);
                prop_assert!(v >= last, "p{p}: {v} < {last}");
                last = v;
            }
            // All percentiles within [min, max].
            prop_assert!(h.percentile(50.0) >= h.min());
            prop_assert!(h.percentile(50.0) <= h.max());
            // Bucket counts sum to the total.
            let sum: u64 = h.buckets().iter().map(|(_, c)| c).sum();
            prop_assert_eq!(sum, h.count());
        }

        #[test]
        fn bucket_floor_is_le_value(v in 0u64..10_000_000) {
            let b = LatencyHistogram::bucket(v);
            prop_assert!(LatencyHistogram::bucket_floor(b) <= v.max(16));
        }
    }
}
