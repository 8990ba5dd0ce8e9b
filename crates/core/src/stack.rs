//! The bandwidth-stack result type.

use serde::{Deserialize, Serialize};

use crate::components::BwComponent;

/// A finished bandwidth stack: per-component weighted cycle counts over a
/// known number of total cycles, convertible to GB/s.
///
/// Invariant: the component weights sum to `total_cycles` (each accounted
/// cycle distributes exactly weight 1 over the components), so the GB/s
/// components always sum to the peak bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthStack {
    /// Weighted cycles per component, indexed by [`BwComponent::index`].
    pub weights: [f64; BwComponent::COUNT],
    /// Number of cycles accounted.
    pub total_cycles: u64,
    /// Peak channel bandwidth in GB/s this stack is normalized against.
    pub peak_gbps: f64,
}

impl BandwidthStack {
    /// An empty stack for a channel with the given peak bandwidth.
    pub fn empty(peak_gbps: f64) -> Self {
        BandwidthStack {
            weights: [0.0; BwComponent::COUNT],
            total_cycles: 0,
            peak_gbps,
        }
    }

    /// Fraction of all cycles attributed to `c`, in `[0, 1]`.
    pub fn fraction(&self, c: BwComponent) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.weights[c.index()] / self.total_cycles as f64
    }

    /// Bandwidth attributed to `c`, in GB/s.
    pub fn gbps(&self, c: BwComponent) -> f64 {
        self.fraction(c) * self.peak_gbps
    }

    /// Achieved bandwidth: read + write components, in GB/s.
    pub fn achieved_gbps(&self) -> f64 {
        self.gbps(BwComponent::Read) + self.gbps(BwComponent::Write)
    }

    /// The peak bandwidth (the top of the stack), in GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.peak_gbps
    }

    /// Sum of all components in GB/s — equals the peak for any non-empty,
    /// correctly accounted stack.
    pub fn total_gbps(&self) -> f64 {
        BwComponent::ALL.iter().map(|&c| self.gbps(c)).sum()
    }

    /// Merges another stack (e.g. from a second channel or a later sample)
    /// into this one.
    ///
    /// # Panics
    ///
    /// Panics if the peak bandwidths differ.
    pub fn merge(&mut self, other: &BandwidthStack) {
        assert!(
            (self.peak_gbps - other.peak_gbps).abs() < 1e-9,
            "cannot merge stacks with different peak bandwidths"
        );
        for i in 0..BwComponent::COUNT {
            self.weights[i] += other.weights[i];
        }
        self.total_cycles += other.total_cycles;
    }

    /// `(component, GB/s)` pairs in stack order — convenient for rendering.
    pub fn rows(&self) -> Vec<(BwComponent, f64)> {
        BwComponent::ALL
            .iter()
            .map(|&c| (c, self.gbps(c)))
            .collect()
    }

    /// Aggregates per-channel stacks into one system-level stack whose
    /// peak is the sum of the channel peaks (the paper: "we construct one
    /// stack per memory controller/channel, which can be aggregated
    /// afterwards"). Takes references so stacks that live inside larger
    /// structures (e.g. per-channel `TimeSample` windows) need no clone.
    ///
    /// Component fractions are averaged over channels, so `gbps()` yields
    /// system-level GB/s and the stack still sums to the (system) peak.
    ///
    /// # Panics
    ///
    /// Panics if `stacks` is empty or the channels disagree on peak
    /// bandwidth or cycle count.
    pub fn aggregate_channel_refs(stacks: &[&BandwidthStack]) -> BandwidthStack {
        assert!(!stacks.is_empty(), "need at least one channel stack");
        let first = stacks[0];
        let n = stacks.len() as f64;
        let mut out = BandwidthStack::empty(first.peak_gbps * n);
        out.total_cycles = first.total_cycles;
        for s in stacks {
            assert!(
                (s.peak_gbps - first.peak_gbps).abs() < 1e-9,
                "channels must share a peak bandwidth"
            );
            assert_eq!(
                s.total_cycles, first.total_cycles,
                "channels must cover equal time"
            );
            for i in 0..BwComponent::COUNT {
                out.weights[i] += s.weights[i] / n;
            }
        }
        out
    }

    /// Consistency check: weights are non-negative and sum to the cycle
    /// count (within floating-point tolerance).
    pub fn is_consistent(&self) -> bool {
        let sum: f64 = self.weights.iter().sum();
        self.weights.iter().all(|w| *w >= -1e-9)
            && (sum - self.total_cycles as f64).abs() < 1e-6 * (self.total_cycles.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BandwidthStack {
        let mut s = BandwidthStack::empty(19.2);
        s.weights[BwComponent::Read.index()] = 300.0;
        s.weights[BwComponent::Write.index()] = 100.0;
        s.weights[BwComponent::Refresh.index()] = 50.0;
        s.weights[BwComponent::Idle.index()] = 550.0;
        s.total_cycles = 1000;
        s
    }

    #[test]
    fn fractions_and_gbps() {
        let s = sample();
        assert!((s.fraction(BwComponent::Read) - 0.3).abs() < 1e-12);
        assert!((s.gbps(BwComponent::Read) - 5.76).abs() < 1e-9);
        assert!((s.achieved_gbps() - 7.68).abs() < 1e-9);
        assert!((s.total_gbps() - 19.2).abs() < 1e-9);
        assert!(s.is_consistent());
    }

    #[test]
    fn paper_postprocessing_example() {
        // Paper Section IV: 1 M cycles at 1.2 GHz, 100 k precharge cycles,
        // 16 B per cycle → 1.92 GB/s precharge component.
        let mut s = BandwidthStack::empty(19.2);
        s.weights[BwComponent::Precharge.index()] = 100_000.0;
        s.weights[BwComponent::Idle.index()] = 900_000.0;
        s.total_cycles = 1_000_000;
        assert!((s.gbps(BwComponent::Precharge) - 1.92).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total_cycles, 2000);
        assert!((a.achieved_gbps() - 7.68).abs() < 1e-9);
        assert!(a.is_consistent());
    }

    #[test]
    #[should_panic(expected = "different peak")]
    fn merge_rejects_mismatched_peak() {
        let mut a = sample();
        let b = BandwidthStack::empty(25.6);
        a.merge(&b);
    }

    #[test]
    fn empty_stack_is_all_zero() {
        let s = BandwidthStack::empty(19.2);
        assert_eq!(s.achieved_gbps(), 0.0);
        assert_eq!(s.fraction(BwComponent::Idle), 0.0);
        assert!(s.is_consistent());
    }

    #[test]
    fn aggregate_channels_sums_peaks_and_bandwidth() {
        // Channel A: 50 % read; channel B: fully idle.
        let mut a = BandwidthStack::empty(19.2);
        a.weights[BwComponent::Read.index()] = 500.0;
        a.weights[BwComponent::Idle.index()] = 500.0;
        a.total_cycles = 1000;
        let mut b = BandwidthStack::empty(19.2);
        b.weights[BwComponent::Idle.index()] = 1000.0;
        b.total_cycles = 1000;
        let sys = BandwidthStack::aggregate_channel_refs(&[&a, &b]);
        assert!((sys.peak_gbps() - 38.4).abs() < 1e-9);
        // System read bandwidth = channel A's 9.6 GB/s.
        assert!((sys.gbps(BwComponent::Read) - 9.6).abs() < 1e-9);
        assert!((sys.total_gbps() - 38.4).abs() < 1e-9);
        assert!(sys.is_consistent());
        // Single-channel aggregation is the identity.
        let same = BandwidthStack::aggregate_channel_refs(&[&a]);
        assert_eq!(same, a);
    }

    #[test]
    #[should_panic(expected = "equal time")]
    fn aggregate_rejects_mismatched_cycles() {
        let a = BandwidthStack::empty(19.2);
        let mut b = BandwidthStack::empty(19.2);
        b.total_cycles = 5;
        let _ = BandwidthStack::aggregate_channel_refs(&[&a, &b]);
    }

    #[test]
    fn rows_are_in_stack_order() {
        let s = sample();
        let rows = s.rows();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].0, BwComponent::Read);
        assert_eq!(rows[7].0, BwComponent::Idle);
    }
}
