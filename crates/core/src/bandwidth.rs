//! The hierarchical bandwidth-stack accounting mechanism (Section IV of
//! the paper).
//!
//! Every DRAM cycle is classified exactly once, with priority:
//!
//! 1. data on the bus → `read`/`write`;
//! 2. refresh in progress → `refresh`;
//! 3. at least one bank occupied → per-bank `1/n` split over
//!    `precharge`/`activate`/`constraints`/`bank_idle`;
//! 4. all banks idle, a pending request blocked by a rank/channel-level
//!    constraint → `constraints` (a refresh drain charges `refresh`);
//! 5. otherwise → `idle`.
//!
//! Following the paper's footnote, the per-bank split is accumulated as
//! integer bank-cycle counters and divided by the bank count during
//! post-processing, which keeps the hot loop in integer arithmetic.

use serde::{Deserialize, Serialize};

use dramstack_dram::{BankActivity, BlockReason, BurstKind, CycleView};

use crate::components::BwComponent;
use crate::stack::BandwidthStack;

/// Online bandwidth-stack accountant for one memory channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BandwidthAccountant {
    n_banks: usize,
    /// Peak bandwidth in milli-GB/s to keep the struct `Eq`-friendly.
    peak_milli_gbps: u64,
    /// Full-cycle counters.
    read: u64,
    write: u64,
    refresh: u64,
    constraints_full: u64,
    idle: u64,
    /// Bank-cycle counters (divided by `n_banks` in post-processing).
    precharge_bank: u64,
    activate_bank: u64,
    constraints_bank: u64,
    bank_idle_bank: u64,
    total_cycles: u64,
}

impl BandwidthAccountant {
    /// Creates an accountant for a channel with `n_banks` banks and the
    /// given peak bandwidth in GB/s.
    ///
    /// # Panics
    ///
    /// Panics if `n_banks` is zero or `peak_gbps` is not positive.
    pub fn new(n_banks: usize, peak_gbps: f64) -> Self {
        assert!(n_banks > 0, "need at least one bank");
        assert!(peak_gbps > 0.0, "peak bandwidth must be positive");
        BandwidthAccountant {
            n_banks,
            peak_milli_gbps: (peak_gbps * 1000.0).round() as u64,
            read: 0,
            write: 0,
            refresh: 0,
            constraints_full: 0,
            idle: 0,
            precharge_bank: 0,
            activate_bank: 0,
            constraints_bank: 0,
            bank_idle_bank: 0,
            total_cycles: 0,
        }
    }

    /// Number of cycles accounted so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Classifies one cycle.
    pub fn account(&mut self, view: &CycleView) {
        self.account_span(view, 1);
    }

    /// Classifies `span` identical cycles in one step — the paper's
    /// span-based speedup for homogeneous stretches (e.g. a whole burst or
    /// an idle gap).
    pub fn account_span(&mut self, view: &CycleView, span: u64) {
        self.total_cycles += span;
        // 1. Useful cycles: data moving on the channel.
        match view.bus {
            Some(BurstKind::Read) => {
                self.read += span;
                return;
            }
            Some(BurstKind::Write) => {
                self.write += span;
                return;
            }
            None => {}
        }
        // 2. Refresh blocks the whole chip.
        if view.refreshing {
            self.refresh += span;
            return;
        }
        // 3. Per-bank split when any bank is occupied.
        if view.any_bank_active() {
            for b in &view.banks {
                match b {
                    BankActivity::Precharging => self.precharge_bank += span,
                    BankActivity::Activating => self.activate_bank += span,
                    BankActivity::Constrained => self.constraints_bank += span,
                    BankActivity::Idle => self.bank_idle_bank += span,
                }
            }
            return;
        }
        // 4. All banks idle: rank/channel-level explanation.
        match view.rank_block {
            BlockReason::None => self.idle += span,
            BlockReason::Refresh => self.refresh += span,
            _ => self.constraints_full += span,
        }
    }

    /// Produces the finished stack (post-processing step: bank-cycle
    /// counters divided by the bank count).
    pub fn stack(&self) -> BandwidthStack {
        let n = self.n_banks as f64;
        let mut s = BandwidthStack::empty(self.peak_milli_gbps as f64 / 1000.0);
        s.weights[BwComponent::Read.index()] = self.read as f64;
        s.weights[BwComponent::Write.index()] = self.write as f64;
        s.weights[BwComponent::Refresh.index()] = self.refresh as f64;
        s.weights[BwComponent::Precharge.index()] = self.precharge_bank as f64 / n;
        s.weights[BwComponent::Activate.index()] = self.activate_bank as f64 / n;
        s.weights[BwComponent::Constraints.index()] =
            self.constraints_full as f64 + self.constraints_bank as f64 / n;
        s.weights[BwComponent::BankIdle.index()] = self.bank_idle_bank as f64 / n;
        s.weights[BwComponent::Idle.index()] = self.idle as f64;
        s.total_cycles = self.total_cycles;
        s
    }

    /// Returns the stack accumulated since the last call and resets the
    /// counters — the through-time sampling primitive.
    pub fn take_sample(&mut self) -> BandwidthStack {
        let s = self.stack();
        *self = BandwidthAccountant::new(self.n_banks, self.peak_milli_gbps as f64 / 1000.0);
        s
    }
}

/// Ablation baseline: charges each lost cycle *entirely* to the first
/// occupied bank's activity, with no per-bank split and therefore no
/// bank-idle component.
///
/// This is the "obvious" accounting the paper argues against: it hides
/// unused bank parallelism (everything becomes precharge/activate/
/// constraints), so a workload with terrible bank interleaving looks the
/// same as one with perfect interleaving. The `ablation_accounting` bench
/// contrasts the two on the same simulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FirstCauseAccountant {
    inner: BandwidthAccountant,
}

impl FirstCauseAccountant {
    /// Creates an accountant with the same parameters as
    /// [`BandwidthAccountant::new`].
    pub fn new(n_banks: usize, peak_gbps: f64) -> Self {
        FirstCauseAccountant {
            inner: BandwidthAccountant::new(n_banks, peak_gbps),
        }
    }

    /// Classifies one cycle, whole-cycle-to-first-cause.
    pub fn account(&mut self, view: &CycleView) {
        self.inner.total_cycles += 1;
        match view.bus {
            Some(BurstKind::Read) => {
                self.inner.read += 1;
                return;
            }
            Some(BurstKind::Write) => {
                self.inner.write += 1;
                return;
            }
            None => {}
        }
        if view.refreshing {
            self.inner.refresh += 1;
            return;
        }
        // First occupied bank wins the whole cycle. Bank-cycle counters are
        // bumped by the full bank count so the post-processing division
        // yields whole cycles.
        let n = self.inner.n_banks as u64;
        for b in &view.banks {
            match b {
                BankActivity::Precharging => {
                    self.inner.precharge_bank += n;
                    return;
                }
                BankActivity::Activating => {
                    self.inner.activate_bank += n;
                    return;
                }
                BankActivity::Constrained => {
                    self.inner.constraints_bank += n;
                    return;
                }
                BankActivity::Idle => {}
            }
        }
        match view.rank_block {
            BlockReason::None => self.inner.idle += 1,
            BlockReason::Refresh => self.inner.refresh += 1,
            _ => self.inner.constraints_full += 1,
        }
    }

    /// Produces the finished stack.
    pub fn stack(&self) -> BandwidthStack {
        self.inner.stack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramstack_dram::BankActivity as BA;

    fn acc() -> BandwidthAccountant {
        BandwidthAccountant::new(16, 19.2)
    }

    #[test]
    fn bus_cycles_are_useful() {
        let mut a = acc();
        let mut v = CycleView::idle(16);
        v.bus = Some(BurstKind::Read);
        a.account(&v);
        v.bus = Some(BurstKind::Write);
        a.account(&v);
        let s = a.stack();
        assert!((s.fraction(BwComponent::Read) - 0.5).abs() < 1e-12);
        assert!((s.fraction(BwComponent::Write) - 0.5).abs() < 1e-12);
        assert!(s.is_consistent());
    }

    #[test]
    fn refresh_has_priority_over_banks() {
        let mut a = acc();
        let mut v = CycleView::idle(16);
        v.refreshing = true;
        v.banks[0] = BA::Precharging; // should be ignored
        a.account(&v);
        let s = a.stack();
        assert!((s.fraction(BwComponent::Refresh) - 1.0).abs() < 1e-12);
        assert_eq!(s.fraction(BwComponent::Precharge), 0.0);
    }

    #[test]
    fn per_bank_split_matches_paper_example() {
        // One bank activating, one precharging, two constrained, twelve
        // idle: weights 1/16 each.
        let mut a = acc();
        let mut v = CycleView::idle(16);
        v.banks[0] = BA::Activating;
        v.banks[1] = BA::Precharging;
        v.banks[2] = BA::Constrained;
        v.banks[3] = BA::Constrained;
        a.account(&v);
        let s = a.stack();
        assert!((s.fraction(BwComponent::Activate) - 1.0 / 16.0).abs() < 1e-12);
        assert!((s.fraction(BwComponent::Precharge) - 1.0 / 16.0).abs() < 1e-12);
        assert!((s.fraction(BwComponent::Constraints) - 2.0 / 16.0).abs() < 1e-12);
        assert!((s.fraction(BwComponent::BankIdle) - 12.0 / 16.0).abs() < 1e-12);
        assert!(s.is_consistent());
    }

    #[test]
    fn seq_1c_bank_group_constraint_split() {
        // The paper's sequential 1-core case: a tCCD_L-blocked bank group
        // (4 banks constrained) with the other 12 idle, for a sixth of the
        // time, yields constraints ≈ 0.8 GB/s and bank-idle ≈ 2.4 GB/s.
        let mut a = acc();
        let mut v = CycleView::idle(16);
        for i in 0..4 {
            v.banks[i] = BA::Constrained;
        }
        v.has_pending = true;
        // 2 of every 12 cycles blocked like this, 4 transfer, 6 idle.
        let idle = CycleView::idle(16);
        let mut read = CycleView::idle(16);
        read.bus = Some(BurstKind::Read);
        for _ in 0..1000 {
            a.account_span(&read, 4);
            a.account_span(&v, 2);
            a.account_span(&idle, 6);
        }
        let s = a.stack();
        assert!((s.gbps(BwComponent::Read) - 6.4).abs() < 0.01);
        assert!((s.gbps(BwComponent::Constraints) - 0.8).abs() < 0.01);
        assert!((s.gbps(BwComponent::BankIdle) - 2.4).abs() < 0.01);
        assert!((s.gbps(BwComponent::Idle) - 9.6).abs() < 0.01);
        assert!(s.is_consistent());
    }

    #[test]
    fn all_idle_with_rank_block_charges_constraints() {
        let mut a = acc();
        let mut v = CycleView::idle(16);
        v.rank_block = BlockReason::WtrShort;
        v.has_pending = true;
        a.account(&v);
        assert!((a.stack().fraction(BwComponent::Constraints) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn refresh_drain_charges_refresh() {
        let mut a = acc();
        let mut v = CycleView::idle(16);
        v.rank_block = BlockReason::Refresh;
        a.account(&v);
        assert!((a.stack().fraction(BwComponent::Refresh) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truly_idle_cycle_is_idle() {
        let mut a = acc();
        a.account(&CycleView::idle(16));
        assert!((a.stack().fraction(BwComponent::Idle) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn take_sample_resets() {
        let mut a = acc();
        let mut v = CycleView::idle(16);
        v.bus = Some(BurstKind::Read);
        a.account(&v);
        let s1 = a.take_sample();
        assert_eq!(s1.total_cycles, 1);
        assert_eq!(a.total_cycles(), 0);
        a.account(&CycleView::idle(16));
        let s2 = a.take_sample();
        assert!((s2.fraction(BwComponent::Idle) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_cause_hides_bank_idle() {
        // One activating bank, 15 idle: the paper's split reports mostly
        // bank-idle; the first-cause ablation charges everything to
        // activate.
        let mut split = acc();
        let mut first = FirstCauseAccountant::new(16, 19.2);
        let mut v = CycleView::idle(16);
        v.banks[3] = BA::Activating;
        split.account(&v);
        first.account(&v);
        let s = split.stack();
        let f = first.stack();
        assert!((s.fraction(BwComponent::Activate) - 1.0 / 16.0).abs() < 1e-12);
        assert!((s.fraction(BwComponent::BankIdle) - 15.0 / 16.0).abs() < 1e-12);
        assert!((f.fraction(BwComponent::Activate) - 1.0).abs() < 1e-12);
        assert_eq!(f.fraction(BwComponent::BankIdle), 0.0);
        assert!(f.is_consistent());
    }

    #[test]
    fn first_cause_agrees_on_bus_refresh_idle() {
        let mut split = acc();
        let mut first = FirstCauseAccountant::new(16, 19.2);
        let mut busy = CycleView::idle(16);
        busy.bus = Some(BurstKind::Write);
        let mut refresh = CycleView::idle(16);
        refresh.refreshing = true;
        for v in [&busy, &refresh, &CycleView::idle(16)] {
            split.account(v);
            first.account(v);
        }
        assert_eq!(split.stack(), first.stack());
    }

    #[test]
    fn span_equals_repeated_single_cycles() {
        let mut a1 = acc();
        let mut a2 = acc();
        let mut v = CycleView::idle(16);
        v.banks[5] = BA::Activating;
        for _ in 0..7 {
            a1.account(&v);
        }
        a2.account_span(&v, 7);
        assert_eq!(a1.stack(), a2.stack());
    }
}
