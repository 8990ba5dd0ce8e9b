//! The component sets of the two stacks.

use serde::{Deserialize, Serialize};

/// Bandwidth-stack components, bottom (useful) to top (idle), matching the
/// order of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BwComponent {
    /// Cycles transferring read data — achieved read bandwidth.
    Read,
    /// Cycles transferring write data — achieved write bandwidth.
    Write,
    /// Cycles lost to refresh (tRFC windows and refresh drains).
    Refresh,
    /// Bank share of cycles spent precharging.
    Precharge,
    /// Bank share of cycles spent activating.
    Activate,
    /// Cycles (or bank shares) lost to timing constraints: tCCD, tWTR,
    /// read/write turnaround, tFAW, tRRD, CAS latency waits.
    Constraints,
    /// Bank share of cycles where this bank sat idle while others worked —
    /// unused bank parallelism.
    BankIdle,
    /// Cycles where the whole chip was idle with nothing to do.
    Idle,
}

impl BwComponent {
    /// All components in stack order.
    pub const ALL: [BwComponent; 8] = [
        BwComponent::Read,
        BwComponent::Write,
        BwComponent::Refresh,
        BwComponent::Precharge,
        BwComponent::Activate,
        BwComponent::Constraints,
        BwComponent::BankIdle,
        BwComponent::Idle,
    ];

    /// Number of components.
    pub const COUNT: usize = 8;

    /// Stable index into component arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label used in figure output (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            BwComponent::Read => "read",
            BwComponent::Write => "write",
            BwComponent::Refresh => "refresh",
            BwComponent::Precharge => "precharge",
            BwComponent::Activate => "activate",
            BwComponent::Constraints => "constraints",
            BwComponent::BankIdle => "bank_idle",
            BwComponent::Idle => "idle",
        }
    }

    /// Whether this component represents unused capacity that shrinks as
    /// traffic grows (dropped by the stack extrapolation).
    pub fn is_idle_kind(self) -> bool {
        matches!(self, BwComponent::BankIdle | BwComponent::Idle)
    }
}

impl std::fmt::Display for BwComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Latency-stack components, bottom to top, matching the paper's Fig. 7
/// legend (`base` split into controller and device parts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LatComponent {
    /// Fixed controller pipeline overhead.
    BaseCntlr,
    /// Minimum device read time (CL + burst).
    BaseDram,
    /// Precharge/activate penalty of page misses.
    PreAct,
    /// Waiting for refreshes.
    Refresh,
    /// Waiting for write-buffer drains.
    WriteBurst,
    /// Residual queueing (other requests, timing constraints).
    Queue,
}

impl LatComponent {
    /// All components in stack order.
    pub const ALL: [LatComponent; 6] = [
        LatComponent::BaseCntlr,
        LatComponent::BaseDram,
        LatComponent::PreAct,
        LatComponent::Refresh,
        LatComponent::WriteBurst,
        LatComponent::Queue,
    ];

    /// Number of components.
    pub const COUNT: usize = 6;

    /// Stable index into component arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            LatComponent::BaseCntlr => "base-cntlr",
            LatComponent::BaseDram => "base-dram",
            LatComponent::PreAct => "act/pre",
            LatComponent::Refresh => "refresh",
            LatComponent::WriteBurst => "writeburst",
            LatComponent::Queue => "queue",
        }
    }
}

impl std::fmt::Display for LatComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, c) in BwComponent::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, c) in LatComponent::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn classification_flags() {
        assert!(BwComponent::Idle.is_idle_kind());
        assert!(BwComponent::BankIdle.is_idle_kind());
        assert!(!BwComponent::Constraints.is_idle_kind());
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = BwComponent::ALL.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), BwComponent::COUNT);
    }
}
