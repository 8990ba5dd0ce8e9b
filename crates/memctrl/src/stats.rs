//! Aggregate controller statistics.

use serde::{Deserialize, Serialize};

/// Counters maintained by the [`MemoryController`](crate::MemoryController).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CtrlStats {
    /// Reads accepted into the read queue.
    pub reads_accepted: u64,
    /// Writes accepted into the write queue.
    pub writes_accepted: u64,
    /// Read CAS commands issued to DRAM (counted at CAS issue, like
    /// `writes_done`, so `page_hit_rate` compares like with like; data
    /// returns `CL + burst` cycles later).
    pub reads_done: u64,
    /// Write CAS commands issued to DRAM.
    pub writes_done: u64,
    /// Read CAS commands that hit an already-open row.
    pub read_hits: u64,
    /// Write CAS commands that hit an already-open row.
    pub write_hits: u64,
    /// Times the controller entered write-drain mode.
    pub write_drains: u64,
    /// Cycles spent in write-drain mode.
    pub drain_cycles: u64,
    /// Refreshes performed.
    pub refreshes: u64,
}

/// Host-side work the controller did, for `SimReport::perf`: deterministic
/// counts, not simulation state — never snapshotted, never compared by
/// the bit-identity oracles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlWork {
    /// Calls to [`MemoryController::tick`](crate::MemoryController::tick).
    pub ticks: u64,
    /// `earliest_*` queries asked of the device by the scheduling, view
    /// and stall-horizon passes: one per (bank, command class) whose
    /// deadline an event dropped from the controller's table.
    pub timing_queries: u64,
    /// Queue entries those passes looked at (a bank's oldest hit or
    /// oldest non-hit, once per pass that needs it), plus each entry once
    /// when its arrival is stamped. The latency attribution visits none:
    /// it adds the cycle to running totals and a read's share is settled
    /// when it leaves the queue.
    pub queue_entries_visited: u64,
}

impl CtrlStats {
    /// Row-buffer hit rate over all CAS commands, in `[0, 1]`.
    pub fn page_hit_rate(&self) -> f64 {
        let cas = self.reads_done + self.writes_done;
        if cas == 0 {
            return 0.0;
        }
        (self.read_hits + self.write_hits) as f64 / cas as f64
    }

    /// Read row-buffer hit rate, in `[0, 1]`.
    pub fn read_hit_rate(&self) -> f64 {
        if self.reads_done == 0 {
            return 0.0;
        }
        self.read_hits as f64 / self.reads_done as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates() {
        let s = CtrlStats {
            reads_done: 80,
            writes_done: 20,
            read_hits: 60,
            write_hits: 10,
            ..CtrlStats::default()
        };
        assert!((s.page_hit_rate() - 0.7).abs() < 1e-12);
        assert!((s.read_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = CtrlStats::default();
        assert_eq!(s.page_hit_rate(), 0.0);
        assert_eq!(s.read_hit_rate(), 0.0);
    }
}
