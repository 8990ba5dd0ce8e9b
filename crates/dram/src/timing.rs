//! DDR4 timing parameters.
//!
//! All values are expressed in DRAM command-clock cycles (e.g. 1200 MHz for
//! DDR4-2400). The parameter names follow the JEDEC DDR4 specification
//! (JESD79-4); `_s`/`_l` suffixes denote the short (different bank group)
//! and long (same bank group) variants.

use serde::{Deserialize, Serialize};

use crate::error::ConfigError;
use crate::Cycle;

/// The timing-constraint set of a DDR4 device, in command-clock cycles.
///
/// # Example
///
/// ```
/// use dramstack_dram::TimingParams;
///
/// let t = TimingParams::ddr4_2400();
/// // 2400 MT/s × 8 B = the paper's 19.2 GB/s peak.
/// assert!((t.peak_bandwidth_gbps(8) - 19.2).abs() < 1e-9);
/// // A bank group moves one line per 6 cycles, the channel per 4 —
/// // the constraint behind the paper's seq-1c "constraints" component.
/// assert!(t.t_ccd_l > t.burst_cycles);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Command-clock frequency in MHz (data rate is twice this).
    pub freq_mhz: u32,
    /// CAS (read) latency: READ command to first data beat.
    pub cl: Cycle,
    /// CAS write latency: WRITE command to first data beat.
    pub cwl: Cycle,
    /// ACT to internal read/write delay (row to column delay).
    pub t_rcd: Cycle,
    /// PRE to ACT delay (row precharge time).
    pub t_rp: Cycle,
    /// ACT to PRE minimum (row active time).
    pub t_ras: Cycle,
    /// ACT to ACT same bank (row cycle time); typically `t_ras + t_rp`.
    pub t_rc: Cycle,
    /// Burst length in bus cycles (`BL8 / 2` for DDR — 4 cycles for 64 B).
    pub burst_cycles: Cycle,
    /// CAS to CAS, different bank group.
    pub t_ccd_s: Cycle,
    /// CAS to CAS, same bank group (the "bank-group bandwidth" constraint).
    pub t_ccd_l: Cycle,
    /// ACT to ACT, different bank group.
    pub t_rrd_s: Cycle,
    /// ACT to ACT, same bank group.
    pub t_rrd_l: Cycle,
    /// Four-activate window: at most 4 ACTs per rank in this window.
    pub t_faw: Cycle,
    /// READ to PRE delay.
    pub t_rtp: Cycle,
    /// Write recovery: end of write burst to PRE.
    pub t_wr: Cycle,
    /// End of write burst to READ, different bank group.
    pub t_wtr_s: Cycle,
    /// End of write burst to READ, same bank group.
    pub t_wtr_l: Cycle,
    /// Extra bus gap inserted between a read burst and a following write
    /// burst (rank turnaround bubble).
    pub rtw_gap: Cycle,
    /// Average refresh interval: one REF per rank every `t_refi` cycles.
    pub t_refi: Cycle,
    /// Refresh cycle time: rank is unavailable for this long per REF.
    pub t_rfc: Cycle,
}

impl TimingParams {
    /// DDR4-2400 (CL17 speed grade), 1200 MHz command clock — the paper's
    /// configuration. `t_rfc` corresponds to an 8 Gb device (350 ns).
    pub fn ddr4_2400() -> Self {
        TimingParams {
            freq_mhz: 1200,
            cl: 17,
            cwl: 12,
            t_rcd: 17,
            t_rp: 17,
            t_ras: 39,
            t_rc: 56,
            burst_cycles: 4,
            t_ccd_s: 4,
            t_ccd_l: 6,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_faw: 26,
            t_rtp: 9,
            t_wr: 18,
            t_wtr_s: 3,
            t_wtr_l: 9,
            rtw_gap: 2,
            t_refi: 9360,
            t_rfc: 420,
        }
    }

    /// DDR4-2133 (CL15), 1066 MHz command clock.
    pub fn ddr4_2133() -> Self {
        TimingParams {
            freq_mhz: 1066,
            cl: 15,
            cwl: 11,
            t_rcd: 15,
            t_rp: 15,
            t_ras: 35,
            t_rc: 50,
            burst_cycles: 4,
            t_ccd_s: 4,
            t_ccd_l: 6,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_faw: 23,
            t_rtp: 8,
            t_wr: 16,
            t_wtr_s: 3,
            t_wtr_l: 8,
            rtw_gap: 2,
            t_refi: 8312,
            t_rfc: 374,
        }
    }

    /// DDR4-2666 (CL19), 1333 MHz command clock.
    pub fn ddr4_2666() -> Self {
        TimingParams {
            freq_mhz: 1333,
            cl: 19,
            cwl: 14,
            t_rcd: 19,
            t_rp: 19,
            t_ras: 43,
            t_rc: 62,
            burst_cycles: 4,
            t_ccd_s: 4,
            t_ccd_l: 7,
            t_rrd_s: 4,
            t_rrd_l: 7,
            t_faw: 28,
            t_rtp: 10,
            t_wr: 20,
            t_wtr_s: 4,
            t_wtr_l: 10,
            rtw_gap: 2,
            t_refi: 10400,
            t_rfc: 467,
        }
    }

    /// DDR4-2933 (CL21), 1466 MHz command clock.
    pub fn ddr4_2933() -> Self {
        TimingParams {
            freq_mhz: 1466,
            cl: 21,
            cwl: 16,
            t_rcd: 21,
            t_rp: 21,
            t_ras: 47,
            t_rc: 68,
            burst_cycles: 4,
            t_ccd_s: 4,
            t_ccd_l: 8,
            t_rrd_s: 4,
            t_rrd_l: 8,
            t_faw: 31,
            t_rtp: 11,
            t_wr: 22,
            t_wtr_s: 4,
            t_wtr_l: 11,
            rtw_gap: 2,
            t_refi: 11437,
            t_rfc: 513,
        }
    }

    /// DDR4-3200 (CL22), 1600 MHz command clock. Used by the
    /// `ablation_ddr4_3200` bench.
    pub fn ddr4_3200() -> Self {
        TimingParams {
            freq_mhz: 1600,
            cl: 22,
            cwl: 16,
            t_rcd: 22,
            t_rp: 22,
            t_ras: 52,
            t_rc: 74,
            burst_cycles: 4,
            t_ccd_s: 4,
            t_ccd_l: 8,
            t_rrd_s: 4,
            t_rrd_l: 8,
            t_faw: 34,
            t_rtp: 12,
            t_wr: 24,
            t_wtr_s: 4,
            t_wtr_l: 12,
            rtw_gap: 2,
            t_refi: 12480,
            t_rfc: 560,
        }
    }

    /// Validates internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidTiming`] describing the inconsistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.freq_mhz == 0 {
            return Err(ConfigError::InvalidTiming("freq_mhz must be nonzero"));
        }
        if self.burst_cycles == 0 {
            return Err(ConfigError::InvalidTiming("burst_cycles must be nonzero"));
        }
        if self.t_ras + self.t_rp > self.t_rc {
            return Err(ConfigError::InvalidTiming("t_rc must cover t_ras + t_rp"));
        }
        if self.t_ccd_l < self.t_ccd_s {
            return Err(ConfigError::InvalidTiming("t_ccd_l must be >= t_ccd_s"));
        }
        if self.t_rrd_l < self.t_rrd_s {
            return Err(ConfigError::InvalidTiming("t_rrd_l must be >= t_rrd_s"));
        }
        if self.t_wtr_l < self.t_wtr_s {
            return Err(ConfigError::InvalidTiming("t_wtr_l must be >= t_wtr_s"));
        }
        if self.t_faw < self.t_rrd_s {
            return Err(ConfigError::InvalidTiming("t_faw must be >= t_rrd_s"));
        }
        if self.t_rfc >= self.t_refi {
            return Err(ConfigError::InvalidTiming("t_rfc must be < t_refi"));
        }
        if self.cl == 0 || self.cwl == 0 || self.t_rcd == 0 || self.t_rp == 0 {
            return Err(ConfigError::InvalidTiming("core latencies must be nonzero"));
        }
        Ok(())
    }

    /// Duration of one command-clock cycle in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1000.0 / f64::from(self.freq_mhz)
    }

    /// Peak channel bandwidth in GB/s for a bus of `bus_bytes` width:
    /// `bus_bytes × 2 transfers/cycle × freq`.
    pub fn peak_bandwidth_gbps(&self, bus_bytes: u32) -> f64 {
        f64::from(bus_bytes) * 2.0 * f64::from(self.freq_mhz) / 1000.0
    }

    /// Minimum read latency in cycles: CL plus the burst itself (the
    /// no-contention, open-page "base" of the latency stack, excluding
    /// controller overhead).
    pub fn base_read_cycles(&self) -> Cycle {
        self.cl + self.burst_cycles
    }

    /// Minimum write-to-read turnaround on the same bank group:
    /// `CWL + burst + tWTR_L`.
    pub fn write_to_read_same_bg(&self) -> Cycle {
        self.cwl + self.burst_cycles + self.t_wtr_l
    }

    /// Minimum write-to-read turnaround across bank groups:
    /// `CWL + burst + tWTR_S`.
    pub fn write_to_read_diff_bg(&self) -> Cycle {
        self.cwl + self.burst_cycles + self.t_wtr_s
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for t in [
            TimingParams::ddr4_2133(),
            TimingParams::ddr4_2400(),
            TimingParams::ddr4_2666(),
            TimingParams::ddr4_2933(),
            TimingParams::ddr4_3200(),
        ] {
            t.validate().unwrap();
        }
    }

    #[test]
    fn presets_scale_monotonically() {
        // Faster grades: more bandwidth, roughly constant latency in ns.
        let grades = [
            TimingParams::ddr4_2133(),
            TimingParams::ddr4_2400(),
            TimingParams::ddr4_2666(),
            TimingParams::ddr4_2933(),
            TimingParams::ddr4_3200(),
        ];
        for w in grades.windows(2) {
            assert!(w[1].peak_bandwidth_gbps(8) > w[0].peak_bandwidth_gbps(8));
            let ns0 = w[0].cl as f64 * w[0].cycle_ns();
            let ns1 = w[1].cl as f64 * w[1].cycle_ns();
            assert!(
                (ns0 - ns1).abs() < 2.0,
                "CAS latency stays ~14 ns: {ns0} vs {ns1}"
            );
        }
    }

    #[test]
    fn ddr4_2400_peak_bandwidth_matches_paper() {
        let t = TimingParams::ddr4_2400();
        // 2400 MT/s × 8 B = 19.2 GB/s, as in the paper's introduction.
        assert!((t.peak_bandwidth_gbps(8) - 19.2).abs() < 1e-9);
    }

    #[test]
    fn refresh_fraction_is_a_few_percent() {
        let t = TimingParams::ddr4_2400();
        let f = t.t_rfc as f64 / t.t_refi as f64;
        assert!(f > 0.02 && f < 0.08, "refresh fraction {f}");
    }

    #[test]
    fn cycle_ns_ddr4_2400() {
        let t = TimingParams::ddr4_2400();
        assert!((t.cycle_ns() - 0.8333).abs() < 1e-3);
        assert!((1200.0 * t.cycle_ns() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut t = TimingParams::ddr4_2400();
        t.t_rc = 10;
        assert!(t.validate().is_err());

        let mut t = TimingParams::ddr4_2400();
        t.t_ccd_l = 2;
        assert!(t.validate().is_err());

        let mut t = TimingParams::ddr4_2400();
        t.t_rfc = t.t_refi;
        assert!(t.validate().is_err());
    }

    #[test]
    fn bank_group_slower_than_channel() {
        // The paper: "a bank group can transfer one cache line in 6 memory
        // cycles, while the channel only needs 4".
        let t = TimingParams::ddr4_2400();
        assert_eq!(t.t_ccd_l, 6);
        assert_eq!(t.burst_cycles, 4);
    }
}
