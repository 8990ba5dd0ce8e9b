//! Full-system configuration.

use std::fmt;

use serde::{Deserialize, Serialize};

use dramstack_cpu::{CoreConfig, HierarchyConfig};
use dramstack_dram::Cycle;
use dramstack_memctrl::{CtrlConfig, MappingScheme, PagePolicy};

/// The most cores a [`SystemConfig`] may have: 8× the largest
/// configuration any figure uses. Per-core state is allocated up front, so
/// an unbounded count could exhaust memory, and an allocation failure
/// aborts the process rather than unwinding.
const MAX_CORES: usize = 64;

/// Why a [`SystemConfig`] (or the streams handed to the simulator) was
/// rejected. User-supplied configurations surface as this typed error
/// instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `n_cores` was zero.
    NoCores,
    /// `n_cores` was above 64, the most cores a configuration may have.
    TooManyCores(usize),
    /// `core_clock_mult` was zero.
    ZeroClockMultiplier,
    /// `sample_period` was zero.
    ZeroSamplePeriod,
    /// `channels` was zero or not a power of two.
    BadChannelCount(usize),
    /// The DRAM device configuration is invalid.
    Device(dramstack_dram::ConfigError),
    /// The number of instruction streams does not match `n_cores`.
    StreamCount {
        /// Configured core count.
        expected: usize,
        /// Streams actually provided.
        got: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoCores => write!(f, "need at least one core"),
            ConfigError::TooManyCores(n) => {
                write!(f, "at most {MAX_CORES} cores are supported, got {n}")
            }
            ConfigError::ZeroClockMultiplier => write!(f, "core clock multiplier must be nonzero"),
            ConfigError::ZeroSamplePeriod => write!(f, "sample period must be nonzero"),
            ConfigError::BadChannelCount(n) => {
                write!(f, "channels must be a nonzero power of two, got {n}")
            }
            ConfigError::Device(e) => write!(f, "invalid device configuration: {e}"),
            ConfigError::StreamCount { expected, got } => {
                write!(f, "one stream per core: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<dramstack_dram::ConfigError> for ConfigError {
    fn from(e: dramstack_dram::ConfigError) -> Self {
        ConfigError::Device(e)
    }
}

/// Configuration of a simulated system: cores, hierarchy, controller and
/// clocking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of cores.
    pub n_cores: usize,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Memory controller + DRAM channel.
    pub ctrl: CtrlConfig,
    /// Core cycles per DRAM command-clock cycle (2 ⇒ 2.4 GHz cores over a
    /// 1.2 GHz DDR4-2400 command clock).
    pub core_clock_mult: u32,
    /// Through-time sampling period in DRAM cycles.
    pub sample_period: Cycle,
    /// Memory channels (controllers); consecutive cache lines interleave
    /// across them. The paper's setup uses 1; stacks are built per
    /// channel and aggregated.
    pub channels: usize,
}

impl SystemConfig {
    /// The paper's setup: `n_cores` Skylake-like cores, one DDR4-2400
    /// channel, FR-FCFS, open page, 32-entry write queue. Samples every
    /// ~10 µs.
    pub fn paper_default(n_cores: usize) -> Self {
        SystemConfig {
            n_cores,
            core: CoreConfig::paper_default(),
            hierarchy: HierarchyConfig::paper_default(),
            ctrl: CtrlConfig::paper_default(),
            core_clock_mult: 2,
            sample_period: 12_000,
            channels: 1,
        }
    }

    /// [`paper_default`](Self::paper_default) with the two controller
    /// knobs the synthetic experiments vary, validated — the configuration
    /// of every synthetic run, whichever entry point asks for it.
    ///
    /// # Errors
    ///
    /// The [`ConfigError`] `validate` finds (e.g. zero cores).
    pub fn paper_synthetic(
        n_cores: usize,
        policy: PagePolicy,
        mapping: MappingScheme,
    ) -> Result<Self, ConfigError> {
        let mut cfg = Self::paper_default(n_cores);
        cfg.ctrl.page_policy = policy;
        cfg.ctrl.mapping = mapping;
        cfg.validate()?;
        Ok(cfg)
    }

    /// The GAP-experiment variant: identical to
    /// [`paper_default`](Self::paper_default) except the shared LLC is
    /// scaled to 1 MB (and L2 to 256 KB). The paper's graph inputs are two
    /// orders of magnitude larger than its 11 MB LLC; our cycle-simulated
    /// graphs are scaled down, so the cache is scaled with them to keep the
    /// same memory-bound graph:LLC ratio (see DESIGN.md substitutions).
    pub fn paper_gap(n_cores: usize) -> Self {
        use dramstack_cpu::CacheConfig;
        let mut c = Self::paper_default(n_cores);
        c.hierarchy.l2 = CacheConfig {
            size_bytes: 256 << 10,
            ways: 8,
            line_bytes: 64,
            latency: 14,
        };
        c.hierarchy.llc = CacheConfig {
            size_bytes: 1 << 20,
            ways: 8,
            line_bytes: 64,
            latency: 44,
        };
        c
    }

    /// Duration of one DRAM cycle in nanoseconds.
    pub fn dram_cycle_ns(&self) -> f64 {
        self.ctrl.device.timing.cycle_ns()
    }

    /// Converts microseconds of simulated time to DRAM cycles.
    pub fn us_to_cycles(&self, us: f64) -> Cycle {
        (us * 1000.0 / self.dram_cycle_ns()).round() as Cycle
    }

    /// Validates nested configurations, returning a typed error for any
    /// violated constraint (no panics on user input).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_cores == 0 {
            return Err(ConfigError::NoCores);
        }
        if self.n_cores > MAX_CORES {
            return Err(ConfigError::TooManyCores(self.n_cores));
        }
        if self.core_clock_mult == 0 {
            return Err(ConfigError::ZeroClockMultiplier);
        }
        if self.sample_period == 0 {
            return Err(ConfigError::ZeroSamplePeriod);
        }
        if self.channels == 0 || !self.channels.is_power_of_two() {
            return Err(ConfigError::BadChannelCount(self.channels));
        }
        self.ctrl.device.validate()?;
        Ok(())
    }

    /// Total system peak bandwidth across all channels, in GB/s.
    pub fn system_peak_gbps(&self) -> f64 {
        self.ctrl.device.peak_bandwidth_gbps() * self.channels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_paper_numbers() {
        let c = SystemConfig::paper_default(8);
        c.validate().expect("paper default must validate");
        assert_eq!(c.n_cores, 8);
        assert_eq!(c.core.rob_entries, 224);
        assert_eq!(c.core.width, 4);
        // 2.4 GHz cores: twice the 1.2 GHz DDR4-2400 command clock.
        assert_eq!(c.ctrl.device.timing.freq_mhz * c.core_clock_mult, 2400);
        assert!((c.ctrl.device.peak_bandwidth_gbps() - 19.2).abs() < 1e-9);
        assert_eq!(c.ctrl.write_queue_cap, 32);
    }

    #[test]
    fn us_conversion_roundtrips() {
        let c = SystemConfig::paper_default(1);
        // 1 µs at 1.2 GHz = 1200 cycles.
        assert_eq!(c.us_to_cycles(1.0), 1200);
    }

    #[test]
    fn invalid_configs_return_typed_errors() {
        let mut c = SystemConfig::paper_default(1);
        c.n_cores = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoCores));
        c.n_cores = MAX_CORES + 1;
        assert_eq!(c.validate(), Err(ConfigError::TooManyCores(MAX_CORES + 1)));

        let mut c = SystemConfig::paper_default(1);
        c.core_clock_mult = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroClockMultiplier));

        let mut c = SystemConfig::paper_default(1);
        c.sample_period = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroSamplePeriod));

        let mut c = SystemConfig::paper_default(1);
        c.channels = 3;
        assert_eq!(c.validate(), Err(ConfigError::BadChannelCount(3)));

        let mut c = SystemConfig::paper_default(1);
        c.ctrl.device.timing.t_rc = 1; // < tRAS + tRP
        assert!(matches!(c.validate(), Err(ConfigError::Device(_))));
        // The message names the offending constraint.
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("t_rc"), "{msg}");
    }
}
