//! Memory-request trace replay: build stacks for a recorded stream of
//! reads/writes without modeling cores at all.
//!
//! This is the "bring your own trace" mode: anything that can produce
//! `(cycle, R/W, address)` records — a binary-instrumentation tool, an
//! accelerator model, another simulator — can be analyzed with bandwidth
//! and latency stacks. Arrival cycles are *earliest* arrivals: if a queue
//! is full, the request (and everything behind it, per program order)
//! waits.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use dramstack_core::{LatencyStack, StackSampler, TimeSample};
use dramstack_dram::{Cycle, CycleView};
use dramstack_memctrl::{CtrlConfig, MemoryController};

use dramstack_core::through_time::{aggregate_bandwidth, aggregate_latency};
use dramstack_core::BandwidthStack;

/// One memory request of a replayable trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Earliest cycle the request may arrive at the controller.
    pub at: Cycle,
    /// Write (true) or read (false).
    pub write: bool,
    /// Physical byte address.
    pub addr: u64,
}

impl fmt::Display for MemRequest {
    /// Line format: `cycle R|W 0xADDR`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {:#x}",
            self.at,
            if self.write { 'W' } else { 'R' },
            self.addr
        )
    }
}

impl FromStr for MemRequest {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split_whitespace();
        let at: Cycle = it
            .next()
            .ok_or("missing cycle")?
            .parse()
            .map_err(|e| format!("cycle: {e}"))?;
        let write = match it.next().ok_or("missing kind")? {
            "R" | "r" => false,
            "W" | "w" => true,
            other => return Err(format!("kind must be R or W, got `{other}`")),
        };
        let addr_s = it.next().ok_or("missing address")?;
        let addr = if let Some(hex) = addr_s
            .strip_prefix("0x")
            .or_else(|| addr_s.strip_prefix("0X"))
        {
            u64::from_str_radix(hex, 16).map_err(|e| format!("address: {e}"))?
        } else {
            addr_s.parse().map_err(|e| format!("address: {e}"))?
        };
        Ok(MemRequest { at, write, addr })
    }
}

/// A trace line that failed to parse, with enough context to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number in the input text.
    pub line: usize,
    /// The offending line, verbatim (trimmed).
    pub content: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace line {}: {} (`{}`)",
            self.line, self.reason, self.content
        )
    }
}

impl std::error::Error for TraceParseError {}

/// Why a trace replay failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A line failed to parse.
    Parse(TraceParseError),
    /// The trace is not sorted by arrival cycle.
    Unsorted {
        /// 1-based index of the first out-of-order record.
        record: usize,
    },
    /// The replay exceeded its cycle budget without draining.
    DidNotDrain {
        /// The budget that was exceeded.
        max_cycles: Cycle,
        /// Requests fed to the controller before giving up.
        fed: usize,
        /// Requests in the trace.
        total: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Parse(e) => e.fmt(f),
            ReplayError::Unsorted { record } => {
                write!(f, "trace not sorted by cycle at record {record}")
            }
            ReplayError::DidNotDrain {
                max_cycles,
                fed,
                total,
            } => write!(
                f,
                "replay did not drain within {max_cycles} cycles ({fed} of {total} requests fed)"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TraceParseError> for ReplayError {
    fn from(e: TraceParseError) -> Self {
        ReplayError::Parse(e)
    }
}

/// Parses a request trace (one request per line, `#` comments allowed).
/// Every other line must be well-formed.
///
/// # Errors
///
/// Returns a [`TraceParseError`] locating the first malformed line.
pub fn parse_requests(text: &str) -> Result<Vec<MemRequest>, TraceParseError> {
    let mut requests = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        requests.push(line.parse().map_err(|reason| TraceParseError {
            line: i + 1,
            content: line.to_string(),
            reason,
        })?);
    }
    Ok(requests)
}

/// Serializes a request trace.
pub fn write_requests(reqs: &[MemRequest]) -> String {
    let mut out = String::new();
    for r in reqs {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out
}

/// Result of replaying a request trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayResult {
    /// Aggregate bandwidth stack.
    pub bandwidth_stack: BandwidthStack,
    /// Aggregate latency stack over the reads.
    pub latency_stack: LatencyStack,
    /// Through-time samples.
    pub samples: Vec<TimeSample>,
    /// Cycle the last request completed.
    pub finished_at: Cycle,
    /// Reads completed.
    pub reads: u64,
    /// Writes performed.
    pub writes: u64,
}

/// Replays `reqs` (sorted by arrival) through a controller.
///
/// # Example
///
/// ```
/// use dramstack_sim::replay::{parse_requests, replay_requests};
/// use dramstack_memctrl::CtrlConfig;
///
/// let trace = "0 R 0x0\n10 R 0x40\n20 W 0x2000\n";
/// let reqs = parse_requests(trace)?;
/// let result = replay_requests(&reqs, CtrlConfig::paper_default(), 1_000, 100_000)?;
/// assert_eq!(result.reads, 2);
/// assert_eq!(result.writes, 1);
/// # Ok::<(), dramstack_sim::replay::ReplayError>(())
/// ```
///
/// # Errors
///
/// Returns a [`ReplayError`] if the trace is unsorted or the replay
/// exceeds `max_cycles` without draining.
pub fn replay_requests(
    reqs: &[MemRequest],
    cfg: CtrlConfig,
    sample_period: Cycle,
    max_cycles: Cycle,
) -> Result<ReplayResult, ReplayError> {
    for (i, w) in reqs.windows(2).enumerate() {
        if w[1].at < w[0].at {
            return Err(ReplayError::Unsorted { record: i + 1 });
        }
    }
    let peak = cfg.device.peak_bandwidth_gbps();
    let cycle_ns = cfg.device.timing.cycle_ns();
    let mut ctrl = MemoryController::new(cfg);
    let mut view = CycleView::idle(ctrl.total_banks());
    let mut sampler = StackSampler::new(ctrl.total_banks(), peak, cycle_ns, sample_period);
    let mut next = 0usize;
    let mut now: Cycle = 0;
    let (mut reads, mut writes) = (0u64, 0u64);
    while next < reqs.len() || !ctrl.is_idle() {
        if now >= max_cycles {
            return Err(ReplayError::DidNotDrain {
                max_cycles,
                fed: next,
                total: reqs.len(),
            });
        }
        // Feed all due requests, preserving order; stall on a full queue.
        while next < reqs.len() && reqs[next].at <= now {
            let r = reqs[next];
            if r.write {
                if !ctrl.can_accept_write() {
                    break;
                }
                ctrl.enqueue_write(r.addr);
                writes += 1;
            } else {
                if !ctrl.can_accept_read() {
                    break;
                }
                ctrl.enqueue_read(r.addr, next as u64);
                reads += 1;
            }
            next += 1;
        }
        ctrl.tick(now, &mut view);
        sampler.account(&view);
        for c in ctrl.drain_completions() {
            sampler.add_read(&c.breakdown);
        }
        now += 1;
    }
    let samples = sampler.finish();
    let bandwidth_stack =
        aggregate_bandwidth(&samples).unwrap_or_else(|| BandwidthStack::empty(peak));
    let latency_stack = aggregate_latency(&samples);
    Ok(ReplayResult {
        bandwidth_stack,
        latency_stack,
        samples,
        finished_at: now,
        reads,
        writes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramstack_core::BwComponent;

    #[test]
    fn request_line_roundtrip() {
        let r = MemRequest {
            at: 120,
            write: true,
            addr: 0x00DE_ADC0,
        };
        let line = r.to_string();
        assert_eq!(line.parse::<MemRequest>().unwrap(), r);
        // Decimal addresses parse too.
        let r2: MemRequest = "5 R 4096".parse().unwrap();
        assert_eq!(
            r2,
            MemRequest {
                at: 5,
                write: false,
                addr: 4096
            }
        );
        assert!("x R 0".parse::<MemRequest>().is_err());
        assert!("1 Q 0".parse::<MemRequest>().is_err());
        assert!("1 R".parse::<MemRequest>().is_err());
    }

    #[test]
    fn parse_requests_with_comments() {
        let text = "# trace\n0 R 0x0\n\n10 W 0x40\n";
        let reqs = parse_requests(text).unwrap();
        assert_eq!(reqs.len(), 2);
        assert!(parse_requests("0 R 0x0\nbroken").is_err());
    }

    #[test]
    fn strict_parse_locates_the_malformed_line() {
        let text = "# header\n0 R 0x0\n10 Q 0x40\n20 W 0x80\n";
        let e = parse_requests(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.content, "10 Q 0x40");
        assert!(e.reason.contains("R or W"), "{e}");
        // Display carries the full context for log lines.
        let msg = e.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("10 Q 0x40"), "{msg}");
        // Of several malformed lines, the first is the one reported.
        let text = "0 R 0x0\ngarbage\n10 Q 0x40\n20 W 0x80\n30 R zz\n";
        assert_eq!(parse_requests(text).unwrap_err().line, 2);
    }

    #[test]
    fn replay_simple_reads() {
        let reqs: Vec<MemRequest> = (0..50)
            .map(|i| MemRequest {
                at: i * 12,
                write: false,
                addr: i * 64,
            })
            .collect();
        let result = replay_requests(&reqs, CtrlConfig::paper_default(), 1_000, 1_000_000).unwrap();
        assert_eq!(result.reads, 50);
        assert_eq!(result.writes, 0);
        assert_eq!(result.latency_stack.reads, 50);
        assert!(result.bandwidth_stack.gbps(BwComponent::Read) > 0.0);
        assert!(result.bandwidth_stack.is_consistent());
        assert!(!result.samples.is_empty());
    }

    #[test]
    fn replay_mixed_reads_and_writes() {
        let mut reqs = Vec::new();
        for i in 0..200u64 {
            reqs.push(MemRequest {
                at: i * 5,
                write: i % 3 == 0,
                addr: (i * 7919 * 64) % (1 << 28),
            });
        }
        let result = replay_requests(&reqs, CtrlConfig::paper_default(), 2_000, 5_000_000).unwrap();
        assert_eq!(result.reads + result.writes, 200);
        assert!(result.bandwidth_stack.gbps(BwComponent::Write) > 0.0);
    }

    #[test]
    fn unsorted_trace_is_rejected() {
        let reqs = vec![
            MemRequest {
                at: 10,
                write: false,
                addr: 0,
            },
            MemRequest {
                at: 5,
                write: false,
                addr: 64,
            },
        ];
        let e = replay_requests(&reqs, CtrlConfig::paper_default(), 1_000, 10_000).unwrap_err();
        assert_eq!(e, ReplayError::Unsorted { record: 1 });
        assert!(e.to_string().contains("not sorted"), "{e}");
    }

    #[test]
    fn overrunning_the_cycle_budget_is_a_typed_error() {
        let reqs: Vec<MemRequest> = (0..50)
            .map(|i| MemRequest {
                at: 0,
                write: false,
                addr: i * 4096,
            })
            .collect();
        match replay_requests(&reqs, CtrlConfig::paper_default(), 1_000, 10).unwrap_err() {
            ReplayError::DidNotDrain {
                max_cycles: 10,
                fed,
                total: 50,
            } => assert!(fed <= 50),
            other => panic!("expected DidNotDrain, got {other:?}"),
        }
    }

    #[test]
    fn backpressure_preserves_program_order() {
        // A burst far larger than the read queue must still complete, with
        // arrivals stalled rather than dropped.
        let reqs: Vec<MemRequest> = (0..500)
            .map(|i| MemRequest {
                at: 0,
                write: false,
                addr: i * 4096,
            })
            .collect();
        let result =
            replay_requests(&reqs, CtrlConfig::paper_default(), 10_000, 10_000_000).unwrap();
        assert_eq!(result.reads, 500);
    }
}
