//! Lockstep harness: one controller with the busy-path engine on (per-bank
//! summaries, tick-local timing table) and one with it off (the full-queue
//! `*_scan` oracles), fed the same arrivals and compared every cycle.
//!
//! Shared by `tick_identity.rs` and, through `#[path]`, by the root
//! package's `tests/ctrl_identity.rs`, so tier-1 runs a reduced case.

use dramstack_dram::{Cycle, CycleView, DeviceConfig};
use dramstack_memctrl::{CtrlConfig, MemoryController, PagePolicy, SchedulerPolicy};

/// One request of an arrival tape: not before `at`, physical line `addr`.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub at: Cycle,
    pub addr: u64,
    pub write: bool,
}

/// The four traffic shapes of the identity matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Sequential reads, one per cycle: full queues of row hits.
    RowHitStream,
    /// Uniform random lines, 30 % writes: conflicts, ACT/PRE, tFAW.
    Random,
    /// Uniform random lines, 80 % writes: drain hysteresis, turnarounds.
    WriteHeavy,
    /// One dependent read at a time (a pointer chase): one-entry queues.
    OneAtATime,
}

pub const ALL_TRAFFIC: [Traffic; 4] = [
    Traffic::RowHitStream,
    Traffic::Random,
    Traffic::WriteHeavy,
    Traffic::OneAtATime,
];

pub fn config(scheduler: SchedulerPolicy, page_policy: PagePolicy, dual_rank: bool) -> CtrlConfig {
    let mut cfg = CtrlConfig::paper_default();
    cfg.scheduler = scheduler;
    cfg.page_policy = page_policy;
    if dual_rank {
        cfg.device = DeviceConfig::ddr4_2400_dual_rank();
    }
    cfg
}

/// A deterministic tape of `n` arrivals of the given shape.
pub fn tape(traffic: Traffic, n: usize, seed: u64) -> Vec<Arrival> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..n as u64)
        .map(|i| {
            let random_line = (next() % (1 << 26)) << 6;
            match traffic {
                Traffic::RowHitStream => Arrival {
                    at: i,
                    addr: i << 6,
                    write: false,
                },
                Traffic::Random => Arrival {
                    at: i * 3,
                    addr: random_line,
                    write: next() % 10 < 3,
                },
                Traffic::WriteHeavy => Arrival {
                    at: i * 2,
                    addr: random_line,
                    write: next() % 10 < 8,
                },
                // `at` is ignored: the harness waits for an idle controller.
                Traffic::OneAtATime => Arrival {
                    at: 0,
                    addr: random_line,
                    write: false,
                },
            }
        })
        .collect()
}

/// What a lockstep run did, so callers can assert it exercised something.
#[derive(Debug, Default)]
pub struct Outcome {
    pub cycles: Cycle,
    pub reads_done: u64,
    pub writes_done: u64,
    pub refreshes: u64,
    pub horizons_checked: u64,
}

/// Runs the tape on both controllers for at most `max_cycles`. With
/// `restore_at`, the engine-on controller is snapshotted at that cycle —
/// between the pump and the tick, so unstamped entries are in the image —
/// and replaced by a fresh controller restored from it.
///
/// Every cycle: identical `CycleView` and identical completions
/// (breakdown included). At the end: identical `CtrlStats` and command
/// trace. Whenever the engine-on side offers a stall horizon `h`, the
/// following ticks up to `h` must issue nothing, complete nothing and
/// repeat the view, unless an arrival intervened.
///
/// In debug builds every tick additionally recounts every field of both
/// queue summaries against the queues (`MemoryController::tick`), and
/// cross-checks each engine pass against its scan oracle.
pub fn run(
    cfg: &CtrlConfig,
    traffic: Traffic,
    arrivals: &[Arrival],
    max_cycles: Cycle,
    restore_at: Option<Cycle>,
) -> Outcome {
    let mut on = MemoryController::new(cfg.clone());
    let mut off = MemoryController::new(cfg.clone());
    off.set_busy_engine(false);
    on.enable_command_trace();
    off.enable_command_trace();
    let banks = on.total_banks();
    let (mut view_on, mut view_off) = (CycleView::idle(banks), CycleView::idle(banks));
    let (mut trace_on, mut trace_off) = (Vec::new(), Vec::new());
    let mut next = 0;
    let mut out = Outcome::default();
    // (horizon, the frozen view, commands traced so far) of a pending claim.
    let mut frozen: Option<(Cycle, CycleView, usize)> = None;

    for now in 0..max_cycles {
        while let Some(a) = arrivals.get(next) {
            let due = match traffic {
                Traffic::OneAtATime => on.is_idle(),
                _ => a.at <= now,
            };
            let room = if a.write {
                on.can_accept_write()
            } else {
                on.can_accept_read()
            };
            if !due || !room {
                break;
            }
            if a.write {
                assert_eq!(on.enqueue_write(a.addr), off.enqueue_write(a.addr));
            } else {
                assert_eq!(
                    on.enqueue_read(a.addr, next as u64),
                    off.enqueue_read(a.addr, next as u64)
                );
            }
            next += 1;
            frozen = None; // a horizon only speaks for frozen queues
        }
        if restore_at == Some(now) {
            let snap = on.snapshot_state();
            trace_on.extend(on.take_command_trace());
            on = MemoryController::new(cfg.clone());
            on.restore_state(&snap);
            on.enable_command_trace();
            assert_eq!(on.snapshot_state(), snap, "restore is lossless");
            frozen = None;
        }

        on.tick(now, &mut view_on);
        off.tick(now, &mut view_off);
        assert_eq!(view_on, view_off, "view differs at cycle {now}");
        let done_on: Vec<_> = on.drain_completions().collect();
        let done_off: Vec<_> = off.drain_completions().collect();
        assert_eq!(done_on, done_off, "completions differ at cycle {now}");
        trace_on.extend(on.take_command_trace());
        trace_off.extend(off.take_command_trace());

        if let Some((h, view, commands)) = &frozen {
            if now < *h {
                assert_eq!(&view_on, view, "view moved inside a stall span at {now}");
                assert!(
                    done_on.is_empty(),
                    "completion inside a stall span at {now}"
                );
                assert_eq!(
                    trace_on.len(),
                    *commands,
                    "command inside a stall span at {now}"
                );
            } else {
                out.horizons_checked += 1;
                frozen = None;
            }
        }
        if frozen.is_none() {
            if let Some(h) = on.stall_horizon(now) {
                assert!(h >= now + 2, "a span skips at least one cycle");
                frozen = Some((h, view_on.clone(), trace_on.len()));
            }
        }

        out.cycles = now + 1;
        if next == arrivals.len() && on.is_idle() {
            break;
        }
    }

    assert_eq!(trace_on, trace_off, "command traces differ");
    assert_eq!(on.stats(), off.stats());
    assert_eq!(on.is_idle(), off.is_idle());
    let s = on.stats();
    out.reads_done = s.reads_done;
    out.writes_done = s.writes_done;
    out.refreshes = s.refreshes;
    out
}
