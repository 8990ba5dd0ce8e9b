//! Lockstep harness: a controller that may be snapshotted and restored
//! mid-run and whose stall horizons are checked, and a twin that is never
//! restored and ticks every cycle, fed the same arrivals and compared
//! every cycle, plus a reference model that recomputes every read's
//! latency breakdown from the command trace. Debug builds also check each
//! scheduling and view pass against its full-queue `*_scan` oracle on
//! every tick of both.
//!
//! Shared by `tick_identity.rs` and, through `#[path]`, by the root
//! package's `tests/ctrl_identity.rs`, so tier-1 runs a reduced case.

use dramstack_dram::{BankActivity, CommandKind, Cycle, CycleView, DeviceConfig, TimedCommand};
use dramstack_memctrl::{
    CompletedRead, CtrlConfig, LatencyBreakdown, MemoryController, PagePolicy, RequestId,
    SchedulerPolicy,
};

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

/// One controller fed from a tape, cycle by cycle or — with
/// `replay_period` set — replaying every span `stall_horizon` offers by
/// `apply_stall_span` instead of ticking it, cut as the simulator's drive
/// loops cut it: at the next multiple of the period and at the next
/// arrival the queues have room for, and chained from there.
pub struct Driver<'a> {
    pub ctrl: MemoryController,
    arrivals: &'a [Arrival],
    /// Index of the next arrival to enqueue.
    pub next: usize,
    pub view: CycleView,
    pub done: Vec<CompletedRead>,
    pub replay_period: Option<Cycle>,
    /// Cycles replayed, and spans a period boundary cut short.
    pub skipped: u64,
    pub cuts: u64,
}

impl<'a> Driver<'a> {
    pub fn new(ctrl: MemoryController, arrivals: &'a [Arrival], next: usize) -> Self {
        Driver {
            view: CycleView::idle(ctrl.total_banks()),
            ctrl,
            arrivals,
            next,
            done: Vec::new(),
            replay_period: None,
            skipped: 0,
            cuts: 0,
        }
    }

    /// The next arrival, if it is due by `now` and its queue has room.
    fn admissible(&self, now: Cycle) -> Option<Arrival> {
        let a = *self.arrivals.get(self.next)?;
        let room = if a.write {
            self.ctrl.can_accept_write()
        } else {
            self.ctrl.can_accept_read()
        };
        (a.at <= now && room).then_some(a)
    }

    pub fn run(&mut self, cycles: std::ops::Range<Cycle>) {
        let mut now = cycles.start;
        while now < cycles.end {
            while let Some(a) = self.admissible(now) {
                if a.write {
                    self.ctrl.enqueue_write(a.addr);
                } else {
                    self.ctrl.enqueue_read(a.addr, self.next as u64);
                }
                self.next += 1;
            }
            self.ctrl.tick(now, &mut self.view);
            self.done.extend(self.ctrl.drain_completions());
            // `last` is the latest cycle accounted for, ticked or replayed.
            let mut last = now;
            while let Some(period) = self.replay_period {
                let Some(h) = self.ctrl.stall_horizon(last) else {
                    break;
                };
                let boundary = (last / period + 1) * period;
                let mut end = h.min(cycles.end).min(boundary);
                // Occupancy is frozen over a span: room now is room then.
                if let Some(a) = self.admissible(Cycle::MAX) {
                    end = end.min(a.at);
                }
                if end <= last + 1 {
                    break;
                }
                self.ctrl.apply_stall_span(last, end - last - 1);
                self.skipped += end - last - 1;
                self.cuts += u64::from(end == boundary && end < h);
                last = end - 1;
            }
            now = last + 1;
        }
    }
}

/// What a lockstep run did, so callers can assert it exercised something.
#[derive(Debug, Default)]
pub struct Outcome {
    pub cycles: Cycle,
    pub reads_done: u64,
    pub writes_done: u64,
    pub refreshes: u64,
    pub horizons_checked: u64,
    /// Completions whose breakdown the reference model recomputed.
    pub breakdowns_checked: u64,
    /// CAS commands that carried an auto-precharge.
    pub auto_precharges: u64,
}

/// One read as the reference model sees it.
struct RefRead {
    id: RequestId,
    flat: usize,
    row: u32,
    /// A PRE or ACT was issued on its behalf.
    caused: bool,
    breakdown: LatencyBreakdown,
}

/// Reference model of the per-read latency attribution, independent of
/// how the controller keeps it: it sees only what an observer sees — the
/// enqueued addresses, each tick's command and the tick's `CycleView`
/// (drain flag, refresh flag, per-bank PRE/ACT activity) — and charges
/// every queued read one cycle per tick, the way the paper defines the
/// components. Compiled into release test builds too, where the
/// controller's own debug shadow is not.
struct Reference {
    /// Queued reads in arrival order.
    queued: Vec<RefRead>,
    /// Row of the latest ACT per flat bank: the row a CAS goes to.
    last_row: Vec<u32>,
    /// Stopping traffic for an overdue refresh.
    refresh_draining: bool,
    /// Reads whose CAS issued, until their completion is checked.
    in_flight: Vec<RefRead>,
    checked: u64,
}

impl Reference {
    fn new(ctrl: &MemoryController) -> Self {
        Reference {
            queued: Vec::new(),
            last_row: vec![0; ctrl.total_banks()],
            refresh_draining: false,
            in_flight: Vec::new(),
            checked: 0,
        }
    }

    fn enqueue_read(&mut self, ctrl: &MemoryController, id: RequestId, phys: u64) {
        let addr = ctrl.mapping().decode(phys);
        let cfg = ctrl.config();
        self.queued.push(RefRead {
            id,
            flat: ctrl.device().geometry().flat_bank(addr.bank),
            row: addr.row,
            caused: false,
            breakdown: LatencyBreakdown {
                base_cntlr: cfg.ctrl_overhead,
                base_dram: cfg.device.timing.base_read_cycles(),
                ..LatencyBreakdown::default()
            },
        });
    }

    /// Before `ctrl.tick(now)`: a refresh that fell due starts a drain.
    fn before_tick(&mut self, ctrl: &MemoryController, now: Cycle) {
        let d = ctrl.device();
        self.refresh_draining |=
            (0..d.geometry().ranks).any(|r| d.refresh_due(r, now) && !d.is_refreshing(r, now));
    }

    /// After `ctrl.tick(now)`, which issued `cmds` (at most one), filled
    /// `view` and completed `done`.
    fn after_tick(
        &mut self,
        ctrl: &MemoryController,
        view: &CycleView,
        cmds: &[TimedCommand],
        done: &[CompletedRead],
    ) {
        assert!(cmds.len() <= 1, "one command per cycle: {cmds:?}");
        for c in cmds {
            let flat = ctrl.device().geometry().flat_bank(c.cmd.bank);
            match c.cmd.kind {
                CommandKind::Refresh => self.refresh_draining = false,
                CommandKind::Activate | CommandKind::Precharge => {
                    if c.cmd.kind == CommandKind::Activate {
                        self.last_row[flat] = c.cmd.row;
                    }
                    // The scheduler serves reads unless it drains writes
                    // or has none, and a bank's oldest entry drives it.
                    if !self.refresh_draining && !view.drain {
                        if let Some(r) = self.queued.iter_mut().find(|r| r.flat == flat) {
                            r.caused = true;
                        }
                    }
                }
                CommandKind::Read | CommandKind::ReadAp => {
                    let row = self.last_row[flat];
                    let hit = |r: &RefRead| r.flat == flat && r.row == row;
                    let pos = self.queued.iter().position(hit).expect("a queued row hit");
                    self.in_flight.push(self.queued.remove(pos));
                }
                CommandKind::Write | CommandKind::WriteAp => {}
            }
        }
        for r in &mut self.queued {
            let moving = matches!(
                view.banks[r.flat],
                BankActivity::Precharging | BankActivity::Activating
            );
            let b = &mut r.breakdown;
            if view.drain {
                b.writeburst += 1;
            } else if self.refresh_draining || view.refreshing {
                b.refresh += 1;
            } else if r.caused && moving {
                b.preact += 1;
            } else {
                b.queue += 1;
            }
        }
        for c in done {
            let pos = self.in_flight.iter().position(|r| r.id == c.id);
            let r = self
                .in_flight
                .swap_remove(pos.expect("completed read had its CAS"));
            assert_eq!(c.breakdown, r.breakdown, "read {:?} at {}", c.id, c.done_at);
            assert_eq!(c.breakdown.total(), c.done_at - c.arrival, "{c:?}");
            self.checked += 1;
        }
    }
}

/// Runs the tape on both controllers for at most `max_cycles`. With
/// `restore_at`, the first controller is snapshotted at that cycle —
/// between the pump and the tick, so unstamped entries are in the image —
/// and replaced by a fresh controller restored from it.
///
/// Every cycle: identical `CycleView` and identical completions
/// (breakdown included), and every completion's breakdown equal to what
/// the [`Reference`] model recomputed from the commands and views. At
/// the end: identical `CtrlStats` and command trace. Whenever the first
/// controller offers a stall horizon `h`, the following ticks up to
/// `h` must issue nothing, complete nothing and repeat the view, unless
/// an arrival intervened.
///
/// In debug builds every tick additionally recounts every field of both
/// queue summaries against the queues (`MemoryController::tick`), and
/// cross-checks each pass against its scan oracle.
pub fn run(
    cfg: &CtrlConfig,
    traffic: Traffic,
    arrivals: &[Arrival],
    max_cycles: Cycle,
    restore_at: Option<Cycle>,
) -> Outcome {
    let mut ctrl = MemoryController::new(cfg.clone());
    let mut twin = MemoryController::new(cfg.clone());
    ctrl.enable_command_trace();
    twin.enable_command_trace();
    let banks = ctrl.total_banks();
    let (mut view, mut view_twin) = (CycleView::idle(banks), CycleView::idle(banks));
    let (mut trace, mut trace_twin) = (Vec::new(), Vec::new());
    let mut next = 0;
    let mut out = Outcome::default();
    let mut reference = Reference::new(&ctrl);
    // (horizon, the frozen view, commands traced so far) of a pending claim.
    let mut frozen: Option<(Cycle, CycleView, usize)> = None;

    for now in 0..max_cycles {
        while let Some(a) = arrivals.get(next) {
            let due = match traffic {
                Traffic::OneAtATime => ctrl.is_idle(),
                _ => a.at <= now,
            };
            let room = if a.write {
                ctrl.can_accept_write()
            } else {
                ctrl.can_accept_read()
            };
            if !due || !room {
                break;
            }
            if a.write {
                assert_eq!(ctrl.enqueue_write(a.addr), twin.enqueue_write(a.addr));
            } else {
                let id = ctrl.enqueue_read(a.addr, next as u64);
                assert_eq!(id, twin.enqueue_read(a.addr, next as u64));
                reference.enqueue_read(&ctrl, id, a.addr);
            }
            next += 1;
            frozen = None; // a horizon only speaks for frozen queues
        }
        if restore_at == Some(now) {
            let snap = ctrl.snapshot_state();
            trace.extend(ctrl.take_command_trace());
            ctrl = MemoryController::new(cfg.clone());
            ctrl.restore_state(&snap);
            ctrl.enable_command_trace();
            assert_eq!(ctrl.snapshot_state(), snap, "restore is lossless");
            frozen = None;
        }

        reference.before_tick(&ctrl, now);
        ctrl.tick(now, &mut view);
        twin.tick(now, &mut view_twin);
        assert_eq!(view, view_twin, "view differs at cycle {now}");
        let done: Vec<_> = ctrl.drain_completions().collect();
        let done_twin: Vec<_> = twin.drain_completions().collect();
        assert_eq!(done, done_twin, "completions differ at cycle {now}");
        let issued = ctrl.take_command_trace();
        reference.after_tick(&ctrl, &view, &issued, &done);
        trace.extend(issued);
        trace_twin.extend(twin.take_command_trace());

        if let Some((h, frozen_view, commands)) = &frozen {
            if now < *h {
                assert_eq!(
                    &view, frozen_view,
                    "view moved inside a stall span at {now}"
                );
                assert!(done.is_empty(), "completion inside a stall span at {now}");
                assert_eq!(
                    trace.len(),
                    *commands,
                    "command inside a stall span at {now}"
                );
            } else {
                out.horizons_checked += 1;
                frozen = None;
            }
        }
        if frozen.is_none() {
            if let Some(h) = ctrl.stall_horizon(now) {
                assert!(h >= now + 2, "a span skips at least one cycle");
                frozen = Some((h, view.clone(), trace.len()));
            }
        }

        out.cycles = now + 1;
        if next == arrivals.len() && ctrl.is_idle() {
            break;
        }
    }

    assert_eq!(trace, trace_twin, "command traces differ");
    assert_eq!(ctrl.stats(), twin.stats());
    assert_eq!(ctrl.is_idle(), twin.is_idle());
    let s = ctrl.stats();
    out.reads_done = s.reads_done;
    out.writes_done = s.writes_done;
    out.refreshes = s.refreshes;
    out.breakdowns_checked = reference.checked;
    let auto_pre =
        |c: &&TimedCommand| matches!(c.cmd.kind, CommandKind::ReadAp | CommandKind::WriteAp);
    out.auto_precharges = trace.iter().filter(auto_pre).count() as u64;
    out
}
