//! Parked cores: the cpu half of the event-horizon skip. A core whose
//! next ticks would only add stall cycles leaves the step loop until a
//! line completion, a barrier release or its own horizon wakes it.

use dramstack_cpu::{CoreModel, StallKind};

/// A core taken off the step loop: ticking it at any core cycle in
/// `[since, until)` would only add one `kind` cycle to its stack (the
/// contract of [`CoreModel::stall_horizon`]), so nobody does, and the
/// cycles are added in bulk when the core wakes or its stack is read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parked {
    /// First core cycle not yet accrued.
    pub(crate) since: u64,
    pub(crate) kind: StallKind,
    /// First core cycle the core must tick again (`u64::MAX`: only a line
    /// completion or a barrier release ends the stall).
    until: u64,
}

/// Which cores are parked. Every method that needs the cores takes them
/// as an argument, so a caller can hold other parts of the
/// [`Simulator`](crate::Simulator) (the hierarchy's completion iterator)
/// at the same time.
pub(crate) struct Parking {
    /// Per core: `Some` while parked.
    pub(crate) parked: Vec<Option<Parked>>,
    /// The cores `step` ticks, ascending: the tick order within a core
    /// cycle is part of the model.
    pub(crate) awake: Vec<usize>,
    /// Lower bound on the earliest `until` of any parked core.
    pub(crate) next_wake: u64,
    /// `CoreModel::stall_horizon` evaluations made (for `SimReport::perf`).
    pub(crate) polls: u64,
}

impl Parking {
    pub(crate) fn new(n_cores: usize) -> Self {
        Parking {
            parked: vec![None; n_cores],
            awake: (0..n_cores).collect(),
            next_wake: u64::MAX,
            polls: 0,
        }
    }

    /// Asks core `c` (not in `awake`, or about to be dropped from it by
    /// the caller) whether it is stalled from core cycle `from` on, and
    /// parks it there if so.
    pub(crate) fn try_park(&mut self, cores: &[CoreModel], c: usize, from: u64) -> bool {
        self.polls += 1;
        let Some((until, kind)) = cores[c].stall_horizon(from) else {
            return false;
        };
        self.parked[c] = Some(Parked {
            since: from,
            kind,
            until,
        });
        self.next_wake = self.next_wake.min(until);
        true
    }

    /// Adds the stall cycles core `c` owes up to core cycle `to`, if it is
    /// parked.
    pub(crate) fn settle(&mut self, cores: &mut [CoreModel], c: usize, to: u64) {
        if let Some(p) = &mut self.parked[c] {
            cores[c].add_stall_cycles(p.since, to - p.since, p.kind);
            p.since = to;
        }
    }

    /// Settles every parked core up to core cycle `to`: the cycle stacks
    /// are about to be read.
    pub(crate) fn settle_all(&mut self, cores: &mut [CoreModel], to: u64) {
        for c in 0..cores.len() {
            self.settle(cores, c, to);
        }
    }

    /// Puts core `c` back on the step loop; its next tick is at `now`.
    pub(crate) fn wake(&mut self, cores: &mut [CoreModel], c: usize, now: u64) {
        if self.parked[c].is_some() {
            self.settle(cores, c, now);
            self.parked[c] = None;
            let at = self.awake.partition_point(|&a| a < c);
            self.awake.insert(at, c);
        }
    }

    /// Wakes every parked core whose stall ends by core cycle `now` and
    /// recomputes `next_wake`.
    pub(crate) fn wake_due(&mut self, cores: &mut [CoreModel], now: u64) {
        self.next_wake = u64::MAX;
        for c in 0..cores.len() {
            match self.parked[c] {
                Some(p) if p.until <= now => self.wake(cores, c, now),
                Some(p) => self.next_wake = self.next_wake.min(p.until),
                None => {}
            }
        }
    }

    /// Wakes every parked core; their next tick is at `now`.
    pub(crate) fn wake_all(&mut self, cores: &mut [CoreModel], now: u64) {
        if self.awake.len() < cores.len() {
            for c in 0..cores.len() {
                self.wake(cores, c, now);
            }
            self.next_wake = u64::MAX;
        }
    }
}
