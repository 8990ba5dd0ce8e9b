//! The probe trait the memory controller reports events into.

use dramstack_dram::{Command, Cycle};

/// Observation hooks called by the memory controller.
///
/// Every method has an inlined no-op default, so implementors override
/// only what they need and an attached probe costs nothing for the events
/// it ignores. Hooks receive copies of controller state; a probe cannot
/// influence scheduling, timing or statistics — simulation results are
/// bit-identical with or without a probe attached (asserted by the
/// `probe_determinism` integration test).
///
/// Request identifiers are the raw `u64` inside the controller's
/// `RequestId`; they are unique per controller for the lifetime of the
/// run. `flat_bank` is the flat bank index (as used by `CycleView`); for
/// rank-scoped commands (refresh) it is the first bank of the rank.
pub trait Probe: std::fmt::Debug {
    /// A read (`is_write == false`) or write request entered its queue.
    #[inline]
    fn request_accepted(&mut self, id: u64, phys: u64, is_write: bool) {
        let _ = (id, phys, is_write);
    }

    /// A queued request's arrival cycle was stamped (the first cycle the
    /// controller observed it).
    #[inline]
    fn request_arrival(&mut self, id: u64, now: Cycle) {
        let _ = (id, now);
    }

    /// The CAS for a request issued. `row_hit` is true when the request
    /// needed no PRE/ACT of its own. For reads, data returns later (see
    /// [`data_returned`](Self::data_returned)); a write is finished with
    /// its CAS as far as the requester is concerned.
    #[inline]
    fn cas_issued(&mut self, id: u64, now: Cycle, is_write: bool, row_hit: bool, flat_bank: usize) {
        let _ = (id, now, is_write, row_hit, flat_bank);
    }

    /// A read's data became available (excluding the fixed controller
    /// overhead added on top for the requester).
    #[inline]
    fn data_returned(&mut self, id: u64, now: Cycle) {
        let _ = (id, now);
    }

    /// A DRAM command went out on the command bus.
    #[inline]
    fn command_issued(&mut self, now: Cycle, cmd: Command, flat_bank: usize) {
        let _ = (now, cmd, flat_bank);
    }

    /// The controller entered write-drain mode with `wq_len` writes
    /// buffered.
    #[inline]
    fn write_drain_entered(&mut self, now: Cycle, wq_len: usize) {
        let _ = (now, wq_len);
    }

    /// The controller left write-drain mode.
    #[inline]
    fn write_drain_exited(&mut self, now: Cycle) {
        let _ = (now,);
    }

    /// A refresh issued to `rank`, occupying it over `[start, end)`.
    #[inline]
    fn refresh_window(&mut self, rank: usize, start: Cycle, end: Cycle) {
        let _ = (rank, start, end);
    }

    /// Per-cycle controller occupancy (called once per tick while a probe
    /// is attached).
    #[inline]
    fn tick(&mut self, now: Cycle, read_q: usize, write_q: usize, in_flight: usize, drain: bool) {
        let _ = (now, read_q, write_q, in_flight, drain);
    }

    /// Whether this probe needs the per-cycle [`tick`](Self::tick) hook
    /// even across provably inert spans.
    ///
    /// The simulator's event-horizon skip passes over cycles in which
    /// nothing observable happens; the only probe hook those cycles would
    /// have fired is `tick`. A probe that returns `false` here (e.g. an
    /// event-driven auditor) keeps the skip enabled; the default
    /// `true` is conservative and disables it while the probe is
    /// attached. Either way results are bit-identical — probes observe,
    /// they never steer.
    #[inline]
    fn wants_ticks(&self) -> bool {
        true
    }
}

/// The default probe: every hook is an inlined no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// A probe that forwards every hook to two inner probes, in order.
///
/// Lets independently written observers coexist on one controller — e.g.
/// the default-armed protocol auditor plus a user-attached
/// [`ChromeTraceProbe`](crate::ChromeTraceProbe).
#[derive(Debug)]
pub struct TeeProbe {
    a: Box<dyn Probe>,
    b: Box<dyn Probe>,
}

impl TeeProbe {
    /// Combines two probes; `a` sees every event before `b`.
    pub fn new(a: Box<dyn Probe>, b: Box<dyn Probe>) -> Self {
        TeeProbe { a, b }
    }
}

impl Probe for TeeProbe {
    fn request_accepted(&mut self, id: u64, phys: u64, is_write: bool) {
        self.a.request_accepted(id, phys, is_write);
        self.b.request_accepted(id, phys, is_write);
    }

    fn request_arrival(&mut self, id: u64, now: Cycle) {
        self.a.request_arrival(id, now);
        self.b.request_arrival(id, now);
    }

    fn cas_issued(&mut self, id: u64, now: Cycle, is_write: bool, row_hit: bool, flat_bank: usize) {
        self.a.cas_issued(id, now, is_write, row_hit, flat_bank);
        self.b.cas_issued(id, now, is_write, row_hit, flat_bank);
    }

    fn data_returned(&mut self, id: u64, now: Cycle) {
        self.a.data_returned(id, now);
        self.b.data_returned(id, now);
    }

    fn command_issued(&mut self, now: Cycle, cmd: Command, flat_bank: usize) {
        self.a.command_issued(now, cmd, flat_bank);
        self.b.command_issued(now, cmd, flat_bank);
    }

    fn write_drain_entered(&mut self, now: Cycle, wq_len: usize) {
        self.a.write_drain_entered(now, wq_len);
        self.b.write_drain_entered(now, wq_len);
    }

    fn write_drain_exited(&mut self, now: Cycle) {
        self.a.write_drain_exited(now);
        self.b.write_drain_exited(now);
    }

    fn refresh_window(&mut self, rank: usize, start: Cycle, end: Cycle) {
        self.a.refresh_window(rank, start, end);
        self.b.refresh_window(rank, start, end);
    }

    fn tick(&mut self, now: Cycle, read_q: usize, write_q: usize, in_flight: usize, drain: bool) {
        self.a.tick(now, read_q, write_q, in_flight, drain);
        self.b.tick(now, read_q, write_q, in_flight, drain);
    }

    fn wants_ticks(&self) -> bool {
        self.a.wants_ticks() || self.b.wants_ticks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramstack_dram::BankAddr;

    /// A probe that counts hook invocations — exercising every default
    /// signature.
    #[derive(Debug, Default)]
    struct CountingProbe {
        calls: u64,
    }

    impl Probe for CountingProbe {
        fn command_issued(&mut self, _now: Cycle, _cmd: Command, _flat: usize) {
            self.calls += 1;
        }
    }

    #[test]
    fn null_probe_accepts_all_hooks() {
        let mut p = NullProbe;
        p.request_accepted(1, 0x40, false);
        p.request_arrival(1, 10);
        p.cas_issued(1, 12, false, true, 0);
        p.data_returned(1, 30);
        p.command_issued(12, Command::read(BankAddr::new(0, 0, 0), 3), 0);
        p.write_drain_entered(50, 28);
        p.write_drain_exited(90);
        p.refresh_window(0, 100, 504);
        p.tick(5, 1, 0, 0, false);
    }

    #[test]
    fn overridden_hook_fires_and_others_default() {
        let mut p = CountingProbe::default();
        p.tick(0, 0, 0, 0, false);
        assert_eq!(p.calls, 0, "tick keeps its default");
        p.command_issued(1, Command::precharge(BankAddr::new(0, 1, 2)), 6);
        assert_eq!(p.calls, 1);
    }

    #[test]
    fn probes_are_boxable() {
        let mut boxed: Box<dyn Probe> = Box::new(NullProbe);
        boxed.tick(0, 0, 0, 0, false);
    }
}
