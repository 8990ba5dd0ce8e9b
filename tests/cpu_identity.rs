//! Bit-identity of the event-driven cpu layer: parked cores whose stall
//! cycles accrue lazily against the oracle that ticks every core every
//! cycle and never skips (`Simulator::set_busy_engine(false)`).
//!
//! The sample period is 997 cycles, a multiple of nothing, so cycle-stack
//! windows roll while cores are parked and every flush point is hit: a
//! window roll, a line completion, a barrier release, a snapshot and the
//! final report. The armed auditor must stay clean throughout.

use dramstack::sim::{SimReport, Simulator, SystemConfig};
use dramstack::workloads::{GapConfig, GapKernel, Graph, SyntheticPattern};

const PERIOD: u64 = 997;

fn synth(cores: usize, channels: usize, pattern: SyntheticPattern, engine: bool) -> Simulator {
    let mut cfg = SystemConfig::paper_default(cores);
    cfg.channels = channels;
    cfg.sample_period = PERIOD;
    let mut sim = Simulator::with_synthetic(cfg, pattern);
    sim.set_busy_engine(engine);
    // Armed by default only in debug builds; `assert_same` needs it in
    // release too.
    sim.set_audit(true);
    sim
}

fn assert_same(on: &SimReport, off: &SimReport, what: &str) {
    assert_eq!(on.strip_perf(), off.strip_perf(), "{what}: reports differ");
    assert!(
        on.audit.armed && on.audit.is_clean(),
        "{what}: {:?}",
        on.audit
    );
    assert!(on.ctrl_stats.reads_done > 0, "{what}: no work done");
    assert!(
        on.cycle_samples.len() as u64 >= on.sim_cycles / PERIOD,
        "{what}: windows did not roll"
    );
}

#[test]
fn parked_cores_match_the_ticked_oracle_across_cores_and_channels() {
    let mut rand_rw = SyntheticPattern::random(0.3);
    rand_rw.seed = 21;
    let shapes = [
        ("seq_rw", SyntheticPattern::sequential(0.2)),
        ("rand_rw", rand_rw),
    ];
    for cores in [1, 2, 8] {
        for channels in [1, 2] {
            for (name, pattern) in shapes {
                let what = format!("{name} {cores}c x {channels}ch");
                let on = synth(cores, channels, pattern, true).run_for_us(10.0);
                let off = synth(cores, channels, pattern, false).run_for_us(10.0);
                assert_same(&on, &off, &what);
                // The oracle ticks every core every stepped cycle; the
                // engine must have parked some of them to prove anything.
                assert!(
                    on.perf.core_ticks < off.perf.core_ticks,
                    "{what}: {:?}",
                    on.perf
                );
                assert_eq!(on.perf.hier_accesses, off.perf.hier_accesses, "{what}");
            }
        }
    }
}

#[test]
fn barrier_release_wakes_parked_cores() {
    // BFS has a barrier per level: cores park at it (and on DRAM loads)
    // and only the release of the last arrival may wake them.
    let graph = Graph::kronecker(8, 6, 3);
    let run = |engine: bool| {
        let traces = GapKernel::Bfs.trace(&graph, 4, &GapConfig::default());
        let barriers = traces[0]
            .iter()
            .filter(|i| matches!(i, dramstack::cpu::Instr::Barrier { .. }))
            .count();
        assert!(barriers > 1, "the trace must synchronise");
        let mut cfg = SystemConfig::paper_gap(4);
        cfg.sample_period = PERIOD;
        let mut sim = Simulator::with_traces(cfg, traces);
        sim.set_busy_engine(engine);
        sim.set_audit(true);
        let r = sim.run_to_completion(50_000_000);
        assert!(sim.finished(), "bfs must finish (engine {engine})");
        r
    };
    let (on, off) = (run(true), run(false));
    assert_same(&on, &off, "gap bfs 4c");
    assert!(on.perf.core_ticks < off.perf.core_ticks, "{:?}", on.perf);
}

#[test]
fn snapshot_taken_while_cores_are_parked_resumes_identically() {
    let pattern = SyntheticPattern::sequential(0.2);
    let end = 30_000;
    let mut whole = synth(8, 1, pattern, true);
    whole.advance_to_cycle(end);
    let whole = whole.report();

    // Stop at the first cycle past 10 000 with every core parked.
    let mut sim = synth(8, 1, pattern, true);
    sim.advance_to_cycle(10_000);
    while sim.parked_cores() < 8 {
        sim.advance_to_cycle(sim.now() + 1);
        assert!(sim.now() < 20_000, "a saturated stream must park all cores");
    }
    let cut = sim.now();
    let snap = sim.snapshot().expect("synthetic streams checkpoint");

    // The stall cycles the parked cores owe are in the snapshot: its cpu
    // side equals the oracle's at the same cycle, whose cores accrued
    // theirs tick by tick. (The controllers' snapshots differ in the
    // engine's own scratch, which is not this layer's.)
    let mut oracle = synth(8, 1, pattern, false);
    oracle.advance_to_cycle(cut);
    assert_eq!(oracle.parked_cores(), 0);
    let theirs = oracle.snapshot().expect("oracle snapshot");
    assert_eq!(snap.cores, theirs.cores);
    assert_eq!(snap.hierarchy, theirs.hierarchy);
    assert_eq!(snap.cycle_samples, theirs.cycle_samples);
    assert_eq!(snap.cycle_total, theirs.cycle_total);

    let mut resumed = synth(8, 1, pattern, true);
    resumed.restore(&snap).expect("same configuration");
    assert_eq!(resumed.parked_cores(), 0, "restored cores start awake");
    resumed.advance_to_cycle(end);
    sim.advance_to_cycle(end);
    let (resumed, original) = (resumed.report(), sim.report());
    assert_same(&resumed, &whole, "restored run");
    assert_same(&original, &whole, "snapshotted run");
}
