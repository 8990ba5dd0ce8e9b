//! One run driver, one report: every way of running a synthetic job must
//! produce the `SimReport::strip_perf()` a plain `run_synthetic` call does.
//!
//! `sim::jobs::run_job` is the loop behind CLI `synth`, every `sweep` grid
//! point and the `serve` workers. This file drives it the ways those
//! callers do — plain, with periodic checkpoints, cancelled from another
//! thread and resumed from its chain (saying where it resumed), and as a
//! campaign-backed supervised sweep with a panicking and a hanging
//! neighbour — and compares each report with the direct one.

mod common;

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

use dramstack::memctrl::{MappingScheme, PagePolicy};
use dramstack::obs::{BottleneckClass, WindowObservation};
use dramstack::sim::ckpt::load_latest;
use dramstack::sim::experiments::{run_synthetic, sweep_synthetic_supervised, synthetic_grid};
use dramstack::sim::parallel::{JobPulse, SupervisorConfig};
use dramstack::sim::{
    run_job, Campaign, JobCancel, JobCheckpoint, JobError, JobOptions, JobSpec, SimReport,
    Telemetry, TelemetrySink,
};
use dramstack::stacks::TimeSample;
use dramstack::workloads::SyntheticPattern;

use common::{on_disk_checkpoint_cycles, scratch_dir};

/// 60 µs is 72 000 DRAM cycles: three `run_job` slices, six sample windows.
const US: f64 = 60.0;
const STORES: f64 = 0.2;
const CORES: usize = 2;

/// The two specs every path is checked on, with the direct report of each.
fn specs() -> Vec<(JobSpec, SimReport)> {
    specs_for(CORES)
}

/// The `seq` and `rand` specs at `cores` cores, with their direct reports.
fn specs_for(cores: usize) -> Vec<(JobSpec, SimReport)> {
    [
        ("seq", SyntheticPattern::sequential(STORES)),
        ("rand", SyntheticPattern::random(STORES)),
    ]
    .into_iter()
    .map(|(name, pattern)| {
        let spec = JobSpec::synthetic(
            name,
            cores,
            STORES,
            US,
            PagePolicy::Open,
            MappingScheme::RowBankColumn,
        );
        let direct = run_synthetic(
            cores,
            pattern,
            PagePolicy::Open,
            MappingScheme::RowBankColumn,
            US,
        )
        .expect("paper config validates")
        .strip_perf();
        (spec, direct)
    })
    .collect()
}

fn run(spec: &JobSpec, cancel: &JobCancel, opts: JobOptions) -> Result<SimReport, JobError> {
    run_job(spec, &JobPulse::default(), cancel, opts)
}

fn checkpointed(dir: &std::path::Path, key: &str, every: u64, resume: bool) -> JobOptions {
    JobOptions {
        checkpoint: Some(JobCheckpoint {
            dir: dir.to_path_buf(),
            key: key.to_string(),
            every,
            resume,
        }),
        ..JobOptions::default()
    }
}

#[test]
fn plain_and_periodically_checkpointed_jobs_match_the_direct_run() {
    let dir = scratch_dir("run-paths-periodic");
    for (spec, direct) in specs() {
        let plain = run(&spec, &JobCancel::new(), JobOptions::default()).unwrap();
        assert_eq!(
            plain.strip_perf(),
            direct,
            "{}: plain run_job",
            spec.pattern
        );

        // 5 000 re-bases the chain mid-run; 30 000 falls between the
        // 24 000-cycle slice marks.
        for every in [5_000u64, 30_000] {
            let key = format!("{}-{every}", spec.pattern);
            let report = run(
                &spec,
                &JobCancel::new(),
                checkpointed(&dir, &key, every, false),
            )
            .unwrap();
            assert_eq!(
                report.strip_perf(),
                direct,
                "{key}: periodic checkpoints perturbed the run"
            );
            let cycles = on_disk_checkpoint_cycles(&dir, &key);
            assert!(cycles.len() >= 2, "{key}: chain on disk is {cycles:?}");
            for c in cycles {
                assert_eq!(c % every, 0, "{key}: checkpoint off-boundary at cycle {c}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A telemetry sink that stops the simulation thread inside one sample
/// window until the test's canceller thread has acted, so "cancelled from
/// another thread mid-run" happens at a known cycle, not at a lucky one.
struct Rendezvous {
    at_window: u64,
    reached: Sender<()>,
    resume: Receiver<()>,
}

impl TelemetrySink for Rendezvous {
    fn window(
        &mut self,
        index: u64,
        _sample: &TimeSample,
        _obs: &WindowObservation,
        _current: Option<BottleneckClass>,
    ) {
        if index == self.at_window {
            self.reached.send(()).expect("canceller is waiting");
            self.resume.recv().expect("canceller answers");
        }
    }
}

#[test]
fn a_job_cancelled_from_another_thread_resumes_from_its_chain_identically() {
    let dir = scratch_dir("run-paths-cancel");
    for (spec, direct) in specs() {
        // Periodic checkpoints off and on: the cancel checkpoint is the
        // chain's base in one case and a delta in the other.
        for every in [0u64, 20_000] {
            let key = format!("{}-{every}", spec.pattern);
            let (reached_tx, reached_rx) = channel();
            let (resume_tx, resume_rx) = channel();
            let cancel = JobCancel::new();
            let canceller = {
                let cancel = cancel.clone();
                std::thread::spawn(move || {
                    reached_rx.recv().expect("the run reaches window 2");
                    cancel.cancel();
                    resume_tx.send(()).expect("the run is waiting");
                })
            };
            let mut telemetry = Telemetry::default();
            // Window 2 closes at cycle 36 000, inside the second slice.
            telemetry.add_sink(Box::new(Rendezvous {
                at_window: 2,
                reached: reached_tx,
                resume: resume_rx,
            }));
            let err = run(
                &spec,
                &cancel,
                JobOptions {
                    telemetry: Some(telemetry),
                    ..checkpointed(&dir, &key, every, false)
                },
            )
            .unwrap_err();
            canceller.join().expect("canceller thread");
            let stopped_at = match err {
                JobError::Cancelled {
                    cycle,
                    checkpointed: true,
                } => cycle,
                other => panic!("{key}: expected a checkpointed cancel, got {other}"),
            };
            // Seen at the first poll after the cancel: the next slice
            // mark or checkpoint boundary past cycle 36 000.
            assert_eq!(
                stopped_at,
                if every == 0 { 48_000 } else { 40_000 },
                "{key}"
            );
            let on_disk = load_latest(&dir, &key).expect("cancel left a chain");
            assert_eq!(on_disk.snapshot.dram_cycle, stopped_at, "{key}");

            let resumed = run(
                &spec,
                &JobCancel::new(),
                checkpointed(&dir, &key, every, true),
            )
            .unwrap();
            assert_eq!(resumed.strip_perf(), direct, "{key}: resume diverged");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `(cycle, deltas)` a run told its `on_resume` about.
static RESUMED: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

fn record_resume(cycle: u64, deltas: u64) {
    RESUMED.lock().expect("not poisoned").push((cycle, deltas));
}

/// A resumed run says where it picked up — from the chain it decodes
/// once to restore — and a run with nothing to restore says nothing.
#[test]
fn a_resumed_job_reports_the_checkpoint_it_restored() {
    let dir = scratch_dir("run-paths-on-resume");
    let (spec, direct) = specs().remove(0);
    let with_hook = |key: &str| JobOptions {
        on_resume: Some(record_resume),
        ..checkpointed(&dir, key, 12_000, true)
    };
    // 40 µs is 48 000 cycles: a base at 12 000 and deltas at 24 000,
    // 36 000 and 48 000.
    let mut first_part = spec.clone();
    first_part.us = 40.0;
    run(
        &first_part,
        &JobCancel::new(),
        checkpointed(&dir, "k", 12_000, false),
    )
    .unwrap();
    let resumed = run(&spec, &JobCancel::new(), with_hook("k")).unwrap();
    assert_eq!(resumed.strip_perf(), direct, "resume diverged");
    run(&spec, &JobCancel::new(), with_hook("no-chain")).unwrap();
    assert_eq!(*RESUMED.lock().expect("not poisoned"), [(48_000, 3)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_campaign_sweep_salvages_around_a_panic_and_a_hang_and_resumes_from_the_manifest() {
    let dir = scratch_dir("run-paths-sweep");
    let campaign = Campaign::open(&dir).unwrap();
    let grid_over = |policies: &[PagePolicy]| {
        synthetic_grid(
            &[1, CORES],
            policies,
            &[MappingScheme::RowBankColumn],
            STORES,
            US,
        )
    };
    // Grid size: both patterns x every value of every axis.
    assert_eq!(grid_over(&[PagePolicy::Open, PagePolicy::Closed]).len(), 8);
    let grid = || grid_over(&[PagePolicy::Open]);
    // Grid order: seq 1c, seq 2c, rand 1c, rand 2c. The 1-core points
    // misbehave; the 2-core ones are the specs every other test checks.
    let mut chaos = grid();
    assert_eq!(chaos.len(), 4);
    chaos[0].inject_panic = true;
    chaos[2].inject_hang = true;
    // A healthy point beats once per slice, well inside five seconds even
    // on a loaded debug build; the hanging one never does.
    let sup = SupervisorConfig {
        stall_timeout: Some(Duration::from_secs(5)),
        ..SupervisorConfig::default()
    };
    let cancel = JobCancel::new();
    let sweep =
        sweep_synthetic_supervised(chaos, Some(&campaign), 30_000, false, &sup, &cancel).unwrap();
    // The watchdog abandoned the hanging thread; cancelling reclaims it.
    cancel.cancel();

    assert_eq!(sweep.failures.panicked.len(), 1, "{:?}", sweep.failures);
    assert_eq!(sweep.failures.panicked[0].0, 0);
    assert_eq!(sweep.failures.timed_out, vec![2]);
    assert!(sweep.errors.is_empty(), "{:?}", sweep.errors);
    assert!(!sweep.complete());
    assert_eq!(campaign.jobs_done(), 2, "only healthy points are recorded");
    let healthy = specs();
    for (idx, (spec, direct)) in [1usize, 3].into_iter().zip(&healthy) {
        let point = sweep.points[idx].as_ref().expect("healthy point survived");
        assert_eq!(point.pattern, spec.pattern);
        assert_eq!(point.cores, CORES);
        assert_eq!(&point.report.strip_perf(), direct, "grid point {idx}");
    }

    // Re-run with `resume`: the two recorded points come back from the
    // manifest untouched, the two lost ones now run.
    let reopened = Campaign::open(&dir).unwrap();
    let sweep = sweep_synthetic_supervised(
        grid(),
        Some(&reopened),
        30_000,
        true,
        &sup,
        &JobCancel::new(),
    )
    .unwrap();
    assert!(sweep.complete(), "{:?} {:?}", sweep.failures, sweep.errors);
    assert_eq!(sweep.skipped, 2);
    assert_eq!(reopened.jobs_done(), 4);
    // Every point, loaded from the manifest or run now, sits at its grid
    // position and equals the direct run.
    let one_core = specs_for(1);
    let expect = [&one_core[0], &healthy[0], &one_core[1], &healthy[1]];
    assert_eq!(sweep.points.len(), expect.len());
    for (point, (spec, direct)) in sweep.points.iter().zip(expect) {
        let point = point.as_ref().expect("complete sweep");
        assert_eq!(point.pattern, spec.pattern);
        assert_eq!(point.cores, spec.cores);
        assert_eq!(&point.report.strip_perf(), direct, "{}", spec.pattern);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_interrupted_sweep_records_nothing_done_and_keeps_the_deeper_chain() {
    let dir = scratch_dir("run-paths-interrupt");
    let campaign = Campaign::open(&dir).unwrap();
    let (grid, direct): (Vec<JobSpec>, Vec<SimReport>) = specs().into_iter().unzip();
    // Retries on: a cancelled point is a value, not a panic, so the
    // supervisor must not run it again from cycle 0 over its checkpoint.
    let sup = SupervisorConfig {
        max_retries: 1,
        ..SupervisorConfig::default()
    };
    let cancel = JobCancel::new();
    cancel.cancel(); // every point sees it at its first slice mark
    let sweep =
        sweep_synthetic_supervised(grid.clone(), Some(&campaign), 0, false, &sup, &cancel).unwrap();

    assert!(sweep.points.iter().all(Option::is_none));
    assert!(
        sweep.failures.none_lost() && sweep.failures.retried.is_empty(),
        "{:?}",
        sweep.failures
    );
    assert_eq!(sweep.errors.len(), grid.len());
    for (_, err) in &sweep.errors {
        assert!(
            matches!(
                err,
                JobError::Cancelled {
                    cycle: 24_000,
                    checkpointed: true
                }
            ),
            "{err}"
        );
    }
    assert_eq!(
        campaign.jobs_done(),
        0,
        "an interrupted point is never done"
    );
    for spec in &grid {
        let (key, _) = spec.identity().unwrap();
        let chain = load_latest(&dir, &key).expect("interrupted point left a chain");
        assert_eq!(chain.snapshot.dram_cycle, 24_000);
    }

    // The rerun continues every point from its chain and records it.
    let sweep = sweep_synthetic_supervised(grid, Some(&campaign), 0, true, &sup, &JobCancel::new())
        .unwrap();
    assert!(sweep.complete(), "{:?} {:?}", sweep.failures, sweep.errors);
    assert_eq!(sweep.skipped, 0);
    assert_eq!(campaign.jobs_done(), 2);
    for (point, direct) in sweep.points.iter().zip(&direct) {
        let point = point.as_ref().expect("resumed point finished");
        assert_eq!(&point.report.strip_perf(), direct);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
