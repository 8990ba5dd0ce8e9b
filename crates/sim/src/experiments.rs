//! Drivers for every experiment (figure) in the paper.
//!
//! Each function reproduces the configuration sweep behind one figure and
//! returns structured rows; the root package's `dramstack::figures`
//! renders them as tables/CSV/SVG. Sizes are parameterized by
//! [`ExperimentScale`]: full for `results/`, quick for tests.

use serde::{Deserialize, Serialize};

use dramstack_core::{predict_bandwidth_naive, predict_bandwidth_stack, LatencyStack};
use dramstack_dram::Cycle;
use dramstack_memctrl::{MappingScheme, PagePolicy};
use dramstack_workloads::{GapConfig, GapKernel, Graph, SyntheticPattern};

use crate::campaign::Campaign;
use crate::config::{ConfigError, SystemConfig};
use crate::jobs::{parse_mapping, parse_policy, run_job, JobCancel, JobError, JobOptions, JobSpec};
use crate::parallel;
use crate::report::SimReport;
use crate::system::Simulator;

/// Experiment sizing: simulated duration for synthetic steady-state runs
/// and graph size for the GAP kernels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Simulated microseconds per synthetic configuration.
    pub synth_us: f64,
    /// Kronecker graph scale (`2^scale` vertices).
    pub graph_scale: u32,
    /// Separate (smaller) scale for triangle counting, whose
    /// intersection work grows as `m^1.5`.
    pub tc_graph_scale: u32,
    /// Kronecker degree.
    pub graph_degree: u32,
    /// Safety cap on DRAM cycles for trace runs.
    pub max_cycles: Cycle,
    /// GAP kernel size knobs.
    pub gap: GapConfig,
}

impl ExperimentScale {
    /// Figure-regeneration size (what `dramstack-cli figures` writes to
    /// `results/`). The graph's ~5 MB footprint is several times the
    /// GAP-scaled 1 MB LLC, keeping the kernels memory-bound as in the
    /// paper.
    pub fn full() -> Self {
        ExperimentScale {
            synth_us: 250.0,
            graph_scale: 16,
            tc_graph_scale: 14,
            graph_degree: 16,
            max_cycles: 400_000_000,
            gap: GapConfig {
                pr_iterations: 2,
                ..GapConfig::default()
            },
        }
    }

    /// Small size for tests (the figure goldens in `tests/figures.rs`).
    pub fn quick() -> Self {
        ExperimentScale {
            synth_us: 25.0,
            graph_scale: 9,
            tc_graph_scale: 8,
            graph_degree: 8,
            max_cycles: 10_000_000,
            gap: GapConfig {
                pr_iterations: 2,
                ..GapConfig::default()
            },
        }
    }

    /// The evaluation graph for GAP runs.
    pub fn build_graph(&self) -> Graph {
        Graph::kronecker(self.graph_scale, self.graph_degree, GRAPH_SEED)
    }

    /// The (smaller) evaluation graph for triangle counting.
    fn build_tc_graph(&self) -> Graph {
        Graph::kronecker(self.tc_graph_scale, self.graph_degree, GRAPH_SEED)
    }

    /// The graph a given kernel is evaluated on.
    fn graph_for(&self, kernel: GapKernel) -> Graph {
        if kernel == GapKernel::Tc {
            self.build_tc_graph()
        } else {
            self.build_graph()
        }
    }
}

const GRAPH_SEED: u64 = 0x6A9_2022;

/// Runs one synthetic configuration.
///
/// # Errors
///
/// Returns a [`ConfigError`] (e.g. zero cores) instead of panicking —
/// experiment drivers are the user-facing entry points.
pub fn run_synthetic(
    cores: usize,
    pattern: SyntheticPattern,
    policy: PagePolicy,
    mapping: MappingScheme,
    us: f64,
) -> Result<SimReport, ConfigError> {
    let cfg = SystemConfig::paper_synthetic(cores, policy, mapping)?;
    Ok(Simulator::with_synthetic(cfg, pattern).run_for_us(us))
}

/// Runs one GAP kernel to completion.
///
/// # Errors
///
/// Returns a [`ConfigError`] for an invalid configuration.
#[allow(clippy::too_many_arguments)]
pub fn run_gap(
    kernel: GapKernel,
    graph: &Graph,
    cores: usize,
    policy: PagePolicy,
    mapping: MappingScheme,
    write_queue: usize,
    gap_cfg: &GapConfig,
    max_cycles: Cycle,
) -> Result<SimReport, ConfigError> {
    let mut cfg = SystemConfig::paper_gap(cores);
    cfg.ctrl.page_policy = policy;
    cfg.ctrl.mapping = mapping;
    cfg.ctrl = cfg.ctrl.with_write_queue(write_queue);
    // Finer sampling for the through-time figures (2 µs windows).
    cfg.sample_period = 2400;
    cfg.validate()?;
    let traces = kernel.trace(graph, cores, gap_cfg);
    Ok(Simulator::with_traces(cfg, traces).run_to_completion(max_cycles))
}

/// One bar of Figs. 2–4/6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthRow {
    /// Human-readable configuration label (e.g. `seq 4c`).
    pub label: String,
    /// Full simulation report (bandwidth + latency stacks inside).
    pub report: SimReport,
}

/// Fig. 2: read-only sequential/random, 1–8 cores.
///
/// # Errors
///
/// Returns the first [`ConfigError`] any run hit.
pub fn fig2(scale: &ExperimentScale) -> Result<Vec<SynthRow>, ConfigError> {
    let mut jobs = Vec::new();
    for (name, pattern) in [
        ("seq", SyntheticPattern::sequential(0.0)),
        ("rand", SyntheticPattern::random(0.0)),
    ] {
        for cores in [1usize, 2, 4, 8] {
            jobs.push((format!("{name} {cores}c"), cores, pattern));
        }
    }
    parallel::map(jobs, |(label, cores, pattern)| {
        run_synthetic(
            cores,
            pattern,
            PagePolicy::Open,
            MappingScheme::RowBankColumn,
            scale.synth_us,
        )
        .map(|report| SynthRow { label, report })
    })
    .into_iter()
    .collect()
}

/// Fig. 3: store fraction 0/10/20/50 % on one core.
///
/// # Errors
///
/// Returns the first [`ConfigError`] any run hit.
pub fn fig3(scale: &ExperimentScale) -> Result<Vec<SynthRow>, ConfigError> {
    let mut jobs = Vec::new();
    for name in ["seq", "rand"] {
        for pct in [0u32, 10, 20, 50] {
            let frac = f64::from(pct) / 100.0;
            let pattern = if name == "seq" {
                SyntheticPattern::sequential(frac)
            } else {
                SyntheticPattern::random(frac)
            };
            jobs.push((format!("{name} w{pct}"), pattern));
        }
    }
    parallel::map(jobs, |(label, pattern)| {
        run_synthetic(
            1,
            pattern,
            PagePolicy::Open,
            MappingScheme::RowBankColumn,
            scale.synth_us,
        )
        .map(|report| SynthRow { label, report })
    })
    .into_iter()
    .collect()
}

/// Fig. 4: open vs closed page policy, read-only, 2 cores.
///
/// # Errors
///
/// Returns the first [`ConfigError`] any run hit.
pub fn fig4(scale: &ExperimentScale) -> Result<Vec<SynthRow>, ConfigError> {
    let mut jobs = Vec::new();
    for (name, pattern) in [
        ("seq", SyntheticPattern::sequential(0.0)),
        ("rand", SyntheticPattern::random(0.0)),
    ] {
        for (pname, policy) in [("open", PagePolicy::Open), ("closed", PagePolicy::Closed)] {
            jobs.push((format!("{name} {pname}"), pattern, policy));
        }
    }
    parallel::map(jobs, |(label, pattern, policy)| {
        run_synthetic(
            2,
            pattern,
            policy,
            MappingScheme::RowBankColumn,
            scale.synth_us,
        )
        .map(|report| SynthRow { label, report })
    })
    .into_iter()
    .collect()
}

/// Fig. 6: default vs cache-line-interleaved indexing for the two
/// high-queueing cases.
///
/// # Errors
///
/// Returns the first [`ConfigError`] any run hit.
pub fn fig6(scale: &ExperimentScale) -> Result<Vec<SynthRow>, ConfigError> {
    let mut jobs = Vec::new();
    for (mname, mapping) in [
        ("def", MappingScheme::RowBankColumn),
        ("int", MappingScheme::CacheLineInterleaved),
    ] {
        // Case 1: sequential, 50 % stores, 1 core, open page.
        jobs.push((
            format!("seq w50 1c open {mname}"),
            1usize,
            SyntheticPattern::sequential(0.5),
            PagePolicy::Open,
            mapping,
        ));
        // Case 2: sequential, read-only, 2 cores, closed page.
        jobs.push((
            format!("seq w0 2c closed {mname}"),
            2usize,
            SyntheticPattern::sequential(0.0),
            PagePolicy::Closed,
            mapping,
        ));
    }
    parallel::map(jobs, |(label, cores, pattern, policy, mapping)| {
        run_synthetic(cores, pattern, policy, mapping, scale.synth_us)
            .map(|report| SynthRow { label, report })
    })
    .into_iter()
    .collect()
}

/// Fig. 7: through-time cycle/bandwidth/latency stacks for bfs on 8 cores
/// (closed page, as the paper uses for GAP).
///
/// # Errors
///
/// Returns a [`ConfigError`] for an invalid configuration.
pub fn fig7(scale: &ExperimentScale) -> Result<SimReport, ConfigError> {
    let g = scale.build_graph();
    run_gap(
        GapKernel::Bfs,
        &g,
        8,
        PagePolicy::Closed,
        MappingScheme::RowBankColumn,
        32,
        &scale.gap,
        scale.max_cycles,
    )
}

/// One bar of Fig. 8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Configuration label (e.g. `bfs 8c closed def`).
    pub label: String,
    /// Aggregate latency stack.
    pub latency: LatencyStack,
    /// Achieved bandwidth (context for the latency numbers).
    pub achieved_gbps: f64,
    /// Read row-hit rate (the paper quotes 41 % vs 8 % for bfs def/int).
    pub page_hit_rate: f64,
}

/// Fig. 8: latency stacks for bfs 8c (default / interleaved / 128-entry
/// write queue) and tc 1c (default / interleaved, closed page; plus the
/// open-page variant the text mentions).
///
/// # Errors
///
/// Returns the first [`ConfigError`] any run hit.
pub fn fig8(scale: &ExperimentScale) -> Result<Vec<Fig8Row>, ConfigError> {
    let g = scale.build_graph();
    let g_tc = scale.build_tc_graph();
    type Job = (
        &'static str,
        GapKernel,
        usize,
        PagePolicy,
        MappingScheme,
        usize,
    );
    let jobs: Vec<Job> = vec![
        (
            "bfs 8c closed def",
            GapKernel::Bfs,
            8,
            PagePolicy::Closed,
            MappingScheme::RowBankColumn,
            32,
        ),
        (
            "bfs 8c closed int",
            GapKernel::Bfs,
            8,
            PagePolicy::Closed,
            MappingScheme::CacheLineInterleaved,
            32,
        ),
        (
            "bfs 8c closed wq128",
            GapKernel::Bfs,
            8,
            PagePolicy::Closed,
            MappingScheme::RowBankColumn,
            128,
        ),
        (
            "tc 1c closed def",
            GapKernel::Tc,
            1,
            PagePolicy::Closed,
            MappingScheme::RowBankColumn,
            32,
        ),
        (
            "tc 1c closed int",
            GapKernel::Tc,
            1,
            PagePolicy::Closed,
            MappingScheme::CacheLineInterleaved,
            32,
        ),
        (
            "tc 1c open def",
            GapKernel::Tc,
            1,
            PagePolicy::Open,
            MappingScheme::RowBankColumn,
            32,
        ),
    ];
    parallel::map(jobs, |(label, kernel, cores, policy, mapping, wq)| {
        let graph = if kernel == GapKernel::Tc { &g_tc } else { &g };
        run_gap(
            kernel,
            graph,
            cores,
            policy,
            mapping,
            wq,
            &scale.gap,
            scale.max_cycles,
        )
        .map(|r| Fig8Row {
            label: label.to_string(),
            latency: r.latency_stack,
            achieved_gbps: r.achieved_gbps(),
            page_hit_rate: r.ctrl_stats.page_hit_rate(),
        })
    })
    .into_iter()
    .collect()
}

/// One point of a configuration sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Pattern name (`seq`/`rand`).
    pub pattern: String,
    /// Core count.
    pub cores: usize,
    /// Page policy.
    pub policy: PagePolicy,
    /// Address mapping.
    pub mapping: MappingScheme,
    /// The run's report.
    pub report: SimReport,
}

/// The grid behind "which configuration is best for this workload?"
/// questions, one [`JobSpec`] per point: both patterns × cores × policies
/// × mappings, in that nesting order. A caller can mark points before
/// handing the grid to [`sweep_synthetic_supervised`] (e.g. set
/// `inject_panic` on one to prove salvage end to end).
pub fn synthetic_grid(
    cores: &[usize],
    policies: &[PagePolicy],
    mappings: &[MappingScheme],
    store_fraction: f64,
    us: f64,
) -> Vec<JobSpec> {
    let mut grid = Vec::new();
    for pattern in ["seq", "rand"] {
        for &n in cores {
            for &policy in policies {
                for &mapping in mappings {
                    grid.push(JobSpec::synthetic(
                        pattern,
                        n,
                        store_fraction,
                        us,
                        policy,
                        mapping,
                    ));
                }
            }
        }
    }
    grid
}

/// Outcome of a supervised, optionally campaign-backed sweep.
#[derive(Debug)]
pub struct SupervisedSweep {
    /// One slot per grid point in input order; `None` where the job
    /// produced no report.
    pub points: Vec<Option<SweepPoint>>,
    /// Grid points loaded from the campaign manifest instead of re-run.
    pub skipped: usize,
    /// Points lost to a panic or a watchdog kill, and points that needed
    /// a retry (indices are grid input-order positions).
    pub failures: parallel::SweepFailures,
    /// Points whose run returned a typed error — cancelled, over its
    /// deadline, checkpoint I/O — by grid index. Never recorded done.
    pub errors: Vec<(usize, JobError)>,
}

impl SupervisedSweep {
    /// True when every grid point has a report.
    pub fn complete(&self) -> bool {
        self.failures.none_lost() && self.errors.is_empty()
    }
}

/// Runs a [`synthetic_grid`], hardened for long campaigns: every point is
/// one [`run_job`] call under [`parallel::supervised_map`] (panic
/// isolation, watchdog, bounded retry), all sharing `cancel`. With a
/// [`Campaign`] attached the sweep becomes resumable — with `resume` set,
/// finished points are loaded from the manifest instead of re-run and
/// interrupted points continue from their latest checkpoint; either way,
/// in-flight points checkpoint every `every` cycles (`0` = only when
/// cancelled) and completions are recorded incrementally.
///
/// Never panics and never loses healthy results: the returned
/// [`SupervisedSweep`] carries every completed point in input order plus
/// typed failure reports for the rest.
///
/// # Errors
///
/// The grid is validated before any fan-out: a point that does not
/// resolve (e.g. zero cores) is a [`JobError::Spec`].
pub fn sweep_synthetic_supervised(
    grid: Vec<JobSpec>,
    campaign: Option<&Campaign>,
    every: Cycle,
    resume: bool,
    sup: &parallel::SupervisorConfig,
    cancel: &JobCancel,
) -> Result<SupervisedSweep, JobError> {
    let mut jobs = Vec::with_capacity(grid.len());
    for spec in grid {
        let (key, _) = spec.identity().map_err(JobError::Spec)?;
        let recorded = match campaign {
            Some(c) if resume => c.load_report(&key).ok().flatten(),
            _ => None,
        };
        jobs.push((spec, recorded));
    }
    let skipped = jobs
        .iter()
        .filter(|(_, recorded)| recorded.is_some())
        .count();

    let campaign = campaign.cloned();
    let cancel = cancel.clone();
    let run = move |pulse: parallel::JobPulse, (spec, recorded): (JobSpec, Option<SimReport>)| {
        let opts = JobOptions::default();
        let report = match (recorded, &campaign) {
            (Some(report), _) => report,
            (None, Some(c)) => c.run_job(&spec, every, resume, &pulse, &cancel, opts)?,
            (None, None) => run_job(&spec, &pulse, &cancel, opts)?,
        };
        Ok(SweepPoint {
            policy: parse_policy(&spec.policy).map_err(JobError::Spec)?,
            mapping: parse_mapping(&spec.mapping).map_err(JobError::Spec)?,
            pattern: spec.pattern,
            cores: spec.cores,
            report,
        })
    };
    let (results, failures) = parallel::supervised_map(jobs, sup, run).salvage();

    let mut errors = Vec::new();
    let points = results
        .into_iter()
        .enumerate()
        .map(|(grid_idx, result)| match result? {
            Ok(point) => Some(point),
            Err(e) => {
                errors.push((grid_idx, e));
                None
            }
        })
        .collect();
    Ok(SupervisedSweep {
        points,
        skipped,
        failures,
        errors,
    })
}

/// One bar group of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig9Row {
    /// Kernel.
    pub kernel: GapKernel,
    /// Measured 8-core bandwidth (GB/s).
    pub measured_8c: f64,
    /// Naive 1c→8c prediction (GB/s).
    pub naive: f64,
    /// Stack-based 1c→8c prediction (GB/s).
    pub stack: f64,
}

impl Fig9Row {
    /// Relative error of the naive prediction.
    pub fn naive_error(&self) -> f64 {
        (self.naive - self.measured_8c).abs() / self.measured_8c
    }

    /// Relative error of the stack-based prediction.
    pub fn stack_error(&self) -> f64 {
        (self.stack - self.measured_8c).abs() / self.measured_8c
    }
}

/// Fig. 9: measured vs extrapolated 8-core bandwidth for the GAP kernels.
/// (tc runs with the open policy, the others closed, per Section VIII.)
///
/// # Errors
///
/// Returns the first [`ConfigError`] any run hit.
pub fn fig9(scale: &ExperimentScale) -> Result<Vec<Fig9Row>, ConfigError> {
    parallel::map(GapKernel::ALL.to_vec(), |k| fig9_kernel(k, scale))
        .into_iter()
        .collect()
}

/// One kernel of Fig. 9 (usable alone for quick checks).
///
/// # Errors
///
/// Returns a [`ConfigError`] for an invalid configuration.
pub fn fig9_kernel(kernel: GapKernel, scale: &ExperimentScale) -> Result<Fig9Row, ConfigError> {
    let g = scale.graph_for(kernel);
    let policy = if kernel == GapKernel::Tc {
        PagePolicy::Open
    } else {
        PagePolicy::Closed
    };
    let mut reports = parallel::map(vec![1usize, 8], |cores| {
        run_gap(
            kernel,
            &g,
            cores,
            policy,
            MappingScheme::RowBankColumn,
            32,
            &scale.gap,
            scale.max_cycles,
        )
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let eight = reports.pop().expect("8-core run");
    let one = reports.pop().expect("1-core run");
    let samples: Vec<_> = one.samples.iter().map(|s| s.bandwidth.clone()).collect();
    Ok(Fig9Row {
        kernel,
        measured_8c: eight.achieved_gbps(),
        naive: predict_bandwidth_naive(&samples, 8.0),
        stack: predict_bandwidth_stack(&samples, 8.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramstack_core::BwComponent;

    #[test]
    fn fig2_shapes_hold_at_quick_scale() {
        let scale = ExperimentScale::quick();
        let rows = fig2(&scale).unwrap();
        assert_eq!(rows.len(), 8);
        let bw = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .unwrap()
                .report
                .achieved_gbps()
        };
        // Sequential beats random at every core count.
        for c in [1, 2, 4, 8] {
            assert!(
                bw(&format!("seq {c}c")) > bw(&format!("rand {c}c")),
                "seq vs rand at {c} cores"
            );
        }
        // Bandwidth grows with cores.
        assert!(bw("seq 4c") > 1.5 * bw("seq 1c"));
        assert!(bw("rand 8c") > bw("rand 1c"));
    }

    #[test]
    fn fig9_single_kernel_predictions_are_sane() {
        let scale = ExperimentScale::quick();
        let row = fig9_kernel(GapKernel::Cc, &scale).unwrap();
        assert!(row.measured_8c > 0.0);
        assert!(row.naive > 0.0);
        assert!(row.stack > 0.0);
        assert!(
            row.stack <= row.naive + 1e-9,
            "stack prediction never exceeds naive"
        );
    }

    #[test]
    fn invalid_configurations_fail_fast_with_typed_errors() {
        // A zero-core sweep axis is rejected before any worker spawns.
        let grid = synthetic_grid(
            &[0],
            &[PagePolicy::Open],
            &[MappingScheme::RowBankColumn],
            0.0,
            1.0,
        );
        let e = sweep_synthetic_supervised(
            grid,
            None,
            0,
            false,
            &parallel::SupervisorConfig::default(),
            &JobCancel::new(),
        )
        .unwrap_err();
        assert!(matches!(e, JobError::Spec(_)), "{e}");
        assert!(run_synthetic(
            0,
            SyntheticPattern::sequential(0.0),
            PagePolicy::Open,
            MappingScheme::RowBankColumn,
            1.0,
        )
        .is_err());
    }

    #[test]
    fn random_pattern_has_preact_component() {
        let scale = ExperimentScale::quick();
        let r = run_synthetic(
            1,
            SyntheticPattern::random(0.0),
            PagePolicy::Open,
            MappingScheme::RowBankColumn,
            scale.synth_us,
        )
        .unwrap();
        let preact = r.bandwidth_stack.gbps(BwComponent::Precharge)
            + r.bandwidth_stack.gbps(BwComponent::Activate);
        assert!(preact > 0.1, "random pattern must show pre/act: {preact}");
        // Sequential has essentially none.
        let s = run_synthetic(
            1,
            SyntheticPattern::sequential(0.0),
            PagePolicy::Open,
            MappingScheme::RowBankColumn,
            scale.synth_us,
        )
        .unwrap();
        let s_preact = s.bandwidth_stack.gbps(BwComponent::Precharge)
            + s.bandwidth_stack.gbps(BwComponent::Activate);
        assert!(s_preact < preact, "seq {s_preact} < rand {preact}");
        assert!(s.ctrl_stats.read_hit_rate() > 0.9, "sequential page hits");
    }
}
