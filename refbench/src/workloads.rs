//! The six workloads: what each generates from the seed, how it is driven,
//! and what makes one of its runs correct.
//!
//! The simulator only ever sees the generated inputs; the seed stays here.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use dramstack::cpu::Instr;
use dramstack::dram::Cycle;
use dramstack::sim::{CheckpointChain, SimReport, Simulator, SnapshotFormat, SystemConfig};
use dramstack::stacks::BwComponent;
use dramstack::viz::ascii;
use dramstack::workloads::{GapConfig, GapKernel, Graph, SyntheticPattern, TraceBuilder};

use crate::env;
use crate::spans::Recorder;

/// Cycles per `advance_to_cycle` slice where most cycles are stepped: the
/// slice `sim::jobs::run_job` uses.
pub const SLICE_CYCLES: Cycle = 24_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamRd8c,
    RandRw8c,
    Chase1c,
    GapPr8c,
    CkptStream2c,
    ServeClosed2c,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::StreamRd8c,
        Workload::RandRw8c,
        Workload::Chase1c,
        Workload::GapPr8c,
        Workload::CkptStream2c,
        Workload::ServeClosed2c,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamRd8c => "stream_rd_8c",
            Workload::RandRw8c => "rand_rw_8c",
            Workload::Chase1c => "chase_1c",
            Workload::GapPr8c => "gap_pr_8c",
            Workload::CkptStream2c => "ckpt_stream_2c",
            Workload::ServeClosed2c => "serve_closed_2c",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it loads and which it bypasses
    /// (the `why` of `BENCHMARK.json`, at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::StreamRd8c => {
                "Saturated row-hit streaming on 8 cores: every cycle is stepped, so memctrl FR-FCFS, dram CAS queries and 16 core ticks per DRAM cycle do the work; skip engines, workloads and serve do none."
            }
            Workload::RandRw8c => {
                "Random reads and stores on 8 cores: the same memctrl/dram/core layers used differently (row conflicts, ACT/PRE, tFAW/tRRD, write drains), so a row-hit gain that costs the conflict path shows."
            }
            Workload::Chase1c => {
                "400000 dependent loads on one core: latency-bound, the stall-horizon skip machinery does the work and the per-cycle controller path little; per-cycle optimisations predict no change here."
            }
            Workload::GapPr8c => {
                "PageRank on a Kronecker graph, 8 cores, 2 us windows: the paper's application path; workloads works in set-up, the hierarchy sees real cache hits, barriers make phases, 5x more windows roll."
            }
            Workload::CkptStream2c => {
                "2 cores streaming with 0.3 stores through the production CheckpointChain (binary deltas, background writer), 12 checkpoints: the only workload where sim::ckpt, snapshot and binary matter."
            }
            Workload::ServeClosed2c => {
                "In-process serve daemon, closed loop of 2 clients x 10 short jobs per round over HTTP: accept, parse, queue wait, per-job Simulator construction, report serialisation; core speed-ups change little."
            }
        }
    }
}

/// Full size, or about 1/50 of it for `smoke` and the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Where a simulator's instructions come from.
#[derive(Debug, Clone)]
pub enum Source {
    Synthetic(SyntheticPattern),
    Traces(Vec<Vec<Instr>>),
}

/// How a constructed simulator is driven to its end. Every drive advances
/// in slices of `Inputs::slice` cycles with `advance_to_cycle`, the way
/// `sim::jobs::run_job` does (slicing is known not to change results), so
/// that each slice can be timed on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// A fixed horizon.
    ForCycles(Cycle),
    /// Slice by slice until every trace has finished, or `max` cycles.
    ToCompletion { max: Cycle },
    /// A fixed horizon with a production checkpoint every `every` cycles.
    Checkpointed { end: Cycle, every: Cycle },
}

/// The generated inputs of one simulator workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub cfg: SystemConfig,
    pub source: Source,
    pub drive: Drive,
    /// Cycles per `advance_to_cycle` slice: about 20 ms of host time.
    pub slice: Cycle,
    /// Instructions in pre-generated traces (0 for endless synthetic streams).
    pub trace_instrs: u64,
}

fn synthetic(cores: usize, mut pattern: SyntheticPattern, seed: u64, us: f64) -> Inputs {
    pattern.seed = seed;
    let cfg = SystemConfig::paper_default(cores);
    Inputs {
        drive: Drive::ForCycles(cfg.us_to_cycles(us)),
        slice: SLICE_CYCLES,
        cfg,
        source: Source::Synthetic(pattern),
        trace_instrs: 0,
    }
}

/// Generates the inputs of a simulator workload from `seed`.
///
/// # Panics
///
/// Panics on [`Workload::ServeClosed2c`], whose inputs are job specs (see
/// `serve_load`).
pub fn generate(w: Workload, seed: u64, scale: Scale, rec: &mut Recorder) -> Inputs {
    rec.span("workloads.generate", |rec| match w {
        Workload::StreamRd8c => synthetic(
            8,
            SyntheticPattern::sequential(0.0),
            seed,
            scale.pick(1000.0, 20.0),
        ),
        Workload::RandRw8c => synthetic(
            8,
            SyntheticPattern::random(0.5),
            seed,
            scale.pick(1000.0, 20.0),
        ),
        Workload::Chase1c => {
            // The shape of `workloads::pointer_chase_trace`, started at a
            // seed-chosen row so seeds differ in their bank sequence.
            let (footprint, stride) = (256u64 << 20, 8192u64);
            let loads = scale.pick(400_000u64, 8_000);
            let traces = rec.span("workloads.trace_build", |_| {
                let mut t = TraceBuilder::new(1);
                let mut pos =
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (footprint / stride) * stride;
                for _ in 0..loads {
                    t.chain_load(0, 0x4000_0000 + pos, 0);
                    pos = (pos + stride) % footprint;
                }
                t.into_traces()
            });
            Inputs {
                cfg: SystemConfig::paper_default(1),
                source: Source::Traces(traces),
                drive: Drive::ToCompletion { max: 200_000_000 },
                // Mostly skipped cycles: twenty times the usual slice takes
                // the usual 20 ms.
                slice: scale.pick(20 * SLICE_CYCLES, SLICE_CYCLES),
                trace_instrs: loads,
            }
        }
        Workload::GapPr8c => {
            let graph = rec.span("workloads.graph_build", |_| {
                Graph::kronecker(scale.pick(14, 9), 16, seed)
            });
            let traces = rec.span("workloads.trace_build", |_| {
                GapKernel::Pr.trace(&graph, 8, &GapConfig::default())
            });
            let mut cfg = SystemConfig::paper_gap(8);
            cfg.sample_period = cfg.us_to_cycles(2.0);
            Inputs {
                trace_instrs: traces.iter().map(|t| t.len() as u64).sum(),
                cfg,
                source: Source::Traces(traces),
                drive: Drive::ToCompletion { max: 200_000_000 },
                slice: SLICE_CYCLES,
            }
        }
        Workload::CkptStream2c => {
            let mut inputs = synthetic(
                2,
                SyntheticPattern::sequential(0.3),
                seed,
                scale.pick(2000.0, 40.0),
            );
            let Drive::ForCycles(end) = inputs.drive else {
                unreachable!("synthetic inputs have a fixed horizon")
            };
            inputs.drive = Drive::Checkpointed {
                end,
                every: end / 12,
            };
            inputs
        }
        Workload::ServeClosed2c => panic!("serve_closed_2c has job specs, not simulator inputs"),
    })
}

/// Builds the simulator (cache warm-up included), consuming the source.
pub fn construct(cfg: SystemConfig, source: Source, rec: &mut Recorder) -> Simulator {
    rec.span("sim.construct", |_| match source {
        Source::Synthetic(pattern) => Simulator::with_synthetic(cfg, pattern),
        Source::Traces(traces) => Simulator::with_traces(cfg, traces),
    })
}

/// What the checkpoint chain of one run did.
#[derive(Debug, Default)]
pub struct CkptOutcome {
    pub count: u64,
    pub bytes: u64,
    /// A base file and at least one delta file were on disk at the end.
    pub chain_on_disk: bool,
}

/// What a user of the CLI holds when a run is over.
#[derive(Debug)]
pub struct Outputs {
    pub report: SimReport,
    pub json: String,
    pub ascii: String,
    pub ckpt: CkptOutcome,
    /// `(wall, cpu)` seconds of each consecutive segment of the drive: every
    /// slice, every checkpoint, the report, its JSON, the ASCII stacks.
    /// The same inputs give the same segments in every round, so the
    /// harness can take each segment's quietest round.
    pub segments: Vec<(f64, f64)>,
}

/// Times consecutive segments: two clock reads and one `getrusage` per
/// segment of about 20 ms.
#[derive(Debug)]
struct Segments {
    last: (Instant, f64),
    spent: Vec<(f64, f64)>,
}

impl Segments {
    fn start() -> Segments {
        Segments {
            last: (Instant::now(), env::cpu_seconds()),
            spent: Vec::new(),
        }
    }

    /// Ends the running segment and starts the next.
    fn mark(&mut self) {
        let now = (Instant::now(), env::cpu_seconds());
        let wall = now.0.duration_since(self.last.0).as_secs_f64();
        self.spent.push((wall, now.1 - self.last.1));
        self.last = now;
    }
}

/// A scratch directory removed when dropped, harness panic included.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(label: &str) -> std::io::Result<TempDir> {
        let dir = env::scratch_dir()
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sums, over the segments of a drive, each segment's least wall and least
/// CPU seconds in any of `rounds`: the floor a quiet machine would give.
/// The co-tenant bursts that slow this simulator last a fraction of a
/// second, so in a busy phase no whole round of a second escapes them, but
/// nearly every 20 ms segment does in some round: over sets of ten rounds in
/// such a phase the best whole round moved by 18 %, this sum by 6 %. `None`
/// when there are no segments or the rounds disagree on their number.
pub fn segment_floor(rounds: &[&[(f64, f64)]]) -> Option<(f64, f64)> {
    let n = rounds.first()?.len();
    if n == 0 || rounds.iter().any(|r| r.len() != n) {
        return None;
    }
    let floor = |pick: fn(&(f64, f64)) -> f64| -> f64 {
        (0..n)
            .map(|i| {
                rounds
                    .iter()
                    .map(|r| pick(&r[i]))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    Some((floor(|s| s.0), floor(|s| s.1)))
}

/// One slice: to `end`, or `slice` cycles on, whichever is nearer.
fn advance_slice(
    sim: &mut Simulator,
    end: Cycle,
    slice: Cycle,
    rec: &mut Recorder,
    seg: &mut Segments,
) {
    let target = end.min(sim.now() + slice);
    rec.span("sim.advance", |_| sim.advance_to_cycle(target));
    seg.mark();
}

const CKPT_KEY: &str = "bench";

/// Drives `sim` to its end in slices of `slice` cycles and renders what the
/// CLI would print: the report, its JSON and the ASCII stacks.
///
/// # Errors
///
/// A checkpoint that could not be taken or written.
pub fn drive(
    sim: &mut Simulator,
    how: Drive,
    slice: Cycle,
    rec: &mut Recorder,
) -> Result<Outputs, String> {
    let mut ckpt = CkptOutcome::default();
    let mut seg = Segments::start();
    match how {
        Drive::ForCycles(cycles) => {
            let end = sim.now() + cycles;
            while sim.now() < end {
                advance_slice(sim, end, slice, rec, &mut seg);
            }
        }
        Drive::ToCompletion { max } => {
            // Stops at the first slice boundary past the last instruction.
            while !sim.finished() && sim.now() < max {
                advance_slice(sim, max, slice, rec, &mut seg);
            }
        }
        Drive::Checkpointed { end, every } => {
            let dir = TempDir::create("ckpt").map_err(|e| format!("checkpoint dir: {e}"))?;
            let mut chain =
                CheckpointChain::create(dir.path(), CKPT_KEY, SnapshotFormat::Binary, true)
                    .map_err(|e| format!("checkpoint chain: {e}"))?;
            let mut next = every;
            while sim.now() < end {
                advance_slice(sim, end.min(next), slice, rec, &mut seg);
                if sim.now() == next {
                    let bytes = rec
                        .span("sim.checkpoint", |_| chain.checkpoint(sim))
                        .map_err(|e| format!("checkpoint at cycle {next}: {e}"))?;
                    seg.mark();
                    ckpt.count += 1;
                    ckpt.bytes += bytes as u64;
                    next += every;
                }
            }
            rec.span("sim.ckpt_finish", |_| chain.finish())
                .map_err(|e| format!("checkpoint writer: {e}"))?;
            seg.mark();
            let on_disk = |suffix: &str| {
                dir.path()
                    .join(format!("ckpt-{CKPT_KEY}.{suffix}.dsnp"))
                    .exists()
            };
            ckpt.chain_on_disk = on_disk("base") && on_disk("d1");
        }
    }
    let report = rec.span("sim.report", |_| sim.report());
    seg.mark();
    let json = rec
        .span("sim.to_json", |_| report.to_json())
        .map_err(|e| format!("report JSON: {e}"))?;
    seg.mark();
    let ascii = rec.span("viz.render", |_| {
        let mut out =
            ascii::bandwidth_chart(&[("run".to_string(), report.bandwidth_stack.clone())]);
        out.push_str(&ascii::latency_chart(&[(
            "run".to_string(),
            report.latency_stack,
        )]));
        out
    });
    seg.mark();
    Ok(Outputs {
        report,
        json,
        ascii,
        ckpt,
        segments: seg.spent,
    })
}

/// FNV-1a of `bytes` as 16 hex digits: the digest two commits compare.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of everything in a report but the host-time profile.
pub fn report_digest(report: &SimReport) -> String {
    let json = report.strip_perf().to_json().unwrap_or_default();
    digest(json.as_bytes())
}

/// Refresh share of peak the DDR arithmetic predicts: tRFC / tREFI.
pub fn refresh_closed_form(cfg: &SystemConfig) -> f64 {
    let t = &cfg.ctrl.device.timing;
    t.t_rfc as f64 / t.t_refi as f64
}

/// The refresh oracle applies from this many refresh intervals on; below
/// it the whole-interval rounding alone exceeds the 2 % tolerance.
const REFRESH_ORACLE_MIN_INTERVALS: u64 = 50;

/// Percent by which the refresh component misses [`refresh_closed_form`],
/// or `None` for runs too short for the oracle to apply.
pub fn refresh_oracle_err_pct(cfg: &SystemConfig, report: &SimReport) -> Option<f64> {
    let intervals = report.sim_cycles / cfg.ctrl.device.timing.t_refi;
    (intervals >= REFRESH_ORACLE_MIN_INTERVALS).then(|| {
        let want = refresh_closed_form(cfg);
        let got = report.bandwidth_stack.fraction(BwComponent::Refresh);
        (got - want).abs() / want * 100.0
    })
}

/// Largest conservation error of a report: bandwidth components against the
/// peak (whole run and every window, as a share of peak) and the latency
/// stack against the exact mean of the read-latency histogram (as a share
/// of the mean).
///
/// A read that completes in the last cycle of a run ending on a window
/// boundary is in the histogram but in no window (seen on the 20 us serve
/// jobs); the latency comparison allows for what such reads can shift.
pub fn conservation_err(cfg: &SystemConfig, report: &SimReport) -> f64 {
    let bw = &report.bandwidth_stack;
    let mut err = (bw.total_gbps() - bw.peak_gbps()).abs() / bw.peak_gbps();
    for s in &report.samples {
        if s.bandwidth.total_cycles > 0 {
            let share: f64 = BwComponent::ALL
                .iter()
                .map(|&c| s.bandwidth.fraction(c))
                .sum();
            err = err.max((share - 1.0).abs());
        }
    }
    let hist = &report.latency_histogram;
    let mean_ns = hist.mean() * cfg.dram_cycle_ns();
    if mean_ns > 0.0 {
        let outside = hist.count().saturating_sub(report.latency_stack.reads);
        let slack_ns =
            outside as f64 * hist.max() as f64 * cfg.dram_cycle_ns() / hist.count() as f64;
        let off_ns = (report.latency_stack.total_ns() - mean_ns).abs();
        err = err.max((off_ns - slack_ns).max(0.0) / mean_ns);
    }
    err
}

/// Every reason a report is not a correct result of running `cfg` (empty
/// when it is): conservation, at least one read, the horizon `end` reached
/// (when there is one), and the refresh oracle.
pub fn check_report(cfg: &SystemConfig, end: Option<Cycle>, report: &SimReport) -> Vec<String> {
    let mut failures = Vec::new();
    let err = conservation_err(cfg, report);
    if err.is_nan() || err > 1e-6 {
        failures.push(format!("stack components miss their total by {err:e}"));
    }
    if report.ctrl_stats.reads_done == 0 || report.latency_stack.reads == 0 {
        failures.push("no read completed".to_string());
    }
    if let Some(end) = end.filter(|&end| report.sim_cycles != end) {
        failures.push(format!(
            "stopped at cycle {}, horizon {end}",
            report.sim_cycles
        ));
    }
    if let Some(pct) = refresh_oracle_err_pct(cfg, report).filter(|&pct| pct > 2.0) {
        failures.push(format!(
            "refresh component is {pct:.2} % off tRFC/tREFI x peak"
        ));
    }
    failures
}

/// Every reason the outputs of one simulator run are not correct.
pub fn check_outputs(
    cfg: &SystemConfig,
    how: Drive,
    sim: &Simulator,
    out: &Outputs,
) -> Vec<String> {
    let end = match how {
        Drive::ForCycles(end) | Drive::Checkpointed { end, .. } => Some(end),
        Drive::ToCompletion { .. } => None,
    };
    let mut failures = check_report(cfg, end, &out.report);
    if let Drive::ToCompletion { max } = how {
        if !sim.finished() {
            failures.push(format!("traces not finished within {max} cycles"));
        }
    }
    if matches!(how, Drive::Checkpointed { .. }) && !out.ckpt.chain_on_disk {
        failures.push("no base and delta checkpoint file was written".to_string());
    }
    match serde_json::from_str::<SimReport>(&out.json) {
        Ok(back) if back == out.report => {}
        Ok(_) => failures.push("report JSON does not round-trip".to_string()),
        Err(e) => failures.push(format!("report JSON does not parse: {e}")),
    }
    if out.ascii.is_empty() {
        failures.push("ASCII stacks are empty".to_string());
    }
    failures
}

/// One round of one workload: what a child process reports to the harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundResult {
    pub workload: String,
    pub seed: u64,
    /// Process start (entry of `main`) to first simulated cycle, host
    /// seconds; on serve, to `/readyz` ready and one warm-up job per spec.
    pub setup_s: f64,
    /// First simulated cycle to report JSON and ASCII stacks in memory,
    /// host seconds; on serve, first submission to last report read.
    pub wall_s: f64,
    /// User + system CPU seconds from process start to the end of `wall_s`.
    pub cpu_s: f64,
    /// `VmHWM` at the end of `wall_s`, MB.
    pub peak_rss_mb: f64,
    /// Simulated DRAM cycles (summed over jobs on serve).
    pub sim_cycles: u64,
    /// Simulated requests: `reads_done + writes_done`.
    pub requests: u64,
    /// Digest of the `strip_perf()` report(s).
    pub digest: String,
    /// Exact simulated counts, compared between rounds and commits.
    pub counts: Vec<(String, u64)>,
    /// Simulated statistics (GB/s, ns, IPC), printed, never bounded.
    pub sim_stats: Vec<(String, f64)>,
    /// Operations attempted and failed: the round itself, or serve jobs.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per-job latencies in ms (serve only), in completion order.
    pub job_latencies_ms: Vec<f64>,
    /// `(wall, cpu)` seconds of each segment of `wall_s` (simulator
    /// workloads only; see [`Outputs::segments`]).
    pub segments: Vec<(f64, f64)>,
}

impl RoundResult {
    /// A round that could not be measured at all (child crash, timeout).
    pub fn lost(w: Workload, seed: u64, why: String) -> RoundResult {
        RoundResult {
            workload: w.name().to_string(),
            seed,
            setup_s: 0.0,
            wall_s: 0.0,
            cpu_s: 0.0,
            peak_rss_mb: 0.0,
            sim_cycles: 0,
            requests: 0,
            digest: String::new(),
            counts: Vec::new(),
            sim_stats: Vec::new(),
            attempted: 1,
            failed: 1,
            failures: vec![why],
            job_latencies_ms: Vec::new(),
            segments: Vec::new(),
        }
    }

    /// Whether host times were measured (false for a lost round).
    pub fn measured(&self) -> bool {
        self.wall_s > 0.0
    }
}

pub fn report_counts(report: &SimReport) -> Vec<(String, u64)> {
    let c = &report.ctrl_stats;
    vec![
        ("sim_cycles".to_string(), report.sim_cycles),
        ("reads_done".to_string(), c.reads_done),
        ("writes_done".to_string(), c.writes_done),
        ("row_hits".to_string(), c.read_hits + c.write_hits),
        ("refreshes".to_string(), c.refreshes),
        ("instrs_retired".to_string(), report.instrs_retired),
    ]
}

pub fn report_sim_stats(report: &SimReport) -> Vec<(String, f64)> {
    vec![
        ("achieved_gbps".to_string(), report.achieved_gbps()),
        ("read_latency_ns".to_string(), report.avg_read_latency_ns()),
        ("ipc".to_string(), report.ipc()),
    ]
}

/// Runs one untraced round of a simulator workload in this process.
/// `started` is the entry of `main`. With `verify`, the checkpointed run is
/// also compared with a plain run of the same inputs, after the timed part.
pub fn run_round(
    w: Workload,
    seed: u64,
    scale: Scale,
    verify: bool,
    started: Instant,
) -> RoundResult {
    let mut rec = Recorder::off();
    let inputs = generate(w, seed, scale, &mut rec);
    let (cfg, how) = (inputs.cfg.clone(), inputs.drive);
    let plain_source =
        (verify && matches!(how, Drive::Checkpointed { .. })).then(|| inputs.source.clone());
    let mut sim = construct(inputs.cfg, inputs.source, &mut rec);
    let setup_s = started.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let driven = drive(&mut sim, how, inputs.slice, &mut rec);
    let wall_s = t0.elapsed().as_secs_f64();
    let (cpu_s, peak_rss_mb) = (env::cpu_seconds(), env::peak_rss_mb());

    let out = match driven {
        Ok(out) => out,
        Err(why) => return RoundResult::lost(w, seed, why),
    };
    let mut failures = check_outputs(&cfg, how, &sim, &out);
    if let (Some(source), Drive::Checkpointed { end, .. }) = (plain_source, how) {
        let mut plain = construct(cfg.clone(), source, &mut rec);
        plain.advance_to_cycle(end);
        if plain.report().strip_perf() != out.report.strip_perf() {
            failures.push("checkpointed report differs from the plain run".to_string());
        }
    }
    RoundResult {
        workload: w.name().to_string(),
        seed,
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mb,
        sim_cycles: out.report.sim_cycles,
        requests: out.report.ctrl_stats.reads_done + out.report.ctrl_stats.writes_done,
        digest: report_digest(&out.report),
        counts: report_counts(&out.report),
        sim_stats: report_sim_stats(&out.report),
        attempted: 1,
        failed: u64::from(!failures.is_empty()),
        failures,
        job_latencies_ms: Vec::new(),
        segments: out.segments,
    }
}
