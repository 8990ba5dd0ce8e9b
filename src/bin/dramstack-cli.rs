//! `dramstack-cli` — run stack experiments from the command line.
//!
//! ```text
//! dramstack-cli synth --pattern seq --cores 4 --stores 0.2 --us 100
//! dramstack-cli synth --cores 4 --live --telemetry run.jsonl --prom run.prom
//! dramstack-cli gap --kernel bfs --cores 8 --scale 12
//! dramstack-cli trace --input cmds.trace --cycles 100000
//! dramstack-cli extrapolate --pattern rand --to 8
//! dramstack-cli diff --before a.json --after b.json
//! dramstack-cli figures fig2 fig9
//! ```

use std::fmt::Display;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use dramstack::figures;
use dramstack::live::{auto_mode, env_requests_live, LiveSink};
use dramstack::memctrl::{MappingScheme, PagePolicy};
use dramstack::serve::{ServeConfig, Server};
use dramstack::sim::experiments::{
    run_gap, sweep_synthetic_supervised, synthetic_grid, ExperimentScale,
};
use dramstack::sim::jobs::{parse_mapping, parse_policy};
use dramstack::sim::parallel::{JobPulse, SupervisorConfig};
use dramstack::sim::{
    diff_reports, load_report, run_job, Campaign, JobCancel, JobError, JobOptions, JobSpec,
    SimReport, SystemConfig, Telemetry,
};
use dramstack::stacks::offline::stack_from_trace;
use dramstack::stacks::{predict_bandwidth_naive, predict_bandwidth_stack};
use dramstack::viz::{ascii, csv, svg};
use dramstack::workloads::{GapConfig, GapKernel, Graph};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
enum Cli {
    Synth(SynthArgs),
    Sweep(SweepArgs),
    Gap(GapArgs),
    Trace { input: String, cycles: u64 },
    ReqTrace { input: String },
    Extrapolate { spec: JobSpec, to: f64 },
    Diff(DiffArgs),
    Serve(ServeConfig),
    Figures(Vec<String>),
    Help,
}

#[derive(Debug, Clone, PartialEq)]
struct DiffArgs {
    before: String,
    after: String,
    /// Significance floor as a fraction of the before-run totals.
    threshold: f64,
}

/// The run `synth` and `extrapolate` simulate when no flag says
/// otherwise: one core streaming reads for 100 µs.
fn default_spec() -> JobSpec {
    JobSpec {
        us: 100.0,
        ..JobSpec::default()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct SynthArgs {
    spec: JobSpec,
    csv_out: Option<String>,
    svg_out: Option<String>,
    live: bool,
    telemetry_out: Option<String>,
    prom_out: Option<String>,
    report_out: Option<String>,
    ckpt: CkptArgs,
}

impl Default for SynthArgs {
    fn default() -> Self {
        SynthArgs {
            spec: default_spec(),
            csv_out: None,
            svg_out: None,
            live: false,
            telemetry_out: None,
            prom_out: None,
            report_out: None,
            ckpt: CkptArgs::default(),
        }
    }
}

/// The crash-safety flags `synth` and `sweep` share.
#[derive(Debug, Clone, PartialEq)]
struct CkptArgs {
    dir: Option<String>,
    every: u64,
    resume: bool,
}

impl Default for CkptArgs {
    fn default() -> Self {
        CkptArgs {
            dir: None,
            // 1 ms of simulated time at the paper's DDR4-2400 clock.
            every: 1_200_000,
            resume: false,
        }
    }
}

impl CkptArgs {
    /// Takes `flag` if it is one of the group's; says whether it was.
    fn take(&mut self, flag: &str, f: &mut Flags) -> Result<bool, String> {
        match flag {
            "--checkpoint-dir" => self.dir = Some(f.value()?),
            "--checkpoint-every" => self.every = f.parse()?,
            "--resume" => self.resume = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn check(&self) -> Result<(), String> {
        if self.resume && self.dir.is_none() {
            return Err("--resume requires --checkpoint-dir".into());
        }
        Ok(())
    }
}

/// Arguments of the supervised (optionally resumable) `sweep` command.
#[derive(Debug, Clone, PartialEq)]
struct SweepArgs {
    cores: Vec<usize>,
    policies: Vec<PagePolicy>,
    mappings: Vec<MappingScheme>,
    stores: f64,
    us: f64,
    ckpt: CkptArgs,
    deadline: Option<Duration>,
    retries: u32,
    /// Chaos knobs for the CI crash-safety harness: make one grid point
    /// panic / hang to prove salvage and watchdog behavior end to end.
    inject_panic: Option<usize>,
    inject_hang: Option<usize>,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            cores: vec![1, 2, 4],
            policies: vec![PagePolicy::Open],
            mappings: vec![MappingScheme::RowBankColumn],
            stores: 0.0,
            us: 50.0,
            ckpt: CkptArgs::default(),
            deadline: None,
            retries: 1,
            inject_panic: None,
            inject_hang: None,
        }
    }
}

impl SweepArgs {
    fn grid(&self) -> Vec<JobSpec> {
        synthetic_grid(
            &self.cores,
            &self.policies,
            &self.mappings,
            self.stores,
            self.us,
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
struct GapArgs {
    kernel: GapKernel,
    cores: usize,
    scale: u32,
    degree: u32,
    policy: PagePolicy,
    mapping: MappingScheme,
}

impl Default for GapArgs {
    fn default() -> Self {
        GapArgs {
            kernel: GapKernel::Bfs,
            cores: 4,
            scale: 12,
            degree: 12,
            policy: PagePolicy::Closed,
            mapping: MappingScheme::RowBankColumn,
        }
    }
}

const USAGE: &str = "\
dramstack-cli — DRAM bandwidth/latency stacks from the command line

USAGE:
  dramstack-cli synth [--pattern seq|rand] [--cores N] [--stores F]
                      [--policy open|closed] [--mapping def|int] [--us F]
                      [--csv FILE] [--svg FILE] [--live]
                      [--telemetry FILE] [--prom FILE] [--report FILE]
                      [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
  dramstack-cli sweep [--cores N,N,...] [--policies open,closed]
                      [--mappings def,int,xor] [--stores F] [--us F]
                      [--checkpoint-dir DIR] [--checkpoint-every N]
                      [--resume] [--deadline-secs F] [--retries N]
  dramstack-cli gap   [--kernel bc|bfs|cc|pr|sssp|tc] [--cores N]
                      [--scale N] [--degree N] [--policy open|closed]
                      [--mapping def|int]            # scale <= 20, degree <= 64
  dramstack-cli trace --input FILE [--cycles N]      # DRAM command trace
  dramstack-cli reqtrace --input FILE                # memory request trace
  dramstack-cli extrapolate [synth options] [--to K]
  dramstack-cli diff  --before REPORT.json --after REPORT.json
                      [--threshold F]                # compare two runs
  dramstack-cli serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
                      [--max-body-kb N] [--job-deadline-secs F|0]
                      [--job-stall-secs F] [--drain-grace-secs F]
                      [--checkpoint-dir DIR]         # simulation service
  dramstack-cli figures [fig2|fig3|fig4|fig6|fig7|fig8|fig9 ...]
                      # the paper's figures at full scale into results/
  dramstack-cli help

Live telemetry (synth): --live draws the terminal stack dashboard on
stderr (ANSI on a TTY, periodic plain text otherwise; DRAMSTACK_LIVE=
ansi|plain|1|off overrides). --telemetry streams one JSON object per
sample window; --prom writes a Prometheus-style text snapshot; --report
dumps the full SimReport JSON for later `diff`.

Crash safety: --checkpoint-dir snapshots the run every --checkpoint-every
DRAM cycles (default 1200000 = 1 ms simulated; 0 = only when interrupted)
and records completions in DIR/manifest.json; --resume skips jobs the
manifest already marks done and restores interrupted ones from their
latest checkpoint, bit-identical to an uninterrupted run. Checkpoints are
a compact binary delta chain (base .dsnp plus numbered deltas, written
off-thread). SIGTERM and SIGINT stop a run within a few milliseconds: it
flushes one final checkpoint (when --checkpoint-dir is set) and exits
with the conventional 128+signal code (143 for SIGTERM, 130 for ctrl-C),
ready for --resume.
`sweep` runs its grid under a supervisor: a panicking job is retried
(--retries, default 1), a job exceeding --deadline-secs is abandoned,
and the sweep always returns every healthy result (exit code 3 flags a
partial sweep).

Serving: `serve` runs a long-lived daemon accepting jobs over HTTP
(POST /jobs with a JSON spec; GET /jobs/<id>, /jobs/<id>/stream,
/healthz, /readyz, /metrics). Admission is a bounded queue
(--queue-cap); overload sheds with 429 + Retry-After. Panicking or hung
jobs are isolated by the worker supervisor. SIGTERM/SIGINT triggers a
graceful drain: stop accepting, finish or cancel in-flight jobs
(checkpointing them when --checkpoint-dir is set), then exit 0.
";

fn parse_kernel(v: &str) -> Result<GapKernel, String> {
    GapKernel::ALL
        .iter()
        .copied()
        .find(|k| k.name() == v)
        .ok_or_else(|| format!("unknown kernel `{v}` (bc|bfs|cc|pr|sssp|tc)"))
}

/// A cursor over one subcommand's arguments. It owns the parse errors:
/// a flag without its value, a value that does not parse, and (in
/// [`Flags::each`]) a flag the subcommand does not know.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Hands every flag of `args` to `take`, which consumes the flag's
    /// value through the cursor and says whether it knew the flag.
    fn each(
        cmd: &str,
        args: &'a [String],
        mut take: impl FnMut(&'a str, &mut Self) -> Result<bool, String>,
    ) -> Result<(), String> {
        let mut f = Flags {
            args: args.iter(),
            flag: "",
        };
        while let Some(flag) = f.args.next() {
            f.flag = flag;
            if !take(flag, &mut f)? {
                return Err(format!("unknown flag `{flag}` for {cmd}"));
            }
        }
        Ok(())
    }

    fn value(&mut self) -> Result<String, String> {
        self.args
            .next()
            .cloned()
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    fn parse<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value()?
            .parse()
            .map_err(|e| format!("{}: {e}", self.flag))
    }

    /// A float flag's value; NaN and the infinities are refused.
    fn finite(&mut self) -> Result<f64, String> {
        let v: f64 = self.parse()?;
        if !v.is_finite() {
            return Err(format!("{}: {v} is not a finite number", self.flag));
        }
        Ok(v)
    }

    /// A duration given in (finite, non-negative) seconds.
    fn secs(&mut self) -> Result<Duration, String> {
        let v = self.finite()?;
        Duration::try_from_secs_f64(v).map_err(|e| format!("{}: {e}", self.flag))
    }

    fn positive_secs(&mut self) -> Result<Duration, String> {
        let d = self.secs()?;
        if d.is_zero() {
            return Err(format!("{} must be positive", self.flag));
        }
        Ok(d)
    }

    /// A comma-separated list of at least one value.
    fn list<T, E: Display>(
        &mut self,
        parse_one: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Vec<T>, String> {
        let v = self.value()?;
        let items = v
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| parse_one(s.trim()).map_err(|e| format!("{}: {e}", self.flag)))
            .collect::<Result<Vec<T>, String>>()?;
        if items.is_empty() {
            return Err(format!("{} needs at least one value", self.flag));
        }
        Ok(items)
    }
}

/// Takes `flag` if it sets a field of the simulated job (the flags
/// `synth` and `extrapolate` share); says whether it did. The values are
/// checked later, all at once, by [`JobSpec::resolve`].
fn take_spec_flag(spec: &mut JobSpec, flag: &str, f: &mut Flags) -> Result<bool, String> {
    match flag {
        "--pattern" => {
            let v = f.value()?;
            spec.pattern = match v.as_str() {
                "sequential" => "seq".into(),
                "random" => "rand".into(),
                _ => v,
            };
        }
        "--cores" => spec.cores = f.parse()?,
        "--stores" => spec.stores = f.finite()?,
        "--policy" => spec.policy = f.value()?,
        "--mapping" => spec.mapping = f.value()?,
        "--us" => spec.us = f.finite()?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses a full command line (without the program name).
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let Some(cmd) = args.first() else {
        return Ok(Cli::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Cli::Help),
        "synth" => {
            let mut a = SynthArgs::default();
            Flags::each(cmd, rest, |flag, f| {
                match flag {
                    "--csv" => a.csv_out = Some(f.value()?),
                    "--svg" => a.svg_out = Some(f.value()?),
                    "--live" => a.live = true,
                    "--telemetry" => a.telemetry_out = Some(f.value()?),
                    "--prom" => a.prom_out = Some(f.value()?),
                    "--report" => a.report_out = Some(f.value()?),
                    _ => return Ok(take_spec_flag(&mut a.spec, flag, f)? || a.ckpt.take(flag, f)?),
                }
                Ok(true)
            })?;
            a.ckpt.check()?;
            a.spec.resolve()?;
            Ok(Cli::Synth(a))
        }
        "sweep" => {
            let mut a = SweepArgs::default();
            Flags::each(cmd, rest, |flag, f| {
                match flag {
                    "--cores" => a.cores = f.list(str::parse::<usize>)?,
                    "--policies" => a.policies = f.list(parse_policy)?,
                    "--mappings" => a.mappings = f.list(parse_mapping)?,
                    "--stores" => a.stores = f.finite()?,
                    "--us" => a.us = f.finite()?,
                    "--deadline-secs" => a.deadline = Some(f.positive_secs()?),
                    "--retries" => a.retries = f.parse()?,
                    "--inject-panic" => a.inject_panic = Some(f.parse()?),
                    "--inject-hang" => a.inject_hang = Some(f.parse()?),
                    _ => return a.ckpt.take(flag, f),
                }
                Ok(true)
            })?;
            a.ckpt.check()?;
            for spec in a.grid() {
                spec.resolve()?;
            }
            Ok(Cli::Sweep(a))
        }
        "serve" => {
            let mut c = ServeConfig::default();
            Flags::each(cmd, rest, |flag, f| {
                match flag {
                    "--addr" => c.addr = f.value()?,
                    "--workers" => c.workers = f.parse::<NonZeroUsize>()?.get(),
                    "--queue-cap" => c.queue_cap = f.parse::<NonZeroUsize>()?.get(),
                    "--max-body-kb" => {
                        c.max_body_bytes = f.parse::<NonZeroUsize>()?.get().saturating_mul(1024);
                    }
                    // 0 disables the per-job deadline entirely.
                    "--job-deadline-secs" => {
                        c.job_deadline = Some(f.secs()?).filter(|d| !d.is_zero())
                    }
                    "--job-stall-secs" => c.job_stall_timeout = f.positive_secs()?,
                    "--drain-grace-secs" => c.drain_grace = f.secs()?,
                    "--checkpoint-dir" => c.checkpoint_dir = Some(f.value()?.into()),
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Cli::Serve(c))
        }
        "figures" => {
            let known: Vec<&str> = figures::ALL.iter().map(|&(f, _)| f).collect();
            if let Some(bad) = rest.iter().find(|n| !known.contains(&n.as_str())) {
                return Err(format!("unknown figure `{bad}` ({})", known.join("|")));
            }
            Ok(Cli::Figures(rest.to_vec()))
        }
        "gap" => {
            let mut a = GapArgs::default();
            Flags::each(cmd, rest, |flag, f| {
                match flag {
                    "--kernel" => a.kernel = parse_kernel(&f.value()?)?,
                    "--cores" => a.cores = f.parse()?,
                    "--scale" => a.scale = f.parse()?,
                    "--degree" => a.degree = f.parse()?,
                    "--policy" => a.policy = parse_policy(&f.value()?)?,
                    "--mapping" => a.mapping = parse_mapping(&f.value()?)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            if a.scale > 20 {
                return Err("--scale above 20 is impractical for cycle simulation".into());
            }
            if a.degree > 64 {
                return Err("--degree above 64 is impractical for cycle simulation".into());
            }
            SystemConfig::paper_gap(a.cores)
                .validate()
                .map_err(|e| e.to_string())?;
            Ok(Cli::Gap(a))
        }
        "trace" => {
            let (mut input, mut cycles) = (None, 0);
            Flags::each(cmd, rest, |flag, f| {
                match flag {
                    "--input" => input = Some(f.value()?),
                    "--cycles" => cycles = f.parse()?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            let input = input.ok_or("trace requires --input FILE")?;
            Ok(Cli::Trace { input, cycles })
        }
        "reqtrace" => {
            let mut input = None;
            Flags::each(cmd, rest, |flag, f| {
                if flag != "--input" {
                    return Ok(false);
                }
                input = Some(f.value()?);
                Ok(true)
            })?;
            let input = input.ok_or("reqtrace requires --input FILE")?;
            Ok(Cli::ReqTrace { input })
        }
        "extrapolate" => {
            let (mut spec, mut to) = (default_spec(), 8.0);
            Flags::each(cmd, rest, |flag, f| {
                if flag != "--to" {
                    return take_spec_flag(&mut spec, flag, f);
                }
                to = f.finite()?;
                Ok(true)
            })?;
            if to < 1.0 {
                return Err("--to must be at least 1".into());
            }
            spec.resolve()?;
            Ok(Cli::Extrapolate { spec, to })
        }
        "diff" => {
            let (mut before, mut after, mut threshold) = (None, None, 0.01);
            Flags::each(cmd, rest, |flag, f| {
                match flag {
                    "--before" => before = Some(f.value()?),
                    "--after" => after = Some(f.value()?),
                    "--threshold" => threshold = f.finite()?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            if !(0.0..1.0).contains(&threshold) {
                return Err("--threshold must be in [0, 1)".into());
            }
            Ok(Cli::Diff(DiffArgs {
                before: before.ok_or("diff requires --before REPORT.json")?,
                after: after.ok_or("diff requires --after REPORT.json")?,
                threshold,
            }))
        }
        other => Err(format!(
            "unknown command `{other}`; try `dramstack-cli help`"
        )),
    }
}

/// The streaming telemetry the flags ask for, if any: JSONL / Prometheus
/// writers for `--telemetry` / `--prom`, and the live stack dashboard on
/// stderr for `--live` (ANSI on a TTY, periodic plain text otherwise).
fn synth_telemetry(a: &SynthArgs) -> Result<Option<Telemetry>, String> {
    let live = a.live || env_requests_live();
    if !live && a.telemetry_out.is_none() && a.prom_out.is_none() {
        return Ok(None);
    }
    let mut tel = Telemetry::default();
    if let Some(path) = &a.telemetry_out {
        let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        tel = tel.with_jsonl(Box::new(std::io::BufWriter::new(f)));
    }
    if let Some(path) = &a.prom_out {
        // Written once, when the run's report is built.
        let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        tel = tel.with_prometheus(Box::new(f));
    }
    if live {
        tel.add_sink(Box::new(LiveSink::new(auto_mode())));
    }
    Ok(Some(tel))
}

/// Name and exit code of the signal behind an interrupted run: the
/// conventional 128 + signal, and the word CI greps for ("sigterm:
/// checkpointed at cycle N").
fn interrupt_signal() -> (&'static str, i32) {
    match dramstack::sim::interrupt_signal() {
        Some(2) => ("sigint", 130),
        _ => ("sigterm", 143),
    }
}

/// The line a resumed run prints before it continues (CI greps
/// `resumed from cycle`).
fn print_resumed(cycle: u64, deltas: u64) {
    println!("resumed from cycle {cycle} ({deltas} delta(s) applied)");
}

/// Runs the synthetic workload as a job of `campaign`:
/// periodic checkpoints into the directory, a manifest entry on
/// completion, and (with `--resume`) skip-if-done /
/// continue-if-interrupted semantics. A resumed run streams `telemetry`
/// only the windows it simulates after the restore point.
fn run_synth_campaign(
    a: &SynthArgs,
    campaign: &Campaign,
    cancel: &JobCancel,
    telemetry: Option<Telemetry>,
) -> Result<SimReport, JobError> {
    let (key, _) = a.spec.identity().map_err(JobError::Spec)?;
    if a.ckpt.resume {
        if let Ok(Some(r)) = campaign.load_report(&key) {
            println!("resume: job {key} already complete, loaded recorded report");
            return Ok(r);
        }
    }
    let opts = JobOptions {
        telemetry,
        on_resume: Some(print_resumed),
        ..JobOptions::default()
    };
    let report = campaign.run_job(
        &a.spec,
        a.ckpt.every,
        a.ckpt.resume,
        &JobPulse::default(),
        cancel,
        opts,
    )?;
    println!(
        "recorded job {key} in {}/manifest.json ({} finished)",
        campaign.dir().display(),
        campaign.jobs_done()
    );
    Ok(report)
}

fn run_synth_cmd(a: &SynthArgs) -> Result<(), String> {
    let telemetry = synth_telemetry(a)?;
    let cancel = JobCancel::on_interrupt();
    let result = match &a.ckpt.dir {
        Some(dir) => {
            let campaign = Campaign::open(dir).map_err(|e| e.to_string())?;
            run_synth_campaign(a, &campaign, &cancel, telemetry)
        }
        None => {
            let opts = JobOptions {
                telemetry,
                ..JobOptions::default()
            };
            run_job(&a.spec, &JobPulse::default(), &cancel, opts)
        }
    };
    let r = match result {
        Ok(r) => r,
        Err(JobError::Cancelled {
            cycle,
            checkpointed,
        }) => {
            // The final checkpoint is on disk and the writer thread has
            // been joined — nothing left to flush.
            let (signal, code) = interrupt_signal();
            if checkpointed {
                println!(
                    "{signal}: checkpointed at cycle {cycle}; rerun with --resume to continue"
                );
            } else {
                println!("{signal}: stopped at cycle {cycle}");
            }
            std::process::exit(code);
        }
        Err(e) => return Err(e.to_string()),
    };
    for path in [&a.telemetry_out, &a.prom_out].into_iter().flatten() {
        println!("wrote {path}");
    }
    let label = format!("{} {}c", a.spec.pattern, a.spec.cores);
    println!(
        "{label}: {:.2} / {:.1} GB/s, read latency {:.1} ns, page-hit {:.1} %",
        r.achieved_gbps(),
        r.bandwidth_stack.peak_gbps(),
        r.avg_read_latency_ns(),
        r.ctrl_stats.read_hit_rate() * 100.0
    );
    let bw_rows = vec![(label.clone(), r.bandwidth_stack.clone())];
    let lat_rows = vec![(label.clone(), r.latency_stack)];
    println!("{}", ascii::bandwidth_chart(&bw_rows));
    println!("{}", ascii::latency_chart(&lat_rows));
    if let Some(path) = &a.csv_out {
        std::fs::write(path, csv::bandwidth_csv(&bw_rows)).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if let Some(path) = &a.svg_out {
        std::fs::write(path, svg::bandwidth_figure(&label, &bw_rows)).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    for d in &r.diagnoses {
        println!("advisor: {d}");
    }
    if let Some(path) = &a.report_out {
        std::fs::write(path, r.to_json().map_err(|e| e.to_string())?)
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Runs the supervised sweep grid; returns whether every job produced a
/// result (partial sweeps exit with code 3 in `main`).
fn run_sweep_cmd(a: &SweepArgs) -> Result<bool, String> {
    let campaign = match &a.ckpt.dir {
        Some(d) => Some(Campaign::open(d).map_err(|e| e.to_string())?),
        None => None,
    };
    let sup = SupervisorConfig {
        deadline: a.deadline,
        max_retries: a.retries,
        ..SupervisorConfig::default()
    };
    let mut grid = a.grid();
    let mut labels = Vec::new();
    for spec in &grid {
        let (policy, mapping) = (parse_policy(&spec.policy)?, parse_mapping(&spec.mapping)?);
        labels.push(format!(
            "{} {}c {policy:?} {mapping:?}",
            spec.pattern, spec.cores
        ));
    }
    if let Some(spec) = a.inject_panic.and_then(|i| grid.get_mut(i)) {
        spec.inject_panic = true;
    }
    if let Some(spec) = a.inject_hang.and_then(|i| grid.get_mut(i)) {
        spec.inject_hang = true;
    }
    // SIGTERM/SIGINT is a cooperative stop: in-flight grid points flush a
    // final checkpoint (with a campaign attached) and return cancelled,
    // and the process exits 143/130 below instead of dying mid-write.
    let cancel = JobCancel::on_interrupt();
    let sweep = sweep_synthetic_supervised(
        grid,
        campaign.as_ref(),
        a.ckpt.every,
        a.ckpt.resume,
        &sup,
        &cancel,
    )
    .map_err(|e| e.to_string())?;
    if cancel.is_cancelled() {
        let (signal, code) = interrupt_signal();
        println!("{signal}: in-flight jobs checkpointed; rerun with --resume to continue");
        std::process::exit(code);
    }

    let failures = &sweep.failures;
    for (i, point) in sweep.points.iter().enumerate() {
        if let Some(p) = point {
            let note = failures
                .retried
                .iter()
                .find(|(idx, _)| *idx == i)
                .map(|(_, attempts)| format!(" (after {attempts} attempts)"))
                .unwrap_or_default();
            println!(
                "job {i:02} {}: ok {:.2} GB/s, {:.1} ns{note}",
                labels[i],
                p.report.achieved_gbps(),
                p.report.avg_read_latency_ns()
            );
        }
    }
    for (i, msg) in &failures.panicked {
        println!("job {i:02} {}: PANICKED: {msg}", labels[*i]);
    }
    for i in &failures.timed_out {
        println!("job {i:02} {}: TIMED OUT (watchdog)", labels[*i]);
    }
    for (i, e) in &sweep.errors {
        println!("job {i:02} {}: FAILED: {e}", labels[*i]);
    }
    if a.ckpt.resume && sweep.skipped > 0 {
        println!("resume: skipped {} finished job(s)", sweep.skipped);
    }
    let ok = sweep.points.iter().filter(|p| p.is_some()).count();
    println!(
        "sweep: {ok}/{} ok, {} panicked, {} timed out, {} retried",
        sweep.points.len(),
        failures.panicked.len(),
        failures.timed_out.len(),
        failures.retried.len()
    );
    if let Some(c) = &campaign {
        println!(
            "manifest: {}/manifest.json ({} finished)",
            c.dir().display(),
            c.jobs_done()
        );
    }
    Ok(sweep.complete())
}

/// Runs the simulation service until SIGTERM/SIGINT, then drains
/// gracefully. A drained exit is a success (code 0) — jobs in flight
/// either finished or were cancelled-with-checkpoint.
fn run_serve_cmd(cfg: &ServeConfig) -> Result<(), String> {
    dramstack::sim::catch_termination_signals();
    let server = Server::bind(cfg.clone()).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    // Flushed before blocking so wrappers (CI, tests) can scrape the
    // actual port even when stdout is a pipe.
    println!("serving on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stats = server.serve();
    println!(
        "drained: {} accepted, {} completed, {} failed, {} timed out, {} cancelled, {} shed",
        stats.accepted,
        stats.completed,
        stats.failed,
        stats.timed_out,
        stats.cancelled,
        stats.shed_429 + stats.shed_drain
    );
    Ok(())
}

fn run_diff_cmd(a: &DiffArgs) -> Result<(), String> {
    // I/O errors name the file, malformed or schema-incompatible JSON
    // adds line:column of the bad token.
    let before = load_report(&a.before).map_err(|e| e.to_string())?;
    let after = load_report(&a.after).map_err(|e| e.to_string())?;
    let (bw, lat) = diff_reports(&before, &after, a.threshold);
    println!(
        "diff: {} -> {}  ({:.2} -> {:.2} GB/s, {:.1} -> {:.1} ns)",
        a.before,
        a.after,
        before.achieved_gbps(),
        after.achieved_gbps(),
        before.avg_read_latency_ns(),
        after.avg_read_latency_ns()
    );
    println!("{}", bw.render());
    println!("{}", lat.render());
    Ok(())
}

fn run_gap_cmd(a: &GapArgs) -> Result<(), String> {
    let graph = Graph::kronecker(a.scale, a.degree, 42);
    println!(
        "graph: {} vertices, {} directed edges",
        graph.n,
        graph.edge_count()
    );
    let r = run_gap(
        a.kernel,
        &graph,
        a.cores,
        a.policy,
        a.mapping,
        32,
        &GapConfig::default(),
        1_000_000_000,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "{} {}c: {:.2} ms simulated, {:.2} GB/s, latency {:.1} ns, IPC {:.2}",
        a.kernel,
        a.cores,
        r.elapsed_us / 1000.0,
        r.achieved_gbps(),
        r.avg_read_latency_ns(),
        r.ipc()
    );
    let label = format!("{} {}c", a.kernel, a.cores);
    println!(
        "{}",
        ascii::bandwidth_chart(&[(label.clone(), r.bandwidth_stack.clone())])
    );
    println!("{}", ascii::latency_chart(&[(label, r.latency_stack)]));
    Ok(())
}

fn run_trace_cmd(input: &str, cycles: u64) -> Result<(), String> {
    let text = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let cmds = dramstack::dram::trace::parse_trace(&text).map_err(|e| e.to_string())?;
    let total = if cycles > 0 {
        cycles
    } else {
        cmds.last().map(|c| c.at + 500).unwrap_or(1)
    };
    let stack = stack_from_trace(&cmds, dramstack::dram::DeviceConfig::ddr4_2400(), total)
        .map_err(|e| e.to_string())?;
    println!("{} commands over {total} cycles", cmds.len());
    println!("{}", ascii::bandwidth_chart(&[("trace".into(), stack)]));
    Ok(())
}

fn run_reqtrace_cmd(input: &str) -> Result<(), String> {
    use dramstack::memctrl::CtrlConfig;
    use dramstack::sim::replay::{parse_requests, replay_requests};
    let text = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let reqs = parse_requests(&text).map_err(|e| e.to_string())?;
    let result = replay_requests(&reqs, CtrlConfig::paper_default(), 12_000, 2_000_000_000)
        .map_err(|e| e.to_string())?;
    println!(
        "{} reads + {} writes drained in {} cycles",
        result.reads, result.writes, result.finished_at
    );
    println!(
        "{}",
        ascii::bandwidth_chart(&[("trace".into(), result.bandwidth_stack)])
    );
    println!(
        "{}",
        ascii::latency_chart(&[("trace".into(), result.latency_stack)])
    );
    Ok(())
}

fn run_extrapolate_cmd(spec: &JobSpec, to: f64) -> Result<(), String> {
    let r = run_job(
        spec,
        &JobPulse::default(),
        &JobCancel::new(),
        JobOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let samples: Vec<_> = r.samples.iter().map(|s| s.bandwidth.clone()).collect();
    println!(
        "measured at {} core(s): {:.2} GB/s over {} samples",
        spec.cores,
        r.achieved_gbps(),
        samples.len()
    );
    println!("predicted at {to:.0}x cores:");
    println!(
        "  naive : {:.2} GB/s",
        predict_bandwidth_naive(&samples, to)
    );
    println!(
        "  stack : {:.2} GB/s",
        predict_bandwidth_stack(&samples, to)
    );
    Ok(())
}

/// Renders the named figures (every figure when none is named) at full
/// scale and writes their files into the repository's `results/`.
fn run_figures_cmd(names: &[String]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, render) in figures::ALL {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let figure = render(&ExperimentScale::full()).map_err(|e| e.to_string())?;
        println!("{}", figure.text);
        for (file, contents) in &figure.files {
            let path = dir.join(file);
            std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &cli {
        Cli::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Cli::Synth(a) => run_synth_cmd(a),
        // `sweep` owns its exit codes: 0 all ok, 3 partial (salvaged), 1 error.
        Cli::Sweep(a) => match run_sweep_cmd(a) {
            Ok(false) => return ExitCode::from(3),
            other => other.map(drop),
        },
        Cli::Gap(a) => run_gap_cmd(a),
        Cli::Trace { input, cycles } => run_trace_cmd(input, *cycles),
        Cli::ReqTrace { input } => run_reqtrace_cmd(input),
        Cli::Extrapolate { spec, to } => run_extrapolate_cmd(spec, *to),
        Cli::Diff(a) => run_diff_cmd(a),
        Cli::Serve(c) => run_serve_cmd(c),
        Cli::Figures(names) => run_figures_cmd(names),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_synth_defaults_and_flags() {
        let cli = parse_cli(&args("synth")).unwrap();
        assert_eq!(cli, Cli::Synth(SynthArgs::default()));
        let cli = parse_cli(&args(
            "synth --pattern rand --cores 8 --stores 0.5 --policy closed --mapping int --us 50",
        ))
        .unwrap();
        match cli {
            Cli::Synth(a) => {
                let (cfg, _) = a.spec.resolve().unwrap();
                assert_eq!(a.spec.pattern, "rand");
                assert_eq!(a.spec.cores, 8);
                assert!((a.spec.stores - 0.5).abs() < 1e-12);
                assert_eq!(cfg.ctrl.page_policy, PagePolicy::Closed);
                assert_eq!(cfg.ctrl.mapping, MappingScheme::CacheLineInterleaved);
                assert!((a.spec.us - 50.0).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_gap() {
        let cli = parse_cli(&args("gap --kernel tc --cores 2 --scale 10")).unwrap();
        match cli {
            Cli::Gap(a) => {
                assert_eq!(a.kernel, GapKernel::Tc);
                assert_eq!(a.cores, 2);
                assert_eq!(a.scale, 10);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_trace_requires_input() {
        assert!(parse_cli(&args("trace")).is_err());
        let cli = parse_cli(&args("trace --input t.txt --cycles 500")).unwrap();
        assert_eq!(
            cli,
            Cli::Trace {
                input: "t.txt".into(),
                cycles: 500
            }
        );
    }

    #[test]
    fn parse_extrapolate_mixes_flags() {
        let cli = parse_cli(&args("extrapolate --pattern rand --to 16 --cores 2")).unwrap();
        match cli {
            Cli::Extrapolate { spec, to } => {
                assert_eq!(spec.pattern, "rand");
                assert_eq!(spec.cores, 2);
                assert!((to - 16.0).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_synth_telemetry_flags() {
        let cli = parse_cli(&args(
            "synth --live --telemetry t.jsonl --prom p.prom --report r.json",
        ))
        .unwrap();
        match cli {
            Cli::Synth(a) => {
                assert!(a.live);
                assert_eq!(a.telemetry_out.as_deref(), Some("t.jsonl"));
                assert_eq!(a.prom_out.as_deref(), Some("p.prom"));
                assert_eq!(a.report_out.as_deref(), Some("r.json"));
            }
            other => panic!("{other:?}"),
        }
        // Defaults stay off so plain runs keep using the experiment helper.
        let d = SynthArgs::default();
        assert!(!d.live);
        assert!(d.telemetry_out.is_none() && d.prom_out.is_none() && d.report_out.is_none());
    }

    #[test]
    fn parse_diff() {
        let cli = parse_cli(&args(
            "diff --before a.json --after b.json --threshold 0.05",
        ))
        .unwrap();
        assert_eq!(
            cli,
            Cli::Diff(DiffArgs {
                before: "a.json".into(),
                after: "b.json".into(),
                threshold: 0.05
            })
        );
        assert!(parse_cli(&args("diff --before a.json")).is_err());
        assert!(parse_cli(&args("diff --before a.json --after b.json --threshold 2")).is_err());
    }

    #[test]
    fn parse_synth_checkpoint_flags() {
        let cli = parse_cli(&args(
            "synth --cores 2 --checkpoint-dir ckpt --checkpoint-every 600000 --resume",
        ))
        .unwrap();
        match cli {
            Cli::Synth(a) => {
                assert_eq!(a.ckpt.dir.as_deref(), Some("ckpt"));
                assert_eq!(a.ckpt.every, 600_000);
                assert!(a.ckpt.resume);
            }
            other => panic!("{other:?}"),
        }
        // --resume without a directory to resume from is an error.
        assert!(parse_cli(&args("synth --resume")).is_err());
    }

    #[test]
    fn parse_sweep() {
        let cli = parse_cli(&args(
            "sweep --cores 1,2,8 --policies open,closed --mappings def,int \
             --us 20 --checkpoint-dir d --resume --deadline-secs 5 --retries 2 \
             --inject-panic 3 --inject-hang 4",
        ))
        .unwrap();
        match cli {
            Cli::Sweep(a) => {
                assert_eq!(a.cores, vec![1, 2, 8]);
                assert_eq!(a.policies, vec![PagePolicy::Open, PagePolicy::Closed]);
                assert_eq!(
                    a.mappings,
                    vec![
                        MappingScheme::RowBankColumn,
                        MappingScheme::CacheLineInterleaved
                    ]
                );
                assert!((a.us - 20.0).abs() < 1e-12);
                assert_eq!(a.ckpt.dir.as_deref(), Some("d"));
                assert!(a.ckpt.resume);
                assert_eq!(a.deadline, Some(Duration::from_secs(5)));
                assert_eq!(a.retries, 2);
                assert_eq!(a.inject_panic, Some(3));
                assert_eq!(a.inject_hang, Some(4));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_cli(&args("sweep")).unwrap(),
            Cli::Sweep(SweepArgs::default())
        );
        assert!(parse_cli(&args("sweep --cores 0,2")).is_err());
        assert!(parse_cli(&args("sweep --policies fancy")).is_err());
        assert!(parse_cli(&args("sweep --resume")).is_err());
        assert!(parse_cli(&args("sweep --deadline-secs -1")).is_err());
    }

    #[test]
    fn parse_serve() {
        assert_eq!(
            parse_cli(&args("serve")).unwrap(),
            Cli::Serve(ServeConfig::default())
        );
        let cli = parse_cli(&args(
            "serve --addr 127.0.0.1:0 --workers 4 --queue-cap 2 --max-body-kb 8 \
             --job-deadline-secs 0 --job-stall-secs 1.5 --drain-grace-secs 3 \
             --checkpoint-dir ckpt",
        ))
        .unwrap();
        match cli {
            Cli::Serve(c) => {
                assert_eq!(c.addr, "127.0.0.1:0");
                assert_eq!(c.workers, 4);
                assert_eq!(c.queue_cap, 2);
                assert_eq!(c.max_body_bytes, 8 * 1024);
                assert_eq!(c.job_deadline, None); // 0 disables
                assert_eq!(c.job_stall_timeout, Duration::from_millis(1500));
                assert_eq!(c.drain_grace, Duration::from_secs(3));
                assert_eq!(c.checkpoint_dir, Some("ckpt".into()));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_cli(&args("serve --workers 0")).is_err());
        assert!(parse_cli(&args("serve --queue-cap 0")).is_err());
        assert!(parse_cli(&args("serve --bogus 1")).is_err());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(parse_cli(&args("synth --pattern diagonal")).is_err());
        assert!(parse_cli(&args("synth --stores 1.5")).is_err());
        assert!(parse_cli(&args("synth --cores 0")).is_err());
        assert!(parse_cli(&args("gap --kernel quicksort")).is_err());
        assert!(parse_cli(&args("gap --scale 30")).is_err());
        assert!(parse_cli(&args("gap --scale 20 --degree 5000")).is_err());
        assert!(parse_cli(&args("frobnicate")).is_err());
        assert!(parse_cli(&args("extrapolate --to 0.5")).is_err());
        assert!(parse_cli(&args("synth --cores 100000 --us 1")).is_err());
        assert!(parse_cli(&args("gap --cores 100000 --scale 6")).is_err());
        assert!(parse_cli(&args("synth --bogus 1")).is_err());
        assert!(parse_cli(&args("synth --us")).is_err());
        // Non-finite floats are refused before they reach a `Duration`
        // or the extrapolation (each of these once panicked or printed
        // NaN).
        for line in [
            "sweep --deadline-secs nan",
            "sweep --deadline-secs inf",
            "serve --job-stall-secs nan",
            "serve --drain-grace-secs nan",
            "serve --job-deadline-secs inf",
            "extrapolate --to nan",
            "extrapolate --to inf",
        ] {
            assert!(parse_cli(&args(line)).is_err(), "{line}");
        }
    }

    #[test]
    fn parse_figures() {
        assert_eq!(parse_cli(&args("figures")).unwrap(), Cli::Figures(vec![]));
        assert_eq!(
            parse_cli(&args("figures fig2 fig9")).unwrap(),
            Cli::Figures(vec!["fig2".into(), "fig9".into()])
        );
        assert!(parse_cli(&args("figures fig5")).is_err());
        assert!(parse_cli(&args("figures --quick")).is_err());
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse_cli(&[]).unwrap(), Cli::Help);
        assert_eq!(parse_cli(&args("help")).unwrap(), Cli::Help);
        assert_eq!(parse_cli(&args("--help")).unwrap(), Cli::Help);
    }
}
