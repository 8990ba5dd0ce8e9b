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

use std::process::ExitCode;

use dramstack::figures;
use dramstack::live::{auto_mode, env_requests_live, LiveSink};
use dramstack::memctrl::{MappingScheme, PagePolicy};
use dramstack::sim::ckpt::load_latest;
use dramstack::sim::experiments::{
    run_gap, sweep_synthetic_supervised, synthetic_grid, ExperimentScale,
};
use dramstack::sim::jobs::{parse_mapping, parse_policy};
use dramstack::sim::parallel::{JobPulse, SupervisorConfig};
use dramstack::sim::{
    diff_reports, load_report, run_job, Campaign, JobCancel, JobError, JobOptions, JobSpec,
    SimReport, Telemetry, TelemetryConfig,
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
    Extrapolate { pattern: SynthArgs, to: f64 },
    Diff(DiffArgs),
    Serve(ServeArgs),
    Figures(Vec<String>),
    Help,
}

/// Arguments of the `serve` daemon command.
#[derive(Debug, Clone, PartialEq)]
struct ServeArgs {
    addr: String,
    workers: usize,
    queue_cap: usize,
    max_body_kb: usize,
    job_deadline_secs: Option<f64>,
    job_stall_secs: f64,
    drain_grace_secs: f64,
    checkpoint_dir: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:7077".to_string(),
            workers: 2,
            queue_cap: 16,
            max_body_kb: 64,
            job_deadline_secs: Some(300.0),
            job_stall_secs: 10.0,
            drain_grace_secs: 10.0,
            checkpoint_dir: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct DiffArgs {
    before: String,
    after: String,
    /// Significance floor as a fraction of the before-run totals.
    threshold: f64,
}

#[derive(Debug, Clone, PartialEq)]
struct SynthArgs {
    pattern: &'static str,
    cores: usize,
    stores: f64,
    policy: PagePolicy,
    mapping: MappingScheme,
    us: f64,
    csv_out: Option<String>,
    svg_out: Option<String>,
    live: bool,
    telemetry_out: Option<String>,
    prom_out: Option<String>,
    report_out: Option<String>,
    checkpoint_dir: Option<String>,
    checkpoint_every: u64,
    resume: bool,
}

impl Default for SynthArgs {
    fn default() -> Self {
        SynthArgs {
            pattern: "seq",
            cores: 1,
            stores: 0.0,
            policy: PagePolicy::Open,
            mapping: MappingScheme::RowBankColumn,
            us: 100.0,
            csv_out: None,
            svg_out: None,
            live: false,
            telemetry_out: None,
            prom_out: None,
            report_out: None,
            checkpoint_dir: None,
            // 1 ms of simulated time at the paper's DDR4-2400 clock.
            checkpoint_every: 1_200_000,
            resume: false,
        }
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
    checkpoint_dir: Option<String>,
    checkpoint_every: u64,
    resume: bool,
    deadline_secs: Option<f64>,
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
            checkpoint_dir: None,
            checkpoint_every: 1_200_000,
            resume: false,
            deadline_secs: None,
            retries: 1,
            inject_panic: None,
            inject_hang: None,
        }
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

fn parse_synth_args(args: &[String]) -> Result<(SynthArgs, Vec<(String, String)>), String> {
    let mut out = SynthArgs::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--pattern" => {
                let v = value("--pattern")?;
                out.pattern = match v.as_str() {
                    "seq" | "sequential" => "seq",
                    "rand" | "random" => "rand",
                    other => return Err(format!("unknown pattern `{other}` (seq|rand)")),
                };
            }
            "--cores" => {
                out.cores = value("--cores")?
                    .parse()
                    .map_err(|e| format!("--cores: {e}"))?
            }
            "--stores" => {
                out.stores = value("--stores")?
                    .parse()
                    .map_err(|e| format!("--stores: {e}"))?
            }
            "--policy" => out.policy = parse_policy(&value("--policy")?)?,
            "--mapping" => out.mapping = parse_mapping(&value("--mapping")?)?,
            "--us" => out.us = value("--us")?.parse().map_err(|e| format!("--us: {e}"))?,
            "--csv" => out.csv_out = Some(value("--csv")?),
            "--svg" => out.svg_out = Some(value("--svg")?),
            "--live" => out.live = true,
            "--telemetry" => out.telemetry_out = Some(value("--telemetry")?),
            "--prom" => out.prom_out = Some(value("--prom")?),
            "--report" => out.report_out = Some(value("--report")?),
            "--checkpoint-dir" => out.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--checkpoint-every" => {
                out.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--resume" => out.resume = true,
            other => rest.push((other.to_string(), value(other).unwrap_or_default())),
        }
    }
    if !(0.0..=1.0).contains(&out.stores) {
        return Err("--stores must be in [0, 1]".into());
    }
    if out.cores == 0 {
        return Err("--cores must be at least 1".into());
    }
    if out.resume && out.checkpoint_dir.is_none() {
        return Err("--resume requires --checkpoint-dir".into());
    }
    Ok((out, rest))
}

fn parse_list<T, E: std::fmt::Display>(
    flag: &str,
    v: &str,
    parse_one: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, E> = v
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse_one(s.trim()))
        .collect();
    let items = items.map_err(|e| format!("{flag}: {e}"))?;
    if items.is_empty() {
        return Err(format!("{flag} needs at least one value"));
    }
    Ok(items)
}

fn parse_sweep_args(args: &[String]) -> Result<SweepArgs, String> {
    let mut out = SweepArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cores" => {
                out.cores = parse_list("--cores", &value("--cores")?, str::parse::<usize>)?;
            }
            "--policies" => {
                out.policies = parse_list("--policies", &value("--policies")?, parse_policy)?;
            }
            "--mappings" => {
                out.mappings = parse_list("--mappings", &value("--mappings")?, parse_mapping)?;
            }
            "--stores" => {
                out.stores = value("--stores")?
                    .parse()
                    .map_err(|e| format!("--stores: {e}"))?;
            }
            "--us" => out.us = value("--us")?.parse().map_err(|e| format!("--us: {e}"))?,
            "--checkpoint-dir" => out.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--checkpoint-every" => {
                out.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--resume" => out.resume = true,
            "--deadline-secs" => {
                let d: f64 = value("--deadline-secs")?
                    .parse()
                    .map_err(|e| format!("--deadline-secs: {e}"))?;
                if d <= 0.0 {
                    return Err("--deadline-secs must be positive".into());
                }
                out.deadline_secs = Some(d);
            }
            "--retries" => {
                out.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
            }
            "--inject-panic" => {
                out.inject_panic = Some(
                    value("--inject-panic")?
                        .parse()
                        .map_err(|e| format!("--inject-panic: {e}"))?,
                );
            }
            "--inject-hang" => {
                out.inject_hang = Some(
                    value("--inject-hang")?
                        .parse()
                        .map_err(|e| format!("--inject-hang: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag `{other}` for sweep")),
        }
    }
    if !(0.0..=1.0).contains(&out.stores) {
        return Err("--stores must be in [0, 1]".into());
    }
    if out.cores.contains(&0) {
        return Err("--cores entries must be at least 1".into());
    }
    if out.resume && out.checkpoint_dir.is_none() {
        return Err("--resume requires --checkpoint-dir".into());
    }
    Ok(out)
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => out.addr = value("--addr")?,
            "--workers" => {
                out.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-cap" => {
                out.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--max-body-kb" => {
                out.max_body_kb = value("--max-body-kb")?
                    .parse()
                    .map_err(|e| format!("--max-body-kb: {e}"))?;
            }
            "--job-deadline-secs" => {
                let d: f64 = value("--job-deadline-secs")?
                    .parse()
                    .map_err(|e| format!("--job-deadline-secs: {e}"))?;
                // 0 disables the per-job deadline entirely.
                out.job_deadline_secs = if d > 0.0 { Some(d) } else { None };
            }
            "--job-stall-secs" => {
                out.job_stall_secs = value("--job-stall-secs")?
                    .parse()
                    .map_err(|e| format!("--job-stall-secs: {e}"))?;
            }
            "--drain-grace-secs" => {
                out.drain_grace_secs = value("--drain-grace-secs")?
                    .parse()
                    .map_err(|e| format!("--drain-grace-secs: {e}"))?;
            }
            "--checkpoint-dir" => out.checkpoint_dir = Some(value("--checkpoint-dir")?),
            other => return Err(format!("unknown flag `{other}` for serve")),
        }
    }
    if out.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if out.queue_cap == 0 {
        return Err("--queue-cap must be at least 1".into());
    }
    if out.max_body_kb == 0 {
        return Err("--max-body-kb must be at least 1".into());
    }
    if out.job_stall_secs <= 0.0 {
        return Err("--job-stall-secs must be positive".into());
    }
    if out.drain_grace_secs < 0.0 {
        return Err("--drain-grace-secs must be non-negative".into());
    }
    Ok(out)
}

/// Parses a full command line (without the program name).
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let Some(cmd) = args.first() else {
        return Ok(Cli::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Cli::Help),
        "synth" => {
            let (synth, rest) = parse_synth_args(&args[1..])?;
            if let Some((flag, _)) = rest.first() {
                return Err(format!("unknown flag `{flag}` for synth"));
            }
            Ok(Cli::Synth(synth))
        }
        "sweep" => Ok(Cli::Sweep(parse_sweep_args(&args[1..])?)),
        "serve" => Ok(Cli::Serve(parse_serve_args(&args[1..])?)),
        "figures" => {
            let names = args[1..].to_vec();
            let known: Vec<&str> = figures::ALL.iter().map(|&(f, _)| f).collect();
            if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
                return Err(format!("unknown figure `{bad}` ({})", known.join("|")));
            }
            Ok(Cli::Figures(names))
        }
        "gap" => {
            let mut out = GapArgs::default();
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--kernel" => out.kernel = parse_kernel(&value("--kernel")?)?,
                    "--cores" => {
                        out.cores = value("--cores")?
                            .parse()
                            .map_err(|e| format!("--cores: {e}"))?;
                    }
                    "--scale" => {
                        out.scale = value("--scale")?
                            .parse()
                            .map_err(|e| format!("--scale: {e}"))?;
                    }
                    "--degree" => {
                        out.degree = value("--degree")?
                            .parse()
                            .map_err(|e| format!("--degree: {e}"))?;
                    }
                    "--policy" => out.policy = parse_policy(&value("--policy")?)?,
                    "--mapping" => out.mapping = parse_mapping(&value("--mapping")?)?,
                    other => return Err(format!("unknown flag `{other}` for gap")),
                }
            }
            if out.scale > 20 {
                return Err("--scale above 20 is impractical for cycle simulation".into());
            }
            if out.degree > 64 {
                return Err("--degree above 64 is impractical for cycle simulation".into());
            }
            Ok(Cli::Gap(out))
        }
        "trace" => {
            let mut input = None;
            let mut cycles = 0u64;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--input" => input = Some(value("--input")?),
                    "--cycles" => {
                        cycles = value("--cycles")?
                            .parse()
                            .map_err(|e| format!("--cycles: {e}"))?;
                    }
                    other => return Err(format!("unknown flag `{other}` for trace")),
                }
            }
            let input = input.ok_or("trace requires --input FILE")?;
            Ok(Cli::Trace { input, cycles })
        }
        "reqtrace" => {
            let mut input = None;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--input" => input = it.next().cloned(),
                    other => return Err(format!("unknown flag `{other}` for reqtrace")),
                }
            }
            let input = input.ok_or("reqtrace requires --input FILE")?;
            Ok(Cli::ReqTrace { input })
        }
        "extrapolate" => {
            let mut to = 8.0f64;
            let mut filtered = Vec::new();
            let mut i = 1;
            while i < args.len() {
                if args[i] == "--to" {
                    to = args
                        .get(i + 1)
                        .ok_or("--to needs a value")?
                        .parse()
                        .map_err(|e| format!("--to: {e}"))?;
                    i += 2;
                } else {
                    filtered.push(args[i].clone());
                    i += 1;
                }
            }
            let (synth, rest) = parse_synth_args(&filtered)?;
            if let Some((flag, _)) = rest.first() {
                return Err(format!("unknown flag `{flag}` for extrapolate"));
            }
            if to < 1.0 {
                return Err("--to must be at least 1".into());
            }
            Ok(Cli::Extrapolate { pattern: synth, to })
        }
        "diff" => {
            let mut before = None;
            let mut after = None;
            let mut threshold = 0.01f64;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--before" => before = Some(value("--before")?),
                    "--after" => after = Some(value("--after")?),
                    "--threshold" => {
                        threshold = value("--threshold")?
                            .parse()
                            .map_err(|e| format!("--threshold: {e}"))?;
                    }
                    other => return Err(format!("unknown flag `{other}` for diff")),
                }
            }
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

fn synth_spec(a: &SynthArgs) -> JobSpec {
    JobSpec::synthetic(a.pattern, a.cores, a.stores, a.us, a.policy, a.mapping)
}

/// The streaming telemetry the flags ask for, if any: JSONL / Prometheus
/// writers for `--telemetry` / `--prom`, and the live stack dashboard on
/// stderr for `--live` (ANSI on a TTY, periodic plain text otherwise).
fn synth_telemetry(a: &SynthArgs) -> Result<Option<Telemetry>, String> {
    let live = a.live || env_requests_live();
    if !live && a.telemetry_out.is_none() && a.prom_out.is_none() {
        return Ok(None);
    }
    let mut tel = Telemetry::new(TelemetryConfig::default());
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

/// Runs the synthetic workload as a job of `campaign`:
/// periodic checkpoints into the directory, a manifest entry on
/// completion, and (with `--resume`) skip-if-done /
/// continue-if-interrupted semantics.
fn run_synth_campaign(
    a: &SynthArgs,
    campaign: &Campaign,
    spec: &JobSpec,
    cancel: &JobCancel,
) -> Result<SimReport, JobError> {
    let (key, _) = spec.identity().map_err(JobError::Spec)?;
    if a.resume {
        if let Ok(Some(r)) = campaign.load_report(&key) {
            println!("resume: job {key} already complete, loaded recorded report");
            return Ok(r);
        }
        if let Some(loaded) = load_latest(campaign.dir(), &key) {
            println!(
                "resumed from cycle {} ({} checkpoint, {} delta(s) applied)",
                loaded.snapshot.dram_cycle, loaded.format, loaded.deltas_applied
            );
        }
    }
    let report = campaign.run_job(
        spec,
        a.checkpoint_every,
        a.resume,
        &JobPulse::default(),
        cancel,
        JobOptions::default(),
    )?;
    println!(
        "recorded job {key} in {}/manifest.json ({} finished)",
        campaign.dir().display(),
        campaign.jobs_done()
    );
    Ok(report)
}

fn run_synth_cmd(a: &SynthArgs) -> Result<(), String> {
    let spec = synth_spec(a);
    let telemetry = synth_telemetry(a)?;
    let cancel = JobCancel::on_interrupt();
    let result = match &a.checkpoint_dir {
        Some(_) if telemetry.is_some() || a.report_out.is_some() => {
            return Err(
                "--checkpoint-dir cannot be combined with --live/--telemetry/--prom/--report"
                    .into(),
            );
        }
        Some(dir) => {
            let campaign = Campaign::open(dir).map_err(|e| e.to_string())?;
            run_synth_campaign(a, &campaign, &spec, &cancel)
        }
        None => {
            let opts = JobOptions {
                telemetry,
                ..JobOptions::default()
            };
            run_job(&spec, &JobPulse::default(), &cancel, opts)
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
    let label = format!("{} {}c", a.pattern, a.cores);
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
    let campaign = match &a.checkpoint_dir {
        Some(d) => Some(Campaign::open(d).map_err(|e| e.to_string())?),
        None => None,
    };
    let sup = SupervisorConfig {
        deadline: a.deadline_secs.map(std::time::Duration::from_secs_f64),
        max_retries: a.retries,
        ..SupervisorConfig::default()
    };
    let mut grid = synthetic_grid(&a.cores, &a.policies, &a.mappings, a.stores, a.us);
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
        a.checkpoint_every,
        a.resume,
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
    if a.resume && sweep.skipped > 0 {
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
fn run_serve_cmd(a: &ServeArgs) -> Result<(), String> {
    use dramstack::serve::{ServeConfig, Server};
    dramstack::sim::catch_termination_signals();
    let cfg = ServeConfig {
        addr: a.addr.clone(),
        workers: a.workers,
        queue_cap: a.queue_cap,
        max_body_bytes: a.max_body_kb * 1024,
        job_deadline: a.job_deadline_secs.map(std::time::Duration::from_secs_f64),
        job_stall_timeout: std::time::Duration::from_secs_f64(a.job_stall_secs),
        drain_grace: std::time::Duration::from_secs_f64(a.drain_grace_secs),
        checkpoint_dir: a.checkpoint_dir.as_ref().map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).map_err(|e| format!("bind {}: {e}", a.addr))?;
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
    let load = |path: &str| -> Result<SimReport, String> {
        // Typed loader: I/O errors name the file, malformed or
        // schema-incompatible JSON adds line:column of the bad token.
        load_report(path).map_err(|e| e.to_string())
    };
    let before = load(&a.before)?;
    let after = load(&a.after)?;
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

fn run_extrapolate_cmd(a: &SynthArgs, to: f64) -> Result<(), String> {
    let r = run_job(
        &synth_spec(a),
        &JobPulse::default(),
        &JobCancel::new(),
        JobOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let samples: Vec<_> = r.samples.iter().map(|s| s.bandwidth.clone()).collect();
    println!(
        "measured at {} core(s): {:.2} GB/s over {} samples",
        a.cores,
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
    // `sweep` owns its exit codes: 0 all ok, 3 partial (salvaged), 1 error.
    if let Cli::Sweep(a) = &cli {
        return match run_sweep_cmd(a) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(3),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match &cli {
        Cli::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Cli::Synth(a) => run_synth_cmd(a),
        Cli::Sweep(_) => unreachable!("handled above"),
        Cli::Gap(a) => run_gap_cmd(a),
        Cli::Trace { input, cycles } => run_trace_cmd(input, *cycles),
        Cli::ReqTrace { input } => run_reqtrace_cmd(input),
        Cli::Extrapolate { pattern, to } => run_extrapolate_cmd(pattern, *to),
        Cli::Diff(a) => run_diff_cmd(a),
        Cli::Serve(a) => run_serve_cmd(a),
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
                assert_eq!(a.pattern, "rand");
                assert_eq!(a.cores, 8);
                assert!((a.stores - 0.5).abs() < 1e-12);
                assert_eq!(a.policy, PagePolicy::Closed);
                assert_eq!(a.mapping, MappingScheme::CacheLineInterleaved);
                assert!((a.us - 50.0).abs() < 1e-12);
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
            Cli::Extrapolate { pattern, to } => {
                assert_eq!(pattern.pattern, "rand");
                assert_eq!(pattern.cores, 2);
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
                assert_eq!(a.checkpoint_dir.as_deref(), Some("ckpt"));
                assert_eq!(a.checkpoint_every, 600_000);
                assert!(a.resume);
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
                assert_eq!(a.checkpoint_dir.as_deref(), Some("d"));
                assert!(a.resume);
                assert_eq!(a.deadline_secs, Some(5.0));
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
            Cli::Serve(ServeArgs::default())
        );
        let cli = parse_cli(&args(
            "serve --addr 127.0.0.1:0 --workers 4 --queue-cap 2 --max-body-kb 8 \
             --job-deadline-secs 0 --job-stall-secs 1.5 --drain-grace-secs 3 \
             --checkpoint-dir ckpt",
        ))
        .unwrap();
        match cli {
            Cli::Serve(a) => {
                assert_eq!(a.addr, "127.0.0.1:0");
                assert_eq!(a.workers, 4);
                assert_eq!(a.queue_cap, 2);
                assert_eq!(a.max_body_kb, 8);
                assert_eq!(a.job_deadline_secs, None); // 0 disables
                assert!((a.job_stall_secs - 1.5).abs() < 1e-12);
                assert!((a.drain_grace_secs - 3.0).abs() < 1e-12);
                assert_eq!(a.checkpoint_dir.as_deref(), Some("ckpt"));
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
