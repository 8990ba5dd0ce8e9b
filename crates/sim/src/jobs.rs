//! Self-describing simulation jobs: a JSON-parseable [`JobSpec`], a
//! cooperative cancellation token and the slice-wise [`run_job`] driver.
//!
//! [`run_job`] is the one loop that advances a synthetic simulation on a
//! user's behalf: CLI `synth`, every `sweep` grid point and the `dramstack
//! serve` worker pool all call it, so cancellation, the wall-clock
//! deadline, live telemetry, periodic checkpoints and resume behave the
//! same whichever way a run was started. The driver advances the simulator
//! in small cycle slices so cancel and deadline checks land within
//! milliseconds, while keeping results bit-identical (modulo `perf`
//! timings) to a straight
//! [`run_synthetic`](crate::experiments::run_synthetic) call — the
//! event-horizon skip clamps to the slice horizon, and to a checkpoint
//! boundary, exactly like it clamps to the end of a run.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Serialize, Value};

use dramstack_dram::Cycle;
use dramstack_memctrl::{MappingScheme, PagePolicy};
use dramstack_workloads::SyntheticPattern;

use crate::campaign::job_key;
use crate::ckpt::{self, CheckpointChain, CkptError};
use crate::config::SystemConfig;
use crate::parallel::JobPulse;
use crate::report::SimReport;
use crate::system::Simulator;
use crate::telemetry::Telemetry;

/// Cycles simulated between cancel/deadline polls. Small enough that a
/// cancellation lands within a few milliseconds of wall time, large
/// enough that polling cost is unmeasurable next to simulation work.
const SLICE_CYCLES: Cycle = 24_000;

/// Parses a page-policy name — one parser for the job spec and the CLI
/// flags.
///
/// # Errors
///
/// A message naming the unknown value and the accepted ones.
pub fn parse_policy(name: &str) -> Result<PagePolicy, String> {
    match name {
        "open" => Ok(PagePolicy::Open),
        "closed" => Ok(PagePolicy::Closed),
        other => Err(format!("unknown policy `{other}` (want open|closed)")),
    }
}

/// Parses an address-mapping name, long or short.
///
/// # Errors
///
/// A message naming the unknown value and the accepted ones.
pub fn parse_mapping(name: &str) -> Result<MappingScheme, String> {
    match name {
        "def" | "default" => Ok(MappingScheme::RowBankColumn),
        "int" | "interleaved" => Ok(MappingScheme::CacheLineInterleaved),
        "xor" | "permutation" => Ok(MappingScheme::PermutationXor),
        other => Err(format!(
            "unknown mapping `{other}` (want default|interleaved|xor)"
        )),
    }
}

/// One synthetic simulation job, as submitted over the wire.
///
/// All fields have serving-friendly defaults; [`JobSpec::from_json`]
/// fills in whatever the request body omits and rejects anything it does
/// not understand with a typed message (so a service can answer 400
/// instead of guessing).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobSpec {
    /// Traffic pattern: `"seq"` or `"rand"`.
    pub pattern: String,
    /// Core count (≥ 1).
    pub cores: usize,
    /// Store fraction in `[0, 1]`.
    pub stores: f64,
    /// Simulated microseconds (> 0).
    pub us: f64,
    /// Page policy: `"open"` or `"closed"`.
    pub policy: String,
    /// Address mapping: `"default"`, `"interleaved"` or `"xor"`.
    pub mapping: String,
    /// Fault injection: panic immediately (supervision tests).
    pub inject_panic: bool,
    /// Fault injection: hang without progress (watchdog tests).
    pub inject_hang: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            pattern: "seq".to_string(),
            cores: 1,
            stores: 0.0,
            us: 20.0,
            policy: "open".to_string(),
            mapping: "default".to_string(),
            inject_panic: false,
            inject_hang: false,
        }
    }
}

impl JobSpec {
    /// The spec of one synthetic run from typed arguments (what the CLI
    /// flags and the sweep axes hold); the inverse of the `parse_*` pair.
    pub fn synthetic(
        pattern: &str,
        cores: usize,
        stores: f64,
        us: f64,
        policy: PagePolicy,
        mapping: MappingScheme,
    ) -> JobSpec {
        JobSpec {
            pattern: pattern.to_string(),
            cores,
            stores,
            us,
            policy: match policy {
                PagePolicy::Open => "open",
                PagePolicy::Closed => "closed",
            }
            .to_string(),
            mapping: match mapping {
                MappingScheme::RowBankColumn => "default",
                MappingScheme::CacheLineInterleaved => "interleaved",
                MappingScheme::PermutationXor => "xor",
            }
            .to_string(),
            ..JobSpec::default()
        }
    }

    /// Parses a JSON object, defaulting omitted fields and rejecting
    /// unknown keys and mistyped values with a human-readable message.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field (or of the JSON syntax
    /// error) — suitable for echoing back in a 400 response.
    pub fn from_json(text: &str) -> Result<JobSpec, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let Value::Map(entries) = value else {
            return Err("job spec must be a JSON object".to_string());
        };
        let mut spec = JobSpec::default();
        for (key, v) in &entries {
            match key.as_str() {
                "pattern" => spec.pattern = expect_str(key, v)?,
                "cores" => spec.cores = expect_count(key, v)?,
                "stores" => spec.stores = expect_f64(key, v)?,
                "us" => spec.us = expect_f64(key, v)?,
                "policy" => spec.policy = expect_str(key, v)?,
                "mapping" => spec.mapping = expect_str(key, v)?,
                "inject_panic" => spec.inject_panic = expect_bool(key, v)?,
                "inject_hang" => spec.inject_hang = expect_bool(key, v)?,
                other => return Err(format!("unknown field `{other}`")),
            }
        }
        Ok(spec)
    }

    /// Serializes the spec for job-status responses.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Resolves the string-typed fields into simulator inputs, validating
    /// everything the simulator would otherwise panic on.
    ///
    /// # Errors
    ///
    /// A description of the first invalid field.
    pub fn resolve(&self) -> Result<(SystemConfig, SyntheticPattern), String> {
        if !(0.0..=1.0).contains(&self.stores) {
            return Err(format!("stores must be in [0, 1], got {}", self.stores));
        }
        if !self.us.is_finite() || self.us <= 0.0 {
            return Err(format!("us must be positive, got {}", self.us));
        }
        let pattern = match self.pattern.as_str() {
            "seq" => SyntheticPattern::sequential(self.stores),
            "rand" => SyntheticPattern::random(self.stores),
            other => return Err(format!("unknown pattern `{other}` (want seq|rand)")),
        };
        let policy = parse_policy(&self.policy)?;
        let mapping = parse_mapping(&self.mapping)?;
        let cfg = SystemConfig::paper_synthetic(self.cores, policy, mapping)
            .map_err(|e| e.to_string())?;
        Ok((cfg, pattern))
    }

    /// The job's identity in a [`Campaign`](crate::Campaign): its
    /// `(key, label)`. The key must pin everything that shapes the
    /// result: the config hash covers cores, policy and mapping, the label
    /// adds pattern, duration and store mix. Equal specs get equal keys
    /// whichever command submits them.
    ///
    /// # Errors
    ///
    /// As [`resolve`](Self::resolve).
    pub fn identity(&self) -> Result<(String, String), String> {
        let (cfg, _) = self.resolve()?;
        let label = format!(
            "{}-{}c-{:?}-{:?}-{}us-{}st",
            self.pattern, self.cores, cfg.ctrl.page_policy, cfg.ctrl.mapping, self.us, self.stores
        );
        Ok((job_key(&cfg, &label), label))
    }
}

fn expect_str(key: &str, v: &Value) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("field `{key}` must be a string")),
    }
}

fn expect_bool(key: &str, v: &Value) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("field `{key}` must be a boolean")),
    }
}

fn expect_f64(key: &str, v: &Value) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        _ => Err(format!("field `{key}` must be a number")),
    }
}

fn expect_count(key: &str, v: &Value) -> Result<usize, String> {
    match v {
        Value::Int(i) if *i > 0 => {
            usize::try_from(*i).map_err(|_| format!("field `{key}` is out of range"))
        }
        _ => Err(format!("field `{key}` must be a positive integer")),
    }
}

/// A clone-able cooperative cancellation token. Cancelling is sticky and
/// idempotent; [`run_job`] polls it every `SLICE_CYCLES` (24 000) cycles.
#[derive(Debug, Clone, Default)]
pub struct JobCancel {
    flag: Arc<AtomicBool>,
    /// Also cancelled while the process interrupt flag is set.
    on_interrupt: bool,
}

impl JobCancel {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that SIGTERM/SIGINT (or [`ckpt::request_interrupt`]) also
    /// trips: installs the process's termination-signal handler and
    /// follows the interrupt flag it sets. For one-shot command-line
    /// runs; a service that drains before it cancels hands each job a
    /// plain [`new`](Self::new) token instead.
    pub fn on_interrupt() -> Self {
        ckpt::catch_termination_signals();
        JobCancel {
            flag: Arc::default(),
            on_interrupt: true,
        }
    }

    /// Requests cancellation; safe from any thread, any number of times.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once [`cancel`](Self::cancel) has fired (or, for an
    /// [`on_interrupt`](Self::on_interrupt) token, a signal arrived).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || (self.on_interrupt && ckpt::interrupted())
    }
}

/// Where and when [`run_job`] checkpoints, through the production binary
/// delta [`CheckpointChain`].
#[derive(Debug, Clone)]
pub struct JobCheckpoint {
    /// Checkpoint directory (created if absent).
    pub dir: PathBuf,
    /// Job key — becomes the `ckpt-<key>.*` file stem.
    pub key: String,
    /// Checkpoint on every exact multiple of this many DRAM cycles; `0`
    /// checkpoints only when the run is cancelled.
    pub every: Cycle,
    /// Start from [`load_latest`](crate::ckpt::load_latest)`(dir, key)`
    /// when a complete checkpoint is there, instead of from cycle 0.
    pub resume: bool,
}

/// Per-run knobs for [`run_job`] that are consumed by the run (built
/// fresh for every supervised attempt).
#[derive(Debug, Default)]
pub struct JobOptions {
    /// Wall-clock budget for this attempt; exceeded ⇒
    /// [`JobError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Telemetry to attach (e.g. with a streaming sink installed).
    pub telemetry: Option<Telemetry>,
    /// If set, the run checkpoints here: periodically, and once more
    /// before a cancelled run returns.
    pub checkpoint: Option<JobCheckpoint>,
    /// Told, before the run continues, where a resumed run picked up: the
    /// DRAM cycle of the checkpoint it restored and the deltas replayed
    /// on top of its base. Not called when nothing was restored.
    pub on_resume: Option<fn(Cycle, u64)>,
}

/// Why a job did not produce a report.
#[derive(Debug)]
pub enum JobError {
    /// The spec did not resolve to a runnable configuration.
    Spec(String),
    /// The cancellation token fired; `checkpointed` says whether state
    /// was saved for resume.
    Cancelled {
        /// DRAM cycle the run had reached.
        cycle: Cycle,
        /// True if a checkpoint was written (a [`JobCheckpoint`] was
        /// configured and the write succeeded).
        checkpointed: bool,
    },
    /// The attempt outlived its wall-clock budget.
    DeadlineExceeded {
        /// DRAM cycle the run had reached.
        cycle: Cycle,
    },
    /// A periodic checkpoint could not be captured or written, the chain
    /// on disk could not be restored, or the finished report could not be
    /// recorded. The run stops: its caller asked for a crash-safe run and
    /// no longer has one. (The extra checkpoint of a *cancelled* run stays
    /// best-effort and reports through `Cancelled::checkpointed`.)
    Checkpoint(CkptError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Spec(msg) => write!(f, "invalid job spec: {msg}"),
            JobError::Cancelled {
                cycle,
                checkpointed,
            } => write!(
                f,
                "cancelled at cycle {cycle} ({})",
                if *checkpointed {
                    "checkpointed"
                } else {
                    "not checkpointed"
                }
            ),
            JobError::DeadlineExceeded { cycle } => {
                write!(f, "deadline exceeded at cycle {cycle}")
            }
            JobError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<CkptError> for JobError {
    fn from(e: CkptError) -> Self {
        JobError::Checkpoint(e)
    }
}

/// Runs one job to completion, cancellation or deadline.
///
/// With `checkpoint.resume`, starts from the latest complete checkpoint
/// on disk, decoded once, and tells `on_resume` where. Then advances the simulator in steps that end on the next
/// `SLICE_CYCLES` (24 000) mark or the next multiple of `checkpoint.every`,
/// whichever comes first; after each step it beats `pulse` (so a
/// supervising watchdog sees liveness), checkpoints if the step
/// ended on an `every` boundary, polls `cancel` — a cancelled run
/// checkpoints once more so a later resume continues from right here —
/// and checks the wall-clock deadline. Neither slicing nor checkpointing
/// changes results: a completed job's report is bit-identical (modulo
/// `perf`) to an unsliced
/// [`run_synthetic`](crate::experiments::run_synthetic) of the same spec,
/// interrupted and resumed or not.
///
/// The `inject_panic` / `inject_hang` spec knobs deliberately misbehave
/// *inside* the job so supervision layers can be tested end to end:
/// a panic unwinds immediately; a hang spins without pulsing until the
/// watchdog abandons it (it still honors `cancel`, so abandoned hang
/// threads can be reclaimed on drain instead of leaking forever).
///
/// # Errors
///
/// [`JobError`] — invalid spec/config, cancelled, over deadline, or a
/// checkpoint that could not be written or restored.
pub fn run_job(
    spec: &JobSpec,
    pulse: &JobPulse,
    cancel: &JobCancel,
    opts: JobOptions,
) -> Result<SimReport, JobError> {
    let (cfg, pattern) = spec.resolve().map_err(JobError::Spec)?;
    if spec.inject_panic {
        panic!("injected failure: job requested inject_panic");
    }
    if spec.inject_hang {
        // No pulse beats on purpose — the supervisor's stall watchdog
        // must fire. Honoring cancel keeps the abandoned thread from
        // outliving a drain.
        loop {
            if cancel.is_cancelled() {
                return Err(JobError::Cancelled {
                    cycle: 0,
                    checkpointed: false,
                });
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let end = cfg.us_to_cycles(spec.us);
    let mut sim = Simulator::with_synthetic(cfg, pattern);
    if let Some(t) = opts.telemetry {
        sim.attach_telemetry(t);
    }
    let checkpoint = opts.checkpoint.as_ref();
    if let Some(c) = checkpoint.filter(|c| c.resume) {
        if let Some(loaded) = ckpt::load_latest(&c.dir, &c.key) {
            sim.restore(&loaded.snapshot).map_err(CkptError::from)?;
            if let Some(on_resume) = opts.on_resume {
                on_resume(loaded.snapshot.dram_cycle, loaded.deltas_applied);
            }
        }
    }
    let every = checkpoint.map(|c| c.every).filter(|&every| every > 0);
    let mut chain: Option<CheckpointChain> = None;
    let started = Instant::now();
    while sim.now() < end {
        let boundary = every.map(|every| (sim.now() / every + 1) * every);
        let slice = end.min(sim.now() + SLICE_CYCLES);
        sim.advance_to_cycle(boundary.map_or(slice, |b| b.min(slice)));
        pulse.beat();
        let cancelled = cancel.is_cancelled();
        let mut saved = false;
        if let Some(c) = checkpoint {
            if cancelled || boundary == Some(sim.now()) {
                match write_checkpoint(&mut chain, c, &mut sim) {
                    Ok(()) => saved = true,
                    // Best effort for the extra checkpoint of a cancelled
                    // run: failing to save must not turn a clean
                    // cancellation into an error.
                    Err(_) if cancelled => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        if cancelled {
            let flushed = chain.take().map_or(Ok(()), CheckpointChain::finish);
            return Err(JobError::Cancelled {
                cycle: sim.now(),
                checkpointed: saved && flushed.is_ok(),
            });
        }
        if opts
            .deadline
            .is_some_and(|budget| started.elapsed() >= budget)
        {
            return Err(JobError::DeadlineExceeded { cycle: sim.now() });
        }
    }
    if let Some(chain) = chain {
        chain.finish().map_err(CkptError::from)?;
    }
    Ok(sim.report())
}

/// Captures one checkpoint of `sim` into the job's chain, opening the
/// chain (and its writer thread) on first use so a run that never
/// checkpoints never touches the directory.
fn write_checkpoint(
    chain: &mut Option<CheckpointChain>,
    c: &JobCheckpoint,
    sim: &mut Simulator,
) -> Result<(), CkptError> {
    if chain.is_none() {
        *chain = Some(CheckpointChain::new(&c.dir, &c.key)?);
    }
    chain.as_mut().expect("opened just above").checkpoint(sim)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::load_latest;
    use crate::experiments::run_synthetic;

    #[test]
    fn from_json_defaults_and_overrides() {
        let spec = JobSpec::from_json("{}").unwrap();
        assert_eq!(spec, JobSpec::default());

        let spec =
            JobSpec::from_json(r#"{"pattern":"rand","cores":4,"stores":0.3,"us":5}"#).unwrap();
        assert_eq!(spec.pattern, "rand");
        assert_eq!(spec.cores, 4);
        assert!((spec.stores - 0.3).abs() < 1e-12);
        assert!((spec.us - 5.0).abs() < 1e-12);
        assert_eq!(spec.policy, "open");
    }

    #[test]
    fn from_json_rejects_garbage_with_typed_messages() {
        let err = JobSpec::from_json("not json").unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");
        let err = JobSpec::from_json("[1,2]").unwrap_err();
        assert!(err.contains("must be a JSON object"), "{err}");
        let err = JobSpec::from_json(r#"{"corse":2}"#).unwrap_err();
        assert!(err.contains("unknown field `corse`"), "{err}");
        let err = JobSpec::from_json(r#"{"cores":"two"}"#).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        let err = JobSpec::from_json(r#"{"cores":0}"#).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn resolve_rejects_out_of_range_fields() {
        let mut spec = JobSpec {
            stores: 1.5,
            ..JobSpec::default()
        };
        assert!(spec.resolve().unwrap_err().contains("stores"));
        spec.stores = 0.0;
        spec.us = 0.0;
        assert!(spec.resolve().unwrap_err().contains("us must be positive"));
        spec.us = 1.0;
        spec.pattern = "zigzag".to_string();
        assert!(spec.resolve().unwrap_err().contains("unknown pattern"));
        spec.pattern = "seq".to_string();
        spec.cores = 100_000;
        assert!(spec.resolve().unwrap_err().contains("at most 64 cores"));
    }

    #[test]
    fn run_job_matches_direct_run_bit_identically() {
        let spec = JobSpec {
            pattern: "rand".to_string(),
            cores: 2,
            stores: 0.2,
            us: 5.0,
            ..JobSpec::default()
        };
        let pulse = JobPulse::default();
        let report = run_job(&spec, &pulse, &JobCancel::new(), JobOptions::default()).unwrap();
        let direct = run_synthetic(
            2,
            dramstack_workloads::SyntheticPattern::random(0.2),
            PagePolicy::Open,
            MappingScheme::RowBankColumn,
            5.0,
        )
        .unwrap();
        assert_eq!(report.strip_perf(), direct.strip_perf());
        assert!(pulse.beats() > 0);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dramstack-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `every == 0` is serve's setting and `--checkpoint-every 0`: no
    /// periodic checkpoints, yet a cancel still lands within one slice,
    /// saves the state, and a resume finishes the run unchanged.
    #[test]
    fn cancel_without_periodic_checkpoints_is_prompt_and_resumes_identically() {
        let dir = scratch_dir("cancel");
        let spec = JobSpec {
            pattern: "rand".to_string(),
            cores: 2,
            stores: 0.2,
            us: 60.0, // three slices
            ..JobSpec::default()
        };
        let checkpoint = |resume| JobOptions {
            checkpoint: Some(JobCheckpoint {
                dir: dir.clone(),
                key: "cancelled".to_string(),
                every: 0,
                resume,
            }),
            ..JobOptions::default()
        };
        let cancel = JobCancel::new();
        cancel.cancel(); // fires on the first slice boundary
        let err = run_job(&spec, &JobPulse::default(), &cancel, checkpoint(false)).unwrap_err();
        match err {
            JobError::Cancelled {
                cycle,
                checkpointed,
            } => {
                assert_eq!(cycle, SLICE_CYCLES, "cancel is seen at the first poll");
                assert!(checkpointed);
            }
            other => panic!("expected Cancelled, got {other}"),
        }
        let loaded = load_latest(&dir, "cancelled").expect("checkpoint written");
        assert_eq!(loaded.snapshot.dram_cycle, SLICE_CYCLES);

        let resumed = run_job(
            &spec,
            &JobPulse::default(),
            &JobCancel::new(),
            checkpoint(true),
        )
        .unwrap();
        let whole = run_job(
            &spec,
            &JobPulse::default(),
            &JobCancel::new(),
            JobOptions::default(),
        )
        .unwrap();
        assert_eq!(resumed.strip_perf(), whole.strip_perf());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The one policy for checkpoint I/O: a periodic checkpoint that
    /// cannot be written fails the run with a typed error, while the
    /// extra checkpoint of a cancelled run stays best-effort.
    #[test]
    fn unwritable_checkpoint_dir_is_a_typed_error_unless_cancelled() {
        let file = scratch_dir("notadir");
        std::fs::write(&file, b"in the way").unwrap();
        let spec = JobSpec {
            us: 5.0,
            ..JobSpec::default()
        };
        let under_a_file = |every| JobOptions {
            checkpoint: Some(JobCheckpoint {
                dir: file.join("ckpt"),
                key: "k".to_string(),
                every,
                resume: false,
            }),
            ..JobOptions::default()
        };
        let err = run_job(
            &spec,
            &JobPulse::default(),
            &JobCancel::new(),
            under_a_file(1_000),
        )
        .unwrap_err();
        assert!(
            matches!(err, JobError::Checkpoint(CkptError::Io(_))),
            "{err}"
        );

        let cancel = JobCancel::new();
        cancel.cancel();
        let err = run_job(&spec, &JobPulse::default(), &cancel, under_a_file(0)).unwrap_err();
        assert!(
            matches!(
                err,
                JobError::Cancelled {
                    checkpointed: false,
                    ..
                }
            ),
            "{err}"
        );
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn deadline_is_enforced() {
        let spec = JobSpec {
            us: 10_000.0,
            ..JobSpec::default()
        };
        let err = run_job(
            &spec,
            &JobPulse::default(),
            &JobCancel::new(),
            JobOptions {
                deadline: Some(Duration::from_millis(0)),
                ..JobOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, JobError::DeadlineExceeded { .. }), "{err}");
    }
}
