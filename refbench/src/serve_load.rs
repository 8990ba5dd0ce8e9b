//! `serve_closed_2c`: an in-process `serve` daemon under a closed loop of
//! two clients, each sending its next job only when the previous one is
//! back. Two client threads and one worker, because the machine has two
//! CPUs. A round is a fresh daemon, a warm-up and 2 x 10 jobs.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;

use dramstack::dram::Cycle;
use dramstack::serve::{Client, ClientError, ServeConfig, ServeStats, Server, ServerHandle};
use dramstack::sim::parallel::JobPulse;
use dramstack::sim::{run_job, JobCancel, JobOptions, JobSpec, SimReport, SystemConfig};
use dramstack::workloads::SyntheticPattern;

use crate::env;
use crate::spans::Recorder;
use crate::workloads::{check_report, digest, report_digest, RoundResult, Scale, Workload};

/// The two job specs the clients alternate between (seed-shuffled).
pub const SPECS: [&str; 2] = [
    r#"{"pattern":"seq","cores":2,"us":20}"#,
    r#"{"pattern":"rand","cores":2,"stores":0.3,"us":20}"#,
];

pub const CLIENTS: usize = 2;

/// Jobs per client in one end-to-end round. Rounds are short so that many
/// fit in a run and the best of them meets a quiet half-second of the shared
/// machine; the latency percentiles are taken over the jobs of all rounds.
pub fn jobs_per_round(scale: Scale) -> usize {
    scale.pick(10, 2)
}

/// Jobs per client in the traced round: 2 x 50 jobs leave exactly ten
/// samples beyond p90 in a single round.
pub fn jobs_per_traced_round(scale: Scale) -> usize {
    scale.pick(50, 2)
}

/// A running daemon that is drained and joined when dropped, so neither an
/// early return nor a harness panic leaves it behind.
struct Daemon {
    handle: ServerHandle,
    thread: Option<JoinHandle<ServeStats>>,
    addr: String,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_cap: 4,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        Ok(Daemon {
            addr: server.local_addr().to_string(),
            handle: server.handle(),
            thread: Some(std::thread::spawn(move || server.serve())),
        })
    }

    fn client(&self) -> Client {
        let mut c = Client::new(self.addr.clone());
        // A retry would hide a failure inside a longer latency.
        c.retries = 0;
        c
    }

    /// Drains, joins and returns the daemon's final tallies.
    fn stop(mut self) -> Option<ServeStats> {
        self.handle.drain();
        self.thread.take().and_then(|t| t.join().ok())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.handle.drain();
            let _ = t.join();
        }
    }
}

/// The order of spec indices for each client: equally many of each spec,
/// shuffled by `seed` (xorshift, Fisher-Yates), split between the clients.
pub fn job_order(seed: u64, per_client: usize) -> Vec<Vec<usize>> {
    let total = per_client * CLIENTS;
    let mut order: Vec<usize> = (0..total).map(|i| i % SPECS.len()).collect();
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..total).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order.chunks(per_client).map(<[usize]>::to_vec).collect()
}

/// One job as a client saw it.
#[derive(Debug)]
pub struct JobRecord {
    pub spec: usize,
    pub latency_ms: f64,
    pub body_bytes: usize,
    /// The report the daemon returned, or why the job counts as failed.
    pub outcome: Result<SimReport, String>,
    pub shed: bool,
}

fn failed(spec: usize, t0: Instant, shed: bool, why: String) -> JobRecord {
    JobRecord {
        spec,
        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
        body_bytes: 0,
        outcome: Err(why),
        shed,
    }
}

/// Submit, wait on the stream until the hub closes, fetch the status until
/// it is no longer `queued` or `running`. Timed from the first byte written
/// to the last byte of that status read; parsing comes after the clock.
fn one_job(client: &Client, spec: usize, rec: &mut Recorder) -> JobRecord {
    let t0 = Instant::now();
    let id = match rec.span("serve.submit", |_| client.submit_job(SPECS[spec])) {
        Ok(id) => id,
        Err(e) => {
            let shed = matches!(e, ClientError::Status { code: 429, .. });
            return failed(spec, t0, shed, format!("submit: {e}"));
        }
    };
    if let Err(e) = rec.span("serve.wait", |_| client.stream_lines(id)) {
        return failed(spec, t0, false, format!("stream of job {id}: {e}"));
    }
    let deadline = t0 + Duration::from_secs(30);
    let (body, latency_ms, status) = loop {
        let body = match rec.span("serve.fetch", |_| client.job_status(id)) {
            Ok(body) => body,
            Err(e) => return failed(spec, t0, false, format!("status of job {id}: {e}")),
        };
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let status = match serde_json::from_str::<Value>(&body) {
            Ok(status) => status,
            Err(e) => return failed(spec, t0, false, format!("status of job {id}: {e}")),
        };
        match status.get("status").and_then(Value::as_str) {
            Some("queued" | "running") if Instant::now() < deadline => std::thread::yield_now(),
            Some("queued" | "running") => {
                return failed(spec, t0, false, format!("job {id} never finished"))
            }
            _ => break (body, latency_ms, status),
        }
    };
    let outcome = match status.get("status").and_then(Value::as_str) {
        Some("done") => status
            .get("report")
            .ok_or_else(|| format!("job {id} is done without a report"))
            .and_then(|r| {
                serde_json::from_value::<SimReport>(r)
                    .map_err(|e| format!("report of job {id} does not parse: {e}"))
            }),
        other => Err(format!("job {id} ended {other:?}, not done")),
    };
    JobRecord {
        spec,
        latency_ms,
        body_bytes: body.len(),
        outcome,
        shed: false,
    }
}

/// What one closed-loop round produced, before it is condensed.
#[derive(Debug)]
pub struct ServeRound {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Jobs of the closed loop (warm-up excluded) in client order, then job
    /// order.
    pub jobs: Vec<JobRecord>,
    pub stats: Option<ServeStats>,
    /// `/healthz` round trips in ms, taken before the load (traced only).
    pub http_rtt_ms: Vec<f64>,
}

/// Runs the daemon and the closed loop. `started` is the entry of `main`;
/// `rec` collects per-job spans when it is on, and then `/healthz` is also
/// probed `rtt_probes` times before the load starts.
///
/// Set-up ends when `/readyz` answers ready and one warm-up job of each spec
/// has come back: what a user of a fresh daemon waits for before the first
/// results, and a quantity large enough to measure (binding alone takes
/// half a millisecond).
///
/// # Errors
///
/// The daemon could not be bound, never became ready, or failed a warm-up
/// job.
pub fn run_load(
    seed: u64,
    jobs_per_client: usize,
    started: Instant,
    rec: &mut Recorder,
    rtt_probes: usize,
) -> Result<ServeRound, String> {
    let daemon = Daemon::start()?;
    let probe = daemon.client();
    let ready_by = Instant::now() + Duration::from_secs(10);
    while !matches!(probe.readyz(), Ok(true)) {
        if Instant::now() > ready_by {
            return Err("daemon not ready within 10 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for spec in 0..SPECS.len() {
        one_job(&probe, spec, &mut Recorder::off())
            .outcome
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let setup_s = started.elapsed().as_secs_f64();

    let http_rtt_ms = (0..rtt_probes)
        .filter_map(|_| {
            let t = Instant::now();
            probe
                .healthz()
                .ok()
                .map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();

    let origin = Instant::now();
    let order = job_order(seed, jobs_per_client);
    let traced = rec.enabled();
    let per_client: Vec<(Vec<JobRecord>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = order
            .iter()
            .enumerate()
            .map(|(c, specs)| {
                let client = daemon.client();
                s.spawn(move || {
                    let mut rec = if traced {
                        Recorder::new(origin, c as u64 + 1)
                    } else {
                        Recorder::off()
                    };
                    let jobs = specs
                        .iter()
                        .enumerate()
                        .map(|(j, &spec)| {
                            rec.set_id((c * specs.len() + j) as u64);
                            rec.span("serve.job", |rec| one_job(&client, spec, rec))
                        })
                        .collect();
                    (jobs, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let (cpu_s, peak_rss_mb) = (env::cpu_seconds(), env::peak_rss_mb());
    let stats = daemon.stop();

    let mut jobs = Vec::new();
    for (client_jobs, client_rec) in per_client {
        jobs.extend(client_jobs);
        rec.absorb(client_rec);
    }
    Ok(ServeRound {
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mb,
        jobs,
        stats,
        http_rtt_ms,
    })
}

/// Spec `index` of [`SPECS`], resolved: the configuration, the pattern and
/// the horizon in cycles.
pub fn resolved_spec(index: usize) -> (SystemConfig, SyntheticPattern, Cycle) {
    let spec = JobSpec::from_json(SPECS[index]).expect("the benchmark's own specs parse");
    let (cfg, pattern) = spec.resolve().expect("the benchmark's own specs resolve");
    let end = cfg.us_to_cycles(spec.us);
    (cfg, pattern, end)
}

/// `run_job` in this process, with nothing watching or cancelling it.
pub fn run_spec(spec: &JobSpec) -> Result<SimReport, String> {
    run_job(
        spec,
        &JobPulse::default(),
        &JobCancel::new(),
        JobOptions::default(),
    )
    .map_err(|e| format!("run_job: {e}"))
}

/// The report `run_job` gives for `spec` in this process, and how long it
/// took.
pub fn run_in_process(spec: &str) -> Result<(SimReport, f64), String> {
    let spec = JobSpec::from_json(spec)?;
    let t = Instant::now();
    let report = run_spec(&spec)?;
    Ok((report, t.elapsed().as_secs_f64()))
}

/// Condenses a round into what the harness compares. An operation is a
/// job. With `verify`, the first job of each spec is also compared with
/// `run_job` in this process.
pub fn condense(seed: u64, round: &ServeRound, verify: bool) -> RoundResult {
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let (mut sim_cycles, mut requests) = (0u64, 0u64);
    let mut digests = String::new();
    let mut verified = [false; SPECS.len()];
    let resolved: Vec<_> = (0..SPECS.len()).map(resolved_spec).collect();
    for job in &round.jobs {
        let mut why = job.outcome.as_ref().err().cloned();
        if let Ok(report) = &job.outcome {
            sim_cycles += report.sim_cycles;
            requests += report.ctrl_stats.reads_done + report.ctrl_stats.writes_done;
            digests.push_str(&format!("{}:{};", job.spec, report_digest(report)));
            let (cfg, _, end) = &resolved[job.spec];
            why = check_report(cfg, Some(*end), report).into_iter().next();
            if why.is_none() && verify && !std::mem::replace(&mut verified[job.spec], true) {
                why = match run_in_process(SPECS[job.spec]) {
                    Ok((local, _)) if local.strip_perf() == report.strip_perf() => None,
                    Ok(_) => Some(format!("spec {} differs from in-process run_job", job.spec)),
                    Err(e) => Some(e),
                };
            }
        }
        if let Some(why) = why {
            failed += 1;
            failures.push(why);
        }
    }
    let shed = round.jobs.iter().filter(|j| j.shed).count() as u64
        + round.stats.as_ref().map_or(0, |s| s.shed_drain);
    if shed > 0 {
        failures.push(format!("{shed} jobs shed in a closed loop below capacity"));
    }
    if round.stats.is_none() {
        failures.push("the daemon thread panicked".to_string());
    }
    let done = round.jobs.len() as u64 - failed;
    RoundResult {
        workload: Workload::ServeClosed2c.name().to_string(),
        seed,
        setup_s: round.setup_s,
        wall_s: round.wall_s,
        cpu_s: round.cpu_s,
        peak_rss_mb: round.peak_rss_mb,
        sim_cycles,
        requests,
        digest: digest(digests.as_bytes()),
        counts: vec![
            ("sim_cycles".to_string(), sim_cycles),
            ("requests".to_string(), requests),
            ("jobs_done".to_string(), done),
        ],
        sim_stats: Vec::new(),
        attempted: round.jobs.len() as u64,
        failed: failed.max(u64::from(!failures.is_empty())),
        failures,
        job_latencies_ms: round.jobs.iter().map(|j| j.latency_ms).collect(),
        segments: Vec::new(),
    }
}

/// One untraced round in this process (the child's entry point).
pub fn run_round(seed: u64, scale: Scale, verify: bool, started: Instant) -> RoundResult {
    match run_load(
        seed,
        jobs_per_round(scale),
        started,
        &mut Recorder::off(),
        0,
    ) {
        Ok(round) => condense(seed, &round, verify),
        Err(why) => RoundResult::lost(Workload::ServeClosed2c, seed, why),
    }
}
