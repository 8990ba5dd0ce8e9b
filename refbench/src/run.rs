//! The end-to-end harness: interleaved rounds, one fresh process each,
//! condensed into best-round metrics with median and IQR beside them.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::env::Machine;
use crate::metrics::{EndToEnd, END_TO_END, ESTIMATOR, SERVE_END_TO_END};
use crate::stats::{percentile, Summary};
use crate::workloads::{segment_floor, RoundResult, Scale, Workload};

/// A round's process that outlives this is killed and counted as failed.
const ROUND_TIMEOUT: Duration = Duration::from_secs(60);

/// When to stop starting rounds.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many rounds of every workload.
    Rounds(usize),
    /// Once this many seconds have passed, but not before [`MIN_ROUNDS`].
    Seconds(f64),
}

/// Fewest rounds a time budget may cut a run to: three values are the least
/// that have quartiles inside the data.
pub const MIN_ROUNDS: usize = 3;

/// Kills and reaps the child when dropped, so a harness panic leaves no
/// process behind.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs one round in a fresh child process (`refbench one ...`) and reads
/// the [`RoundResult`] it prints. A child that crashes, prints nonsense or
/// outlives [`ROUND_TIMEOUT`] is a failed operation, not a harness abort.
pub fn child_round(w: Workload, seed: u64, verify: bool) -> RoundResult {
    let lost = |why: String| RoundResult::lost(w, seed, why);
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return lost(format!("current_exe: {e}")),
    };
    let spawned = Command::new(exe)
        .args(["one", "--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--verify", if verify { "1" } else { "0" }])
        // One malloc arena: with glibc's default of up to eight per CPU, the
        // threaded serve round's peak RSS is 26 to 38 MB depending on which
        // thread got which arena; with one it is the program's need, 12 MB,
        // within 2 %. Wall time does not move.
        .env("MALLOC_ARENA_MAX", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(child) => Reaper(child),
        Err(e) => return lost(format!("spawn: {e}")),
    };
    // Read the result while the child runs: it can exceed the pipe's
    // capacity, and a child blocked on a full pipe would look like a hang.
    let mut pipe = child.0.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut stdout = String::new();
        let _ = pipe.read_to_string(&mut stdout);
        stdout
    });
    let deadline = Instant::now() + ROUND_TIMEOUT;
    let status = loop {
        match child.0.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => break Err(format!("no result within {ROUND_TIMEOUT:?}; killed")),
            Err(e) => break Err(format!("wait: {e}")),
        }
    };
    // Killing the child (if it still runs) closes the pipe and ends the reader.
    drop(child);
    let stdout = reader.join().unwrap_or_default();
    match status {
        Err(why) => return lost(why),
        Ok(status) if !status.success() => {
            return lost(format!("round process ended with {status}"))
        }
        Ok(_) => {}
    }
    match stdout
        .lines()
        .last()
        .map(serde_json::from_str::<RoundResult>)
    {
        Some(Ok(result)) => result,
        Some(Err(e)) => lost(format!("round result does not parse: {e}")),
        None => lost("round process printed nothing".to_string()),
    }
}

/// One workload's rounds, condensed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    /// End-to-end metrics by name (serve adds its three), each with the
    /// reported value (`best`), median, IQR and every round's raw value.
    pub metrics: Vec<(String, Summary)>,
    /// `strip_perf()` digest, identical in every round or the run failed.
    pub digest: String,
    pub counts: Vec<(String, u64)>,
    pub sim_stats: Vec<(String, f64)>,
    /// Operations (rounds; jobs on serve) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// IQR of `wall_s` across rounds as a share of its median.
    pub noise_iqr_share: f64,
    pub rounds: usize,
    /// Jobs behind the serve latency percentiles (0 elsewhere).
    pub latency_samples: usize,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The value of end-to-end metric `name` in one measured round.
fn round_value(name: &str, r: &RoundResult) -> f64 {
    match name {
        "setup_s" => r.setup_s,
        "wall_s" => r.wall_s,
        "sim_mcps" => r.sim_cycles as f64 / r.wall_s / 1e6,
        "host_ns_per_req" => r.wall_s * 1e9 / r.requests.max(1) as f64,
        "cpu_s" => r.cpu_s,
        "peak_rss_mb" => r.peak_rss_mb,
        // The reported percentiles are taken over the jobs of all rounds
        // (see `condense`); listed per round are its median and slowest job.
        "job_latency_p50_ms" => percentile(&r.job_latencies_ms, 50.0).unwrap_or(0.0),
        "job_latency_p90_ms" => r.job_latencies_ms.iter().copied().fold(0.0, f64::max),
        "jobs_per_s" => r.job_latencies_ms.len() as f64 / r.wall_s,
        other => unreachable!("no end-to-end metric named {other}"),
    }
}

/// The quiet-machine floor of `wall_s` and `cpu_s` of a simulator workload:
/// [`segment_floor`] over the rounds, plus, for `cpu_s`, the least CPU any
/// round spent before its first segment (set-up).
fn floors(measured: &[&RoundResult]) -> Option<(f64, f64)> {
    let segments: Vec<&[(f64, f64)]> = measured.iter().map(|r| r.segments.as_slice()).collect();
    let (wall, cpu) = segment_floor(&segments)?;
    let before = measured
        .iter()
        .map(|r| r.cpu_s - r.segments.iter().map(|s| s.1).sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    Some((wall, before + cpu))
}

/// Condenses the rounds of one workload. Host-time metrics come from the
/// measured rounds only; a lost round still counts as a failed operation.
/// Rounds of one workload and seed must agree on every count and digest.
pub fn condense(w: Workload, seed: u64, rounds: &[RoundResult]) -> WorkloadResult {
    let measured: Vec<&RoundResult> = rounds.iter().filter(|r| r.measured()).collect();
    let defs: Vec<&EndToEnd> = if w == Workload::ServeClosed2c {
        END_TO_END.iter().chain(&SERVE_END_TO_END).collect()
    } else {
        END_TO_END.iter().collect()
    };
    let mut metrics: Vec<(String, Summary)> = defs
        .iter()
        .map(|def| {
            let values = measured.iter().map(|r| round_value(def.name, r)).collect();
            (def.name.to_string(), Summary::new(values, def.better))
        })
        .collect();
    let mut report = |name: &str, value: f64| {
        if let Some((_, s)) = metrics.iter_mut().find(|(n, _)| n == name) {
            s.best = value;
        }
    };
    if let (Some((wall, cpu)), Some(r)) = (floors(&measured), measured.first()) {
        report("wall_s", wall);
        report("sim_mcps", r.sim_cycles as f64 / wall / 1e6);
        report("host_ns_per_req", wall * 1e9 / r.requests.max(1) as f64);
        report("cpu_s", cpu);
    }
    let jobs: Vec<f64> = measured
        .iter()
        .flat_map(|r| r.job_latencies_ms.iter().copied())
        .collect();
    for (name, p) in [("job_latency_p50_ms", 50.0), ("job_latency_p90_ms", 90.0)] {
        if let Ok(value) = percentile(&jobs, p) {
            report(name, value);
        }
    }
    let mut failures: Vec<String> = rounds
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            r.failures
                .iter()
                .map(move |f| format!("round {}: {f}", i + 1))
        })
        .collect();
    let mut failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let first = measured.first();
    if let Some(first) = first {
        if measured
            .iter()
            .any(|r| r.digest != first.digest || r.counts != first.counts)
        {
            failed += 1;
            failures.push("rounds of one seed differ in counts or digest".to_string());
        }
    }
    let noise = metrics
        .iter()
        .find(|(n, _)| n == "wall_s")
        .map_or(0.0, |(_, s)| s.iqr_share());
    WorkloadResult {
        workload: w.name().to_string(),
        seed,
        metrics,
        digest: first.map(|r| r.digest.clone()).unwrap_or_default(),
        counts: first.map(|r| r.counts.clone()).unwrap_or_default(),
        sim_stats: first.map(|r| r.sim_stats.clone()).unwrap_or_default(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed,
        failures,
        noise_iqr_share: noise,
        rounds: rounds.len(),
        latency_samples: jobs.len(),
    }
}

/// Runs rounds round-robin over `workloads` (round 1 of every workload,
/// then round 2, ...), so that a noisy phase of the shared machine costs
/// each workload one round, not one workload all of its rounds. The first
/// round of each workload also runs the slow cross-checks.
pub fn run_rounds(
    workloads: &[Workload],
    seed: u64,
    stop: Stop,
    round: &mut dyn FnMut(Workload, u64, bool) -> RoundResult,
) -> Vec<WorkloadResult> {
    let started = Instant::now();
    let mut rounds: Vec<Vec<RoundResult>> = vec![Vec::new(); workloads.len()];
    let mut done = 0;
    loop {
        let more = match stop {
            Stop::Rounds(n) => done < n,
            Stop::Seconds(s) => done < MIN_ROUNDS || started.elapsed().as_secs_f64() < s,
        };
        if !more {
            break;
        }
        for (w, results) in workloads.iter().zip(&mut rounds) {
            results.push(round(*w, seed, done == 0));
        }
        done += 1;
    }
    workloads
        .iter()
        .zip(&rounds)
        .map(|(w, r)| condense(*w, seed, r))
        .collect()
}

/// A complete result set: what `--out` writes and `check` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunFile {
    pub machine: Machine,
    pub seed: u64,
    pub scale: String,
    pub estimator: String,
    pub results: Vec<WorkloadResult>,
}

impl RunFile {
    pub fn new(machine: Machine, seed: u64, scale: Scale, results: Vec<WorkloadResult>) -> RunFile {
        RunFile {
            machine,
            seed,
            scale: scale.pick("full", "smoke").to_string(),
            estimator: ESTIMATOR.to_string(),
            results,
        }
    }

    pub fn failed(&self) -> u64 {
        self.results.iter().map(|r| r.failed).sum()
    }
}

fn fmt_values(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", shown.join(", "))
}

/// The human-readable table: one block per workload, every metric with its
/// unit, direction, best round, median, IQR, bound and raw round values.
pub fn render(file: &RunFile) -> String {
    use std::fmt::Write;
    let m = &file.machine;
    let mut out = String::new();
    let _ =
        writeln!(
        out,
        "refbench  commit {}  {}  nproc {}  {}\nloadavg {} -> {}  seed {}  scale {}  estimator: {}",
        m.git_commit, m.rustc, m.nproc, m.cpu_model, m.loadavg_start, m.loadavg_end, file.seed,
        file.scale, file.estimator
    );
    let _ = writeln!(
        out,
        "The timing model is checked against the closed-form refresh share only; it is otherwise unvalidated against hardware, so no error figure is given."
    );
    for r in &file.results {
        let _ = writeln!(
            out,
            "\n{}  rounds {}  failed {}/{} operations  digest {}  wall_s noise (IQR/median) {:.4}",
            r.workload, r.rounds, r.failed, r.attempted, r.digest, r.noise_iqr_share
        );
        if let Some(w) = Workload::parse(&r.workload) {
            let _ = writeln!(out, "  why: {}", w.why());
        }
        if r.latency_samples > 0 {
            let _ = writeln!(out, "  latency percentiles over {} jobs", r.latency_samples);
        }
        let _ = writeln!(
            out,
            "  {:<20} {:<10} {:<7} {:>12} {:>12} {:>10} {:>6}  rounds",
            "metric", "unit", "better", "best", "median", "iqr", "bound"
        );
        for (name, s) in &r.metrics {
            let def = crate::metrics::end_to_end(name).expect("condense uses defined names");
            let _ = writeln!(
                out,
                "  {:<20} {:<10} {:<7} {:>12.5} {:>12.5} {:>10.5} {:>6.2}  {}",
                name,
                def.unit,
                def.better.as_str(),
                s.best,
                s.median,
                s.iqr,
                def.bound,
                fmt_values(&s.values)
            );
        }
        let stats: Vec<String> = r
            .sim_stats
            .iter()
            .map(|(k, v)| format!("{k} {v:.4}"))
            .collect();
        let counts: Vec<String> = r.counts.iter().map(|(k, v)| format!("{k} {v}")).collect();
        let _ = writeln!(out, "  simulated (not bounded): {}", stats.join(", "));
        let _ = writeln!(out, "  counts (exact): {}", counts.join(", "));
        for f in &r.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
    }
    let _ = writeln!(out, "\nmetrics (host time unless it says simulated):");
    for def in END_TO_END.iter().chain(&SERVE_END_TO_END) {
        let _ = writeln!(out, "  {:<20} {}", def.name, def.what);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(wall_s: f64, digest: &str) -> RoundResult {
        RoundResult {
            setup_s: 0.1,
            wall_s,
            cpu_s: wall_s + 0.1,
            peak_rss_mb: 50.0,
            sim_cycles: 1_200_000,
            requests: 300_000,
            digest: digest.to_string(),
            counts: vec![("reads_done".to_string(), 300_000)],
            failed: 0,
            failures: Vec::new(),
            ..RoundResult::lost(Workload::StreamRd8c, 1, String::new())
        }
    }

    #[test]
    fn best_round_is_reported_and_lost_rounds_count_as_failed() {
        let rounds = vec![
            round(1.5, "aa"),
            round(1.0, "aa"),
            RoundResult::lost(Workload::StreamRd8c, 1, "killed".to_string()),
            round(1.2, "aa"),
        ];
        let r = condense(Workload::StreamRd8c, 1, &rounds);
        assert_eq!(r.metric("wall_s").unwrap().best, 1.0);
        assert_eq!(r.metric("wall_s").unwrap().values, vec![1.5, 1.0, 1.2]);
        assert!((r.metric("sim_mcps").unwrap().best - 1.2).abs() < 1e-9);
        assert!((r.metric("host_ns_per_req").unwrap().best - 1e9 / 300_000.0).abs() < 1e-6);
        assert_eq!((r.attempted, r.failed, r.rounds), (4, 1, 4));
        assert!(r.failures[0].contains("round 3: killed"));
        assert!(r.noise_iqr_share > 0.0);
        assert!(r.metric("jobs_per_s").is_none(), "serve-only metric");
    }

    #[test]
    fn wall_and_cpu_are_the_sum_of_each_segments_fastest_round() {
        // Three segments; a burst hits a different one in each round, so
        // no whole round is clean but every segment is, somewhere.
        let mut a = round(1.6, "aa");
        a.segments = vec![(0.9, 0.9), (0.3, 0.3), (0.4, 0.4)];
        a.cpu_s = 0.1 + 1.6;
        let mut b = round(1.5, "aa");
        b.segments = vec![(0.5, 0.5), (0.6, 0.6), (0.4, 0.4)];
        b.cpu_s = 0.2 + 1.5;
        let r = condense(Workload::StreamRd8c, 1, &[a.clone(), b]);
        let wall = r.metric("wall_s").unwrap();
        assert!((wall.best - 1.2).abs() < 1e-12, "0.5 + 0.3 + 0.4");
        assert_eq!(wall.values, vec![1.6, 1.5], "whole rounds stay listed");
        assert!(
            (r.metric("cpu_s").unwrap().best - 1.3).abs() < 1e-12,
            "0.1 before + 1.2"
        );
        assert!((r.metric("sim_mcps").unwrap().best - 1.0).abs() < 1e-12);
        assert!((r.metric("host_ns_per_req").unwrap().best - 4000.0).abs() < 1e-9);
        // Rounds that disagree on their segments fall back to the best round.
        let mut c = round(1.4, "aa");
        c.segments = vec![(1.4, 1.4)];
        let r = condense(Workload::StreamRd8c, 1, &[a, c]);
        assert_eq!(r.metric("wall_s").unwrap().best, 1.4);
    }

    #[test]
    fn rounds_that_disagree_are_a_failure() {
        let r = condense(
            Workload::StreamRd8c,
            1,
            &[round(1.0, "aa"), round(1.0, "bb")],
        );
        assert_eq!(r.failed, 1);
        assert!(r.failures[0].contains("differ"));
    }

    #[test]
    fn rounds_interleave_and_the_first_verifies() {
        let mut calls = Vec::new();
        let results = run_rounds(
            &[Workload::StreamRd8c, Workload::Chase1c],
            3,
            Stop::Rounds(2),
            &mut |w, seed, verify| {
                calls.push((w.name(), seed, verify));
                round(1.0, "aa")
            },
        );
        assert_eq!(
            calls,
            vec![
                ("stream_rd_8c", 3, true),
                ("chase_1c", 3, true),
                ("stream_rd_8c", 3, false),
                ("chase_1c", 3, false),
            ]
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].workload, "chase_1c");
        // A time budget never cuts below the minimum round count.
        let mut n = 0;
        run_rounds(
            &[Workload::Chase1c],
            1,
            Stop::Seconds(0.0),
            &mut |_, _, _| {
                n += 1;
                round(1.0, "aa")
            },
        );
        assert_eq!(n, MIN_ROUNDS);
    }

    #[test]
    fn serve_rounds_add_latency_percentiles() {
        // Two rounds of 50 jobs: the percentiles are over all 100.
        let mut early = round(2.0, "aa");
        early.job_latencies_ms = (1..=50).map(f64::from).collect();
        let mut late = round(2.5, "aa");
        late.job_latencies_ms = (51..=100).map(f64::from).collect();
        let out = condense(Workload::ServeClosed2c, 1, &[early, late]);
        assert_eq!(out.metric("job_latency_p50_ms").unwrap().best, 50.0);
        assert_eq!(out.metric("job_latency_p90_ms").unwrap().best, 90.0);
        assert_eq!(
            out.metric("job_latency_p90_ms").unwrap().values,
            [50.0, 100.0]
        );
        assert_eq!(out.metric("jobs_per_s").unwrap().best, 25.0);
        assert_eq!(
            out.metric("wall_s").unwrap().best,
            2.0,
            "no segments: best round"
        );
        let file = RunFile::new(Machine::describe(), 1, Scale::Full, vec![out]);
        let text = render(&file);
        assert!(text.contains("job_latency_p90_ms") && text.contains("unvalidated"));
        let back: RunFile = serde_json::from_str(&serde_json::to_string(&file).unwrap()).unwrap();
        assert_eq!(back, file);
    }
}
