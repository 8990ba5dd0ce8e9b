//! `refbench`: dramstack's reference benchmark.
//!
//! ```text
//! refbench --workload W --seed N --seconds T --trace 0|1 [--out FILE]
//! refbench run   [--seed N] [--rounds R] [--workloads a,b] [--out FILE]
//! refbench trace [--seed N] [--seconds T] [--workloads a,b] [--out FILE]
//! refbench check A.json B.json
//! refbench smoke [--seed N]
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload, rounds
//! for `T` seconds, and as the last line of standard output one JSON object
//! with the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
//! See `README.md` beside this package for what each number means.

mod check;
mod env;
mod layers;
mod metrics;
mod run;
mod serve_load;
mod spans;
mod stats;
mod workloads;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use serde::Value;

use env::Machine;
use run::{RunFile, Stop};
use workloads::{Scale, Workload};

/// Rounds of `run` when `--rounds` is not given.
const DEFAULT_ROUNDS: usize = 7;

/// Seconds of `trace` per workload when `--seconds` is not given.
const DEFAULT_TRACE_SECONDS: f64 = 10.0;

/// `--key value` pairs and the words that are neither.
struct Args {
    flags: HashMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: HashMap::new(),
            words: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = raw.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.flags.insert(key.to_string(), value);
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")),
            None => Ok(default),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed", 1)
    }

    /// `--workloads a,b` (or `--workload a`), all six by default.
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        let list = self
            .flags
            .get("workloads")
            .or_else(|| self.flags.get("workload"));
        match list {
            None => Ok(Workload::ALL.to_vec()),
            Some(names) => names
                .split(',')
                .map(|n| Workload::parse(n).ok_or_else(|| format!("no workload named `{n}`")))
                .collect(),
        }
    }
}

fn write_out(args: &Args, text: &str) -> Result<(), String> {
    match args.flags.get("out") {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{path}: {e}")),
        None => Ok(()),
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Map(vec![
        ("value".to_string(), Value::Float(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

/// The line the driver reads: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: Vec<(String, Value)>) -> String {
    let doc = Value::Map(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        (
            "attempted".to_string(),
            Value::Int(i128::from(attempted.max(1))),
        ),
        ("failed".to_string(), Value::Int(i128::from(failed))),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&doc).expect("the vendored serializer is infallible")
}

/// End-to-end rounds in fresh processes; prints the table and, for a single
/// workload, the driver's result line.
fn cmd_run(args: &Args, stop: Stop) -> Result<bool, String> {
    let (seed, workloads) = (args.seed()?, args.workloads()?);
    let mut machine = Machine::describe();
    let results = run::run_rounds(&workloads, seed, stop, &mut run::child_round);
    machine.finish();
    let file = RunFile::new(machine, seed, Scale::Full, results);
    print!("{}", run::render(&file));
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    write_out(args, &json)?;
    if let [r] = file.results.as_slice() {
        let metrics = metrics::END_TO_END
            .iter()
            .map(|def| {
                let best = r.metric(def.name).map_or(0.0, |s| s.best);
                (def.name.to_string(), metric_value(best, def.unit))
            })
            .collect();
        println!("{}", result_line(r.attempted, r.failed, metrics));
    }
    Ok(file.failed() == 0)
}

/// The traced run: per-layer table, span trace, and for a single workload
/// the driver's result line.
fn cmd_trace(args: &Args, started: Instant) -> Result<bool, String> {
    let (seed, workloads) = (args.seed()?, args.workloads()?);
    let seconds: f64 = args.get("seconds", DEFAULT_TRACE_SECONDS)?;
    let mut machine = Machine::describe();
    let mut tables = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        // Only the first workload's set-up starts at process start.
        let t0 = if i == 0 { started } else { Instant::now() };
        tables.push(layers::trace_workload(*w, seed, Scale::Full, seconds, t0));
    }
    machine.finish();
    print!("{}", layers::render(&machine, seed, &tables));
    write_out(args, &layers::to_json(&machine, seed, &tables))?;
    let trace_path = layers::write_span_trace(&tables).map_err(|e| format!("span trace: {e}"))?;
    println!("spans: {}", trace_path.display());
    if let [t] = tables.as_slice() {
        let metrics = metrics::PER_LAYER
            .iter()
            .map(|def| {
                (
                    def.name.to_string(),
                    metric_value(t.value(def.name), def.unit),
                )
            })
            .collect();
        println!(
            "{}",
            result_line(1, u64::from(!t.failures.is_empty()), metrics)
        );
    }
    Ok(tables.iter().all(|t| t.failures.is_empty()))
}

/// Every workload at about 1/50 size, twice, in this process: correctness
/// checks only, no timing claims.
fn cmd_smoke(args: &Args) -> Result<bool, String> {
    let seed = args.seed()?;
    let results = run::run_rounds(&Workload::ALL, seed, Stop::Rounds(2), &mut smoke_round);
    let mut ok = true;
    for r in &results {
        println!(
            "{:<16} {} of {} operations failed, digest {}",
            r.workload, r.failed, r.attempted, r.digest
        );
        for f in &r.failures {
            println!("  FAILED: {f}");
        }
        ok &= r.failed == 0;
    }
    Ok(ok)
}

fn smoke_round(w: Workload, seed: u64, verify: bool) -> workloads::RoundResult {
    in_process_round(w, seed, Scale::Smoke, verify, Instant::now())
}

fn in_process_round(
    w: Workload,
    seed: u64,
    scale: Scale,
    verify: bool,
    started: Instant,
) -> workloads::RoundResult {
    match w {
        Workload::ServeClosed2c => serve_load::run_round(seed, scale, verify, started),
        _ => workloads::run_round(w, seed, scale, verify, started),
    }
}

fn cmd_check(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("usage: refbench check A.json B.json".to_string());
    };
    let load = |path: &String| -> Result<RunFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let cmp = check::compare(&load(a)?, &load(b)?);
    print!("{}", cmp.text);
    Ok(cmp.ok)
}

fn dispatch(args: &Args, started: Instant) -> Result<bool, String> {
    match args.words.first().map(String::as_str) {
        // The form BENCHMARK.json names.
        None if args.flags.contains_key("workload") => {
            if args.get("trace", 0u8)? == 0 {
                cmd_run(args, Stop::Seconds(args.get("seconds", 10.0)?))
            } else {
                cmd_trace(args, started)
            }
        }
        Some("run") => cmd_run(args, Stop::Rounds(args.get("rounds", DEFAULT_ROUNDS)?)),
        Some("trace") => cmd_trace(args, started),
        Some("check") => cmd_check(args),
        Some("smoke") => cmd_smoke(args),
        // One round in this (fresh) process; the harness reads the last line.
        Some("one") => {
            let w = args.workloads()?;
            let [w] = w.as_slice() else {
                return Err("one: exactly one --workload".to_string());
            };
            let verify = args.get("verify", 0u8)? != 0;
            let r = in_process_round(*w, args.seed()?, Scale::Full, verify, started);
            println!("{}", serde_json::to_string(&r).map_err(|e| e.to_string())?);
            Ok(true)
        }
        _ => Err("usage: refbench --workload W --seed N --seconds T --trace 0|1 | run | trace | check A B | smoke".to_string()),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args, started));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("refbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_split_flags_from_words() {
        let raw = ["check", "a.json", "--seed", "7", "b.json"];
        let args = Args::parse(raw.iter().map(ToString::to_string)).unwrap();
        assert_eq!(args.words, ["check", "a.json", "b.json"]);
        assert_eq!(args.seed().unwrap(), 7);
        assert_eq!(args.workloads().unwrap().len(), 6);
        assert!(Args::parse(["--seed".to_string()].into_iter()).is_err());
        let bad = Args::parse(["--workload", "nope"].iter().map(ToString::to_string)).unwrap();
        assert!(bad.workloads().is_err());
        assert!(bad.get::<u64>("workload", 0).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(0, 0, vec![("wall_s".to_string(), metric_value(1.25, "s"))]);
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }

    /// `smoke` passes every correctness check for all six workloads, and two
    /// rounds of one seed agree on every count and digest.
    #[test]
    fn smoke_passes_every_check_on_all_six_workloads() {
        let results = run::run_rounds(&Workload::ALL, 1, Stop::Rounds(2), &mut smoke_round);
        assert_eq!(results.len(), 6);
        for r in &results {
            assert_eq!(r.failed, 0, "{}: {:?}", r.workload, r.failures);
            assert!(!r.digest.is_empty() && r.attempted >= 2, "{}", r.workload);
        }
    }
}
