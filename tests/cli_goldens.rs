//! `dramstack-cli` end to end, pinned. Each row runs the built binary on
//! a short sequence of invocations in a scratch directory and compares
//! what it printed on stdout, and every file it wrote, with the goldens
//! under `tests/data/cli/<row>/`: `stdout` holds the transcript (one `$`
//! line per invocation, then its stdout), the other files mirror the
//! scratch directory. The scratch path prints as `$DIR`.
//!
//! Report JSON (`--report`, a campaign's `report-*.json`) is compared as
//! a loaded `SimReport` with its `perf` stripped and its `audit` cleared:
//! host timings differ run to run, and debug builds arm the auditor where
//! release builds do not. Every other file is compared byte for byte.
//!
//! An output change that is intended is regenerated with
//! `DRAMSTACK_REGEN_GOLDEN=1 cargo test --test cli_goldens`, and every
//! moved golden gets a line in CHANGES.md saying why it moved.

mod common;

use std::path::{Path, PathBuf};
use std::process::Command;

use dramstack::dram::{trace, CycleView};
use dramstack::memctrl::{CtrlConfig, MemoryController};
use dramstack::sim::{load_report, SimReport};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/cli");

/// Inputs the test writes for a row before running it; not compared.
const INPUT_SUFFIX: &str = ".input";

/// One golden row: its name and the invocations it runs in order, each a
/// whitespace-separated argument list in which `$DIR` names the row's
/// scratch directory.
const ROWS: &[(&str, &[&str])] = &[
    ("synth_default", &["synth"]),
    (
        "synth_flags",
        &[
            "synth --pattern random --cores 2 --stores 0.25 --policy closed --mapping int --us 20",
            "synth --pattern sequential --cores 3 --stores 0.5 --policy open --mapping xor --us 10",
        ],
    ),
    (
        "synth_outputs",
        &[
            "synth --cores 2 --us 20 --csv $DIR/bw.csv --svg $DIR/bw.svg \
           --telemetry $DIR/run.jsonl --prom $DIR/run.prom --report $DIR/report.json",
        ],
    ),
    (
        "synth_checkpoint",
        &[
            "synth --cores 2 --us 20 --checkpoint-dir $DIR/ckpt --checkpoint-every 6000",
            "synth --cores 2 --us 20 --checkpoint-dir $DIR/ckpt --checkpoint-every 6000 --resume",
        ],
    ),
    ("sweep", &["sweep --cores 1,2 --us 10"]),
    ("gap", &["gap --scale 8"]),
    ("extrapolate", &["extrapolate --to 4"]),
    (
        "diff",
        &[
            "synth --us 10 --report $DIR/before.json",
            "synth --cores 4 --us 10 --report $DIR/after.json",
            "diff --before $DIR/before.json --after $DIR/after.json",
        ],
    ),
    ("trace", &["trace --input $DIR/cmds.input"]),
    ("reqtrace", &["reqtrace --input $DIR/reqs.input"]),
    ("help", &["help"]),
];

/// A DRAM command trace captured from the controller: mostly sequential
/// reads with a sprinkling of scattered writes, as a hardware probe
/// between controller and DIMM would record it.
fn command_trace() -> String {
    let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
    ctrl.enable_command_trace();
    let mut view = CycleView::idle(ctrl.total_banks());
    let mut addr = 0u64;
    for now in 0..20_000u64 {
        if now % 10 == 0 && ctrl.can_accept_read() {
            ctrl.enqueue_read(addr, 0);
            addr += 64;
        }
        if now % 37 == 0 && ctrl.can_accept_write() {
            ctrl.enqueue_write((now * 7919) % (1 << 30));
        }
        ctrl.tick(now, &mut view);
        ctrl.drain_completions().for_each(drop);
    }
    trace::write_trace(&ctrl.take_command_trace())
}

/// A memory request trace: a read stream with every fifth request a
/// write to a distant page.
fn request_trace() -> String {
    (0..400u64)
        .map(|i| {
            if i % 5 == 4 {
                format!("{} W {:#x}\n", i * 8, (i * 0x1_0040) % (1 << 28))
            } else {
                format!("{} R {:#x}\n", i * 8, i * 64)
            }
        })
        .collect()
}

/// Every file under `dir`, as paths relative to it, sorted.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("readable directory") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.strip_prefix(dir).expect("under dir").to_path_buf());
            }
        }
    }
    out.sort();
    out
}

fn is_report(rel: &Path) -> bool {
    rel.extension().is_some_and(|e| e == "json") && !rel.ends_with("manifest.json")
}

/// The part of a report that must not move: no host timings, no audit.
fn comparable(path: &Path) -> SimReport {
    let mut r = load_report(&path.display().to_string())
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .strip_perf();
    r.audit = Default::default();
    r
}

/// Runs one row in a fresh scratch directory; returns its transcript.
fn run_row(name: &str, steps: &[&str], dir: &Path) -> String {
    let placeholder = |s: &str| s.replace(&dir.display().to_string(), "$DIR");
    let mut transcript = String::new();
    for step in steps {
        let line = step.replace("$DIR", &dir.display().to_string());
        let out = Command::new(env!("CARGO_BIN_EXE_dramstack-cli"))
            .args(line.split_whitespace())
            .env_remove("DRAMSTACK_LIVE")
            .output()
            .expect("run dramstack-cli");
        assert!(
            out.status.success(),
            "{name}: `{step}` exited {:?}\nstderr:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        transcript.push_str(&format!(
            "$ dramstack-cli {}\n",
            step.split_whitespace().collect::<Vec<_>>().join(" ")
        ));
        transcript.push_str(&placeholder(&String::from_utf8_lossy(&out.stdout)));
    }
    transcript
}

#[test]
fn every_cli_row_matches_its_golden() {
    let regen = common::regen_golden();
    let inputs = [
        ("cmds.input", command_trace()),
        ("reqs.input", request_trace()),
    ];
    let mut moved = Vec::new();
    for &(name, steps) in ROWS {
        let dir = common::scratch_dir(&format!("cli-{name}"));
        for (file, text) in &inputs {
            std::fs::write(dir.join(file), text).expect("write input trace");
        }
        let transcript = run_row(name, steps, &dir);
        let golden = Path::new(GOLDEN_DIR).join(name);
        let written: Vec<PathBuf> = files_under(&dir)
            .into_iter()
            .filter(|p| !p.to_string_lossy().ends_with(INPUT_SUFFIX))
            .collect();
        if regen {
            let _ = std::fs::remove_dir_all(&golden);
            std::fs::create_dir_all(&golden).expect("create golden directory");
            std::fs::write(golden.join("stdout"), &transcript).expect("write golden");
            for rel in &written {
                let to = golden.join(rel);
                std::fs::create_dir_all(to.parent().expect("has parent")).expect("mkdir");
                std::fs::copy(dir.join(rel), &to).expect("copy golden");
            }
            eprintln!("regenerated {}", golden.display());
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        match std::fs::read_to_string(golden.join("stdout")) {
            Ok(g) if g == transcript => {}
            Ok(g) => moved.push(format!(
                "{name}/stdout: golden\n{g}\n--- printed ---\n{transcript}"
            )),
            Err(e) => moved.push(format!("{name}/stdout: no golden ({e})")),
        }
        let mut expected: Vec<PathBuf> = files_under(&golden)
            .into_iter()
            .filter(|p| p != Path::new("stdout"))
            .collect();
        expected.sort();
        if expected != written {
            moved.push(format!(
                "{name}: wrote {written:?}, golden has {expected:?}"
            ));
        }
        for rel in written.iter().filter(|rel| expected.contains(rel)) {
            let (fresh, gold) = (dir.join(rel), golden.join(rel));
            let same = if is_report(rel) {
                comparable(&fresh) == comparable(&gold)
            } else {
                std::fs::read(&fresh).ok() == std::fs::read(&gold).ok()
            };
            if !same {
                moved.push(format!("{name}/{}: differs from its golden", rel.display()));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        moved.is_empty(),
        "CLI output moved against tests/data/cli/:\n{}\n\
         If the change is intended, regenerate with DRAMSTACK_REGEN_GOLDEN=1 \
         cargo test --test cli_goldens and add a line to CHANGES.md.",
        moved.join("\n")
    );
}

/// Bad values end as a typed error, exit 1 and the usage text, before any
/// work runs: never a panic (101), an abort (134) or a NaN on stdout.
#[test]
fn rejected_invocations_exit_1_with_usage() {
    for line in [
        "sweep --deadline-secs nan",
        "sweep --deadline-secs inf",
        "serve --job-stall-secs nan",
        "serve --drain-grace-secs nan",
        "serve --job-deadline-secs inf",
        "extrapolate --to nan",
        "extrapolate --to inf",
        "synth --cores 100000 --us 1",
        "gap --cores 100000 --scale 6",
        "synth --pattern diagonal",
        "synth --resume",
        "synth --us",
        "frobnicate",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dramstack-cli"))
            .args(line.split_whitespace())
            .output()
            .expect("run dramstack-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{line}`: {stderr}");
        assert!(out.stdout.is_empty(), "`{line}` printed to stdout");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("USAGE:"),
            "`{line}`: {stderr}"
        );
    }
}
