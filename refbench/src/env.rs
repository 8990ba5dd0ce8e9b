//! What the process cost and where it ran: CPU seconds, peak memory, and
//! the machine description that makes an output file self-describing.

use std::path::PathBuf;
use std::process::Command;

use serde::{Deserialize, Serialize};

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds of this process so far, threads that have
/// already exited included (so work moved to a joined writer thread still
/// counts). `/proc/self/stat` would give the same sum in 10 ms ticks, too
/// coarse for a one-second run; `getrusage` reports microseconds.
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout 64-bit
    // Linux defines (144 bytes), and RUSAGE_SELF (0) is a valid `who`; the
    // call writes only into `ru`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    secs(ru.utime) + secs(ru.stime)
}

/// Peak resident set of this process in MB: `VmHWM` of `/proc/self/status`.
/// (`ru_maxrss` is not used: across `exec` it keeps the spawning process's
/// peak.) 0 when `/proc` is not there.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Directory for everything the benchmark writes (checkpoint chains, the
/// span trace): beside the executable, so inside the build directory.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("refbench"));
    exe.parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
        .join("refbench-scratch")
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| first_line(&String::from_utf8_lossy(&o.stdout)),
        )
}

pub fn loadavg() -> String {
    first_line(&std::fs::read_to_string("/proc/loadavg").unwrap_or_default())
}

/// The machine and toolchain a result set was measured on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    pub cpu_model: String,
    pub loadavg_start: String,
    pub loadavg_end: String,
}

impl Machine {
    /// Describes the machine now; `loadavg_end` is filled in by
    /// [`finish`](Self::finish).
    pub fn describe() -> Machine {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        Machine {
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            loadavg_start: loadavg(),
            loadavg_end: String::new(),
        }
    }

    pub fn finish(&mut self) {
        self.loadavg_end = loadavg();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_reported() {
        let before = cpu_seconds();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = cpu_seconds();
        assert!(after > before, "{before} -> {after}");
        assert!(after - before < 30.0);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn machine_description_is_filled() {
        let mut m = Machine::describe();
        m.finish();
        assert!(m.nproc >= 1);
        assert!(!m.rustc.is_empty() && !m.loadavg_end.is_empty());
    }
}
