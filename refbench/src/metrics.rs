//! The names every performance claim is stated in: the end-to-end metrics
//! with their regression bounds, and the per-layer metrics with the
//! end-to-end metric each one should move. `BENCHMARK.json` repeats the
//! names, units, directions and bounds; a unit test keeps the two equal.

use crate::stats::Better::{self, Higher, Lower};

/// An end-to-end metric: something a user of the simulator waits or pays
/// for, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may get worse before
    /// a change counts as a regression.
    pub bound: f64,
    /// Absolute slack added to the relative bound: a difference below it is
    /// never a regression ("25 % or 5 ms, whichever is larger").
    pub floor: f64,
    pub what: &'static str,
}

/// How the reported value of an end-to-end metric is estimated. The
/// simulator is deterministic and CPU-bound, so the noise of a shared
/// machine only ever adds time; every estimator looks for the least
/// disturbed measurement. Median, IQR and every round's raw value are
/// printed beside it.
///
/// The bounds are about three times the spread seen on the 2-CPU shared
/// machine this was sized on: between runs of one binary a host time moves
/// by 2 to 8 % (IQR over median of ten runs) and memory by 1 %, except that
/// the serve round's peak RSS has two modes 12 % apart (10.4 and 11.7 MB)
/// and seven rounds do not always meet the lower one.
pub const ESTIMATOR: &str = "wall_s, cpu_s (and sim_mcps, host_ns_per_req from wall_s) of simulator workloads: sum over ~20 ms segments of each segment's fastest round; serve latency percentiles: over the jobs of all rounds; everything else: best round (min if lower is better, max if higher)";

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.005,
        what: "host time from process start to the first simulated cycle: input generation and Simulator construction with cache warm-up (serve: to /readyz ready and one warm-up job per spec back)",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
        what: "host time from the first simulated cycle to report JSON and ASCII stacks in memory (serve: the closed loop's wall time)",
    },
    EndToEnd {
        name: "sim_mcps",
        unit: "Mcycles/s",
        better: Higher,
        bound: 0.25,
        floor: 0.0,
        what: "simulated DRAM Mcycles per host second over wall_s",
    },
    EndToEnd {
        name: "host_ns_per_req",
        unit: "ns",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
        what: "host time per simulated event: wall_s over reads_done + writes_done",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
        what: "user + system CPU seconds of the round's process from its start to the end of wall_s",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.20,
        floor: 0.0,
        what: "peak resident set (VmHWM) of the round's process, glibc capped at one malloc arena",
    },
];

/// Serve-only end-to-end numbers. They are printed by `run`, stored in
/// `--out` files and compared by `check` like the six above; the driver's
/// contract wants every end-to-end metric from every workload, so in
/// `BENCHMARK.json` they are listed with the `serve` layer.
pub const SERVE_END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "job_latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
        what: "median time from the first byte of POST /jobs to the last byte of the done report, over the jobs of all rounds",
    },
    EndToEnd {
        name: "job_latency_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
        what: "90th percentile of the same, over the jobs of all rounds (sample count printed)",
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        floor: 0.0,
        what: "jobs completed per host second of the closed loop, best round",
    },
];

/// Looks an end-to-end metric up by name, serve-only ones included.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END
        .iter()
        .chain(&SERVE_END_TO_END)
        .find(|m| m.name == name)
}

/// A metric of one layer, filled by the traced run. No bound: it explains
/// an end-to-end move, it is not one.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// What a layer's metrics should move, and where they should not.
#[derive(Debug, Clone, Copy)]
pub struct LayerMap {
    pub layer: &'static str,
    pub moves: &'static str,
}

pub const LAYER_MAP: [LayerMap; 11] = [
    LayerMap {
        layer: "workloads",
        moves: "setup_s on gap_pr_8c (graph and trace generation) and chase_1c; nothing elsewhere: synthetic streams are pulled inside the core tick",
    },
    LayerMap {
        layer: "cpu",
        moves: "wall_s and sim_mcps on stream_rd_8c and rand_rw_8c (16 core ticks per DRAM cycle) and gap_pr_8c (hit-heavy hierarchy); not chase_1c",
    },
    LayerMap {
        layer: "memctrl",
        moves: "wall_s and host_ns_per_req on stream_rd_8c and rand_rw_8c (nearly every cycle stepped); not chase_1c, barely serve_closed_2c",
    },
    LayerMap {
        layer: "dram",
        moves: "through memctrl.tick_ns to wall_s on rand_rw_8c (ACT/PRE queries) and stream_rd_8c (CAS queries)",
    },
    LayerMap {
        layer: "core",
        moves: "wall_s on the two saturated workloads (per-cycle accounting); gap_pr_8c through window rolling",
    },
    LayerMap {
        layer: "sim",
        moves: "skip shares move wall_s on chase_1c only; sim.construct_s moves setup_s everywhere and job latency on serve_closed_2c; sim.ckpt_* move wall_s and cpu_s on ckpt_stream_2c only",
    },
    LayerMap {
        layer: "obs",
        moves: "job latency on serve_closed_2c (serve attaches a hub sink per job); nothing else",
    },
    LayerMap {
        layer: "audit",
        moves: "no end-to-end metric (release runs are unarmed); recorded so the oracle's price is known",
    },
    LayerMap {
        layer: "serve",
        moves: "job_latency_p50_ms, job_latency_p90_ms, jobs_per_s and wall_s on serve_closed_2c; nothing elsewhere",
    },
    LayerMap {
        layer: "viz",
        moves: "only the ASCII part of wall_s; recorded so CLI work has a number",
    },
    LayerMap {
        layer: "bench",
        moves: "nothing: the harness's own overhead and tape sizes",
    },
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric, in table order. A workload that bypasses a layer
/// reports 0 for that layer's host times and counts.
pub const PER_LAYER: [PerLayer; 72] = [
    // workloads
    m("workloads.synth_instr_ns", "ns", Lower),
    m("workloads.graph_build_s", "s", Lower),
    m("workloads.trace_build_s", "s", Lower),
    m("workloads.trace_instrs", "count", Lower),
    // cpu
    m("cpu.hier_access_ns", "ns", Lower),
    m("cpu.core_tick_ns", "ns", Lower),
    m("cpu.l1_hit_share", "share", Higher),
    m("cpu.llc_miss_share", "share", Lower),
    m("cpu.prefetch_useful_share", "share", Higher),
    m("cpu.mshr_merges", "count", Lower),
    m("cpu.ipc", "instr/cycle", Higher),
    // memctrl
    m("memctrl.tick_ns", "ns", Lower),
    m("memctrl.ns_per_req", "ns", Lower),
    m("memctrl.busy_engine_ratio", "ratio", Lower),
    m("memctrl.row_hit_share", "share", Higher),
    m("memctrl.reads_done", "count", Higher),
    m("memctrl.writes_done", "count", Higher),
    m("memctrl.write_drains", "count", Lower),
    m("memctrl.drain_cycle_share", "share", Lower),
    // dram
    m("dram.issue_ns", "ns", Lower),
    m("dram.query_ns", "ns", Lower),
    m("dram.query_nomemo_ns", "ns", Lower),
    m("dram.acts", "count", Lower),
    m("dram.pres", "count", Lower),
    m("dram.refs", "count", Lower),
    m("dram.cas", "count", Higher),
    m("dram.cmds_per_kcycle", "1/kcycle", Higher),
    // core
    m("core.account_ns", "ns", Lower),
    m("core.offline_cycle_ns", "ns", Lower),
    m("core.conservation_err", "share", Lower),
    m("core.refresh_oracle_err_pct", "%", Lower),
    m("core.bw_achieved_gbps", "GB/s", Higher),
    m("core.lat_avg_ns", "ns", Lower),
    m("core.lat_queue_share", "share", Lower),
    // sim
    m("sim.construct_s", "s", Lower),
    m("sim.step_ns", "ns", Lower),
    m("sim.stepped_share", "share", Lower),
    m("sim.busy_forwarded_share", "share", Higher),
    m("sim.fast_forwarded_share", "share", Higher),
    m("sim.report_s", "s", Lower),
    m("sim.to_json_s", "s", Lower),
    m("sim.report_json_bytes", "bytes", Lower),
    m("sim.run_job_ratio", "ratio", Lower),
    m("sim.ckpt_count", "count", Lower),
    m("sim.ckpt_checkpoint_ms", "ms", Lower),
    m("sim.ckpt_finish_ms", "ms", Lower),
    m("sim.ckpt_bytes_per_ckpt", "bytes", Lower),
    m("sim.ckpt_overhead_ratio", "ratio", Lower),
    m("sim.snapshot_full_ms", "ms", Lower),
    m("sim.restore_ms", "ms", Lower),
    // obs
    m("obs.telemetry_window_us", "us", Lower),
    m("obs.telemetry_overhead_ratio", "ratio", Lower),
    // audit
    m("audit.armed_overhead_ratio", "ratio", Lower),
    m("audit.findings", "count", Lower),
    // serve
    m("serve.job_latency_p50_ms", "ms", Lower),
    m("serve.job_latency_p90_ms", "ms", Lower),
    m("serve.jobs_per_s", "1/s", Higher),
    m("serve.http_rtt_ms", "ms", Lower),
    m("serve.submit_ms", "ms", Lower),
    m("serve.wait_ms", "ms", Lower),
    m("serve.fetch_ms", "ms", Lower),
    m("serve.status_body_bytes", "bytes", Lower),
    m("serve.spec_parse_us", "us", Lower),
    m("serve.run_share", "share", Higher),
    m("serve.jobs_done", "count", Higher),
    m("serve.shed_429", "count", Lower),
    // viz
    m("viz.render_ms", "ms", Lower),
    // bench
    m("bench.trace_overhead_ratio", "ratio", Lower),
    m("bench.traced_wall_s", "s", Lower),
    m("bench.tape_requests", "count", Lower),
    m("bench.tape_commands", "count", Lower),
    m("bench.loop_reps", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_default()
    }

    #[test]
    fn names_are_unique_and_layers_are_mapped() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        for m in &PER_LAYER {
            let layer = crate::spans::layer_of(m.name);
            assert!(LAYER_MAP.iter().any(|l| l.layer == layer), "{}", m.name);
        }
        assert!(end_to_end("job_latency_p90_ms").is_some());
        assert!(end_to_end("wall_s").is_some() && end_to_end("nope").is_none());
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let doc = benchmark_json();
        let e2e = doc.get("end_to_end").and_then(Value::as_seq).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Value::as_seq).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
        let workloads = doc.get("workloads").and_then(Value::as_seq).unwrap();
        let listed: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| (w.name(), w.why()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200));
    }
}
