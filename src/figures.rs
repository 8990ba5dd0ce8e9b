//! The paper's figures, rendered.
//!
//! One function per figure of the evaluation (Figs. 2–4 and 6–9): it runs
//! the figure's driver in [`sim::experiments`](crate::sim::experiments)
//! at the given [`ExperimentScale`] and returns what the figure prints
//! (ASCII charts, summary lines) plus the CSV/SVG files it produces.
//! Nothing here touches the file system: `dramstack-cli figures` writes
//! the files of a full-scale run into `results/`, and `tests/figures.rs`
//! compares the CSVs of a quick-scale run with pinned copies.

use crate::cpu::CycleComponent;
use crate::sim::experiments::{self, ExperimentScale, SynthRow};
use crate::sim::ConfigError;
use crate::viz::{ascii, csv, svg};

/// One rendered figure.
#[derive(Debug)]
pub struct Figure {
    /// What the figure prints: charts and summary lines.
    pub text: String,
    /// `(file name, contents)` of every CSV/SVG file the figure produces.
    pub files: Vec<(String, String)>,
}

/// A figure's renderer.
pub type Render = fn(&ExperimentScale) -> Result<Figure, ConfigError>;

/// Every figure in paper order, by the name `dramstack-cli figures`
/// accepts.
pub const ALL: [(&str, Render); 7] = [
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
];

/// DRAM cycle time of the paper's DDR4-2400 setup (1.2 GHz).
const CYCLE_NS: f64 = 1000.0 / 1200.0;

/// Fig. 2: read-only seq/random, 1–8 cores.
pub fn fig2(scale: &ExperimentScale) -> Result<Figure, ConfigError> {
    let title = "Fig. 2: read-only seq/random, 1-8 cores";
    Ok(stack_figure("fig2", title, &experiments::fig2(scale)?))
}

/// Fig. 3: store fraction sweep on one core.
pub fn fig3(scale: &ExperimentScale) -> Result<Figure, ConfigError> {
    let title = "Fig. 3: store fraction sweep, 1 core";
    Ok(stack_figure("fig3", title, &experiments::fig3(scale)?))
}

/// Fig. 4: open vs closed page policy, 2 cores.
pub fn fig4(scale: &ExperimentScale) -> Result<Figure, ConfigError> {
    let title = "Fig. 4: open vs closed page policy, 2 cores";
    Ok(stack_figure("fig4", title, &experiments::fig4(scale)?))
}

/// Fig. 6: default vs cache-line-interleaved bank indexing.
pub fn fig6(scale: &ExperimentScale) -> Result<Figure, ConfigError> {
    let title = "Fig. 6: default vs interleaved indexing";
    Ok(stack_figure("fig6", title, &experiments::fig6(scale)?))
}

/// Bandwidth and latency charts of a synthetic-row figure, with one CSV
/// and one SVG file per stack kind.
fn stack_figure(name: &str, title: &str, rows: &[SynthRow]) -> Figure {
    let bw: Vec<_> = rows
        .iter()
        .map(|r| (r.label.clone(), r.report.bandwidth_stack.clone()))
        .collect();
    let lat: Vec<_> = rows
        .iter()
        .map(|r| (r.label.clone(), r.report.latency_stack))
        .collect();
    let text = [
        format!("=== {title} ==="),
        ascii::bandwidth_chart(&bw),
        ascii::latency_chart(&lat),
    ];
    Figure {
        text: text.join("\n"),
        files: vec![
            (format!("{name}_bandwidth.csv"), csv::bandwidth_csv(&bw)),
            (format!("{name}_latency.csv"), csv::latency_csv(&lat)),
            (
                format!("{name}_bandwidth.svg"),
                svg::bandwidth_figure(&format!("{title} — bandwidth stacks"), &bw),
            ),
            (
                format!("{name}_latency.svg"),
                svg::latency_figure(&format!("{title} — latency stacks"), &lat),
            ),
        ],
    }
}

/// Fig. 7: through-time bandwidth stacks and cycle stacks, bfs on 8
/// cores.
pub fn fig7(scale: &ExperimentScale) -> Result<Figure, ConfigError> {
    let report = experiments::fig7(scale)?;
    let mut text = vec![
        "=== Fig. 7: through-time stacks, bfs 8 cores ===".to_string(),
        format!(
            "simulated {:.2} ms, {} samples, achieved {:.2} GB/s, avg read latency {:.1} ns",
            report.elapsed_us / 1000.0,
            report.samples.len(),
            report.achieved_gbps(),
            report.avg_read_latency_ns()
        ),
        ascii::through_time_strip(&report.samples, 10),
        "cycle stack (aggregate over cores):".to_string(),
    ];
    for (c, f) in report.cycle_stack.rows() {
        text.push(format!("  {:14} {:5.1} %", c.label(), f * 100.0));
    }
    let idle_series: String = report
        .cycle_samples
        .iter()
        .map(|s| {
            let f = s.fraction(CycleComponent::Idle);
            char::from_digit((f * 9.99) as u32, 10).unwrap_or('9')
        })
        .collect();
    text.push("cycle stack through time (idle fraction per window):".to_string());
    text.push(format!("  {idle_series}"));

    let mut cycles = String::from("window");
    for c in CycleComponent::ALL {
        cycles.push(',');
        cycles.push_str(c.label());
    }
    cycles.push('\n');
    for (i, s) in report.cycle_samples.iter().enumerate() {
        cycles.push_str(&i.to_string());
        for c in CycleComponent::ALL {
            cycles.push_str(&format!(",{:.4}", s.fraction(c)));
        }
        cycles.push('\n');
    }
    Ok(Figure {
        text: text.join("\n"),
        files: vec![
            (
                "fig7_samples.csv".to_string(),
                csv::samples_csv(&report.samples, CYCLE_NS),
            ),
            (
                "fig7_bandwidth.svg".to_string(),
                svg::through_time_figure(
                    "Fig. 7: bfs 8c — bandwidth through time",
                    &report.samples,
                    CYCLE_NS,
                ),
            ),
            ("fig7_cycles.csv".to_string(), cycles),
        ],
    })
}

/// Fig. 8: latency stacks for bfs 8c (default / interleaved / 128-entry
/// write queue) and tc 1c (default / interleaved / open page).
pub fn fig8(scale: &ExperimentScale) -> Result<Figure, ConfigError> {
    let rows = experiments::fig8(scale)?;
    let lat: Vec<_> = rows.iter().map(|r| (r.label.clone(), r.latency)).collect();
    let mut text = vec![
        "=== Fig. 8: latency stacks under mapping/write-queue variants ===".to_string(),
        ascii::latency_chart(&lat),
    ];
    for r in &rows {
        text.push(format!(
            "{:24} total {:6.1} ns   bw {:5.2} GB/s   page-hit {:4.1} %",
            r.label,
            r.latency.total_ns(),
            r.achieved_gbps,
            r.page_hit_rate * 100.0
        ));
    }
    Ok(Figure {
        text: text.join("\n"),
        files: vec![
            ("fig8_latency.csv".to_string(), csv::latency_csv(&lat)),
            (
                "fig8_latency.svg".to_string(),
                svg::latency_figure("Fig. 8: latency stacks", &lat),
            ),
        ],
    })
}

/// Fig. 9: measured vs naive vs stack-extrapolated 8-core bandwidth for
/// the six GAP kernels.
pub fn fig9(scale: &ExperimentScale) -> Result<Figure, ConfigError> {
    let rows = experiments::fig9(scale)?;
    let mut text = vec![
        "=== Fig. 9: bandwidth extrapolation 1c -> 8c ===".to_string(),
        format!(
            "{:6} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "kernel", "measured", "naive", "err%", "stack", "err%"
        ),
    ];
    let mut csv = String::from("kernel,measured_8c,naive,naive_err,stack,stack_err\n");
    let (mut naive_sum, mut stack_sum) = (0.0, 0.0);
    for r in &rows {
        text.push(format!(
            "{:6} {:>10.2} {:>10.2} {:>10.1} {:>10.2} {:>10.1}",
            r.kernel.name(),
            r.measured_8c,
            r.naive,
            r.naive_error() * 100.0,
            r.stack,
            r.stack_error() * 100.0
        ));
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            r.kernel.name(),
            r.measured_8c,
            r.naive,
            r.naive_error(),
            r.stack,
            r.stack_error()
        ));
        naive_sum += r.naive_error();
        stack_sum += r.stack_error();
    }
    let n = rows.len() as f64;
    text.push(format!(
        "average error: naive {:.1} %  stack {:.1} %  (paper: 27 % vs 8 %)",
        naive_sum / n * 100.0,
        stack_sum / n * 100.0
    ));
    Ok(Figure {
        text: text.join("\n"),
        files: vec![("fig9_extrapolation.csv".to_string(), csv)],
    })
}
