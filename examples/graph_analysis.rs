//! Analyze a graph workload with bandwidth, latency and cycle stacks —
//! the paper's Section VIII methodology on a BFS kernel.
//!
//! ```sh
//! cargo run --release --example graph_analysis
//! ```

use dramstack::cpu::CycleComponent;
use dramstack::memctrl::{MappingScheme, PagePolicy};
use dramstack::sim::experiments::run_gap;
use dramstack::viz::ascii;
use dramstack::workloads::{GapConfig, GapKernel, Graph};

fn main() {
    // A Kronecker (RMAT) graph like GAP's, scaled for quick simulation.
    let graph = Graph::kronecker(13, 12, 42);
    println!(
        "graph: 2^13 = {} vertices, {} directed edges, max degree {}",
        graph.n,
        graph.edge_count(),
        graph.degree(graph.max_degree_vertex())
    );

    // Run direction-optimizing BFS on 4 cores (closed page policy, which
    // the paper found best for the irregular GAP access patterns).
    let report = run_gap(
        GapKernel::Bfs,
        &graph,
        4,
        PagePolicy::Closed,
        MappingScheme::RowBankColumn,
        32,
        &GapConfig::default(),
        100_000_000,
    )
    .expect("paper configuration is valid");

    println!(
        "\nbfs finished in {:.2} ms simulated, {} instructions retired, IPC {:.2}",
        report.elapsed_us / 1000.0,
        report.instrs_retired,
        report.ipc()
    );

    println!("\n-- DRAM bandwidth stack --");
    println!(
        "{}",
        ascii::bandwidth_chart(&[("bfs 4c".into(), report.bandwidth_stack.clone())])
    );

    println!("-- DRAM latency stack --");
    println!(
        "{}",
        ascii::latency_chart(&[("bfs 4c".into(), report.latency_stack)])
    );

    println!("-- CPU cycle stack (summed over cores) --");
    for (c, f) in report.cycle_stack.rows() {
        println!("  {:14} {:5.1} %", c.label(), f * 100.0);
    }
    let dram_frac = report.cycle_stack.fraction(CycleComponent::DramBase)
        + report.cycle_stack.fraction(CycleComponent::DramQueue);
    println!(
        "\nbfs spends {:.0} % of core cycles waiting on DRAM -> memory bound, as the paper observes",
        dram_frac * 100.0
    );
    let idle = report.cycle_stack.fraction(CycleComponent::Idle);
    assert!(
        dram_frac > 1.0 - idle - dram_frac,
        "bfs must wait on DRAM more than it does anything else"
    );

    println!(
        "\n-- through-time bandwidth ({} samples) --",
        report.samples.len()
    );
    println!("{}", ascii::through_time_strip(&report.samples, 8));
}
