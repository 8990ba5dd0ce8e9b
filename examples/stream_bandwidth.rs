//! STREAM through the stack lens: the four classic bandwidth kernels, and
//! what the bandwidth stack says about each, plus a pointer-chase latency
//! microbenchmark for the latency stack.
//!
//! ```sh
//! cargo run --release --example stream_bandwidth
//! ```

use dramstack::sim::{Simulator, SystemConfig};
use dramstack::stacks::LatComponent;
use dramstack::viz::ascii;
use dramstack::workloads::{pointer_chase_trace, stream_trace, StreamKernel};

fn main() {
    let cores = 4;
    let elems = 400_000u64; // 3 × 3.2 MB arrays: well beyond the LLC slice

    let mut rows = Vec::new();
    println!("STREAM on {cores} cores, {elems} elements per array:");
    for kernel in StreamKernel::ALL {
        let traces = stream_trace(kernel, cores, elems);
        let mut cfg = SystemConfig::paper_gap(cores); // 1 MB LLC: arrays don't fit
        cfg.sample_period = 2_400;
        let mut sim = Simulator::with_traces(cfg, traces);
        let r = sim.run_to_completion(200_000_000);
        let algo_gbps = (kernel.bytes_per_element() * elems) as f64 / (r.elapsed_us * 1000.0);
        println!(
            "  {:6}  DRAM {:5.2} GB/s  (STREAM-counted {:5.2} GB/s)  read:write {:4.2}",
            kernel.name(),
            r.achieved_gbps(),
            algo_gbps,
            r.bandwidth_stack.gbps(dramstack::stacks::BwComponent::Read)
                / r.bandwidth_stack
                    .gbps(dramstack::stacks::BwComponent::Write)
                    .max(0.01),
        );
        rows.push((kernel.name().to_string(), r.bandwidth_stack.clone()));
    }
    println!("\n{}", ascii::bandwidth_chart(&rows));

    println!("pointer chase (loaded latency), 8 KiB stride = every access a new row:");
    let trace = pointer_chase_trace(64 << 20, 8192, 4_000);
    let mut sim = Simulator::with_traces(SystemConfig::paper_default(1), trace);
    let r = sim.run_to_completion(100_000_000);
    println!(
        "  average {:.1} ns  (base {:.1} + act/pre {:.1} + queue {:.1})",
        r.avg_read_latency_ns(),
        r.latency_stack.base_ns(),
        r.latency_stack.ns(LatComponent::PreAct),
        r.latency_stack.ns(LatComponent::Queue),
    );
    println!(
        "  p50 {:.0} / p99 {:.0} DRAM cycles over {} reads",
        r.latency_histogram.percentile(50.0) as f64,
        r.latency_histogram.percentile(99.0) as f64,
        r.latency_histogram.count(),
    );
    assert!(
        r.latency_stack.ns(LatComponent::PreAct) > 0.0
            && r.latency_stack.ns(LatComponent::Queue) == 0.0
            && r.latency_histogram.percentile(50.0) == r.latency_histogram.percentile(99.0),
        "every pointer-chase read must pay the same act/pre and never queue"
    );
}
