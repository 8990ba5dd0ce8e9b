//! Per-channel and aggregated bandwidth stacks on a dual-channel system —
//! the paper's "one stack per memory controller, aggregated afterwards".
//!
//! ```sh
//! cargo run --release --example multi_channel
//! ```

use dramstack::sim::{Simulator, SystemConfig};
use dramstack::viz::ascii;
use dramstack::workloads::SyntheticPattern;

fn main() {
    let mut runs = Vec::new();
    for channels in [1usize, 2] {
        let mut cfg = SystemConfig::paper_default(8);
        cfg.channels = channels;
        let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
        let r = sim.run_for_us(100.0);
        println!(
            "{channels} channel(s): {:.2} / {:.1} GB/s, read latency {:.1} ns",
            r.achieved_gbps(),
            r.bandwidth_stack.peak_gbps(),
            r.avg_read_latency_ns()
        );
        let mut rows = vec![("aggregate".to_string(), r.bandwidth_stack.clone())];
        for (i, s) in r.channel_stacks.iter().enumerate() {
            rows.push((format!("channel {i}"), s.clone()));
        }
        // Note: the aggregate bar is normalized to the *system* peak,
        // the channel bars to the per-channel peak.
        println!("{}", ascii::bandwidth_chart(&rows));
        runs.push((r.achieved_gbps(), r.avg_read_latency_ns()));
    }
    let ((one_gbps, one_ns), (two_gbps, two_ns)) = (runs[0], runs[1]);
    assert!(
        two_gbps > one_gbps && two_ns < one_ns,
        "a second channel must add bandwidth and cut read latency"
    );
    println!(
        "same cores, same workload: the second channel roughly doubles the saturated\n\
         bandwidth and cuts the queueing latency — exactly what the per-channel stacks\n\
         (both far from their peaks now) predict."
    );
}
