//! Use bandwidth/latency stacks to choose memory-controller settings —
//! the paper's "what can be done about each component" workflow
//! (Section IV) applied to a store-heavy stream.
//!
//! ```sh
//! cargo run --release --example ddr_tuning
//! ```

use dramstack::memctrl::{MappingScheme, PagePolicy};
use dramstack::sim::experiments::run_synthetic;
use dramstack::stacks::{BwComponent, LatComponent};
use dramstack::viz::ascii;
use dramstack::workloads::SyntheticPattern;

fn main() {
    let us = 150.0;
    let pattern = SyntheticPattern::sequential(0.5); // 50 % stores

    // Step 1: measure the baseline and read the stacks.
    let base = run_synthetic(
        1,
        pattern,
        PagePolicy::Open,
        MappingScheme::RowBankColumn,
        us,
    )
    .expect("paper configuration is valid");
    println!(
        "baseline (default mapping, open page): {:.2} GB/s",
        base.achieved_gbps()
    );
    println!(
        "{}",
        ascii::bandwidth_chart(&[("baseline".into(), base.bandwidth_stack.clone())])
    );

    // Step 2: diagnose. A large bank-idle component *plus* large queueing
    // and writeburst latency means poor bank interleaving (paper
    // Section V: "bank interleaving should be improved").
    let bank_idle = base.bandwidth_stack.gbps(BwComponent::BankIdle);
    let queue_ns = base.latency_stack.ns(LatComponent::Queue)
        + base.latency_stack.ns(LatComponent::WriteBurst);
    println!(
        "diagnosis: bank-idle {bank_idle:.2} GB/s, queue+writeburst {queue_ns:.1} ns -> bank interleaving problem\n"
    );

    // Step 3: apply the fix the stacks suggest — cache-line interleaved
    // indexing (Fig. 5b) — and compare.
    let fixed = run_synthetic(
        1,
        pattern,
        PagePolicy::Open,
        MappingScheme::CacheLineInterleaved,
        us,
    )
    .expect("paper configuration is valid");
    println!(
        "cache-line interleaved mapping: {:.2} GB/s",
        fixed.achieved_gbps()
    );
    println!(
        "{}",
        ascii::bandwidth_chart(&[
            ("baseline".into(), base.bandwidth_stack.clone()),
            ("interleave".into(), fixed.bandwidth_stack.clone()),
        ])
    );
    println!(
        "{}",
        ascii::latency_chart(&[
            ("baseline".into(), base.latency_stack),
            ("interleave".into(), fixed.latency_stack),
        ])
    );

    let gain = (fixed.achieved_gbps() / base.achieved_gbps() - 1.0) * 100.0;
    println!("bandwidth change: {gain:+.1} %");
    println!(
        "note the trade-off the paper highlights: pre/act latency rose from {:.1} to {:.1} ns \
         while queueing fell — interleaving helps only when queueing dominated.",
        base.latency_stack.ns(LatComponent::PreAct),
        fixed.latency_stack.ns(LatComponent::PreAct),
    );
    assert!(
        gain > 0.0
            && fixed.latency_stack.ns(LatComponent::PreAct)
                > base.latency_stack.ns(LatComponent::PreAct),
        "interleaving must raise both bandwidth and pre/act latency"
    );
}
