//! Reproduce the spirit of the paper's Fig. 1: a per-bank command
//! timeline for a small burst of traffic, next to the bandwidth stack the
//! hierarchical accounting derives from those same cycles.
//!
//! ```sh
//! cargo run --release --example fig1_timeline
//! ```

use dramstack::dram::{CommandKind, CycleView, DeviceConfig};
use dramstack::memctrl::{CtrlConfig, MemoryController};
use dramstack::stacks::offline::stack_from_trace;
use dramstack::viz::{ascii, timeline};

fn main() {
    // Drive a short, mixed burst: reads on two banks, a row conflict,
    // and a write — the ingredients of the paper's Fig. 1.
    let mut ctrl = MemoryController::new(CtrlConfig::paper_default());
    ctrl.enable_command_trace();
    let mut view = CycleView::idle(ctrl.total_banks());

    // bank r0g0b0 row 0, bank r0g1b0 row 0, then a conflicting row on
    // bank 0, then a write.
    ctrl.enqueue_read(0x0000, 0); // g0b0 row 0
    ctrl.enqueue_read(0x2000, 1); // g1b0 row 0 (bit 13 = bank group)
    ctrl.enqueue_read(1 << 17, 2); // g0b0 row 1: row conflict
    ctrl.enqueue_write(0x2040);

    let horizon = 160;
    for now in 0..horizon {
        ctrl.tick(now, &mut view);
        ctrl.drain_completions().for_each(drop);
    }
    let trace = ctrl.take_command_trace();

    println!("-- command timeline (cf. paper Fig. 1) --");
    let timing = dramstack::dram::TimingParams::ddr4_2400();
    println!(
        "{}",
        timeline::command_timeline(&trace, &timing, 0, horizon as usize)
    );

    println!("-- the issued commands --");
    for t in &trace {
        println!("  cycle {:>4}: {}", t.at, t.cmd);
    }

    let pre = trace
        .iter()
        .position(|t| t.cmd.kind == CommandKind::Precharge)
        .expect("the row conflict issues a PRE");
    assert!(
        trace[pre..]
            .iter()
            .any(|t| t.cmd.kind == CommandKind::Activate && t.cmd.row == 1),
        "the PRE must be followed by an ACT of row 1"
    );

    // The same cycles, accounted into a bandwidth stack (offline, straight
    // from the trace).
    let stack = stack_from_trace(&trace, DeviceConfig::ddr4_2400(), horizon).unwrap();
    println!("\n-- resulting bandwidth stack over these {horizon} cycles --");
    println!("{}", ascii::bandwidth_chart(&[("fig1".into(), stack)]));
}
