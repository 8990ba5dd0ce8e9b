//! Integration tests for the live telemetry layer: observation never
//! perturbs results, the streamed formats stay valid through a full
//! simulation, the bottleneck advisor lands correct diagnoses on known
//! workload shapes, and the differential comparator's golden property —
//! diffing a run against itself is zero.

use std::io::Write;
use std::sync::{Arc, Mutex};

use dramstack::live::{LiveMode, LiveSink};
use dramstack::obs::BottleneckClass;
use dramstack::sim::{diff_reports, SimReport, Simulator, SystemConfig, Telemetry};
use dramstack::stacks::{BwComponent, LatComponent};
use dramstack::workloads::SyntheticPattern;

/// A writer appending into a shared buffer the test reads back.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Shared {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

fn run(cfg: SystemConfig, pattern: SyntheticPattern, us: f64) -> SimReport {
    Simulator::with_synthetic(cfg, pattern).run_for_us(us)
}

#[test]
fn telemetry_is_bit_identical_when_unobserved() {
    // Fast-forward stays enabled on both runs: telemetry must neither
    // disturb the skip logic nor the results.
    let cfg = SystemConfig::paper_default(2);
    let plain = run(cfg.clone(), SyntheticPattern::sequential(0.1), 60.0);

    let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.1));
    let tel = Telemetry::default()
        .with_jsonl(Box::new(std::io::sink()))
        .with_prometheus(Box::new(std::io::sink()));
    sim.attach_telemetry(tel);
    let observed = sim.run_for_us(60.0);

    assert_eq!(plain.strip_perf(), observed.strip_perf());
    let windows = sim.telemetry().expect("telemetry attached").windows();
    assert_eq!(windows as usize, observed.samples.len());
}

#[test]
fn jsonl_stream_matches_report_samples() {
    let buf = Shared::default();
    let cfg = SystemConfig::paper_default(1);
    let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
    let tel = Telemetry::default().with_jsonl(Box::new(buf.clone()));
    sim.attach_telemetry(tel);
    let r = sim.run_for_us(60.0);

    let text = buf.text();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), r.samples.len());
    for (i, (line, sample)) in lines.iter().zip(&r.samples).enumerate() {
        let v: serde::Value = serde_json::from_str(line).expect("valid JSON line");
        assert_eq!(
            v.get("window").and_then(serde::Value::as_u64),
            Some(i as u64)
        );
        assert_eq!(
            v.get("cycles").and_then(serde::Value::as_u64),
            Some(sample.cycles)
        );
        let achieved = v
            .get("achieved_gbps")
            .and_then(serde::Value::as_f64)
            .expect("achieved_gbps");
        assert!((achieved - sample.bandwidth.achieved_gbps()).abs() < 1e-9);
    }
}

#[test]
fn prometheus_snapshot_is_well_formed_after_a_run() {
    let cfg = SystemConfig::paper_default(1);
    let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
    sim.attach_telemetry(Telemetry::default());
    sim.run_for_us(60.0);
    let snap = sim.telemetry().unwrap().prometheus_snapshot();
    assert!(snap.contains("dramstack_windows_total"));
    assert!(snap.contains("dramstack_bw_share{component=\"read\"}"));
    assert!(snap.contains("dramstack_lat_ns{component=\"queue\"}"));
    for line in snap.lines().filter(|l| !l.starts_with('#')) {
        let value = line.rsplit(' ').next().unwrap();
        assert!(value.parse::<f64>().is_ok(), "bad exposition line: {line}");
    }

    // A run of more than 256 windows: the exposition's whole-run values
    // are the report's stacks, which fold the same windows in order.
    let mut cfg = SystemConfig::paper_default(1);
    cfg.sample_period = 1_200;
    let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
    sim.attach_telemetry(Telemetry::default());
    let r = sim.run_for_us(300.0);
    assert_eq!(r.samples.len(), 300);
    let snap = sim.telemetry().unwrap().prometheus_snapshot();
    let (bw, lat) = (&r.bandwidth_stack, &r.latency_stack);
    let mut want = vec![format!("dramstack_windows_total {}", r.samples.len())];
    for c in BwComponent::ALL {
        want.push(format!(
            "dramstack_bw_share{{component=\"{}\"}} {:.6}",
            c.label(),
            bw.fraction(c)
        ));
    }
    want.push(format!("dramstack_achieved_gbps {:.6}", bw.achieved_gbps()));
    for c in LatComponent::ALL {
        want.push(format!(
            "dramstack_lat_ns{{component=\"{}\"}} {:.6}",
            c.label(),
            lat.ns(c)
        ));
    }
    want.push(format!("dramstack_reads_total {}", lat.reads));
    for line in want {
        assert!(
            snap.lines().any(|l| l == line),
            "missing `{line}` in:\n{snap}"
        );
    }
}

#[test]
fn live_dashboard_runs_plain_over_a_full_simulation() {
    let buf = Shared::default();
    let cfg = SystemConfig::paper_default(1);
    let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
    let mut tel = Telemetry::default();
    tel.add_sink(Box::new(LiveSink::with_writer(
        LiveMode::Plain,
        Box::new(buf.clone()),
    )));
    sim.attach_telemetry(tel);
    sim.run_for_us(60.0);
    let text = buf.text();
    assert!(text.contains("dramstack live — window"));
    assert!(text.contains("dramstack live — done"));
    assert!(!text.contains('\x1b'), "plain mode must not emit ANSI");
}

#[test]
fn saturated_four_core_run_is_diagnosed() {
    // Four cores of sequential reads saturate the channel (the paper's
    // Figure 1 right-hand side): the advisor must say so.
    let r = run(
        SystemConfig::paper_default(4),
        SyntheticPattern::sequential(0.0),
        120.0,
    );
    assert!(
        r.bandwidth_stack
            .fraction(dramstack::stacks::BwComponent::Read)
            > 0.5,
        "workload should be read-saturated, got {:.2} read share",
        r.bandwidth_stack
            .fraction(dramstack::stacks::BwComponent::Read)
    );
    assert!(
        r.diagnoses
            .iter()
            .any(|d| d.class == BottleneckClass::Saturated),
        "expected a Saturated diagnosis, got {:?}",
        r.diagnoses
    );
}

#[test]
fn refresh_storm_is_diagnosed() {
    // Shrink the refresh interval so REF dominates: t_rfc = 420 out of
    // every t_refi = 2000 cycles is a ~21 % refresh share.
    let mut cfg = SystemConfig::paper_default(1);
    cfg.ctrl.device.timing.t_refi = 2_000;
    let r = run(cfg, SyntheticPattern::sequential(0.0), 120.0);
    assert!(
        r.diagnoses
            .iter()
            .any(|d| d.class == BottleneckClass::RefreshBound),
        "expected a RefreshBound diagnosis, got {:?}",
        r.diagnoses
    );
    // And the diagnosis carries usable guidance.
    let d = r
        .diagnoses
        .iter()
        .find(|d| d.class == BottleneckClass::RefreshBound)
        .unwrap();
    assert!(!d.suggestion.is_empty());
    assert!(d.windows >= 3);
}

#[test]
fn diagnoses_are_deterministic_and_reported_without_telemetry() {
    // The advisor runs at report time over the samples, so diagnoses are
    // identical whether or not live telemetry was attached.
    let mut cfg = SystemConfig::paper_default(1);
    cfg.ctrl.device.timing.t_refi = 2_000;
    let plain = run(cfg.clone(), SyntheticPattern::sequential(0.0), 60.0);
    let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.0));
    sim.attach_telemetry(Telemetry::default());
    let observed = sim.run_for_us(60.0);
    assert_eq!(plain.diagnoses, observed.diagnoses);
    assert!(!plain.diagnoses.is_empty());
}

#[test]
fn diff_of_self_is_zero_golden() {
    let r = run(
        SystemConfig::paper_default(2),
        SyntheticPattern::random(0.2),
        60.0,
    );
    let (bw, lat) = diff_reports(&r, &r, 0.01);
    assert!(
        bw.is_zero(),
        "bandwidth self-diff not zero: {}",
        bw.render()
    );
    assert!(
        lat.is_zero(),
        "latency self-diff not zero: {}",
        lat.render()
    );
    assert!(bw.dominant().is_none());
    assert!(lat.significant().is_empty());
}

#[test]
fn diff_surfaces_a_refresh_regression() {
    // Same workload, before/after a refresh-rate "regression": the
    // comparator must rank refresh among the significant movers.
    let before = run(
        SystemConfig::paper_default(1),
        SyntheticPattern::sequential(0.0),
        60.0,
    );
    let mut cfg = SystemConfig::paper_default(1);
    cfg.ctrl.device.timing.t_refi = 2_000;
    let after = run(cfg, SyntheticPattern::sequential(0.0), 60.0);
    let (bw, _lat) = diff_reports(&before, &after, 0.01);
    assert!(
        bw.significant()
            .iter()
            .any(|d| d.label == "refresh" && d.delta > 0.0),
        "refresh should move up: {}",
        bw.render()
    );
}

#[test]
fn report_json_roundtrips_with_diagnoses() {
    let mut cfg = SystemConfig::paper_default(1);
    cfg.ctrl.device.timing.t_refi = 2_000;
    let r = run(cfg, SyntheticPattern::sequential(0.0), 60.0);
    assert!(!r.diagnoses.is_empty());
    let json = r.to_json().unwrap();
    let back: SimReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r);
}
