//! Chaos/fuzz harness tests.
//!
//! Two tiers, mirroring the CI `audit` job:
//!
//! * **Gating** — the paper's configuration must audit clean under every
//!   adversarial traffic shape (proptest-driven seeds).
//! * **Recording** — random-but-valid configurations run under chaos with
//!   the auditor armed; findings are written to
//!   `target/audit/chaos-findings.json` as an artifact for inspection but
//!   do not fail the build (an exotic configuration diverging is a lead,
//!   not a regression).
//!
//! All seeds are fixed/derived deterministically, so every case
//! reproduces.

use proptest::prelude::*;
use serde::Serialize;

use dramstack_audit::chaos::{arb_ctrl_config, arb_pattern, random_config};
use dramstack_audit::{drive, AuditReport, ChaosPattern, SeededFault};
use dramstack_memctrl::CtrlConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn paper_config_audits_clean_under_adversarial_traffic(
        seed in any::<u64>(),
        pattern in arb_pattern(),
    ) {
        let cfg = CtrlConfig::paper_default();
        let traffic = pattern.generate(&cfg, seed, 160);
        let out = drive(cfg, SeededFault::None, &traffic, 3_000_000);
        prop_assert!(out.audit.commands_audited > 0);
        prop_assert!(
            out.audit.is_clean(),
            "{pattern:?} seed {seed}: {:?}",
            out.audit.first_violation()
        );
        prop_assert!(out.drained, "{pattern:?} seed {seed} did not drain");
    }

    #[test]
    fn random_configs_drive_to_completion_with_auditor_armed(
        cfg in arb_ctrl_config(),
        pattern in arb_pattern(),
        seed in any::<u64>(),
    ) {
        let traffic = pattern.generate(&cfg, seed, 120);
        let out = drive(cfg, SeededFault::None, &traffic, 3_000_000);
        // Liveness and armed-ness gate; cleanliness of exotic configs is
        // recorded by the artifact test below, not asserted here.
        prop_assert!(out.audit.armed);
        prop_assert!(out.audit.commands_audited > 0);
        prop_assert!(out.drained, "{pattern:?} did not drain");
        // The report always serializes (CI artifact path).
        prop_assert!(serde_json::to_string(&out.audit).is_ok());
    }
}

#[derive(Debug, Serialize)]
struct Finding {
    config_seed: u64,
    pattern: String,
    traffic_seed: u64,
    audit: AuditReport,
}

/// Bounded, fixed-seed sweep of random configurations under every chaos
/// pattern. Violations (none expected, but the point of fuzzing is the
/// unexpected) land in `target/audit/chaos-findings.json`.
#[test]
fn random_config_sweep_records_findings_as_artifact() {
    let mut findings: Vec<Finding> = Vec::new();
    let mut runs = 0u32;
    for config_seed in 0..10u64 {
        let cfg = random_config(config_seed);
        for pattern in ChaosPattern::ALL {
            let traffic_seed = config_seed ^ 0xC0FF_EE00;
            let traffic = pattern.generate(&cfg, traffic_seed, 120);
            let out = drive(cfg.clone(), SeededFault::None, &traffic, 3_000_000);
            runs += 1;
            assert!(out.audit.commands_audited > 0, "{pattern:?}/{config_seed}");
            if !out.audit.is_clean() {
                findings.push(Finding {
                    config_seed,
                    pattern: format!("{pattern:?}"),
                    traffic_seed,
                    audit: out.audit,
                });
            }
        }
    }
    assert_eq!(runs, 40);
    // Relative to the target directory, not the working directory: the
    // suite also runs from the root package (`tests/workspace_oracles.rs`).
    let dir = std::env::var("AUDIT_ARTIFACT_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_TARGET_TMPDIR"), "/../audit").into());
    if !findings.is_empty() {
        std::fs::create_dir_all(&dir).expect("create artifact dir");
        let path = format!("{dir}/chaos-findings.json");
        std::fs::write(&path, serde_json::to_string_pretty(&findings).unwrap())
            .expect("write artifact");
        eprintln!(
            "chaos sweep: {} finding(s) recorded to {path} (not gating)",
            findings.len()
        );
    }
}

/// Seeded faults stay detectable under full-blown adversarial traffic,
/// not just the targeted recipes in `fault_matrix.rs`.
#[test]
fn faults_surface_under_matching_chaos_pattern() {
    let cfg = CtrlConfig::paper_default();
    // Each pattern reliably exercises the path these faults corrupt.
    let pairs = [
        (SeededFault::TrcdOneEarly, ChaosPattern::SingleBankHammer),
        (SeededFault::TrpOneEarly, ChaosPattern::SingleBankHammer),
        (SeededFault::RrdDropped, ChaosPattern::FawPressure),
        (SeededFault::FawDropped, ChaosPattern::FawPressure),
        (SeededFault::WtrDropped, ChaosPattern::WriteBurstThrash),
        (SeededFault::TrfcHalved, ChaosPattern::RefreshStorm),
    ];
    for (fault, pattern) in pairs {
        let traffic = pattern.generate(&cfg, 42, 200);
        let out = drive(cfg.clone(), fault, &traffic, 3_000_000);
        assert!(
            out.audit.violations_total > 0,
            "{fault:?} undetected under {pattern:?}"
        );
    }
}
