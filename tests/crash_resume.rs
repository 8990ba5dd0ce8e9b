//! Crash-safe execution: deterministic checkpoint/resume.
//!
//! A run that is interrupted at an arbitrary cycle, snapshotted, moved
//! through any supported transport — the versioned JSON blob, the
//! compact binary container, or a binary base + delta chain — and
//! restored into a freshly built simulator must finish with a
//! `SimReport::strip_perf()` bit-identical to an uninterrupted run,
//! across all five DDR4 speed grades and all four synthetic traffic
//! shapes, with the fast-forward paths enabled. This file also pins the
//! snapshot roundtrips over random configurations, exercises
//! format negotiation (bad magic, truncation, version skew, broken
//! delta chains — typed errors, never panics), and guards both
//! serialized formats with byte-pinned golden fixtures. On disk there is
//! one format, the binary base + delta chain of `CheckpointChain`.

mod common;

use proptest::prelude::*;

use dramstack::dram::TimingParams;
use dramstack::memctrl::PagePolicy;
use dramstack::sim::parallel::JobPulse;
use dramstack::sim::{
    binary, ckpt, run_job, CheckpointChain, JobCancel, JobCheckpoint, JobOptions, JobSpec,
    SimReport, Simulator, Snapshot, SnapshotDelta, SnapshotError, SystemConfig,
    SNAPSHOT_BINARY_VERSION, SNAPSHOT_FORMAT_VERSION,
};
use dramstack::workloads::{PatternKind, SyntheticPattern};

fn presets() -> [(&'static str, TimingParams); 5] {
    [
        ("ddr4_2133", TimingParams::ddr4_2133()),
        ("ddr4_2400", TimingParams::ddr4_2400()),
        ("ddr4_2666", TimingParams::ddr4_2666()),
        ("ddr4_2933", TimingParams::ddr4_2933()),
        ("ddr4_3200", TimingParams::ddr4_3200()),
    ]
}

fn shapes() -> [(&'static str, SyntheticPattern); 4] {
    let mut seq_rw = SyntheticPattern::sequential(0.3);
    seq_rw.seed = 7;
    let mut rand_mlp = SyntheticPattern::random(0.0);
    rand_mlp.chains = 8;
    let mut rand_rw = SyntheticPattern::random(0.2);
    rand_rw.chains = 2;
    rand_rw.seed = 21;
    [
        ("seq_read", SyntheticPattern::sequential(0.0)),
        ("seq_rw", seq_rw),
        ("rand_mlp", rand_mlp),
        ("rand_rw", rand_rw),
    ]
}

fn config(timing: TimingParams, cores: usize, channels: usize, policy: PagePolicy) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(cores);
    cfg.ctrl.device.timing = timing;
    cfg.ctrl.page_policy = policy;
    cfg.channels = channels;
    cfg
}

fn build(cfg: &SystemConfig, pattern: SyntheticPattern) -> Simulator {
    let mut sim = Simulator::with_synthetic(cfg.clone(), pattern);
    sim.set_busy_engine(true);
    sim
}

fn uninterrupted(cfg: &SystemConfig, pattern: SyntheticPattern, us: f64) -> SimReport {
    build(cfg, pattern).run_for_us(us)
}

/// How the checkpoint travels from the interrupted process to the
/// resumed one. Every transport must reconstruct the identical snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    /// Full snapshot through the versioned JSON blob (the oracle path).
    JsonFull,
    /// Full snapshot through the compact binary container.
    BinaryFull,
    /// Binary base at an earlier cycle plus two deltas replayed on top —
    /// the default on-disk layout of periodic checkpointing.
    BinaryChain,
}

impl Transport {
    fn all() -> [Transport; 3] {
        [
            Transport::JsonFull,
            Transport::BinaryFull,
            Transport::BinaryChain,
        ]
    }
}

/// Runs to `cut_us`, checkpoints through `transport`, restores the
/// reconstructed snapshot into a *freshly built* simulator, and finishes
/// the run there. Returns the resumed report.
fn interrupted(
    cfg: &SystemConfig,
    pattern: SyntheticPattern,
    us: f64,
    cut_us: f64,
    transport: Transport,
) -> SimReport {
    let total = cfg.us_to_cycles(us);
    let cut = cfg.us_to_cycles(cut_us);
    assert!(cut > 1 && cut < total, "cut must fall inside the run");

    let mut victim = build(cfg, pattern);
    let parsed = match transport {
        Transport::JsonFull => {
            victim.advance_to_cycle(cut);
            let snap = victim.snapshot().expect("synthetic streams checkpoint");
            let parsed = Snapshot::from_json(&snap.to_json()).expect("snapshot JSON parses back");
            assert_eq!(parsed, snap, "JSON roundtrip altered the snapshot");
            parsed
        }
        Transport::BinaryFull => {
            victim.advance_to_cycle(cut);
            let snap = victim.snapshot().expect("synthetic streams checkpoint");
            let parsed =
                Snapshot::from_binary(&snap.to_binary()).expect("snapshot binary parses back");
            assert_eq!(parsed, snap, "binary roundtrip altered the snapshot");
            parsed
        }
        Transport::BinaryChain => {
            // Base well before the cut, one delta halfway to it, the
            // second delta exactly at it — the resumed state must come
            // entirely out of the replayed chain.
            let mid = cut / 2;
            victim.advance_to_cycle(mid / 2);
            let base = victim.snapshot_base().expect("base capture");
            let base_bytes = base.to_binary();
            victim.advance_to_cycle(mid);
            let d1_bytes = victim.snapshot_delta().expect("delta capture").to_binary();
            victim.advance_to_cycle(cut);
            let d2_bytes = victim.snapshot_delta().expect("delta capture").to_binary();

            let mut chained = Snapshot::from_binary(&base_bytes).expect("base parses back");
            for bytes in [&d1_bytes, &d2_bytes] {
                let delta = SnapshotDelta::from_binary(bytes).expect("delta parses back");
                chained.apply_delta(&delta).expect("delta applies in order");
            }
            let direct = victim.snapshot().expect("synthetic streams checkpoint");
            assert_eq!(
                chained, direct,
                "base+delta replay diverged from a directly captured snapshot"
            );
            chained
        }
    };
    drop(victim);

    let mut resumed = build(cfg, pattern);
    resumed.restore(&parsed).expect("restore accepts the blob");
    resumed.advance_to_cycle(total);
    resumed.report()
}

/// The acceptance matrix: every DDR4 speed grade × every traffic shape ×
/// every checkpoint transport, interrupted mid-window at an arbitrary
/// (non-boundary) cycle.
#[test]
fn interrupt_and_resume_bit_identical_across_preset_matrix() {
    for (tname, timing) in presets() {
        for (pname, pattern) in shapes() {
            let cfg = config(timing, 2, 1, PagePolicy::Open);
            let full = uninterrupted(&cfg, pattern, 8.0);
            assert!(
                full.ctrl_stats.reads_done > 0,
                "{tname}/{pname} did no work — the matrix proves nothing"
            );
            for transport in Transport::all() {
                let resumed = interrupted(&cfg, pattern, 8.0, 3.3, transport);
                assert_eq!(
                    full.strip_perf(),
                    resumed.strip_perf(),
                    "{tname}/{pname}/{transport:?}: resume diverged from the uninterrupted run"
                );
                if full.audit.armed {
                    assert!(
                        resumed.audit.is_clean(),
                        "{tname}/{pname}/{transport:?}: auditor flagged the resumed run: {:?}",
                        resumed.audit.first_violation()
                    );
                    assert_eq!(
                        full.audit, resumed.audit,
                        "{tname}/{pname}/{transport:?}: audit bookkeeping diverged"
                    );
                }
            }
        }
    }
}

/// Periodic checkpointing through the run driver composes with the
/// idle/busy fast-forward paths: checkpoints land exactly on the requested
/// boundaries, the checkpointed run's report is unchanged, and resuming
/// from the chain the run left on disk finishes bit-identically.
#[test]
fn periodic_checkpoints_land_on_boundaries_and_resume_cleanly() {
    // 6us at the paper clock is 7200 DRAM cycles, so this emits seven
    // checkpoints per run: a base and six deltas.
    let every = 1_000;
    let dir = common::scratch_dir("periodic");
    for (pattern, stores) in [("seq", 0.0), ("seq", 0.3), ("rand", 0.0), ("rand", 0.2)] {
        let spec = JobSpec {
            pattern: pattern.to_string(),
            cores: 2,
            stores,
            us: 6.0,
            ..JobSpec::default()
        };
        let key = format!("{pattern}-{stores}");
        let run = |checkpoint: Option<JobCheckpoint>| {
            let opts = JobOptions {
                checkpoint,
                ..JobOptions::default()
            };
            run_job(&spec, &JobPulse::default(), &JobCancel::new(), opts)
                .expect("synthetic streams checkpoint")
        };
        let checkpoint = |resume| {
            Some(JobCheckpoint {
                dir: dir.clone(),
                key: key.clone(),
                every,
                resume,
            })
        };

        let report = run(checkpoint(false));
        let cycles = common::on_disk_checkpoint_cycles(&dir, &key);
        assert_eq!(cycles.len(), 7, "{key}: chain on disk is {cycles:?}");
        for c in &cycles {
            assert_eq!(c % every, 0, "{key}: checkpoint off-boundary at cycle {c}");
        }

        let plain = run(None);
        assert!(plain.ctrl_stats.reads_done > 0, "{key} did no work");
        assert_eq!(
            plain.strip_perf(),
            report.strip_perf(),
            "{key}: periodic checkpointing perturbed the run"
        );

        // The chain's last link is cycle 7000; the resumed run simulates
        // only the tail.
        let resumed = run(checkpoint(true));
        assert_eq!(
            plain.strip_perf(),
            resumed.strip_perf(),
            "{key}: resume from last checkpoint diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn arbitrary_pattern() -> impl Strategy<Value = SyntheticPattern> {
    (
        prop_oneof![Just(PatternKind::Sequential), Just(PatternKind::Random)],
        0u32..=100,
        1u8..=8,
        any::<u64>(),
    )
        .prop_map(|(kind, store_pct, chains, seed)| {
            let mut p = match kind {
                PatternKind::Sequential => {
                    SyntheticPattern::sequential(f64::from(store_pct) / 100.0)
                }
                PatternKind::Random => SyntheticPattern::random(f64::from(store_pct) / 100.0),
            };
            p.chains = chains;
            p.seed = seed;
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: snapshot → JSON/binary → restore → snapshot roundtrip
    /// over random system configurations. The re-captured snapshot must
    /// equal the original blob field for field.
    #[test]
    fn snapshot_roundtrip_on_random_configs(
        preset in 0usize..5,
        pattern in arbitrary_pattern(),
        cores in 1usize..=4,
        channels in prop_oneof![Just(1usize), Just(2usize)],
        policy in prop_oneof![Just(PagePolicy::Open), Just(PagePolicy::Closed)],
        cut_permille in 50u64..=950,
    ) {
        let cfg = config(presets()[preset].1, cores, channels, policy);
        let total = cfg.us_to_cycles(4.0);
        let cut = (total * cut_permille / 1000).max(1);

        let mut victim = build(&cfg, pattern);
        victim.advance_to_cycle(cut);
        let snap = victim.snapshot().expect("synthetic streams checkpoint");

        let parsed = Snapshot::from_json(&snap.to_json())
            .expect("snapshot JSON parses back");
        prop_assert_eq!(&parsed, &snap);

        let binary = Snapshot::from_binary(&snap.to_binary())
            .expect("snapshot binary parses back");
        prop_assert_eq!(&binary, &snap);

        let mut resumed = build(&cfg, pattern);
        resumed.restore(&parsed).expect("restore accepts the blob");
        let recaptured = resumed.snapshot().expect("synthetic streams checkpoint");
        prop_assert_eq!(&recaptured, &snap);

        resumed.advance_to_cycle(total);
        victim.advance_to_cycle(total);
        prop_assert_eq!(
            resumed.report().strip_perf(),
            victim.report().strip_perf()
        );
    }
}

// ---------------------------------------------------------------------------
// Format negotiation: corrupt, truncated, or version-skewed inputs must
// surface as typed `SnapshotError`s — never a panic — and on-disk resume
// must fall back to the last complete checkpoint.
// ---------------------------------------------------------------------------

/// A small but fully populated snapshot for the negotiation tests.
fn small_snapshot_sim() -> Simulator {
    let mut pattern = SyntheticPattern::sequential(0.25);
    pattern.seed = 42;
    let mut cfg = config(TimingParams::ddr4_3200(), 1, 1, PagePolicy::Open);
    cfg.hierarchy.l1.size_bytes = 4 << 10;
    cfg.hierarchy.l1.ways = 8;
    cfg.hierarchy.l2.size_bytes = 8 << 10;
    cfg.hierarchy.l2.ways = 8;
    cfg.hierarchy.llc.size_bytes = 16 << 10;
    cfg.hierarchy.llc.ways = 8;
    build(&cfg, pattern)
}

/// Satellite: every malformed-binary shape decodes to a *typed* error.
/// Byte offsets follow the container layout pinned in DESIGN.md §11:
/// magic `DSNP` at 0..4, container version (u32 LE) at 4..8, kind byte
/// at 8, snapshot format version (u32 LE) at 9..13.
#[test]
fn binary_negotiation_rejects_malformed_inputs_with_typed_errors() {
    let mut sim = small_snapshot_sim();
    sim.advance_for_us(1.0);
    let good = sim
        .snapshot()
        .expect("synthetic streams checkpoint")
        .to_binary();
    assert!(Snapshot::from_binary(&good).is_ok(), "baseline must decode");

    // Wrong magic.
    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(
        matches!(Snapshot::from_binary(&bad), Err(SnapshotError::BadMagic)),
        "wrong magic must be BadMagic"
    );

    // Future container version.
    let mut bad = good.clone();
    bad[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(
        matches!(
            Snapshot::from_binary(&bad),
            Err(SnapshotError::BinaryVersionMismatch {
                expected: _,
                got: 99
            })
        ),
        "future container version must be BinaryVersionMismatch"
    );

    // Snapshot format version skew inside a well-formed container.
    let mut bad = good.clone();
    bad[9..13].copy_from_slice(&999u32.to_le_bytes());
    assert!(
        matches!(
            Snapshot::from_binary(&bad),
            Err(SnapshotError::VersionMismatch {
                expected: _,
                got: 999
            })
        ),
        "format version skew must be VersionMismatch"
    );

    // Truncation at every stratum: header, section table, mid-payload.
    for cut in [0, 3, 8, 12, 40, good.len() / 2, good.len() - 1] {
        let err =
            Snapshot::from_binary(&good[..cut]).expect_err("truncated container must not decode");
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::Corrupt { .. }
                    | SnapshotError::BadMagic
            ),
            "truncation at {cut} bytes produced unexpected error {err:?}"
        );
    }

    // A full snapshot container is not a delta and vice versa.
    let err = SnapshotDelta::from_binary(&good).expect_err("full blob is not a delta");
    assert!(
        matches!(err, SnapshotError::Corrupt { .. }),
        "kind mismatch must be Corrupt, got {err:?}"
    );
    let delta_bytes = {
        let mut sim = small_snapshot_sim();
        sim.advance_for_us(0.5);
        let _ = sim.snapshot_base().expect("base capture");
        sim.advance_for_us(0.5);
        sim.snapshot_delta().expect("delta capture").to_binary()
    };
    let err = Snapshot::from_binary(&delta_bytes).expect_err("delta blob is not a full snapshot");
    assert!(
        matches!(err, SnapshotError::Corrupt { .. }),
        "kind mismatch must be Corrupt, got {err:?}"
    );
}

/// Satellite: delta capture without a base, and out-of-order delta
/// application, are typed errors.
#[test]
fn delta_chain_misuse_is_a_typed_error() {
    let mut sim = small_snapshot_sim();
    sim.advance_for_us(0.5);
    let err = sim
        .snapshot_delta()
        .expect_err("delta before any base must fail");
    assert!(
        matches!(err, SnapshotError::DeltaBaseMissing),
        "expected DeltaBaseMissing, got {err:?}"
    );

    let mut base = sim.snapshot_base().expect("base capture");
    sim.advance_for_us(0.3);
    let _skipped = sim.snapshot_delta().expect("delta capture");
    sim.advance_for_us(0.3);
    let second = sim.snapshot_delta().expect("delta capture");
    let err = base
        .apply_delta(&second)
        .expect_err("skipping a delta must break the chain");
    assert!(
        matches!(err, SnapshotError::DeltaChainBroken { .. }),
        "expected DeltaChainBroken, got {err:?}"
    );
}

/// Satellite: `ckpt::load_latest` walks the on-disk chain and falls back
/// to the last *complete* checkpoint when the tail is torn, so a resume
/// never trips over a crash-torn file; without a base there is nothing
/// to resume from.
#[test]
fn on_disk_resume_falls_back_to_last_complete_checkpoint() {
    let dir = std::env::temp_dir().join(format!("dramstack-negotiate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = "job";

    // Lay down base + two deltas through the real writer pipeline.
    let mut sim = small_snapshot_sim();
    let mut chain = CheckpointChain::new(&dir, key).expect("chain creates");
    for us in [0.4, 0.8, 1.2] {
        sim.advance_for_us(us);
        chain.checkpoint(&mut sim).expect("checkpoint captures");
    }
    chain.finish().expect("writer drains");
    let expect = sim.snapshot().expect("synthetic streams checkpoint");

    let base = dir.join(format!("ckpt-{key}.base.dsnp"));
    let d1 = dir.join(format!("ckpt-{key}.d1.dsnp"));
    let d2 = dir.join(format!("ckpt-{key}.d2.dsnp"));
    for p in [&base, &d1, &d2] {
        assert!(p.exists(), "{} missing after finish()", p.display());
    }

    // Pristine chain: both deltas replay, state matches the live sim.
    let loaded = ckpt::load_latest(&dir, key).expect("pristine chain loads");
    assert_eq!(loaded.deltas_applied, 2);
    assert_eq!(
        loaded.snapshot, expect,
        "replayed chain diverged from live state"
    );

    // Torn tail: corrupt the deepest delta — resume falls back one step.
    let good_d2 = std::fs::read(&d2).expect("read d2");
    std::fs::write(&d2, &good_d2[..good_d2.len() / 2]).expect("tear d2");
    let loaded = ckpt::load_latest(&dir, key).expect("torn tail still loads");
    assert_eq!(loaded.deltas_applied, 1, "torn delta must be skipped");
    // d2 covered the final advance; the fallback state is strictly older.
    assert!(loaded.snapshot.dram_cycle < expect.dram_cycle);

    // No base: the whole chain is unusable.
    std::fs::remove_file(&base).expect("remove base");
    assert!(
        ckpt::load_latest(&dir, key).is_none(),
        "no base must be None"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A container of `kind` whose one section, `version`, holds `depth`
/// nested one-element seqs around a `null` (layout as in DESIGN.md §11).
fn deeply_nested_container(kind: u8, depth: usize) -> Vec<u8> {
    let mut payload = [6u8, 1, 1].repeat(depth);
    payload.push(0);
    let mut bytes = b"DSNP".to_vec();
    bytes.extend_from_slice(&SNAPSHOT_BINARY_VERSION.to_le_bytes());
    bytes.push(kind);
    bytes.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(b"\x01\x07version\x01\x00");
    let mut len = payload.len();
    while len >= 0x80 {
        bytes.push((len & 0x7f) as u8 | 0x80);
        len >>= 7;
    }
    bytes.push(len as u8);
    bytes.extend_from_slice(&payload);
    bytes
}

/// A section nested 200 000 deep (600 KB) is a typed
/// `Corrupt`, not a stack overflow, through both decoders and through
/// `ckpt::load_latest`, which falls back past it as past any torn file.
#[test]
fn deep_nesting_is_corrupt_not_a_stack_overflow() {
    let deep_full = deeply_nested_container(binary::KIND_FULL, 200_000);
    let deep_delta = deeply_nested_container(binary::KIND_DELTA, 200_000);
    assert!(deep_full.len() > 600_000);
    let is_depth_error = |e: SnapshotError| matches!(&e, SnapshotError::Corrupt { msg } if msg.contains("nesting deeper than"));
    assert!(is_depth_error(
        Snapshot::from_binary(&deep_full).unwrap_err()
    ));
    assert!(is_depth_error(
        SnapshotDelta::from_binary(&deep_delta).unwrap_err()
    ));

    let dir = common::scratch_dir("deep-nesting");
    let key = "job";
    let mut sim = small_snapshot_sim();
    let mut chain = CheckpointChain::new(&dir, key).expect("chain creates");
    for us in [0.4, 0.8] {
        sim.advance_for_us(us);
        chain.checkpoint(&mut sim).expect("checkpoint captures");
    }
    chain.finish().expect("writer drains");
    std::fs::write(dir.join(format!("ckpt-{key}.d1.dsnp")), &deep_delta).expect("write d1");
    let loaded = ckpt::load_latest(&dir, key).expect("the base still loads");
    assert_eq!(loaded.deltas_applied, 0, "the deep delta must be skipped");
    std::fs::write(dir.join(format!("ckpt-{key}.base.dsnp")), &deep_full).expect("write base");
    assert!(
        ckpt::load_latest(&dir, key).is_none(),
        "a deep base is no base"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Golden fixtures: both serialized snapshot formats are pinned byte for
// byte.
// ---------------------------------------------------------------------------

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/snapshot_v3.json");
const GOLDEN_BIN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/snapshot_v3.dsnp");

/// Deterministic machine state used to mint the golden blobs. Caches are
/// shrunk so the checked-in fixtures stay small; the serialized *shape*
/// (every struct, every field, every section) is identical to a
/// full-size snapshot.
fn golden_snapshot() -> Snapshot {
    let mut sim = small_snapshot_sim();
    // The auditor arms by default only in debug/test builds; pin it on
    // so the blob is byte-identical across build profiles (and so the
    // fixture covers the AuditState shape).
    sim.set_audit(true);
    sim.advance_for_us(2.0);
    sim.snapshot().expect("synthetic streams checkpoint")
}

/// Satellite: any change to the serialized shape of the snapshot (or of
/// any component state embedded in it) without a version bump fails this
/// test loudly. Regenerate the fixture with
/// `DRAMSTACK_REGEN_GOLDEN=1 cargo test --test crash_resume golden` after
/// bumping `SNAPSHOT_FORMAT_VERSION`.
#[test]
fn golden_snapshot_format_is_stable() {
    let fresh = golden_snapshot().to_json();

    if common::regen_golden() {
        std::fs::write(GOLDEN_PATH, &fresh).expect("write golden fixture");
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {GOLDEN_PATH} ({e}); \
             regenerate with DRAMSTACK_REGEN_GOLDEN=1"
        )
    });

    let parsed = Snapshot::from_json(&golden).unwrap_or_else(|e| {
        panic!(
            "golden v{SNAPSHOT_FORMAT_VERSION} snapshot no longer parses: {e}. \
             The snapshot format changed — bump SNAPSHOT_FORMAT_VERSION and \
             regenerate the fixture with DRAMSTACK_REGEN_GOLDEN=1."
        )
    });
    assert_eq!(parsed.version, SNAPSHOT_FORMAT_VERSION);

    assert_eq!(
        golden, fresh,
        "serialized snapshot bytes diverged from the golden fixture. If the \
         format (or the state captured at a given cycle) changed on purpose, \
         bump SNAPSHOT_FORMAT_VERSION and regenerate with \
         DRAMSTACK_REGEN_GOLDEN=1; otherwise this is a determinism regression."
    );

    // The pinned blob must still restore and run.
    let mut pattern = SyntheticPattern::sequential(0.25);
    pattern.seed = 42;
    let mut sim = build(&parsed.config.clone(), pattern);
    sim.restore(&parsed).expect("golden blob restores");
    sim.advance_for_us(0.5);
}

/// Satellite: the compact binary container is pinned byte for byte
/// alongside the JSON oracle. Any codec change — tags, varints, RLE,
/// string table, section order — without a `SNAPSHOT_BINARY_VERSION`
/// bump fails loudly. Regenerate both fixtures together with
/// `DRAMSTACK_REGEN_GOLDEN=1 cargo test --test crash_resume golden`.
#[test]
fn golden_binary_snapshot_format_is_stable() {
    let snap = golden_snapshot();
    let fresh = snap.to_binary();

    if common::regen_golden() {
        std::fs::write(GOLDEN_BIN_PATH, &fresh).expect("write golden binary fixture");
        eprintln!("regenerated {GOLDEN_BIN_PATH}");
        return;
    }

    let golden = std::fs::read(GOLDEN_BIN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden binary fixture {GOLDEN_BIN_PATH} ({e}); \
             regenerate with DRAMSTACK_REGEN_GOLDEN=1"
        )
    });

    let parsed = Snapshot::from_binary(&golden).unwrap_or_else(|e| {
        panic!(
            "golden binary snapshot no longer decodes: {e:?}. The container \
             format changed — bump SNAPSHOT_BINARY_VERSION and regenerate \
             the fixture with DRAMSTACK_REGEN_GOLDEN=1."
        )
    });
    assert_eq!(parsed, snap, "golden binary fixture decodes to stale state");

    assert!(
        golden == fresh,
        "binary container bytes diverged from the golden fixture \
         ({} golden bytes vs {} fresh). If the codec changed on purpose, \
         bump SNAPSHOT_BINARY_VERSION and regenerate with \
         DRAMSTACK_REGEN_GOLDEN=1; otherwise this is an encoding regression.",
        golden.len(),
        fresh.len()
    );

    // The compression claim the PR rests on: the binary fixture encodes
    // the same machine state in a fraction of the JSON bytes.
    let json_len = snap.to_json().len();
    assert!(
        fresh.len() * 3 < json_len,
        "binary fixture ({} bytes) is no longer well under a third of the \
         JSON blob ({json_len} bytes)",
        fresh.len()
    );
}

/// Golden delta chain: a base and two deltas of the golden machine.
const GOLDEN_CHAIN_PATHS: [&str; 3] = [
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/snapshot_v3.base.dsnp"
    ),
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/snapshot_v3.d1.dsnp"
    ),
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/snapshot_v3.d2.dsnp"
    ),
];

/// The golden machine's base + delta chain: base at 1.0 µs, deltas at 1.5
/// and 2.0 µs, so the last link lands on `golden_snapshot()`'s cycle.
fn golden_chain() -> (Snapshot, [SnapshotDelta; 2]) {
    let mut sim = small_snapshot_sim();
    sim.set_audit(true);
    sim.advance_for_us(1.0);
    let base = sim.snapshot_base().expect("base capture");
    sim.advance_for_us(0.5);
    let d1 = sim.snapshot_delta().expect("delta capture");
    sim.advance_for_us(0.5);
    let d2 = sim.snapshot_delta().expect("delta capture");
    (base, [d1, d2])
}

/// The delta path of the binary container is pinned byte for byte like
/// the full one: a base and two deltas of the golden machine. Regenerate
/// with `DRAMSTACK_REGEN_GOLDEN=1 cargo test --test crash_resume golden`.
#[test]
fn golden_delta_chain_format_is_stable() {
    let (base, deltas) = golden_chain();
    let fresh = [
        base.to_binary(),
        deltas[0].to_binary(),
        deltas[1].to_binary(),
    ];

    if common::regen_golden() {
        for (path, bytes) in GOLDEN_CHAIN_PATHS.iter().zip(&fresh) {
            std::fs::write(path, bytes).expect("write golden chain fixture");
            eprintln!("regenerated {path}");
        }
        return;
    }

    let golden: Vec<Vec<u8>> = GOLDEN_CHAIN_PATHS
        .iter()
        .map(|path| {
            std::fs::read(path).unwrap_or_else(|e| {
                panic!(
                    "missing golden chain fixture {path} ({e}); \
                     regenerate with DRAMSTACK_REGEN_GOLDEN=1"
                )
            })
        })
        .collect();

    let mut chained = Snapshot::from_binary(&golden[0]).expect("golden base decodes");
    assert_eq!(chained, base, "golden base decodes to stale state");
    for (bytes, delta) in golden[1..].iter().zip(&deltas) {
        let parsed = SnapshotDelta::from_binary(bytes).expect("golden delta decodes");
        assert_eq!(&parsed, delta, "golden delta decodes to stale state");
        chained.apply_delta(&parsed).expect("golden delta applies");
    }
    assert_eq!(
        chained,
        golden_snapshot(),
        "golden chain replays to a different machine than the golden snapshot"
    );

    for ((path, golden), fresh) in GOLDEN_CHAIN_PATHS.iter().zip(&golden).zip(&fresh) {
        assert!(
            golden == fresh,
            "{path}: container bytes diverged from the golden fixture \
             ({} golden bytes vs {} fresh). If the codec changed on purpose, \
             bump SNAPSHOT_BINARY_VERSION and regenerate with \
             DRAMSTACK_REGEN_GOLDEN=1; otherwise this is an encoding regression.",
            golden.len(),
            fresh.len()
        );
    }
}
