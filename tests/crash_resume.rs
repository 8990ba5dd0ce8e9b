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
use serde_json::Value;

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
            let base_bytes = victim.checkpoint_base().expect("base capture");
            victim.advance_to_cycle(mid);
            let (_, d1_bytes) = victim.checkpoint_delta().expect("delta capture");
            victim.advance_to_cycle(cut);
            let (_, d2_bytes) = victim.checkpoint_delta().expect("delta capture");

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

/// A chain of eleven checkpoints: a base, eight deltas, then a rebase
/// and one delta on the new base. The run's report is the plain run's,
/// the old base's deltas are gone from disk (the writer removes them
/// once the new base is in place), and a longer run resumed from the
/// rebased chain finishes bit-identically to a plain run of it. That
/// run did resume: its own chain starts with a base at the next
/// boundary, where a run from cycle 0 would have rebased at the tenth.
#[test]
fn a_rebased_chain_leaves_only_its_new_base_and_resumes_identically() {
    // 1 µs is 1 200 DRAM cycles: eleven checkpoints in 11 µs.
    let every = 1_200;
    let dir = common::scratch_dir("rebased");
    let spec = |us| JobSpec {
        pattern: "seq".to_string(),
        cores: 2,
        stores: 0.3,
        us,
        ..JobSpec::default()
    };
    let run = |spec: &JobSpec, checkpoint: Option<JobCheckpoint>| {
        let opts = JobOptions {
            checkpoint,
            ..JobOptions::default()
        };
        run_job(spec, &JobPulse::default(), &JobCancel::new(), opts)
            .expect("synthetic streams checkpoint")
            .strip_perf()
    };
    let checkpoint = |resume| {
        Some(JobCheckpoint {
            dir: dir.clone(),
            key: "k".to_string(),
            every,
            resume,
        })
    };

    let (short, long) = (spec(11.0), spec(16.0));
    assert_eq!(
        run(&short, checkpoint(false)),
        run(&short, None),
        "checkpointing through a rebase perturbed the run"
    );
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("chain directory")
        .map(|e| e.expect("entry").file_name().into_string().expect("UTF-8"))
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, ["ckpt-k.base.dsnp", "ckpt-k.d1.dsnp"]);
    assert_eq!(
        common::on_disk_checkpoint_cycles(&dir, "k"),
        [10 * every, 11 * every]
    );

    assert_eq!(
        run(&long, checkpoint(true)),
        run(&long, None),
        "resume from the rebased chain diverged"
    );
    assert_eq!(
        common::on_disk_checkpoint_cycles(&dir, "k"),
        (12..=16).map(|k| k * every).collect::<Vec<_>>(),
        "the run did not resume from the rebased chain"
    );
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
        sim.checkpoint_base().expect("base capture");
        sim.advance_for_us(0.5);
        sim.checkpoint_delta().expect("delta capture").1
    };
    let err = Snapshot::from_binary(&delta_bytes).expect_err("delta blob is not a full snapshot");
    assert!(
        matches!(err, SnapshotError::Corrupt { .. }),
        "kind mismatch must be Corrupt, got {err:?}"
    );

    // A latency histogram of 2 buckets instead of 64, in a full snapshot
    // (JSON and binary) and in a delta: refused at decode, not a panic
    // on the first read after restore.
    let short_counts = |mut tree: Value| {
        *field(field(&mut tree, "histogram"), "counts") = Value::Seq(vec![Value::Int(0); 2]);
        tree
    };
    let full = short_counts(binary::decode(&good).expect("decodes").value);
    let err = Snapshot::from_json(&serde_json::to_string(&full).expect("prints")).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Parse { .. }),
        "short histogram in JSON must be Parse, got {err:?}"
    );
    let bytes = binary::encode(&full, binary::KIND_FULL, SNAPSHOT_FORMAT_VERSION);
    let err = Snapshot::from_binary(&bytes).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Corrupt { .. }),
        "short histogram in a container must be Corrupt, got {err:?}"
    );
    let delta = short_counts(binary::decode(&delta_bytes).expect("decodes").value);
    let bytes = binary::encode(&delta, binary::KIND_DELTA, SNAPSHOT_FORMAT_VERSION);
    let err = SnapshotDelta::from_binary(&bytes).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Corrupt { .. }),
        "short histogram in a delta must be Corrupt, got {err:?}"
    );
}

/// Satellite: delta capture without a base, and out-of-order delta
/// application, are typed errors.
#[test]
fn delta_chain_misuse_is_a_typed_error() {
    let mut sim = small_snapshot_sim();
    sim.advance_for_us(0.5);
    let err = sim
        .checkpoint_delta()
        .expect_err("delta before any base must fail");
    assert!(
        matches!(err, SnapshotError::DeltaBaseMissing),
        "expected DeltaBaseMissing, got {err:?}"
    );

    let mut base =
        Snapshot::from_binary(&sim.checkpoint_base().expect("base capture")).expect("base decodes");
    sim.advance_for_us(0.3);
    let _skipped = sim.checkpoint_delta().expect("delta capture");
    sim.advance_for_us(0.3);
    let (seq, second) = sim.checkpoint_delta().expect("delta capture");
    assert_eq!(seq, 2, "the second delta of the chain");
    let second = SnapshotDelta::from_binary(&second).expect("delta decodes");
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

/// The five files of snapshot format `$v`: the JSON blob, the full
/// container, then a chain's base and two deltas.
macro_rules! fixtures {
    ($v:literal) => {
        fixtures!($v: ".json", ".dsnp", ".base.dsnp", ".d1.dsnp", ".d2.dsnp")
    };
    ($v:literal: $($ext:literal),+) => {
        [$(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/snapshot_", $v, $ext)),+]
    };
}

/// Today's format.
const V5_PATHS: [&str; 5] = fixtures!("v5");
/// The previous formats, refused on load.
const V4_PATHS: [&str; 5] = fixtures!("v4");
const V3_PATHS: [&str; 5] = fixtures!("v3");

const GOLDEN_PATH: &str = V5_PATHS[0];
const GOLDEN_BIN_PATH: &str = V5_PATHS[1];

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
const GOLDEN_CHAIN_PATHS: [&str; 3] = [V5_PATHS[2], V5_PATHS[3], V5_PATHS[4]];

/// The golden machine's base + delta chain: base at 1.0 µs, deltas at 1.5
/// and 2.0 µs, so the last link lands on `golden_snapshot()`'s cycle. The
/// bytes checkpoints write, and the machine's own snapshot at the base.
fn golden_chain() -> ([Vec<u8>; 3], Snapshot) {
    let mut sim = small_snapshot_sim();
    sim.set_audit(true);
    sim.advance_for_us(1.0);
    let at_base = sim.snapshot().expect("synthetic streams checkpoint");
    let base = sim.checkpoint_base().expect("base capture");
    sim.advance_for_us(0.5);
    let (_, d1) = sim.checkpoint_delta().expect("delta capture");
    sim.advance_for_us(0.5);
    let (_, d2) = sim.checkpoint_delta().expect("delta capture");
    ([base, d1, d2], at_base)
}

/// The delta path of the binary container is pinned byte for byte like
/// the full one: a base and two deltas of the golden machine. Regenerate
/// with `DRAMSTACK_REGEN_GOLDEN=1 cargo test --test crash_resume golden`.
#[test]
fn golden_delta_chain_format_is_stable() {
    let (fresh, base) = golden_chain();
    let deltas = fresh[1..]
        .iter()
        .map(|bytes| SnapshotDelta::from_binary(bytes).expect("a fresh delta decodes"))
        .collect::<Vec<_>>();

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

// ---------------------------------------------------------------------------
// Format v3: the pinned files of the previous format. v4 holds machine
// state only: the device's mutation epochs, its `in_transition` flags
// (a mirror of `transitioning`) and the sampler's registry of named
// metrics are gone. v3 files are refused, never read.
// ---------------------------------------------------------------------------

/// The entries of a JSON object.
fn entries(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Map(entries) => entries,
        other => panic!("expected an object, found {other:?}"),
    }
}

/// The value under `key` of a JSON object.
fn field<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
    let entries = entries(v);
    let at = entries.iter().position(|(k, _)| k == key);
    &mut entries[at.unwrap_or_else(|| panic!("no key {key:?}"))].1
}

/// Removes `key` from a JSON object and returns its value.
fn remove(v: &mut Value, key: &str) -> Value {
    let entries = entries(v);
    let at = entries.iter().position(|(k, _)| k == key);
    entries
        .remove(at.unwrap_or_else(|| panic!("no key {key:?}")))
        .1
}

/// The `(name, value)` pair named `name` in a v3 registry list.
fn named(list: &Value, name: &str) -> Value {
    let pairs = list.as_seq().expect("a list of (name, value) pairs");
    let pair = pairs
        .iter()
        .find(|p| p.as_seq().unwrap()[0].as_str() == Some(name));
    pair.unwrap_or_else(|| panic!("no metric {name:?}"))
        .as_seq()
        .unwrap()[1]
        .clone()
}

/// The keys a v4 device image keeps, in order. v3 also carried three
/// mutation-epoch fields and `in_transition`.
const V4_DEVICE_KEYS: [&str; 7] = [
    "banks",
    "ranks",
    "bus",
    "stats",
    "fault",
    "auto_pre_pending",
    "transitioning",
];

/// The v3 snapshot text mapped to v4, written against the v3 text and
/// not against the code: the version is 4, each device keeps only
/// [`V4_DEVICE_KEYS`], and each sampler's `accounted` count and
/// `metrics` registry become one `window`, the typed per-window stats
/// the registry's names used to fill at every roll.
fn v3_to_v4(v3: &str) -> String {
    let mut tree: Value = serde_json::from_str(v3).expect("v3 text parses");
    *field(&mut tree, "version") = Value::Int(4);
    let Value::Seq(controllers) = field(&mut tree, "controllers") else {
        panic!("controllers is a list");
    };
    for ctrl in controllers {
        let device = entries(field(ctrl, "device"));
        assert_eq!(device.len(), V4_DEVICE_KEYS.len() + 4, "a v3 device image");
        device.retain(|(k, _)| V4_DEVICE_KEYS.contains(&k.as_str()));
    }
    let Value::Seq(samplers) = field(&mut tree, "samplers") else {
        panic!("samplers is a list");
    };
    for sampler in samplers {
        let cycles = remove(sampler, "accounted");
        let metrics = field(sampler, "metrics").clone();
        let counters = metrics.get("counters").expect("registry counters");
        let histograms = metrics.get("histograms").expect("registry histograms");
        let window = Value::Map(vec![
            ("cycles".to_string(), cycles),
            ("cas".to_string(), named(counters, "cas")),
            ("cas_hits".to_string(), named(counters, "cas_hits")),
            ("drain_cycles".to_string(), named(counters, "drain_cycles")),
            (
                "read_queue_depth".to_string(),
                named(histograms, "read_queue_depth"),
            ),
            (
                "write_queue_depth".to_string(),
                named(histograms, "write_queue_depth"),
            ),
        ]);
        let slot = entries(sampler).iter_mut().find(|(k, _)| k == "metrics");
        *slot.expect("metrics located above") = ("window".to_string(), window);
    }
    serde_json::to_string_pretty(&tree).expect("a tree always prints")
}

/// The v4 blob is the pinned v3 blob less what is not machine state: the
/// same machine at the same cycle, and nothing captured that v3 did not.
/// (Today's blob is the v4 blob mapped once more, to v5, below.)
#[test]
fn the_v4_blob_is_the_v3_blob_holding_machine_state_only() {
    let v3 = std::fs::read_to_string(V3_PATHS[0]).expect("read the v3 fixture");
    let v4 = std::fs::read_to_string(V4_PATHS[0]).expect("read the v4 fixture");
    assert!(
        v3_to_v4(&v3) == v4,
        "the v4 fixture is not the mapped v3 fixture"
    );
}

/// A chain of an older format left on disk costs a restart, never a
/// wrong report: for the v3 and the v4 files alike, both decoders refuse
/// them with a typed error, `load_latest` finds no checkpoint in them,
/// and a job resuming over them runs from cycle 0 to the report an
/// uncheckpointed run gives.
#[test]
fn a_v3_chain_is_refused_and_a_job_over_it_starts_from_cycle_zero() {
    for (version, paths) in [(3, V3_PATHS), (4, V4_PATHS)] {
        refused_and_restarted(version, paths);
    }
}

/// [`a_v3_chain_is_refused_and_a_job_over_it_starts_from_cycle_zero`]
/// over the files of format `version`, in [`V4_PATHS`] order.
fn refused_and_restarted(version: u64, paths: [&str; 5]) {
    let stale = |e| {
        let want = SnapshotError::VersionMismatch {
            expected: SNAPSHOT_FORMAT_VERSION,
            got: version,
        };
        e == want
    };
    let json = std::fs::read_to_string(paths[0]).expect("read the stale JSON");
    assert!(stale(Snapshot::from_json(&json).unwrap_err()));
    for path in &paths[1..3] {
        let full = std::fs::read(path).expect("read a stale full container");
        assert!(stale(Snapshot::from_binary(&full).unwrap_err()));
    }
    for path in &paths[3..] {
        let delta = std::fs::read(path).expect("read a stale delta");
        assert!(stale(SnapshotDelta::from_binary(&delta).unwrap_err()));
    }

    let dir = common::scratch_dir(&format!("stale-v{version}"));
    let key = "stale";
    let names = [
        format!("ckpt-{key}.base.dsnp"),
        format!("ckpt-{key}.d1.dsnp"),
        format!("ckpt-{key}.d2.dsnp"),
    ];
    for (from, name) in paths[2..].iter().zip(&names) {
        std::fs::copy(from, dir.join(name)).expect("lay down the stale chain");
    }
    assert!(
        ckpt::load_latest(&dir, key).is_none(),
        "a v{version} base is no base"
    );

    let spec = JobSpec {
        cores: 2,
        stores: 0.3,
        us: 2.0,
        ..JobSpec::default()
    };
    let every = 1_000;
    let run = |checkpoint: Option<JobCheckpoint>| {
        let pulse = JobPulse::default();
        let opts = JobOptions {
            checkpoint,
            ..JobOptions::default()
        };
        let report = run_job(&spec, &pulse, &JobCancel::new(), opts).expect("the job runs");
        (report, pulse.beats())
    };
    let (plain, plain_beats) = run(None);
    let (resumed, resumed_beats) = run(Some(JobCheckpoint {
        dir: dir.clone(),
        key: key.to_string(),
        every,
        resume: true,
    }));
    assert_eq!(plain.strip_perf(), resumed.strip_perf());
    // 2 us is 2400 cycles: steps end at 1000, 2000 and 2400 from cycle 0.
    assert_eq!((plain_beats, resumed_beats), (1, 3));
    assert_eq!(
        common::on_disk_checkpoint_cycles(&dir, key),
        [every, 2 * every],
        "the job's own chain replaces the v{version} one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Format v5: a delta is the base layout cut where the machine grows, in
// dirty cache sets and appended window series, and nowhere else. Against
// v4 it carries every channel whole and the whole latency histogram, and
// no queue-depth histogram writes its constant bucket edges. The v5
// fixtures are the v4 ones mapped in test code.
// ---------------------------------------------------------------------------

/// Removes every `bounds` key of a tree, at any depth.
fn drop_bounds(v: &mut Value) {
    match v {
        Value::Map(entries) => {
            entries.retain(|(k, _)| k != "bounds");
            entries.iter_mut().for_each(|(_, v)| drop_bounds(v));
        }
        Value::Seq(items) => items.iter_mut().for_each(drop_bounds),
        _ => {}
    }
}

/// A v4 tree made v5 in what every file shares: the version is 5 and no
/// key is named `bounds`.
fn v5_keys(tree: &mut Value) {
    *field(tree, "version") = Value::Int(5);
    drop_bounds(tree);
}

/// The integer a tree node holds.
fn int(v: &Value) -> i128 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer, found {other:?}"),
    }
}

/// The whole histogram a v4 patch replays `prev` into: each bucket it
/// lists grows by its count, and the scalar tails are the patch's.
fn replay_histogram(prev: &Value, patch: &Value) -> Value {
    let column = |name| patch.get(name).and_then(Value::as_seq).expect(name);
    let mut counts = prev.get("counts").and_then(Value::as_seq).unwrap().to_vec();
    for (i, added) in column("bucket_indices").iter().zip(column("bucket_added")) {
        let slot = &mut counts[int(i) as usize];
        *slot = Value::Int(int(slot) + int(added));
    }
    let mut whole = vec![("counts".to_string(), Value::Seq(counts))];
    for key in ["total", "min", "max", "sum"] {
        whole.push((key.to_string(), patch.get(key).expect(key).clone()));
    }
    Value::Map(whole)
}

/// The decoded tree of a v4 container of `kind`, with [`v5_keys`].
fn v4_container(path: &str, kind: u8) -> Value {
    let decoded = binary::decode(&std::fs::read(path).expect("read a v4 fixture"))
        .expect("a v4 container decodes");
    assert_eq!((decoded.kind, decoded.format_version), (kind, 4), "{path}");
    let mut tree = decoded.value;
    v5_keys(&mut tree);
    tree
}

/// The v4 files mapped to v5, in [`V4_PATHS`] order, written against the
/// files and not against the code. Besides the version and the `bounds`
/// keys, a delta changes in two members: a channel v4 left out (`null`)
/// is the previous checkpoint's, and the histogram patch becomes the
/// histogram it replays the previous checkpoint's into.
fn v4_files_to_v5() -> (String, [Vec<u8>; 4]) {
    let mut json: Value =
        serde_json::from_str(&std::fs::read_to_string(V4_PATHS[0]).expect("read the v4 JSON"))
            .expect("v4 text parses");
    v5_keys(&mut json);
    let json = serde_json::to_string_pretty(&json).expect("a tree always prints");

    let full = v4_container(V4_PATHS[1], binary::KIND_FULL);
    let base = v4_container(V4_PATHS[2], binary::KIND_FULL);
    let mut controllers = base.get("controllers").unwrap().as_seq().unwrap().to_vec();
    let mut histogram = base.get("histogram").unwrap().clone();
    let mut files = vec![
        binary::encode(&full, binary::KIND_FULL, 5),
        binary::encode(&base, binary::KIND_FULL, 5),
    ];
    for path in &V4_PATHS[3..] {
        let mut delta = v4_container(path, binary::KIND_DELTA);
        let Value::Seq(carried) = field(&mut delta, "controllers") else {
            panic!("controllers is a list");
        };
        for (slot, prev) in carried.iter_mut().zip(&controllers) {
            if *slot == Value::Null {
                *slot = prev.clone();
            }
        }
        controllers = carried.clone();
        histogram = replay_histogram(&histogram, delta.get("histogram").unwrap());
        *field(&mut delta, "histogram") = histogram.clone();
        files.push(binary::encode(&delta, binary::KIND_DELTA, 5));
    }
    (json, files.try_into().expect("four containers"))
}

/// The v5 fixtures are the v4 fixtures mapped: the same machine at the
/// same cycles, a delta whole in everything but cache sets and window
/// series, and no constant bucket edges. Today's files are the mapped
/// ones too.
#[test]
fn the_v5_files_are_the_v4_files_mapped() {
    let (json, containers) = v4_files_to_v5();
    let snap = golden_snapshot();
    let (chain, _) = golden_chain();
    assert!(
        json == snap.to_json(),
        "the v4 JSON, mapped to v5, is not today's snapshot text"
    );
    let fresh = [&snap.to_binary(), &chain[0], &chain[1], &chain[2]];
    for ((path, mapped), fresh) in V5_PATHS[1..].iter().zip(&containers).zip(fresh) {
        assert!(mapped == fresh, "{path}: the mapped v4 file is not today's");
    }
    if common::regen_golden() {
        return;
    }
    let pinned = std::fs::read_to_string(V5_PATHS[0]).expect("read the v5 JSON");
    assert!(json == pinned, "the v5 JSON is not the mapped v4 JSON");
    for (path, bytes) in V5_PATHS[1..].iter().zip(&containers) {
        let pinned = std::fs::read(path).expect("read a v5 container");
        assert!(*bytes == pinned, "{path} is not the mapped v4 file");
    }
}
