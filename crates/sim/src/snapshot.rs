//! Versioned whole-simulator snapshots for crash-safe checkpoint/resume.
//!
//! A [`Snapshot`] captures everything a [`Simulator`](crate::Simulator)
//! needs to resume bit-identically: device/controller state per channel,
//! the cache hierarchy and cores, the workload RNG streams, the stack
//! samplers (including the open, partially filled window), the armed
//! auditors' bookkeeping, and the cycle counters. It deliberately does
//! *not* capture attachments (probes, telemetry, profiling timers) or
//! the stepping oracle's switch
//! ([`set_busy_engine`](crate::Simulator::set_busy_engine)) — those
//! belong to the process hosting the simulator, not to the simulated
//! machine, and are preserved on the restore target.
//!
//! On disk a snapshot is a compact binary container
//! ([`Snapshot::to_binary`]) followed by [`SnapshotDelta`]s, the one
//! checkpoint format of [`crate::ckpt`]. Checkpoints write both straight
//! from the live simulator
//! ([`Simulator::checkpoint_base`](crate::Simulator::checkpoint_base),
//! [`checkpoint_delta`](crate::Simulator::checkpoint_delta)) through the
//! same borrowed views the owned types serialize through, so the bytes
//! are the owned types' bytes; the owned types are what decoding gives.
//! The versioned JSON blob ([`Snapshot::to_json`] /
//! [`Snapshot::from_json`]) describes the same state and is kept as the
//! golden oracle. The shape is guarded by
//! [`SNAPSHOT_FORMAT_VERSION`]: any change to the serialized shape of any
//! captured component must bump it (a golden-fixture test fails loudly
//! otherwise), and loading a blob with a different version is a typed
//! [`SnapshotError::VersionMismatch`], never a silent misparse.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize, Sink};

use dramstack_audit::AuditState;
use dramstack_core::{LatencyHistogram, SamplerDelta, SamplerState};
use dramstack_cpu::{CoreState, CycleStack, HierarchyDelta, HierarchyState};
use dramstack_dram::Cycle;
use dramstack_memctrl::CtrlSnapshot;

use crate::binary;
use crate::config::SystemConfig;

/// Version stamp embedded in every serialized snapshot.
///
/// Bump this whenever the serialized shape of [`Snapshot`] or any of its
/// component states changes, so stale blobs are rejected with
/// [`SnapshotError::VersionMismatch`] instead of being misread.
///
/// v2: cache ways serialize columnar (flat tag/LRU columns + valid/dirty
/// bitset words) instead of one map per way.
///
/// v3: delta checkpoints carry a sparse per-bucket latency-histogram
/// patch instead of re-serializing the whole histogram in every delta.
/// Full snapshots still embed the complete histogram and remain the
/// oracle.
///
/// v4: machine state only. Devices drop their mutation epochs and the
/// `in_transition` flags (rebuilt from `transitioning` on restore), and
/// a sampler's open window is one typed
/// [`CtrlWindowStats`](dramstack_obs::CtrlWindowStats) instead of a
/// registry of named metrics. Older files are refused, not converted: a
/// checkpoint chain from an older build costs a restart.
///
/// v5: a delta is the base layout cut only where the machine grows, in
/// dirty cache sets and appended window series. It carries every
/// channel's controller and the whole latency histogram (the v3 patch
/// encoded larger than the histogram, and channels were left out only
/// on a near-idle machine checkpointed every fraction of a microsecond),
/// and a queue-depth histogram no longer writes its constant bucket
/// edges ([`QUEUE_DEPTH_BOUNDS`](dramstack_obs::QUEUE_DEPTH_BOUNDS)).
pub const SNAPSHOT_FORMAT_VERSION: u32 = 5;

/// Version stamp of the binary `.dsnp` *container* (magic, string table,
/// section table — see [`crate::binary`]), independent of the embedded
/// tree's [`SNAPSHOT_FORMAT_VERSION`]. Bump when the container layout
/// itself changes.
pub const SNAPSHOT_BINARY_VERSION: u32 = 1;

/// Full machine state of a [`Simulator`](crate::Simulator) at a cycle
/// boundary, sufficient for bit-identical resume.
///
/// Produced by [`Simulator::snapshot`](crate::Simulator::snapshot) and
/// by decoding a checkpoint, consumed by
/// [`Simulator::restore`](crate::Simulator::restore).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Snapshot {
    /// Format version ([`SNAPSHOT_FORMAT_VERSION`] at capture time).
    pub version: u32,
    /// The configuration the simulator was built from. Restore targets
    /// must be built from an equal configuration.
    pub config: SystemConfig,
    /// The DRAM cycle the machine is parked at.
    pub dram_cycle: Cycle,
    /// Next cycle-stack window boundary.
    pub next_cycle_sample: Cycle,
    /// Per-core pipeline/MSHR/prefetcher state.
    pub cores: Vec<CoreState>,
    /// Per-core instruction-stream checkpoints (RNG state + position).
    pub streams: Vec<Vec<u64>>,
    /// Shared cache hierarchy (L1s, L2s, LLC, queues, in-flight reads).
    pub hierarchy: HierarchyState,
    /// Per-channel controller + device state.
    pub controllers: Vec<CtrlSnapshot>,
    /// Per-channel stack samplers, including the open window.
    pub samplers: Vec<SamplerState>,
    /// Per-channel shadow-auditor bookkeeping (`None` where unarmed).
    pub audits: Vec<Option<AuditState>>,
    /// Completed CPU cycle-stack windows not yet moved into a report.
    pub cycle_samples: Vec<CycleStack>,
    /// Running CPU cycle-stack total.
    pub cycle_total: CycleStack,
    /// DRAM read-latency histogram.
    pub histogram: LatencyHistogram,
}

/// The one serialized layout of a [`Snapshot`], borrowed from an owned
/// one or, by a base checkpoint, from the live simulator.
#[derive(Serialize)]
pub(crate) struct SnapshotView<'a> {
    pub(crate) version: u32,
    pub(crate) config: &'a SystemConfig,
    pub(crate) dram_cycle: Cycle,
    pub(crate) next_cycle_sample: Cycle,
    pub(crate) cores: &'a [CoreState],
    pub(crate) streams: &'a [Vec<u64>],
    pub(crate) hierarchy: &'a dyn Serialize,
    pub(crate) controllers: &'a [CtrlSnapshot],
    pub(crate) samplers: &'a [SamplerState],
    pub(crate) audits: &'a [Option<AuditState>],
    pub(crate) cycle_samples: &'a [CycleStack],
    pub(crate) cycle_total: CycleStack,
    pub(crate) histogram: &'a LatencyHistogram,
}

impl Serialize for Snapshot {
    fn serialize(&self, out: &mut dyn Sink) {
        SnapshotView {
            version: self.version,
            config: &self.config,
            dram_cycle: self.dram_cycle,
            next_cycle_sample: self.next_cycle_sample,
            cores: &self.cores,
            streams: &self.streams,
            hierarchy: &self.hierarchy,
            controllers: &self.controllers,
            samplers: &self.samplers,
            audits: &self.audits,
            cycle_samples: &self.cycle_samples,
            cycle_total: self.cycle_total,
            histogram: &self.histogram,
        }
        .serialize(out);
    }
}

impl Snapshot {
    /// Serializes to the versioned JSON blob.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot from JSON, with typed errors: parse failures
    /// carry the byte offset of the first malformed token, and a version
    /// stamp other than [`SNAPSHOT_FORMAT_VERSION`] is rejected before
    /// any state is interpreted.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        // Check the version stamp first so a format change surfaces as
        // VersionMismatch, not as a confusing field-level parse error.
        let value: serde_json::Value =
            serde_json::from_str(text).map_err(|e| SnapshotError::Parse {
                msg: e.to_string(),
                byte: e.byte_offset(),
            })?;
        if let Some(v) = value.get("version").and_then(serde_json::Value::as_u64) {
            if v != u64::from(SNAPSHOT_FORMAT_VERSION) {
                return Err(SnapshotError::VersionMismatch {
                    expected: SNAPSHOT_FORMAT_VERSION,
                    got: v,
                });
            }
        }
        serde_json::from_value(&value).map_err(|e| SnapshotError::Parse {
            msg: e.to_string(),
            byte: e.byte_offset(),
        })
    }

    /// Serializes to the compact binary `.dsnp` container — the default
    /// on-disk checkpoint format (several times smaller and faster to
    /// encode than the JSON blob, describing the identical state).
    pub fn to_binary(&self) -> Vec<u8> {
        binary::encode(self, binary::KIND_FULL, SNAPSHOT_FORMAT_VERSION)
    }

    /// Parses a full snapshot from the binary container, with typed
    /// errors for every way a file can be wrong: foreign files
    /// ([`SnapshotError::BadMagic`]), container or format version skew,
    /// truncation (naming the section the data ran out in), structural
    /// corruption, and a delta file where a full snapshot was expected.
    pub fn from_binary(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let d = binary::decode(bytes)?;
        if d.kind != binary::KIND_FULL {
            return Err(SnapshotError::Corrupt {
                msg: "expected a full snapshot, found a delta container".to_string(),
            });
        }
        if d.format_version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                expected: SNAPSHOT_FORMAT_VERSION,
                got: u64::from(d.format_version),
            });
        }
        Snapshot::from_value(&d.value).map_err(|e| SnapshotError::Corrupt { msg: e.to_string() })
    }

    /// Replays a delta captured against this snapshot's state, advancing
    /// `self` to the machine state at the delta's capture cycle.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::DeltaChainBroken`] when the delta was captured
    /// against a different base cycle than this snapshot is parked at,
    /// and [`SnapshotError::Corrupt`] when the delta does not fit this
    /// snapshot's shape (core/channel count or cache geometry).
    pub fn apply_delta(&mut self, delta: &SnapshotDelta) -> Result<(), SnapshotError> {
        if delta.base_cycle != self.dram_cycle {
            return Err(SnapshotError::DeltaChainBroken {
                expected: delta.base_cycle,
                got: self.dram_cycle,
            });
        }
        let corrupt = |msg: String| SnapshotError::Corrupt { msg };
        if delta.controllers.len() != self.controllers.len() {
            return Err(corrupt(format!(
                "delta covers {} channels, snapshot has {}",
                delta.controllers.len(),
                self.controllers.len()
            )));
        }
        if delta.samplers.len() != self.samplers.len() {
            return Err(corrupt(format!(
                "delta covers {} samplers, snapshot has {}",
                delta.samplers.len(),
                self.samplers.len()
            )));
        }
        if self.cycle_samples.len() as u64 != delta.cycle_samples_base_len {
            return Err(corrupt(format!(
                "delta expects a base with {} cycle windows, snapshot has {}",
                delta.cycle_samples_base_len,
                self.cycle_samples.len()
            )));
        }
        self.hierarchy
            .apply_delta(&delta.hierarchy)
            .map_err(corrupt)?;
        for (s, d) in self.samplers.iter_mut().zip(&delta.samplers) {
            s.apply_delta(d).map_err(corrupt)?;
        }
        self.cycle_samples
            .extend(delta.cycle_samples_appended.iter().cloned());
        self.dram_cycle = delta.dram_cycle;
        self.next_cycle_sample = delta.next_cycle_sample;
        self.cores = delta.cores.clone();
        self.streams = delta.streams.clone();
        self.controllers = delta.controllers.clone();
        self.audits = delta.audits.clone();
        self.cycle_total = delta.cycle_total;
        self.histogram = delta.histogram.clone();
        Ok(())
    }
}

/// A periodic checkpoint serialized as a *delta*: the base layout cut
/// where the machine grows. The cache hierarchy shrinks to the sets
/// dirtied since the previous checkpoint in the chain, and the sampler
/// and CPU cycle-window series to the windows rolled since; every other
/// member (cores, streams, controllers, audits, totals, the latency
/// histogram) is captured whole. The chain writes deltas straight from
/// the live simulator; this owned form is what decoding one gives.
///
/// Deltas form a chain: a full base snapshot, then deltas with ascending
/// `seq`, each stamped with the `base_cycle` it applies on top of.
/// [`Snapshot::apply_delta`] refuses a link whose `base_cycle` does not
/// match, so a stale or misordered chain surfaces as a typed error.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct SnapshotDelta {
    /// Format version ([`SNAPSHOT_FORMAT_VERSION`] at capture time).
    pub version: u32,
    /// Position in the chain (1 for the first delta after the base).
    pub seq: u64,
    /// The `dram_cycle` of the snapshot this delta applies on top of.
    pub base_cycle: Cycle,
    /// The DRAM cycle the machine is parked at after replay.
    pub dram_cycle: Cycle,
    /// Next cycle-stack window boundary.
    pub next_cycle_sample: Cycle,
    /// Per-core pipeline/MSHR/prefetcher state (small; captured whole).
    pub cores: Vec<CoreState>,
    /// Per-core instruction-stream checkpoints (small; captured whole).
    pub streams: Vec<Vec<u64>>,
    /// Cache-hierarchy patch: dirtied sets only.
    pub hierarchy: HierarchyDelta,
    /// Per-channel controller + device state.
    pub controllers: Vec<CtrlSnapshot>,
    /// Per-channel sampler patches: open window + appended windows only.
    pub samplers: Vec<SamplerDelta>,
    /// Per-channel shadow-auditor bookkeeping (`None` where unarmed).
    pub audits: Vec<Option<AuditState>>,
    /// Rolled CPU cycle windows in the base, for chain integrity.
    pub cycle_samples_base_len: u64,
    /// CPU cycle windows rolled since the previous checkpoint.
    pub cycle_samples_appended: Vec<CycleStack>,
    /// Running CPU cycle-stack total.
    pub cycle_total: CycleStack,
    /// DRAM read-latency histogram.
    pub histogram: LatencyHistogram,
}

/// The one serialized layout of a [`SnapshotDelta`], borrowed from an
/// owned one or, by a delta checkpoint, from the live simulator.
#[derive(Serialize)]
pub(crate) struct DeltaView<'a> {
    pub(crate) version: u32,
    pub(crate) seq: u64,
    pub(crate) base_cycle: Cycle,
    pub(crate) dram_cycle: Cycle,
    pub(crate) next_cycle_sample: Cycle,
    pub(crate) cores: &'a [CoreState],
    pub(crate) streams: &'a [Vec<u64>],
    pub(crate) hierarchy: &'a dyn Serialize,
    pub(crate) controllers: &'a [CtrlSnapshot],
    pub(crate) samplers: &'a [SamplerDelta],
    pub(crate) audits: &'a [Option<AuditState>],
    pub(crate) cycle_samples_base_len: u64,
    pub(crate) cycle_samples_appended: &'a [CycleStack],
    pub(crate) cycle_total: CycleStack,
    pub(crate) histogram: &'a LatencyHistogram,
}

impl Serialize for SnapshotDelta {
    fn serialize(&self, out: &mut dyn Sink) {
        DeltaView {
            version: self.version,
            seq: self.seq,
            base_cycle: self.base_cycle,
            dram_cycle: self.dram_cycle,
            next_cycle_sample: self.next_cycle_sample,
            cores: &self.cores,
            streams: &self.streams,
            hierarchy: &self.hierarchy,
            controllers: &self.controllers,
            samplers: &self.samplers,
            audits: &self.audits,
            cycle_samples_base_len: self.cycle_samples_base_len,
            cycle_samples_appended: &self.cycle_samples_appended,
            cycle_total: self.cycle_total,
            histogram: &self.histogram,
        }
        .serialize(out);
    }
}

impl SnapshotDelta {
    /// Serializes to the compact binary `.dsnp` container (delta kind).
    pub fn to_binary(&self) -> Vec<u8> {
        binary::encode(self, binary::KIND_DELTA, SNAPSHOT_FORMAT_VERSION)
    }

    /// Parses a delta from the binary container (same typed errors as
    /// [`Snapshot::from_binary`], plus a full container where a delta was
    /// expected is [`SnapshotError::Corrupt`]).
    pub fn from_binary(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let d = binary::decode(bytes)?;
        if d.kind != binary::KIND_DELTA {
            return Err(SnapshotError::Corrupt {
                msg: "expected a delta, found a full snapshot container".to_string(),
            });
        }
        if d.format_version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                expected: SNAPSHOT_FORMAT_VERSION,
                got: u64::from(d.format_version),
            });
        }
        SnapshotDelta::from_value(&d.value)
            .map_err(|e| SnapshotError::Corrupt { msg: e.to_string() })
    }
}

/// Typed failures from snapshot capture, serialization, or restore.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The blob was written by a different snapshot format version.
    VersionMismatch {
        /// The version this build understands.
        expected: u32,
        /// The version found in the blob.
        got: u64,
    },
    /// The restore target was built from a different [`SystemConfig`]
    /// than the snapshot captures.
    ConfigMismatch,
    /// A core's instruction stream does not support checkpointing
    /// (custom `InstrStream` impls without `checkpoint`).
    StreamUnsupported {
        /// Index of the offending core.
        core: usize,
    },
    /// A core's instruction stream rejected the checkpoint words.
    StreamRestoreFailed {
        /// Index of the offending core.
        core: usize,
    },
    /// The JSON blob is malformed or does not describe a snapshot.
    Parse {
        /// Parser message.
        msg: String,
        /// Byte offset of the first malformed token, when known.
        byte: Option<usize>,
    },
    /// The file does not start with the binary container magic — it is
    /// not a `.dsnp` snapshot at all.
    BadMagic,
    /// The binary *container* layout version differs (the embedded
    /// tree's format version is [`SnapshotError::VersionMismatch`]).
    BinaryVersionMismatch {
        /// The container version this build reads.
        expected: u32,
        /// The container version found in the file.
        got: u32,
    },
    /// The binary container ends mid-data (e.g. a write cut short by a
    /// crash).
    Truncated {
        /// The section the data ran out in (`header` for the preamble).
        section: String,
    },
    /// The binary container is structurally damaged, or a decoded tree
    /// does not describe the expected snapshot/delta shape.
    Corrupt {
        /// What was wrong.
        msg: String,
    },
    /// A delta was applied to (or a chain replayed from) a base parked
    /// at a different cycle than the delta was captured against.
    DeltaChainBroken {
        /// The base cycle the delta expects.
        expected: Cycle,
        /// The cycle the base snapshot is actually parked at.
        got: Cycle,
    },
    /// A delta capture was requested with no base snapshot taken first,
    /// or a delta chain on disk has no readable base.
    DeltaBaseMissing,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::VersionMismatch { expected, got } => write!(
                f,
                "snapshot format version mismatch: this build reads v{expected}, blob is v{got}"
            ),
            SnapshotError::ConfigMismatch => {
                write!(f, "snapshot was captured under a different system config")
            }
            SnapshotError::StreamUnsupported { core } => write!(
                f,
                "core {core}'s instruction stream does not support checkpointing"
            ),
            SnapshotError::StreamRestoreFailed { core } => write!(
                f,
                "core {core}'s instruction stream rejected the checkpoint data"
            ),
            SnapshotError::Parse { msg, byte } => match byte {
                Some(b) => write!(f, "malformed snapshot JSON at byte {b}: {msg}"),
                None => write!(f, "malformed snapshot JSON: {msg}"),
            },
            SnapshotError::BadMagic => {
                write!(f, "not a binary snapshot: missing DSNP container magic")
            }
            SnapshotError::BinaryVersionMismatch { expected, got } => write!(
                f,
                "binary container version mismatch: this build reads v{expected}, file is v{got}"
            ),
            SnapshotError::Truncated { section } => {
                write!(f, "binary snapshot truncated in section `{section}`")
            }
            SnapshotError::Corrupt { msg } => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::DeltaChainBroken { expected, got } => write!(
                f,
                "delta chain broken: delta was captured against base cycle {expected}, \
                 base is parked at {got}"
            ),
            SnapshotError::DeltaBaseMissing => {
                write!(f, "delta requested with no base snapshot")
            }
        }
    }
}

impl Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_mismatch_is_typed() {
        let text = r#"{"version": 99}"#;
        match Snapshot::from_json(text) {
            Err(SnapshotError::VersionMismatch { expected, got }) => {
                assert_eq!(expected, SNAPSHOT_FORMAT_VERSION);
                assert_eq!(got, 99);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn parse_error_carries_byte_offset() {
        let text = "{\"version\": 1, !!!}";
        match Snapshot::from_json(text) {
            Err(SnapshotError::Parse { byte, .. }) => assert!(byte.is_some()),
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn display_messages_are_informative() {
        let e = SnapshotError::VersionMismatch {
            expected: 1,
            got: 2,
        };
        assert!(e.to_string().contains("v1"));
        assert!(e.to_string().contains("v2"));
        let e = SnapshotError::Parse {
            msg: "bad token".into(),
            byte: Some(17),
        };
        assert!(e.to_string().contains("byte 17"));
    }
}
