//! Resumable experiment campaigns: a config-hash-keyed completion
//! manifest around [`run_job`](crate::jobs::run_job).
//!
//! A [`Campaign`] wraps a checkpoint directory. Each job (one simulator
//! configuration + label) is identified by [`job_key`] — an FNV-1a hash
//! of the canonical JSON encoding of its [`SystemConfig`] plus the label
//! — and owns three artifacts inside the directory:
//!
//! * `manifest.json` entry — marks the job finished and names its report;
//! * `report-<key>.json` — the finished job's [`SimReport`];
//! * `ckpt-<key>.*` — the [`CheckpointChain`](crate::ckpt::CheckpointChain)
//!   of an in-flight job, written by the run driver (removed once the job
//!   finishes).
//!
//! A re-invoked sweep opens the same directory, loads every job whose
//! manifest entry is `done` ([`Campaign::load_report`]), and runs the
//! rest through [`Campaign::run_job`], which resumes interrupted jobs
//! from their chain and records completions. Manifest and report writes
//! go through a temp-file + rename so a crash mid-write never corrupts an
//! existing artifact, and the manifest is updated under a lock so
//! parallel sweep workers can record completions concurrently.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use dramstack_dram::Cycle;

use crate::ckpt::CkptError;
use crate::config::SystemConfig;
use crate::jobs::{run_job, JobCancel, JobCheckpoint, JobError, JobOptions, JobSpec};
use crate::parallel::JobPulse;
use crate::report::{load_report, ReportLoadError, SimReport};

/// Version stamp of the manifest file format.
pub const MANIFEST_VERSION: u32 = 1;

/// Name of the manifest file inside a campaign directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Stable job identity: FNV-1a over the canonical JSON encoding of the
/// configuration plus the job label, rendered as 16 hex digits. Equal
/// config + label ⇒ equal key across processes and runs.
pub fn job_key(cfg: &SystemConfig, label: &str) -> String {
    let canon = serde_json::to_string(cfg).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canon.bytes().chain(label.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ManifestEntry {
    key: String,
    label: String,
    done: bool,
    report: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    jobs: Vec<ManifestEntry>,
}

impl Manifest {
    fn fresh() -> Self {
        Manifest {
            version: MANIFEST_VERSION,
            jobs: Vec::new(),
        }
    }

    fn find(&self, key: &str) -> Option<&ManifestEntry> {
        let idx = self
            .jobs
            .binary_search_by(|e| e.key.as_str().cmp(key))
            .ok()?;
        Some(&self.jobs[idx])
    }

    fn upsert(&mut self, entry: ManifestEntry) {
        match self
            .jobs
            .binary_search_by(|e| e.key.as_str().cmp(entry.key.as_str()))
        {
            Ok(idx) => self.jobs[idx] = entry,
            Err(idx) => self.jobs.insert(idx, entry),
        }
    }
}

/// Typed failures from campaign bookkeeping.
#[derive(Debug)]
pub enum CampaignError {
    /// A file or directory operation failed.
    Io {
        /// Path that failed.
        path: String,
        /// The underlying I/O error.
        err: io::Error,
    },
    /// The manifest file exists but is malformed or from a different
    /// manifest version.
    Manifest {
        /// Path of the offending manifest.
        path: String,
        /// What went wrong.
        msg: String,
    },
    /// A recorded report file could not be loaded.
    Report(ReportLoadError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io { path, err } => write!(f, "{path}: {err}"),
            CampaignError::Manifest { path, msg } => write!(f, "{path}: {msg}"),
            CampaignError::Report(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ReportLoadError> for CampaignError {
    fn from(e: ReportLoadError) -> Self {
        CampaignError::Report(e)
    }
}

/// A checkpoint directory with its completion manifest.
///
/// Cheap to clone — clones share the in-memory manifest behind a lock,
/// so sweep workers can record completions from parallel threads while
/// the manifest file on disk stays consistent (every record rewrites it
/// atomically under the lock).
#[derive(Debug, Clone)]
pub struct Campaign {
    dir: PathBuf,
    manifest: Arc<Mutex<Manifest>>,
}

impl Campaign {
    /// Opens (or initializes) the campaign at `dir`, creating the
    /// directory if needed and loading an existing manifest.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Campaign, CampaignError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|err| CampaignError::Io {
            path: dir.display().to_string(),
            err,
        })?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest = if manifest_path.exists() {
            let text = fs::read_to_string(&manifest_path).map_err(|err| CampaignError::Io {
                path: manifest_path.display().to_string(),
                err,
            })?;
            let m: Manifest = serde_json::from_str(&text).map_err(|e| CampaignError::Manifest {
                path: manifest_path.display().to_string(),
                msg: match e.byte_offset() {
                    Some(b) => format!("malformed manifest at byte {b}: {e}"),
                    None => format!("malformed manifest: {e}"),
                },
            })?;
            if m.version != MANIFEST_VERSION {
                return Err(CampaignError::Manifest {
                    path: manifest_path.display().to_string(),
                    msg: format!(
                        "manifest version mismatch: this build reads v{MANIFEST_VERSION}, \
                         file is v{}",
                        m.version
                    ),
                });
            }
            m
        } else {
            Manifest::fresh()
        };
        Ok(Campaign {
            dir,
            manifest: Arc::new(Mutex::new(manifest)),
        })
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of jobs recorded as finished.
    pub fn jobs_done(&self) -> usize {
        let m = self.manifest.lock().unwrap_or_else(PoisonError::into_inner);
        m.jobs.iter().filter(|e| e.done).count()
    }

    /// Loads the recorded report of a finished job, or `None` if the job
    /// is not recorded as done.
    pub fn load_report(&self, key: &str) -> Result<Option<SimReport>, CampaignError> {
        let report_file = {
            let m = self.manifest.lock().unwrap_or_else(PoisonError::into_inner);
            match m.find(key) {
                Some(e) if e.done => e.report.clone(),
                _ => return Ok(None),
            }
        };
        let path = self.dir.join(report_file);
        Ok(Some(load_report(&path.display().to_string())?))
    }

    /// Records a job as finished: writes its report, marks the manifest
    /// entry done, and removes any leftover checkpoint.
    fn record_done(&self, key: &str, label: &str, report: &SimReport) -> Result<(), CampaignError> {
        let report_file = format!("report-{key}.json");
        let json = report.to_json().map_err(|e| CampaignError::Manifest {
            path: report_file.clone(),
            msg: format!("report serialization failed: {e}"),
        })?;
        self.write_atomic(&self.dir.join(&report_file), &json)?;
        {
            let mut m = self.manifest.lock().unwrap_or_else(PoisonError::into_inner);
            m.upsert(ManifestEntry {
                key: key.to_string(),
                label: label.to_string(),
                done: true,
                report: report_file,
            });
            let text = serde_json::to_string_pretty(&*m).map_err(|e| CampaignError::Manifest {
                path: MANIFEST_FILE.to_string(),
                msg: format!("manifest serialization failed: {e}"),
            })?;
            self.write_atomic(&self.dir.join(MANIFEST_FILE), &text)?;
        }
        crate::ckpt::clear(&self.dir, key);
        Ok(())
    }

    /// Runs `spec` as this campaign's job [`JobSpec::identity`] through
    /// [`run_job`]: checkpoints land in the campaign directory every
    /// `every` cycles (`0` = only if cancelled), `resume` continues from
    /// the job's chain if one is there, and a finished run is recorded
    /// done — a cancelled or failed one never is. `opts.checkpoint` is
    /// the campaign's to set.
    ///
    /// # Errors
    ///
    /// As [`run_job`]; a report that cannot be recorded is a
    /// [`JobError::Checkpoint`].
    pub fn run_job(
        &self,
        spec: &JobSpec,
        every: Cycle,
        resume: bool,
        pulse: &JobPulse,
        cancel: &JobCancel,
        opts: JobOptions,
    ) -> Result<SimReport, JobError> {
        let (key, label) = spec.identity().map_err(JobError::Spec)?;
        let checkpoint = Some(JobCheckpoint {
            dir: self.dir.clone(),
            key: key.clone(),
            every,
            resume,
        });
        let report = run_job(spec, pulse, cancel, JobOptions { checkpoint, ..opts })?;
        self.record_done(&key, &label, &report)
            .map_err(|e| CkptError::Io(io::Error::other(e.to_string())))?;
        Ok(report)
    }

    fn write_atomic(&self, path: &Path, text: &str) -> Result<(), CampaignError> {
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, text).map_err(|err| CampaignError::Io {
            path: tmp.display().to_string(),
            err,
        })?;
        fs::rename(&tmp, path).map_err(|err| CampaignError::Io {
            path: path.display().to_string(),
            err,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dramstack-campaign-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn job_key_is_stable_and_label_sensitive() {
        let cfg = SystemConfig::paper_default(2);
        let a = job_key(&cfg, "seq");
        assert_eq!(a, job_key(&cfg, "seq"));
        assert_ne!(a, job_key(&cfg, "rand"));
        assert_ne!(a, job_key(&SystemConfig::paper_default(4), "seq"));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn manifest_roundtrip_and_done_tracking() {
        let dir = temp_dir("manifest");
        let campaign = Campaign::open(&dir).unwrap();
        let cfg = SystemConfig::paper_default(1);
        let key = job_key(&cfg, "t");
        assert!(campaign.load_report(&key).unwrap().is_none());

        let report = crate::Simulator::with_synthetic(
            cfg,
            dramstack_workloads::SyntheticPattern::sequential(0.0),
        )
        .run_for_us(2.0);
        campaign.record_done(&key, "t", &report).unwrap();
        assert_eq!(campaign.jobs_done(), 1);

        // A fresh handle on the same directory sees the completion and
        // loads the identical report back.
        let reopened = Campaign::open(&dir).unwrap();
        assert_eq!(reopened.jobs_done(), 1);
        let loaded = reopened.load_report(&key).unwrap().unwrap();
        assert_eq!(loaded.strip_perf(), report.strip_perf());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_FILE), "{not json").unwrap();
        match Campaign::open(&dir) {
            Err(CampaignError::Manifest { msg, .. }) => assert!(msg.contains("byte")),
            other => panic!("expected Manifest error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
