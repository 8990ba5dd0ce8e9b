//! The checkpoint pipeline: chained base+delta file sets and the
//! background writer thread.
//!
//! A [`CheckpointChain`] owns the on-disk checkpoint of one job. Each
//! [`checkpoint`](CheckpointChain::checkpoint) call does the *fast,
//! synchronous* part on the simulation thread — capturing state and
//! encoding it to bytes — and hands the buffer to a [`CheckpointWriter`]
//! whose background thread does the atomic tmp+rename I/O. The channel
//! holds one pending buffer (double buffering): the simulation encodes
//! checkpoint N+1 while the writer flushes checkpoint N, and blocks only
//! if the disk falls two checkpoints behind.
//!
//! There is one on-disk format: a binary base snapshot plus numbered
//! delta files; every [`REBASE_EVERY`] deltas the chain re-bases with a
//! fresh full snapshot. Ordering makes every crash window safe: the new
//! base replaces the old one atomically *before* the writer unlinks the
//! stale deltas, and a stale delta that survives a crash fails the
//! `base_cycle` chain check on load, so [`load_latest`] falls back to
//! the newest complete prefix.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::snapshot::{Snapshot, SnapshotError};
use crate::system::Simulator;

/// Cooperative termination flag. A signal handler (or any thread) sets it
/// via [`request_interrupt`]; [`run_job`](crate::jobs::run_job) sees it at
/// its next slice boundary through a
/// [`JobCancel::on_interrupt`](crate::jobs::JobCancel::on_interrupt) token,
/// flushes one final checkpoint and stops instead of being killed
/// mid-write. The flag is process-wide and sticky — callers that want to
/// survive an interrupt must [`clear_interrupt`] once they have handled it.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Which signal requested the interrupt (0 = none / not signal-driven).
/// Lets the CLI exit with the conventional `128 + signal` code — 143 for
/// SIGTERM, 130 for SIGINT — after the cooperative shutdown finished.
static INTERRUPT_SIGNAL: AtomicI32 = AtomicI32::new(0);

/// Routes SIGTERM and SIGINT to [`request_interrupt_signal`] for the rest
/// of the process. No `libc` dependency: the handlers are registered
/// through the raw `signal(2)` symbol every Unix target links anyway, and
/// the handler body is async-signal-safe (two atomic stores, recording
/// which signal fired). Installing twice is harmless.
#[cfg(unix)]
pub fn catch_termination_signals() {
    extern "C" fn on_signal(sig: i32) {
        request_interrupt_signal(sig);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's own prototype (an `int` and a
    // handler address), `on_signal` has the `void (*)(int)` ABI it
    // expects, and the handler only stores to two atomics.
    unsafe {
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
    }
}

/// No signals to catch off Unix; the interrupt flag can still be set with
/// [`request_interrupt`].
#[cfg(not(unix))]
pub fn catch_termination_signals() {}

/// Requests a cooperative stop at the next slice boundary.
/// Async-signal-safe: a single atomic store.
pub fn request_interrupt() {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// [`request_interrupt`] plus the signal number that triggered it, for
/// signal handlers (SIGTERM = 15, SIGINT = 2). Async-signal-safe: two
/// atomic stores.
pub fn request_interrupt_signal(signal: i32) {
    INTERRUPT_SIGNAL.store(signal, Ordering::SeqCst);
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// True once [`request_interrupt`] has fired and nobody cleared it.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// The signal behind the pending interrupt, if it came from a signal
/// handler via [`request_interrupt_signal`].
pub fn interrupt_signal() -> Option<i32> {
    match INTERRUPT_SIGNAL.load(Ordering::SeqCst) {
        0 => None,
        s => Some(s),
    }
}

/// Re-arms the process for another run after an interrupt was handled.
pub fn clear_interrupt() {
    INTERRUPTED.store(false, Ordering::SeqCst);
    INTERRUPT_SIGNAL.store(0, Ordering::SeqCst);
}

/// The format argument of [`CheckpointChain::create`]. The binary base +
/// delta chain is the only format; kept only for the benchmark's one
/// caller, and goes when that call does.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// Compact binary `.dsnp` containers.
    Binary,
}

/// A checkpoint failure: either the simulator could not capture state or
/// the writer thread reported an I/O error.
#[derive(Debug)]
pub enum CkptError {
    /// Capture/serialization failed.
    Snapshot(SnapshotError),
    /// The background writer (or a cleanup) hit the filesystem.
    Io(io::Error),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Snapshot(e) => write!(f, "checkpoint capture failed: {e}"),
            CkptError::Io(e) => write!(f, "checkpoint write failed: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<SnapshotError> for CkptError {
    fn from(e: SnapshotError) -> Self {
        CkptError::Snapshot(e)
    }
}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Background writer
// ---------------------------------------------------------------------------

struct WriteJob {
    path: PathBuf,
    bytes: Vec<u8>,
    /// Unlinked *after* `path` is atomically in place (stale-delta
    /// cleanup on rebase; removal failures are ignored — stale files are
    /// harmless by the chain check).
    then_remove: Vec<PathBuf>,
}

/// Background checkpoint writer: a thread that performs atomic
/// write-to-tmp-then-rename I/O off the simulation thread.
///
/// The submission channel holds one buffer, so at most two checkpoints
/// are ever outstanding (one queued, one being written); a third
/// [`submit`](Self::submit) blocks — backpressure instead of unbounded
/// memory. The first I/O error is kept and surfaced by
/// [`finish`](Self::finish) (subsequent jobs are drained, not written).
/// Dropping the writer joins the thread after flushing the queue.
#[derive(Debug)]
pub struct CheckpointWriter {
    tx: Option<SyncSender<WriteJob>>,
    handle: Option<JoinHandle<io::Result<()>>>,
}

fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

fn writer_loop(rx: Receiver<WriteJob>) -> io::Result<()> {
    let mut first_err: Option<io::Error> = None;
    for job in rx {
        if first_err.is_some() {
            continue; // drain without writing so submitters never block on a dead disk
        }
        match write_atomic(&job.path, &job.bytes) {
            Ok(()) => {
                for p in &job.then_remove {
                    let _ = fs::remove_file(p);
                }
            }
            Err(e) => first_err = Some(e),
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

impl CheckpointWriter {
    /// Spawns the writer thread.
    pub fn new() -> Self {
        let (tx, rx) = sync_channel::<WriteJob>(1);
        let handle = std::thread::Builder::new()
            .name("ckpt-writer".to_string())
            .spawn(move || writer_loop(rx))
            .expect("spawn checkpoint writer thread");
        CheckpointWriter {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    fn submit_job(&self, job: WriteJob) -> io::Result<()> {
        self.tx
            .as_ref()
            .expect("writer channel open until drop")
            .send(job)
            .map_err(|_| io::Error::other("checkpoint writer thread is gone"))
    }

    /// Queues `bytes` to be written to `path` atomically (tmp + rename).
    /// Blocks only when a previous write is still in flight *and* one
    /// more is already queued.
    pub fn submit(&self, path: PathBuf, bytes: Vec<u8>) -> io::Result<()> {
        self.submit_job(WriteJob {
            path,
            bytes,
            then_remove: Vec::new(),
        })
    }

    /// Flushes the queue, joins the thread, and surfaces the first I/O
    /// error any write hit.
    pub fn finish(mut self) -> io::Result<()> {
        self.join()
    }

    fn join(&mut self) -> io::Result<()> {
        drop(self.tx.take());
        match self.handle.take() {
            Some(h) => h
                .join()
                .map_err(|_| io::Error::other("checkpoint writer panicked"))?,
            None => Ok(()),
        }
    }
}

impl Default for CheckpointWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

// ---------------------------------------------------------------------------
// Chain management
// ---------------------------------------------------------------------------

/// A fresh full base replaces delta accumulation after this many deltas,
/// bounding both resume replay time and stale-delta disk growth.
pub const REBASE_EVERY: u64 = 8;

fn base_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("ckpt-{key}.base.dsnp"))
}

fn delta_path(dir: &Path, key: &str, seq: u64) -> PathBuf {
    dir.join(format!("ckpt-{key}.d{seq}.dsnp"))
}

/// The on-disk checkpoint of one job: the base+delta file set and the
/// background writer. See the module docs for the pipeline
/// and crash-safety story.
#[derive(Debug)]
pub struct CheckpointChain {
    dir: PathBuf,
    key: String,
    writer: CheckpointWriter,
    deltas_since_base: u64,
    has_base: bool,
}

impl CheckpointChain {
    /// Creates a chain writing `ckpt-<key>.*` files under `dir` (created
    /// if absent).
    ///
    /// # Errors
    ///
    /// Returns the error from creating `dir`.
    pub fn new(dir: &Path, key: &str) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(CheckpointChain {
            dir: dir.to_path_buf(),
            key: key.to_string(),
            writer: CheckpointWriter::new(),
            deltas_since_base: 0,
            has_base: false,
        })
    }

    /// [`new`](Self::new), ignoring both arguments after `key`. Kept only
    /// for the benchmark's one caller; the stub goes when that call does.
    #[doc(hidden)]
    pub fn create(dir: &Path, key: &str, _: SnapshotFormat, _: bool) -> io::Result<Self> {
        Self::new(dir, key)
    }

    /// The job key this chain checkpoints.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Captures and queues one checkpoint of `sim`. Returns the encoded
    /// blob size in bytes.
    ///
    /// The first call (and every [`REBASE_EVERY`]-th thereafter) writes a
    /// full base; the rest write deltas of only the state dirtied since
    /// the previous checkpoint.
    ///
    /// # Errors
    ///
    /// Capture errors ([`SnapshotError`]) and writer-thread failures.
    pub fn checkpoint(&mut self, sim: &mut Simulator) -> Result<usize, CkptError> {
        if self.has_base && self.deltas_since_base < REBASE_EVERY {
            let delta = sim.snapshot_delta()?;
            let bytes = delta.to_binary();
            let n = bytes.len();
            self.writer
                .submit(delta_path(&self.dir, &self.key, delta.seq), bytes)?;
            self.deltas_since_base = delta.seq;
            return Ok(n);
        }
        let bytes = sim.snapshot_base()?.to_binary();
        let n = bytes.len();
        // Stale deltas are unlinked only after the new base has atomically
        // replaced the old one; any survivor of a crash in between fails
        // the chain check.
        let mut stale: Vec<PathBuf> = (1..=self.deltas_since_base)
            .map(|seq| delta_path(&self.dir, &self.key, seq))
            .collect();
        if !self.has_base {
            // A killed predecessor may have left a deeper chain. Those
            // deltas become unreadable the moment this base lands (their
            // `base_cycle` no longer matches), so sweep them up too.
            let prefix = format!("ckpt-{}.d", self.key);
            if let Ok(entries) = fs::read_dir(&self.dir) {
                for e in entries.flatten() {
                    let name = e.file_name();
                    let Some(n) = name.to_str() else { continue };
                    if n.starts_with(&prefix) && n.ends_with(".dsnp") {
                        stale.push(e.path());
                    }
                }
            }
            stale.sort();
            stale.dedup();
        }
        self.writer.submit_job(WriteJob {
            path: base_path(&self.dir, &self.key),
            bytes,
            then_remove: stale,
        })?;
        self.has_base = true;
        self.deltas_since_base = 0;
        Ok(n)
    }

    /// Flushes all queued writes and joins the writer thread, surfacing
    /// the first I/O error.
    pub fn finish(self) -> io::Result<()> {
        self.writer.finish()
    }
}

/// Removes every `ckpt-<key>.*` file under `dir`: the base, all deltas,
/// half-written `.tmp` files and an older build's JSON blob. Called when
/// a job completes. Missing files are fine; other I/O errors are ignored
/// (a leftover checkpoint is re-cleared on the next run).
pub fn clear(dir: &Path, key: &str) {
    let prefix = format!("ckpt-{key}.");
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.starts_with(&prefix))
        {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// A checkpoint recovered from disk by [`load_latest`].
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The reconstructed machine state.
    pub snapshot: Snapshot,
    /// Deltas replayed on top of the base.
    pub deltas_applied: u64,
}

/// Loads the most advanced complete checkpoint of `key` under `dir`: the
/// base snapshot plus deltas replayed in sequence order, stopping at the
/// first missing, corrupt, truncated, or chain-broken delta — everything
/// up to that point is a complete, consistent checkpoint (a torn tail
/// never poisons the prefix). Returns `None` when the base is missing or
/// unreadable.
pub fn load_latest(dir: &Path, key: &str) -> Option<LoadedCheckpoint> {
    let bytes = fs::read(base_path(dir, key)).ok()?;
    let mut snapshot = Snapshot::from_binary(&bytes).ok()?;
    let mut deltas_applied = 0;
    for seq in 1.. {
        let Ok(bytes) = fs::read(delta_path(dir, key, seq)) else {
            break;
        };
        let Ok(delta) = crate::snapshot::SnapshotDelta::from_binary(&bytes) else {
            break;
        };
        if snapshot.apply_delta(&delta).is_err() {
            break;
        }
        deltas_applied = seq;
    }
    Some(LoadedCheckpoint {
        snapshot,
        deltas_applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_lands_files_atomically_and_in_order() {
        let dir = std::env::temp_dir().join(format!("dsnp-writer-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let w = CheckpointWriter::new();
        for i in 0..16u32 {
            w.submit(dir.join("blob"), format!("gen {i}").into_bytes())
                .unwrap();
        }
        w.finish().unwrap();
        assert_eq!(fs::read_to_string(dir.join("blob")).unwrap(), "gen 15");
        assert!(!dir.join("blob.tmp").exists(), "tmp file was renamed away");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_removes_every_file_of_its_key_and_nothing_else() {
        let dir = std::env::temp_dir().join(format!("dsnp-clear-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // `ckpt-k.json` is the blob an older build wrote.
        let gone = [
            "ckpt-k.base.dsnp",
            "ckpt-k.d3.dsnp",
            "ckpt-k.d3.dsnp.tmp",
            "ckpt-k.json",
        ];
        let kept = ["ckpt-k2.base.dsnp", "manifest.json", "report-k.json"];
        for name in gone.iter().chain(&kept) {
            fs::write(dir.join(name), b"x").unwrap();
        }
        clear(&dir, "k");
        for name in gone {
            assert!(!dir.join(name).exists(), "{name} survived clear");
        }
        for name in kept {
            assert!(dir.join(name).exists(), "{name} was removed by clear");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_surfaces_io_error_on_finish() {
        let w = CheckpointWriter::new();
        w.submit(
            PathBuf::from("/nonexistent-dir-for-sure/blob"),
            vec![1, 2, 3],
        )
        .unwrap();
        assert!(w.finish().is_err());
    }
}
