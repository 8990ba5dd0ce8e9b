//! A minimal scoped-thread work-queue for running independent
//! simulations in parallel, plus a supervised variant for crash-safe
//! sweeps.
//!
//! Every figure driver in [`crate::experiments`] is a map over an
//! embarrassingly parallel job list: each job builds its own
//! [`Simulator`](crate::Simulator), so jobs share no mutable state.
//! [`map`] fans such a list out over `std::thread::scope` workers pulling
//! from a shared queue, and writes each result into the slot matching its
//! input index — the output order is always the input order, independent
//! of scheduling, so parallel sweeps are bit-identical to serial ones.
//! Each job runs under `catch_unwind`, so one panicking job never loses
//! its siblings' finished slots: the map completes every job first and
//! re-raises the first panic when the scope joins.
//!
//! [`supervised_map`] is the crash-safe variant for long campaigns: jobs
//! run on detached attempt threads under a per-job watchdog (wall-clock
//! deadline, no-progress stall detection via [`JobPulse`]), panicking
//! jobs are retried with exponential backoff, hung jobs are abandoned,
//! and the sweep always returns — every healthy result in input order
//! plus a typed [`JobOutcome`] for each failure.
//!
//! No thread pool or external dependencies: threads live for one call
//! (abandoned attempt threads for at most their job's lifetime), the
//! queue is a mutexed counter, and mutex poisoning is recovered via
//! [`PoisonError::into_inner`] — a panic elsewhere never turns into a
//! second panic here.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default worker count: the `DRAMSTACK_THREADS` environment variable
/// when set to a positive integer, otherwise the machine's available
/// parallelism (1 if unknown).
fn available_threads() -> usize {
    if let Ok(v) = std::env::var("DRAMSTACK_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on one worker per available CPU (or
/// `DRAMSTACK_THREADS`), preserving input order in the output.
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    map_with_threads(items, available_threads(), f)
}

/// Maps `f` over `items` on at most `threads` workers, preserving input
/// order in the output. `threads <= 1` (or a single item) runs serially
/// on the calling thread.
///
/// A panicking job does not abort the map: every other job still runs to
/// completion, then the first panic (in input order) is re-raised on the
/// caller. Use [`supervised_map`] to capture panics as values instead.
fn map_with_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    type Caught<R> = Result<R, Box<dyn Any + Send>>;
    let queue: Mutex<std::vec::IntoIter<T>> = Mutex::new(items.into_iter());
    let next_index = Mutex::new(0usize);
    let slots: Vec<Mutex<Option<Caught<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let workers = threads.min(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Pop the next (index, item) pair under one critical
                // section so indices and items stay in lock-step.
                let (idx, item) = {
                    let mut iter = queue.lock().unwrap_or_else(PoisonError::into_inner);
                    let Some(item) = iter.next() else {
                        return;
                    };
                    let mut ni = next_index.lock().unwrap_or_else(PoisonError::into_inner);
                    let idx = *ni;
                    *ni += 1;
                    (idx, item)
                };
                let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                *slots[idx].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    let mut results = Vec::with_capacity(n);
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    for s in slots {
        match s
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("every job ran exactly once")
        {
            Ok(r) => results.push(r),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    results
}

/// Liveness/progress signal handed to each supervised job.
///
/// The watchdog in [`supervised_map`] reads it between polls: call
/// [`beat`](Self::beat) (or [`set_progress`](Self::set_progress)) from
/// inside long-running work so a stall timeout can distinguish "slow but
/// alive" from "hung". A job that never pulses is still covered by the
/// wall-clock deadline.
#[derive(Debug, Clone, Default)]
pub struct JobPulse {
    inner: Arc<PulseInner>,
}

#[derive(Debug, Default)]
struct PulseInner {
    beats: AtomicU64,
    progress: AtomicU64,
}

impl JobPulse {
    /// Signals "still alive".
    pub fn beat(&self) {
        self.inner.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Reports absolute progress (e.g. simulated cycles) and beats.
    pub fn set_progress(&self, units: u64) {
        self.inner.progress.store(units, Ordering::Relaxed);
        self.beat();
    }

    /// Total beats observed so far.
    pub fn beats(&self) -> u64 {
        self.inner.beats.load(Ordering::Relaxed)
    }

    /// Latest reported progress value.
    pub fn progress(&self) -> u64 {
        self.inner.progress.load(Ordering::Relaxed)
    }
}

/// Base backoff slept before retry `k` of a panicked job (doubled per
/// attempt).
const RETRY_BACKOFF: Duration = Duration::from_millis(50);

/// Watchdog and retry policy for [`supervised_map`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker threads (`0` ⇒ one per available CPU, or
    /// `DRAMSTACK_THREADS`).
    pub threads: usize,
    /// Per-attempt wall-clock deadline; `None` disables it.
    pub deadline: Option<Duration>,
    /// No-progress watchdog: an attempt whose [`JobPulse`] does not beat
    /// for this long is declared hung. Only enable for jobs that pulse.
    pub stall_timeout: Option<Duration>,
    /// Extra attempts after a panicking first attempt (hangs are never
    /// retried — the stuck thread is abandoned, not recovered), each after
    /// a 50 ms backoff doubled per attempt.
    pub max_retries: u32,
    /// Watchdog poll interval.
    pub poll: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            threads: 0,
            deadline: None,
            stall_timeout: None,
            max_retries: 0,
            poll: Duration::from_millis(20),
        }
    }
}

/// What became of one supervised job.
#[derive(Debug)]
pub enum JobOutcome<R> {
    /// Finished on the first attempt.
    Ok(R),
    /// Finished after one or more panicking attempts.
    Retried {
        /// The successful attempt's result.
        result: R,
        /// Total attempts spent (≥ 2).
        attempts: u32,
    },
    /// Every attempt panicked; the last panic message is kept.
    Panicked {
        /// Panic payload rendered as text.
        message: String,
        /// Total attempts spent.
        attempts: u32,
    },
    /// The attempt hit the deadline or stalled; its thread was
    /// abandoned.
    TimedOut {
        /// Wall-clock time spent waiting on the final attempt.
        waited: Duration,
        /// Total attempts spent.
        attempts: u32,
    },
}

impl<R> JobOutcome<R> {
    /// The result, if the job produced one.
    pub fn result(&self) -> Option<&R> {
        match self {
            JobOutcome::Ok(r) | JobOutcome::Retried { result: r, .. } => Some(r),
            _ => None,
        }
    }

    /// Consumes the outcome into its result, if any.
    fn into_result(self) -> Option<R> {
        match self {
            JobOutcome::Ok(r) | JobOutcome::Retried { result: r, .. } => Some(r),
            _ => None,
        }
    }

    /// Whether the job produced a result (first try or retried).
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok(_) | JobOutcome::Retried { .. })
    }
}

/// Failure summary of a supervised sweep, indexed by input position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepFailures {
    /// Jobs whose every attempt panicked: `(input index, panic message)`.
    pub panicked: Vec<(usize, String)>,
    /// Jobs abandoned by the watchdog: input indices.
    pub timed_out: Vec<usize>,
    /// Jobs that succeeded only after retries: `(input index, attempts)`.
    pub retried: Vec<(usize, u32)>,
}

impl SweepFailures {
    /// True when no job was lost (retried-but-successful jobs don't
    /// count as losses).
    pub fn none_lost(&self) -> bool {
        self.panicked.is_empty() && self.timed_out.is_empty()
    }
}

impl std::fmt::Display for SweepFailures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} panicked, {} timed out, {} retried",
            self.panicked.len(),
            self.timed_out.len(),
            self.retried.len()
        )
    }
}

/// Everything a supervised sweep produced: one [`JobOutcome`] per input
/// item, in input order.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// Per-job outcomes, index-aligned with the input.
    pub outcomes: Vec<JobOutcome<R>>,
}

impl<R> SweepOutcome<R> {
    /// Builds the failure summary.
    pub fn failures(&self) -> SweepFailures {
        let mut f = SweepFailures::default();
        for (i, o) in self.outcomes.iter().enumerate() {
            match o {
                JobOutcome::Ok(_) => {}
                JobOutcome::Retried { attempts, .. } => f.retried.push((i, *attempts)),
                JobOutcome::Panicked { message, .. } => f.panicked.push((i, message.clone())),
                JobOutcome::TimedOut { .. } => f.timed_out.push(i),
            }
        }
        f
    }

    /// Salvages the sweep: every completed slot (in input order, `None`
    /// where the job was lost) plus the failure report.
    pub fn salvage(self) -> (Vec<Option<R>>, SweepFailures) {
        let failures = self.failures();
        let results = self
            .outcomes
            .into_iter()
            .map(JobOutcome::into_result)
            .collect();
        (results, failures)
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `f` over `items` with per-job panic isolation, watchdog
/// supervision and bounded retry; never panics and never loses a slot.
///
/// Each attempt runs on a *detached* thread feeding a channel, so a hung
/// attempt can be abandoned (the thread is leaked by design — it holds
/// only its own simulator) while the supervisor moves on. Panics inside
/// `f` are caught and retried up to `cfg.max_retries` times with
/// exponential backoff; watchdog kills (deadline / stall) are terminal
/// for that job. Results come back in input order as [`JobOutcome`]s.
/// Panic messages from failed attempts still reach stderr via the default
/// panic hook, which keeps crash forensics in the captured logs.
///
/// `T: Clone` is required so a panicked job's input survives for retry;
/// the `'static` bounds let attempt threads outlive the call when
/// abandoned.
pub fn supervised_map<T, R, F>(items: Vec<T>, cfg: &SupervisorConfig, f: F) -> SweepOutcome<R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
    F: Fn(JobPulse, T) -> R + Send + Sync + 'static,
{
    let n = items.len();
    if n == 0 {
        return SweepOutcome {
            outcomes: Vec::new(),
        };
    }
    let threads = if cfg.threads == 0 {
        available_threads()
    } else {
        cfg.threads
    };
    let workers = threads.min(n).max(1);
    let f = Arc::new(f);
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<JobOutcome<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let (idx, item) = {
                    let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
                    match q.pop_front() {
                        Some(job) => job,
                        None => return,
                    }
                };
                let outcome = supervise_one(cfg, &f, item);
                *slots[idx].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
            });
        }
    });
    let outcomes = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or(JobOutcome::Panicked {
                    message: "supervisor lost the job".to_string(),
                    attempts: 0,
                })
        })
        .collect();
    SweepOutcome { outcomes }
}

/// Supervises a single job: same panic isolation, watchdog and retry
/// machinery as [`supervised_map`], for callers that schedule jobs one
/// at a time (e.g. a long-running service worker pool). The calling
/// thread blocks until the job reaches a terminal [`JobOutcome`]; the
/// attempt itself runs detached so a hang can be abandoned.
pub fn supervise<T, R, F>(cfg: &SupervisorConfig, item: T, f: F) -> JobOutcome<R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
    F: Fn(JobPulse, T) -> R + Send + Sync + 'static,
{
    supervise_one(cfg, &Arc::new(f), item)
}

/// Runs one job to a terminal [`JobOutcome`]: attempt loop with retry
/// for panics, watchdog kill for hangs.
fn supervise_one<T, R, F>(cfg: &SupervisorConfig, f: &Arc<F>, item: T) -> JobOutcome<R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
    F: Fn(JobPulse, T) -> R + Send + Sync + 'static,
{
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let pulse = JobPulse::default();
        let (tx, rx) = mpsc::channel::<Result<R, String>>();
        {
            let f = Arc::clone(f);
            let item = item.clone();
            let job_pulse = pulse.clone();
            // Detached on purpose: a hung attempt must be abandonable.
            std::thread::spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| f(job_pulse, item)));
                let _ = tx.send(result.map_err(|p| panic_message(p.as_ref())));
            });
        }
        let attempt_start = Instant::now();
        let mut last_beat = pulse.beats();
        let mut last_change = Instant::now();
        // The watchdog: poll the channel, checking liveness in between.
        let verdict: Option<Result<R, String>> = loop {
            match rx.recv_timeout(cfg.poll) {
                Ok(res) => break Some(res),
                Err(RecvTimeoutError::Disconnected) => {
                    break Some(Err("job thread died without reporting".to_string()));
                }
                Err(RecvTimeoutError::Timeout) => {
                    let beats = pulse.beats();
                    if beats != last_beat {
                        last_beat = beats;
                        last_change = Instant::now();
                    }
                    let dead = cfg.deadline.is_some_and(|d| attempt_start.elapsed() >= d)
                        || cfg
                            .stall_timeout
                            .is_some_and(|s| last_change.elapsed() >= s);
                    if dead {
                        break None;
                    }
                }
            }
        };
        match verdict {
            None => {
                return JobOutcome::TimedOut {
                    waited: attempt_start.elapsed(),
                    attempts,
                };
            }
            Some(Ok(result)) => {
                return if attempts == 1 {
                    JobOutcome::Ok(result)
                } else {
                    JobOutcome::Retried { result, attempts }
                };
            }
            Some(Err(message)) => {
                if attempts > cfg.max_retries {
                    return JobOutcome::Panicked { message, attempts };
                }
                let exp = (attempts - 1).min(16);
                std::thread::sleep(RETRY_BACKOFF.saturating_mul(1 << exp));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parallel_map_matches_serial_and_preserves_order() {
        let items: Vec<u64> = (0..57).collect();
        let serial = map_with_threads(items.clone(), 1, |x| x * x + 1);
        let parallel = map_with_threads(items, 4, |x| x * x + 1);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[10], 101);
    }

    #[test]
    fn uneven_job_durations_do_not_reorder_results() {
        // Early jobs sleep longest, so later jobs finish first; the
        // output must still be in input order.
        let items: Vec<u64> = (0..16).collect();
        let out = map_with_threads(items, 8, |x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = map_with_threads(vec![1, 2, 3], 64, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_with_threads(empty, 4, |x| x).is_empty());
        assert_eq!(map_with_threads(vec![7], 4, |x| x * 2), vec![14]);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn map_panic_completes_siblings_then_propagates() {
        let completed = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&completed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            map_with_threads((0..8).collect::<Vec<u32>>(), 4, move |x| {
                if x == 3 {
                    panic!("job 3 exploded");
                }
                c.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        assert!(result.is_err(), "the panic must propagate to the caller");
        // Every non-panicking job still ran to completion.
        assert_eq!(completed.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn supervised_map_isolates_panics_and_keeps_order() {
        let cfg = SupervisorConfig::default();
        let out = supervised_map((0..10u64).collect(), &cfg, |_pulse, x| {
            if x == 4 {
                panic!("injected panic in job {x}");
            }
            x * 2
        });
        assert_eq!(out.outcomes.len(), 10);
        let failures = out.failures();
        assert_eq!(failures.panicked.len(), 1);
        assert_eq!(failures.panicked[0].0, 4);
        assert!(failures.panicked[0].1.contains("injected panic"));
        assert!(failures.timed_out.is_empty());
        let (results, _) = out.salvage();
        for (i, r) in results.iter().enumerate() {
            if i == 4 {
                assert!(r.is_none());
            } else {
                assert_eq!(*r, Some(i as u64 * 2));
            }
        }
    }

    #[test]
    fn supervised_map_times_out_hung_jobs_and_salvages_the_rest() {
        let cfg = SupervisorConfig {
            threads: 4,
            deadline: Some(Duration::from_millis(150)),
            poll: Duration::from_millis(10),
            ..SupervisorConfig::default()
        };
        let out = supervised_map((0..6u64).collect(), &cfg, |_pulse, x| {
            if x == 2 {
                // Hang well past the deadline; the thread is abandoned.
                std::thread::sleep(Duration::from_secs(30));
            }
            x + 100
        });
        let failures = out.failures();
        assert_eq!(failures.timed_out, vec![2]);
        assert!(failures.panicked.is_empty());
        let (results, _) = out.salvage();
        assert_eq!(results[0], Some(100));
        assert_eq!(results[2], None);
        assert_eq!(results[5], Some(105));
    }

    #[test]
    fn supervised_map_retries_panics_with_backoff() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let cfg = SupervisorConfig {
            max_retries: 3,
            ..SupervisorConfig::default()
        };
        let out = supervised_map(vec![1u32], &cfg, move |_pulse, x| {
            // Fail the first two attempts, succeed on the third.
            if t.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("flaky");
            }
            x * 10
        });
        match &out.outcomes[0] {
            JobOutcome::Retried { result, attempts } => {
                assert_eq!(*result, 10);
                assert_eq!(*attempts, 3);
            }
            other => panic!("expected Retried, got {other:?}"),
        }
        assert_eq!(out.failures().retried, vec![(0, 3)]);
    }

    #[test]
    fn stall_watchdog_kills_jobs_that_stop_pulsing() {
        let cfg = SupervisorConfig {
            stall_timeout: Some(Duration::from_millis(120)),
            poll: Duration::from_millis(10),
            ..SupervisorConfig::default()
        };
        let out = supervised_map(vec![0u32, 1], &cfg, |pulse, x| {
            if x == 1 {
                // Pulse for a while, then go silent (a livelock).
                for _ in 0..5 {
                    pulse.beat();
                    std::thread::sleep(Duration::from_millis(10));
                }
                std::thread::sleep(Duration::from_secs(30));
            }
            x
        });
        let failures = out.failures();
        assert_eq!(failures.timed_out, vec![1]);
        assert!(out.outcomes[0].is_ok());
    }

    #[test]
    fn supervised_map_empty_input() {
        let cfg = SupervisorConfig::default();
        let out: SweepOutcome<u32> = supervised_map(Vec::<u32>::new(), &cfg, |_p, x| x);
        assert!(out.outcomes.is_empty());
        assert!(out.failures().none_lost());
    }
}
