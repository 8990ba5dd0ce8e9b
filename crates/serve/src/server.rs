//! The daemon: accept loop, admission control, worker pool, drain.
//!
//! Robustness invariants, in order of importance:
//!
//! 1. **A bad job never takes down the server.** Jobs run under
//!    [`parallel::supervise`]: panics are caught, hangs are abandoned by
//!    the stall watchdog, and either way the worker thread survives to
//!    take the next job.
//! 2. **Overload sheds, it does not queue unboundedly.** Admission is a
//!    bounded queue; past the cap, `POST /jobs` answers 429 with
//!    `Retry-After` and the server keeps serving reads.
//! 3. **Slow clients only hurt themselves.** Every connection carries
//!    OS-level read/write deadlines and a hard body cap; each
//!    connection gets its own thread, bounded by `max_connections`.
//! 4. **Drain is graceful.** On request (or SIGTERM via the interrupt
//!    flag), stop accepting, shed the queue, give running jobs a grace
//!    period, then cancel them cooperatively — cancelled jobs
//!    checkpoint for resume when a checkpoint dir is configured.
//!
//! The request path waits on events, never on a timer: the accept loops
//! block in `wait_readable` until a connection arrives (`ACCEPT_POLL`
//! bounds only how late a stop flag is noticed), workers sleep on the
//! queue's condvar, stream readers on their hub's. And **a job's stream
//! ends only after its terminal status is published**: a hub is closed by
//! the worker that ran the job (or by `drain`, for a job it sheds), after
//! the final `JobState` is stored under the `jobs` lock, and by nobody
//! else — so a client that reads `/jobs/<id>/stream` to its end needs one
//! `GET /jobs/<id>`, not a polling loop.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use serde::{Serialize, Sink};

use dramstack_sim::jobs::{run_job, JobCancel, JobCheckpoint, JobError, JobOptions, JobSpec};
use dramstack_sim::parallel::{self, JobOutcome, SupervisorConfig};
use dramstack_sim::telemetry::Telemetry;
use dramstack_sim::SimReport;

use crate::http::{self, ChunkedBody, HttpError, Request};
use crate::hub::{HubSink, StreamHub};
use crate::ServeConfig;

/// End-of-run tallies, also exported live on `/metrics`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Jobs that produced a report.
    pub completed: u64,
    /// Jobs that panicked (or failed late validation).
    pub failed: u64,
    /// Jobs killed by deadline or stall watchdog.
    pub timed_out: u64,
    /// Jobs cancelled cooperatively (drain).
    pub cancelled: u64,
    /// Submissions shed with 429 (queue full).
    pub shed_429: u64,
    /// Queued jobs shed because drain started before a worker got them.
    pub shed_drain: u64,
    /// Requests answered 4xx for protocol reasons.
    pub bad_requests: u64,
}

#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running,
    Done(Arc<SimReport>),
    Failed(String),
    TimedOut,
    Cancelled { checkpointed: bool },
    Shed,
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::TimedOut => "timed_out",
            JobState::Cancelled { .. } => "cancelled",
            JobState::Shed => "shed",
        }
    }
}

/// Finished jobs (report, stream and all) the daemon keeps for clients to
/// fetch. Past this many, the oldest finished job is forgotten — its id
/// answers 404 from then on — so a long-lived daemon's memory is bounded;
/// queued and running jobs are never dropped.
pub const MAX_FINISHED_JOBS: usize = 128;

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    cancel: JobCancel,
    hub: Arc<StreamHub>,
    submitted: Instant,
    /// When a worker took the job off the queue (never, for a shed job).
    started: Option<Instant>,
    finished: Option<Instant>,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
    cancelled: AtomicU64,
    shed_429: AtomicU64,
    shed_drain: AtomicU64,
    bad_requests: AtomicU64,
}

struct State {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    jobs: Mutex<BTreeMap<u64, JobEntry>>,
    jobs_cv: Condvar,
    next_id: AtomicU64,
    draining: AtomicBool,
    stop: AtomicBool,
    active_conns: AtomicUsize,
    running: AtomicUsize,
    ctr: Counters,
    fleet: Arc<Mutex<Telemetry>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl State {
    fn new(cfg: ServeConfig) -> Self {
        State {
            fleet: Arc::new(Mutex::new(Telemetry::default())),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            jobs_cv: Condvar::new(),
            next_id: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            ctr: Counters::default(),
        }
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            accepted: self.ctr.accepted.load(Ordering::Relaxed),
            completed: self.ctr.completed.load(Ordering::Relaxed),
            failed: self.ctr.failed.load(Ordering::Relaxed),
            timed_out: self.ctr.timed_out.load(Ordering::Relaxed),
            cancelled: self.ctr.cancelled.load(Ordering::Relaxed),
            shed_429: self.ctr.shed_429.load(Ordering::Relaxed),
            shed_drain: self.ctr.shed_drain.load(Ordering::Relaxed),
            bad_requests: self.ctr.bad_requests.load(Ordering::Relaxed),
        }
    }
}

/// A handle for poking a running [`Server`] from another thread (tests,
/// signal handlers): request drain, read live stats.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// Asks the serve loop to begin graceful drain; returns immediately.
    pub fn drain(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
    }

    /// True once drain has been requested (by this handle or a signal).
    pub fn draining(&self) -> bool {
        self.state.stop.load(Ordering::SeqCst) || self.state.draining.load(Ordering::SeqCst)
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.state.stats()
    }
}

/// How often the accept loops look at the stop flags while no connection
/// arrives.
const ACCEPT_POLL: Duration = Duration::from_millis(15);

/// Blocks until `listener` has a connection to accept, a signal arrives or
/// [`ACCEPT_POLL`] has passed, whichever is first. No `libc` dependency:
/// `poll(2)` is declared the way `sim::ckpt` declares `signal(2)`.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener) {
    use std::ffi::{c_int, c_short};
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NfdsT = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
    const POLLIN: c_short = 0x1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `poll` is the C library's own prototype; it is handed one
    // valid, exclusively borrowed `pollfd` (same layout: an `int` and two
    // `short`s) with a count of 1, and writes nothing but its `revents`.
    // The descriptor stays open for the call because `listener` is
    // borrowed across it.
    let ready = unsafe { poll(&mut fd, 1, ACCEPT_POLL.as_millis() as c_int) };
    // A wait that failed outright (not a signal: the caller wants to see
    // its flag now) would return at once every time; keep the bound.
    if ready < 0 && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
        thread::sleep(ACCEPT_POLL);
    }
}

/// Without `poll(2)`: the timed sleep the readiness wait replaces.
#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener) {
    thread::sleep(ACCEPT_POLL);
}

/// The bound-but-not-yet-serving daemon.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<State>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and starts the worker pool (jobs flow once
    /// [`serve`](Self::serve) runs the accept loop).
    ///
    /// # Errors
    ///
    /// Bind/configuration errors from the OS.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers_n = cfg.workers.max(1);
        let state = Arc::new(State::new(cfg));
        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let st = Arc::clone(&state);
            workers.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&st))?,
            );
        }
        Ok(Server {
            listener,
            addr,
            state,
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clone-able control handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Runs the accept loop until drain is requested — via
    /// [`ServerHandle::drain`] or the process-wide interrupt flag
    /// (SIGTERM/SIGINT) — then drains gracefully and returns the final
    /// tallies. Never returns early on connection errors.
    pub fn serve(self) -> ServeStats {
        loop {
            if self.state.stop.load(Ordering::SeqCst) || dramstack_sim::interrupted() {
                break;
            }
            self.accept_or_wait();
        }
        // Run the drain sequence on a helper thread and keep accepting
        // while it works: drain can last the whole grace period, and a
        // client arriving mid-drain deserves a typed 503 (and working
        // status/metrics/stream reads), not a connection stuck in the
        // listen backlog or refused outright once the listener closes.
        let st = Arc::clone(&self.state);
        match thread::Builder::new()
            .name("serve-drain".to_string())
            .spawn(move || drain(&st))
        {
            Ok(drainer) => {
                while !drainer.is_finished() {
                    self.accept_or_wait();
                }
                let _ = drainer.join();
            }
            Err(_) => drain(&self.state),
        }
        for w in self.workers {
            let _ = w.join();
        }
        self.state.stats()
    }

    /// Dispatches the next pending connection, or waits at most
    /// [`ACCEPT_POLL`] for one to arrive.
    fn accept_or_wait(&self) {
        match self.listener.accept() {
            Ok((stream, _)) => self.dispatch(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => wait_readable(&self.listener),
            // EMFILE and the like can persist while a connection is
            // pending, which a readiness wait would report at once: back
            // off on a timer so the loop cannot spin.
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }

    fn dispatch(&self, mut stream: TcpStream) {
        let st = &self.state;
        if st.active_conns.load(Ordering::SeqCst) >= st.cfg.max_connections {
            // Best effort; the client may already be gone.
            let _ = http::write_json(
                &mut stream,
                503,
                "{\"error\":\"connection limit reached\"}",
                &[("Retry-After", "1".to_string())],
            );
            return;
        }
        let _ = stream.set_read_timeout(Some(st.cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(st.cfg.write_timeout));
        let _ = stream.set_nonblocking(false);
        st.active_conns.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(st);
        // Detached on purpose: the connection is bounded by its own
        // read/write deadlines, so joining adds nothing but a way for a
        // slow client to delay shutdown.
        let spawned = thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                handle_conn(&state, &mut stream);
                state.active_conns.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            st.active_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The graceful-drain sequence; see the module docs for the contract.
fn drain(state: &Arc<State>) {
    state.draining.store(true, Ordering::SeqCst);
    // Shed everything still queued: those jobs never started, so "shed"
    // (resubmit later) is more honest than a silent cancel.
    let queued: Vec<u64> = lock(&state.queue).drain(..).collect();
    {
        let mut jobs = lock(&state.jobs);
        for id in queued {
            if let Some(e) = jobs.get_mut(&id) {
                if matches!(e.state, JobState::Queued) {
                    e.state = JobState::Shed;
                    e.finished = Some(Instant::now());
                    e.hub.close();
                    state.ctr.shed_drain.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    state.queue_cv.notify_all();
    // Give running jobs the grace period to finish on their own.
    let deadline = Instant::now() + state.cfg.drain_grace;
    {
        let mut jobs = lock(&state.jobs);
        while state.running.load(Ordering::SeqCst) > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _) = state
                .jobs_cv
                .wait_timeout(jobs, left.min(Duration::from_millis(50)))
                .unwrap_or_else(PoisonError::into_inner);
            jobs = guard;
        }
        // Cooperative cancellation for whatever is still running; the
        // job checkpoints (if configured) and returns promptly.
        for e in jobs.values_mut() {
            if matches!(e.state, JobState::Running) {
                e.cancel.cancel();
            }
        }
    }
    state.queue_cv.notify_all();
}

fn worker_loop(state: &Arc<State>) {
    loop {
        let id = {
            let mut q = lock(&state.queue);
            loop {
                if let Some(id) = q.pop_front() {
                    break id;
                }
                if state.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = state
                    .queue_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((spec, cancel, hub)) = ({
            let mut jobs = lock(&state.jobs);
            jobs.get_mut(&id).and_then(|e| {
                if !matches!(e.state, JobState::Queued) {
                    return None; // shed while queued
                }
                e.state = JobState::Running;
                e.started = Some(Instant::now());
                Some((e.spec.clone(), e.cancel.clone(), e.hub.clone()))
            })
        }) else {
            continue;
        };
        state.running.fetch_add(1, Ordering::SeqCst);
        // The in-job deadline fires first (typed error, current cycle);
        // the supervisor's wall-clock deadline is a margin-padded
        // backstop for jobs too wedged to check their own.
        let scfg = SupervisorConfig {
            threads: 1,
            deadline: state.cfg.job_deadline.map(|d| d + Duration::from_secs(2)),
            stall_timeout: Some(state.cfg.job_stall_timeout),
            max_retries: 0,
            poll: Duration::from_millis(10),
        };
        let deadline = state.cfg.job_deadline;
        // Checkpoint only when drain cancels the job; a served job always
        // starts from cycle 0.
        let ckpt = state.cfg.checkpoint_dir.clone().map(|dir| JobCheckpoint {
            dir,
            key: format!("job-{id}"),
            every: 0,
            resume: false,
        });
        let fleet = Arc::clone(&state.fleet);
        let hub_for_job = Arc::clone(&hub);
        let cancel_for_job = cancel.clone();
        let outcome = parallel::supervise(&scfg, spec, move |pulse, spec: JobSpec| {
            let mut tel = Telemetry::default();
            tel.add_sink(Box::new(HubSink::new(
                Arc::clone(&hub_for_job),
                Arc::clone(&fleet),
            )));
            run_job(
                &spec,
                &pulse,
                &cancel_for_job,
                JobOptions {
                    deadline,
                    telemetry: Some(tel),
                    checkpoint: ckpt.clone(),
                    ..JobOptions::default()
                },
            )
        });
        let final_state = match outcome {
            JobOutcome::Ok(Ok(report))
            | JobOutcome::Retried {
                result: Ok(report), ..
            } => {
                state.ctr.completed.fetch_add(1, Ordering::Relaxed);
                JobState::Done(Arc::new(report))
            }
            JobOutcome::Ok(Err(e)) | JobOutcome::Retried { result: Err(e), .. } => match e {
                JobError::Cancelled { checkpointed, .. } => {
                    state.ctr.cancelled.fetch_add(1, Ordering::Relaxed);
                    JobState::Cancelled { checkpointed }
                }
                JobError::DeadlineExceeded { .. } => {
                    state.ctr.timed_out.fetch_add(1, Ordering::Relaxed);
                    JobState::TimedOut
                }
                other => {
                    state.ctr.failed.fetch_add(1, Ordering::Relaxed);
                    JobState::Failed(other.to_string())
                }
            },
            JobOutcome::Panicked { message, .. } => {
                state.ctr.failed.fetch_add(1, Ordering::Relaxed);
                JobState::Failed(message)
            }
            JobOutcome::TimedOut { .. } => {
                state.ctr.timed_out.fetch_add(1, Ordering::Relaxed);
                JobState::TimedOut
            }
        };
        {
            let mut jobs = lock(&state.jobs);
            if let Some(e) = jobs.get_mut(&id) {
                e.state = final_state;
                e.finished = Some(Instant::now());
            }
            evict_finished(&mut jobs);
        }
        // Only now: a stream that has ended promises a terminal status.
        hub.close();
        state.running.fetch_sub(1, Ordering::SeqCst);
        state.jobs_cv.notify_all();
    }
}

/// Forgets the oldest finished jobs beyond [`MAX_FINISHED_JOBS`]. Ids grow
/// with submission order, so map order is age order.
fn evict_finished(jobs: &mut BTreeMap<u64, JobEntry>) {
    let finished: Vec<u64> = jobs
        .iter()
        .filter(|(_, e)| e.finished.is_some())
        .map(|(id, _)| *id)
        .collect();
    for id in &finished[..finished.len().saturating_sub(MAX_FINISHED_JOBS)] {
        jobs.remove(id);
    }
}

fn handle_conn(state: &Arc<State>, stream: &mut TcpStream) {
    let req = match http::read_request(stream, state.cfg.max_body_bytes) {
        Ok(req) => req,
        Err(HttpError::Closed) => return,
        Err(e) => {
            state.ctr.bad_requests.fetch_add(1, Ordering::Relaxed);
            let (status, msg) = match &e {
                HttpError::HeadTooLarge => (431, e.to_string()),
                HttpError::PayloadTooLarge { .. } => (413, e.to_string()),
                HttpError::Timeout => (408, e.to_string()),
                _ => (400, e.to_string()),
            };
            let _ = http::write_json(stream, status, &error_body(&msg), &[]);
            drain_unread(stream);
            return;
        }
    };
    route(state, stream, &req);
}

/// Discards whatever the client already sent before the connection
/// closes. Closing with unread bytes in the receive buffer makes the
/// kernel RST the connection, which can destroy a typed 4xx response
/// before the client reads it. Bounded by the read deadline and a byte
/// budget so an abusive sender cannot pin the thread.
fn drain_unread(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let mut scratch = [0u8; 8192];
    let mut budget: usize = 1 << 20;
    while budget > 0 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// A JSON object of borrowed fields, written in order: a response body
/// streams into its text without a `Value` tree in between.
struct Object<'a>(&'a [(&'a str, &'a dyn Serialize)]);

impl Serialize for Object<'_> {
    fn serialize(&self, out: &mut dyn Sink) {
        out.map(self.0.len());
        for (key, value) in self.0 {
            out.key(key);
            value.serialize(out);
        }
        out.end();
    }
}

fn error_body(msg: &str) -> String {
    serde_json::to_string(&Object(&[("error", &msg)]))
        .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string())
}

fn route(state: &Arc<State>, stream: &mut TcpStream, req: &Request) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => post_job(state, stream, req),
        ("GET", "/healthz") => {
            let _ = http::write_response(stream, 200, "text/plain", b"ok\n", &[]);
        }
        ("GET", "/readyz") => {
            if state.draining.load(Ordering::SeqCst) || state.stop.load(Ordering::SeqCst) {
                let _ = http::write_json(stream, 503, &error_body("draining"), &[]);
            } else {
                let _ = http::write_response(stream, 200, "text/plain", b"ready\n", &[]);
            }
        }
        ("GET", "/metrics") => {
            let body = metrics_body(state);
            let _ = http::write_response(
                stream,
                200,
                "text/plain; version=0.0.4",
                body.as_bytes(),
                &[],
            );
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            if let Some(id_str) = rest.strip_suffix("/stream") {
                match id_str.parse::<u64>() {
                    Ok(id) => stream_job(state, stream, id),
                    Err(_) => {
                        let _ = http::write_json(stream, 404, &error_body("no such job"), &[]);
                    }
                }
            } else {
                match rest.parse::<u64>() {
                    Ok(id) => get_job(state, stream, id),
                    Err(_) => {
                        let _ = http::write_json(stream, 404, &error_body("no such job"), &[]);
                    }
                }
            }
        }
        ("GET" | "POST", _) => {
            let _ = http::write_json(stream, 404, &error_body("no such endpoint"), &[]);
        }
        _ => {
            let _ = http::write_json(stream, 405, &error_body("method not allowed"), &[]);
        }
    }
}

fn post_job(state: &Arc<State>, stream: &mut TcpStream, req: &Request) {
    if state.draining.load(Ordering::SeqCst) || state.stop.load(Ordering::SeqCst) {
        let _ = http::write_json(
            stream,
            503,
            &error_body("draining, not accepting new jobs"),
            &[],
        );
        return;
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => {
            state.ctr.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_json(stream, 400, &error_body("body is not UTF-8"), &[]);
            return;
        }
    };
    let spec = match JobSpec::from_json(body) {
        Ok(s) => s,
        Err(msg) => {
            state.ctr.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_json(stream, 400, &error_body(&msg), &[]);
            return;
        }
    };
    // Resolve now so a bad spec is a 400 at admission, not a failed job.
    if let Err(msg) = spec.resolve() {
        state.ctr.bad_requests.fetch_add(1, Ordering::Relaxed);
        let _ = http::write_json(stream, 400, &error_body(&msg), &[]);
        return;
    }
    let id = {
        let mut q = lock(&state.queue);
        if q.len() >= state.cfg.queue_cap {
            state.ctr.shed_429.fetch_add(1, Ordering::Relaxed);
            drop(q);
            let _ = http::write_json(
                stream,
                429,
                &error_body("queue full, retry later"),
                &[("Retry-After", "1".to_string())],
            );
            return;
        }
        let id = state.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        lock(&state.jobs).insert(
            id,
            JobEntry {
                spec,
                state: JobState::Queued,
                cancel: JobCancel::new(),
                hub: Arc::new(StreamHub::new()),
                submitted: Instant::now(),
                started: None,
                finished: None,
            },
        );
        q.push_back(id);
        id
    };
    state.ctr.accepted.fetch_add(1, Ordering::Relaxed);
    state.queue_cv.notify_one();
    let body =
        serde_json::to_string(&Object(&[("id", &id), ("status", &"queued")])).unwrap_or_default();
    let _ = http::write_json(stream, 202, &body, &[]);
}

fn get_job(state: &Arc<State>, stream: &mut TcpStream, id: u64) {
    // Copy out under the lock (the report is behind an `Arc`), serialise
    // after it: a report is ~1 ms of JSON, during which no worker could
    // publish a state and no other status read proceed.
    let entry = lock(&state.jobs).get(&id).map(|e| {
        let end = e.finished.unwrap_or_else(Instant::now);
        // A job shed from the queue never ran.
        let run_from = e.started.unwrap_or(end);
        let stamps = [
            ("elapsed_ms", end.duration_since(e.submitted)),
            ("queue_ms", run_from.duration_since(e.submitted)),
            ("run_ms", end.duration_since(run_from)),
        ];
        (e.spec.clone(), e.state.clone(), stamps)
    });
    let Some((spec, job_state, stamps)) = entry else {
        let _ = http::write_json(stream, 404, &error_body("no such job"), &[]);
        return;
    };
    let status = job_state.name();
    let stamps = stamps.map(|(name, d)| (name, d.as_secs_f64() * 1e3));
    let mut fields: Vec<(&str, &dyn Serialize)> =
        vec![("id", &id), ("status", &status), ("spec", &spec)];
    for (name, ms) in &stamps {
        fields.push((name, ms));
    }
    match &job_state {
        JobState::Done(report) => fields.push(("report", report.as_ref())),
        JobState::Failed(msg) => fields.push(("error", msg)),
        JobState::Cancelled { checkpointed } => fields.push(("checkpointed", checkpointed)),
        _ => {}
    }
    let body = serde_json::to_string(&Object(&fields)).unwrap_or_default();
    let _ = http::write_json(stream, 200, &body, &[]);
}

fn stream_job(state: &Arc<State>, stream: &mut TcpStream, id: u64) {
    let hub = {
        let jobs = lock(&state.jobs);
        match jobs.get(&id) {
            Some(e) => Arc::clone(&e.hub),
            None => {
                drop(jobs);
                let _ = http::write_json(stream, 404, &error_body("no such job"), &[]);
                return;
            }
        }
    };
    let Ok(mut chunked) = ChunkedBody::start(stream, "application/jsonl") else {
        return;
    };
    let mut from = 0usize;
    let mut line = String::new();
    loop {
        let (lines, closed) = hub.wait_from(from, Duration::from_millis(250));
        from += lines.len();
        let drained = lines.is_empty();
        for l in lines {
            line.clear();
            line.push_str(&l);
            line.push('\n');
            if chunked.write_chunk(line.as_bytes()).is_err() {
                return; // slow or gone client: its problem alone
            }
        }
        if closed && drained {
            break;
        }
    }
    let _ = chunked.finish();
}

fn metrics_body(state: &Arc<State>) -> String {
    let mut out = lock(&state.fleet).prometheus_snapshot();
    let s = state.stats();
    out.push_str("# HELP dramstack_serve_jobs_total Jobs by terminal disposition\n");
    out.push_str("# TYPE dramstack_serve_jobs_total counter\n");
    for (label, v) in [
        ("accepted", s.accepted),
        ("completed", s.completed),
        ("failed", s.failed),
        ("timed_out", s.timed_out),
        ("cancelled", s.cancelled),
        ("shed_429", s.shed_429),
        ("shed_drain", s.shed_drain),
    ] {
        out.push_str(&format!(
            "dramstack_serve_jobs_total{{disposition=\"{label}\"}} {v}\n"
        ));
    }
    out.push_str("# HELP dramstack_serve_bad_requests_total Protocol-level 4xx answers\n");
    out.push_str("# TYPE dramstack_serve_bad_requests_total counter\n");
    out.push_str(&format!(
        "dramstack_serve_bad_requests_total {}\n",
        s.bad_requests
    ));
    out.push_str("# HELP dramstack_serve_queue_depth Jobs waiting for a worker\n");
    out.push_str("# TYPE dramstack_serve_queue_depth gauge\n");
    out.push_str(&format!(
        "dramstack_serve_queue_depth {}\n",
        lock(&state.queue).len()
    ));
    out.push_str("# HELP dramstack_serve_running Jobs currently executing\n");
    out.push_str("# TYPE dramstack_serve_running gauge\n");
    out.push_str(&format!(
        "dramstack_serve_running {}\n",
        state.running.load(Ordering::SeqCst)
    ));
    out.push_str("# HELP dramstack_serve_draining 1 while drain is in progress\n");
    out.push_str("# TYPE dramstack_serve_draining gauge\n");
    out.push_str(&format!(
        "dramstack_serve_draining {}\n",
        u8::from(state.draining.load(Ordering::SeqCst) || state.stop.load(Ordering::SeqCst))
    ));
    out
}
