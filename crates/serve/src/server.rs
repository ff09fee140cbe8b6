//! The daemon: admission queue, bounded worker pool, crash recovery,
//! graceful shutdown, and the HTTP routing that fronts them.
//!
//! # Life of a job
//!
//! `POST /jobs` validates the spec (bad specs are a 400 at the door, not
//! a failed job later), persists it as `jobs/<id>/job.json`, and admits
//! it to a bounded queue — or sheds it with `429 Too Many Requests` +
//! `Retry-After` when the queue is full. Worker threads drain the queue;
//! each job runs under a [`SweepControl`] carrying its cancel token and
//! wall-clock deadline. Sweep jobs journal per-cell results
//! (`sweep.journal`), publish their [`SweepLog`](dashlat::SweepLog)
//! atomically (`sweep.json`), and look up every cell in the
//! content-addressed [`ResultCache`] first. Terminal outcomes are
//! persisted as `state.json`.
//!
//! # Recovery state machine
//!
//! On startup every `jobs/<id>/` directory is classified:
//!
//! * `state.json` present and parseable → **terminal** (complete,
//!   failed, or cancelled): restored for status queries, never re-run.
//! * `job.json` present, no `state.json` → **resumable**: re-enqueued.
//!   A sweep with a journal resumes from its committed prefix; the
//!   fingerprint check inside [`run_supervised`] refuses a
//!   journal that doesn't match the spec.
//! * `job.json` missing or unparseable → **corrupt**: surfaced as a
//!   failed job, never executed.
//!
//! A SIGKILL therefore costs at most the cells in flight; everything
//! journaled replays, and cached cells are never re-simulated.

use std::collections::VecDeque;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dashlat::chaos::{run_chaos, ChaosOptions};
use dashlat::sweep::{
    run_cell_in_process, run_supervised, work_fingerprint, CellFailure, FailureClass, SweepControl,
    SweepError, SweepOptions, SweepPlan,
};
use dashlat_sim::journal::{atomic_write, Journal};
use dashlat_sim::json::quote;

use crate::cache::ResultCache;
use crate::http::{read_request, write_response, Request};
use crate::jobs::{JobKind, JobSpec, JobStatus};
use crate::signal;

/// Ceiling on `GET /jobs/<id>/events?wait=<secs>`: long polls re-issue
/// rather than pin a handler thread indefinitely.
const MAX_EVENT_WAIT_SECS: u64 = 30;

/// How often a pending long poll checks that its client is still
/// connected. Only a vanished client is detected this way: every event a
/// poll answers (a journal commit, a job state change, a stop) wakes it
/// at once through the event generation, so no response waits for this.
const CLIENT_PROBE: Duration = Duration::from_millis(250);

/// How often the signal watcher looks for SIGTERM/SIGINT. A signal
/// cannot interrupt the blocking `accept`, so this thread turns the
/// handler's flag into [`Server::stop`]; it is off every request path.
const SIGNAL_POLL: Duration = Duration::from_millis(50);

/// Pause after a failed `accept` (EMFILE, ECONNABORTED), which would
/// otherwise fail again at once with the connection still queued.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(100);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port (published in
    /// the data directory's `addr` file either way).
    pub addr: String,
    /// Root of all persistent state: `addr`, `cache/`, `jobs/<id>/`.
    pub data_dir: PathBuf,
    /// Worker threads executing jobs (the bounded pool).
    pub workers: usize,
    /// Maximum *queued* (admitted, not yet running) jobs before
    /// submissions are shed with 429.
    pub queue_depth: usize,
    /// Default per-job wall-clock deadline in seconds (0 = none);
    /// overridable per job via the spec's `timeout_secs`.
    pub job_timeout_secs: u64,
    /// Run each sweep cell in a subprocess (`dashlat cell`) instead of
    /// in-process. A crashing or hanging cell then costs one worker
    /// child, not the daemon.
    pub isolate: bool,
    /// Wall-clock budget per isolated cell subprocess, in seconds.
    /// Ignored unless `isolate` is set.
    pub cell_timeout_secs: u64,
    /// Consecutive worker-crash streak (per job) that opens the
    /// crash-loop circuit breaker: remaining cells fail fast instead of
    /// forking doomed children. Ignored unless `isolate` is set.
    pub crash_loop_threshold: u32,
    /// Maximum concurrently open client connections; excess connections
    /// are shed with `503` + `Retry-After` without reading the request.
    pub max_connections: usize,
    /// Per-connection wall-clock budget, in seconds, for reading one
    /// complete request (slowloris guard). 0 disables the deadline.
    pub conn_deadline_secs: u64,
    /// `Retry-After` seconds suggested when shedding load (queue-full
    /// 429s and connection-cap 503s).
    pub shed_retry_after_secs: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: PathBuf::from("dashlat-serve-data"),
            workers: 2,
            queue_depth: 8,
            job_timeout_secs: 3600,
            isolate: false,
            cell_timeout_secs: 300,
            crash_loop_threshold: 8,
            max_connections: 64,
            conn_deadline_secs: 10,
            shed_retry_after_secs: 2,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The spec failed validation (the message says why).
    Invalid(String),
    /// The admission queue is full; retry after the given seconds.
    QueueFull {
        /// Suggested client backoff, surfaced as `Retry-After`.
        retry_after_secs: u64,
    },
    /// The daemon is draining for shutdown and admits nothing.
    ShuttingDown,
}

/// Everything the daemon tracks about one job.
#[derive(Debug, Clone)]
struct JobEntry {
    id: u64,
    spec: Option<JobSpec>,
    status: JobStatus,
    cells_total: usize,
    cancel: Arc<AtomicBool>,
    cache_hits: Arc<AtomicU64>,
    replayed: usize,
    executed: usize,
    skipped: usize,
    exit_code: Option<u8>,
    detail: String,
}

/// A finished execution, before it is folded back into the entry.
struct JobOutcome {
    status: JobStatus,
    exit_code: Option<u8>,
    detail: String,
    replayed: usize,
    executed: usize,
    skipped: usize,
}

impl JobOutcome {
    fn terminal(status: JobStatus, exit_code: u8, detail: String) -> Self {
        Self {
            status,
            exit_code: Some(exit_code),
            detail,
            replayed: 0,
            executed: 0,
            skipped: 0,
        }
    }
}

#[derive(Debug, Default)]
struct State {
    jobs: Vec<JobEntry>,
    queue: VecDeque<u64>,
    running: usize,
    shutting_down: bool,
    next_id: u64,
    /// Moves on every event a long poll can be waiting for: a journal
    /// commit, a job state change, a cancel, a stop. Bumped under this
    /// lock and followed by `wake.notify_all()`.
    generation: u64,
}

impl State {
    fn job_mut(&mut self, id: u64) -> Option<&mut JobEntry> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }

    fn job(&self, id: u64) -> Option<&JobEntry> {
        self.jobs.iter().find(|j| j.id == id)
    }
}

/// The long-running sweep service. Construct with [`Server::new`] (which
/// performs crash recovery), then drive with [`Server::run`].
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    state: Mutex<State>,
    /// Paired with `state`: workers wait here for jobs, long polls for a
    /// new event generation, the signal watcher for a stop.
    wake: Condvar,
    cache: ResultCache,
    stop: AtomicBool,
    /// The address `run` is accepting on, which `stop` connects to so
    /// that the blocking `accept` returns.
    listening: Mutex<Option<SocketAddr>>,
    /// Currently open client connections (the `max_connections` gauge):
    /// counted on accept, given back by the handler's [`OpenConnection`].
    conns: AtomicUsize,
    /// Lifetime count of connections shed at the cap with 503.
    conns_shed: AtomicU64,
    /// Lifetime count of job files the daemon failed to publish:
    /// `job.json` at admission, a sweep's journal or log, `verify.txt`,
    /// `state.json`. Each is also reported — in the admission reply, the
    /// job's detail, or on stderr — and a nonzero value means the data
    /// dir is unhealthy.
    persist_failures: AtomicU64,
    /// Lifetime count of result-cache inserts that failed (best-effort:
    /// each costs a future re-simulation, never correctness).
    cache_write_failures: AtomicU64,
    /// Lifetime count of crash-loop circuit breakers opened.
    breaker_trips: AtomicU64,
}

impl Server {
    /// Creates the data-directory layout, opens the result cache, and
    /// recovers jobs left behind by a previous process: terminal jobs
    /// are restored for status queries, interrupted ones re-enqueued,
    /// corrupt ones quarantined as failed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the scan.
    pub fn new(cfg: ServeConfig) -> io::Result<Self> {
        std::fs::create_dir_all(cfg.data_dir.join("jobs"))?;
        let cache = ResultCache::open(&cfg.data_dir.join("cache"))?;
        let mut state = State::default();
        recover_jobs(&cfg.data_dir, &mut state)?;
        state.next_id = state.jobs.iter().map(|j| j.id).max().unwrap_or(0) + 1;
        Ok(Self {
            cfg,
            state: Mutex::new(state),
            wake: Condvar::new(),
            cache,
            stop: AtomicBool::new(false),
            listening: Mutex::new(None),
            conns: AtomicUsize::new(0),
            conns_shed: AtomicU64::new(0),
            persist_failures: AtomicU64::new(0),
            cache_write_failures: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
        })
    }

    /// Requests a graceful shutdown of this server instance (the
    /// in-process equivalent of SIGTERM): wakes the workers and pending
    /// long polls, and connects to the listener once so that the
    /// blocking `accept` in [`Server::run`] returns.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.notify_event();
        let listening = *self.listening.lock().expect("listening lock");
        if let Some(addr) = listening {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Moves the event generation and wakes everything waiting on
    /// `wake`.
    fn notify_event(&self) {
        self.state.lock().expect("state lock").generation += 1;
        self.wake.notify_all();
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.cfg.data_dir.join("jobs").join(id.to_string())
    }

    /// Binds, publishes the `addr` file, spawns the worker pool, and
    /// serves until a shutdown is requested (SIGTERM/SIGINT via
    /// [`signal::install`], `POST /shutdown`, or [`Server::stop`]).
    /// Shutdown is graceful: admission stops, in-flight sweeps
    /// checkpoint at the next cell boundary, queued jobs stay queued for
    /// the next startup, and the call returns `Ok(())`.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept I/O errors.
    pub fn run(self: &Arc<Self>) -> io::Result<()> {
        let listener = TcpListener::bind(&self.cfg.addr)?;
        let local = listener.local_addr()?;
        // Recorded before the first stop check in `serve`: a `stop` that
        // races this startup is either seen by that check or finds the
        // address and wakes the `accept`.
        *self.listening.lock().expect("listening lock") = Some(wake_addr(local));
        let served = self.serve(&listener, local);
        *self.listening.lock().expect("listening lock") = None;
        served
    }

    fn serve(self: &Arc<Self>, listener: &TcpListener, local: SocketAddr) -> io::Result<()> {
        atomic_write(&self.cfg.data_dir.join("addr"), &format!("{local}\n"))?;
        println!(
            "dashlat serve: listening on {local}, {} worker(s), queue depth {}, data dir {}",
            self.cfg.workers,
            self.cfg.queue_depth,
            self.cfg.data_dir.display()
        );

        let workers: Vec<_> = (0..self.cfg.workers.max(1))
            .map(|_| {
                let server = Arc::clone(self);
                std::thread::spawn(move || server.worker_loop())
            })
            .collect();
        let watcher = {
            let server = Arc::clone(self);
            std::thread::spawn(move || server.watch_signals())
        };

        while !self.stop_requested() {
            match listener.accept() {
                // `stop` wakes the accept with a connection of its own;
                // whatever is accepted after the stop goes unanswered.
                Ok(_) if self.stop_requested() => break,
                Ok((stream, _peer)) => {
                    let server = Arc::clone(self);
                    let active = self.conns.fetch_add(1, Ordering::SeqCst) + 1;
                    if active > self.cfg.max_connections {
                        self.conns_shed.fetch_add(1, Ordering::Relaxed);
                        std::thread::spawn(move || server.reject_connection(stream));
                    } else {
                        std::thread::spawn(move || server.handle_connection(stream));
                    }
                }
                Err(e) => {
                    // Transient accept failures (EMFILE, ECONNABORTED)
                    // must not kill the daemon.
                    eprintln!("accept error (continuing): {e}");
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                }
            }
        }

        // Graceful drain: stop admitting, interrupt running sweeps at
        // their next cell boundary, leave queued jobs queued (they
        // resume on the next startup), and wait for the workers.
        println!("dashlat serve: shutdown requested — draining");
        {
            let mut st = self.state.lock().expect("state lock");
            st.shutting_down = true;
            for job in &st.jobs {
                if job.status == JobStatus::Running {
                    job.cancel.store(true, Ordering::SeqCst);
                }
            }
        }
        self.wake.notify_all();
        for w in workers {
            let _ = w.join();
        }
        let _ = watcher.join();
        println!("dashlat serve: shutdown complete");
        Ok(())
    }

    /// Turns SIGTERM/SIGINT into [`Server::stop`]; returns once this
    /// server is stopping, by signal or otherwise.
    fn watch_signals(&self) {
        let mut st = self.state.lock().expect("state lock");
        while !self.stop_requested() {
            if signal::shutdown_requested() {
                drop(st);
                self.stop();
                return;
            }
            st = self
                .wake
                .wait_timeout(st, SIGNAL_POLL)
                .expect("state lock")
                .0;
        }
    }

    // ------------------------------------------------------------------
    // Admission
    // ------------------------------------------------------------------

    /// Validates and admits one job. This is the whole admission-control
    /// policy: reject invalid specs, shed load beyond `queue_depth`,
    /// admit nothing while draining.
    fn admit(&self, spec: &JobSpec) -> Result<u64, AdmitError> {
        spec.validate().map_err(AdmitError::Invalid)?;
        let cells_total = spec.cells_total().map_err(AdmitError::Invalid)?;
        let mut st = self.state.lock().expect("state lock");
        if st.shutting_down || self.stop_requested() {
            return Err(AdmitError::ShuttingDown);
        }
        if st.queue.len() >= self.cfg.queue_depth {
            return Err(AdmitError::QueueFull {
                retry_after_secs: self.cfg.shed_retry_after_secs,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let dir = self.job_dir(id);
        std::fs::create_dir_all(&dir)
            .and_then(|()| atomic_write(&dir.join("job.json"), &spec.to_json()))
            .map_err(|e| {
                self.persist_failures.fetch_add(1, Ordering::Relaxed);
                AdmitError::Invalid(format!("persisting job: {e}"))
            })?;
        st.jobs.push(JobEntry {
            id,
            spec: Some(spec.clone()),
            status: JobStatus::Queued,
            cells_total,
            cancel: Arc::new(AtomicBool::new(false)),
            cache_hits: Arc::new(AtomicU64::new(0)),
            replayed: 0,
            executed: 0,
            skipped: 0,
            exit_code: None,
            detail: String::new(),
        });
        st.queue.push_back(id);
        drop(st);
        self.wake.notify_all();
        println!("job #{id}: admitted ({})", spec.describe());
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Workers
    // ------------------------------------------------------------------

    fn next_job(&self) -> Option<u64> {
        let mut st = self.state.lock().expect("state lock");
        loop {
            if st.shutting_down || self.stop_requested() {
                return None;
            }
            if let Some(id) = st.queue.pop_front() {
                st.running += 1;
                return Some(id);
            }
            st = self.wake.wait(st).expect("state lock");
        }
    }

    fn worker_loop(self: &Arc<Self>) {
        while let Some(id) = self.next_job() {
            self.run_job(id);
            self.state.lock().expect("state lock").running -= 1;
        }
    }

    fn run_job(self: &Arc<Self>, id: u64) {
        let started = {
            let mut st = self.state.lock().expect("state lock");
            st.generation += 1;
            st.job_mut(id).and_then(|e| {
                if e.cancel.load(Ordering::SeqCst) {
                    e.status = JobStatus::Cancelled;
                    e.detail = "cancelled while queued".to_owned();
                    None
                } else {
                    e.status = JobStatus::Running;
                    e.spec
                        .clone()
                        .map(|s| (s, Arc::clone(&e.cancel), Arc::clone(&e.cache_hits)))
                }
            })
        };
        self.wake.notify_all();
        let Some((spec, cancel, hits)) = started else {
            self.persist_terminal(id);
            return;
        };
        println!("job #{id}: running ({})", spec.describe());
        let outcome = self.execute(&spec, &self.job_dir(id), &cancel, &hits);
        {
            let mut st = self.state.lock().expect("state lock");
            st.generation += 1;
            if let Some(e) = st.job_mut(id) {
                e.status = outcome.status;
                e.exit_code = outcome.exit_code;
                e.detail = outcome.detail.clone();
                e.replayed = outcome.replayed;
                e.executed = outcome.executed;
                e.skipped = outcome.skipped;
            }
        }
        self.wake.notify_all();
        println!(
            "job #{id}: {} — {}",
            outcome.status.as_str(),
            outcome.detail
        );
        if outcome.status.is_terminal() {
            self.persist_terminal(id);
        }
    }

    /// Runs one job to an outcome. Every kind honors the per-job cancel
    /// token and deadline through a [`SweepControl`]; sweeps additionally
    /// stop at cell boundaries, while chaos/verify check only between
    /// jobs (they run as single units).
    fn execute(
        self: &Arc<Self>,
        spec: &JobSpec,
        dir: &Path,
        cancel: &Arc<AtomicBool>,
        hits: &Arc<AtomicU64>,
    ) -> JobOutcome {
        let machine = match spec.machine_config() {
            Ok(c) => c,
            Err(e) => {
                return JobOutcome::terminal(
                    JobStatus::Failed,
                    1,
                    format!("bad machine config: {e}"),
                )
            }
        };
        let timeout_secs = spec.timeout_secs.unwrap_or(self.cfg.job_timeout_secs);
        let mut control = SweepControl::new().with_cancel(Arc::clone(cancel));
        if timeout_secs > 0 {
            control = control.with_deadline(Instant::now() + Duration::from_secs(timeout_secs));
        }
        match &spec.kind {
            JobKind::Sweep { figure } => {
                let plan = SweepPlan::figure(*figure, &machine);
                // Each commit wakes the long polls waiting on this job.
                let server = Arc::clone(self);
                let opts = SweepOptions {
                    jobs: spec.sweep_jobs,
                    max_retries: spec.max_retries,
                    bundle_dir: Some(dir.join("bundles")),
                    control: control
                        .clone()
                        .with_commit_hook(move || server.notify_event()),
                    ..SweepOptions::default()
                };
                let journal = dir.join("sweep.journal");
                let resume = journal.exists();
                let cache = &self.cache;
                let isolate_cells = self.cfg.isolate;
                let cell_timeout = Duration::from_secs(self.cfg.cell_timeout_secs.max(1));
                let breaker_limit = self.cfg.crash_loop_threshold.max(1);
                // Per-job crash-loop circuit breaker: a streak of
                // *worker* crashes (signal death, timeout, no record —
                // not ordinary simulation failures) opens it, and the
                // job's remaining cells fail fast instead of forking
                // doomed children.
                let crash_streak = AtomicU32::new(0);
                let breaker_open = AtomicBool::new(false);
                let report = run_supervised(
                    &plan,
                    &journal,
                    &dir.join("sweep.json"),
                    resume,
                    &opts,
                    |_, cell, _| {
                        let fp = work_fingerprint(cell.app, &cell.config);
                        if let Some(elapsed) = cache.lookup(fp) {
                            hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(elapsed);
                        }
                        let outcome = if isolate_cells {
                            if breaker_open.load(Ordering::SeqCst) {
                                return Err(CellFailure {
                                    error: format!(
                                        "crash-loop circuit breaker open after \
                                         {breaker_limit} consecutive worker crashes"
                                    ),
                                    code: 1,
                                    class: FailureClass::Permanent,
                                });
                            }
                            let outcome = dashlat::isolate::run_cell_subprocess(cell, cell_timeout);
                            match &outcome {
                                Err(f) if dashlat::isolate::is_worker_crash(f) => {
                                    let streak = crash_streak.fetch_add(1, Ordering::SeqCst) + 1;
                                    if streak >= breaker_limit
                                        && !breaker_open.swap(true, Ordering::SeqCst)
                                    {
                                        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
                                        eprintln!(
                                            "crash-loop circuit breaker opened after \
                                             {streak} consecutive worker crashes"
                                        );
                                    }
                                }
                                _ => crash_streak.store(0, Ordering::SeqCst),
                            }
                            outcome
                        } else {
                            run_cell_in_process(cell)
                        };
                        if let Ok(elapsed) = outcome {
                            // Best-effort: a cache-write failure only
                            // costs a future re-simulation.
                            if let Err(e) = cache.insert(fp, elapsed) {
                                self.cache_write_failures.fetch_add(1, Ordering::Relaxed);
                                eprintln!("cache insert failed (continuing): {e}");
                            }
                        }
                        outcome
                    },
                );
                match report {
                    Ok(report) => {
                        let mut outcome = if let Some(why) = &report.interrupted {
                            if self.stop_requested() {
                                // No state.json: the journal is the
                                // checkpoint and the job resumes on the
                                // next startup.
                                JobOutcome {
                                    status: JobStatus::Interrupted,
                                    exit_code: None,
                                    detail: format!(
                                        "checkpointed for shutdown: {}",
                                        report.summary()
                                    ),
                                    replayed: 0,
                                    executed: 0,
                                    skipped: 0,
                                }
                            } else if cancel.load(Ordering::SeqCst) {
                                JobOutcome::terminal(JobStatus::Cancelled, 1, report.summary())
                            } else {
                                JobOutcome::terminal(
                                    JobStatus::Failed,
                                    1,
                                    format!("{why}: {}", report.summary()),
                                )
                            }
                        } else if report.is_complete() {
                            JobOutcome::terminal(JobStatus::Complete, 0, report.summary())
                        } else {
                            JobOutcome::terminal(
                                JobStatus::Failed,
                                report.exit_code(),
                                report.summary(),
                            )
                        };
                        outcome.replayed = report.replayed;
                        outcome.executed = report.executed;
                        outcome.skipped = report.skipped;
                        outcome
                    }
                    Err(e) => {
                        if matches!(e, SweepError::Io(_)) {
                            self.persist_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        JobOutcome::terminal(
                            JobStatus::Failed,
                            1,
                            format!("sweep supervision failed: {e}"),
                        )
                    }
                }
            }
            JobKind::Chaos { app, trials, seed } => {
                if let Some(why) = control.interruption() {
                    let status = if cancel.load(Ordering::SeqCst) {
                        JobStatus::Cancelled
                    } else {
                        JobStatus::Failed
                    };
                    return JobOutcome::terminal(status, 1, format!("{why} before start"));
                }
                let opts = ChaosOptions {
                    trials: *trials,
                    seed: *seed,
                    ..ChaosOptions::new(*app, machine)
                };
                let report = run_chaos(&opts);
                match report.failure {
                    None => JobOutcome::terminal(
                        JobStatus::Complete,
                        0,
                        format!("{} trial(s), no failing schedule", report.trials_run),
                    ),
                    Some(f) => JobOutcome::terminal(
                        JobStatus::Failed,
                        8,
                        format!(
                            "trial #{}: {} oracle tripped: {} (minimized: {})",
                            f.trial,
                            f.oracle,
                            f.error,
                            f.minimized.to_spec()
                        ),
                    ),
                }
            }
            JobKind::Verify {
                models,
                tests,
                max_runs,
            } => {
                if let Some(why) = control.interruption() {
                    let status = if cancel.load(Ordering::SeqCst) {
                        JobStatus::Cancelled
                    } else {
                        JobStatus::Failed
                    };
                    return JobOutcome::terminal(status, 1, format!("{why} before start"));
                }
                let models = if models.is_empty() {
                    dashlat_verify::ALL_MODELS.to_vec()
                } else {
                    models.clone()
                };
                let suite = dashlat_verify::verify_suite(&models, tests, *max_runs);
                let unwritten = atomic_write(&dir.join("verify.txt"), &suite.render())
                    .err()
                    .map(|e| {
                        self.persist_failures.fetch_add(1, Ordering::Relaxed);
                        format!("the verify.txt report was not written: {e}")
                    });
                if suite.passed() {
                    let mut detail = format!(
                        "{} litmus cells, {} machine runs — all passed",
                        suite.verdicts.len(),
                        suite.runs()
                    );
                    if let Some(note) = unwritten {
                        detail = format!("{detail}; {note}");
                    }
                    JobOutcome::terminal(JobStatus::Complete, 0, detail)
                } else {
                    JobOutcome::terminal(
                        JobStatus::Failed,
                        7,
                        format!(
                            "memory-model verification failed ({})",
                            unwritten.as_deref().unwrap_or("see verify.txt")
                        ),
                    )
                }
            }
        }
    }

    /// Writes `state.json` for a job in a terminal state, so the next
    /// startup classifies it as done rather than resumable.
    fn persist_terminal(&self, id: u64) {
        let st = self.state.lock().expect("state lock");
        let Some(e) = st.job(id) else { return };
        if !e.status.is_terminal() {
            return;
        }
        let state_json = format!(
            "{{\"status\":{},\"exit_code\":{},\"detail\":{},\"cache_hits\":{},\
             \"replayed\":{},\"executed\":{},\"skipped\":{}}}\n",
            quote(e.status.as_str()),
            e.exit_code
                .map_or_else(|| "null".to_owned(), |c| c.to_string()),
            quote(&e.detail),
            e.cache_hits.load(Ordering::Relaxed),
            e.replayed,
            e.executed,
            e.skipped
        );
        let dir = self.job_dir(id);
        drop(st);
        if let Err(err) = atomic_write(&dir.join("state.json"), &state_json) {
            // The job stays resumable (journal intact), but surface the
            // sick disk in healthz rather than only on stderr.
            self.persist_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!("job #{id}: failed to persist terminal state: {err}");
        }
    }

    // ------------------------------------------------------------------
    // HTTP surface
    // ------------------------------------------------------------------

    /// Sheds one over-cap connection: a 503 with `Retry-After`, written
    /// without waiting for the request to arrive.
    fn reject_connection(&self, mut stream: TcpStream) {
        let _open = OpenConnection(&self.conns);
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let retry = self.cfg.shed_retry_after_secs;
        let _ = write_response(
            &mut stream,
            503,
            "Service Unavailable",
            &[("Retry-After", retry.to_string())],
            "application/json",
            &format!("{{\"error\":\"connection limit reached\",\"retry_after_secs\":{retry}}}"),
        );
        drain_briefly(&stream);
    }

    fn handle_connection(&self, mut stream: TcpStream) {
        let _open = OpenConnection(&self.conns);
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        let deadline = (self.cfg.conn_deadline_secs > 0)
            .then(|| Instant::now() + Duration::from_secs(self.cfg.conn_deadline_secs));
        let req = match read_request(&mut stream, deadline) {
            Ok(r) => r,
            Err(e) => {
                // A vanished client gets no response; everything else
                // gets the taxonomy's status (408/413/400).
                if let Some((status, reason)) = e.status() {
                    let body = format!("{{\"error\":{}}}", quote(&e.to_string()));
                    let _ =
                        write_response(&mut stream, status, reason, &[], "application/json", &body);
                    drain_briefly(&stream);
                }
                return;
            }
        };
        // The request is fully read; the remaining reads are only the
        // long-poll disconnect probe, which manages its own timeout.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = self.route(&req, &mut stream);
    }

    #[allow(clippy::too_many_lines)]
    fn route(&self, req: &Request, stream: &mut TcpStream) -> io::Result<()> {
        let json = |stream: &mut TcpStream, status: u16, reason: &str, body: &str| {
            write_response(stream, status, reason, &[], "application/json", body)
        };
        let error = |stream: &mut TcpStream, status: u16, reason: &str, msg: &str| {
            let body = format!("{{\"error\":{}}}", quote(msg));
            json(stream, status, reason, &body)
        };
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", []) => write_response(
                stream,
                200,
                "OK",
                &[],
                "text/plain",
                "dashlat serve\n\nGET  /healthz  /readyz  /jobs  /jobs/<id>  /jobs/<id>/log  \
                 /jobs/<id>/events\nPOST /jobs  /jobs/<id>/cancel  /shutdown\n",
            ),
            ("GET", ["healthz"]) => {
                let (queued, running, total, shutting_down) = {
                    let st = self.state.lock().expect("state lock");
                    (st.queue.len(), st.running, st.jobs.len(), st.shutting_down)
                };
                let body = format!(
                    "{{\"status\":\"ok\",\"workers\":{},\"queued\":{queued},\"running\":{running},\
                     \"queue_depth\":{},\"jobs\":{total},\"cache_entries\":{},\"cache_hits\":{},\
                     \"shutting_down\":{shutting_down},\
                     \"connections\":{},\"connections_shed\":{},\"persist_failures\":{},\
                     \"cache_write_failures\":{},\"breaker_trips\":{}}}",
                    self.cfg.workers,
                    self.cfg.queue_depth,
                    self.cache.entries(),
                    self.cache.hits(),
                    self.conns.load(Ordering::SeqCst),
                    self.conns_shed.load(Ordering::Relaxed),
                    self.persist_failures.load(Ordering::Relaxed),
                    self.cache_write_failures.load(Ordering::Relaxed),
                    self.breaker_trips.load(Ordering::Relaxed)
                );
                json(stream, 200, "OK", &body)
            }
            ("GET", ["readyz"]) => {
                let (queued, shutting_down) = {
                    let st = self.state.lock().expect("state lock");
                    (st.queue.len(), st.shutting_down)
                };
                if shutting_down || self.stop_requested() {
                    error(stream, 503, "Service Unavailable", "shutting down")
                } else if queued >= self.cfg.queue_depth {
                    error(stream, 503, "Service Unavailable", "admission queue full")
                } else {
                    json(stream, 200, "OK", "{\"ready\":true}")
                }
            }
            ("POST", ["shutdown"]) => {
                // Answer first: the stop lets a daemon process exit.
                let answered = json(stream, 200, "OK", "{\"shutting_down\":true}");
                self.stop();
                answered
            }
            ("POST", ["jobs"]) => {
                let spec = match JobSpec::from_json(&req.body) {
                    Ok(s) => s,
                    Err(e) => return error(stream, 400, "Bad Request", &e),
                };
                match self.admit(&spec) {
                    Ok(id) => json(
                        stream,
                        202,
                        "Accepted",
                        &format!("{{\"id\":{id},\"status\":\"queued\"}}"),
                    ),
                    Err(AdmitError::Invalid(e)) => error(stream, 400, "Bad Request", &e),
                    Err(AdmitError::QueueFull { retry_after_secs }) => write_response(
                        stream,
                        429,
                        "Too Many Requests",
                        &[("Retry-After", retry_after_secs.to_string())],
                        "application/json",
                        &format!(
                            "{{\"error\":\"admission queue full\",\
                             \"retry_after_secs\":{retry_after_secs}}}"
                        ),
                    ),
                    Err(AdmitError::ShuttingDown) => {
                        error(stream, 503, "Service Unavailable", "shutting down")
                    }
                }
            }
            ("GET", ["jobs"]) => {
                // Rendering reads journals, so it happens off the lock
                // that every commit and admission takes.
                let jobs = self.state.lock().expect("state lock").jobs.clone();
                let rendered: Vec<String> = jobs.iter().map(|e| self.render_job(e)).collect();
                json(
                    stream,
                    200,
                    "OK",
                    &format!("{{\"jobs\":[{}]}}", rendered.join(",")),
                )
            }
            ("GET", ["jobs", id]) => {
                let Ok(id) = id.parse::<u64>() else {
                    return error(stream, 404, "Not Found", "no such job");
                };
                let job = self.state.lock().expect("state lock").job(id).cloned();
                match job {
                    Some(e) => json(stream, 200, "OK", &self.render_job(&e)),
                    None => error(stream, 404, "Not Found", "no such job"),
                }
            }
            ("GET", ["jobs", id, "log"]) => {
                let Ok(id) = id.parse::<u64>() else {
                    return error(stream, 404, "Not Found", "no such job");
                };
                match std::fs::read_to_string(self.job_dir(id).join("sweep.json")) {
                    Ok(log) => json(stream, 200, "OK", &log),
                    Err(_) => error(stream, 404, "Not Found", "no published log for this job"),
                }
            }
            ("GET", ["jobs", id, "events"]) => {
                let Ok(id) = id.parse::<u64>() else {
                    return error(stream, 404, "Not Found", "no such job");
                };
                if self.state.lock().expect("state lock").job(id).is_none() {
                    return error(stream, 404, "Not Found", "no such job");
                }
                self.serve_events(stream, id, req)
            }
            ("POST", ["jobs", id, "cancel"]) => {
                let Ok(id) = id.parse::<u64>() else {
                    return error(stream, 404, "Not Found", "no such job");
                };
                let status = {
                    let mut st = self.state.lock().expect("state lock");
                    let Some(e) = st.job_mut(id) else {
                        return error(stream, 404, "Not Found", "no such job");
                    };
                    e.cancel.store(true, Ordering::SeqCst);
                    if e.status == JobStatus::Queued {
                        e.status = JobStatus::Cancelled;
                        e.detail = "cancelled while queued".to_owned();
                        e.exit_code = Some(1);
                    }
                    let status = e.status;
                    st.queue.retain(|&q| q != id);
                    st.generation += 1;
                    status
                };
                self.wake.notify_all();
                if status == JobStatus::Cancelled {
                    self.persist_terminal(id);
                }
                json(
                    stream,
                    200,
                    "OK",
                    &format!("{{\"id\":{id},\"status\":{}}}", quote(status.as_str())),
                )
            }
            _ => error(stream, 404, "Not Found", "no such endpoint"),
        }
    }

    /// `GET /jobs/<id>/events[?after=N&wait=S]`: the committed journal
    /// records so far as JSONL. With `wait`, this is a long poll — the
    /// response blocks until a record past `after` is committed, the job
    /// goes terminal, the wait expires, the daemon stops, or the client
    /// hangs up (in which case nothing is written). `X-Events-Next`
    /// carries the offset to pass as the next `after`. The poll sleeps on
    /// the event generation, so it answers on the commit or state change
    /// itself, not on a timer.
    fn serve_events(&self, stream: &mut TcpStream, id: u64, req: &Request) -> io::Result<()> {
        let error = |stream: &mut TcpStream, msg: &str| {
            let body = format!("{{\"error\":{}}}", quote(msg));
            write_response(stream, 404, "Not Found", &[], "application/json", &body)
        };
        let after = req
            .query_param("after")
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        let wait_secs = req
            .query_param("wait")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
            .min(MAX_EVENT_WAIT_SECS);
        let journal = self.job_dir(id).join("sweep.journal");
        let deadline = Instant::now() + Duration::from_secs(wait_secs);
        loop {
            // The generation is read before the journal: an event after
            // this point moves it, so the wait below cannot miss it.
            let (seen, terminal) = {
                let st = self.state.lock().expect("state lock");
                let terminal = st.job(id).is_none_or(|e| e.status.is_terminal());
                (st.generation, terminal)
            };
            let lines = Journal::read_committed_lines(&journal);
            let expired =
                wait_secs == 0 || Instant::now() >= deadline || self.stop_requested() || terminal;
            match &lines {
                Ok(lines) if lines.len() > after || expired => {
                    let start = after.min(lines.len());
                    let fresh = &lines[start..];
                    let body = if fresh.is_empty() {
                        String::new()
                    } else {
                        format!("{}\n", fresh.join("\n"))
                    };
                    return write_response(
                        stream,
                        200,
                        "OK",
                        &[("X-Events-Next", lines.len().to_string())],
                        "application/x-ndjson",
                        &body,
                    );
                }
                Err(_) if expired => {
                    // No journal (job never started a sweep, or the kind
                    // has none): same 404 as before long polling existed.
                    return error(stream, "no journal for this job");
                }
                _ => {}
            }
            if !self.await_event(stream, seen, deadline) {
                return Ok(());
            }
        }
    }

    /// Blocks until the event generation moves past `seen` or `deadline`
    /// passes, probing the client every [`CLIENT_PROBE`]. Returns `false`
    /// when the client has hung up.
    fn await_event(&self, stream: &TcpStream, seen: u64, deadline: Instant) -> bool {
        let mut next_probe = Instant::now() + CLIENT_PROBE;
        let mut st = self.state.lock().expect("state lock");
        while st.generation == seen {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if now >= next_probe {
                drop(st);
                if client_gone(stream) {
                    return false;
                }
                next_probe = Instant::now() + CLIENT_PROBE;
                st = self.state.lock().expect("state lock");
                continue;
            }
            st = self
                .wake
                .wait_timeout(st, next_probe.min(deadline) - now)
                .expect("state lock")
                .0;
        }
        true
    }

    /// Renders one job's status JSON. `cells_done` counts committed
    /// journal records, so a poller watches per-cell progress live.
    fn render_job(&self, e: &JobEntry) -> String {
        let cells_done = match e.status {
            JobStatus::Complete => e.cells_total,
            _ => Journal::read_committed_lines(&self.job_dir(e.id).join("sweep.journal"))
                .map_or(0, |l| l.len().saturating_sub(1)),
        };
        format!(
            "{{\"id\":{},\"kind\":{},\"status\":{},\"detail\":{},\"cells_total\":{},\
             \"cells_done\":{cells_done},\"cache_hits\":{},\"replayed\":{},\"executed\":{},\
             \"skipped\":{},\"exit_code\":{}}}",
            e.id,
            quote(e.spec.as_ref().map_or("?", |s| s.kind.tag())),
            quote(e.status.as_str()),
            quote(&e.detail),
            e.cells_total,
            e.cache_hits.load(Ordering::Relaxed),
            e.replayed,
            e.executed,
            e.skipped,
            e.exit_code
                .map_or_else(|| "null".to_owned(), |c| c.to_string())
        )
    }
}

/// Where `stop` connects to wake the listener bound at `local`: the
/// bound address itself, or loopback when bound to every interface.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// One accepted connection's slot in the open-connection gauge, given
/// back on drop. A handler makes it first thing, so it drops before the
/// handler's stream parameter closes the connection: a client that has
/// read its whole response is no longer counted.
struct OpenConnection<'a>(&'a AtomicUsize);

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// After answering a request that was never fully read (shed, timed
/// out, or oversized), half-close and briefly drain what the client
/// already sent: closing with unread bytes queued makes the kernel send
/// RST, which can destroy the response before the client reads it.
fn drain_briefly(stream: &TcpStream) {
    use std::io::Read;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let drain_until = Instant::now() + Duration::from_secs(2);
    let mut sink = [0u8; 1024];
    let mut stream = stream;
    while Instant::now() < drain_until {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

/// Has the long-poll client hung up? A non-blocking `peek` returning
/// `Ok(0)` means orderly close; a hard error means the peer is gone.
/// `WouldBlock` (nothing buffered, connection alive) is the healthy case.
fn client_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let gone = match stream.peek(&mut [0u8; 1]) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => e.kind() != io::ErrorKind::WouldBlock,
    };
    if stream.set_nonblocking(false).is_err() {
        return true;
    }
    gone
}

/// Scans `data_dir/jobs/*` and classifies every job directory; fills
/// `state.jobs` and enqueues the resumable ones.
fn recover_jobs(data_dir: &Path, state: &mut State) -> io::Result<()> {
    let jobs_dir = data_dir.join("jobs");
    let mut ids: Vec<u64> = std::fs::read_dir(&jobs_dir)?
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().to_string_lossy().parse::<u64>().ok())
        .collect();
    ids.sort_unstable();
    for id in ids {
        let dir = jobs_dir.join(id.to_string());
        let spec = std::fs::read_to_string(dir.join("job.json"))
            .map_err(|e| e.to_string())
            .and_then(|text| JobSpec::from_json(&text));
        let mut entry = JobEntry {
            id,
            spec: None,
            status: JobStatus::Failed,
            cells_total: 0,
            cancel: Arc::new(AtomicBool::new(false)),
            cache_hits: Arc::new(AtomicU64::new(0)),
            replayed: 0,
            executed: 0,
            skipped: 0,
            exit_code: None,
            detail: String::new(),
        };
        match spec {
            Err(e) => {
                // Corrupt: quarantined, never executed.
                entry.detail = format!("corrupt job spec: {e}");
                entry.exit_code = Some(1);
                println!("recovery: job #{id} corrupt ({e})");
            }
            Ok(spec) => {
                entry.cells_total = spec.cells_total().unwrap_or(0);
                entry.spec = Some(spec);
                match read_terminal_state(&dir) {
                    Some((status, exit_code, detail, cache_hits, replayed, executed, skipped)) => {
                        entry.status = status;
                        entry.exit_code = exit_code;
                        entry.detail = detail;
                        entry.cache_hits = Arc::new(AtomicU64::new(cache_hits));
                        entry.replayed = replayed;
                        entry.executed = executed;
                        entry.skipped = skipped;
                        println!("recovery: job #{id} {} (terminal)", status.as_str());
                    }
                    None => {
                        let committed = Journal::read_committed_lines(&dir.join("sweep.journal"))
                            .map_or(0, |l| l.len().saturating_sub(1));
                        entry.status = JobStatus::Queued;
                        state.queue.push_back(id);
                        println!(
                            "recovery: job #{id} resumable ({committed} cell(s) already committed) — re-enqueued"
                        );
                    }
                }
            }
        }
        state.jobs.push(entry);
    }
    Ok(())
}

/// Parses a job's `state.json`, returning `None` when absent or
/// unparseable (either way the job is not terminal).
#[allow(clippy::type_complexity)]
fn read_terminal_state(
    dir: &Path,
) -> Option<(JobStatus, Option<u8>, String, u64, usize, usize, usize)> {
    use dashlat_sim::json::Value;
    let text = std::fs::read_to_string(dir.join("state.json")).ok()?;
    let v = Value::parse(&text).ok()?;
    let status: JobStatus = v.get("status")?.as_str()?.parse().ok()?;
    if !status.is_terminal() {
        return None;
    }
    let num = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    Some((
        status,
        v.get("exit_code").and_then(Value::as_u64).map(|c| c as u8),
        v.get("detail")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned(),
        num("cache_hits"),
        num("replayed") as usize,
        num("executed") as usize,
        num("skipped") as usize,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use dashlat_sim::json::Value;

    fn tmp_data_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dashlat-serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    /// Runs a daemon for `cfg` on its own thread and waits for it to
    /// publish its ephemeral address.
    fn boot(cfg: ServeConfig) -> (Arc<Server>, std::thread::JoinHandle<io::Result<()>>, String) {
        let dir = cfg.data_dir.clone();
        let server = Arc::new(Server::new(cfg).expect("server"));
        let runner = Arc::clone(&server);
        let handle = std::thread::spawn(move || runner.run());
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(a) = client::read_addr_file(&dir) {
                break a;
            }
            assert!(Instant::now() < deadline, "daemon never published addr");
            std::thread::sleep(Duration::from_millis(10));
        };
        (server, handle, addr)
    }

    fn tiny_sweep_spec() -> JobSpec {
        JobSpec {
            sweep_jobs: Some(1),
            ..JobSpec::sweep(
                3,
                vec!["--test-scale".into(), "--processors".into(), "4".into()],
            )
        }
    }

    /// Waits up to `secs` for job `id` to end and returns its status
    /// document, which must say `complete`.
    fn wait_complete(addr: &str, id: u64, secs: u64) -> Value {
        let deadline = Instant::now() + Duration::from_secs(secs);
        let job = client::wait_terminal(addr, id, Some(deadline))
            .unwrap_or_else(|e| panic!("job {id} did not end: {e}"));
        assert_eq!(
            job.get("status").and_then(Value::as_str),
            Some("complete"),
            "job {id}: {job:?}"
        );
        job
    }

    fn connections(addr: &str) -> u64 {
        let health = client::request(addr, "GET", "/healthz", None).expect("healthz");
        Value::parse(&health.body)
            .expect("healthz JSON")
            .get("connections")
            .and_then(Value::as_u64)
            .expect("connections field")
    }

    #[test]
    fn admission_sheds_load_beyond_queue_depth() {
        let dir = tmp_data_dir("admit");
        let server = Server::new(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        })
        .expect("server");
        // No workers are running, so admitted jobs stay queued.
        let spec = tiny_sweep_spec();
        assert_eq!(server.admit(&spec), Ok(1));
        assert_eq!(server.admit(&spec), Ok(2));
        assert_eq!(
            server.admit(&spec),
            Err(AdmitError::QueueFull {
                retry_after_secs: 2
            })
        );
        // Invalid specs are rejected before touching the queue.
        let bad = JobSpec::sweep(3, vec!["--bogus".into()]);
        assert!(matches!(server.admit(&bad), Err(AdmitError::Invalid(_))));
        // Draining admits nothing.
        server.state.lock().unwrap().shutting_down = true;
        assert_eq!(server.admit(&spec), Err(AdmitError::ShuttingDown));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Specs that used to be admitted and then fail (or, worse,
    /// "complete" having checked nothing) are a 400 at the door.
    #[test]
    fn invalid_specs_are_rejected_at_the_door() {
        let dir = tmp_data_dir("invalid-specs");
        let (server, handle, addr) = boot(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        });
        for body in [
            r#"{"kind":"verify","models":["sc"],"tests":["no_such_test"]}"#,
            r#"{"kind":"chaos","app":"lu","trials":4294967296}"#,
            r#"{"kind":"chaos","app":"lu","trials":1,"machine":["--bogus"]}"#,
            r#"{"kind":"chaos","app":"lu","trials":0}"#,
            r#"{"kind":"sweep","figure":3,"max_retries":4294967296}"#,
        ] {
            let resp = client::request(&addr, "POST", "/jobs", Some(body)).expect("submit");
            assert_eq!(resp.status, 400, "{body}: {resp:?}");
        }
        let jobs = client::request(&addr, "GET", "/jobs", None).expect("list");
        assert!(
            !jobs.body.contains("\"id\""),
            "nothing admitted: {}",
            jobs.body
        );
        server.stop();
        handle.join().expect("join").expect("run ok");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_submit_poll_cache_and_graceful_stop() {
        let dir = tmp_data_dir("e2e");
        let (server, handle, addr) = boot(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            queue_depth: 8,
            job_timeout_secs: 600,
            ..ServeConfig::default()
        });

        let health = client::request(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(health.status, 200, "{health:?}");
        assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
        assert_eq!(
            client::request(&addr, "GET", "/readyz", None)
                .expect("readyz")
                .status,
            200
        );

        // Submit a tiny sweep and poll it to completion.
        let spec = tiny_sweep_spec();
        let sub = client::request(&addr, "POST", "/jobs", Some(&spec.to_json())).expect("submit");
        assert_eq!(sub.status, 202, "{sub:?}");
        assert!(sub.body.contains("\"id\":1"), "{}", sub.body);
        wait_complete(&addr, 1, 300);
        let log = client::request(&addr, "GET", "/jobs/1", None).expect("status");
        assert!(log.body.contains("\"exit_code\":0"), "{}", log.body);
        let published = client::request(&addr, "GET", "/jobs/1/log", None).expect("log");
        assert_eq!(published.status, 200);
        assert!(published.body.contains("figure3"), "{}", published.body);
        let events = client::request(&addr, "GET", "/jobs/1/events", None).expect("events");
        assert_eq!(events.status, 200);
        assert!(events.body.contains("\"kind\":\"cell\""), "{}", events.body);

        // An identical job is served entirely from the cache.
        let sub2 = client::request(&addr, "POST", "/jobs", Some(&spec.to_json())).expect("submit");
        assert_eq!(sub2.status, 202, "{sub2:?}");
        let final_status = wait_complete(&addr, 2, 60);
        assert_eq!(
            final_status.get("cache_hits").and_then(Value::as_u64),
            Some(6),
            "every cell of the repeated job must come from cache: {final_status:?}"
        );
        // Both logs published identical bytes: determinism + cache.
        let log1 = client::request(&addr, "GET", "/jobs/1/log", None)
            .expect("log1")
            .body;
        let log2 = client::request(&addr, "GET", "/jobs/2/log", None)
            .expect("log2")
            .body;
        assert_eq!(log1, log2);

        // Malformed specs are a 400 at the door.
        let bad = client::request(&addr, "POST", "/jobs", Some("{\"kind\":\"dance\"}"))
            .expect("bad submit");
        assert_eq!(bad.status, 400, "{bad:?}");
        // Unknown endpoints are 404.
        let missing = client::request(&addr, "GET", "/no/such/thing", None).expect("404");
        assert_eq!(missing.status, 404);

        // Graceful stop: run() returns Ok.
        server.stop();
        handle.join().expect("join").expect("run ok");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A stop issued before, during or right after `run` binds, or once
    /// it is blocked in `accept`, always lets `run` return: the address
    /// is recorded before the first stop check, so the wake-up
    /// connection cannot be missed.
    #[test]
    fn stop_racing_startup_always_lets_run_return() {
        for round in 0..20u32 {
            let dir = tmp_data_dir(&format!("stop-race-{round}"));
            let server = Arc::new(
                Server::new(ServeConfig {
                    data_dir: dir.clone(),
                    workers: 1,
                    ..ServeConfig::default()
                })
                .expect("server"),
            );
            let case = round % 4;
            if case == 0 {
                server.stop();
            }
            let (returned, run_returned) = std::sync::mpsc::channel();
            let runner = Arc::clone(&server);
            let handle = std::thread::spawn(move || {
                let result = runner.run();
                returned.send(()).expect("test alive");
                result
            });
            if case == 1 {
                // Race the bind, a little later each round.
                for _ in 0..round * 50 {
                    std::thread::yield_now();
                }
            }
            if case >= 2 {
                let addr = loop {
                    match client::read_addr_file(&dir) {
                        Ok(addr) => break addr,
                        Err(_) => std::thread::yield_now(),
                    }
                };
                if case == 3 {
                    // Once a request is answered, the loop is back in
                    // `accept` with nothing else to wake it.
                    let health = client::request(&addr, "GET", "/healthz", None).expect("healthz");
                    assert_eq!(health.status, 200, "{health:?}");
                }
            }
            if case != 0 {
                server.stop();
            }
            assert!(
                run_returned.recv_timeout(Duration::from_secs(10)).is_ok(),
                "round {round}: run() still serving 10 s after stop()"
            );
            handle.join().expect("join").expect("run ok");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Each request is answered when it arrives: 20 sequential round
    /// trips to an idle daemon finish in under 200 ms in all.
    #[test]
    fn sequential_requests_to_an_idle_daemon_are_answered_at_once() {
        let dir = tmp_data_dir("idle-round-trips");
        let (server, handle, addr) = boot(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        });
        let start = Instant::now();
        for _ in 0..20 {
            let health = client::request(&addr, "GET", "/healthz", None).expect("healthz");
            assert_eq!(health.status, 200, "{health:?}");
        }
        let took = start.elapsed();
        server.stop();
        handle.join().expect("join").expect("run ok");
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            took < Duration::from_millis(200),
            "20 sequential /healthz round trips took {took:?}"
        );
    }

    /// A long poll pending when the daemon stops answers at once, not at
    /// the end of its `wait`.
    #[test]
    fn pending_long_poll_returns_promptly_on_stop() {
        let dir = tmp_data_dir("poll-stop");
        let (server, handle, addr) = boot(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        });
        // A chaos campaign runs for a while as one unit and writes
        // no journal, so a poll on it waits for the job's end.
        let body = r#"{"kind":"chaos","app":"lu","trials":4,"seed":1,"machine":["--test-scale"]}"#;
        let sub = client::request(&addr, "POST", "/jobs", Some(body)).expect("submit");
        assert_eq!(sub.status, 202, "{sub:?}");
        let poll = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                // A late poll: the stop below must still wait for it.
                std::thread::sleep(Duration::from_millis(200));
                client::request(&addr, "GET", "/jobs/1/events?wait=30", None)
            })
        };
        // The poll holds a connection of its own beside the health check;
        // finished requests are no longer counted once they have returned.
        let deadline = Instant::now() + Duration::from_secs(10);
        while connections(&addr) < 2 {
            assert!(Instant::now() < deadline, "the long poll never connected");
        }
        assert!(!poll.is_finished(), "the chaos job ended before the stop");
        let stopped = Instant::now();
        server.stop();
        let resp = poll.join().expect("poll thread").expect("poll answered");
        let took = stopped.elapsed();
        assert!(
            took < Duration::from_secs(5),
            "the pending poll answered {took:?} after stop()"
        );
        // Nothing was journaled, as for any chaos job.
        assert_eq!(resp.status, 404, "{resp:?}");
        handle.join().expect("join").expect("run ok");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queue_full_retry_after_is_configurable() {
        let dir = tmp_data_dir("retry-after");
        let server = Server::new(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            queue_depth: 1,
            shed_retry_after_secs: 7,
            ..ServeConfig::default()
        })
        .expect("server");
        let spec = tiny_sweep_spec();
        assert_eq!(server.admit(&spec), Ok(1));
        assert_eq!(
            server.admit(&spec),
            Err(AdmitError::QueueFull {
                retry_after_secs: 7
            })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn connection_cap_sheds_with_503_and_retry_after() {
        let dir = tmp_data_dir("conn-cap");
        let (server, handle, addr) = boot(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            max_connections: 1,
            conn_deadline_secs: 30,
            shed_retry_after_secs: 3,
            ..ServeConfig::default()
        });

        // Occupy the only slot with an idle connection (it sends no
        // bytes; the 30s conn deadline keeps it open for the test).
        // The blocking accept takes connections in arrival order, so the
        // idle one holds the slot before the next request arrives.
        let idle = TcpStream::connect(&addr).expect("idle connect");
        let shed = client::request(&addr, "GET", "/healthz", None).expect("shed request");
        assert_eq!(shed.status, 503, "{shed:?}");
        assert_eq!(shed.header("Retry-After"), Some("3"), "{shed:?}");
        assert!(shed.body.contains("connection limit"), "{}", shed.body);

        // Releasing the slot restores service.
        drop(idle);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(r) = client::request(&addr, "GET", "/healthz", None) {
                if r.status == 200 {
                    assert!(r.body.contains("\"connections_shed\":"), "{}", r.body);
                    break;
                }
            }
            assert!(Instant::now() < deadline, "cap never released");
            std::thread::sleep(Duration::from_millis(50));
        }
        server.stop();
        handle.join().expect("join").expect("run ok");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn events_long_poll_blocks_then_drains_and_unknown_job_is_404() {
        let dir = tmp_data_dir("events");
        let (server, handle, addr) = boot(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            conn_deadline_secs: 10,
            ..ServeConfig::default()
        });

        // Unknown jobs 404 even with a wait (no thread pinned).
        let missing =
            client::request(&addr, "GET", "/jobs/99/events?wait=5", None).expect("missing");
        assert_eq!(missing.status, 404, "{missing:?}");

        // A long poll issued right after submission blocks until the
        // first committed record, then returns it.
        let spec = tiny_sweep_spec();
        let sub = client::request(&addr, "POST", "/jobs", Some(&spec.to_json())).expect("submit");
        assert_eq!(sub.status, 202, "{sub:?}");
        let first =
            client::request(&addr, "GET", "/jobs/1/events?wait=20", None).expect("long poll");
        assert_eq!(first.status, 200, "{first:?}");
        let next: usize = first
            .header("X-Events-Next")
            .and_then(|v| v.parse().ok())
            .expect("X-Events-Next header");
        assert!(next >= 1, "{first:?}");

        // Drain to completion, then page past the end: terminal job, so
        // the poll returns immediately and empty.
        wait_complete(&addr, 1, 300);
        let all = client::request(&addr, "GET", "/jobs/1/events?after=0", None).expect("all");
        assert_eq!(all.status, 200);
        // Header record + 6 cells.
        assert_eq!(all.header("X-Events-Next"), Some("7"), "{all:?}");
        assert!(all.body.contains("\"kind\":\"cell\""), "{}", all.body);
        let start = Instant::now();
        let tail =
            client::request(&addr, "GET", "/jobs/1/events?after=7&wait=20", None).expect("tail");
        assert_eq!(tail.status, 200, "{tail:?}");
        assert_eq!(tail.body, "", "{tail:?}");
        assert_eq!(tail.header("X-Events-Next"), Some("7"), "{tail:?}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "terminal job long poll must return immediately"
        );
        server.stop();
        handle.join().expect("join").expect("run ok");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_cache_writes_cost_a_resimulation_not_the_job() {
        use dashlat_sim::{faultfs, FaultFsPlan};
        let dir = tmp_data_dir("cache-faults");
        let (server, handle, addr) = boot(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        });
        let write_failures = || {
            let health = client::request(&addr, "GET", "/healthz", None).expect("healthz");
            Value::parse(&health.body)
                .expect("healthz JSON")
                .get("cache_write_failures")
                .and_then(Value::as_u64)
                .expect("cache_write_failures field")
        };
        // Runs the tiny sweep as job `id` and returns its status and log.
        let run_job = |id: u64| {
            let spec = tiny_sweep_spec();
            let sub =
                client::request(&addr, "POST", "/jobs", Some(&spec.to_json())).expect("submit");
            assert_eq!(sub.status, 202, "{sub:?}");
            let status = wait_complete(&addr, id, 300);
            let log = client::request(&addr, "GET", &format!("/jobs/{id}/log"), None).expect("log");
            assert_eq!(log.status, 200, "{log:?}");
            (status, log.body)
        };

        // Every write under this daemon's cache/ fails; the plan is
        // process-global, so the filter keeps other tests' I/O (and this
        // daemon's journals and state files) untouched.
        let spec = format!("eio=1,filter={}", dir.join("cache").display());
        let faults = faultfs::arm(FaultFsPlan::from_spec(&spec).unwrap());
        assert_eq!(write_failures(), 0);
        let (first, first_log) = run_job(1);
        let cells = first
            .get("cells_total")
            .and_then(Value::as_u64)
            .expect("cells_total");
        assert_eq!(write_failures(), cells, "every cell's cache write failed");
        // Nothing was cached, so the resubmitted job simulates every cell
        // again and publishes the same bytes.
        let (second, second_log) = run_job(2);
        let stats = faults.stats();
        drop(faults);
        assert_eq!(second.get("cache_hits").and_then(Value::as_u64), Some(0));
        assert_eq!(write_failures(), 2 * cells);
        assert!(stats.injected >= 2 * cells, "{stats:?}");
        assert_eq!(first_log, second_log);
        server.stop();
        handle.join().expect("join").expect("run ok");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A verify report the daemon could not write is counted in
    /// `persist_failures` and named in the job's detail.
    #[test]
    fn failed_verify_report_write_is_counted_and_named() {
        use dashlat_sim::{faultfs, FaultFsPlan};
        let dir = tmp_data_dir("verify-report-fault");
        let (server, handle, addr) = boot(ServeConfig {
            data_dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        });
        let _faults = faultfs::arm(FaultFsPlan::from_spec("eio=1,filter=verify.txt").unwrap());
        let spec = r#"{"kind":"verify","models":["sc"],"tests":["sb"]}"#;
        let sub = client::request(&addr, "POST", "/jobs", Some(spec)).expect("submit");
        assert_eq!(sub.status, 202, "{sub:?}");
        let status = wait_complete(&addr, 1, 120);
        assert!(
            status
                .get("detail")
                .and_then(Value::as_str)
                .is_some_and(|d| d.contains("the verify.txt report was not written")),
            "{status:?}"
        );
        assert!(!dir.join("jobs/1/verify.txt").exists(), "{status:?}");
        let health = client::request(&addr, "GET", "/healthz", None).expect("healthz");
        assert!(
            health.body.contains("\"persist_failures\":1,"),
            "{}",
            health.body
        );
        server.stop();
        handle.join().expect("join").expect("run ok");
        std::fs::remove_dir_all(&dir).ok();
    }
}
