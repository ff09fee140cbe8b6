//! `daemon` and `daemon-cached`: job round trips through `dashlat serve`.
//!
//! The daemon runs in this process on an ephemeral localhost port with
//! one worker, its state in a scratch directory under
//! `.perfbench-run/`. One client submits jobs in a closed loop: the next
//! job is sent only after the previous one's log was fetched. One
//! operation is one round trip as a client sees it: `POST /jobs` (a
//! figure-3 sweep at test scale on 4 processors, six cells), a long poll
//! on `GET /jobs/<id>/events` until the job ends, `GET /jobs/<id>`, and
//! `GET /jobs/<id>/log`.
//!
//! * `daemon` gives every job a machine configuration no earlier job used
//!   (a distinct `--switch` value, which a one-context machine never
//!   charges), so the result cache never hits and every cell is
//!   simulated.
//! * `daemon-cached` primes the cache during set-up with a pool of four
//!   jobs and then resubmits jobs from that pool, so every cell is served
//!   from the cache: it measures the service path alone.
//!
//! The seed draws the configurations and the order of resubmission.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dashlat::runner::run as simulate;
use dashlat::sweep::SweepPlan;
use dashlat_serve::{client, JobSpec, ServeConfig, Server};
use dashlat_sim::json::Value;
use dashlat_sim::rng::Xorshift;

use crate::calib::{HostClock, Stopwatch};
use crate::trace::Tracer;
use crate::{repeat_setup, Args, Outcome};

const FIGURE: u8 = 3;
/// Jobs in the `daemon-cached` pool.
const POOL: usize = 4;
/// Every eighth `daemon` job is re-simulated in this process and must
/// report the same elapsed time for every cell.
const REFERENCE_EVERY: usize = 8;

/// A daemon serving on an ephemeral port from its own data directory.
struct Daemon {
    server: Arc<Server>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    addr: String,
}

impl Daemon {
    fn boot(data_dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(data_dir);
        let server = Server::new(ServeConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: data_dir.to_path_buf(),
            workers: 1,
            queue_depth: 4,
            job_timeout_secs: 600,
            ..ServeConfig::default()
        })
        .map(Arc::new)
        .map_err(|e| format!("cannot create daemon: {e}"))?;
        let runner = Arc::clone(&server);
        let thread = std::thread::spawn(move || runner.run());
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(a) = client::read_addr_file(data_dir) {
                break a;
            }
            if Instant::now() > deadline || thread.is_finished() {
                server.stop();
                let _ = thread.join();
                return Err("daemon never published its address".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let daemon = Daemon {
            server,
            thread: Some(thread),
            addr,
        };
        daemon.get("/readyz")?;
        Ok(daemon)
    }

    /// Stops the daemon gracefully and waits for its threads.
    fn stop(&mut self) -> Result<(), String> {
        self.server.stop();
        match self.thread.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("daemon failed: {e}")),
            Some(Err(_)) => Err("daemon thread panicked".into()),
        }
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<client::HttpResponse, String> {
        client::request(&self.addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"))
    }

    /// A `GET` that must answer 200.
    fn get(&self, path: &str) -> Result<client::HttpResponse, String> {
        let resp = self.request("GET", path, None)?;
        if resp.status != 200 {
            return Err(format!("GET {path}: status {}: {}", resp.status, resp.body));
        }
        Ok(resp)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// What one finished job reported.
struct JobResult {
    status: Value,
    log: String,
}

fn field(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(u64::MAX)
}

/// Submits `spec`, waits for the job to end, and fetches its status and
/// log, each step in its trace stage.
fn round_trip(daemon: &Daemon, spec: &JobSpec, tracer: &mut Tracer) -> Result<JobResult, String> {
    let body = spec.to_json();
    let id = tracer.span("build", "dashlat-serve", || {
        let resp = daemon.request("POST", "/jobs", Some(&body))?;
        if resp.status != 202 {
            return Err(format!("POST /jobs: status {}: {}", resp.status, resp.body));
        }
        let v = Value::parse(&resp.body)?;
        v.get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("POST /jobs: no id in {}", resp.body))
    })?;
    let status = tracer.span("run", "dashlat-serve", || -> Result<Value, String> {
        // The journal holds a header and one record per cell; waiting
        // past all of them returns as soon as the job is terminal.
        let mut after = 1 + spec.cells_total()?;
        loop {
            let events = daemon.get(&format!("/jobs/{id}/events?after={after}&wait=30"))?;
            if let Some(next) = events.header("x-events-next").and_then(|n| n.parse().ok()) {
                after = after.max(next);
            }
            let status = Value::parse(&daemon.get(&format!("/jobs/{id}"))?.body)?;
            match status.get("status").and_then(Value::as_str) {
                Some("queued" | "running") => {}
                _ => return Ok(status),
            }
        }
    })?;
    let log = tracer.span("collect", "dashlat-serve", || {
        daemon.get(&format!("/jobs/{id}/log")).map(|r| r.body)
    })?;
    Ok(JobResult { status, log })
}

/// The elapsed pclocks of every point of a published sweep log.
fn log_elapsed(log: &str) -> Option<Vec<u64>> {
    let v = Value::parse(log).ok()?;
    if !matches!(v.get("complete"), Some(Value::Bool(true))) {
        return None;
    }
    v.get("points")?
        .as_arr()?
        .iter()
        .map(|p| p.get("elapsed").and_then(Value::as_u64))
        .collect()
}

/// The job's cells simulated in this process, for comparison with the
/// daemon's answers.
fn reference_elapsed(spec: &JobSpec) -> Option<Vec<u64>> {
    let plan = SweepPlan::figure(FIGURE, &spec.machine_config().ok()?);
    plan.cells
        .iter()
        .map(|c| {
            simulate(c.app, &c.config)
                .ok()
                .map(|e| e.result.elapsed.as_u64())
        })
        .collect()
}

fn spec(switch: u64) -> JobSpec {
    JobSpec {
        sweep_jobs: Some(1),
        ..JobSpec::sweep(
            FIGURE,
            ["--test-scale", "--processors", "4", "--switch"]
                .iter()
                .map(ToString::to_string)
                .chain([switch.to_string()])
                .collect(),
        )
    }
}

/// Boots a daemon and brings it to the state the workload measures from:
/// one warm-up job (`daemon`), or the primed cache pool (`daemon-cached`,
/// returning the pool's specs and logs).
fn set_up(
    dir: &Path,
    cached: bool,
    next_switch: &mut u64,
) -> Result<(Daemon, Vec<(JobSpec, String)>), String> {
    let daemon = Daemon::boot(dir)?;
    let jobs = if cached { POOL } else { 1 };
    let mut pool = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        let spec = spec(*next_switch);
        *next_switch += 1;
        let r = round_trip(&daemon, &spec, &mut Tracer::new(false))?;
        if log_elapsed(&r.log).is_none() {
            return Err(format!("set-up job did not complete: {}", r.log));
        }
        pool.push((spec, r.log));
    }
    Ok((daemon, pool))
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub fn run(
    args: &Args,
    tracer: &mut Tracer,
    clock: &mut HostClock,
    cached: bool,
) -> Result<(Outcome, f64), String> {
    let scratch = Scratch(PathBuf::from(format!(
        ".perfbench-run/{}-{}",
        args.workload,
        std::process::id()
    )));
    let mut rng = Xorshift::new(args.seed);
    // Distinct configurations: consecutive switch values from a seeded
    // start.
    let mut next_switch = 1 + rng.below(1 << 20);
    // Each repetition boots a fresh daemon; the previous one is stopped
    // (by its drop) outside the timed part.
    let ((mut daemon, pool), setup_s) = repeat_setup(clock, |rep| {
        set_up(&scratch.0.join(format!("d{rep}")), cached, &mut next_switch)
    })?;

    let mut outcome = Outcome::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        let (spec, expected_log) = if cached {
            let (spec, log) = &pool[rng.index(POOL)];
            (spec.clone(), Some(log.as_str()))
        } else {
            next_switch += 1;
            (spec(next_switch), None)
        };
        let cells = spec.cells_total()? as u64;
        clock.maybe_probe();
        let op = tracer.begin_op();
        let sw = Stopwatch::start();
        // On an error the daemon is stopped by its drop.
        let job = round_trip(&daemon, &spec, tracer)?;
        let latency = clock.elapsed(&sw);
        let cache_hits = field(&job.status, "cache_hits");
        let executed = field(&job.status, "executed");
        outcome.counts.cache_hits += cache_hits.min(cells);
        outcome.counts.machine_runs += executed.saturating_sub(cache_hits);
        let check_reference = !cached && outcome.latencies.len() % REFERENCE_EVERY == 0;
        let ok = tracer.span("check", "perfbench", || {
            let finished = job.status.get("status").and_then(Value::as_str) == Some("complete")
                && field(&job.status, "exit_code") == 0
                && field(&job.status, "cells_total") == cells
                && executed == cells
                && cache_hits == if cached { cells } else { 0 };
            let answers = log_elapsed(&job.log);
            let right = match expected_log {
                Some(log) => job.log == log,
                None if check_reference => answers.is_some() && answers == reference_elapsed(&spec),
                None => {
                    answers.is_some_and(|a| a.len() as u64 == cells && a.iter().all(|&e| e > 0))
                }
            };
            finished && right
        });
        tracer.exit(op);
        outcome.record(latency, ok);
    }
    daemon.stop()?;
    Ok((outcome, setup_s))
}
