//! Service-level chaos torture: drive a live daemon under seeded fault
//! schedules and check service invariants, shrinking any failure to a
//! minimal schedule.
//!
//! Each trial draws a [`ServeSchedule`] — which fault classes are
//! active (worker SIGKILLs, injected disk faults, an adversarial client
//! flood, a SIGTERM-equivalent restart mid-run) and how hard — then
//! runs one *campaign*: boot an in-process [`Server`] with subprocess
//! cell isolation, submit jobs, misbehave on schedule, then disarm
//! everything, restart the daemon cleanly, and let it finish. Four
//! oracles judge the wreckage:
//!
//! * **job-loss** — every job acknowledged with `202` is present and
//!   terminal after recovery. Acknowledged-then-vanished is the bug the
//!   write-ahead journal and `state.json` exist to prevent.
//! * **log-integrity** — any published `sweep.json` parses, and a
//!   *complete* job's log is byte-identical to a fault-free reference
//!   run. Atomic publication means torn logs must be impossible.
//! * **cache** — every result-cache entry parses and its elapsed
//!   matches the reference (determinism + atomic publication =
//!   exactly-once semantics for cached cells).
//! * **recovery** — the restarted daemon answers `/healthz` and drains
//!   every recovered job within a bound.
//!
//! A failing schedule is handed to the generic delta-debugging engine
//! ([`dashlat::chaos::shrink`]): drop whole fault classes, then halve
//! magnitudes, then zero the seed — each candidate re-runs a full
//! campaign, so the minimized schedule is a *reproducer*, not a guess.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dashlat::isolate::{arm_kills, disarm_kills, KillPlan};
use dashlat::sweep::{
    run_cell_in_process, run_supervised_controlled, work_fingerprint, SweepControl, SweepOptions,
    SweepPlan,
};
use dashlat_sim::json::Value;
use dashlat_sim::{faultfs, FaultFsPlan, Xorshift};

use crate::chaosclient::{self, ChaosMode};
use crate::client;
use crate::jobs::{JobSpec, JobStatus};
use crate::server::{ServeConfig, Server};

/// How long the recovery oracle waits for every recovered job to reach
/// a terminal state on a fault-free daemon.
const FINAL_DRAIN: Duration = Duration::from_secs(120);

/// How long a campaign lets the daemon suffer under the armed schedule
/// before moving to recovery (progress is polled, so healthy campaigns
/// end early).
const FAULT_WINDOW: Duration = Duration::from_secs(10);

/// Torture-harness configuration.
#[derive(Debug, Clone)]
pub struct TortureOptions {
    /// Seeded schedules to try.
    pub trials: u32,
    /// Base seed; trial `i` uses an independent fork.
    pub seed: u64,
    /// Root directory for campaign data dirs (one subdir per campaign,
    /// including shrink re-runs). It must be absent or empty: the
    /// harness writes into it and never deletes anything.
    pub data_root: PathBuf,
    /// Budget for shrinking a failing schedule (campaign re-runs).
    pub max_shrink_runs: u32,
    /// Loud-skip threshold: if the fault-free reference sweep averages
    /// more than this many milliseconds per cell, the runner is too
    /// slow/noisy for timing-bound oracles. 0 disables the check.
    pub calibration_budget_ms: u64,
}

impl Default for TortureOptions {
    /// What `dashlat chaos --serve` runs with no flags: eight schedules
    /// from seed 1 under a per-process temp root.
    fn default() -> Self {
        Self {
            trials: 8,
            seed: 1,
            data_root: std::env::temp_dir().join(format!("dashlat-torture-{}", std::process::id())),
            max_shrink_runs: 24,
            calibration_budget_ms: 0,
        }
    }
}

/// One seeded fault schedule for a campaign: four independently
/// droppable classes plus the seed that makes every draw deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSchedule {
    /// Seed for kill draws and disk-fault draws.
    pub seed: u64,
    /// Probability each spawned cell subprocess is SIGKILLed.
    pub worker_kill_prob: f64,
    /// Injected-EIO probability on daemon-side writes.
    pub disk_eio_prob: f64,
    /// Injected short-write probability.
    pub disk_short_prob: f64,
    /// Injected fsync-failure probability.
    pub disk_fsync_prob: f64,
    /// Adversarial clients unleashed while jobs run.
    pub flood_clients: u32,
    /// Stop and restart the daemon mid-run (the SIGTERM drill).
    pub sigterm_restart: bool,
}

impl ServeSchedule {
    /// Compact `key=value` rendering for logs and repro instructions.
    pub fn to_spec(&self) -> String {
        format!(
            "seed={},kill={},eio={},short={},fsync={},flood={},restart={}",
            self.seed,
            self.worker_kill_prob,
            self.disk_eio_prob,
            self.disk_short_prob,
            self.disk_fsync_prob,
            self.flood_clients,
            u8::from(self.sigterm_restart)
        )
    }

    fn disk_active(&self) -> bool {
        self.disk_eio_prob > 0.0 || self.disk_short_prob > 0.0 || self.disk_fsync_prob > 0.0
    }

    /// Number of active fault classes (0..=4).
    pub fn active_classes(&self) -> u32 {
        u32::from(self.worker_kill_prob > 0.0)
            + u32::from(self.disk_active())
            + u32::from(self.flood_clients > 0)
            + u32::from(self.sigterm_restart)
    }
}

/// Draws one schedule from small per-class grids: most trials get one
/// or two classes, and an occasional kitchen-sink trial gets them all.
pub fn random_schedule(rng: &mut Xorshift) -> ServeSchedule {
    const KILL: [f64; 3] = [0.0, 0.3, 0.6];
    const DISK: [f64; 3] = [0.0, 0.08, 0.2];
    const FLOOD: [u32; 3] = [0, 2, 4];
    for _ in 0..16 {
        let mut s = ServeSchedule {
            seed: rng.next_u64() >> 1,
            worker_kill_prob: KILL[rng.index(KILL.len())],
            disk_eio_prob: DISK[rng.index(DISK.len())],
            disk_short_prob: DISK[rng.index(DISK.len())],
            disk_fsync_prob: DISK[rng.index(DISK.len())],
            flood_clients: FLOOD[rng.index(FLOOD.len())],
            sigterm_restart: rng.chance(0.4),
        };
        if rng.chance(0.15) {
            // Kitchen sink: every class at once.
            s.worker_kill_prob = KILL[2];
            s.disk_eio_prob = DISK[1];
            s.disk_short_prob = DISK[1];
            s.disk_fsync_prob = DISK[1];
            s.flood_clients = FLOOD[2];
            s.sigterm_restart = true;
        }
        if s.active_classes() > 0 {
            return s;
        }
    }
    // Sixteen all-quiet draws in a row: force the disk class.
    ServeSchedule {
        seed: rng.next_u64() >> 1,
        worker_kill_prob: 0.0,
        disk_eio_prob: 0.2,
        disk_short_prob: 0.2,
        disk_fsync_prob: 0.2,
        flood_clients: 0,
        sigterm_restart: false,
    }
}

/// Shrink candidates: drop a whole class, then halve magnitudes, then
/// zero the seed. Mirrors [`dashlat::chaos::shrink_plan`]'s ordering so
/// minimized schedules name the *class* that matters first.
pub fn schedule_candidates(best: &ServeSchedule) -> Vec<ServeSchedule> {
    let mut out = Vec::new();
    if best.worker_kill_prob > 0.0 {
        out.push(ServeSchedule {
            worker_kill_prob: 0.0,
            ..best.clone()
        });
    }
    if best.disk_active() {
        out.push(ServeSchedule {
            disk_eio_prob: 0.0,
            disk_short_prob: 0.0,
            disk_fsync_prob: 0.0,
            ..best.clone()
        });
    }
    if best.flood_clients > 0 {
        out.push(ServeSchedule {
            flood_clients: 0,
            ..best.clone()
        });
    }
    if best.sigterm_restart {
        out.push(ServeSchedule {
            sigterm_restart: false,
            ..best.clone()
        });
    }
    let halved = ServeSchedule {
        worker_kill_prob: half(best.worker_kill_prob),
        disk_eio_prob: half(best.disk_eio_prob),
        disk_short_prob: half(best.disk_short_prob),
        disk_fsync_prob: half(best.disk_fsync_prob),
        flood_clients: best.flood_clients / 2,
        ..best.clone()
    };
    if halved != *best && halved.active_classes() > 0 {
        out.push(halved);
    }
    if best.seed != 0 {
        out.push(ServeSchedule {
            seed: 0,
            ..best.clone()
        });
    }
    out
}

fn half(p: f64) -> f64 {
    if p > 0.02 {
        p / 2.0
    } else {
        p
    }
}

/// One oracle violation found by a campaign.
#[derive(Debug, Clone)]
pub struct TortureFailure {
    /// Trial index that first produced the failure.
    pub trial: u32,
    /// The schedule as originally drawn.
    pub original: ServeSchedule,
    /// The delta-debugged minimal schedule that still fails.
    pub minimized: ServeSchedule,
    /// Which oracle tripped (on the minimized schedule).
    pub oracle: String,
    /// What the oracle saw.
    pub error: String,
    /// Campaign re-runs the shrinker spent.
    pub shrink_runs: u32,
}

/// What a torture run produced.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// Schedules completed (including the failing one, if any).
    pub trials_run: u32,
    /// The first oracle violation, shrunk — `None` means all green.
    pub failure: Option<TortureFailure>,
    /// Set when the runner was too slow for the timing-bound oracles
    /// and the run was skipped loudly instead of flaking.
    pub skipped: Option<String>,
}

/// A fault-free baseline against which campaigns are judged: the
/// published log bytes and per-fingerprint elapsed values of the tiny
/// sweep every torture job runs.
struct Reference {
    sweep_json: String,
    elapsed: HashMap<u64, u64>,
    per_cell_ms: u64,
}

/// The spec every torture campaign submits: the tier-1 tiny sweep
/// (figure 3 at test scale, 4 processors — 6 cells), single-threaded so
/// kill/fault interleavings stay simple.
fn torture_spec() -> JobSpec {
    JobSpec {
        sweep_jobs: Some(1),
        timeout_secs: Some(60),
        ..JobSpec::sweep(
            3,
            vec!["--test-scale".into(), "--processors".into(), "4".into()],
        )
    }
}

/// Runs the reference sweep fault-free and in-process, capturing log
/// bytes, per-cell elapsed, and wall-clock per cell (for calibration).
fn build_reference(dir: &Path) -> io::Result<Reference> {
    std::fs::create_dir_all(dir)?;
    let spec = torture_spec();
    let machine = spec
        .machine_config()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let plan = SweepPlan::figure(3, &machine);
    let cells = plan.cells.len().max(1);
    let out = dir.join("sweep.json");
    let started = Instant::now();
    let opts = SweepOptions {
        jobs: Some(1),
        ..SweepOptions::default()
    };
    run_supervised_controlled(
        &plan,
        &dir.join("sweep.journal"),
        &out,
        false,
        &opts,
        &SweepControl::new(),
        |_, cell, _| run_cell_in_process(cell),
    )
    .map_err(|e| io::Error::other(format!("reference sweep failed: {e}")))?;
    let per_cell_ms = started.elapsed().as_millis() as u64 / cells as u64;
    let mut elapsed = HashMap::new();
    for cell in &plan.cells {
        let v = run_cell_in_process(cell)
            .map_err(|f| io::Error::other(format!("reference cell failed: {}", f.error)))?;
        elapsed.insert(work_fingerprint(cell.app, &cell.config), v);
    }
    Ok(Reference {
        sweep_json: std::fs::read_to_string(&out)?,
        elapsed,
        per_cell_ms,
    })
}

/// Runs the full torture campaign sequence. See the module docs for the
/// oracles; the returned report carries the shrunk reproducer if any
/// oracle tripped.
pub fn run_torture(opts: &TortureOptions) -> TortureReport {
    let mut campaign_no = 0u32;
    let reference = match build_reference(&opts.data_root.join("reference")) {
        Ok(r) => r,
        Err(e) => {
            return TortureReport {
                trials_run: 0,
                failure: None,
                skipped: Some(format!("reference sweep could not be built: {e}")),
            }
        }
    };
    if opts.calibration_budget_ms > 0 && reference.per_cell_ms > opts.calibration_budget_ms {
        return TortureReport {
            trials_run: 0,
            failure: None,
            skipped: Some(format!(
                "runner too slow for timing-bound oracles: {}ms/cell fault-free \
                 (budget {}ms) — skipping loudly rather than flaking",
                reference.per_cell_ms, opts.calibration_budget_ms
            )),
        };
    }

    let mut rng = Xorshift::new(opts.seed);
    for trial in 0..opts.trials {
        let schedule = random_schedule(&mut rng.fork());
        println!("torture trial #{trial}: {}", schedule.to_spec());
        campaign_no += 1;
        let verdict = run_campaign(
            &schedule,
            &opts.data_root.join(format!("campaign-{campaign_no}")),
            &reference,
        );
        let Err((oracle, error)) = verdict else {
            continue;
        };
        println!("torture trial #{trial}: {oracle} oracle tripped — {error}; shrinking");
        let last: std::cell::RefCell<(String, String)> =
            std::cell::RefCell::new((oracle.clone(), error.clone()));
        let (minimized, shrink_runs) = dashlat::chaos::shrink(
            schedule.clone(),
            schedule_candidates,
            |cand| {
                campaign_no += 1;
                let dir = opts.data_root.join(format!("campaign-{campaign_no}"));
                match run_campaign(cand, &dir, &reference) {
                    Ok(()) => false,
                    Err(found) => {
                        *last.borrow_mut() = found;
                        true
                    }
                }
            },
            opts.max_shrink_runs,
        );
        let (oracle, error) = last.into_inner();
        return TortureReport {
            trials_run: trial + 1,
            failure: Some(TortureFailure {
                trial,
                original: schedule,
                minimized,
                oracle,
                error,
                shrink_runs,
            }),
            skipped: None,
        };
    }
    TortureReport {
        trials_run: opts.trials,
        failure: None,
        skipped: None,
    }
}

/// Boots a daemon on `dir` and waits for its addr file. The previous
/// addr file is removed first so a stale address can't be read.
#[allow(clippy::type_complexity)]
fn boot(
    dir: &Path,
) -> io::Result<(
    Arc<Server>,
    std::thread::JoinHandle<io::Result<()>>,
    Option<String>,
)> {
    std::fs::remove_file(dir.join("addr")).ok();
    let server = Arc::new(Server::new(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.to_path_buf(),
        workers: 1,
        queue_depth: 4,
        job_timeout_secs: 60,
        isolate: true,
        cell_timeout_secs: 20,
        crash_loop_threshold: 8,
        max_connections: 32,
        conn_deadline_secs: 2,
        shed_retry_after_secs: 1,
    })?);
    let runner = Arc::clone(&server);
    let handle = std::thread::spawn(move || runner.run());
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(a) = client::read_addr_file(dir) {
            break Some(a);
        }
        if Instant::now() >= deadline || handle.is_finished() {
            // Under armed faults the daemon may die before publishing —
            // tolerated mid-campaign, judged in the final phase.
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    Ok((server, handle, addr))
}

/// Status of one job as the HTTP API reports it.
fn job_status(addr: &str, id: u64) -> Option<JobStatus> {
    let resp = client::request(addr, "GET", &format!("/jobs/{id}"), None).ok()?;
    if resp.status != 200 {
        return None;
    }
    Value::parse(&resp.body)
        .ok()?
        .get("status")?
        .as_str()?
        .parse()
        .ok()
}

/// Waits until every listed job is terminal (or the deadline passes).
fn await_terminal(addr: &str, ids: &[u64], deadline: Instant) -> bool {
    loop {
        let all_done = ids
            .iter()
            .all(|&id| job_status(addr, id).is_some_and(JobStatus::is_terminal));
        if all_done {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Runs one campaign under `schedule`, returning the first oracle
/// violation as `(oracle, error)`.
#[allow(clippy::too_many_lines)]
fn run_campaign(
    schedule: &ServeSchedule,
    dir: &Path,
    reference: &Reference,
) -> Result<(), (String, String)> {
    std::fs::create_dir_all(dir).map_err(|e| ("setup".to_owned(), format!("campaign dir: {e}")))?;
    let fail = |oracle: &str, error: String| (oracle.to_owned(), error);

    // Phase 1: boot clean, then arm the schedule. The addr file is
    // published before faults arm, so the harness can always find the
    // daemon initially.
    let (server, handle, addr) =
        boot(dir).map_err(|e| ("setup".to_owned(), format!("boot: {e}")))?;
    let Some(addr) = addr else {
        server.stop();
        let _ = handle.join();
        return Err(fail(
            "recovery",
            "daemon never published addr fault-free".into(),
        ));
    };
    if schedule.disk_active() {
        faultfs::arm(FaultFsPlan {
            seed: schedule.seed,
            eio_prob: schedule.disk_eio_prob,
            enospc_prob: 0.0,
            short_write_prob: schedule.disk_short_prob,
            fsync_prob: schedule.disk_fsync_prob,
            rename_prob: schedule.disk_eio_prob / 2.0,
            path_filter: Some(dir.to_string_lossy().into_owned()),
        });
    }
    if schedule.worker_kill_prob > 0.0 {
        arm_kills(KillPlan {
            seed: schedule.seed,
            kill_prob: schedule.worker_kill_prob,
            max_delay_ms: 200,
        });
    }

    // Phase 2: submit work. Only 202-acknowledged jobs enter the
    // job-loss oracle; shed or refused submissions are fair game.
    let spec = torture_spec().to_json();
    let mut acked: Vec<u64> = Vec::new();
    for _ in 0..3 {
        if let Ok(resp) = client::request(&addr, "POST", "/jobs", Some(&spec)) {
            if resp.status == 202 {
                if let Some(id) = Value::parse(&resp.body)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Value::as_u64))
                {
                    acked.push(id);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(30));
    }

    // Phase 3: flood with adversarial clients while the jobs run.
    let flood: Vec<_> = (0..schedule.flood_clients)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for round in 0..2 {
                    let mode = ChaosMode::ALL[(i as usize + round) % ChaosMode::ALL.len()];
                    let _ = chaosclient::run(&addr, mode);
                }
            })
        })
        .collect();

    // Phase 4: optionally the SIGTERM drill — graceful stop mid-run,
    // then an immediate restart with the faults still armed.
    let (server, handle) = if schedule.sigterm_restart {
        std::thread::sleep(Duration::from_millis(150));
        server.stop();
        let _ = handle.join();
        match boot(dir) {
            Ok((s, h, _)) => (s, h),
            Err(e) => {
                disarm_all();
                return Err(fail(
                    "recovery",
                    format!("mid-campaign restart failed: {e}"),
                ));
            }
        }
    } else {
        (server, handle)
    };

    // Let the daemon suffer for a bounded window (ending early once all
    // acked jobs are terminal), then collect the flood.
    await_terminal(&addr, &acked, Instant::now() + FAULT_WINDOW);
    for t in flood {
        let _ = t.join();
    }

    // Phase 5: disarm everything and restart fresh — the judged phase.
    disarm_all();
    server.stop();
    let _ = handle.join();
    let (server, handle, addr) = match boot(dir) {
        Ok((s, h, Some(addr))) => (s, h, addr),
        Ok((server, handle, None)) => {
            server.stop();
            let _ = handle.join();
            return Err(fail(
                "recovery",
                "recovered daemon never published addr".into(),
            ));
        }
        Err(e) => return Err(fail("recovery", format!("recovery boot failed: {e}"))),
    };
    let verdict = judge(&addr, &acked, dir, reference, schedule);
    server.stop();
    let _ = handle.join();
    verdict
}

fn disarm_all() {
    let _ = faultfs::disarm();
    let _ = disarm_kills();
}

/// The four oracles, applied to a recovered fault-free daemon.
fn judge(
    addr: &str,
    acked: &[u64],
    dir: &Path,
    reference: &Reference,
    schedule: &ServeSchedule,
) -> Result<(), (String, String)> {
    let fail = |oracle: &str, error: String| Err((oracle.to_owned(), error));

    // Recovery: the daemon answers and drains every recovered job.
    match client::request(addr, "GET", "/healthz", None) {
        Ok(r) if r.status == 200 => {}
        other => return fail("recovery", format!("healthz after recovery: {other:?}")),
    }
    if !await_terminal(addr, acked, Instant::now() + FINAL_DRAIN) {
        return fail(
            "recovery",
            format!("acked jobs not terminal within {FINAL_DRAIN:?} of fault-free recovery"),
        );
    }

    // Job-loss: every acknowledged job is still known, and on a
    // schedule with no kill/disk faults it must have completed.
    let benign = schedule.worker_kill_prob == 0.0 && !schedule.disk_active();
    for &id in acked {
        match job_status(addr, id) {
            None => return fail("job-loss", format!("acked job #{id} vanished")),
            Some(status) if !status.is_terminal() => {
                return fail("job-loss", format!("acked job #{id} stuck: {status:?}"))
            }
            Some(status) if benign && status != JobStatus::Complete => {
                return fail(
                    "job-loss",
                    format!("acked job #{id} ended {status:?} under a benign schedule"),
                )
            }
            Some(_) => {}
        }
    }

    // Log-integrity: any published sweep.json parses; a complete job's
    // log is byte-identical to the fault-free reference.
    for &id in acked {
        let log = dir.join("jobs").join(id.to_string()).join("sweep.json");
        let Ok(text) = std::fs::read_to_string(&log) else {
            if job_status(addr, id) == Some(JobStatus::Complete) {
                return fail("log-integrity", format!("complete job #{id} has no log"));
            }
            continue;
        };
        if Value::parse(&text).is_err() {
            return fail(
                "log-integrity",
                format!("job #{id} published a torn log ({} bytes)", text.len()),
            );
        }
        if job_status(addr, id) == Some(JobStatus::Complete) && text != reference.sweep_json {
            return fail(
                "log-integrity",
                format!("job #{id} log differs from the fault-free reference"),
            );
        }
    }

    // Cache: every entry parses and matches the reference elapsed.
    let cache_dir = dir.join("cache");
    if let Ok(rd) = std::fs::read_dir(&cache_dir) {
        for entry in rd.filter_map(Result::ok) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.starts_with("cell-") || name.contains(".tmp") {
                continue;
            }
            let text = std::fs::read_to_string(entry.path()).unwrap_or_default();
            let parsed = Value::parse(&text).ok().and_then(|v| {
                Some((
                    v.get("fingerprint").and_then(Value::as_u64)?,
                    v.get("elapsed").and_then(Value::as_u64)?,
                ))
            });
            let Some((fp, elapsed)) = parsed else {
                return fail(
                    "cache",
                    format!("cache entry {name} is torn ({} bytes)", text.len()),
                );
            };
            match reference.elapsed.get(&fp) {
                Some(&want) if want == elapsed => {}
                Some(&want) => {
                    return fail(
                        "cache",
                        format!("cache entry {name}: elapsed {elapsed}, reference {want}"),
                    )
                }
                None => return fail("cache", format!("cache entry {name}: unknown fingerprint")),
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_always_active() {
        let mut a = Xorshift::new(42);
        let mut b = Xorshift::new(42);
        for _ in 0..32 {
            let s1 = random_schedule(&mut a);
            let s2 = random_schedule(&mut b);
            assert_eq!(s1, s2);
            assert!(s1.active_classes() >= 1, "{}", s1.to_spec());
        }
    }

    #[test]
    fn candidates_drop_classes_before_magnitudes() {
        let full = ServeSchedule {
            seed: 99,
            worker_kill_prob: 0.6,
            disk_eio_prob: 0.2,
            disk_short_prob: 0.2,
            disk_fsync_prob: 0.2,
            flood_clients: 4,
            sigterm_restart: true,
        };
        let cands = schedule_candidates(&full);
        // Four class drops, one magnitude halving, one seed zeroing.
        assert_eq!(cands.len(), 6, "{cands:?}");
        assert_eq!(cands[0].worker_kill_prob, 0.0);
        assert!(!cands[1].disk_active());
        assert_eq!(cands[2].flood_clients, 0);
        assert!(!cands[3].sigterm_restart);
        assert_eq!(cands[4].worker_kill_prob, 0.3);
        assert_eq!(cands[5].seed, 0);
        // A single-class schedule never generates an all-quiet candidate.
        let single = ServeSchedule {
            seed: 0,
            worker_kill_prob: 0.0,
            disk_eio_prob: 0.08,
            disk_short_prob: 0.0,
            disk_fsync_prob: 0.0,
            flood_clients: 0,
            sigterm_restart: false,
        };
        for cand in schedule_candidates(&single) {
            assert!(
                cand.active_classes() >= 1 || !cand.disk_active(),
                "{}",
                cand.to_spec()
            );
        }
    }

    #[test]
    fn spec_rendering_names_every_class() {
        let s = ServeSchedule {
            seed: 7,
            worker_kill_prob: 0.5,
            disk_eio_prob: 0.1,
            disk_short_prob: 0.0,
            disk_fsync_prob: 0.0,
            flood_clients: 2,
            sigterm_restart: true,
        };
        assert_eq!(
            s.to_spec(),
            "seed=7,kill=0.5,eio=0.1,short=0,fsync=0,flood=2,restart=1"
        );
    }
}
