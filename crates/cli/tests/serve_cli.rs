//! End-to-end checks of the `dashlat serve` daemon through the real
//! binary: admission control sheds load with 429 when the queue is
//! full, SIGTERM is a graceful exit 0, and a daemon killed at a
//! deterministic journal crash point (the in-process stand-in for
//! `kill -9`) restarts, auto-resumes the interrupted job, publishes a
//! `SweepLog` byte-identical to an uninterrupted run's, and serves
//! every shared cell from the result cache instead of re-simulating.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use dashlat_serve::client;
use dashlat_sim::json::Value;

/// Machine flags shared by every sweep here: small enough that a full
/// figure-3 sweep (6 cells) finishes in seconds, deterministic so every
/// run publishes identical bytes.
const MACHINE: [&str; 3] = ["--test-scale", "--processors", "4"];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dashlat-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

fn dashlat(args: &[String]) -> Output {
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    Command::new(env!("CARGO_BIN_EXE_dashlat"))
        .args(&argrefs)
        .output()
        .expect("dashlat runs")
}

fn spawn_daemon(data_dir: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dashlat"));
    cmd.arg("serve")
        .args(["--addr", "127.0.0.1:0", "--data-dir"])
        .arg(data_dir)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn().expect("daemon spawns")
}

/// Waits until the daemon has published its address *and* answers
/// `/healthz` on it — re-reading the file each attempt, because after a
/// restart the file briefly holds the previous instance's port.
fn wait_ready(data_dir: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(addr) = client::read_addr_file(data_dir) {
            if let Ok(resp) = client::request(&addr, "GET", "/healthz", None) {
                if resp.status == 200 {
                    return addr;
                }
            }
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn job_status(addr: &str, id: u64) -> String {
    client::request(addr, "GET", &format!("/jobs/{id}"), None)
        .map(|r| r.body)
        .unwrap_or_default()
}

/// Waits for job `id` to end and returns its status document.
fn wait_terminal(addr: &str, id: u64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(300);
    client::wait_terminal(addr, id, Some(deadline))
        .unwrap_or_else(|e| panic!("job {id} never ended: {e}"))
}

fn wait_complete(addr: &str, id: u64) -> Value {
    let job = wait_terminal(addr, id);
    assert_eq!(status(&job), "complete", "job {id} ended badly: {job:?}");
    job
}

fn status(job: &Value) -> &str {
    job.get("status").and_then(Value::as_str).unwrap_or("?")
}

fn count(job: &Value, key: &str) -> Option<u64> {
    job.get(key).and_then(Value::as_u64)
}

fn submit_args(data_dir: &Path, extra: &[&str]) -> Vec<String> {
    let mut args = vec![
        "submit".to_owned(),
        "--data-dir".to_owned(),
        data_dir.display().to_string(),
    ];
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    args
}

/// A full admission queue sheds submissions with `429` + `Retry-After`
/// while `/readyz` reports not-ready, and SIGTERM is a graceful exit 0.
#[test]
fn queue_full_sheds_with_429_and_sigterm_exits_zero() {
    let data = scratch("shed");
    let mut daemon = spawn_daemon(&data, &["--workers", "1", "--queue-depth", "1"], &[]);
    let addr = wait_ready(&data);

    // Occupy the single worker with a chaos campaign (one indivisible
    // unit, several seconds of work), then fill the queue of one.
    let body = "{\"kind\":\"chaos\",\"app\":\"lu\",\"trials\":40,\"seed\":1,\
                \"machine\":[\"--test-scale\"]}";
    let a = client::request(&addr, "POST", "/jobs", Some(body)).expect("submit A");
    assert_eq!(a.status, 202, "{a:?}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !job_status(&addr, 1).contains("\"status\":\"running\"") {
        assert!(Instant::now() < deadline, "job 1 never started running");
        std::thread::sleep(Duration::from_millis(10));
    }
    let b = client::request(&addr, "POST", "/jobs", Some(body)).expect("submit B");
    assert_eq!(b.status, 202, "{b:?}");

    // The queue (depth 1) now holds B: the next submission is shed.
    let c = client::request(&addr, "POST", "/jobs", Some(body)).expect("submit C");
    assert_eq!(c.status, 429, "expected load shedding: {c:?}");
    assert_eq!(c.header("retry-after"), Some("2"), "{c:?}");
    let ready = client::request(&addr, "GET", "/readyz", None).expect("readyz");
    assert_eq!(ready.status, 503, "full queue must report not-ready");

    // The submit CLI surfaces the shed as the service exit code (10).
    let out = dashlat(&submit_args(
        &data,
        &["chaos", "--app", "lu", "--trials", "40", "--test-scale"],
    ));
    assert_eq!(out.status.code(), Some(10), "{out:?}");

    // SIGTERM: graceful drain, exit 0.
    let kill = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = daemon.wait().expect("daemon reaped");
    assert_eq!(status.code(), Some(0), "SIGTERM must be a graceful exit 0");
}

/// The crash-recovery pipeline end to end: two overlapping sweep jobs,
/// the daemon dies at a deterministic journal crash point mid-job-2
/// (abort = in-process `kill -9`), the restarted daemon auto-resumes it,
/// the resumed `SweepLog` is byte-identical to both job 1's and a plain
/// `dashlat sweep` run's, and the shared cells were simulated (and
/// cached) exactly once — job 2 never runs a simulation at all.
#[test]
fn crash_mid_job_restart_resumes_to_identical_bytes_with_cache() {
    let dir = scratch("crash");
    let data = dir.join("data");

    // Job 1 sweeps the whole matrix: 1 header + 6 cell appends. Job 2's
    // first committed cell is process-wide append #9 — crash there.
    let mut daemon = spawn_daemon(
        &data,
        &["--workers", "1", "--queue-depth", "8"],
        &[("DASHLAT_FAULTFS", "crash=appends:9")],
    );
    wait_ready(&data);
    let mut sweep_submit = vec!["--sweep-jobs", "1", "sweep", "3"];
    sweep_submit.extend(MACHINE);
    let a = dashlat(&submit_args(&data, &sweep_submit));
    assert_eq!(a.status.code(), Some(0), "{a:?}");
    // Submitted while job 1 is still sweeping: the two jobs overlap.
    let b = dashlat(&submit_args(&data, &sweep_submit));
    assert_eq!(b.status.code(), Some(0), "{b:?}");

    // The crash point aborts the daemon (SIGABRT, no cleanup).
    let status = daemon.wait().expect("daemon reaped");
    assert!(!status.success(), "daemon must die at the crash point");
    // Job 1 finished and published; job 2 left a one-cell journal and
    // no published log — the journal is its checkpoint.
    assert!(data.join("jobs/1/sweep.json").exists());
    assert!(data.join("jobs/2/sweep.journal").exists());
    assert!(!data.join("jobs/2/sweep.json").exists());

    // Restart clean: recovery restores job 1 as terminal and
    // re-enqueues job 2, which resumes without being resubmitted.
    let mut daemon = spawn_daemon(&data, &["--workers", "1", "--queue-depth", "8"], &[]);
    let addr = wait_ready(&data);
    let s1 = wait_complete(&addr, 1);
    let s2 = wait_complete(&addr, 2);

    // Job 1 simulated everything; job 2 simulated nothing: one cell
    // replayed from its journal, the other five served from the cache.
    assert_eq!(count(&s1, "cache_hits"), Some(0), "{s1:?}");
    assert_eq!(count(&s1, "executed"), Some(6), "{s1:?}");
    assert_eq!(count(&s2, "replayed"), Some(1), "{s2:?}");
    assert_eq!(count(&s2, "cache_hits"), Some(5), "{s2:?}");
    assert_eq!(count(&s2, "executed"), Some(5), "{s2:?}");

    // Byte-identical logs: resumed-under-crash == uninterrupted == the
    // plain CLI supervisor on the same machine flags.
    let log1 = std::fs::read(data.join("jobs/1/sweep.json")).expect("log 1");
    let log2 = std::fs::read(data.join("jobs/2/sweep.json")).expect("log 2");
    assert_eq!(log1, log2, "resumed log differs from uninterrupted log");
    let refdir = dir.join("reference");
    std::fs::create_dir_all(&refdir).expect("mkdir reference");
    let mut sweep_cli = vec!["sweep".to_owned(), "3".to_owned()];
    sweep_cli.extend(MACHINE.iter().map(|s| (*s).to_owned()));
    sweep_cli.push("--journal".to_owned());
    sweep_cli.push(refdir.join("f3.journal").display().to_string());
    sweep_cli.push("--out".to_owned());
    sweep_cli.push(refdir.join("f3.json").display().to_string());
    let out = dashlat(&sweep_cli);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let reference = std::fs::read(refdir.join("f3.json")).expect("reference log");
    assert_eq!(log1, reference, "service log differs from CLI sweep log");

    // Every distinct cell fingerprint was cached exactly once.
    let cache_entries = std::fs::read_dir(data.join("cache"))
        .expect("cache dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("cell-"))
        .count();
    assert_eq!(cache_entries, 6, "each shared cell cached exactly once");

    // The status CLI sees both jobs through the addr file.
    let out = dashlat(&[
        "status".to_owned(),
        "--data-dir".to_owned(),
        data.display().to_string(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("job #1"), "{stdout}");
    assert!(stdout.contains("job #2"), "{stdout}");

    // POST /shutdown is the API twin of SIGTERM: graceful exit 0.
    let resp = client::request(&addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    let status = daemon.wait().expect("daemon reaped");
    assert_eq!(status.code(), Some(0));
}

/// The crash-loop circuit breaker end to end: with the kill class at
/// probability 1 every isolated cell worker is SIGKILLed, two crashes in
/// a row open the breaker, every later cell fails on its first attempt
/// with the breaker's permanent error, and the job ends `failed`.
#[test]
fn crash_loop_breaker_fails_the_remaining_cells_fast() {
    let data = scratch("breaker");
    let mut daemon = spawn_daemon(
        &data,
        &["--isolate", "--crash-loop-threshold", "2"],
        &[("DASHLAT_FAULTFS", "kill=1")],
    );
    let addr = wait_ready(&data);
    let mut sweep_submit = vec!["--sweep-jobs", "1", "sweep", "3"];
    sweep_submit.extend(MACHINE);
    let out = dashlat(&submit_args(&data, &sweep_submit));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let job = wait_terminal(&addr, 1);
    assert_eq!(status(&job), "failed", "{job:?}");

    // Cell 0 crashed twice (opening the breaker), then hit it.
    let journal = std::fs::read_to_string(data.join("jobs/1/sweep.journal")).expect("journal");
    let cells: Vec<&str> = journal
        .lines()
        .filter(|l| l.contains("\"kind\":\"cell\""))
        .collect();
    assert_eq!(cells.len(), 6, "{journal}");
    for cell in &cells[1..] {
        assert!(
            cell.contains("\"attempts\":1,")
                && cell.contains("crash-loop circuit breaker open")
                && cell.contains("\"class\":\"permanent\""),
            "{cell}"
        );
    }
    let health = client::request(&addr, "GET", "/healthz", None).expect("healthz");
    assert!(
        health.body.contains("\"breaker_trips\":1"),
        "{}",
        health.body
    );
    daemon.kill().expect("daemon killed");
    daemon.wait().expect("daemon reaped");
}
