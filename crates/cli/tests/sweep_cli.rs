//! End-to-end crash-and-resume checks of `dashlat sweep`, driven through
//! the real binary: a supervisor killed with SIGKILL (or aborted at a
//! deterministic journal crash point) and resumed must publish a
//! `SweepLog` byte-identical to an uninterrupted run's, the atomic
//! output write must never leave a partial file behind, mismatched
//! journals must be refused, and the chaos/repro commands must honour
//! their documented exit codes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Machine flags shared by every sweep in this file — small enough that
/// a full figure-3 sweep (6 cells) finishes in seconds, deterministic so
/// every run publishes identical bytes.
const MACHINE: [&str; 3] = ["--test-scale", "--processors", "4"];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dashlat-sweep-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

fn dashlat(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dashlat"))
        .args(args)
        .output()
        .expect("dashlat runs")
}

fn sweep_args(dir: &Path, extra: &[&str]) -> Vec<String> {
    let mut args = vec!["sweep".to_owned(), "3".to_owned()];
    args.extend(MACHINE.iter().map(|s| (*s).to_owned()));
    args.push("--journal".to_owned());
    args.push(dir.join("f3.journal").display().to_string());
    args.push("--out".to_owned());
    args.push(dir.join("f3.json").display().to_string());
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    args
}

/// The uninterrupted reference log, computed once per test process.
fn reference_log() -> &'static Vec<u8> {
    static REFERENCE: OnceLock<Vec<u8>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dir = scratch("reference");
        let args = sweep_args(&dir, &[]);
        let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = dashlat(&argrefs);
        assert_eq!(out.status.code(), Some(0), "reference sweep: {out:?}");
        std::fs::read(dir.join("f3.json")).expect("reference log exists")
    })
}

fn count_cell_records(journal: &Path) -> usize {
    std::fs::read_to_string(journal).map_or(0, |t| {
        t.lines()
            .filter(|l| l.contains("\"kind\":\"cell\""))
            .count()
    })
}

/// SIGKILL the supervisor after at least one cell committed, then
/// `--resume` serially: the published log is byte-identical to the
/// uninterrupted run's, and the summary accounts for the replayed cells.
#[test]
fn sigkill_then_resume_serial_is_bit_identical() {
    let dir = scratch("sigkill");
    let args = sweep_args(&dir, &[]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dashlat"))
        .args(&args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("sweep spawns");

    // Wait for the journal to commit at least one cell, then kill -9.
    // If the sweep wins the race and finishes first, the resume below
    // degenerates to an all-replay run — still a valid case.
    let journal = dir.join("f3.journal");
    let deadline = Instant::now() + Duration::from_secs(60);
    while count_cell_records(&journal) < 1 && Instant::now() < deadline {
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("kill -9");
    child.wait().expect("reap");
    assert!(
        count_cell_records(&journal) >= 1,
        "journal never committed a cell"
    );

    let resume = sweep_args(&dir, &["--resume"]);
    let argrefs: Vec<&str> = resume.iter().map(String::as_str).collect();
    let out = dashlat(&argrefs);
    assert_eq!(out.status.code(), Some(0), "resume: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replayed from journal"), "{stdout}");
    let resumed = std::fs::read(dir.join("f3.json")).expect("resumed log");
    assert_eq!(
        &resumed,
        reference_log(),
        "resumed log diverged from the uninterrupted run"
    );
}

/// Abort at the deterministic crash point after exactly 3 journal
/// appends (header + 2 cells), then `--resume --jobs 2`: the parallel
/// resume replays exactly those 2 cells and still publishes identical
/// bytes.
#[test]
fn deterministic_crash_then_parallel_resume_is_bit_identical() {
    let dir = scratch("crashpoint");
    let args = sweep_args(&dir, &[]);
    let out = Command::new(env!("CARGO_BIN_EXE_dashlat"))
        .args(&args)
        .env("DASHLAT_FAULTFS", "crash=appends:3")
        .output()
        .expect("sweep runs");
    assert_ne!(
        out.status.code(),
        Some(0),
        "crash point must abort: {out:?}"
    );
    assert_eq!(count_cell_records(&dir.join("f3.journal")), 2);
    assert!(!dir.join("f3.json").exists(), "no output before the crash");

    let resume = sweep_args(&dir, &["--resume", "--jobs", "2"]);
    let argrefs: Vec<&str> = resume.iter().map(String::as_str).collect();
    let out = dashlat(&argrefs);
    assert_eq!(out.status.code(), Some(0), "resume: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 replayed from journal"), "{stdout}");
    let resumed = std::fs::read(dir.join("f3.json")).expect("resumed log");
    assert_eq!(
        &resumed,
        reference_log(),
        "parallel resume diverged from the uninterrupted run"
    );
}

/// Abort *after the output temp file is written but before the rename*:
/// the destination must not exist at all (no torn halves), the journal
/// holds every cell, and a plain resume replays everything without
/// re-running a single simulation.
#[test]
fn crash_before_rename_leaves_no_partial_output() {
    let dir = scratch("rename");
    let args = sweep_args(&dir, &[]);
    let out = Command::new(env!("CARGO_BIN_EXE_dashlat"))
        .args(&args)
        .env("DASHLAT_FAULTFS", "crash=temp-write")
        .output()
        .expect("sweep runs");
    assert_ne!(
        out.status.code(),
        Some(0),
        "crash point must abort: {out:?}"
    );
    assert!(
        !dir.join("f3.json").exists(),
        "atomic write must not expose a partial output file"
    );
    assert_eq!(count_cell_records(&dir.join("f3.journal")), 6);

    let resume = sweep_args(&dir, &["--resume"]);
    let argrefs: Vec<&str> = resume.iter().map(String::as_str).collect();
    let out = dashlat(&argrefs);
    assert_eq!(out.status.code(), Some(0), "resume: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("6 replayed from journal, 0 executed"),
        "{stdout}"
    );
    let resumed = std::fs::read(dir.join("f3.json")).expect("resumed log");
    assert_eq!(&resumed, reference_log());
}

/// Abort *after the rename and the directory fsync*: the publication is
/// complete, so the output must be findable under its final name with
/// the full contents — this is the durability the parent-directory fsync
/// buys (without it, a power loss here could forget the rename).
#[test]
fn crash_after_rename_leaves_a_durable_published_output() {
    let dir = scratch("postrename");
    let args = sweep_args(&dir, &[]);
    let out = Command::new(env!("CARGO_BIN_EXE_dashlat"))
        .args(&args)
        .env("DASHLAT_FAULTFS", "crash=rename")
        .output()
        .expect("sweep runs");
    assert_ne!(
        out.status.code(),
        Some(0),
        "crash point must abort: {out:?}"
    );
    // The simulated crash landed after the commit: the file must be
    // there, complete, and byte-identical to an uninterrupted run.
    let published = std::fs::read(dir.join("f3.json"))
        .expect("published output must survive a crash after the rename");
    assert_eq!(&published, reference_log());
    assert_eq!(count_cell_records(&dir.join("f3.journal")), 6);
}

/// A malformed `DASHLAT_FAULTFS` is refused at startup with exit 1
/// naming the bad key, before the sweep creates its journal — so the
/// same command without the variable then runs clean.
#[test]
fn malformed_fault_spec_exits_1_before_touching_files() {
    let dir = scratch("badspec");
    let args = sweep_args(&dir, &[]);
    let out = Command::new(env!("CARGO_BIN_EXE_dashlat"))
        .args(&args)
        .env("DASHLAT_FAULTFS", "bogus=1")
        .output()
        .expect("sweep runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`bogus`"), "{stderr}");
    assert!(
        !dir.join("f3.journal").exists(),
        "no journal before the check"
    );

    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = dashlat(&argrefs);
    assert_eq!(
        out.status.code(),
        Some(0),
        "rerun without the spec: {out:?}"
    );
}

/// A journal written under one configuration is refused under another
/// (fingerprint guard), and an existing journal without `--resume` is
/// refused outright.
#[test]
fn mismatched_or_unacknowledged_journals_are_refused() {
    let dir = scratch("mismatch");
    let args = sweep_args(&dir, &[]);
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    assert_eq!(dashlat(&argrefs).status.code(), Some(0));

    // Same journal, different machine: the fingerprint catches it.
    let mut other = vec![
        "sweep".to_owned(),
        "3".to_owned(),
        "--test-scale".to_owned(),
        "--processors".to_owned(),
        "8".to_owned(),
        "--resume".to_owned(),
    ];
    other.push("--journal".to_owned());
    other.push(dir.join("f3.journal").display().to_string());
    other.push("--out".to_owned());
    other.push(dir.join("other.json").display().to_string());
    let argrefs: Vec<&str> = other.iter().map(String::as_str).collect();
    let out = dashlat(&argrefs);
    assert_ne!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fingerprint"), "{stderr}");

    // Same plan again, but without --resume: refuse, name the remedy.
    let args = sweep_args(&dir, &[]);
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = dashlat(&argrefs);
    assert_ne!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--resume"), "{stderr}");
}

/// On a clean (unmutated) build, a short fixed-seed chaos campaign finds
/// nothing and exits 0 — the CI smoke contract.
#[test]
fn chaos_smoke_on_a_clean_build_exits_zero() {
    let dir = scratch("chaos-smoke");
    let out = dashlat(&[
        "chaos",
        "--test-scale",
        "--processors",
        "4",
        "--trials",
        "2",
        "--seed",
        "7",
        "--bundle-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no failing schedule found"), "{stdout}");
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a clean campaign writes no bundles"
    );
}

/// A bundle whose expectation cannot reproduce (it expects an invariant
/// violation from a configuration that passes) exits 9 and says why.
#[test]
fn repro_divergence_exits_9() {
    let dir = scratch("divergence");
    let bundle = dir.join("bogus.json");
    std::fs::write(
        &bundle,
        "{\n  \"kind\": \"dashlat-repro\",\n  \"version\": 1,\n  \"app\": \"lu\",\n  \
         \"machine_args\": [\"--test-scale\", \"--processors\", \"4\"],\n  \
         \"expect\": {\"code\": 4, \"error\": \"made-up invariant violation\"},\n  \
         \"origin\": \"hand-written test bundle\"\n}\n",
    )
    .expect("bundle written");
    let out = dashlat(&["repro", bundle.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("expects exit 4"), "{stderr}");
}

/// The `cell` subcommand (the `--isolate` child half) prints its record
/// as the last stdout line, parsable by the supervisor.
#[test]
fn cell_subcommand_prints_a_parsable_record() {
    let out = dashlat(&["cell", "--app", "lu", "--test-scale", "--processors", "4"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap();
    assert!(
        last.starts_with("{\"ok\":") && last.ends_with('}'),
        "record line: {last}"
    );

    // An isolated sweep actually drives that protocol end to end.
    let dir = scratch("isolate");
    let args = sweep_args(&dir, &["--isolate", "--timeout-secs", "120"]);
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = dashlat(&argrefs);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let isolated = std::fs::read(dir.join("f3.json")).expect("isolated log");
    assert_eq!(
        &isolated,
        reference_log(),
        "isolated cells must measure identically to in-process cells"
    );
}
