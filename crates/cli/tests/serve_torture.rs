//! End-to-end checks of `dashlat chaos --serve` through the real
//! binary: a clean torture campaign leaves all four service oracles
//! green, and arming the planted torn-publish bug
//! (`DASHLAT_FAULTFS=torn=1`) makes the cache oracle trip and the
//! shrinker reduce the failing schedule to the disk-fault class alone.
//!
//! Torture campaigns boot real daemons and burn tens of seconds of
//! wall clock, so both tests pass `--calibration-budget-ms`: on a
//! runner too slow (or too loaded) to finish a fault-free cell inside
//! the budget, the campaign skips loudly instead of flaking.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Mutex;

/// Two concurrent campaigns would double the daemon/flood load and
/// invalidate each other's calibration, so run them one at a time.
static TORTURE_LOCK: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dashlat-torture-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_torture(tag: &str, seed: u64, envs: &[(&str, &str)]) -> (Output, String, PathBuf) {
    let dir = scratch(tag);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dashlat"));
    cmd.args(["chaos", "--serve", "--trials", "2", "--seed"])
        .arg(seed.to_string())
        .args(["--calibration-budget-ms", "2000", "--data-dir"])
        .arg(&dir);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("dashlat runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out, stdout, dir)
}

/// True when the campaign bowed out at calibration; the oracle
/// assertions are meaningless on such a runner, so the caller passes.
fn skipped(stdout: &str) -> bool {
    if stdout.contains("torture skipped:") {
        eprintln!("runner too slow for torture — campaign skipped itself:\n{stdout}");
        return true;
    }
    false
}

/// A short fault-free-seeded campaign (the same seed the CI smoke job
/// uses) ends with every oracle green and exit 0, and cleans up its
/// campaign directory.
#[test]
fn clean_torture_campaign_is_green() {
    let _guard = TORTURE_LOCK.lock().unwrap();
    let (out, stdout, dir) = run_torture("clean", 7, &[]);
    if skipped(&stdout) {
        return;
    }
    assert!(
        out.status.success(),
        "clean campaign must exit 0: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("all four oracles green"),
        "expected green verdict: {stdout}"
    );
    assert!(
        !dir.exists(),
        "green campaign should remove its data root {}",
        dir.display()
    );
}

/// With the planted torn-publish bug armed, the cache oracle catches a
/// zero-length/truncated cache entry, the run exits with the chaos
/// exit code (8), and the delta-debugged schedule keeps a disk-fault
/// class while dropping worker kills and client floods.
#[test]
fn planted_torn_publish_bug_is_caught_and_shrunk() {
    let _guard = TORTURE_LOCK.lock().unwrap();
    // Whether an injected disk fault lands mid-publish depends on the
    // event interleaving, which the unoptimized profile shifts past the
    // surveyed seeds; the CI smoke job runs this under --release.
    if cfg!(debug_assertions) {
        eprintln!("skipping planted-bug torture: seeds are surveyed for release builds");
        return;
    }
    // Seed 4 trips the bug on trial #0; the later seeds also trip and
    // cover runners whose load shifts the interleaving slightly.
    let mut caught = None;
    for seed in [4, 3] {
        let (out, stdout, dir) = run_torture("bug", seed, &[("DASHLAT_FAULTFS", "torn=1")]);
        if skipped(&stdout) {
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
        if out.status.code() == Some(8) {
            caught = Some((stdout, dir));
            break;
        }
        eprintln!("seed {seed} did not trip the planted bug on this runner:\n{stdout}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (stdout, dir) = caught.expect("no surveyed seed tripped the planted torn-publish bug");
    assert!(
        stdout.contains("cache oracle tripped"),
        "expected the cache oracle to catch the torn publish: {stdout}"
    );
    let minimized = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("minimized schedule: "))
        .unwrap_or_else(|| panic!("no minimized schedule in output: {stdout}"));
    // The bug lives on the disk-fault path, so shrinking must keep a
    // disk class and discard the classes that are irrelevant to it.
    assert!(
        minimized.contains("kill=0,") && minimized.contains("flood=0,"),
        "kills and floods are irrelevant to the torn publish: {minimized}"
    );
    assert!(
        !minimized.contains("eio=0,") || !minimized.contains("short=0,"),
        "a disk fault class must survive shrinking: {minimized}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
