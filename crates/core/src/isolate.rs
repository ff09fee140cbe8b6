//! Subprocess isolation for supervised sweep cells.
//!
//! `dashlat sweep --isolate` — and, since the service-hardening work,
//! `dashlat serve --isolate` — run every cell as `dashlat cell --app …
//! <machine flags>` in a child process, so a cell that aborts, is killed,
//! or wedges past its wall-clock deadline takes down only itself. The
//! child prints exactly one JSON record on its last stdout line
//! (`{"ok":N}` or `{"err":{…}}`); everything else about the outcome is
//! derived from that line plus the exit status.
//!
//! Each spawned cell draws once from the armed host-fault plan
//! ([`dashlat_sim::faultfs::draw_kill`]) and, if selected, is SIGKILLed
//! after a seeded delay: the torture harness's worker-kill class. The
//! parent sees an ordinary signal death and applies its normal
//! transient-retry policy.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::sweep::{CellFailure, FailureClass, SweepCell};
use dashlat_sim::faultfs;
use dashlat_sim::json::Value;

/// How often the supervisor polls a running cell.
const POLL: Duration = Duration::from_millis(20);

/// Environment variable overriding the binary used to spawn cell
/// subprocesses. By default the current executable is re-invoked (it is
/// the `dashlat` binary when running `dashlat sweep`/`serve`/`chaos`);
/// tests and drivers hosted in other binaries point this at a built
/// `dashlat`.
pub const CELL_BIN_ENV: &str = "DASHLAT_CELL_BIN";

/// True when `failure` describes the *worker* dying (timeout, signal,
/// spawn failure, crash before reporting) rather than the simulation
/// inside it failing. The serve daemon's crash-loop circuit breaker
/// counts only these: a cell that runs to completion and reports a
/// deadlock is a result, not a crash.
pub fn is_worker_crash(failure: &CellFailure) -> bool {
    let e = failure.error.as_str();
    e.contains("wall-clock timeout")
        || e.contains("killed by a signal")
        || e.contains("without an ok record")
        || e.contains("without a record")
        || e.contains("cannot spawn cell subprocess")
        || e.contains("cannot locate the dashlat binary")
}

/// Runs one cell in a child `dashlat cell` process with a wall-clock
/// deadline. Timeouts and signal kills are transient (the machine may
/// just be overloaded — and fault-heavy schedules legitimately run
/// long); a child that exits nonzero *with* a record reports that
/// record's classification; a child that dies without a record is a
/// permanent failure (it crashed before the runner could even classify).
pub fn run_cell_subprocess(cell: &SweepCell, timeout: Duration) -> Result<u64, CellFailure> {
    let exe = match std::env::var(CELL_BIN_ENV) {
        Ok(bin) => std::path::PathBuf::from(bin),
        Err(_) => std::env::current_exe().map_err(|e| {
            CellFailure::transient(format!("cannot locate the dashlat binary: {e}"))
        })?,
    };
    let mut cmd = Command::new(exe);
    cmd.arg("cell")
        .arg("--app")
        .arg(cell.app.name().to_ascii_lowercase())
        .args(cell.config.to_cli_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd
        .spawn()
        .map_err(|e| CellFailure::transient(format!("cannot spawn cell subprocess: {e}")))?;
    let kill_after = faultfs::draw_kill();

    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if kill_after.is_some_and(|delay| start.elapsed() >= delay) {
                    // Injected worker kill: a real SIGKILL, so the child
                    // dies exactly like an OOM-killed worker and the
                    // normal signal-death path below runs.
                    let _ = child.kill();
                }
                if start.elapsed() >= timeout {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(CellFailure::transient(format!(
                        "cell exceeded its {}s wall-clock timeout and was killed",
                        timeout.as_secs()
                    )));
                }
                std::thread::sleep(POLL);
            }
            Err(e) => {
                return Err(CellFailure::transient(format!(
                    "waiting for cell subprocess: {e}"
                )))
            }
        }
    };

    // One short record line fits far inside the pipe buffer, so reading
    // after exit cannot deadlock.
    let mut stdout = String::new();
    if let Some(mut s) = child.stdout.take() {
        let _ = s.read_to_string(&mut stdout);
    }
    let record = stdout.lines().rev().find(|l| !l.trim().is_empty());

    if status.success() {
        return record
            .and_then(parse_ok)
            .ok_or_else(|| CellFailure::transient("cell exited 0 without an ok record"));
    }
    if let Some(failure) = record.and_then(parse_err) {
        return Err(failure);
    }
    match status.code() {
        // No exit code means a signal (SIGKILL from the OOM killer, a
        // stray SIGTERM, or an injected worker kill): re-runnable, same
        // policy as a timeout.
        None => Err(CellFailure::transient(format!(
            "cell was killed by a signal ({status})"
        ))),
        Some(code) => Err(CellFailure {
            error: format!("cell exited {code} without a record (crashed before reporting)"),
            code: 1,
            class: FailureClass::Permanent,
        }),
    }
}

fn parse_ok(line: &str) -> Option<u64> {
    Value::parse(line).ok()?.get("ok")?.as_u64()
}

fn parse_err(line: &str) -> Option<CellFailure> {
    let v = Value::parse(line).ok()?;
    let err = v.get("err")?;
    Some(CellFailure {
        error: err.get("error")?.as_str()?.to_owned(),
        code: err.get("code")?.as_u64()? as u8,
        class: err.get("class")?.as_str()?.parse().ok()?,
    })
}

/// Renders the record line `dashlat cell` prints — kept next to the
/// parsers above so the two sides of the pipe stay in sync.
pub fn render_record(outcome: &Result<u64, CellFailure>) -> String {
    match outcome {
        Ok(elapsed) => format!("{{\"ok\":{elapsed}}}"),
        Err(f) => format!(
            "{{\"err\":{{\"error\":{},\"code\":{},\"class\":{}}}}}",
            dashlat_sim::json::quote(&f.error),
            f.code,
            dashlat_sim::json::quote(&f.class.to_string())
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lines_round_trip() {
        assert_eq!(parse_ok(&render_record(&Ok(42))), Some(42));
        let f = CellFailure {
            error: "invariant \"x\"\nbroken".into(),
            code: 4,
            class: FailureClass::Permanent,
        };
        let rendered = render_record(&Err(f.clone()));
        assert!(!rendered.contains('\n'), "record must be one line");
        assert_eq!(parse_err(&rendered), Some(f));
        assert_eq!(parse_ok("garbage"), None);
        assert_eq!(parse_err("{\"ok\":1}"), None);
    }

    #[test]
    fn worker_crash_classification() {
        let crash = |msg: &str| is_worker_crash(&CellFailure::transient(msg.to_string()));
        assert!(crash(
            "cell exceeded its 5s wall-clock timeout and was killed"
        ));
        assert!(crash("cell was killed by a signal (signal: 9 (SIGKILL))"));
        assert!(crash(
            "cell exited 134 without a record (crashed before reporting)"
        ));
        assert!(crash("cannot spawn cell subprocess: No such file"));
        assert!(!crash("deadlock: all processors stalled at cycle 1810"));
    }
}
