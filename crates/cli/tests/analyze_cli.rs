//! End-to-end checks of `dashlat analyze`: the race-detected exit code
//! and the report's contents, driven through the real binary.

use std::process::Command;

const RACY_TRACE: &str = "procs 2\n\
                          lock 0x1000\n\
                          0 A 0\n\
                          0 W 0x40\n\
                          0 L 0\n\
                          0 D\n\
                          1 W 0x40\n\
                          1 D\n";

const CLEAN_TRACE: &str = "procs 2\n\
                           lock 0x1000\n\
                           0 A 0\n\
                           0 W 0x40\n\
                           0 L 0\n\
                           0 D\n\
                           1 A 0\n\
                           1 W 0x40\n\
                           1 L 0\n\
                           1 D\n";

fn write_trace(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("dashlat-analyze-cli-{name}.trace"));
    std::fs::write(&path, text).expect("trace written");
    path
}

fn dashlat(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dashlat"))
        .args(args)
        .output()
        .expect("dashlat runs")
}

#[test]
fn racy_trace_exits_with_code_6_and_names_the_race() {
    let path = write_trace("racy", RACY_TRACE);
    let out = dashlat(&["analyze", "--in", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NOT properly labeled"), "{stdout}");
    assert!(stdout.contains("P0"), "{stdout}");
    assert!(stdout.contains("P1"), "{stdout}");
    assert!(stdout.contains("line#"), "{stdout}");
    assert!(stdout.contains("missing lock 0"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("race-freedom certification"), "{stderr}");
}

#[test]
fn clean_trace_certifies_and_exits_zero() {
    let path = write_trace("clean", CLEAN_TRACE);
    let out = dashlat(&["analyze", "--in", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PROPERLY LABELED"), "{stdout}");
}
