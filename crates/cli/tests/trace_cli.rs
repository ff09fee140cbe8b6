//! End-to-end checks of `dashlat trace`: a recording is a pure function
//! of the configuration, and the file it writes is one that `trace replay`
//! and `analyze --in` accept.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dashlat(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dashlat"))
        .args(args)
        .output()
        .expect("dashlat runs")
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dashlat-trace-cli-{}-{name}.trace",
        std::process::id()
    ))
}

#[test]
fn recording_is_deterministic_and_the_file_replays_and_analyzes() {
    let (first, second) = (scratch("first"), scratch("second"));
    for path in [&first, &second] {
        let out = dashlat(&[
            "trace",
            "record",
            "--app",
            "lu",
            "--test-scale",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
    }
    let bytes = std::fs::read(&first).expect("first recording written");
    assert!(!bytes.is_empty());
    assert!(
        bytes == std::fs::read(&second).expect("second recording written"),
        "two recordings of the same run differ"
    );

    let path = first.to_str().unwrap();
    let replay = dashlat(&["trace", "replay", "--in", path]);
    assert_eq!(replay.status.code(), Some(0), "{replay:?}");
    let analyze = dashlat(&["analyze", "--in", path]);
    assert_eq!(analyze.status.code(), Some(0), "{analyze:?}");

    for path in [first, second] {
        let _ = std::fs::remove_file(path);
    }
}
