//! `dashlat chaos --serve --data-dir DIR` never deletes what DIR already
//! holds: a non-empty directory is refused before anything runs.

use std::process::Command;

#[test]
fn non_empty_data_dir_is_refused_and_left_alone() {
    let dir = std::env::temp_dir().join(format!("dashlat-torture-keep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let keep = dir.join("keep.txt");
    std::fs::write(&keep, "mine").expect("write");
    // A 1 ms calibration budget makes any campaign that does start skip
    // quickly instead of running schedules.
    let out = Command::new(env!("CARGO_BIN_EXE_dashlat"))
        .args(["chaos", "--serve", "--trials", "1"])
        .args(["--calibration-budget-ms", "1", "--data-dir"])
        .arg(&dir)
        .output()
        .expect("dashlat runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let kept = std::fs::read_to_string(&keep);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stderr.contains(&*dir.to_string_lossy()), "{stderr}");
    assert_eq!(kept.ok().as_deref(), Some("mine"), "the file must survive");
}
