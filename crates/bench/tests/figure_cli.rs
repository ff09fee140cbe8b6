//! The figure binaries read `dashlat figure`'s machine flags through the
//! same parser: every flag changes the figure exactly as it changes
//! `dashlat::experiments::figure(2, ..)`, and an unknown flag is an error.

use std::process::{Command, Output};

fn figure2(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figure2"))
        .args(args)
        .output()
        .expect("figure2 runs")
}

#[test]
fn unknown_flags_are_rejected() {
    let out = figure2(&["--test-scale", "--processors", "4", "--bogus"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
}

#[test]
fn every_machine_flag_reaches_the_figure() {
    let machine = ["--test-scale", "--processors", "4", "--no-contention"];
    let out = figure2(&[&machine[..], &["--csv"]].concat());
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    // A two-line preamble (header, blank), then the CSV.
    let csv = stdout.splitn(3, '\n').nth(2).expect("preamble and CSV");
    let mut argv = machine.map(String::from).to_vec();
    let config = dashlat::parse_machine_args(&mut argv).expect("machine flags parse");
    assert!(!config.contention);
    assert_eq!(
        csv,
        dashlat::experiments::figure(2, &config).figure.to_csv()
    );
}
