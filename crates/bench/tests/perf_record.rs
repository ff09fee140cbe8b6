//! The `perf` record counts only work it simulated: each figure's cells,
//! simulation events and granted workers match what running the figure's
//! cells directly gives, and the record has no memo or calibration keys.

use std::process::Command;

use dashlat::apps::App;
use dashlat::experiments::figure_configs;
use dashlat::{matrix_jobs, parse_machine_args, runner};
use dashlat_sim::json::Value;

#[test]
fn perf_record_counts_every_cell_it_simulates() {
    let dir = std::env::temp_dir().join(format!("dashlat-perf-record-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = dir.join("perf.json");
    let run = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--test-scale", "--jobs", "2", "--figures", "2,4", "--out"])
        .arg(&out)
        .output()
        .expect("perf runs");
    assert!(run.status.success(), "{run:?}");
    let text = std::fs::read_to_string(&out).expect("perf wrote its record");
    std::fs::remove_dir_all(&dir).ok();
    // No memo keys: every cell counted was simulated. No calibration key:
    // a record describes its own host and is not rescaled to another.
    assert!(!text.contains("memo"), "{text}");
    assert!(!text.contains("calibration"), "{text}");
    let record = Value::parse(&text).expect("the record is JSON");

    let base = parse_machine_args(&mut vec!["--test-scale".to_owned()]).expect("flags parse");
    let figures = record
        .get("figures")
        .and_then(Value::as_arr)
        .expect("figures");
    assert_eq!(figures.len(), 2, "{text}");
    for (entry, figure) in figures.iter().zip([2u8, 4]) {
        let field = |key: &str| {
            entry
                .get(key)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("figure {figure} has no {key}: {text}"))
        };
        assert_eq!(field("figure"), u64::from(figure));
        let configs = figure_configs(figure, &base);
        assert_eq!(field("cells"), (App::ALL.len() * configs.len()) as u64);
        let sim_events: u64 = App::ALL
            .iter()
            .flat_map(|&app| configs.iter().map(move |config| runner::run(app, config)))
            .map(|e| e.expect("cell runs").result.sim_events)
            .sum();
        assert_eq!(field("sim_events"), sim_events, "figure {figure}");
        assert_eq!(
            field("jobs_effective"),
            matrix_jobs(&configs, Some(2)) as u64,
            "figure {figure}"
        );
    }
}
