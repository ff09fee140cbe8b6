//! CI bench-gate: fails the build on a >10% events/sec regression.
//!
//! The committed baseline (`BENCH_8.json`, produced by `perf --out`) was
//! recorded on one particular machine; CI runners are differently sized
//! and differently noisy, so the gate never compares absolute numbers
//! directly. Instead:
//!
//! 1. **Calibrate.** Run the fixed calibration simulation
//!    ([`dashlat_bench::calibrate`]) several times. The best score
//!    rescales the baseline to this runner (`scale = here / recorded`);
//!    the spread between best and worst detects a noisy runner. If the
//!    spread exceeds `--noise` (default 12%), the gate prints a loud
//!    banner and **skips** (exit 0): a flaky failure teaches people to
//!    ignore the gate, which is worse than an occasional skipped check.
//! 2. **Sweep the pinned subset.** Figures `--figures` (default `2,3`)
//!    are swept exactly the way `perf`'s parallel pass does (same memo
//!    discipline), and per-figure events/sec is compared against the
//!    rescaled baseline.
//! 3. **Gate.** Any figure slower than `rescaled × (1 − tolerance)`
//!    (default tolerance 10%) fails with exit 1. Being *faster* than the
//!    baseline never fails — it prints a reminder to refresh the
//!    baseline (procedure in `EXPERIMENTS.md`).
//!
//! Usage: `bench_gate [--baseline PATH] [--figures 2,3] [--tolerance
//! 0.10] [--noise 0.12]`

use std::process::ExitCode;
use std::time::Instant;

use dashlat::apps::App;
use dashlat::cellcache::CellMemo;
use dashlat::experiments::figure_configs;
use dashlat::{effective_jobs, run_matrix_jobs_memo, ExperimentConfig};
use dashlat_bench::{calibrate, command_line, figure_list, or_exit};

/// Extracts the number following `"key":` from `json`, starting the scan
/// at `from`. Good enough for the flat records `perf` emits; a structural
/// change to the JSON shows up as a loud parse failure here.
fn extract_f64(json: &str, key: &str, from: usize) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json[from..].find(&needle)? + from + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Baseline events/sec for one figure: locates the `"figure": N` object
/// and reads its `events_per_sec`.
fn baseline_events_per_sec(json: &str, figure: u8) -> Option<f64> {
    let marker = format!("\"figure\": {figure},");
    let at = json.find(&marker)?;
    extract_f64(json, "events_per_sec", at)
}

fn main() -> ExitCode {
    let mut args = command_line();
    let baseline_path: String =
        or_exit(args.value("--baseline")).unwrap_or_else(|| "BENCH_8.json".into());
    let tolerance: f64 = or_exit(args.value("--tolerance")).unwrap_or(0.10);
    let noise: f64 = or_exit(args.value("--noise")).unwrap_or(0.12);
    let figures = or_exit(args.value_with("--figures", figure_list)).unwrap_or_else(|| vec![2, 3]);
    or_exit(args.finish());

    let baseline = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let recorded_calibration = extract_f64(&baseline, "calibration_events_per_sec", 0)
        .expect("baseline has no calibration_events_per_sec; regenerate it with `perf --out`");

    println!(
        "# bench-gate — baseline {baseline_path}, tolerance {:.0}%\n",
        tolerance * 1e2
    );

    // Step 1: calibrate this runner.
    let (calibration, spread) = calibrate(5);
    let scale = calibration / recorded_calibration;
    println!(
        "calibration: {:.2} Mevents/s here vs {:.2} recorded (scale {scale:.3}, spread {:.1}%)",
        calibration / 1e6,
        recorded_calibration / 1e6,
        spread * 1e2,
    );
    if spread > noise {
        println!(
            "\n{line}\n!! BENCH-GATE SKIPPED: runner too noisy ({:.1}% calibration spread, \
             limit {:.1}%)\n!! Throughput numbers from this host would be meaningless; nothing \
             was gated.\n{line}",
            spread * 1e2,
            noise * 1e2,
            line = "!".repeat(78),
        );
        return ExitCode::SUCCESS;
    }

    // Step 2: sweep the pinned subset the way perf's parallel pass does.
    let base = ExperimentConfig::base();
    let jobs = effective_jobs(None);
    let memo = CellMemo::new();
    let mut failed = false;
    let mut faster = false;
    for &figure in &figures {
        let configs = figure_configs(figure, &base);
        let start = Instant::now();
        let mut sim_events = 0u64;
        let mut failures = 0usize;
        for &app in &App::ALL {
            let report = run_matrix_jobs_memo(app, &configs, Some(jobs), Some(&memo));
            failures += report.failures().len();
            for e in report.successes() {
                sim_events += e.result.sim_events;
            }
        }
        let measured = sim_events as f64 / start.elapsed().as_secs_f64();
        let recorded = baseline_events_per_sec(&baseline, figure)
            .unwrap_or_else(|| panic!("baseline {baseline_path} has no figure {figure}"));
        let expected = recorded * scale;
        let ratio = measured / expected;
        let verdict = if failures > 0 {
            failed = true;
            "FAIL (cells failed)"
        } else if ratio < 1.0 - tolerance {
            failed = true;
            "FAIL"
        } else {
            if ratio > 1.0 + tolerance {
                faster = true;
            }
            "ok"
        };
        println!(
            "figure {figure}: {:.2} Mevents/s measured vs {:.2} expected ({:+.1}%) — {verdict}",
            measured / 1e6,
            expected / 1e6,
            (ratio - 1.0) * 1e2,
        );
    }

    // Step 3: verdict.
    if failed {
        eprintln!(
            "\nbench-gate: events/sec regressed more than {:.0}% against {baseline_path}.\n\
             If the slowdown is intentional, update the baseline (see EXPERIMENTS.md).",
            tolerance * 1e2,
        );
        return ExitCode::FAILURE;
    }
    if faster {
        println!(
            "\nbench-gate: faster than the baseline by more than the tolerance — consider \
             refreshing {baseline_path} (see EXPERIMENTS.md) so future regressions are caught \
             from the new level."
        );
    }
    println!("\nbench-gate: ok");
    ExitCode::SUCCESS
}
