//! CI bench-gate: fails the build on a >10% events/sec regression.
//!
//! The committed baseline (`BENCH_16.json`, produced by `perf --out`) was
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
//!    are swept exactly the way `perf`'s serial pass does — one worker,
//!    through [`dashlat_bench::sweep_figure`], every cell simulated — and
//!    per-figure events/sec is compared against the rescaled baseline's
//!    headline, which is that same serial quantity.
//! 3. **Gate.** Any figure slower than `rescaled × (1 − tolerance)`
//!    (default tolerance 10%) fails with exit 1. Being *faster* than the
//!    baseline never fails — it prints a reminder to refresh the
//!    baseline (procedure in `EXPERIMENTS.md`).
//!
//! Usage: `bench_gate [--baseline PATH] [--figures 2,3] [--tolerance
//! 0.10] [--noise 0.12]`
//!
//! A baseline that is missing, or lacks the calibration score or a gated
//! figure's events/sec, exits 1 naming the file before anything runs.

use std::process::ExitCode;

use dashlat::ExperimentConfig;
use dashlat_bench::{calibrate, command_line, figure_list, or_exit, sweep_figure};

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

/// The baseline's recorded calibration score and each gated figure's
/// events/sec, in `figures` order.
///
/// # Errors
///
/// Names the file and what it could not provide.
fn read_baseline(path: &str, figures: &[u8]) -> Result<(f64, Vec<f64>), String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let calibration = extract_f64(&json, "calibration_events_per_sec", 0).ok_or_else(|| {
        format!(
            "baseline {path} has no calibration_events_per_sec; regenerate it with `perf --out`"
        )
    })?;
    let per_figure = figures
        .iter()
        .map(|&figure| {
            baseline_events_per_sec(&json, figure)
                .ok_or_else(|| format!("baseline {path} has no events_per_sec for figure {figure}"))
        })
        .collect::<Result<_, _>>()?;
    Ok((calibration, per_figure))
}

fn main() -> ExitCode {
    let mut args = command_line();
    let baseline_path: String =
        or_exit(args.value("--baseline")).unwrap_or_else(|| "BENCH_16.json".into());
    let tolerance: f64 = or_exit(args.value("--tolerance")).unwrap_or(0.10);
    let noise: f64 = or_exit(args.value("--noise")).unwrap_or(0.12);
    let figures = or_exit(args.value_with("--figures", figure_list)).unwrap_or_else(|| vec![2, 3]);
    or_exit(args.finish());

    let (recorded_calibration, recorded) = or_exit(read_baseline(&baseline_path, &figures));

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

    // Step 2: sweep the pinned subset the way perf's serial pass does.
    let base = ExperimentConfig::base();
    let mut failed = false;
    let mut faster = false;
    for (&figure, &recorded) in figures.iter().zip(&recorded) {
        let sweep = sweep_figure(figure, &base, 1);
        let measured = sweep.sim_events as f64 / (sweep.wall_ms / 1e3);
        let expected = recorded * scale;
        let ratio = measured / expected;
        let verdict = if sweep.failures > 0 {
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
