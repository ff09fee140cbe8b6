//! Performance harness: times the figure sweeps themselves.
//!
//! Where every other binary in this crate measures the *simulated*
//! machine, this one measures the *simulator*: wall-clock per figure
//! matrix, simulation events per second, and the serial-vs-parallel
//! speedup of the sweep engine. It writes the machine-readable record
//! (`BENCH_8.json` at the repo root by convention) that CI's bench-gate
//! and the results log track across commits.
//!
//! Usage: `perf [--test-scale] [--jobs N] [--out PATH] [--figures 2,3]
//! [--no-memo]`
//!
//! * `--test-scale` — reduced data sets (CI smoke); default is paper scale.
//! * `--jobs N` — worker count for the parallel pass (default all cores;
//!   clamped by [`dashlat::matrix_jobs`] to what the hardware offers).
//! * `--out PATH` — where to write the JSON record (default stdout only).
//! * `--figures LIST` — comma-separated subset of the paper figures
//!   (default all).
//! * `--no-memo` — disable the cross-figure result memo (see below).
//!
//! Each figure is swept twice through [`dashlat::run_matrix_jobs_memo`]:
//! once with `jobs = 1` (the serial baseline) and once with the requested
//! worker count. The two reports must fingerprint identically — the
//! harness asserts it, so a determinism regression fails the benchmark
//! run rather than silently producing numbers for diverging sweeps.
//!
//! ## The result memo
//!
//! The figure presets share machine configurations (the base machine
//! appears in all five figures; RC in three), so the harness keeps one
//! [`CellMemo`] per *pass kind* — one shared by every serial pass, one by
//! every parallel pass, never mixed — and repeated configurations are
//! served from it instead of re-simulated. Per-pass memos keep the
//! serial/parallel comparison symmetric: both sides do exactly the same
//! simulation work, so the speedup column stays honest. Hits are
//! reported per figure in the JSON (`memo_hits`) so a reader can see how
//! much of a figure's throughput came from sharing rather than raw
//! kernel speed; `--no-memo` measures the kernel alone.

use std::process::ExitCode;
use std::time::Instant;

use dashlat::apps::App;
use dashlat::cellcache::CellMemo;
use dashlat::experiments::{figure_configs, FIGURES};
use dashlat::{
    effective_jobs, hardware_cores, matrix_jobs, run_matrix_jobs_memo, ExperimentConfig,
    MatrixReport,
};
use dashlat_bench::{calibrate, command_line, figure_list, or_exit, BenchArgs};

struct FigureTiming {
    figure: u8,
    cells: usize,
    serial_ms: f64,
    parallel_ms: f64,
    sim_events: u64,
    sim_cycles: u64,
    failures: usize,
    /// Cells served from the parallel pass's memo for this figure.
    memo_hits: u64,
}

fn sweep(
    figure: u8,
    base: &ExperimentConfig,
    jobs: usize,
    memo: Option<&CellMemo>,
) -> (Vec<MatrixReport>, f64) {
    let configs = figure_configs(figure, base);
    let start = Instant::now();
    let reports: Vec<MatrixReport> = App::ALL
        .iter()
        .map(|&app| run_matrix_jobs_memo(app, &configs, Some(jobs), memo))
        .collect();
    (reports, start.elapsed().as_secs_f64() * 1e3)
}

fn fingerprint(reports: &[MatrixReport]) -> String {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

fn main() -> ExitCode {
    let mut args = command_line();
    let base = or_exit(BenchArgs::read(&mut args)).config;
    let use_memo = !or_exit(args.switch("--no-memo"));
    let figures = or_exit(args.value_with("--figures", figure_list));
    let figures = figures.unwrap_or_else(|| FIGURES.collect());
    let out_path: Option<String> = or_exit(args.value("--out"));
    or_exit(args.finish());
    let jobs = effective_jobs(None);

    println!(
        "# Simulator performance — {} processors, {:?} scale, {jobs} job(s), {} core(s), memo {}\n",
        base.processors,
        base.scale,
        hardware_cores(),
        if use_memo { "on" } else { "off" },
    );

    // Host-speed calibration, recorded in the JSON so the CI bench-gate
    // can rescale this record to a differently-sized runner.
    let (calibration, calibration_spread) = calibrate(3);
    println!(
        "calibration: {:.2} Mevents/s (spread {:.1}%)\n",
        calibration / 1e6,
        calibration_spread * 1e2,
    );

    // One memo per pass kind, shared across figures (see module docs).
    let serial_memo = CellMemo::new();
    let parallel_memo = CellMemo::new();
    let mut timings = Vec::new();
    for &figure in &figures {
        let hits_before = parallel_memo.hits();
        let (serial, serial_ms) = sweep(figure, &base, 1, use_memo.then_some(&serial_memo));
        let (parallel, parallel_ms) =
            sweep(figure, &base, jobs, use_memo.then_some(&parallel_memo));
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&parallel),
            "figure {figure}: parallel sweep diverged from serial — determinism regression"
        );
        let memo_hits = parallel_memo.hits() - hits_before;
        let mut sim_events = 0u64;
        let mut sim_cycles = 0u64;
        let mut cells = 0usize;
        let mut failures = 0usize;
        for report in &parallel {
            cells += report.cells.len();
            failures += report.failures().len();
            for e in report.successes() {
                sim_events += e.result.sim_events;
                sim_cycles += e.result.elapsed.as_u64();
            }
        }
        println!(
            "figure {figure}: {cells:>2} cells | serial {serial_ms:>9.1} ms | parallel {parallel_ms:>9.1} ms | speedup {:>4.2}x | {:>5.2} Mevents/s | {memo_hits} memo hit(s)",
            serial_ms / parallel_ms,
            sim_events as f64 / parallel_ms / 1e3,
        );
        timings.push(FigureTiming {
            figure,
            cells,
            serial_ms,
            parallel_ms,
            sim_events,
            sim_cycles,
            failures,
            memo_hits,
        });
    }

    let total_serial: f64 = timings.iter().map(|t| t.serial_ms).sum();
    let total_parallel: f64 = timings.iter().map(|t| t.parallel_ms).sum();
    println!(
        "\ntotal: serial {total_serial:.1} ms | parallel {total_parallel:.1} ms | speedup {:.2}x",
        total_serial / total_parallel
    );

    let json = render_json(
        &base,
        jobs,
        use_memo,
        calibration,
        &timings,
        total_serial,
        total_parallel,
    );
    if let Some(path) = out_path {
        std::fs::write(&path, &json).expect("write --out file");
        println!("\nwrote {path}");
    } else {
        println!("\n## JSON record\n\n{json}");
    }
    if timings.iter().any(|t| t.failures > 0) {
        eprintln!("warning: some sweep cells failed; the record is partial");
        return ExitCode::from(5);
    }
    ExitCode::SUCCESS
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    base: &ExperimentConfig,
    jobs: usize,
    use_memo: bool,
    calibration: f64,
    timings: &[FigureTiming],
    total_serial: f64,
    total_parallel: f64,
) -> String {
    // `jobs` is what was requested; `jobs_effective` is what the matrix
    // policy actually grants on this host for a figure-sized matrix —
    // recorded so a throughput claim can be read against the parallelism
    // that produced it (a 1-core runner legitimately reports speedup 1.0).
    let jobs_effective = matrix_jobs(&figure_configs(3, base), Some(jobs));
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"scale\": \"{:?}\",\n  \"processors\": {},\n  \"cores\": {},\n  \"jobs\": {jobs},\n  \"jobs_effective\": {jobs_effective},\n  \"memo\": {use_memo},\n  \"calibration_events_per_sec\": {calibration:.0},\n",
        base.scale,
        base.processors,
        hardware_cores(),
    ));
    out.push_str("  \"figures\": [\n");
    for (i, t) in timings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"figure\": {}, \"cells\": {}, \"serial_ms\": {:.1}, \"parallel_ms\": {:.1}, \"speedup\": {:.3}, \"sim_events\": {}, \"sim_cycles\": {}, \"events_per_sec\": {:.0}, \"memo_hits\": {}, \"failures\": {}}}{}\n",
            t.figure,
            t.cells,
            t.serial_ms,
            t.parallel_ms,
            t.serial_ms / t.parallel_ms,
            t.sim_events,
            t.sim_cycles,
            t.sim_events as f64 / (t.parallel_ms / 1e3),
            t.memo_hits,
            t.failures,
            if i + 1 < timings.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"total_serial_ms\": {total_serial:.1},\n  \"total_parallel_ms\": {total_parallel:.1},\n  \"total_speedup\": {:.3}\n}}\n",
        total_serial / total_parallel
    ));
    out
}
