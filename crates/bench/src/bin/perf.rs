//! Performance harness: times the figure sweeps themselves.
//!
//! Where every other binary in this crate measures the *simulated*
//! machine, this one measures the *simulator*: wall-clock per figure
//! matrix, simulation events per second, and the serial-vs-parallel
//! speedup of the sweep engine. It writes the machine-readable record
//! (`BENCH_<n>.json` at the repo root by convention) that the results log
//! tracks across commits.
//!
//! Usage: `perf [--test-scale] [--jobs N] [--out PATH] [--figures 2,3]`
//!
//! * `--test-scale` — reduced data sets (CI smoke); default is paper scale.
//! * `--jobs N` — worker count for the parallel pass (default all cores;
//!   clamped by [`dashlat::matrix_jobs`] to what the hardware offers).
//! * `--out PATH` — where to write the JSON record (default stdout only).
//! * `--figures LIST` — comma-separated subset of the paper figures
//!   (default all).
//!
//! Each figure is swept twice through [`dashlat_bench::sweep_figure`]:
//! once with one worker (the serial pass) and once with the requested
//! worker count. The two reports must fingerprint identically — the
//! harness asserts it, so a determinism regression fails the benchmark
//! run rather than silently producing numbers for diverging sweeps.
//!
//! Both passes simulate every cell they count. The headline
//! `events_per_sec` is the serial pass's: it does not depend on the
//! host's core count. `parallel_ms` and `speedup` show what the worker
//! pool adds, read against each figure's `jobs_effective` — the workers
//! its per-app matrices were granted. A record describes the host that
//! took it; comparing two commits is perfbench's job, on one host.

use std::process::ExitCode;

use dashlat::experiments::FIGURES;
use dashlat::{effective_jobs, hardware_cores, ExperimentConfig, MatrixReport};
use dashlat_bench::{command_line, figure_list, or_exit, sweep_figure, BenchArgs};

struct FigureTiming {
    figure: u8,
    cells: usize,
    serial_ms: f64,
    parallel_ms: f64,
    jobs_effective: usize,
    sim_events: u64,
    sim_cycles: u64,
    failures: usize,
}

fn fingerprint(reports: &[MatrixReport]) -> String {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

fn main() -> ExitCode {
    let mut args = command_line();
    let base = or_exit(BenchArgs::read(&mut args)).config;
    let figures = or_exit(args.value_with("--figures", figure_list));
    let figures = figures.unwrap_or_else(|| FIGURES.collect());
    let out_path: Option<String> = or_exit(args.value("--out"));
    or_exit(args.finish());
    let jobs = effective_jobs(None);

    println!(
        "# Simulator performance — {} processors, {:?} scale, {jobs} job(s), {} core(s)\n",
        base.processors,
        base.scale,
        hardware_cores(),
    );

    let mut timings = Vec::new();
    for &figure in &figures {
        let serial = sweep_figure(figure, &base, 1);
        let parallel = sweep_figure(figure, &base, jobs);
        assert_eq!(
            fingerprint(&serial.reports),
            fingerprint(&parallel.reports),
            "figure {figure}: parallel sweep diverged from serial — determinism regression"
        );
        let t = FigureTiming {
            figure,
            cells: serial.reports.iter().map(|r| r.cells.len()).sum(),
            serial_ms: serial.wall_ms,
            parallel_ms: parallel.wall_ms,
            jobs_effective: parallel.jobs_effective,
            sim_events: serial.sim_events,
            sim_cycles: serial
                .reports
                .iter()
                .flat_map(MatrixReport::successes)
                .map(|e| e.result.elapsed.as_u64())
                .sum(),
            failures: serial.failures,
        };
        println!(
            "figure {figure}: {:>2} cells | serial {:>9.1} ms | parallel {:>9.1} ms on {} worker(s) | speedup {:>4.2}x | {:>5.2} Mevents/s",
            t.cells,
            t.serial_ms,
            t.parallel_ms,
            t.jobs_effective,
            t.serial_ms / t.parallel_ms,
            t.sim_events as f64 / t.serial_ms / 1e3,
        );
        timings.push(t);
    }

    let total_serial: f64 = timings.iter().map(|t| t.serial_ms).sum();
    let total_parallel: f64 = timings.iter().map(|t| t.parallel_ms).sum();
    println!(
        "\ntotal: serial {total_serial:.1} ms | parallel {total_parallel:.1} ms | speedup {:.2}x",
        total_serial / total_parallel
    );

    let json = render_json(&base, jobs, &timings, total_serial, total_parallel);
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

fn render_json(
    base: &ExperimentConfig,
    jobs: usize,
    timings: &[FigureTiming],
    total_serial: f64,
    total_parallel: f64,
) -> String {
    // `jobs` is what was requested; each figure's `jobs_effective` is what
    // the matrix policy granted its matrices on this host — recorded so
    // the speedup column can be read against the parallelism that
    // produced it (a 1-core runner legitimately reports speedup 1.0).
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"scale\": \"{:?}\",\n  \"processors\": {},\n  \"cores\": {},\n  \"jobs\": {jobs},\n",
        base.scale,
        base.processors,
        hardware_cores(),
    ));
    out.push_str("  \"figures\": [\n");
    for (i, t) in timings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"figure\": {}, \"cells\": {}, \"serial_ms\": {:.1}, \"parallel_ms\": {:.1}, \"jobs_effective\": {}, \"speedup\": {:.3}, \"sim_events\": {}, \"sim_cycles\": {}, \"events_per_sec\": {:.0}, \"failures\": {}}}{}\n",
            t.figure,
            t.cells,
            t.serial_ms,
            t.parallel_ms,
            t.jobs_effective,
            t.serial_ms / t.parallel_ms,
            t.sim_events,
            t.sim_cycles,
            t.sim_events as f64 / (t.serial_ms / 1e3),
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
