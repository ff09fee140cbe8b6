#![deny(missing_docs)]

//! Shared helpers for the figure/table binaries and criterion benches.
//!
//! Every binary regenerates one table or figure of the paper:
//!
//! | binary    | regenerates |
//! |-----------|-------------|
//! | `table1`  | Table 1 — memory-operation latencies |
//! | `table2`  | Table 2 — benchmark statistics |
//! | `figure2` | Figure 2 — effect of caching shared data |
//! | `figure3` | Figure 3 — SC vs RC |
//! | `figure4` | Figure 4 — prefetching under SC and RC |
//! | `figure5` | Figure 5 — multiple contexts under SC |
//! | `figure6` | Figure 6 — combining the schemes |
//! | `summary` | §7 — best combinations (the 4–7× claim) |
//!
//! The figure and table binaries take exactly `dashlat figure`'s machine
//! flags — read by the same parser,
//! [`ExperimentConfig::with_machine_flags`] — plus `--csv`
//! ([`BenchArgs`]); anything else exits with code 1. The machine flag
//! `--analyze` certifies every cell with the happens-before analysis.
//! They run the paper-scale data sets by default; pass `--test-scale`
//! for the reduced data sets used in CI. Sweep cells are independent
//! simulations and execute on a worker pool sized by `--jobs N`
//! (default: all cores); results are always recorded in input order and
//! are bit-identical to a serial run.
//!
//! The sweep-log machinery ([`SweepLog`], [`SweepPoint`], [`run_point`])
//! lives in `dashlat::sweeplog` (re-exported here unchanged) so the CLI's
//! supervised sweep can share it.
//!
//! `perf` and `bench_gate` time a figure through one function,
//! [`sweep_figure`], which simulates every cell it counts.

use std::process::ExitCode;
use std::time::Instant;

pub use dashlat::sweeplog::{run_point, SweepLog, SweepPoint};

use dashlat::apps::App;
use dashlat::args::Args;
use dashlat::config::ExperimentConfig;
use dashlat::experiments::{figure_configs, parse_figure, FigureReport};
use dashlat::runner::{matrix_jobs, run_matrix_jobs, MatrixReport};

/// One timed run of a small, fixed simulation (16-node uniform-random
/// traffic, deterministic seed), returning host events per second.
///
/// This is the bench-gate's *calibration* workload: it exercises the same
/// dispatch loop, memory system, and contention paths as a figure sweep,
/// so its throughput tracks the figure sweeps' throughput across hosts of
/// different speeds. A committed BENCH baseline records the score of the
/// machine that produced it; the gate re-runs the calibration on the
/// current runner and scales the baseline by the ratio before comparing.
pub fn calibration_run() -> f64 {
    use dashlat_cpu::config::ProcConfig;
    use dashlat_cpu::machine::Machine;
    use dashlat_cpu::ops::Topology;
    use dashlat_mem::layout::AddressSpaceBuilder;
    use dashlat_mem::system::{MemConfig, MemorySystem};
    use dashlat_workloads::synthetic::UniformRandom;

    let topo = Topology::new(16, 1);
    let mut space = AddressSpaceBuilder::new(16);
    let w = UniformRandom::new(topo, &mut space, 1 << 18, 2_000, 0.3, 5, 3);
    let mem = MemorySystem::new(MemConfig::dash_scaled(16), space.build());
    let start = Instant::now();
    let result = Machine::new(ProcConfig::sc_baseline(), topo, mem, w)
        .run()
        .expect("calibration machine terminates");
    result.sim_events as f64 / start.elapsed().as_secs_f64()
}

/// Runs [`calibration_run`] `samples` times (after one untimed warm-up)
/// and returns `(best_events_per_sec, spread)`, where `spread` is
/// `(best - worst) / best` over the samples. A large spread means the
/// host is too noisy for throughput comparisons to mean anything — the
/// bench-gate skips (loudly) instead of failing on such runners.
pub fn calibrate(samples: usize) -> (f64, f64) {
    calibration_run();
    let scores: Vec<f64> = (0..samples.max(1)).map(|_| calibration_run()).collect();
    let best = scores.iter().copied().fold(f64::MIN, f64::max);
    let worst = scores.iter().copied().fold(f64::MAX, f64::min);
    (best, (best - worst) / best)
}

/// One timed sweep of a paper figure: every application's matrix of the
/// figure's configurations, each cell simulated.
pub struct FigureSweep {
    /// One report per application, in [`App::ALL`] order.
    pub reports: Vec<MatrixReport>,
    /// Wall-clock time of the whole sweep, in milliseconds.
    pub wall_ms: f64,
    /// Simulation events of the cells that completed.
    pub sim_events: u64,
    /// Cells that failed.
    pub failures: usize,
    /// Workers [`matrix_jobs`] granted each per-application matrix.
    pub jobs_effective: usize,
}

/// Sweeps paper figure `figure` over `base` with `jobs` workers per
/// application matrix and times it. This is the one measurement `perf`
/// and `bench_gate` share, so their events/sec count the same work.
///
/// # Panics
///
/// Panics for a figure number outside
/// [`FIGURES`](dashlat::experiments::FIGURES).
pub fn sweep_figure(figure: u8, base: &ExperimentConfig, jobs: usize) -> FigureSweep {
    let configs = figure_configs(figure, base);
    let start = Instant::now();
    let reports: Vec<MatrixReport> = App::ALL
        .iter()
        .map(|&app| run_matrix_jobs(app, &configs, Some(jobs)))
        .collect();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    FigureSweep {
        sim_events: reports
            .iter()
            .flat_map(MatrixReport::successes)
            .map(|e| e.result.sim_events)
            .sum(),
        failures: reports.iter().map(|r| r.failures().len()).sum(),
        jobs_effective: matrix_jobs(&configs, Some(jobs)),
        reports,
        wall_ms,
    }
}

/// The flags every figure and table binary takes.
pub struct BenchArgs {
    /// The machine baseline, from `dashlat figure`'s machine flags.
    pub config: ExperimentConfig,
    /// `--csv`: print figures as CSV instead of tables and charts.
    pub csv: bool,
}

impl BenchArgs {
    /// Reads the shared flags from `args`, leaving a binary's own flags
    /// for it to read.
    ///
    /// # Errors
    ///
    /// A message naming the malformed or repeated flag.
    pub fn read(args: &mut Args) -> Result<Self, String> {
        Ok(Self {
            config: ExperimentConfig::base().with_machine_flags(args)?,
            csv: args.switch("--csv")?,
        })
    }
}

/// This process's command line, program name dropped.
pub fn command_line() -> Args {
    Args::new(std::env::args().skip(1).collect())
}

/// The result of a command-line read, or — as `dashlat` does for a bad
/// command line — its error on stderr and exit code 1.
pub fn or_exit<T>(read: Result<T, String>) -> T {
    read.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// Reads a binary's whole command line: [`BenchArgs`] and nothing else.
pub fn bench_args() -> BenchArgs {
    let mut args = command_line();
    let bench = or_exit(BenchArgs::read(&mut args));
    or_exit(args.finish());
    bench
}

/// The machine baseline of a binary that takes only [`BenchArgs`].
pub fn base_config_from_args() -> ExperimentConfig {
    bench_args().config
}

/// Parses a `--figures` list such as `2,3`: each entry must be one of
/// [`dashlat::experiments::FIGURES`].
///
/// # Errors
///
/// Names the first entry that is not a figure.
pub fn figure_list(list: &str) -> Result<Vec<u8>, String> {
    list.split(',').map(|s| parse_figure(s.trim())).collect()
}

/// The whole of a `figureN` binary: reads [`BenchArgs`], sweeps paper
/// figure `number`, and renders it with [`emit_figure`].
pub fn figure_main(number: u8) -> ExitCode {
    let args = bench_args();
    print_preamble(&format!("Figure {number}"), &args.config);
    emit_figure(&dashlat::experiments::figure(number, &args.config), &args)
}

/// Renders a figure sweep the way the figure binaries do: warnings for
/// failed cells, then tables (or CSV with `--csv`), then the exit code of
/// [`FigureReport::exit_code`] — 0 when every cell completed, else the
/// most severe failed cell's code under the CLI's precedence
/// (4 invariant violation > 2 deadlock > 3 livelock > 6 race >
/// 5 partial), exactly as `dashlat figure` exits.
pub fn emit_figure(report: &FigureReport, args: &BenchArgs) -> ExitCode {
    for (app, label, failure) in &report.failures {
        eprintln!("warning: {app}/{label} failed: {failure}");
    }
    if args.csv {
        print!("{}", report.figure.to_csv());
    } else {
        println!("{}", report.figure.render());
        println!("{}", report.figure.render_chart());
    }
    if report.is_complete() && args.config.analyze {
        println!("label verification: every cell certified properly labeled");
    }
    let racy = report
        .failures
        .iter()
        .filter(|(_, _, f)| matches!(f, dashlat::runner::RunFailure::RaceDetected(_)))
        .count();
    if racy > 0 {
        eprintln!("error: {racy} figure cell(s) failed race-freedom certification");
    }
    ExitCode::from(report.exit_code())
}

/// Prints a figure/table header with the configuration in use.
pub fn print_preamble(what: &str, cfg: &ExperimentConfig) {
    println!(
        "# {what} — {} processors, {:?} scale\n",
        cfg.processors, cfg.scale
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(line: &str) -> Result<BenchArgs, String> {
        let mut args = Args::new(line.split_whitespace().map(String::from).collect());
        let bench = BenchArgs::read(&mut args)?;
        args.finish().map(|()| bench)
    }

    #[test]
    fn bench_args_are_the_machine_flags_plus_csv_and_labels() {
        let b = read("").unwrap();
        assert_eq!(b.config, ExperimentConfig::base());
        assert!(!b.csv && !b.config.analyze);
        let b = read("--test-scale --processors 4 --csv --analyze").unwrap();
        assert_eq!(b.config.processors, 4);
        assert!(b.csv && b.config.analyze);
        assert!(read("--bogus").is_err_and(|e| e.contains("--bogus")));
        assert!(read("--csv --csv").is_err_and(|e| e.contains("--csv")));
        assert_eq!(figure_list("2, 3").unwrap(), [2, 3]);
        assert!(figure_list("2,7").is_err());
    }

    #[test]
    fn sweeplog_reexport_is_the_core_type() {
        // The figure binaries keep compiling against `dashlat_bench::SweepLog`
        // while the supervised sweep uses `dashlat::sweeplog::SweepLog`; both
        // must be the same type.
        let mut log: dashlat::sweeplog::SweepLog = SweepLog::new();
        log.record("s", "a", Ok(1));
        assert_eq!(log.failed(), 0);
    }

    #[test]
    fn figure_binaries_exit_like_the_cli() {
        use dashlat::report::Figure;
        use dashlat::runner::RunFailure;
        use dashlat_cpu::machine::RunError;
        let mut report = FigureReport {
            figure: Figure {
                title: String::new(),
                groups: vec![],
            },
            failures: vec![],
        };
        let args = read("").unwrap();
        assert_eq!(emit_figure(&report, &args), ExitCode::SUCCESS);
        // The same mixed failure set the CLI's figure test folds: each
        // added class is more severe than the ones before it.
        let race = RunFailure::RaceDetected(Box::new(dashlat_analyze::AnalysisReport {
            subject: String::new(),
            nprocs: 0,
            events: 0,
            hb: dashlat_analyze::HbSummary::default(),
            replay_notes: vec![],
        }));
        let invariant = RunError::InvariantViolation {
            at: dashlat_sim::Cycle(9),
            detail: "wb fifo".into(),
        };
        for (failure, expect) in [
            (RunFailure::Panic("p".into()), 5),
            (race, 6),
            (RunFailure::Error(RunError::Deadlock { stuck: vec![] }), 2),
            (RunFailure::Error(invariant), 4),
        ] {
            report.failures.push(("LU".into(), "SC".into(), failure));
            assert_eq!(emit_figure(&report, &args), ExitCode::from(expect));
        }
    }
}
