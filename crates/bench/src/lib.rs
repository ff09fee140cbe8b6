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
//! All binaries run the paper-scale data sets by default; pass
//! `--test-scale` for the reduced data sets used in CI. Sweep cells are
//! independent simulations and execute on a worker pool sized by
//! `--jobs N` (default: all cores); results are always recorded in input
//! order and are bit-identical to a serial run.
//!
//! The sweep-log machinery ([`SweepBatch`], [`SweepLog`], [`SweepPoint`])
//! lives in `dashlat::sweeplog` (re-exported here unchanged) so the CLI's
//! supervised sweep can share it.

use std::process::ExitCode;
use std::time::Instant;

pub use dashlat::sweeplog::{SweepBatch, SweepLog, SweepPoint};

use dashlat::config::ExperimentConfig;

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

/// Renders a figure sweep the way the figure binaries do: warnings for
/// failed cells, then tables (or CSV with `--csv`), then the exit code of
/// [`FigureReport::exit_code`](dashlat::experiments::FigureReport::exit_code)
/// — 0 when every cell completed, else the most severe failed cell's code
/// under the CLI's precedence (4 invariant violation > 2 deadlock >
/// 3 livelock > 6 race > 5 partial), exactly as `dashlat figure` exits.
pub fn emit_figure(report: &dashlat::experiments::FigureReport) -> ExitCode {
    for (app, label, failure) in &report.failures {
        eprintln!("warning: {app}/{label} failed: {failure}");
    }
    if std::env::args().any(|a| a == "--csv") {
        print!("{}", report.figure.to_csv());
    } else {
        println!("{}", report.figure.render());
        println!("{}", report.figure.render_chart());
    }
    if report.is_complete() && std::env::args().any(|a| a == "--verify-labels") {
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

/// Parses the common command line: `--test-scale` selects the reduced data
/// sets, `--processors N` overrides the machine size, `--jobs N` pins the
/// sweep worker count (default: all cores), `--verify-labels` runs the
/// full `dashlat-analyze` pass set over every cell and turns a detected
/// race into a failed cell with exit code 6 (see [`emit_figure`]).
pub fn base_config_from_args() -> ExperimentConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = if args.iter().any(|a| a == "--test-scale") {
        ExperimentConfig::base_test()
    } else {
        ExperimentConfig::base()
    };
    if let Some(i) = args.iter().position(|a| a == "--processors") {
        let n = args
            .get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| panic!("--processors needs a number"));
        assert!((1..=64).contains(&n), "--processors must be 1..=64");
        cfg.processors = n;
    }
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        let n = args
            .get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| panic!("--jobs needs a number"));
        assert!(n >= 1, "--jobs must be at least 1");
        dashlat::set_default_jobs(Some(n));
    }
    // §2.3: the paper also ran everything with the full-size 64KB/256KB
    // caches and saw similar relative gains.
    if args.iter().any(|a| a == "--full-caches") {
        cfg = cfg.with_full_caches();
    }
    if args.iter().any(|a| a == "--verify-labels") {
        cfg = cfg.with_analysis(dashlat_analyze::PassKind::ALL.to_vec());
    }
    cfg
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

    #[test]
    fn default_is_paper_scale() {
        // No flags in the test harness args... but cargo test passes its
        // own args; just check the constructor paths compile and defaults
        // hold for the direct constructors.
        let cfg = ExperimentConfig::base();
        assert_eq!(cfg.processors, 16);
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
        use dashlat::experiments::FigureReport;
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
        assert_eq!(emit_figure(&report), ExitCode::SUCCESS);
        // The same mixed failure set the CLI's figure test folds: each
        // added class is more severe than the ones before it.
        let race = RunFailure::RaceDetected(Box::new(dashlat_analyze::AnalysisReport {
            subject: String::new(),
            nprocs: 0,
            events: 0,
            passes: vec![],
            hb: None,
            lockset: None,
            barrier: None,
            prefetch: None,
            sync_balance: None,
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
            assert_eq!(emit_figure(&report), ExitCode::from(expect));
        }
    }
}
