#![deny(missing_docs)]

//! `dashlat` — experiment layer of the `dash-latency` reproduction.
//!
//! This crate glues the substrates together and exposes the paper's
//! experiments as a library:
//!
//! * [`config::ExperimentConfig`] — one machine variant (caching on/off,
//!   SC/RC, prefetching, context count/switch overhead, cache sizes).
//! * [`apps::App`] — the three benchmark applications of Table 2.
//! * [`runner::run`] — wire an application to a machine and measure it;
//!   [`runner::run_isolated`] does the same with panic and race capture,
//!   and [`runner::run_matrix_jobs`] runs one column of configurations on
//!   the worker pool.
//! * [`report`] — the paper's normalized-execution-time bar groups and
//!   Table 2 rendering.
//! * [`experiments`] — one preset per paper table/figure
//!   ([`experiments::figure`] for figures 2–6, [`experiments::table1`],
//!   [`experiments::table2`], [`experiments::summary`]).
//! * [`sweeplog`] — ordered sweep results with partial-JSON degradation
//!   and crash-safe atomic publication; [`SweepLog::measure`] runs one
//!   study's labelled points on the worker pool.
//! * [`sweep`] — the crash-safe supervised sweep ([`run_supervised`]):
//!   write-ahead journal, resume, cancellation and deadlines, failure
//!   classification, retry with backoff, repro bundles.
//! * [`chaos`] — fault-schedule fuzzing against the invariant checker
//!   with delta-debugging shrinking of failing schedules.
//! * [`args`] — the argument reader every front end parses its command
//!   line with; [`ExperimentConfig::with_machine_flags`] reads the
//!   machine flags through it.
//!
//! # Example
//!
//! Compare SC and RC for LU on a small machine:
//!
//! ```
//! use dashlat::apps::App;
//! use dashlat::config::ExperimentConfig;
//! use dashlat::runner::run;
//!
//! # fn main() -> Result<(), dashlat_cpu::machine::RunError> {
//! let base = ExperimentConfig::base_test();
//! let sc = run(App::Lu, &base)?;
//! let rc = run(App::Lu, &base.clone().with_rc())?;
//! assert!(rc.result.elapsed <= sc.result.elapsed);
//! # Ok(())
//! # }
//! ```

pub mod apps;
pub mod args;
pub mod chaos;
pub mod config;
pub mod experiments;
pub mod isolate;
pub mod pool;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod sweeplog;

pub use apps::App;
pub use config::{parse_machine_args, AppScale, ExperimentConfig};
pub use pool::{
    effective_jobs, hardware_cores, par_indexed_map_while, set_default_jobs, worker_count,
};
pub use report::{AppFigure, Figure, FigureBar, Table2, Table2Row};
pub use runner::{
    matrix_jobs, run, run_isolated, run_matrix_jobs, worst_exit_code, Experiment, MatrixCell,
    MatrixReport, RunFailure, EXIT_SEVERITY,
};
pub use sweep::{retry_backoff_ms, run_supervised, work_fingerprint, SweepControl};
pub use sweeplog::{SweepLog, SweepPoint};
