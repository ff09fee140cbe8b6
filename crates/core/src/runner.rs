//! Wiring and running one experiment.
//!
//! [`run`] wires one configuration and runs it to completion.
//! [`run_matrix_jobs`] runs a whole column of configurations
//! *resiliently*: each experiment is isolated (panics are caught,
//! structured [`RunError`]s recorded), the sweep continues past failures,
//! and the caller gets a [`MatrixReport`] with a per-configuration outcome
//! instead of losing the healthy runs to one poisoned cell.

use dashlat_analyze::AnalysisReport;
use dashlat_cpu::machine::{Machine, RunError, RunResult};
use dashlat_cpu::EventLog;
use dashlat_mem::layout::AddressSpaceBuilder;
use dashlat_mem::system::MemorySystem;
use dashlat_sim::Cycle;

use crate::apps::App;
use crate::config::ExperimentConfig;

/// A finished experiment: the configuration and its measurements.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Which application ran.
    pub app: App,
    /// The machine variant.
    pub config: ExperimentConfig,
    /// Everything measured.
    pub result: RunResult,
    /// Shared-data footprint reported by the workload.
    pub shared_bytes: u64,
    /// Analysis report, when the configuration requested passes.
    pub analysis: Option<AnalysisReport>,
}

impl Experiment {
    /// Short `APP/label` identifier.
    pub fn id(&self) -> String {
        format!("{}/{}", self.app, self.config.label())
    }
}

/// Why one matrix cell failed to produce an experiment.
#[derive(Debug, Clone)]
pub enum RunFailure {
    /// The machine reported a structured error (budget, deadlock,
    /// livelock, invariant violation).
    Error(RunError),
    /// The run panicked; the payload message is preserved.
    Panic(String),
    /// The run completed but the happens-before pass found data races —
    /// the measurements exist (inside the report's experiment) but the
    /// program is not properly labeled, so the paper's latency comparison
    /// does not apply to it.
    RaceDetected(Box<AnalysisReport>),
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Error(e) => write!(f, "{e}"),
            RunFailure::Panic(msg) => write!(f, "panic: {msg}"),
            RunFailure::RaceDetected(report) => write!(
                f,
                "race detected: {} ({} processes) is not properly labeled, {} race(s)",
                report.subject, report.nprocs, report.hb.races_total
            ),
        }
    }
}

impl std::error::Error for RunFailure {}

impl RunFailure {
    /// The CLI exit code of this failure class (the documented 0–9
    /// scheme): 6 race detected, 2 deadlock, 3 livelock, 4 invariant
    /// violation, 1 everything else. Kept next to the type so every
    /// consumer (CLI dispatch, journal records, repro bundles) agrees.
    pub fn exit_code(&self) -> u8 {
        match self {
            RunFailure::RaceDetected(_) => 6,
            RunFailure::Error(RunError::Deadlock { .. }) => 2,
            RunFailure::Error(RunError::Livelock { .. }) => 3,
            RunFailure::Error(RunError::InvariantViolation { .. }) => 4,
            RunFailure::Error(_) | RunFailure::Panic(_) => 1,
        }
    }

    /// Is this failure plausibly a *transient* effect of the active fault
    /// plan (worth retrying), rather than a permanent bug? See
    /// [`RunError::is_transient_under_faults`]; panics and races are
    /// always permanent.
    pub fn is_transient_under_faults(&self, faults_active: bool) -> bool {
        match self {
            RunFailure::Error(e) => e.is_transient_under_faults(faults_active),
            RunFailure::Panic(_) | RunFailure::RaceDetected(_) => false,
        }
    }
}

/// Exit codes ranked most severe first — the one precedence every path
/// that folds several failures into one exit code uses (`dashlat figure`,
/// `dashlat sweep`, the figure binaries, and the CLI's error dispatch).
///
/// A memory-model violation (7) means the simulator's consistency
/// guarantees are wrong, which invalidates everything downstream; an
/// invariant violation (4) means corrupted coherence state; deadlock (2)
/// and livelock (3) are forward-progress failures; a race (6) indicts the
/// workload's labeling rather than the machine; a chaos finding (8) is a
/// freshly fuzzed bug and a repro divergence (9) an unconfirmed old one —
/// real, but already minimized or secondhand; a static lint finding (11)
/// is a *possible* failure proved without running anything, so it ranks
/// just below the witnessed ones; partial results (5), service errors (10
/// — the daemon was unreachable or rejected the request, saying nothing
/// about the simulator itself) and generic errors (1) rank last.
pub const EXIT_SEVERITY: [u8; 11] = [7, 4, 2, 3, 6, 8, 9, 11, 5, 10, 1];

/// The more severe of two exit codes under [`EXIT_SEVERITY`]. Unranked
/// codes (0 included) lose to every ranked one, so folding failure codes
/// from 0 yields 0 only when there was nothing to fold.
pub fn worst_exit_code(a: u8, b: u8) -> u8 {
    let rank = |c: u8| {
        EXIT_SEVERITY
            .iter()
            .position(|&s| s == c)
            .unwrap_or(EXIT_SEVERITY.len())
    };
    if rank(a) <= rank(b) {
        a
    } else {
        b
    }
}

/// One cell of a [`MatrixReport`]: the configuration label plus either the
/// finished experiment or the reason it failed.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// The configuration's short label (kept even on failure, when no
    /// [`Experiment`] exists to ask).
    pub label: String,
    /// The outcome.
    pub outcome: Result<Experiment, RunFailure>,
}

/// Outcome of a resilient matrix sweep: one cell per configuration, in the
/// order given, failures included.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// The application that ran.
    pub app: App,
    /// Per-configuration outcomes, in input order.
    pub cells: Vec<MatrixCell>,
}

impl MatrixReport {
    /// The successful experiments, in input order.
    pub fn successes(&self) -> Vec<&Experiment> {
        self.cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().ok())
            .collect()
    }

    /// The failed cells as `(label, failure)` pairs, in input order.
    pub fn failures(&self) -> Vec<(&str, &RunFailure)> {
        self.cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().err().map(|e| (c.label.as_str(), e)))
            .collect()
    }
}

/// Runs `app` on the machine described by `config`.
///
/// # Errors
///
/// Propagates [`RunError`] from the machine (cycle budget exceeded,
/// deadlock, livelock, or an invariant violation) — all indicate a bug or
/// an injected fault exposing one, rather than an expected outcome for
/// these workloads.
pub fn run(app: App, config: &ExperimentConfig) -> Result<Experiment, RunError> {
    let topo = config.topology();
    let mut space = AddressSpaceBuilder::new(config.processors);
    let workload = app.build(config.scale, topo, &mut space, config.prefetching);
    let shared_bytes = workload.shared_bytes();
    let mem = MemorySystem::new(config.mem_config(), space.build());
    let budget = Cycle(50_000_000_000);
    let (result, analysis) = if config.analyze {
        let log = EventLog::new(workload.processes(), workload.sync_config());
        let (result, log) = Machine::observed(config.proc_config(), topo, mem, workload, log)
            .with_max_cycles(budget)
            .run_observed()?;
        let subject = format!("{app}/{}", config.label());
        (result, Some(dashlat_analyze::analyze(&subject, &log)))
    } else {
        let machine = Machine::new(config.proc_config(), topo, mem, workload);
        (machine.with_max_cycles(budget).run()?, None)
    };
    Ok(Experiment {
        app,
        config: config.clone(),
        result,
        shared_bytes,
        analysis,
    })
}

/// Runs one configuration with panic isolation: a panicking run becomes a
/// [`RunFailure::Panic`] instead of unwinding into the sweep, and a
/// requested analysis that finds races becomes
/// [`RunFailure::RaceDetected`]. This is the cell-execution primitive the
/// matrix sweep, the supervised sweep and the chaos fuzzer all share.
pub fn run_isolated(app: App, config: &ExperimentConfig) -> Result<Experiment, RunFailure> {
    match catch_panic(|| run(app, config)) {
        Ok(Ok(e)) => match &e.analysis {
            Some(report) if report.race_detected() => {
                Err(RunFailure::RaceDetected(Box::new(report.clone())))
            }
            _ => Ok(e),
        },
        Ok(Err(e)) => Err(RunFailure::Error(e)),
        Err(msg) => Err(RunFailure::Panic(msg)),
    }
}

/// Runs `f`, turning a panic into its message. The one panic capture
/// every cell runner shares ([`run_isolated`] and
/// [`SweepLog::measure`](crate::sweeplog::SweepLog::measure)).
pub(crate) fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Runs `app` on every configuration, isolating each run: a failure (panic
/// or [`RunError`]) is recorded in its cell and the sweep continues, so one
/// poisoned configuration cannot take down the healthy ones.
///
/// Cells execute on the sweep worker pool, sized by [`matrix_jobs`] from
/// `jobs` (`None` = the process-wide `--jobs` default; `Some(1)` forces
/// the serial path on the caller's thread). Each cell is an independent
/// single-threaded simulation, so the report is bit-identical to serial
/// execution and the cells stay in input order regardless of completion
/// order.
pub fn run_matrix_jobs(
    app: App,
    configs: &[ExperimentConfig],
    jobs: Option<usize>,
) -> MatrixReport {
    let jobs = matrix_jobs(configs, jobs);
    // Longest-expected-first dispatch: the pool's cursor hands out items
    // in slice order, so sorting indices by descending estimated cost
    // approximates LPT scheduling — the slowest cells start first and the
    // cheap ones backfill, instead of a slow cell landing last and
    // stretching the sweep by its whole length. The sort is stable and
    // cost estimation is deterministic, so the dispatch order (and with
    // it the report) is reproducible; results are written back into input
    // order regardless.
    let mut order: Vec<usize> = (0..configs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(estimated_cost(&configs[i])));
    let by_order = crate::pool::par_indexed_map_while(
        Some(jobs),
        &order,
        || true,
        |_, &i| run_isolated(app, &configs[i]),
    );
    let mut done: Vec<(usize, Option<Result<Experiment, RunFailure>>)> =
        order.into_iter().zip(by_order).collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    let cells = done
        .into_iter()
        .map(|(i, outcome)| MatrixCell {
            label: configs[i].label(),
            outcome: outcome.expect("an uncancelled pool runs every cell"),
        })
        .collect();
    MatrixReport { app, cells }
}

/// Matrices whose summed [`estimated_cost`] is below this run serially:
/// spawning workers, fanning a handful of millisecond-scale cells across
/// them and joining costs more than it saves. Test-scale cells weigh
/// `processors × contexts` (16–64 units), so this admits parallelism only
/// once a matrix carries at least a few non-trivial cells.
const PARALLEL_COST_FLOOR: u64 = 64;

/// Worker-count policy for one cell matrix: the pool's
/// [`worker_count`](crate::pool::worker_count) rule (requested or default
/// count, clamped to the hardware's cores and the cells available — workers
/// beyond `available_parallelism` only context-switch against each other,
/// which is how BENCH_3.json recorded parallel sweeps *slower* than serial,
/// speedup 0.85–0.88 on figures 3 and 5), plus a serial fallback for
/// matrices too small to amortize pool overhead.
pub fn matrix_jobs(configs: &[ExperimentConfig], requested: Option<usize>) -> usize {
    let jobs = crate::pool::worker_count(requested, configs.len());
    if jobs > 1 && configs.iter().map(estimated_cost).sum::<u64>() < PARALLEL_COST_FLOOR {
        return 1;
    }
    jobs
}

/// Rough relative cost of simulating one cell, for dispatch ordering and
/// the serial-fallback decision. Simulated events scale with the process
/// count (every context issues its own operation stream), and paper-scale
/// data sets run ~three orders of magnitude longer than test-scale ones.
/// Only the *ordering* of estimates matters, not their absolute values.
fn estimated_cost(config: &ExperimentConfig) -> u64 {
    let processes = (config.processors.max(1) * config.contexts.max(1)) as u64;
    let scale = match config.scale {
        crate::config::AppScale::Paper => 1_000,
        crate::config::AppScale::Test => 1,
    };
    processes * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashlat_cpu::config::Consistency;
    use dashlat_sim::fault::FaultPlan;

    #[test]
    fn severity_ranking_is_total_and_most_severe_wins() {
        // 7 > 4 > 2 > 3 > 6 > 8 > 9 > 11 > 5 > 10 > 1, pairwise.
        for (i, &a) in EXIT_SEVERITY.iter().enumerate() {
            for &b in &EXIT_SEVERITY[i..] {
                assert_eq!(worst_exit_code(a, b), a);
                assert_eq!(worst_exit_code(b, a), a);
            }
        }
        // Unranked codes lose to every ranked one.
        assert_eq!(worst_exit_code(99, 5), 5);
        assert_eq!(worst_exit_code(1, 99), 1);
        assert_eq!(worst_exit_code(0, 1), 1);
    }

    #[test]
    fn runs_mp3d_at_test_scale() {
        let cfg = ExperimentConfig::base_test();
        let e = run(App::Mp3d, &cfg).expect("runs");
        assert!(e.result.elapsed > Cycle::ZERO);
        assert!(e.shared_bytes > 0);
        assert_eq!(e.id(), "MP3D/SC");
    }

    #[test]
    fn analysis_certifies_clean_run() {
        let cfg = ExperimentConfig::base_test().with_analysis();
        let e = run(App::Mp3d, &cfg).expect("runs");
        let report = e.analysis.expect("analysis requested");
        assert!(report.properly_labeled(), "{}", report.render());
        assert!(report.replay_notes.is_empty());
        // The live log came straight from the machine, never from replay.
        assert!(report.events > 0);
    }

    #[test]
    fn no_analysis_requested_means_no_log() {
        let e = run(App::Lu, &ExperimentConfig::base_test()).expect("runs");
        assert!(e.analysis.is_none());
    }

    #[test]
    fn matrix_preserves_order() {
        let configs = vec![
            ExperimentConfig::base_test(),
            ExperimentConfig::base_test().with_rc(),
        ];
        let report = run_matrix_jobs(App::Lu, &configs, None);
        assert!(report.failures().is_empty());
        let es = report.successes();
        assert_eq!(es.len(), 2);
        assert_eq!(es[0].config.consistency, Consistency::Sc);
        assert_eq!(es[1].config.consistency, Consistency::Rc);
        // RC is never slower for LU.
        assert!(es[1].result.elapsed <= es[0].result.elapsed);
    }

    #[test]
    fn uncached_run_is_slower() {
        let cached = run(App::Mp3d, &ExperimentConfig::base_test()).expect("runs");
        let uncached =
            run(App::Mp3d, &ExperimentConfig::base_test().without_caching()).expect("runs");
        assert!(
            uncached.result.elapsed > cached.result.elapsed,
            "caching did not help: {} <= {}",
            uncached.result.elapsed,
            cached.result.elapsed
        );
    }

    #[test]
    fn poisoned_config_yields_partial_results() {
        // A 0-context topology panics deep in the machine; the healthy
        // neighbours must still complete.
        let mut poisoned = ExperimentConfig::base_test();
        poisoned.contexts = 0;
        let configs = vec![
            ExperimentConfig::base_test(),
            poisoned,
            ExperimentConfig::base_test().with_rc(),
        ];
        let report = run_matrix_jobs(App::Lu, &configs, None);
        assert!(!report.failures().is_empty());
        assert_eq!(report.cells.len(), 3);
        assert_eq!(report.successes().len(), 2);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert!(
            matches!(failures[0].1, RunFailure::Panic(_)),
            "expected a caught panic, got {:?}",
            failures[0].1
        );
    }

    #[test]
    fn fault_runs_are_reproducible() {
        let cfg = ExperimentConfig::base_test().with_faults(FaultPlan::light(0xDA5));
        let a = run(App::Mp3d, &cfg).expect("runs");
        let b = run(App::Mp3d, &cfg).expect("runs");
        assert_eq!(a.result.elapsed, b.result.elapsed);
        assert_eq!(a.result.mem.faults, b.result.mem.faults);
        assert!(
            !a.result.mem.faults.is_empty(),
            "light plan injected nothing"
        );
    }

    #[test]
    fn faulted_run_is_no_faster() {
        let clean = run(App::Mp3d, &ExperimentConfig::base_test()).expect("runs");
        let faulted = run(
            App::Mp3d,
            &ExperimentConfig::base_test().with_faults(FaultPlan::heavy(3)),
        )
        .expect("runs");
        assert!(
            faulted.result.elapsed >= clean.result.elapsed,
            "faults sped the run up: {} < {}",
            faulted.result.elapsed,
            clean.result.elapsed
        );
    }
}
