//! Crash-safe supervised sweeps: write-ahead journal, resume, failure
//! classification, bounded retry, and self-contained repro bundles.
//!
//! A paper figure is a matrix of independent deterministic cells, so a
//! sweep that dies halfway (OOM kill, power loss, watchdog `kill -9`)
//! has lost nothing *logically* — every finished cell would produce the
//! same result again. This module makes that recovery real:
//!
//! * [`SweepPlan`] names the cells of one sweep in a fixed order and
//!   fingerprints the whole plan, so a journal can only ever be resumed
//!   against the plan that wrote it.
//! * [`run_supervised`] executes the plan cell-by-cell, committing each
//!   outcome to a write-ahead JSONL journal (append + fsync per record)
//!   *before* it counts as done. Re-running with `resume` replays the
//!   committed prefix and executes only the remainder; because cells are
//!   deterministic, the final [`SweepLog`] is byte-identical to an
//!   uninterrupted run — serial or parallel.
//! * Failures are classified [`Transient`](FailureClass::Transient)
//!   (fault-injected NACK storms legitimately exhaust cycle budgets;
//!   subprocess wall-clock timeouts) or
//!   [`Permanent`](FailureClass::Permanent) (deadlock, invariant
//!   violation, panic, race): transients retry with capped exponential
//!   backoff, permanents fail the cell at once and can emit a
//!   self-contained [`ReproBundle`] replayable via `dashlat repro`.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dashlat_sim::journal::{atomic_write, Journal};
use dashlat_sim::json::{quote, Value};

use crate::apps::App;
use crate::config::ExperimentConfig;
use crate::experiments::figure_configs;
use crate::runner::{run_isolated, worst_exit_code, RunFailure};
use crate::sweeplog::SweepLog;

/// Journal format version written into the header record.
pub const JOURNAL_VERSION: u64 = 1;

/// One cell of a sweep: an application under a machine configuration,
/// plus the `sweep`/`point` labels it is recorded under in the
/// [`SweepLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The benchmark application.
    pub app: App,
    /// The machine configuration.
    pub config: ExperimentConfig,
    /// Sweep name, e.g. `figure3/LU`.
    pub sweep: String,
    /// Point label within the sweep, e.g. `RC`.
    pub point: String,
}

/// A named, ordered list of sweep cells. The order is the contract: cell
/// indices key the journal, and the final [`SweepLog`] lists points in
/// plan order no matter what order cells actually completed in.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// Plan name, e.g. `figure3`; recorded in the journal header.
    pub name: String,
    /// The cells, in the order they are journaled and reported.
    pub cells: Vec<SweepCell>,
}

impl SweepPlan {
    /// The full matrix for paper figure `number` (one of
    /// [`FIGURES`](crate::experiments::FIGURES)): every application of
    /// Table 2 crossed with that figure's machine configurations, in the
    /// same order the figure binaries sweep.
    ///
    /// # Panics
    ///
    /// Panics for a figure number outside the range (same contract as
    /// [`figure_configs`]).
    pub fn figure(number: u8, base: &ExperimentConfig) -> Self {
        let configs = figure_configs(number, base);
        let mut cells = Vec::with_capacity(App::ALL.len() * configs.len());
        for app in App::ALL {
            for config in &configs {
                cells.push(SweepCell {
                    app,
                    config: config.clone(),
                    sweep: format!("figure{number}/{}", app.name()),
                    point: config.label(),
                });
            }
        }
        Self {
            name: format!("figure{number}"),
            cells,
        }
    }

    /// FNV-1a fingerprint over the plan name and every cell's identity
    /// (application, labels, and the full configuration debug rendering).
    /// Any change to the plan — order, labels, or any machine knob —
    /// changes the fingerprint, which is what stops `--resume` from
    /// splicing cells measured under a different configuration into this
    /// run's results.
    pub fn fingerprint(&self) -> u64 {
        self.cells
            .iter()
            .fold(fnv_field(FNV_OFFSET, self.name.as_bytes()), |h, cell| {
                let h = fnv_field(h, cell.app.name().as_bytes());
                let h = fnv_field(h, cell.sweep.as_bytes());
                let h = fnv_field(h, cell.point.as_bytes());
                fnv_field(h, format!("{:?}", cell.config).as_bytes())
            })
    }
}

/// FNV-1a offset basis: the hash of no fields.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one field into an FNV-1a hash, followed by a `0xff` separator
/// byte so concatenations of fields can't collide.
fn fnv_field(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .chain(&[0xff])
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a fingerprint of one cell's *work identity*: the application and
/// the full machine configuration, deliberately excluding the
/// `sweep`/`point` labels. Two cells in different sweeps — or different
/// jobs of the long-running `dashlat serve` service — that would simulate
/// exactly the same machine share a fingerprint, which is what lets the
/// service's content-addressed result cache serve repeated cells without
/// re-simulating them. Cells are deterministic functions of this identity,
/// so equal fingerprints imply equal results.
pub fn work_fingerprint(app: App, config: &ExperimentConfig) -> u64 {
    let h = fnv_field(FNV_OFFSET, app.name().as_bytes());
    fnv_field(h, format!("{config:?}").as_bytes())
}

/// The delay in milliseconds before transient-failure retry `attempt`
/// (1-based: the wait after the first failed attempt): capped exponential
/// backoff with deterministic seeded jitter, uniform in
/// `[backoff/2, backoff]`.
///
/// The jitter exists to break retry storms: when N cells fail
/// transiently at the same moment (one NACK-storm fault schedule, one
/// overloaded host), an unjittered exponential schedule retries them all
/// in lockstep, re-creating the very contention spike that failed them.
/// The spread is derived from `splitmix64(salt ^ attempt)` — no clock, no
/// RNG state — so a given `(salt, attempt)` pair always waits the same
/// time and supervised runs stay reproducible. Callers salt with the cell
/// index (XORed with the plan fingerprint) so neighbouring cells spread
/// apart.
pub fn retry_backoff_ms(base_ms: u64, cap_ms: u64, attempt: u32, salt: u64) -> u64 {
    let exp = base_ms
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
        .min(cap_ms);
    if exp <= 1 {
        return exp;
    }
    // splitmix64 finalizer over the (salt, attempt) pair.
    let mut z =
        salt ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let lo = exp / 2;
    lo + z % (exp - lo + 1)
}

/// Cooperative cancellation and deadline control for a supervised sweep.
///
/// The control is checked at cell boundaries: cells already in flight
/// when it trips are drained (finished and journaled), cells not yet
/// started are skipped and stay uncommitted in the journal, so a
/// cancelled or deadline-expired run is exactly a crash-free checkpoint —
/// resuming it later completes the plan with a byte-identical log. The
/// default control never interrupts.
///
/// The control also carries an optional commit hook, which lets a
/// caller learn of each committed cell as it happens instead of
/// re-reading the journal on a timer.
#[derive(Clone, Default)]
pub struct SweepControl {
    cancel: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    on_commit: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl fmt::Debug for SweepControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepControl")
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field("on_commit", &self.on_commit.is_some())
            .finish()
    }
}

impl SweepControl {
    /// A control that never interrupts (the [`SweepOptions`] default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy interrupted whenever `token` is `true` — the
    /// service sets one token per job for client cancellation and
    /// graceful shutdown alike.
    #[must_use]
    pub fn with_cancel(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Returns a copy interrupted once `deadline` passes (per-job
    /// wall-clock budget).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns a copy that calls `hook` once for every cell this run
    /// commits, right after its journal append returns. Cells replayed
    /// from the journal and cells whose append failed are not reported.
    /// The hook runs on the sweep's worker threads, so it should be
    /// quick.
    #[must_use]
    pub fn with_commit_hook(mut self, hook: impl Fn() + Send + Sync + 'static) -> Self {
        self.on_commit = Some(Arc::new(hook));
        self
    }

    /// Why the run should stop (`"cancelled"` or `"deadline exceeded"`),
    /// or `None` to keep going. Cancellation is reported in preference to
    /// an expired deadline when both hold.
    pub fn interruption(&self) -> Option<&'static str> {
        if self
            .cancel
            .as_ref()
            .is_some_and(|t| t.load(Ordering::SeqCst))
        {
            return Some("cancelled");
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some("deadline exceeded");
        }
        None
    }

    /// True when the run should stop scheduling new cells.
    pub fn is_interrupted(&self) -> bool {
        self.interruption().is_some()
    }
}

/// Whether a cell failure is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// Plausibly timing- or fault-schedule-induced: cycle-budget
    /// exhaustion or livelock under active fault injection (NACK storms
    /// legitimately slow runs), and subprocess wall-clock timeouts or
    /// signal kills. Retried with capped exponential backoff.
    Transient,
    /// A real property violation — deadlock, coherence-invariant
    /// violation, panic, data race — or any failure of a fault-free run.
    /// Never retried; eligible for a repro bundle.
    Permanent,
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureClass::Transient => write!(f, "transient"),
            FailureClass::Permanent => write!(f, "permanent"),
        }
    }
}

impl std::str::FromStr for FailureClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "transient" => Ok(FailureClass::Transient),
            "permanent" => Ok(FailureClass::Permanent),
            other => Err(format!("unknown failure class {other:?}")),
        }
    }
}

/// A classified cell failure: the human-readable error, the CLI exit
/// code its error class maps to, and whether it is retryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Human-readable failure message.
    pub error: String,
    /// The exit code the CLI maps this failure class to
    /// (see `RunFailure::exit_code`).
    pub code: u8,
    /// Retryable or not.
    pub class: FailureClass,
}

impl CellFailure {
    /// Classifies a structured [`RunFailure`], given whether the cell ran
    /// with an active fault-injection plan.
    pub fn classify(failure: &RunFailure, faults_active: bool) -> Self {
        let class = if failure.is_transient_under_faults(faults_active) {
            FailureClass::Transient
        } else {
            FailureClass::Permanent
        };
        Self {
            error: failure.to_string(),
            code: failure.exit_code(),
            class,
        }
    }

    /// A transient failure with the CLI's generic-error exit code —
    /// used by the subprocess runner for wall-clock timeouts and
    /// signal-killed children, which carry no structured error.
    pub fn transient(error: impl Into<String>) -> Self {
        Self {
            error: error.into(),
            code: 1,
            class: FailureClass::Transient,
        }
    }
}

/// Runs one cell in-process through the standard isolated runner and
/// classifies any failure. This is the default cell runner for
/// `dashlat sweep` without `--isolate`, and the whole body of the
/// `dashlat cell` subprocess.
pub fn run_cell_in_process(cell: &SweepCell) -> Result<u64, CellFailure> {
    let faults_active = cell.config.faults.is_some_and(|p| p.is_active());
    run_isolated(cell.app, &cell.config)
        .map(|e| e.result.elapsed.as_u64())
        .map_err(|f| CellFailure::classify(&f, faults_active))
}

/// One committed journal record: the cell index, its labels (stored
/// redundantly and cross-checked against the plan on resume), the final
/// outcome, and how many attempts it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Index into [`SweepPlan::cells`].
    pub index: usize,
    /// Sweep label, cross-checked on resume.
    pub sweep: String,
    /// Point label, cross-checked on resume.
    pub point: String,
    /// Elapsed pclocks, or the (final, post-retry) classified failure.
    pub outcome: Result<u64, CellFailure>,
    /// Attempts consumed (1 = succeeded or failed permanently first try).
    pub attempts: u32,
}

impl CellRecord {
    /// Renders the record as one JSONL journal line (no trailing
    /// newline — [`Journal::append`] adds it).
    pub fn render(&self) -> String {
        let mut line = format!(
            "{{\"kind\":\"cell\",\"index\":{},\"sweep\":{},\"point\":{},\"attempts\":{}",
            self.index,
            quote(&self.sweep),
            quote(&self.point),
            self.attempts
        );
        match &self.outcome {
            Ok(elapsed) => line.push_str(&format!(",\"ok\":{elapsed}}}")),
            Err(f) => line.push_str(&format!(
                ",\"err\":{{\"error\":{},\"code\":{},\"class\":{}}}}}",
                quote(&f.error),
                f.code,
                quote(&f.class.to_string())
            )),
        }
        line
    }

    /// Parses a journal line previously produced by [`CellRecord::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = Value::parse(line)?;
        if v.get("kind").and_then(Value::as_str) != Some("cell") {
            return Err("not a cell record".into());
        }
        let index = v
            .get("index")
            .and_then(Value::as_u64)
            .ok_or("cell record missing index")? as usize;
        let sweep = v
            .get("sweep")
            .and_then(Value::as_str)
            .ok_or("cell record missing sweep")?
            .to_owned();
        let point = v
            .get("point")
            .and_then(Value::as_str)
            .ok_or("cell record missing point")?
            .to_owned();
        let attempts = v
            .get("attempts")
            .and_then(Value::as_u64)
            .ok_or("cell record missing attempts")? as u32;
        let outcome = if let Some(elapsed) = v.get("ok").and_then(Value::as_u64) {
            Ok(elapsed)
        } else if let Some(err) = v.get("err") {
            let error = err
                .get("error")
                .and_then(Value::as_str)
                .ok_or("err record missing error")?
                .to_owned();
            let code = err
                .get("code")
                .and_then(Value::as_u64)
                .ok_or("err record missing code")? as u8;
            let class: FailureClass = err
                .get("class")
                .and_then(Value::as_str)
                .ok_or("err record missing class")?
                .parse()?;
            Err(CellFailure { error, code, class })
        } else {
            return Err("cell record has neither ok nor err".into());
        };
        Ok(Self {
            index,
            sweep,
            point,
            outcome,
            attempts,
        })
    }
}

/// Supervision knobs for [`run_supervised`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker count (`None` → the process-wide `--jobs` default).
    pub jobs: Option<usize>,
    /// Maximum retries per cell *after* the first attempt; only
    /// transient failures retry.
    pub max_retries: u32,
    /// First retry backoff; doubles per retry.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Where to write repro bundles for permanent failures (`None` =
    /// don't write bundles).
    pub bundle_dir: Option<PathBuf>,
    /// Cancellation and deadline, checked at cell boundaries (the default
    /// never interrupts).
    pub control: SweepControl,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            jobs: None,
            max_retries: 2,
            backoff_base_ms: 50,
            backoff_cap_ms: 2000,
            bundle_dir: None,
            control: SweepControl::new(),
        }
    }
}

/// Why a supervised sweep could not run (distinct from cell failures,
/// which are *recorded*, not raised).
#[derive(Debug)]
pub enum SweepError {
    /// Journal or output file I/O failed.
    Io(io::Error),
    /// The journal exists but belongs to a different plan (name,
    /// fingerprint or cell labels disagree), or `resume` was not
    /// requested for an existing journal.
    JournalMismatch(String),
    /// A committed journal line failed to parse.
    Corrupt(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "journal I/O error: {e}"),
            SweepError::JournalMismatch(m) => write!(f, "journal mismatch: {m}"),
            SweepError::Corrupt(m) => write!(f, "corrupt journal: {m}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> Self {
        SweepError::Io(e)
    }
}

/// The outcome of a supervised sweep: the assembled log plus supervision
/// bookkeeping for diagnostics and exit-code folding.
#[derive(Debug)]
pub struct SweepReport {
    /// Results in plan order (replayed + freshly executed).
    pub log: SweepLog,
    /// Cells replayed from the journal instead of re-run.
    pub replayed: usize,
    /// Cells executed this invocation.
    pub executed: usize,
    /// Total retry attempts spent on transient failures.
    pub retries: u32,
    /// Final failures, in plan order: `(index, sweep, point, failure)`.
    pub failures: Vec<(usize, String, String, CellFailure)>,
    /// Repro bundles written for permanent failures.
    pub bundles: Vec<PathBuf>,
    /// The journal backing this run.
    pub journal_path: PathBuf,
    /// Highest-index committed cell `(index, sweep, point)` — the resume
    /// point a crashed run would restart after.
    pub last_committed: Option<(usize, String, String)>,
    /// Cells skipped because the run was interrupted (cancelled or past
    /// its deadline) before they started. They remain uncommitted in the
    /// journal and run on the next resume.
    pub skipped: usize,
    /// Why the run stopped early (`"cancelled"`, `"deadline exceeded"`),
    /// or `None` for a run that finished its whole plan. Set only when at
    /// least one cell was actually skipped — an interruption that arrives
    /// after the last cell drained is a complete run.
    pub interrupted: Option<String>,
}

impl SweepReport {
    /// True when every cell ran and succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.skipped == 0
    }

    /// The exit code the sweep should terminate with: 0 when complete,
    /// else the most severe failure code under
    /// [`EXIT_SEVERITY`](crate::runner::EXIT_SEVERITY) (a sweep whose only
    /// failure is a generic error still exits 1, not the partial-results
    /// 5 — the supervisor knows *why* cells are missing).
    pub fn exit_code(&self) -> u8 {
        self.failures
            .iter()
            .map(|(_, _, _, f)| f.code)
            .fold(0, worst_exit_code)
    }

    /// Per-failure diagnostic lines. Each names the cell, its class and
    /// exit code, and — so a stuck or crashed sweep can be picked up
    /// exactly where it stopped — the journal path and the last committed
    /// cell.
    pub fn diagnostics(&self) -> Vec<String> {
        let resume_hint = match &self.last_committed {
            Some((i, sweep, point)) => format!(
                "journal {}; last committed cell #{i} {sweep}/{point}",
                self.journal_path.display()
            ),
            None => format!(
                "journal {}; no cell committed yet",
                self.journal_path.display()
            ),
        };
        self.failures
            .iter()
            .map(|(i, sweep, point, f)| {
                format!(
                    "cell #{i} {sweep}/{point} failed ({}, exit {}): {}; {resume_hint}",
                    f.class, f.code, f.error
                )
            })
            .collect()
    }

    /// One-paragraph completion summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} cell(s): {} replayed from journal, {} executed, {} retry attempt(s), {} failure(s)",
            self.replayed + self.executed,
            self.replayed,
            self.executed,
            self.retries,
            self.failures.len()
        );
        if let Some(why) = &self.interrupted {
            s.push_str(&format!(
                "; {why} with {} cell(s) still pending (journal checkpointed — resume to finish)",
                self.skipped
            ));
        }
        s
    }
}

fn render_header(plan: &SweepPlan) -> String {
    format!(
        "{{\"kind\":\"header\",\"version\":{JOURNAL_VERSION},\"name\":{},\"fingerprint\":{},\"cells\":{}}}",
        quote(&plan.name),
        plan.fingerprint(),
        plan.cells.len()
    )
}

fn check_header(line: &str, plan: &SweepPlan) -> Result<(), SweepError> {
    let v = Value::parse(line).map_err(SweepError::Corrupt)?;
    if v.get("kind").and_then(Value::as_str) != Some("header") {
        return Err(SweepError::Corrupt(
            "first journal line is not a header record".into(),
        ));
    }
    let version = v.get("version").and_then(Value::as_u64);
    if version != Some(JOURNAL_VERSION) {
        return Err(SweepError::JournalMismatch(format!(
            "journal version {version:?}, this build writes {JOURNAL_VERSION}"
        )));
    }
    let name = v.get("name").and_then(Value::as_str).unwrap_or("<missing>");
    if name != plan.name {
        return Err(SweepError::JournalMismatch(format!(
            "journal was written by sweep {name:?}, this run is {:?}",
            plan.name
        )));
    }
    let fp = v.get("fingerprint").and_then(Value::as_u64);
    if fp != Some(plan.fingerprint()) {
        return Err(SweepError::JournalMismatch(format!(
            "configuration fingerprint {fp:?} does not match this run's {} — \
             the journal was written under a different configuration; delete it \
             (or point --journal elsewhere) to start over",
            plan.fingerprint()
        )));
    }
    let cells = v.get("cells").and_then(Value::as_u64);
    if cells != Some(plan.cells.len() as u64) {
        return Err(SweepError::JournalMismatch(format!(
            "journal plans {cells:?} cells, this run has {}",
            plan.cells.len()
        )));
    }
    Ok(())
}

/// Loads the committed records of an existing journal and validates them
/// against `plan`. Returns one slot per plan cell (`None` = not yet
/// committed).
fn load_committed(path: &Path, plan: &SweepPlan) -> Result<Vec<Option<CellRecord>>, SweepError> {
    let lines = Journal::read_committed_lines(path)?;
    let Some((header, records)) = lines.split_first() else {
        // Torn before the header finished: treat as empty and rewrite.
        return Ok(vec![None; plan.cells.len()]);
    };
    check_header(header, plan)?;
    let mut committed: Vec<Option<CellRecord>> = vec![None; plan.cells.len()];
    for line in records {
        let rec = CellRecord::parse(line).map_err(SweepError::Corrupt)?;
        let cell = plan.cells.get(rec.index).ok_or_else(|| {
            SweepError::JournalMismatch(format!(
                "journal commits cell #{} but the plan has only {} cells",
                rec.index,
                plan.cells.len()
            ))
        })?;
        if cell.sweep != rec.sweep || cell.point != rec.point {
            return Err(SweepError::JournalMismatch(format!(
                "journal cell #{} is {}/{} but the plan expects {}/{}",
                rec.index, rec.sweep, rec.point, cell.sweep, cell.point
            )));
        }
        // Duplicate commits for one index can only happen if two
        // supervisors shared a journal; keep the first (the one a
        // resumed log would have used) and reject the situation loudly.
        if committed[rec.index].is_some() {
            return Err(SweepError::Corrupt(format!(
                "cell #{} committed twice — was this journal shared by two sweeps?",
                rec.index
            )));
        }
        let index = rec.index;
        committed[index] = Some(rec);
    }
    Ok(committed)
}

/// Runs `plan` under supervision, journaling to `journal_path` and
/// atomically publishing the final [`SweepLog`] JSON to `out_path`.
///
/// `runner` executes one cell: `(index, cell, attempt)` → elapsed or a
/// classified failure. `run_supervised` owns retry policy (transients
/// retry up to `opts.max_retries` times with exponential backoff, capped
/// at `opts.backoff_cap_ms`), journaling (one fsynced record per
/// *finished* cell — a crash between records loses at most the cells in
/// flight), and bundle emission for permanent failures.
///
/// With `resume`, an existing journal for the same plan (validated by
/// fingerprint) replays its committed cells; without it, an existing
/// journal is an error so two supervisors can't silently interleave.
///
/// `opts.control` is checked at cell boundaries (before each cell starts,
/// and before each retry sleep), so a cancelled or deadline-expired run
/// stops promptly while every *finished* cell stays committed in the
/// journal. An interrupted run publishes **no** SweepLog — the journal is
/// the checkpoint, and re-running with `resume` completes the plan with a
/// log byte-identical to an uninterrupted run. The report's
/// [`skipped`](SweepReport::skipped) /
/// [`interrupted`](SweepReport::interrupted) fields say what remains.
///
/// # Errors
///
/// Fails only for supervision problems ([`SweepError`]): journal I/O,
/// plan/journal mismatch, corrupt records. Cell failures never fail the
/// sweep; they are recorded in the report (and the published log).
#[allow(clippy::too_many_lines)]
pub fn run_supervised<F>(
    plan: &SweepPlan,
    journal_path: &Path,
    out_path: &Path,
    resume: bool,
    opts: &SweepOptions,
    runner: F,
) -> Result<SweepReport, SweepError>
where
    F: Fn(usize, &SweepCell, u32) -> Result<u64, CellFailure> + Sync,
{
    let control = &opts.control;
    let (committed, journal) = if resume && journal_path.exists() {
        let committed = load_committed(journal_path, plan)?;
        // The torn tail (if any) is dropped by rewriting the file to
        // exactly the committed prefix before appending: atomic_write
        // publishes the truncation, then we append as usual.
        let mut prefix = render_header(plan);
        prefix.push('\n');
        for rec in committed.iter().flatten() {
            prefix.push_str(&rec.render());
            prefix.push('\n');
        }
        atomic_write(journal_path, &prefix)?;
        (committed, Journal::open_append(journal_path)?)
    } else if journal_path.exists() {
        return Err(SweepError::JournalMismatch(format!(
            "journal {} already exists; pass --resume to continue it or delete it to start over",
            journal_path.display()
        )));
    } else {
        let mut journal = Journal::create(journal_path)?;
        journal.append(&render_header(plan))?;
        (vec![None; plan.cells.len()], journal)
    };

    let replayed = committed.iter().filter(|c| c.is_some()).count();
    let pending: Vec<usize> = (0..plan.cells.len())
        .filter(|&i| committed[i].is_none())
        .collect();

    let journal = Mutex::new(journal);
    // A journal append that fails (disk full, injected fault) must stop
    // the sweep loudly, not panic a worker thread: the first error is
    // captured here, the pool drains via the keep-going predicate, and
    // the supervisor returns it as `SweepError::Io`. Cells whose append
    // failed stay uncommitted, so a resume after the disk recovers
    // re-runs exactly those cells.
    let journal_error: Mutex<Option<io::Error>> = Mutex::new(None);
    let journal_failed = || journal_error.lock().map_or(true, |e| e.is_some());
    let salt_base = plan.fingerprint();
    let fresh: Vec<Option<Option<CellRecord>>> = crate::pool::par_indexed_map_while(
        opts.jobs,
        &pending,
        || !control.is_interrupted() && !journal_failed(),
        |_, &index| {
            let cell = &plan.cells[index];
            let mut attempts = 0u32;
            let outcome = loop {
                attempts += 1;
                match runner(index, cell, attempts) {
                    Ok(elapsed) => break Ok(elapsed),
                    Err(f)
                        if f.class == FailureClass::Transient && attempts <= opts.max_retries =>
                    {
                        // A retry is a fresh attempt, not in-flight work:
                        // honour interruption instead of sleeping, leaving
                        // the cell uncommitted so resume re-runs it.
                        if control.is_interrupted() {
                            return None;
                        }
                        let backoff = retry_backoff_ms(
                            opts.backoff_base_ms,
                            opts.backoff_cap_ms,
                            attempts,
                            salt_base ^ index as u64,
                        );
                        std::thread::sleep(Duration::from_millis(backoff));
                    }
                    Err(f) => break Err(f),
                }
            };
            let rec = CellRecord {
                index,
                sweep: cell.sweep.clone(),
                point: cell.point.clone(),
                outcome,
                attempts,
            };
            // The commit point: once this append returns, the cell is done
            // forever — a crash immediately after re-runs nothing.
            let append = journal
                .lock()
                .expect("journal lock poisoned")
                .append(&rec.render());
            if let Err(e) = append {
                let mut slot = journal_error.lock().expect("journal error lock poisoned");
                if slot.is_none() {
                    *slot = Some(e);
                }
                // The cell ran but never committed; drop the record so
                // resume re-runs it once the journal is writable again.
                return None;
            }
            if let Some(hook) = &control.on_commit {
                hook();
            }
            Some(rec)
        },
    );

    if let Some(e) = journal_error
        .into_inner()
        .expect("journal error lock poisoned")
    {
        return Err(SweepError::Io(e));
    }

    // Assemble the log in plan order from replayed + fresh records. A
    // `None` slot (outer: never started; inner: retry loop interrupted)
    // is an uncommitted cell left for the next resume.
    let mut slots: Vec<Option<CellRecord>> = committed;
    let mut retries = 0u32;
    let mut executed = 0usize;
    for rec in fresh.into_iter().flatten().flatten() {
        retries += rec.attempts.saturating_sub(1);
        executed += 1;
        let index = rec.index;
        slots[index] = Some(rec);
    }
    let mut log = SweepLog::new();
    let mut failures = Vec::new();
    let mut bundles = Vec::new();
    let mut last_committed = None;
    let mut skipped = 0usize;
    for (i, slot) in slots.iter().enumerate() {
        let Some(rec) = slot.as_ref() else {
            skipped += 1;
            continue;
        };
        last_committed = Some((i, rec.sweep.clone(), rec.point.clone()));
        match &rec.outcome {
            Ok(elapsed) => log.record(&rec.sweep, &rec.point, Ok(*elapsed)),
            Err(f) => {
                log.record(&rec.sweep, &rec.point, Err(f.error.clone()));
                if f.class == FailureClass::Permanent {
                    if let Some(dir) = &opts.bundle_dir {
                        let cell = &plan.cells[i];
                        let bundle = ReproBundle::for_cell(plan, i, cell, f);
                        let path = dir.join(format!(
                            "repro-{}-cell{}.json",
                            plan.name.replace(['/', ' '], "-"),
                            i
                        ));
                        std::fs::create_dir_all(dir)?;
                        bundle.write(&path)?;
                        bundles.push(path);
                    }
                }
                failures.push((i, rec.sweep.clone(), rec.point.clone(), f.clone()));
            }
        }
    }

    // An interrupted run is a checkpoint, not a result: publishing a
    // partial log would let a reader mistake it for the finished sweep,
    // so the journal alone carries the state until resume completes it.
    if skipped == 0 {
        log.write_atomic(out_path)?;
    }
    Ok(SweepReport {
        log,
        replayed,
        executed,
        retries,
        failures,
        bundles,
        journal_path: journal_path.to_path_buf(),
        last_committed,
        skipped,
        interrupted: (skipped > 0)
            .then(|| control.interruption().unwrap_or("interrupted").to_owned()),
    })
}

/// A self-contained reproduction recipe for one permanent cell failure:
/// the application, the exact machine flags (including the fault-schedule
/// spec and seed), and the failure it is expected to reproduce. Written
/// as JSON; replayed with `dashlat repro <bundle>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproBundle {
    /// Application name (lowercase, as `dashlat run <app>` accepts).
    pub app: String,
    /// The machine flags reproducing the cell's exact configuration.
    pub machine_args: Vec<String>,
    /// Exit code the replay must terminate with.
    pub expect_code: u8,
    /// The failure message observed when the bundle was written.
    pub expect_error: String,
    /// Where the failure came from (sweep/cell or chaos trial).
    pub origin: String,
}

impl ReproBundle {
    /// Builds a bundle for a permanently failed sweep cell.
    pub fn for_cell(
        plan: &SweepPlan,
        index: usize,
        cell: &SweepCell,
        failure: &CellFailure,
    ) -> Self {
        Self {
            app: cell.app.name().to_ascii_lowercase(),
            machine_args: cell.config.to_cli_args(),
            expect_code: failure.code,
            expect_error: failure.error.clone(),
            origin: format!("{} cell #{index} {}/{}", plan.name, cell.sweep, cell.point),
        }
    }

    /// Renders the bundle as a JSON document.
    pub fn to_json(&self) -> String {
        let args: Vec<String> = self.machine_args.iter().map(|a| quote(a)).collect();
        format!(
            "{{\n  \"kind\": \"dashlat-repro\",\n  \"version\": 1,\n  \"app\": {},\n  \
             \"machine_args\": [{}],\n  \"expect\": {{\"code\": {}, \"error\": {}}},\n  \
             \"origin\": {}\n}}\n",
            quote(&self.app),
            args.join(", "),
            self.expect_code,
            quote(&self.expect_error),
            quote(&self.origin)
        )
    }

    /// Parses a bundle document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Value::parse(text)?;
        if v.get("kind").and_then(Value::as_str) != Some("dashlat-repro") {
            return Err("not a dashlat repro bundle (missing kind)".into());
        }
        match v.get("version").and_then(Value::as_u64) {
            Some(1) => {}
            other => return Err(format!("unsupported bundle version {other:?}")),
        }
        let app = v
            .get("app")
            .and_then(Value::as_str)
            .ok_or("bundle missing app")?
            .to_owned();
        let machine_args = v
            .get("machine_args")
            .and_then(Value::as_arr)
            .ok_or("bundle missing machine_args")?
            .iter()
            .map(|a| {
                a.as_str()
                    .map(str::to_owned)
                    .ok_or("machine_args entry is not a string")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let expect = v.get("expect").ok_or("bundle missing expect")?;
        let expect_code = expect
            .get("code")
            .and_then(Value::as_u64)
            .ok_or("bundle missing expect.code")? as u8;
        let expect_error = expect
            .get("error")
            .and_then(Value::as_str)
            .ok_or("bundle missing expect.error")?
            .to_owned();
        let origin = v
            .get("origin")
            .and_then(Value::as_str)
            .unwrap_or("<unknown>")
            .to_owned();
        Ok(Self {
            app,
            machine_args,
            expect_code,
            expect_error,
            origin,
        })
    }

    /// Writes the bundle atomically to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on failure `path` is untouched.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dashlat-sweep-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn tiny_plan() -> SweepPlan {
        // A synthetic plan; the fake runners below never look at the
        // config, so base_test() keeps construction cheap.
        let base = ExperimentConfig::base_test();
        SweepPlan {
            name: "unit".into(),
            cells: (0..6)
                .map(|i| SweepCell {
                    app: App::Lu,
                    config: base.clone(),
                    sweep: "unit/LU".into(),
                    point: format!("cell{i}"),
                })
                .collect(),
        }
    }

    fn fast_opts() -> SweepOptions {
        SweepOptions {
            jobs: Some(1),
            max_retries: 2,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            bundle_dir: None,
            control: SweepControl::new(),
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_identity_field() {
        let plan = tiny_plan();
        let fp = plan.fingerprint();

        let mut renamed = plan.clone();
        renamed.name = "unit2".into();
        assert_ne!(fp, renamed.fingerprint());

        let mut relabeled = plan.clone();
        relabeled.cells[3].point = "cellX".into();
        assert_ne!(fp, relabeled.fingerprint());

        let mut reconfigured = plan.clone();
        reconfigured.cells[0].config = reconfigured.cells[0].config.clone().with_rc();
        assert_ne!(fp, reconfigured.fingerprint());

        let mut reordered = plan.clone();
        reordered.cells.swap(1, 2);
        assert_ne!(fp, reordered.fingerprint());

        assert_eq!(fp, plan.clone().fingerprint());
    }

    #[test]
    fn classification_follows_fault_activity() {
        use dashlat_cpu::machine::RunError;
        let budget = RunFailure::Error(RunError::CycleBudgetExceeded {
            limit: dashlat_sim::Cycle(1),
        });
        assert_eq!(
            CellFailure::classify(&budget, true).class,
            FailureClass::Transient
        );
        assert_eq!(
            CellFailure::classify(&budget, false).class,
            FailureClass::Permanent
        );
        let inv = RunFailure::Error(RunError::InvariantViolation {
            at: dashlat_sim::Cycle(9),
            detail: "wb fifo".into(),
        });
        // Invariant violations are permanent even under faults.
        let f = CellFailure::classify(&inv, true);
        assert_eq!(f.class, FailureClass::Permanent);
        assert_eq!(f.code, 4);
        let panic = RunFailure::Panic("boom".into());
        assert_eq!(
            CellFailure::classify(&panic, true).class,
            FailureClass::Permanent
        );
    }

    #[test]
    fn cell_record_round_trips_including_nasty_strings() {
        let ok = CellRecord {
            index: 3,
            sweep: "figure3/LU".into(),
            point: "RC \"quoted\"\nline".into(),
            outcome: Ok(u64::MAX),
            attempts: 2,
        };
        assert_eq!(CellRecord::parse(&ok.render()).unwrap(), ok);
        let err = CellRecord {
            index: 0,
            sweep: "s\\w".into(),
            point: "p".into(),
            outcome: Err(CellFailure {
                error: "deadlock\tat cycle 7\u{1}".into(),
                code: 2,
                class: FailureClass::Permanent,
            }),
            attempts: 1,
        };
        assert_eq!(CellRecord::parse(&err.render()).unwrap(), err);
        // Journal lines must be single lines.
        assert!(!ok.render().contains('\n'));
        assert!(!err.render().contains('\n'));
    }

    #[test]
    fn supervisor_retries_transients_with_bounded_attempts() {
        let dir = tmpdir("retry");
        let plan = tiny_plan();
        let calls = AtomicU32::new(0);
        let report = run_supervised(
            &plan,
            &dir.join("sweep.journal"),
            &dir.join("out.json"),
            false,
            &fast_opts(),
            |index, _cell, attempt| {
                calls.fetch_add(1, Ordering::Relaxed);
                match index {
                    // Succeeds on the 3rd attempt (2 retries).
                    1 if attempt < 3 => Err(CellFailure::transient("nack storm")),
                    // Transient that never recovers: exhausts retries.
                    2 => Err(CellFailure::transient("stuck")),
                    // Permanent: must not retry.
                    4 => Err(CellFailure {
                        error: "invariant".into(),
                        code: 4,
                        class: FailureClass::Permanent,
                    }),
                    _ => Ok(100 + index as u64),
                }
            },
        )
        .expect("supervised run");
        // Cells: 0 ok(1), 1 ok(3 attempts), 2 err(3 attempts), 3 ok(1),
        // 4 err(1 attempt), 5 ok(1) = 10 runner calls.
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        assert_eq!(report.executed, 6);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.retries, 2 + 2);
        assert_eq!(report.failures.len(), 2);
        assert_eq!(report.log.failed(), 2);
        // Most severe failure is the invariant violation (code 4).
        assert_eq!(report.exit_code(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_replays_committed_cells_and_matches_uninterrupted_log() {
        let dir = tmpdir("resume");
        let plan = tiny_plan();
        let opts = fast_opts();
        let runner = |index: usize, _cell: &SweepCell, _attempt: u32| Ok(1000 + (index as u64) * 7);

        // Uninterrupted reference run.
        let full = run_supervised(
            &plan,
            &dir.join("full.journal"),
            &dir.join("full.json"),
            false,
            &opts,
            runner,
        )
        .expect("full run");

        // "Crashed" run: journal only a prefix, by hand.
        let journal_path = dir.join("crashed.journal");
        {
            let mut j = Journal::create(&journal_path).unwrap();
            j.append(&render_header(&plan)).unwrap();
            for index in [0usize, 2] {
                let rec = CellRecord {
                    index,
                    sweep: plan.cells[index].sweep.clone(),
                    point: plan.cells[index].point.clone(),
                    outcome: runner(index, &plan.cells[index], 1),
                    attempts: 1,
                };
                j.append(&rec.render()).unwrap();
            }
        }
        let resumed = run_supervised(
            &plan,
            &journal_path,
            &dir.join("resumed.json"),
            true,
            &opts,
            |index, cell, attempt| {
                assert!(index != 0 && index != 2, "committed cells must not re-run");
                runner(index, cell, attempt)
            },
        )
        .expect("resumed run");
        assert_eq!(resumed.replayed, 2);
        assert_eq!(resumed.executed, 4);
        assert_eq!(resumed.log, full.log);
        let full_bytes = std::fs::read(dir.join("full.json")).unwrap();
        let resumed_bytes = std::fs::read(dir.join("resumed.json")).unwrap();
        assert_eq!(full_bytes, resumed_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_append_fault_propagates_and_resume_completes() {
        use dashlat_sim::faultfs::{self, FaultFsPlan};
        let dir = tmpdir("faultfs");
        let plan = tiny_plan();
        let opts = fast_opts();
        let runner = |index: usize, _cell: &SweepCell, _attempt: u32| Ok(500 + index as u64);

        // Uninterrupted reference run for the byte-identity check.
        run_supervised(
            &plan,
            &dir.join("full.journal"),
            &dir.join("full.json"),
            false,
            &opts,
            runner,
        )
        .expect("reference run");

        // Find a seed whose fault schedule lets the header commit but
        // kills a later append: the error must surface from the worker
        // loop (the old code panicked the pool thread here), not from
        // journal creation.
        let mut hit = None;
        for seed in 0..64u64 {
            let jdir = dir.join(format!("s{seed}"));
            std::fs::create_dir_all(&jdir).unwrap();
            let spec = format!("seed={seed},eio=0.4,filter={}", jdir.display());
            let faults = faultfs::arm(FaultFsPlan::from_spec(&spec).unwrap());
            let result = run_supervised(
                &plan,
                &jdir.join("sweep.journal"),
                &jdir.join("out.json"),
                false,
                &opts,
                runner,
            );
            drop(faults);
            match result {
                Ok(_) => {} // every draw passed; try the next seed
                Err(SweepError::Io(e)) => {
                    assert!(
                        e.to_string().contains("injected fault"),
                        "unexpected io error: {e}"
                    );
                    assert!(
                        !jdir.join("out.json").exists(),
                        "no log may be published by a failed sweep"
                    );
                    let committed = Journal::read_committed_lines(&jdir.join("sweep.journal"))
                        .map_or(0, |l| l.len());
                    if committed >= 2 {
                        hit = Some(jdir);
                        break;
                    }
                }
                Err(other) => panic!("expected an Io error, got {other:?}"),
            }
        }
        let jdir = hit.expect("no seed in 0..64 faulted a worker append");

        // Disk recovered: resume re-runs exactly the uncommitted cells
        // and publishes a log byte-identical to the clean run.
        let resumed = run_supervised(
            &plan,
            &jdir.join("sweep.journal"),
            &jdir.join("out.json"),
            true,
            &opts,
            runner,
        )
        .expect("resume after the fault cleared");
        assert_eq!(resumed.skipped, 0);
        assert!(resumed.replayed >= 1, "committed prefix must be replayed");
        assert_eq!(
            std::fs::read(jdir.join("out.json")).unwrap(),
            std::fs::read(dir.join("full.json")).unwrap(),
            "recovered log must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_mismatched_fingerprint_and_missing_resume_flag() {
        let dir = tmpdir("mismatch");
        let plan = tiny_plan();
        let opts = fast_opts();
        let journal_path = dir.join("sweep.journal");
        let runner = |_: usize, _: &SweepCell, _: u32| Ok(1u64);
        run_supervised(
            &plan,
            &journal_path,
            &dir.join("a.json"),
            false,
            &opts,
            runner,
        )
        .expect("first run");

        // Same journal, no --resume: refused.
        let err = run_supervised(
            &plan,
            &journal_path,
            &dir.join("b.json"),
            false,
            &opts,
            runner,
        )
        .expect_err("existing journal without resume must fail");
        assert!(matches!(err, SweepError::JournalMismatch(_)));

        // Different config, --resume: fingerprint mismatch.
        let mut other = plan.clone();
        other.cells[0].config = other.cells[0].config.clone().with_rc();
        let err = run_supervised(
            &other,
            &journal_path,
            &dir.join("c.json"),
            true,
            &opts,
            runner,
        )
        .expect_err("fingerprint mismatch must fail");
        match err {
            SweepError::JournalMismatch(m) => assert!(m.contains("fingerprint"), "{m}"),
            other => panic!("wrong error: {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permanent_failures_emit_repro_bundles_and_diagnostics_name_the_journal() {
        let dir = tmpdir("bundle");
        let plan = tiny_plan();
        let mut opts = fast_opts();
        opts.bundle_dir = Some(dir.join("bundles"));
        let journal_path = dir.join("sweep.journal");
        let report = run_supervised(
            &plan,
            &journal_path,
            &dir.join("out.json"),
            false,
            &opts,
            |index, _cell, _attempt| {
                if index == 3 {
                    Err(CellFailure {
                        error: "invariant: wb fifo".into(),
                        code: 4,
                        class: FailureClass::Permanent,
                    })
                } else {
                    Ok(7)
                }
            },
        )
        .expect("run");
        assert_eq!(report.bundles.len(), 1);
        let bundle =
            ReproBundle::from_json(&std::fs::read_to_string(&report.bundles[0]).unwrap()).unwrap();
        assert_eq!(bundle.app, "lu");
        assert_eq!(bundle.expect_code, 4);
        assert!(bundle.origin.contains("cell #3"));
        assert!(bundle.machine_args.contains(&"--test-scale".to_string()));
        let diags = report.diagnostics();
        assert_eq!(diags.len(), 1);
        assert!(diags[0].contains("cell #3"), "{}", diags[0]);
        assert!(
            diags[0].contains(&journal_path.display().to_string()),
            "diagnostics must name the journal: {}",
            diags[0]
        );
        assert!(
            diags[0].contains("last committed cell #5"),
            "diagnostics must name the last committed cell: {}",
            diags[0]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repro_bundle_round_trips() {
        let b = ReproBundle {
            app: "mp3d".into(),
            machine_args: vec![
                "--processors".into(),
                "8".into(),
                "--faults".into(),
                "seed=42,nack=0.2,retries=4,backoff=8,cap=64,delay=0.1,maxdelay=32,full=0.05"
                    .into(),
            ],
            expect_code: 4,
            expect_error: "invariant \"wb\"\nbroken".into(),
            origin: "chaos trial #7".into(),
        };
        assert_eq!(ReproBundle::from_json(&b.to_json()).unwrap(), b);
    }

    #[test]
    fn exit_code_ranks_most_severe_first() {
        let mk = |codes: &[u8]| SweepReport {
            log: SweepLog::new(),
            replayed: 0,
            executed: 0,
            retries: 0,
            failures: codes
                .iter()
                .map(|&c| {
                    (
                        0,
                        "s".to_string(),
                        "p".to_string(),
                        CellFailure {
                            error: "e".into(),
                            code: c,
                            class: FailureClass::Permanent,
                        },
                    )
                })
                .collect(),
            bundles: Vec::new(),
            journal_path: PathBuf::from("j"),
            last_committed: None,
            skipped: 0,
            interrupted: None,
        };
        assert_eq!(mk(&[]).exit_code(), 0);
        assert_eq!(mk(&[1, 3, 2]).exit_code(), 2);
        assert_eq!(mk(&[1, 6]).exit_code(), 6);
        assert_eq!(mk(&[2, 4, 6]).exit_code(), 4);
    }

    #[test]
    fn backoff_jitter_is_deterministic_capped_and_spread() {
        // Deterministic: same (salt, attempt) → same delay.
        assert_eq!(
            retry_backoff_ms(50, 2000, 3, 0xdead),
            retry_backoff_ms(50, 2000, 3, 0xdead)
        );
        // Bounded: attempt 3 of base 50 is exp=200; jitter keeps the
        // delay in [100, 200], and the cap clamps deep attempts.
        for salt in 0..256u64 {
            let d = retry_backoff_ms(50, 2000, 3, salt);
            assert!((100..=200).contains(&d), "attempt 3 delay {d} out of range");
            let capped = retry_backoff_ms(50, 2000, 30, salt);
            assert!(
                (1000..=2000).contains(&capped),
                "capped delay {capped} out of range"
            );
        }
        // Spread: across 64 cells failing at the same attempt, the
        // delays must not collapse to lockstep — that is the retry
        // storm this exists to break.
        let delays: std::collections::HashSet<u64> = (0..64u64)
            .map(|salt| retry_backoff_ms(50, 2000, 3, salt))
            .collect();
        assert!(
            delays.len() >= 24,
            "only {} distinct delays across 64 salts — retries are in lockstep",
            delays.len()
        );
        // Degenerate bases stay degenerate (no panic, no jitter).
        assert_eq!(retry_backoff_ms(0, 0, 1, 7), 0);
        assert_eq!(retry_backoff_ms(1, 1, 1, 7), 1);
    }

    #[test]
    fn cancelled_run_checkpoints_and_resume_matches_uninterrupted_log() {
        let dir = tmpdir("cancel");
        let plan = tiny_plan();
        let opts = fast_opts();
        let runner = |index: usize, _cell: &SweepCell, _attempt: u32| Ok(500 + index as u64);

        // Reference: uninterrupted run.
        run_supervised(
            &plan,
            &dir.join("full.journal"),
            &dir.join("full.json"),
            false,
            &opts,
            runner,
        )
        .expect("full run");

        // Cancel after the third cell completes (serial execution, so
        // cells 0..=2 commit and 3..=5 are skipped).
        let token = Arc::new(AtomicBool::new(false));
        let cancelling = SweepOptions {
            control: SweepControl::new().with_cancel(Arc::clone(&token)),
            ..fast_opts()
        };
        let out_path = dir.join("cancelled.json");
        let report = run_supervised(
            &plan,
            &dir.join("cancelled.journal"),
            &out_path,
            false,
            &cancelling,
            |index, cell, attempt| {
                if index == 2 {
                    token.store(true, Ordering::SeqCst);
                }
                runner(index, cell, attempt)
            },
        )
        .expect("cancelled run");
        assert_eq!(report.executed, 3);
        assert_eq!(report.skipped, 3);
        assert_eq!(report.interrupted.as_deref(), Some("cancelled"));
        assert!(!report.is_complete());
        assert!(
            !out_path.exists(),
            "an interrupted run must not publish a SweepLog"
        );

        // Resume with a fresh control: replays the committed prefix,
        // runs the remainder, and the published log is byte-identical.
        token.store(false, Ordering::SeqCst);
        let resumed = run_supervised(
            &plan,
            &dir.join("cancelled.journal"),
            &out_path,
            true,
            &opts,
            |index, cell, attempt| {
                assert!(index > 2, "committed cells must not re-run");
                runner(index, cell, attempt)
            },
        )
        .expect("resumed run");
        assert!(resumed.is_complete());
        assert_eq!(resumed.replayed, 3);
        assert_eq!(resumed.executed, 3);
        assert_eq!(
            std::fs::read(&out_path).unwrap(),
            std::fs::read(dir.join("full.json")).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The commit hook reports each committed cell exactly once: never a
    /// replayed cell, never a cell whose journal append failed.
    #[test]
    fn commit_hook_fires_once_per_committed_cell() {
        use dashlat_sim::faultfs::{self, FaultFsPlan};
        let dir = tmpdir("commit-hook");
        let plan = tiny_plan();
        let journal = dir.join("sweep.journal");
        let out = dir.join("out.json");
        let runner = |index: usize, _cell: &SweepCell, _attempt: u32| Ok(900 + index as u64);
        let commits = Arc::new(AtomicU32::new(0));
        let hooked = |control: SweepControl| {
            let commits = Arc::clone(&commits);
            SweepOptions {
                control: control.with_commit_hook(move || {
                    commits.fetch_add(1, Ordering::SeqCst);
                }),
                ..fast_opts()
            }
        };
        let take = || commits.swap(0, Ordering::SeqCst);

        // Fresh run, cancelled after cell 1: cells 0 and 1 commit.
        let token = Arc::new(AtomicBool::new(false));
        let report = run_supervised(
            &plan,
            &journal,
            &out,
            false,
            &hooked(SweepControl::new().with_cancel(Arc::clone(&token))),
            |index, cell, attempt| {
                if index == 1 {
                    token.store(true, Ordering::SeqCst);
                }
                runner(index, cell, attempt)
            },
        )
        .expect("cancelled run");
        assert_eq!((report.executed, take()), (2, 2));

        // Resume with every append to the journal failing: cells 0 and 1
        // replay, cell 2 runs but never commits, and nothing is reported.
        let faults = faultfs::arm(
            FaultFsPlan::from_spec(&format!("eio=1,filter={}", journal.display())).unwrap(),
        );
        let err = run_supervised(
            &plan,
            &journal,
            &out,
            true,
            &hooked(SweepControl::new()),
            runner,
        );
        drop(faults);
        assert!(matches!(err, Err(SweepError::Io(_))), "{err:?}");
        assert_eq!(take(), 0);

        // The disk recovers: the four remaining cells commit, each
        // reported once.
        let report = run_supervised(
            &plan,
            &journal,
            &out,
            true,
            &hooked(SweepControl::new()),
            runner,
        )
        .expect("resumed run");
        assert_eq!((report.replayed, report.executed), (2, 4));
        assert_eq!(take(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_in_the_past_skips_every_cell() {
        let dir = tmpdir("deadline");
        let plan = tiny_plan();
        let opts = SweepOptions {
            control: SweepControl::new().with_deadline(Instant::now() - Duration::from_millis(1)),
            ..fast_opts()
        };
        let report = run_supervised(
            &plan,
            &dir.join("sweep.journal"),
            &dir.join("out.json"),
            false,
            &opts,
            |_, _, _| panic!("no cell may start past the deadline"),
        )
        .expect("run");
        assert_eq!(report.executed, 0);
        assert_eq!(report.skipped, plan.cells.len());
        assert_eq!(report.interrupted.as_deref(), Some("deadline exceeded"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn work_fingerprint_ignores_labels_but_not_work_identity() {
        let cell = &tiny_plan().cells[0];
        let fp = work_fingerprint(cell.app, &cell.config);
        // Same app+config under any labels hashes the same — that is the
        // cross-job cache hit. A different config or app does not.
        assert_ne!(
            fp,
            work_fingerprint(cell.app, &cell.config.clone().with_rc())
        );
        assert_ne!(fp, work_fingerprint(App::Mp3d, &cell.config));
        // The value is plain FNV-1a with a separator after each field, as
        // journals and cache entries already on disk were keyed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for field in [cell.app.name(), &format!("{:?}", cell.config)] {
            for &b in field.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(fp, h);
    }
}
