//! Command-line parsing: every subcommand reads its flags through the
//! shared [`dashlat::args::Args`] reader and fills the option struct it
//! runs with, starting from that struct's own defaults.

use std::path::PathBuf;

use dashlat::apps::App;
use dashlat::args::Args;
use dashlat::chaos::ChaosOptions;
use dashlat::config::{AppScale, ExperimentConfig};
use dashlat::experiments::parse_figure;
use dashlat::sweep::SweepOptions;
use dashlat_analyze::{parse_passes, PassKind};
use dashlat_cpu::config::Consistency;
use dashlat_serve::{JobKind, JobSpec, ServeConfig, TortureOptions};
use dashlat_verify::SuiteOptions;

/// Parsed command line.
#[derive(Debug)]
pub enum Command {
    /// Run one experiment and print its breakdown.
    Run {
        /// Application to run.
        app: App,
        /// Machine variant.
        config: Box<ExperimentConfig>,
        /// Also print the stacked-bar chart.
        chart: bool,
    },
    /// Regenerate a paper figure.
    Figure {
        /// Figure number, one of [`dashlat::experiments::FIGURES`].
        number: u8,
        /// Machine baseline.
        config: Box<ExperimentConfig>,
        /// Emit CSV instead of tables.
        csv: bool,
    },
    /// Regenerate a paper table (1 or 2).
    Table {
        /// Table number.
        number: u8,
        /// Machine baseline.
        config: Box<ExperimentConfig>,
    },
    /// The §7 best-combination summary.
    Summary {
        /// Machine baseline.
        config: Box<ExperimentConfig>,
    },
    /// Record an application's reference trace to a file.
    TraceRecord {
        /// Application to trace.
        app: App,
        /// Output path.
        out: String,
        /// Machine variant used while recording.
        config: Box<ExperimentConfig>,
    },
    /// Replay a recorded trace.
    TraceReplay {
        /// Input path.
        input: String,
        /// Machine variant to replay under.
        config: Box<ExperimentConfig>,
    },
    /// Run analysis passes (race detection, properly-labeled
    /// certification) over workload runs or a recorded trace.
    Analyze {
        /// Applications to certify (all three when empty and no trace
        /// input was given).
        apps: Vec<App>,
        /// Recorded trace to analyze instead of live runs.
        input: Option<String>,
        /// Passes to run.
        passes: Vec<PassKind>,
        /// Machine variant for live runs.
        config: Box<ExperimentConfig>,
    },
    /// Statically lint workload programs (no simulation): lock-order
    /// deadlock detection, barrier divergence, PL-labeling inference,
    /// and prefetch lints.
    Lint {
        /// Applications to lint (all three when empty and no trace
        /// input was given).
        apps: Vec<App>,
        /// Also lint the whole litmus corpus.
        all: bool,
        /// Recorded trace to lint instead of extracted programs.
        input: Option<String>,
        /// Emit machine-readable JSON instead of the text report.
        json: bool,
        /// Fail on incomplete analyses (truncated extraction or an
        /// unconverged happens-before closure), not just critical
        /// findings.
        strict: bool,
        /// Machine variant (scales the programs; fixes the latency
        /// table behind the late-prefetch and over-labeling costs).
        config: Box<ExperimentConfig>,
    },
    /// Crash-safe supervised sweep of one paper figure's matrix.
    Sweep {
        /// Figure number, one of [`dashlat::experiments::FIGURES`].
        number: u8,
        /// Machine baseline.
        config: Box<ExperimentConfig>,
        /// Write-ahead journal path.
        journal: String,
        /// Output path for the final `SweepLog` JSON.
        out: String,
        /// Replay an existing journal's committed cells.
        resume: bool,
        /// Run each cell in a subprocess with a wall-clock timeout.
        isolate: bool,
        /// Per-cell wall-clock timeout for `--isolate`, in seconds.
        timeout_secs: u64,
        /// Retries and the repro-bundle directory.
        opts: SweepOptions,
    },
    /// Run one sweep cell in-process and print its JSON outcome record —
    /// the subprocess half of `sweep --isolate`.
    Cell {
        /// Application to run.
        app: App,
        /// Machine variant.
        config: Box<ExperimentConfig>,
    },
    /// Replay a repro bundle and verify the recorded failure reproduces.
    Repro {
        /// Bundle path.
        bundle: String,
    },
    /// Fuzz randomized fault schedules against the invariant checker and
    /// determinism oracle, shrinking the first failing schedule.
    Chaos {
        /// The campaign.
        opts: Box<ChaosOptions>,
        /// Where to write the repro bundle for a failing schedule.
        bundle_dir: String,
    },
    /// `chaos --serve`: torture the serve daemon instead of a single
    /// simulation — seeded schedules of worker kills, disk faults,
    /// client floods and restarts, judged by service-level oracles.
    ServeTorture(TortureOptions),
    /// Exhaustively verify the machine's memory model and directory
    /// protocol against their specifications.
    VerifyModel {
        /// What to verify.
        suite: SuiteOptions,
        /// List the corpus (names + descriptions) and exit.
        list: bool,
    },
    /// Run the long-lived job service: HTTP API, bounded worker pool,
    /// admission control, result cache, crash recovery.
    Serve(Box<ServeConfig>),
    /// Submit a job to a running service.
    Submit {
        /// Explicit server address; when absent the daemon's `addr` file
        /// under `data_dir` is read instead.
        addr: Option<String>,
        /// Data directory shared with the daemon.
        data_dir: PathBuf,
        /// The job to submit, already validated.
        spec: Box<JobSpec>,
        /// Poll until the job reaches a terminal state and exit with its
        /// exit code.
        wait: bool,
    },
    /// Query a running service: one job's status, or the whole list.
    Status {
        /// Explicit server address; when absent the daemon's `addr` file
        /// under `data_dir` is read instead.
        addr: Option<String>,
        /// Data directory shared with the daemon.
        data_dir: PathBuf,
        /// Job to show (all jobs plus daemon health when absent).
        id: Option<u64>,
    },
    /// Print usage.
    Help,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl From<String> for ArgError {
    fn from(msg: String) -> Self {
        Self(msg)
    }
}

impl From<&str> for ArgError {
    fn from(msg: &str) -> Self {
        Self(msg.to_owned())
    }
}

/// Usage text.
pub const USAGE: &str = "\
dashlat — DASH-like latency-technique simulator (ISCA'91 reproduction)

USAGE:
  dashlat run --app <mp3d|lu|pthor> [machine flags] [--chart]
  dashlat figure <2|3|4|5|6> [machine flags] [--csv]
  dashlat table <1|2> [machine flags]
  dashlat summary [machine flags]
  dashlat trace record --app <app> --out <file> [machine flags]
  dashlat trace replay --in <file> [machine flags]
  dashlat analyze [--app <app>]... [--in <file>] [--passes <list>]
                  [--paper-scale] [machine flags]
  dashlat lint [--app <app>]... [--all] [--in <file>] [--json]
               [--strict] [--paper-scale] [machine flags]
  dashlat sweep <2|3|4|5|6> [machine flags] [--journal <file>] [--out <file>]
                [--resume] [--isolate] [--timeout-secs <n>] [--retries <n>]
                [--bundle-dir <dir>]
  dashlat cell --app <app> [machine flags]
  dashlat repro <bundle.json>
  dashlat chaos [--app <app>] [machine flags] [--trials <n>] [--seed <n>]
                [--no-determinism] [--bundle-dir <dir>]
  dashlat chaos --serve [--trials <n>] [--seed <n>] [--data-dir <dir>]
                [--calibration-budget-ms <n>]
  dashlat verify-model [--all] [--models <sc,pc,wc,rc>] [--tests <names>]
                       [--filter <glob>] [--max-runs <n>] [--list] [--stats]
                       [--strict] [--deep-closure]
  dashlat serve [--addr <ip:port>] [--data-dir <dir>] [--workers <n>]
                [--queue-depth <n>] [--job-timeout-secs <n>] [--isolate]
                [--cell-timeout-secs <n>] [--crash-loop-threshold <n>]
                [--max-connections <n>] [--conn-deadline-secs <n>]
  dashlat submit [--addr <ip:port> | --data-dir <dir>] [--wait]
                 [--sweep-jobs <n>] [--retries <n>] [--timeout-secs <n>]
                 sweep <2|3|4|5|6> [machine flags]
               | chaos [--app <app>] [--trials <n>] [--seed <n>] [machine flags]
               | verify [--models <list>] [--tests <names>] [--max-runs <n>]
  dashlat status [<job-id>] [--addr <ip:port> | --data-dir <dir>]
  dashlat help

  Flags may come in any order, each at most once: a repeated flag is an
  error, except --app on analyze and lint, which takes several apps.

MACHINE FLAGS:
  --processors <1..64>      processors (default 16)
  --consistency <sc|pc|wc|rc>  memory consistency model (default sc)
  --contexts <n>            hardware contexts per processor (default 1)
  --switch <cycles>         context switch overhead (default 4)
  --prefetch                enable software prefetching
  --no-cache                shared data not cacheable
  --full-caches             64KB/256KB caches instead of 2KB/4KB
  --no-contention           disable bus/network queueing
  --mesh                    2-D mesh network model
  --dir-pointers <n>        limited-pointer (Dir_n-B) directory
  --lookahead <cycles>      perfect read lookahead window (OoO what-if)
  --test-scale              reduced data sets (default: paper scale)
  --jobs <n>                sweep worker threads for figure/table/summary
                            matrices (default: all cores; cells stay
                            bit-identical to a serial run)
  --faults <spec>           seeded fault injection: a preset
                            (light|heavy|nacks[:seed]) or key=value pairs
                            (seed,nack,retries,backoff,cap,delay,maxdelay,full)
  --check-invariants        check coherence invariants after every access
  --no-check-invariants     disable invariant checking (overrides the
                            debug-build default)
  --enforce-wb-fifo         enforce W->W write-buffer FIFO retirement
                            order as an online invariant
  --mutate-ww               arm the seeded W->W reordering bug
                            (verify-mutations builds only; for testing
                            the chaos fuzzer against a known-real bug)
  --analyze <passes>        record an event log and run analysis passes
                            after the run: all, or a comma list of
                            hb,lockset,barrier,prefetch,syncbalance

ANALYZE:
  `dashlat analyze` certifies runs as properly labeled (every competing
  access ordered by synchronization or explicitly labeled). Defaults:
  all three applications, 16 processors, release consistency, reduced
  data sets (--paper-scale restores Table 2 sizes), every pass.
  --in <file> analyzes a recorded trace by logical replay instead.

LINT:
  `dashlat lint` statically analyzes workload programs without
  simulating a cycle: it extracts each per-process op program into a
  sync-skeleton CFG and runs four whole-program passes — lock-order
  deadlock detection (cycles with per-process witnesses, unreleased
  and unmatched releases), barrier-divergence (every process must
  traverse the same barrier sequence), PL-labeling inference (a static
  happens-before closure; under-labeling is a statically possible race
  and fails the lint, over-labeling is reported with its estimated
  forfeited write-latency hiding in stall cycles), and prefetch lints
  (dead, late, duplicate — advisory). Defaults match `analyze`: all
  three applications, release consistency, reduced data sets. --all
  adds the litmus corpus; --in <file> lints a recorded trace instead;
  --json prints one machine-readable report per subject; --strict also
  fails incomplete analyses (truncated extraction or an unconverged
  closure). Critical findings exit 11.

SWEEP / CHAOS / REPRO:
  `dashlat sweep N` runs figure N's matrix under a crash-safe supervisor:
  each finished cell is committed to a write-ahead journal (fsync per
  record) before it counts, so after a crash or `kill -9` the same
  command with --resume replays the committed cells and re-runs only the
  rest — the final JSON (--out, published atomically) is byte-identical
  to an uninterrupted run, serial or parallel. --isolate runs each cell
  in a subprocess with a wall-clock timeout. Transient failures (cycle
  budget or livelock under active fault injection; subprocess timeouts
  and signal kills) retry with capped exponential backoff; permanent
  ones (deadlock, invariant violation, panic, race) fail the cell at
  once and, with --bundle-dir, emit a self-contained repro bundle.
  `dashlat repro <bundle>` replays a bundle and exits 0 only when the
  recorded failure reproduces (9 on divergence). `dashlat chaos` fuzzes
  seeded fault schedules against the online invariant checker and a
  determinism oracle, delta-debugs the first failing schedule to
  minimal, and writes it as a repro bundle (exit 8). `dashlat chaos
  --serve` tortures the daemon instead: each seeded schedule mixes
  worker SIGKILLs, injected disk faults, adversarial client floods and
  mid-run restarts against a live in-process daemon, then checks four
  service oracles (no acknowledged job lost, logs never torn, cache
  exactly-once, recovery within a bound) and delta-debugs any failing
  schedule to a minimal reproducer (exit 8). --calibration-budget-ms
  skips loudly on runners too slow to judge fairly. Its --data-dir must
  be absent or empty: a non-empty one is refused and nothing in it is
  deleted.

VERIFY-MODEL:
  `dashlat verify-model` runs the litmus corpus through a stateless
  model checker with dynamic partial-order reduction and compares the
  machine's outcome sets against the axiomatic consistency models, then
  exhaustively checks the directory protocol's SWMR and data-value
  invariants on small configurations (including the lazy write-back
  variant). Defaults: SC and RC, whole corpus. --all checks all four
  models; --models / --tests narrow the sweep (comma lists); --filter
  selects corpus tests by name glob (* and ?); --list prints the corpus
  and exits; --max-runs caps runs per (test, model) cell — hitting the
  cap marks the cell truncated, which fails it (truncation is never
  silent). --stats re-explores each cell with the sleep-set baseline
  and prints a reduction report; --strict fails the suite on any
  truncation; --deep-closure adds the 4-processor/4-line protocol
  closure (release builds recommended).

SERVE / SUBMIT / STATUS:
  `dashlat serve` runs a long-lived daemon over a plain-thread HTTP/1.1
  API: a bounded worker pool drains an admission queue (submissions
  beyond --queue-depth are shed with 429 + Retry-After), every job
  carries a cancel token and a wall-clock deadline, and sweep cells are
  served from a content-addressed result cache keyed by the machine
  configuration's fingerprint — the same machine measured under two
  jobs simulates once. On startup the daemon classifies every job
  directory (terminal / resumable / corrupt) and re-enqueues resumable
  sweeps, which resume from their journals to byte-identical output;
  SIGTERM/SIGINT checkpoint in-flight sweeps at the next cell boundary
  and exit 0. --isolate runs each sweep cell in a `dashlat cell`
  subprocess under --cell-timeout-secs and a per-job crash-loop circuit
  breaker (--crash-loop-threshold consecutive crashes open it), so a
  crashing cell costs one child, never the daemon. The
  HTTP surface is hardened: slow or oversized requests get 408/413
  under --conn-deadline-secs, and connections beyond --max-connections
  are shed with 503 + Retry-After. Endpoints: GET /healthz /readyz
  /jobs /jobs/<id> /jobs/<id>/log /jobs/<id>/events[?after=N&wait=S]
  (long poll: blocks until new journal records or the wait expires);
  POST /jobs /jobs/<id>/cancel /shutdown. `dashlat submit` POSTs a job (machine flags travel
  verbatim and are validated on both ends); with --wait it polls to a
  terminal state and exits with the job's own exit code. `dashlat
  status` prints one job's state or the whole list plus daemon health.
  Both find the daemon through --addr or the `addr` file in its
  --data-dir.

EXIT CODES:
  0 success   1 generic error   2 deadlock   3 livelock
  4 invariant violation   5 partial matrix results   6 race detected
  7 memory-model violation   8 chaos found a failing schedule
  9 repro bundle did not reproduce   10 service error (daemon
  unreachable, submission rejected, or remote job failed opaquely)
  11 static lint found critical findings
  When several failures co-occur (e.g. in one figure matrix), the most
  severe code wins: 7, then 4, 2, 3, 6, 8, 9, 11, 5, 10, and 1 last.
";

/// The machine flags on the paper's base machine.
fn machine(args: &mut Args) -> Result<Box<ExperimentConfig>, String> {
    ExperimentConfig::base()
        .with_machine_flags(args)
        .map(Box::new)
}

/// A flag the subcommand cannot run without.
fn required<T: std::str::FromStr>(args: &mut Args, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    args.value(flag)?
        .ok_or_else(|| format!("missing required {flag}"))
}

/// The figure number `cmd` starts with.
fn figure_number(args: &mut Args, cmd: &str) -> Result<u8, String> {
    let n = args.positional().unwrap_or_default();
    parse_figure(&n).map_err(|e| format!("{cmd} needs a figure number: {e}"))
}

/// A comma list of consistency models (`sc,rc`).
fn models(list: &str) -> Result<Vec<Consistency>, String> {
    list.split(',').map(str::parse).collect()
}

/// A comma list of litmus tests, each of which must exist.
fn litmus_tests(list: &str) -> Result<Vec<String>, String> {
    let names: Vec<String> = list.split(',').map(str::to_owned).collect();
    dashlat_verify::check_test_names(&names).map(|()| names)
}

/// Parses a full command line (without the program name).
///
/// # Errors
///
/// Returns [`ArgError`] with a user-facing message for anything malformed.
pub fn parse(argv: Vec<String>) -> Result<Command, ArgError> {
    let mut a = Args::new(argv);
    let Some(cmd) = a.positional() else {
        return Ok(Command::Help);
    };
    let command = match cmd.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "run" => Command::Run {
            config: machine(&mut a)?,
            app: required(&mut a, "--app")?,
            chart: a.switch("--chart")?,
        },
        "figure" => Command::Figure {
            number: figure_number(&mut a, "figure")?,
            config: machine(&mut a)?,
            csv: a.switch("--csv")?,
        },
        "table" => Command::Table {
            number: a
                .positional()
                .and_then(|n| n.parse().ok())
                .filter(|n| (1..=2).contains(n))
                .ok_or("table needs a number: 1 or 2")?,
            config: machine(&mut a)?,
        },
        "summary" => Command::Summary {
            config: machine(&mut a)?,
        },
        "trace" => {
            let sub = a.positional().unwrap_or_default();
            let config = machine(&mut a)?;
            match sub.as_str() {
                "record" => Command::TraceRecord {
                    app: required(&mut a, "--app")?,
                    out: required(&mut a, "--out")?,
                    config,
                },
                "replay" => Command::TraceReplay {
                    input: required(&mut a, "--in")?,
                    config,
                },
                other => {
                    return Err(format!("trace needs `record` or `replay`, not {other:?}").into())
                }
            }
        }
        "analyze" | "lint" => {
            // Certification defaults differ from the measurement
            // commands: release consistency (the strongest test of the
            // labeling — RC reorders the most) and reduced data sets,
            // unless the user says otherwise. For `lint` the model only
            // picks the latency table behind the advisory cost
            // estimates — the verdicts are static.
            let mut base = ExperimentConfig::base().with_rc();
            if !a.switch("--paper-scale")? {
                base.scale = AppScale::Test;
            }
            let config = Box::new(base.with_machine_flags(&mut a)?);
            let apps = a.values("--app")?;
            let input = a.value("--in")?;
            if cmd == "analyze" {
                if input.is_some() && !apps.is_empty() {
                    return Err(
                        "--in and --app are mutually exclusive (a trace fixes the subject)".into(),
                    );
                }
                let passes = a.value_with("--passes", parse_passes)?;
                Command::Analyze {
                    passes: passes.unwrap_or_else(|| PassKind::ALL.to_vec()),
                    apps,
                    input,
                    config,
                }
            } else {
                let all = a.switch("--all")?;
                if input.is_some() && (!apps.is_empty() || all) {
                    return Err(
                        "--in and --app/--all are mutually exclusive (a trace fixes the subject)"
                            .into(),
                    );
                }
                Command::Lint {
                    json: a.switch("--json")?,
                    strict: a.switch("--strict")?,
                    apps,
                    all,
                    input,
                    config,
                }
            }
        }
        "sweep" => {
            let number = figure_number(&mut a, "sweep")?;
            let d = SweepOptions::default();
            Command::Sweep {
                config: machine(&mut a)?,
                journal: a
                    .value("--journal")?
                    .unwrap_or_else(|| format!("sweep-figure{number}.journal")),
                out: a
                    .value("--out")?
                    .unwrap_or_else(|| format!("sweep-figure{number}.json")),
                resume: a.switch("--resume")?,
                isolate: a.switch("--isolate")?,
                timeout_secs: a.value_in("--timeout-secs", 1..)?.unwrap_or(600),
                opts: SweepOptions {
                    max_retries: a.value("--retries")?.unwrap_or(d.max_retries),
                    bundle_dir: a.value("--bundle-dir")?.or(d.bundle_dir),
                    ..d
                },
                number,
            }
        }
        "cell" => Command::Cell {
            config: machine(&mut a)?,
            app: required(&mut a, "--app")?,
        },
        "repro" => Command::Repro {
            bundle: a.positional().ok_or("repro needs a bundle path")?,
        },
        "chaos" => {
            let base = *machine(&mut a)?;
            if base.faults.is_some() {
                return Err("chaos draws its own fault schedules; drop --faults".into());
            }
            let serve = a.switch("--serve")?;
            let (trials, seed) = (a.value_in("--trials", 1..)?, a.value("--seed")?);
            let d = ChaosOptions::default();
            let opts = ChaosOptions {
                app: a.value("--app")?.unwrap_or(d.app),
                trials: trials.unwrap_or(d.trials),
                seed: seed.unwrap_or(d.seed),
                check_determinism: !a.switch("--no-determinism")?,
                base,
                ..d
            };
            let bundle_dir = a.value("--bundle-dir")?.unwrap_or_else(|| ".".into());
            if serve {
                // The fuzzer's flags above parse but do not apply here.
                let d = TortureOptions::default();
                Command::ServeTorture(TortureOptions {
                    trials: trials.unwrap_or(d.trials),
                    seed: seed.unwrap_or(d.seed),
                    data_root: a.value("--data-dir")?.unwrap_or(d.data_root),
                    calibration_budget_ms: a
                        .value("--calibration-budget-ms")?
                        .unwrap_or(d.calibration_budget_ms),
                    ..d
                })
            } else {
                Command::Chaos {
                    opts: Box::new(opts),
                    bundle_dir,
                }
            }
        }
        "verify-model" => {
            let all = a.switch("--all")?;
            let models = a.value_with("--models", models)?;
            if all && models.is_some() {
                return Err("--all and --models are mutually exclusive".into());
            }
            let tests = a.value_with("--tests", litmus_tests)?;
            let filter = a.value("--filter")?;
            if filter.is_some() && tests.is_some() {
                return Err("--filter and --tests are mutually exclusive".into());
            }
            let d = SuiteOptions::default();
            Command::VerifyModel {
                suite: SuiteOptions {
                    // The paper's endpoints unless --all asks for every
                    // model (the suite's own default).
                    models: models.unwrap_or(if all {
                        d.models
                    } else {
                        vec![Consistency::Sc, Consistency::Rc]
                    }),
                    tests: tests.unwrap_or(d.tests),
                    filter: filter.or(d.filter),
                    max_runs: a.value("--max-runs")?.unwrap_or(d.max_runs),
                    stats: a.switch("--stats")?,
                    strict: a.switch("--strict")?,
                    deep_closure: a.switch("--deep-closure")?,
                },
                list: a.switch("--list")?,
            }
        }
        "serve" => {
            let d = ServeConfig::default();
            Command::Serve(Box::new(ServeConfig {
                addr: a.value("--addr")?.unwrap_or(d.addr),
                data_dir: a.value("--data-dir")?.unwrap_or(d.data_dir),
                workers: a.value_in("--workers", 1..)?.unwrap_or(d.workers),
                queue_depth: a.value_in("--queue-depth", 1..)?.unwrap_or(d.queue_depth),
                job_timeout_secs: a.value("--job-timeout-secs")?.unwrap_or(d.job_timeout_secs),
                isolate: a.switch("--isolate")?,
                cell_timeout_secs: a
                    .value_in("--cell-timeout-secs", 1..)?
                    .unwrap_or(d.cell_timeout_secs),
                crash_loop_threshold: a
                    .value_in("--crash-loop-threshold", 1..)?
                    .unwrap_or(d.crash_loop_threshold),
                max_connections: a
                    .value_in("--max-connections", 1..)?
                    .unwrap_or(d.max_connections),
                conn_deadline_secs: a
                    .value("--conn-deadline-secs")?
                    .unwrap_or(d.conn_deadline_secs),
                ..d
            }))
        }
        "submit" => {
            // Submit's own flags may come before or after the job kind.
            let addr = a.value("--addr")?;
            let data_dir = a.value("--data-dir")?;
            let wait = a.switch("--wait")?;
            let sweep_jobs = a.value_in("--sweep-jobs", 1..)?;
            let max_retries = a.value("--retries")?;
            let timeout_secs = a.value("--timeout-secs")?;
            let chaos = ChaosOptions::default();
            let kind = match a.positional().as_deref() {
                Some("sweep") => JobKind::Sweep {
                    figure: figure_number(&mut a, "submit sweep")?,
                },
                Some("chaos") => JobKind::Chaos {
                    app: a.value("--app")?.unwrap_or(chaos.app),
                    trials: a.value_in("--trials", 1..)?.unwrap_or(chaos.trials),
                    seed: a.value("--seed")?.unwrap_or(chaos.seed),
                },
                Some("verify" | "verify-model") => JobKind::Verify {
                    models: a.value_with("--models", models)?.unwrap_or_default(),
                    tests: a.value_with("--tests", litmus_tests)?.unwrap_or_default(),
                    max_runs: a.value("--max-runs")?.unwrap_or_default(),
                },
                Some(other) => {
                    return Err(format!(
                        "unknown job kind {other:?} (expected sweep, chaos or verify)"
                    )
                    .into())
                }
                None => return Err("submit needs a job kind: sweep, chaos or verify".into()),
            };
            // Everything left is machine flags: they travel as raw tokens
            // and the server re-parses them, but `validate` checks them
            // here too, so a typo fails at the prompt, not as a 400.
            let mut spec = JobSpec::new(kind, a.rest());
            spec.sweep_jobs = sweep_jobs;
            spec.max_retries = max_retries.unwrap_or(spec.max_retries);
            spec.timeout_secs = timeout_secs;
            spec.validate()?;
            Command::Submit {
                addr,
                data_dir: data_dir.unwrap_or(ServeConfig::default().data_dir),
                spec: Box::new(spec),
                wait,
            }
        }
        "status" => Command::Status {
            addr: a.value("--addr")?,
            data_dir: a
                .value("--data-dir")?
                .unwrap_or(ServeConfig::default().data_dir),
            id: a
                .positional()
                .map(|v| v.parse().map_err(|_| format!("bad job id {v:?}")))
                .transpose()?,
        },
        other => return Err(format!("unknown command {other:?}; try `dashlat help`").into()),
    };
    a.finish()?;
    Ok(command)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashlat_sim::fault::FaultPlan;
    use dashlat_sim::Cycle;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn empty_is_help() {
        assert!(matches!(parse(vec![]), Ok(Command::Help)));
        assert!(matches!(parse(v(&["help"])), Ok(Command::Help)));
        assert!(matches!(parse(v(&["--help"])), Ok(Command::Help)));
    }

    #[test]
    fn run_with_full_machine_flags() {
        let cmd = parse(v(&[
            "run",
            "--app",
            "mp3d",
            "--consistency",
            "rc",
            "--contexts",
            "4",
            "--switch",
            "16",
            "--prefetch",
            "--processors",
            "8",
            "--test-scale",
            "--chart",
        ]))
        .expect("parses");
        match cmd {
            Command::Run { app, config, chart } => {
                assert_eq!(app, App::Mp3d);
                assert!(chart);
                assert_eq!(config.processors, 8);
                assert_eq!(config.consistency, Consistency::Rc);
                assert_eq!(config.contexts, 4);
                assert_eq!(config.switch_overhead, Cycle(16));
                assert!(config.prefetching);
                assert_eq!(config.scale, AppScale::Test);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_requires_app() {
        let err = parse(v(&["run"])).unwrap_err();
        assert!(err.0.contains("--app"));
    }

    #[test]
    fn jobs_flag_validated_and_pins_default() {
        assert!(parse(v(&["figure", "3", "--jobs", "0"])).is_err());
        assert!(parse(v(&["figure", "3", "--jobs", "many"])).is_err());
        assert!(parse(v(&["figure", "3", "--jobs"])).is_err());
        // A valid count is consumed (not left as an unrecognized token)
        // and pins the process-wide sweep default.
        assert!(parse(v(&["figure", "3", "--jobs", "3"])).is_ok());
        assert_eq!(dashlat::effective_jobs(None), 3);
        dashlat::set_default_jobs(None);
    }

    #[test]
    fn figure_number_validated() {
        assert!(parse(v(&["figure", "3"])).is_ok());
        assert!(parse(v(&["figure", "7"])).is_err());
        assert!(parse(v(&["figure"])).is_err());
        assert!(parse(v(&["figure", "three"])).is_err());
    }

    #[test]
    fn table_number_validated() {
        assert!(parse(v(&["table", "1"])).is_ok());
        assert!(parse(v(&["table", "2"])).is_ok());
        assert!(parse(v(&["table", "3"])).is_err());
    }

    #[test]
    fn trace_subcommands() {
        let cmd = parse(v(&[
            "trace",
            "record",
            "--app",
            "lu",
            "--out",
            "/tmp/t.trace",
        ]))
        .expect("parses");
        assert!(matches!(cmd, Command::TraceRecord { app: App::Lu, .. }));
        let cmd = parse(v(&[
            "trace",
            "replay",
            "--in",
            "/tmp/t.trace",
            "--consistency",
            "rc",
        ]))
        .expect("parses");
        match cmd {
            Command::TraceReplay { input, config } => {
                assert_eq!(input, "/tmp/t.trace");
                assert_eq!(config.consistency, Consistency::Rc);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(v(&["trace", "compress"])).is_err());
        assert!(parse(v(&["trace"])).is_err());
    }

    #[test]
    fn analyze_defaults() {
        let cmd = parse(v(&["analyze"])).expect("parses");
        match cmd {
            Command::Analyze {
                apps,
                input,
                passes,
                config,
            } => {
                assert!(apps.is_empty());
                assert!(input.is_none());
                assert_eq!(passes, PassKind::ALL.to_vec());
                assert_eq!(config.processors, 16);
                assert_eq!(config.consistency, Consistency::Rc);
                assert_eq!(config.scale, AppScale::Test);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn analyze_overrides() {
        let cmd = parse(v(&[
            "analyze",
            "--app",
            "mp3d",
            "--app",
            "lu",
            "--passes",
            "hb,lockset",
            "--consistency",
            "sc",
            "--paper-scale",
            "--prefetch",
        ]))
        .expect("parses");
        match cmd {
            Command::Analyze {
                apps,
                passes,
                config,
                ..
            } => {
                assert_eq!(apps, vec![App::Mp3d, App::Lu]);
                assert_eq!(passes, vec![PassKind::HappensBefore, PassKind::Lockset]);
                assert_eq!(config.consistency, Consistency::Sc);
                assert_eq!(config.scale, AppScale::Paper);
                assert!(config.prefetching);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn analyze_trace_input() {
        let cmd = parse(v(&["analyze", "--in", "/tmp/t.trace"])).expect("parses");
        assert!(matches!(
            cmd,
            Command::Analyze { ref input, .. } if input.as_deref() == Some("/tmp/t.trace")
        ));
        assert!(parse(v(&["analyze", "--in", "/tmp/t.trace", "--app", "lu"])).is_err());
        assert!(parse(v(&["analyze", "--passes", "bogus"])).is_err());
    }

    #[test]
    fn lint_defaults() {
        let cmd = parse(v(&["lint"])).expect("parses");
        match cmd {
            Command::Lint {
                apps,
                all,
                input,
                json,
                strict,
                config,
            } => {
                assert!(apps.is_empty());
                assert!(!all);
                assert!(input.is_none());
                assert!(!json);
                assert!(!strict);
                assert_eq!(config.consistency, Consistency::Rc);
                assert_eq!(config.scale, AppScale::Test);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lint_overrides_and_exclusions() {
        let cmd = parse(v(&[
            "lint",
            "--app",
            "lu",
            "--all",
            "--json",
            "--strict",
            "--consistency",
            "sc",
            "--prefetch",
        ]))
        .expect("parses");
        match cmd {
            Command::Lint {
                apps,
                all,
                json,
                strict,
                config,
                ..
            } => {
                assert_eq!(apps, vec![App::Lu]);
                assert!(all && json && strict);
                assert_eq!(config.consistency, Consistency::Sc);
                assert!(config.prefetching);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&["lint", "--in", "/tmp/t.trace"])).expect("parses");
        assert!(matches!(
            cmd,
            Command::Lint { ref input, .. } if input.as_deref() == Some("/tmp/t.trace")
        ));
        assert!(parse(v(&["lint", "--in", "/tmp/t.trace", "--app", "lu"])).is_err());
        assert!(parse(v(&["lint", "--in", "/tmp/t.trace", "--all"])).is_err());
    }

    #[test]
    fn analyze_machine_flag() {
        let cmd = parse(v(&["run", "--app", "lu", "--analyze", "all"])).expect("parses");
        match cmd {
            Command::Run { config, .. } => {
                assert_eq!(config.analyze, PassKind::ALL.to_vec());
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&["figure", "2", "--analyze", "hb", "--test-scale"])).expect("parses");
        match cmd {
            Command::Figure { config, .. } => {
                assert_eq!(config.analyze, vec![PassKind::HappensBefore]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(v(&["run", "--app", "lu", "--analyze", "bogus"])).is_err());
    }

    #[test]
    fn verify_model_defaults_and_flags() {
        let cmd = parse(v(&["verify-model"])).expect("parses");
        match cmd {
            Command::VerifyModel { suite, list } => {
                assert_eq!(suite.models, vec![Consistency::Sc, Consistency::Rc]);
                assert!(suite.tests.is_empty());
                assert_eq!(suite.filter, None);
                assert_eq!(suite.max_runs, 0);
                assert!(!list && !suite.stats && !suite.strict && !suite.deep_closure);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&["verify-model", "--all"])).expect("parses");
        match cmd {
            Command::VerifyModel { suite, .. } => {
                assert_eq!(suite.models, dashlat_verify::ALL_MODELS.to_vec());
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&[
            "verify-model",
            "--models",
            "sc,wc",
            "--tests",
            "sb,mp",
            "--max-runs",
            "500",
        ]))
        .expect("parses");
        match cmd {
            Command::VerifyModel { suite, list } => {
                assert_eq!(suite.models, vec![Consistency::Sc, Consistency::Wc]);
                assert_eq!(suite.tests, ["sb", "mp"]);
                assert_eq!(suite.filter, None);
                assert_eq!(suite.max_runs, 500);
                assert!(!list && !suite.stats && !suite.strict && !suite.deep_closure);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(v(&["verify-model", "--all", "--models", "sc"])).is_err());
        assert!(parse(v(&["verify-model", "--tests", "bogus"])).is_err());
        assert!(parse(v(&["verify-model", "--models", "tso"])).is_err());
        assert!(parse(v(&["verify-model", "--max-runs", "many"])).is_err());
        assert!(parse(v(&["verify-model", "--bogus"])).is_err());
    }

    #[test]
    fn verify_model_dpor_flags() {
        let cmd = parse(v(&[
            "verify-model",
            "--filter",
            "rmw_*",
            "--stats",
            "--strict",
            "--deep-closure",
        ]))
        .expect("parses");
        match cmd {
            Command::VerifyModel { suite, list } => {
                assert_eq!(suite.filter.as_deref(), Some("rmw_*"));
                assert!(suite.stats && suite.strict && suite.deep_closure && !list);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&["verify-model", "--list"])).expect("parses");
        match cmd {
            Command::VerifyModel { list, .. } => assert!(list),
            other => panic!("unexpected {other:?}"),
        }
        // --filter and --tests conflict; unknown globs are fine (they
        // simply select nothing — the suite reports zero cells).
        assert!(parse(v(&["verify-model", "--tests", "sb", "--filter", "s*"])).is_err());
        assert!(parse(v(&["verify-model", "--filter"])).is_err());
    }

    #[test]
    fn bad_values_are_reported() {
        assert!(parse(v(&["run", "--app", "spice"])).is_err());
        assert!(parse(v(&["run", "--app", "lu", "--consistency", "tso"])).is_err());
        assert!(parse(v(&["run", "--app", "lu", "--processors", "0"])).is_err());
        assert!(parse(v(&["run", "--app", "lu", "--processors", "65"])).is_err());
        assert!(parse(v(&["run", "--app", "lu", "--contexts", "0"])).is_err());
        assert!(parse(v(&["run", "--app", "lu", "--dir-pointers", "0"])).is_err());
        assert!(parse(v(&["run", "--app", "lu", "--bogus"])).is_err());
        assert!(parse(v(&["launch"])).is_err());
    }

    #[test]
    fn fault_flags() {
        let cmd = parse(v(&[
            "run",
            "--app",
            "lu",
            "--faults",
            "heavy:42",
            "--check-invariants",
        ]))
        .expect("parses");
        match cmd {
            Command::Run { config, .. } => {
                let plan = config.faults.expect("fault plan set");
                assert_eq!(plan.seed, 42);
                assert!(plan.is_active());
                assert!(config.check_invariants);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(v(&["run", "--app", "lu", "--faults", "bogus"])).is_err());
        assert!(parse(v(&["run", "--app", "lu", "--faults"])).is_err());
    }

    #[test]
    fn sweep_parsing_defaults_and_overrides() {
        let cmd = parse(v(&["sweep", "3", "--test-scale"])).expect("parses");
        match cmd {
            Command::Sweep {
                number,
                journal,
                out,
                resume,
                isolate,
                timeout_secs,
                opts,
                config,
            } => {
                assert_eq!(number, 3);
                assert_eq!(journal, "sweep-figure3.journal");
                assert_eq!(out, "sweep-figure3.json");
                assert!(!resume);
                assert!(!isolate);
                assert_eq!(timeout_secs, 600);
                assert_eq!(opts.max_retries, 2);
                assert_eq!(opts.bundle_dir, None);
                assert_eq!(config.scale, AppScale::Test);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&[
            "sweep",
            "4",
            "--journal",
            "/tmp/j",
            "--out",
            "/tmp/o.json",
            "--resume",
            "--isolate",
            "--timeout-secs",
            "30",
            "--retries",
            "5",
            "--bundle-dir",
            "/tmp/bundles",
        ]))
        .expect("parses");
        match cmd {
            Command::Sweep {
                number,
                journal,
                out,
                resume,
                isolate,
                timeout_secs,
                opts,
                ..
            } => {
                assert_eq!(number, 4);
                assert_eq!(journal, "/tmp/j");
                assert_eq!(out, "/tmp/o.json");
                assert!(resume);
                assert!(isolate);
                assert_eq!(timeout_secs, 30);
                assert_eq!(opts.max_retries, 5);
                assert_eq!(opts.bundle_dir, Some("/tmp/bundles".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(v(&["sweep"])).is_err());
        assert!(parse(v(&["sweep", "7"])).is_err());
        assert!(parse(v(&["sweep", "3", "--timeout-secs", "0"])).is_err());
        assert!(parse(v(&["sweep", "3", "--retries", "many"])).is_err());
    }

    #[test]
    fn cell_and_repro_parsing() {
        let cmd = parse(v(&["cell", "--app", "mp3d", "--test-scale"])).expect("parses");
        match cmd {
            Command::Cell { app, config } => {
                assert_eq!(app, App::Mp3d);
                assert_eq!(config.scale, AppScale::Test);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(v(&["cell"])).is_err());
        assert!(matches!(
            parse(v(&["repro", "/tmp/b.json"])),
            Ok(Command::Repro { bundle }) if bundle == "/tmp/b.json"
        ));
        assert!(parse(v(&["repro"])).is_err());
        assert!(parse(v(&["repro", "/tmp/b.json", "extra"])).is_err());
    }

    #[test]
    fn chaos_parsing_defaults_and_overrides() {
        let cmd = parse(v(&["chaos"])).expect("parses");
        match cmd {
            Command::Chaos { opts, bundle_dir } => {
                assert_eq!(opts.app, App::Lu);
                assert_eq!(opts.trials, 25);
                assert_eq!(opts.seed, 1);
                assert!(opts.check_determinism);
                assert_eq!(bundle_dir, ".");
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&[
            "chaos",
            "--app",
            "pthor",
            "--trials",
            "3",
            "--seed",
            "99",
            "--no-determinism",
            "--bundle-dir",
            "/tmp/b",
            "--test-scale",
        ]))
        .expect("parses");
        match cmd {
            // Without --serve the fuzzer runs; --data-dir and the
            // calibration budget belong to `chaos --serve` only.
            Command::Chaos { opts, bundle_dir } => {
                assert_eq!(opts.app, App::Pthor);
                assert_eq!(opts.trials, 3);
                assert_eq!(opts.seed, 99);
                assert!(!opts.check_determinism);
                assert_eq!(bundle_dir, "/tmp/b");
                assert_eq!(opts.base.scale, AppScale::Test);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Chaos owns the fault schedule.
        assert!(parse(v(&["chaos", "--faults", "heavy"])).is_err());
        assert!(parse(v(&["chaos", "--trials", "0"])).is_err());
    }

    #[test]
    fn invariant_and_fifo_flags() {
        let cmd = parse(v(&["run", "--app", "lu", "--no-check-invariants"])).expect("parses");
        match cmd {
            Command::Run { config, .. } => assert!(!config.check_invariants),
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&["run", "--app", "lu", "--enforce-wb-fifo"])).expect("parses");
        match cmd {
            Command::Run { config, .. } => assert!(config.enforce_wb_fifo),
            other => panic!("unexpected {other:?}"),
        }
        #[cfg(not(feature = "verify-mutations"))]
        {
            let err = parse(v(&["run", "--app", "lu", "--mutate-ww"])).unwrap_err();
            assert!(err.0.contains("verify-mutations"), "{}", err.0);
        }
        #[cfg(feature = "verify-mutations")]
        {
            let cmd = parse(v(&["run", "--app", "lu", "--mutate-ww"])).expect("parses");
            match cmd {
                Command::Run { config, .. } => assert!(config.mutate_ww),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn to_cli_args_round_trips_through_the_parser() {
        // Repro bundles store `ExperimentConfig::to_cli_args()` and replay
        // it through the machine-flag parser; every knob must survive the
        // text detour exactly.
        let mut no_contention = ExperimentConfig::base_test();
        no_contention.contention = false;
        let variants = vec![
            ExperimentConfig::base(),
            ExperimentConfig::base_test(),
            ExperimentConfig::base_test()
                .with_rc()
                .with_prefetching()
                .with_contexts(4, Cycle(16)),
            ExperimentConfig::base_test()
                .without_caching()
                .with_mesh_network()
                .with_limited_directory(3),
            ExperimentConfig::base_test()
                .with_full_caches()
                .with_read_lookahead(Cycle(8))
                .with_invariant_checks(true)
                .with_wb_fifo_enforcement(),
            ExperimentConfig::base_test()
                .with_faults(FaultPlan::heavy(u64::MAX))
                .with_invariant_checks(false),
            ExperimentConfig::base_test()
                .with_analysis(vec![PassKind::HappensBefore, PassKind::Lockset]),
            no_contention,
        ];
        for cfg in variants {
            let mut argv = cfg.to_cli_args();
            let parsed = dashlat::parse_machine_args(&mut argv).expect("round-trip parse");
            assert!(argv.is_empty(), "unconsumed args: {argv:?}");
            assert_eq!(parsed, cfg);
        }
    }

    #[test]
    fn usage_documents_every_exit_code_and_subcommand() {
        for needle in [
            "8 chaos found a failing schedule",
            "9 repro bundle did not reproduce",
            "10 service error",
            "11 static lint found critical findings",
            "7, then 4, 2, 3, 6, 8, 9, 11, 5, 10, and 1 last",
            "dashlat sweep",
            "dashlat lint",
            "dashlat repro",
            "dashlat chaos",
            "dashlat serve",
            "dashlat submit",
            "dashlat status",
            "--enforce-wb-fifo",
            "--no-check-invariants",
            "a repeated flag is an",
        ] {
            assert!(USAGE.contains(needle), "USAGE missing {needle:?}");
        }
    }

    #[test]
    fn serve_parsing_defaults_and_overrides() {
        let cmd = parse(v(&["serve"])).expect("parses");
        match cmd {
            Command::Serve(c) => {
                assert_eq!(c.addr, "127.0.0.1:0");
                assert_eq!(c.data_dir, PathBuf::from("dashlat-serve-data"));
                assert_eq!(c.workers, 2);
                assert_eq!(c.queue_depth, 8);
                assert_eq!(c.job_timeout_secs, 3600);
                assert!(!c.isolate);
                assert_eq!(c.cell_timeout_secs, 300);
                assert_eq!(c.crash_loop_threshold, 8);
                assert_eq!(c.max_connections, 64);
                assert_eq!(c.conn_deadline_secs, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&[
            "serve",
            "--addr",
            "127.0.0.1:8123",
            "--data-dir",
            "/tmp/d",
            "--workers",
            "4",
            "--queue-depth",
            "2",
            "--job-timeout-secs",
            "0",
        ]))
        .expect("parses");
        match cmd {
            Command::Serve(c) => {
                assert_eq!(c.addr, "127.0.0.1:8123");
                assert_eq!(c.data_dir, PathBuf::from("/tmp/d"));
                assert_eq!(c.workers, 4);
                assert_eq!(c.queue_depth, 2);
                assert_eq!(c.job_timeout_secs, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(v(&["serve", "--workers", "0"])).is_err());
        assert!(parse(v(&["serve", "--queue-depth", "0"])).is_err());
        assert!(parse(v(&["serve", "--bogus"])).is_err());
        assert!(parse(v(&["serve", "--cell-timeout-secs", "0"])).is_err());
        assert!(parse(v(&["serve", "--max-connections", "0"])).is_err());
        assert!(parse(v(&["serve", "--crash-loop-threshold", "0"])).is_err());
    }

    #[test]
    fn serve_hardening_flags_parse() {
        let cmd = parse(v(&[
            "serve",
            "--isolate",
            "--cell-timeout-secs",
            "30",
            "--crash-loop-threshold",
            "3",
            "--max-connections",
            "16",
            "--conn-deadline-secs",
            "3",
        ]))
        .expect("parses");
        match cmd {
            Command::Serve(c) => {
                assert!(c.isolate);
                assert_eq!(c.cell_timeout_secs, 30);
                assert_eq!(c.crash_loop_threshold, 3);
                assert_eq!(c.max_connections, 16);
                assert_eq!(c.conn_deadline_secs, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chaos_serve_parsing() {
        let cmd = parse(v(&["chaos", "--serve"])).expect("parses");
        match cmd {
            Command::ServeTorture(opts) => {
                // Service campaigns default to fewer, heavier trials.
                assert_eq!(opts.trials, 8);
                assert_eq!(opts.seed, 1);
                assert_eq!(
                    opts.data_root,
                    dashlat_serve::TortureOptions::default().data_root
                );
                assert_eq!(opts.calibration_budget_ms, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&[
            "chaos",
            "--serve",
            "--trials",
            "2",
            "--seed",
            "42",
            "--data-dir",
            "/tmp/torture",
            "--calibration-budget-ms",
            "1500",
        ]))
        .expect("parses");
        match cmd {
            Command::ServeTorture(opts) => {
                assert_eq!(opts.trials, 2);
                assert_eq!(opts.seed, 42);
                assert_eq!(opts.data_root, PathBuf::from("/tmp/torture"));
                assert_eq!(opts.calibration_budget_ms, 1500);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The torture-only flags demand --serve.
        assert!(parse(v(&["chaos", "--data-dir", "/tmp/x"])).is_err());
        assert!(parse(v(&["chaos", "--calibration-budget-ms", "5"])).is_err());
    }

    #[test]
    fn submit_builds_specs_and_validates_machine_flags() {
        let cmd = parse(v(&[
            "submit",
            "--wait",
            "--sweep-jobs",
            "1",
            "sweep",
            "3",
            "--test-scale",
            "--processors",
            "4",
        ]))
        .expect("parses");
        match cmd {
            Command::Submit {
                addr,
                data_dir,
                spec,
                wait,
            } => {
                assert_eq!(addr, None);
                assert_eq!(data_dir, PathBuf::from("dashlat-serve-data"));
                assert!(wait);
                assert_eq!(spec.kind, dashlat_serve::JobKind::Sweep { figure: 3 });
                assert_eq!(spec.sweep_jobs, Some(1));
                // Raw machine tokens travel verbatim and parse on the
                // server side too.
                assert_eq!(spec.machine, v(&["--test-scale", "--processors", "4"]));
                assert!(spec.machine_config().is_ok());
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&[
            "submit",
            "--addr",
            "1.2.3.4:80",
            "chaos",
            "--app",
            "pthor",
            "--trials",
            "3",
            "--seed",
            "9",
        ]))
        .expect("parses");
        match cmd {
            Command::Submit { addr, spec, .. } => {
                assert_eq!(addr.as_deref(), Some("1.2.3.4:80"));
                assert_eq!(
                    spec.kind,
                    dashlat_serve::JobKind::Chaos {
                        app: App::Pthor,
                        trials: 3,
                        seed: 9,
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(v(&[
            "submit", "verify", "--models", "sc,rc", "--tests", "sb",
        ]))
        .expect("parses");
        match cmd {
            Command::Submit { spec, .. } => {
                assert_eq!(
                    spec.kind,
                    dashlat_serve::JobKind::Verify {
                        models: vec![Consistency::Sc, Consistency::Rc],
                        tests: vec!["sb".into()],
                        max_runs: 0,
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Machine flags are validated at the prompt, not an hour later.
        assert!(parse(v(&["submit", "sweep", "3", "--bogus"])).is_err());
        assert!(parse(v(&["submit", "sweep", "7"])).is_err());
        assert!(parse(v(&["submit", "dance"])).is_err());
        assert!(parse(v(&["submit"])).is_err());
    }

    #[test]
    fn status_parsing() {
        assert!(matches!(
            parse(v(&["status"])),
            Ok(Command::Status { addr: None, data_dir, id: None })
                if data_dir == std::path::Path::new("dashlat-serve-data")
        ));
        assert!(matches!(
            parse(v(&["status", "7", "--data-dir", "/tmp/d"])),
            Ok(Command::Status { addr: None, data_dir, id: Some(7) })
                if data_dir == std::path::Path::new("/tmp/d")
        ));
        assert!(parse(v(&["status", "seven"])).is_err());
    }

    #[test]
    fn machine_flag_variants() {
        let cmd = parse(v(&[
            "run",
            "--app",
            "pthor",
            "--no-cache",
            "--mesh",
            "--dir-pointers",
            "2",
            "--full-caches",
            "--no-contention",
        ]))
        .expect("parses");
        match cmd {
            Command::Run { config, .. } => {
                assert!(!config.caching);
                assert!(!config.contention);
                assert!(config.full_caches);
                assert_eq!(config.network, dashlat_mem::NetworkModel::Mesh2D);
                assert_eq!(
                    config.directory,
                    dashlat_mem::directory::DirectoryKind::LimitedPtr { pointers: 2 }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Machine flags: `flag | good value, or - for a switch | malformed
    /// values`. Every command line in `MACHINE_COMMANDS` takes them all.
    /// (`--jobs 3` matches `jobs_flag_validated_and_pins_default`, which
    /// pins the same process-wide default concurrently.)
    const MACHINE_FLAGS: &str = "
        --processors          | 4       | x 0 65
        --consistency         | rc      | tso
        --contexts            | 2       | x 0
        --switch              | 16      | x
        --prefetch            | -       |
        --no-cache            | -       |
        --full-caches         | -       |
        --no-contention       | -       |
        --mesh                | -       |
        --dir-pointers        | 2       | x 0
        --lookahead           | 8       | x
        --test-scale          | -       |
        --jobs                | 3       | x 0
        --faults              | light:7 | bogus
        --check-invariants    | -       |
        --no-check-invariants | -       |
        --enforce-wb-fifo     | -       |
        --analyze             | hb      | bogus
    ";

    /// Every command line that takes machine flags, minimal and valid.
    const MACHINE_COMMANDS: &str = "
        run --app lu
        figure 3
        table 2
        summary
        trace record --app lu --out t.trace
        trace replay --in t.trace
        analyze
        lint
        sweep 3
        cell --app lu
        chaos
        chaos --serve
        submit sweep 3
        submit chaos
        submit verify
    ";

    /// Subcommand flags: `valid command line | flag | good value, or -
    /// for a switch | malformed values | * when repeatable`.
    const COMMAND_FLAGS: &str = "
        run                     | --app                   | lu             | spice
        run --app lu            | --chart                 | -              |
        figure 3                | --csv                   | -              |
        trace record --out t    | --app                   | lu             | spice
        trace record --app lu   | --out                   | t              |
        trace replay            | --in                    | t              |
        analyze                 | --app                   | lu             | spice | *
        analyze                 | --in                    | t              |
        analyze                 | --passes                | hb,lockset     | bogus
        analyze                 | --paper-scale           | -              |
        lint                    | --app                   | lu             | spice | *
        lint                    | --all                   | -              |
        lint                    | --in                    | t              |
        lint                    | --json                  | -              |
        lint                    | --strict                | -              |
        lint                    | --paper-scale           | -              |
        sweep 3                 | --journal               | j              |
        sweep 3                 | --out                   | o.json         |
        sweep 3                 | --resume                | -              |
        sweep 3                 | --isolate               | -              |
        sweep 3                 | --timeout-secs          | 30             | x 0
        sweep 3                 | --retries               | 5              | x
        sweep 3                 | --bundle-dir            | b              |
        cell                    | --app                   | lu             | spice
        chaos                   | --app                   | pthor          | spice
        chaos                   | --trials                | 3              | x 0
        chaos                   | --seed                  | 9              | x
        chaos                   | --no-determinism        | -              |
        chaos                   | --bundle-dir            | b              |
        chaos                   | --serve                 | -              |
        chaos --serve           | --trials                | 2              | x 0
        chaos --serve           | --seed                  | 42             | x
        chaos --serve           | --data-dir              | d              |
        chaos --serve           | --calibration-budget-ms | 1500           | x
        verify-model            | --all                   | -              |
        verify-model            | --models                | sc,wc          | tso
        verify-model            | --tests                 | sb,mp          | no_such_test
        verify-model            | --filter                | rmw_*          |
        verify-model            | --max-runs              | 500            | x
        verify-model            | --list                  | -              |
        verify-model            | --stats                 | -              |
        verify-model            | --strict                | -              |
        verify-model            | --deep-closure          | -              |
        serve                   | --addr                  | 127.0.0.1:8123 |
        serve                   | --data-dir              | d              |
        serve                   | --workers               | 4              | x 0
        serve                   | --queue-depth           | 2              | x 0
        serve                   | --job-timeout-secs      | 0              | x
        serve                   | --isolate               | -              |
        serve                   | --cell-timeout-secs     | 30             | x 0
        serve                   | --crash-loop-threshold  | 3              | x 0
        serve                   | --max-connections       | 16             | x 0
        serve                   | --conn-deadline-secs    | 3              | x
        submit sweep 3          | --addr                  | 1.2.3.4:80     |
        submit sweep 3          | --data-dir              | d              |
        submit sweep 3          | --wait                  | -              |
        submit sweep 3          | --sweep-jobs            | 1              | x 0
        submit sweep 3          | --retries               | 5              | x
        submit sweep 3          | --timeout-secs          | 60             | x
        submit chaos            | --app                   | pthor          | spice
        submit chaos            | --trials                | 3              | x 0
        submit chaos            | --seed                  | 9              | x
        submit verify           | --models                | sc,rc          | tso
        submit verify           | --tests                 | sb             | no_such_test
        submit verify           | --max-runs              | 500            | x
        status                  | --addr                  | 1.2.3.4:80     |
        status                  | --data-dir              | d              |
    ";

    /// Rows that are not one flag three ways — positionals, required
    /// flags, flags given to the wrong subcommand, conflicting flags:
    /// `command line | ok, or the word the rejection must name`.
    const OTHER_ROWS: &str = "
        help                                              | ok
        launch                                            | launch
        figure                                            | figure
        figure x                                          | figure
        figure 7                                          | figure
        table                                             | table
        table x                                           | table
        table 3                                           | table
        sweep                                             | sweep
        sweep x                                           | sweep
        sweep 7                                           | sweep
        submit                                            | submit
        submit dance                                      | dance
        submit sweep                                      | sweep
        submit sweep x                                    | sweep
        submit sweep 7                                    | sweep
        trace                                             | trace
        trace compress                                    | compress
        repro b.json                                      | ok
        repro                                             | repro
        repro b.json extra                                | extra
        status 7                                          | ok
        status seven                                      | job id
        status 7 8                                        | 8
        run                                               | --app
        cell                                              | --app
        trace record --app lu                             | --out
        trace replay                                      | --in
        run --app lu --csv                                | --csv
        figure 3 --chart                                  | --chart
        table 1 --csv                                     | --csv
        summary --resume                                  | --resume
        sweep 3 --csv                                     | --csv
        cell --app lu --retries 2                         | --retries
        analyze --all                                     | --all
        lint --passes hb                                  | --passes
        chaos --resume                                    | --resume
        chaos --data-dir d                                | --data-dir
        chaos --calibration-budget-ms 5                   | --calibration-budget-ms
        verify-model --test-scale                         | --test-scale
        verify-model --app lu                             | --app
        serve --test-scale                                | --test-scale
        serve --wait                                      | --wait
        status --workers 2                                | --workers
        repro b.json --test-scale                         | --test-scale
        submit sweep 3 --models sc                        | --models
        submit verify --trials 2                          | --trials
        analyze --in t --app lu                           | --in
        lint --in t --all                                 | --in
        verify-model --all --models sc                    | --all
        verify-model --tests sb --filter s                | --filter
        run --app lu --check-invariants --no-check-invariants | --check-invariants
    ";

    /// A row: an argv, and `None` when it must parse or the word its
    /// rejection must name.
    type Row = (Vec<String>, Option<&'static str>);

    /// The trimmed `|`-separated columns of each non-blank line.
    fn table(text: &'static str) -> impl Iterator<Item = Vec<&'static str>> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.split('|').map(str::trim).collect())
    }

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// One flag three ways — a good value, no value, each malformed
    /// value — and given twice, which is rejected unless repeatable.
    fn flag_rows(
        rows: &mut Vec<Row>,
        base: &str,
        flag: &'static str,
        good: &str,
        bad: &str,
        repeatable: bool,
    ) {
        let once = if good == "-" {
            flag.to_owned()
        } else {
            format!("{flag} {good}")
        };
        rows.push((words(&format!("{base} {once}")), None));
        let twice = (!repeatable).then_some(flag);
        rows.push((words(&format!("{base} {once} {once}")), twice));
        if good != "-" {
            rows.push((words(&format!("{base} {flag}")), Some(flag)));
        }
        for b in bad.split_whitespace() {
            rows.push((words(&format!("{base} {flag} {b}")), Some(flag)));
        }
    }

    /// The golden table: every row's argv and expected outcome.
    fn golden_rows() -> Vec<Row> {
        let mut rows = Vec::new();
        for base in MACHINE_COMMANDS
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
        {
            for c in table(MACHINE_FLAGS) {
                flag_rows(&mut rows, base, c[0], c[1], c[2], false);
            }
            let mutate = (!cfg!(feature = "verify-mutations")).then_some("--mutate-ww");
            rows.push((words(&format!("{base} --mutate-ww")), mutate));
        }
        // Chaos draws its own fault schedules.
        for (argv, want) in &mut rows {
            if argv[0] == "chaos" && argv.iter().any(|a| a == "--faults") {
                *want = Some("--faults");
            }
        }
        for c in table(COMMAND_FLAGS) {
            flag_rows(&mut rows, c[0], c[1], c[2], c[3], c.get(4) == Some(&"*"));
        }
        rows.extend(table(OTHER_ROWS).map(|c| (words(c[0]), (c[1] != "ok").then_some(c[1]))));
        rows
    }

    #[test]
    fn golden_parse_table() {
        let rows = golden_rows();
        assert_eq!(rows.len(), 1178);
        let off: Vec<String> = rows
            .iter()
            .filter_map(|(argv, want)| {
                let got = parse(argv.clone());
                let ok = match (want, &got) {
                    (None, Ok(_)) => true,
                    (Some(word), Err(e)) => e.0.contains(word),
                    _ => false,
                };
                (!ok).then(|| format!("{argv:?}: want error naming {want:?}, got {got:?}"))
            })
            .collect();
        assert!(
            off.is_empty(),
            "{} row(s) off:\n{}",
            off.len(),
            off.join("\n")
        );
    }
}
