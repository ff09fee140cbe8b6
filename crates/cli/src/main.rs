#![deny(missing_docs)]
//! `dashlat` — command-line front-end for the dash-latency simulator.
//!
//! ```sh
//! dashlat run --app mp3d --consistency rc --prefetch --chart
//! dashlat figure 3
//! dashlat trace record --app lu --test-scale --out lu.trace
//! dashlat trace replay --in lu.trace --consistency rc
//! ```

mod args;
use dashlat::isolate;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use args::{parse, ArgError, Command, USAGE};
use dashlat::apps::App;
use dashlat::args::Args;
use dashlat::chaos::{active_classes, run_chaos};
use dashlat::config::ExperimentConfig;
use dashlat::experiments::FigureReport;
use dashlat::report::{describe_run, AppFigure, Figure};
use dashlat::runner::{run, RunFailure};
use dashlat::sweep::{run_cell_in_process, run_supervised, ReproBundle, SweepCell, SweepPlan};
use dashlat_cpu::machine::{Machine, RunError};
use dashlat_cpu::ops::Topology;
use dashlat_cpu::trace::{Trace, TraceRecorder};
use dashlat_mem::layout::AddressSpaceBuilder;
use dashlat_mem::system::MemorySystem;
use dashlat_sim::Cycle;

/// A failure and the exit code it ends the process with (see `EXIT
/// CODES` in [`USAGE`]). Paths where failures co-occur (a figure matrix,
/// a sweep) pre-rank them under the shared precedence,
/// [`dashlat::runner::EXIT_SEVERITY`], before building one.
#[derive(Debug)]
struct WorstFailure {
    code: u8,
    msg: String,
}

/// Analysis found data races: the subjects are not properly labeled.
const EXIT_RACE: u8 = 6;
/// The memory-model verifier found a violation (or could not establish
/// exhaustiveness, which is treated just as seriously).
const EXIT_MODEL_VIOLATION: u8 = 7;
/// A chaos campaign found a failing schedule (shrunk and reported).
const EXIT_CHAOS_FOUND: u8 = 8;
/// A repro bundle's recorded failure did not reproduce on replay.
const EXIT_REPRO_DIVERGED: u8 = 9;
/// The job service could not be reached, rejected a request, or a
/// remote job failed without a mappable exit code of its own.
const EXIT_SERVICE: u8 = 10;
/// The static lint found critical findings (a statically possible
/// deadlock, barrier divergence, or under-labeled race), or — under
/// `--strict` — an incomplete analysis.
const EXIT_LINT: u8 = 11;

impl WorstFailure {
    fn new(code: u8, msg: impl Into<String>) -> Self {
        Self {
            code,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for WorstFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for WorstFailure {}

/// A job-service failure (exit 10).
fn service_error(msg: String) -> WorstFailure {
    WorstFailure::new(EXIT_SERVICE, msg)
}

/// Distinct exit codes so scripts can tell failure classes apart: the
/// CLI's own failures carry theirs in [`WorstFailure`]; a simulation
/// failure maps through [`RunFailure::exit_code`] (2 deadlock,
/// 3 livelock, 4 invariant violation, 6 race); anything else is 1.
fn exit_code_for(e: &(dyn std::error::Error + 'static)) -> ExitCode {
    ExitCode::from(if let Some(w) = e.downcast_ref::<WorstFailure>() {
        w.code
    } else if let Some(f) = e.downcast_ref::<RunFailure>() {
        f.exit_code()
    } else if let Some(err) = e.downcast_ref::<RunError>() {
        RunFailure::Error(err.clone()).exit_code()
    } else {
        1
    })
}

fn main() -> ExitCode {
    // A malformed fault spec fails here, before any command touches a file.
    if let Err(e) = dashlat_sim::faultfs::env_plan() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(argv) {
        Ok(cmd) => match execute(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                exit_code_for(e.as_ref())
            }
        },
        Err(ArgError(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn execute(cmd: Command) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Run { app, config, chart } => {
            let e = run(app, &config)?;
            println!("{}", describe_run(&e));
            let b = &e.result.aggregate;
            println!(
                "breakdown: busy {} | read {} | write {} | sync {} | prefetch {} | \
                 switch {} | idle {} | no-switch {}",
                b.busy,
                b.read_stall,
                b.write_stall,
                b.sync_stall,
                b.prefetch_overhead,
                b.switching,
                b.all_idle,
                b.no_switch
            );
            if let Some(report) = &e.analysis {
                println!("{}", report.render());
                if report.race_detected() {
                    return Err(WorstFailure::new(
                        EXIT_RACE,
                        "1 subject(s) failed race-freedom certification",
                    )
                    .into());
                }
            }
            if chart {
                let fig = Figure {
                    title: format!("{app} on {}", config.label()),
                    groups: vec![AppFigure::from_experiments(&[e])],
                };
                println!("{}", fig.render_chart());
            }
            Ok(())
        }
        Command::Figure {
            number,
            config,
            csv,
        } => {
            let report = dashlat::experiments::figure(number, &config);
            for (app, label, failure) in &report.failures {
                eprintln!("warning: {app}/{label} failed: {failure}");
            }
            if csv {
                print!("{}", report.figure.to_csv());
            } else {
                println!("{}", report.figure.render());
                println!("{}", report.figure.render_chart());
            }
            figure_outcome(&report)
        }
        Command::Table { number, config } => {
            match number {
                1 => println!("{}", dashlat::experiments::table1()),
                2 => println!("{}", dashlat::experiments::table2(&config)?.render()),
                _ => unreachable!("validated by the parser"),
            }
            Ok(())
        }
        Command::Summary { config } => {
            println!("{}", dashlat::experiments::summary(&config)?.render());
            Ok(())
        }
        Command::TraceRecord { app, out, config } => {
            let trace = record_trace(app, &config)?;
            std::fs::write(&out, trace.to_text())?;
            println!(
                "recorded {} ops from {} ({} processes) to {out}",
                trace.len(),
                app,
                trace.streams.len()
            );
            Ok(())
        }
        Command::TraceReplay { input, config } => {
            let text = std::fs::read_to_string(&input)?;
            let trace = Trace::from_text(&text)?;
            let processes = trace.streams.len();
            let mut cfg = (*config).clone();
            // The trace fixes the process count; derive the topology.
            if processes % cfg.contexts != 0 {
                return Err(format!(
                    "trace has {processes} processes, not divisible by {} contexts",
                    cfg.contexts
                )
                .into());
            }
            cfg.processors = processes / cfg.contexts;
            let topo = cfg.topology();
            // Reconstruct the recorded page placement when available so
            // local/remote classification matches the original run;
            // otherwise fall back to a flat round-robin region.
            let page_map = match &trace.page_homes {
                Some((nodes, homes)) if *nodes == cfg.processors => {
                    dashlat_mem::layout::PageMap::from_homes(
                        homes.iter().map(|&h| dashlat_mem::NodeId(h)).collect(),
                        *nodes,
                    )
                }
                _ => {
                    let max_addr = trace
                        .streams
                        .iter()
                        .flatten()
                        .filter_map(|op| match op {
                            dashlat_cpu::ops::Op::Read(a)
                            | dashlat_cpu::ops::Op::Write(a)
                            | dashlat_cpu::ops::Op::Rmw(a) => Some(a.0),
                            dashlat_cpu::ops::Op::Prefetch { addr, .. } => Some(addr.0),
                            _ => None,
                        })
                        .max()
                        .unwrap_or(0);
                    let mut space = AddressSpaceBuilder::new(cfg.processors);
                    let _ = space.alloc(
                        "trace-region",
                        max_addr + 64,
                        dashlat_mem::layout::Placement::RoundRobin,
                    );
                    space.build()
                }
            };
            let mem = MemorySystem::new(cfg.mem_config(), page_map);
            let result = Machine::new(cfg.proc_config(), topo, mem, trace.into_workload())
                .with_max_cycles(Cycle(50_000_000_000))
                .run()?;
            println!(
                "replayed {input} under {}: elapsed {} | util {:.0}% | read hits {}",
                cfg.label(),
                result.elapsed,
                result.utilization() * 100.0,
                result.mem.read_hits
            );
            Ok(())
        }
        Command::Sweep {
            number,
            config,
            journal,
            out,
            resume,
            isolate,
            timeout_secs,
            opts,
        } => {
            let plan = SweepPlan::figure(number, &config);
            println!(
                "supervised sweep {} — {} cells, journal {journal}{}",
                plan.name,
                plan.cells.len(),
                if resume { " (resuming)" } else { "" }
            );
            let timeout = Duration::from_secs(timeout_secs);
            let journal_path = Path::new(&journal);
            let out_path = Path::new(&out);
            let report = run_supervised(
                &plan,
                journal_path,
                out_path,
                resume,
                &opts,
                |_, cell, _| {
                    if isolate {
                        isolate::run_cell_subprocess(cell, timeout)
                    } else {
                        run_cell_in_process(cell)
                    }
                },
            )?;
            println!("{}", report.summary());
            for line in report.diagnostics() {
                eprintln!("warning: {line}");
            }
            for bundle in &report.bundles {
                eprintln!("repro bundle written: {}", bundle.display());
            }
            println!("results: {out}");
            if report.is_complete() {
                Ok(())
            } else {
                Err(WorstFailure::new(
                    report.exit_code(),
                    format!(
                        "{} cell(s) failed permanently; results in {out} are partial",
                        report.failures.len()
                    ),
                )
                .into())
            }
        }
        Command::Cell { app, config } => {
            let cell = SweepCell {
                app,
                point: config.label(),
                config: *config,
                sweep: "cell".into(),
            };
            let outcome = run_cell_in_process(&cell);
            // The record is the contract with the supervising parent: one
            // line, last on stdout.
            println!("{}", isolate::render_record(&outcome));
            match outcome {
                Ok(_) => Ok(()),
                Err(f) => Err(WorstFailure::new(f.code, f.error).into()),
            }
        }
        Command::Repro { bundle } => {
            let text = std::fs::read_to_string(&bundle)?;
            let b = ReproBundle::from_json(&text).map_err(ArgError)?;
            println!(
                "replaying {} — dashlat run --app {} {}",
                b.origin,
                b.app,
                b.machine_args.join(" ")
            );
            let app: App = b.app.parse().map_err(ArgError)?;
            let mut machine_args = Args::new(b.machine_args.clone());
            let config = ExperimentConfig::base().with_machine_flags(&mut machine_args)?;
            machine_args.finish()?;
            let cell = SweepCell {
                app,
                point: config.label(),
                config,
                sweep: "repro".into(),
            };
            match run_cell_in_process(&cell) {
                Err(f) if f.code == b.expect_code => {
                    println!("reproduced (exit {}): {}", f.code, f.error);
                    if f.error != b.expect_error {
                        eprintln!(
                            "note: failure message differs from the bundle's\n  bundle: {}\n  replay: {}",
                            b.expect_error, f.error
                        );
                    }
                    Ok(())
                }
                Err(f) => Err(WorstFailure::new(
                    EXIT_REPRO_DIVERGED,
                    format!(
                        "replay failed with exit {} ({}), but the bundle expects exit {} ({})",
                        f.code, f.error, b.expect_code, b.expect_error
                    ),
                )
                .into()),
                Ok(elapsed) => Err(WorstFailure::new(
                    EXIT_REPRO_DIVERGED,
                    format!(
                        "replay completed ({elapsed} pclocks), but the bundle expects exit {} ({})",
                        b.expect_code, b.expect_error
                    ),
                )
                .into()),
            }
        }
        Command::ServeTorture(opts) => run_serve_torture(&opts),
        Command::Chaos { opts, bundle_dir } => {
            let (app, trials, seed) = (opts.app, opts.trials, opts.seed);
            println!(
                "chaos: fuzzing {trials} fault schedule(s) against {app} (campaign seed {seed})"
            );
            let report = run_chaos(&opts);
            match report.clean_elapsed {
                Some(elapsed) => println!(
                    "fault-free baseline: {elapsed} pclocks; {} trial(s) run",
                    report.trials_run
                ),
                None => println!("fault-free baseline failed — no schedule needed"),
            }
            match report.failure {
                None => {
                    println!("no failing schedule found");
                    Ok(())
                }
                Some(f) => {
                    println!(
                        "trial #{}: {} oracle tripped (exit {}): {}",
                        f.trial, f.oracle, f.code, f.error
                    );
                    println!("  original schedule:  {}", f.original.to_spec());
                    println!(
                        "  minimized schedule: {} ({} active fault class(es), {} shrink run(s))",
                        f.minimized.to_spec(),
                        active_classes(&f.minimized),
                        f.shrink_runs
                    );
                    let mut cfg = opts.base.clone().with_invariant_checks(true);
                    // A schedule with no active classes means the bug
                    // needs no faults; bundle the clean configuration.
                    if f.minimized.is_active() {
                        cfg = cfg.with_faults(f.minimized);
                    }
                    let b = ReproBundle {
                        app: app.name().to_ascii_lowercase(),
                        machine_args: cfg.to_cli_args(),
                        expect_code: f.code,
                        expect_error: f.error.clone(),
                        origin: format!(
                            "chaos trial #{} (campaign seed {seed}, {} oracle)",
                            f.trial, f.oracle
                        ),
                    };
                    std::fs::create_dir_all(&bundle_dir)?;
                    let path = Path::new(&bundle_dir)
                        .join(format!("repro-chaos-{app}-seed{seed}.json").to_lowercase());
                    b.write(&path)?;
                    println!("repro bundle written: {}", path.display());
                    println!("replay with: dashlat repro {}", path.display());
                    Err(WorstFailure::new(
                        EXIT_CHAOS_FOUND,
                        format!(
                            "chaos found a failing fault schedule ({} oracle): {}",
                            f.oracle, f.error
                        ),
                    )
                    .into())
                }
            }
        }
        Command::VerifyModel { suite, list } => {
            if list {
                print!("{}", dashlat_verify::list_corpus());
                return Ok(());
            }
            let report = dashlat_verify::verify_suite_opts(&suite);
            print!("{}", report.render());
            if report.passed() {
                Ok(())
            } else {
                Err(WorstFailure::new(
                    EXIT_MODEL_VIOLATION,
                    "memory-model verification failed (details above)",
                )
                .into())
            }
        }
        Command::Serve(config) => {
            dashlat_serve::signal::install();
            let server = std::sync::Arc::new(dashlat_serve::Server::new(*config)?);
            // Graceful shutdown (SIGTERM/SIGINT/POST /shutdown) returns
            // Ok from run(), so the daemon exits 0.
            server.run()?;
            Ok(())
        }
        Command::Submit {
            addr,
            data_dir,
            spec,
            wait,
        } => {
            let addr = resolve_addr(addr, &data_dir)?;
            let resp = dashlat_serve::request(&addr, "POST", "/jobs", Some(&spec.to_json()))
                .map_err(|e| service_error(format!("cannot reach daemon at {addr}: {e}")))?;
            if resp.status == 429 {
                let retry = resp.header("retry-after").unwrap_or("2");
                return Err(service_error(format!(
                    "daemon shed the submission (queue full); retry after {retry}s"
                ))
                .into());
            }
            if resp.status != 202 {
                return Err(service_error(format!(
                    "daemon rejected the submission ({}): {}",
                    resp.status,
                    resp.body.trim()
                ))
                .into());
            }
            let id = dashlat_sim::json::Value::parse(&resp.body)
                .ok()
                .and_then(|v| v.get("id").and_then(dashlat_sim::json::Value::as_u64))
                .ok_or_else(|| {
                    service_error(format!("daemon returned no job id: {}", resp.body.trim()))
                })?;
            println!("job #{id} submitted ({})", spec.describe());
            if !wait {
                println!("follow with: dashlat status {id} --addr {addr}");
                return Ok(());
            }
            wait_for_job(&addr, id)
        }
        Command::Status { addr, data_dir, id } => {
            let addr = resolve_addr(addr, &data_dir)?;
            match id {
                Some(id) => {
                    let resp = dashlat_serve::request(&addr, "GET", &format!("/jobs/{id}"), None)
                        .map_err(|e| {
                        service_error(format!("cannot reach daemon at {addr}: {e}"))
                    })?;
                    if resp.status != 200 {
                        return Err(service_error(format!(
                            "daemon returned {} for job {id}: {}",
                            resp.status,
                            resp.body.trim()
                        ))
                        .into());
                    }
                    let job = dashlat_sim::json::Value::parse(&resp.body)
                        .map_err(|e| service_error(format!("bad status document: {e}")))?;
                    println!("{}", describe_job(&job));
                    Ok(())
                }
                None => {
                    let health =
                        dashlat_serve::request(&addr, "GET", "/healthz", None).map_err(|e| {
                            service_error(format!("cannot reach daemon at {addr}: {e}"))
                        })?;
                    println!("daemon at {addr}: {}", health.body.trim());
                    let resp =
                        dashlat_serve::request(&addr, "GET", "/jobs", None).map_err(|e| {
                            service_error(format!("cannot reach daemon at {addr}: {e}"))
                        })?;
                    let doc = dashlat_sim::json::Value::parse(&resp.body)
                        .map_err(|e| service_error(format!("bad job list: {e}")))?;
                    let jobs = doc
                        .get("jobs")
                        .and_then(dashlat_sim::json::Value::as_arr)
                        .ok_or_else(|| {
                            service_error(format!("bad job list: {}", resp.body.trim()))
                        })?;
                    if jobs.is_empty() {
                        println!("no jobs");
                    }
                    for job in jobs {
                        println!("{}", describe_job(job));
                    }
                    Ok(())
                }
            }
        }
        Command::Analyze {
            apps,
            input,
            config,
        } => {
            let mut racy = 0usize;
            if let Some(path) = input {
                let text = std::fs::read_to_string(&path)?;
                let trace = Trace::from_text(&text)?;
                let report = dashlat_analyze::analyze_trace(&path, &trace);
                println!("{}", report.render());
                racy += usize::from(report.race_detected());
            } else {
                let apps = if apps.is_empty() {
                    vec![App::Mp3d, App::Lu, App::Pthor]
                } else {
                    apps
                };
                let cfg = (*config).with_analysis();
                for app in apps {
                    let e = run(app, &cfg)?;
                    let report = e.analysis.expect("analysis was configured");
                    println!("{}", report.render());
                    racy += usize::from(report.race_detected());
                }
            }
            if racy > 0 {
                return Err(WorstFailure::new(
                    EXIT_RACE,
                    format!("{racy} subject(s) failed race-freedom certification"),
                )
                .into());
            }
            Ok(())
        }
        Command::Lint {
            apps,
            all,
            input,
            json,
            strict,
            config,
        } => {
            use dashlat_analyze::lint::{lint_trace, lint_workload, LintOptions, LintReport};
            let opts = LintOptions::from_latencies(&config.mem_config().latencies);
            // (report, this subject fails the lint, one-line summary
            // that replaces the full render for passing corpus entries)
            let mut entries: Vec<(LintReport, bool, Option<String>)> = Vec::new();
            if let Some(path) = input {
                let text = std::fs::read_to_string(&path)?;
                let trace = Trace::from_text(&text)?;
                let r = lint_trace(&path, &trace, Vec::new(), false, &opts);
                let failed = r.is_critical() || (strict && r.is_incomplete());
                entries.push((r, failed, None));
            } else {
                let apps = if apps.is_empty() {
                    App::ALL.to_vec()
                } else {
                    apps
                };
                for app in apps {
                    let topo = Topology::new(config.processors, config.contexts);
                    let mut space = AddressSpaceBuilder::new(config.processors);
                    let w = app.build(config.scale, topo, &mut space, config.prefetching);
                    let r = lint_workload(app.name(), w.as_ref(), &opts)?;
                    let failed = r.is_critical() || (strict && r.is_incomplete());
                    entries.push((r, failed, None));
                }
                if all {
                    for t in dashlat_verify::litmus::corpus() {
                        let lay = dashlat_verify::workload::layout(&t, t.nprocs());
                        let offsets = vec![0; t.nprocs()];
                        let w = dashlat_verify::workload::compile(&t, &lay, &offsets);
                        let r = lint_workload(t.name, &w, &opts)?;
                        // Competing-by-design corpus entries fail the
                        // PL pass on purpose: the check here is that
                        // the static verdict reproduces the corpus's
                        // hand-written annotation, not that every
                        // litmus program certifies.
                        let verdict_ok = r.labeling.properly_labeled() == t.properly_labeled;
                        let other_critical = !r.extraction_notes.is_empty()
                            || r.deadlock.is_critical()
                            || r.barriers.divergence.is_some();
                        let failed = !verdict_ok || other_critical || (strict && r.is_incomplete());
                        let note = if failed {
                            None
                        } else {
                            Some(format!(
                                "litmus {}: static PL verdict `{}` matches the corpus \
                                 annotation — ok",
                                t.name,
                                if t.properly_labeled {
                                    "properly labeled"
                                } else {
                                    "under-labeled"
                                },
                            ))
                        };
                        entries.push((r, failed, note));
                    }
                }
            }
            if json {
                let docs: Vec<String> = entries
                    .iter()
                    .map(|(r, failed, _)| {
                        format!("{{\"failed\":{failed},\"report\":{}}}", r.to_json())
                    })
                    .collect();
                println!("[{}]", docs.join(","));
            } else {
                for (r, failed, note) in &entries {
                    match note {
                        Some(line) if !failed => println!("{line}"),
                        _ => println!("{}", r.render()),
                    }
                }
            }
            let critical = entries.iter().filter(|(_, failed, _)| *failed).count();
            let incomplete = if strict {
                entries.iter().filter(|(r, _, _)| r.is_incomplete()).count()
            } else {
                0
            };
            if !json {
                println!(
                    "lint: {} subject(s) checked, {} failed",
                    entries.len(),
                    critical
                );
            }
            if critical > 0 {
                let mut msg = format!("{critical} subject(s) failed the static lint");
                if incomplete > 0 {
                    msg.push_str(&format!(" ({incomplete} incomplete under --strict)"));
                }
                return Err(WorstFailure::new(EXIT_LINT, msg).into());
            }
            Ok(())
        }
    }
}

/// `dashlat chaos --serve`: the service-level torture harness. Boots a
/// daemon per seeded schedule, misbehaves on schedule, and judges the
/// wreckage with the four service oracles; a failing schedule is
/// delta-debugged to minimal and reported with exit 8. The data root
/// must be absent or empty — nothing already in it is ever deleted — and
/// a root the harness created is removed again after a green run.
fn run_serve_torture(
    opts: &dashlat_serve::TortureOptions,
) -> Result<(), Box<dyn std::error::Error>> {
    let root = &opts.data_root;
    if std::fs::read_dir(root).is_ok_and(|mut entries| entries.next().is_some()) {
        return Err(format!(
            "--data-dir {} is not empty; torture campaigns need an absent or empty directory",
            root.display()
        )
        .into());
    }
    let created = !root.exists();
    println!(
        "chaos --serve: {} torture schedule(s) against a live daemon (campaign seed {})",
        opts.trials, opts.seed
    );
    let report = dashlat_serve::run_torture(opts);
    if let Some(why) = report.skipped {
        println!("torture skipped: {why}");
        return Ok(());
    }
    match report.failure {
        None => {
            println!(
                "{} schedule(s) run — all four oracles green \
                 (job-loss, log-integrity, cache, recovery)",
                report.trials_run
            );
            if created {
                std::fs::remove_dir_all(root).ok();
            }
            Ok(())
        }
        Some(f) => {
            println!(
                "trial #{}: {} oracle tripped: {}",
                f.trial, f.oracle, f.error
            );
            println!("  original schedule:  {}", f.original.to_spec());
            println!(
                "  minimized schedule: {} ({} active fault class(es), {} campaign re-run(s))",
                f.minimized.to_spec(),
                f.minimized.active_classes(),
                f.shrink_runs
            );
            println!("  campaign data kept under {}", root.display());
            Err(WorstFailure::new(
                EXIT_CHAOS_FOUND,
                format!(
                    "serve torture found a failing schedule ({} oracle): {}",
                    f.oracle, f.error
                ),
            )
            .into())
        }
    }
}

/// Finds the daemon: an explicit `--addr` wins, otherwise the `addr`
/// file the daemon publishes in its data directory.
fn resolve_addr(addr: Option<String>, data_dir: &Path) -> Result<String, WorstFailure> {
    match addr {
        Some(a) => Ok(a),
        None => dashlat_serve::read_addr_file(data_dir).map_err(|e| {
            service_error(format!(
                "no --addr given and no daemon addr file under {}/ ({e}); \
                 is `dashlat serve` running?",
                data_dir.display()
            ))
        }),
    }
}

/// Follows one job to its end (`submit --wait`), printing a status line
/// whenever its status changes, and converts its outcome into this
/// process's exit status: the remote job's own exit code when it has
/// one, 10 when the job ended opaquely.
fn wait_for_job(addr: &str, id: u64) -> Result<(), Box<dyn std::error::Error>> {
    use dashlat_sim::json::Value;
    let status_of = |job: &Value| {
        job.get("status")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let mut last_status = String::new();
    let job = dashlat_serve::client::follow_job(addr, id, None, |job| {
        let status = status_of(job);
        if status != last_status {
            println!("{}", describe_job(job));
            last_status = status;
        }
    })
    .map_err(|e| service_error(format!("lost the daemon at {addr}: {e}")))?;
    let status = status_of(&job);
    match status.as_str() {
        "complete" => Ok(()),
        "interrupted" => Err(service_error(format!(
            "job #{id} was checkpointed by a daemon shutdown; it resumes when the daemon restarts"
        ))
        .into()),
        _ => {
            let detail = job
                .get("detail")
                .and_then(Value::as_str)
                .unwrap_or("no detail")
                .to_owned();
            let code = job
                .get("exit_code")
                .and_then(Value::as_u64)
                .map_or(EXIT_SERVICE, |c| u8::try_from(c).unwrap_or(EXIT_SERVICE));
            Err(WorstFailure::new(
                if code == 0 { EXIT_SERVICE } else { code },
                format!("job #{id} {status}: {detail}"),
            )
            .into())
        }
    }
}

/// One status line for a job document from the service API.
fn describe_job(job: &dashlat_sim::json::Value) -> String {
    use dashlat_sim::json::Value;
    let num = |key: &str| job.get(key).and_then(Value::as_u64).unwrap_or(0);
    let s = |key: &str| job.get(key).and_then(Value::as_str).unwrap_or("?");
    let mut line = format!(
        "job #{} [{}] {} — {}/{} cell(s), {} from cache",
        num("id"),
        s("kind"),
        s("status"),
        num("cells_done"),
        num("cells_total"),
        num("cache_hits"),
    );
    if let Some(code) = job.get("exit_code").and_then(Value::as_u64) {
        line.push_str(&format!(", exit {code}"));
    }
    let detail = s("detail");
    if !detail.is_empty() && detail != "?" {
        line.push_str(&format!("\n  {detail}"));
    }
    line
}

/// Turns a rendered figure into the command's result: `Ok` when every cell
/// completed, else a [`WorstFailure`] carrying
/// [`FigureReport::exit_code`] — the same code the figure binaries exit
/// with.
fn figure_outcome(report: &FigureReport) -> Result<(), Box<dyn std::error::Error>> {
    if report.is_complete() {
        return Ok(());
    }
    let racy = report
        .failures
        .iter()
        .filter(|(_, _, f)| matches!(f, RunFailure::RaceDetected(_)))
        .count();
    let msg = if racy > 0 {
        format!(
            "{racy} subject(s) failed race-freedom certification; \
             {} configuration(s) failed in total",
            report.failures.len()
        )
    } else {
        format!(
            "{} configuration(s) failed; partial results rendered above",
            report.failures.len()
        )
    };
    Err(WorstFailure::new(report.exit_code(), msg).into())
}

/// Runs `app` once with a recorder attached and returns the trace,
/// including the page placement so replays keep local/remote geometry.
fn record_trace(app: App, config: &ExperimentConfig) -> Result<Trace, Box<dyn std::error::Error>> {
    let topo = config.topology();
    let mut space = AddressSpaceBuilder::new(config.processors);
    let workload = app.build(config.scale, topo, &mut space, config.prefetching);
    let recorder = TraceRecorder::new(&workload);
    let page_map = space.build();
    let homes: Vec<usize> = page_map.homes().iter().map(|n| n.0).collect();
    let mem = MemorySystem::new(config.mem_config(), page_map);
    let (_, recorder) = Machine::observed(config.proc_config(), topo, mem, workload, recorder)
        .with_max_cycles(Cycle(50_000_000_000))
        .run_observed()?;
    Ok(Trace {
        page_homes: Some((config.processors, homes)),
        ..recorder.into_trace()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_matrix_failures_rank_by_class() {
        let deadlock = RunFailure::Error(RunError::Deadlock { stuck: vec![] });
        let race = RunFailure::RaceDetected(Box::new(dashlat_analyze::AnalysisReport {
            subject: String::new(),
            nprocs: 0,
            events: 0,
            hb: dashlat_analyze::HbSummary::default(),
            replay_notes: vec![],
        }));
        let invariant = RunFailure::Error(RunError::InvariantViolation {
            at: Cycle(9),
            detail: "wb fifo".into(),
        });
        let panic = RunFailure::Panic("p".into());
        let mut report = FigureReport {
            figure: Figure {
                title: String::new(),
                groups: vec![],
            },
            failures: vec![],
        };
        let code = |report: &FigureReport| {
            figure_outcome(report)
                .err()
                .map(|e| exit_code_for(e.as_ref()))
        };
        assert_eq!(code(&report), None);
        // A deadlock cell outranks a race cell, both outrank partial (5);
        // an invariant violation outranks them all. The figure binaries
        // fold the same set to the same codes (`dashlat_bench` tests).
        for (failure, expect) in [(panic, 5), (race, 6), (deadlock, 2), (invariant, 4)] {
            report.failures.push(("LU".into(), "SC".into(), failure));
            assert_eq!(code(&report), Some(ExitCode::from(expect)));
            assert_eq!(report.exit_code(), expect);
        }
    }

    #[test]
    fn exit_codes_map_each_error_class() {
        let as_exit = |e: Box<dyn std::error::Error>| exit_code_for(e.as_ref());
        let fail = |code: u8| as_exit(Box::new(WorstFailure::new(code, "x")));
        assert_eq!(fail(EXIT_MODEL_VIOLATION), ExitCode::from(7));
        assert_eq!(fail(EXIT_RACE), ExitCode::from(6));
        assert_eq!(fail(EXIT_LINT), ExitCode::from(11));
        assert_eq!(fail(EXIT_CHAOS_FOUND), ExitCode::from(8));
        assert_eq!(fail(EXIT_REPRO_DIVERGED), ExitCode::from(9));
        assert_eq!(fail(EXIT_SERVICE), ExitCode::from(10));
        assert_eq!(fail(4), ExitCode::from(4));
        let race = RunFailure::RaceDetected(Box::new(dashlat_analyze::AnalysisReport {
            subject: String::new(),
            nprocs: 0,
            events: 0,
            hb: dashlat_analyze::HbSummary::default(),
            replay_notes: vec![],
        }));
        assert_eq!(as_exit(Box::new(race)), ExitCode::from(6));
        let livelock = RunError::Livelock {
            events: 1,
            at: Cycle(9),
            stuck: vec![],
        };
        assert_eq!(as_exit(Box::new(livelock)), ExitCode::from(3));
        assert_eq!(
            as_exit(Box::new(std::io::Error::other("x"))),
            ExitCode::FAILURE
        );
    }
}
