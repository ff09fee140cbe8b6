//! `figures`: the per-cell simulation kernel behind the paper's figures.
//!
//! One operation is one cell of a figure (2–6): one application, at test
//! scale with its fixed data set, on one machine configuration of that
//! figure, run through `dashlat::runner::run` and rendered as a Table 2
//! row. A pass visits all 66 cells of the five figure matrices in a seeded
//! order; the run repeats passes until its time is up and always finishes
//! the pass it started, so every run measures the same mix.
//!
//! The seed chooses only the order. Each cell is simulated on its own, so
//! the figure sweep's worker pool and result memo are not measured here.

use std::time::{Duration, Instant};

use dashlat::apps::App;
use dashlat::config::ExperimentConfig;
use dashlat::experiments::figure_configs;
use dashlat::report::{Table2, Table2Row};
use dashlat::runner;
use dashlat_cpu::breakdown::TimeBreakdown;
use dashlat_cpu::machine::RunResult;
use dashlat_mem::layout::AddressSpaceBuilder;
use dashlat_sim::rng::Xorshift;
use dashlat_sim::Cycle;

use crate::calib::{HostClock, Sample, Stopwatch};
use crate::trace::Tracer;
use crate::{repeat_setup, Args, Outcome};

const FIGURES: [u8; 5] = [2, 3, 4, 5, 6];

/// One cell of a figure matrix: an application on a machine variant.
struct Cell {
    figure: u8,
    app: App,
    config: ExperimentConfig,
}

/// What a cell's first run produced; every later run must reproduce it
/// bit for bit.
#[derive(PartialEq)]
struct Fingerprint {
    elapsed: Cycle,
    sim_events: u64,
    aggregate: TimeBreakdown,
}

impl Fingerprint {
    fn of(r: &RunResult) -> Self {
        Self {
            elapsed: r.elapsed,
            sim_events: r.sim_events,
            aggregate: r.aggregate,
        }
    }
}

/// The invariants every finished cell must satisfy: per-processor
/// breakdowns sum to the aggregate, and each one spans the whole run.
fn cell_is_sound(r: &RunResult) -> bool {
    let sum = r
        .breakdowns
        .iter()
        .fold(TimeBreakdown::default(), |acc, b| acc + *b);
    r.elapsed > Cycle::ZERO
        && r.sim_events > 0
        && sum == r.aggregate
        && r.breakdowns.iter().all(|b| b.total() == r.elapsed)
}

/// Simulates one cell; returns its latency and whether it checked out.
fn run_cell(
    cell: &Cell,
    first: &mut Option<Fingerprint>,
    clock: &HostClock,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> (Sample, bool) {
    let op = tracer.begin_op();
    let sw = Stopwatch::start();
    let experiment = tracer.span("run", "dashlat", || runner::run(cell.app, &cell.config));
    let rendered = tracer.span("collect", "dashlat", || {
        experiment.as_ref().map(|e| {
            Table2 {
                rows: vec![Table2Row::from_experiment(e)],
            }
            .render()
        })
    });
    let latency = clock.elapsed(&sw);

    if let Ok(e) = &experiment {
        outcome.counts.machine_runs += 1;
        outcome.counts.sim_events += e.result.sim_events;
    }
    let ok = tracer.span("check", "perfbench", || match (&experiment, &rendered) {
        (Ok(e), Ok(table)) => {
            let print = Fingerprint::of(&e.result);
            let reproducible = first.as_ref().is_none_or(|f| *f == print);
            first.get_or_insert(print);
            cell_is_sound(&e.result) && table.contains(cell.app.name()) && reproducible
        }
        (Err(err), _) => {
            eprintln!(
                "figure {} {} {}: {err}",
                cell.figure,
                cell.app,
                cell.config.label()
            );
            false
        }
        (Ok(_), Err(_)) => unreachable!("a cell that ran always renders"),
    });
    tracer.exit(op);
    (latency, ok)
}

pub fn run(
    args: &Args,
    tracer: &mut Tracer,
    clock: &mut HostClock,
) -> Result<(Outcome, f64), String> {
    let base = ExperimentConfig::base_test();
    // Set-up: the figure matrices, and every cell's application
    // instantiated once (not simulated), so allocator and code are warm
    // before timing.
    let (cells, setup_s) = repeat_setup(clock, |_| {
        let cells: Vec<Cell> = FIGURES
            .iter()
            .flat_map(|&figure| {
                let configs = figure_configs(figure, &base);
                App::ALL.into_iter().flat_map(move |app| {
                    configs.clone().into_iter().map(move |config| Cell {
                        figure,
                        app,
                        config,
                    })
                })
            })
            .collect();
        for c in &cells {
            let mut space = AddressSpaceBuilder::new(c.config.processors);
            let topo = c.config.topology();
            std::hint::black_box(c.app.build(
                c.config.scale,
                topo,
                &mut space,
                c.config.prefetching,
            ));
        }
        Ok(cells)
    })?;

    let mut rng = Xorshift::new(args.seed);
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut firsts: Vec<Option<Fingerprint>> = cells.iter().map(|_| None).collect();
    let mut outcome = Outcome::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        rng.shuffle(&mut order);
        for &c in &order {
            clock.maybe_probe();
            let (latency, ok) = run_cell(&cells[c], &mut firsts[c], clock, tracer, &mut outcome);
            outcome.record(latency, ok);
        }
    }
    Ok((outcome, setup_s))
}
