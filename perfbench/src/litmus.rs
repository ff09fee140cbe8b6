//! `litmus`: the memory-model verification suite.
//!
//! One operation verifies one cell of what `dashlat verify-model` runs:
//! a litmus test of the corpus under one consistency model (every
//! interleaving of every start-offset cell explored on the simulated
//! machine, its outcome set compared with the axiomatic model), or one of
//! the directory-protocol closures. A pass visits every cell once in a
//! seeded order; the run repeats passes until its time is up and always
//! finishes the pass it started, so every run measures the same cells.
//!
//! The checker's oracle tables — each cell's axiomatically allowed
//! outcome set, computed independently of the verifier's own copy — are
//! built during set-up.

use std::time::{Duration, Instant};

use dashlat_cpu::config::Consistency;
use dashlat_sim::rng::Xorshift;
use dashlat_verify::outcome::OutcomeSet;
use dashlat_verify::{
    axiomatic, check_directory, check_properly_labeled, corpus, report, verify_litmus, LitmusTest,
    LitmusVerdict, ProtocolConfig, ALL_MODELS, DEFAULT_MAX_RUNS,
};

use crate::calib::{HostClock, Sample, Stopwatch};
use crate::trace::Tracer;
use crate::{repeat_setup, Args, Outcome};

enum Cell {
    Litmus {
        test: usize,
        model: Consistency,
        reference: OutcomeSet,
    },
    Protocol(ProtocolConfig),
}

fn cells(tests: &[LitmusTest]) -> Vec<Cell> {
    let mut cells: Vec<Cell> = tests
        .iter()
        .enumerate()
        .flat_map(|(i, test)| {
            ALL_MODELS.iter().map(move |&model| Cell::Litmus {
                test: i,
                model,
                reference: axiomatic::allowed(test, model),
            })
        })
        .collect();
    cells.extend(
        [
            ProtocolConfig::small(),
            ProtocolConfig::wide(),
            ProtocolConfig::small_lazy(),
        ]
        .map(Cell::Protocol),
    );
    cells
}

/// Verifies one litmus cell; returns its latency, whether it checked out,
/// and the verdict for the pass-level properly-labeled check.
fn verify_cell(
    test: &LitmusTest,
    model: Consistency,
    reference: &OutcomeSet,
    clock: &HostClock,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> (Sample, bool, LitmusVerdict) {
    let op = tracer.begin_op();
    let sw = Stopwatch::start();
    let verdict = tracer.span("run", "dashlat-verify", || {
        verify_litmus(test, model, DEFAULT_MAX_RUNS)
    });
    let rendered = tracer.span("collect", "dashlat-verify", || {
        report::render_verdict(test, &verdict)
    });
    let latency = clock.elapsed(&sw);
    outcome.counts.machine_runs += verdict.runs;
    let ok = tracer.span("check", "perfbench", || {
        verdict.passed() && verdict.reference == *reference && rendered.contains(test.name)
    });
    tracer.exit(op);
    (latency, ok, verdict)
}

/// Runs one directory-protocol closure.
fn close_protocol(
    config: ProtocolConfig,
    clock: &HostClock,
    tracer: &mut Tracer,
) -> (Sample, bool) {
    let op = tracer.begin_op();
    let sw = Stopwatch::start();
    let report = tracer.span("run", "dashlat-verify", || check_directory(config));
    let summary = tracer.span("collect", "dashlat-verify", || report.summary());
    let latency = clock.elapsed(&sw);
    let ok = tracer.span("check", "perfbench", || {
        report.passed() && !report.truncated && summary.contains("full closure")
    });
    tracer.exit(op);
    (latency, ok)
}

pub fn run(
    args: &Args,
    tracer: &mut Tracer,
    clock: &mut HostClock,
) -> Result<(Outcome, f64), String> {
    let ((tests, cells), setup_s) = repeat_setup(clock, |_| {
        let tests = corpus();
        let cells = cells(&tests);
        Ok((tests, cells))
    })?;

    let mut rng = Xorshift::new(args.seed);
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut outcome = Outcome::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        rng.shuffle(&mut order);
        let mut verdicts: Vec<(usize, LitmusVerdict)> = Vec::new();
        for &c in &order {
            clock.maybe_probe();
            match &cells[c] {
                Cell::Litmus {
                    test,
                    model,
                    reference,
                } => {
                    let (latency, ok, verdict) = verify_cell(
                        &tests[*test],
                        *model,
                        reference,
                        clock,
                        tracer,
                        &mut outcome,
                    );
                    outcome.record(latency, ok);
                    verdicts.push((*test, verdict));
                }
                Cell::Protocol(config) => {
                    let (latency, ok) = close_protocol(*config, clock, tracer);
                    outcome.record(latency, ok);
                }
            }
        }
        // Properly-labeled programs must behave identically under SC and
        // RC: a cross-cell check over the finished pass.
        for (i, test) in tests.iter().enumerate().filter(|(_, t)| t.properly_labeled) {
            let under = |m: Consistency| {
                verdicts
                    .iter()
                    .find(|(t, v)| *t == i && v.model == m)
                    .map(|(_, v)| v)
            };
            if let (Some(sc), Some(rc)) = (under(Consistency::Sc), under(Consistency::Rc)) {
                if let Some(failure) = check_properly_labeled(test, sc, rc) {
                    eprintln!("properly-labeled check failed: {failure}");
                    outcome.failed += 1;
                }
            }
        }
    }
    Ok((outcome, setup_s))
}
