//! Presets reproducing every table and figure of the paper.
//!
//! Each function takes the base machine configuration (use
//! [`ExperimentConfig::base`] for the paper's machine,
//! [`ExperimentConfig::base_test`] for quick runs) and returns the
//! rendered-ready structure. The experiment index lives in `DESIGN.md`.

use std::ops::RangeInclusive;

use dashlat_cpu::machine::RunError;
use dashlat_mem::latency::LatencyTable;
use dashlat_sim::Cycle;

use crate::apps::App;
use crate::config::ExperimentConfig;
use crate::report::{AppFigure, Figure, Table2, Table2Row};
use crate::runner::{run, run_matrix, worst_exit_code, Experiment, RunFailure};

/// Renders Table 1: the memory-operation latencies of the simulated
/// machine (configuration, not measurement).
pub fn table1() -> String {
    let t = LatencyTable::dash();
    let row = |name: &str, c: Cycle| format!("  {name:<44} {:>4} pclock\n", c.as_u64());
    let mut s = String::from("Table 1: Latency for memory system operations (1 pclock = 30 ns)\n");
    s.push_str("Read Operations\n");
    s.push_str(&row("Hit in Primary Cache", t.read_primary_hit));
    s.push_str(&row("Fill from Secondary Cache", t.read_fill_secondary));
    s.push_str(&row("Fill from Local Node", t.read_fill_local));
    s.push_str(&row(
        "Fill from Home Node (Home != Local)",
        t.read_fill_home,
    ));
    s.push_str(&row(
        "Fill from Remote Node (Remote != Home != Local)",
        t.read_fill_remote,
    ));
    s.push_str("Write Operations\n");
    s.push_str(&row("Owned by Secondary Cache", t.write_owned_secondary));
    s.push_str(&row("Owned by Local Node", t.write_owned_local));
    s.push_str(&row(
        "Owned in Home Node (Home != Local)",
        t.write_owned_home,
    ));
    s.push_str(&row(
        "Owned in Remote Node (Remote != Home != Local)",
        t.write_owned_remote,
    ));
    s
}

/// Table 2: general statistics for the benchmarks, measured on the base
/// machine.
///
/// # Errors
///
/// Propagates a failed run.
pub fn table2(base: &ExperimentConfig) -> Result<Table2, RunError> {
    let rows = App::ALL
        .iter()
        .map(|&app| run(app, base).map(|e| Table2Row::from_experiment(&e)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Table2 { rows })
}

/// A figure assembled from a resilient sweep: the bars that completed,
/// plus every cell that failed (so partial results are never silently
/// presented as complete).
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// The renderable figure. App groups whose *baseline* (first) bar
    /// failed are dropped — the remaining bars could not be normalized —
    /// but their failures are still listed.
    pub figure: Figure,
    /// `(app, config label, failure)` for each cell that did not finish.
    pub failures: Vec<(String, String, RunFailure)>,
}

impl FigureReport {
    /// True when every cell of every app group completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The exit code a figure run ends with: 0 when complete, else the
    /// most severe failed cell's code under
    /// [`EXIT_SEVERITY`](crate::runner::EXIT_SEVERITY), never less severe
    /// than partial results (5). An invariant violation in one cell thus
    /// outranks another cell's race, which outranks a plain panic.
    pub fn exit_code(&self) -> u8 {
        if self.is_complete() {
            return 0;
        }
        self.failures
            .iter()
            .map(|(_, _, f)| f.exit_code())
            .fold(5, worst_exit_code)
    }
}

fn figure_from_matrix(title: &str, configs: &[ExperimentConfig]) -> FigureReport {
    let mut groups = Vec::with_capacity(App::ALL.len());
    let mut failures = Vec::new();
    for app in App::ALL {
        let report = run_matrix(app, configs);
        for (label, f) in report.failures() {
            failures.push((app.name().to_owned(), label.to_owned(), f.clone()));
        }
        let ok: Vec<Experiment> = report.successes().into_iter().cloned().collect();
        if !ok.is_empty() && report.cells[0].outcome.is_ok() {
            groups.push(AppFigure::from_experiments(&ok));
        }
    }
    FigureReport {
        figure: Figure {
            title: title.to_owned(),
            groups,
        },
        failures,
    }
}

/// The paper figures this reproduction regenerates as sweeps: every
/// front end (`dashlat figure`/`sweep`/`submit sweep`, job specs, the
/// bench binaries' `--figures` lists) accepts exactly these numbers.
pub const FIGURES: RangeInclusive<u8> = 2..=6;

/// Parses a figure number, accepting only [`FIGURES`].
///
/// # Errors
///
/// Says which numbers exist.
pub fn parse_figure(s: &str) -> Result<u8, String> {
    s.parse()
        .ok()
        .filter(|n| FIGURES.contains(n))
        .ok_or_else(|| format!("no figure {s:?}: the paper's sweep figures are {FIGURES:?}"))
}

/// The machine-variant columns of one paper figure, in bar order.
/// This is the single source of truth for the figure presets — the figure
/// functions, the bench harness and the parallel-determinism tests all
/// sweep exactly these matrices.
///
/// # Panics
///
/// Panics for a figure number outside [`FIGURES`].
pub fn figure_configs(figure: u8, base: &ExperimentConfig) -> Vec<ExperimentConfig> {
    let sw = Cycle(4);
    match figure {
        2 => vec![base.clone().without_caching(), base.clone()],
        3 => vec![base.clone(), base.clone().with_rc()],
        4 => vec![
            base.clone(),
            base.clone().with_prefetching(),
            base.clone().with_rc(),
            base.clone().with_rc().with_prefetching(),
        ],
        5 => vec![
            base.clone(),
            base.clone().with_contexts(2, Cycle(16)),
            base.clone().with_contexts(4, Cycle(16)),
            base.clone().with_contexts(2, Cycle(4)),
            base.clone().with_contexts(4, Cycle(4)),
        ],
        6 => vec![
            base.clone(),
            base.clone().with_contexts(2, sw),
            base.clone().with_contexts(4, sw),
            base.clone().with_rc(),
            base.clone().with_rc().with_contexts(2, sw),
            base.clone().with_rc().with_contexts(4, sw),
            base.clone().with_rc().with_prefetching(),
            base.clone()
                .with_rc()
                .with_prefetching()
                .with_contexts(2, sw),
            base.clone()
                .with_rc()
                .with_prefetching()
                .with_contexts(4, sw),
        ],
        n => panic!("no figure {n}: the paper's sweep figures are {FIGURES:?}"),
    }
}

/// Paper figure `number` (one of [`FIGURES`]): the matrix of
/// [`figure_configs`] under that figure's title. Failed cells are
/// reported, not fatal.
///
/// # Panics
///
/// Panics for a figure number outside [`FIGURES`].
pub fn figure(number: u8, base: &ExperimentConfig) -> FigureReport {
    let title = match number {
        2 => "Figure 2: Effect of caching shared data (normalized to no-cache)",
        3 => "Figure 3: Effect of relaxing the consistency model (normalized to SC)",
        4 => "Figure 4: Effect of prefetching (normalized to SC without prefetching)",
        5 => "Figure 5: Effect of multiple contexts under SC (normalized to 1 context)",
        6 => "Figure 6: Effect of combining the schemes (4-cycle switch, normalized to SC/1ctx)",
        n => panic!("no figure {n}: the paper's sweep figures are {FIGURES:?}"),
    };
    figure_from_matrix(title, &figure_configs(number, base))
}

/// Figure 2: effect of caching shared data (no-cache baseline vs coherent
/// caches, both under SC).
pub fn figure2(base: &ExperimentConfig) -> FigureReport {
    figure(2, base)
}

/// Figure 3: effect of relaxing the consistency model (SC vs RC).
pub fn figure3(base: &ExperimentConfig) -> FigureReport {
    figure(3, base)
}

/// Figure 4: effect of prefetching, without and with, under SC and RC.
/// Bars: SC, SC+pf, RC, RC+pf — normalized to SC.
pub fn figure4(base: &ExperimentConfig) -> FigureReport {
    figure(4, base)
}

/// Figure 5: effect of multiple contexts under SC: 1 context, then 2 and 4
/// contexts at 16-cycle and at 4-cycle switch overhead.
pub fn figure5(base: &ExperimentConfig) -> FigureReport {
    figure(5, base)
}

/// Figure 6: combining the schemes (4-cycle switch): SC with 1/2/4
/// contexts, RC with 1/2/4 contexts, RC+prefetch with 1/2/4 contexts.
pub fn figure6(base: &ExperimentConfig) -> FigureReport {
    figure(6, base)
}

/// The concluding claim (§7): the best technique combination per
/// application, against both the cached-SC machine and the no-cache
/// machine (the paper's overall 4–7× figure composes the caching gain with
/// the best latency-tolerance combination).
#[derive(Debug, Clone)]
pub struct Summary {
    /// Per-app: (best experiment, speedup vs cached SC, speedup vs no-cache).
    pub best: Vec<(Experiment, f64, f64)>,
}

impl Summary {
    /// Renders the summary lines.
    pub fn render(&self) -> String {
        let mut s = String::from("Best combinations (paper §7: overall gains of 4x-7x)\n");
        for (e, vs_sc, vs_nc) in &self.best {
            s.push_str(&format!(
                "  {:<6} best = {:<18} {:>5.2}x over cached SC, {:>5.2}x over no-cache SC\n",
                e.app.name(),
                e.config.label(),
                vs_sc,
                vs_nc
            ));
        }
        s
    }
}

/// Searches the full technique matrix for each application's best
/// combination.
///
/// # Errors
///
/// Propagates a failed run.
pub fn summary(base: &ExperimentConfig) -> Result<Summary, RunError> {
    let sw = Cycle(4);
    let candidates = [
        base.clone().with_rc(),
        base.clone().with_rc().with_prefetching(),
        base.clone().with_rc().with_contexts(2, sw),
        base.clone().with_rc().with_contexts(4, sw),
        base.clone()
            .with_rc()
            .with_prefetching()
            .with_contexts(2, sw),
        base.clone()
            .with_rc()
            .with_prefetching()
            .with_contexts(4, sw),
    ];
    let mut best = Vec::new();
    for app in App::ALL {
        let cached_sc = run(app, base)?;
        let no_cache = run(app, &base.clone().without_caching())?;
        let mut best_e: Option<Experiment> = None;
        for c in &candidates {
            let e = run(app, c)?;
            if best_e
                .as_ref()
                .is_none_or(|b| e.result.elapsed < b.result.elapsed)
            {
                best_e = Some(e);
            }
        }
        let e = best_e.expect("candidates non-empty");
        let vs_sc = cached_sc.result.elapsed.as_u64() as f64 / e.result.elapsed.as_u64() as f64;
        let vs_nc = no_cache.result.elapsed.as_u64() as f64 / e.result.elapsed.as_u64() as f64;
        best.push((e, vs_sc, vs_nc));
    }
    Ok(Summary { best })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_the_nine_rows() {
        let t = table1();
        assert!(t.contains("Hit in Primary Cache"));
        assert!(t.contains("90 pclock") || t.contains("  90 pclock"));
        assert!(t.contains("Owned in Remote Node"));
    }

    #[test]
    fn figure3_shapes_hold_at_test_scale() {
        let report = figure3(&ExperimentConfig::base_test());
        assert!(report.is_complete(), "failures: {:?}", report.failures);
        let f = report.figure;
        assert_eq!(f.groups.len(), 3);
        for g in &f.groups {
            // RC bar is never (materially) taller than the SC baseline.
            // PTHOR gets slack: its amount of work is timing-dependent
            // (task activation order changes which gates re-evaluate — the
            // paper notes the same busy-time variability in §2.2), which
            // at test scale can outweigh the consistency-model gain.
            let limit = if g.app == "PTHOR" { 115.0 } else { 100.5 };
            assert!(
                g.bars[1].scaled.total() <= limit,
                "{}: RC bar {:.1} exceeds SC baseline",
                g.app,
                g.bars[1].scaled.total()
            );
            // RC write stall is (near) zero.
            assert!(
                g.bars[1].scaled.write_stall < 1.0,
                "{}: RC write stall {:.1}%",
                g.app,
                g.bars[1].scaled.write_stall
            );
        }
        let text = f.render();
        assert!(text.contains("MP3D") && text.contains("LU") && text.contains("PTHOR"));
    }

    #[test]
    fn figure2_caching_wins_everywhere() {
        let report = figure2(&ExperimentConfig::base_test());
        assert!(report.is_complete(), "failures: {:?}", report.failures);
        for g in &report.figure.groups {
            assert!(
                g.speedup(1) > 1.3,
                "{}: caching speedup only {:.2}",
                g.app,
                g.speedup(1)
            );
        }
    }
}
