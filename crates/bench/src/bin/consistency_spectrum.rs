//! Extension experiment: the full consistency spectrum (SC, PC, WC, RC).
//!
//! The paper evaluates the two ends and notes that processor consistency
//! and weak consistency fall in between (§4). This binary sweeps all four
//! models over the three applications. The sweep is resilient: a failed
//! cell is reported and the remaining models still render, and the exit
//! code is the figure binaries' ([`FigureReport::exit_code`]).
//!
//! [`FigureReport::exit_code`]: dashlat::experiments::FigureReport::exit_code

use std::process::ExitCode;

use dashlat::config::ExperimentConfig;
use dashlat::experiments::figure_from_matrix;
use dashlat_bench::{base_config_from_args, print_preamble};
use dashlat_cpu::config::Consistency;

fn main() -> ExitCode {
    let base = base_config_from_args();
    print_preamble("Consistency spectrum (extension)", &base);
    let configs: Vec<ExperimentConfig> = [
        Consistency::Sc,
        Consistency::Pc,
        Consistency::Wc,
        Consistency::Rc,
    ]
    .into_iter()
    .map(|m| base.clone().with_consistency(m))
    .collect();
    // Bars are normalized to SC (the first cell); an app whose SC cell
    // failed has no group.
    let report = figure_from_matrix("Consistency spectrum", &configs);
    for (app, label, failure) in &report.failures {
        eprintln!("warning: {app}/{label} failed: {failure}");
    }
    for g in &report.figure.groups {
        println!("{}", g.app);
        for (i, bar) in g.bars.iter().enumerate() {
            println!(
                "  {:<4} {:>6.1}% of SC   {:>5.2}x",
                bar.label,
                bar.scaled.total(),
                g.speedup(i)
            );
        }
        println!();
    }
    ExitCode::from(report.exit_code())
}
