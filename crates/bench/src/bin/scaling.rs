//! Machine-scaling study.
//!
//! Two parts:
//!
//! 1. Application speedup vs processor count (the concurrency context for
//!    all of the paper's 16-processor results).
//! 2. The paper's §6.1 observation: "when PTHOR is run with only four
//!    processors instead of sixteen, multiple contexts achieve much
//!    greater gains: four context-processors run about twice as fast as
//!    single-context processors" — the parallelism freed by fewer
//!    processors becomes available for latency hiding.
//!
//! Every measurement goes through a [`SweepLog`]: the points of each part
//! run in parallel on the sweep worker pool through [`SweepLog::measure`]
//! (`--jobs N` to cap it), and one failed machine size degrades the
//! output to a partial JSON record (exit code 5) instead of aborting the
//! whole study.

use std::process::ExitCode;

use dashlat::apps::App;
use dashlat_bench::{base_config_from_args, print_preamble, run_point, SweepLog};
use dashlat_sim::Cycle;

fn main() -> ExitCode {
    let base = base_config_from_args();
    print_preamble("Scaling study", &base);
    let mut log = SweepLog::new();

    println!("## Speedup vs processor count (SC)\n");
    const PROCS: [usize; 5] = [1, 2, 4, 8, 16];
    let mut points = Vec::new();
    for app in App::ALL {
        for procs in PROCS {
            let mut cfg = base.clone();
            cfg.processors = procs;
            points.push((format!("{}/p{procs}", app.name()), (app, cfg)));
        }
    }
    let elapsed = log.measure("speedup", &points, None, run_point);
    for (a, app) in App::ALL.iter().enumerate() {
        print!("  {:<6}", app.name());
        let mut baseline = None;
        for (p, procs) in PROCS.iter().enumerate() {
            match elapsed[a * PROCS.len() + p] {
                Some(t) => {
                    let speedup = baseline.map_or(1.0, |b: u64| b as f64 / t as f64);
                    if baseline.is_none() {
                        baseline = Some(t);
                    }
                    print!("  p{procs}: {speedup:>5.2}x");
                }
                None => print!("  p{procs}: failed"),
            }
        }
        println!();
    }

    println!("\n## PTHOR with 4 processors: multiple contexts shine (§6.1)\n");
    let mut points = Vec::new();
    for procs in [4usize, 16] {
        let mut one = base.clone();
        one.processors = procs;
        let mut four = base.clone().with_contexts(4, Cycle(4));
        four.processors = procs;
        points.push((format!("p{procs}/1ctx"), (App::Pthor, one)));
        points.push((format!("p{procs}/4ctx"), (App::Pthor, four)));
    }
    let elapsed = log.measure("pthor-contexts", &points, None, run_point);
    for (i, procs) in [4usize, 16].iter().enumerate() {
        if let (Some(t1), Some(t4)) = (elapsed[2 * i], elapsed[2 * i + 1]) {
            println!(
                "  {procs:>2} processors: 1ctx {t1:>12} | 4ctx/4 {t4:>12} | gain {:>4.2}x",
                t1 as f64 / t4 as f64
            );
        }
    }

    log.finish()
}
