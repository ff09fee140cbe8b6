//! Benchmark of the dash-latency reproduction: the in-process simulator
//! (figure cells), the memory-model verifier (litmus corpus), and the
//! `dashlat serve` daemon (job round trips, cold and cached).
//!
//! Usage:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures|litmus|daemon|daemon-cached> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones (operation latency median and 90th percentile,
//! set-up time, all at the reference host speed of [`calib`]); with
//! `--trace 1` they are the per-stage self times and
//! per-operation layer counts, and the spans are written to
//! `.perfbench-out/trace-<workload>-<seed>.json`. See `perfbench/README.md`.

mod calib;
mod daemon;
mod figures;
mod litmus;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use calib::{HostClock, Sample, Stopwatch};
use trace::Tracer;

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 5;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Work done below the benchmark, summed over the measured operations.
#[derive(Default)]
pub struct Counts {
    /// Simulated-machine runs (figure cells, verifier interleavings,
    /// daemon cells actually simulated).
    pub machine_runs: u64,
    /// Simulator events, where the layer reports them (figure cells).
    pub sim_events: u64,
    /// Daemon cells served from its result cache instead of simulated.
    pub cache_hits: u64,
}

/// What one measured run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Latency of each operation, check excluded (see [`calib`]).
    pub latencies: Vec<Sample>,
    /// Operations whose output failed the check.
    pub failed: u64,
    /// Work counts below the benchmark.
    pub counts: Counts,
}

impl Outcome {
    /// Records one finished operation.
    pub fn record(&mut self, latency: Sample, ok: bool) {
        self.latencies.push(latency);
        if !ok {
            self.failed += 1;
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Times `setup` [`SETUP_REPS`] times, keeping the last result; returns
/// it with the median set-up time in seconds.
pub fn repeat_setup<T>(
    clock: &mut HostClock,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        clock.probe();
        let sw = Stopwatch::start();
        let value = setup(rep)?;
        samples.push(clock.elapsed(&sw));
        last = Some(value);
    }
    clock.finish();
    let mut times: Vec<f64> = samples
        .iter()
        .map(|s| clock.rescale(s).as_secs_f64())
        .collect();
    times.sort_by(f64::total_cmp);
    Ok((
        last.expect("at least one set-up repetition"),
        times[SETUP_REPS / 2],
    ))
}

/// Nearest-rank percentile of sorted samples, in milliseconds.
fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut clock = HostClock::new();
    let result = match args.workload.as_str() {
        "figures" => figures::run(&args, &mut tracer, &mut clock),
        "litmus" => litmus::run(&args, &mut tracer, &mut clock),
        "daemon" => daemon::run(&args, &mut tracer, &mut clock, false),
        "daemon-cached" => daemon::run(&args, &mut tracer, &mut clock, true),
        other => Err(format!(
            "unknown workload {other:?} (figures, litmus, daemon, daemon-cached)"
        )),
    };
    let (outcome, setup_s) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if outcome.latencies.is_empty() {
        eprintln!("perfbench: {}: no operation completed", args.workload);
        return ExitCode::FAILURE;
    }

    let attempted = outcome.latencies.len() as u64;
    let metrics: Vec<String> = if args.trace {
        let path = format!(".perfbench-out/trace-{}-{}.json", args.workload, args.seed);
        if let Err(e) = std::fs::create_dir_all(".perfbench-out")
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()))
        {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        let per_op = |n: u64| n as f64 / attempted as f64;
        let c = &outcome.counts;
        let mut m: Vec<String> = tracer
            .stage_self_ms()
            .into_iter()
            .map(|(stage, ms)| metric(&format!("{stage}_ms"), ms, "ms"))
            .collect();
        m.push(metric("machine_runs", per_op(c.machine_runs), "count"));
        m.push(metric("sim_events", per_op(c.sim_events), "count"));
        m.push(metric("cache_hits", per_op(c.cache_hits), "count"));
        m
    } else {
        clock.finish();
        let mut latencies: Vec<Duration> =
            outcome.latencies.iter().map(|s| clock.rescale(s)).collect();
        latencies.sort_unstable();
        vec![
            metric("p50_ms", percentile_ms(&latencies, 0.50), "ms"),
            metric("p90_ms", percentile_ms(&latencies, 0.90), "ms"),
            metric("setup_s", setup_s, "s"),
        ]
    };
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
