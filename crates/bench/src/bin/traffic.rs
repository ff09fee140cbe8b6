//! Open-loop traffic driver for the `dashlat serve` daemon.
//!
//! Where `perf` measures the simulator and the figure binaries measure
//! the simulated machine, this one measures the *service*: it boots a
//! daemon in-process, fires job submissions at a fixed arrival rate —
//! open-loop, so arrivals do not slow down when the daemon does, exactly
//! the regime where an unbounded queue would grow without limit — and
//! reports the submit-latency distribution plus the admission outcome
//! histogram (202 accepted vs 429 shed).
//!
//! Usage: `traffic [--requests N] [--interval-ms N] [--workers N]
//!                 [--queue-depth N] [--data-dir PATH] [--chaos]
//!                 [--conn-deadline-secs N]`
//!
//! * `--requests N` — submissions to fire (default 24).
//! * `--interval-ms N` — arrival interval (default 50; an interval much
//!   shorter than a job's service time forces load shedding, which is
//!   the point).
//! * `--workers N` — daemon worker threads (default 1).
//! * `--queue-depth N` — admission queue bound (default 2).
//! * `--data-dir PATH` — daemon state directory (default: a fresh
//!   directory under the system temp dir).
//! * `--chaos` — interleave one adversarial client per submission,
//!   cycling slow writers, mid-request disconnects, and oversized
//!   bodies ([`dashlat_serve::chaosclient`]); the histogram gains the
//!   server's error taxonomy (408 / 413 / silent close), and any
//!   answer other than the taxonomy's is a failure.
//! * `--conn-deadline-secs N` — the daemon's per-connection deadline
//!   (default 2 with `--chaos` so slow writers are cut off quickly,
//!   10 otherwise).
//!
//! The driver exits 0 when every submission was either accepted or
//! cleanly shed, every adversarial client got its taxonomy answer, and
//! the daemon drained and shut down gracefully; any transport error or
//! malformed response exits 1. Because all jobs share one figure
//! matrix, every job after the first is served almost entirely from the
//! result cache — the histogram therefore also shows the cache turning
//! an overloaded service into a keep-up one.

use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dashlat_bench::{command_line, or_exit};
use dashlat_serve::{chaosclient, client, ChaosMode, JobSpec, ServeConfig, Server};

struct Sample {
    status: u16,
    micros: u128,
}

/// What the server is required to answer a given adversary with.
fn expected_answer(mode: ChaosMode) -> &'static str {
    match mode {
        ChaosMode::SlowWriter => "408",
        ChaosMode::MidRequestDisconnect => "sent",
        ChaosMode::OversizedBody => "413",
    }
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut args = command_line();
    let requests: usize = or_exit(args.value("--requests")).unwrap_or(24);
    let interval = Duration::from_millis(or_exit(args.value("--interval-ms")).unwrap_or(50));
    let workers: usize = or_exit(args.value("--workers")).unwrap_or(1);
    let queue_depth: usize = or_exit(args.value("--queue-depth")).unwrap_or(2);
    let chaos = or_exit(args.switch("--chaos"));
    let conn_deadline_secs =
        or_exit(args.value("--conn-deadline-secs")).unwrap_or(if chaos { 2 } else { 10 });
    let data_dir = or_exit(args.value("--data-dir")).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("dashlat-traffic-{}", std::process::id()))
    });
    or_exit(args.finish());

    let server = match Server::new(ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.clone(),
        workers,
        queue_depth,
        job_timeout_secs: 600,
        conn_deadline_secs,
        ..ServeConfig::default()
    }) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("traffic: cannot create daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let runner = Arc::clone(&server);
    let daemon = std::thread::spawn(move || runner.run());

    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(a) = client::read_addr_file(&data_dir) {
            break a;
        }
        if Instant::now() > deadline {
            eprintln!("traffic: daemon never published its address");
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    println!(
        "traffic: daemon at {addr} — {workers} worker(s), queue depth {queue_depth}; \
         firing {requests} submission(s) every {}ms (open loop{})",
        interval.as_millis(),
        if chaos {
            ", adversarial clients on"
        } else {
            ""
        }
    );

    // Open loop: each submission fires on schedule from its own thread,
    // so a slow daemon cannot push back on the arrival process. With
    // --chaos, every submission brings an adversarial sibling along —
    // the well-behaved client measures whether the misbehaving one
    // degraded the service.
    let spec = JobSpec {
        sweep_jobs: Some(1),
        ..JobSpec::sweep(
            3,
            vec!["--test-scale".into(), "--processors".into(), "4".into()],
        )
    };
    let body = spec.to_json();
    let (tx, rx) = mpsc::channel::<Result<Sample, String>>();
    let (chaos_tx, chaos_rx) = mpsc::channel::<(ChaosMode, String)>();
    let mut senders = Vec::new();
    for i in 0..requests {
        if chaos {
            let mode = ChaosMode::ALL[i % ChaosMode::ALL.len()];
            let chaos_tx = chaos_tx.clone();
            let chaos_addr = addr.clone();
            senders.push(std::thread::spawn(move || {
                let _ = chaos_tx.send((mode, chaosclient::run(&chaos_addr, mode)));
            }));
        }
        let tx = tx.clone();
        let addr = addr.clone();
        let body = body.clone();
        senders.push(std::thread::spawn(move || {
            let start = Instant::now();
            let result = client::request(&addr, "POST", "/jobs", Some(&body))
                .map(|resp| Sample {
                    status: resp.status,
                    micros: start.elapsed().as_micros(),
                })
                .map_err(|e| e.to_string());
            let _ = tx.send(result);
        }));
        std::thread::sleep(interval);
    }
    drop(tx);
    drop(chaos_tx);
    for s in senders {
        let _ = s.join();
    }

    let mut accepted = 0usize;
    let mut shed = 0usize;
    let mut other = 0usize;
    let mut errors = 0usize;
    let mut latencies: Vec<u128> = Vec::new();
    for r in rx {
        match r {
            Ok(sample) => {
                match sample.status {
                    202 => accepted += 1,
                    429 => shed += 1,
                    _ => other += 1,
                }
                latencies.push(sample.micros);
            }
            Err(e) => {
                eprintln!("traffic: transport error: {e}");
                errors += 1;
            }
        }
    }
    latencies.sort_unstable();

    // Tally the adversaries: per mode, how often the server gave the
    // taxonomy's answer vs anything else (indexed like ChaosMode::ALL).
    let mut taxonomy = [(0usize, 0usize); ChaosMode::ALL.len()];
    let mut surprises = 0usize;
    for (mode, outcome) in chaos_rx {
        let slot = ChaosMode::ALL
            .iter()
            .position(|m| *m == mode)
            .unwrap_or_default();
        if outcome == expected_answer(mode) {
            taxonomy[slot].0 += 1;
        } else {
            taxonomy[slot].1 += 1;
            surprises += 1;
            eprintln!(
                "traffic: {} client expected {}, got {outcome}",
                mode.tag(),
                expected_answer(mode)
            );
        }
    }

    // Let the daemon drain what it admitted, then stop it gracefully.
    let drain_deadline = Instant::now() + Duration::from_secs(600);
    loop {
        match client::request(&addr, "GET", "/healthz", None) {
            Ok(h) if h.body.contains("\"queued\":0,\"running\":0") => break,
            Ok(_) if Instant::now() < drain_deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Ok(_) => {
                eprintln!("traffic: daemon did not drain in time");
                errors += 1;
                break;
            }
            Err(e) => {
                eprintln!("traffic: lost the daemon while draining: {e}");
                errors += 1;
                break;
            }
        }
    }
    let cache_line = client::request(&addr, "GET", "/healthz", None)
        .map(|h| h.body)
        .unwrap_or_default();
    server.stop();
    let graceful = matches!(daemon.join(), Ok(Ok(())));

    println!("traffic: outcome histogram");
    println!("  202 accepted : {accepted}");
    println!("  429 shed     : {shed}");
    println!("  other status : {other}");
    println!("  errors       : {errors}");
    if chaos {
        println!("traffic: adversarial taxonomy (answer expected by each mode)");
        for (slot, mode) in ChaosMode::ALL.iter().enumerate() {
            let (ok, bad) = taxonomy[slot];
            println!(
                "  {:<14} → {:<4} : {ok} ok, {bad} unexpected",
                mode.tag(),
                expected_answer(*mode),
            );
        }
    }
    println!(
        "traffic: submit latency µs — p50 {} | p90 {} | p99 {} | max {}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.99),
        latencies.last().copied().unwrap_or(0),
    );
    if let Some(stats) = cache_line.split("\"cache_entries\"").nth(1) {
        println!("traffic: daemon cache_entries{stats}");
    }
    println!(
        "traffic: graceful shutdown {}",
        if graceful { "ok" } else { "FAILED" }
    );

    if errors == 0 && other == 0 && surprises == 0 && accepted + shed == requests && graceful {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
