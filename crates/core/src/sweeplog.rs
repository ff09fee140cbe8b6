//! Sweep result logging: ordered cell outcomes, partial-result JSON,
//! crash-safe publication.
//!
//! [`SweepLog`] collects per-cell outcomes so one failed configuration
//! degrades a sweep to a *partial* JSON record instead of aborting the
//! whole run. It started life in `dashlat-bench` (which still re-exports
//! it for the figure binaries) and moved here so the supervised sweep in
//! [`crate::sweep`] can assemble logs from journal replay + live runs and
//! publish them atomically ([`SweepLog::write_atomic`]) — a kill mid-write
//! can never leave a truncated results file.

use std::io;
use std::path::Path;
use std::process::ExitCode;

use crate::apps::App;
use crate::config::ExperimentConfig;
use crate::runner::{catch_panic, run_isolated};

/// The elapsed pclocks of one (application, configuration) sweep point,
/// run through [`run_isolated`]: a panic, a structured run error or — when
/// the configuration requests analysis, as `--analyze` does — a
/// detected race fails the point with that failure's message.
pub fn run_point(point: &(App, ExperimentConfig)) -> Result<u64, String> {
    let (app, config) = point;
    run_isolated(*app, config)
        .map(|e| e.result.elapsed.as_u64())
        .map_err(|f| f.to_string())
}

/// One sweep point: which sweep it belongs to, which setting it measured,
/// and the elapsed cycles or the failure message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// Sweep name, e.g. `write-buffer-depth`.
    pub sweep: String,
    /// Point label within the sweep, e.g. `depth=4`.
    pub point: String,
    /// Elapsed pclocks on success, or why the run failed.
    pub outcome: Result<u64, String>,
}

/// Collects sweep results so one failed configuration degrades the run to
/// a *partial* JSON record instead of aborting the whole binary.
///
/// The sweep binaries (`ablations`, `scaling`) route every measurement
/// through [`SweepLog::measure`]: failures (structured
/// [`RunError`](dashlat_cpu::machine::RunError)s and panics alike) are
/// recorded and warned about, the sweep continues, and
/// [`SweepLog::finish`] emits the machine-readable JSON record with a
/// `complete` flag plus the matching process exit code (0 complete,
/// 5 partial — the same convention as the CLI).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SweepLog {
    points: Vec<SweepPoint>,
}

impl SweepLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one already-measured outcome (no isolation, no warning) —
    /// the supervised sweep uses this to assemble a log from journal
    /// replay plus live runs, in plan order.
    pub fn record(
        &mut self,
        sweep: impl Into<String>,
        point: impl Into<String>,
        outcome: Result<u64, String>,
    ) {
        self.points.push(SweepPoint {
            sweep: sweep.into(),
            point: point.into(),
            outcome,
        });
    }

    /// Measures every labelled point of one study: runs `f` on each
    /// point's value on the sweep worker pool
    /// ([`crate::pool::par_indexed_map_while`], `jobs = None` → the
    /// process-wide `--jobs` default, clamped like every pool) with panic
    /// isolation, and records each outcome under `sweep` **in input
    /// order** regardless of completion order; failures are also warned to
    /// stderr. Returns the elapsed cycles per point (`None` for a
    /// failure), also in input order. Points that are an (application,
    /// configuration) pair measure with [`run_point`].
    pub fn measure<P: Sync>(
        &mut self,
        sweep: &str,
        points: &[(String, P)],
        jobs: Option<usize>,
        f: impl Fn(&P) -> Result<u64, String> + Sync,
    ) -> Vec<Option<u64>> {
        let outcomes = crate::pool::par_indexed_map_while(
            jobs,
            points,
            || true,
            |_, (_, p)| catch_panic(|| f(p)).unwrap_or_else(|msg| Err(format!("panic: {msg}"))),
        );
        points
            .iter()
            .zip(outcomes)
            .map(|((point, _), outcome)| {
                let outcome = outcome.expect("an uncancelled pool runs every cell");
                if let Err(e) = &outcome {
                    eprintln!("warning: {sweep} / {point} failed: {e}");
                }
                let elapsed = outcome.as_ref().ok().copied();
                self.record(sweep, point.clone(), outcome);
                elapsed
            })
            .collect()
    }

    /// Number of failed points recorded so far.
    pub fn failed(&self) -> usize {
        self.points.iter().filter(|p| p.outcome.is_err()).count()
    }

    /// The recorded points, in record order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Renders the log as a JSON record. `complete` is false when any
    /// point failed; failed points carry an `error` field instead of
    /// `elapsed`, so consumers see exactly which cells are missing.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| dashlat_sim::json::quote(s);
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"complete\": {},\n  \"points\": [\n",
            self.failed() == 0
        ));
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"sweep\": {}, \"point\": {}, ",
                esc(&p.sweep),
                esc(&p.point)
            ));
            match &p.outcome {
                Ok(v) => out.push_str(&format!("\"elapsed\": {v}}}")),
                Err(e) => out.push_str(&format!("\"error\": {}}}", esc(e))),
            }
            if i + 1 < self.points.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}");
        out
    }

    /// Publishes the JSON record to `path` atomically (write-temp +
    /// fsync + rename): readers see the old file or the complete new one,
    /// never a truncated mix — even across `kill -9` mid-write.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on failure `path` is untouched.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let mut contents = self.to_json();
        contents.push('\n');
        dashlat_sim::journal::atomic_write(path, &contents)
    }

    /// Prints the JSON record (partial or complete) and converts the log
    /// into the process exit code: 0 when complete, 5 when partial.
    pub fn finish(self) -> ExitCode {
        println!("\n## JSON record\n\n{}", self.to_json());
        if self.failed() == 0 {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "warning: {} sweep point(s) failed; the JSON record above is partial",
                self.failed()
            );
            ExitCode::from(5)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_log_survives_failures_and_emits_partial_json() {
        let points = ["ok", "boom", "err"].map(|p| (p.to_owned(), p));
        let mut log = SweepLog::new();
        let elapsed = log.measure("s", &points, Some(1), |&p| match p {
            "ok" => Ok(42),
            "boom" => panic!("poisoned config"),
            _ => Err("deadlock".into()),
        });
        assert_eq!(elapsed, [Some(42), None, None]);
        assert_eq!(log.failed(), 2);
        let json = log.to_json();
        assert!(json.contains("\"complete\": false"));
        assert!(json.contains("\"elapsed\": 42"));
        assert!(json.contains("panic: poisoned config"));
        assert!(json.contains("\"error\": \"deadlock\""));
    }

    #[test]
    fn sweep_log_complete_json() {
        let mut log = SweepLog::new();
        log.record("s", "a", Ok(1));
        assert_eq!(log.failed(), 0);
        assert!(log.to_json().contains("\"complete\": true"));
    }

    #[test]
    fn batch_records_in_input_order_and_isolates_panics() {
        let points: Vec<(String, u64)> = (0u64..20).map(|i| (format!("i={i}"), i)).collect();
        assert_eq!(points.len(), 20);
        let mut log = SweepLog::new();
        let elapsed = log.measure("batch", &points, Some(4), |&i| {
            if i == 7 {
                panic!("cell 7 poisoned");
            }
            Ok(i * 10)
        });
        assert_eq!(elapsed.len(), 20);
        for (i, e) in elapsed.iter().enumerate() {
            if i == 7 {
                assert!(e.is_none());
            } else {
                assert_eq!(*e, Some(i as u64 * 10));
            }
        }
        assert_eq!(log.failed(), 1);
        let json = log.to_json();
        assert!(json.contains("cell 7 poisoned"));
        // Points appear in input order in the JSON record.
        let p3 = json.find("\"point\": \"i=3\"").expect("i=3 present");
        let p12 = json.find("\"point\": \"i=12\"").expect("i=12 present");
        assert!(p3 < p12);
    }

    #[test]
    fn batch_serial_and_parallel_agree() {
        let run_with = |jobs: usize| {
            let points: Vec<(String, u64)> = (0u64..12).map(|i| (format!("i={i}"), i)).collect();
            let mut log = SweepLog::new();
            let elapsed = log.measure("s", &points, Some(jobs), |&i| Ok(i * i));
            (elapsed, log.to_json())
        };
        assert_eq!(run_with(1), run_with(8));
    }

    #[test]
    fn batch_never_has_more_cells_in_flight_than_cores() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let cores = crate::pool::hardware_cores();
        // Cells meet in groups of `cores` at a barrier, so a pool with one
        // worker per core has every worker busy at once; a pool with a
        // worker per cell (64 on a 2-core host) starts further cells while
        // those wait, and the peak overshoots.
        let cells = 32 * cores;
        let barrier = Barrier::new(cores);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let points: Vec<(String, ())> = (0..cells).map(|i| (format!("i={i}"), ())).collect();
        let mut log = SweepLog::new();
        log.measure("inflight", &points, Some(cells), |()| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            barrier.wait();
            in_flight.fetch_sub(1, Ordering::SeqCst);
            Ok(0)
        });
        assert_eq!(log.failed(), 0);
        assert_eq!(peak.load(Ordering::SeqCst), cores);
    }

    #[test]
    fn record_appends_without_side_effects() {
        let mut log = SweepLog::new();
        log.record("s", "a", Ok(5));
        log.record("s", "b", Err("nope".into()));
        assert_eq!(log.points().len(), 2);
        assert_eq!(log.failed(), 1);
    }

    #[test]
    fn json_escapes_error_payloads_fully() {
        let mut log = SweepLog::new();
        log.record("s", "a", Err("line1\nline2 \"quoted\" \\ tab\t".into()));
        let json = log.to_json();
        // The record stays one readable JSON document: the raw newline is
        // escaped, not embedded.
        assert!(json.contains("line1\\nline2 \\\"quoted\\\" \\\\ tab\\t"));
        let parsed = dashlat_sim::json::Value::parse(&json).expect("valid JSON");
        let points = parsed.get("points").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(
            points[0].get("error").and_then(|v| v.as_str()),
            Some("line1\nline2 \"quoted\" \\ tab\t")
        );
    }

    #[test]
    fn write_atomic_round_trips() {
        let dir = std::env::temp_dir().join(format!("dashlat-sweeplog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sweep.json");
        let mut log = SweepLog::new();
        log.record("s", "a", Ok(1));
        log.write_atomic(&path).expect("write");
        let on_disk = std::fs::read_to_string(&path).expect("read");
        assert_eq!(on_disk, format!("{}\n", log.to_json()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
