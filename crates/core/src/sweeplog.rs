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
use std::sync::Mutex;

use crate::apps::App;
use crate::config::ExperimentConfig;
use crate::runner::{catch_panic, run};

type CellFn<'a> = Box<dyn FnOnce() -> Result<u64, String> + Send + 'a>;

/// A batch of independent sweep cells, built up first and then executed
/// together on the worker pool by [`SweepLog::measure_batch`].
///
/// The sweep binaries used to interleave measuring and printing one cell
/// at a time; batching separates the two so the measurements — each an
/// independent single-threaded simulation — can run in parallel while the
/// log still records (and the binary still prints) results in input order.
#[derive(Default)]
pub struct SweepBatch<'a> {
    cells: Vec<(String, String, CellFn<'a>)>,
}

impl<'a> SweepBatch<'a> {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one cell: `f` will run under panic isolation when the batch
    /// is measured, recorded under `sweep`/`point`.
    pub fn add(
        &mut self,
        sweep: impl Into<String>,
        point: impl Into<String>,
        f: impl FnOnce() -> Result<u64, String> + Send + 'a,
    ) {
        self.cells.push((sweep.into(), point.into(), Box::new(f)));
    }

    /// Queues a standard-runner cell: `app` under `cfg` (cloned).
    pub fn add_run(
        &mut self,
        sweep: impl Into<String>,
        point: impl Into<String>,
        app: App,
        cfg: &ExperimentConfig,
    ) {
        let cfg = cfg.clone();
        self.add(sweep, point, move || {
            run(app, &cfg)
                .map(|e| e.result.elapsed.as_u64())
                .map_err(|e| e.to_string())
        });
    }

    /// Number of queued cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell is queued.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
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
/// through [`SweepLog::measure_batch`]: failures (structured
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

    /// Runs every cell of `batch` on the sweep worker pool
    /// ([`crate::pool::par_indexed_map_while`], `jobs = None` → the
    /// process-wide `--jobs` default, clamped like every pool) with panic
    /// isolation, and records each outcome **in input order** regardless
    /// of completion order; failures are also warned to stderr. Returns
    /// the elapsed cycles per cell (`None` for a failure), also in input
    /// order.
    pub fn measure_batch(
        &mut self,
        batch: SweepBatch<'_>,
        jobs: Option<usize>,
    ) -> Vec<Option<u64>> {
        let cells: Vec<(String, String, Mutex<Option<CellFn<'_>>>)> = batch
            .cells
            .into_iter()
            .map(|(s, p, f)| (s, p, Mutex::new(Some(f))))
            .collect();
        let outcomes = crate::pool::par_indexed_map_while(
            jobs,
            &cells,
            || true,
            |_, (_, _, cell)| {
                let f = cell
                    .lock()
                    .expect("cell lock poisoned")
                    .take()
                    .expect("each cell runs exactly once");
                catch_panic(f).unwrap_or_else(|msg| Err(format!("panic: {msg}")))
            },
        );
        cells
            .into_iter()
            .zip(outcomes)
            .map(|((sweep, point, _), outcome)| {
                let outcome = outcome.expect("an uncancelled pool runs every cell");
                if let Err(e) = &outcome {
                    eprintln!("warning: {sweep} / {point} failed: {e}");
                }
                let elapsed = outcome.as_ref().ok().copied();
                self.points.push(SweepPoint {
                    sweep,
                    point,
                    outcome,
                });
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
        let mut batch = SweepBatch::new();
        batch.add("s", "ok", || Ok(42));
        batch.add("s", "boom", || panic!("poisoned config"));
        batch.add("s", "err", || Err("deadlock".into()));
        let mut log = SweepLog::new();
        assert_eq!(log.measure_batch(batch, Some(1)), [Some(42), None, None]);
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
        let mut batch = SweepBatch::new();
        for i in 0u64..20 {
            batch.add("batch", format!("i={i}"), move || {
                if i == 7 {
                    panic!("cell 7 poisoned");
                }
                Ok(i * 10)
            });
        }
        assert_eq!(batch.len(), 20);
        let mut log = SweepLog::new();
        let elapsed = log.measure_batch(batch, Some(4));
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
            let mut batch = SweepBatch::new();
            for i in 0u64..12 {
                batch.add("s", format!("i={i}"), move || Ok(i * i));
            }
            let mut log = SweepLog::new();
            let elapsed = log.measure_batch(batch, Some(jobs));
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
        let mut batch = SweepBatch::new();
        for i in 0..cells {
            batch.add("inflight", format!("i={i}"), || {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                barrier.wait();
                in_flight.fetch_sub(1, Ordering::SeqCst);
                Ok(0)
            });
        }
        let mut log = SweepLog::new();
        log.measure_batch(batch, Some(cells));
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
