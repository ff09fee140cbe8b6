//! Job specifications and lifecycle states.
//!
//! A [`JobSpec`] is what a client POSTs to `/jobs` and what the daemon
//! persists as `job.json` inside the job directory — the same JSON both
//! ways, so a recovered job re-runs exactly what was submitted. The
//! three kinds mirror the long-running CLI workloads: figure sweeps
//! (crash-safe, resumable, cache-assisted), chaos campaigns, and
//! memory-model verification suites.

use dashlat::apps::App;
use dashlat::chaos::ChaosOptions;
use dashlat::config::ExperimentConfig;
use dashlat::experiments::FIGURES;
use dashlat::sweep::{SweepOptions, SweepPlan};
use dashlat_cpu::config::Consistency;
use dashlat_sim::json::{quote, Value};

/// What a job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// A supervised sweep of one paper figure: journaled, resumable,
    /// served through the result cache.
    Sweep {
        /// Figure number, one of [`FIGURES`].
        figure: u8,
    },
    /// A chaos campaign: randomized fault schedules against the online
    /// invariant checker, with shrinking. Runs as one unit (no journal).
    Chaos {
        /// Application to hammer.
        app: App,
        /// Fault schedules to try.
        trials: u32,
        /// Campaign seed.
        seed: u64,
    },
    /// A memory-model verification suite. Runs as one unit.
    Verify {
        /// Models to check (empty = all four).
        models: Vec<Consistency>,
        /// Litmus-test name filter (empty = whole corpus).
        tests: Vec<String>,
        /// Per-cell run budget (0 = the verifier's default).
        max_runs: u64,
    },
}

impl JobKind {
    /// Short kind tag used in JSON and status lines.
    pub fn tag(&self) -> &'static str {
        match self {
            JobKind::Sweep { .. } => "sweep",
            JobKind::Chaos { .. } => "chaos",
            JobKind::Verify { .. } => "verify",
        }
    }
}

/// One submitted job: the kind plus the machine configuration and
/// supervision knobs shared by all kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What to run.
    pub kind: JobKind,
    /// Machine flags in `dashlat` CLI syntax (e.g. `--test-scale`,
    /// `--processors 4`); parsed by [`dashlat::parse_machine_args`].
    pub machine: Vec<String>,
    /// Worker threads *inside* the sweep (cells in parallel); `None`
    /// uses the process default.
    pub sweep_jobs: Option<usize>,
    /// Max retries per transiently-failing cell.
    pub max_retries: u32,
    /// Per-job wall-clock deadline in seconds; `None` uses the server's
    /// default, `Some(0)` disables the deadline.
    pub timeout_secs: Option<u64>,
}

impl JobSpec {
    /// A spec with default supervision knobs: the process-default sweep
    /// worker count, [`SweepOptions`]' retry budget, the server's
    /// deadline.
    pub fn new(kind: JobKind, machine: Vec<String>) -> Self {
        Self {
            kind,
            machine,
            sweep_jobs: None,
            max_retries: SweepOptions::default().max_retries,
            timeout_secs: None,
        }
    }

    /// A sweep spec with default supervision knobs.
    pub fn sweep(figure: u8, machine: Vec<String>) -> Self {
        Self::new(JobKind::Sweep { figure }, machine)
    }

    /// Renders the spec as the JSON document accepted by `POST /jobs`.
    pub fn to_json(&self) -> String {
        let machine: Vec<String> = self.machine.iter().map(|a| quote(a)).collect();
        let mut s = String::from("{");
        match &self.kind {
            JobKind::Sweep { figure } => {
                s.push_str(&format!("\"kind\":\"sweep\",\"figure\":{figure}"));
            }
            JobKind::Chaos { app, trials, seed } => {
                s.push_str(&format!(
                    "\"kind\":\"chaos\",\"app\":{},\"trials\":{trials},\"seed\":{seed}",
                    quote(&app.name().to_ascii_lowercase())
                ));
            }
            JobKind::Verify {
                models,
                tests,
                max_runs,
            } => {
                let models: Vec<String> = models
                    .iter()
                    .map(|m| quote(&m.to_string().to_ascii_lowercase()))
                    .collect();
                let tests: Vec<String> = tests.iter().map(|t| quote(t)).collect();
                s.push_str(&format!(
                    "\"kind\":\"verify\",\"models\":[{}],\"tests\":[{}],\"max_runs\":{max_runs}",
                    models.join(","),
                    tests.join(",")
                ));
            }
        }
        s.push_str(&format!(",\"machine\":[{}]", machine.join(",")));
        if let Some(jobs) = self.sweep_jobs {
            s.push_str(&format!(",\"sweep_jobs\":{jobs}"));
        }
        s.push_str(&format!(",\"max_retries\":{}", self.max_retries));
        if let Some(t) = self.timeout_secs {
            s.push_str(&format!(",\"timeout_secs\":{t}"));
        }
        s.push('}');
        s
    }

    /// Parses a spec document (the body of `POST /jobs`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed, missing, or
    /// out-of-range field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Value::parse(text)?;
        let strings = |key: &str| -> Result<Vec<String>, String> {
            match v.get(key) {
                None => Ok(Vec::new()),
                Some(arr) => arr
                    .as_arr()
                    .ok_or(format!("{key} must be an array of strings"))?
                    .iter()
                    .map(|a| {
                        a.as_str()
                            .map(str::to_owned)
                            .ok_or(format!("{key} entries must be strings"))
                    })
                    .collect(),
            }
        };
        let u32_field = |key: &str| -> Result<Option<u32>, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .map(|n| {
                    u32::try_from(n).map_err(|_| format!("{key} must fit in 32 bits, got {n}"))
                })
                .transpose()
        };
        let kind = match v.get("kind").and_then(Value::as_str) {
            Some("sweep") => {
                let figure = v
                    .get("figure")
                    .and_then(Value::as_u64)
                    .ok_or("sweep jobs need a numeric figure")?;
                JobKind::Sweep {
                    figure: u8::try_from(figure)
                        .ok()
                        .filter(|n| FIGURES.contains(n))
                        .ok_or(format!("figure must be {FIGURES:?}, got {figure}"))?,
                }
            }
            Some("chaos") => {
                let app: App = v
                    .get("app")
                    .and_then(Value::as_str)
                    .ok_or("chaos jobs need an app")?
                    .parse()?;
                let d = ChaosOptions::default();
                JobKind::Chaos {
                    app,
                    trials: u32_field("trials")?.unwrap_or(d.trials),
                    seed: v.get("seed").and_then(Value::as_u64).unwrap_or(d.seed),
                }
            }
            Some("verify") => {
                let models = strings("models")?
                    .iter()
                    .map(|m| m.parse::<Consistency>())
                    .collect::<Result<Vec<_>, _>>()?;
                JobKind::Verify {
                    models,
                    tests: strings("tests")?,
                    max_runs: v.get("max_runs").and_then(Value::as_u64).unwrap_or(0),
                }
            }
            Some(other) => return Err(format!("unknown job kind {other:?}")),
            None => return Err("job spec missing kind".into()),
        };
        let defaults = Self::new(kind, strings("machine")?);
        Ok(Self {
            sweep_jobs: v
                .get("sweep_jobs")
                .and_then(Value::as_u64)
                .map(|n| n as usize),
            max_retries: u32_field("max_retries")?.unwrap_or(defaults.max_retries),
            timeout_secs: v.get("timeout_secs").and_then(Value::as_u64),
            ..defaults
        })
    }

    /// Checks what [`JobSpec::from_json`] cannot see field by field — the
    /// one validation `dashlat submit` and the daemon's admission share,
    /// so a bad spec is refused up front instead of failing as a job:
    /// the machine flags parse for every kind, a chaos campaign runs at
    /// least one trial, and every litmus test named exists.
    ///
    /// # Errors
    ///
    /// Says what is wrong.
    pub fn validate(&self) -> Result<(), String> {
        self.machine_config()?;
        match &self.kind {
            JobKind::Chaos { trials: 0, .. } => Err("chaos jobs need at least one trial".into()),
            JobKind::Verify { tests, .. } => dashlat_verify::check_test_names(tests),
            _ => Ok(()),
        }
    }

    /// Parses the machine flags into a full configuration, rejecting
    /// leftovers — submission-time validation, so a bad spec is a 400,
    /// not a failed job an hour later.
    ///
    /// # Errors
    ///
    /// Returns the parse error or the list of unrecognized flags.
    pub fn machine_config(&self) -> Result<ExperimentConfig, String> {
        let mut args = self.machine.clone();
        let config = dashlat::parse_machine_args(&mut args)?;
        if !args.is_empty() {
            return Err(format!("unknown machine flag(s): {}", args.join(" ")));
        }
        Ok(config)
    }

    /// Total work units, for progress reporting: sweep cells, chaos
    /// trials, or 0 when unknown up front (verify).
    ///
    /// # Errors
    ///
    /// Propagates machine-flag parse errors for sweep specs.
    pub fn cells_total(&self) -> Result<usize, String> {
        match &self.kind {
            JobKind::Sweep { figure } => {
                let config = self.machine_config()?;
                Ok(SweepPlan::figure(*figure, &config).cells.len())
            }
            JobKind::Chaos { trials, .. } => Ok(*trials as usize),
            JobKind::Verify { .. } => Ok(0),
        }
    }

    /// One-line description for logs and status output.
    pub fn describe(&self) -> String {
        match &self.kind {
            JobKind::Sweep { figure } => format!("sweep figure{figure}"),
            JobKind::Chaos { app, trials, seed } => {
                format!("chaos {app:?} x{trials} seed {seed}")
            }
            JobKind::Verify { models, tests, .. } => format!(
                "verify {} model(s), {} test filter(s)",
                if models.is_empty() { 4 } else { models.len() },
                tests.len()
            ),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Every cell ran and succeeded (terminal).
    Complete,
    /// Finished with failures, or could not run (terminal).
    Failed,
    /// Cancelled by a client (terminal).
    Cancelled,
    /// Checkpointed by a graceful shutdown; resumes on the next startup
    /// (not terminal — no `state.json` is written).
    Interrupted,
}

impl JobStatus {
    /// The lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Complete => "complete",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Interrupted => "interrupted",
        }
    }

    /// True for states that will never change again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Complete | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

impl std::str::FromStr for JobStatus {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "queued" => Ok(JobStatus::Queued),
            "running" => Ok(JobStatus::Running),
            "complete" => Ok(JobStatus::Complete),
            "failed" => Ok(JobStatus::Failed),
            "cancelled" => Ok(JobStatus::Cancelled),
            "interrupted" => Ok(JobStatus::Interrupted),
            other => Err(format!("unknown job status {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_spec_round_trips() {
        let spec = JobSpec {
            kind: JobKind::Sweep { figure: 3 },
            machine: vec!["--test-scale".into(), "--processors".into(), "4".into()],
            sweep_jobs: Some(1),
            max_retries: 5,
            timeout_secs: Some(120),
        };
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
        assert_eq!(spec.cells_total().unwrap(), 6);
        assert!(spec.machine_config().is_ok());
    }

    #[test]
    fn chaos_and_verify_specs_round_trip() {
        let chaos = JobSpec {
            kind: JobKind::Chaos {
                app: App::Lu,
                trials: 7,
                seed: 42,
            },
            machine: vec!["--test-scale".into()],
            sweep_jobs: None,
            max_retries: 2,
            timeout_secs: None,
        };
        assert_eq!(JobSpec::from_json(&chaos.to_json()).unwrap(), chaos);
        let verify = JobSpec {
            kind: JobKind::Verify {
                models: vec![Consistency::Sc, Consistency::Rc],
                tests: vec!["sb".into()],
                max_runs: 500,
            },
            machine: Vec::new(),
            sweep_jobs: None,
            max_retries: 2,
            timeout_secs: Some(0),
        };
        assert_eq!(JobSpec::from_json(&verify.to_json()).unwrap(), verify);
    }

    #[test]
    fn malformed_specs_are_rejected_with_reasons() {
        assert!(JobSpec::from_json("{}").unwrap_err().contains("kind"));
        assert!(JobSpec::from_json("{\"kind\":\"sweep\",\"figure\":9}")
            .unwrap_err()
            .contains("2..=6"));
        assert!(JobSpec::from_json("{\"kind\":\"dance\"}")
            .unwrap_err()
            .contains("unknown job kind"));
        assert!(JobSpec::from_json("{\"kind\":\"chaos\",\"app\":\"spice\"}").is_err());
        let bad_machine = JobSpec::sweep(3, vec!["--no-such-flag".into()]);
        assert!(bad_machine.machine_config().is_err());
        // Numbers that do not fit the spec's fields are refused, not
        // truncated.
        let huge = r#"{"kind":"chaos","app":"lu","trials":4294967296}"#;
        assert!(JobSpec::from_json(huge).unwrap_err().contains("trials"));
        let huge = r#"{"kind":"sweep","figure":3,"max_retries":4294967296}"#;
        assert!(JobSpec::from_json(huge)
            .unwrap_err()
            .contains("max_retries"));
    }

    #[test]
    fn validate_checks_machine_flags_trials_and_test_names_for_every_kind() {
        let words = |line: &str| line.split_whitespace().map(String::from).collect();
        let chaos = |trials, machine| {
            let kind = JobKind::Chaos {
                app: App::Lu,
                trials,
                seed: 1,
            };
            JobSpec::new(kind, words(machine)).validate()
        };
        let verify = |tests| {
            let kind = JobKind::Verify {
                models: vec![Consistency::Sc],
                tests: words(tests),
                max_runs: 0,
            };
            JobSpec::new(kind, Vec::new()).validate()
        };
        assert!(chaos(3, "--test-scale").is_ok());
        assert!(chaos(3, "--bogus").is_err());
        assert!(chaos(0, "").is_err());
        assert!(verify("sb").is_ok());
        assert!(verify("sb no_such_test")
            .unwrap_err()
            .contains("no_such_test"));
        assert!(JobSpec::sweep(3, words("--bogus")).validate().is_err());
        assert!(JobSpec::sweep(3, words("--processors 4"))
            .validate()
            .is_ok());
    }

    #[test]
    fn statuses_round_trip_and_classify_terminal() {
        for s in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Complete,
            JobStatus::Failed,
            JobStatus::Cancelled,
            JobStatus::Interrupted,
        ] {
            assert_eq!(s.as_str().parse::<JobStatus>().unwrap(), s);
        }
        assert!(JobStatus::Complete.is_terminal());
        assert!(JobStatus::Cancelled.is_terminal());
        assert!(!JobStatus::Interrupted.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
    }
}
