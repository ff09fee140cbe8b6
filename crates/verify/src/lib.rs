#![deny(missing_docs)]
//! `dashlat-verify` — exhaustive memory-model verification of the
//! simulated machine.
//!
//! The paper's latency comparison between consistency models is only
//! meaningful if the simulated SC machine actually *is* sequentially
//! consistent and the simulated RC machine admits *exactly* the release-
//! consistency relaxations — nothing more (a bug), nothing less (the
//! comparison would overstate SC's cost). This crate checks both, plus
//! the coherence protocol underneath:
//!
//! * [`litmus`] — a DSL for multi-processor litmus programs (SB, MP, LB,
//!   IRIW, `CoRR`/`CoWW`, RMW/atomic tests, lazy-write-back variants,
//!   properly-labeled lock variants, acquire/release separation tests)
//!   with forbidden/witness outcome annotations.
//! * [`axiomatic`] — the executable reference: the exact allowed-outcome
//!   set of each test under SC/PC/WC/RC, from an independent operational
//!   semantics (FIFO store buffers over a multi-copy-atomic memory).
//! * [`explore`] — a stateless model checker that drives the real
//!   simulator (`dashlat-cpu`/`dashlat-mem`) through the interleavings of
//!   its scheduler decision points, with selectable reduction engine:
//!   full enumeration, sleep sets, or dynamic partial-order reduction
//!   (the default).
//! * [`harness`] — the verification configuration (uniform latencies,
//!   start-offset sweep) and the machine-vs-reference verdict.
//! * [`outcome`] — value-semantics layering over the timing-only
//!   simulator via its coherence-order access trace.
//! * [`report`] — counterexample rendering: a violated axiom plus the
//!   per-processor commit timeline of the witnessing interleaving.
//! * [`protocol`] — exhaustive reachable-state checking of the directory
//!   protocol (SWMR + data-value invariants) on small configurations,
//!   including the lazy sharing-writeback variant and a deep 4p/4-line
//!   closure.
//!
//! The top-level entry point is [`verify_suite_opts`], which the
//! `dashlat verify-model` subcommand wraps.

pub mod axiomatic;
pub mod explore;
pub mod harness;
pub mod litmus;
pub mod outcome;
pub mod protocol;
pub mod report;
pub mod workload;

use std::time::Instant;

use dashlat_cpu::config::Consistency;

pub use explore::Engine;
#[cfg(feature = "verify-mutations")]
pub use harness::verify_litmus_mutated;
pub use harness::{
    check_properly_labeled, explore_cell, verify_litmus, verify_litmus_engine, LitmusVerdict,
    Mutation, DEFAULT_MAX_RUNS,
};
pub use litmus::{corpus, LitmusTest};
pub use outcome::{Outcome, OutcomeSet};
#[cfg(feature = "verify-mutations")]
pub use protocol::check_directory_mutated;
pub use protocol::{check_directory, ProtocolConfig, ProtocolReport};
pub use report::{counterexample, Counterexample};

/// The models the full suite checks. PC and WC ride along with the
/// paper's SC/RC endpoints — the corpus contains tests (`wc_acq`,
/// `sb_rel`) that separate all four.
pub const ALL_MODELS: [Consistency; 4] = [
    Consistency::Sc,
    Consistency::Pc,
    Consistency::Wc,
    Consistency::Rc,
];

/// What one `verify-model` invocation should run and report.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Consistency models to check (empty = [`ALL_MODELS`]).
    pub models: Vec<Consistency>,
    /// Exact test names to run (empty = whole corpus, subject to
    /// `filter`).
    pub tests: Vec<String>,
    /// Name glob (`*` and `?`) applied to the corpus when `tests` is
    /// empty.
    pub filter: Option<String>,
    /// Per-cell run budget ([`DEFAULT_MAX_RUNS`] when 0).
    pub max_runs: u64,
    /// Collect per-cell exploration statistics: DPOR runs vs the
    /// sleep-set baseline, redundant (fingerprint-deduplicated) runs,
    /// wall time. Re-explores every cell with the baseline engine, so
    /// roughly doubles the suite's cost.
    pub stats: bool,
    /// Fail the suite on any truncation — a bounded-depth result is not
    /// a proof, and strict mode refuses to call it a pass.
    pub strict: bool,
    /// Also run the deep 4-processor / 4-line protocol closure.
    pub deep_closure: bool,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            models: ALL_MODELS.to_vec(),
            tests: Vec::new(),
            filter: None,
            max_runs: 0,
            stats: false,
            strict: false,
            deep_closure: false,
        }
    }
}

/// Exploration statistics for one `(test, model)` cell, comparing the
/// DPOR engine against the sleep-set baseline.
#[derive(Debug, Clone)]
pub struct CellStats {
    /// Litmus test name.
    pub test: &'static str,
    /// Consistency model checked.
    pub model: Consistency,
    /// Machine runs (interleavings) the DPOR engine explored.
    pub dpor_runs: u64,
    /// Runs whose Foata fingerprint had already been seen — executions
    /// that were Mazurkiewicz-equivalent to an earlier run.
    pub dpor_redundant: u64,
    /// Machine runs the sleep-set baseline explored on the same cell
    /// (capped at [`STATS_BASELINE_MAX_RUNS`]).
    pub sleep_runs: u64,
    /// True when the baseline hit its run cap — its count (and the
    /// reduction factor) is then a lower bound.
    pub sleep_truncated: bool,
    /// Wall time of the DPOR verification, milliseconds.
    pub dpor_ms: u128,
    /// Wall time of the sleep-set verification, milliseconds.
    pub sleep_ms: u128,
}

impl CellStats {
    /// Sleep-set runs divided by DPOR runs — the reduction factor.
    pub fn reduction(&self) -> f64 {
        self.sleep_runs as f64 / self.dpor_runs.max(1) as f64
    }
}

/// Run cap for the sleep-set baseline during `--stats` collection. The
/// baseline exists to be measured against, not to prove anything; on the
/// worst cells (sb4 under the buffered models) letting it run to the
/// verification budget would cost minutes for no extra information, so
/// it is cut off here and the stats row marks the count as a lower
/// bound.
pub const STATS_BASELINE_MAX_RUNS: u64 = 250_000;

/// Simple name glob: `*` matches any (possibly empty) substring, `?`
/// matches exactly one byte, everything else is literal.
fn glob_match(pat: &str, name: &str) -> bool {
    fn m(p: &[u8], s: &[u8]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some((b'*', rest)) => (0..=s.len()).any(|i| m(rest, &s[i..])),
            Some((b'?', rest)) => !s.is_empty() && m(rest, &s[1..]),
            Some((&c, rest)) => s.first() == Some(&c) && m(rest, &s[1..]),
        }
    }
    m(pat.as_bytes(), name.as_bytes())
}

/// Checks that every name selects a corpus test — the one check behind
/// `verify-model --tests`, `dashlat submit verify --tests` and the
/// daemon's verify-job admission, so a typo fails up front instead of
/// verifying nothing.
///
/// # Errors
///
/// Names the first unknown test and lists the corpus.
pub fn check_test_names(names: &[String]) -> Result<(), String> {
    let corpus = corpus();
    match names
        .iter()
        .find(|n| !corpus.iter().any(|t| t.name == n.as_str()))
    {
        Some(n) => Err(format!(
            "unknown litmus test {n:?} (known: {})",
            corpus.iter().map(|t| t.name).collect::<Vec<_>>().join(", ")
        )),
        None => Ok(()),
    }
}

/// Renders the corpus as a name-and-description listing (one test per
/// line) for `verify-model --list`.
pub fn list_corpus() -> String {
    let tests = corpus();
    let width = tests.iter().map(|t| t.name.len()).max().unwrap_or(0);
    let mut s = format!("litmus corpus ({} tests)\n", tests.len());
    for t in &tests {
        s.push_str(&format!("  {:width$}  {}\n", t.name, t.description));
    }
    s
}

/// Everything one `verify-model` invocation established.
#[derive(Debug)]
pub struct SuiteReport {
    /// One verdict per `(test, model)` cell, corpus order.
    pub verdicts: Vec<(LitmusTest, LitmusVerdict)>,
    /// Properly-labeled equivalence failures (machine RC set != machine
    /// SC set on a PL test).
    pub pl_failures: Vec<String>,
    /// Directory-protocol closure reports.
    pub protocol: Vec<ProtocolReport>,
    /// Per-cell exploration statistics (present when requested).
    pub stats: Vec<CellStats>,
    /// Whether strict mode was on: truncation anywhere fails the suite.
    pub strict: bool,
}

impl SuiteReport {
    /// True when every cell matched, every PL test collapsed, and the
    /// protocol closures were violation-free. In strict mode any
    /// truncated litmus cell or protocol closure also fails.
    pub fn passed(&self) -> bool {
        let base = self.verdicts.iter().all(|(_, v)| v.passed())
            && self.pl_failures.is_empty()
            && self.protocol.iter().all(ProtocolReport::passed);
        if !self.strict {
            return base;
        }
        base && !self.truncated()
    }

    /// True when any litmus cell or protocol closure hit its bound.
    pub fn truncated(&self) -> bool {
        self.verdicts.iter().any(|(_, v)| v.truncated) || self.protocol.iter().any(|p| p.truncated)
    }

    /// Total machine runs across all cells.
    pub fn runs(&self) -> u64 {
        self.verdicts.iter().map(|(_, v)| v.runs).sum()
    }

    /// Renders the whole suite for terminal output.
    pub fn render(&self) -> String {
        let mut s = String::from("memory-model verification\n=========================\n");
        for (test, v) in &self.verdicts {
            s.push_str(&report::render_verdict(test, v));
        }
        for f in &self.pl_failures {
            s.push_str(&format!("[FAIL] properly-labeled: {f}\n"));
        }
        for p in &self.protocol {
            let status = if p.passed() { "PASS" } else { "FAIL" };
            s.push_str(&format!("[{status}] {}\n", p.summary()));
        }
        if !self.stats.is_empty() {
            s.push_str("\nexploration statistics (dpor vs sleep-set baseline)\n");
            s.push_str(&format!(
                "  {:10} {:5} {:>10} {:>10} {:>10} {:>8} {:>9} {:>10}\n",
                "test",
                "model",
                "dpor runs",
                "redundant",
                "sleep runs",
                "factor",
                "dpor ms",
                "sleep ms"
            ));
            for c in &self.stats {
                let bound = if c.sleep_truncated { "+" } else { "" };
                s.push_str(&format!(
                    "  {:10} {:5} {:>10} {:>10} {:>9}{bound} {:>6.1}x{bound} {:>9} {:>10}\n",
                    c.test,
                    c.model.to_string(),
                    c.dpor_runs,
                    c.dpor_redundant,
                    c.sleep_runs,
                    c.reduction(),
                    c.dpor_ms,
                    c.sleep_ms,
                ));
            }
        }
        if self.strict && self.truncated() {
            s.push_str("\nSTRICT: truncation detected — bounded results are not proofs\n");
        }
        s.push_str(&format!(
            "\nsuite: {} — {} litmus cells, {} machine runs, {} protocol closures\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.verdicts.len(),
            self.runs(),
            self.protocol.len(),
        ));
        s
    }
}

/// Runs the suite described by `opts`: the selected corpus tests under
/// the selected models, the properly-labeled equivalence checks, and the
/// directory-protocol closures (eager small + wide, the lazy small
/// variant, and — with `deep_closure` — the 4p/4-line deep closure).
pub fn verify_suite_opts(opts: &SuiteOptions) -> SuiteReport {
    let models: &[Consistency] = if opts.models.is_empty() {
        &ALL_MODELS
    } else {
        &opts.models
    };
    let max_runs = if opts.max_runs == 0 {
        DEFAULT_MAX_RUNS
    } else {
        opts.max_runs
    };
    let selected: Vec<LitmusTest> = corpus()
        .into_iter()
        .filter(|t| {
            if !opts.tests.is_empty() {
                return opts.tests.iter().any(|n| n == t.name);
            }
            match &opts.filter {
                Some(pat) => glob_match(pat, t.name),
                None => true,
            }
        })
        .collect();

    let mut verdicts = Vec::new();
    let mut stats = Vec::new();
    for test in &selected {
        for &model in models {
            let t0 = Instant::now();
            let verdict = verify_litmus(test, model, max_runs);
            let dpor_ms = t0.elapsed().as_millis();
            if opts.stats {
                let t1 = Instant::now();
                let baseline = verify_litmus_engine(
                    test,
                    model,
                    max_runs.min(STATS_BASELINE_MAX_RUNS),
                    Engine::Sleep,
                );
                stats.push(CellStats {
                    test: test.name,
                    model,
                    dpor_runs: verdict.runs,
                    dpor_redundant: verdict.redundant,
                    sleep_runs: baseline.runs,
                    sleep_truncated: baseline.truncated,
                    dpor_ms,
                    sleep_ms: t1.elapsed().as_millis(),
                });
            }
            verdicts.push((test.clone(), verdict));
        }
    }

    let mut pl_failures = Vec::new();
    let both = |name: &str, m: Consistency| {
        verdicts
            .iter()
            .find(|(t, v)| t.name == name && v.model == m)
            .map(|(_, v)| v)
    };
    for test in selected.iter().filter(|t| t.properly_labeled) {
        if let (Some(sc), Some(rc)) = (
            both(test.name, Consistency::Sc),
            both(test.name, Consistency::Rc),
        ) {
            if let Some(f) = check_properly_labeled(test, sc, rc) {
                pl_failures.push(f);
            }
        }
    }

    let mut protocol = vec![
        check_directory(ProtocolConfig::small()),
        check_directory(ProtocolConfig::wide()),
        check_directory(ProtocolConfig::small_lazy()),
    ];
    if opts.deep_closure {
        protocol.push(check_directory(ProtocolConfig::deep()));
    }

    SuiteReport {
        verdicts,
        pl_failures,
        protocol,
        stats,
        strict: opts.strict,
    }
}

/// Runs the full suite with default options: every corpus test under
/// `models`, the properly-labeled equivalence checks, and the standard
/// directory-protocol closures.
///
/// `tests` filters the corpus by exact name (empty = whole corpus);
/// `max_runs` is the per-cell run budget ([`DEFAULT_MAX_RUNS`] when 0).
pub fn verify_suite(models: &[Consistency], tests: &[String], max_runs: u64) -> SuiteReport {
    verify_suite_opts(&SuiteOptions {
        models: models.to_vec(),
        tests: tests.to_vec(),
        max_runs,
        ..SuiteOptions::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_matches_stars_and_question_marks() {
        assert!(glob_match("sb", "sb"));
        assert!(glob_match("sb*", "sb_rmw"));
        assert!(glob_match("*lazy*", "mp_lazy"));
        assert!(glob_match("?b", "sb"));
        assert!(!glob_match("sb", "sb_rmw"));
        assert!(!glob_match("?b", "irb"));
        assert!(glob_match("*", "anything"));
        assert!(!glob_match("", "x"));
        assert!(glob_match("", ""));
    }

    #[test]
    fn filter_selects_a_subset() {
        let opts = SuiteOptions {
            models: vec![Consistency::Sc],
            filter: Some("rmw_*".into()),
            ..SuiteOptions::default()
        };
        let r = verify_suite_opts(&opts);
        assert!(!r.verdicts.is_empty());
        assert!(r.verdicts.iter().all(|(t, _)| t.name.starts_with("rmw_")));
    }

    #[test]
    fn list_names_every_corpus_test() {
        let listing = list_corpus();
        for t in corpus() {
            assert!(listing.contains(t.name), "missing {}", t.name);
        }
    }
}
