//! `dashlat lint` — whole-program static analysis of workload programs,
//! with **zero simulation cycles**.
//!
//! Where the happens-before pass in the crate root analyzes *event
//! streams* from a simulated or replayed execution, this module analyzes
//! the *program itself*: the per-process op streams obtained by
//! [`dashlat_cpu::extract::extract_program`] (or any serialized
//! [`Trace`]). Extraction runs the logical scheduler trace replay uses,
//! so its notes are the replay's notes. Four passes run over the
//! sync-skeleton CFG:
//!
//! 1. [`deadlock`] — lock-order cycles (Goodlock-filtered),
//!    acquire/release imbalance, never-released locks with possible
//!    waiters.
//! 2. barrier divergence — all processes must traverse the same barrier
//!    sequence (computed while building the [`skeleton::Skeleton`]).
//! 3. [`labeling`] — static properly-labeled inference over the
//!    must-happens-before closure; under-labeling is fatal (SC-under-RC
//!    unsound), over-labeling is costed advice.
//! 4. [`prefetch`] — dead / late / duplicate / wrong-mode prefetch
//!    placement, with exact totals beside a capped list of witnesses.
//!
//! Entry points: [`lint_workload`] for live workloads and
//! [`lint_trace`] for serialized programs or fixture mutations.

pub mod deadlock;
pub mod labeling;
pub mod prefetch;
pub mod report;
pub mod skeleton;

use dashlat_cpu::extract::{extract_program, ExtractError};
use dashlat_cpu::ops::Workload;
use dashlat_cpu::trace::Trace;
use dashlat_mem::latency::LatencyTable;

pub use report::{
    BarrierFindings, CompetingPair, DeadlockFindings, LabelingFindings, LintReport, LockCycle,
    OverLabel, PrefetchLints, Severity, UnreleasedLock, Witnesses,
};
pub use skeleton::{BarrierDivergence, Skeleton};

/// Thresholds for the lint passes.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Miss latency a read-shared prefetch must cover (defaults to the
    /// DASH remote read fill).
    pub read_miss_cycles: u64,
    /// Miss latency a read-exclusive prefetch or write must cover
    /// (defaults to the DASH remote ownership acquisition).
    pub write_miss_cycles: u64,
}

impl LintOptions {
    /// Thresholds taken from a machine latency table.
    pub fn from_latencies(lat: &LatencyTable) -> Self {
        LintOptions {
            read_miss_cycles: lat.read_fill_remote.as_u64(),
            write_miss_cycles: lat.write_owned_remote.as_u64(),
        }
    }
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions::from_latencies(&LatencyTable::dash())
    }
}

/// Lints an extracted (or serialized, or fixture-mutated) program.
///
/// `extraction_notes` and `truncated` come from extraction when the
/// trace was just extracted; pass empty/false for programs loaded from
/// disk.
pub fn lint_trace(
    subject: &str,
    trace: &Trace,
    extraction_notes: Vec<String>,
    truncated: bool,
    opts: &LintOptions,
) -> LintReport {
    let sk = Skeleton::build(trace);
    let deadlock = deadlock::run(&sk);
    let labeling = labeling::run(&sk, &trace.sync, opts);
    let prefetch = prefetch::run(trace, opts);
    LintReport {
        subject: subject.to_string(),
        nprocs: sk.nprocs,
        total_ops: sk.total_ops,
        extraction_notes,
        truncated,
        converged: sk.converged,
        deadlock,
        barriers: BarrierFindings {
            episodes: sk.joined_episodes,
            divergence: sk.divergence.clone(),
        },
        labeling,
        prefetch,
    }
}

/// Extracts a workload's program and lints it.
///
/// # Errors
///
/// Returns [`ExtractError`] when the workload cannot be forked for
/// extraction.
pub fn lint_workload<W: Workload + ?Sized>(
    subject: &str,
    workload: &W,
    opts: &LintOptions,
) -> Result<LintReport, ExtractError> {
    let ext = extract_program(workload)?;
    let notes = ext.notes.iter().map(ToString::to_string).collect();
    Ok(lint_trace(
        subject,
        &ext.trace,
        notes,
        !ext.truncated.is_empty(),
        opts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashlat_cpu::ops::{BarrierId, LockId, Op, SyncConfig};
    use dashlat_cpu::script::ScriptWorkload;
    use dashlat_mem::addr::Addr;

    #[test]
    fn clean_pipeline_lints_clean() {
        let w = ScriptWorkload::new(vec![
            vec![Op::Write(Addr(0x40)), Op::Barrier(BarrierId(0)), Op::Done],
            vec![Op::Barrier(BarrierId(0)), Op::Read(Addr(0x40)), Op::Done],
        ])
        .with_barriers(vec![Addr(0x8000)]);
        let r = lint_workload("clean", &w, &LintOptions::default()).expect("lints");
        assert!(!r.is_critical(), "{}", r.render());
        assert!(!r.is_incomplete());
        assert!(r.labeling.properly_labeled());
        assert_eq!(r.barriers.episodes, 1);
    }

    #[test]
    fn unlabeled_race_is_critical() {
        let w = ScriptWorkload::new(vec![
            vec![Op::Write(Addr(0x40)), Op::Done],
            vec![Op::Read(Addr(0x40)), Op::Done],
        ]);
        let r = lint_workload("racy", &w, &LintOptions::default()).expect("lints");
        assert!(r.is_critical());
        assert!(!r.labeling.properly_labeled());
        assert!(r.render().contains("under-labeled"));
    }

    #[test]
    fn extraction_notes_are_critical() {
        // Dropped release: extraction force-grants, and the static pass
        // also reports the unreleased lock.
        let w = ScriptWorkload::new(vec![
            vec![Op::Acquire(LockId(0)), Op::Done],
            vec![Op::Acquire(LockId(0)), Op::Release(LockId(0)), Op::Done],
        ])
        .with_locks(vec![Addr(0x1000)]);
        let r = lint_workload("stuck", &w, &LintOptions::default()).expect("lints");
        assert!(!r.extraction_notes.is_empty());
        assert!(!r.deadlock.unreleased.is_empty());
        assert!(r.is_critical());
    }

    #[test]
    fn json_is_parseable() {
        let w = ScriptWorkload::new(vec![vec![Op::Write(Addr(0x40)), Op::Done]]);
        let r = lint_workload("json", &w, &LintOptions::default()).expect("lints");
        let v = dashlat_sim::json::Value::parse(&r.to_json()).expect("valid json");
        assert_eq!(v.get("subject").and_then(|s| s.as_str()), Some("json"));
        assert_eq!(
            v.get("critical")
                .and_then(dashlat_sim::json::Value::as_bool),
            Some(false)
        );
        assert!(v.get("labeling").is_some());
    }

    #[test]
    fn lint_trace_accepts_mutated_programs() {
        // The fixture path: mutate a trace (drop a release) and lint it
        // without extraction.
        let t = Trace {
            streams: vec![
                vec![Op::Acquire(LockId(0)), Op::Write(Addr(0x40)), Op::Done],
                vec![
                    Op::Acquire(LockId(0)),
                    Op::Read(Addr(0x40)),
                    Op::Release(LockId(0)),
                    Op::Done,
                ],
            ],
            sync: SyncConfig {
                lock_addrs: vec![Addr(0x1000)],
                barrier_addrs: Vec::new(),
                labeled_ranges: Vec::new(),
            },
            page_homes: None,
        };
        let r = lint_trace("mutated", &t, Vec::new(), false, &LintOptions::default());
        assert_eq!(r.deadlock.unreleased.len(), 1);
        assert_eq!(r.deadlock.unreleased[0].waiters.len(), 1);
        assert!(r.is_critical());
    }
}
