#![deny(missing_docs)]
//! `dashlat-analyze` — happens-before race detection over simulated or
//! replayed executions, and whole-program static lint of workload
//! programs.
//!
//! The paper's latency results are only meaningful for *properly labeled*
//! programs: every pair of competing accesses must either be ordered by
//! synchronization (locks, barriers) or be explicitly labeled as
//! competing. This crate certifies that property two ways.
//!
//! * **Dynamically**, over the event streams produced by the machine
//!   model (live runs observed by an [`EventLog`], see
//!   [`dashlat_cpu::observe`]) or reconstructed from trace files (fault-tolerant logical replay via
//!   [`dashlat_cpu::events::events_from_trace`]). One pass runs: [hb],
//!   FastTrack-style vector-clock happens-before race detection. A run
//!   is properly labeled when it has no race and its replay forced no
//!   sync transition (no replay note). Entry points: [`analyze`] over an
//!   [`EventLog`] and [`analyze_trace`] over a parsed [`Trace`].
//! * **Statically**, in the [`lint`] module: it analyzes extracted
//!   programs (not executions) — lock-order deadlock detection, barrier
//!   divergence, properly-labeled inference and prefetch placement — with
//!   zero simulation cycles. See [`lint::lint_workload`].
//!
//! Trace replay and program extraction run through the same logical
//! scheduler ([`dashlat_cpu::extract`]), so both stacks see the same
//! schedule and the same forced-transition notes.

pub mod hb;
pub mod lint;
pub mod report;

use dashlat_cpu::events::{events_from_trace, EventLog};
use dashlat_cpu::trace::Trace;

pub use report::{AnalysisReport, HbSummary, OpTimeline, Race, Site, SyncPoint};

/// Runs the happens-before pass over an event log.
///
/// `subject` names the analyzed run in the rendered report (a workload
/// name or trace path).
pub fn analyze(subject: &str, log: &EventLog) -> AnalysisReport {
    AnalysisReport {
        subject: subject.to_string(),
        nprocs: log.nprocs,
        events: log.len(),
        hb: hb::run(log),
        replay_notes: log
            .notes
            .iter()
            .map(std::string::ToString::to_string)
            .collect(),
    }
}

/// Replays a trace into an event log and analyzes it.
pub fn analyze_trace(subject: &str, trace: &Trace) -> AnalysisReport {
    analyze(subject, &events_from_trace(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashlat_cpu::ops::{LockId, Op, SyncConfig};
    use dashlat_mem::addr::Addr;

    fn two_proc_trace(drop_release: bool) -> Trace {
        let mut p0 = vec![
            Op::Acquire(LockId(0)),
            Op::Write(Addr(0x40)),
            Op::Release(LockId(0)),
            Op::Done,
        ];
        if drop_release {
            p0.remove(2);
        }
        Trace {
            streams: vec![
                p0,
                vec![
                    Op::Acquire(LockId(0)),
                    Op::Write(Addr(0x40)),
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
        }
    }

    #[test]
    fn clean_trace_certifies() {
        let report = analyze_trace("test", &two_proc_trace(false));
        assert!(report.properly_labeled(), "{}", report.render());
        assert!(!report.race_detected());
    }

    #[test]
    fn dropped_release_breaks_certification() {
        let report = analyze_trace("test", &two_proc_trace(true));
        assert!(!report.properly_labeled());
        assert!(report.race_detected(), "{}", report.render());
        assert!(!report.replay_notes.is_empty());
    }
}
