//! Report types of the dynamic analysis, and the rendered summary.

use dashlat_cpu::events::EventLog;
use dashlat_cpu::ops::{BarrierId, LockId, ProcId};
use dashlat_mem::addr::{Addr, LineAddr};
use dashlat_sim::Cycle;

/// The last synchronization operation a process performed before an
/// access — the edge that *should* have ordered the access but did not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPoint {
    /// An acquire of the given lock, at the process's given op index.
    Acquire(LockId, u64),
    /// A release of the given lock.
    Release(LockId, u64),
    /// A barrier arrival.
    Barrier(BarrierId, u64),
}

impl std::fmt::Display for SyncPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPoint::Acquire(l, i) => write!(f, "acquire of lock {} (op #{i})", l.0),
            SyncPoint::Release(l, i) => write!(f, "release of lock {} (op #{i})", l.0),
            SyncPoint::Barrier(b, i) => write!(f, "barrier {} arrival (op #{i})", b.0),
        }
    }
}

/// One side of a racy pair: who accessed, where in its stream, and what
/// synchronization context it carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// The accessing process.
    pub pid: ProcId,
    /// Index of the access in that process's stream.
    pub op_index: u64,
    /// Commit time of the access.
    pub cycle: Cycle,
    /// True for a write, false for a read.
    pub is_write: bool,
    /// Locks the process held at the access.
    pub locks_held: Vec<LockId>,
    /// The process's most recent sync operation before the access.
    pub last_sync: Option<SyncPoint>,
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_write { "write" } else { "read" };
        write!(
            f,
            "{} {kind} (op #{}, cycle {}",
            self.pid,
            self.op_index,
            self.cycle.as_u64()
        )?;
        if self.locks_held.is_empty() {
            write!(f, ", holding no locks)")
        } else {
            let held: Vec<String> = self.locks_held.iter().map(|l| l.0.to_string()).collect();
            write!(f, ", holding lock {})", held.join(","))
        }
    }
}

/// An unlabeled conflicting access pair with no happens-before edge — the
/// finding that breaks properly-labeled certification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The conflicting byte address.
    pub addr: Addr,
    /// The cache line it falls on (the coherence-granularity view).
    pub line: LineAddr,
    /// The earlier access.
    pub first: Site,
    /// The later access.
    pub second: Site,
    /// Locks held at exactly one of the two sites — the locks whose
    /// acquisition on the other side would have ordered the pair.
    pub missing_locks: Vec<LockId>,
    /// A non-binding prefetch touched the racy line between the two
    /// accesses: it may *mask* the race in a timing run without ordering
    /// anything.
    pub prefetch_between: bool,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "race on {:#x} ({}): {} vs {}",
            self.addr.0, self.line, self.first, self.second
        )?;
        if !self.missing_locks.is_empty() {
            let locks: Vec<String> = self.missing_locks.iter().map(|l| l.0.to_string()).collect();
            write!(f, "; missing lock {}", locks.join(","))?;
        }
        write!(f, "; last sync {}: ", self.first.pid)?;
        match &self.first.last_sync {
            Some(s) => write!(f, "{s}")?,
            None => write!(f, "none")?,
        }
        write!(f, ", {}: ", self.second.pid)?;
        match &self.second.last_sync {
            Some(s) => write!(f, "{s}")?,
            None => write!(f, "none")?,
        }
        if self.prefetch_between {
            write!(f, " [non-binding prefetch touched the line in between]")?;
        }
        Ok(())
    }
}

/// Outcome of the happens-before pass.
#[derive(Debug, Clone, Default)]
pub struct HbSummary {
    /// Detailed reports, capped (see `races_total` for the full count).
    pub races: Vec<Race>,
    /// Total racy pairs observed, including those beyond the cap.
    pub races_total: u64,
    /// Ordinary (verified) accesses checked.
    pub checked_accesses: u64,
    /// Accesses exempted by declared labeled-competing ranges.
    pub labeled_accesses: u64,
}

/// A per-processor operation timeline rendered from an [`EventLog`] —
/// the shared trace-display machinery for race reports and the memory-model
/// verifier's counterexample rendering (`dashlat-verify`).
///
/// Each committed event becomes one row, in global commit order, annotated
/// with its cycle and per-process operation index, indented into one column
/// per process so interleavings read top-to-bottom:
///
/// ```text
///   cycle    P0                  P1
///       0    W 0x0 (op 0)
///       0                        R 0x10 (op 0)
/// ```
#[derive(Debug, Clone)]
pub struct OpTimeline {
    rows: Vec<(u64, usize, u64, String)>,
    nprocs: usize,
}

impl OpTimeline {
    /// Builds the timeline from a log's committed events.
    pub fn from_log(log: &EventLog) -> Self {
        use dashlat_cpu::events::EventKind;
        let rows = log
            .events
            .iter()
            .map(|e| {
                let what = match e.kind {
                    EventKind::Read(a) => format!("R {a}"),
                    EventKind::Write(a) => format!("W {a}"),
                    EventKind::Prefetch { addr, exclusive } => {
                        format!("PF{} {addr}", if exclusive { "x" } else { "" })
                    }
                    EventKind::Acquire(l) => format!("acq L{}", l.0),
                    EventKind::Release(l) => format!("rel L{}", l.0),
                    EventKind::BarrierArrive(b) => format!("bar B{}", b.0),
                    EventKind::BarrierForced(b) => format!("bar! B{}", b.0),
                    EventKind::Done => "done".to_string(),
                };
                (e.cycle.as_u64(), e.pid.0, e.op_index, what)
            })
            .collect();
        OpTimeline {
            rows,
            nprocs: log.nprocs,
        }
    }

    /// Number of rendered rows (committed events).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the log had no events.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::fmt::Display for OpTimeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const COL: usize = 20;
        write!(f, "  {:>7}  ", "cycle")?;
        for p in 0..self.nprocs {
            write!(f, "{:<COL$}", format!("P{p}"))?;
        }
        writeln!(f)?;
        for (cycle, pid, op_index, what) in &self.rows {
            write!(f, "  {cycle:>7}  ")?;
            for p in 0..self.nprocs {
                if p == *pid {
                    write!(f, "{:<COL$}", format!("{what} (op {op_index})"))?;
                } else {
                    write!(f, "{:<COL$}", "")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Combined output of an analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Name of the analyzed subject (workload or trace file).
    pub subject: String,
    /// Process count of the analyzed run.
    pub nprocs: usize,
    /// Events analyzed.
    pub events: usize,
    /// Happens-before results.
    pub hb: HbSummary,
    /// Replay diagnostics (forced grants/barriers and bad releases —
    /// empty for live runs and clean traces).
    pub replay_notes: Vec<String>,
}

impl AnalysisReport {
    /// True when the happens-before pass found at least one race.
    pub fn race_detected(&self) -> bool {
        self.hb.races_total > 0
    }

    /// Properly-labeled verdict: every ordinary conflicting access was
    /// ordered (no happens-before race), and the run's sync skeleton
    /// scheduled without a forced transition or bad release (no replay
    /// note).
    pub fn properly_labeled(&self) -> bool {
        !self.race_detected() && self.replay_notes.is_empty()
    }

    /// Renders the full human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "analysis of {} ({} processes, {} events)",
            self.subject, self.nprocs, self.events
        );
        let hb = &self.hb;
        let _ = writeln!(
            out,
            "  happens-before: {} ordinary accesses checked, {} labeled accesses exempt, {} race(s)",
            hb.checked_accesses, hb.labeled_accesses, hb.races_total
        );
        for r in &hb.races {
            let _ = writeln!(out, "    {r}");
        }
        if hb.races_total as usize > hb.races.len() {
            let _ = writeln!(
                out,
                "    ... {} further race(s) suppressed",
                hb.races_total as usize - hb.races.len()
            );
        }
        for n in &self.replay_notes {
            let _ = writeln!(out, "  replay note: {n}");
        }
        let _ = writeln!(
            out,
            "  verdict: {}",
            if self.properly_labeled() {
                "PROPERLY LABELED"
            } else {
                "NOT properly labeled"
            }
        );
        out
    }
}
