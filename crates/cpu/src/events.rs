//! Analysis events: the stream the happens-before race detector
//! consumes.
//!
//! Two producers emit the same event vocabulary:
//!
//! * the live [`crate::machine::Machine`], observed by an [`EventLog`]
//!   (see [`crate::observe`]) — every shared access and sync operation is
//!   recorded at its *commit point* (writes when they enter the write
//!   buffer, acquires when the lock is actually granted), so the event
//!   order is exactly the order the memory system observed;
//! * [`events_from_trace`], which replays a serialized [`Trace`] without
//!   simulating timing, through the logical scheduler that also extracts
//!   workload programs ([`crate::extract`]). It is deliberately
//!   forgiving: a trace with a *dropped Release* (the labeling bug the
//!   analyzer exists to find) would deadlock a strict replayer, so stuck
//!   locks are force-granted and diverged barriers force-released — with
//!   the crucial property that forced transitions contribute **no
//!   happens-before edge**, letting the detector report the race instead
//!   of hanging.

use dashlat_mem::addr::Addr;
use dashlat_sim::Cycle;

use crate::extract::{schedule, Mode};
use crate::observe::Observer;
use crate::ops::{BarrierId, LockId, ProcId, SyncConfig};
use crate::trace::Trace;

/// What happened, from the analysis passes' point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Shared read committed.
    Read(Addr),
    /// Shared write committed (entered the write buffer / gained
    /// ownership).
    Write(Addr),
    /// Non-binding prefetch issued.
    Prefetch {
        /// Prefetched address.
        addr: Addr,
        /// Read-exclusive prefetch.
        exclusive: bool,
    },
    /// Lock granted to the process (an acquire access).
    Acquire(LockId),
    /// Lock release committed (a release access).
    Release(LockId),
    /// Process arrived at a barrier.
    BarrierArrive(BarrierId),
    /// A stuck barrier episode was force-released by the scheduler without
    /// completing: analysis passes must discard the pending episode and
    /// create **no** ordering edges from it.
    BarrierForced(BarrierId),
    /// Process finished.
    Done,
}

/// One analysis event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisEvent {
    /// Issuing process.
    pub pid: ProcId,
    /// Index of the originating operation within `pid`'s stream (0-based).
    pub op_index: u64,
    /// Commit time: simulated cycles for machine-produced logs, a global
    /// logical sequence number for replayed traces. Monotone across the
    /// whole log either way.
    pub cycle: Cycle,
    /// What happened.
    pub kind: EventKind,
}

/// Diagnostics the logical scheduler records when a program does not
/// schedule cleanly, in trace replay and in program extraction alike. A
/// well-synchronized program produces none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayNote {
    /// A process was stuck acquiring a lock nobody was going to release;
    /// the scheduler granted it anyway (with no ordering edge).
    ForcedGrant {
        /// The lock involved.
        lock: LockId,
        /// The process that received the forced grant.
        pid: ProcId,
        /// Who held the lock at that point, if anyone.
        holder: Option<ProcId>,
    },
    /// A barrier episode could never complete (some process was stuck or
    /// finished); the arrived processes were released without an episode.
    ForcedBarrier {
        /// The barrier involved.
        barrier: BarrierId,
        /// How many processes had arrived.
        arrived: usize,
        /// How many were expected.
        expected: usize,
    },
    /// A process released a lock it did not hold.
    BadRelease {
        /// The lock involved.
        lock: LockId,
        /// The releasing process.
        pid: ProcId,
        /// The actual holder, if any.
        holder: Option<ProcId>,
    },
}

impl std::fmt::Display for ReplayNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayNote::ForcedGrant { lock, pid, holder } => match holder {
                Some(h) => write!(
                    f,
                    "lock {} force-granted to {pid} while held by {h} (missing Release?)",
                    lock.0
                ),
                None => write!(f, "lock {} force-granted to {pid}", lock.0),
            },
            ReplayNote::ForcedBarrier {
                barrier,
                arrived,
                expected,
            } => write!(
                f,
                "barrier {} force-released with {arrived}/{expected} arrivals",
                barrier.0
            ),
            ReplayNote::BadRelease { lock, pid, holder } => match holder {
                Some(h) => write!(f, "{pid} released lock {} held by {h}", lock.0),
                None => write!(f, "{pid} released lock {} that nobody held", lock.0),
            },
        }
    }
}

/// An ordered stream of analysis events plus the context the passes need.
#[derive(Debug, Clone)]
pub struct EventLog {
    /// Number of processes.
    pub nprocs: usize,
    /// Sync declarations (lock/barrier addresses, labeled ranges).
    pub sync: SyncConfig,
    /// The events, in commit order.
    pub events: Vec<AnalysisEvent>,
    /// Replay diagnostics (always empty for machine-produced logs).
    pub notes: Vec<ReplayNote>,
    /// Per-process count of the events observed so far (the next
    /// `op_index` of each process).
    seq: Vec<u64>,
}

impl EventLog {
    /// An empty log for `nprocs` processes with the given declarations.
    pub fn new(nprocs: usize, sync: SyncConfig) -> Self {
        EventLog {
            nprocs,
            sync,
            events: Vec::new(),
            notes: Vec::new(),
            seq: vec![0; nprocs],
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Records each commit, numbering it as the n-th committed event of its
/// process: the access-site identifier of machine-produced logs.
impl Observer for EventLog {
    fn commit(&mut self, t: Cycle, pid: ProcId, kind: EventKind) {
        let op_index = self.seq[pid.0];
        self.seq[pid.0] += 1;
        self.events.push(AnalysisEvent {
            pid,
            op_index,
            cycle: t,
            kind,
        });
    }
}

/// Replays a [`Trace`] logically (no timing model) into an [`EventLog`].
///
/// The trace's streams run through the same logical scheduler that
/// extracts workload programs ([`crate::extract`]): deterministic
/// round-robin, FIFO lock grants, and forced resolution of stalls that
/// adds no ordering edge. Event `cycle` stamps are a global sequence
/// number. A clean trace replays with an empty `notes` list; a stream
/// that ends without `Done` finishes without a `Done` event.
pub fn events_from_trace(trace: &Trace) -> EventLog {
    let nprocs = trace.streams.len();
    let mut next = vec![0usize; nprocs];
    let run = schedule(nprocs, &trace.sync, Mode::Replay, |pid| {
        let op = trace.streams[pid.0].get(next[pid.0]).copied();
        next[pid.0] += 1;
        op
    });
    EventLog {
        events: run.events,
        notes: run.notes,
        ..EventLog::new(nprocs, trace.sync.clone())
    }
}
