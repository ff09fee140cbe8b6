//! The observation seam: everything a run reports beyond its
//! [`RunResult`](crate::machine::RunResult) comes through one
//! [`Observer`] the machine holds.
//!
//! Each hook fires at one point of the machine and has a no-op default,
//! so an observer implements only what it records. The machine is
//! generic over its observer, and the unit observer `()` — the one every
//! sweep uses — compiles every hook away. The recorders implemented
//! here:
//!
//! * [`EventLog`](crate::events::EventLog) — analysis events at their
//!   commit points, for the `dashlat-analyze` happens-before pass;
//! * [`RunTimeline`] — busy cycles and long-latency misses per interval
//!   of simulated time;
//! * [`TraceRecorder`](crate::trace::TraceRecorder) — the op stream each
//!   process pulled from its workload, as a replayable
//!   [`Trace`](crate::trace::Trace);
//! * `Vec<AccessRecord>` — the memory system's access trace in coherence
//!   order, from which the memory-model verifier reads values;
//! * `Vec<Decision>` — the scheduler's decisions, the model checker's
//!   backtracking state;
//! * `(A, B)` — two observers at once (nest pairs for more).
//!
//! Attach one with [`Machine::observed`](crate::machine::Machine::observed)
//! and get it back from
//! [`Machine::run_observed`](crate::machine::Machine::run_observed).

use dashlat_mem::system::AccessRecord;
use dashlat_sim::stats::TimeSeries;
use dashlat_sim::{Cycle, SchedAlt};

use crate::events::EventKind;
use crate::ops::{Op, ProcId};

/// One scheduler decision: the chosen index and the slate it was chosen
/// from.
pub type Decision = (usize, Vec<SchedAlt>);

/// What a run reveals as it happens. Every hook defaults to doing
/// nothing.
pub trait Observer {
    /// `pid` pulled `op` from its workload.
    #[inline]
    fn op(&mut self, _pid: ProcId, _op: Op) {}

    /// An analysis event of `pid` committed at `t`.
    #[inline]
    fn commit(&mut self, _t: Cycle, _pid: ProcId, _kind: EventKind) {}

    /// `pid` started a compute burst of `cycles` at `t`.
    #[inline]
    fn compute(&mut self, _t: Cycle, _pid: ProcId, _cycles: u64) {}

    /// `pid` blocked at `t` on a long-latency operation.
    #[inline]
    fn block(&mut self, _t: Cycle, _pid: ProcId) {}

    /// The memory system serviced an access; calls arrive in coherence
    /// order.
    #[inline]
    fn access(&mut self, _access: AccessRecord) {}

    /// The attached scheduler chose alternative `choice` of `slate`.
    #[inline]
    fn decision(&mut self, _choice: usize, _slate: &[SchedAlt]) {}
}

/// Observes nothing: the machine's default.
impl Observer for () {}

impl<A: Observer, B: Observer> Observer for (A, B) {
    #[inline]
    fn op(&mut self, pid: ProcId, op: Op) {
        self.0.op(pid, op);
        self.1.op(pid, op);
    }

    #[inline]
    fn commit(&mut self, t: Cycle, pid: ProcId, kind: EventKind) {
        self.0.commit(t, pid, kind);
        self.1.commit(t, pid, kind);
    }

    #[inline]
    fn compute(&mut self, t: Cycle, pid: ProcId, cycles: u64) {
        self.0.compute(t, pid, cycles);
        self.1.compute(t, pid, cycles);
    }

    #[inline]
    fn block(&mut self, t: Cycle, pid: ProcId) {
        self.0.block(t, pid);
        self.1.block(t, pid);
    }

    #[inline]
    fn access(&mut self, access: AccessRecord) {
        self.0.access(access);
        self.1.access(access);
    }

    #[inline]
    fn decision(&mut self, choice: usize, slate: &[SchedAlt]) {
        self.0.decision(choice, slate);
        self.1.decision(choice, slate);
    }
}

/// Machine-wide per-interval measurements: the utilization-over-time view
/// (LU's poor-early / good-late cache behaviour is directly visible
/// there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunTimeline {
    /// Compute-burst cycles started per bucket (all processors summed).
    pub busy: TimeSeries,
    /// Long-latency misses (context blocks) started per bucket.
    pub misses: TimeSeries,
}

impl RunTimeline {
    /// An empty timeline with buckets `bucket` cycles wide.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: Cycle) -> Self {
        RunTimeline {
            busy: TimeSeries::new(bucket),
            misses: TimeSeries::new(bucket),
        }
    }
}

impl Observer for RunTimeline {
    fn compute(&mut self, t: Cycle, _pid: ProcId, cycles: u64) {
        self.busy.add(t, cycles);
    }

    fn block(&mut self, t: Cycle, _pid: ProcId) {
        self.misses.add(t, 1);
    }
}

impl Observer for Vec<AccessRecord> {
    fn access(&mut self, access: AccessRecord) {
        self.push(access);
    }
}

impl Observer for Vec<Decision> {
    fn decision(&mut self, choice: usize, slate: &[SchedAlt]) {
        self.push((choice, slate.to_vec()));
    }
}
