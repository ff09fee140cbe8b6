//! The logical scheduler, and static program extraction on top of it.
//!
//! The workloads are execution-driven op *generators* (§2.3): they produce
//! operations only as the machine unblocks each process. To analyze a
//! workload's program statically we drive the generator ourselves with a
//! sync-respecting logical scheduler — deterministic round-robin, one
//! operation per runnable process per round, honouring lock mutual
//! exclusion (FIFO grants) and barrier rendezvous but charging **no
//! timing**. For statically scheduled programs (LU, MP3D, the litmus
//! corpus) the extracted streams are exactly the streams any real
//! execution issues; for timing-dependent programs (PTHOR's task
//! stealing and spin loops) they are one representative fair schedule,
//! which is what a whole-program lint needs.
//!
//! The same scheduler loop replays recorded traces for the dynamic
//! analysis ([`crate::events::events_from_trace`]): there it reads the
//! trace's streams instead of a forked workload and records an analysis
//! event per committed operation. So a buggy workload extracts exactly
//! the program a recorded buggy trace replays, with the same notes.
//!
//! The scheduler is fault-tolerant rather than strict: a sync skeleton
//! that cannot make progress (a dropped `Release`, a diverged barrier) is
//! force-resolved so every run terminates, and every forced transition is
//! recorded as a [`ReplayNote`] — the dynamic verdict and the static
//! lint turn those into findings instead of hanging. Forced transitions
//! contribute **no** happens-before edge, so the race detector still sees
//! the missing order.

use std::collections::VecDeque;

use dashlat_sim::Cycle;

use crate::events::{AnalysisEvent, EventKind, ReplayNote};
use crate::ops::{BarrierId, LockId, Op, ProcId, SyncConfig, Workload};
use crate::trace::Trace;

/// Total operation budget of [`extract_program`] across all processes: a
/// backstop against non-terminating generators, far above any test-scale
/// program.
const MAX_TOTAL_OPS: usize = 8_000_000;

/// The result of extracting a workload's program.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The extracted program: per-process op streams (each ending in
    /// `Done` unless truncated) plus the workload's sync declarations.
    pub trace: Trace,
    /// Forced scheduler transitions (empty for a well-synchronized
    /// workload).
    pub notes: Vec<ReplayNote>,
    /// Processes whose streams were cut short by the op budget.
    pub truncated: Vec<ProcId>,
}

impl Extraction {
    /// True when extraction completed every stream without forcing any
    /// sync transition.
    pub fn is_clean(&self) -> bool {
        self.notes.is_empty() && self.truncated.is_empty()
    }
}

/// Extraction failure: the workload cannot be driven statically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractError(pub String);

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "program extraction failed: {}", self.0)
    }
}

impl std::error::Error for ExtractError {}

/// Drives a forked copy of `workload` to completion under the logical
/// scheduler and returns its per-process op streams as a [`Trace`].
///
/// The workload itself is not consumed: extraction runs on
/// [`Workload::fork`]'s independent copy, so the same workload instance
/// can afterwards be simulated normally. Extraction stops after 8M
/// operations and reports the unfinished processes as truncated.
///
/// # Errors
///
/// Returns [`ExtractError`] when the workload cannot be forked
/// (`fork()` returns `None`).
pub fn extract_program<W: Workload + ?Sized>(workload: &W) -> Result<Extraction, ExtractError> {
    let mut w = workload
        .fork()
        .ok_or_else(|| ExtractError(format!("workload {:?} cannot fork", workload.name())))?;
    let nprocs = w.processes();
    if nprocs == 0 {
        return Err(ExtractError("workload declares zero processes".into()));
    }
    let sync = w.sync_config();
    let mut streams: Vec<Vec<Op>> = vec![Vec::new(); nprocs];
    let run = schedule(
        nprocs,
        &sync,
        Mode::Extract {
            budget: MAX_TOTAL_OPS,
        },
        |pid| {
            let op = w.next_op(pid);
            streams[pid.0].push(op);
            Some(op)
        },
    );
    Ok(Extraction {
        trace: Trace {
            streams,
            sync,
            page_homes: None,
        },
        notes: run.notes,
        truncated: run.truncated,
    })
}

/// What a scheduler run is for.
#[derive(Clone, Copy)]
pub(crate) enum Mode {
    /// Trace replay: record an analysis event per committed operation and
    /// never truncate.
    Replay,
    /// Program extraction: record no events, and stop once `budget`
    /// operations have been taken in total.
    Extract {
        /// Total operation budget across all processes.
        budget: usize,
    },
}

/// What one scheduler run produced.
pub(crate) struct Schedule {
    /// Analysis events in commit order (empty when extracting).
    pub(crate) events: Vec<AnalysisEvent>,
    /// Forced transitions and bad releases.
    pub(crate) notes: Vec<ReplayNote>,
    /// Processes left unfinished when the op budget ran out.
    pub(crate) truncated: Vec<ProcId>,
}

/// Per-process scheduler cursor.
struct Proc {
    blocked: Option<Blocked>,
    finished: bool,
    /// Operations taken from the process's source so far.
    taken: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Blocked {
    OnLock(LockId),
    OnBarrier(BarrierId),
}

/// Records analysis events stamped with a global sequence number, or
/// nothing when extracting.
struct Recorder {
    on: bool,
    events: Vec<AnalysisEvent>,
}

impl Recorder {
    fn emit(&mut self, pid: ProcId, op_index: u64, kind: EventKind) {
        if self.on {
            self.events.push(AnalysisEvent {
                pid,
                op_index,
                cycle: Cycle(self.events.len() as u64),
                kind,
            });
        }
    }
}

/// Grows a per-lock/per-barrier table on demand (programs may use ids
/// beyond their declared addresses).
fn ensure<T: Default + Clone>(v: &mut Vec<T>, i: usize) {
    if i >= v.len() {
        v.resize(i + 1, T::default());
    }
}

/// The logical scheduler: deterministic round-robin, one operation per
/// runnable process per round, FIFO lock grants and barrier rendezvous,
/// no timing. `next_op` supplies a process's next operation; `None` ends
/// its stream without a `Done`. When replaying, an acquire commits (and
/// records its event) at the grant, and event stamps are a global
/// sequence number.
///
/// When no process can make progress the scheduler resolves the stall
/// instead of hanging, never adding an ordering edge:
///
/// 1. the barrier with the most arrivals (the lowest id on a tie) is
///    force-released ([`EventKind::BarrierForced`],
///    [`ReplayNote::ForcedBarrier`]) — its episode orders nothing;
///    otherwise
/// 2. the lowest-numbered process stuck on a lock is force-granted it
///    ([`ReplayNote::ForcedGrant`]); the grant joins whatever clock the
///    lock last published, which for a dropped Release is *stale* — so
///    the race detector still sees the missing edge.
///
/// Releases of unheld locks are noted ([`ReplayNote::BadRelease`]) and
/// otherwise ignored.
pub(crate) fn schedule(
    nprocs: usize,
    sync: &SyncConfig,
    mode: Mode,
    mut next_op: impl FnMut(ProcId) -> Option<Op>,
) -> Schedule {
    let (record, budget) = match mode {
        Mode::Replay => (true, usize::MAX),
        Mode::Extract { budget } => (false, budget),
    };
    let mut procs: Vec<Proc> = (0..nprocs)
        .map(|_| Proc {
            blocked: None,
            finished: false,
            taken: 0,
        })
        .collect();
    let mut holder: Vec<Option<ProcId>> = vec![None; sync.lock_addrs.len().max(64)];
    let mut waiters: Vec<VecDeque<ProcId>> = vec![VecDeque::new(); holder.len()];
    let mut arrived: Vec<Vec<ProcId>> = vec![Vec::new(); sync.barrier_addrs.len().max(64)];
    let mut log = Recorder {
        on: record,
        events: Vec::new(),
    };
    let mut notes = Vec::new();
    let mut total = 0usize;
    let mut truncated = Vec::new();

    'run: loop {
        let mut progressed = false;
        for p in 0..nprocs {
            if procs[p].finished || procs[p].blocked.is_some() {
                continue;
            }
            if total >= budget {
                truncated = (0..nprocs)
                    .filter(|&q| !procs[q].finished)
                    .map(ProcId)
                    .collect();
                break 'run;
            }
            let pid = ProcId(p);
            let Some(op) = next_op(pid) else {
                procs[p].finished = true;
                continue;
            };
            let at = procs[p].taken;
            procs[p].taken += 1;
            total += 1;
            progressed = true;
            match op {
                Op::Compute(_) => {}
                Op::Read(a) => log.emit(pid, at, EventKind::Read(a)),
                // An RMW reads and writes the location atomically; for
                // happens-before purposes the write side dominates.
                Op::Write(a) | Op::Rmw(a) => log.emit(pid, at, EventKind::Write(a)),
                Op::Prefetch { addr, exclusive } => {
                    log.emit(pid, at, EventKind::Prefetch { addr, exclusive });
                }
                Op::Acquire(l) => {
                    ensure(&mut holder, l.0);
                    ensure(&mut waiters, l.0);
                    if holder[l.0].is_none() && waiters[l.0].is_empty() {
                        holder[l.0] = Some(pid);
                        log.emit(pid, at, EventKind::Acquire(l));
                    } else {
                        // The grant (and its event) happens at the
                        // matching Release, FIFO.
                        waiters[l.0].push_back(pid);
                        procs[p].blocked = Some(Blocked::OnLock(l));
                    }
                }
                Op::Release(l) => {
                    ensure(&mut holder, l.0);
                    ensure(&mut waiters, l.0);
                    log.emit(pid, at, EventKind::Release(l));
                    if holder[l.0] == Some(pid) {
                        holder[l.0] = waiters[l.0].pop_front();
                        if let Some(next) = holder[l.0] {
                            log.emit(next, procs[next.0].taken - 1, EventKind::Acquire(l));
                            procs[next.0].blocked = None;
                        }
                    } else {
                        notes.push(ReplayNote::BadRelease {
                            lock: l,
                            pid,
                            holder: holder[l.0],
                        });
                    }
                }
                Op::Barrier(b) => {
                    ensure(&mut arrived, b.0);
                    arrived[b.0].push(pid);
                    log.emit(pid, at, EventKind::BarrierArrive(b));
                    if arrived[b.0].len() == nprocs {
                        for q in arrived[b.0].drain(..) {
                            procs[q.0].blocked = None;
                        }
                    } else {
                        procs[p].blocked = Some(Blocked::OnBarrier(b));
                    }
                }
                Op::Done => {
                    log.emit(pid, at, EventKind::Done);
                    procs[p].finished = true;
                }
            }
        }
        if procs.iter().all(|pr| pr.finished) {
            break;
        }
        if progressed {
            continue;
        }
        // Global stall: every unfinished process is blocked. Resolve it
        // deterministically, never adding a happens-before edge.
        let best_barrier = arrived
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .max_by_key(|(i, v)| (v.len(), usize::MAX - i));
        if let Some((b, _)) = best_barrier {
            let b = BarrierId(b);
            let stuck: Vec<ProcId> = arrived[b.0].drain(..).collect();
            notes.push(ReplayNote::ForcedBarrier {
                barrier: b,
                arrived: stuck.len(),
                expected: nprocs,
            });
            log.emit(
                stuck[0],
                procs[stuck[0].0].taken,
                EventKind::BarrierForced(b),
            );
            for q in stuck {
                if procs[q.0].blocked == Some(Blocked::OnBarrier(b)) {
                    procs[q.0].blocked = None;
                }
            }
            continue;
        }
        let stuck_on_lock = (0..nprocs).find_map(|p| match procs[p].blocked {
            Some(Blocked::OnLock(l)) => Some((p, l)),
            _ => None,
        });
        if let Some((p, l)) = stuck_on_lock {
            let pid = ProcId(p);
            notes.push(ReplayNote::ForcedGrant {
                lock: l,
                pid,
                holder: holder[l.0],
            });
            holder[l.0] = Some(pid);
            waiters[l.0].retain(|&q| q != pid);
            log.emit(pid, procs[p].taken - 1, EventKind::Acquire(l));
            procs[p].blocked = None;
            continue;
        }
        break; // nothing left to force (unreachable for non-empty programs)
    }
    Schedule {
        events: log.events,
        notes,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{events_from_trace, EventLog};
    use crate::script::ScriptWorkload;
    use dashlat_mem::addr::Addr;

    fn script(streams: Vec<Vec<Op>>) -> ScriptWorkload {
        ScriptWorkload::new(streams)
            .with_locks(vec![Addr(0x1000), Addr(0x1010)])
            .with_barriers(vec![Addr(0x2000)])
    }

    /// Extracts a scripted program and replays the extracted trace: the
    /// two runs of the scheduler must force the same transitions.
    fn extract_and_replay(streams: Vec<Vec<Op>>) -> (Extraction, EventLog) {
        let ext = extract_program(&script(streams)).expect("extracts");
        let log = events_from_trace(&ext.trace);
        assert_eq!(ext.notes, log.notes);
        (ext, log)
    }

    fn kinds(log: &EventLog, pid: usize) -> Vec<EventKind> {
        log.events
            .iter()
            .filter(|e| e.pid.0 == pid)
            .map(|e| e.kind)
            .collect()
    }

    #[test]
    fn clean_program_extracts_verbatim_and_replays_without_notes() {
        let s0 = vec![
            Op::Acquire(LockId(0)),
            Op::Write(Addr(0x40)),
            Op::Release(LockId(0)),
            Op::Barrier(BarrierId(0)),
            Op::Done,
        ];
        let s1 = vec![
            Op::Acquire(LockId(0)),
            Op::Read(Addr(0x40)),
            Op::Release(LockId(0)),
            Op::Barrier(BarrierId(0)),
            Op::Done,
        ];
        let (ext, log) = extract_and_replay(vec![s0.clone(), s1.clone()]);
        assert!(ext.is_clean(), "notes: {:?}", ext.notes);
        assert_eq!(ext.trace.streams, vec![s0, s1]);
        assert_eq!(ext.trace.sync.lock_addrs.len(), 2);
        assert_eq!(
            kinds(&log, 0),
            vec![
                EventKind::Acquire(LockId(0)),
                EventKind::Write(Addr(0x40)),
                EventKind::Release(LockId(0)),
                EventKind::BarrierArrive(BarrierId(0)),
                EventKind::Done,
            ]
        );
        // Monotone stamps.
        for w in log.events.windows(2) {
            assert!(w[0].cycle < w[1].cycle);
        }
    }

    #[test]
    fn extraction_does_not_consume_the_workload() {
        let mut w = script(vec![vec![Op::Read(Addr(0x40)), Op::Done]]);
        let _ = extract_program(&w).expect("extracts");
        // The original cursor is untouched.
        assert_eq!(w.next_op(ProcId(0)), Op::Read(Addr(0x40)));
    }

    #[test]
    fn contended_lock_grants_fifo_at_release() {
        let (ext, log) = extract_and_replay(vec![
            vec![
                Op::Acquire(LockId(0)),
                Op::Compute(5),
                Op::Release(LockId(0)),
                Op::Done,
            ],
            vec![Op::Acquire(LockId(0)), Op::Release(LockId(0)), Op::Done],
        ]);
        assert!(ext.is_clean());
        // P1's grant must come after P0's release in the stream, and
        // carries the index of P1's acquire.
        let rel0 = log
            .events
            .iter()
            .position(|e| e.pid.0 == 0 && e.kind == EventKind::Release(LockId(0)))
            .unwrap();
        let acq1 = log
            .events
            .iter()
            .position(|e| e.pid.0 == 1 && e.kind == EventKind::Acquire(LockId(0)))
            .unwrap();
        assert!(acq1 > rel0);
        assert_eq!(log.events[acq1].op_index, 0);
    }

    #[test]
    fn dropped_release_forces_grant_with_note() {
        // P0 never releases; P1 would deadlock under a strict scheduler.
        let (ext, log) = extract_and_replay(vec![
            vec![Op::Acquire(LockId(0)), Op::Write(Addr(0x40)), Op::Done],
            vec![
                Op::Acquire(LockId(0)),
                Op::Write(Addr(0x40)),
                Op::Release(LockId(0)),
                Op::Done,
            ],
        ]);
        assert!(ext.notes.iter().any(|n| matches!(
            n,
            ReplayNote::ForcedGrant {
                lock: LockId(0),
                pid: ProcId(1),
                holder: Some(ProcId(0)),
            }
        )));
        // P1 still completed its whole stream.
        assert_eq!(ext.trace.streams[1].last(), Some(&Op::Done));
        assert_eq!(kinds(&log, 1).last(), Some(&EventKind::Done));
    }

    #[test]
    fn diverged_barrier_is_forced_with_note() {
        let (ext, log) = extract_and_replay(vec![
            vec![Op::Barrier(BarrierId(0)), Op::Read(Addr(0x40)), Op::Done],
            vec![Op::Done], // never arrives
        ]);
        assert!(ext.notes.iter().any(|n| matches!(
            n,
            ReplayNote::ForcedBarrier {
                barrier: BarrierId(0),
                arrived: 1,
                expected: 2,
            }
        )));
        assert!(log
            .events
            .iter()
            .any(|e| e.kind == EventKind::BarrierForced(BarrierId(0))));
        assert_eq!(kinds(&log, 0).last(), Some(&EventKind::Done));
    }

    #[test]
    fn bad_release_is_noted_not_fatal() {
        let (ext, _) = extract_and_replay(vec![vec![Op::Release(LockId(1)), Op::Done]]);
        assert_eq!(
            ext.notes,
            vec![ReplayNote::BadRelease {
                lock: LockId(1),
                pid: ProcId(0),
                holder: None,
            }]
        );
        assert_eq!(
            ext.notes[0].to_string(),
            "P0 released lock 1 that nobody held"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let t = extract_program(&script(vec![
            vec![
                Op::Acquire(LockId(0)),
                Op::Write(Addr(0x40)),
                Op::Release(LockId(0)),
                Op::Barrier(BarrierId(0)),
                Op::Done,
            ],
            vec![
                Op::Acquire(LockId(0)),
                Op::Read(Addr(0x40)),
                Op::Release(LockId(0)),
                Op::Barrier(BarrierId(0)),
                Op::Done,
            ],
        ]))
        .expect("extracts")
        .trace;
        let a = events_from_trace(&t);
        let b = events_from_trace(&t);
        assert_eq!(a.events, b.events);
        assert_eq!(a.notes, b.notes);
    }

    #[test]
    fn replay_of_a_stream_without_done_ends_without_done() {
        let t = Trace {
            streams: vec![vec![Op::Read(Addr(0x40))]],
            sync: SyncConfig::default(),
            page_homes: None,
        };
        let log = events_from_trace(&t);
        assert_eq!(kinds(&log, 0), vec![EventKind::Read(Addr(0x40))]);
        assert!(log.notes.is_empty());
    }

    #[test]
    fn op_budget_truncates_instead_of_hanging() {
        // A spinner that never reaches `Done`.
        let mut taken = 0;
        let run = schedule(
            1,
            &SyncConfig::default(),
            Mode::Extract { budget: 100 },
            |_| {
                taken += 1;
                Some(Op::Read(Addr(0x40)))
            },
        );
        assert_eq!(run.truncated, vec![ProcId(0)]);
        assert_eq!(taken, 100);
        assert!(run.events.is_empty());
    }

    #[test]
    fn unforkable_workload_is_an_error() {
        struct NoFork;
        impl Workload for NoFork {
            fn processes(&self) -> usize {
                1
            }
            fn next_op(&mut self, _pid: ProcId) -> Op {
                Op::Done
            }
            fn sync_config(&self) -> SyncConfig {
                SyncConfig::default()
            }
        }
        assert!(extract_program(&NoFork).is_err());
    }
}
