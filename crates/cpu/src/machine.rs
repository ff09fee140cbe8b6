//! The machine: processors, contexts and the event loop.
//!
//! [`Machine::run`] executes a [`Workload`] on the simulated
//! multiprocessor: every processor runs one or more hardware contexts, each
//! bound to one workload process. The executor is event-driven — each
//! operation of each process is issued at its exact simulated time, so the
//! interleaving of shared-memory references across processors is globally
//! consistent (the Tango property, §2.3).
//!
//! ## Scheduling model
//!
//! * A context issues operations until it hits a *long-latency* operation
//!   (a stall longer than [`ProcConfig::no_switch_threshold`]): a cache miss
//!   going to the bus, an SC write miss, or a synchronization wait.
//! * On a long-latency operation the context blocks. A multiple-context
//!   processor then switches to another ready context, paying
//!   [`ProcConfig::switch_overhead`] cycles; if none is ready the processor
//!   idles ("all idle").
//! * Short stalls (the 2-cycle secondary-cache write hit under SC, the
//!   4-cycle primary-cache fill lockout) do not switch ("no switch" idle).
//!
//! ## Consistency models
//!
//! * **SC** — the processor stalls on every read and write until it
//!   completes; no write buffering.
//! * **PC** (extension) — writes retire through the write buffer in FIFO
//!   order; reads bypass; releases get no special treatment.
//! * **WC** (extension) — like RC, but *every* synchronization access
//!   (acquire and release) fences on the completion of all prior writes.
//! * **RC** — writes (and releases) retire through the 16-entry write
//!   buffer with pipelined issue; reads bypass buffered writes; a release
//!   does not begin service until all previously issued writes have
//!   completed, including their invalidation acknowledgements.
//!
//! ## Prefetching
//!
//! Prefetch operations are issued to the 16-entry prefetch buffer, which
//! checks the secondary cache before going to the bus and pipelines
//! back-to-back prefetches. In-flight lines (demand or prefetch) are
//! tracked per processor so that a demand reference to an in-flight line is
//! *combined* with it rather than re-requested (§5.1).

use std::collections::VecDeque;

use dashlat_mem::addr::{Addr, LineAddr};
use dashlat_mem::buffers::{PendingPrefetch, PendingWrite, PrefetchBuffer, WriteBuffer, WriteKind};
use dashlat_mem::system::{
    AccessKind, AccessRecord, AccessResult, MemStats, MemorySystem, ServiceClass,
};
use dashlat_sim::fault::FaultInjector;
use dashlat_sim::sched::{Footprint, SchedAlt, Scheduler};
use dashlat_sim::stats::{Distribution, RunLengthTracker};
use dashlat_sim::{Cycle, EventQueue, QueueHints};

/// MSHR-table length beyond which completed entries are pruned (and the
/// pre-sized capacity of the table, so steady state never reallocates).
const OUTSTANDING_PRUNE_LEN: usize = 128;

/// One processor's in-flight (missed) lines, struct-of-arrays.
///
/// Real MSHR occupancy is a handful of entries (one demand miss per
/// context plus the prefetch pipeline), so two parallel dense arrays with
/// linear scans beat a hash map on the dispatch path: no hashing, no
/// probing, and both arrays share a cache line at typical depths. Entry
/// order is irrelevant to semantics (lookups are by line), so removal can
/// `swap_remove`.
#[derive(Debug, Default, Clone)]
struct MshrTable {
    lines: Vec<LineAddr>,
    done: Vec<Cycle>,
}

impl MshrTable {
    fn with_capacity(cap: usize) -> Self {
        MshrTable {
            lines: Vec::with_capacity(cap),
            done: Vec::with_capacity(cap),
        }
    }

    /// Completion time of the in-flight request for `line`, if any.
    #[inline]
    fn get(&self, line: LineAddr) -> Option<Cycle> {
        self.lines
            .iter()
            .position(|&l| l == line)
            .map(|i| self.done[i])
    }

    /// Inserts or updates the entry for `line`.
    #[inline]
    fn insert(&mut self, line: LineAddr, done: Cycle) {
        match self.lines.iter().position(|&l| l == line) {
            Some(i) => self.done[i] = done,
            None => {
                self.lines.push(line);
                self.done.push(done);
            }
        }
    }

    /// Removes the entry for `line` iff its completion time is exactly
    /// `done` (a stale entry for a reissued line must survive).
    #[inline]
    fn remove_exact(&mut self, line: LineAddr, done: Cycle) {
        if let Some(i) = self
            .lines
            .iter()
            .position(|&l| l == line)
            .filter(|&i| self.done[i] == done)
        {
            self.lines.swap_remove(i);
            self.done.swap_remove(i);
        }
    }

    fn len(&self) -> usize {
        self.lines.len()
    }

    /// Drops entries long since completed (keeps the linear scans short).
    fn prune(&mut self, now: Cycle) {
        let mut i = 0;
        while i < self.lines.len() {
            if self.done[i] + Cycle(1024) > now {
                i += 1;
            } else {
                self.lines.swap_remove(i);
                self.done.swap_remove(i);
            }
        }
    }
}

use crate::breakdown::TimeBreakdown;
use crate::config::ProcConfig;
use crate::events::EventKind;
use crate::observe::Observer;
use crate::ops::{LockId, Op, ProcId, Topology, Workload};
use crate::sync::{AcquireOutcome, BarrierOutcome, SyncState};

/// Why a context is blocked (drives idle-time attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    Read,
    Write,
    Sync,
    PrefetchFull,
    WriteBufFull,
}

impl Reason {
    /// The breakdown field a single-context processor charges a stall for
    /// this reason to.
    fn stall_field(self, b: &mut TimeBreakdown) -> &mut Cycle {
        match self {
            Reason::Read => &mut b.read_stall,
            Reason::Write | Reason::WriteBufFull => &mut b.write_stall,
            Reason::Sync => &mut b.sync_stall,
            Reason::PrefetchFull => &mut b.prefetch_overhead,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtxState {
    Ready,
    Running,
    Blocked,
    Finished,
}

#[derive(Debug, Clone)]
struct Context {
    state: CtxState,
    reason: Reason,
    pending_op: Option<Op>,
    finished_at: Option<Cycle>,
    /// Last simulated time this context issued an op or woke (watchdog).
    last_advance: Cycle,
    /// What the context is currently blocked on (watchdog diagnostics).
    blocked_on: Option<BlockedOn>,
}

#[derive(Clone)]
struct Proc {
    /// Process ids of this processor's contexts.
    ctxs: Vec<usize>,
    /// Context currently occupying the pipeline (its registers are loaded).
    loaded: usize,
    idle_since: Option<(Cycle, Reason)>,
    finished_at: Option<Cycle>,
    breakdown: TimeBreakdown,
    run_lengths: RunLengthTracker,
    // RC write path.
    wbuf: WriteBuffer,
    wb_meta: VecDeque<Option<(LockId, usize)>>,
    wb_active: bool,
    wb_next_issue: Cycle,
    writes_done_horizon: Cycle,
    acks_horizon: Cycle,
    wb_full_waiters: VecDeque<usize>,
    /// Contexts fenced on write-buffer drain (weak consistency acquires).
    fence_waiters: VecDeque<usize>,
    // Prefetch path.
    pbuf: PrefetchBuffer,
    pb_active: bool,
    pb_next_issue: Cycle,
    pf_full_waiters: VecDeque<usize>,
    /// In-flight lines → completion time (MSHR-style combining).
    outstanding: MshrTable,
    /// Primary-cache lockout cycles to charge at the next busy period.
    pending_lockout_pf: u64,
    pending_lockout_fill: u64,
    /// Processor-side fault decisions (transient buffer-full events).
    faults: Option<FaultInjector>,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Process `pid` issues its next operation.
    Step(usize),
    /// Process `pid` unblocks.
    Wake(usize),
    /// Processor `p` tries to service its write-buffer head.
    WbService(usize),
    /// Processor `p` tries to issue its prefetch-buffer head.
    PbService(usize),
    /// A fill for `line` arrived at processor `p`.
    Fill(usize, LineAddr, bool),
    /// The release write for lock `l` by process `pid` completed.
    Unlock(LockId, usize),
    /// Barrier `b` released: `pid` re-fetches the flag and resumes.
    BarrierWake(usize, usize),
}

/// The kind of operation a blocked context was waiting on (watchdog
/// diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOp {
    /// Waiting for a read fill.
    Read,
    /// Waiting for a write to complete.
    Write,
    /// Waiting to acquire a lock.
    Acquire,
    /// Waiting at a barrier.
    Barrier,
    /// Waiting for a full write/prefetch buffer to drain a slot.
    BufferDrain,
}

/// What a blocked context was waiting on when the watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedOn {
    /// The kind of operation that blocked.
    pub op: BlockedOp,
    /// The address involved, when the wait is on a specific line.
    pub addr: Option<Addr>,
    /// For lock waits, the process currently holding the lock.
    pub holder: Option<ProcId>,
}

impl BlockedOn {
    fn on(op: BlockedOp, addr: Addr) -> Self {
        BlockedOn {
            op,
            addr: Some(addr),
            holder: None,
        }
    }
}

impl std::fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op {
            BlockedOp::Read => write!(f, "read")?,
            BlockedOp::Write => write!(f, "write")?,
            BlockedOp::Acquire => write!(f, "acquire")?,
            BlockedOp::Barrier => write!(f, "barrier")?,
            BlockedOp::BufferDrain => write!(f, "buffer drain")?,
        }
        if let Some(a) = self.addr {
            write!(f, " of {:#x}", a.0)?;
        }
        if let Some(h) = self.holder {
            write!(f, " held by {h}")?;
        }
        Ok(())
    }
}

/// One stuck process in a deadlock or livelock report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckProcess {
    /// The process that is stuck.
    pub pid: ProcId,
    /// Last simulated time it made progress (issued an operation or woke).
    pub last_advance: Cycle,
    /// What it was blocked on; `None` if it was runnable but starved.
    pub blocked: Option<BlockedOn>,
}

impl std::fmt::Display for StuckProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ", self.pid)?;
        match &self.blocked {
            Some(b) => write!(f, "blocked on {b}")?,
            None => write!(f, "runnable but starved")?,
        }
        write!(
            f,
            " (last progress at cycle {})",
            self.last_advance.as_u64()
        )
    }
}

/// Why a run failed.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The simulation exceeded the configured cycle budget — usually a
    /// workload that spins forever while simulated time keeps advancing.
    CycleBudgetExceeded {
        /// The configured limit.
        limit: Cycle,
    },
    /// The event queue drained while some processes were still blocked —
    /// a deadlock in the workload's synchronization.
    Deadlock {
        /// Processes that never finished, with what each was waiting on.
        stuck: Vec<StuckProcess>,
    },
    /// The machine processed an enormous number of events without simulated
    /// time advancing — a zero-time event loop the cycle budget can never
    /// catch.
    Livelock {
        /// Events processed at the stuck timestamp.
        events: u64,
        /// The simulated time the machine is stuck at.
        at: Cycle,
        /// Processes that had not finished, with what each was waiting on.
        stuck: Vec<StuckProcess>,
    },
    /// Online invariant checking found the coherence protocol in an
    /// inconsistent state.
    InvariantViolation {
        /// When the violation was detected.
        at: Cycle,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
}

fn write_stuck(f: &mut std::fmt::Formatter<'_>, stuck: &[StuckProcess]) -> std::fmt::Result {
    for (i, s) in stuck.iter().enumerate() {
        let sep = if i == 0 { ": " } else { "; " };
        write!(f, "{sep}{s}")?;
    }
    Ok(())
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::CycleBudgetExceeded { limit } => {
                write!(f, "simulation exceeded the cycle budget of {limit}")
            }
            RunError::Deadlock { stuck } => {
                write!(f, "deadlock: {} processes never finished", stuck.len())?;
                write_stuck(f, stuck)
            }
            RunError::Livelock { events, at, stuck } => {
                write!(
                    f,
                    "livelock: {events} events processed with simulated time stuck at cycle {}",
                    at.as_u64()
                )?;
                write_stuck(f, stuck)
            }
            RunError::InvariantViolation { at, detail } => {
                write!(
                    f,
                    "coherence invariant violated at cycle {}: {detail}",
                    at.as_u64()
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// Failure-classification hook for sweep supervisors: is this error
    /// plausibly a *transient* consequence of an active fault-injection
    /// plan (worth retrying), rather than a permanent bug?
    ///
    /// Under injected faults, NACK storms and delay pile-ups legitimately
    /// slow a run until it blows its cycle budget or trips the livelock
    /// watchdog, so those two classes are transient when (and only when)
    /// `faults_active`. A deadlock or an invariant violation always
    /// indicts the protocol or the workload — injected faults are bounded
    /// by design (retries converge, delays are finite) and must never
    /// corrupt coherence state or strand a process.
    pub fn is_transient_under_faults(&self, faults_active: bool) -> bool {
        faults_active
            && matches!(
                self,
                RunError::CycleBudgetExceeded { .. } | RunError::Livelock { .. }
            )
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock of the run: when the last process finished.
    pub elapsed: Cycle,
    /// Per-processor execution-time decomposition.
    pub breakdowns: Vec<TimeBreakdown>,
    /// Machine-wide sum of the decompositions.
    pub aggregate: TimeBreakdown,
    /// Memory-system statistics (hit rates, invalidations, ...).
    pub mem: MemStats,
    /// Distribution of busy run lengths between long-latency operations.
    pub run_lengths: Distribution,
    /// Demand shared reads issued (Table 2).
    pub shared_reads: u64,
    /// Demand shared writes issued (Table 2).
    pub shared_writes: u64,
    /// Lock acquisitions performed (Table 2's "Locks").
    pub lock_acquires: u64,
    /// Per-process barrier arrivals (Table 2's "Barriers").
    pub barrier_arrivals: u64,
    /// Prefetch operations issued by the program.
    pub prefetches_issued: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Simulation events processed (the event queue's lifetime schedule
    /// count) — the simulator's unit of work, used by the bench harness
    /// for its events/second throughput metric.
    pub sim_events: u64,
}

impl RunResult {
    /// Average processor utilization (busy / total across processors).
    pub fn utilization(&self) -> f64 {
        self.aggregate.utilization()
    }
}

/// The attached scheduler (see [`Machine::with_scheduler`]). Machines are
/// cloned before one is attached — one built machine, a clone per run —
/// so a clone never carries a scheduler.
struct SchedSlot(Option<Box<dyn Scheduler>>);

impl Clone for SchedSlot {
    fn clone(&self) -> Self {
        assert!(
            self.0.is_none(),
            "clone a machine before attaching its scheduler"
        );
        SchedSlot(None)
    }
}

/// The machine executor. Construct with [`Machine::new`] and call
/// [`Machine::run`]; to record what the run does, construct with
/// [`Machine::observed`] and call [`Machine::run_observed`].
///
/// A machine is a value: cloning one gives an identical machine that has
/// not run yet, which is how the memory-model verifier runs one built
/// machine many times.
#[derive(Clone)]
pub struct Machine<W: Workload, O: Observer = ()> {
    cfg: ProcConfig,
    topo: Topology,
    mem: MemorySystem,
    sync: SyncState,
    workload: W,
    queue: EventQueue<Event>,
    procs: Vec<Proc>,
    ctxs: Vec<Context>,
    max_cycles: Cycle,
    // Counters.
    shared_reads: u64,
    shared_writes: u64,
    lock_acquires: u64,
    barrier_arrivals: u64,
    prefetches_issued: u64,
    context_switches: u64,
    /// First coherence-invariant violation observed (when checking is on).
    invariant_failure: Option<(Cycle, String)>,
    /// Same-cycle tie-break policy (see [`Machine::with_scheduler`]);
    /// `None` keeps the plain batched dispatch path.
    sched: SchedSlot,
    /// What the run reports beyond its [`RunResult`] (see
    /// [`crate::observe`]).
    obs: O,
    /// Watchdog state: the timestamp of the last dispatched batch and the
    /// events dispatched at it (see [`Machine::check_progress`]).
    watch_last_t: Cycle,
    watch_events_at_t: u64,
    /// Under a scheduler: the events ready at the current cycle that no
    /// decision has taken yet, in the order the scheduler sees them.
    slate: Vec<Event>,
}

impl<W: Workload> Machine<W> {
    /// Builds a machine that observes nothing.
    ///
    /// # Panics
    ///
    /// As [`Machine::observed`].
    pub fn new(cfg: ProcConfig, topo: Topology, mem: MemorySystem, workload: W) -> Self {
        Machine::observed(cfg, topo, mem, workload, ())
    }
}

impl<W: Workload, O: Observer> Machine<W, O> {
    /// Default cycle budget: generous enough for paper-scale runs, small
    /// enough to catch livelock in tests.
    pub const DEFAULT_MAX_CYCLES: Cycle = Cycle(20_000_000_000);

    /// Builds a machine that reports to `obs` as it runs; get the observer
    /// back from [`Machine::run_observed`].
    ///
    /// # Panics
    ///
    /// Panics if the workload's process count does not match
    /// `topo.processes()`, or the memory system was built for a different
    /// node count.
    pub fn observed(
        cfg: ProcConfig,
        topo: Topology,
        mem: MemorySystem,
        workload: W,
        obs: O,
    ) -> Self {
        assert_eq!(
            workload.processes(),
            topo.processes(),
            "workload process count does not match topology"
        );
        assert_eq!(
            mem.config().nodes,
            topo.processors,
            "memory system node count does not match topology"
        );
        assert_eq!(
            cfg.contexts, topo.contexts,
            "processor context count does not match topology"
        );
        let sync = SyncState::new(&workload.sync_config(), workload.processes());
        let procs = (0..topo.processors)
            .map(|p| Proc {
                ctxs: (0..topo.contexts).map(|c| p * topo.contexts + c).collect(),
                loaded: p * topo.contexts,
                idle_since: None,
                finished_at: None,
                breakdown: TimeBreakdown::default(),
                run_lengths: RunLengthTracker::new(),
                wbuf: WriteBuffer::new(cfg.write_buffer_entries),
                wb_meta: VecDeque::new(),
                wb_active: false,
                wb_next_issue: Cycle::ZERO,
                writes_done_horizon: Cycle::ZERO,
                acks_horizon: Cycle::ZERO,
                wb_full_waiters: VecDeque::new(),
                fence_waiters: VecDeque::new(),
                pbuf: PrefetchBuffer::new(cfg.prefetch_buffer_entries),
                pb_active: false,
                pb_next_issue: Cycle::ZERO,
                pf_full_waiters: VecDeque::new(),
                // Pre-sized to the MSHR prune threshold or the layout's
                // shared-line count, whichever is smaller: the table never
                // reallocates in steady state.
                outstanding: MshrTable::with_capacity(
                    mem.shared_lines().min(OUTSTANDING_PRUNE_LEN),
                ),
                pending_lockout_pf: 0,
                pending_lockout_fill: 0,
                // Per-processor streams, distinct from the memory system's
                // stream 0, so cpu-side draws never perturb mem-side ones.
                faults: cfg
                    .faults
                    .filter(dashlat_sim::FaultPlan::is_active)
                    .map(|f| FaultInjector::new(f, 0x1000 + p as u64)),
            })
            .collect();
        let ctxs = (0..topo.processes())
            .map(|_| Context {
                state: CtxState::Ready,
                reason: Reason::Read,
                pending_op: None,
                finished_at: None,
                last_advance: Cycle::ZERO,
                blocked_on: None,
            })
            .collect();
        Machine {
            cfg,
            topo,
            mem,
            sync,
            workload,
            // Same-cycle fan-in is bounded by one event per process plus
            // the per-processor buffer-service pipelines; far-future
            // events (beyond the 256-cycle wheel window) are rare. Sizing
            // from the topology keeps steady-state dispatch allocation-free.
            queue: EventQueue::with_hints(QueueHints {
                bucket_capacity: (topo.processes() + 2 * topo.processors).next_power_of_two(),
                overflow_capacity: 64,
            }),
            procs,
            ctxs,
            max_cycles: Self::DEFAULT_MAX_CYCLES,
            shared_reads: 0,
            shared_writes: 0,
            lock_acquires: 0,
            barrier_arrivals: 0,
            prefetches_issued: 0,
            context_switches: 0,
            invariant_failure: None,
            sched: SchedSlot(None),
            slate: Vec::new(),
            obs,
            watch_last_t: Cycle::ZERO,
            watch_events_at_t: 0,
        }
    }

    /// Overrides the livelock cycle budget.
    pub fn with_max_cycles(mut self, limit: Cycle) -> Self {
        self.max_cycles = limit;
        self
    }

    /// Attaches a same-cycle tie-break scheduler.
    ///
    /// Without one, the event queue's deterministic insertion-order
    /// tie-break applies (the plain batched path — zero overhead). With
    /// one, every time the machine is about to process an event it
    /// describes each event ready at the current cycle as a [`SchedAlt`]
    /// and lets the scheduler pick which runs next; the rest stay on the
    /// slate for the next decision. Each decision goes to the observer's
    /// [`Observer::decision`].
    ///
    /// [`dashlat_sim::sched::FifoScheduler`] reproduces the default order
    /// choice-for-choice; [`dashlat_sim::sched::ReplayScheduler`] is the
    /// stateless model checker's replay vehicle.
    pub fn with_scheduler(mut self, sched: Box<dyn Scheduler>) -> Self {
        self.sched = SchedSlot(Some(sched));
        self
    }

    /// Events the machine may process at a single timestamp before the
    /// watchdog declares livelock. Legitimate same-cycle bursts (barrier
    /// releases, buffer drains) are bounded by the process count, orders of
    /// magnitude below this.
    const LIVELOCK_EVENT_THRESHOLD: u64 = 2_000_000;

    /// Runs the workload to completion.
    ///
    /// # Errors
    ///
    /// [`RunError::CycleBudgetExceeded`] if simulated time passes the
    /// budget, [`RunError::Deadlock`] if the event queue drains with
    /// processes still blocked, [`RunError::Livelock`] if millions of
    /// events are processed without simulated time advancing, and
    /// [`RunError::InvariantViolation`] if online checking (see
    /// [`ProcConfig::check_invariants`]) finds the coherence protocol in an
    /// inconsistent state.
    pub fn run(self) -> Result<RunResult, RunError> {
        self.run_observed().map(|(result, _)| result)
    }

    /// Runs the workload to completion, returning the observer with the
    /// result.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`]; the observer is dropped with the machine (see
    /// [`Machine::run_to_end`] to keep it).
    pub fn run_observed(self) -> Result<(RunResult, O), RunError> {
        let (result, obs) = self.run_to_end();
        result.map(|result| (result, obs))
    }

    /// Runs the workload and hands the observer back whether or not the
    /// run completes: after an error it holds what the run did up to the
    /// error (the decisions that lead to it, for a model checker's
    /// witness).
    pub fn run_to_end(mut self) -> (Result<RunResult, RunError>, O) {
        match self.drive() {
            Ok(()) => {
                let (result, obs) = self.finish();
                (Ok(result), obs)
            }
            Err(e) => (Err(e), self.obs),
        }
    }

    /// The event loop: dispatches every event until the queue drains or
    /// the run fails.
    fn drive(&mut self) -> Result<(), RunError> {
        // Kick off: each processor starts its first context; the rest are
        // ready.
        for p in 0..self.topo.processors {
            let pid = self.procs[p].ctxs[0];
            self.ctxs[pid].state = CtxState::Running;
            self.queue.schedule(Cycle::ZERO, Event::Step(pid));
        }

        if self.sched.0.is_some() {
            // The scheduler-attached path collects the whole same-cycle
            // slate and asks the policy one event at a time.
            while let Some((t, ev)) = self.pop_scheduled() {
                self.check_progress(t, 1)?;
                self.dispatch(t, ev);
                if let Some((at, detail)) = self.invariant_failure.take() {
                    return Err(RunError::InvariantViolation { at, detail });
                }
            }
        } else {
            // Batched deterministic dispatch: drain one whole wheel bucket
            // (one simulated cycle) at a time and consume it in an inner
            // loop, so the budget / monotonicity / livelock bookkeeping is
            // paid once per cycle instead of once per event. Events a
            // handler schedules back into the in-flight cycle land in the
            // (now empty, still allocated) bucket and are picked up by the
            // next drain, which is exactly per-event pop order — see the
            // `batch_drain_matches_per_event_pops` proof in `dashlat-sim`.
            let mut batch: Vec<Event> = Vec::new();
            while let Some(t) = self.queue.drain_next_into(&mut batch) {
                self.check_progress(t, batch.len() as u64)?;
                for ev in batch.drain(..) {
                    self.dispatch(t, ev);
                    if let Some((at, detail)) = self.invariant_failure.take() {
                        return Err(RunError::InvariantViolation { at, detail });
                    }
                }
            }
        }

        let stuck = self.stuck_processes();
        if !stuck.is_empty() {
            return Err(RunError::Deadlock { stuck });
        }
        Ok(())
    }

    /// Routes one event to its handler.
    #[inline]
    fn dispatch(&mut self, t: Cycle, ev: Event) {
        match ev {
            Event::Step(pid) => self.step(t, pid),
            Event::Wake(pid) => self.wake(t, pid),
            Event::WbService(p) => self.wb_service(t, p),
            Event::PbService(p) => self.pb_service(t, p),
            Event::Fill(p, line, from_prefetch) => self.fill_arrived(t, p, line, from_prefetch),
            Event::Unlock(lid, pid) => self.unlock(t, lid, pid),
            Event::BarrierWake(pid, b) => self.barrier_wake(t, pid, b),
        }
    }

    /// Cycle-budget, time-monotonicity and livelock bookkeeping, charged
    /// once per dispatched batch of `count` same-cycle events.
    #[inline]
    fn check_progress(&mut self, t: Cycle, count: u64) -> Result<(), RunError> {
        if t > self.max_cycles {
            return Err(RunError::CycleBudgetExceeded {
                limit: self.max_cycles,
            });
        }
        // Simulated time must be monotone: the event queue pops in
        // nondecreasing order by construction, so a regression means
        // the machine scheduled an event in the past.
        if t < self.watch_last_t {
            return Err(RunError::InvariantViolation {
                at: self.watch_last_t,
                detail: format!(
                    "simulated time ran backwards: event at cycle {} after cycle {}",
                    t.as_u64(),
                    self.watch_last_t.as_u64()
                ),
            });
        }
        // Livelock watchdog: a zero-time event loop never trips the
        // cycle budget; count events processed at a stuck timestamp.
        if t == self.watch_last_t {
            self.watch_events_at_t += count;
            if self.watch_events_at_t > Self::LIVELOCK_EVENT_THRESHOLD {
                return Err(RunError::Livelock {
                    events: self.watch_events_at_t,
                    at: t,
                    stuck: self.stuck_processes(),
                });
            }
        } else {
            self.watch_last_t = t;
            self.watch_events_at_t = count;
        }
        Ok(())
    }

    /// Scheduler-attached event selection: asks the scheduler which event
    /// ready at the current cycle executes next. The slate is what earlier
    /// decisions at this cycle left unchosen, followed by the events
    /// scheduled into the cycle since, in scheduling order; once it is
    /// empty, the next cycle's events are drained onto it. Nothing is
    /// re-queued, so every queue push is a scheduled event. Called for
    /// singleton slates too, so replay prefixes see a stable decision
    /// numbering.
    fn pop_scheduled(&mut self) -> Option<(Cycle, Event)> {
        let t = if self.slate.is_empty() {
            self.queue.drain_next_into(&mut self.slate)?
        } else {
            let t = self.queue.now();
            if self.queue.peek_time() == Some(t) {
                self.queue.drain_next_into(&mut self.slate);
            }
            t
        };
        let alts: Vec<SchedAlt> = self
            .slate
            .iter()
            .map(|ev| self.describe_event(ev))
            .collect();
        let sched = self.sched.0.as_mut().expect("caller checked");
        let choice = sched.choose(t, &alts);
        assert!(
            choice < alts.len(),
            "scheduler chose alternative {choice} of a {}-wide slate",
            alts.len()
        );
        self.obs.decision(choice, &alts);
        Some((t, self.slate.remove(choice)))
    }

    /// Describes one pending event for the scheduler: which processor it
    /// belongs to and what memory it will touch. Anything that cannot be
    /// bounded precisely is `Unknown`/`Sync` (dependent with everything) —
    /// conservative for partial-order reduction, never unsound.
    fn describe_event(&self, ev: &Event) -> SchedAlt {
        match *ev {
            Event::Step(pid) => {
                let op = match self.ctxs[pid].pending_op {
                    Some(op) => Some(op),
                    None => self.workload.peek_op(ProcId(pid)),
                };
                let footprint = match op {
                    Some(Op::Compute(_) | Op::Done) => Footprint::None,
                    Some(
                        Op::Read(a) | Op::Write(a) | Op::Rmw(a) | Op::Prefetch { addr: a, .. },
                    ) => Footprint::Line(a.line().index()),
                    Some(Op::Acquire(_) | Op::Release(_) | Op::Barrier(_)) => Footprint::Sync,
                    None => Footprint::Unknown,
                };
                SchedAlt {
                    pid: self.proc_of(pid),
                    footprint,
                    tag: "step",
                }
            }
            Event::Wake(pid) => SchedAlt {
                pid: self.proc_of(pid),
                footprint: Footprint::None,
                tag: "wake",
            },
            Event::WbService(p) => {
                let footprint = match self.procs[p].wbuf.head() {
                    Some(w) if w.kind == WriteKind::Release => Footprint::Sync,
                    Some(w) => Footprint::Line(w.addr.line().index()),
                    None => Footprint::None,
                };
                SchedAlt {
                    pid: p,
                    footprint,
                    tag: "wb",
                }
            }
            Event::PbService(p) => {
                let footprint = match self.procs[p].pbuf.head() {
                    Some(pf) => Footprint::Line(pf.addr.line().index()),
                    None => Footprint::None,
                };
                SchedAlt {
                    pid: p,
                    footprint,
                    tag: "pb",
                }
            }
            Event::Fill(p, line, _) => SchedAlt {
                pid: p,
                footprint: Footprint::Line(line.index()),
                tag: "fill",
            },
            Event::Unlock(_, pid) => SchedAlt {
                pid: self.proc_of(pid),
                footprint: Footprint::Sync,
                tag: "unlock",
            },
            Event::BarrierWake(pid, _) => SchedAlt {
                pid: self.proc_of(pid),
                footprint: Footprint::Sync,
                tag: "barrier-wake",
            },
        }
    }

    /// Snapshot of every unfinished process for a watchdog report.
    fn stuck_processes(&self) -> Vec<StuckProcess> {
        self.ctxs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.state != CtxState::Finished)
            .map(|(i, c)| StuckProcess {
                pid: ProcId(i),
                last_advance: c.last_advance,
                blocked: c.blocked_on,
            })
            .collect()
    }

    fn finish(mut self) -> (RunResult, O) {
        let elapsed = self
            .ctxs
            .iter()
            .filter_map(|c| c.finished_at)
            .max()
            .unwrap_or(Cycle::ZERO);
        // Charge each processor's tail idle (after its last context
        // finished, while others were still running) so that every
        // processor's decomposition spans the same wall clock.
        let multi = self.cfg.contexts > 1;
        for p in &mut self.procs {
            p.run_lengths.finish();
            let stopped = p.finished_at.unwrap_or(elapsed);
            let tail = elapsed.saturating_sub(stopped);
            if multi {
                p.breakdown.all_idle += tail;
            } else {
                p.breakdown.sync_stall += tail;
            }
        }
        let mut aggregate = TimeBreakdown::default();
        let mut run_lengths = Distribution::new();
        let mut breakdowns = Vec::with_capacity(self.procs.len());
        let mut mem = self.mem.snapshot_stats();
        for p in &self.procs {
            aggregate += p.breakdown;
            run_lengths.merge(p.run_lengths.distribution());
            breakdowns.push(p.breakdown);
            if let Some(inj) = &p.faults {
                mem.faults.merge(&inj.stats());
            }
        }
        let result = RunResult {
            elapsed,
            breakdowns,
            aggregate,
            mem,
            run_lengths,
            shared_reads: self.shared_reads,
            shared_writes: self.shared_writes,
            lock_acquires: self.lock_acquires,
            barrier_arrivals: self.barrier_arrivals,
            prefetches_issued: self.prefetches_issued,
            context_switches: self.context_switches,
            sim_events: self.queue.scheduled(),
        };
        (result, self.obs)
    }

    // ---- helpers ---------------------------------------------------------

    fn proc_of(&self, pid: usize) -> usize {
        self.topo.processor_of(ProcId(pid))
    }

    fn node_of(&self, pid: usize) -> dashlat_mem::addr::NodeId {
        self.topo.node_of(ProcId(pid))
    }

    /// Every memory access goes through here so online invariant checking
    /// covers the whole machine and the observer sees every access in
    /// coherence order. Only the first failure is kept; the run loop
    /// converts it into [`RunError::InvariantViolation`].
    fn access_mem(
        &mut self,
        t: Cycle,
        node: dashlat_mem::addr::NodeId,
        addr: Addr,
        kind: AccessKind,
    ) -> AccessResult {
        let r = self.mem.access(t, node, addr, kind);
        self.obs.access(AccessRecord {
            at: t,
            node,
            addr,
            kind,
            class: r.class,
            done_at: r.done_at,
        });
        if self.cfg.check_invariants && self.invariant_failure.is_none() {
            if let Err(detail) = self.mem.check_line_invariants(addr.line()) {
                self.invariant_failure = Some((t, detail));
            }
        }
        r
    }

    /// Injected fault: the write buffer transiently reports full. Only
    /// honoured while the buffer is non-empty and draining, so a
    /// retirement event is guaranteed to wake the stalled context.
    fn transient_wb_full(&mut self, p: usize) -> bool {
        let proc = &mut self.procs[p];
        if proc.wbuf.is_empty() || !proc.wb_active {
            return false;
        }
        proc.faults
            .as_mut()
            .is_some_and(dashlat_sim::FaultInjector::transient_buffer_full)
    }

    /// Injected fault: the prefetch buffer transiently reports full (same
    /// non-empty-and-draining guard as [`Machine::transient_wb_full`]).
    fn transient_pf_full(&mut self, p: usize) -> bool {
        let proc = &mut self.procs[p];
        if proc.pbuf.is_empty() || !proc.pb_active {
            return false;
        }
        proc.faults
            .as_mut()
            .is_some_and(dashlat_sim::FaultInjector::transient_buffer_full)
    }

    /// The stall policy: a stall of at most
    /// [`ProcConfig::no_switch_threshold`] cycles is charged in place and
    /// `pid` steps again at `resume`; a longer one blocks the context
    /// until `resume`, noting `miss` (a demand fetch's line and fill time)
    /// in flight first.
    fn stall(
        &mut self,
        t: Cycle,
        pid: usize,
        resume: Cycle,
        reason: Reason,
        on: BlockedOn,
        miss: Option<(LineAddr, Cycle)>,
    ) {
        let stall = resume.saturating_sub(t);
        let p = self.proc_of(pid);
        if stall <= self.cfg.no_switch_threshold {
            // A multiple-context processor calls a short stall "no switch"
            // idle.
            let b = &mut self.procs[p].breakdown;
            let field = if self.cfg.contexts > 1 {
                &mut b.no_switch
            } else {
                reason.stall_field(b)
            };
            *field += stall;
            self.queue.schedule(resume, Event::Step(pid));
        } else {
            if let Some((line, done)) = miss {
                self.note_in_flight(p, line, done, false);
            }
            self.block(t, pid, reason, Some(resume), on);
        }
    }

    /// Blocks `pid` for `reason`; if `wake_at` is known the wake event is
    /// scheduled. The processor switches to another context or idles.
    /// `on` records what the context waits for, for watchdog reports.
    fn block(
        &mut self,
        t: Cycle,
        pid: usize,
        reason: Reason,
        wake_at: Option<Cycle>,
        on: BlockedOn,
    ) {
        let ctx = &mut self.ctxs[pid];
        debug_assert_eq!(ctx.state, CtxState::Running);
        ctx.state = CtxState::Blocked;
        ctx.reason = reason;
        ctx.blocked_on = Some(on);
        if let Some(w) = wake_at {
            self.queue.schedule(w.max(t), Event::Wake(pid));
        }
        let p = self.proc_of(pid);
        self.procs[p].run_lengths.miss();
        self.obs.block(t, ProcId(pid));
        self.reschedule(t, p, reason);
    }

    /// Picks the next context for processor `p` after the running one
    /// stopped (blocked or finished).
    fn reschedule(&mut self, t: Cycle, p: usize, reason: Reason) {
        let next = self.procs[p]
            .ctxs
            .iter()
            .copied()
            .find(|&pid| self.ctxs[pid].state == CtxState::Ready);
        match next {
            Some(pid) => {
                self.start_context(t, p, pid);
            }
            None => {
                if self.procs[p]
                    .ctxs
                    .iter()
                    .all(|&c| self.ctxs[c].state == CtxState::Finished)
                {
                    self.procs[p].finished_at = Some(t);
                } else {
                    self.procs[p].idle_since = Some((t, reason));
                }
            }
        }
    }

    /// Loads and starts `pid` on processor `p`, charging switch overhead if
    /// a different context was loaded.
    fn start_context(&mut self, t: Cycle, p: usize, pid: usize) {
        self.ctxs[pid].state = CtxState::Running;
        let overhead = if self.procs[p].loaded == pid {
            Cycle::ZERO
        } else {
            self.procs[p].loaded = pid;
            self.context_switches += 1;
            self.procs[p].breakdown.switching += self.cfg.switch_overhead;
            self.cfg.switch_overhead
        };
        self.queue.schedule(t + overhead, Event::Step(pid));
    }

    /// A blocked context becomes ready.
    fn wake(&mut self, t: Cycle, pid: usize) {
        debug_assert_eq!(self.ctxs[pid].state, CtxState::Blocked);
        self.ctxs[pid].state = CtxState::Ready;
        self.ctxs[pid].blocked_on = None;
        self.ctxs[pid].last_advance = t;
        let p = self.proc_of(pid);
        if let Some((since, reason)) = self.procs[p].idle_since.take() {
            // The processor was idle: attribute the idle span and resume.
            let span = t.saturating_sub(since);
            let b = &mut self.procs[p].breakdown;
            if self.cfg.contexts > 1 {
                b.all_idle += span;
            } else {
                *reason.stall_field(b) += span;
            }
            self.start_context(t, p, pid);
        }
        // Otherwise another context is running; `pid` waits as Ready.
    }

    // ---- the op interpreter ----------------------------------------------

    fn step(&mut self, t: Cycle, pid: usize) {
        debug_assert_eq!(
            self.ctxs[pid].state,
            CtxState::Running,
            "step of non-running {pid}"
        );
        self.ctxs[pid].last_advance = t;
        let op = match self.ctxs[pid].pending_op.take() {
            Some(op) => op,
            None => {
                let op = self.workload.next_op(ProcId(pid));
                self.obs.op(ProcId(pid), op);
                op
            }
        };
        match op {
            Op::Compute(n) => self.do_compute(t, pid, n),
            Op::Read(a) => self.do_read(t, pid, a),
            Op::Write(a) => self.do_write(t, pid, a),
            Op::Rmw(a) => self.do_rmw(t, pid, a),
            Op::Prefetch { addr, exclusive } => self.do_prefetch(t, pid, addr, exclusive),
            Op::Acquire(l) => self.do_acquire(t, pid, l),
            Op::Release(l) => self.do_release(t, pid, l),
            Op::Barrier(b) => self.do_barrier(t, pid, b),
            Op::Done => self.do_done(t, pid),
        }
    }

    fn do_compute(&mut self, t: Cycle, pid: usize, n: u64) {
        let p = self.proc_of(pid);
        let proc = &mut self.procs[p];
        let lock_pf = std::mem::take(&mut proc.pending_lockout_pf);
        let lock_fill = std::mem::take(&mut proc.pending_lockout_fill);
        proc.breakdown.prefetch_overhead += Cycle(lock_pf);
        proc.breakdown.no_switch += Cycle(lock_fill);
        proc.breakdown.busy += Cycle(n);
        proc.run_lengths.busy(Cycle(n));
        self.obs.compute(t, ProcId(pid), n);
        self.queue
            .schedule(t + Cycle(n + lock_pf + lock_fill), Event::Step(pid));
    }

    /// Looks up an in-flight line; stale entries (already completed) count
    /// as absent.
    fn in_flight(&self, p: usize, line: LineAddr, t: Cycle) -> Option<Cycle> {
        self.procs[p].outstanding.get(line).filter(|&d| d > t)
    }

    fn note_in_flight(&mut self, p: usize, line: LineAddr, done: Cycle, from_prefetch: bool) {
        let proc = &mut self.procs[p];
        proc.outstanding.insert(line, done);
        if proc.outstanding.len() > OUTSTANDING_PRUNE_LEN {
            proc.outstanding.prune(done); // prune anything long complete
        }
        self.queue
            .schedule(done, Event::Fill(p, line, from_prefetch));
    }

    fn do_read(&mut self, t: Cycle, pid: usize, a: Addr) {
        self.shared_reads += 1;
        // Reads never re-execute (in-flight combining resumes past the
        // op), so issue is the commit point.
        self.obs.commit(t, ProcId(pid), EventKind::Read(a));
        let p = self.proc_of(pid);
        // Optimistic out-of-order bound (see ProcConfig::read_lookahead):
        // up to `lookahead` cycles of the miss overlap independent work,
        // so the context resumes that much earlier.
        let lookahead = self.cfg.read_lookahead;
        // Combine with an in-flight request for the same line.
        if let Some(done) = self.in_flight(p, a.line(), t) {
            let resume = done
                .saturating_sub(lookahead)
                .max(t + Cycle(1))
                .min(done.max(t));
            self.stall(
                t,
                pid,
                resume,
                Reason::Read,
                BlockedOn::on(BlockedOp::Read, a),
                None,
            );
            return;
        }
        let node = self.node_of(pid);
        let r = self.access_mem(t, node, a, AccessKind::Read);
        if r.class == ServiceClass::PrimaryHit {
            // The load issues and completes in the pipeline: busy time.
            let cycles = r.done_at.saturating_sub(t);
            self.procs[p].breakdown.busy += cycles;
            self.procs[p].run_lengths.busy(cycles);
            self.queue.schedule(r.done_at, Event::Step(pid));
            return;
        }
        let resume = r
            .done_at
            .saturating_sub(lookahead)
            .max(t + Cycle(1))
            .min(r.done_at);
        let miss = (r.class != ServiceClass::SecondaryHit).then_some((a.line(), r.done_at));
        self.stall(
            t,
            pid,
            resume,
            Reason::Read,
            BlockedOn::on(BlockedOp::Read, a),
            miss,
        );
    }

    fn do_write(&mut self, t: Cycle, pid: usize, a: Addr) {
        self.shared_writes += 1;
        if self.cfg.consistency.buffers_writes() {
            self.rc_write(t, pid, a, WriteKind::Data, None);
        } else {
            self.sc_write(t, pid, a, None);
        }
    }

    /// Atomic read-modify-write: a full fence (drain the write buffer,
    /// wait for acknowledgements) followed by a blocking exclusive access,
    /// under *every* consistency model — atomicity needs the read and
    /// write halves to be one indivisible coherence action, so the RMW
    /// cannot retire through the write buffer the way an RC data write
    /// does. The fence reuses the acquire path's machinery: a non-empty
    /// buffer parks the op and joins `fence_waiters` (woken by
    /// `wb_service` when the buffer empties); a pending ack horizon
    /// re-issues the op at the horizon.
    fn do_rmw(&mut self, t: Cycle, pid: usize, a: Addr) {
        let p = self.proc_of(pid);
        if !self.procs[p].wbuf.is_empty() {
            self.ctxs[pid].pending_op = Some(Op::Rmw(a));
            self.procs[p].fence_waiters.push_back(pid);
            self.block(
                t,
                pid,
                Reason::Write,
                None,
                BlockedOn::on(BlockedOp::Write, a),
            );
            return;
        }
        let horizon = self.procs[p].acks_horizon;
        if horizon > t {
            self.ctxs[pid].pending_op = Some(Op::Rmw(a));
            self.block(
                t,
                pid,
                Reason::Write,
                Some(horizon),
                BlockedOn::on(BlockedOp::Write, a),
            );
            return;
        }
        // Wait out any in-flight fetch of the line (mirrors `sc_write`).
        if let Some(done) = self.in_flight(p, a.line(), t) {
            self.ctxs[pid].pending_op = Some(Op::Rmw(a));
            self.block(
                t,
                pid,
                Reason::Write,
                Some(done),
                BlockedOn::on(BlockedOp::Write, a),
            );
            return;
        }
        // Fence satisfied: the RMW commits here as one exclusive access.
        self.shared_writes += 1;
        self.obs.commit(t, ProcId(pid), EventKind::Write(a));
        let node = self.node_of(pid);
        let r = self.access_mem(t, node, a, AccessKind::Write);
        self.stall(
            t,
            pid,
            r.done_at,
            Reason::Write,
            BlockedOn::on(BlockedOp::Write, a),
            None,
        );
    }

    /// SC write: the processor stalls until the write completes. Shared by
    /// data writes and lock/unlock writes (`unlock` carries the lock to
    /// release when ownership arrives).
    fn sc_write(&mut self, t: Cycle, pid: usize, a: Addr, unlock: Option<LockId>) {
        let p = self.proc_of(pid);
        let reason = if unlock.is_some() {
            Reason::Sync
        } else {
            Reason::Write
        };
        // Wait for any in-flight fetch of this line first (e.g. an
        // exclusive prefetch that has not returned yet).
        if let Some(done) = self.in_flight(p, a.line(), t) {
            self.ctxs[pid].pending_op = Some(match unlock {
                Some(l) => Op::Release(l),
                None => Op::Write(a),
            });
            // Re-issuing a demand write counts only once.
            self.shared_writes -= u64::from(unlock.is_none());
            self.block(
                t,
                pid,
                reason,
                Some(done),
                BlockedOn::on(BlockedOp::Write, a),
            );
            return;
        }
        // Past the in-flight re-issue: the write commits now. Releases
        // are sync accesses, not data writes, in the event vocabulary.
        match unlock {
            Some(l) => self.obs.commit(t, ProcId(pid), EventKind::Release(l)),
            None => self.obs.commit(t, ProcId(pid), EventKind::Write(a)),
        }
        let node = self.node_of(pid);
        let r = self.access_mem(t, node, a, AccessKind::Write);
        if let Some(lid) = unlock {
            self.queue.schedule(r.done_at, Event::Unlock(lid, pid));
        }
        self.stall(
            t,
            pid,
            r.done_at,
            reason,
            BlockedOn::on(BlockedOp::Write, a),
            None,
        );
    }

    /// RC write: enqueue into the write buffer (stalling only when full).
    fn rc_write(&mut self, t: Cycle, pid: usize, a: Addr, kind: WriteKind, unlock: Option<LockId>) {
        let p = self.proc_of(pid);
        if self.procs[p].wbuf.is_full() || self.transient_wb_full(p) {
            self.ctxs[pid].pending_op = Some(match unlock {
                Some(l) => Op::Release(l),
                None => Op::Write(a),
            });
            self.shared_writes -= u64::from(unlock.is_none());
            self.procs[p].wb_full_waiters.push_back(pid);
            let reason = if unlock.is_some() {
                Reason::Sync
            } else {
                Reason::WriteBufFull
            };
            self.block(
                t,
                pid,
                reason,
                None,
                BlockedOn::on(BlockedOp::BufferDrain, a),
            );
            return;
        }
        // Past the buffer-full re-issue: entering the write buffer is the
        // RC commit point (the release's clock snapshot must not include
        // program-order-later writes, so it is taken at issue).
        match unlock {
            Some(l) => self.obs.commit(t, ProcId(pid), EventKind::Release(l)),
            None => self.obs.commit(t, ProcId(pid), EventKind::Write(a)),
        }
        let pushed = self.procs[p].wbuf.try_push(PendingWrite {
            addr: a,
            enqueued_at: t,
            kind,
        });
        debug_assert!(pushed);
        self.procs[p].wb_meta.push_back(unlock.map(|l| (l, pid)));
        if !self.procs[p].wb_active {
            self.procs[p].wb_active = true;
            self.queue.schedule(t + Cycle(1), Event::WbService(p));
        }
        // The store itself is a single issue cycle.
        self.procs[p].breakdown.busy += Cycle(1);
        self.procs[p].run_lengths.busy(Cycle(1));
        self.queue.schedule(t + Cycle(1), Event::Step(pid));
    }

    /// Write-buffer head service: issues the head write (pipelined; the
    /// next write can issue a bus-occupancy later), holding releases until
    /// all previously issued writes have completed with acks.
    fn wb_service(&mut self, t: Cycle, p: usize) {
        let Some(head) = self.procs[p].wbuf.head().copied() else {
            self.procs[p].wb_active = false;
            return;
        };
        // The bus accepts at most one buffered write per occupancy window.
        if t < self.procs[p].wb_next_issue {
            let at = self.procs[p].wb_next_issue;
            self.queue.schedule(at, Event::WbService(p));
            return;
        }
        if head.kind == WriteKind::Release && t < self.procs[p].acks_horizon {
            let at = self.procs[p].acks_horizon;
            self.queue.schedule(at, Event::WbService(p));
            return;
        }
        self.procs[p].wb_next_issue = t + self.cfg.write_issue_spacing;
        // Seeded relaxation bug (`verify-mutations` + runtime flag): when
        // two or more data writes are queued, service the *second* one
        // ahead of the head — a W→W FIFO violation every buffering model
        // here forbids. Exists so the model checker's regression tests can
        // prove they catch a real reordering bug.
        #[cfg(feature = "verify-mutations")]
        let (entry, meta) = {
            let swap = self.cfg.relaxation_bug
                && head.kind == WriteKind::Data
                && self.procs[p]
                    .wbuf
                    .peek_at(1)
                    .is_some_and(|w| w.kind == WriteKind::Data);
            if swap {
                let entry = self.procs[p].wbuf.remove_at(1).expect("second entry");
                let meta = self.procs[p].wb_meta.remove(1).expect("meta in lockstep");
                (entry, meta)
            } else {
                let entry = self.procs[p].wbuf.pop().expect("head exists");
                let meta = self.procs[p].wb_meta.pop_front().expect("meta in lockstep");
                (entry, meta)
            }
        };
        #[cfg(not(feature = "verify-mutations"))]
        let (entry, meta) = {
            let entry = self.procs[p].wbuf.pop().expect("head exists");
            let meta = self.procs[p].wb_meta.pop_front().expect("meta in lockstep");
            (entry, meta)
        };
        // Opt-in W→W FIFO invariant: the buffer tracks enqueue order and
        // flags any out-of-order service (only the seeded-bug path above
        // can produce one); the main loop converts the pending failure
        // into `RunError::InvariantViolation` after this event.
        if self.cfg.enforce_wb_fifo && self.invariant_failure.is_none() {
            if let Some(detail) = self.procs[p].wbuf.take_fifo_violation() {
                self.invariant_failure = Some((t, detail));
            }
        }
        let node = dashlat_mem::addr::NodeId(p);
        let r = self.access_mem(t, node, entry.addr, AccessKind::Write);
        self.procs[p].writes_done_horizon = self.procs[p].writes_done_horizon.max(r.done_at);
        self.procs[p].acks_horizon = self.procs[p].acks_horizon.max(r.acks_done_at);
        if let Some((lid, pid)) = meta {
            self.queue.schedule(r.done_at, Event::Unlock(lid, pid));
        }
        // A slot is free: wake one context stalled on the full buffer.
        if let Some(waiter) = self.procs[p].wb_full_waiters.pop_front() {
            self.queue.schedule(t, Event::Wake(waiter));
        }
        if self.procs[p].wbuf.is_empty() {
            self.procs[p].wb_active = false;
            // Wake contexts fenced on the drain (WC acquires); they will
            // re-check the ack horizon when they re-execute.
            while let Some(waiter) = self.procs[p].fence_waiters.pop_front() {
                self.queue.schedule(t, Event::Wake(waiter));
            }
        } else {
            self.queue
                .schedule(self.procs[p].wb_next_issue, Event::WbService(p));
        }
    }

    fn do_prefetch(&mut self, t: Cycle, pid: usize, addr: Addr, exclusive: bool) {
        if !self.cfg.prefetching {
            // Compiled out: no overhead at all.
            self.queue.schedule(t, Event::Step(pid));
            return;
        }
        self.prefetches_issued += 1;
        let p = self.proc_of(pid);
        if self.procs[p].pbuf.is_full() || self.transient_pf_full(p) {
            self.ctxs[pid].pending_op = Some(Op::Prefetch { addr, exclusive });
            self.prefetches_issued -= 1;
            self.procs[p].pf_full_waiters.push_back(pid);
            self.block(
                t,
                pid,
                Reason::PrefetchFull,
                None,
                BlockedOn::on(BlockedOp::BufferDrain, addr),
            );
            return;
        }
        // Past the buffer-full re-issue: the prefetch is committed to the
        // buffer now.
        self.obs
            .commit(t, ProcId(pid), EventKind::Prefetch { addr, exclusive });
        let overhead = self.cfg.prefetch_issue_overhead;
        self.procs[p].breakdown.prefetch_overhead += overhead;
        let pushed = self.procs[p].pbuf.try_push(PendingPrefetch {
            addr,
            exclusive,
            enqueued_at: t,
        });
        debug_assert!(pushed);
        if !self.procs[p].pb_active {
            self.procs[p].pb_active = true;
            self.queue.schedule(t + overhead, Event::PbService(p));
        }
        self.queue.schedule(t + overhead, Event::Step(pid));
    }

    /// Prefetch-buffer head issue: check the secondary cache, discard if
    /// resident or already in flight, otherwise send to the memory system.
    fn pb_service(&mut self, t: Cycle, p: usize) {
        if self.procs[p].pbuf.is_empty() {
            self.procs[p].pb_active = false;
            return;
        }
        // Enforce the bus-occupancy spacing between prefetch issues.
        if t < self.procs[p].pb_next_issue {
            let at = self.procs[p].pb_next_issue;
            self.queue.schedule(at, Event::PbService(p));
            return;
        }
        let head = self.procs[p].pbuf.pop().expect("non-empty");
        // A slot frees as soon as the head issues (the buffer pipelines).
        if let Some(waiter) = self.procs[p].pf_full_waiters.pop_front() {
            self.queue.schedule(t, Event::Wake(waiter));
        }
        let node = dashlat_mem::addr::NodeId(p);
        let line = head.addr.line();
        let kind = if head.exclusive {
            AccessKind::ReadExPrefetch
        } else {
            AccessKind::ReadPrefetch
        };
        let already_in_flight = self.in_flight(p, line, t).is_some();
        if already_in_flight {
            // Combined with the outstanding request; nothing to issue.
            self.queue.schedule(t + Cycle(1), Event::PbService(p));
            return;
        }
        let r = self.access_mem(t, node, head.addr, kind);
        if r.class == ServiceClass::PrefetchDiscard {
            self.queue.schedule(t + Cycle(1), Event::PbService(p));
            return;
        }
        self.procs[p].pb_next_issue = t + self.cfg.prefetch_issue_spacing;
        self.note_in_flight(p, line, r.done_at, true);
        self.queue
            .schedule(self.procs[p].pb_next_issue, Event::PbService(p));
    }

    /// A fill arrived: clear the in-flight entry and model the primary
    /// cache lockout if the processor is executing (§5.1 / §6.1).
    fn fill_arrived(&mut self, t: Cycle, p: usize, line: LineAddr, from_prefetch: bool) {
        let lockout = self.mem.config().latencies.primary_fill_lockout.as_u64();
        let multi = self.cfg.contexts > 1;
        let proc = &mut self.procs[p];
        proc.outstanding.remove_exact(line, t);
        // If a context is executing while the line is written into the
        // primary cache, it is locked out for the fill duration.
        let executing = proc.idle_since.is_none() && proc.finished_at.is_none();
        if executing {
            if from_prefetch {
                proc.pending_lockout_pf += lockout;
            } else if multi {
                // Another context's demand fill interferes (no-switch idle).
                proc.pending_lockout_fill += lockout;
            }
        }
    }

    fn do_acquire(&mut self, t: Cycle, pid: usize, l: LockId) {
        // Weak consistency fences on *every* synchronization access: the
        // acquire may not issue until all previously issued writes have
        // completed with acknowledgements.
        let lock_wait = BlockedOn {
            op: BlockedOp::Acquire,
            addr: Some(self.sync.lock_addr(l)),
            holder: self.sync.lock_holder(l),
        };
        if self.cfg.consistency.acquire_waits() {
            let p = self.proc_of(pid);
            if !self.procs[p].wbuf.is_empty() {
                self.ctxs[pid].pending_op = Some(Op::Acquire(l));
                self.procs[p].fence_waiters.push_back(pid);
                self.block(t, pid, Reason::Sync, None, lock_wait);
                return;
            }
            let horizon = self.procs[p].acks_horizon;
            if horizon > t {
                self.ctxs[pid].pending_op = Some(Op::Acquire(l));
                self.block(t, pid, Reason::Sync, Some(horizon), lock_wait);
                return;
            }
        }
        self.lock_acquires += 1;
        match self.sync.acquire(l, ProcId(pid)) {
            AcquireOutcome::Granted => {
                // The lock is ours: the acquire commits here. (Queued
                // acquires commit in `unlock` when the releaser hands the
                // lock over — the woken context does not re-execute the
                // acquire.)
                self.obs.commit(t, ProcId(pid), EventKind::Acquire(l));
                // Test&set needs exclusive ownership of the lock line.
                let addr = self.sync.lock_addr(l);
                let node = self.node_of(pid);
                let r = self.access_mem(t, node, addr, AccessKind::Write);
                self.stall(
                    t,
                    pid,
                    r.done_at,
                    Reason::Sync,
                    BlockedOn::on(BlockedOp::Acquire, addr),
                    None,
                );
            }
            AcquireOutcome::Queued => {
                // Ownership will be handed to us by the releaser; wait.
                let wait = BlockedOn {
                    holder: self.sync.lock_holder(l),
                    ..lock_wait
                };
                self.block(t, pid, Reason::Sync, None, wait);
            }
        }
    }

    fn do_release(&mut self, t: Cycle, pid: usize, l: LockId) {
        let addr = self.sync.lock_addr(l);
        if self.cfg.consistency.buffers_writes() {
            // Under PC a release is an ordinary FIFO write (no ack fence);
            // under WC and RC it may not begin service before all prior
            // writes have completed with acks.
            let kind = if self.cfg.consistency.release_waits() {
                WriteKind::Release
            } else {
                WriteKind::Data
            };
            self.rc_write(t, pid, addr, kind, Some(l));
        } else {
            self.sc_write(t, pid, addr, Some(l));
        }
    }

    /// The release write completed: pass the lock to the first waiter.
    fn unlock(&mut self, t: Cycle, l: LockId, pid: usize) {
        if let Some(next) = self.sync.release(l, ProcId(pid)) {
            // Hand-off is the queued waiter's acquire commit point.
            self.obs.commit(t, next, EventKind::Acquire(l));
            // The waiter re-fetches the lock line (it was invalidated by
            // the release) and acquires ownership.
            let addr = self.sync.lock_addr(l);
            let node = self.node_of(next.0);
            let r = self.access_mem(t, node, addr, AccessKind::Write);
            self.queue.schedule(r.done_at, Event::Wake(next.0));
        }
    }

    fn do_barrier(&mut self, t: Cycle, pid: usize, b: crate::ops::BarrierId) {
        self.barrier_arrivals += 1;
        // Arrival always commits (barriers never re-execute).
        self.obs.commit(t, ProcId(pid), EventKind::BarrierArrive(b));
        let addr = self.sync.barrier_addr(b);
        let node = self.node_of(pid);
        // Arrival: atomic increment of the barrier count (needs ownership;
        // the line ping-pongs between arrivals — the hot spot is real).
        let r = self.access_mem(t, node, addr, AccessKind::Write);
        match self.sync.arrive(b, ProcId(pid)) {
            BarrierOutcome::Wait => {
                self.block(
                    t,
                    pid,
                    Reason::Sync,
                    None,
                    BlockedOn::on(BlockedOp::Barrier, addr),
                );
            }
            BarrierOutcome::ReleaseAll(waiters) => {
                for w in waiters {
                    self.queue.schedule(r.done_at, Event::BarrierWake(w.0, b.0));
                }
                // The last arriver proceeds once its increment completes.
                self.stall(
                    t,
                    pid,
                    r.done_at,
                    Reason::Sync,
                    BlockedOn::on(BlockedOp::Barrier, addr),
                    None,
                );
            }
        }
    }

    /// A released barrier waiter re-reads the flag line (invalidated by the
    /// arrivals) before resuming; the resulting read storm contends on the
    /// barrier's home node, as on the real machine.
    fn barrier_wake(&mut self, t: Cycle, pid: usize, barrier: usize) {
        let node = self.node_of(pid);
        let addr = self.sync.barrier_addr(crate::ops::BarrierId(barrier));
        let r = self.access_mem(t, node, addr, AccessKind::Read);
        self.queue.schedule(r.done_at, Event::Wake(pid));
    }

    fn do_done(&mut self, t: Cycle, pid: usize) {
        self.obs.commit(t, ProcId(pid), EventKind::Done);
        self.ctxs[pid].state = CtxState::Finished;
        self.ctxs[pid].finished_at = Some(t);
        let p = self.proc_of(pid);
        self.reschedule(t, p, Reason::Sync);
    }
}
