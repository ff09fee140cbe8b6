//! The operation vocabulary connecting workloads to the processor model.
//!
//! Workloads are *execution-driven op generators* in the style of the Tango
//! reference generator (§2.3): each simulated process produces its next
//! shared-memory operation only when the architecture simulator unblocks
//! it, so the interleaving of references is determined by simulated time.
//! Instruction fetches and private-data references are assumed to hit
//! (paper footnote 2) and are folded into [`Op::Compute`] busy cycles.

use dashlat_mem::addr::{Addr, NodeId};

/// Identifier of a simulated process (one per hardware context).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of a lock declared by the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LockId(pub usize);

/// Identifier of a barrier declared by the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarrierId(pub usize);

/// One operation of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Execute `0` or more cycles of private computation (includes
    /// instruction fetch and private-data references, which always hit).
    Compute(u64),
    /// Load from shared memory; the process blocks until the value arrives.
    Read(Addr),
    /// Store to shared memory. Under SC the process stalls until ownership
    /// is acquired; under RC the store retires through the write buffer.
    Write(Addr),
    /// Issue a non-binding software prefetch (read-shared or
    /// read-exclusive). Free when prefetching is disabled in the machine
    /// configuration — workloads may emit these unconditionally.
    Prefetch {
        /// Line to prefetch.
        addr: Addr,
        /// Acquire ownership too (read-exclusive).
        exclusive: bool,
    },
    /// Atomic read-modify-write (test&set, fetch&op) to shared memory.
    /// Orders like a fence followed by an SC write under every consistency
    /// model: the processor first drains its write buffer (waiting for
    /// invalidation acknowledgements), then stalls while it acquires
    /// exclusive ownership of the line — the read and write halves are a
    /// single indivisible coherence action at the directory.
    Rmw(Addr),
    /// Acquire a lock (an acquire access in the RC classification).
    Acquire(LockId),
    /// Release a lock (a release access: under RC it retires through the
    /// write buffer after all previously issued writes complete).
    Release(LockId),
    /// Wait at a global barrier with all other processes.
    Barrier(BarrierId),
    /// The process has finished its work.
    Done,
}

/// Shape of the machine a workload is generated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of processors (= nodes; the paper simulates 16).
    pub processors: usize,
    /// Hardware contexts per processor (1, 2 or 4 in the paper).
    pub contexts: usize,
}

impl Topology {
    /// Creates a topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(processors: usize, contexts: usize) -> Self {
        assert!(processors > 0 && contexts > 0);
        Topology {
            processors,
            contexts,
        }
    }

    /// Total process count (`processors × contexts`).
    pub fn processes(&self) -> usize {
        self.processors * self.contexts
    }

    /// Processor that runs `pid` (contexts are assigned in contiguous
    /// blocks: processor 0 runs processes `0..contexts`).
    pub fn processor_of(&self, pid: ProcId) -> usize {
        pid.0 / self.contexts
    }

    /// Node whose local memory is "local" for `pid` — the same as its
    /// processor, since every processor lives on its own node.
    pub fn node_of(&self, pid: ProcId) -> NodeId {
        NodeId(self.processor_of(pid))
    }

    /// Hardware-context slot of `pid` within its processor.
    pub fn context_of(&self, pid: ProcId) -> usize {
        pid.0 % self.contexts
    }
}

/// A contiguous address range the workload declares as holding *labeled
/// competing* accesses (properly-labeled terminology, Gharachorloo et al.):
/// conflicting accesses to these bytes are intentional data races — chaotic
/// accumulations, spin-read flags — that the program semantics tolerate.
/// The happens-before verifier exempts them; everything else must be
/// ordered by Acquire/Release/Barrier edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledRange {
    /// First byte of the range.
    pub base: Addr,
    /// Length in bytes.
    pub len: u64,
    /// Why the range competes (shown in analysis reports).
    pub name: String,
}

impl LabeledRange {
    /// Creates a labeled range.
    pub fn new(base: Addr, len: u64, name: impl Into<String>) -> Self {
        LabeledRange {
            base,
            len,
            name: name.into(),
        }
    }

    /// True when `addr` falls inside the range.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.len
    }
}

/// Synchronization resources a workload declares up front: the shared-memory
/// addresses backing each lock and barrier (they are ordinary cache lines
/// and generate ordinary coherence traffic), plus any address ranges whose
/// competing accesses are *labeled* as intentionally unordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncConfig {
    /// One backing address per lock.
    pub lock_addrs: Vec<Addr>,
    /// One backing address per barrier. All processes participate in every
    /// barrier (the paper's applications use global barriers).
    pub barrier_addrs: Vec<Addr>,
    /// Declared labeled-competing ranges (empty for fully ordered
    /// workloads such as LU).
    pub labeled_ranges: Vec<LabeledRange>,
}

impl SyncConfig {
    /// The declared label covering `addr`, if any.
    pub fn label_of(&self, addr: Addr) -> Option<&str> {
        self.labeled_ranges
            .iter()
            .find(|r| r.contains(addr))
            .map(|r| r.name.as_str())
    }
}

/// An execution-driven reference generator.
///
/// The machine calls [`Workload::next_op`] each time process `pid` is ready
/// to issue; the workload advances that process's logical computation and
/// returns the next operation. Logical shared state (particle positions,
/// matrix values, task queues) lives inside the workload; the timing and
/// interleaving come from the simulator.
pub trait Workload {
    /// Number of simulated processes (must equal `topology.processes()`).
    fn processes(&self) -> usize;

    /// Produces the next operation of `pid`. Called again only after the
    /// previous operation completed. Must keep returning [`Op::Done`] once
    /// the process has finished.
    fn next_op(&mut self, pid: ProcId) -> Op;

    /// The operation [`Workload::next_op`] would return for `pid`, without
    /// consuming it — or `None` when the workload cannot look ahead.
    ///
    /// Only consulted when a scheduler
    /// ([`dashlat_sim::sched::Scheduler`]) is attached to the machine: the
    /// footprint of a pending processor step feeds the independence
    /// relation of the partial-order-reduction explorer. Workloads that
    /// cannot cheaply look ahead keep the default (`None`), which is
    /// treated as "may touch anything" — always safe, just less reduced.
    fn peek_op(&self, _pid: ProcId) -> Option<Op> {
        None
    }

    /// The locks and barriers this workload uses.
    fn sync_config(&self) -> SyncConfig;

    /// Bytes of shared data touched (Table 2's "Shared Data Size").
    fn shared_bytes(&self) -> u64 {
        0
    }

    /// Short name for reports.
    fn name(&self) -> &str {
        "workload"
    }

    /// An independent copy of this workload's complete logical state, or
    /// `None` when the workload cannot be duplicated. Static program
    /// extraction ([`crate::extract`]) drives a fork so the original stays
    /// untouched: a forked workload must behave bit-identically to the
    /// original under the same operation sequence. Trait objects cannot
    /// require `Clone`, hence the explicit hook; plain-data workloads
    /// implement it as `Some(Box::new(self.clone()))`.
    fn fork(&self) -> Option<Box<dyn Workload>> {
        None
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn processes(&self) -> usize {
        (**self).processes()
    }
    fn next_op(&mut self, pid: ProcId) -> Op {
        (**self).next_op(pid)
    }
    fn peek_op(&self, pid: ProcId) -> Option<Op> {
        (**self).peek_op(pid)
    }
    fn sync_config(&self) -> SyncConfig {
        (**self).sync_config()
    }
    fn shared_bytes(&self) -> u64 {
        (**self).shared_bytes()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn fork(&self) -> Option<Box<dyn Workload>> {
        (**self).fork()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_mapping() {
        let t = Topology::new(4, 2);
        assert_eq!(t.processes(), 8);
        assert_eq!(t.processor_of(ProcId(0)), 0);
        assert_eq!(t.processor_of(ProcId(1)), 0);
        assert_eq!(t.processor_of(ProcId(2)), 1);
        assert_eq!(t.processor_of(ProcId(7)), 3);
        assert_eq!(t.node_of(ProcId(5)), NodeId(2));
        assert_eq!(t.context_of(ProcId(0)), 0);
        assert_eq!(t.context_of(ProcId(1)), 1);
        assert_eq!(t.context_of(ProcId(2)), 0);
    }

    #[test]
    fn single_context_is_identity() {
        let t = Topology::new(16, 1);
        for p in 0..16 {
            assert_eq!(t.processor_of(ProcId(p)), p);
            assert_eq!(t.context_of(ProcId(p)), 0);
        }
    }

    #[test]
    #[should_panic]
    fn zero_dimension_rejected() {
        let _ = Topology::new(0, 1);
    }
}
