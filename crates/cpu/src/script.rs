//! Scripted (trace-driven) workloads.
//!
//! [`ScriptWorkload`] replays a fixed per-process operation list. It is the
//! simplest possible [`Workload`] — useful for tests, microbenchmarks and
//! for replaying externally captured reference traces.

use dashlat_mem::addr::Addr;

use crate::ops::{LabeledRange, Op, ProcId, SyncConfig, Workload};

/// A workload that replays fixed operation sequences.
///
/// Each process executes its list in order and then reports [`Op::Done`]
/// forever. Locks and barriers referenced by the script must be declared
/// via [`ScriptWorkload::with_locks`] / [`ScriptWorkload::with_barriers`].
///
/// # Example
///
/// ```
/// use dashlat_cpu::ops::{Op, ProcId, Workload};
/// use dashlat_cpu::script::ScriptWorkload;
/// use dashlat_mem::addr::Addr;
///
/// let mut w = ScriptWorkload::new(vec![vec![Op::Compute(3), Op::Read(Addr(0))]]);
/// assert_eq!(w.next_op(ProcId(0)), Op::Compute(3));
/// assert_eq!(w.next_op(ProcId(0)), Op::Read(Addr(0)));
/// assert_eq!(w.next_op(ProcId(0)), Op::Done);
/// assert_eq!(w.next_op(ProcId(0)), Op::Done);
/// ```
#[derive(Debug, Clone)]
pub struct ScriptWorkload {
    scripts: Vec<Vec<Op>>,
    cursor: Vec<usize>,
    sync: SyncConfig,
    shared_bytes: u64,
}

impl ScriptWorkload {
    /// Creates a scripted workload, one op list per process.
    ///
    /// # Panics
    ///
    /// Panics if `scripts` is empty.
    pub fn new(scripts: Vec<Vec<Op>>) -> Self {
        assert!(!scripts.is_empty(), "need at least one process");
        let cursor = vec![0; scripts.len()];
        ScriptWorkload {
            scripts,
            cursor,
            sync: SyncConfig::default(),
            shared_bytes: 0,
        }
    }

    /// Declares the backing addresses of the locks the script uses
    /// (`LockId(i)` maps to `addrs[i]`).
    pub fn with_locks(mut self, addrs: Vec<Addr>) -> Self {
        self.sync.lock_addrs = addrs;
        self
    }

    /// Declares the backing addresses of the barriers the script uses.
    pub fn with_barriers(mut self, addrs: Vec<Addr>) -> Self {
        self.sync.barrier_addrs = addrs;
        self
    }

    /// Declares labeled-competing address ranges (intentional races the
    /// happens-before verifier must exempt).
    pub fn with_labeled_ranges(mut self, ranges: Vec<LabeledRange>) -> Self {
        self.sync.labeled_ranges = ranges;
        self
    }

    /// Sets the reported shared-data size (Table 2 bookkeeping).
    pub fn with_shared_bytes(mut self, bytes: u64) -> Self {
        self.shared_bytes = bytes;
        self
    }
}

impl Workload for ScriptWorkload {
    fn fork(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(self.clone()))
    }

    fn processes(&self) -> usize {
        self.scripts.len()
    }

    fn next_op(&mut self, pid: ProcId) -> Op {
        let i = self.cursor[pid.0];
        match self.scripts[pid.0].get(i) {
            Some(&op) => {
                self.cursor[pid.0] += 1;
                op
            }
            None => Op::Done,
        }
    }

    fn peek_op(&self, pid: ProcId) -> Option<Op> {
        let next = self.scripts[pid.0].get(self.cursor[pid.0]);
        Some(next.copied().unwrap_or(Op::Done))
    }

    fn sync_config(&self) -> SyncConfig {
        self.sync.clone()
    }

    fn shared_bytes(&self) -> u64 {
        self.shared_bytes
    }

    fn name(&self) -> &str {
        "script"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::LockId;

    #[test]
    fn replays_in_order_then_done() {
        let mut w = ScriptWorkload::new(vec![
            vec![Op::Compute(1), Op::Compute(2)],
            vec![Op::Acquire(LockId(0)), Op::Release(LockId(0))],
        ]);
        assert_eq!(w.processes(), 2);
        assert_eq!(w.next_op(ProcId(0)), Op::Compute(1));
        assert_eq!(w.next_op(ProcId(1)), Op::Acquire(LockId(0)));
        assert_eq!(w.next_op(ProcId(0)), Op::Compute(2));
        assert_eq!(w.next_op(ProcId(0)), Op::Done);
        assert_eq!(w.next_op(ProcId(1)), Op::Release(LockId(0)));
        assert_eq!(w.next_op(ProcId(1)), Op::Done);
    }

    #[test]
    fn sync_declarations() {
        let w = ScriptWorkload::new(vec![vec![]])
            .with_locks(vec![Addr(0x100)])
            .with_barriers(vec![Addr(0x200)])
            .with_shared_bytes(42);
        let sc = w.sync_config();
        assert_eq!(sc.lock_addrs, vec![Addr(0x100)]);
        assert_eq!(sc.barrier_addrs, vec![Addr(0x200)]);
        assert_eq!(w.shared_bytes(), 42);
        assert_eq!(w.name(), "script");
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_scripts_rejected() {
        let _ = ScriptWorkload::new(vec![]);
    }
}
