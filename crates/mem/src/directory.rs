//! Invalidating directory: full-map, or limited-pointer with broadcast.
//!
//! For every memory block the directory at the block's home node tracks the
//! set of remote caches holding it (§2.1). On a write, point-to-point
//! invalidations go to all sharers and acknowledgements flow back to the
//! requester. The model keeps one logical directory keyed by line address;
//! the home node of a line (from the [`PageMap`](crate::layout::PageMap))
//! decides which node's directory controller — and thus which resources —
//! a transaction occupies.
//!
//! Besides the paper's full-map organisation, a classic *limited-pointer
//! with broadcast* (Dir_i-B) variant is provided as an extension: each
//! entry holds at most `i` sharer pointers; when an `i+1`-th sharer
//! arrives, the entry degrades to an overflow state and a later write must
//! broadcast invalidations to every node. This exposes the
//! directory-storage vs invalidation-traffic trade-off that full-map
//! machines like DASH avoided by paying the full bit vector.

use dashlat_sim::FxHashMap;

use crate::addr::{LineAddr, NodeId, NodeSet};

/// Directory organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryKind {
    /// One presence bit per node (the paper's machine).
    #[default]
    FullMap,
    /// At most `pointers` sharer pointers; overflow degrades to broadcast
    /// invalidation (Dir_i-B).
    LimitedPtr {
        /// Pointers per entry (the `i` in Dir_i-B).
        pointers: usize,
    },
}

/// Directory knowledge about one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirState {
    /// No cache holds the line; memory is up to date.
    #[default]
    Uncached,
    /// The listed caches hold clean copies; memory is up to date.
    Shared(NodeSet),
    /// Pointer overflow (limited-pointer directories only): an unknown
    /// superset of nodes may hold clean copies; a write must broadcast.
    SharedOverflow,
    /// Exactly one cache holds a modified copy; memory is stale.
    Dirty(NodeId),
}

/// What the directory did in response to a request (used by the memory
/// system to charge latencies and update remote caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirOutcome {
    /// State the line was in when the request arrived.
    pub prev: DirState,
    /// Caches that must be invalidated (write requests only).
    pub invalidate: NodeSet,
    /// Cache that must supply the data and be downgraded (dirty-remote reads)
    /// or invalidated (dirty-remote writes).
    pub dirty_owner: Option<NodeId>,
}

/// The machine-wide directory (one logical map; entries are homed by page).
///
/// Storage is a struct-of-arrays arena: the layout allocates shared pages
/// contiguously from address zero, so line numbers are dense and the
/// pre-sized `dense` vector resolves a lookup with one indexed load — no
/// hashing, no probing — on the dispatch hot path. Lines beyond the
/// pre-sized range (possible only for addresses outside the declared
/// layout, e.g. hand-written litmus programs) spill to a hash map with
/// identical semantics.
#[derive(Debug, Default)]
pub struct Directory {
    /// State of line `i` at index `i`, for lines below the pre-sized bound.
    dense: Vec<DirState>,
    /// Sparse fallback for lines past the dense range.
    spill: FxHashMap<LineAddr, DirState>,
    kind: DirectoryKind,
    /// Total nodes (needed to build broadcast invalidation sets).
    nodes: usize,
    /// Writes that had to broadcast because of pointer overflow.
    broadcasts: u64,
    /// Count of non-[`DirState::Uncached`] entries, maintained on every
    /// transition so telemetry never walks the arena.
    tracked: usize,
}

dashlat_sim::clone_fields!(Directory {
    dense,
    spill,
    kind,
    nodes,
    broadcasts,
    tracked
});

impl Directory {
    /// Creates an empty full-map directory (all lines `Uncached`).
    /// Prefer [`Directory::with_kind_sized`] when the node count matters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a directory of the given organisation for `nodes` nodes,
    /// pre-sizing the dense line arena for `lines` tracked lines
    /// (typically the machine layout's shared-segment line count) so every
    /// lookup in the sweep's steady state is a single indexed load.
    ///
    /// # Panics
    ///
    /// Panics for a limited-pointer directory with zero pointers.
    pub fn with_kind_sized(kind: DirectoryKind, nodes: usize, lines: usize) -> Self {
        if let DirectoryKind::LimitedPtr { pointers } = kind {
            assert!(pointers > 0, "Dir_i-B needs at least one pointer");
        }
        Directory {
            dense: vec![DirState::Uncached; lines],
            spill: FxHashMap::default(),
            kind,
            nodes,
            broadcasts: 0,
            tracked: 0,
        }
    }

    /// Writes that degraded to broadcast invalidation (telemetry).
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts
    }

    /// The set every node belongs to (broadcast target), minus `except`.
    fn all_but(&self, except: NodeId) -> NodeSet {
        let mut s = NodeSet::EMPTY;
        for n in 0..self.nodes.max(1) {
            if n != except.0 {
                s.insert(NodeId(n));
            }
        }
        s
    }

    /// Current state of a line.
    #[inline]
    pub fn state(&self, line: LineAddr) -> DirState {
        match self.dense.get(line.0 as usize) {
            Some(&s) => s,
            None => self.spill.get(&line).copied().unwrap_or_default(),
        }
    }

    /// Stores `next` for a line whose previous state was `prev`, keeping
    /// the tracked-entry count in lockstep.
    #[inline]
    fn put(&mut self, line: LineAddr, prev: DirState, next: DirState) {
        if prev == next {
            return;
        }
        self.tracked = self.tracked + usize::from(next != DirState::Uncached)
            - usize::from(prev != DirState::Uncached);
        match self.dense.get_mut(line.0 as usize) {
            Some(slot) => *slot = next,
            None => {
                if next == DirState::Uncached {
                    self.spill.remove(&line);
                } else {
                    self.spill.insert(line, next);
                }
            }
        }
    }

    /// Handles a read request from `node`: the line becomes shared by
    /// `node` (plus the previous owner if it was dirty, which supplies the
    /// data and keeps a clean copy — "sharing writeback").
    pub fn read(&mut self, line: LineAddr, node: NodeId) -> DirOutcome {
        let prev = self.state(line);
        let (next, dirty_owner) = match prev {
            DirState::Uncached => (DirState::Shared(NodeSet::singleton(node)), None),
            DirState::Shared(mut set) => {
                set.insert(node);
                (self.clamp_shared(set), None)
            }
            DirState::SharedOverflow => (DirState::SharedOverflow, None),
            DirState::Dirty(owner) if owner == node => {
                // The owner re-reading its own line; directory unchanged.
                (prev, None)
            }
            DirState::Dirty(owner) => {
                let mut set = NodeSet::singleton(node);
                set.insert(owner);
                (self.clamp_shared(set), Some(owner))
            }
        };
        self.put(line, prev, next);
        DirOutcome {
            prev,
            invalidate: NodeSet::EMPTY,
            dirty_owner,
        }
    }

    /// Handles a read request from `node` under the *lazy sharing
    /// write-back* protocol variant: a remotely dirty line stays dirty at
    /// its owner (no sharing write-back, no downgrade) — the owner just
    /// forwards the data and the reader caches nothing. All other states
    /// behave exactly like [`Directory::read`].
    pub fn read_lazy(&mut self, line: LineAddr, node: NodeId) -> DirOutcome {
        let prev = self.state(line);
        if let DirState::Dirty(owner) = prev {
            if owner != node {
                // Entry unchanged: the owner keeps exclusive ownership.
                return DirOutcome {
                    prev,
                    invalidate: NodeSet::EMPTY,
                    dirty_owner: Some(owner),
                };
            }
        }
        self.read(line, node)
    }

    /// Applies the pointer limit: a sharer set that no longer fits the
    /// entry degrades to the overflow state.
    fn clamp_shared(&self, set: NodeSet) -> DirState {
        match self.kind {
            DirectoryKind::FullMap => DirState::Shared(set),
            DirectoryKind::LimitedPtr { pointers } => {
                if set.len() <= pointers {
                    DirState::Shared(set)
                } else {
                    DirState::SharedOverflow
                }
            }
        }
    }

    /// Handles a write (ownership) request from `node`: all other copies are
    /// invalidated and the line becomes dirty at `node`.
    pub fn write(&mut self, line: LineAddr, node: NodeId) -> DirOutcome {
        let prev = self.state(line);
        let (invalidate, dirty_owner) = match prev {
            DirState::Uncached => (NodeSet::EMPTY, None),
            DirState::Shared(set) => (set.without(NodeSet::singleton(node)), None),
            DirState::SharedOverflow => {
                // The pointers were lost: broadcast to everyone else.
                self.broadcasts += 1;
                (self.all_but(node), None)
            }
            DirState::Dirty(owner) if owner == node => (NodeSet::EMPTY, None),
            DirState::Dirty(owner) => (NodeSet::EMPTY, Some(owner)),
        };
        self.put(line, prev, DirState::Dirty(node));
        DirOutcome {
            prev,
            invalidate,
            dirty_owner,
        }
    }

    /// A cache evicted a clean copy of `line`; remove it from the sharer set.
    pub fn evict_clean(&mut self, line: LineAddr, node: NodeId) {
        let prev = self.state(line);
        if let DirState::Shared(mut set) = prev {
            set.remove(node);
            let next = if set.is_empty() {
                DirState::Uncached
            } else {
                DirState::Shared(set)
            };
            self.put(line, prev, next);
        }
        // Overflow entries have no pointers to prune: the eviction is
        // silent, exactly the information loss Dir_i-B pays for.
    }

    /// A cache wrote back and dropped its dirty copy of `line`.
    ///
    /// No-op unless the directory indeed believed `node` owned the line
    /// (a race-free model keeps these in lockstep, but eviction and
    /// invalidation can cross in simplified orderings).
    pub fn writeback(&mut self, line: LineAddr, node: NodeId) {
        let prev = self.state(line);
        if prev == DirState::Dirty(node) {
            self.put(line, prev, DirState::Uncached);
        }
    }

    /// Number of lines with a non-`Uncached` entry (for tests/telemetry).
    pub fn tracked_lines(&self) -> usize {
        self.tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr(42);
    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);

    #[test]
    fn read_from_uncached() {
        let mut d = Directory::new();
        let out = d.read(L, N0);
        assert_eq!(out.prev, DirState::Uncached);
        assert_eq!(out.dirty_owner, None);
        assert_eq!(d.state(L), DirState::Shared(NodeSet::singleton(N0)));
    }

    #[test]
    fn multiple_readers_accumulate() {
        let mut d = Directory::new();
        d.read(L, N0);
        d.read(L, N1);
        match d.state(L) {
            DirState::Shared(set) => {
                assert!(set.contains(N0) && set.contains(N1));
                assert_eq!(set.len(), 2);
            }
            s => panic!("unexpected state {s:?}"),
        }
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = Directory::new();
        d.read(L, N0);
        d.read(L, N1);
        d.read(L, N2);
        let out = d.write(L, N1);
        assert_eq!(out.invalidate.len(), 2);
        assert!(out.invalidate.contains(N0) && out.invalidate.contains(N2));
        assert!(!out.invalidate.contains(N1));
        assert_eq!(d.state(L), DirState::Dirty(N1));
    }

    #[test]
    fn read_of_dirty_line_downgrades_owner() {
        let mut d = Directory::new();
        d.write(L, N0);
        let out = d.read(L, N1);
        assert_eq!(out.dirty_owner, Some(N0));
        match d.state(L) {
            DirState::Shared(set) => {
                assert!(set.contains(N0) && set.contains(N1));
            }
            s => panic!("unexpected state {s:?}"),
        }
    }

    #[test]
    fn owner_rereading_does_not_change_state() {
        let mut d = Directory::new();
        d.write(L, N0);
        let out = d.read(L, N0);
        assert_eq!(out.dirty_owner, None);
        assert_eq!(d.state(L), DirState::Dirty(N0));
    }

    #[test]
    fn write_to_dirty_remote_transfers_ownership() {
        let mut d = Directory::new();
        d.write(L, N0);
        let out = d.write(L, N1);
        assert_eq!(out.dirty_owner, Some(N0));
        assert!(out.invalidate.is_empty());
        assert_eq!(d.state(L), DirState::Dirty(N1));
    }

    #[test]
    fn rewrite_by_owner_is_silent() {
        let mut d = Directory::new();
        d.write(L, N0);
        let out = d.write(L, N0);
        assert!(out.invalidate.is_empty());
        assert_eq!(out.dirty_owner, None);
        assert_eq!(d.state(L), DirState::Dirty(N0));
    }

    #[test]
    fn clean_eviction_prunes_sharers() {
        let mut d = Directory::new();
        d.read(L, N0);
        d.read(L, N1);
        d.evict_clean(L, N0);
        assert_eq!(d.state(L), DirState::Shared(NodeSet::singleton(N1)));
        d.evict_clean(L, N1);
        assert_eq!(d.state(L), DirState::Uncached);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn writeback_clears_dirty_owner() {
        let mut d = Directory::new();
        d.write(L, N0);
        d.writeback(L, N0);
        assert_eq!(d.state(L), DirState::Uncached);
        // Stale writeback from a non-owner is ignored.
        d.write(L, N1);
        d.writeback(L, N0);
        assert_eq!(d.state(L), DirState::Dirty(N1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Read(usize),
        Write(usize),
        EvictClean(usize),
        Writeback(usize),
    }

    fn op_strategy(nodes: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..nodes).prop_map(Op::Read),
            (0..nodes).prop_map(Op::Write),
            (0..nodes).prop_map(Op::EvictClean),
            (0..nodes).prop_map(Op::Writeback),
        ]
    }

    proptest! {
        /// The dense pre-sized arena and the spill hash map are
        /// observationally equivalent: the same operation sequence applied
        /// to a directory whose line fits the arena and to one where it
        /// spills produces identical outcomes, states, and telemetry.
        #[test]
        fn dense_arena_matches_spill_map(
            ops in proptest::collection::vec(op_strategy(4), 1..200),
            line in 0u64..64,
        ) {
            let mut dense = Directory::with_kind_sized(DirectoryKind::FullMap, 4, 64);
            let mut spill = Directory::with_kind_sized(DirectoryKind::FullMap, 4, 0);
            let l = LineAddr(line);
            for op in ops {
                let (a, b) = match op {
                    Op::Read(n) => (dense.read(l, NodeId(n)), spill.read(l, NodeId(n))),
                    Op::Write(n) => (dense.write(l, NodeId(n)), spill.write(l, NodeId(n))),
                    Op::EvictClean(n) => {
                        dense.evict_clean(l, NodeId(n));
                        spill.evict_clean(l, NodeId(n));
                        continue;
                    }
                    Op::Writeback(n) => {
                        dense.writeback(l, NodeId(n));
                        spill.writeback(l, NodeId(n));
                        continue;
                    }
                };
                prop_assert_eq!(a, b);
                prop_assert_eq!(dense.state(l), spill.state(l));
                prop_assert_eq!(dense.tracked_lines(), spill.tracked_lines());
            }
        }

        /// Directory invariants under arbitrary operation sequences:
        /// a Dirty line never coexists with sharers, writes always end with
        /// the writer as owner, and invalidation sets never include the
        /// requester.
        #[test]
        fn directory_invariants(ops in proptest::collection::vec(op_strategy(4), 1..200)) {
            let mut d = Directory::new();
            let line = LineAddr(9);
            for op in ops {
                match op {
                    Op::Read(n) => {
                        let out = d.read(line, NodeId(n));
                        prop_assert!(out.invalidate.is_empty());
                        match d.state(line) {
                            DirState::Shared(set) => prop_assert!(set.contains(NodeId(n))),
                            DirState::SharedOverflow => {} // pointers lost
                            DirState::Dirty(owner) => prop_assert_eq!(owner, NodeId(n)),
                            DirState::Uncached => prop_assert!(false, "read left line uncached"),
                        }
                    }
                    Op::Write(n) => {
                        let out = d.write(line, NodeId(n));
                        prop_assert!(!out.invalidate.contains(NodeId(n)));
                        prop_assert_eq!(d.state(line), DirState::Dirty(NodeId(n)));
                    }
                    Op::EvictClean(n) => d.evict_clean(line, NodeId(n)),
                    Op::Writeback(n) => d.writeback(line, NodeId(n)),
                }
                // Shared sets are never empty (normalised to Uncached).
                if let DirState::Shared(set) = d.state(line) {
                    prop_assert!(!set.is_empty());
                }
            }
        }
    }
}
