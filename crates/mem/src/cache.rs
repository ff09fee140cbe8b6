//! Direct-mapped cache model.
//!
//! Both cache levels in the paper's machine are direct-mapped with 16-byte
//! lines: a 64 KB write-through primary and a 256 KB write-back secondary
//! (scaled to 2 KB / 4 KB for the experiments, §2.3). The model tracks tags
//! and coherence states only — data values live in the workloads' logical
//! state, so the cache answers "would this access hit, and in what state?".

use crate::addr::{LineAddr, LINE_BYTES};

/// Coherence state of a cached line.
///
/// The protocol is an invalidating ownership protocol: a line is either
/// `Shared` (clean, possibly cached elsewhere) or `Dirty` (exclusively owned
/// and modified; memory is stale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Clean copy; other caches may hold the line too.
    Shared,
    /// Exclusively owned, modified copy.
    Dirty,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: LineAddr,
    state: LineState,
}

/// What `fill` evicted, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// The set was empty or held the same line.
    None,
    /// A clean line was displaced (no write-back needed).
    Clean(LineAddr),
    /// A dirty line was displaced and must be written back.
    Dirty(LineAddr),
}

/// A direct-mapped cache with 16-byte lines.
///
/// # Example
///
/// ```
/// use dashlat_mem::addr::LineAddr;
/// use dashlat_mem::cache::{Cache, Eviction, LineState};
///
/// let mut c = Cache::new(2048); // the scaled 2 KB primary: 128 lines
/// assert_eq!(c.probe(LineAddr(7)), None);
/// c.fill(LineAddr(7), LineState::Shared);
/// assert_eq!(c.probe(LineAddr(7)), Some(LineState::Shared));
/// // A different line mapping to the same set displaces it:
/// assert_eq!(c.fill(LineAddr(7 + 128), LineState::Dirty), Eviction::Clean(LineAddr(7)));
/// ```
#[derive(Debug)]
pub struct Cache {
    sets: Vec<Option<Slot>>,
    /// `sets.len() - 1` when the set count is a power of two (the common
    /// geometry), letting `set_of` mask instead of divide on the hot path;
    /// `usize::MAX` otherwise.
    mask: usize,
}

dashlat_sim::clone_fields!(Cache { sets, mask });

impl Cache {
    /// Creates a cache of `capacity_bytes` (must be a positive multiple of
    /// the 16-byte line size; direct-mapped, one line per set).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero or not line-aligned.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(
            capacity_bytes > 0 && capacity_bytes.is_multiple_of(LINE_BYTES),
            "capacity must be a positive multiple of {LINE_BYTES} bytes"
        );
        let lines = (capacity_bytes / LINE_BYTES) as usize;
        let mask = if lines.is_power_of_two() {
            lines - 1
        } else {
            usize::MAX
        };
        Cache {
            sets: vec![None; lines],
            mask,
        }
    }

    /// Number of lines (= sets, direct-mapped).
    pub fn lines(&self) -> usize {
        self.sets.len()
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets.len() as u64 * LINE_BYTES
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        if self.mask != usize::MAX {
            (line.0 as usize) & self.mask
        } else {
            (line.0 as usize) % self.sets.len()
        }
    }

    /// Returns the state of `line` if present.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> Option<LineState> {
        let slot = self.sets[self.set_of(line)]?;
        (slot.tag == line).then_some(slot.state)
    }

    /// Installs `line` in `state`, returning what was displaced.
    ///
    /// Filling a line that is already present just updates its state (e.g.
    /// Shared → Dirty on an ownership upgrade) and reports
    /// [`Eviction::None`].
    #[inline]
    pub fn fill(&mut self, line: LineAddr, state: LineState) -> Eviction {
        let idx = self.set_of(line);
        let evicted = match self.sets[idx] {
            Some(slot) if slot.tag == line => Eviction::None,
            Some(slot) => match slot.state {
                LineState::Dirty => Eviction::Dirty(slot.tag),
                LineState::Shared => Eviction::Clean(slot.tag),
            },
            None => Eviction::None,
        };
        self.sets[idx] = Some(Slot { tag: line, state });
        evicted
    }

    /// Invalidates `line`; returns its prior state if it was present.
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        let idx = self.set_of(line);
        match self.sets[idx] {
            Some(slot) if slot.tag == line => {
                self.sets[idx] = None;
                Some(slot.state)
            }
            _ => None,
        }
    }

    /// Downgrades a dirty line to shared (another node read it); no-op when
    /// the line is absent or already shared.
    #[inline]
    pub fn downgrade(&mut self, line: LineAddr) {
        let idx = self.set_of(line);
        if let Some(slot) = &mut self.sets[idx] {
            if slot.tag == line {
                slot.state = LineState::Shared;
            }
        }
    }

    /// Upgrades a present line to dirty (ownership acquired).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is absent — ownership upgrades are
    /// only meaningful for resident lines.
    #[inline]
    pub fn upgrade(&mut self, line: LineAddr) {
        let idx = self.set_of(line);
        match &mut self.sets[idx] {
            Some(slot) if slot.tag == line => slot.state = LineState::Dirty,
            _ => debug_assert!(false, "upgrade of non-resident {line}"),
        }
    }

    /// Empties the cache (used between experiment phases in tests).
    pub fn clear(&mut self) {
        for s in &mut self.sets {
            *s = None;
        }
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().filter(|s| s.is_some()).count()
    }

    /// Iterates over resident lines (for writeback-all style maintenance).
    pub fn resident(&self) -> impl Iterator<Item = (LineAddr, LineState)> + '_ {
        self.sets.iter().flatten().map(|s| (s.tag, s.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(4 * LINE_BYTES) // 4 lines
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.probe(LineAddr(1)), None);
        assert_eq!(c.fill(LineAddr(1), LineState::Shared), Eviction::None);
        assert_eq!(c.probe(LineAddr(1)), Some(LineState::Shared));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn conflict_evicts() {
        let mut c = small();
        c.fill(LineAddr(2), LineState::Shared);
        // line 6 maps to the same set in a 4-line cache
        assert_eq!(
            c.fill(LineAddr(6), LineState::Shared),
            Eviction::Clean(LineAddr(2))
        );
        assert_eq!(c.probe(LineAddr(2)), None);
        assert_eq!(c.probe(LineAddr(6)), Some(LineState::Shared));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.fill(LineAddr(3), LineState::Dirty);
        assert_eq!(
            c.fill(LineAddr(7), LineState::Shared),
            Eviction::Dirty(LineAddr(3))
        );
    }

    #[test]
    fn refill_same_line_updates_state() {
        let mut c = small();
        c.fill(LineAddr(5), LineState::Shared);
        assert_eq!(c.fill(LineAddr(5), LineState::Dirty), Eviction::None);
        assert_eq!(c.probe(LineAddr(5)), Some(LineState::Dirty));
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Dirty);
        c.downgrade(LineAddr(0));
        assert_eq!(c.probe(LineAddr(0)), Some(LineState::Shared));
        assert_eq!(c.invalidate(LineAddr(0)), Some(LineState::Shared));
        assert_eq!(c.probe(LineAddr(0)), None);
        assert_eq!(c.invalidate(LineAddr(0)), None);
        // Downgrading / invalidating the wrong tag in an occupied set is a no-op.
        c.fill(LineAddr(1), LineState::Dirty);
        c.downgrade(LineAddr(5));
        assert_eq!(c.probe(LineAddr(1)), Some(LineState::Dirty));
        assert_eq!(c.invalidate(LineAddr(5)), None);
    }

    #[test]
    fn upgrade_marks_dirty() {
        let mut c = small();
        c.fill(LineAddr(2), LineState::Shared);
        c.upgrade(LineAddr(2));
        assert_eq!(c.probe(LineAddr(2)), Some(LineState::Dirty));
    }

    #[test]
    fn clear_empties() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Shared);
        c.fill(LineAddr(1), LineState::Dirty);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.probe(LineAddr(0)), None);
    }

    #[test]
    fn geometry() {
        let c = Cache::new(2048);
        assert_eq!(c.lines(), 128);
        assert_eq!(c.capacity_bytes(), 2048);
    }

    #[test]
    #[should_panic(expected = "positive multiple")]
    fn rejects_unaligned_capacity() {
        let _ = Cache::new(100);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// After any sequence of fills/invalidates, a probe hit implies the
        /// line was filled more recently than it was evicted/invalidated,
        /// and occupancy never exceeds the set count.
        #[test]
        fn cache_agrees_with_reference_model(
            ops in proptest::collection::vec((0u64..64, any::<bool>(), any::<bool>()), 1..200)
        ) {
            let mut c = Cache::new(8 * LINE_BYTES);
            // Reference: map set index -> Option<(line, dirty)>
            let mut reference: Vec<Option<(u64, bool)>> = vec![None; 8];
            for (line, dirty, invalidate) in ops {
                let set = (line % 8) as usize;
                if invalidate {
                    let expected = match reference[set] {
                        Some((l, d)) if l == line => {
                            reference[set] = None;
                            Some(if d { LineState::Dirty } else { LineState::Shared })
                        }
                        _ => None,
                    };
                    prop_assert_eq!(c.invalidate(LineAddr(line)), expected);
                } else {
                    let state = if dirty { LineState::Dirty } else { LineState::Shared };
                    let expected = match reference[set] {
                        Some((l, _)) if l == line => Eviction::None,
                        Some((l, d)) => if d { Eviction::Dirty(LineAddr(l)) } else { Eviction::Clean(LineAddr(l)) },
                        None => Eviction::None,
                    };
                    prop_assert_eq!(c.fill(LineAddr(line), state), expected);
                    reference[set] = Some((line, dirty));
                }
                prop_assert!(c.occupancy() <= 8);
            }
            // Final state agreement.
            for set in 0..8u64 {
                match reference[set as usize] {
                    Some((l, d)) => {
                        let st = if d { LineState::Dirty } else { LineState::Shared };
                        prop_assert_eq!(c.probe(LineAddr(l)), Some(st));
                    }
                    None => {
                        // every line mapping here must miss
                        prop_assert_eq!(c.probe(LineAddr(set)), None);
                    }
                }
            }
        }
    }
}
