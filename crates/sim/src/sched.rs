//! Scheduler decision points — making event-queue nondeterminism enumerable.
//!
//! The simulator is deterministic: [`crate::queue::EventQueue`] breaks
//! timestamp ties by insertion order, so a run is a pure function of its
//! inputs. That is exactly right for the paper's sweeps, but it means each
//! configuration explores *one* interleaving of the (semantically
//! concurrent) events that share a timestamp. The memory-model verifier in
//! `dashlat-verify` needs the opposite: it must enumerate *every*
//! tie-ordering of same-cycle events, because under the uniform-latency
//! verification configuration those ties carry all of the machine's
//! scheduling nondeterminism (which processor's step commits its access
//! first, whether a write buffer drains before or after a racing read, ...).
//!
//! This module defines the seam. The machine in `dashlat-cpu`, when given a
//! [`Scheduler`], describes every event ready at the current cycle as a
//! slate of [`SchedAlt`] descriptors and asks the scheduler which one to
//! execute next; the rest stay on the slate, ahead of any events scheduled
//! into the same cycle later. Without a scheduler attached, the machine
//! keeps its plain batched dispatch — zero cost, bit-identical behaviour to
//! before this seam existed.
//!
//! The descriptors expose just enough static information (acting processor
//! and touched cache line, when known) for a partial-order-reduction
//! explorer to compute an *independence* relation between alternatives:
//! two alternatives commute when they belong to different processors and
//! touch disjoint cache lines and neither is a synchronization operation.
//! Anything the machine cannot describe precisely is marked
//! [`Footprint::Unknown`] and treated as dependent with everything, which
//! is conservative (never unsound, merely less reduced).

use crate::time::Cycle;
use std::fmt;

/// Static description of what one schedulable event will touch, used by
/// partial-order reduction to decide whether two alternatives commute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Footprint {
    /// The event provably performs no shared-memory access (a pure
    /// bookkeeping step: context wake-up, barrier arithmetic, ...).
    None,
    /// The event accesses exactly this cache line (by line number).
    Line(u64),
    /// The event performs a synchronization operation (lock, barrier);
    /// conservatively dependent with every other sync or unknown event.
    Sync,
    /// The machine cannot bound what the event touches; treated as
    /// dependent with everything.
    Unknown,
}

impl Footprint {
    /// True when two footprints provably commute (disjoint memory effects).
    ///
    /// `None` commutes with everything; two distinct `Line`s commute;
    /// `Sync` and `Unknown` commute with nothing except `None`.
    #[must_use]
    pub fn independent(self, other: Footprint) -> bool {
        match (self, other) {
            (Footprint::None, _) | (_, Footprint::None) => true,
            (Footprint::Line(a), Footprint::Line(b)) => a != b,
            _ => false,
        }
    }
}

/// One schedulable alternative at a decision point: an event ready to run
/// at the current cycle, described abstractly for the explorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedAlt {
    /// Index of the processor this event belongs to (drives per-processor
    /// independence: same-processor events never commute, program order
    /// must be preserved).
    pub pid: usize,
    /// What the event will touch if executed now.
    pub footprint: Footprint,
    /// Short machine-readable tag for traces ("step", "wb", "fill", ...).
    pub tag: &'static str,
}

impl SchedAlt {
    /// True when executing `self` and `other` in either order provably
    /// reaches the same state: different processors *and* disjoint
    /// footprints.
    #[must_use]
    pub fn independent(&self, other: &SchedAlt) -> bool {
        self.pid != other.pid && self.footprint.independent(other.footprint)
    }
}

impl fmt::Display for SchedAlt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}:{}", self.pid, self.tag)?;
        match self.footprint {
            Footprint::None => Ok(()),
            Footprint::Line(l) => write!(f, "@line#{l}"),
            Footprint::Sync => write!(f, "@sync"),
            Footprint::Unknown => write!(f, "@?"),
        }
    }
}

/// A scheduling policy over same-cycle event ties.
///
/// The machine calls [`Scheduler::choose`] whenever more than one event is
/// ready at the minimum timestamp (and also for singleton slates, so a
/// replay scheduler sees every decision point with a stable numbering).
/// The return value indexes into `alts`; out-of-range choices are a
/// contract violation and the machine panics.
pub trait Scheduler {
    /// Picks which of the ready alternatives executes next.
    ///
    /// `now` is the cycle the slate is scheduled at; `alts` is non-empty
    /// and listed in deterministic (insertion) order.
    fn choose(&mut self, now: Cycle, alts: &[SchedAlt]) -> usize;
}

/// The identity policy: always pick the first (oldest-inserted) ready
/// event, reproducing the default deterministic tie-break exactly.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn choose(&mut self, _now: Cycle, _alts: &[SchedAlt]) -> usize {
        0
    }
}

/// Replays a recorded prefix of choices, then lets a sleep set steer the
/// rest of the run. This is the workhorse of the stateless model checker:
/// the explorer re-runs the program from scratch, each time replaying the
/// path to a branch node and taking one untried alternative there, and
/// inspects the slates the machine reported at every decision point (to
/// its observer, not to this scheduler) to find unexplored branches.
///
/// Past the prefix, each decision takes the first slate entry that is not
/// asleep — an asleep alternative leads only to traces an earlier run
/// already covered — and falls back to FIFO (entry 0) only when every
/// entry is asleep. After each choice, the entries dependent with it wake:
/// the rule the explorer uses to give a child node its sleep set. An empty
/// sleep set therefore replays the prefix and then follows FIFO order.
#[derive(Debug, Default, Clone)]
pub struct ReplayScheduler {
    prefix: Vec<usize>,
    cursor: usize,
    /// Alternatives asleep at the next decision past the prefix.
    sleep: Vec<SchedAlt>,
}

impl ReplayScheduler {
    /// A scheduler that follows `prefix`, then FIFO.
    #[must_use]
    pub fn with_prefix(prefix: Vec<usize>) -> Self {
        ReplayScheduler {
            prefix,
            cursor: 0,
            sleep: Vec::new(),
        }
    }

    /// Puts `sleep` to sleep at the first decision past the prefix.
    #[must_use]
    pub fn with_sleep(mut self, sleep: Vec<SchedAlt>) -> Self {
        self.sleep = sleep;
        self
    }
}

impl Scheduler for ReplayScheduler {
    fn choose(&mut self, _now: Cycle, alts: &[SchedAlt]) -> usize {
        let choice = match self.prefix.get(self.cursor) {
            Some(&c) => {
                assert!(
                    c < alts.len(),
                    "replay prefix chose alternative {c} of a {}-wide slate \
                     (the machine is not deterministic under replay)",
                    alts.len()
                );
                c
            }
            None => {
                let c = alts
                    .iter()
                    .position(|a| !self.sleep.contains(a))
                    .unwrap_or(0);
                let chosen = alts[c];
                self.sleep.retain(|s| s.independent(&chosen));
                c
            }
        };
        self.cursor += 1;
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alt(pid: usize, fp: Footprint) -> SchedAlt {
        SchedAlt {
            pid,
            footprint: fp,
            tag: "t",
        }
    }

    #[test]
    fn independence_requires_distinct_pids_and_disjoint_lines() {
        let a = alt(0, Footprint::Line(1));
        let b = alt(1, Footprint::Line(2));
        let c = alt(1, Footprint::Line(1));
        let d = alt(0, Footprint::Line(2));
        assert!(a.independent(&b));
        assert!(!a.independent(&c), "same line is dependent");
        assert!(!a.independent(&d), "same pid is dependent");
    }

    #[test]
    fn unknown_and_sync_are_dependent_with_everything_but_none() {
        let u = alt(0, Footprint::Unknown);
        let s = alt(1, Footprint::Sync);
        let n = alt(2, Footprint::None);
        let l = alt(3, Footprint::Line(7));
        assert!(!u.independent(&s));
        assert!(!u.independent(&l));
        assert!(!s.independent(&l));
        assert!(u.independent(&n));
        assert!(s.independent(&n));
    }

    #[test]
    fn replay_follows_prefix_then_fifo() {
        let slate = vec![alt(0, Footprint::None), alt(1, Footprint::None)];
        let mut s = ReplayScheduler::with_prefix(vec![1]);
        assert_eq!(s.choose(Cycle(0), &slate), 1);
        assert_eq!(s.choose(Cycle(0), &slate), 0, "past prefix: FIFO");
    }

    #[test]
    fn replay_skips_asleep_entries_until_a_dependent_choice_wakes_them() {
        let a = alt(0, Footprint::Line(1));
        let b = alt(1, Footprint::Line(2));
        let c = alt(2, Footprint::Line(1));
        let mut s = ReplayScheduler::with_prefix(vec![]).with_sleep(vec![a]);
        // `a` is asleep: the first awake entry runs instead.
        assert_eq!(s.choose(Cycle(0), &[a, b, c]), 1);
        // `b` is independent of `a`, so `a` sleeps on; `c` touches `a`'s
        // line and is taken.
        assert_eq!(s.choose(Cycle(0), &[a, c]), 1);
        // `c` woke `a`.
        assert_eq!(s.choose(Cycle(0), &[a]), 0);
    }

    #[test]
    fn replay_falls_back_to_fifo_when_every_entry_is_asleep() {
        let a = alt(0, Footprint::Line(1));
        let b = alt(1, Footprint::Line(2));
        let mut s = ReplayScheduler::with_prefix(vec![0]).with_sleep(vec![a, b]);
        assert_eq!(
            s.choose(Cycle(0), &[b, a]),
            0,
            "prefix ignores the sleep set"
        );
        assert_eq!(s.choose(Cycle(0), &[b, a]), 0, "all asleep: FIFO");
    }

    #[test]
    #[should_panic(expected = "replay prefix chose alternative")]
    fn replay_panics_on_out_of_range_choice() {
        let slate = vec![alt(0, Footprint::None)];
        let mut s = ReplayScheduler::with_prefix(vec![3]);
        s.choose(Cycle(0), &slate);
    }
}
