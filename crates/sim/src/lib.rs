#![deny(missing_docs)]

//! Deterministic event-driven simulation kernel for the `dash-latency` simulator.
//!
//! This crate provides the small, dependency-free foundations that every other
//! crate in the workspace builds on:
//!
//! * [`time::Cycle`] — the simulated clock (1 pclock = 30 ns in the paper's
//!   DASH-like machine).
//! * [`queue::EventQueue`] — a deterministic priority queue of timestamped
//!   events. Ties are broken by insertion order so that a simulation run is a
//!   pure function of its inputs.
//! * [`rng::Xorshift`] — a tiny seedable PRNG used by the workloads so that
//!   reference streams are reproducible across runs and platforms.
//! * [`stats`] — counters, histograms and run-length trackers used for the
//!   execution-time breakdowns reported in the paper's figures.
//! * [`hasher`] — a deterministic FxHash-style hasher for the hot-path
//!   maps (directory entries, MSHR tracking) where the default SipHash
//!   costs more than it protects.
//! * [`fault`] — deterministic, seeded fault injection (directory NACKs
//!   with exponential backoff, delayed packets, transient buffer-full
//!   events) used to harden experiments against protocol perturbation.
//! * [`faultfs`] — the same idea for the host: one seeded fault plan over
//!   the journal's writes, fsyncs and renames (EIO, ENOSPC, short
//!   writes), worker kills, crash points and a planted torn publish,
//!   backing the crash tests and the service torture harness in
//!   `dashlat-serve`.
//! * [`journal`] — crash-safe file primitives (atomic whole-file writes,
//!   an fsync'd append-only line journal) backing the resumable sweep
//!   supervisor in `dashlat`.
//! * [`json`] — a minimal JSON parser and string escaper for the journal
//!   records and repro bundles (the workspace has no serde).
//! * [`vclock`] — vector clocks and FastTrack-style epochs, the ordering
//!   machinery behind the happens-before race detector in
//!   `dashlat-analyze`.
//! * [`sched`] — the scheduler decision-point abstraction that lets the
//!   memory-model verifier in `dashlat-verify` enumerate every tie-order
//!   of same-cycle events instead of the single deterministic one.
//! * [`clone_fields!`] — the one `Clone` of every machine-state type that
//!   a recycled machine copies into storage it already holds.
//!
//! # Example
//!
//! ```
//! use dashlat_sim::queue::EventQueue;
//! use dashlat_sim::time::Cycle;
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(Cycle(10), "late");
//! q.schedule(Cycle(5), "early");
//! q.schedule(Cycle(5), "early-second");
//!
//! assert_eq!(q.pop(), Some((Cycle(5), "early")));
//! assert_eq!(q.pop(), Some((Cycle(5), "early-second")));
//! assert_eq!(q.pop(), Some((Cycle(10), "late")));
//! assert_eq!(q.pop(), None);
//! ```

pub mod fault;
pub mod faultfs;
pub mod hasher;
pub mod journal;
pub mod json;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;
pub mod vclock;

pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use faultfs::{FaultFsPlan, FaultFsStats};
pub use hasher::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use queue::{EventQueue, QueueHints};
pub use rng::Xorshift;
pub use sched::{FifoScheduler, Footprint, ReplayScheduler, SchedAlt, Scheduler};
pub use time::Cycle;
pub use vclock::{Epoch, VectorClock};

/// Implements `Clone` for a struct from its field list: `clone` clones
/// every field, and `clone_from` calls every field's own `clone_from`, so
/// a copy into a value that has run keeps the storage it grew (a derived
/// `Clone` never forwards `clone_from` to fields). Both destructure
/// `Self` with the list and no `..`, so a field left off the list does
/// not compile. A generic type takes its impl bounds first, in brackets.
///
/// ```
/// struct Table<T> { rows: Vec<T>, width: usize }
/// dashlat_sim::clone_fields!([T: Clone] Table<T> { rows, width });
///
/// let mut grown = Table { rows: vec![0u64; 64], width: 64 };
/// let storage = grown.rows.as_ptr();
/// grown.clone_from(&Table { rows: vec![1, 2], width: 2 });
/// assert_eq!((&grown.rows[..], grown.width), (&[1, 2][..], 2));
/// assert_eq!(grown.rows.as_ptr(), storage);
/// ```
///
/// The same list without `width` does not compile:
///
/// ```compile_fail
/// struct Table<T> { rows: Vec<T>, width: usize }
/// dashlat_sim::clone_fields!([T: Clone] Table<T> { rows });
/// ```
#[macro_export]
macro_rules! clone_fields {
    ([$($bounds:tt)*] $ty:ty { $($field:ident),+ $(,)? }) => {
        impl<$($bounds)*> ::core::clone::Clone for $ty {
            fn clone(&self) -> Self {
                let Self { $($field),+ } = self;
                Self { $($field: ::core::clone::Clone::clone($field)),+ }
            }

            fn clone_from(&mut self, source: &Self) {
                let Self { $($field),+ } = self;
                $(::core::clone::Clone::clone_from($field, &source.$field);)+
            }
        }
    };
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        $crate::clone_fields!([] $ty { $($field),+ });
    };
}
