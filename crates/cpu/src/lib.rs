#![deny(missing_docs)]

//! Processor model for the `dash-latency` simulator.
//!
//! This crate provides the processor side of the paper's machine:
//!
//! * [`ops`] — the operation vocabulary ([`ops::Op`]) and the
//!   [`ops::Workload`] trait that execution-driven reference generators
//!   implement, plus the machine [`ops::Topology`].
//! * [`config`] — [`config::ProcConfig`]: consistency model (SC / RC),
//!   hardware context count, switch overhead, buffer depths, prefetch cost.
//! * [`sync`] — logical lock and barrier state (the traffic they generate
//!   goes through the memory system like any other shared line).
//! * [`breakdown`] — the execution-time decomposition the paper's figures
//!   are built from.
//! * [`machine`] — the event-driven executor tying it all together.
//! * [`observe`] — the machine's one observation seam: the
//!   [`observe::Observer`] hooks and the recorders behind them (event log,
//!   timeline, trace recorder, access trace, decision trace).
//! * [`events`] — the analysis-event stream the `dashlat-analyze`
//!   happens-before pass consumes, observed live on the machine (an
//!   [`events::EventLog`] is an observer) or produced by fault-tolerant
//!   logical replay of a serialized trace.
//! * [`extract`] — the sync-respecting logical scheduler (no timing)
//!   behind both trace replay and static program extraction, which drives
//!   a forked workload to obtain its per-process op streams for the
//!   whole-program lint passes.
//!
//! # Example
//!
//! Run a tiny scripted workload on a 2-processor machine:
//!
//! ```
//! use dashlat_cpu::config::ProcConfig;
//! use dashlat_cpu::machine::Machine;
//! use dashlat_cpu::ops::{Op, ProcId, SyncConfig, Topology, Workload};
//! use dashlat_mem::layout::{AddressSpaceBuilder, Placement};
//! use dashlat_mem::system::{MemConfig, MemorySystem};
//!
//! struct TwoReaders { ops: Vec<Vec<Op>>, at: Vec<usize> }
//! impl Workload for TwoReaders {
//!     fn processes(&self) -> usize { 2 }
//!     fn next_op(&mut self, pid: ProcId) -> Op {
//!         let i = self.at[pid.0];
//!         self.at[pid.0] += 1;
//!         self.ops[pid.0].get(i).copied().unwrap_or(Op::Done)
//!     }
//!     fn sync_config(&self) -> SyncConfig { SyncConfig::default() }
//! }
//!
//! let mut space = AddressSpaceBuilder::new(2);
//! let data = space.alloc("data", 4096, Placement::RoundRobin);
//! let mem = MemorySystem::new(MemConfig::dash_scaled(2), space.build());
//! let workload = TwoReaders {
//!     ops: vec![
//!         vec![Op::Compute(10), Op::Read(data.base())],
//!         vec![Op::Compute(5), Op::Read(data.at(64))],
//!     ],
//!     at: vec![0, 0],
//! };
//! let result = Machine::new(ProcConfig::sc_baseline(), Topology::new(2, 1), mem, workload)
//!     .run()
//!     .expect("tiny workload terminates");
//! assert!(result.elapsed.as_u64() > 0);
//! assert_eq!(result.shared_reads, 2);
//! ```

pub mod breakdown;
pub mod config;
pub mod events;
pub mod extract;
pub mod machine;
pub mod observe;
pub mod ops;
pub mod script;
pub mod sync;
pub mod trace;

pub use breakdown::{ScaledBreakdown, TimeBreakdown};
pub use config::{Consistency, ProcConfig};
pub use events::{events_from_trace, AnalysisEvent, EventKind, EventLog, ReplayNote};
pub use extract::{extract_program, ExtractError, Extraction};
pub use machine::{BlockedOn, BlockedOp, Machine, RunError, RunResult, StuckProcess};
pub use observe::{DecisionTrace, Observer, RunTimeline};
pub use ops::{BarrierId, LabeledRange, LockId, Op, ProcId, SyncConfig, Topology, Workload};
pub use sync::SyncState;
pub use trace::{Trace, TraceRecorder};
