#![deny(missing_docs)]

//! Benchmark workloads for the `dash-latency` simulator.
//!
//! The paper evaluates three applications representative of an engineering
//! computing environment (§2.2), which this crate re-implements as
//! execution-driven reference generators (see the `dashlat-cpu`
//! [`Workload`](dashlat_cpu::ops::Workload) trait):
//!
//! * [`mp3d`] — a 3-D particle-based wind-tunnel simulator (rarefied flow),
//!   parallelized by statically dividing particles among processes, with
//!   per-step barriers. Per-node particle allocation, round-robin space
//!   cells.
//! * [`lu`] — dense LU decomposition with interleaved column assignment,
//!   node-local column storage and column-ready pipelining through locks.
//! * [`pthor`] — a Chandy–Misra-style parallel logic simulator with
//!   per-process task queues, lock-protected scheduling and busy-wait
//!   spinning on empty queues (which shows up as busy time, as in the
//!   paper).
//! * [`synthetic`] — a strided microworkload used by tests and the
//!   prefetch-distance example.
//! * [`circuit`] — deterministic netlist generator (the "small RISC
//!   processor" equivalent) for PTHOR.
//!
//! Every workload takes a `*Params` struct with `paper()` (the data-set
//! sizes of Table 2) and `test_scale()` (small, CI-friendly) constructors,
//! a machine [`Topology`](dashlat_cpu::ops::Topology), and allocates its
//! shared data through an
//! [`AddressSpaceBuilder`](dashlat_mem::layout::AddressSpaceBuilder) so the
//! memory system knows every structure's home node.

pub mod circuit;
pub mod lu;
pub mod mp3d;
pub mod pthor;
pub mod synthetic;

pub use circuit::{Circuit, CircuitParams};
pub use lu::{Lu, LuParams};
pub use mp3d::{Mp3d, Mp3dParams};
pub use pthor::{Pthor, PthorParams};
pub use synthetic::StrideSweep;
