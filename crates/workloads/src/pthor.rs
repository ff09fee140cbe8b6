//! PTHOR — parallel distributed-time logic simulator (§2.2).
//!
//! The simulator's primary data structures are the *element records*
//! (gates, flip-flops), the *nets* linking them, and per-process *task
//! queues* of activated elements. Each process loops: take an activated
//! element from one of the task queues (its own, or — when its own is
//! empty — another queue that still has work to spare), compute its output
//! changes, and schedule the newly activated fanout elements onto its local
//! task queue. When a process finds no runnable task it **spins on the
//! queues — time that shows up as busy time**, exactly as the paper notes
//! (§2.2).
//!
//! This implementation is a conservative-synchronous rendition of the
//! Chandy–Misra simulator: propagation within a clock phase is fully
//! event-driven over the per-process queues; phases are separated by
//! barriers (standing in for PTHOR's deadlock-resolution synchronization).
//! What the paper's results hinge on — limited wavefront parallelism that
//! starves 64 processes, lock-protected queue traffic, irregular
//! pointer-linked element records with low write hit rates, spin-as-busy
//! accounting — is preserved.
//!
//! Element records are 128 bytes (8 lines), grouped as the paper describes
//! for prefetching (§5.2): a *modified* group (output value, timestamps), a
//! *read-only* group (type, input pointers), and rarely-referenced overflow
//! lines. Prefetches cover the record groups and the first level of the
//! input lists only — the deeper linked structures are too irregular,
//! which is why the paper could only reach a 56 % coverage factor.

use std::collections::VecDeque;

use dashlat_cpu::ops::{
    BarrierId, LabeledRange, LockId, Op, ProcId, SyncConfig, Topology, Workload,
};
use dashlat_mem::layout::{AddressSpaceBuilder, Placement, Segment};
use dashlat_mem::{Addr, LINE_BYTES};

use crate::circuit::{Circuit, CircuitParams, ElementKind};

/// Bytes per element record (8 cache lines).
const RECORD_BYTES: u64 = 128;
/// Task-queue ring slots per process.
const QUEUE_SLOTS: u64 = 64;

/// PTHOR configuration.
#[derive(Debug, Clone)]
pub struct PthorParams {
    /// The netlist to simulate.
    pub circuit: CircuitParams,
    /// Clock cycles to simulate (the paper runs 5).
    pub clock_cycles: usize,
    /// Probability a primary input toggles at an edge.
    pub input_activity: f64,
    /// Chandy–Misra deadlock-resolution rounds per edge: after quiescence,
    /// the processes rendezvous this many extra times, re-scanning the
    /// queues between barriers. This is what makes PTHOR the paper's most
    /// barrier-heavy application (Table 2: 2016 barrier operations).
    pub resolution_rounds: usize,
}

impl PthorParams {
    /// Paper scale: the ~11,000-gate circuit for 5 clock cycles.
    pub fn paper() -> Self {
        PthorParams {
            circuit: CircuitParams::paper(),
            clock_cycles: 5,
            input_activity: 0.15,
            resolution_rounds: 11,
        }
    }

    /// Small test configuration.
    pub fn test_scale() -> Self {
        PthorParams {
            circuit: CircuitParams::test_scale(),
            clock_cycles: 2,
            input_activity: 0.15,
            resolution_rounds: 3,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    /// Seeding this edge: processing owned source element at `pos`.
    Seed {
        edge: usize,
        pos: usize,
    },
    /// Event propagation for this edge.
    Run {
        edge: usize,
    },
    /// Barrier emitted; decide the next edge afterwards.
    Quiesced {
        edge: usize,
    },
    /// Deadlock-resolution rendezvous `round` after this edge quiesced.
    Resolution {
        edge: usize,
        round: usize,
    },
    Finished,
}

/// The PTHOR workload. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct Pthor {
    params: PthorParams,
    topo: Topology,
    prefetch: bool,
    circuit: Circuit,
    /// Current output value of every element.
    values: Vec<bool>,
    /// Snapshot of `values` taken at the start of each edge, used for
    /// flip-flop latching so all FFs observe the same pre-edge state.
    snapshot: Vec<bool>,
    snapshot_edge: Option<usize>,
    /// Activation dedup: element already sitting in a queue.
    queued: Vec<bool>,
    /// Per-process task queues (logical).
    queues: Vec<VecDeque<u32>>,
    /// Total queued tasks (= Σ queue lengths; termination detection).
    in_queues: usize,
    /// Owned source elements (inputs + FFs) per process.
    owned_sources: Vec<Vec<u32>>,
    /// Element record storage per owner process.
    elem_segs: Vec<Segment>,
    /// Task-queue storage per process (control line + ring).
    queue_segs: Vec<Segment>,
    sync: SyncConfig,
    phase: Vec<Phase>,
    opq: Vec<VecDeque<Op>>,
    /// Gate evaluations performed (telemetry).
    evaluations: u64,
    /// Per-process spin iteration counters (remote-probe backoff).
    spin_rotor: Vec<usize>,
}

impl Pthor {
    /// Builds the workload: generates the netlist and allocates the shared
    /// structures (element records and queues node-local to their owners).
    pub fn new(
        params: PthorParams,
        topo: Topology,
        space: &mut AddressSpaceBuilder,
        prefetch: bool,
    ) -> Self {
        let circuit = Circuit::generate(&params.circuit);
        let n = topo.processes();
        let total = circuit.len();
        // Owned element counts (elements are dealt round-robin by index).
        let counts: Vec<u64> = (0..n).map(|p| ((total + n - 1 - p) / n) as u64).collect();
        let elem_segs: Vec<Segment> = (0..n)
            .map(|p| {
                space.alloc(
                    &format!("pthor-elems-p{p}"),
                    counts[p].max(1) * RECORD_BYTES,
                    Placement::Local(topo.node_of(ProcId(p))),
                )
            })
            .collect();
        // Queue storage: control line + ring slots + the queue's lock line,
        // all node-local to the owning process (as the Argonne macros
        // allocate them).
        let queue_segs: Vec<Segment> = (0..n)
            .map(|p| {
                space.alloc(
                    &format!("pthor-queue-p{p}"),
                    (QUEUE_SLOTS + 2) * LINE_BYTES,
                    Placement::Local(topo.node_of(ProcId(p))),
                )
            })
            .collect();
        let barriers = space.alloc("pthor-barriers", 2 * LINE_BYTES, Placement::RoundRobin);
        // Chandy-Misra PTHOR tolerates two kinds of competing accesses and
        // we label them accordingly: element records are updated by
        // whichever process evaluates the element while fan-out neighbours
        // read them (the algorithm is tolerant of stale element state), and
        // each queue's control line is peeked without the queue lock by
        // spinning owners, stealing neighbours and the resolution scan.
        // Queue *slots* stay ordinary: they are only written by the owner
        // under its own lock and read by thieves under that same lock.
        let mut labeled_ranges: Vec<LabeledRange> = (0..n)
            .map(|p| {
                LabeledRange::new(
                    elem_segs[p].base(),
                    elem_segs[p].len(),
                    "pthor element records (stale-tolerant evaluation)",
                )
            })
            .collect();
        labeled_ranges.extend((0..n).map(|p| {
            LabeledRange::new(
                queue_segs[p].base(),
                LINE_BYTES,
                "pthor queue control line (lock-free peek/spin)",
            )
        }));
        let sync = SyncConfig {
            lock_addrs: (0..n)
                .map(|p| queue_segs[p].at((QUEUE_SLOTS + 1) * LINE_BYTES))
                .collect(),
            barrier_addrs: vec![barriers.at(0), barriers.at(LINE_BYTES)],
            labeled_ranges,
        };
        let owned_sources: Vec<Vec<u32>> = (0..n)
            .map(|p| {
                (0..circuit.first_gate())
                    .filter(|&e| e % n == p)
                    .map(|e| e as u32)
                    .collect()
            })
            .collect();
        // Stabilize the combinational logic for the all-false input state
        // (one topological pass — gate inputs always precede the gate), so
        // the first simulated edge propagates incremental activity instead
        // of a whole-netlist initialization wave.
        let mut values = vec![false; total];
        for (idx, elem) in circuit.elements.iter().enumerate() {
            if let ElementKind::Gate(g) = elem.kind {
                let [a, b] = elem.inputs;
                values[idx] = g.eval(values[a as usize], values[b as usize]);
            }
        }
        Pthor {
            topo,
            prefetch,
            values,
            snapshot: vec![false; total],
            snapshot_edge: None,
            queued: vec![false; total],
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            in_queues: 0,
            owned_sources,
            elem_segs,
            queue_segs,
            sync,
            phase: vec![Phase::Start; n],
            opq: (0..n).map(|_| VecDeque::new()).collect(),
            evaluations: 0,
            spin_rotor: vec![0; n],
            circuit,
            params,
        }
    }

    /// Gate evaluations performed so far (test telemetry).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    fn nproc(&self) -> usize {
        self.topo.processes()
    }

    fn owner(&self, elem: u32) -> usize {
        elem as usize % self.nproc()
    }

    /// Address of `line` (0..8) of an element's record.
    fn record(&self, elem: u32, line: u64) -> Addr {
        let owner = self.owner(elem);
        let slot = elem as usize / self.nproc();
        self.elem_segs[owner].at(slot as u64 * RECORD_BYTES + line * LINE_BYTES)
    }

    /// The queue-control line of process `p` (head/tail pointers).
    fn queue_ctl(&self, p: usize) -> Addr {
        self.queue_segs[p].at(0)
    }

    /// The ring slot line holding queue entry `i` of process `p`.
    fn queue_slot(&self, p: usize, i: u64) -> Addr {
        self.queue_segs[p].at(LINE_BYTES + (i % QUEUE_SLOTS) * LINE_BYTES)
    }

    /// Deterministic per-(edge, input) toggle decision.
    fn input_toggles(&self, edge: usize, input: u32) -> bool {
        // splitmix-style hash of (edge, input) compared against activity.
        let mut z = (edge as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(input).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z ^= z >> 31;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 29;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < self.params.input_activity
    }

    /// Logically enqueues every not-yet-queued fanout gate of `elem` onto
    /// process `p`'s *own* task queue (newly activated elements are
    /// scheduled locally; idle processes find them by looking at other
    /// queues) and emits the push traffic into `ops`.
    fn push_fanout(&mut self, p: usize, from: u32, ops: &mut VecDeque<Op>) {
        // Indexed loop instead of cloning the fanout list: this runs on
        // every value change, and the clone was an allocation per call.
        for fi in 0..self.circuit.elements[from as usize].fanout.len() {
            let f = self.circuit.elements[from as usize].fanout[fi];
            if self.queued[f as usize] {
                continue;
            }
            self.queued[f as usize] = true;
            let tail = self.queues[p].len() as u64;
            self.queues[p].push_back(f);
            self.in_queues += 1;
            ops.push_back(Op::Acquire(LockId(p)));
            ops.push_back(Op::Read(self.queue_ctl(p)));
            ops.push_back(Op::Write(self.queue_slot(p, tail)));
            ops.push_back(Op::Write(self.queue_ctl(p)));
            ops.push_back(Op::Release(LockId(p)));
        }
    }

    /// One seeding step: process one owned source element for this edge.
    fn emit_seed(&mut self, p: usize, edge: usize, pos: usize) {
        // First seeder of the edge snapshots the pre-edge values for
        // flip-flop latching.
        if self.snapshot_edge != Some(edge) {
            self.snapshot.copy_from_slice(&self.values);
            self.snapshot_edge = Some(edge);
        }
        let sources = &self.owned_sources[p];
        if pos >= sources.len() {
            self.phase[p] = Phase::Run { edge };
            return;
        }
        let elem = sources[pos];
        self.phase[p] = Phase::Seed { edge, pos: pos + 1 };
        let rising = edge.is_multiple_of(2);
        let mut ops = std::mem::take(&mut self.opq[p]);
        match self.circuit.elements[elem as usize].kind {
            ElementKind::Input => {
                ops.push_back(Op::Compute(3));
                if self.input_toggles(edge, elem) {
                    let v = !self.values[elem as usize];
                    self.values[elem as usize] = v;
                    ops.push_back(Op::Write(self.record(elem, 0)));
                    self.push_fanout(p, elem, &mut ops);
                }
            }
            ElementKind::FlipFlop => {
                let d = self.circuit.elements[elem as usize].inputs[0];
                ops.push_back(Op::Read(self.record(elem, 3))); // D pointer
                ops.push_back(Op::Read(self.record(d, 0))); // D value
                ops.push_back(Op::Compute(3));
                if rising {
                    let v = self.snapshot[d as usize];
                    if v != self.values[elem as usize] {
                        self.values[elem as usize] = v;
                        ops.push_back(Op::Write(self.record(elem, 0)));
                        self.push_fanout(p, elem, &mut ops);
                    }
                }
            }
            ElementKind::Gate(_) => unreachable!("sources are inputs and FFs"),
        }
        self.opq[p] = ops;
    }

    /// One propagation step: pop a task from the local queue, steal one
    /// from a well-stocked remote queue, spin, or finish the phase.
    fn emit_run(&mut self, p: usize, edge: usize) {
        let n = self.nproc();
        let mut ops = std::mem::take(&mut self.opq[p]);
        let task = if let Some(e) = self.queues[p].pop_front() {
            // Local dequeue: lock own queue, read control + slot, update.
            let head = self.queues[p].len() as u64; // ring position proxy
            ops.push_back(Op::Acquire(LockId(p)));
            ops.push_back(Op::Read(self.queue_ctl(p)));
            ops.push_back(Op::Read(self.queue_slot(p, head)));
            ops.push_back(Op::Write(self.queue_ctl(p)));
            ops.push_back(Op::Release(LockId(p)));
            Some(e)
        } else if let Some(victim) = (1..n)
            .map(|d| (p + d) % n)
            .find(|&v| self.queues[v].len() >= 2)
        {
            // Steal from a queue that still has work to spare (never the
            // last task — it is likely being raced for by its owner).
            let e = self.queues[victim].pop_front().expect("len >= 2");
            let head = self.queues[victim].len() as u64;
            ops.push_back(Op::Read(self.queue_ctl(victim)));
            ops.push_back(Op::Acquire(LockId(victim)));
            ops.push_back(Op::Read(self.queue_ctl(victim)));
            ops.push_back(Op::Read(self.queue_slot(victim, head)));
            ops.push_back(Op::Write(self.queue_ctl(victim)));
            ops.push_back(Op::Release(LockId(victim)));
            Some(e)
        } else {
            None
        };
        let Some(e) = task else {
            if self.in_queues == 0 {
                // Quiescent: this phase is over.
                self.phase[p] = Phase::Quiesced { edge };
            } else {
                // Work exists but only as single tasks on other queues:
                // spin on the *local* (cached) queue control line, probing
                // a rotating remote queue only occasionally — a tight
                // remote-probing loop from dozens of starved processes
                // would saturate the probed node. The spin is busy time,
                // as in the paper.
                let ctl = self.queue_ctl(p);
                self.spin_rotor[p] = self.spin_rotor[p].wrapping_add(1);
                ops.push_back(Op::Read(ctl));
                if n > 1 && self.spin_rotor[p].is_multiple_of(8) {
                    let probe = self.queue_ctl((p + 1 + self.spin_rotor[p] % (n - 1)) % n);
                    ops.push_back(Op::Read(probe));
                }
                ops.push_back(Op::Compute(12));
            }
            self.opq[p] = ops;
            return;
        };
        {
            self.queued[e as usize] = false;
            self.in_queues -= 1;
            self.evaluations += 1;
            let [a, b] = self.circuit.elements[e as usize].inputs;
            // Prefetch the record groups and the first level of the input
            // lists (the paper's 56%-coverage scheme).
            if self.prefetch {
                ops.push_back(Op::Prefetch {
                    addr: self.record(e, 0),
                    exclusive: true,
                });
                ops.push_back(Op::Prefetch {
                    addr: self.record(e, 1),
                    exclusive: true,
                });
                ops.push_back(Op::Prefetch {
                    addr: self.record(e, 3),
                    exclusive: false,
                });
                ops.push_back(Op::Prefetch {
                    addr: self.record(a, 0),
                    exclusive: false,
                });
                ops.push_back(Op::Prefetch {
                    addr: self.record(b, 0),
                    exclusive: false,
                });
            }
            // Walk the element record: type and input-list fields
            // (read-only group), state and timestamps (modified group),
            // then the input values through their element records. The
            // record fields after the first touch of each line hit in the
            // cache, as in the real simulator.
            ops.push_back(Op::Read(self.record(e, 3)));
            ops.push_back(Op::Read(self.record(e, 3).offset(8)));
            ops.push_back(Op::Read(self.record(e, 4)));
            ops.push_back(Op::Read(self.record(e, 4).offset(8)));
            ops.push_back(Op::Read(self.record(e, 0)));
            ops.push_back(Op::Read(self.record(e, 1)));
            ops.push_back(Op::Compute(14));
            ops.push_back(Op::Read(self.record(a, 0)));
            ops.push_back(Op::Read(self.record(b, 0)));
            ops.push_back(Op::Compute(26)); // evaluate + schedule bookkeeping
            let kind = self.circuit.elements[e as usize].kind;
            let new = match kind {
                ElementKind::Gate(g) => g.eval(self.values[a as usize], self.values[b as usize]),
                _ => self.values[e as usize], // sources never get queued
            };
            // Pointer-chase flavour for multi-fanout elements (the "first
            // several levels of the more important linked lists").
            if self.circuit.elements[e as usize].fanout.len() > 1 {
                ops.push_back(Op::Read(self.record(e, 5)));
                ops.push_back(Op::Read(self.record(e, 6)));
                ops.push_back(Op::Compute(8));
            }
            // The simulator stamps the element's local time on every
            // evaluation, changed or not — these writes go to the (often
            // remote) element record and are what drives PTHOR's low
            // write hit rate (Table 2 footnote: 47%).
            ops.push_back(Op::Write(self.record(e, 1)));
            ops.push_back(Op::Write(self.record(e, 2)));
            if new != self.values[e as usize] {
                self.values[e as usize] = new;
                ops.push_back(Op::Write(self.record(e, 0)));
                ops.push_back(Op::Compute(10));
                self.push_fanout(p, e, &mut ops);
            }
            // Event-list bookkeeping on the local timing wheel: walks
            // node-local, cache-warm structures (the bulk of the real
            // simulator's per-event reads).
            for slot in 0..4u64 {
                ops.push_back(Op::Read(
                    self.queue_slot(p, (e as u64 + slot) % QUEUE_SLOTS),
                ));
            }
            ops.push_back(Op::Read(self.record(e, 7)));
            ops.push_back(Op::Read(self.record(e, 2)));
            ops.push_back(Op::Compute(18));
            // Re-walk the now-warm record fields (flag words, delay table,
            // output list header — each line was fetched above, so these
            // are hits, as most of the real simulator's field reads are).
            for line in [0u64, 1, 3, 4, 5] {
                ops.push_back(Op::Read(self.record(e, line).offset(4)));
                ops.push_back(Op::Read(self.record(e, line).offset(12)));
            }
            ops.push_back(Op::Compute(12));
            self.opq[p] = ops;
        }
    }
}

impl Workload for Pthor {
    fn fork(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(self.clone()))
    }

    fn processes(&self) -> usize {
        self.topo.processes()
    }

    fn next_op(&mut self, pid: ProcId) -> Op {
        let p = pid.0;
        loop {
            if let Some(op) = self.opq[p].pop_front() {
                return op;
            }
            match self.phase[p] {
                Phase::Start => {
                    self.phase[p] = Phase::Seed { edge: 0, pos: 0 };
                    return Op::Barrier(BarrierId(0));
                }
                Phase::Seed { edge, pos } => self.emit_seed(p, edge, pos),
                Phase::Run { edge } => self.emit_run(p, edge),
                Phase::Quiesced { edge } => {
                    self.phase[p] = Phase::Resolution { edge, round: 0 };
                    return Op::Barrier(BarrierId(edge % 2));
                }
                Phase::Resolution { edge, round } => {
                    if round < self.params.resolution_rounds {
                        // Re-scan the queues for newly safe work (there is
                        // none in the synchronous rendition, but the scan
                        // and rendezvous traffic are PTHOR's), then
                        // rendezvous again.
                        let own = self.queue_ctl(p);
                        let other = self.queue_ctl((p + round + 1) % self.nproc());
                        self.opq[p].push_back(Op::Read(own));
                        self.opq[p].push_back(Op::Read(other));
                        self.opq[p].push_back(Op::Compute(40));
                        self.opq[p].push_back(Op::Barrier(BarrierId((edge + round) % 2)));
                        self.phase[p] = Phase::Resolution {
                            edge,
                            round: round + 1,
                        };
                        continue;
                    }
                    let next = edge + 1;
                    self.phase[p] = if next < 2 * self.params.clock_cycles {
                        Phase::Seed { edge: next, pos: 0 }
                    } else {
                        Phase::Finished
                    };
                }
                Phase::Finished => return Op::Done,
            }
        }
    }

    fn sync_config(&self) -> SyncConfig {
        self.sync.clone()
    }

    fn shared_bytes(&self) -> u64 {
        self.elem_segs
            .iter()
            .map(dashlat_mem::Segment::len)
            .sum::<u64>()
            + self
                .queue_segs
                .iter()
                .map(dashlat_mem::Segment::len)
                .sum::<u64>()
    }

    fn name(&self) -> &str {
        "PTHOR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashlat_cpu::config::ProcConfig;
    use dashlat_cpu::machine::{Machine, RunResult};
    use dashlat_mem::system::{MemConfig, MemorySystem};
    use dashlat_sim::Cycle;

    fn run(params: PthorParams, procs: usize, prefetch: bool, cfg: ProcConfig) -> RunResult {
        let topo = Topology::new(procs, cfg.contexts);
        let mut space = AddressSpaceBuilder::new(procs);
        let w = Pthor::new(params, topo, &mut space, prefetch);
        let mem = MemorySystem::new(MemConfig::dash_scaled(procs), space.build());
        Machine::new(cfg, topo, mem, w)
            .with_max_cycles(Cycle(4_000_000_000))
            .run()
            .expect("PTHOR terminates")
    }

    #[test]
    fn completes_all_phases() {
        let params = PthorParams::test_scale();
        let edges = 2 * params.clock_cycles as u64;
        let rounds = params.resolution_rounds as u64;
        let res = run(params, 4, false, ProcConfig::sc_baseline());
        // Start barrier + per edge: the quiescence barrier plus the
        // deadlock-resolution rendezvous, 4 arrivals each.
        assert_eq!(res.barrier_arrivals, (1 + edges * (1 + rounds)) * 4);
        assert!(res.lock_acquires > 0, "no queue traffic happened");
    }

    #[test]
    fn activity_propagates_through_gates() {
        let topo = Topology::new(2, 1);
        let mut space = AddressSpaceBuilder::new(2);
        let w = Pthor::new(PthorParams::test_scale(), topo, &mut space, false);
        let mem = MemorySystem::new(MemConfig::dash_scaled(2), space.build());
        // Run and inspect evaluations through the machine's counters: each
        // evaluation does at least one lock acquire (its dequeue).
        let res = Machine::new(ProcConfig::sc_baseline(), topo, mem, w)
            .with_max_cycles(Cycle(4_000_000_000))
            .run()
            .expect("terminates");
        assert!(
            res.lock_acquires > 100,
            "almost no task activity: {} acquires",
            res.lock_acquires
        );
    }

    #[test]
    fn is_deterministic() {
        let a = run(
            PthorParams::test_scale(),
            4,
            false,
            ProcConfig::sc_baseline(),
        );
        let b = run(
            PthorParams::test_scale(),
            4,
            false,
            ProcConfig::sc_baseline(),
        );
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.shared_reads, b.shared_reads);
        assert_eq!(a.lock_acquires, b.lock_acquires);
    }

    #[test]
    fn write_hit_rate_is_low() {
        // Table 2 reports a 47% shared-write hit rate for PTHOR — records
        // and queue lines ping-pong between owners.
        let res = run(
            PthorParams::test_scale(),
            4,
            false,
            ProcConfig::sc_baseline(),
        );
        assert!(
            res.mem.write_hits.fraction() < 0.8,
            "write hit rate {} suspiciously high",
            res.mem.write_hits
        );
    }

    #[test]
    fn spinning_shows_up_as_busy_time() {
        // With many processes and a small circuit, starved processes spin:
        // busy time per process should exceed the useful work by a clear
        // margin compared to the single-process run.
        let small = PthorParams {
            circuit: CircuitParams {
                gates: 300,
                flip_flops: 24,
                inputs: 8,
                depth_bias: 0.8,
                seed: 1,
            },
            clock_cycles: 1,
            input_activity: 0.5,
            resolution_rounds: 0,
        };
        let one = run(small.clone(), 1, false, ProcConfig::sc_baseline());
        let many = run(small, 8, false, ProcConfig::sc_baseline());
        let one_busy = one.aggregate.busy.as_u64();
        let many_busy = many.aggregate.busy.as_u64();
        assert!(
            many_busy > one_busy,
            "no spin-induced busy inflation: {many_busy} <= {one_busy}"
        );
    }

    #[test]
    fn rc_improves_over_sc() {
        // PTHOR's total work is timing-dependent (which gates re-evaluate
        // depends on activation interleaving — §2.2 notes the same busy
        // time variability), so at test scale RC is only required to be
        // close; the write-stall elimination must be total either way.
        let sc = run(
            PthorParams::test_scale(),
            4,
            false,
            ProcConfig::sc_baseline(),
        );
        let rc = run(
            PthorParams::test_scale(),
            4,
            false,
            ProcConfig::rc_baseline(),
        );
        assert!(
            rc.elapsed.as_u64() < sc.elapsed.as_u64() * 110 / 100,
            "RC {} far slower than SC {}",
            rc.elapsed,
            sc.elapsed
        );
        assert_eq!(rc.aggregate.write_stall, Cycle::ZERO);
        assert!(sc.aggregate.write_stall > Cycle::ZERO);
    }

    #[test]
    fn prefetch_coverage_is_partial() {
        let base = run(
            PthorParams::test_scale(),
            4,
            false,
            ProcConfig::sc_baseline(),
        );
        let with = run(
            PthorParams::test_scale(),
            4,
            true,
            ProcConfig::sc_baseline().with_prefetching(),
        );
        let base_misses = (base.mem.read_hits.total() - base.mem.read_hits.hits())
            + (base.mem.write_hits.total() - base.mem.write_hits.hits());
        let coverage = with.prefetches_issued as f64 / base_misses as f64;
        // The paper reached 56%; ours should be partial too — well below
        // the ~90% of the regular applications.
        assert!(
            (0.2..=0.95).contains(&coverage),
            "coverage {coverage:.2} out of plausible range"
        );
    }

    #[test]
    fn task_queue_invariant_holds() {
        let topo = Topology::new(4, 1);
        let mut space = AddressSpaceBuilder::new(4);
        let mut w = Pthor::new(PthorParams::test_scale(), topo, &mut space, false);
        // Drive the workload directly for a while and check the counter
        // matches the queues.
        for _ in 0..20_000 {
            for p in 0..4 {
                let _ = w.next_op(ProcId(p));
            }
            let actual: usize = w.queues.iter().map(std::collections::VecDeque::len).sum();
            assert_eq!(actual, w.in_queues, "in_queues counter drifted");
        }
    }
}
