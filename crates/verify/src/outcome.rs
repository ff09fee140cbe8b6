//! Layering value semantics over the timing-only simulator.
//!
//! The machine under test simulates *when* accesses happen, not what they
//! read or write. Values are reconstructed from the memory system's access
//! trace ([`dashlat_mem::AccessRecord`]): directory and cache state mutate
//! at request-processing time, so trace position **is** coherence order,
//! and a read returns the value of the last same-address write that
//! precedes it in the trace — with one refinement, store-buffer
//! forwarding: a read that is serviced while its own processor still has a
//! program-order-earlier write to the same address sitting in the write
//! buffer (i.e. that write's service appears *later* in the trace) takes
//! that write's value, latest such write in program order winning. This is
//! the standard bypass path of a write-buffered processor and matches the
//! executable axiomatic model in [`crate::axiomatic`].
//!
//! The mapping from trace records back to program operations relies on two
//! machine facts the harness configuration guarantees and this module
//! asserts: every program write is serviced exactly once (per processor
//! and address, services happen in program order because the write path is
//! a FIFO buffer — the seeded `verify-mutations` bug breaks the *global*
//! per-processor FIFO across addresses, which this per-address mapping is
//! deliberately insensitive to), and every program read is serviced
//! exactly once, in program order (reads block).

use std::collections::BTreeSet;

use dashlat_mem::addr::Addr;
use dashlat_mem::{AccessKind, AccessRecord};

use crate::litmus::{LOp, LitmusTest};

/// One terminal outcome: every processor's read results concatenated in
/// processor-major, program order.
pub type Outcome = Vec<u64>;

/// The set of outcomes an exploration observed (or a model admits).
pub type OutcomeSet = BTreeSet<Outcome>;

/// Renders an outcome set as `{(0,0), (0,1)}` for reports.
pub fn format_set(set: &OutcomeSet) -> String {
    let mut s = String::from("{");
    for (i, o) in set.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push('(');
        for (j, v) in o.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&v.to_string());
        }
        s.push(')');
    }
    s.push('}');
    s
}

/// One program write (an RMW's write half included).
#[derive(Debug, Clone, Copy)]
struct PlannedWrite {
    var: usize,
    val: u64,
    /// Position in its processor's program.
    pos: usize,
    /// For an RMW, the outcome slot its read half fills.
    slot: Option<usize>,
}

/// One program read.
#[derive(Debug, Clone, Copy)]
struct PlannedRead {
    var: usize,
    /// Position in its processor's program.
    pos: usize,
    /// The outcome slot it fills.
    slot: usize,
}

/// Reconstructs the outcomes of a litmus test's machine runs from their
/// access traces.
///
/// The program side — each processor's writes, reads and result slots in
/// program order — is planned once per test; the per-run bookkeeping
/// lives in flat buffers the extractor keeps, so extracting an outcome
/// allocates only the outcome.
#[derive(Debug, Clone)]
pub struct Extractor {
    nvars: usize,
    /// Every program write, processor-major in program order: processor
    /// `p`'s are `writes[write_start[p]..write_start[p + 1]]`.
    writes: Vec<PlannedWrite>,
    write_start: Vec<usize>,
    /// Every program read, laid out like `writes`.
    reads: Vec<PlannedRead>,
    read_start: Vec<usize>,
    /// Processor `p`'s result registers are the outcome slots
    /// `reg_start[p]..reg_start[p + 1]`, in program order.
    reg_start: Vec<usize>,
    /// Per run: the trace position each planned write was serviced at
    /// (`usize::MAX` until it is).
    serviced: Vec<usize>,
    /// Per run, per `(processor, variable)`: the writes of that processor
    /// to that variable serviced so far.
    cursor: Vec<usize>,
    /// Per run: each variable's value at the current coherence position.
    mem: Vec<u64>,
    /// Per run, per processor: the reads serviced so far.
    next_read: Vec<usize>,
    /// Per run, per processor: the result registers filled so far.
    filled: Vec<usize>,
}

impl Extractor {
    /// Plans the extraction of `test`'s outcomes.
    pub fn new(test: &LitmusTest) -> Self {
        let nprocs = test.nprocs();
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        let (mut write_start, mut read_start, mut reg_start) = (vec![0], vec![0], vec![0]);
        let mut slot = 0;
        for prog in &test.programs {
            for (pos, op) in prog.iter().enumerate() {
                match *op {
                    LOp::W(var, val) => writes.push(PlannedWrite {
                        var,
                        val,
                        pos,
                        slot: None,
                    }),
                    LOp::Rmw(var, val) => {
                        writes.push(PlannedWrite {
                            var,
                            val,
                            pos,
                            slot: Some(slot),
                        });
                        slot += 1;
                    }
                    LOp::R(var) => {
                        reads.push(PlannedRead { var, pos, slot });
                        slot += 1;
                    }
                    LOp::Acq(_) | LOp::Rel(_) => {}
                }
            }
            write_start.push(writes.len());
            read_start.push(reads.len());
            reg_start.push(slot);
        }
        Extractor {
            nvars: test.nvars,
            serviced: vec![usize::MAX; writes.len()],
            cursor: vec![0; nprocs * test.nvars],
            mem: vec![0; test.nvars],
            next_read: vec![0; nprocs],
            filled: vec![0; nprocs],
            writes,
            write_start,
            reads,
            read_start,
            reg_start,
        }
    }

    /// Reconstructs the outcome of one machine run from its access trace.
    ///
    /// `var_addrs[v]` is the address the harness assigned to litmus
    /// variable `v`; records at other addresses (lock lines) are ignored.
    ///
    /// # Panics
    ///
    /// Panics when the trace cannot be reconciled with the program — more
    /// or fewer read/write services than the program issues. That
    /// indicates a harness-configuration bug (e.g. an access path that
    /// retries or combines), not a memory-model violation, so it is loud
    /// rather than a reported outcome.
    pub fn extract(&mut self, var_addrs: &[Addr], trace: &[AccessRecord]) -> Outcome {
        let var_of = |addr: Addr| var_addrs.iter().position(|&a| a == addr);
        self.serviced.fill(usize::MAX);
        self.cursor.fill(0);
        self.mem.fill(0);
        self.next_read.fill(0);
        self.filled.fill(0);

        // Pass 1: assign each data-write record to its program write. The
        // `(processor, variable)` cursors walk a processor's writes to one
        // variable in program order. An RMW appears in the trace as
        // exactly one write record (the machine's indivisible exclusive
        // access); its *read half* is resolved against the memory value at
        // that record's coherence position.
        for (i, rec) in trace.iter().enumerate() {
            if rec.kind != AccessKind::Write {
                continue;
            }
            let Some(v) = var_of(rec.addr) else {
                continue; // lock line
            };
            let p = rec.node.0;
            let cursor = &mut self.cursor[p * self.nvars + v];
            let idx = (self.write_start[p]..self.write_start[p + 1])
                .filter(|&j| self.writes[j].var == v)
                .nth(*cursor)
                .unwrap_or_else(|| {
                    panic!(
                        "P{p} serviced more writes to var {v} than its program issues \
                         (trace record {i})"
                    )
                });
            *cursor += 1;
            self.serviced[idx] = i;
        }
        for p in 0..self.write_start.len() - 1 {
            assert!(
                self.serviced[self.write_start[p]..self.write_start[p + 1]]
                    .iter()
                    .all(|&t| t != usize::MAX),
                "P{p} finished with unserviced program writes — the run ended \
                 with a non-empty write buffer"
            );
        }

        // Pass 2: walk the trace in coherence order, maintaining memory
        // values and resolving each result register — a read forwards from
        // the reader's still-buffered writes when one covers the address;
        // an RMW's read half returns the memory value at its own write's
        // coherence position (the machine drains its buffer before an
        // RMW, so no forwarding source can exist). Reads block and an RMW
        // stalls its processor until it commits, so each processor's
        // registers must fill in program order.
        let mut outcome = vec![0; self.reg_start[self.reg_start.len() - 1]];
        for (i, rec) in trace.iter().enumerate() {
            let Some(v) = var_of(rec.addr) else {
                continue;
            };
            let p = rec.node.0;
            let writes = self.write_start[p]..self.write_start[p + 1];
            let (slot, val) = match rec.kind {
                AccessKind::Write => {
                    // Value assigned in pass 1: the plan entry whose trace
                    // slot is exactly i.
                    let w = self.writes[writes
                        .clone()
                        .find(|&j| self.serviced[j] == i)
                        .expect("pass-1 assignment covers every data write")];
                    let read_half = w.slot.map(|slot| (slot, self.mem[v]));
                    self.mem[v] = w.val;
                    match read_half {
                        Some(filled) => filled,
                        None => continue,
                    }
                }
                AccessKind::Read => {
                    let k = self.next_read[p];
                    let r = *self.reads[self.read_start[p]..self.read_start[p + 1]]
                        .get(k)
                        .unwrap_or_else(|| {
                            panic!("P{p} serviced more reads than its program issues")
                        });
                    assert_eq!(
                        r.var, v,
                        "P{p} read {k} targets var {}, trace says {v}",
                        r.var
                    );
                    self.next_read[p] += 1;
                    // Forward from the latest program-order-earlier write
                    // to v that is still buffered (services later than
                    // this read).
                    let fwd = writes
                        .rev()
                        .find(|&j| {
                            let w = self.writes[j];
                            w.var == v && w.pos < r.pos && self.serviced[j] > i
                        })
                        .map(|j| self.writes[j].val);
                    (r.slot, fwd.unwrap_or(self.mem[v]))
                }
                AccessKind::ReadPrefetch | AccessKind::ReadExPrefetch => continue,
            };
            assert_eq!(
                slot,
                self.reg_start[p] + self.filled[p],
                "P{p} register records out of program order"
            );
            self.filled[p] += 1;
            outcome[slot] = val;
        }
        for (p, &filled) in self.filled.iter().enumerate() {
            assert_eq!(
                filled,
                self.reg_start[p + 1] - self.reg_start[p],
                "P{p} finished with unserviced program reads"
            );
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashlat_mem::{ServiceClass, LINE_BYTES};
    use dashlat_sim::Cycle;

    fn extract(test: &LitmusTest, var_addrs: &[Addr], trace: &[AccessRecord]) -> Outcome {
        Extractor::new(test).extract(var_addrs, trace)
    }

    fn rec(i: u64, node: usize, addr: Addr, kind: AccessKind) -> AccessRecord {
        AccessRecord {
            at: Cycle(i),
            node: dashlat_mem::addr::NodeId(node),
            addr,
            kind,
            class: ServiceClass::SecondaryHit,
            done_at: Cycle(i + 1),
        }
    }

    fn addrs(n: usize) -> Vec<Addr> {
        (0..n).map(|v| Addr(v as u64 * LINE_BYTES)).collect()
    }

    #[test]
    fn reads_see_last_coherence_order_write() {
        let t = crate::litmus::by_name("mp").unwrap();
        let a = addrs(2);
        // P0 services W x, W y; then P1 reads y, x.
        let trace = vec![
            rec(0, 0, a[0], AccessKind::Write),
            rec(1, 0, a[1], AccessKind::Write),
            rec(2, 1, a[1], AccessKind::Read),
            rec(3, 1, a[0], AccessKind::Read),
        ];
        assert_eq!(extract(&t, &a, &trace), vec![1, 1]);
        // Reads interleaved before the writes.
        let trace = vec![
            rec(0, 1, a[1], AccessKind::Read),
            rec(1, 0, a[0], AccessKind::Write),
            rec(2, 1, a[0], AccessKind::Read),
            rec(3, 0, a[1], AccessKind::Write),
        ];
        assert_eq!(extract(&t, &a, &trace), vec![0, 1]);
    }

    #[test]
    fn own_buffered_write_is_forwarded() {
        let t = crate::litmus::by_name("sb").unwrap();
        let a = addrs(2);
        // Both reads service before either write: the relaxed (0,0) —
        // forwarding does NOT apply (reads target the *other* variable).
        let trace = vec![
            rec(0, 0, a[1], AccessKind::Read),
            rec(1, 1, a[0], AccessKind::Read),
            rec(2, 0, a[0], AccessKind::Write),
            rec(3, 1, a[1], AccessKind::Write),
        ];
        assert_eq!(extract(&t, &a, &trace), vec![0, 0]);

        // A same-variable test: P1 of corr-like shape reading its own
        // buffered write.
        let t = crate::litmus::LitmusTest {
            name: "fwd",
            description: "",
            programs: vec![vec![LOp::W(0, 7), LOp::R(0)]],
            nvars: 1,
            nlocks: 0,
            properly_labeled: false,
            forbidden: vec![],
            witnesses: vec![],
            unreachable: vec![],
            lazy_writeback: false,
            extra_cells: vec![],
            max_offset: 0,
        };
        let a = addrs(1);
        // Read services BEFORE the write (write still buffered): must
        // forward 7, not return the init value.
        let trace = vec![
            rec(0, 0, a[0], AccessKind::Read),
            rec(1, 0, a[0], AccessKind::Write),
        ];
        assert_eq!(extract(&t, &a, &trace), vec![7]);
    }

    #[test]
    fn rmw_reads_the_coherence_predecessor() {
        let t = crate::litmus::by_name("rmw_atom").unwrap();
        let a = addrs(1);
        // P0's rmw first: it reads 0; P1's reads 1.
        let trace = vec![
            rec(0, 0, a[0], AccessKind::Write),
            rec(1, 1, a[0], AccessKind::Write),
        ];
        assert_eq!(extract(&t, &a, &trace), vec![0, 1]);
        // The other coherence order.
        let trace = vec![
            rec(0, 1, a[0], AccessKind::Write),
            rec(1, 0, a[0], AccessKind::Write),
        ];
        assert_eq!(extract(&t, &a, &trace), vec![2, 0]);
    }

    #[test]
    fn rmw_and_read_registers_interleave_in_program_order() {
        let t = crate::litmus::by_name("sb_rmw").unwrap();
        let a = addrs(2);
        // P0: rmw x, read y; P1: rmw y, read x — fully serialized.
        let trace = vec![
            rec(0, 0, a[0], AccessKind::Write),
            rec(1, 0, a[1], AccessKind::Read),
            rec(2, 1, a[1], AccessKind::Write),
            rec(3, 1, a[0], AccessKind::Read),
        ];
        assert_eq!(extract(&t, &a, &trace), vec![0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "unserviced program writes")]
    fn missing_write_service_is_loud() {
        let t = crate::litmus::by_name("sb").unwrap();
        let a = addrs(2);
        let trace = vec![
            rec(0, 0, a[0], AccessKind::Write),
            rec(1, 0, a[1], AccessKind::Read),
            rec(2, 1, a[0], AccessKind::Read),
        ];
        let _ = extract(&t, &a, &trace);
    }

    #[test]
    fn format_set_is_stable() {
        let mut s = OutcomeSet::new();
        s.insert(vec![0, 1]);
        s.insert(vec![0, 0]);
        assert_eq!(format_set(&s), "{(0,0), (0,1)}");
    }
}
