//! Executable axiomatic reference: the exact allowed-outcome set of a
//! litmus test under each consistency model.
//!
//! The reference is a small operational semantics — a per-processor FIFO
//! store buffer in front of a single multi-copy-atomic memory — explored
//! exhaustively. This is the *specification* the machine under test is
//! compared against, built independently of the simulator's code paths:
//!
//! * **SC** — no buffering. Each operation takes effect in memory the
//!   moment it issues; the allowed outcomes are exactly the interleavings
//!   of the program orders.
//! * **PC** — writes (and releases) retire through the FIFO buffer; reads
//!   bypass the buffer but forward from their own processor's buffered
//!   writes. A release gets no special treatment.
//! * **WC** — as PC, but *every* synchronization access fences: an acquire
//!   cannot issue until its processor's buffer has drained.
//! * **RC** — as PC. The machine's RC release additionally waits for
//!   invalidation acknowledgements before retiring, but acknowledgement
//!   timing is value-invisible in a single-copy memory, so PC and RC admit
//!   the same outcome sets on this corpus — the machine comparison checks
//!   both independently anyway.
//!
//! Locks: an acquire is enabled when no processor holds the lock; a
//! release under a buffering model enqueues a *release marker* that frees
//! the lock only when it drains (after all program-order-earlier writes),
//! which is what makes critical sections publish their writes.

use std::collections::HashSet;

use dashlat_cpu::config::Consistency;

use crate::litmus::{LOp, LitmusTest};
use crate::outcome::{Outcome, OutcomeSet};

/// A reference-machine state, flattened into one word buffer whose layout
/// [`Shape`] fixes. Two states that agree on program counters, buffers,
/// registers, memory and lock ownership have identical futures, so
/// memoizing the buffers is exact.
type State = Vec<u64>;

/// Where each part of a test's reference state lives in its buffer.
///
/// A store buffer drains in FIFO order, so it always holds a contiguous
/// run of its processor's buffered operations (writes and releases, under
/// a buffering model): those already issued, less the first `drained`.
/// The issued ones are fixed by the program counter, so one count per
/// processor stands for the whole buffer. Likewise each read fills the
/// register slot of its position in the program, so the registers have
/// one word per read of the test. The words are, in order: the program
/// counters, the drained counts, memory, the locks (0 when free, the
/// holder + 1 otherwise) and the registers.
struct Shape<'t> {
    test: &'t LitmusTest,
    model: Consistency,
    /// Per processor: the program indices of its buffered operations.
    buffered: Vec<Vec<usize>>,
    /// Per processor and program index: the word a read there fills.
    slot: Vec<Vec<usize>>,
    /// The first register word.
    regs: usize,
    /// Words per state: the registers run to the end.
    len: usize,
}

impl<'t> Shape<'t> {
    fn new(test: &'t LitmusTest, model: Consistency) -> Self {
        let n = test.nprocs();
        let regs = 2 * n + test.nvars + test.nlocks;
        let buffered = test
            .programs
            .iter()
            .map(|prog| {
                (0..prog.len())
                    .filter(|&i| {
                        model.buffers_writes() && matches!(prog[i], LOp::W(..) | LOp::Rel(_))
                    })
                    .collect()
            })
            .collect();
        let mut next = regs;
        let slot = test
            .programs
            .iter()
            .map(|prog| {
                prog.iter()
                    .map(|op| {
                        let at = next;
                        next += usize::from(matches!(op, LOp::R(_) | LOp::Rmw(..)));
                        at
                    })
                    .collect()
            })
            .collect();
        Shape {
            test,
            model,
            buffered,
            slot,
            regs,
            len: next,
        }
    }

    fn n(&self) -> usize {
        self.test.nprocs()
    }

    fn initial(&self) -> State {
        vec![0; self.len]
    }

    fn mem(&self, v: usize) -> usize {
        2 * self.n() + v
    }

    fn lock(&self, l: usize) -> usize {
        2 * self.n() + self.test.nvars + l
    }

    fn done(&self, s: &State) -> bool {
        self.test
            .programs
            .iter()
            .enumerate()
            .all(|(p, prog)| s[p] as usize >= prog.len())
    }

    fn outcome(&self, s: &State) -> Outcome {
        s[self.regs..].to_vec()
    }

    /// Processor `p`'s store buffer, oldest first, as program indices.
    fn buffer(&self, s: &State, p: usize) -> &[usize] {
        let issued = self.buffered[p].partition_point(|&i| i < s[p] as usize);
        &self.buffered[p][s[self.n() + p] as usize..issued]
    }

    /// Latest buffered write of processor `p` to variable `v`, if any
    /// (the store-forwarding source).
    fn forward(&self, s: &State, p: usize, v: usize) -> Option<u64> {
        self.buffer(s, p)
            .iter()
            .rev()
            .find_map(|&i| match self.test.programs[p][i] {
                LOp::W(w, val) if w == v => Some(val),
                _ => None,
            })
    }

    /// Pushes every state reachable from `s` in one step onto `out`.
    fn successors(&self, s: &State, out: &mut Vec<State>) {
        let n = self.n();
        for (p, prog) in self.test.programs.iter().enumerate() {
            let pc = s[p] as usize;
            let buf = self.buffer(s, p);
            // Issue p's next program operation.
            if let Some(&op) = prog.get(pc) {
                let enabled = match op {
                    // An RMW fences (the machine drains its write buffer
                    // before acquiring ownership), then reads and writes
                    // memory as one indivisible action: it is only
                    // enabled on an empty buffer and never buffers its
                    // own store.
                    LOp::Rmw(..) => buf.is_empty(),
                    LOp::Acq(l) => {
                        s[self.lock(l)] == 0 && (!self.model.acquire_waits() || buf.is_empty())
                    }
                    LOp::W(..) | LOp::R(_) | LOp::Rel(_) => true,
                };
                if enabled {
                    let mut next = s.clone();
                    next[p] += 1;
                    match op {
                        // Under a buffering model an issued write or
                        // release joins the buffer, which `pc` implies.
                        LOp::W(v, val) => {
                            if !self.model.buffers_writes() {
                                next[self.mem(v)] = val;
                            }
                        }
                        LOp::R(v) => {
                            next[self.slot[p][pc]] =
                                self.forward(s, p, v).unwrap_or(s[self.mem(v)]);
                        }
                        LOp::Rmw(v, val) => {
                            next[self.slot[p][pc]] = s[self.mem(v)];
                            next[self.mem(v)] = val;
                        }
                        LOp::Acq(l) => next[self.lock(l)] = p as u64 + 1,
                        LOp::Rel(l) => {
                            debug_assert_eq!(
                                s[self.lock(l)],
                                p as u64 + 1,
                                "release by non-holder"
                            );
                            if !self.model.buffers_writes() {
                                next[self.lock(l)] = 0;
                            }
                        }
                    }
                    out.push(next);
                }
            }
            // Drain the head of p's store buffer.
            if let Some(&head) = buf.first() {
                let mut next = s.clone();
                next[n + p] += 1;
                match prog[head] {
                    LOp::W(v, val) => next[self.mem(v)] = val,
                    LOp::Rel(l) => {
                        debug_assert_eq!(
                            s[self.lock(l)],
                            p as u64 + 1,
                            "release marker by non-holder"
                        );
                        next[self.lock(l)] = 0;
                    }
                    _ => unreachable!("only writes and releases are buffered"),
                }
                out.push(next);
            }
        }
    }
}

/// The exact set of outcomes `model` admits for `test`: exhaustive
/// memoized depth-first search over the reference semantics.
pub fn allowed(test: &LitmusTest, model: Consistency) -> OutcomeSet {
    let shape = Shape::new(test, model);
    let mut outcomes = OutcomeSet::new();
    let mut seen: HashSet<State> = HashSet::new();
    let mut stack = vec![shape.initial()];
    while let Some(s) = stack.pop() {
        if seen.contains(&s) {
            continue;
        }
        if shape.done(&s) {
            outcomes.insert(shape.outcome(&s));
            // Remaining buffer drains cannot change the registers.
        } else {
            shape.successors(&s, &mut stack);
        }
        seen.insert(s);
    }
    assert!(
        !outcomes.is_empty(),
        "reference model deadlocked on {} — malformed test",
        test.name
    );
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::{by_name, corpus};
    use Consistency::{Pc, Rc, Sc, Wc};

    fn set(outs: &[&[u64]]) -> OutcomeSet {
        outs.iter().map(|o| o.to_vec()).collect()
    }

    #[test]
    fn sb_allows_relaxation_only_when_buffered() {
        let t = by_name("sb").unwrap();
        assert_eq!(
            allowed(&t, Sc),
            set(&[&[0, 1], &[1, 0], &[1, 1]]),
            "SC store buffering"
        );
        assert_eq!(
            allowed(&t, Rc),
            set(&[&[0, 0], &[0, 1], &[1, 0], &[1, 1]]),
            "RC store buffering"
        );
    }

    #[test]
    fn mp_flag_never_outruns_payload() {
        let t = by_name("mp").unwrap();
        for m in [Sc, Pc, Wc, Rc] {
            let a = allowed(&t, m);
            assert!(!a.contains(&vec![1, 0]), "{m}: {a:?}");
            assert!(a.contains(&vec![1, 1]), "{m}: {a:?}");
            assert!(a.contains(&vec![0, 0]), "{m}: {a:?}");
        }
    }

    #[test]
    fn pc_and_rc_agree_valuewise() {
        for t in corpus() {
            assert_eq!(
                allowed(&t, Pc),
                allowed(&t, Rc),
                "{}: ack timing must be value-invisible",
                t.name
            );
        }
    }

    #[test]
    fn properly_labeled_tests_are_sc_under_rc() {
        for t in corpus().iter().filter(|t| t.properly_labeled) {
            assert_eq!(
                allowed(t, Sc),
                allowed(t, Rc),
                "{}: PL must collapse RC to SC",
                t.name
            );
        }
    }

    #[test]
    fn corpus_annotations_hold_in_the_reference() {
        for t in corpus() {
            for ann in &t.forbidden {
                assert!(
                    !allowed(&t, ann.model).contains(&ann.outcome),
                    "{}: forbidden outcome {:?} is reference-allowed under {}",
                    t.name,
                    ann.outcome,
                    ann.model
                );
            }
            for ann in &t.witnesses {
                assert!(
                    allowed(&t, ann.model).contains(&ann.outcome),
                    "{}: witness {:?} is not reference-allowed under {}",
                    t.name,
                    ann.outcome,
                    ann.model
                );
            }
            // Machine-unreachable waivers only make sense for outcomes
            // the reference *does* allow — otherwise they would mask an
            // unsound outcome instead of a completeness gap.
            for ann in &t.unreachable {
                assert!(
                    allowed(&t, ann.model).contains(&ann.outcome),
                    "{}: unreachable waiver {:?} is not reference-allowed \
                     under {} — a waiver must never cover an unsound outcome",
                    t.name,
                    ann.outcome,
                    ann.model
                );
            }
        }
    }

    #[test]
    fn rmw_is_atomic_and_fences() {
        let atom = by_name("rmw_atom").unwrap();
        for m in [Sc, Pc, Wc, Rc] {
            assert_eq!(
                allowed(&atom, m),
                set(&[&[0, 1], &[2, 0]]),
                "{m}: rmw atomicity"
            );
        }
        // Plain sb relaxes under RC; replacing the stores with RMWs
        // removes the relaxation entirely.
        let sb_rmw = by_name("sb_rmw").unwrap();
        for m in [Sc, Pc, Wc, Rc] {
            let a = allowed(&sb_rmw, m);
            assert!(!a.contains(&vec![0, 0, 0, 0]), "{m}: {a:?}");
        }
        let fence = by_name("rmw_fence").unwrap();
        for m in [Sc, Pc, Wc, Rc] {
            let a = allowed(&fence, m);
            assert!(!a.contains(&vec![0, 0, 0, 0]), "{m}: {a:?}");
        }
    }

    #[test]
    fn lazy_variants_share_the_eager_reference() {
        // The lazy protocol variant is value-invisible, so the lazy
        // corpus entries use the same reference model; their allowed
        // sets must match their eager twins exactly.
        for (lazy, eager) in [("sb_lazy", "sb"), ("mp_lazy", "mp"), ("coww_lazy", "coww")] {
            let l = by_name(lazy).unwrap();
            let e = by_name(eager).unwrap();
            for m in [Sc, Pc, Wc, Rc] {
                assert_eq!(
                    allowed(&l, m),
                    allowed(&e, m),
                    "{lazy} vs {eager} under {m}"
                );
            }
        }
    }

    #[test]
    fn wc_acquire_fence_separates_wc_from_rc() {
        let t = by_name("wc_acq").unwrap();
        assert!(!allowed(&t, Wc).contains(&vec![0, 0]));
        assert!(allowed(&t, Rc).contains(&vec![0, 0]));
    }
}
