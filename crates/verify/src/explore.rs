//! Stateless model checking over scheduler decision points.
//!
//! The machine, run with a [`dashlat_sim::ReplayScheduler`], reports every
//! same-cycle decision point as a `(chosen, slate)` pair. The explorer
//! re-runs the program from scratch with ever-longer choice prefixes,
//! depth-first, until every alternative that could lead to a new
//! Mazurkiewicz trace has been executed. Three engines share the tree:
//!
//! * [`Engine::Full`] — plain exhaustive DFS over every alternative at
//!   every decision point. The ground truth everything else is checked
//!   against.
//! * [`Engine::Sleep`] — sleep sets (Godefroid). When a branch `a` at some
//!   node has been fully explored and a sibling `b` independent of `a` is
//!   explored next, `a` is put to sleep in `b`'s subtree: any execution
//!   that performs `a` next inside that subtree is Mazurkiewicz-equivalent
//!   to one already explored through the `a` branch. A slept transition
//!   wakes — is removed from the sleep set — as soon as a *dependent*
//!   transition executes. Sleep sets prune *descents into* redundant
//!   subtrees but still *branch* on every sibling.
//! * [`Engine::Dpor`] — dynamic partial-order reduction (Flanagan &
//!   Godefroid) on top of sleep sets. A node only branches to the
//!   alternatives in its **backtrack set**, seeded with the first branch
//!   taken and grown on demand: after every completed run the explorer
//!   builds the run's happens-before relation with vector clocks (one
//!   component per processor, stamped with event indices), finds every
//!   *immediate race* — a pair of dependent transitions of different
//!   processors with no happens-before chain between them — and, for each
//!   race `(j, i)`, adds to node `j`'s backtrack set an alternative that
//!   would run an *initial* of the reversed race (a transition of the
//!   racing suffix with no happens-before predecessor inside it). If no
//!   slate entry matches an initial's processor, every alternative is
//!   added — the conservative fallback of the original algorithm, sound
//!   because a slate only lists enabled events. Branches that provably
//!   lead to already-explored traces are thus never taken at all, which
//!   is what turns the product-shaped schedule spaces of 4-processor
//!   tests from thousands of runs into dozens.
//!
//! Independence between alternatives is the static relation of
//! [`SchedAlt::independent`]: different processors *and* provably disjoint
//! footprints. Anything uncertain is `Footprint::Unknown` and therefore
//! dependent — conservative, so reduction never loses outcomes. Soundness
//! of the whole stack is additionally checked empirically: the corpus
//! tests assert `Full`, `Sleep` and `Dpor` reach identical outcome sets,
//! and the harness checks the machine against the axiomatic reference —
//! a reduction bug that lost an outcome would fail the exact-match
//! contract loudly.
//!
//! A run cap bounds pathological blow-ups; hitting it sets `truncated` so
//! a truncated exploration can never silently pass as exhaustive. Runs
//! whose Foata normal form (canonical layering of the executed trace) was
//! already seen are counted in `redundant` — the reduction's waste metric:
//! an ideal DPOR would execute every trace exactly once.

use std::collections::{BTreeMap, HashSet};

use dashlat_cpu::Decision;
use dashlat_sim::vclock::VectorClock;
use dashlat_sim::SchedAlt;

use crate::outcome::{Outcome, OutcomeSet};

/// Which partial-order-reduction engine drives the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Exhaustive DFS: every alternative at every node.
    Full,
    /// Sleep sets only (the PR-4 baseline).
    Sleep,
    /// Backtrack-set DPOR with sleep sets (the default).
    Dpor,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Full => "full",
            Engine::Sleep => "sleep",
            Engine::Dpor => "dpor",
        })
    }
}

/// What one exhausted (or capped) exploration observed.
#[derive(Debug, Clone, Default)]
pub struct Exploration {
    /// Every distinct terminal outcome.
    pub outcomes: OutcomeSet,
    /// For each outcome, the choice prefix of the first run that produced
    /// it — replaying it (same program, same offsets) reproduces the
    /// outcome deterministically, which is how counterexamples are
    /// re-rendered with full event logging.
    pub witnesses: BTreeMap<Outcome, Vec<usize>>,
    /// Machine runs performed.
    pub runs: u64,
    /// Runs whose Foata normal form had already been executed — an
    /// equivalent interleaving explored twice. Zero for an ideal
    /// reduction; the stats report surfaces it.
    pub redundant: u64,
    /// True when the run cap stopped the search before exhaustion — the
    /// outcome set is then a *lower bound*, and the caller must say so.
    pub truncated: bool,
    /// The first machine error (invariant violation, deadlock, ...) the
    /// search hit, with the choice prefix that reproduces it. The search
    /// stops at the first error: the machine's state is wrong, so further
    /// outcomes prove nothing.
    pub error: Option<(String, Vec<usize>)>,
}

/// What one machine run reports back to the explorer: the decision trace
/// — `(choice taken, full slate)` at each decision point — plus the
/// terminal outcome, or the machine error that ended the run.
pub type RunRecord = (Vec<Decision>, Result<Outcome, String>);

/// One node of the depth-first search tree.
struct Frame {
    /// The slate the machine reported at this decision point.
    alts: Vec<SchedAlt>,
    /// Alternative indices already executed from this node (the last one
    /// is the branch the current run took).
    tried: Vec<usize>,
    /// Alternatives slept at this node: provably redundant here.
    sleep: Vec<SchedAlt>,
    /// Alternative indices DPOR has marked as required here (ignored by
    /// the other engines). Seeded with the branch the first run took.
    backtrack: Vec<usize>,
}

/// FNV-1a over a byte stream — tiny, deterministic, collision-unlikely at
/// the scale of one exploration (thousands of traces).
fn fnv1a_64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The Foata fingerprint of an executed trace: events are identified by
/// `(pid, per-pid occurrence)`, layered greedily (each event's layer is one
/// past the deepest layer of any dependent predecessor), and the layered
/// multiset is hashed in canonical order. Mazurkiewicz-equivalent traces
/// have equal fingerprints.
fn foata_fingerprint(events: &[SchedAlt]) -> u64 {
    let mut occ_count: BTreeMap<usize, u64> = BTreeMap::new();
    let mut layers: Vec<u64> = Vec::with_capacity(events.len());
    let mut keyed: Vec<(u64, u64, u64)> = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let mut layer = 0;
        for (j, d) in events[..i].iter().enumerate() {
            if !d.independent(e) {
                layer = layer.max(layers[j] + 1);
            }
        }
        layers.push(layer);
        let occ = occ_count.entry(e.pid).or_insert(0);
        keyed.push((layer, e.pid as u64, *occ));
        *occ += 1;
    }
    keyed.sort_unstable();
    fnv1a_64(keyed.iter().flat_map(|&(l, p, o)| {
        l.to_le_bytes()
            .into_iter()
            .chain(p.to_le_bytes())
            .chain(o.to_le_bytes())
    }))
}

/// True when event `j` happens-before event `i` under the clock stamping
/// of [`explore`] (component `pid[j]` of `clocks[i]` reached `j + 1`).
fn hb(clocks: &[VectorClock], pids: &[usize], j: usize, i: usize) -> bool {
    clocks[i].get(pids[j]) > j as u64
}

/// Grows the backtrack sets of the current stack from the happens-before
/// structure of the just-completed run (the DPOR core).
fn update_backtracks(stack: &mut [Frame], decisions: &[(usize, Vec<SchedAlt>)]) {
    let n = decisions.len();
    let events: Vec<SchedAlt> = decisions.iter().map(|(c, alts)| alts[*c]).collect();
    let pids: Vec<usize> = events.iter().map(|e| e.pid).collect();

    // Stamp every executed event with a vector clock: the join of every
    // program-order or dependence predecessor, then its own component set
    // to its index + 1. `hb` is then a O(1) lookup.
    let mut clocks: Vec<VectorClock> = Vec::with_capacity(n);
    for i in 0..n {
        let mut c = VectorClock::new(0);
        for j in 0..i {
            if pids[j] == pids[i] || !events[j].independent(&events[i]) {
                c.join(&clocks[j]);
            }
        }
        c.set(pids[i], (i as u64) + 1);
        clocks.push(c);
    }

    for i in 0..n {
        for j in 0..i {
            // An immediate race: dependent, different processors, and no
            // happens-before chain through an intermediate event (if one
            // exists, reversing j and i alone cannot produce a new trace —
            // the chain pins their order).
            if pids[j] == pids[i] || events[j].independent(&events[i]) {
                continue;
            }
            let chained = (j + 1..i).any(|k| hb(&clocks, &pids, j, k) && hb(&clocks, &pids, k, i));
            if chained {
                continue;
            }
            // The racing suffix: i plus everything between j and i that i
            // depends on. Its *initials* (members with no happens-before
            // predecessor inside the suffix) are the transitions that
            // could run first if the race were reversed.
            let window: Vec<usize> = (j + 1..=i)
                .filter(|&k| k == i || hb(&clocks, &pids, k, i))
                .collect();
            let initial_pids: Vec<usize> = window
                .iter()
                .filter(|&&k| !window.iter().any(|&k2| k2 < k && hb(&clocks, &pids, k2, k)))
                .map(|&k| pids[k])
                .collect();
            let frame = &mut stack[j];
            let candidates: Vec<usize> = (0..frame.alts.len())
                .filter(|&idx| initial_pids.contains(&frame.alts[idx].pid))
                .collect();
            if candidates.is_empty() {
                // No slate entry runs an initial: fall back to all
                // alternatives (every slate entry is enabled, so this is
                // the original algorithm's sound over-approximation).
                for idx in 0..frame.alts.len() {
                    if !frame.backtrack.contains(&idx) {
                        frame.backtrack.push(idx);
                    }
                }
            } else {
                for idx in candidates {
                    if !frame.backtrack.contains(&idx) {
                        frame.backtrack.push(idx);
                    }
                }
            }
        }
    }
}

/// Exhaustively explores every scheduler interleaving of a deterministic
/// program.
///
/// `run` executes one machine run following `prefix` (then FIFO) and
/// returns the full decision trace plus the terminal outcome (or machine
/// error). It must be deterministic: equal prefixes must yield equal
/// traces.
///
/// # Panics
///
/// Panics if `run` is observably nondeterministic (a replayed prefix
/// reaches a decision point with a different slate).
pub fn explore<F>(mut run: F, max_runs: u64, engine: Engine) -> Exploration
where
    F: FnMut(&[usize]) -> RunRecord,
{
    let mut out = Exploration::default();
    let mut stack: Vec<Frame> = Vec::new();
    let mut prefix: Vec<usize> = Vec::new();
    let mut traces: HashSet<u64> = HashSet::new();
    loop {
        if out.runs >= max_runs {
            out.truncated = true;
            return out;
        }
        out.runs += 1;
        let (decisions, result) = run(&prefix);
        assert!(
            decisions.len() >= prefix.len(),
            "replay consumed only {} of a {}-choice prefix — nondeterministic run",
            decisions.len(),
            prefix.len()
        );
        let choices: Vec<usize> = decisions.iter().map(|d| d.0).collect();
        match result {
            Ok(outcome) => {
                out.outcomes.insert(outcome.clone());
                out.witnesses.entry(outcome).or_insert(choices);
            }
            Err(message) => {
                out.error = Some((message, choices));
                return out;
            }
        }
        let executed: Vec<SchedAlt> = decisions.iter().map(|(c, alts)| alts[*c]).collect();
        if !traces.insert(foata_fingerprint(&executed)) {
            out.redundant += 1;
        }

        // Grow the tree along the new suffix of this run. A frame's sleep
        // set is inherited from its parent: everything asleep there, plus
        // the parent's fully-explored earlier branches, minus whatever the
        // parent's chosen transition is dependent with (dependence wakes).
        for i in stack.len()..decisions.len() {
            let (chosen, alts) = &decisions[i];
            let inherited = if i == 0 {
                Vec::new()
            } else {
                let parent = &stack[i - 1];
                let via = parent.alts[decisions[i - 1].0];
                let mut s: Vec<SchedAlt> = parent
                    .tried
                    .iter()
                    .filter(|&&t| t != decisions[i - 1].0)
                    .map(|&t| parent.alts[t])
                    .chain(parent.sleep.iter().copied())
                    .filter(|x| x.independent(&via))
                    .collect();
                s.dedup();
                s
            };
            debug_assert!(*chosen < alts.len());
            stack.push(Frame {
                alts: alts.clone(),
                tried: vec![*chosen],
                sleep: inherited,
                backtrack: vec![*chosen],
            });
        }
        debug_assert!(
            stack.iter().zip(&decisions).all(|(f, d)| f.alts == d.1),
            "slate drift under replay"
        );

        if engine == Engine::Dpor {
            update_backtracks(&mut stack, &decisions);
        }

        // Backtrack to the deepest node with an unexplored, awake branch
        // (for DPOR: one the backtrack set requires).
        loop {
            let Some(top) = stack.last_mut() else {
                return out;
            };
            let next = (0..top.alts.len()).find(|j| {
                if top.tried.contains(j) {
                    return false;
                }
                match engine {
                    Engine::Full => true,
                    Engine::Sleep => !top.sleep.contains(&top.alts[*j]),
                    Engine::Dpor => top.backtrack.contains(j) && !top.sleep.contains(&top.alts[*j]),
                }
            });
            if let Some(j) = next {
                top.tried.push(j);
                prefix = stack.iter().map(|f| *f.tried.last().unwrap()).collect();
                break;
            }
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashlat_sim::Footprint;

    fn alt(pid: usize, fp: Footprint) -> SchedAlt {
        SchedAlt {
            pid,
            footprint: fp,
            tag: "t",
        }
    }

    /// A synthetic "program": one event per processor, each appending its
    /// pid to a log; the outcome is the permutation taken. Slates shrink
    /// as events execute.
    fn permutation_runner(fps: Vec<Footprint>) -> impl FnMut(&[usize]) -> RunRecord {
        move |prefix: &[usize]| {
            let mut remaining: Vec<usize> = (0..fps.len()).collect();
            let mut decisions = Vec::new();
            let mut order = Vec::new();
            let mut cursor = 0;
            while !remaining.is_empty() {
                let slate: Vec<SchedAlt> = remaining.iter().map(|&p| alt(p, fps[p])).collect();
                let choice = prefix.get(cursor).copied().unwrap_or(0);
                cursor += 1;
                assert!(choice < slate.len());
                decisions.push((choice, slate));
                order.push(remaining.remove(choice) as u64);
            }
            (decisions, Ok(order))
        }
    }

    #[test]
    fn dependent_events_yield_all_permutations() {
        // Three events on the same line: fully dependent — no reduction
        // may prune anything, under any engine.
        for engine in [Engine::Full, Engine::Sleep, Engine::Dpor] {
            let fps = vec![Footprint::Line(0); 3];
            let e = explore(permutation_runner(fps), 1_000, engine);
            assert_eq!(e.outcomes.len(), 6, "{engine}: 3! permutations");
            assert!(!e.truncated);
            assert!(e.error.is_none());
        }
    }

    #[test]
    fn independent_events_are_reduced_but_lose_nothing() {
        // Three events on three distinct lines: pairwise independent, so
        // every permutation is equivalent. The synthetic outcome here
        // distinguishes permutations (which real commuting events cannot),
        // so only run counts are compared: Sleep must beat Full, Dpor
        // must beat-or-match Sleep, and Dpor of a fully independent set
        // must be exactly one run.
        let fps = vec![Footprint::Line(0), Footprint::Line(1), Footprint::Line(2)];
        let full = explore(permutation_runner(fps.clone()), 1_000, Engine::Full);
        let reduced = explore(permutation_runner(fps.clone()), 1_000, Engine::Sleep);
        let dpor = explore(permutation_runner(fps), 1_000, Engine::Dpor);
        assert_eq!(full.outcomes.len(), 6);
        assert!(
            reduced.runs < full.runs,
            "sleep sets must prune runs ({} vs {})",
            reduced.runs,
            full.runs
        );
        assert_eq!(
            dpor.runs, 1,
            "no races, no backtracks: one run covers the only trace"
        );
        assert_eq!(dpor.redundant, 0);
    }

    #[test]
    fn dpor_matches_full_outcomes_on_mixed_dependence() {
        // Two racing pairs on distinct lines plus an independent event:
        // the engines must agree on outcomes while Dpor runs fewer
        // executions than Full.
        let fps = vec![
            Footprint::Line(0),
            Footprint::Line(0),
            Footprint::Line(1),
            Footprint::Line(1),
            Footprint::None,
        ];
        let full = explore(permutation_runner(fps.clone()), 100_000, Engine::Full);
        let sleep = explore(permutation_runner(fps.clone()), 100_000, Engine::Sleep);
        let dpor = explore(permutation_runner(fps), 100_000, Engine::Dpor);
        assert!(!full.truncated && !sleep.truncated && !dpor.truncated);
        // Outcomes are raw permutations here, which over-distinguish
        // equivalent traces; project to what a real system observes — the
        // per-line orders — before comparing.
        let project = |e: &Exploration| {
            e.outcomes
                .iter()
                .map(|o| {
                    let rank = |a: u64, b: u64| {
                        o.iter().position(|&x| x == a) < o.iter().position(|&x| x == b)
                    };
                    (rank(0, 1), rank(2, 3))
                })
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(project(&full), project(&sleep));
        assert_eq!(project(&full), project(&dpor));
        assert_eq!(project(&dpor).len(), 4, "both races explored both ways");
        assert!(
            dpor.runs < full.runs,
            "dpor must prune ({} vs {})",
            dpor.runs,
            full.runs
        );
    }

    #[test]
    fn run_cap_sets_truncated() {
        let fps = vec![Footprint::Line(0); 4];
        let e = explore(permutation_runner(fps), 5, Engine::Sleep);
        assert!(e.truncated);
        assert_eq!(e.runs, 5);
    }

    #[test]
    fn witnesses_replay_to_their_outcome() {
        for engine in [Engine::Full, Engine::Sleep, Engine::Dpor] {
            let fps = vec![Footprint::Line(0); 3];
            let e = explore(permutation_runner(fps.clone()), 1_000, engine);
            let mut runner = permutation_runner(fps);
            for (outcome, prefix) in &e.witnesses {
                let (_, replayed) = runner(prefix);
                assert_eq!(replayed.as_ref().ok(), Some(outcome));
            }
        }
    }

    #[test]
    fn machine_error_stops_the_search_with_a_witness() {
        // The runner fails on the execution where P1 goes first.
        let mut runner = {
            let mut inner = permutation_runner(vec![Footprint::Line(0); 2]);
            move |prefix: &[usize]| {
                let (decisions, result) = inner(prefix);
                let order = result.unwrap();
                if order[0] == 1 {
                    (decisions, Err("invariant violated".to_owned()))
                } else {
                    (decisions, Ok(order))
                }
            }
        };
        let e = explore(&mut runner, 1_000, Engine::Dpor);
        let (msg, prefix) = e.error.expect("search must surface the error");
        assert_eq!(msg, "invariant violated");
        // The witness prefix replays to the same error.
        let (_, replayed) = runner(&prefix);
        assert!(replayed.is_err());
    }

    #[test]
    fn foata_fingerprint_identifies_equivalent_traces() {
        let a0 = alt(0, Footprint::Line(0));
        let b = alt(1, Footprint::Line(1));
        // Independent events commute: both orders share a fingerprint.
        assert_eq!(foata_fingerprint(&[a0, b]), foata_fingerprint(&[b, a0]));
        // Dependent events do not.
        let c = alt(1, Footprint::Line(0));
        assert_ne!(foata_fingerprint(&[a0, c]), foata_fingerprint(&[c, a0]));
        // Same pid twice: occurrences are distinguished.
        assert_ne!(foata_fingerprint(&[a0, a0, b]), foata_fingerprint(&[a0, b]));
    }
}
