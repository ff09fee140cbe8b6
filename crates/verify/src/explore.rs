//! Stateless model checking over scheduler decision points.
//!
//! The machine, run with a [`dashlat_sim::ReplayScheduler`], reports every
//! same-cycle decision point as a `(chosen, slate)` pair. The explorer
//! re-runs the program from scratch, depth-first, until every alternative
//! that could lead to a new Mazurkiewicz trace has been executed. Each run
//! replays the choices down to a branch node, takes one untried
//! alternative there, and hands the scheduler the sleep set that branch
//! starts with. Past the branch the scheduler takes the first alternative
//! that is not asleep, and after each choice it wakes what that choice is
//! dependent with — the same rule that gives each new node of the tree its
//! sleep set — and falls back to FIFO order only when a slate is entirely
//! asleep. Three engines share the tree:
//!
//! * [`Engine::Full`] — plain exhaustive DFS over every alternative at
//!   every decision point, with no sleep sets and FIFO order past each
//!   branch. The ground truth everything else is checked against.
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
use dashlat_sim::{ReplayScheduler, SchedAlt};

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
    /// search hit, with the erring run's choices up to the error, which
    /// replay to it. The search stops at the first error: the machine's
    /// state is wrong, so further outcomes prove nothing.
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

/// Reusable storage for the race pass: flat vector clocks, one row of
/// `width` components per executed event, so a run's pass allocates
/// nothing once the buffers have grown to the longest run.
#[derive(Default)]
struct RaceScratch {
    /// Row `i` is event `i`'s clock: component `p` is one past the index
    /// of the last event of processor `p` that happens-before-or-is `i`.
    clocks: Vec<u64>,
    /// Join of the clocks of the events between a candidate and the event
    /// whose races are being found that happen-before the latter.
    running: Vec<u64>,
    /// Initials of the current racing suffix (at most one per processor).
    initials: Vec<usize>,
}

/// Grows the backtrack sets of the current stack from the happens-before
/// structure of the just-completed run (the DPOR core).
///
/// Event `j` happens-before a later event `k` when component `pid[j]` of
/// `k`'s clock passes `j`. A pair `(j, i)` is an *immediate race* when
/// the two are dependent, belong to different processors, and no event
/// between them is ordered after `j` and before `i`: if one is, that
/// chain pins their order and reversing `j` and `i` alone cannot produce
/// a new trace. For each event `i`, one backward sweep over `j` finds all
/// of its immediate races: it keeps the join of the clocks of the events
/// already passed that happen-before `i`, and `j` is chained exactly when
/// that join has passed `j`. The same sweep keeps the *initials* of the
/// racing suffix — `i` plus the events between `j` and `i` that
/// happen-before `i`, less those with a happens-before predecessor among
/// them — which are the transitions that could run first if the race
/// were reversed. The pass is O(n²·P) for `n` events over `P` processors.
fn update_backtracks(stack: &mut [Frame], events: &[SchedAlt], scratch: &mut RaceScratch) {
    let n = events.len();
    let width = events.iter().map(|e| e.pid + 1).max().unwrap_or(0);
    let RaceScratch {
        clocks,
        running,
        initials,
    } = scratch;

    // Stamp every executed event with a vector clock: the join of every
    // program-order or dependence predecessor, then its own component set
    // to its index + 1.
    clocks.clear();
    clocks.resize(n * width, 0);
    for i in 0..n {
        let (earlier, rest) = clocks.split_at_mut(i * width);
        let clock = &mut rest[..width];
        for (j, e) in events[..i].iter().enumerate() {
            if !e.independent(&events[i]) {
                join(clock, &earlier[j * width..(j + 1) * width]);
            }
        }
        clock[events[i].pid] = i as u64 + 1;
    }
    let clocks = &clocks[..];
    let hb = |j: usize, k: usize| clocks[k * width + events[j].pid] > j as u64;

    running.resize(width, 0);
    for i in 0..n {
        running.fill(0);
        initials.clear();
        initials.push(i);
        for j in (0..i).rev() {
            if !hb(j, i) {
                continue;
            }
            let racing = events[j].pid != events[i].pid && !events[j].independent(&events[i]);
            if racing && running[events[j].pid] <= j as u64 {
                add_backtrack(&mut stack[j], events, initials);
            }
            join(running, &clocks[j * width..(j + 1) * width]);
            initials.retain(|&k| !hb(j, k));
            initials.push(j);
        }
    }
}

/// Componentwise maximum of two clocks of equal width.
fn join(into: &mut [u64], other: &[u64]) {
    for (a, &b) in into.iter_mut().zip(other) {
        *a = (*a).max(b);
    }
}

/// Adds to `frame`'s backtrack set every alternative that runs one of the
/// racing suffix's `initials`. If no slate entry does, every alternative
/// is added: every slate entry is enabled, so this is the original
/// algorithm's sound over-approximation.
fn add_backtrack(frame: &mut Frame, events: &[SchedAlt], initials: &[usize]) {
    let runs_initial = |idx: &usize| {
        initials
            .iter()
            .any(|&k| events[k].pid == frame.alts[*idx].pid)
    };
    let any = (0..frame.alts.len()).any(|idx| runs_initial(&idx));
    for idx in 0..frame.alts.len() {
        if (!any || runs_initial(&idx)) && !frame.backtrack.contains(&idx) {
            frame.backtrack.push(idx);
        }
    }
}

/// The sleep set of the child `parent` reaches through alternative
/// `chosen`: everything asleep at the parent, plus its fully explored
/// earlier branches, minus whatever the chosen transition is dependent
/// with (dependence wakes).
fn child_sleep(parent: &Frame, chosen: usize) -> Vec<SchedAlt> {
    let via = parent.alts[chosen];
    let mut s: Vec<SchedAlt> = parent
        .tried
        .iter()
        .filter(|&&t| t != chosen)
        .map(|&t| parent.alts[t])
        .chain(parent.sleep.iter().copied())
        .filter(|x| x.independent(&via))
        .collect();
    s.dedup();
    s
}

/// Exhaustively explores every scheduler interleaving of a deterministic
/// program.
///
/// `run` executes one machine run whose decisions the given scheduler
/// makes, and returns the decision trace plus the terminal outcome — or,
/// for a failed run, the decisions up to the error and the error. It must
/// be deterministic: equal schedulers must yield equal traces.
///
/// # Panics
///
/// Panics if `run` is observably nondeterministic (a replayed prefix
/// reaches a decision point with a different slate).
pub fn explore<F>(mut run: F, max_runs: u64, engine: Engine) -> Exploration
where
    F: FnMut(ReplayScheduler) -> RunRecord,
{
    let mut out = Exploration::default();
    let mut stack: Vec<Frame> = Vec::new();
    let mut prefix: Vec<usize> = Vec::new();
    // Asleep at the first decision past `prefix` (always empty for Full).
    let mut sleep: Vec<SchedAlt> = Vec::new();
    let mut traces: HashSet<u64> = HashSet::new();
    let mut scratch = RaceScratch::default();
    loop {
        if out.runs >= max_runs {
            out.truncated = true;
            return out;
        }
        out.runs += 1;
        let replayed = prefix.len();
        let sched = ReplayScheduler::with_prefix(std::mem::take(&mut prefix))
            .with_sleep(std::mem::take(&mut sleep));
        let (decisions, result) = run(sched);
        assert!(
            decisions.len() >= replayed,
            "replay consumed only {} of a {replayed}-choice prefix — nondeterministic run",
            decisions.len(),
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

        // Grow the tree along the new suffix of this run.
        for i in stack.len()..decisions.len() {
            let (chosen, alts) = &decisions[i];
            let inherited = match i {
                0 => Vec::new(),
                _ => child_sleep(&stack[i - 1], decisions[i - 1].0),
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
            update_backtracks(&mut stack, &executed, &mut scratch);
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
                if engine != Engine::Full {
                    sleep = child_sleep(top, j);
                }
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
    use dashlat_sim::{Cycle, Footprint, Scheduler};

    fn alt(pid: usize, fp: Footprint) -> SchedAlt {
        SchedAlt {
            pid,
            footprint: fp,
            tag: "t",
        }
    }

    /// A synthetic "program": one event per processor, each appending its
    /// pid to a log; the outcome is the permutation taken. Slates shrink
    /// as events execute, and the scheduler makes every choice.
    fn permutation_runner(fps: Vec<Footprint>) -> impl FnMut(ReplayScheduler) -> RunRecord {
        move |mut sched: ReplayScheduler| {
            let mut remaining: Vec<usize> = (0..fps.len()).collect();
            let mut decisions = Vec::new();
            let mut order = Vec::new();
            while !remaining.is_empty() {
                let slate: Vec<SchedAlt> = remaining.iter().map(|&p| alt(p, fps[p])).collect();
                let choice = sched.choose(Cycle::ZERO, &slate);
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
    fn new_decisions_take_an_awake_alternative_whenever_one_exists() {
        // P1 and P2 race on one line; P0 touches another. Once the P0
        // branch at the root is explored, P0 sleeps under P1's branch,
        // where FIFO order would run it next.
        let fps = vec![Footprint::Line(0), Footprint::Line(1), Footprint::Line(1)];
        let mut steered = 0;
        for engine in [Engine::Sleep, Engine::Dpor] {
            let mut inner = permutation_runner(fps.clone());
            let mut runs: Vec<Vec<Decision>> = Vec::new();
            let e = explore(
                |sched| {
                    let record = inner(sched);
                    runs.push(record.0.clone());
                    record
                },
                1_000,
                engine,
            );
            assert!(!e.truncated);
            // Replay the sleep sets along every run: at each node, the
            // branches earlier runs took from it fall asleep, and a
            // choice wakes what it is dependent with.
            for (r, run) in runs.iter().enumerate() {
                let mut sleep: Vec<SchedAlt> = Vec::new();
                for (k, (chosen, slate)) in run.iter().enumerate() {
                    let via = slate[*chosen];
                    if slate.iter().any(|a| !sleep.contains(a)) {
                        assert!(
                            !sleep.contains(&via),
                            "{engine}: run {r} decision {k} took slept {via} from {slate:?}"
                        );
                        steered += usize::from(sleep.contains(&slate[0]));
                    }
                    let on_path = |other: &&Vec<Decision>| {
                        other.len() > k
                            && other[k].0 != *chosen
                            && other[..k].iter().zip(&run[..k]).all(|(a, b)| a.0 == b.0)
                    };
                    let earlier = runs[..r].iter().filter(on_path).map(|o| slate[o[k].0]);
                    sleep = earlier
                        .chain(sleep.iter().copied())
                        .filter(|a| a.independent(&via))
                        .collect();
                }
            }
        }
        assert!(steered > 0, "FIFO order never met a slept entry");
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
                let (_, replayed) = runner(ReplayScheduler::with_prefix(prefix.clone()));
                assert_eq!(replayed.as_ref().ok(), Some(outcome));
            }
        }
    }

    #[test]
    fn machine_error_stops_the_search_with_a_witness() {
        // The runner fails on the execution where P1 goes first.
        let mut runner = {
            let mut inner = permutation_runner(vec![Footprint::Line(0); 2]);
            move |sched: ReplayScheduler| {
                let (decisions, result) = inner(sched);
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
        let (_, replayed) = runner(ReplayScheduler::with_prefix(prefix));
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
