//! Stateless model checking over scheduler decision points.
//!
//! The machine, run with a [`dashlat_sim::ReplayScheduler`], records every
//! same-cycle decision point — the slate and the index chosen from it — in
//! a [`DecisionTrace`]. One trace serves the whole exploration: each run
//! clears it and the runner records into it, so a run allocates no
//! decision storage, and the explorer copies a run's choices out only for
//! a new outcome's witness or an error. The explorer
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
//! A run whose suffix meets a slate that lies wholly in the sleep set its
//! node inherits is *sleep-blocked*: every way on from there starts with
//! a transition an earlier run already explored from an equivalent state,
//! so nothing below that decision can produce a new trace. DPOR abandons
//! such a state, as Flanagan and Godefroid do: the tree stops growing at
//! the blocked decision — no node is made for it or anything after it —
//! and the race pass ignores the events from it on. The machine run still
//! completes (the scheduler takes the slate's first entry and goes on), so
//! its outcome and witness are kept. `Sleep` and `Full` keep growing the
//! tree below such decisions; they are the baselines DPOR is measured and
//! checked against.
//!
//! The happens-before pass is incremental. A run replays the previous
//! run's choices down to its branch, so its events before the branch are
//! exactly the previous run's: their vector clocks and Foata layers are
//! kept, only the events from the branch on are stamped, and races are
//! searched only for the new events before the block. One scan over each
//! new event's predecessors yields both its clock and its Foata layer.
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
use std::hash::{DefaultHasher, Hash, Hasher};

use dashlat_cpu::DecisionTrace;
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
    /// reduction; the stats report surfaces it. Under [`Engine::Dpor`]
    /// only sleep-blocked runs repeat a trace: a run that never meets a
    /// wholly asleep slate past its branch executes a new one.
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

/// One node of the depth-first search tree. Popped nodes are kept and
/// reused for the next ones, so growing the tree reuses their buffers.
#[derive(Default)]
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

/// The happens-before analysis of the current run, one row per executed
/// event, kept across runs: a run replays the previous run's events up to
/// its branch, so only the rows from the branch on are stamped again, and
/// once the buffers have grown to the longest run nothing is allocated.
#[derive(Default)]
struct RaceScratch {
    /// Components per clock row: one past the largest processor index
    /// seen so far.
    width: usize,
    /// Row `i` is event `i`'s clock: component `p` is one past the index
    /// of the last event of processor `p` that happens-before-or-is `i`.
    clocks: Vec<u64>,
    /// Event `i`'s Foata stamp.
    stamps: Vec<Stamp>,
    /// Join of the clocks of the events between a candidate and the event
    /// whose races are being found that happen-before the latter.
    running: Vec<u64>,
    /// Initials of the current racing suffix (at most one per processor).
    initials: Vec<usize>,
}

/// An executed event's place in the Foata normal form of its trace.
#[derive(Clone, Copy)]
struct Stamp {
    /// One past the deepest layer of any dependent predecessor (0 for an
    /// event without one).
    layer: usize,
    /// How many earlier events its processor executed.
    occurrence: usize,
    /// The event's term of the fingerprint: the hash of `(layer,
    /// occurrence, event)`, the event being its processor, tag and
    /// footprint.
    key: u64,
}

impl RaceScratch {
    /// Stamps events `from..` of `events` with their vector clocks (the
    /// join of every program-order or dependence predecessor, then their
    /// own component set to their index + 1) and their Foata stamps, in
    /// one scan over each event's predecessors. Rows before `from` must
    /// hold the same events as when they were stamped; they are kept
    /// unless a new processor widens the clocks. Each new event costs
    /// O(n·P) for `n` events over `P` processors.
    fn stamp(&mut self, events: &[SchedAlt], from: usize) {
        let width = events
            .iter()
            .map(|e| e.pid + 1)
            .fold(self.width, usize::max);
        let from = if width == self.width { from } else { 0 };
        self.width = width;
        self.clocks.truncate(from * width);
        self.clocks.resize(events.len() * width, 0);
        self.stamps.truncate(from);
        for (i, e) in events.iter().enumerate().skip(from) {
            let (earlier, rest) = self.clocks.split_at_mut(i * width);
            let clock = &mut rest[..width];
            let (mut layer, mut occurrence) = (0, 0);
            for (j, d) in events[..i].iter().enumerate() {
                if !d.independent(e) {
                    join(clock, &earlier[j * width..(j + 1) * width]);
                    let s = self.stamps[j];
                    layer = layer.max(s.layer + 1);
                    if d.pid == e.pid {
                        occurrence = s.occurrence + 1;
                    }
                }
            }
            clock[e.pid] = i as u64 + 1;
            let mut h = DefaultHasher::new();
            (layer, occurrence, e).hash(&mut h);
            self.stamps.push(Stamp {
                layer,
                occurrence,
                key: h.finish(),
            });
        }
    }

    /// The Foata fingerprint of the stamped trace: the wrapping sum of its
    /// events' keys. `(layer, pid, occurrence)` is unique per event, so the
    /// keys form a set and the sum does not depend on the order the trace
    /// ran them in. Mazurkiewicz-equivalent traces layer alike and have
    /// equal fingerprints; traces whose events layer alike but differ in
    /// what one of them is or touches do not. The keys are the standard
    /// library's fixed-key SipHash, so fingerprints are compared only
    /// within one exploration.
    fn fingerprint(&self) -> u64 {
        self.stamps.iter().fold(0, |sum, s| sum.wrapping_add(s.key))
    }
}

/// Grows the backtrack sets of the current stack from the races of the
/// stamped run's events `from..stack.len()` (the DPOR core): the events
/// before `from` are an earlier run's, whose races are already in the
/// backtrack sets, and those from `stack.len()` on lie past a
/// sleep-blocked decision.
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
/// were reversed. Each searched event costs O(n·P).
fn update_backtracks(
    stack: &mut [Frame],
    events: &[SchedAlt],
    from: usize,
    scratch: &mut RaceScratch,
) {
    let RaceScratch {
        width,
        clocks,
        running,
        initials,
        ..
    } = scratch;
    let width = *width;
    let clocks = &clocks[..];
    let hb = |j: usize, k: usize| clocks[k * width + events[j].pid] > j as u64;

    running.resize(width, 0);
    for i in from..stack.len() {
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

/// Sets `sleep` to the sleep set of the child `parent` reaches through
/// alternative `chosen`: everything asleep at the parent, plus its fully
/// explored earlier branches, minus whatever the chosen transition is
/// dependent with (dependence wakes).
fn child_sleep(parent: &Frame, chosen: usize, sleep: &mut Vec<SchedAlt>) {
    let via = parent.alts[chosen];
    sleep.clear();
    sleep.extend(
        parent
            .tried
            .iter()
            .filter(|&&t| t != chosen)
            .map(|&t| parent.alts[t])
            .chain(parent.sleep.iter().copied())
            .filter(|x| x.independent(&via)),
    );
    sleep.dedup();
}

/// Exhaustively explores every scheduler interleaving of a deterministic
/// program.
///
/// `run` executes one machine run whose decisions the given scheduler
/// makes, records them in the trace it is handed (empty on entry), and
/// returns the terminal outcome — or, for a failed run, the error, with
/// the decisions up to it recorded. It must be deterministic: equal
/// schedulers must yield equal traces.
///
/// # Panics
///
/// Panics if `run` is observably nondeterministic: a replayed prefix
/// reaches a decision point with a different slate, or its replayed
/// events differ from the run it replays.
pub fn explore<F>(mut run: F, max_runs: u64, engine: Engine) -> Exploration
where
    F: FnMut(ReplayScheduler, &mut DecisionTrace) -> Result<Outcome, String>,
{
    let mut out = Exploration::default();
    let mut stack: Vec<Frame> = Vec::new();
    let mut prefix: Vec<usize> = Vec::new();
    // Asleep at the first decision past `prefix` (always empty for Full).
    let mut sleep: Vec<SchedAlt> = Vec::new();
    let mut traces: HashSet<u64> = HashSet::new();
    let mut scratch = RaceScratch::default();
    let mut executed: Vec<SchedAlt> = Vec::new();
    let mut trace = DecisionTrace::default();
    let mut spare: Vec<Frame> = Vec::new();
    loop {
        if out.runs >= max_runs {
            out.truncated = true;
            return out;
        }
        out.runs += 1;
        // The prefix replays the choices of every node on the stack.
        let replayed = prefix.len();
        let sched = ReplayScheduler::with_prefix(std::mem::take(&mut prefix))
            .with_sleep(std::mem::take(&mut sleep));
        trace.clear();
        let result = run(sched, &mut trace);
        assert!(
            trace.len() >= replayed,
            "replay consumed only {} of a {replayed}-choice prefix — nondeterministic run",
            trace.len(),
        );
        assert!(
            stack
                .iter()
                .enumerate()
                .all(|(k, f)| f.alts == trace.slate(k)),
            "slate drift under replay"
        );
        // The events before the branch, the prefix's last choice, are the
        // previous run's.
        let branch = replayed.saturating_sub(1);
        assert!(
            executed[..branch]
                .iter()
                .enumerate()
                .all(|(k, e)| *e == trace.chosen(k)),
            "the replayed events differ from the previous run's"
        );
        match result {
            Ok(outcome) => {
                if !out.witnesses.contains_key(&outcome) {
                    out.witnesses
                        .insert(outcome.clone(), trace.choices().to_vec());
                    out.outcomes.insert(outcome);
                }
            }
            Err(message) => {
                out.error = Some((message, trace.choices().to_vec()));
                return out;
            }
        }
        executed.truncate(branch);
        executed.extend((branch..trace.len()).map(|k| trace.chosen(k)));
        scratch.stamp(&executed, branch);
        if !traces.insert(scratch.fingerprint()) {
            out.redundant += 1;
        }

        // Grow the tree along the new suffix of this run; under DPOR, up
        // to its first sleep-blocked decision.
        for i in stack.len()..trace.len() {
            let (chosen, alts) = (trace.choice(i), trace.slate(i));
            let mut frame = spare.pop().unwrap_or_default();
            match i {
                0 => frame.sleep.clear(),
                _ => child_sleep(&stack[i - 1], trace.choice(i - 1), &mut frame.sleep),
            }
            if engine == Engine::Dpor && alts.iter().all(|a| frame.sleep.contains(a)) {
                spare.push(frame);
                break;
            }
            debug_assert!(chosen < alts.len());
            frame.alts.clear();
            frame.alts.extend_from_slice(alts);
            for taken in [&mut frame.tried, &mut frame.backtrack] {
                taken.clear();
                taken.push(chosen);
            }
            stack.push(frame);
        }

        if engine == Engine::Dpor {
            update_backtracks(&mut stack, &executed, branch, &mut scratch);
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
                    child_sleep(top, j, &mut sleep);
                }
                prefix = stack.iter().map(|f| *f.tried.last().unwrap()).collect();
                break;
            }
            spare.extend(stack.pop());
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

    /// The fingerprint the explorer computes for a trace stamped afresh.
    fn foata_fingerprint(events: &[SchedAlt]) -> u64 {
        let mut scratch = RaceScratch::default();
        scratch.stamp(events, 0);
        scratch.fingerprint()
    }

    /// What the explorer runs: one run under a scheduler, recorded.
    trait Runner: FnMut(ReplayScheduler, &mut DecisionTrace) -> Result<Outcome, String> {}
    impl<F: FnMut(ReplayScheduler, &mut DecisionTrace) -> Result<Outcome, String>> Runner for F {}

    /// A synthetic program: processor `p` executes the events of
    /// `progs[p]` in order, each appending `p` to a log; the outcome is the
    /// order taken. Each slate lists every unfinished processor's next
    /// event, and the scheduler makes every choice.
    fn program_runner(progs: Vec<Vec<Footprint>>) -> impl Runner {
        move |mut sched: ReplayScheduler, trace: &mut DecisionTrace| {
            let mut pc = vec![0; progs.len()];
            let mut order = Vec::new();
            loop {
                let ready: Vec<usize> = (0..progs.len())
                    .filter(|&p| pc[p] < progs[p].len())
                    .collect();
                if ready.is_empty() {
                    return Ok(order);
                }
                let slate: Vec<SchedAlt> = ready.iter().map(|&p| alt(p, progs[p][pc[p]])).collect();
                let choice = sched.choose(Cycle::ZERO, &slate);
                assert!(choice < slate.len());
                trace.push(choice, &slate);
                pc[ready[choice]] += 1;
                order.push(ready[choice] as u64);
            }
        }
    }

    /// One event per processor: the outcome is the permutation taken, and
    /// slates shrink as events execute.
    fn permutation_runner(fps: Vec<Footprint>) -> impl Runner {
        program_runner(fps.into_iter().map(|fp| vec![fp]).collect())
    }

    /// Runs `runner` once under `sched`, returning its trace and result.
    fn run_once(
        runner: &mut impl Runner,
        sched: ReplayScheduler,
    ) -> (DecisionTrace, Result<Outcome, String>) {
        let mut trace = DecisionTrace::default();
        let result = runner(sched, &mut trace);
        (trace, result)
    }

    /// Explores `runner` under `engine` and keeps every run's decisions.
    fn recorded(mut runner: impl Runner, engine: Engine) -> (Exploration, Vec<DecisionTrace>) {
        let mut runs: Vec<DecisionTrace> = Vec::new();
        let e = explore(
            |sched, trace| {
                let result = runner(sched, trace);
                runs.push(trace.clone());
                result
            },
            1_000,
            engine,
        );
        assert!(!e.truncated);
        (e, runs)
    }

    /// The sleep set in force at each decision of run `r`, replayed from
    /// the recorded runs: at each node, the branches earlier runs took
    /// from it fall asleep, and a choice wakes what it is dependent with.
    fn replayed_sleep_sets(runs: &[DecisionTrace], r: usize) -> Vec<Vec<SchedAlt>> {
        let run = &runs[r];
        let mut sleep: Vec<SchedAlt> = Vec::new();
        let mut sets = Vec::with_capacity(run.len());
        for k in 0..run.len() {
            let (chosen, slate) = (run.choice(k), run.slate(k));
            let via = slate[chosen];
            let on_path = |other: &&DecisionTrace| {
                other.len() > k
                    && other.choice(k) != chosen
                    && other.choices()[..k] == run.choices()[..k]
            };
            let earlier = runs[..r].iter().filter(on_path).map(|o| slate[o.choice(k)]);
            let next = earlier
                .chain(sleep.iter().copied())
                .filter(|a| a.independent(&via))
                .collect();
            sets.push(std::mem::replace(&mut sleep, next));
        }
        sets
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
            let (_, runs) = recorded(permutation_runner(fps.clone()), engine);
            for (r, run) in runs.iter().enumerate() {
                let sleeps = replayed_sleep_sets(&runs, r);
                for (k, sleep) in sleeps.iter().enumerate() {
                    let (slate, via) = (run.slate(k), run.chosen(k));
                    if slate.iter().any(|a| !sleep.contains(a)) {
                        assert!(
                            !sleep.contains(&via),
                            "{engine}: run {r} decision {k} took slept {via} from {slate:?}"
                        );
                        steered += usize::from(sleep.contains(&slate[0]));
                    }
                }
            }
        }
        assert!(steered > 0, "FIFO order never met a slept entry");
    }

    #[test]
    fn only_sleep_blocked_runs_repeat_a_trace() {
        // Four processors over three lines: a program where a tree grown
        // below decisions whose whole slate is asleep makes DPOR branch
        // inside subtrees that only repeat a sleeping sibling's traces.
        let progs = vec![
            vec![Footprint::Line(1)],
            vec![Footprint::Line(0), Footprint::Line(2)],
            vec![Footprint::Line(0), Footprint::Line(1), Footprint::Line(2)],
            vec![Footprint::Line(1), Footprint::Line(1)],
        ];
        let (e, runs) = recorded(program_runner(progs), Engine::Dpor);
        let mut traces = HashSet::new();
        let mut blocked = 0;
        for (r, run) in runs.iter().enumerate() {
            // A run replays the choices it shares with an earlier run,
            // then takes its branch.
            let prefix = runs[..r]
                .iter()
                .map(|o| {
                    let shared = o.choices().iter().zip(run.choices());
                    shared.take_while(|(a, b)| a == b).count() + 1
                })
                .max()
                .unwrap_or(0);
            let sleeps = replayed_sleep_sets(&runs, r);
            let met_all_asleep = sleeps
                .iter()
                .enumerate()
                .skip(prefix)
                .any(|(k, sleep)| run.slate(k).iter().all(|a| sleep.contains(a)));
            blocked += usize::from(met_all_asleep);
            let executed: Vec<SchedAlt> = (0..run.len()).map(|k| run.chosen(k)).collect();
            assert!(
                traces.insert(foata_fingerprint(&executed)) || met_all_asleep,
                "run {r} repeats a trace but met no wholly asleep slate past its prefix"
            );
        }
        assert_eq!(e.redundant as usize, runs.len() - traces.len());
        assert!(blocked > 0, "no run was sleep-blocked");
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
                let sched = ReplayScheduler::with_prefix(prefix.clone());
                let (_, replayed) = run_once(&mut runner, sched);
                assert_eq!(replayed.as_ref().ok(), Some(outcome));
            }
        }
    }

    #[test]
    fn machine_error_stops_the_search_with_a_witness() {
        // The runner fails on the execution where P1 goes first.
        let mut runner = {
            let mut inner = permutation_runner(vec![Footprint::Line(0); 2]);
            move |sched: ReplayScheduler, trace: &mut DecisionTrace| {
                let order = inner(sched, trace).unwrap();
                if order[0] == 1 {
                    Err("invariant violated".to_owned())
                } else {
                    Ok(order)
                }
            }
        };
        let e = explore(&mut runner, 1_000, Engine::Dpor);
        let (msg, prefix) = e.error.expect("search must surface the error");
        assert_eq!(msg, "invariant violated");
        // The witness prefix replays to the same error.
        let (_, replayed) = run_once(&mut runner, ReplayScheduler::with_prefix(prefix));
        assert!(replayed.is_err());
    }

    #[test]
    #[should_panic(expected = "slate drift under replay")]
    fn a_replayed_slate_that_changes_panics() {
        // Two racing events whose slates carry a different tag from the
        // second run on: the replayed first decision no longer offers what
        // the first run offered there.
        let mut runs = 0;
        let drifting = move |mut sched: ReplayScheduler, trace: &mut DecisionTrace| {
            runs += 1;
            let tag = if runs == 1 { "t" } else { "drifted" };
            let mut ready = vec![0, 1];
            let mut order = Vec::new();
            while !ready.is_empty() {
                let slate: Vec<SchedAlt> = ready
                    .iter()
                    .map(|&pid| SchedAlt {
                        pid,
                        footprint: Footprint::Line(0),
                        tag,
                    })
                    .collect();
                let choice = sched.choose(Cycle::ZERO, &slate);
                trace.push(choice, &slate);
                order.push(ready.remove(choice) as u64);
            }
            Ok(order)
        };
        explore(drifting, 1_000, Engine::Dpor);
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
        // Traces that layer alike but differ in one event's footprint or
        // tag are different traces.
        let b2 = alt(1, Footprint::Line(2));
        assert_ne!(foata_fingerprint(&[a0, b]), foata_fingerprint(&[a0, b2]));
        let b_fill = SchedAlt { tag: "fill", ..b };
        assert_ne!(
            foata_fingerprint(&[a0, b]),
            foata_fingerprint(&[a0, b_fill])
        );
    }
}
