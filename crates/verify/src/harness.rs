//! The verification harness: machine construction, offset sweeping, and
//! the machine-vs-axiomatic verdict.
//!
//! ### The verification configuration
//!
//! The machine is run with every access latency forced to one cycle
//! ([`LatencyTable::uniform`]), contention off, a single context per
//! processor and a context-switch threshold no latency can reach. Under
//! that configuration the simulator is in *lockstep*: every piece of
//! scheduling nondeterminism shows up as a same-cycle tie in the event
//! queue, which the attached [`ReplayScheduler`] turns into an enumerable
//! decision point for the explorer. Each run is observed once: its access
//! trace gives the outcome and its decision trace the explorer's
//! backtracking state.
//!
//! A `(test, model)` verification builds one machine, with no scheduler
//! attached, and never runs it; moving to another offset cell recompiles
//! only its program. Every run copies it into one scratch machine with
//! `clone_from` ([`Machine::rerun`]) and drives the copy under the
//! scheduler the explorer hands over: no run rebuilds the memory system,
//! the compiled workload or the event queue, and once the scratch
//! machine's buffers have grown a run allocates next to nothing. A run
//! that fails keeps its decisions up to the error, so the machine-error
//! witness replays.
//!
//! ### Why start offsets are swept
//!
//! Tie-breaking alone cannot reorder events the uniform timing pins to
//! *different* cycles: in message passing under RC, the reader's first
//! load always services before the writer's buffered flag write unless
//! the reader starts later. Sweeping per-processor start offsets (leading
//! `Compute` cycles, `0..=max_offset` each, full cross product) shifts
//! program phases against each other so every axiomatically allowed
//! outcome becomes reachable in some cell; the machine outcome set is the
//! union over the sweep. Soundness is unaffected — every individual run,
//! whatever its offsets, must still produce a reference-allowed outcome.

use std::collections::BTreeMap;

use dashlat_cpu::config::Consistency;
use dashlat_cpu::machine::Machine;
use dashlat_cpu::ops::{Topology, Workload};
use dashlat_cpu::script::ScriptWorkload;
use dashlat_cpu::{DecisionTrace, EventLog, Observer, ProcConfig};
use dashlat_mem::system::{AccessRecord, MemConfig, MemorySystem};
use dashlat_mem::LatencyTable;
use dashlat_sim::{Cycle, ReplayScheduler, SchedAlt};

use crate::axiomatic;
use crate::explore::{explore, Engine, Exploration};
use crate::litmus::LitmusTest;
use crate::outcome::{format_set, Extractor, Outcome, OutcomeSet};
use crate::workload::{compile, layout, LitmusLayout};

/// Default per-verdict run budget. Generous: the most expensive corpus
/// cell (iriw under the buffered models) exhausts well below it; hitting
/// the cap marks the verdict `truncated`, which fails it — truncation is
/// never silent.
pub const DEFAULT_MAX_RUNS: u64 = 2_000_000;

/// Stall threshold no uniform-latency access can reach: the processor
/// never context-switches during verification runs.
const NEVER_SWITCH: Cycle = Cycle(1 << 40);

/// Which deliberately seeded bug (if any) a verification run arms. The
/// mutations only exist under the `verify-mutations` feature and are
/// rejected here otherwise, so a mis-built regression test fails loudly
/// instead of silently testing the healthy machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The healthy machine.
    #[default]
    None,
    /// `ProcConfig::relaxation_bug`: the processor's write buffer retires
    /// a later write before an earlier one — a W→W consistency violation
    /// the litmus harness must observe as a forbidden outcome.
    WriteReorder,
    /// `MemConfig::drop_last_invalidation`: the home drops the
    /// invalidation to the last sharer on an exclusive request — a
    /// coherence (SWMR) violation the machine's invariant checker must
    /// trip on, surfaced by the explorer as a machine error.
    DropInval,
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mutation::None => "none",
            Mutation::WriteReorder => "write-reorder",
            Mutation::DropInval => "drop-inval",
        })
    }
}

/// The processor configuration of a verification run.
fn proc_config(model: Consistency, mutation: Mutation) -> ProcConfig {
    let mut cfg = match model {
        Consistency::Sc => ProcConfig::sc_baseline(),
        Consistency::Pc => ProcConfig::pc_baseline(),
        Consistency::Wc => ProcConfig::wc_baseline(),
        Consistency::Rc => ProcConfig::rc_baseline(),
    };
    cfg.no_switch_threshold = NEVER_SWITCH;
    cfg.write_issue_spacing = Cycle(1);
    cfg.check_invariants = true;
    #[cfg(feature = "verify-mutations")]
    {
        cfg.relaxation_bug = mutation == Mutation::WriteReorder;
    }
    #[cfg(not(feature = "verify-mutations"))]
    assert!(
        mutation == Mutation::None,
        "seeded-bug verification requires the `verify-mutations` feature"
    );
    cfg
}

/// The memory configuration of a verification run: uniform single-cycle
/// latencies, no contention, and the test's protocol variant.
fn mem_config(nprocs: usize, lazy: bool, mutation: Mutation) -> MemConfig {
    #[cfg(not(feature = "verify-mutations"))]
    assert!(
        mutation == Mutation::None,
        "seeded-bug verification requires the `verify-mutations` feature"
    );
    MemConfig {
        latencies: LatencyTable::uniform(Cycle(1)),
        contention: false,
        lazy_sharing_writeback: lazy,
        #[cfg(feature = "verify-mutations")]
        drop_last_invalidation: mutation == Mutation::DropInval,
        ..MemConfig::dash_scaled(nprocs)
    }
}

/// Builds the machine of one offset cell, observed by what `observer`
/// makes of the compiled workload. No scheduler is attached yet.
fn build<O: Observer>(
    test: &LitmusTest,
    lay: &LitmusLayout,
    model: Consistency,
    offsets: &[u64],
    mutation: Mutation,
    observer: impl FnOnce(&ScriptWorkload) -> O,
) -> Machine<ScriptWorkload, O> {
    let nprocs = test.nprocs();
    let mem = MemorySystem::new(
        mem_config(nprocs, test.lazy_writeback, mutation),
        lay.page_map.clone(),
    );
    let workload = compile(test, lay, offsets);
    let obs = observer(&workload);
    Machine::observed(
        proc_config(model, mutation),
        Topology::new(nprocs, 1),
        mem,
        workload,
        obs,
    )
}

/// What the explorer reads from a run: its access trace, which gives the
/// outcome, and its decisions. Copied with `clone_from` like the rest of
/// the machine, so a recycled machine keeps both buffers.
#[derive(Default)]
struct Traces {
    accesses: Vec<AccessRecord>,
    decisions: DecisionTrace,
}

dashlat_sim::clone_fields!(Traces {
    accesses,
    decisions
});

impl Observer for Traces {
    fn access(&mut self, access: AccessRecord) {
        self.accesses.push(access);
    }

    fn decision(&mut self, choice: usize, slate: &[SchedAlt]) {
        self.decisions.push(choice, slate);
    }
}

/// The machines of one `(test, model)` verification: the built machine of
/// the current offset cell, which never runs, and the scratch machine
/// every run recycles.
struct Machines<'a> {
    test: &'a LitmusTest,
    lay: LitmusLayout,
    model: Consistency,
    offsets: Vec<u64>,
    proto: Machine<ScriptWorkload, Traces>,
    scratch: Machine<ScriptWorkload, Traces>,
    extractor: Extractor,
}

impl<'a> Machines<'a> {
    fn new(test: &'a LitmusTest, model: Consistency, offsets: &[u64], mutation: Mutation) -> Self {
        let lay = layout(test, test.nprocs());
        let proto = build(test, &lay, model, offsets, mutation, |_| Traces::default());
        Machines {
            test,
            model,
            offsets: offsets.to_vec(),
            scratch: proto.clone(),
            proto,
            extractor: Extractor::new(test),
            lay,
        }
    }

    /// Moves to another offset cell: recompiles the built machine's
    /// program for `offsets`. Nothing else depends on the offsets.
    fn enter(&mut self, offsets: &[u64]) {
        if self.offsets != offsets {
            self.proto
                .set_workload(compile(self.test, &self.lay, offsets));
            self.offsets = offsets.to_vec();
        }
    }

    /// Runs one interleaving to completion, recording its decisions in
    /// `decisions`, and extracts its outcome. A machine error (invariant
    /// violation, deadlock) becomes an `Err` run that keeps the decisions
    /// leading to it — the explorer stops and surfaces them as a
    /// replayable witness, which is how the seeded coherence mutation is
    /// caught.
    fn run(
        &mut self,
        sched: ReplayScheduler,
        decisions: &mut DecisionTrace,
    ) -> Result<Outcome, String> {
        let (result, traces) = self.scratch.rerun(&self.proto, Box::new(sched));
        // The two trace buffers trade places every run, so both keep
        // their storage.
        std::mem::swap(decisions, &mut traces.decisions);
        match result {
            Ok(()) => Ok(self
                .extractor
                .extract(&self.lay.var_addrs, &traces.accesses)),
            Err(e) => Err(format!(
                "litmus {} under {} with offsets {:?}: {e}",
                self.test.name, self.model, self.offsets
            )),
        }
    }
}

/// Replays one `(offsets, prefix)` witness of a verdict and returns what
/// the run ends in: the outcome, or the machine error it reproduces.
pub fn replay_witness(
    test: &LitmusTest,
    model: Consistency,
    offsets: &[u64],
    prefix: &[usize],
    mutation: Mutation,
) -> Result<Outcome, String> {
    let mut machines = Machines::new(test, model, offsets, mutation);
    let sched = ReplayScheduler::with_prefix(prefix.to_vec());
    machines.run(sched, &mut DecisionTrace::default())
}

/// Re-runs one witnessed interleaving with event logging on, for
/// counterexample rendering.
pub(crate) fn replay_with_log(
    test: &LitmusTest,
    model: Consistency,
    offsets: &[u64],
    prefix: &[usize],
    mutation: Mutation,
) -> EventLog {
    let lay = layout(test, test.nprocs());
    let log = |w: &ScriptWorkload| EventLog::new(w.processes(), w.sync_config());
    let (_, log) = build(test, &lay, model, offsets, mutation, log)
        .with_scheduler(Box::new(ReplayScheduler::with_prefix(prefix.to_vec())))
        .run_observed()
        .expect("witnessed interleaving replays");
    log
}

/// Explores every interleaving of one offset cell — exposed so the
/// corpus tests (and the stats report) can compare engines on identical
/// cells and assert that reduction loses no outcomes.
pub fn explore_cell(
    test: &LitmusTest,
    model: Consistency,
    offsets: &[u64],
    max_runs: u64,
    engine: Engine,
) -> Exploration {
    let mut machines = Machines::new(test, model, offsets, Mutation::None);
    explore(|sched, trace| machines.run(sched, trace), max_runs, engine)
}

/// Every offset vector of the sweep: `{0..=max}^nprocs`.
fn offset_grid(nprocs: usize, max: u64) -> Vec<Vec<u64>> {
    let mut grid = vec![vec![0; nprocs]];
    for p in 0..nprocs {
        grid = grid
            .into_iter()
            .flat_map(|v| {
                (0..=max).map(move |o| {
                    let mut v = v.clone();
                    v[p] = o;
                    v
                })
            })
            .collect();
    }
    grid
}

/// The machine-side result of verifying one `(test, model)` cell.
#[derive(Debug, Clone)]
pub struct LitmusVerdict {
    /// Corpus test name.
    pub test: String,
    /// The consistency model the machine ran under.
    pub model: Consistency,
    /// Outcomes the axiomatic reference admits.
    pub reference: OutcomeSet,
    /// Outcomes the machine produced across the whole exploration.
    pub machine: OutcomeSet,
    /// Machine runs performed (all offsets, all interleavings).
    pub runs: u64,
    /// Offset cells swept.
    pub cells: u64,
    /// True when the run budget stopped any cell early. A truncated
    /// verdict never passes.
    pub truncated: bool,
    /// Outcomes the machine produced that the reference forbids — memory
    /// -model violations.
    pub unsound: Vec<Outcome>,
    /// Reference-allowed outcomes the machine never produced. With the
    /// offset sweep these indicate a harness gap (or an over-strict
    /// machine) and fail the exact-match contract loudly rather than
    /// silently weakening it.
    pub missing: Vec<Outcome>,
    /// Reference-allowed outcomes the machine never produced that the
    /// corpus documents as machine-unreachable
    /// ([`LitmusTest::unreachable`]): waived from the completeness check
    /// but still reported, so the strictness stays visible.
    pub waived: Vec<Outcome>,
    /// Corpus-annotation failures (forbidden outcome seen / witness not
    /// reachable), phrased for reports.
    pub annotation_failures: Vec<String>,
    /// For each machine outcome, the `(offsets, prefix)` that first
    /// produced it — the replayable witness.
    pub witnesses: BTreeMap<Outcome, (Vec<u64>, Vec<usize>)>,
    /// The first machine error (invariant violation, deadlock) the sweep
    /// hit, with the `(offsets, prefix)` that reproduces it. Always fails
    /// the verdict; this is how the seeded coherence mutation shows up.
    pub machine_error: Option<(String, Vec<u64>, Vec<usize>)>,
    /// Runs whose canonical trace had already been explored, summed over
    /// all cells (the reduction-waste metric of the stats report).
    pub redundant: u64,
    /// Which seeded mutation (if any) the runs armed (regression tests
    /// only; requires the `verify-mutations` feature). Witness replays
    /// honour it so a counterexample reproduces the buggy interleaving.
    pub mutation: Mutation,
}

impl LitmusVerdict {
    /// True when the machine's outcome set exactly matches the axiomatic
    /// model, no run erred, and every corpus annotation held.
    pub fn passed(&self) -> bool {
        !self.truncated
            && self.machine_error.is_none()
            && self.unsound.is_empty()
            && self.missing.is_empty()
            && self.annotation_failures.is_empty()
    }

    /// One-line summary for suite listings.
    pub fn summary(&self) -> String {
        let waived = if self.waived.is_empty() {
            String::new()
        } else {
            format!("  ({} waived machine-unreachable)", self.waived.len())
        };
        format!(
            "{:8} {:3} {:5} runs {:4} cells  machine {} == reference {}{}",
            self.test,
            self.model.to_string(),
            self.runs,
            self.cells,
            format_set(&self.machine),
            format_set(&self.reference),
            waived,
        )
    }
}

/// Verifies one `(test, model)` cell: explores every interleaving in
/// every offset cell (with the default DPOR engine) and compares the
/// union against the axiomatic model.
pub fn verify_litmus(test: &LitmusTest, model: Consistency, max_runs: u64) -> LitmusVerdict {
    verify_litmus_opts(test, model, max_runs, Mutation::None, Engine::Dpor)
}

/// [`verify_litmus`] under an explicit exploration engine — how the stats
/// report measures DPOR against the sleep-set baseline on equal terms.
pub fn verify_litmus_engine(
    test: &LitmusTest,
    model: Consistency,
    max_runs: u64,
    engine: Engine,
) -> LitmusVerdict {
    verify_litmus_opts(test, model, max_runs, Mutation::None, engine)
}

/// [`verify_litmus`] with a seeded mutation armed — the regression path
/// proving the checker catches real consistency and coherence bugs with
/// replayable counterexamples.
#[cfg(feature = "verify-mutations")]
pub fn verify_litmus_mutated(
    test: &LitmusTest,
    model: Consistency,
    max_runs: u64,
    mutation: Mutation,
) -> LitmusVerdict {
    verify_litmus_opts(test, model, max_runs, mutation, Engine::Dpor)
}

fn verify_litmus_opts(
    test: &LitmusTest,
    model: Consistency,
    max_runs: u64,
    mutation: Mutation,
    engine: Engine,
) -> LitmusVerdict {
    let reference = axiomatic::allowed(test, model);
    let mut grid = offset_grid(test.nprocs(), test.max_offset);
    for cell in &test.extra_cells {
        if !grid.contains(cell) {
            grid.push(cell.clone());
        }
    }

    let mut machine = OutcomeSet::new();
    let mut witnesses: BTreeMap<Outcome, (Vec<u64>, Vec<usize>)> = BTreeMap::new();
    let mut runs = 0;
    let mut redundant = 0;
    let mut truncated = false;
    let mut machine_error = None;
    let mut machines = Machines::new(test, model, &grid[0], mutation);
    for offsets in &grid {
        let budget = max_runs.saturating_sub(runs);
        if budget == 0 {
            truncated = true;
            break;
        }
        let Exploration {
            outcomes,
            witnesses: cell_witnesses,
            runs: cell_runs,
            redundant: cell_redundant,
            truncated: cell_truncated,
            error,
        } = {
            machines.enter(offsets);
            explore(|sched, trace| machines.run(sched, trace), budget, engine)
        };
        runs += cell_runs;
        redundant += cell_redundant;
        truncated |= cell_truncated;
        machine.extend(outcomes);
        for (o, prefix) in cell_witnesses {
            witnesses
                .entry(o)
                .or_insert_with(|| (offsets.clone(), prefix));
        }
        if let Some((message, prefix)) = error {
            // The machine's state is wrong from here on; stop the sweep
            // and surface the replayable witness.
            machine_error = Some((message, offsets.clone(), prefix));
            break;
        }
    }

    let unsound: Vec<Outcome> = machine.difference(&reference).cloned().collect();
    let is_waivable = |o: &Outcome| {
        test.unreachable
            .iter()
            .any(|a| a.model == model && a.outcome == *o)
    };
    let (waived, missing): (Vec<Outcome>, Vec<Outcome>) = reference
        .difference(&machine)
        .cloned()
        .partition(is_waivable);

    let mut annotation_failures = Vec::new();
    // A stale waiver self-invalidates: an outcome documented as
    // machine-unreachable that the machine *does* produce means the
    // documented strictness no longer holds — fail so the corpus entry
    // gets re-examined instead of silently masking a behaviour change.
    for ann in test.unreachable.iter().filter(|a| a.model == model) {
        if machine.contains(&ann.outcome) {
            annotation_failures.push(format!(
                "outcome {} is documented machine-unreachable under {model} \
                 but the machine produced it — stale waiver, re-examine the \
                 corpus entry",
                test.format_outcome(&ann.outcome)
            ));
        }
    }
    for ann in test.forbidden.iter().filter(|a| a.model == model) {
        if machine.contains(&ann.outcome) {
            annotation_failures.push(format!(
                "forbidden outcome {} observed under {model}",
                test.format_outcome(&ann.outcome)
            ));
        }
    }
    for ann in test.witnesses.iter().filter(|a| a.model == model) {
        if !machine.contains(&ann.outcome) {
            annotation_failures.push(format!(
                "relaxation witness {} unreachable under {model} — \
                 the check would be vacuous",
                test.format_outcome(&ann.outcome)
            ));
        }
    }

    LitmusVerdict {
        test: test.name.to_string(),
        model,
        reference,
        machine,
        runs,
        cells: grid.len() as u64,
        truncated,
        unsound,
        missing,
        waived,
        annotation_failures,
        witnesses,
        machine_error,
        redundant,
        mutation,
    }
}

/// Checks the properly-labeled theorem on one PL test: the machine's RC
/// outcome set must equal its SC outcome set. Returns a failure message
/// when it does not.
pub fn check_properly_labeled(
    test: &LitmusTest,
    sc: &LitmusVerdict,
    rc: &LitmusVerdict,
) -> Option<String> {
    debug_assert!(test.properly_labeled);
    (sc.machine != rc.machine).then(|| {
        format!(
            "{}: properly-labeled program is not SC under RC — SC {} vs RC {}",
            test.name,
            format_set(&sc.machine),
            format_set(&rc.machine)
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::by_name;

    #[test]
    fn offset_grid_shape() {
        assert_eq!(offset_grid(2, 1).len(), 4);
        assert_eq!(offset_grid(3, 2).len(), 27);
        assert_eq!(offset_grid(2, 0), vec![vec![0, 0]]);
    }

    #[test]
    fn sb_machine_matches_reference_under_sc() {
        let t = by_name("sb").unwrap();
        let v = verify_litmus(&t, Consistency::Sc, DEFAULT_MAX_RUNS);
        assert!(v.passed(), "{v:?}");
        assert!(!v.machine.contains(&vec![0, 0]));
    }

    #[test]
    fn sb_machine_reaches_relaxation_under_rc() {
        let t = by_name("sb").unwrap();
        let v = verify_litmus(&t, Consistency::Rc, DEFAULT_MAX_RUNS);
        assert!(v.passed(), "{v:?}");
        assert!(v.machine.contains(&vec![0, 0]));
        // The witness replays deterministically.
        let (offsets, prefix) = &v.witnesses[&vec![0, 0]];
        let outcome = replay_witness(&t, Consistency::Rc, offsets, prefix, Mutation::None);
        assert_eq!(outcome, Ok(vec![0, 0]));
    }

    #[test]
    fn engines_agree_on_sb_under_rc() {
        let t = by_name("sb").unwrap();
        let dpor = verify_litmus_engine(&t, Consistency::Rc, DEFAULT_MAX_RUNS, Engine::Dpor);
        let sleep = verify_litmus_engine(&t, Consistency::Rc, DEFAULT_MAX_RUNS, Engine::Sleep);
        assert!(dpor.passed(), "{dpor:?}");
        assert!(sleep.passed(), "{sleep:?}");
        assert_eq!(dpor.machine, sleep.machine);
        assert!(
            dpor.runs <= sleep.runs,
            "dpor must not regress the sleep-set baseline ({} vs {})",
            dpor.runs,
            sleep.runs
        );
    }
}
