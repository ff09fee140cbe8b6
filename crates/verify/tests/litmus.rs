//! The litmus corpus, exhaustively: snapshot per `(test, model)` cell,
//! the properly-labeled equivalence theorem, sleep-set soundness, the
//! scheduler-seam identity, and a property test that random programs
//! never escape the axiomatic allowed set.

use dashlat_cpu::config::Consistency;
use dashlat_verify::harness::explore_cell;
use dashlat_verify::litmus::{by_name, corpus, LOp, LitmusTest};
use dashlat_verify::outcome::format_set;
use dashlat_verify::{
    axiomatic, verify_litmus, verify_suite, Engine, ALL_MODELS, DEFAULT_MAX_RUNS,
};
use proptest::prelude::*;

use Consistency::{Rc, Sc};

/// Snapshot of every corpus cell under the paper's two endpoint models:
/// `(test, model, machine set, reference set)`. The two sets differ only
/// where the corpus documents a machine-unreachable waiver
/// ([`LitmusTest::unreachable`]) — everywhere else the exact-match
/// contract pins them equal. A change to the machine, the harness, or
/// the reference that shifts any set shows up here as a readable diff.
const SNAPSHOTS: &[(&str, Consistency, &str, &str)] = &[
    ("sb", Sc, "{(0,1), (1,0), (1,1)}", "{(0,1), (1,0), (1,1)}"),
    (
        "sb",
        Rc,
        "{(0,0), (0,1), (1,0), (1,1)}",
        "{(0,0), (0,1), (1,0), (1,1)}",
    ),
    ("mp", Sc, "{(0,0), (0,1), (1,1)}", "{(0,0), (0,1), (1,1)}"),
    ("mp", Rc, "{(0,0), (0,1), (1,1)}", "{(0,0), (0,1), (1,1)}"),
    ("lb", Sc, "{(0,0), (0,1), (1,0)}", "{(0,0), (0,1), (1,0)}"),
    ("lb", Rc, "{(0,0), (0,1), (1,0)}", "{(0,0), (0,1), (1,0)}"),
    (
        "iriw",
        Sc,
        "{(0,0,0,0), (0,0,0,1), (0,0,1,0), (0,0,1,1), (0,1,0,0), (0,1,0,1), \
         (0,1,1,0), (0,1,1,1), (1,0,0,0), (1,0,0,1), (1,0,1,1), (1,1,0,0), \
         (1,1,0,1), (1,1,1,0), (1,1,1,1)}",
        "{(0,0,0,0), (0,0,0,1), (0,0,1,0), (0,0,1,1), (0,1,0,0), (0,1,0,1), \
         (0,1,1,0), (0,1,1,1), (1,0,0,0), (1,0,0,1), (1,0,1,1), (1,1,0,0), \
         (1,1,0,1), (1,1,1,0), (1,1,1,1)}",
    ),
    (
        "iriw",
        Rc,
        "{(0,0,0,0), (0,0,0,1), (0,0,1,0), (0,0,1,1), (0,1,0,0), (0,1,0,1), \
         (0,1,1,0), (0,1,1,1), (1,0,0,0), (1,0,0,1), (1,0,1,1), (1,1,0,0), \
         (1,1,0,1), (1,1,1,0), (1,1,1,1)}",
        "{(0,0,0,0), (0,0,0,1), (0,0,1,0), (0,0,1,1), (0,1,0,0), (0,1,0,1), \
         (0,1,1,0), (0,1,1,1), (1,0,0,0), (1,0,0,1), (1,0,1,1), (1,1,0,0), \
         (1,1,0,1), (1,1,1,0), (1,1,1,1)}",
    ),
    ("corr", Sc, "{(0,0), (0,1), (1,1)}", "{(0,0), (0,1), (1,1)}"),
    ("corr", Rc, "{(0,0), (0,1), (1,1)}", "{(0,0), (0,1), (1,1)}"),
    (
        "coww",
        Sc,
        "{(0,0), (0,1), (0,2), (1,1), (1,2), (2,2)}",
        "{(0,0), (0,1), (0,2), (1,1), (1,2), (2,2)}",
    ),
    (
        "coww",
        Rc,
        "{(0,0), (0,1), (0,2), (1,1), (1,2), (2,2)}",
        "{(0,0), (0,1), (0,2), (1,1), (1,2), (2,2)}",
    ),
    ("mp_pl", Sc, "{(0,0), (1,1)}", "{(0,0), (1,1)}"),
    ("mp_pl", Rc, "{(0,0), (1,1)}", "{(0,0), (1,1)}"),
    ("sb_pl", Sc, "{(0,1), (1,0)}", "{(0,1), (1,0)}"),
    ("sb_pl", Rc, "{(0,1), (1,0)}", "{(0,1), (1,0)}"),
    (
        "sb_rel",
        Sc,
        "{(0,1), (1,0), (1,1)}",
        "{(0,1), (1,0), (1,1)}",
    ),
    // (0,0) is RC-allowed but machine-unreachable (eager write-buffer
    // drain); the waiver keeps the verdict green while reporting it.
    (
        "sb_rel",
        Rc,
        "{(0,1), (1,0), (1,1)}",
        "{(0,0), (0,1), (1,0), (1,1)}",
    ),
    (
        "wc_acq",
        Sc,
        "{(0,1), (1,0), (1,1)}",
        "{(0,1), (1,0), (1,1)}",
    ),
    (
        "wc_acq",
        Rc,
        "{(0,1), (1,0), (1,1)}",
        "{(0,0), (0,1), (1,0), (1,1)}",
    ),
    (
        "sb_fwd",
        Sc,
        "{(1,0,1,1), (1,1,1,0), (1,1,1,1)}",
        "{(1,0,1,1), (1,1,1,0), (1,1,1,1)}",
    ),
    // (1,0,1,0) — both cross reads stale with own reads forwarded — is
    // RC-allowed but machine-unreachable (eager write-buffer drain); the
    // corpus waives it.
    (
        "sb_fwd",
        Rc,
        "{(1,0,1,1), (1,1,1,0), (1,1,1,1)}",
        "{(1,0,1,0), (1,0,1,1), (1,1,1,0), (1,1,1,1)}",
    ),
    (
        "sb_rmw",
        Sc,
        "{(0,0,0,1), (0,1,0,0), (0,1,0,1)}",
        "{(0,0,0,1), (0,1,0,0), (0,1,0,1)}",
    ),
    // The RMW fence makes SB sequentially consistent even under RC:
    // (0,0,0,0) never appears in either set.
    (
        "sb_rmw",
        Rc,
        "{(0,0,0,1), (0,1,0,0), (0,1,0,1)}",
        "{(0,0,0,1), (0,1,0,0), (0,1,0,1)}",
    ),
    ("rmw_atom", Sc, "{(0,1), (2,0)}", "{(0,1), (2,0)}"),
    ("rmw_atom", Rc, "{(0,1), (2,0)}", "{(0,1), (2,0)}"),
    (
        "rmw_fence",
        Sc,
        "{(0,0,0,1), (0,1,0,0), (0,1,0,1)}",
        "{(0,0,0,1), (0,1,0,0), (0,1,0,1)}",
    ),
    (
        "rmw_fence",
        Rc,
        "{(0,0,0,1), (0,1,0,0), (0,1,0,1)}",
        "{(0,0,0,1), (0,1,0,0), (0,1,0,1)}",
    ),
    (
        "mp_rmw",
        Sc,
        "{(0,0,0), (0,0,1), (0,1,1)}",
        "{(0,0,0), (0,0,1), (0,1,1)}",
    ),
    (
        "mp_rmw",
        Rc,
        "{(0,0,0), (0,0,1), (0,1,1)}",
        "{(0,0,0), (0,0,1), (0,1,1)}",
    ),
    // The lazy-write-back variants must be value-invisible: identical
    // sets to their eager counterparts (mp, sb, coww above).
    (
        "mp_lazy",
        Sc,
        "{(0,0), (0,1), (1,1)}",
        "{(0,0), (0,1), (1,1)}",
    ),
    (
        "mp_lazy",
        Rc,
        "{(0,0), (0,1), (1,1)}",
        "{(0,0), (0,1), (1,1)}",
    ),
    (
        "sb_lazy",
        Sc,
        "{(0,1), (1,0), (1,1)}",
        "{(0,1), (1,0), (1,1)}",
    ),
    (
        "sb_lazy",
        Rc,
        "{(0,0), (0,1), (1,0), (1,1)}",
        "{(0,0), (0,1), (1,0), (1,1)}",
    ),
    (
        "coww_lazy",
        Sc,
        "{(0,0), (0,1), (0,2), (1,1), (1,2), (2,2)}",
        "{(0,0), (0,1), (0,2), (1,1), (1,2), (2,2)}",
    ),
    (
        "coww_lazy",
        Rc,
        "{(0,0), (0,1), (0,2), (1,1), (1,2), (2,2)}",
        "{(0,0), (0,1), (0,2), (1,1), (1,2), (2,2)}",
    ),
    (
        "sb4",
        Sc,
        "{(0,1,0,1), (0,1,1,0), (0,1,1,1), (1,0,0,1), (1,0,1,0), (1,0,1,1), \
         (1,1,0,1), (1,1,1,0), (1,1,1,1)}",
        "{(0,1,0,1), (0,1,1,0), (0,1,1,1), (1,0,0,1), (1,0,1,0), (1,0,1,1), \
         (1,1,0,1), (1,1,1,0), (1,1,1,1)}",
    ),
    (
        "sb4",
        Rc,
        "{(0,0,0,0), (0,0,0,1), (0,0,1,0), (0,0,1,1), (0,1,0,0), (0,1,0,1), \
         (0,1,1,0), (0,1,1,1), (1,0,0,0), (1,0,0,1), (1,0,1,0), (1,0,1,1), \
         (1,1,0,0), (1,1,0,1), (1,1,1,0), (1,1,1,1)}",
        "{(0,0,0,0), (0,0,0,1), (0,0,1,0), (0,0,1,1), (0,1,0,0), (0,1,0,1), \
         (0,1,1,0), (0,1,1,1), (1,0,0,0), (1,0,0,1), (1,0,1,0), (1,0,1,1), \
         (1,1,0,0), (1,1,0,1), (1,1,1,0), (1,1,1,1)}",
    ),
];

#[test]
fn snapshots_cover_the_whole_corpus() {
    for t in corpus() {
        for m in [Sc, Rc] {
            assert!(
                SNAPSHOTS
                    .iter()
                    .any(|&(n, sm, _, _)| n == t.name && sm == m),
                "corpus test {} has no {m} snapshot — add one",
                t.name
            );
        }
    }
}

/// Verifies every snapshot cell whose name passes `pick`. Split across
/// several `#[test]`s so the expensive cells explore on parallel test
/// threads instead of serially.
fn check_snapshots(pick: impl Fn(&str) -> bool) {
    for &(name, model, machine, reference) in SNAPSHOTS {
        if !pick(name) {
            continue;
        }
        let t = by_name(name).expect(name);
        let v = verify_litmus(&t, model, DEFAULT_MAX_RUNS);
        assert!(
            v.passed(),
            "{name} under {model} failed:\n{}",
            dashlat_verify::report::render_verdict(&t, &v)
        );
        assert_eq!(
            format_set(&v.machine),
            machine,
            "{name} under {model}: machine set drifted from snapshot"
        );
        assert_eq!(
            format_set(&v.reference),
            reference,
            "{name} under {model}: axiomatic set drifted from snapshot"
        );
    }
}

const NEW_CORPUS: &[&str] = &[
    "sb_fwd",
    "sb_rmw",
    "rmw_atom",
    "rmw_fence",
    "mp_rmw",
    "mp_lazy",
    "sb_lazy",
    "coww_lazy",
    "sb4",
];

#[test]
fn machine_outcome_sets_match_snapshots_two_proc() {
    check_snapshots(|n| !matches!(n, "iriw" | "sb_rel" | "wc_acq") && !NEW_CORPUS.contains(&n));
}

#[test]
fn machine_outcome_sets_match_snapshots_new_corpus() {
    check_snapshots(|n| NEW_CORPUS.contains(&n));
}

#[test]
fn machine_outcome_sets_match_snapshots_waived() {
    check_snapshots(|n| matches!(n, "sb_rel" | "wc_acq"));
}

#[test]
fn machine_outcome_sets_match_snapshots_iriw() {
    check_snapshots(|n| n == "iriw");
}

#[test]
fn suite_passes_under_all_models_on_subset() {
    // ALL_MODELS over a cheap corpus subset, plus both directory-protocol
    // closures. The full corpus × ALL_MODELS product runs in the
    // release-mode CI `verify-model --all` job; the full corpus × {SC,RC}
    // product is the snapshot tests above.
    let tests: Vec<String> = ["sb", "mp", "mp_pl"]
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let suite = verify_suite(&ALL_MODELS, &tests, 0);
    assert!(suite.passed(), "{}", suite.render());
    assert_eq!(suite.verdicts.len(), tests.len() * ALL_MODELS.len());
    // The suite includes the protocol closures (eager small + wide plus
    // the lazy small variant) and reports them.
    assert_eq!(suite.protocol.len(), 3);
    let rendered = suite.render();
    assert!(rendered.contains("full closure"), "{rendered}");
}

#[test]
fn reduction_engines_lose_no_outcomes() {
    // The unreduced search is the ground truth; sleep sets and DPOR may
    // only prune runs, never outcomes. Checked at the most adversarial
    // cell (all processors in lockstep, offset 0) plus one shifted cell.
    // sb_rel is excluded: its unreduced search at the shifted cell blows
    // the budget without adding coverage beyond what sb/mp exercise.
    for name in ["sb", "mp", "lb", "corr", "coww"] {
        let t = by_name(name).unwrap();
        for model in [Sc, Rc] {
            for offsets in [vec![0; t.nprocs()], vec![1; t.nprocs()]] {
                let full = explore_cell(&t, model, &offsets, DEFAULT_MAX_RUNS, Engine::Full);
                assert!(!full.truncated, "{name} {model}");
                for engine in [Engine::Sleep, Engine::Dpor] {
                    let reduced = explore_cell(&t, model, &offsets, DEFAULT_MAX_RUNS, engine);
                    assert!(!reduced.truncated, "{name} {model} {engine}");
                    assert_eq!(
                        reduced.outcomes, full.outcomes,
                        "{name} under {model} offsets {offsets:?}: {engine} \
                         changed the outcome set"
                    );
                    assert!(
                        reduced.runs <= full.runs,
                        "{name} under {model}: {engine} ran more ({} > {})",
                        reduced.runs,
                        full.runs
                    );
                }
            }
        }
    }
}

#[test]
fn fifo_scheduler_is_the_identity_seam() {
    // The whole exploration rests on the scheduler seam being a pure
    // refactor: a machine driven by `FifoScheduler` (always alternative
    // 0) must behave identically to one with no scheduler installed.
    // Compare the full coherence-order access traces on a real test.
    use dashlat_cpu::config::ProcConfig;
    use dashlat_cpu::machine::Machine;
    use dashlat_cpu::ops::Topology;
    use dashlat_mem::system::MemorySystem;
    use dashlat_mem::AccessRecord;
    use dashlat_mem::{LatencyTable, MemConfig};
    use dashlat_sim::{Cycle, FifoScheduler};
    use dashlat_verify::workload::{compile, layout};

    let t = by_name("sb").unwrap();
    let lay = layout(&t, t.nprocs());
    let run = |with_sched: bool| {
        let mut cfg = ProcConfig::rc_baseline();
        cfg.no_switch_threshold = Cycle(1 << 40);
        cfg.write_issue_spacing = Cycle(1);
        let mem = MemorySystem::new(
            MemConfig {
                latencies: LatencyTable::uniform(Cycle(1)),
                contention: false,
                ..MemConfig::dash_scaled(t.nprocs())
            },
            lay.page_map.clone(),
        );
        let workload = compile(&t, &lay, &[0, 0]);
        let mut m = Machine::observed(
            cfg,
            Topology::new(t.nprocs(), 1),
            mem,
            workload,
            Vec::<AccessRecord>::new(),
        );
        if with_sched {
            m = m.with_scheduler(Box::new(FifoScheduler));
        }
        m.run_observed().expect("sb must terminate")
    };
    let (plain, plain_accesses) = run(false);
    let (fifo, fifo_accesses) = run(true);
    assert_eq!(
        plain_accesses, fifo_accesses,
        "FifoScheduler diverged from the scheduler-free machine"
    );
    assert_eq!(plain.elapsed, fifo.elapsed);
}

fn random_test(programs: Vec<Vec<LOp>>) -> LitmusTest {
    LitmusTest {
        name: "random",
        description: "property-generated program",
        programs,
        nvars: 2,
        nlocks: 0,
        properly_labeled: false,
        forbidden: vec![],
        witnesses: vec![],
        unreachable: vec![],
        lazy_writeback: false,
        extra_cells: vec![],
        max_offset: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness on arbitrary programs: whatever a random 2-processor /
    /// 2-variable program does, the machine never produces an outcome
    /// outside the axiomatic allowed set — under SC *or* RC. (The
    /// completeness half of the contract is only asserted on the curated
    /// corpus, whose offset budgets are tuned; here incompleteness is
    /// fine, unsoundness never.)
    #[test]
    fn random_programs_stay_inside_the_axiomatic_set(
        raw in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 0usize..2), 1..4),
            2..3,
        )
    ) {
        let programs: Vec<Vec<LOp>> = raw
            .iter()
            .enumerate()
            .map(|(p, ops)| {
                ops.iter()
                    .enumerate()
                    .map(|(i, &(kind, var))| match kind {
                        // Distinct non-zero values per write site.
                        0 | 1 => LOp::W(var, (p * 10 + i + 1) as u64),
                        _ => LOp::R(var),
                    })
                    .collect()
            })
            .collect();
        let t = random_test(programs);
        for model in [Sc, Rc] {
            let v = verify_litmus(&t, model, DEFAULT_MAX_RUNS);
            prop_assert!(!v.truncated, "truncated under {model}");
            prop_assert!(
                v.unsound.is_empty(),
                "machine escaped the axiomatic {model} set: {:?} not in {}",
                v.unsound,
                format_set(&v.reference)
            );
        }
    }
}

#[test]
fn axiomatic_reference_is_sane_on_random_shapes() {
    // Degenerate programs: all-reads sees only zeros; all-writes has the
    // empty outcome.
    let t = random_test(vec![vec![LOp::R(0), LOp::R(1)], vec![LOp::R(1)]]);
    let a = axiomatic::allowed(&t, Rc);
    assert_eq!(a.len(), 1);
    assert!(a.contains(&vec![0, 0, 0]));
    let t = random_test(vec![vec![LOp::W(0, 1)], vec![LOp::W(1, 2)]]);
    let a = axiomatic::allowed(&t, Sc);
    assert_eq!(a.len(), 1);
    assert!(a.contains(&Vec::new()));
}
