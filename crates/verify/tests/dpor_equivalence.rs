//! The DPOR equivalence oracle: dynamic partial-order reduction must be
//! a pure *run* optimisation — on any program, it produces exactly the
//! outcome set of the retained sleep-set explorer (itself validated
//! against full enumeration in `litmus.rs`), just in fewer runs.
//!
//! Random small litmus programs (writes, reads, and RMWs over two
//! variables) probe the algorithm where hand-written corpus tests can't:
//! accidental independence patterns, same-address RMW chains, degenerate
//! all-read programs.

use dashlat_cpu::config::Consistency;
use dashlat_verify::harness::explore_cell;
use dashlat_verify::litmus::{by_name, LOp, LitmusTest};
use dashlat_verify::outcome::format_set;
use dashlat_verify::{verify_litmus_engine, Engine, DEFAULT_MAX_RUNS};
use proptest::prelude::*;

use Consistency::{Pc, Rc, Sc, Wc};

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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On arbitrary 2- and 3-processor programs over 2 variables —
    /// including RMWs — the DPOR engine's outcome set equals the
    /// sleep-set engine's at both the lockstep cell and a shifted cell,
    /// and never takes more runs. Three processors make the
    /// sleep-blocked states where DPOR stops growing the tree common.
    #[test]
    fn dpor_matches_sleep_sets_on_random_programs(
        raw in proptest::collection::vec(
            proptest::collection::vec((0usize..5, 0usize..2), 1..4),
            2..4,
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
                        2 | 3 => LOp::R(var),
                        _ => LOp::Rmw(var, (p * 10 + i + 1) as u64),
                    })
                    .collect()
            })
            .collect();
        let t = random_test(programs);
        let lockstep = vec![0; t.nprocs()];
        let mut shifted = lockstep.clone();
        shifted[1] = 1;
        for model in [Sc, Rc] {
            for offsets in [lockstep.clone(), shifted.clone()] {
                let dpor = explore_cell(&t, model, &offsets, DEFAULT_MAX_RUNS, Engine::Dpor);
                let sleep = explore_cell(&t, model, &offsets, DEFAULT_MAX_RUNS, Engine::Sleep);
                prop_assert!(!dpor.truncated && !sleep.truncated);
                prop_assert!(
                    dpor.outcomes == sleep.outcomes,
                    "{model} offsets {offsets:?}: dpor {} != sleep {} on {:?}",
                    format_set(&dpor.outcomes),
                    format_set(&sleep.outcomes),
                    t.programs,
                );
                prop_assert!(
                    dpor.runs <= sleep.runs,
                    "{model}: dpor took more runs ({} > {})",
                    dpor.runs,
                    sleep.runs
                );
            }
        }
    }
}

/// The headline reduction claim, pinned as a regression: on corpus cells
/// with real concurrency (the RMW-fenced store buffer and the forwarding
/// variant under RC), DPOR explores at least 10× fewer interleavings
/// than the sleep-set baseline while producing the identical verdict.
#[test]
fn dpor_reduces_runs_at_least_tenfold_on_corpus_cells() {
    for name in ["rmw_fence", "sb_fwd"] {
        let t = by_name(name).unwrap();
        let dpor = verify_litmus_engine(&t, Rc, DEFAULT_MAX_RUNS, Engine::Dpor);
        let sleep = verify_litmus_engine(&t, Rc, DEFAULT_MAX_RUNS, Engine::Sleep);
        assert!(dpor.passed(), "{name}: dpor verdict failed");
        assert!(sleep.passed(), "{name}: sleep verdict failed");
        assert_eq!(dpor.machine, sleep.machine, "{name}: engines disagree");
        assert!(
            dpor.runs * 10 <= sleep.runs,
            "{name}: expected >=10x reduction, got {} vs {}",
            dpor.runs,
            sleep.runs
        );
    }
}

/// Redundancy accounting is live: on a cell with commuting accesses the
/// DPOR engine reports Foata-fingerprint dedup hits, and the counter
/// never exceeds the run total.
#[test]
fn redundancy_metric_is_populated() {
    let t = by_name("sb4").unwrap();
    let v = verify_litmus_engine(&t, Sc, DEFAULT_MAX_RUNS, Engine::Dpor);
    assert!(v.passed(), "sb4 under SC must pass");
    assert!(
        v.redundant > 0,
        "disjoint store-buffer pairs must produce equivalent traces"
    );
    assert!(v.redundant <= v.runs);
}

/// The sleep-guided suffix, pinned as a regression: past its replayed
/// prefix a run takes an awake alternative whenever one exists, so on the
/// cells where a FIFO suffix mostly re-ran explored traces (92,736 runs on
/// `wc_acq` under WC and 9,122 on `sb4` under PC) DPOR needs at most half
/// as many runs for the same verdict.
#[test]
fn sleep_guided_suffix_halves_the_costliest_cells() {
    for (name, model, fifo_runs) in [("wc_acq", Wc, 92_736), ("sb4", Pc, 9_122)] {
        let t = by_name(name).unwrap();
        let v = verify_litmus_engine(&t, model, DEFAULT_MAX_RUNS, Engine::Dpor);
        assert!(v.passed(), "{name} under {model} must pass");
        assert!(
            v.runs * 2 <= fifo_runs,
            "{name} under {model}: {} runs, ceiling {}",
            v.runs,
            fifo_runs / 2
        );
    }
}

/// Sleep-blocked states end the search, pinned as a regression: DPOR
/// grows no tree below a decision whose whole slate is asleep, so it no
/// longer branches inside subtrees that only repeat a sleeping sibling's
/// traces. Growing the tree below them took 30,384 runs (19,824 of them
/// redundant) on `wc_acq` under WC and 3,325 on `sb4` under PC.
#[test]
fn sleep_blocked_states_end_the_search() {
    for (name, model, max_runs, max_redundant) in
        [("wc_acq", Wc, 12_000, Some(1_100)), ("sb4", Pc, 900, None)]
    {
        let t = by_name(name).unwrap();
        let v = verify_litmus_engine(&t, model, DEFAULT_MAX_RUNS, Engine::Dpor);
        assert!(v.passed(), "{name} under {model} must pass");
        assert!(
            v.runs <= max_runs,
            "{name} under {model}: {} runs, ceiling {max_runs}",
            v.runs
        );
        if let Some(max) = max_redundant {
            assert!(
                v.redundant <= max,
                "{name} under {model}: {} redundant runs, ceiling {max}",
                v.redundant
            );
        }
    }
}
