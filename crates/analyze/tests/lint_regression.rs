//! Regression: the static lint must re-catch the repo's original seed
//! bug — LU's final-column owner never releasing its ready-lock — and
//! the W→W unlabeled-conflict shape the `verify-mutations` harness
//! exercises, both without simulating a cycle.
//!
//! The seed bug is reintroduced as a fixture: extract the clean LU
//! program, then delete the owner's final `Release` — exactly the op
//! the original bug never emitted — and lint the mutated trace.

use dashlat_analyze::lint::{lint_trace, lint_workload, LintOptions};
use dashlat_cpu::extract::extract_program;
use dashlat_cpu::ops::{LockId, Op, ProcId, Topology};
use dashlat_cpu::trace::Trace;
use dashlat_mem::addr::Addr;
use dashlat_mem::layout::AddressSpaceBuilder;
use dashlat_workloads::{Lu, LuParams};

const NPROCS: usize = 8;

fn extract_lu() -> Trace {
    let topo = Topology::new(NPROCS, 1);
    let mut space = AddressSpaceBuilder::new(NPROCS);
    let w = Lu::new(LuParams::test_scale(), topo, &mut space, false);
    let ext = extract_program(&w).expect("lu extracts");
    assert!(ext.is_clean(), "clean LU must extract cleanly");
    ext.trace
}

/// Drops the last `Release(lock)` from the stream of the column's
/// owner — the produce-release that signals "column ready" — and
/// returns the owner.
fn drop_owner_release(trace: &mut Trace, lock: LockId) -> ProcId {
    let owner = lock.0 % trace.streams.len();
    let stream = &mut trace.streams[owner];
    let at = stream
        .iter()
        .rposition(|op| matches!(op, Op::Release(l) if *l == lock))
        .unwrap_or_else(|| panic!("owner P{owner} never releases lock {}", lock.0));
    stream.remove(at);
    ProcId(owner)
}

#[test]
fn seed_lu_unreleased_ready_lock_is_caught_statically() {
    let mut trace = extract_lu();
    let n = trace.sync.lock_addrs.len(); // one ready-lock per column
    let final_lock = LockId(n - 1);
    let owner = drop_owner_release(&mut trace, final_lock);
    assert_eq!(owner.0, (n - 1) % NPROCS, "final column's owner");

    let r = lint_trace(
        "lu-seed-bug",
        &trace,
        Vec::new(),
        false,
        &LintOptions::default(),
    );
    assert!(r.is_critical(), "{}", r.render());
    let u = r
        .deadlock
        .unreleased
        .iter()
        .find(|u| u.lock == final_lock)
        .expect("unreleased ready-lock flagged");
    assert_eq!(u.pid, owner);
    assert!(r.render().contains("never releases lock"), "{}", r.render());
}

#[test]
fn dropped_mid_pipeline_release_is_a_definite_deadlock() {
    // Dropping a *consumed* column's release leaves the pivot waiters
    // blocked forever: the lint must name them.
    let mut trace = extract_lu();
    let victim = LockId(1);
    let owner = drop_owner_release(&mut trace, victim);

    let r = lint_trace(
        "lu-mid-drop",
        &trace,
        Vec::new(),
        false,
        &LintOptions::default(),
    );
    assert!(r.is_critical());
    let u = r
        .deadlock
        .unreleased
        .iter()
        .find(|u| u.lock == victim)
        .expect("unreleased pivot lock flagged");
    assert_eq!(u.pid, owner);
    assert!(
        !u.waiters.is_empty(),
        "pivot waiters must be reported: {}",
        r.render()
    );
    // With the release gone, the forced order from the producer's column
    // writes to the consumers' reads evaporates too: the labeling pass
    // must now see statically possible races on that column.
    assert!(!r.labeling.properly_labeled(), "{}", r.render());
}

#[test]
fn ww_conflict_without_labels_fails_statically() {
    // The verify-mutations W→W shape: two processes write the same
    // line with no ordering sync and no label — the exact conflict the
    // store-buffer litmus family exists to expose.
    use dashlat_cpu::script::ScriptWorkload;
    let w = ScriptWorkload::new(vec![
        vec![Op::Write(Addr(0x40)), Op::Read(Addr(0x50)), Op::Done],
        vec![Op::Write(Addr(0x50)), Op::Read(Addr(0x40)), Op::Done],
    ]);
    let r = lint_workload("ww", &w, &LintOptions::default()).expect("lints");
    assert!(r.is_critical());
    assert_eq!(r.labeling.under_labeled_addrs.len(), 2);
}

#[test]
fn fixture_mutation_only_affects_the_dropped_lock() {
    // Sanity: the mutated program is otherwise intact — the lint blames
    // exactly one lock, and the clean trace lints clean.
    let clean = extract_lu();
    let r = lint_trace(
        "lu-clean",
        &clean,
        Vec::new(),
        false,
        &LintOptions::default(),
    );
    assert!(!r.is_critical(), "{}", r.render());

    let mut mutated = clean;
    let n = mutated.sync.lock_addrs.len();
    drop_owner_release(&mut mutated, LockId(n - 1));
    let r = lint_trace(
        "lu-seed-bug",
        &mutated,
        Vec::new(),
        false,
        &LintOptions::default(),
    );
    assert_eq!(r.deadlock.unreleased.len(), 1);
    assert!(r.deadlock.bad_releases.is_empty());
    assert!(r.barriers.divergence.is_none());
}
