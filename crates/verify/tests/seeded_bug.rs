//! Regression: the verifier must *catch* deliberately seeded bugs, not
//! just bless a correct machine. The `verify-mutations` feature arms two
//! mutations:
//!
//! * `Mutation::WriteReorder` — the write-buffer service path retires the
//!   second buffered write before the head, breaking W→W program order to
//!   different addresses. Shows up as a forbidden litmus outcome.
//! * `Mutation::DropInval` — the home memory drops the invalidation to
//!   the last sharer on an exclusive request, leaving a stale copy
//!   behind. Shows up as a coherence-invariant machine error (and as a
//!   protocol-closure violation, tested in the `protocol` module).
#![cfg(feature = "verify-mutations")]

use dashlat_cpu::config::Consistency;
use dashlat_verify::counterexample;
use dashlat_verify::harness::{replay_witness, verify_litmus_mutated, Mutation};
use dashlat_verify::litmus::by_name;
use dashlat_verify::DEFAULT_MAX_RUNS;

/// MP under RC: with the seeded W→W reorder, the flag write (second
/// buffer entry) can retire before the data write (head), so the
/// consumer observes `r0 = 1` (flag set) with `r1 = 0` (stale data) —
/// an outcome the axiomatic RC model forbids because both writes sit in
/// one processor's FIFO buffer.
///
/// MP is the right probe: the two writes target *different* addresses.
/// A same-address swap (`CoWW`) is invisible to the outcome extraction,
/// which assigns values to same-address writes in program-FIFO order.
#[test]
fn seeded_write_reorder_is_caught_on_mp_under_rc() {
    let test = by_name("mp").unwrap();
    let v = verify_litmus_mutated(
        &test,
        Consistency::Rc,
        DEFAULT_MAX_RUNS,
        Mutation::WriteReorder,
    );
    assert!(!v.passed(), "seeded relaxation bug went undetected");
    assert!(
        v.unsound.contains(&vec![1, 0]),
        "expected the forbidden (r0=1, r1=0) outcome, got unsound = {:?}",
        v.unsound
    );

    let cex = counterexample(&test, &v).expect("unsound verdict must render a counterexample");
    assert_eq!(cex.outcome, vec![1, 0]);
    assert!(
        cex.rendered.contains("MEMORY-MODEL VIOLATION: mp under RC"),
        "{}",
        cex.rendered
    );
    assert!(cex.rendered.contains("axiom:"), "{}", cex.rendered);
    assert!(
        cex.rendered.contains("per-processor commit timeline"),
        "{}",
        cex.rendered
    );
    // The replayed timeline actually shows both processors doing work.
    assert!(cex.rendered.contains("P0"), "{}", cex.rendered);
    assert!(cex.rendered.contains("P1"), "{}", cex.rendered);
}

/// The same seeded machine still passes SC cells: with no write buffer,
/// the mutated service path never runs, so the bug is RC-specific —
/// exactly the shape of real relaxation bugs this suite exists to catch.
#[test]
fn seeded_bug_is_invisible_under_sc() {
    let test = by_name("mp").unwrap();
    let v = verify_litmus_mutated(
        &test,
        Consistency::Sc,
        DEFAULT_MAX_RUNS,
        Mutation::WriteReorder,
    );
    assert!(
        v.passed(),
        "SC has no write buffer; the seeded mutation must be dormant"
    );
}

/// CoRR with the dropped-invalidation mutation: once P1 holds a shared
/// copy of `x`, P0's write fetches the line exclusively and the home
/// skips P1's invalidation — the directory says `Dirty(P0)` while P1
/// still caches the line. The machine's online invariant checker trips
/// (cache/directory disagreement or SWMR), and the explorer surfaces it
/// as a machine error with a replayable `(offsets, prefix)` witness.
#[test]
fn seeded_dropped_invalidation_is_caught_as_a_machine_error() {
    let test = by_name("corr").unwrap();
    let v = verify_litmus_mutated(
        &test,
        Consistency::Sc,
        DEFAULT_MAX_RUNS,
        Mutation::DropInval,
    );
    assert!(!v.passed(), "dropped invalidation went undetected");
    let (message, offsets, prefix) = v
        .machine_error
        .as_ref()
        .expect("dropped invalidation must surface as a machine error");
    assert!(
        message.contains("corr"),
        "error message names the test: {message}"
    );
    assert_eq!(offsets.len(), test.nprocs());
    // The witness is the erring run's every choice up to the error, so it
    // replays to the same machine error.
    let replayed = replay_witness(&test, Consistency::Sc, offsets, prefix, v.mutation);
    assert_eq!(replayed, Err(message.clone()));
    assert_eq!(v.mutation, Mutation::DropInval);
}

/// The healthy machine still passes with the feature compiled in but no
/// mutation armed — the cfg gates must default off.
#[test]
fn mutations_default_off_under_the_feature() {
    let test = by_name("corr").unwrap();
    let v = verify_litmus_mutated(&test, Consistency::Sc, DEFAULT_MAX_RUNS, Mutation::None);
    assert!(v.passed(), "unmutated machine must stay green");
}
