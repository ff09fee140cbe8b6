//! The analysis kill matrix: which checker catches which planted sync or
//! labeling bug.
//!
//! Rows are programs. Three are LU at test scale with 8 processes,
//! extracted and then mutated the way `lint_regression.rs` does it; the
//! others are small scripted programs for the bug shapes LU cannot show.
//! Columns are the checkers that certify the paper's properly-labeled
//! precondition:
//!
//! * `hb` — the dynamic happens-before pass reports a race on the
//!   program's replay;
//! * `note` — the replay forced a lock grant or a barrier release, or saw
//!   a bad release;
//! * `static-cycle`, `static-unreleased`, `static-bad-release`,
//!   `static-barrier`, `static-labeling` — the static lint's critical
//!   findings, by kind;
//! * `wrong-mode` — the static prefetch lint's advisory wrong-mode count.
//!
//! Every planted row must be caught exactly by its listed columns, with
//! the listed kinds of replay note, and the control row by none; the
//! dynamic verdict must be "no `hb` race and no replay note".

use dashlat_analyze::analyze;
use dashlat_analyze::lint::{lint_trace, LintOptions};
use dashlat_cpu::events::{events_from_trace, ReplayNote};
use dashlat_cpu::extract::extract_program;
use dashlat_cpu::ops::{BarrierId, LockId, Op, SyncConfig, Topology};
use dashlat_cpu::trace::Trace;
use dashlat_mem::addr::Addr;
use dashlat_mem::layout::AddressSpaceBuilder;
use dashlat_workloads::{Lu, LuParams};

const NPROCS: usize = 8;
const X: Addr = Addr(0x40);
const Y: Addr = Addr(0x80);

fn extract_lu() -> Trace {
    let topo = Topology::new(NPROCS, 1);
    let mut space = AddressSpaceBuilder::new(NPROCS);
    let w = Lu::new(LuParams::test_scale(), topo, &mut space, false);
    let ext = extract_program(&w).expect("lu extracts");
    assert!(ext.is_clean(), "clean LU must extract cleanly");
    ext.trace
}

/// Drops the last `Release(lock)` from the stream of the column's owner.
fn drop_owner_release(mut trace: Trace, lock: LockId) -> Trace {
    let owner = lock.0 % trace.streams.len();
    let stream = &mut trace.streams[owner];
    let at = stream
        .iter()
        .rposition(|op| matches!(op, Op::Release(l) if *l == lock))
        .unwrap_or_else(|| panic!("owner P{owner} never releases lock {}", lock.0));
    stream.remove(at);
    trace
}

fn script(streams: Vec<Vec<Op>>) -> Trace {
    Trace {
        streams,
        sync: SyncConfig {
            lock_addrs: vec![Addr(0x1000), Addr(0x1040)],
            barrier_addrs: vec![Addr(0x2000)],
            labeled_ranges: Vec::new(),
        },
        page_homes: None,
    }
}

/// One row: its name, the program, the columns that catch it, and the
/// kinds of its replay notes.
type Row = (
    &'static str,
    Trace,
    &'static [&'static str],
    &'static [&'static str],
);

fn rows() -> Vec<Row> {
    let lu = extract_lu();
    let last_lock = LockId(lu.sync.lock_addrs.len() - 1);
    let (acq, rel) = (Op::Acquire, Op::Release);
    let (l0, l1) = (LockId(0), LockId(1));
    vec![
        ("1 clean LU (control)", lu.clone(), &[], &[]),
        (
            // The seed bug: the final column's owner never releases its
            // ready-lock. Nobody waits on it, so the replay certifies.
            "2 LU, final owner release dropped",
            drop_owner_release(lu.clone(), last_lock),
            &["static-unreleased"],
            &[],
        ),
        (
            "3 LU, lock 1 owner release dropped",
            drop_owner_release(lu, l1),
            &[
                "hb",
                "note",
                "static-cycle",
                "static-unreleased",
                "static-labeling",
            ],
            &["forced-grant"],
        ),
        (
            // `regression_ww_race.rs`: P1 writes P0's locked word bare.
            "4 unlocked write",
            Trace::from_text("procs 2\nlock 0x1000\n0 A 0\n0 W 0x40\n0 L 0\n0 D\n1 W 0x40\n1 D\n")
                .expect("trace parses"),
            &["hb", "static-labeling"],
            &[],
        ),
        (
            // P1 skips the barrier episode that orders the exchange.
            "5 skipped barrier episode",
            script(vec![
                vec![
                    Op::Write(X),
                    Op::Barrier(BarrierId(0)),
                    Op::Read(Y),
                    Op::Done,
                ],
                vec![Op::Write(Y), Op::Read(X), Op::Done],
            ]),
            &["hb", "note", "static-barrier", "static-labeling"],
            &["forced-barrier"],
        ),
        (
            // P0 releases a lock it never acquired, while P1 holds it.
            "6 release of an unheld lock",
            script(vec![
                vec![Op::Write(X), rel(l0), Op::Done],
                vec![acq(l0), Op::Write(X), rel(l0), Op::Done],
            ]),
            &["hb", "note", "static-bad-release", "static-labeling"],
            &["bad-release"],
        ),
        (
            "7 one word under two locks",
            script(vec![
                vec![acq(l0), Op::Write(X), rel(l0), Op::Done],
                vec![acq(l1), Op::Write(X), rel(l1), Op::Done],
            ]),
            &["hb", "static-labeling"],
            &[],
        ),
        (
            // Timely, but in shared mode: the write still pays for
            // ownership.
            "8 shared prefetch, then a write",
            script(vec![vec![
                Op::Prefetch {
                    addr: X,
                    exclusive: false,
                },
                Op::Compute(200),
                Op::Write(X),
                Op::Done,
            ]]),
            &["wrong-mode"],
            &[],
        ),
        (
            // The replay force-grants lock 1 to P0 to break the cycle; P1
            // then releases a lock the replay no longer shows it holding.
            "9 AB-BA lock order",
            script(vec![
                vec![acq(l0), acq(l1), rel(l1), rel(l0), Op::Done],
                vec![acq(l1), acq(l0), rel(l0), rel(l1), Op::Done],
            ]),
            &["note", "static-cycle"],
            &["forced-grant", "bad-release"],
        ),
    ]
}

fn note_kind(note: &ReplayNote) -> &'static str {
    match note {
        ReplayNote::ForcedGrant { .. } => "forced-grant",
        ReplayNote::ForcedBarrier { .. } => "forced-barrier",
        ReplayNote::BadRelease { .. } => "bad-release",
    }
}

#[test]
fn every_planted_bug_is_caught_by_its_columns() {
    let mut matrix = String::new();
    let mut mismatches = Vec::new();
    for (name, trace, expected, expected_notes) in rows() {
        let log = events_from_trace(&trace);
        let dynamic = analyze(name, &log);
        let lint = lint_trace(name, &trace, Vec::new(), false, &LintOptions::default());
        let columns = [
            ("hb", dynamic.race_detected()),
            ("note", !log.notes.is_empty()),
            ("static-cycle", !lint.deadlock.cycles.is_empty()),
            ("static-unreleased", !lint.deadlock.unreleased.is_empty()),
            ("static-bad-release", !lint.deadlock.bad_releases.is_empty()),
            ("static-barrier", lint.barriers.divergence.is_some()),
            ("static-labeling", !lint.labeling.properly_labeled()),
            ("wrong-mode", !lint.prefetch.wrong_mode.is_empty()),
        ];
        let caught: Vec<&str> = columns
            .iter()
            .filter(|(_, fired)| *fired)
            .map(|(column, _)| *column)
            .collect();
        let notes: Vec<&str> = log.notes.iter().map(note_kind).collect();
        matrix.push_str(&format!("{name}: {caught:?}, notes {notes:?}\n"));
        if caught != expected || notes != expected_notes {
            mismatches.push(name);
        }
        // The static lint fails every planted row with a critical
        // finding; the advisory wrong-mode row and the control pass.
        let critical = caught.iter().any(|c| c.starts_with("static-"));
        assert_eq!(lint.is_critical(), critical, "{name}\n{}", lint.render());
        // The dynamic verdict is exactly "no race and no replay note".
        assert_eq!(
            dynamic.properly_labeled(),
            !caught.contains(&"hb") && !caught.contains(&"note"),
            "{name}\n{}",
            dynamic.render()
        );
    }
    assert!(
        mismatches.is_empty(),
        "rows {mismatches:?} differ:\n{matrix}"
    );
}
