//! Soundness of the static PL pass against the dynamic FastTrack
//! detector: **static ⊇ dynamic**.
//!
//! The static must-happens-before relation only contains edges forced
//! in *every* execution, while a dynamic replay's happens-before
//! contains the edges of *one* schedule — a superset. So every race the
//! dynamic detector reports on a replayed schedule must appear among
//! the static pass's under-labeled addresses. The property tests pin
//! this over random synthetic workloads mixing lock-protected,
//! barrier-phased, and deliberately unordered accesses.
//!
//! Second property: lock-balanced programs (every acquire matched by a
//! release, no nested acquires in conflicting order) produce no
//! deadlock findings.

use dashlat_analyze::analyze;
use dashlat_analyze::lint::{lint_trace, LintOptions};
use dashlat_cpu::events::events_from_trace;
use dashlat_cpu::ops::{BarrierId, LockId, Op, SyncConfig};
use dashlat_cpu::trace::Trace;
use dashlat_mem::addr::Addr;
use proptest::prelude::*;

/// What one process does in one "slot" of the generated program.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Read/write a shared address under a lock.
    Locked { lock: usize, addr: u64, write: bool },
    /// Touch a shared address with no protection at all.
    Bare { addr: u64, write: bool },
    /// Private computation.
    Compute(u64),
}

fn slot() -> impl Strategy<Value = Slot> {
    prop_oneof![
        ((0usize..2), (0u64..3), any::<bool>()).prop_map(|(lock, a, write)| Slot::Locked {
            lock,
            addr: 0x40 + a * 16,
            write
        }),
        ((0u64..3), any::<bool>()).prop_map(|(a, write)| Slot::Bare {
            addr: 0x40 + a * 16,
            write
        }),
        (1u64..10).prop_map(Slot::Compute),
    ]
}

/// A process: slots before the barrier, slots after.
fn proc_plan() -> impl Strategy<Value = (Vec<Slot>, Vec<Slot>)> {
    (
        proptest::collection::vec(slot(), 0..5),
        proptest::collection::vec(slot(), 0..5),
    )
}

fn emit(ops: &mut Vec<Op>, s: Slot) {
    match s {
        Slot::Locked { lock, addr, write } => {
            ops.push(Op::Acquire(LockId(lock)));
            ops.push(if write {
                Op::Write(Addr(addr))
            } else {
                Op::Read(Addr(addr))
            });
            ops.push(Op::Release(LockId(lock)));
        }
        Slot::Bare { addr, write } => ops.push(if write {
            Op::Write(Addr(addr))
        } else {
            Op::Read(Addr(addr))
        }),
        Slot::Compute(c) => ops.push(Op::Compute(c)),
    }
}

fn build_trace(plans: &[(Vec<Slot>, Vec<Slot>)]) -> Trace {
    let streams = plans
        .iter()
        .map(|(before, after)| {
            let mut ops = Vec::new();
            for &s in before {
                emit(&mut ops, s);
            }
            ops.push(Op::Barrier(BarrierId(0)));
            for &s in after {
                emit(&mut ops, s);
            }
            ops.push(Op::Done);
            ops
        })
        .collect();
    Trace {
        streams,
        sync: SyncConfig {
            lock_addrs: vec![Addr(0x1000), Addr(0x1010)],
            barrier_addrs: vec![Addr(0x2000)],
            labeled_ranges: Vec::new(),
        },
        page_homes: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every dynamically detected race address is statically flagged as
    /// under-labeled: the static pass can only be *more* pessimistic.
    #[test]
    fn static_findings_superset_of_dynamic(
        plans in proptest::collection::vec(proc_plan(), 2..5),
    ) {
        let trace = build_trace(&plans);
        let lint = lint_trace("prop", &trace, Vec::new(), false, &LintOptions::default());

        let log = events_from_trace(&trace);
        let dynamic = analyze("prop", &log);
        for race in &dynamic.hb.races {
            prop_assert!(
                lint.labeling.under_labeled_addrs.contains(&race.addr),
                "dynamic race at {:#x} missed statically\n{}",
                race.addr.0,
                lint.render()
            );
        }
    }

    /// Lock-balanced programs never produce deadlock findings: every
    /// generated acquire is released in the same slot and never nests.
    #[test]
    fn balanced_programs_have_no_deadlock_lints(
        plans in proptest::collection::vec(proc_plan(), 2..5),
    ) {
        let trace = build_trace(&plans);
        let lint = lint_trace("prop", &trace, Vec::new(), false, &LintOptions::default());
        prop_assert!(lint.deadlock.cycles.is_empty(), "{}", lint.render());
        prop_assert!(lint.deadlock.unreleased.is_empty(), "{}", lint.render());
        prop_assert!(lint.deadlock.bad_releases.is_empty(), "{}", lint.render());
        prop_assert!(lint.barriers.divergence.is_none(), "{}", lint.render());
    }

    /// A statically certified program never races dynamically — the
    /// contrapositive of soundness, checked for extra confidence.
    #[test]
    fn certified_programs_never_race_dynamically(
        plans in proptest::collection::vec(proc_plan(), 2..5),
    ) {
        let trace = build_trace(&plans);
        let lint = lint_trace("prop", &trace, Vec::new(), false, &LintOptions::default());
        if lint.labeling.properly_labeled() {
            let log = events_from_trace(&trace);
            let dynamic = analyze("prop", &log);
            let races = dynamic.hb.races.len();
            prop_assert!(races == 0, "statically certified but dynamically racy");
        }
    }
}
