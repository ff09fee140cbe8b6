//! Property tests for the happens-before pass over synthetic op streams.
//!
//! The central property mirrors the detector's contract: a stream of
//! balanced critical sections certifies race-free, and removing a Release
//! is flagged as a race *iff* the removed release was a load-bearing
//! ordering edge (some later acquire relied on it to order conflicting
//! accesses). The vendored proptest shim derives inputs from a
//! deterministic per-case RNG, so every run reproduces exactly.

use dashlat_analyze::{analyze, analyze_trace};
use dashlat_cpu::events::{events_from_trace, EventKind};
use dashlat_cpu::ops::{LockId, Op, SyncConfig};
use dashlat_cpu::trace::Trace;
use dashlat_mem::addr::Addr;
use proptest::prelude::*;

/// Every critical section reads and writes this address.
const SHARED: Addr = Addr(0x40);

/// One process's behaviour: how many critical sections it runs and how
/// much private work pads them.
#[derive(Debug, Clone)]
struct ProcPlan {
    sections: usize,
    private_reads: u64,
    compute: u64,
}

fn proc_plan() -> impl Strategy<Value = ProcPlan> {
    ((1usize..4), (0u64..4), (1u64..20)).prop_map(|(sections, private_reads, compute)| ProcPlan {
        sections,
        private_reads,
        compute,
    })
}

fn build_streams(plans: &[ProcPlan], first_pid: usize) -> Vec<Vec<Op>> {
    plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let p = (first_pid + i) as u64;
            let mut ops = Vec::new();
            for _ in 0..plan.sections {
                for r in 0..plan.private_reads {
                    ops.push(Op::Read(Addr(0x2000 + p * 0x100 + r * 8)));
                }
                ops.push(Op::Compute(plan.compute));
                ops.push(Op::Acquire(LockId(0)));
                ops.push(Op::Read(SHARED));
                ops.push(Op::Write(SHARED));
                ops.push(Op::Release(LockId(0)));
            }
            ops.push(Op::Done);
            ops
        })
        .collect()
}

fn trace_of(streams: Vec<Vec<Op>>) -> Trace {
    Trace {
        streams,
        sync: SyncConfig {
            lock_addrs: vec![Addr(0x1000)],
            barrier_addrs: Vec::new(),
            labeled_ranges: Vec::new(),
        },
        page_homes: None,
    }
}

/// Removes the last `Release` op of `stream`; panics if there is none.
fn drop_last_release(stream: &mut Vec<Op>) {
    let i = stream
        .iter()
        .rposition(|o| matches!(o, Op::Release(_)))
        .expect("stream has a release");
    stream.remove(i);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Balanced critical sections always certify race-free, and the
    /// analysis is deterministic: re-running renders identically.
    #[test]
    fn balanced_streams_certify(
        plans in proptest::collection::vec(proc_plan(), 2..5),
    ) {
        let t = trace_of(build_streams(&plans, 0));
        let a = analyze_trace("prop", &t);
        prop_assert!(a.properly_labeled(), "{}", a.render());
        prop_assert!(a.replay_notes.is_empty());
        let b = analyze_trace("prop", &t);
        prop_assert_eq!(a.render(), b.render());
    }

    /// Dropping the Release that guards P0's only critical section —
    /// which is granted first and conflicts with every other section —
    /// is always reported as a race on the shared address, with the
    /// forced lock hand-off noted.
    #[test]
    fn removed_edge_is_always_a_race(
        plans in proptest::collection::vec(proc_plan(), 1..4),
    ) {
        // P0: a single section with its Release dropped, issued first.
        let mut streams = vec![vec![Op::Acquire(LockId(0)), Op::Write(SHARED), Op::Done]];
        streams.extend(build_streams(&plans, 1));
        let t = trace_of(streams);
        let a = analyze_trace("prop", &t);
        prop_assert!(a.race_detected(), "{}", a.render());
        prop_assert!(!a.properly_labeled());
        prop_assert!(!a.replay_notes.is_empty());
        let hb = &a.hb;
        prop_assert!(hb.races.iter().any(|r| r.addr == SHARED));
        let b = analyze_trace("prop", &t);
        prop_assert_eq!(a.render(), b.render());
    }

    /// The full iff: dropping a randomly chosen process's *last* Release
    /// is flagged as a race exactly when some later acquire depended on
    /// that edge — and certifies race-free when nothing followed.
    #[test]
    fn race_iff_removed_edge_was_load_bearing(
        plans in proptest::collection::vec(proc_plan(), 2..5),
        victim_raw in 0usize..16,
    ) {
        let mut streams = build_streams(&plans, 0);
        let victim = victim_raw % streams.len();
        drop_last_release(&mut streams[victim]);
        let log = events_from_trace(&trace_of(streams));
        // Independent oracle from the event stream alone: the removed
        // release mattered iff any acquire was granted after the
        // victim's final one (every section conflicts on SHARED).
        let last_victim_acq = log
            .events
            .iter()
            .rposition(|e| e.pid.0 == victim && matches!(e.kind, EventKind::Acquire(_)))
            .expect("victim acquired at least once");
        let edge_was_load_bearing = log.events[last_victim_acq + 1..]
            .iter()
            .any(|e| matches!(e.kind, EventKind::Acquire(_)));
        let a = analyze("prop", &log);
        prop_assert_eq!(
            a.race_detected(),
            edge_was_load_bearing,
            "oracle disagrees:\n{}",
            a.render()
        );
        prop_assert_eq!(a.properly_labeled(), !edge_was_load_bearing, "{}", a.render());
    }
}
