//! A recycled machine is exact: after a machine has run one
//! configuration in place, copying a differently built machine into it
//! with `clone_from` and running that gives exactly what a fresh clone
//! of the second machine gives — the same `RunResult`, the same access
//! trace and the same scheduler decisions. The memory-model verifier
//! runs every interleaving in one recycled machine, so a field that
//! `clone_from` left stale would silently steer its search.
//!
//! The variants change the shapes of the machine's state: processor
//! count, contexts per processor, prefetching, each buffered consistency
//! model, a one-pointer directory, the mesh network and an active fault
//! plan. Each runs a scripted program and MP3D at test scale.

use dash_latency::config::ExperimentConfig;
use dash_latency::cpu::machine::{Machine, RunResult};
use dash_latency::cpu::ops::{BarrierId, LockId, Op, Workload};
use dash_latency::cpu::script::ScriptWorkload;
use dash_latency::cpu::{Consistency, DecisionTrace};
use dash_latency::mem::layout::{AddressSpaceBuilder, Placement};
use dash_latency::mem::system::{AccessRecord, MemorySystem};
use dash_latency::mem::LINE_BYTES;
use dash_latency::sim::{Cycle, FaultPlan, FifoScheduler};
use dash_latency::workloads::{Mp3d, Mp3dParams};

type Observed = (Vec<AccessRecord>, DecisionTrace);

/// The machine variants, each differing from its neighbours in the shape
/// of some state a run leaves behind.
fn variants() -> Vec<(&'static str, ExperimentConfig)> {
    let base = ExperimentConfig {
        processors: 4,
        ..ExperimentConfig::base_test()
    };
    let two = ExperimentConfig {
        processors: 2,
        ..base.clone()
    };
    vec![
        ("sc 4p", base.clone()),
        ("pc 2p", two.clone().with_consistency(Consistency::Pc)),
        (
            "rc 2 contexts",
            base.clone().with_rc().with_contexts(2, Cycle(4)),
        ),
        (
            "wc prefetching",
            base.clone()
                .with_consistency(Consistency::Wc)
                .with_prefetching(),
        ),
        ("rc 2p 1 pointer", two.with_rc().with_limited_directory(1)),
        ("rc mesh", base.clone().with_rc().with_mesh_network()),
        ("rc faults", base.with_rc().with_faults(FaultPlan::heavy(7))),
    ]
}

/// A program over a few contended lines, one lock and one barrier: each
/// process prefetches, writes, reads and updates lines its neighbours
/// touch too, inside and outside the critical section.
fn script(processes: usize, space: &mut AddressSpaceBuilder) -> ScriptWorkload {
    let data = space.alloc("data", 8 * LINE_BYTES, Placement::RoundRobin);
    let sync = space.alloc("sync", 2 * LINE_BYTES, Placement::RoundRobin);
    let line = |i: usize| data.at((i % 8) as u64 * LINE_BYTES);
    let programs = (0..processes)
        .map(|p| {
            vec![
                Op::Compute(1 + p as u64 % 3),
                Op::Prefetch {
                    addr: line(p + 1),
                    exclusive: p % 2 == 0,
                },
                Op::Write(line(p)),
                Op::Read(line(p + 1)),
                Op::Acquire(LockId(0)),
                Op::Rmw(line(7)),
                Op::Write(line(p + 2)),
                Op::Release(LockId(0)),
                Op::Barrier(BarrierId(0)),
                Op::Read(line(p + 3)),
                Op::Write(line(p + 1)),
            ]
        })
        .collect();
    ScriptWorkload::new(programs)
        .with_locks(vec![sync.base()])
        .with_barriers(vec![sync.at(LINE_BYTES)])
}

/// Builds `cfg`'s machine around the workload `make` lays out.
fn machine<W: Workload>(
    cfg: &ExperimentConfig,
    make: impl FnOnce(&ExperimentConfig, &mut AddressSpaceBuilder) -> W,
) -> Machine<W, Observed> {
    let mut space = AddressSpaceBuilder::new(cfg.processors);
    let workload = make(cfg, &mut space);
    let mem = MemorySystem::new(cfg.mem_config(), space.build());
    Machine::observed(
        cfg.proc_config(),
        cfg.topology(),
        mem,
        workload,
        Observed::default(),
    )
}

/// What a run reports, in comparable form.
fn report((result, (accesses, decisions)): (RunResult, Observed)) -> (String, Observed) {
    (format!("{result:?}"), (accesses, decisions))
}

/// Runs every variant's machine in place, then recycles it for the next
/// variant's, and checks the recycled run against a fresh clone's.
fn check_recycling<W: Workload + Clone>(
    make: impl Fn(&ExperimentConfig, &mut AddressSpaceBuilder) -> W,
) {
    let built: Vec<_> = variants()
        .into_iter()
        .map(|(name, cfg)| (name, machine(&cfg, &make)))
        .collect();
    for (i, (a_name, a)) in built.iter().enumerate() {
        let (b_name, b) = &built[(i + 1) % built.len()];
        let what = format!("{a_name} recycled as {b_name}");
        let fresh = report(
            b.clone()
                .with_scheduler(Box::new(FifoScheduler))
                .run_observed()
                .expect("runs"),
        );
        assert!(!fresh.1 .0.is_empty() && !fresh.1 .1.is_empty(), "{what}");

        // `rerun` copies the prototype in and drives the copy.
        let mut recycled = a.clone();
        recycled.rerun(a, Box::new(FifoScheduler)).0.expect("runs");
        let (result, observed) = recycled.rerun(b, Box::new(FifoScheduler));
        result.expect("runs");
        assert!(*observed == fresh.1, "{what}: traces differ after rerun");

        // `clone_from` over a machine that ran, its scheduler attached.
        let mut recycled = a.clone();
        recycled.rerun(a, Box::new(FifoScheduler)).0.expect("runs");
        recycled.clone_from(b);
        let run = recycled
            .with_scheduler(Box::new(FifoScheduler))
            .run_observed()
            .expect("runs");
        assert!(
            report(run) == fresh,
            "{what}: the run differs after clone_from"
        );
    }
}

#[test]
fn recycled_scripted_machines_run_like_fresh_ones() {
    check_recycling(|cfg, space| script(cfg.topology().processes(), space));
}

#[test]
fn recycled_application_machines_run_like_fresh_ones() {
    check_recycling(|cfg, space| {
        Mp3d::new(
            Mp3dParams::test_scale(),
            cfg.topology(),
            space,
            cfg.prefetching,
        )
    });
}
