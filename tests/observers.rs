//! The observation seam changes nothing it observes: a run watched by
//! every recorder at once reports exactly what an unobserved run does,
//! and what the recorders sum to agrees with the run's own accounting —
//! Table 2's counters included, which count each committed operation once.

use dash_latency::apps::App;
use dash_latency::config::ExperimentConfig;
use dash_latency::cpu::machine::{Machine, RunResult};
use dash_latency::cpu::trace::TraceRecorder;
use dash_latency::cpu::{
    DecisionTrace, EventKind, EventLog, Observer, ProcId, RunTimeline, Workload,
};
use dash_latency::mem::layout::AddressSpaceBuilder;
use dash_latency::mem::system::{AccessRecord, MemorySystem};
use dash_latency::sim::{Cycle, FaultPlan, FifoScheduler};

/// Runs `app` on `cfg`, observed by what `observer` makes of its
/// workload, under [`FifoScheduler`] when `fifo` is set.
fn run<O: Observer>(
    app: App,
    cfg: &ExperimentConfig,
    fifo: bool,
    observer: impl FnOnce(&dyn Workload) -> O,
) -> (RunResult, O) {
    let topo = cfg.topology();
    let mut space = AddressSpaceBuilder::new(cfg.processors);
    let workload = app.build(cfg.scale, topo, &mut space, cfg.prefetching);
    let obs = observer(&workload);
    let mem = MemorySystem::new(cfg.mem_config(), space.build());
    let mut machine = Machine::observed(cfg.proc_config(), topo, mem, workload, obs)
        .with_max_cycles(Cycle(10_000_000_000));
    if fifo {
        machine = machine.with_scheduler(Box::new(FifoScheduler));
    }
    machine.run_observed().expect("runs")
}

#[test]
fn observing_every_recorder_at_once_changes_nothing() {
    // SC charges busy cycles for compute bursts and primary-cache read
    // hits; RC also charges each write's issue cycle.
    let sc = ExperimentConfig::base_test();
    let rc = ExperimentConfig::base_test().with_rc();
    for (app, cfg) in [(App::Mp3d, &sc), (App::Lu, &sc), (App::Mp3d, &rc)] {
        let what = format!("{app} {}", cfg.label());
        let everything = |w: &dyn Workload| {
            (
                (
                    EventLog::new(w.processes(), w.sync_config()),
                    Vec::<AccessRecord>::new(),
                ),
                (
                    RunTimeline::new(Cycle(10_000)),
                    (TraceRecorder::new(w), DecisionTrace::default()),
                ),
            )
        };
        let (observed, ((log, accesses), (timeline, (recorder, decisions)))) =
            run(app, cfg, true, everything);
        let (plain, ()) = run(app, cfg, true, |_| ());
        assert_eq!(observed.elapsed, plain.elapsed, "{what}");
        assert_eq!(observed.aggregate, plain.aggregate, "{what}");
        assert_eq!(
            format!("{:?}", observed.mem),
            format!("{:?}", plain.mem),
            "{what}"
        );
        assert_eq!(observed.sim_events, plain.sim_events, "{what}");

        // FIFO tie-breaking is the scheduler-free order, and the
        // scheduler adds no events: `sim_events` counts dispatched work.
        let (free, ()) = run(app, cfg, false, |_| ());
        assert_eq!(free.elapsed, plain.elapsed, "{what}");
        assert_eq!(free.aggregate, plain.aggregate, "{what}");
        assert_eq!(free.sim_events, plain.sim_events, "{what}");

        // Every recorder saw the run.
        assert!(!log.is_empty(), "{what}: no analysis events");
        assert!(!accesses.is_empty(), "{what}: no accesses");
        assert!(!decisions.is_empty(), "{what}: no decisions");
        assert!(timeline.busy.peak() > 0, "{what}: no busy time");
        assert!(timeline.misses.peak() > 0, "{what}: no misses");
        assert!(!recorder.into_trace().is_empty(), "{what}: no ops");
        // The timeline sees every busy cycle the breakdown charges.
        assert_eq!(
            timeline.busy.total(),
            observed.aggregate.busy.as_u64(),
            "{what}"
        );
    }
}

/// Committed operations counted by kind, in Table 2's order.
#[derive(Default)]
struct CommitCounts([u64; 5]);

impl Observer for CommitCounts {
    fn commit(&mut self, _t: Cycle, _pid: ProcId, kind: EventKind) {
        let slot = match kind {
            EventKind::Read(_) => 0,
            EventKind::Write(_) => 1,
            EventKind::Prefetch { .. } => 2,
            EventKind::Acquire(_) => 3,
            EventKind::BarrierArrive(_) => 4,
            EventKind::Release(_) | EventKind::BarrierForced(_) | EventKind::Done => return,
        };
        self.0[slot] += 1;
    }
}

#[test]
fn table2_counters_count_each_commit_once() {
    // An op issued again commits once: an SC write waits out another
    // context's fetch of its line, and the fault plan's transient full
    // buffers turn RC writes and prefetches away. Queued acquires commit
    // at the hand-off.
    let sc = ExperimentConfig::base_test();
    let sc_pf_4 = sc.clone().with_prefetching().with_contexts(4, Cycle(4));
    let rc_pf = ExperimentConfig::base_test().with_rc().with_prefetching();
    let rc_pf_4 = rc_pf.clone().with_contexts(4, Cycle(4));
    let rc_pf_faults = rc_pf.clone().with_faults(FaultPlan::heavy(7));
    for cfg in [&sc, &sc_pf_4, &rc_pf, &rc_pf_4, &rc_pf_faults] {
        for app in App::ALL {
            let (r, commits) = run(app, cfg, false, |_| CommitCounts::default());
            let counters = [
                r.shared_reads,
                r.shared_writes,
                r.prefetches_issued,
                r.lock_acquires,
                r.barrier_arrivals,
            ];
            assert_eq!(counters, commits.0, "{app} {}", cfg.label());
        }
    }
}
