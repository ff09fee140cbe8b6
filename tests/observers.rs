//! The observation seam changes nothing it observes: a run watched by
//! every recorder at once reports exactly what an unobserved run does.

use dash_latency::apps::App;
use dash_latency::config::ExperimentConfig;
use dash_latency::cpu::machine::{Machine, RunResult};
use dash_latency::cpu::trace::TraceRecorder;
use dash_latency::cpu::{Decision, EventLog, Observer, RunTimeline, Workload};
use dash_latency::mem::layout::AddressSpaceBuilder;
use dash_latency::mem::system::{AccessRecord, MemorySystem};
use dash_latency::sim::{Cycle, FifoScheduler};

/// Runs `app` at test scale, observed by what `observer` makes of its
/// workload, under [`FifoScheduler`] when `fifo` is set.
fn run<O: Observer>(
    app: App,
    fifo: bool,
    observer: impl FnOnce(&dyn Workload) -> O,
) -> (RunResult, O) {
    let cfg = ExperimentConfig::base_test();
    let topo = cfg.topology();
    let mut space = AddressSpaceBuilder::new(cfg.processors);
    let workload = app.build(cfg.scale, topo, &mut space, false);
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
    for app in [App::Mp3d, App::Lu] {
        let everything = |w: &dyn Workload| {
            (
                (
                    EventLog::new(w.processes(), w.sync_config()),
                    Vec::<AccessRecord>::new(),
                ),
                (
                    RunTimeline::new(Cycle(10_000)),
                    (TraceRecorder::new(w), Vec::<Decision>::new()),
                ),
            )
        };
        let (observed, ((log, accesses), (timeline, (recorder, decisions)))) =
            run(app, true, everything);
        let (plain, ()) = run(app, true, |_| ());
        assert_eq!(observed.elapsed, plain.elapsed, "{app}");
        assert_eq!(observed.aggregate, plain.aggregate, "{app}");
        assert_eq!(
            format!("{:?}", observed.mem),
            format!("{:?}", plain.mem),
            "{app}"
        );
        assert_eq!(observed.sim_events, plain.sim_events, "{app}");

        // FIFO tie-breaking is the scheduler-free order, and the
        // scheduler adds no events: `sim_events` counts dispatched work.
        let (free, ()) = run(app, false, |_| ());
        assert_eq!(free.elapsed, plain.elapsed, "{app}");
        assert_eq!(free.aggregate, plain.aggregate, "{app}");
        assert_eq!(free.sim_events, plain.sim_events, "{app}");

        // Every recorder saw the run.
        assert!(!log.is_empty(), "{app}: no analysis events");
        assert!(!accesses.is_empty(), "{app}: no accesses");
        assert!(!decisions.is_empty(), "{app}: no decisions");
        assert!(timeline.busy.peak() > 0, "{app}: no busy time");
        assert!(timeline.misses.peak() > 0, "{app}: no misses");
        assert!(!recorder.into_trace().is_empty(), "{app}: no ops");
    }
}
