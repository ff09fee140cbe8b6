//! Record an execution-driven run as a reference trace, round-trip it
//! through the text format, and replay it: under the *same* machine
//! configuration the replay must reproduce the original run exactly.

use dash_latency::apps::App;
use dash_latency::config::ExperimentConfig;
use dash_latency::cpu::machine::Machine;
use dash_latency::cpu::trace::{Trace, TraceRecorder};
use dash_latency::mem::layout::AddressSpaceBuilder;
use dash_latency::mem::system::MemorySystem;
use dash_latency::sim::Cycle;

#[test]
fn recorded_trace_replays_identically_under_the_same_config() {
    let cfg = ExperimentConfig::base_test();
    let topo = cfg.topology();

    // Execution-driven run, recorded by an observer the run hands back.
    let mut space = AddressSpaceBuilder::new(cfg.processors);
    let inner = App::Lu.build(cfg.scale, topo, &mut space, false);
    let recorder = TraceRecorder::new(&inner);
    let page_map = space.build();
    let mem = MemorySystem::new(cfg.mem_config(), page_map.clone());
    let (original, recorder) = Machine::observed(cfg.proc_config(), topo, mem, inner, recorder)
        .with_max_cycles(Cycle(10_000_000_000))
        .run_observed()
        .expect("LU terminates");
    let trace = recorder.into_trace();
    assert!(!trace.is_empty());

    // Round-trip through the text format.
    let text = trace.to_text();
    let parsed = Trace::from_text(&text).expect("round-trips");
    assert_eq!(parsed, trace);

    // Replay on an identical machine: identical timing and counters.
    let replay_mem = MemorySystem::new(cfg.mem_config(), page_map);
    let replay = Machine::new(cfg.proc_config(), topo, replay_mem, parsed.into_workload())
        .with_max_cycles(Cycle(10_000_000_000))
        .run()
        .expect("replay terminates");

    assert_eq!(replay.elapsed, original.elapsed);
    assert_eq!(replay.aggregate, original.aggregate);
    assert_eq!(replay.shared_reads, original.shared_reads);
    assert_eq!(replay.shared_writes, original.shared_writes);
    assert_eq!(replay.lock_acquires, original.lock_acquires);
    assert_eq!(replay.barrier_arrivals, original.barrier_arrivals);
    assert_eq!(
        replay.mem.invalidations_sent,
        original.mem.invalidations_sent
    );
}

#[test]
fn replay_under_a_different_config_still_terminates() {
    // The same LU trace replayed under RC: valid (LU's reference stream is
    // config-independent for a fixed interleaving) and must terminate,
    // though timings differ — the documented trace-vs-execution caveat.
    let cfg = ExperimentConfig::base_test();
    let topo = cfg.topology();
    let mut space = AddressSpaceBuilder::new(cfg.processors);
    let inner = App::Lu.build(cfg.scale, topo, &mut space, false);
    let recorder = TraceRecorder::new(&inner);
    let page_map = space.build();
    let mem = MemorySystem::new(cfg.mem_config(), page_map.clone());
    let (sc, recorder) = Machine::observed(cfg.proc_config(), topo, mem, inner, recorder)
        .with_max_cycles(Cycle(10_000_000_000))
        .run_observed()
        .expect("LU terminates");
    let trace = recorder.into_trace();

    let rc_cfg = cfg.clone().with_rc();
    let mem = MemorySystem::new(rc_cfg.mem_config(), page_map);
    let rc = Machine::new(rc_cfg.proc_config(), topo, mem, trace.into_workload())
        .with_max_cycles(Cycle(10_000_000_000))
        .run()
        .expect("replay terminates");
    assert!(
        rc.elapsed < sc.elapsed,
        "RC replay should beat the SC original"
    );
    assert_eq!(rc.shared_writes, sc.shared_writes);
}
