//! End-to-end checks of the substrate variants (extensions beyond the
//! paper's machine): the 2-D mesh network, the limited-pointer directory,
//! the full-size caches, and the intermediate consistency models.

use dash_latency::apps::App;
use dash_latency::config::ExperimentConfig;
use dash_latency::cpu::config::Consistency;
use dash_latency::runner::run;
use dash_latency::sim::Cycle;

fn base() -> ExperimentConfig {
    ExperimentConfig::base_test()
}

#[test]
fn mesh_network_runs_every_app_and_is_deterministic() {
    for app in App::ALL {
        let cfg = base().with_mesh_network();
        let a = run(app, &cfg).expect("runs");
        let b = run(app, &cfg).expect("runs");
        assert_eq!(
            a.result.elapsed, b.result.elapsed,
            "{app} mesh run not deterministic"
        );
        assert!(a.result.elapsed > Cycle::ZERO);
    }
}

#[test]
fn mesh_and_ports_agree_without_contention() {
    // With queueing disabled the network model is irrelevant: identical
    // runs.
    let mut ports = base();
    ports.contention = false;
    let mut mesh = base().with_mesh_network();
    mesh.contention = false;
    let a = run(App::Lu, &ports).expect("runs");
    let b = run(App::Lu, &mesh).expect("runs");
    assert_eq!(a.result.elapsed, b.result.elapsed);
    assert_eq!(a.result.aggregate, b.result.aggregate);
}

#[test]
fn limited_directory_never_breaks_coherence_shapes() {
    // The Dir2B machine still shows the caching win and the RC win; only
    // ack traffic grows.
    for app in [App::Mp3d, App::Pthor] {
        let full = run(app, &base()).expect("runs");
        let limited = run(app, &base().with_limited_directory(2)).expect("runs");
        assert!(
            limited.result.mem.invalidations_sent >= full.result.mem.invalidations_sent,
            "{app}: limited directory sent fewer invalidations"
        );
        // Still massively better than no caches at all.
        let uncached = run(app, &base().without_caching()).expect("runs");
        assert!(limited.result.elapsed < uncached.result.elapsed);
    }
}

#[test]
fn full_size_caches_preserve_relative_gains() {
    // §2.3: "while the absolute execution times decreased with the larger
    // caches, the relative gains from the various techniques were
    // similar."
    for app in App::ALL {
        let scaled = run(app, &base()).expect("runs");
        let full = run(app, &base().with_full_caches()).expect("runs");
        // Hit rates always improve with capacity.
        assert!(
            full.result.mem.read_hits.fraction() > scaled.result.mem.read_hits.fraction(),
            "{app}: bigger caches did not raise the hit rate"
        );
        // Absolute time: LU and PTHOR get clearly faster; MP3D "shows the
        // least gain from the larger caches since the majority of misses
        // are inherent communication misses" (§3 footnote) — its cheap
        // capacity misses vanish while the expensive dirty-remote cell
        // misses remain, so only require it not to regress much.
        if app == App::Mp3d {
            assert!(
                full.result.elapsed.as_u64() < scaled.result.elapsed.as_u64() * 115 / 100,
                "MP3D regressed badly with full caches"
            );
        } else {
            assert!(
                full.result.elapsed < scaled.result.elapsed,
                "{app}: bigger caches did not speed up the absolute run"
            );
        }
        // Relative RC gain similar in both worlds (within a loose band).
        let rc_scaled = run(app, &base().with_rc()).expect("runs");
        let rc_full = run(app, &base().with_full_caches().with_rc()).expect("runs");
        let gain_scaled =
            scaled.result.elapsed.as_u64() as f64 / rc_scaled.result.elapsed.as_u64() as f64;
        let gain_full =
            full.result.elapsed.as_u64() as f64 / rc_full.result.elapsed.as_u64() as f64;
        assert!(
            (gain_full - gain_scaled).abs() < 0.5,
            "{app}: RC gain diverges between cache sizes ({gain_scaled:.2} vs {gain_full:.2})"
        );
    }
}

#[test]
fn consistency_spectrum_never_loses_to_sc() {
    for app in App::ALL {
        let sc = run(app, &base()).expect("runs");
        for model in [Consistency::Pc, Consistency::Wc, Consistency::Rc] {
            let m = run(app, &base().with_consistency(model)).expect("runs");
            // PTHOR gets the usual timing-variance slack.
            let limit = if app == App::Pthor { 110 } else { 101 };
            assert!(
                m.result.elapsed.as_u64() * 100 <= sc.result.elapsed.as_u64() * limit,
                "{app}: {model} slower than SC ({} vs {})",
                m.result.elapsed,
                sc.result.elapsed
            );
            assert_eq!(m.result.aggregate.write_stall, Cycle::ZERO);
        }
    }
}

#[test]
fn mesh_hot_home_shows_more_queueing_than_ports() {
    // A workload that hammers one node's memory from everywhere: the mesh
    // funnels all routes into the hot row/column, so queueing delay should
    // be at least the port model's.
    use dash_latency::cpu::config::ProcConfig;
    use dash_latency::cpu::machine::Machine;
    use dash_latency::cpu::ops::{Op, Topology};
    use dash_latency::cpu::script::ScriptWorkload;
    use dash_latency::mem::layout::{AddressSpaceBuilder, Placement};
    use dash_latency::mem::system::{MemConfig, MemorySystem};
    use dash_latency::mem::NetworkModel;

    let mk = |network: NetworkModel| {
        let nodes = 16;
        let mut b = AddressSpaceBuilder::new(nodes);
        let hot = b.alloc("hot", 4096, Placement::Local(dash_latency::mem::NodeId(0)));
        let mut cfg = MemConfig::dash_scaled(nodes);
        cfg.network = network;
        let mem = MemorySystem::new(cfg, b.build());
        let scripts: Vec<Vec<Op>> = (0..nodes)
            .map(|p| {
                (0..32)
                    .map(|i| Op::Read(hot.base().offset(((p * 37 + i) % 256) as u64 * 16)))
                    .collect()
            })
            .collect();
        let w = ScriptWorkload::new(scripts);
        Machine::new(ProcConfig::sc_baseline(), Topology::new(nodes, 1), mem, w)
            .run()
            .expect("terminates")
    };
    let ports = mk(NetworkModel::Ports);
    let mesh = mk(NetworkModel::Mesh2D);
    assert!(
        mesh.mem.queue_delay >= ports.mem.queue_delay,
        "mesh hot spot queued less than endpoint ports ({} < {})",
        mesh.mem.queue_delay,
        ports.mem.queue_delay
    );
}

#[test]
fn lu_miss_density_falls_toward_the_end() {
    // §2.3: "the processors get poor cache hit ratio in the beginning, and
    // high hit ratios towards the end" — the active submatrix shrinks into
    // the caches, so long-latency misses per interval must decline.
    use dash_latency::cpu::machine::Machine;
    use dash_latency::cpu::RunTimeline;
    use dash_latency::mem::layout::AddressSpaceBuilder;
    use dash_latency::mem::system::MemorySystem;

    let cfg = base();
    let topo = cfg.topology();
    let mut space = AddressSpaceBuilder::new(cfg.processors);
    let w = App::Lu.build(cfg.scale, topo, &mut space, false);
    let mem = MemorySystem::new(cfg.mem_config(), space.build());
    let timeline = RunTimeline::new(Cycle(10_000));
    let (_, timeline) = Machine::observed(cfg.proc_config(), topo, mem, w, timeline)
        .with_max_cycles(Cycle(10_000_000_000))
        .run_observed()
        .expect("runs");
    let misses = timeline.misses.buckets();
    assert!(
        misses.len() >= 6,
        "run too short for a timeline ({} buckets)",
        misses.len()
    );
    let third = misses.len() / 3;
    let early: u64 = misses[..third].iter().sum();
    let late: u64 = misses[misses.len() - third..].iter().sum();
    assert!(
        late < early,
        "LU miss density did not decline: early {early}, late {late}"
    );
}
