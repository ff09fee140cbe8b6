//! Ablation studies on the design choices DESIGN.md calls out.
//!
//! These go beyond the paper's figures: each sweep isolates one mechanism
//! of the simulated machine and shows its contribution.
//!
//! * write-buffer depth (RC's pipelining headroom),
//! * invalidation-acknowledgement latency (what RC releases wait for),
//! * context-switch overhead beyond the paper's {4, 16},
//! * cache scaling (the paper's §2.3 scaled-vs-full-size check),
//! * contention on/off (how much of the latency is queueing).
//!
//! Every measurement goes through a [`SweepLog`]: each study's points run
//! in parallel on the sweep worker pool through [`SweepLog::measure`]
//! (`--jobs N` to cap it). A single failing configuration is recorded and
//! skipped, the rest of the sweep still runs, and the binary ends with a
//! (partial, if needed) JSON record and exit code 5 instead of aborting
//! mid-sweep.

use std::process::ExitCode;
use std::sync::Mutex;

use dashlat::apps::App;
use dashlat::runner::run_isolated;
use dashlat_bench::{base_config_from_args, print_preamble, run_point, SweepLog};
use dashlat_sim::Cycle;

fn main() -> ExitCode {
    let base = base_config_from_args();
    print_preamble("Ablations", &base);
    let mut log = SweepLog::new();

    println!("## Write-buffer depth (MP3D, RC)\n");
    const DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];
    let rc = base.clone().with_rc();
    let points = DEPTHS.map(|depth| (format!("depth={depth}"), depth));
    let elapsed = log.measure("write-buffer-depth", &points, None, |&depth| {
        // Depth is a ProcConfig knob; route it through a one-off run.
        let topo = rc.topology();
        let mut space = dashlat_mem::layout::AddressSpaceBuilder::new(rc.processors);
        let w = App::Mp3d.build(rc.scale, topo, &mut space, false);
        let mem = dashlat_mem::system::MemorySystem::new(rc.mem_config(), space.build());
        let mut pc = rc.proc_config();
        pc.write_buffer_entries = depth;
        dashlat_cpu::machine::Machine::new(pc, topo, mem, w)
            .run()
            .map(|r| r.elapsed.as_u64())
            .map_err(|e| e.to_string())
    });
    for (depth, t) in DEPTHS.iter().zip(&elapsed) {
        if let Some(t) = t {
            println!("  depth {depth:>2}: {t:>12} pclk");
        }
    }

    println!("\n## Invalidation-ack latency (PTHOR, RC; what releases wait for)\n");
    const ACKS: [u64; 5] = [0, 10, 20, 40, 80];
    let points = ACKS.map(|ack| (format!("ack={ack}"), ack));
    let elapsed = log.measure("inval-ack-latency", &points, None, |&ack| {
        let topo = rc.topology();
        let mut space = dashlat_mem::layout::AddressSpaceBuilder::new(rc.processors);
        let w = App::Pthor.build(rc.scale, topo, &mut space, false);
        let mut mc = rc.mem_config();
        mc.latencies.inval_roundtrip = Cycle(ack);
        let mem = dashlat_mem::system::MemorySystem::new(mc, space.build());
        dashlat_cpu::machine::Machine::new(rc.proc_config(), topo, mem, w)
            .run()
            .map(|r| r.elapsed.as_u64())
            .map_err(|e| e.to_string())
    });
    for (ack, t) in ACKS.iter().zip(&elapsed) {
        if let Some(t) = t {
            println!("  ack +{ack:>3}: {t:>12} pclk");
        }
    }

    println!(
        "\n## Prefetch schedule: distributed vs whole-column burst (LU, SC+pf; section 5.2)\n"
    );
    let points = [false, true].map(|burst| {
        let point = if burst { "burst" } else { "distributed" };
        (point.to_owned(), burst)
    });
    let elapsed = log.measure("prefetch-schedule", &points, None, |&burst| {
        let topo = base.topology();
        let mut space = dashlat_mem::layout::AddressSpaceBuilder::new(base.processors);
        let params = dashlat_workloads::lu::LuParams {
            burst_prefetch: burst,
            ..match base.scale {
                dashlat::config::AppScale::Paper => dashlat_workloads::lu::LuParams::paper(),
                dashlat::config::AppScale::Test => dashlat_workloads::lu::LuParams::test_scale(),
            }
        };
        let w = dashlat_workloads::lu::Lu::new(params, topo, &mut space, true);
        let mem = dashlat_mem::system::MemorySystem::new(base.mem_config(), space.build());
        let mut pc = base.proc_config();
        pc.prefetching = true;
        dashlat_cpu::machine::Machine::new(pc, topo, mem, w)
            .run()
            .map(|r| r.elapsed.as_u64())
            .map_err(|e| e.to_string())
    });
    for (burst, t) in [false, true].iter().zip(&elapsed) {
        if let Some(t) = t {
            println!(
                "  {}: {t:>12} pclk",
                if *burst { "burst      " } else { "distributed" }
            );
        }
    }

    println!("\n## Context-switch overhead (MP3D, SC, 4 contexts)\n");
    const SWITCHES: [u64; 7] = [0, 1, 2, 4, 8, 16, 32];
    let points = SWITCHES.map(|sw| {
        let cfg = base.clone().with_contexts(4, Cycle(sw));
        (format!("switch={sw}"), (App::Mp3d, cfg))
    });
    let elapsed = log.measure("context-switch-overhead", &points, None, run_point);
    for (sw, t) in SWITCHES.iter().zip(&elapsed) {
        if let Some(t) = t {
            println!("  switch {sw:>2}: {t:>12} pclk");
        }
    }

    println!("\n## Cache scaling (all apps, SC)\n");
    const CACHES: [(&str, bool); 2] = [("scaled 2KB/4KB", false), ("full 64KB/256KB", true)];
    let read_hits: Vec<Mutex<String>> = (0..CACHES.len() * App::ALL.len())
        .map(|_| Mutex::new(String::new()))
        .collect();
    let mut points = Vec::new();
    for (label, full) in CACHES {
        for app in App::ALL {
            let cfg = if full {
                base.clone().with_full_caches()
            } else {
                base.clone()
            };
            let hits = &read_hits[points.len()];
            points.push((format!("{label}/{}", app.name()), (app, cfg, hits)));
        }
    }
    let elapsed = log.measure("cache-scaling", &points, None, |(app, cfg, hits)| {
        let e = run_isolated(*app, cfg).map_err(|f| f.to_string())?;
        *hits.lock().expect("hits lock") = e.result.mem.read_hits.to_string();
        Ok(e.result.elapsed.as_u64())
    });
    for (c, (label, _)) in CACHES.iter().enumerate() {
        for (a, app) in App::ALL.iter().enumerate() {
            let i = c * App::ALL.len() + a;
            if let Some(t) = elapsed[i] {
                println!(
                    "  {label:<16} {:<6} {t:>12} pclk | read hits {}",
                    app.name(),
                    read_hits[i].lock().expect("hits lock"),
                );
            }
        }
    }

    println!("\n## Read lookahead: the section-4.1 out-of-order what-if (all apps, RC)\n");
    const WINDOWS: [u64; 5] = [0, 16, 32, 64, 128];
    let mut points = Vec::new();
    for app in App::ALL {
        for window in WINDOWS {
            let cfg = base.clone().with_rc().with_read_lookahead(Cycle(window));
            points.push((format!("{}/W{window}", app.name()), (app, cfg)));
        }
    }
    let elapsed = log.measure("read-lookahead", &points, None, run_point);
    for (a, app) in App::ALL.iter().enumerate() {
        print!("  {:<6}", app.name());
        for (wi, window) in WINDOWS.iter().enumerate() {
            match elapsed[a * WINDOWS.len() + wi] {
                Some(t) => print!("  W{window}: {t:>11}"),
                None => print!("  W{window}:      failed"),
            }
        }
        println!();
    }

    println!("\n## Network model: endpoint ports vs 2-D mesh (all apps, SC)\n");
    let mut points = Vec::new();
    for app in App::ALL {
        points.push((format!("{}/ports", app.name()), (app, base.clone())));
        let mesh = base.clone().with_mesh_network();
        points.push((format!("{}/mesh", app.name()), (app, mesh)));
    }
    let elapsed = log.measure("network-model", &points, None, run_point);
    for (a, app) in App::ALL.iter().enumerate() {
        if let (Some(ports), Some(mesh)) = (elapsed[2 * a], elapsed[2 * a + 1]) {
            println!(
                "  {:<6} ports {ports:>12} | mesh {mesh:>12} | delta {:>+5.1}%",
                app.name(),
                (mesh as f64 / ports as f64 - 1.0) * 100.0
            );
        }
    }

    println!("\n## Directory organisation: full-map vs Dir_i-B (MP3D + PTHOR, SC)\n");
    const PTRS: [usize; 3] = [1, 2, 4];
    const DIR_APPS: [App; 2] = [App::Mp3d, App::Pthor];
    let mut points = Vec::new();
    for app in DIR_APPS {
        points.push((format!("{}/full-map", app.name()), (app, base.clone())));
        for ptrs in PTRS {
            let limited = base.clone().with_limited_directory(ptrs);
            points.push((format!("{}/Dir{ptrs}B", app.name()), (app, limited)));
        }
    }
    let elapsed = log.measure("directory", &points, None, run_point);
    let stride = 1 + PTRS.len();
    for (a, app) in DIR_APPS.iter().enumerate() {
        let full = elapsed[a * stride];
        for (p, ptrs) in PTRS.iter().enumerate() {
            if let (Some(full), Some(limited)) = (full, elapsed[a * stride + 1 + p]) {
                println!(
                    "  {:<6} full-map {full:>12} | Dir{ptrs}B {limited:>12} | delta {:>+5.1}%",
                    app.name(),
                    (limited as f64 / full as f64 - 1.0) * 100.0
                );
            }
        }
    }

    println!("\n## Contention model on/off (all apps, SC)\n");
    let mut points = Vec::new();
    for app in App::ALL {
        points.push((format!("{}/on", app.name()), (app, base.clone())));
        let mut cfg = base.clone();
        cfg.contention = false;
        points.push((format!("{}/off", app.name()), (app, cfg)));
    }
    let elapsed = log.measure("contention", &points, None, run_point);
    for (a, app) in App::ALL.iter().enumerate() {
        if let (Some(on), Some(off)) = (elapsed[2 * a], elapsed[2 * a + 1]) {
            println!(
                "  {:<6} contention on {on:>12} | off {off:>12} | queueing adds {:>5.1}%",
                app.name(),
                (on as f64 / off as f64 - 1.0) * 100.0
            );
        }
    }

    log.finish()
}
