//! Utilization-over-time view of each application.
//!
//! §2.3 of the paper describes LU's phase behaviour: "the processors get
//! poor cache hit ratio in the beginning, and high hit ratios towards the
//! end" as the active submatrix shrinks into the caches. This binary makes
//! that directly visible: busy cycles and long-latency misses per interval
//! of simulated time, rendered as sparklines.

use dashlat::apps::App;
use dashlat::config::AppScale;
use dashlat_bench::{base_config_from_args, print_preamble};
use dashlat_cpu::machine::Machine;
use dashlat_cpu::RunTimeline;
use dashlat_mem::layout::AddressSpaceBuilder;
use dashlat_mem::system::MemorySystem;
use dashlat_sim::Cycle;

fn main() {
    let base = base_config_from_args();
    print_preamble("Timeline (busy + misses per interval)", &base);
    let bucket = match base.scale {
        AppScale::Paper => Cycle(200_000),
        AppScale::Test => Cycle(10_000),
    };
    println!("bucket = {bucket}\n");
    for app in App::ALL {
        let topo = base.topology();
        let mut space = AddressSpaceBuilder::new(base.processors);
        let w = app.build(base.scale, topo, &mut space, base.prefetching);
        let mem = MemorySystem::new(base.mem_config(), space.build());
        let timeline = RunTimeline::new(bucket);
        let (res, tl) = Machine::observed(base.proc_config(), topo, mem, w, timeline)
            .with_max_cycles(Cycle(50_000_000_000))
            .run_observed()
            .expect("runs complete");
        println!("{} (elapsed {}):", app.name(), res.elapsed);
        println!("  busy   {}", tl.busy.sparkline());
        println!("  misses {}", tl.misses.sparkline());
        // Quantify the LU effect: miss density first third vs last third.
        let misses = tl.misses.buckets();
        if misses.len() >= 3 {
            let third = misses.len() / 3;
            let early: u64 = misses[..third].iter().sum();
            let late: u64 = misses[misses.len() - third..].iter().sum();
            println!(
                "  misses/interval: first third {:.0}, last third {:.0}",
                early as f64 / third as f64,
                late as f64 / third as f64
            );
        }
        println!();
    }
}
