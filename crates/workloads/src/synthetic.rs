//! A synthetic microworkload.
//!
//! It is not from the paper: a strided sweep exercises the machine in a
//! controlled, prefetch-friendly way for tests and examples.

use std::collections::VecDeque;

use dashlat_cpu::ops::{Op, ProcId, SyncConfig, Topology, Workload};
use dashlat_mem::layout::{AddressSpaceBuilder, Placement, Segment};
use dashlat_mem::LINE_BYTES;

/// A strided sweep over a large array, optionally emitting prefetches a
/// fixed distance ahead — the canonical prefetch-friendly pattern.
#[derive(Debug, Clone)]
pub struct StrideSweep {
    topo: Topology,
    region: Segment,
    lines_per_process: u64,
    compute_per_line: u64,
    prefetch_distance: u64,
    cursor: Vec<u64>,
    queue: Vec<VecDeque<Op>>,
}

impl StrideSweep {
    /// Allocates the array; each process sweeps its own contiguous chunk of
    /// `lines_per_process` cache lines.
    pub fn new(
        topo: Topology,
        space: &mut AddressSpaceBuilder,
        lines_per_process: u64,
        compute_per_line: u64,
        prefetch_distance: u64,
    ) -> Self {
        let bytes = lines_per_process * LINE_BYTES * topo.processes() as u64;
        let region = space.alloc("stride-region", bytes, Placement::RoundRobin);
        StrideSweep {
            topo,
            region,
            lines_per_process,
            compute_per_line,
            prefetch_distance,
            cursor: vec![0; topo.processes()],
            queue: (0..topo.processes()).map(|_| VecDeque::new()).collect(),
        }
    }

    fn line_addr(&self, pid: ProcId, i: u64) -> dashlat_mem::Addr {
        let base = pid.0 as u64 * self.lines_per_process;
        self.region.at((base + i) * LINE_BYTES)
    }

    fn refill(&mut self, pid: ProcId) {
        let i = self.cursor[pid.0];
        if i >= self.lines_per_process {
            return;
        }
        self.cursor[pid.0] += 1;
        let addr = self.line_addr(pid, i);
        let pf = i + self.prefetch_distance;
        let pf_addr = (self.prefetch_distance > 0 && pf < self.lines_per_process)
            .then(|| self.line_addr(pid, pf));
        let q = &mut self.queue[pid.0];
        if let Some(a) = pf_addr {
            q.push_back(Op::Prefetch {
                addr: a,
                exclusive: false,
            });
        }
        q.push_back(Op::Compute(self.compute_per_line));
        q.push_back(Op::Read(addr));
    }
}

impl Workload for StrideSweep {
    fn fork(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(self.clone()))
    }

    fn processes(&self) -> usize {
        self.topo.processes()
    }

    fn next_op(&mut self, pid: ProcId) -> Op {
        if self.queue[pid.0].is_empty() {
            self.refill(pid);
        }
        self.queue[pid.0].pop_front().unwrap_or(Op::Done)
    }

    fn sync_config(&self) -> SyncConfig {
        SyncConfig::default()
    }

    fn shared_bytes(&self) -> u64 {
        self.region.len()
    }

    fn name(&self) -> &str {
        "stride-sweep"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashlat_cpu::config::ProcConfig;
    use dashlat_cpu::machine::Machine;
    use dashlat_mem::system::{MemConfig, MemorySystem};
    use dashlat_sim::Cycle;

    fn run_workload<W: Workload>(
        topo: Topology,
        space: AddressSpaceBuilder,
        w: W,
        cfg: ProcConfig,
    ) -> dashlat_cpu::machine::RunResult {
        let mem = MemorySystem::new(MemConfig::dash_scaled(topo.processors), space.build());
        Machine::new(cfg, topo, mem, w)
            .with_max_cycles(Cycle(200_000_000))
            .run()
            .expect("workload terminates")
    }

    #[test]
    fn stride_sweep_prefetching_helps() {
        let mk = |pf_dist: u64, enabled: bool| {
            let topo = Topology::new(2, 1);
            let mut space = AddressSpaceBuilder::new(2);
            let w = StrideSweep::new(topo, &mut space, 400, 20, pf_dist);
            let cfg = if enabled {
                ProcConfig::sc_baseline().with_prefetching()
            } else {
                ProcConfig::sc_baseline()
            };
            run_workload(topo, space, w, cfg)
        };
        let without = mk(0, false);
        let with = mk(8, true);
        assert!(
            with.elapsed < without.elapsed,
            "prefetching did not help: {} !< {}",
            with.elapsed,
            without.elapsed
        );
        assert!(
            with.aggregate.read_stall < without.aggregate.read_stall,
            "read stall not reduced"
        );
    }
}
