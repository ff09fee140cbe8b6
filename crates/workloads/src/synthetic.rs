//! Synthetic microworkloads.
//!
//! These are not from the paper; they exercise the machine in controlled
//! ways for tests and ablation benches: a uniform random sweep (worst-case
//! locality) and a strided sweep (predictable, prefetch-friendly).

use std::collections::VecDeque;

use dashlat_cpu::ops::{Op, ProcId, SyncConfig, Topology, Workload};
use dashlat_mem::layout::{AddressSpaceBuilder, Placement, Segment};
use dashlat_mem::LINE_BYTES;
use dashlat_sim::Xorshift;

/// Uniformly random reads/writes over a shared region.
///
/// Each process performs `accesses` operations; a fraction `write_ratio`
/// are writes. With a region much larger than the caches this produces the
/// miss-dominated behaviour that motivates every latency technique.
#[derive(Debug, Clone)]
pub struct UniformRandom {
    topo: Topology,
    region: Segment,
    accesses: u64,
    write_ratio: f64,
    compute_between: u64,
    rngs: Vec<Xorshift>,
    issued: Vec<u64>,
    queue: Vec<VecDeque<Op>>,
}

impl UniformRandom {
    /// Allocates the shared region and builds the workload.
    pub fn new(
        topo: Topology,
        space: &mut AddressSpaceBuilder,
        region_bytes: u64,
        accesses_per_process: u64,
        write_ratio: f64,
        compute_between: u64,
        seed: u64,
    ) -> Self {
        let region = space.alloc("uniform-region", region_bytes, Placement::RoundRobin);
        let mut root = Xorshift::new(seed);
        let rngs = (0..topo.processes()).map(|_| root.fork()).collect();
        UniformRandom {
            topo,
            region,
            accesses: accesses_per_process,
            write_ratio,
            compute_between,
            rngs,
            issued: vec![0; topo.processes()],
            queue: (0..topo.processes()).map(|_| VecDeque::new()).collect(),
        }
    }

    fn refill(&mut self, pid: ProcId) {
        if self.issued[pid.0] >= self.accesses {
            return;
        }
        self.issued[pid.0] += 1;
        let rng = &mut self.rngs[pid.0];
        let lines = self.region.len() / LINE_BYTES;
        let addr = self.region.at(rng.below(lines) * LINE_BYTES);
        let q = &mut self.queue[pid.0];
        if self.compute_between > 0 {
            q.push_back(Op::Compute(self.compute_between));
        }
        if rng.chance(self.write_ratio) {
            q.push_back(Op::Write(addr));
        } else {
            q.push_back(Op::Read(addr));
        }
    }
}

impl Workload for UniformRandom {
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
        "uniform-random"
    }
}

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
    fn uniform_random_issues_expected_counts() {
        let topo = Topology::new(4, 1);
        let mut space = AddressSpaceBuilder::new(4);
        let w = UniformRandom::new(topo, &mut space, 64 * 1024, 200, 0.3, 4, 7);
        let res = run_workload(topo, space, w, ProcConfig::sc_baseline());
        assert_eq!(res.shared_reads + res.shared_writes, 4 * 200);
        assert!(res.shared_writes > 100, "write ratio not honoured");
        assert!(res.aggregate.read_stall > Cycle::ZERO);
    }

    #[test]
    fn uniform_random_is_deterministic() {
        let mk = || {
            let topo = Topology::new(2, 1);
            let mut space = AddressSpaceBuilder::new(2);
            let w = UniformRandom::new(topo, &mut space, 16 * 1024, 100, 0.5, 2, 42);
            run_workload(topo, space, w, ProcConfig::sc_baseline())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.aggregate, b.aggregate);
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
