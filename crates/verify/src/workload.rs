//! Compiling litmus programs into machine workloads.
//!
//! Each litmus variable gets its own cache line in a dedicated data
//! segment; locks live in a separate segment so the value extractor can
//! filter lock-line coherence traffic by address. A per-processor start
//! *offset* (leading [`Op::Compute`] cycles) shifts that processor's whole
//! program in time — the harness sweeps offsets because same-cycle
//! tie-breaking alone cannot realise orderings between events that the
//! uniform-latency configuration pins to different cycles.

use dashlat_cpu::ops::{LockId, Op};
use dashlat_cpu::script::ScriptWorkload;
use dashlat_mem::addr::Addr;
use dashlat_mem::layout::{AddressSpaceBuilder, Placement};
use dashlat_mem::{PageMap, LINE_BYTES};

use crate::litmus::{LOp, LitmusTest};

/// The shared-address layout of one litmus run.
#[derive(Debug, Clone)]
pub struct LitmusLayout {
    /// Address of each litmus variable (one line apart).
    pub var_addrs: Vec<Addr>,
    /// Address of each lock.
    pub lock_addrs: Vec<Addr>,
    /// The finished page map (node count = processor count).
    pub page_map: PageMap,
}

/// Builds the address layout for `test` on an `nprocs`-node machine.
pub fn layout(test: &LitmusTest, nprocs: usize) -> LitmusLayout {
    let mut b = AddressSpaceBuilder::new(nprocs);
    let vars = b.alloc(
        "litmus-vars",
        (test.nvars.max(1) as u64) * LINE_BYTES,
        Placement::RoundRobin,
    );
    let var_addrs = (0..test.nvars)
        .map(|v| vars.at(v as u64 * LINE_BYTES))
        .collect();
    let lock_addrs = if test.nlocks > 0 {
        let locks = b.alloc(
            "litmus-locks",
            (test.nlocks as u64) * LINE_BYTES,
            Placement::RoundRobin,
        );
        (0..test.nlocks)
            .map(|l| locks.at(l as u64 * LINE_BYTES))
            .collect()
    } else {
        Vec::new()
    };
    LitmusLayout {
        var_addrs,
        lock_addrs,
        page_map: b.build(),
    }
}

/// Compiles `test` into a scripted machine workload with the given
/// per-processor start offsets (`offsets.len()` must equal the processor
/// count).
pub fn compile(test: &LitmusTest, lay: &LitmusLayout, offsets: &[u64]) -> ScriptWorkload {
    assert_eq!(offsets.len(), test.nprocs(), "one offset per processor");
    let programs = test
        .programs
        .iter()
        .zip(offsets)
        .map(|(prog, &off)| {
            let start = (off > 0).then_some(Op::Compute(off));
            start
                .into_iter()
                .chain(prog.iter().map(|op| match *op {
                    LOp::W(v, _) => Op::Write(lay.var_addrs[v]),
                    LOp::R(v) => Op::Read(lay.var_addrs[v]),
                    LOp::Rmw(v, _) => Op::Rmw(lay.var_addrs[v]),
                    LOp::Acq(l) => Op::Acquire(LockId(l)),
                    LOp::Rel(l) => Op::Release(LockId(l)),
                }))
                .collect()
        })
        .collect();
    let lines = lay.lock_addrs.len() + test.nprocs();
    ScriptWorkload::new(programs)
        .with_locks(lay.lock_addrs.clone())
        .with_shared_bytes(lines as u64 * LINE_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::by_name;
    use dashlat_cpu::ops::{ProcId, Workload};

    #[test]
    fn compiles_with_offsets_and_peeks() {
        let t = by_name("sb").unwrap();
        let lay = layout(&t, 2);
        let mut w = compile(&t, &lay, &[0, 3]);
        assert_eq!(w.processes(), 2);
        assert_eq!(w.peek_op(ProcId(1)), Some(Op::Compute(3)));
        assert_eq!(w.next_op(ProcId(1)), Op::Compute(3));
        assert_eq!(w.next_op(ProcId(0)), Op::Write(lay.var_addrs[0]));
        assert_eq!(w.next_op(ProcId(0)), Op::Read(lay.var_addrs[1]));
        assert_eq!(w.next_op(ProcId(0)), Op::Done);
        assert_eq!(w.next_op(ProcId(0)), Op::Done, "Done is sticky");
        assert_eq!(w.peek_op(ProcId(0)), Some(Op::Done));
    }

    #[test]
    fn vars_and_locks_live_on_distinct_lines() {
        let t = by_name("mp_pl").unwrap();
        let lay = layout(&t, 2);
        let mut lines: Vec<u64> = lay
            .var_addrs
            .iter()
            .chain(&lay.lock_addrs)
            .map(|a| a.line().index())
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), t.nvars + t.nlocks);
    }
}
