//! Static prefetch placement lints (all advisory).
//!
//! The paper's software-controlled prefetching hides latency only when a
//! prefetch lands early enough and is actually consumed. Walking each
//! process's stream in program order:
//!
//! * **dead** — no demand access (read/write/rmw) touches the
//!   prefetched line before the next synchronization op. Sync ops bound
//!   the useful lifetime: a prefetched line may be invalidated by
//!   whatever the sync ordered, so a prefetch that does not feed a
//!   demand access in its own sync interval bought nothing.
//! * **late** — the static distance to the first demand access of the
//!   line (Σ compute cycles + 1 issue cycle per intervening op) is
//!   below the configured miss latency: the demand access still stalls
//!   for the remainder.
//! * **duplicate** — the line was already prefetched in this sync
//!   interval with no intervening demand access to it.
//! * **wrong-mode** — a shared-mode prefetch whose first demand access
//!   to the line in its sync interval is a write or RMW: the write still
//!   pays the ownership transition a read-exclusive prefetch would have
//!   hidden.
//!
//! Each category counts every finding exactly and keeps the first 64 as
//! witnesses ([`super::report::Witnesses`]).

use std::collections::HashMap;

use dashlat_cpu::ops::{Op, ProcId};
use dashlat_cpu::trace::Trace;
use dashlat_mem::addr::LineAddr;

use super::report::PrefetchLints;
use super::LintOptions;

/// Runs the prefetch pass directly over the extracted streams.
pub fn run(trace: &Trace, opts: &LintOptions) -> PrefetchLints {
    let mut out = PrefetchLints::default();
    for (p, stream) in trace.streams.iter().enumerate() {
        let pid = ProcId(p);
        // Open prefetches in the current sync interval:
        // line -> (issue index, exclusive, cycles accumulated since).
        let mut open: HashMap<LineAddr, (usize, bool, u64)> = HashMap::new();
        for (i, &op) in stream.iter().enumerate() {
            match op {
                Op::Prefetch { addr, exclusive } => {
                    out.total += 1;
                    let line = addr.line();
                    if open.contains_key(&line) {
                        out.duplicate.push((pid, i, line));
                    }
                    open.insert(line, (i, exclusive, 0));
                    bump(&mut open, 1);
                }
                Op::Compute(c) => bump(&mut open, c.max(1)),
                Op::Read(a) | Op::Write(a) | Op::Rmw(a) => {
                    let line = a.line();
                    if let Some((at, exclusive, dist)) = open.remove(&line) {
                        let write = !matches!(op, Op::Read(_));
                        let needed = if exclusive || write {
                            opts.write_miss_cycles
                        } else {
                            opts.read_miss_cycles
                        };
                        if dist < needed {
                            out.late.push(((pid, at, line), dist, needed));
                        }
                        if write && !exclusive {
                            out.wrong_mode.push((pid, at, line));
                        }
                    }
                    bump(&mut open, 1);
                }
                Op::Acquire(_) | Op::Release(_) | Op::Barrier(_) | Op::Done => {
                    // Interval ends: whatever is still open never fed a
                    // demand access.
                    let mut stale: Vec<(usize, LineAddr)> =
                        open.drain().map(|(l, (at, _, _))| (at, l)).collect();
                    stale.sort_unstable();
                    for (at, l) in stale {
                        out.dead.push((pid, at, l));
                    }
                }
            }
        }
    }
    out
}

fn bump(open: &mut HashMap<LineAddr, (usize, bool, u64)>, cycles: u64) {
    for (_, _, d) in open.values_mut() {
        *d += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_trace;
    use dashlat_cpu::ops::{LockId, SyncConfig};
    use dashlat_mem::addr::Addr;

    const OPTS: LintOptions = LintOptions {
        read_miss_cycles: 90,
        write_miss_cycles: 82,
    };

    fn trace(stream: Vec<Op>) -> Trace {
        Trace {
            streams: vec![stream],
            sync: SyncConfig {
                lock_addrs: vec![Addr(0x1000)],
                barrier_addrs: Vec::new(),
                labeled_ranges: Vec::new(),
            },
            page_homes: None,
        }
    }

    fn lints(stream: Vec<Op>) -> PrefetchLints {
        run(&trace(stream), &OPTS)
    }

    fn pf(a: u64) -> Op {
        Op::Prefetch {
            addr: Addr(a),
            exclusive: false,
        }
    }

    #[test]
    fn timely_prefetch_is_clean() {
        let f = lints(vec![
            pf(0x40),
            Op::Compute(200),
            Op::Read(Addr(0x40)),
            Op::Done,
        ]);
        assert_eq!(f.total, 1);
        assert!(f.dead.is_empty() && f.late.is_empty() && f.duplicate.is_empty());
        assert!(f.wrong_mode.is_empty());
    }

    #[test]
    fn late_prefetch_reports_distance() {
        let f = lints(vec![
            pf(0x40),
            Op::Compute(10),
            Op::Read(Addr(0x40)),
            Op::Done,
        ]);
        assert_eq!(f.late.total(), 1);
        let ((_, at, _), dist, needed) = f.late.sites()[0];
        assert_eq!(at, 0);
        assert_eq!(dist, 11); // 1 issue cycle + 10 compute
        assert_eq!(needed, 90);
    }

    #[test]
    fn sync_kills_open_prefetch() {
        let f = lints(vec![
            pf(0x40),
            Op::Compute(200),
            Op::Acquire(LockId(0)),
            Op::Read(Addr(0x40)),
            Op::Release(LockId(0)),
            Op::Done,
        ]);
        assert_eq!(f.dead.total(), 1, "{f:?}");
    }

    #[test]
    fn duplicate_prefetch_flagged_but_access_between_resets() {
        let f = lints(vec![
            pf(0x40),
            pf(0x40),
            Op::Compute(200),
            Op::Read(Addr(0x40)),
            pf(0x40),
            Op::Compute(200),
            Op::Read(Addr(0x40)),
            Op::Done,
        ]);
        assert_eq!(f.duplicate.total(), 1);
        assert_eq!(f.total, 3);
    }

    #[test]
    fn exclusive_prefetch_uses_write_threshold() {
        let f = lints(vec![
            Op::Prefetch {
                addr: Addr(0x40),
                exclusive: true,
            },
            Op::Compute(85),
            Op::Write(Addr(0x40)),
            Op::Done,
        ]);
        // 86 cycles covered >= 82 write-miss threshold: not late.
        assert!(f.late.is_empty(), "{f:?}");
        // Read-exclusive is the right mode for a write.
        assert!(f.wrong_mode.is_empty(), "{f:?}");
    }

    #[test]
    fn shared_prefetch_then_write_or_rmw_is_wrong_mode() {
        for demand in [Op::Write(Addr(0x48)), Op::Rmw(Addr(0x40))] {
            let f = lints(vec![pf(0x40), Op::Compute(200), demand, Op::Done]);
            assert_eq!(f.wrong_mode.total(), 1, "{demand:?}: {f:?}");
            assert_eq!(
                f.wrong_mode.sites(),
                vec![(ProcId(0), 0, Addr(0x40).line())]
            );
            assert!(f.late.is_empty() && f.dead.is_empty(), "{f:?}");
        }
        // Only the *first* demand access decides: a read consumes the
        // prefetch, so a later write is not charged to it.
        let f = lints(vec![
            pf(0x40),
            Op::Compute(200),
            Op::Read(Addr(0x40)),
            Op::Write(Addr(0x40)),
            Op::Done,
        ]);
        assert!(f.wrong_mode.is_empty(), "{f:?}");
    }

    #[test]
    fn totals_are_exact_beyond_the_witness_cap() {
        // 100 prefetches of distinct lines, none demanded: all dead.
        let mut stream: Vec<Op> = (0..100).map(|i| pf(0x40 + i * 0x100)).collect();
        stream.push(Op::Done);
        let r = lint_trace("cap", &trace(stream), Vec::new(), false, &OPTS);
        let f = &r.prefetch;
        assert_eq!(f.total, 100);
        assert_eq!(f.dead.total(), 100);
        assert_eq!(f.dead.sites().len(), 64);
        assert_eq!(f.dead.sites()[0], (ProcId(0), 0, Addr(0x40).line()));
        assert_eq!(f.dead.sites()[63].1, 63);
        assert!(
            r.render()
                .contains("prefetch: 100 issued, 100 dead, 0 late, 0 duplicate, 0 wrong-mode"),
            "{}",
            r.render()
        );
        let v = dashlat_sim::json::Value::parse(&r.to_json()).expect("valid json");
        let dead = v
            .get("prefetch")
            .and_then(|p| p.get("dead"))
            .and_then(dashlat_sim::json::Value::as_u64);
        assert_eq!(dead, Some(100));
    }

    #[test]
    fn same_line_different_byte_still_matches() {
        let f = lints(vec![
            pf(0x40),
            Op::Compute(200),
            Op::Read(Addr(0x48)),
            Op::Done,
        ]);
        assert!(f.dead.is_empty());
    }
}
