//! Reference-trace capture and replay.
//!
//! [`TraceRecorder`], attached to a machine as its [`Observer`], records
//! the operation stream each process actually issued during an
//! execution-driven run; [`Trace`] serializes it to a compact line-based
//! text format and loads it back as a [`ScriptWorkload`] for replay.
//!
//! **Fidelity caveat** (the reason the paper uses Tango-style
//! execution-driven simulation rather than traces, §2.3): a recorded trace
//! embeds the interleaving decisions of the configuration it was captured
//! under. Replaying it on a *different* machine configuration reproduces
//! the reference stream but not the feedback between timing and references
//! (lock order, task stealing, spin iteration counts). Traces are for
//! deterministic replay, debugging and external tooling — use the live
//! workloads for comparative experiments.

use std::fmt::Write as _;

use dashlat_mem::addr::Addr;

use crate::observe::Observer;
use crate::ops::{BarrierId, LabeledRange, LockId, Op, ProcId, SyncConfig, Workload};
use crate::script::ScriptWorkload;

/// A captured multi-process reference trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Per-process operation streams (including the final `Done`).
    pub streams: Vec<Vec<Op>>,
    /// The lock/barrier declarations of the traced workload.
    pub sync: SyncConfig,
    /// Page placement of the recorded address space:
    /// `(node_count, per-page home node)`. When present, a replay can
    /// reconstruct the exact local/remote classification of every address.
    pub page_homes: Option<(usize, Vec<usize>)>,
}

/// Error from parsing a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

impl Trace {
    /// Serializes the trace.
    ///
    /// Format: a header (`procs`, `lock`/`barrier` address declarations,
    /// `atomic <base> <len> <name>` labeled-competing ranges), then one
    /// line per op: `<pid> C <cycles>` / `R <addr>` / `W <addr>` /
    /// `P <addr> <0|1>` / `A <lock>` / `L <lock>` / `B <barrier>` / `D`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "procs {}", self.streams.len());
        if let Some((nodes, homes)) = &self.page_homes {
            let _ = write!(out, "pagemap {nodes}");
            for h in homes {
                let _ = write!(out, " {h}");
            }
            let _ = writeln!(out);
        }
        for a in &self.sync.lock_addrs {
            let _ = writeln!(out, "lock {:#x}", a.0);
        }
        for a in &self.sync.barrier_addrs {
            let _ = writeln!(out, "barrier {:#x}", a.0);
        }
        for r in &self.sync.labeled_ranges {
            let _ = writeln!(out, "atomic {:#x} {} {}", r.base.0, r.len, r.name);
        }
        for (pid, stream) in self.streams.iter().enumerate() {
            for op in stream {
                let _ = match op {
                    Op::Compute(n) => writeln!(out, "{pid} C {n}"),
                    Op::Read(a) => writeln!(out, "{pid} R {:#x}", a.0),
                    Op::Write(a) => writeln!(out, "{pid} W {:#x}", a.0),
                    Op::Rmw(a) => writeln!(out, "{pid} M {:#x}", a.0),
                    Op::Prefetch { addr, exclusive } => {
                        writeln!(out, "{pid} P {:#x} {}", addr.0, u8::from(*exclusive))
                    }
                    Op::Acquire(l) => writeln!(out, "{pid} A {}", l.0),
                    Op::Release(l) => writeln!(out, "{pid} L {}", l.0),
                    Op::Barrier(b) => writeln!(out, "{pid} B {}", b.0),
                    Op::Done => writeln!(out, "{pid} D"),
                };
            }
        }
        out
    }

    /// Parses a serialized trace.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] for malformed headers, out-of-range
    /// process ids, or unknown op codes.
    pub fn from_text(text: &str) -> Result<Trace, ParseTraceError> {
        let err = |line: usize, message: &str| ParseTraceError {
            line,
            message: message.to_owned(),
        };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| err(1, "empty trace"))?;
        let procs: usize = header
            .strip_prefix("procs ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(1, "expected `procs <n>` header"))?;
        if procs == 0 {
            return Err(err(1, "trace needs at least one process"));
        }
        let mut streams = vec![Vec::new(); procs];
        let mut sync = SyncConfig::default();
        let mut page_homes = None;
        let parse_hex = |s: &str| -> Option<u64> {
            s.strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
        };
        for (i, raw) in lines {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("pagemap ") {
                let mut it = rest.split_whitespace();
                let nodes: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err(lineno, "bad pagemap node count"))?;
                let homes: Option<Vec<usize>> = it.map(|v| v.parse().ok()).collect();
                let homes = homes.ok_or_else(|| err(lineno, "bad pagemap home"))?;
                if homes.iter().any(|&h| h >= nodes) {
                    return Err(err(lineno, "pagemap home out of range"));
                }
                page_homes = Some((nodes, homes));
                continue;
            }
            if let Some(rest) = line.strip_prefix("lock ") {
                let a = parse_hex(rest).ok_or_else(|| err(lineno, "bad lock address"))?;
                sync.lock_addrs.push(Addr(a));
                continue;
            }
            if let Some(rest) = line.strip_prefix("barrier ") {
                let a = parse_hex(rest).ok_or_else(|| err(lineno, "bad barrier address"))?;
                sync.barrier_addrs.push(Addr(a));
                continue;
            }
            if let Some(rest) = line.strip_prefix("atomic ") {
                let mut it = rest.splitn(3, ' ');
                let base = it
                    .next()
                    .and_then(parse_hex)
                    .ok_or_else(|| err(lineno, "bad atomic base address"))?;
                let len: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&l| l > 0)
                    .ok_or_else(|| err(lineno, "bad atomic range length"))?;
                let name = it.next().unwrap_or("labeled").to_owned();
                sync.labeled_ranges
                    .push(LabeledRange::new(Addr(base), len, name));
                continue;
            }
            let mut parts = line.split_whitespace();
            let pid: usize = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| err(lineno, "expected process id"))?;
            if pid >= procs {
                return Err(err(lineno, "process id out of range"));
            }
            let code = parts.next().ok_or_else(|| err(lineno, "missing op code"))?;
            let op = match code {
                "C" => Op::Compute(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err(lineno, "bad compute count"))?,
                ),
                "R" => Op::Read(Addr(
                    parts
                        .next()
                        .and_then(parse_hex)
                        .ok_or_else(|| err(lineno, "bad read address"))?,
                )),
                "W" => Op::Write(Addr(
                    parts
                        .next()
                        .and_then(parse_hex)
                        .ok_or_else(|| err(lineno, "bad write address"))?,
                )),
                "M" => Op::Rmw(Addr(
                    parts
                        .next()
                        .and_then(parse_hex)
                        .ok_or_else(|| err(lineno, "bad rmw address"))?,
                )),
                "P" => {
                    let addr = parts
                        .next()
                        .and_then(parse_hex)
                        .ok_or_else(|| err(lineno, "bad prefetch address"))?;
                    let ex = parts
                        .next()
                        .and_then(|v| v.parse::<u8>().ok())
                        .ok_or_else(|| err(lineno, "bad prefetch kind"))?;
                    Op::Prefetch {
                        addr: Addr(addr),
                        exclusive: ex != 0,
                    }
                }
                "A" => Op::Acquire(LockId(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err(lineno, "bad lock id"))?,
                )),
                "L" => Op::Release(LockId(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err(lineno, "bad lock id"))?,
                )),
                "B" => Op::Barrier(BarrierId(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err(lineno, "bad barrier id"))?,
                )),
                "D" => Op::Done,
                other => return Err(err(lineno, &format!("unknown op code {other:?}"))),
            };
            streams[pid].push(op);
        }
        Ok(Trace {
            streams,
            sync,
            page_homes,
        })
    }

    /// Turns the trace into a replayable workload.
    pub fn into_workload(self) -> ScriptWorkload {
        // Drop trailing Dones: ScriptWorkload appends them implicitly.
        let scripts: Vec<Vec<Op>> = self
            .streams
            .into_iter()
            .map(|mut s| {
                while s.last() == Some(&Op::Done) {
                    s.pop();
                }
                s
            })
            .collect();
        ScriptWorkload::new(scripts)
            .with_locks(self.sync.lock_addrs)
            .with_barriers(self.sync.barrier_addrs)
            .with_labeled_ranges(self.sync.labeled_ranges)
    }

    /// Total recorded operations.
    pub fn len(&self) -> usize {
        self.streams.iter().map(std::vec::Vec::len).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Records the operation stream each process pulls from its workload.
///
/// # Example
///
/// ```
/// use dashlat_cpu::observe::Observer;
/// use dashlat_cpu::ops::{Op, ProcId, Workload};
/// use dashlat_cpu::script::ScriptWorkload;
/// use dashlat_cpu::trace::TraceRecorder;
///
/// let mut w = ScriptWorkload::new(vec![vec![Op::Compute(5)]]);
/// let mut rec = TraceRecorder::new(&w);
/// rec.op(ProcId(0), w.next_op(ProcId(0))); // Compute(5)
/// rec.op(ProcId(0), w.next_op(ProcId(0))); // Done
/// let trace = rec.into_trace();
/// assert_eq!(trace.streams[0], vec![Op::Compute(5), Op::Done]);
/// ```
#[derive(Debug)]
pub struct TraceRecorder {
    streams: Vec<Vec<Op>>,
    /// Avoid recording unbounded runs of trailing `Done`s.
    finished: Vec<bool>,
    sync: SyncConfig,
}

impl TraceRecorder {
    /// Starts recording a run of `workload`.
    pub fn new(workload: &dyn Workload) -> Self {
        let n = workload.processes();
        TraceRecorder {
            streams: vec![Vec::new(); n],
            finished: vec![false; n],
            sync: workload.sync_config(),
        }
    }

    /// Finishes recording and returns the trace (without a page map).
    pub fn into_trace(self) -> Trace {
        Trace {
            streams: self.streams,
            sync: self.sync,
            page_homes: None,
        }
    }
}

impl Observer for TraceRecorder {
    fn op(&mut self, pid: ProcId, op: Op) {
        if !self.finished[pid.0] {
            self.streams[pid.0].push(op);
            if op == Op::Done {
                self.finished[pid.0] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            streams: vec![
                vec![
                    Op::Compute(7),
                    Op::Read(Addr(0x40)),
                    Op::Prefetch {
                        addr: Addr(0x80),
                        exclusive: true,
                    },
                    Op::Acquire(LockId(0)),
                    Op::Write(Addr(0x40)),
                    Op::Release(LockId(0)),
                    Op::Barrier(BarrierId(0)),
                    Op::Done,
                ],
                vec![Op::Barrier(BarrierId(0)), Op::Done],
            ],
            sync: SyncConfig {
                lock_addrs: vec![Addr(0x1000)],
                barrier_addrs: vec![Addr(0x2000)],
                labeled_ranges: vec![LabeledRange::new(Addr(0x3000), 32, "test scratch")],
            },
            page_homes: Some((4, vec![0, 1, 2, 3, 0])),
        }
    }

    #[test]
    fn text_round_trip() {
        let t = sample_trace();
        let text = t.to_text();
        let back = Trace::from_text(&text).expect("parses");
        assert_eq!(t, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::from_text("").is_err());
        assert!(Trace::from_text("procs 0").is_err());
        assert!(Trace::from_text("procs 1\n0 Z").is_err());
        assert!(Trace::from_text("procs 1\n5 C 3").is_err());
        assert!(Trace::from_text("procs 1\n0 R nothex").is_err());
        let e = Trace::from_text("procs 1\n0 Q").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let t = Trace::from_text("procs 1\n# comment\n\n0 C 3\n0 D\n").expect("parses");
        assert_eq!(t.streams[0], vec![Op::Compute(3), Op::Done]);
    }

    #[test]
    fn recorder_captures_everything_once() {
        use crate::script::ScriptWorkload;
        let mut inner = ScriptWorkload::new(vec![vec![Op::Compute(1), Op::Compute(2)]]);
        let mut rec = TraceRecorder::new(&inner);
        for _ in 0..10 {
            rec.op(ProcId(0), inner.next_op(ProcId(0)));
        }
        let t = rec.into_trace();
        // Exactly one trailing Done recorded.
        assert_eq!(t.streams[0], vec![Op::Compute(1), Op::Compute(2), Op::Done]);
    }

    #[test]
    fn into_workload_replays() {
        use crate::ops::Workload;
        let mut w = sample_trace().into_workload();
        assert_eq!(w.processes(), 2);
        assert_eq!(w.next_op(ProcId(0)), Op::Compute(7));
        assert_eq!(w.next_op(ProcId(1)), Op::Barrier(BarrierId(0)));
        assert_eq!(w.sync_config().lock_addrs, vec![Addr(0x1000)]);
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(sample_trace().len(), 10);
        assert!(!sample_trace().is_empty());
        let empty = Trace {
            streams: vec![vec![]],
            sync: SyncConfig::default(),
            page_homes: None,
        };
        assert!(empty.is_empty());
    }
}
