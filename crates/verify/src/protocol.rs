//! Exhaustive directory-protocol checking.
//!
//! Breadth-first closure of the coherence-protocol state space on tiny
//! configurations (2–4 processors, 1–4 cache lines, single-line caches so
//! conflict evictions and their write-backs are reachable). Each frontier
//! state is expanded by forking the memory system
//! ([`MemorySystem::fork_protocol_from`]) into one scratch state and
//! applying one more demand access; only a state whose fingerprint is new
//! is copied into the frontier. Every transition is checked against:
//!
//! * the **structural invariants** of
//!   [`MemorySystem::check_line_invariants`] — single-writer/multiple-
//!   reader, cache/directory agreement, primary⊆secondary inclusion;
//! * a **data-value invariant** tracked by a shadow freshness model: each
//!   line has a set of cache copies holding the *latest* value plus a
//!   memory-freshness bit, updated from first principles (a write makes
//!   its writer the only fresh holder and memory stale; servicing a read
//!   from a dirty remote cache writes the line back — unless the lazy
//!   sharing-writeback variant is enabled, in which case the owner keeps
//!   its dirty copy and the reader caches nothing; evicting a dirty copy
//!   writes it back). A read is a violation if it is serviced from a
//!   stale source — a cache hit on a non-fresh copy, or memory service
//!   while memory is stale.
//!
//! Visited states are deduplicated by a 128-bit FNV-1a fingerprint of a
//! compact byte encoding (directory entry, both cache levels per node,
//! shadow freshness bits); the report counts dedup hits so the closure's
//! sharing factor is visible. The closure is exact when it completes; a
//! state cap marks the report `truncated` and records how far it got, so
//! a bounded run can never masquerade as a full proof.

use std::collections::{HashSet, VecDeque};

use dashlat_mem::addr::{Addr, LineAddr, NodeId};
use dashlat_mem::directory::DirState;
use dashlat_mem::layout::{AddressSpaceBuilder, Placement};
use dashlat_mem::system::{AccessKind, MemConfig, MemorySystem, ServiceClass};
use dashlat_mem::{LatencyTable, LineState, LINE_BYTES};
use dashlat_sim::Cycle;

/// One checker configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolConfig {
    /// Processors (= nodes).
    pub nodes: usize,
    /// Distinct cache lines the alphabet touches. With the single-line
    /// primary / two-line direct-mapped secondary used here, three lines
    /// force conflict evictions (lines 0 and 2 collide).
    pub lines: usize,
    /// Check the lazy sharing-writeback protocol variant: a read hitting
    /// a remote dirty line is forwarded the value without downgrading the
    /// owner or updating memory.
    pub lazy: bool,
    /// Explored-state cap; exceeding it truncates (loudly).
    pub max_states: usize,
}

impl ProtocolConfig {
    /// Full closure on the smallest interesting machine.
    pub fn small() -> Self {
        ProtocolConfig {
            nodes: 2,
            lines: 3,
            lazy: false,
            max_states: 200_000,
        }
    }

    /// The small machine running the lazy sharing-writeback variant.
    pub fn small_lazy() -> Self {
        ProtocolConfig {
            lazy: true,
            ..ProtocolConfig::small()
        }
    }

    /// Wider machine, bounded: 4 processors sharing 2 lines.
    pub fn wide() -> Self {
        ProtocolConfig {
            nodes: 4,
            lines: 2,
            lazy: false,
            max_states: 150_000,
        }
    }

    /// The deep configuration: 4 processors over 4 lines, with both
    /// secondary-cache conflict pairs (0/2 and 1/3) live at once. This is
    /// the largest closure the suite proves exhaustively; the cap is
    /// head-room, not an expected bound.
    pub fn deep() -> Self {
        ProtocolConfig {
            nodes: 4,
            lines: 4,
            lazy: false,
            max_states: 4_000_000,
        }
    }
}

/// What one protocol-closure run established.
#[derive(Debug, Clone)]
pub struct ProtocolReport {
    /// The explored configuration.
    pub nodes: usize,
    /// Lines in the access alphabet.
    pub lines: usize,
    /// Whether the lazy sharing-writeback variant was checked.
    pub lazy: bool,
    /// Distinct protocol states reached.
    pub states: u64,
    /// Transitions applied (and checked).
    pub transitions: u64,
    /// Transitions that landed on an already-visited state (fingerprint
    /// dedup hits): the closure's sharing factor.
    pub dedup_hits: u64,
    /// True when the state cap stopped the closure: the result is a
    /// bounded-depth check, not a full proof, and reports must say so.
    pub truncated: bool,
    /// First invariant violation found, with the access path that
    /// reaches it from the initial state.
    pub violation: Option<String>,
}

impl ProtocolReport {
    /// True when no violation was found (truncated runs still pass —
    /// the `truncated` flag reports the reduced confidence separately).
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }

    /// One-line summary for suite output.
    pub fn summary(&self) -> String {
        format!(
            "directory protocol {}p/{}l{}: {} states, {} transitions, {} dedup hits{}{}",
            self.nodes,
            self.lines,
            if self.lazy { " (lazy write-back)" } else { "" },
            self.states,
            self.transitions,
            self.dedup_hits,
            if self.truncated {
                " [TRUNCATED — bounded-depth check, not a full closure]"
            } else {
                " (full closure)"
            },
            match &self.violation {
                Some(v) => format!("\n  VIOLATION: {v}"),
                None => String::new(),
            }
        )
    }
}

/// Shadow data-value model: which caches hold the latest value of each
/// line, and whether memory does.
#[derive(Debug)]
struct Shadow {
    /// `fresh[line][node]`: node's cached copy holds the latest value.
    fresh: Vec<Vec<bool>>,
    /// `mem_fresh[line]`: memory holds the latest value.
    mem_fresh: Vec<bool>,
}

dashlat_sim::clone_fields!(Shadow { fresh, mem_fresh });

impl Shadow {
    fn new(lines: usize, nodes: usize) -> Self {
        Shadow {
            fresh: vec![vec![false; nodes]; lines],
            mem_fresh: vec![true; lines],
        }
    }
}

/// One BFS node: the forked protocol state, its shadow, and the access
/// path that reached it (for violation reports).
#[derive(Clone)]
struct Node {
    sys: MemorySystem,
    shadow: Shadow,
    path: Vec<(usize, usize, AccessKind)>,
}

impl Node {
    /// Makes `self` a fork of `source` that one more access can be
    /// applied to, reusing `self`'s storage.
    fn fork_from(&mut self, source: &Node) {
        let Node { sys, shadow, path } = self;
        sys.fork_protocol_from(&source.sys);
        shadow.clone_from(&source.shadow);
        path.clone_from(&source.path);
    }
}

fn kind_name(k: AccessKind) -> &'static str {
    match k {
        AccessKind::Read => "R",
        AccessKind::Write => "W",
        AccessKind::ReadPrefetch => "PF",
        AccessKind::ReadExPrefetch => "PFx",
    }
}

fn format_path(path: &[(usize, usize, AccessKind)]) -> String {
    path.iter()
        .map(|&(n, l, k)| format!("P{n}:{} line{l}", kind_name(k)))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// 128-bit FNV-1a, fed one byte at a time.
struct Fnv1a128(u128);

impl Fnv1a128 {
    fn new() -> Self {
        Fnv1a128(0x6c62_272e_07bb_0142_62b8_2175_6295_c58d)
    }

    fn push(&mut self, byte: u8) {
        self.0 ^= u128::from(byte);
        self.0 = self
            .0
            .wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
}

fn line_state_byte(s: Option<LineState>) -> u8 {
    match s {
        None => 0,
        Some(LineState::Shared) => 1,
        Some(LineState::Dirty) => 2,
    }
}

/// Canonical fingerprint of a protocol state: directory entry plus both
/// cache levels' line states per node, plus the shadow freshness bits
/// (two states with equal caches but different value locations have
/// different futures for the data-value invariant). Encoded compactly
/// and hashed as it is encoded; a 128-bit digest makes accidental
/// collisions across a few-million-state closure vanishingly unlikely.
fn fingerprint(sys: &MemorySystem, shadow: &Shadow, lines: &[LineAddr]) -> u128 {
    let nodes = sys.config().nodes;
    let mut enc = Fnv1a128::new();
    for (li, &line) in lines.iter().enumerate() {
        match sys.directory_state(line) {
            DirState::Uncached => enc.push(0),
            DirState::Shared(set) => {
                enc.push(1);
                let mut bits: u8 = 0;
                for n in set.iter() {
                    bits |= 1 << n.0;
                }
                enc.push(bits);
            }
            DirState::SharedOverflow => enc.push(2),
            DirState::Dirty(owner) => {
                enc.push(3);
                enc.push(owner.0 as u8);
            }
        }
        for n in 0..nodes {
            enc.push(line_state_byte(sys.probe_primary(NodeId(n), line)));
            enc.push(line_state_byte(sys.probe_secondary(NodeId(n), line)));
            enc.push(u8::from(shadow.fresh[li][n]));
        }
        enc.push(0x80 | u8::from(shadow.mem_fresh[li]));
    }
    enc.0
}

/// Applies one access to a forked state, checking every invariant.
/// `dirty_before` is scratch space, kept across calls.
fn step(
    node: &mut Node,
    lines: &[LineAddr],
    li: usize,
    actor: usize,
    kind: AccessKind,
    lazy: bool,
    dirty_before: &mut Vec<bool>,
) -> Result<(), String> {
    let addr = lines[li].base();
    node.path.push((actor, li, kind));
    let fail = |msg: String, path: &[(usize, usize, AccessKind)]| {
        Err(format!("{msg}\n  path: {}", format_path(path)))
    };

    // Dirty copies present before the access (`dirty_before[line * nodes
    // + node]`): a dirty copy that vanishes without being the invalidation
    // target of this very write must have been evicted, which writes the
    // latest value back to memory.
    let nodes = node.sys.config().nodes;
    dirty_before.clear();
    for &l in lines {
        for n in 0..nodes {
            dirty_before.push(node.sys.probe_secondary(NodeId(n), l) == Some(LineState::Dirty));
        }
    }

    let res = node.sys.access(Cycle::ZERO, NodeId(actor), addr, kind);

    for (i, &l) in lines.iter().enumerate() {
        if let Err(e) = node.sys.check_line_invariants(l) {
            return fail(format!("structural invariant on line {i}: {e}"), &node.path);
        }
    }

    for (i, &l) in lines.iter().enumerate() {
        for (n, &was_dirty) in dirty_before[i * nodes..(i + 1) * nodes].iter().enumerate() {
            let vanished = was_dirty && node.sys.probe_secondary(NodeId(n), l).is_none();
            if vanished {
                let invalidated = kind == AccessKind::Write && i == li && n != actor;
                if !invalidated {
                    // Conflict eviction of a dirty line: write-back.
                    node.shadow.mem_fresh[i] = true;
                }
            }
        }
    }

    match kind {
        AccessKind::Write => {
            for n in 0..nodes {
                node.shadow.fresh[li][n] = n == actor;
            }
            node.shadow.mem_fresh[li] = false;
        }
        AccessKind::Read => match res.class {
            ServiceClass::PrimaryHit | ServiceClass::SecondaryHit => {
                if !node.shadow.fresh[li][actor] {
                    return fail(
                        format!(
                            "data-value invariant: P{actor} read line {li} as a \
                             cache hit on a STALE copy (class {:?})",
                            res.class
                        ),
                        &node.path,
                    );
                }
            }
            ServiceClass::LocalMem | ServiceClass::HomeMem => {
                if !node.shadow.mem_fresh[li] {
                    return fail(
                        format!(
                            "data-value invariant: P{actor} read line {li} from \
                             MEMORY while a cache holds a newer value (class {:?})",
                            res.class
                        ),
                        &node.path,
                    );
                }
                node.shadow.fresh[li][actor] = true;
            }
            ServiceClass::RemoteDirty => {
                if lazy {
                    // Lazy sharing write-back: the owner keeps its dirty
                    // copy, memory stays stale, and the reader caches
                    // nothing — the value was forwarded, not installed.
                    // The forwarding source must still be fresh.
                    if !node.shadow.fresh[li].iter().any(|&f| f) {
                        return fail(
                            format!(
                                "data-value invariant: P{actor} read line {li} \
                                 lazily forwarded from a remote cache, but no \
                                 cached copy is fresh"
                            ),
                            &node.path,
                        );
                    }
                } else {
                    // Serviced from the (unique, freshest) dirty owner;
                    // DASH sharing-writeback updates memory too.
                    node.shadow.mem_fresh[li] = true;
                    node.shadow.fresh[li][actor] = true;
                }
            }
            ServiceClass::Uncached | ServiceClass::PrefetchDiscard => {
                return fail(
                    format!(
                        "unexpected service class {:?} in protocol closure",
                        res.class
                    ),
                    &node.path,
                );
            }
        },
        AccessKind::ReadPrefetch | AccessKind::ReadExPrefetch => {
            unreachable!("prefetches are not in the closure alphabet")
        }
    }

    // A copy that is no longer cached cannot be fresh.
    for (i, &l) in lines.iter().enumerate() {
        for n in 0..nodes {
            if node.sys.probe_secondary(NodeId(n), l).is_none() {
                node.shadow.fresh[i][n] = false;
            }
        }
    }
    Ok(())
}

fn base_mem_config(cfg: ProtocolConfig) -> MemConfig {
    MemConfig {
        // Single-line primary, two-line secondary: conflict evictions
        // (and dirty write-backs) are reachable with three lines.
        primary_bytes: LINE_BYTES,
        secondary_bytes: 2 * LINE_BYTES,
        latencies: LatencyTable::uniform(Cycle(1)),
        contention: false,
        lazy_sharing_writeback: cfg.lazy,
        ..MemConfig::dash_scaled(cfg.nodes)
    }
}

fn run_closure(cfg: ProtocolConfig, mem_cfg: MemConfig) -> ProtocolReport {
    let mut b = AddressSpaceBuilder::new(cfg.nodes);
    let seg = b.alloc(
        "protocol-lines",
        cfg.lines as u64 * LINE_BYTES,
        Placement::RoundRobin,
    );
    let lines: Vec<LineAddr> = (0..cfg.lines)
        .map(|l| Addr(seg.at(l as u64 * LINE_BYTES).0).line())
        .collect();
    let root = Node {
        sys: MemorySystem::new(mem_cfg, b.build()),
        shadow: Shadow::new(cfg.lines, cfg.nodes),
        path: Vec::new(),
    };

    let mut report = ProtocolReport {
        nodes: cfg.nodes,
        lines: cfg.lines,
        lazy: cfg.lazy,
        states: 0,
        transitions: 0,
        dedup_hits: 0,
        truncated: false,
        violation: None,
    };
    let mut seen: HashSet<u128> = HashSet::new();
    seen.insert(fingerprint(&root.sys, &root.shadow, &lines));
    // Every transition is applied to this one state; most land on a state
    // already seen, and only a new one is copied into the frontier.
    let mut next = root.clone();
    let mut frontier = VecDeque::from([root]);
    let mut dirty_before = Vec::new();
    report.states = 1;

    while let Some(node) = frontier.pop_front() {
        for actor in 0..cfg.nodes {
            for li in 0..cfg.lines {
                for kind in [AccessKind::Read, AccessKind::Write] {
                    next.fork_from(&node);
                    report.transitions += 1;
                    let stepped = step(
                        &mut next,
                        &lines,
                        li,
                        actor,
                        kind,
                        cfg.lazy,
                        &mut dirty_before,
                    );
                    if let Err(v) = stepped {
                        report.violation = Some(v);
                        return report;
                    }
                    let fp = fingerprint(&next.sys, &next.shadow, &lines);
                    if seen.insert(fp) {
                        report.states += 1;
                        if report.states as usize >= cfg.max_states {
                            report.truncated = true;
                            return report;
                        }
                        frontier.push_back(next.clone());
                    } else {
                        report.dedup_hits += 1;
                    }
                }
            }
        }
    }
    report
}

/// Runs the reachable-state closure for one configuration.
pub fn check_directory(cfg: ProtocolConfig) -> ProtocolReport {
    run_closure(cfg, base_mem_config(cfg))
}

/// Runs the closure with the dropped-invalidation mutation armed: the
/// memory system skips the last invalidation of every exclusive fetch,
/// leaving a stale sharer behind. The closure must find the resulting
/// single-writer/multiple-reader or data-value violation — this is the
/// regression proof that the checker has teeth.
#[cfg(feature = "verify-mutations")]
pub fn check_directory_mutated(cfg: ProtocolConfig) -> ProtocolReport {
    let mut mem_cfg = base_mem_config(cfg);
    mem_cfg.drop_last_invalidation = true;
    run_closure(cfg, mem_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_closure_is_clean_and_complete() {
        let r = check_directory(ProtocolConfig::small());
        assert!(r.passed(), "{}", r.summary());
        assert!(!r.truncated, "small config must close: {}", r.summary());
        assert!(r.states > 50, "closure too small to be real: {}", r.states);
        assert!(r.dedup_hits > 0, "a real closure revisits states");
    }

    #[test]
    fn small_lazy_closure_is_clean_and_complete() {
        let r = check_directory(ProtocolConfig::small_lazy());
        assert!(r.passed(), "{}", r.summary());
        assert!(
            !r.truncated,
            "lazy small config must close: {}",
            r.summary()
        );
        assert!(r.lazy);
    }

    #[test]
    fn wide_closure_is_clean() {
        let r = check_directory(ProtocolConfig {
            nodes: 4,
            lines: 1,
            lazy: false,
            max_states: 100_000,
        });
        assert!(r.passed(), "{}", r.summary());
        assert!(!r.truncated);
    }

    #[test]
    fn state_cap_truncates_loudly() {
        let r = check_directory(ProtocolConfig {
            nodes: 2,
            lines: 3,
            lazy: false,
            max_states: 10,
        });
        assert!(r.truncated);
        assert!(r.summary().contains("TRUNCATED"));
    }

    #[test]
    fn deep_closure_prefix_is_clean() {
        // Bounded-depth smoke of the 4p/4l configuration; the full deep
        // closure runs in release mode via the suite's --deep-closure.
        let r = check_directory(ProtocolConfig {
            max_states: 20_000,
            ..ProtocolConfig::deep()
        });
        assert!(r.passed(), "{}", r.summary());
    }

    #[cfg(feature = "verify-mutations")]
    #[test]
    fn dropped_invalidation_is_caught_by_the_closure() {
        let r = check_directory_mutated(ProtocolConfig::small());
        assert!(
            !r.passed(),
            "dropped invalidation must violate an invariant: {}",
            r.summary()
        );
        let v = r.violation.unwrap();
        assert!(
            v.contains("path:"),
            "violation must carry a repro path: {v}"
        );
    }
}
