//! Findings produced by the static lint passes, the rendered report,
//! and its JSON form.

use dashlat_cpu::ops::{BarrierId, LockId, ProcId};
use dashlat_mem::addr::{Addr, LineAddr};
use dashlat_sim::json::quote;

use super::skeleton::BarrierDivergence;

/// How a finding affects the exit status.
///
/// * `Critical` findings mean the program's sync skeleton is broken
///   (possible deadlock, barrier divergence, statically possible
///   unlabeled race): `dashlat lint` fails.
/// * `Info` findings are performance or hygiene advice (over-labeling,
///   prefetch placement): reported, never fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint.
    Critical,
    /// Advisory only.
    Info,
}

/// A lock-order cycle: a set of nested acquires that distinct processes
/// can be blocked in simultaneously.
#[derive(Debug, Clone)]
pub struct LockCycle {
    /// The locks around the cycle, in order.
    pub locks: Vec<LockId>,
    /// One witness per cycle edge: `(pid, held lock, held-since op
    /// index, acquired lock, acquire op index)` — all pids distinct.
    pub witnesses: Vec<(ProcId, LockId, usize, LockId, usize)>,
}

impl std::fmt::Display for LockCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring: Vec<String> = self.locks.iter().map(|l| l.0.to_string()).collect();
        writeln!(f, "lock-order cycle {} -> {}:", ring.join(" -> "), ring[0])?;
        for (pid, held, since, acq, at) in &self.witnesses {
            writeln!(
                f,
                "      {pid} acquires lock {} (op #{at}) while holding lock {} (since op #{since})",
                acq.0, held.0
            )?;
        }
        Ok(())
    }
}

/// A lock a process still holds when its stream ends.
#[derive(Debug, Clone)]
pub struct UnreleasedLock {
    /// The holder.
    pub pid: ProcId,
    /// The lock.
    pub lock: LockId,
    /// Stream index of the unmatched acquire.
    pub acquired_at: usize,
    /// Other processes whose acquires of this lock are not forced to
    /// precede the holder's — they can block forever.
    pub waiters: Vec<ProcId>,
}

impl std::fmt::Display for UnreleasedLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} never releases lock {} (acquired op #{})",
            self.pid, self.lock.0, self.acquired_at
        )?;
        if self.waiters.is_empty() {
            write!(f, "; no other process acquires it")
        } else {
            let w: Vec<String> = self.waiters.iter().map(ToString::to_string).collect();
            write!(
                f,
                "; {} can block on it forever — definite deadlock",
                w.join(", ")
            )
        }
    }
}

/// Deadlock-pass findings.
#[derive(Debug, Clone, Default)]
pub struct DeadlockFindings {
    /// Lock-order cycles realizable by distinct processes.
    pub cycles: Vec<LockCycle>,
    /// Locks held past the end of a process's stream.
    pub unreleased: Vec<UnreleasedLock>,
    /// Releases of locks not held: `(pid, lock, op index)`.
    pub bad_releases: Vec<(ProcId, LockId, usize)>,
}

impl DeadlockFindings {
    /// Any finding that fails the lint.
    pub fn is_critical(&self) -> bool {
        !self.cycles.is_empty() || !self.unreleased.is_empty() || !self.bad_releases.is_empty()
    }
}

/// Barrier-pass findings.
#[derive(Debug, Clone, Default)]
pub struct BarrierFindings {
    /// Barrier episodes every process traverses identically.
    pub episodes: usize,
    /// First divergence, if the sequences differ.
    pub divergence: Option<BarrierDivergence>,
}

/// One statically possible unlabeled race (a competing pair the program
/// does not label).
#[derive(Debug, Clone)]
pub struct CompetingPair {
    /// The conflicting byte address.
    pub addr: Addr,
    /// Its cache line.
    pub line: LineAddr,
    /// One side: `(pid, op index, is_write)`.
    pub first: (ProcId, usize, bool),
    /// The other side.
    pub second: (ProcId, usize, bool),
}

impl std::fmt::Display for CompetingPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = |w: bool| if w { "write" } else { "read" };
        write!(
            f,
            "addr {:#x}: {} {} (op #{}) vs {} {} (op #{}) — no forced order, no common lock, unlabeled",
            self.addr.0,
            self.first.0,
            k(self.first.2),
            self.first.1,
            self.second.0,
            k(self.second.2),
            self.second.1,
        )
    }
}

/// A declared labeled range the program would certify without.
#[derive(Debug, Clone)]
pub struct OverLabel {
    /// The range's declared name.
    pub name: String,
    /// Range start.
    pub base: Addr,
    /// Range length in bytes.
    pub len: u64,
    /// Conflicting cross-process pairs inside the range (0 = unused
    /// label).
    pub conflicting_pairs: usize,
    /// Writes to the range across all processes.
    pub writes: usize,
    /// Estimated cycles of write latency the label forfeits under RC:
    /// labeled-competing writes must be performed conservatively, so
    /// each one pays roughly a remote ownership miss instead of retiring
    /// through the write buffer.
    pub est_stall_cycles: u64,
}

impl std::fmt::Display for OverLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.conflicting_pairs == 0 {
            write!(
                f,
                "label '{}' ({:#x}+{}): no cross-process conflicting access — unused label",
                self.name, self.base.0, self.len
            )
        } else {
            write!(
                f,
                "label '{}' ({:#x}+{}): all {} conflicting pairs already sync-ordered or \
                 lock-protected; labeling its {} writes competing forfeits ~{} cycles of RC \
                 write-latency hiding",
                self.name,
                self.base.0,
                self.len,
                self.conflicting_pairs,
                self.writes,
                self.est_stall_cycles
            )
        }
    }
}

/// PL-labeling-pass findings.
#[derive(Debug, Clone, Default)]
pub struct LabelingFindings {
    /// Every distinct address with at least one competing unlabeled
    /// pair (full list, for soundness cross-checks).
    pub under_labeled_addrs: Vec<Addr>,
    /// Witness pairs (capped; one per address).
    pub under_labeled: Vec<CompetingPair>,
    /// Labels the program does not need.
    pub over_labeled: Vec<OverLabel>,
    /// Cross-process conflicting pairs classified.
    pub pairs_checked: usize,
    /// Distinct shared addresses examined.
    pub addrs_checked: usize,
}

impl LabelingFindings {
    /// The static properly-labeled verdict: no statically possible
    /// unlabeled race.
    pub fn properly_labeled(&self) -> bool {
        self.under_labeled_addrs.is_empty()
    }
}

/// Witness sites kept per finding category.
const SITE_CAP: usize = 64;

/// One finding category: its exact count, and its first findings as
/// witnesses (at most 64).
#[derive(Debug, Clone)]
pub struct Witnesses<T> {
    total: usize,
    sites: Vec<T>,
}

impl<T> Default for Witnesses<T> {
    fn default() -> Self {
        Witnesses {
            total: 0,
            sites: Vec::new(),
        }
    }
}

impl<T> Witnesses<T> {
    /// Counts one finding, keeping it as a witness while under the cap.
    pub(crate) fn push(&mut self, site: T) {
        self.total += 1;
        if self.sites.len() < SITE_CAP {
            self.sites.push(site);
        }
    }

    /// Findings in the category, including those beyond the witness cap.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The first findings, in discovery order.
    pub fn sites(&self) -> &[T] {
        &self.sites
    }

    /// True when the category has no finding.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// One prefetch finding site: `(pid, op index, line)`.
pub type PrefetchSite = (ProcId, usize, LineAddr);

/// Prefetch-lint findings (all advisory).
#[derive(Debug, Clone, Default)]
pub struct PrefetchLints {
    /// Prefetches with no matching demand access before the next sync.
    pub dead: Witnesses<PrefetchSite>,
    /// Prefetches whose static distance to the first demand access is
    /// below the configured miss latency: `(site, distance, needed)`.
    pub late: Witnesses<(PrefetchSite, u64, u64)>,
    /// Prefetches re-fetching a line already prefetched with no
    /// intervening demand access or sync.
    pub duplicate: Witnesses<PrefetchSite>,
    /// Shared-mode prefetches whose first demand access to the line in
    /// their sync interval is a write or RMW: the write still pays for
    /// ownership.
    pub wrong_mode: Witnesses<PrefetchSite>,
    /// Total prefetches examined.
    pub total: usize,
}

/// The full static lint report for one program.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Workload or trace name.
    pub subject: String,
    /// Process count.
    pub nprocs: usize,
    /// Total operations extracted.
    pub total_ops: usize,
    /// Forced transitions the extractor had to make (each one is a
    /// critical finding: the sync skeleton alone could not make
    /// progress).
    pub extraction_notes: Vec<String>,
    /// True when extraction hit its op budget.
    pub truncated: bool,
    /// False when the must-happens-before fixpoint hit its sweep cap
    /// (conservative: may over-report competing pairs).
    pub converged: bool,
    /// Deadlock pass.
    pub deadlock: DeadlockFindings,
    /// Barrier pass.
    pub barriers: BarrierFindings,
    /// PL-labeling pass.
    pub labeling: LabelingFindings,
    /// Prefetch pass.
    pub prefetch: PrefetchLints,
}

impl LintReport {
    /// True when any finding is fatal (exit code `LINT`).
    pub fn is_critical(&self) -> bool {
        !self.extraction_notes.is_empty()
            || self.deadlock.is_critical()
            || self.barriers.divergence.is_some()
            || !self.labeling.properly_labeled()
    }

    /// True when `--strict` should additionally fail: the analysis was
    /// incomplete (truncated extraction or unconverged fixpoint).
    pub fn is_incomplete(&self) -> bool {
        self.truncated || !self.converged
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== lint {} ==  ({} procs, {} ops, {} sync-identical barrier episodes)",
            self.subject, self.nprocs, self.total_ops, self.barriers.episodes
        );
        for note in &self.extraction_notes {
            let _ = writeln!(s, "  CRITICAL extraction: {note}");
        }
        if self.truncated {
            let _ = writeln!(s, "  WARNING extraction truncated by op budget");
        }
        if !self.converged {
            let _ = writeln!(s, "  WARNING must-happens-before fixpoint hit sweep cap");
        }
        for c in &self.deadlock.cycles {
            let _ = write!(s, "  CRITICAL deadlock: {c}");
        }
        for u in &self.deadlock.unreleased {
            let _ = writeln!(s, "  CRITICAL deadlock: {u}");
        }
        for (pid, l, i) in &self.deadlock.bad_releases {
            let _ = writeln!(
                s,
                "  CRITICAL deadlock: {pid} releases lock {} (op #{i}) without holding it",
                l.0
            );
        }
        if let Some(d) = &self.barriers.divergence {
            let _ = writeln!(
                s,
                "  CRITICAL barrier: divergence at episode {}: {} arrives at {}, {} at {}",
                d.episode,
                d.expected.0,
                fmt_barrier(d.expected.1),
                d.got.0,
                fmt_barrier(d.got.1),
            );
        }
        let lb = &self.labeling;
        let _ = writeln!(
            s,
            "  labeling: {} addrs, {} cross-process conflicting pairs -> {}",
            lb.addrs_checked,
            lb.pairs_checked,
            if lb.properly_labeled() {
                "properly labeled (static)".to_string()
            } else {
                format!("{} under-labeled addrs", lb.under_labeled_addrs.len())
            }
        );
        for p in &lb.under_labeled {
            let _ = writeln!(s, "  CRITICAL under-labeled: {p}");
        }
        for o in &lb.over_labeled {
            let _ = writeln!(s, "  INFO over-labeled: {o}");
        }
        let pf = &self.prefetch;
        let _ = writeln!(
            s,
            "  prefetch: {} issued, {} dead, {} late, {} duplicate, {} wrong-mode",
            pf.total,
            pf.dead.total(),
            pf.late.total(),
            pf.duplicate.total(),
            pf.wrong_mode.total()
        );
        for &(pid, i, line) in pf.dead.sites().iter().take(4) {
            let _ = writeln!(
                s,
                "  INFO dead prefetch: {pid} op #{i} line {:#x} never demanded before next sync",
                line.base().0
            );
        }
        for &((pid, i, _), dist, need) in pf.late.sites().iter().take(4) {
            let _ = writeln!(
                s,
                "  INFO late prefetch: {pid} op #{i} covers only {dist} of {need} miss cycles",
            );
        }
        for &(pid, i, line) in pf.duplicate.sites().iter().take(4) {
            let _ = writeln!(
                s,
                "  INFO duplicate prefetch: {pid} op #{i} re-fetches line {:#x}",
                line.base().0
            );
        }
        for &(pid, i, line) in pf.wrong_mode.sites().iter().take(4) {
            let _ = writeln!(
                s,
                "  INFO wrong-mode prefetch: {pid} op #{i} prefetches line {:#x} shared, then writes it",
                line.base().0
            );
        }
        let _ = writeln!(
            s,
            "  verdict: {}",
            if self.is_critical() { "FAIL" } else { "clean" }
        );
        s
    }

    /// JSON object for `--json` output.
    pub fn to_json(&self) -> String {
        let under: Vec<String> = self
            .labeling
            .under_labeled_addrs
            .iter()
            .map(|a| a.0.to_string())
            .collect();
        let over: Vec<String> = self
            .labeling
            .over_labeled
            .iter()
            .map(|o| {
                format!(
                    "{{\"name\":{},\"base\":{},\"len\":{},\"conflicting_pairs\":{},\"writes\":{},\"est_stall_cycles\":{}}}",
                    quote(&o.name), o.base.0, o.len, o.conflicting_pairs, o.writes, o.est_stall_cycles
                )
            })
            .collect();
        let notes: Vec<String> = self.extraction_notes.iter().map(|n| quote(n)).collect();
        format!(
            "{{\"subject\":{},\"nprocs\":{},\"total_ops\":{},\"critical\":{},\"incomplete\":{},\
             \"extraction_notes\":[{}],\
             \"deadlock\":{{\"cycles\":{},\"unreleased\":{},\"bad_releases\":{}}},\
             \"barriers\":{{\"episodes\":{},\"diverged\":{}}},\
             \"labeling\":{{\"properly_labeled\":{},\"under_labeled_addrs\":[{}],\"over_labeled\":[{}],\
             \"pairs_checked\":{},\"addrs_checked\":{}}},\
             \"prefetch\":{{\"total\":{},\"dead\":{},\"late\":{},\"duplicate\":{},\"wrong_mode\":{}}}}}",
            quote(&self.subject),
            self.nprocs,
            self.total_ops,
            self.is_critical(),
            self.is_incomplete(),
            notes.join(","),
            self.deadlock.cycles.len(),
            self.deadlock.unreleased.len(),
            self.deadlock.bad_releases.len(),
            self.barriers.episodes,
            self.barriers.divergence.is_some(),
            self.labeling.properly_labeled(),
            under.join(","),
            over.join(","),
            self.labeling.pairs_checked,
            self.labeling.addrs_checked,
            self.prefetch.total,
            self.prefetch.dead.total(),
            self.prefetch.late.total(),
            self.prefetch.duplicate.total(),
            self.prefetch.wrong_mode.total(),
        )
    }
}

fn fmt_barrier(b: Option<BarrierId>) -> String {
    match b {
        Some(b) => format!("barrier {}", b.0),
        None => "no barrier (stream ends)".to_string(),
    }
}
