//! Processor-side configuration: consistency model, contexts, buffers.

use dashlat_sim::fault::FaultPlan;
use dashlat_sim::Cycle;

/// Memory consistency model (paper §4).
///
/// The paper evaluates the two ends of the spectrum (SC and RC) and notes
/// that processor consistency and weak consistency "fall between
/// sequential and release consistency models in terms of flexibility".
/// Both intermediates are implemented here as extensions so the whole
/// spectrum can be swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// Sequential consistency: every access is delayed until the previous
    /// one completes; the processor stalls on every read *and* write.
    Sc,
    /// Processor consistency (Goodman): writes from one processor are seen
    /// in issue order, but reads may bypass buffered writes. Modelled as
    /// the RC write path with *every* write treated like a release is not
    /// needed — only FIFO retirement, which the write buffer already
    /// guarantees; unlike RC, a release gets no special treatment (it
    /// retires in FIFO order without waiting for invalidation acks).
    Pc,
    /// Weak consistency (Dubois et al.): ordinary accesses are buffered
    /// and pipelined, but *every* synchronization access (acquire and
    /// release alike) waits until all previously issued accesses complete,
    /// including invalidation acknowledgements.
    Wc,
    /// Release consistency: writes retire through the write buffer, reads
    /// bypass buffered writes, and only a *release* is delayed until all
    /// previous writes (including invalidation acks) complete.
    Rc,
}

impl Consistency {
    /// True for the models that buffer writes (everything except SC).
    pub fn buffers_writes(self) -> bool {
        !matches!(self, Consistency::Sc)
    }

    /// True if a release access must wait for all prior writes' acks.
    pub fn release_waits(self) -> bool {
        matches!(self, Consistency::Wc | Consistency::Rc)
    }

    /// True if an acquire access must wait for all prior writes' acks
    /// (weak consistency fences on every synchronization operation).
    pub fn acquire_waits(self) -> bool {
        matches!(self, Consistency::Wc)
    }
}

impl std::fmt::Display for Consistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Consistency::Sc => write!(f, "SC"),
            Consistency::Pc => write!(f, "PC"),
            Consistency::Wc => write!(f, "WC"),
            Consistency::Rc => write!(f, "RC"),
        }
    }
}

impl std::str::FromStr for Consistency {
    type Err = String;

    /// Parses the lowercase or uppercase model name (`sc`, `pc`, `wc`,
    /// `rc`) — the inverse of [`Display`](std::fmt::Display), shared by
    /// the CLI flag parser and the job-submission API.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sc" => Ok(Consistency::Sc),
            "pc" => Ok(Consistency::Pc),
            "wc" => Ok(Consistency::Wc),
            "rc" => Ok(Consistency::Rc),
            other => Err(format!(
                "unknown consistency model {other:?} (expected sc, pc, wc or rc)"
            )),
        }
    }
}

/// Configuration of each processor's environment.
#[derive(Debug, Clone)]
pub struct ProcConfig {
    /// Consistency model.
    pub consistency: Consistency,
    /// Hardware contexts per processor (1, 2 or 4 in the paper).
    pub contexts: usize,
    /// Cycles to switch between contexts (4 or 16 in the paper).
    pub switch_overhead: Cycle,
    /// Stalls at or below this many cycles do not trigger a context switch
    /// (the 2-cycle secondary write hit stays "no switch" idle; bus-level
    /// misses switch).
    pub no_switch_threshold: Cycle,
    /// Whether software prefetch operations are honoured; when false,
    /// `Op::Prefetch` is a free no-op (the "without prefetching" bars).
    pub prefetching: bool,
    /// Instruction overhead charged per issued prefetch (address
    /// computation, the conditional, and the prefetch instruction itself).
    pub prefetch_issue_overhead: Cycle,
    /// Write buffer depth (16 in the paper).
    pub write_buffer_entries: usize,
    /// Prefetch buffer depth (16 in the paper).
    pub prefetch_buffer_entries: usize,
    /// Minimum spacing between successive prefetch issues onto the bus
    /// (the bus transfer occupancy; prefetches behind it pipeline).
    pub prefetch_issue_spacing: Cycle,
    /// Minimum spacing between successive write-buffer issues onto the bus
    /// (RC pipelines writes at this rate).
    pub write_issue_spacing: Cycle,
    /// Perfect-lookahead window for reads, in cycles. The paper's
    /// processors stall on every read; it notes that "processors that
    /// allow multiple outstanding reads and out-of-order execution" were an
    /// open research question (§4.1). This knob answers the what-if as an
    /// optimistic bound: up to this many cycles of every read miss are
    /// assumed to overlap with independent work, so the charged stall is
    /// `max(0, miss latency − window)`. Zero (the default) reproduces the
    /// paper's blocking-read processors.
    pub read_lookahead: Cycle,
    /// Fault-injection plan shared by the memory system and the
    /// processor-side buffers; `None` (or an inactive plan) runs clean.
    pub faults: Option<FaultPlan>,
    /// Check the coherence invariants of every touched line after every
    /// memory access, failing the run with
    /// [`RunError::InvariantViolation`](crate::machine::RunError) on the
    /// first violation. Defaults to on in debug builds, off in release.
    pub check_invariants: bool,
    /// Enforce the write buffer's W→W FIFO retirement order as an online
    /// invariant, failing the run with
    /// [`RunError::InvariantViolation`](crate::machine::RunError) when an
    /// older buffered write is serviced after a newer one. Off by
    /// default and deliberately *separate* from [`check_invariants`]: the
    /// memory-model verifier runs seeded-mutation litmus tests (which
    /// reorder on purpose) with coherence checking on, expecting them to
    /// *complete* with reordered outcomes. Chaos testing and sweep
    /// supervision turn this on to catch reordering bugs as first-class
    /// failures.
    ///
    /// [`check_invariants`]: ProcConfig::check_invariants
    pub enforce_wb_fifo: bool,
    /// **Deliberately seeded relaxation bug** (compiled only with the
    /// `verify-mutations` feature; defaults to `false` so a
    /// feature-unified workspace build behaves identically). When set, the
    /// write buffer services its *second* entry ahead of its head whenever
    /// two or more data writes are queued — breaking the W→W FIFO order
    /// every buffering model in this machine guarantees. Exists purely so
    /// the memory-model verifier's regression tests can prove the checker
    /// catches a real reordering bug with a rendered counterexample.
    #[cfg(feature = "verify-mutations")]
    pub relaxation_bug: bool,
}

impl ProcConfig {
    /// The paper's baseline: single-context SC machine, prefetching off.
    pub fn sc_baseline() -> Self {
        ProcConfig {
            consistency: Consistency::Sc,
            contexts: 1,
            switch_overhead: Cycle(4),
            no_switch_threshold: Cycle(6),
            prefetching: false,
            prefetch_issue_overhead: Cycle(3),
            write_buffer_entries: 16,
            prefetch_buffer_entries: 16,
            prefetch_issue_spacing: Cycle(4),
            write_issue_spacing: Cycle(4),
            read_lookahead: Cycle(0),
            faults: None,
            check_invariants: cfg!(debug_assertions),
            enforce_wb_fifo: false,
            #[cfg(feature = "verify-mutations")]
            relaxation_bug: false,
        }
    }

    /// Release-consistency variant of the baseline.
    pub fn rc_baseline() -> Self {
        ProcConfig {
            consistency: Consistency::Rc,
            ..Self::sc_baseline()
        }
    }

    /// Processor-consistency variant (extension; see [`Consistency::Pc`]).
    pub fn pc_baseline() -> Self {
        ProcConfig {
            consistency: Consistency::Pc,
            ..Self::sc_baseline()
        }
    }

    /// Weak-consistency variant (extension; see [`Consistency::Wc`]).
    pub fn wc_baseline() -> Self {
        ProcConfig {
            consistency: Consistency::Wc,
            ..Self::sc_baseline()
        }
    }

    /// Returns a copy with prefetching enabled.
    pub fn with_prefetching(mut self) -> Self {
        self.prefetching = true;
        self
    }

    /// Returns a copy with `contexts` hardware contexts and the given
    /// switch overhead.
    pub fn with_contexts(mut self, contexts: usize, switch_overhead: Cycle) -> Self {
        assert!(contexts > 0, "need at least one context");
        self.contexts = contexts;
        self.switch_overhead = switch_overhead;
        self
    }

    /// Returns a copy that runs under the given fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Returns a copy with online invariant checking forced on or off.
    pub fn with_invariant_checks(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Returns a copy with the write-buffer W→W FIFO-order invariant
    /// enforced (see [`ProcConfig::enforce_wb_fifo`]).
    pub fn with_wb_fifo_enforcement(mut self) -> Self {
        self.enforce_wb_fifo = true;
        self
    }
}

impl Default for ProcConfig {
    fn default() -> Self {
        Self::sc_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines() {
        let sc = ProcConfig::sc_baseline();
        assert_eq!(sc.consistency, Consistency::Sc);
        assert_eq!(sc.contexts, 1);
        assert!(!sc.prefetching);
        assert_eq!(sc.write_buffer_entries, 16);
        let rc = ProcConfig::rc_baseline();
        assert_eq!(rc.consistency, Consistency::Rc);
    }

    #[test]
    fn builder_helpers() {
        let c = ProcConfig::rc_baseline()
            .with_prefetching()
            .with_contexts(4, Cycle(16));
        assert!(c.prefetching);
        assert_eq!(c.contexts, 4);
        assert_eq!(c.switch_overhead, Cycle(16));
    }

    #[test]
    fn consistency_display() {
        assert_eq!(Consistency::Sc.to_string(), "SC");
        assert_eq!(Consistency::Rc.to_string(), "RC");
    }

    #[test]
    #[should_panic(expected = "at least one context")]
    fn zero_contexts_rejected() {
        let _ = ProcConfig::sc_baseline().with_contexts(0, Cycle(4));
    }
}
