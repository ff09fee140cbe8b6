//! Experiment configuration.
//!
//! One [`ExperimentConfig`] value describes a complete machine variant:
//! which latency techniques are enabled (caching, consistency model,
//! prefetching, contexts) and at what scale the application runs. The
//! paper's figures are all matrices of such variants.

use dashlat_cpu::config::{Consistency, ProcConfig};
use dashlat_cpu::ops::Topology;
use dashlat_mem::contention::NetworkModel;
use dashlat_mem::directory::DirectoryKind;
use dashlat_mem::system::MemConfig;
use dashlat_sim::fault::FaultPlan;
use dashlat_sim::Cycle;

use crate::args::Args;

/// Application data-set scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppScale {
    /// The paper's data sets (Table 2): MP3D 10,000 particles / 5 steps,
    /// LU 200×200, PTHOR ~11,000 gates / 5 clock cycles.
    Paper,
    /// Reduced data sets for tests and quick exploration.
    Test,
}

/// A complete machine + technique configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of processors (the paper simulates 16).
    pub processors: usize,
    /// Hardware contexts per processor.
    pub contexts: usize,
    /// Context-switch overhead in cycles (4 or 16 in the paper).
    pub switch_overhead: Cycle,
    /// Memory consistency model.
    pub consistency: Consistency,
    /// Whether shared data is cacheable.
    pub caching: bool,
    /// Whether software prefetching is enabled (and compiled into the
    /// applications).
    pub prefetching: bool,
    /// Use the full-size 64 KB/256 KB caches instead of the scaled
    /// 2 KB/4 KB ones.
    pub full_caches: bool,
    /// Model bus/network/memory queueing.
    pub contention: bool,
    /// Application data-set scale.
    pub scale: AppScale,
    /// Interconnection-network queueing model.
    pub network: NetworkModel,
    /// Directory organisation.
    pub directory: DirectoryKind,
    /// Perfect-lookahead window for reads (0 = the paper's blocking
    /// reads; see `dashlat_cpu::config::ProcConfig::read_lookahead`).
    pub read_lookahead: Cycle,
    /// Fault-injection plan applied to the whole machine (mesh/directory
    /// NACKs, packet delays, transient buffer-full events). `None`, or an
    /// inactive plan, runs clean.
    pub faults: Option<FaultPlan>,
    /// Check coherence invariants online after every memory access,
    /// failing the run on the first violation. Defaults to on in debug
    /// builds, off in release.
    pub check_invariants: bool,
    /// Enforce the write buffer's W→W FIFO retirement order as an online
    /// invariant (see `ProcConfig::enforce_wb_fifo` in `dashlat-cpu`).
    /// Off by default; `--enforce-wb-fifo` turns it on, as do the chaos
    /// shrinker's tests (`crates/core/tests/chaos_shrinker.rs`).
    pub enforce_wb_fifo: bool,
    /// Arm the deliberately seeded W→W write-buffer reordering bug
    /// (`ProcConfig::relaxation_bug`). Only compiled with the
    /// `verify-mutations` feature; exists so the chaos fuzzer's
    /// convergence tests can hunt a known-real bug.
    #[cfg(feature = "verify-mutations")]
    pub mutate_ww: bool,
    /// Record an event log during the run and certify it with the
    /// happens-before analysis afterwards. The log costs memory
    /// proportional to the reference count.
    pub analyze: bool,
}

impl ExperimentConfig {
    /// The paper's base machine: 16 processors, single context, coherent
    /// caches (scaled), sequential consistency, no prefetching.
    pub fn base() -> Self {
        ExperimentConfig {
            processors: 16,
            contexts: 1,
            switch_overhead: Cycle(4),
            consistency: Consistency::Sc,
            caching: true,
            prefetching: false,
            full_caches: false,
            contention: true,
            scale: AppScale::Paper,
            network: NetworkModel::Ports,
            directory: DirectoryKind::FullMap,
            read_lookahead: Cycle(0),
            faults: None,
            check_invariants: cfg!(debug_assertions),
            enforce_wb_fifo: false,
            #[cfg(feature = "verify-mutations")]
            mutate_ww: false,
            analyze: false,
        }
    }

    /// Same machine at test scale (for CI).
    pub fn base_test() -> Self {
        ExperimentConfig {
            scale: AppScale::Test,
            processors: 8,
            ..Self::base()
        }
    }

    /// Returns a copy with shared-data caching disabled (Figure 2's
    /// baseline).
    pub fn without_caching(mut self) -> Self {
        self.caching = false;
        self
    }

    /// Returns a copy using release consistency.
    pub fn with_rc(mut self) -> Self {
        self.consistency = Consistency::Rc;
        self
    }

    /// Returns a copy using the given consistency model (the full SC / PC /
    /// WC / RC spectrum).
    pub fn with_consistency(mut self, model: Consistency) -> Self {
        self.consistency = model;
        self
    }

    /// Returns a copy with software prefetching enabled.
    pub fn with_prefetching(mut self) -> Self {
        self.prefetching = true;
        self
    }

    /// Returns a copy with `contexts` hardware contexts at the given
    /// switch overhead.
    pub fn with_contexts(mut self, contexts: usize, switch_overhead: Cycle) -> Self {
        assert!(contexts > 0);
        self.contexts = contexts;
        self.switch_overhead = switch_overhead;
        self
    }

    /// Returns a copy with the full-size (64 KB / 256 KB) caches.
    pub fn with_full_caches(mut self) -> Self {
        self.full_caches = true;
        self
    }

    /// Returns a copy using the 2-D mesh network model.
    pub fn with_mesh_network(mut self) -> Self {
        self.network = NetworkModel::Mesh2D;
        self
    }

    /// Returns a copy using a limited-pointer (Dir_i-B) directory.
    pub fn with_limited_directory(mut self, pointers: usize) -> Self {
        self.directory = DirectoryKind::LimitedPtr { pointers };
        self
    }

    /// Returns a copy with a perfect read-lookahead window (the §4.1
    /// out-of-order what-if; 0 = blocking reads).
    pub fn with_read_lookahead(mut self, window: Cycle) -> Self {
        self.read_lookahead = window;
        self
    }

    /// Returns a copy that runs under the given fault-injection plan.
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
    /// enforced.
    pub fn with_wb_fifo_enforcement(mut self) -> Self {
        self.enforce_wb_fifo = true;
        self
    }

    /// Returns a copy with the seeded W→W reordering bug armed (see
    /// [`ExperimentConfig::mutate_ww`]).
    #[cfg(feature = "verify-mutations")]
    pub fn with_ww_mutation(mut self) -> Self {
        self.mutate_ww = true;
        self
    }

    /// Returns a copy that records an event log during the run and
    /// certifies it with the happens-before analysis afterwards.
    pub fn with_analysis(mut self) -> Self {
        self.analyze = true;
        self
    }

    /// The machine topology this configuration implies.
    pub fn topology(&self) -> Topology {
        Topology::new(self.processors, self.contexts)
    }

    /// The processor configuration this implies.
    pub fn proc_config(&self) -> ProcConfig {
        let mut cfg = match self.consistency {
            Consistency::Sc => ProcConfig::sc_baseline(),
            Consistency::Pc => ProcConfig::pc_baseline(),
            Consistency::Wc => ProcConfig::wc_baseline(),
            Consistency::Rc => ProcConfig::rc_baseline(),
        };
        cfg.prefetching = self.prefetching;
        cfg.contexts = self.contexts;
        cfg.switch_overhead = self.switch_overhead;
        cfg.read_lookahead = self.read_lookahead;
        cfg.faults = self.faults;
        cfg.check_invariants = self.check_invariants;
        cfg.enforce_wb_fifo = self.enforce_wb_fifo;
        #[cfg(feature = "verify-mutations")]
        {
            cfg.relaxation_bug = self.mutate_ww;
        }
        cfg
    }

    /// The memory-system configuration this implies.
    pub fn mem_config(&self) -> MemConfig {
        let mut cfg = if self.full_caches {
            MemConfig::dash_full(self.processors)
        } else {
            MemConfig::dash_scaled(self.processors)
        };
        cfg.caching = self.caching;
        cfg.contention = self.contention;
        cfg.network = self.network;
        cfg.directory = self.directory;
        cfg.faults = self.faults;
        cfg
    }

    /// Renders this configuration as the machine-flag argument list the
    /// CLI parser accepts, such that parsing the result reproduces the
    /// configuration exactly — the inverse the repro-bundle format relies
    /// on (`dashlat repro` replays a failure from its recorded cmdline).
    ///
    /// Every knob is emitted explicitly (including the
    /// `--check-invariants` / `--no-check-invariants` pair, whose default
    /// differs between debug and release builds) so a bundle replays
    /// identically regardless of which build parses it.
    pub fn to_cli_args(&self) -> Vec<String> {
        let mut args: Vec<String> = Vec::new();
        let mut flag = |f: &str| args.push(f.to_string());
        let consistency = self.consistency.to_string().to_ascii_lowercase();
        flag("--processors");
        flag(&self.processors.to_string());
        flag("--consistency");
        flag(&consistency);
        flag("--contexts");
        flag(&self.contexts.to_string());
        flag("--switch");
        flag(&self.switch_overhead.as_u64().to_string());
        if self.prefetching {
            flag("--prefetch");
        }
        if !self.caching {
            flag("--no-cache");
        }
        if self.full_caches {
            flag("--full-caches");
        }
        if !self.contention {
            flag("--no-contention");
        }
        if self.network == NetworkModel::Mesh2D {
            flag("--mesh");
        }
        if let DirectoryKind::LimitedPtr { pointers } = self.directory {
            flag("--dir-pointers");
            flag(&pointers.to_string());
        }
        if self.read_lookahead > Cycle(0) {
            flag("--lookahead");
            flag(&self.read_lookahead.as_u64().to_string());
        }
        if self.scale == AppScale::Test {
            flag("--test-scale");
        }
        if let Some(plan) = &self.faults {
            flag("--faults");
            flag(&plan.to_spec());
        }
        flag(if self.check_invariants {
            "--check-invariants"
        } else {
            "--no-check-invariants"
        });
        if self.enforce_wb_fifo {
            flag("--enforce-wb-fifo");
        }
        #[cfg(feature = "verify-mutations")]
        if self.mutate_ww {
            flag("--mutate-ww");
        }
        if self.analyze {
            flag("--analyze");
        }
        args
    }

    /// Reads the machine flags from `args` on top of this configuration.
    /// This is the single parser behind the CLI's machine flags, the
    /// figure binaries, `dashlat repro` bundle replay, and the `dashlat
    /// serve` job-submission API — all of them accept exactly the
    /// argument list [`ExperimentConfig::to_cli_args`] emits, so a
    /// configuration round-trips bit-exactly through any of them.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message, naming the flag, for a malformed,
    /// out-of-range or repeated flag.
    pub fn with_machine_flags(mut self, args: &mut Args) -> Result<Self, String> {
        if let Some(n) = args.value_in("--processors", 1..=64)? {
            self.processors = n;
        }
        if let Some(model) = args.value("--consistency")? {
            self.consistency = model;
        }
        let contexts = args.value_in("--contexts", 1..)?.unwrap_or(self.contexts);
        let switch = args.value("--switch")?.map_or(self.switch_overhead, Cycle);
        self = self.with_contexts(contexts, switch);
        self.prefetching |= args.switch("--prefetch")?;
        self.caching &= !args.switch("--no-cache")?;
        self.full_caches |= args.switch("--full-caches")?;
        self.contention &= !args.switch("--no-contention")?;
        if args.switch("--mesh")? {
            self.network = NetworkModel::Mesh2D;
        }
        if let Some(pointers) = args.value_in("--dir-pointers", 1..)? {
            self.directory = DirectoryKind::LimitedPtr { pointers };
        }
        if let Some(window) = args.value("--lookahead")? {
            self.read_lookahead = Cycle(window);
        }
        if args.switch("--test-scale")? {
            self.scale = AppScale::Test;
        }
        if let Some(n) = args.value_in("--jobs", 1..)? {
            // Worker count is a property of the sweep engine, not of the
            // simulated machine, so it pins the process-wide default
            // instead of living in the config (which takes part in
            // bit-identical comparisons).
            crate::pool::set_default_jobs(Some(n));
        }
        if let Some(plan) = args.value_with("--faults", FaultPlan::from_spec)? {
            self.faults = Some(plan);
        }
        match (
            args.switch("--check-invariants")?,
            args.switch("--no-check-invariants")?,
        ) {
            (true, true) => {
                return Err("--check-invariants and --no-check-invariants conflict".into())
            }
            (on, off) if on || off => self.check_invariants = on,
            _ => {}
        }
        self.enforce_wb_fifo |= args.switch("--enforce-wb-fifo")?;
        if args.switch("--mutate-ww")? {
            #[cfg(feature = "verify-mutations")]
            {
                self.mutate_ww = true;
            }
            #[cfg(not(feature = "verify-mutations"))]
            return Err("--mutate-ww requires a build with the verify-mutations feature".into());
        }
        self.analyze |= args.switch("--analyze")?;
        Ok(self)
    }

    /// A short label like `"RC+pf 4ctx/4"` for report columns.
    pub fn label(&self) -> String {
        let mut s = self.consistency.to_string();
        if !self.caching {
            s = format!("NoCache {s}");
        }
        if self.prefetching {
            s.push_str("+pf");
        }
        if self.contexts > 1 {
            s.push_str(&format!(
                " {}ctx/{}",
                self.contexts,
                self.switch_overhead.as_u64()
            ));
        }
        if self.faults.is_some_and(|f| f.is_active()) {
            s.push_str(" +faults");
        }
        s
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::base()
    }
}

/// Extracts the machine flags from `args`, removing everything it
/// consumes; unrecognized tokens are left in place for the caller to
/// validate. A thin wrapper over [`ExperimentConfig::with_machine_flags`]
/// for callers that hold a plain argument vector.
///
/// # Errors
///
/// Returns a user-facing message for a malformed, out-of-range or
/// repeated flag.
pub fn parse_machine_args(args: &mut Vec<String>) -> Result<ExperimentConfig, String> {
    let mut reader = Args::new(std::mem::take(args));
    let config = ExperimentConfig::base().with_machine_flags(&mut reader);
    *args = reader.rest();
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_paper_machine() {
        let c = ExperimentConfig::base();
        assert_eq!(c.processors, 16);
        assert_eq!(c.contexts, 1);
        assert_eq!(c.consistency, Consistency::Sc);
        assert!(c.caching);
        assert!(!c.prefetching);
        let mem = c.mem_config();
        assert_eq!(mem.primary_bytes, 2048);
        assert_eq!(mem.secondary_bytes, 4096);
    }

    #[test]
    fn builder_combinators() {
        let c = ExperimentConfig::base()
            .with_rc()
            .with_prefetching()
            .with_contexts(4, Cycle(16))
            .with_full_caches();
        assert_eq!(c.consistency, Consistency::Rc);
        assert!(c.prefetching);
        assert_eq!(c.contexts, 4);
        assert_eq!(c.switch_overhead, Cycle(16));
        assert_eq!(c.mem_config().primary_bytes, 64 * 1024);
        assert_eq!(c.topology().processes(), 64);
        let pc = c.proc_config();
        assert!(pc.prefetching);
        assert_eq!(pc.contexts, 4);
    }

    #[test]
    fn uncached_variant() {
        let c = ExperimentConfig::base().without_caching();
        assert!(!c.mem_config().caching);
        assert!(c.label().contains("NoCache"));
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(ExperimentConfig::base().label(), "SC");
        assert_eq!(ExperimentConfig::base().with_rc().label(), "RC");
        assert_eq!(
            ExperimentConfig::base()
                .with_rc()
                .with_prefetching()
                .label(),
            "RC+pf"
        );
        assert_eq!(
            ExperimentConfig::base().with_contexts(2, Cycle(4)).label(),
            "SC 2ctx/4"
        );
        assert_eq!(
            ExperimentConfig::base()
                .with_faults(FaultPlan::light(7))
                .label(),
            "SC +faults"
        );
    }

    #[test]
    fn machine_args_round_trip_through_the_parser() {
        let cfg = ExperimentConfig::base()
            .with_rc()
            .with_prefetching()
            .with_contexts(2, Cycle(16))
            .with_mesh_network()
            .with_limited_directory(4)
            .with_faults(FaultPlan::light(42))
            .with_invariant_checks(true);
        let mut args = cfg.to_cli_args();
        let parsed = parse_machine_args(&mut args).expect("parses");
        assert!(args.is_empty(), "nothing left over: {args:?}");
        assert_eq!(parsed, cfg);
        // Unknown tokens are left in place, not errors.
        let mut extra = vec!["--app".to_string(), "lu".to_string()];
        let _ = parse_machine_args(&mut extra).expect("parses");
        assert_eq!(extra, vec!["--app".to_string(), "lu".to_string()]);
        // Malformed values are user-facing errors.
        let mut bad = vec!["--processors".to_string(), "sixteen".to_string()];
        assert!(parse_machine_args(&mut bad).is_err());
    }

    #[test]
    fn faults_flow_into_both_sides() {
        let plan = FaultPlan::light(42);
        let c = ExperimentConfig::base()
            .with_faults(plan)
            .with_invariant_checks(true);
        assert_eq!(c.proc_config().faults, Some(plan));
        assert!(c.proc_config().check_invariants);
        assert_eq!(c.mem_config().faults, Some(plan));
        // An inactive plan leaves the label untouched.
        let quiet = ExperimentConfig::base().with_faults(FaultPlan::default());
        assert_eq!(quiet.label(), "SC");
    }
}
