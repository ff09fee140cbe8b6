//! Chaos fuzzing of fault schedules, with delta-debugging shrinking.
//!
//! The simulator's fault injection ([`dashlat_sim::fault::FaultPlan`]) is
//! *supposed* to be harmless: NACK storms, packet delays and transient
//! buffer-full events may slow a run arbitrarily but must never corrupt
//! coherence, strand a processor, or break determinism. [`run_chaos`]
//! hammers that contract: it draws randomized fault schedules from a
//! seeded RNG, runs each against the online invariant checker, and checks
//! the survivors against a fault-free determinism oracle. The first
//! schedule that provokes a failure is then *shrunk* — classes dropped,
//! magnitudes halved, the seed zeroed — to the smallest schedule that
//! still fails, which is what goes into the repro bundle a human debugs.
//!
//! The trial-and-shrink loop itself is generic ([`campaign`]): the
//! service torture harness in `dashlat-serve` drives it with its own
//! schedules, check and candidates, and both report [`Failure`].

use dashlat_sim::fault::FaultPlan;
use dashlat_sim::rng::Xorshift;

use crate::apps::App;
use crate::config::ExperimentConfig;
use crate::runner::run_isolated;
use crate::sweep::CellFailure;

/// Knobs for one chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Fault schedules to try.
    pub trials: u32,
    /// Campaign seed: same seed, same schedules, same verdicts.
    pub seed: u64,
    /// Application to hammer.
    pub app: App,
    /// Machine configuration the schedules are applied to. Chaos forces
    /// `check_invariants` on regardless of the build-profile default —
    /// a fuzzer without its oracle finds nothing.
    pub base: ExperimentConfig,
    /// Re-run each surviving schedule and require identical elapsed
    /// cycles (the determinism oracle). Doubles the cost of clean trials.
    pub check_determinism: bool,
    /// Ceiling on shrink-phase simulator runs.
    pub max_shrink_runs: u32,
}

impl Default for ChaosOptions {
    /// LU on the test-scale base machine, with [`ChaosOptions::new`]'s
    /// campaign defaults — what `dashlat chaos` runs with no flags.
    fn default() -> Self {
        Self::new(App::Lu, ExperimentConfig::base_test())
    }
}

impl ChaosOptions {
    /// Defaults: 25 trials, seed 1, determinism oracle on, 64 shrink
    /// runs.
    pub fn new(app: App, base: ExperimentConfig) -> Self {
        Self {
            trials: 25,
            seed: 1,
            app,
            base,
            check_determinism: true,
            max_shrink_runs: 64,
        }
    }
}

/// What one check found wrong with a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which oracle tripped.
    pub oracle: String,
    /// What the oracle saw.
    pub error: String,
    /// Exit code a replay of the failing run ends with (1 when the
    /// finding has no exit code of its own).
    pub code: u8,
}

impl Finding {
    /// A finding of `oracle` with the generic exit code 1.
    pub fn new(oracle: &str, error: String) -> Self {
        Finding {
            oracle: oracle.to_owned(),
            error,
            code: 1,
        }
    }
}

/// A failing schedule, before and after shrinking.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure<S> {
    /// Trial number (0-based) that found it.
    pub trial: u32,
    /// The schedule as drawn.
    pub original: S,
    /// The smallest schedule that still fails.
    pub minimized: S,
    /// The failure the *minimized* schedule provokes.
    pub error: String,
    /// Exit code a replay of the minimized schedule ends with.
    pub code: u8,
    /// Which oracle tripped on the minimized schedule. Machine chaos
    /// names `baseline` (the fault-free run itself failed — the bug
    /// needs no faults at all, and the minimal schedule is the empty
    /// one), `failure` or `determinism`.
    pub oracle: String,
    /// Checks spent shrinking.
    pub shrink_runs: u32,
}

impl<S> Failure<S> {
    fn new(trial: u32, original: S, minimized: S, finding: Finding, shrink_runs: u32) -> Self {
        Failure {
            trial,
            original,
            minimized,
            error: finding.error,
            code: finding.code,
            oracle: finding.oracle,
            shrink_runs,
        }
    }
}

/// The outcome of a chaos campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Trials completed (== `trials` when nothing failed; 0 when the
    /// baseline itself failed).
    pub trials_run: u32,
    /// Elapsed pclocks of the fault-free baseline run; `None` when the
    /// baseline itself failed.
    pub clean_elapsed: Option<u64>,
    /// The first failing schedule found, if any (the campaign stops at
    /// the first failure — one minimal repro beats ten raw ones).
    pub failure: Option<Failure<FaultPlan>>,
}

/// The canonical empty schedule: reported as the "minimized" schedule
/// when the fault-free baseline itself fails, because a bug that needs
/// zero fault classes is already as shrunk as it gets.
pub const INACTIVE_PLAN: FaultPlan = FaultPlan {
    seed: 0,
    nack_prob: 0.0,
    max_retries: 1,
    backoff_base: 1,
    backoff_cap: 1,
    delay_prob: 0.0,
    max_delay: 1,
    buffer_full_prob: 0.0,
};

/// Number of fault classes a plan can actually fire (0..=3). This is the
/// size metric shrinking minimizes first: a one-class schedule tells the
/// debugging human *which* mechanism breaks the property.
pub fn active_classes(plan: &FaultPlan) -> u32 {
    u32::from(plan.nack_prob > 0.0)
        + u32::from(plan.delay_prob > 0.0)
        + u32::from(plan.buffer_full_prob > 0.0)
}

/// Draws one randomized fault schedule from discrete grids. Grids (not
/// continuous draws) keep schedules human-readable and make shrink steps
/// land on values a human would have picked anyway. Every draw has at
/// least one active class — an inactive plan tests nothing.
pub fn random_plan(rng: &mut Xorshift) -> FaultPlan {
    const PROBS: [f64; 4] = [0.0, 0.05, 0.2, 0.5];
    let mut plan = loop {
        let p = FaultPlan {
            seed: rng.next_u64(),
            nack_prob: PROBS[rng.index(PROBS.len())],
            max_retries: [1, 4, 16][rng.index(3)],
            backoff_base: [1, 8][rng.index(2)],
            backoff_cap: [64, 1024][rng.index(2)],
            delay_prob: [0.0, 0.1, 0.3][rng.index(3)],
            max_delay: [4, 32][rng.index(2)],
            buffer_full_prob: [0.0, 0.05, 0.2][rng.index(3)],
        };
        if p.is_active() {
            break p;
        }
    };
    // Heavy three-class schedules are rare under independent draws; the
    // first trial of every campaign is the kitchen sink on purpose.
    if rng.chance(0.2) {
        plan.nack_prob = plan.nack_prob.max(0.2);
        plan.delay_prob = plan.delay_prob.max(0.1);
        plan.buffer_full_prob = plan.buffer_full_prob.max(0.05);
    }
    plan
}

/// Generic greedy delta-debugging engine behind [`campaign`].
///
/// `simpler` lists candidate reductions of the current best, ordered
/// cheapest-explanation-first; any candidate equal to the current best
/// is skipped without spending a predicate call. Each candidate that
/// still makes `fails` return true becomes the new best and the
/// candidate list is regenerated from it. The loop ends at a fixpoint
/// (no candidate fails) or after `max_runs` predicate calls. Returns the
/// minimized value and the number of calls used.
pub fn shrink<P: Clone + PartialEq>(
    start: P,
    mut simpler: impl FnMut(&P) -> Vec<P>,
    mut fails: impl FnMut(&P) -> bool,
    max_runs: u32,
) -> (P, u32) {
    let mut best = start;
    let mut runs = 0u32;
    loop {
        let mut improved = false;
        for cand in simpler(&best) {
            if cand == best {
                continue;
            }
            if runs >= max_runs {
                return (best, runs);
            }
            runs += 1;
            if fails(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return (best, runs);
        }
    }
}

/// The ordered reduction candidates for one fault plan, cheapest
/// explanation first:
/// 1. drop whole fault classes (NACK, delay, buffer-full);
/// 2. shrink magnitudes (halve probabilities, pull retry/backoff/delay
///    knobs to their floor);
/// 3. zero the schedule seed.
fn plan_candidates(best: &FaultPlan) -> Vec<FaultPlan> {
    let mut cands = Vec::new();

    // Phase 1: drop whole classes.
    for drop in 0..3 {
        let mut cand = *best;
        match drop {
            0 => cand.nack_prob = 0.0,
            1 => cand.delay_prob = 0.0,
            _ => cand.buffer_full_prob = 0.0,
        }
        cands.push(cand);
    }

    // Phase 2: shrink magnitudes of whatever classes remain.
    for step in 0..6 {
        let mut cand = *best;
        match step {
            0 if cand.nack_prob > 0.01 => cand.nack_prob /= 2.0,
            1 if cand.delay_prob > 0.01 => cand.delay_prob /= 2.0,
            2 if cand.buffer_full_prob > 0.01 => cand.buffer_full_prob /= 2.0,
            3 if cand.max_delay > 1 => cand.max_delay = 1,
            4 if cand.max_retries > 1 => cand.max_retries = 1,
            5 if cand.backoff_base > 1 || cand.backoff_cap > 1 => {
                cand.backoff_base = 1;
                cand.backoff_cap = 1;
            }
            _ => continue,
        }
        cands.push(cand);
    }

    // Phase 3: canonicalize the seed.
    if best.seed != 0 {
        let mut cand = *best;
        cand.seed = 0;
        cands.push(cand);
    }

    cands
}

/// What one faulted run produced, reduced to what the oracles compare.
fn faulted_verdict(
    app: App,
    base: &ExperimentConfig,
    plan: &FaultPlan,
) -> Result<u64, CellFailure> {
    let cfg = base.clone().with_faults(*plan);
    run_isolated(app, &cfg)
        .map(|e| e.result.elapsed.as_u64())
        // Chaos classification: the *point* is that bounded fault
        // injection must never break the run, so every failure under
        // chaos is a finding — classify against faults_active = false.
        .map_err(|f| CellFailure::classify(&f, false))
}

/// Checks one schedule against the oracles.
fn check_schedule(
    app: App,
    base: &ExperimentConfig,
    plan: &FaultPlan,
    check_determinism: bool,
) -> Result<(), Finding> {
    let elapsed = faulted_verdict(app, base, plan).map_err(|f| Finding {
        code: f.code,
        ..Finding::new("failure", f.error)
    })?;
    if !check_determinism {
        return Ok(());
    }
    match faulted_verdict(app, base, plan) {
        Err(f) => Err(Finding {
            code: f.code,
            ..Finding::new(
                "determinism",
                format!("second run failed where first passed: {}", f.error),
            )
        }),
        Ok(second) if second != elapsed => Err(Finding::new(
            "determinism",
            format!(
                "non-deterministic elapsed time under identical fault schedule: \
                 {elapsed} vs {second} pclocks"
            ),
        )),
        Ok(_) => Ok(()),
    }
}

/// Runs a trial-and-shrink campaign: each trial `draw`s a schedule and
/// `check`s it, and the campaign stops at the first failing one. That
/// schedule is shrunk with [`shrink`] over `candidates` (any finding
/// counts as reproducing — a smaller schedule tripping a different
/// oracle is still a smaller finding), and the failure reports the
/// finding of the last schedule that failed, which is the minimized one.
/// `tripped` hears about the first finding before shrinking starts.
/// Returns the number of trials run and the failure, if any.
pub fn campaign<S: Clone + PartialEq>(
    trials: u32,
    max_shrink_runs: u32,
    mut draw: impl FnMut(u32) -> S,
    mut check: impl FnMut(&S) -> Result<(), Finding>,
    mut candidates: impl FnMut(&S) -> Vec<S>,
    mut tripped: impl FnMut(u32, &Finding),
) -> (u32, Option<Failure<S>>) {
    for trial in 0..trials {
        let schedule = draw(trial);
        let Err(mut finding) = check(&schedule) else {
            continue;
        };
        tripped(trial, &finding);
        let (minimized, shrink_runs) = shrink(
            schedule.clone(),
            &mut candidates,
            |cand| match check(cand) {
                Ok(()) => false,
                Err(found) => {
                    finding = found;
                    true
                }
            },
            max_shrink_runs,
        );
        let failure = Failure::new(trial, schedule, minimized, finding, shrink_runs);
        return (trial + 1, Some(failure));
    }
    (trials, None)
}

/// Runs a chaos campaign. The fault-free baseline runs first: if it
/// *itself* fails, that is already the campaign's finding — the bug
/// needs no fault schedule at all, so the report carries
/// [`INACTIVE_PLAN`] as the (trivially minimal) schedule. Otherwise the
/// campaign draws schedules from the campaign seed and shrinks the first
/// failing one to minimal ([`campaign`]).
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let mut base = opts.base.clone().with_invariant_checks(true);
    base.faults = None;
    let clean_elapsed = match run_isolated(opts.app, &base) {
        Ok(e) => e.result.elapsed.as_u64(),
        Err(f) => {
            let f = CellFailure::classify(&f, false);
            let finding = Finding {
                code: f.code,
                ..Finding::new("baseline", f.error)
            };
            return ChaosReport {
                trials_run: 0,
                clean_elapsed: None,
                failure: Some(Failure::new(0, INACTIVE_PLAN, INACTIVE_PLAN, finding, 0)),
            };
        }
    };
    let mut rng = Xorshift::new(opts.seed);
    let (trials_run, failure) = campaign(
        opts.trials,
        opts.max_shrink_runs,
        |_| random_plan(&mut rng),
        |plan| check_schedule(opts.app, &base, plan, opts.check_determinism),
        plan_candidates,
        |_, _| {},
    );
    ChaosReport {
        trials_run,
        clean_elapsed: Some(clean_elapsed),
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_and_always_active() {
        let draw = |seed: u64| {
            let mut rng = Xorshift::new(seed);
            (0..10).map(|_| random_plan(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        for plan in draw(7) {
            assert!(plan.is_active());
            assert!(active_classes(&plan) >= 1);
        }
        // Different seeds explore different schedules.
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn shrinker_converges_to_exactly_the_needed_classes() {
        // Synthetic predicate: fails iff NACKs AND delays are both
        // active — the shrinker must keep those two classes and strip
        // buffer-full, magnitudes and the seed.
        let start = FaultPlan {
            seed: 0xdead_beef,
            nack_prob: 0.5,
            max_retries: 16,
            backoff_base: 8,
            backoff_cap: 1024,
            delay_prob: 0.3,
            max_delay: 32,
            buffer_full_prob: 0.2,
        };
        let fails = |p: &FaultPlan| p.nack_prob > 0.0 && p.delay_prob > 0.0;
        assert!(fails(&start));
        let (min, runs) = shrink(start, plan_candidates, fails, 200);
        assert!(fails(&min), "shrinking must preserve the failure");
        assert_eq!(active_classes(&min), 2);
        assert_eq!(min.buffer_full_prob, 0.0);
        assert_eq!(min.seed, 0);
        assert_eq!(min.max_delay, 1);
        assert_eq!(min.max_retries, 1);
        assert!(min.nack_prob <= start.nack_prob / 2.0);
        assert!(runs <= 200);
    }

    #[test]
    fn shrinker_respects_the_run_budget() {
        let start = FaultPlan::heavy(1);
        let mut calls = 0u32;
        let (_, runs) = shrink(
            start,
            plan_candidates,
            |_| {
                calls += 1;
                true
            },
            5,
        );
        assert!(runs <= 5);
        assert_eq!(calls, runs);
    }

    #[test]
    fn shrinker_returns_start_when_nothing_smaller_fails() {
        let start = FaultPlan {
            seed: 0,
            nack_prob: 0.05,
            max_retries: 1,
            backoff_base: 1,
            backoff_cap: 1,
            delay_prob: 0.0,
            max_delay: 1,
            buffer_full_prob: 0.0,
        };
        // Only this exact plan fails.
        let (min, _) = shrink(start, plan_candidates, |p| *p == start, 50);
        assert_eq!(min, start);
    }
}
