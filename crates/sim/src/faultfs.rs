//! Seeded host-fault injection: the one seam for I/O faults, worker
//! kills, crash points and the planted torn publish.
//!
//! The journal layer ([`crate::journal`]) promises atomic publication;
//! that promise is only worth something if it holds when the host
//! misbehaves. A [`FaultFsPlan`] says how it misbehaves:
//!
//! * **I/O faults** (`EIO`, `ENOSPC`, short writes, failed fsyncs and
//!   renames) on every write, fsync and rename routed through this
//!   module. They are injected *before* the real operation, as the kernel
//!   failing the call: nothing is written (a short write persists a
//!   prefix), nothing synced, nothing renamed.
//! * **Worker kills**: each spawned cell subprocess draws once
//!   ([`draw_kill`]) and may be SIGKILLed after a seeded delay.
//! * **A crash point** ([`CrashPoint`]): the process aborts at exactly
//!   the worst moment of a publish or an append, which a racing
//!   `kill -9` cannot guarantee.
//! * **The planted torn publish**: `atomic_write` truncates and writes in
//!   place instead of renaming, so an injected write fault leaves a torn
//!   published file for the service torture harness to catch. Never set
//!   it outside those tests.
//!
//! The I/O draws and the kill draws are two [`Xorshift`] streams, both
//! seeded from the plan seed, so a failing schedule replays. A path
//! substring filter scopes I/O faults to one directory; kill draws
//! ignore it.
//!
//! In-process callers [`arm`] a plan until the returned [`FaultGuard`]
//! drops; arming blocks while another thread holds a guard. Subprocesses
//! take the plan from `DASHLAT_FAULTFS` ([`FAULTFS_ENV`]), parsed once per
//! process: its I/O and kill classes are armed until the first in-process
//! [`arm`] replaces them, and its crash point and torn publish stay in
//! force for the whole process, through every arm and disarm.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use crate::rng::Xorshift;

/// Environment variable carrying a subprocess's plan as a
/// [`FaultFsPlan::from_spec`] spec, e.g. `seed=7,eio=0.1,filter=/tmp/x`.
pub const FAULTFS_ENV: &str = "DASHLAT_FAULTFS";

/// Where a process aborts on purpose ([`std::process::abort`]: no
/// unwinding, no destructors — the in-process stand-in for SIGKILL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// `atomic_write` aborts with the temp file durable, before the
    /// rename: the destination must be untouched.
    AfterTempWrite,
    /// The process aborts once this many journal lines are committed,
    /// process-wide: the journal holds exactly those lines.
    AfterJournalAppends(u64),
    /// `atomic_write` aborts after the rename and the directory fsync:
    /// the new contents must be durable under the final name.
    AfterRename,
}

/// A seeded host-fault plan (module docs). A default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultFsPlan {
    /// Seed for both deterministic draw streams (I/O and kills).
    pub seed: u64,
    /// Probability a write fails with an injected `EIO` before writing.
    pub eio_prob: f64,
    /// Probability a write fails with an injected `ENOSPC` before writing.
    pub enospc_prob: f64,
    /// Probability a write persists only a prefix, then fails with `EIO`.
    pub short_write_prob: f64,
    /// Probability an fsync (`sync_all`/`sync_data`, file or directory)
    /// fails with an injected `EIO` without syncing.
    pub fsync_prob: f64,
    /// Probability a rename fails with an injected `EIO`, touching neither
    /// path.
    pub rename_prob: f64,
    /// Only I/O operations whose target path contains this substring are
    /// eligible for faults; `None` faults everything. Kill draws ignore
    /// the filter.
    pub path_filter: Option<String>,
    /// Probability each spawned cell subprocess is SIGKILLed.
    pub kill_prob: f64,
    /// A selected cell is killed after a uniform delay in
    /// `[0, kill_max_delay_ms]`.
    pub kill_max_delay_ms: u64,
    /// Where the process aborts on purpose, if anywhere.
    pub crash: Option<CrashPoint>,
    /// Plant the torn-publish bug in `atomic_write` (module docs).
    pub torn_publish: bool,
}

impl FaultFsPlan {
    /// Parses the `DASHLAT_FAULTFS` spec: `key=value` pairs separated by
    /// commas. Keys: `seed`; the I/O probabilities `eio`, `enospc`,
    /// `short`, `fsync`, `rename` and the path `filter`; the kill class
    /// `kill` (probability; the cell dies at once); the crash point
    /// `crash=temp-write|appends:N|rename`; and `torn=1`. Unknown keys
    /// are an error so typos fail loud.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending pair when it is malformed,
    /// a value fails to parse, or the key is unknown.
    pub fn from_spec(spec: &str) -> Result<FaultFsPlan, String> {
        let mut plan = FaultFsPlan::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("`{pair}` is not key=value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("`{pair}`: {e}");
            let prob = |v: &str| v.parse::<f64>().map_err(|e| bad(&e));
            let count = |v: &str| v.parse::<u64>().map_err(|e| bad(&e));
            match key.trim() {
                "seed" => plan.seed = count(value)?,
                "eio" => plan.eio_prob = prob(value)?,
                "enospc" => plan.enospc_prob = prob(value)?,
                "short" => plan.short_write_prob = prob(value)?,
                "fsync" => plan.fsync_prob = prob(value)?,
                "rename" => plan.rename_prob = prob(value)?,
                "filter" => plan.path_filter = Some(value.to_string()),
                "kill" => plan.kill_prob = prob(value)?,
                "crash" => {
                    plan.crash = Some(match value.split_once(':') {
                        None if value == "temp-write" => CrashPoint::AfterTempWrite,
                        None if value == "rename" => CrashPoint::AfterRename,
                        Some(("appends", n)) => CrashPoint::AfterJournalAppends(count(n)?),
                        _ => return Err(bad(&"expected temp-write, appends:N or rename")),
                    });
                }
                "torn" => plan.torn_publish = count(value)? != 0,
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// The plan `DASHLAT_FAULTFS` gives this process (`None` when unset),
/// parsed on first use and never again.
///
/// # Errors
///
/// The parse error, naming the bad key. Front ends call this at startup
/// so a typo fails before any file is touched; otherwise the first
/// faultable operation panics on it.
pub fn env_plan() -> Result<Option<&'static FaultFsPlan>, String> {
    static ENV: OnceLock<Result<Option<FaultFsPlan>, String>> = OnceLock::new();
    let parsed = ENV.get_or_init(|| match std::env::var(FAULTFS_ENV) {
        Ok(spec) => FaultFsPlan::from_spec(&spec).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(e.to_string()),
    });
    let parsed = parsed.as_ref().map(Option::as_ref);
    parsed.map_err(|e| format!("invalid {FAULTFS_ENV}: {e}"))
}

fn env() -> Option<&'static FaultFsPlan> {
    env_plan().unwrap_or_else(|e| panic!("{e}"))
}

/// Counters describing what an armed plan's I/O classes actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultFsStats {
    /// Faultable operations that matched the path filter and drew.
    pub ops: u64,
    /// Operations that received an injected fault.
    pub injected: u64,
}

struct Armed {
    plan: FaultFsPlan,
    io: Xorshift,
    kills: Xorshift,
    stats: FaultFsStats,
}

impl Armed {
    fn new(plan: FaultFsPlan) -> Self {
        Armed {
            io: Xorshift::new(plan.seed),
            kills: Xorshift::new(plan.seed),
            plan,
            stats: FaultFsStats::default(),
        }
    }
}

/// The armed plan; a process starts with its environment's.
static ARMED: LazyLock<Mutex<Option<Armed>>> =
    LazyLock::new(|| Mutex::new(env().cloned().map(Armed::new)));

/// Held by every [`FaultGuard`], so one thread arms at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, Option<Armed>> {
    ARMED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms `plan` for this process until the returned guard drops, with
/// fresh draw streams. Blocks while another thread holds a guard.
#[must_use = "the plan is disarmed as soon as the guard drops"]
pub fn arm(plan: FaultFsPlan) -> FaultGuard {
    let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    *lock() = Some(Armed::new(plan));
    FaultGuard { _serial: serial }
}

/// Keeps a plan armed; dropping it disarms the plan.
#[derive(Debug)]
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// What the armed plan's I/O classes have done so far.
    pub fn stats(&self) -> FaultFsStats {
        lock().as_ref().map(|a| a.stats).unwrap_or_default()
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *lock() = None;
    }
}

/// The armed plan's setting, else the environment's: the environment's
/// crash point and torn publish last for the whole process.
fn setting<T>(pick: impl Fn(&FaultFsPlan) -> Option<T>) -> Option<T> {
    let armed = lock().as_ref().and_then(|a| pick(&a.plan));
    armed.or_else(|| env().and_then(pick))
}

/// True when the planted torn-publish bug is in force (module docs).
pub(crate) fn torn_publish() -> bool {
    setting(|p| p.torn_publish.then_some(())).is_some()
}

/// Aborts the process when `at` is the crash point in force.
pub(crate) fn crash_point(at: CrashPoint) {
    if setting(|p| p.crash) == Some(at) {
        std::process::abort();
    }
}

/// Counts one committed journal append, process-wide, and aborts once
/// the count reaches an [`CrashPoint::AfterJournalAppends`] crash point.
pub(crate) fn journal_appended() {
    static APPENDS: AtomicU64 = AtomicU64::new(0);
    if let Some(CrashPoint::AfterJournalAppends(n)) = setting(|p| p.crash) {
        if APPENDS.fetch_add(1, Ordering::SeqCst) + 1 >= n {
            std::process::abort();
        }
    }
}

/// Draws the kill decision for one spawned cell subprocess: `None`
/// spares it, `Some(delay)` kills it that long after the spawn.
pub fn draw_kill() -> Option<Duration> {
    let mut guard = lock();
    let armed = guard.as_mut()?;
    if !armed.kills.chance(armed.plan.kill_prob) {
        return None;
    }
    let delay = if armed.plan.kill_max_delay_ms == 0 {
        0
    } else {
        armed.kills.below(armed.plan.kill_max_delay_ms + 1)
    };
    Some(Duration::from_millis(delay))
}

enum WriteFault {
    Eio,
    Enospc,
    /// Persist this many bytes, then fail.
    Short(usize),
}

fn injected(kind: &str, path: &Path) -> io::Error {
    io::Error::other(format!("injected fault: {kind} on {}", path.display()))
}

fn draw<R>(path: &Path, pick: impl FnOnce(&FaultFsPlan, &mut Xorshift) -> Option<R>) -> Option<R> {
    let mut guard = lock();
    let armed = guard.as_mut()?;
    if let Some(filter) = &armed.plan.path_filter {
        if !path.to_string_lossy().contains(filter.as_str()) {
            return None;
        }
    }
    armed.stats.ops += 1;
    let fault = pick(&armed.plan, &mut armed.io);
    if fault.is_some() {
        armed.stats.injected += 1;
    }
    fault
}

/// Writes `bytes` to `file`, subject to injected write faults.
///
/// # Errors
///
/// Propagates real write errors, or an injected `EIO`/`ENOSPC`/short
/// write when the armed plan fires. A short write persists a prefix of
/// `bytes` before failing, modelling a partially applied `write(2)`.
pub fn write_all(file: &mut File, path: &Path, bytes: &[u8]) -> io::Result<()> {
    match draw(path, |plan, rng| {
        if rng.chance(plan.eio_prob) {
            Some(WriteFault::Eio)
        } else if rng.chance(plan.enospc_prob) {
            Some(WriteFault::Enospc)
        } else if rng.chance(plan.short_write_prob) {
            Some(WriteFault::Short(bytes.len() / 2))
        } else {
            None
        }
    }) {
        Some(WriteFault::Eio) => Err(injected("EIO during write", path)),
        Some(WriteFault::Enospc) => Err(injected("ENOSPC (no space left on device)", path)),
        Some(WriteFault::Short(n)) => {
            file.write_all(&bytes[..n])?;
            Err(injected("short write (partial data persisted)", path))
        }
        None => file.write_all(bytes),
    }
}

/// `File::sync_all` subject to injected fsync faults.
///
/// # Errors
///
/// Propagates real fsync errors, or an injected `EIO` (without syncing)
/// when the armed plan fires.
pub fn sync_all(file: &File, path: &Path) -> io::Result<()> {
    sync(path, "fsync", || file.sync_all())
}

/// `File::sync_data` subject to injected fsync faults.
///
/// # Errors
///
/// As [`sync_all`].
pub fn sync_data(file: &File, path: &Path) -> io::Result<()> {
    sync(path, "fdatasync", || file.sync_data())
}

fn sync(path: &Path, call: &str, real: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
    match draw(path, |plan, rng| rng.chance(plan.fsync_prob).then_some(())) {
        Some(()) => Err(injected(&format!("EIO during {call}"), path)),
        None => real(),
    }
}

/// `std::fs::rename` subject to injected rename faults (drawn against
/// the *destination* path, which is what the path filter should match).
///
/// # Errors
///
/// Propagates real rename errors, or an injected `EIO` (leaving both
/// paths untouched) when the armed plan fires.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    match draw(to, |plan, rng| rng.chance(plan.rename_prob).then_some(())) {
        Some(()) => Err(injected("EIO during rename", to)),
        None => std::fs::rename(from, to),
    }
}

/// The plan `spec` describes, scoped to `dir`: every arming test in this
/// crate scopes its plan to its own temp dir, because the other tests run
/// in parallel threads and must not see injected faults or perturb the
/// `ops` counter.
#[cfg(test)]
pub(crate) fn scoped(dir: &Path, spec: &str) -> FaultFsPlan {
    FaultFsPlan::from_spec(&format!("{spec},filter={}", dir.display())).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let dir = std::env::temp_dir().join(format!("faultfs-none-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let faults = arm(scoped(&dir, ""));
        let path = dir.join("f.txt");
        let mut f = File::create(&path).unwrap();
        write_all(&mut f, &path, b"hello").unwrap();
        sync_all(&f, &path).unwrap();
        let stats = faults.stats();
        assert_eq!(stats.injected, 0);
        assert_eq!(stats.ops, 2);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn certain_eio_faults_every_write_and_leaves_file_untouched() {
        let dir = std::env::temp_dir().join(format!("faultfs-eio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.txt");
        let mut f = File::create(&path).unwrap();
        let faults = arm(scoped(&dir, "eio=1"));
        let err = write_all(&mut f, &path, b"hello").unwrap_err();
        assert!(err.to_string().contains("injected fault: EIO"), "{err}");
        let stats = faults.stats();
        assert_eq!(
            stats,
            FaultFsStats {
                ops: 1,
                injected: 1
            }
        );
        drop(f);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"",
            "EIO fault must not write"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_persists_a_prefix_then_fails() {
        let dir = std::env::temp_dir().join(format!("faultfs-short-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.txt");
        let mut f = File::create(&path).unwrap();
        let faults = arm(scoped(&dir, "short=1"));
        let err = write_all(&mut f, &path, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        drop(faults);
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"01234", "half persisted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn path_filter_scopes_faults() {
        let dir = std::env::temp_dir().join(format!("faultfs-filter-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inside = dir.join("inside.txt");
        let outside = std::env::temp_dir().join(format!("faultfs-outside-{}", std::process::id()));
        let faults = arm(scoped(&dir, "eio=1"));
        let mut fi = File::create(&inside).unwrap();
        assert!(write_all(&mut fi, &inside, b"x").is_err());
        let mut fo = File::create(&outside).unwrap();
        assert!(write_all(&mut fo, &outside, b"x").is_ok());
        let stats = faults.stats();
        assert_eq!(
            stats,
            FaultFsStats {
                ops: 1,
                injected: 1
            }
        );
        std::fs::remove_file(&outside).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn draws_are_deterministic_for_a_seed() {
        let dir = std::env::temp_dir().join(format!("faultfs-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.txt");
        let run = |seed: u64| -> Vec<bool> {
            let _faults = arm(scoped(&dir, &format!("seed={seed},eio=0.5")));
            let mut f = File::create(&path).unwrap();
            (0..32)
                .map(|_| write_all(&mut f, &path, b"x").is_err())
                .collect()
        };
        let a = run(99);
        let b = run(99);
        let c = run(100);
        assert_eq!(a, b, "same seed, same fault schedule");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_draws_are_deterministic_and_disarmed_draws_spare() {
        // Drawing directly (not spawning) keeps this test hermetic.
        let draw_all = |seed: u64| -> Vec<Option<Duration>> {
            let _faults = arm(FaultFsPlan {
                seed,
                kill_prob: 0.5,
                kill_max_delay_ms: 40,
                ..FaultFsPlan::default()
            });
            (0..64).map(|_| draw_kill()).collect()
        };
        let a = draw_all(5);
        let b = draw_all(5);
        assert_eq!(a, b, "same seed, same kill schedule");
        assert!(a.iter().any(Option::is_some) && a.iter().any(Option::is_none));
        assert!(a.iter().flatten().all(|d| *d <= Duration::from_millis(40)));
        let _no_arming = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(draw_kill(), None, "disarmed draws never kill");
    }

    /// The decision streams every surveyed seed relies on, as literals:
    /// the first 64 kill decisions and 32 write decisions of one seed,
    /// drawn interleaved from one plan. Kills and I/O draw from separate
    /// streams, so interleaving them must not change either sequence.
    #[test]
    fn seeded_decisions_are_pinned() {
        // One entry per kill draw: the delay in ms, or - for spared.
        const KILLS_MS: &str = concat!(
            "- 68 - - - 161 160 160 80 - 187 - - - - - 170 150 180 - 34 - 11 3 - - - - 24 110 2 - ",
            "156 173 - 25 34 - 6 - - 113 12 199 - - 117 95 - - - - - 95 - 16 - - 143 - - - 135 175"
        );
        // One letter per write: EIO, ENOSPC, Short, or - for none.
        const WRITES: &str = "---N----NN-ESN-SES--NNS-NE-NN---";
        let dir = std::env::temp_dir().join(format!("faultfs-pinned-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.txt");
        let _faults = arm(FaultFsPlan {
            kill_prob: 0.5,
            kill_max_delay_ms: 200,
            ..scoped(&dir, "seed=20260807,eio=0.25,enospc=0.25,short=0.25")
        });
        let mut f = File::create(&path).unwrap();
        let mut kills = Vec::new();
        let mut writes = String::new();
        for i in 0..64 {
            kills.push(draw_kill().map_or("-".to_owned(), |d| d.as_millis().to_string()));
            if i < 32 {
                writes.push(match write_all(&mut f, &path, b"xy") {
                    Ok(()) => '-',
                    Err(e) if e.to_string().contains("EIO during write") => 'E',
                    Err(e) if e.to_string().contains("ENOSPC") => 'N',
                    Err(_) => 'S',
                });
            }
        }
        assert_eq!(kills.join(" "), KILLS_MS);
        assert_eq!(writes, WRITES);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_round_trip_and_rejects_unknown_keys() {
        let plan = FaultFsPlan::from_spec(
            "seed=7,eio=0.25,enospc=0.1,short=0.5,fsync=0.2,rename=0.3,filter=/tmp/x,\
             kill=0.6,crash=appends:9,torn=1",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert!((plan.eio_prob - 0.25).abs() < 1e-12);
        assert!((plan.enospc_prob - 0.1).abs() < 1e-12);
        assert!((plan.short_write_prob - 0.5).abs() < 1e-12);
        assert!((plan.fsync_prob - 0.2).abs() < 1e-12);
        assert!((plan.rename_prob - 0.3).abs() < 1e-12);
        assert_eq!(plan.path_filter.as_deref(), Some("/tmp/x"));
        assert!((plan.kill_prob - 0.6).abs() < 1e-12);
        assert_eq!(plan.crash, Some(CrashPoint::AfterJournalAppends(9)));
        assert!(plan.torn_publish);
        for (spec, crash) in [
            ("crash=temp-write", CrashPoint::AfterTempWrite),
            ("crash=rename", CrashPoint::AfterRename),
        ] {
            assert_eq!(FaultFsPlan::from_spec(spec).unwrap().crash, Some(crash));
        }
        let err = FaultFsPlan::from_spec("bogus=1").unwrap_err();
        assert!(err.contains("`bogus`"), "{err}");
        for bad in [
            "seed",
            "crash=later",
            "crash=appends:x",
            "torn=yes",
            "kill=x",
        ] {
            assert!(FaultFsPlan::from_spec(bad).is_err(), "{bad}");
        }
        assert_eq!(FaultFsPlan::from_spec("").unwrap(), FaultFsPlan::default());
    }
}
