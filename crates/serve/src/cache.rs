//! Content-addressed result cache for sweep cells.
//!
//! Cells are deterministic: the elapsed pclocks of a run are a pure
//! function of `(app, machine config)`, which
//! [`dashlat::sweep::work_fingerprint`] hashes into a 64-bit identity —
//! deliberately excluding the sweep/point labels, so the same machine
//! measured under two different jobs (or figures) shares one entry.
//! Repeated cells across jobs therefore cost one file read instead of a
//! simulation.
//!
//! Entries are one JSON file per fingerprint, published with
//! [`atomic_write`]: crash-safe by construction, and a cache that was
//! torn mid-write simply misses. Only *successful* outcomes are cached —
//! failures re-run, because a transient failure must stay retryable and
//! a permanent one should keep producing its repro bundle.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dashlat_sim::journal::atomic_write;
use dashlat_sim::json::Value;

/// An on-disk cache of cell results keyed by config fingerprint.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("cell-{fingerprint:016x}.json"))
    }

    /// Looks up the cached elapsed pclocks for `fingerprint`. A missing,
    /// torn, or mismatched entry is a miss, never an error — the cell
    /// just re-simulates.
    pub fn lookup(&self, fingerprint: u64) -> Option<u64> {
        let parsed = std::fs::read_to_string(self.entry_path(fingerprint))
            .ok()
            .and_then(|text| {
                let v = Value::parse(&text).ok()?;
                if v.get("fingerprint").and_then(Value::as_u64) != Some(fingerprint) {
                    return None;
                }
                v.get("elapsed").and_then(Value::as_u64)
            });
        match parsed {
            Some(elapsed) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(elapsed)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records a successful cell outcome. Last writer wins; determinism
    /// makes concurrent writers write identical bytes anyway.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the atomic publication.
    pub fn insert(&self, fingerprint: u64, elapsed: u64) -> io::Result<()> {
        atomic_write(
            &self.entry_path(fingerprint),
            &format!("{{\"fingerprint\":{fingerprint},\"elapsed\":{elapsed}}}\n"),
        )
    }

    /// Number of entries on disk.
    pub fn entries(&self) -> usize {
        std::fs::read_dir(&self.dir).map_or(0, |rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("cell-"))
                .count()
        })
    }

    /// Lifetime cache hits served by this process.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookups that missed (absent, torn, or mismatched).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dashlat-cache-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn insert_then_lookup_hits() {
        let d = tmpdir("roundtrip");
        let cache = ResultCache::open(&d).expect("open");
        assert_eq!(cache.lookup(0xabcd), None);
        cache.insert(0xabcd, 123_456).expect("insert");
        assert_eq!(cache.lookup(0xabcd), Some(123_456));
        assert_eq!(cache.lookup(0xabce), None);
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.hits(), 1);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn survives_process_boundaries_and_rejects_corrupt_entries() {
        let d = tmpdir("persist");
        {
            let cache = ResultCache::open(&d).expect("open");
            cache.insert(7, 999).expect("insert");
        }
        let cache = ResultCache::open(&d).expect("reopen");
        assert_eq!(cache.lookup(7), Some(999));
        // A corrupt entry is a miss, not an error.
        std::fs::write(d.join("cell-0000000000000007.json"), "garbage").expect("corrupt");
        assert_eq!(cache.lookup(7), None);
        // An entry whose recorded fingerprint disagrees with its file
        // name is a miss too (renamed or mixed-up cache dirs).
        std::fs::write(
            d.join("cell-0000000000000007.json"),
            "{\"fingerprint\":8,\"elapsed\":1}",
        )
        .expect("mismatch");
        assert_eq!(cache.lookup(7), None);
        std::fs::remove_dir_all(&d).ok();
    }
}
