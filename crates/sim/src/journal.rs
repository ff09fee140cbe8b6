//! Crash-safe file primitives: atomic whole-file writes and an fsync'd
//! append-only line journal.
//!
//! The sweep supervisor in `dashlat` uses these to make long experiment
//! sweeps resumable after a kill/crash/OOM:
//!
//! * [`atomic_write`] publishes a result file with the classic
//!   write-temp → fsync → rename → fsync-dir dance, so readers only ever
//!   observe the old contents or the complete new contents — never a
//!   truncated mix.
//! * [`Journal`] is an append-only JSONL file where every
//!   [`Journal::append`] is flushed and fsync'd before returning, so a
//!   line that `append` acknowledged survives `kill -9`.
//!   [`Journal::read_committed_lines`] tolerates a torn tail (a final
//!   line without `\n` from a crash mid-append) by dropping it.
//!
//! # Host faults
//!
//! Every write, fsync and rename below is routed through
//! [`crate::faultfs`], the one host-fault seam. An armed fault plan can
//! make any step return `EIO`, `ENOSPC`, a short write or a failed fsync
//! — and the tests assert the atomic-publication contract survives all
//! of them: errors propagate, the destination is never torn, and a retry
//! after the fault clears publishes cleanly. The same plan's crash point
//! makes these primitives die at exactly the worst moment (after the
//! temp write, after the n-th append, or after the rename), and its
//! planted torn publish replaces [`atomic_write`]'s dance with a naive
//! in-place write for the torture harness to catch.

use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use crate::faultfs::{self, CrashPoint};

/// Fsyncs the directory `dir` (or the current directory when `None`) so
/// a rename or file creation inside it survives power loss. Directory
/// fsync is a Unix-ism: opening a directory read-only for fsync works on
/// Linux; on platforms where directories cannot be opened the open error
/// is tolerated (there is nothing portable left to do), but a *failed
/// fsync* of an opened directory is a real durability error and
/// propagates.
fn sync_dir(dir: Option<&Path>) -> io::Result<()> {
    let dir = dir.unwrap_or_else(|| Path::new("."));
    if let Ok(dirf) = File::open(dir) {
        faultfs::sync_all(&dirf, dir)?;
    }
    Ok(())
}

/// Writes `contents` to `path` atomically: the data goes to a temp file
/// in the same directory, is fsync'd, and is renamed over `path`; the
/// directory is then fsync'd so the rename itself is durable. A crash at
/// any point leaves either the old file or the complete new one.
///
/// # Errors
///
/// Propagates I/O errors from any step; on failure the temp file is
/// removed on a best-effort basis and `path` is untouched.
pub fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    if faultfs::torn_publish() {
        // Planted torn-publish bug (module docs): truncate the
        // destination and write in place. An injected write fault now
        // leaves a torn published file — exactly what the rename dance
        // prevents — for the torture harness to catch.
        let mut f = File::create(path)?;
        faultfs::write_all(&mut f, path, contents.as_bytes())?;
        faultfs::sync_all(&f, path)?;
        return Ok(());
    }
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp: PathBuf = {
        let mut name = std::ffi::OsString::from(".");
        name.push(file_name);
        name.push(format!(".tmp.{}", std::process::id()));
        match dir {
            Some(d) => d.join(name),
            None => PathBuf::from(name),
        }
    };
    let write_result = (|| {
        let mut f = File::create(&tmp)?;
        faultfs::write_all(&mut f, &tmp, contents.as_bytes())?;
        faultfs::sync_all(&f, &tmp)?;
        // Deterministic crash point: die with the temp file durable but
        // the destination not yet switched over.
        faultfs::crash_point(CrashPoint::AfterTempWrite);
        faultfs::rename(&tmp, path)?;
        // Durability of the rename needs the directory entry synced —
        // without this the file data is safe but the *name* can vanish
        // in a power loss, which is indistinguishable from never having
        // published at all.
        sync_dir(dir)?;
        // Deterministic crash point: the rename is durable; a restart
        // must find the complete new contents at `path`.
        faultfs::crash_point(CrashPoint::AfterRename);
        Ok(())
    })();
    if write_result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write_result
}

/// An append-only line journal with per-line durability.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Creates a new journal file, failing if `path` already exists (an
    /// existing journal means a previous run's state would be silently
    /// clobbered — callers decide whether to resume or remove it).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; `ErrorKind::AlreadyExists` when the file
    /// is present.
    pub fn create(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        // The new directory entry must be durable too: appends fsync the
        // file data, but a power loss could still forget the file ever
        // existed unless its parent directory is synced once here.
        sync_dir(path.parent().filter(|d| !d.as_os_str().is_empty()))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Opens an existing journal for appending.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (including `NotFound`).
    pub fn open_append(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one line (a `\n` is added) and fsyncs before returning:
    /// once this returns, the line survives `kill -9`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the write or the fsync.
    ///
    /// # Panics
    ///
    /// Panics if `line` itself contains a newline — the journal's record
    /// separator; callers must escape payloads (JSON does).
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        assert!(
            !line.contains('\n'),
            "journal lines must not contain newlines"
        );
        faultfs::write_all(&mut self.file, &self.path, line.as_bytes())?;
        faultfs::write_all(&mut self.file, &self.path, b"\n")?;
        faultfs::sync_data(&self.file, &self.path)?;
        // Deterministic crash point: this line is committed, nothing
        // after it will be.
        faultfs::journal_appended();
        Ok(())
    }

    /// Reads the committed lines of the journal at `path`. A torn final
    /// line (no trailing `\n` — the process died mid-append) is dropped:
    /// only fully committed records are returned.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; non-UTF-8 content is an
    /// `ErrorKind::InvalidData` error (journals are JSON, so this means
    /// corruption beyond a torn tail).
    pub fn read_committed_lines(path: &Path) -> io::Result<Vec<String>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        // Drop the torn tail *before* UTF-8 validation: a crash can tear
        // mid-codepoint just as easily as mid-record.
        match bytes.iter().rposition(|&b| b == b'\n') {
            Some(last) => bytes.truncate(last + 1),
            None => bytes.clear(),
        }
        let text =
            String::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(text.lines().map(str::to_string).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dashlat-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let d = tmpdir("atomic");
        let p = d.join("out.json");
        atomic_write(&p, "first").expect("write");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "first");
        atomic_write(&p, "second, longer contents").expect("rewrite");
        assert_eq!(
            std::fs::read_to_string(&p).unwrap(),
            "second, longer contents"
        );
        // No temp litter left behind.
        let litter: Vec<_> = std::fs::read_dir(&d)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(litter.is_empty(), "temp files left: {litter:?}");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn journal_create_refuses_existing() {
        let d = tmpdir("create");
        let p = d.join("sweep.journal");
        drop(Journal::create(&p).expect("fresh create"));
        let err = Journal::create(&p).expect_err("second create must fail");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn journal_append_and_read_round_trip() {
        let d = tmpdir("roundtrip");
        let p = d.join("sweep.journal");
        let mut j = Journal::create(&p).expect("create");
        j.append("{\"a\":1}").expect("append");
        j.append("{\"b\":2}").expect("append");
        drop(j);
        let mut j = Journal::open_append(&p).expect("reopen");
        j.append("{\"c\":3}").expect("append");
        drop(j);
        assert_eq!(
            Journal::read_committed_lines(&p).expect("read"),
            vec!["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn torn_tail_is_dropped() {
        let d = tmpdir("torn");
        let p = d.join("sweep.journal");
        std::fs::write(&p, "{\"a\":1}\n{\"b\":2}\n{\"c\":").expect("write");
        assert_eq!(
            Journal::read_committed_lines(&p).expect("read"),
            vec!["{\"a\":1}", "{\"b\":2}"]
        );
        // Even a tail torn mid-UTF-8-codepoint is tolerated.
        let mut bytes = b"{\"a\":1}\n".to_vec();
        bytes.extend_from_slice("{\"s\":\"é".as_bytes());
        let partial = &bytes[..bytes.len() - 1]; // cut the 2-byte é in half
        std::fs::write(&p, partial).expect("write");
        assert_eq!(
            Journal::read_committed_lines(&p).expect("read"),
            vec!["{\"a\":1}"]
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn atomic_write_under_every_fault_class_leaves_destination_untouched() {
        let d = tmpdir("faulted-atomic");
        let p = d.join("out.json");
        atomic_write(&p, "published v1").expect("clean publish");
        let classes = [
            ("eio", "eio=1"),
            ("short write", "short=1"),
            ("fsync", "fsync=1"),
            ("rename", "rename=1"),
        ];
        for (name, spec) in classes {
            let faults = faultfs::arm(faultfs::scoped(&d, spec));
            let err = atomic_write(&p, "torn v2").expect_err(name);
            let stats = faults.stats();
            drop(faults);
            assert!(
                err.to_string().contains("injected fault"),
                "{name}: unexpected error {err}"
            );
            assert!(stats.injected >= 1, "{name}: no fault fired");
            // The contract: a faulted publish propagates the error AND
            // leaves the previously published contents intact.
            assert_eq!(
                std::fs::read_to_string(&p).unwrap(),
                "published v1",
                "{name}: destination was disturbed"
            );
            let litter: Vec<_> = std::fs::read_dir(&d)
                .unwrap()
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
                .collect();
            assert!(litter.is_empty(), "{name}: temp litter {litter:?}");
        }
        // Once the fault clears, a retry publishes cleanly.
        atomic_write(&p, "published v2").expect("retry after fault");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "published v2");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn faulted_journal_append_propagates_and_commits_nothing() {
        let d = tmpdir("faulted-append");
        for (i, spec) in ["eio=1", "short=1", "fsync=1"].into_iter().enumerate() {
            let p = d.join(format!("sweep-{i}.journal"));
            let mut j = Journal::create(&p).expect("create");
            j.append("{\"a\":1}").expect("clean append");
            let faults = faultfs::arm(faultfs::scoped(&d, spec));
            let err = j.append("{\"b\":2}").expect_err("faulted append");
            drop(faults);
            assert!(err.to_string().contains("injected fault"), "{err}");
            // The acknowledged line always survives, and no reader ever
            // sees torn garbage. (A failed *fsync* may still leave the
            // unacknowledged line visible — its bytes were written, just
            // not durable — which is safe: journal records are valid
            // whether or not the writer got the acknowledgement.)
            let lines = Journal::read_committed_lines(&p).expect("read");
            assert_eq!(lines.first().map(String::as_str), Some("{\"a\":1}"));
            assert!(lines.len() <= 2, "unexpected extra lines: {lines:?}");
            for line in &lines {
                assert!(
                    line == "{\"a\":1}" || line == "{\"b\":2}",
                    "torn record visible: {line:?}"
                );
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    #[should_panic(expected = "must not contain newlines")]
    fn embedded_newline_rejected() {
        let d = tmpdir("newline");
        let mut j = Journal::create(&d.join("j")).expect("create");
        let _ = j.append("two\nlines");
    }
}
