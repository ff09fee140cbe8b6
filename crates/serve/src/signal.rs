//! SIGTERM/SIGINT handling without a signal-handling dependency.
//!
//! The handler only sets one process-wide flag, which is
//! async-signal-safe, so the raw `signal(2)` registration below (via the
//! libc that `std` already links) is all the machinery needed — no
//! `libc` crate, no signal-hook, no runtime. The flag cannot wake the
//! daemon's blocking `accept` (glibc's `signal(2)` sets `SA_RESTART`,
//! and `std` retries `accept` on `EINTR`), so a watcher thread started
//! by [`Server::run`](crate::server::Server::run) reads
//! [`shutdown_requested`] and turns it into
//! [`Server::stop`](crate::server::Server::stop): admission stops,
//! in-flight sweeps checkpoint at the next cell boundary, and the daemon
//! exits 0.

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide shutdown flag, set by SIGTERM/SIGINT.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT has arrived.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// The shape of a `signal(2)` handler.
#[cfg(unix)]
type Handler = extern "C" fn(i32);

#[cfg(unix)]
extern "C" {
    /// The classic `signal(2)` registration; `std` links libc, so no
    /// crate dependency is needed for this one symbol. The return value
    /// (the previous handler) is declared as `usize` — one register on
    /// every Unix ABI — and ignored.
    fn signal(signum: i32, handler: Handler) -> usize;
}

/// Installs the SIGTERM/SIGINT handlers that flip the shutdown flag.
/// Call once at daemon startup; on non-Unix targets this is a no-op and
/// only `POST /shutdown` triggers graceful shutdown.
pub fn install() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" fn on_signal(_signum: i32) {
            SHUTDOWN.store(true, Ordering::SeqCst);
        }
        // SAFETY: registering an async-signal-safe handler (a single
        // atomic store) for signals whose default would kill us anyway.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}
