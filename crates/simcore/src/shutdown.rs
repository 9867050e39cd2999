//! Cooperative shutdown: one process-wide flag, set by SIGINT/SIGTERM,
//! polled by long-running loops.
//!
//! The campaign engine, the steady-state workloads and the `served`
//! daemon all run minutes-long loops that own half-written artifacts —
//! checkpoints, perf ledgers, result files. Dying mid-write on Ctrl-C
//! corrupts them. This module gives every binary the same two-step
//! discipline:
//!
//! 1. call [`install_signal_traps`] once at startup;
//! 2. poll [`requested`] at safe points (between trials, between
//!    benchmark groups, between accepted connections) and wind down —
//!    flushing whatever is already complete — when it turns true.
//!
//! The signal handler itself only stores one atomic boolean, which is
//! async-signal-safe; all real work happens on the polling threads.
//! [`request`] sets the same flag programmatically (tests, remote
//! `DELETE /jobs` cancellation cascading into a daemon stop), and
//! [`reset`] re-arms it (tests and daemon restarts within one process).
//!
//! The two `signal(2)` FFI lines below are the only unsafe code in the
//! workspace's libraries; everything else builds under
//! `deny(unsafe_code)`. (The allocation-count test's counting global
//! allocator is the one unsafe impl outside them.)

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide shutdown flag.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// Whether the traps were already installed (idempotence guard).
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// `SIGINT` on every Unix this workspace targets.
const SIGINT: i32 = 2;
/// `SIGTERM` on every Unix this workspace targets.
const SIGTERM: i32 = 15;

#[cfg(unix)]
#[allow(unsafe_code)]
mod trap {
    //! The minimal `signal(2)` binding: no crates.io access, so the two
    //! declarations live here instead of in `libc`. The handler stores
    //! one atomic — the only operation POSIX guarantees to be
    //! async-signal-safe that we need.

    use std::sync::atomic::Ordering;

    extern "C" {
        /// POSIX `signal(2)`. On Linux/glibc this is BSD-semantics
        /// (the handler stays installed after delivery), which is what
        /// a "press Ctrl-C twice and we still wind down cleanly" flag
        /// wants.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// The installed handler: set the flag, nothing else.
    extern "C" fn on_signal(_signum: i32) {
        super::SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub(super) fn install(signum: i32) {
        // SAFETY: `signal` is the POSIX libc entry point; the handler
        // passed is a valid `extern "C" fn(i32)` for the whole program
        // lifetime and only performs an atomic store.
        unsafe {
            signal(signum, on_signal as extern "C" fn(i32) as usize);
        }
    }
}

/// Installs SIGINT/SIGTERM handlers that set the shutdown flag.
/// Idempotent; later calls are no-ops. On non-Unix targets this
/// installs nothing — [`request`] remains the only trigger.
pub fn install_signal_traps() {
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    #[cfg(unix)]
    {
        trap::install(SIGINT);
        trap::install(SIGTERM);
    }
}

/// Whether shutdown has been requested (by a trapped signal or by
/// [`request`]). Cheap enough to poll per trial.
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Requests shutdown programmatically — same effect as a trapped
/// signal.
pub fn request() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Re-arms the flag. For tests and for daemons that survive a handled
/// shutdown request within one process. Callers own the race window:
/// a signal landing between a poll and `reset` is lost, so only reset
/// once the wind-down it triggered has fully completed.
pub fn reset() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trips_and_traps_are_idempotent() {
        // Single test: the flag is process-global, so one linear
        // scenario avoids cross-test interference.
        assert!(!requested());
        request();
        assert!(requested());
        reset();
        assert!(!requested());
        install_signal_traps();
        install_signal_traps(); // second call must not panic or rearm
        assert!(!requested());
    }
}
