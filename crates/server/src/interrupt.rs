//! Process-global, idempotent SIGINT/SIGTERM interception.
//!
//! This is the workspace's one home for signal handling; `fading-bench`
//! re-exports it for its `experiments` binary (`fading_bench::interrupt`),
//! so a server that embeds an experiment harness — or any other layering of
//! long-running components — shares a single handler instead of fighting
//! over `signal(2)` registration. Three guarantees:
//!
//! 1. **Idempotent installation.** [`install`] registers the OS handler
//!    exactly once per process (guarded by a [`Once`]); every later call
//!    from any crate is a no-op, so nested components can all call it
//!    defensively.
//! 2. **Single flush.** Components that write partial output on shutdown
//!    gate the write on [`claim_flush`], which hands out exactly one
//!    token per process — the outermost and innermost layer can both have
//!    a flush path without the output being written twice.
//! 3. **Second signal forces exit.** The first SIGINT/SIGTERM only flips
//!    the [`interrupted`] flag: binaries poll it at safe points (never
//!    mid-trial, so determinism is untouched), flush, and exit with
//!    status [`INTERRUPT_EXIT_CODE`]. A *second* signal means the user is
//!    done waiting for that graceful path: the handler calls the
//!    async-signal-safe `_exit(130)` immediately rather than re-entering
//!    a flush that is evidently stuck.
//!
//! No external crates: the handler goes through the raw C `signal(2)`
//! entry point, declared here directly. The handler body is an atomic
//! swap plus (on the second signal) `_exit`, both async-signal-safe. On
//! non-unix targets installation is a no-op and [`interrupted`] never
//! fires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static INSTALL: Once = Once::new();
static INTERRUPTED: AtomicBool = AtomicBool::new(false);
static FLUSH_CLAIMED: AtomicBool = AtomicBool::new(false);

/// Exit status conventionally reported by processes stopped by SIGINT.
pub const INTERRUPT_EXIT_CODE: i32 = 130;

/// `true` once a SIGINT or SIGTERM has been received (always `false` on
/// non-unix targets or before [`install`]).
#[must_use]
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Claims the process-wide shutdown-flush token: returns `true` exactly
/// once per process. Every component with an on-interrupt flush path must
/// gate it on this, so stacked components (server around an embedded
/// harness, harness around a probe) never write partial output twice.
#[must_use]
pub fn claim_flush() -> bool {
    !FLUSH_CLAIMED.swap(true, Ordering::SeqCst)
}

/// Installs the SIGINT/SIGTERM handler. Process-global and idempotent:
/// the first call from any crate registers the handler, every later call
/// is a no-op (no re-registration, no handler chaining). No-op off unix.
pub fn install() {
    INSTALL.call_once(imp::install);
}

#[cfg(unix)]
mod imp {
    use super::{Ordering, INTERRUPTED};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    // The only libc surface we need: `signal(2)` to register, `_exit(2)`
    // for the forced second-signal exit (async-signal-safe, unlike
    // `std::process::exit` which runs atexit handlers).
    #[allow(unsafe_code)]
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(status: i32) -> !;
    }

    extern "C" fn on_signal(_signum: i32) {
        if INTERRUPTED.swap(true, Ordering::SeqCst) {
            // Second signal: the graceful flush path is taking too long
            // (or is wedged). Exit now without re-entering it.
            #[allow(unsafe_code)]
            // SAFETY: `_exit` is async-signal-safe and never returns.
            unsafe {
                _exit(super::INTERRUPT_EXIT_CODE);
            }
        }
    }

    pub fn install() {
        #[allow(unsafe_code)]
        // SAFETY: `on_signal` only performs an atomic swap and possibly
        // `_exit`, both async-signal-safe; the handler pointer outlives
        // the process.
        unsafe {
            let handler = on_signal as *const () as usize;
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_install_is_idempotent() {
        // Installing from several layers (as server + embedded harness
        // do) must neither error nor flip the flag.
        install();
        install();
        install();
        assert!(!interrupted());
    }

    #[test]
    fn flush_token_is_handed_out_exactly_once() {
        // First claimant wins; every nested component after it skips its
        // own flush. (Process-global, hence a single test observing both
        // sides of the swap.)
        let first = claim_flush();
        let second = claim_flush();
        let third = claim_flush();
        assert!(first);
        assert!(!second);
        assert!(!third);
    }
}
