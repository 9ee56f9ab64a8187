//! Best-effort SIGINT/SIGTERM interception for the long-running binaries.
//!
//! The canonical implementation lives in [`fading_server::interrupt`]
//! (the one place in the workspace allowed a scoped `unsafe` for the raw
//! `signal(2)` declaration); this module re-exports it so the experiment
//! harness keeps its `interrupt::interrupted()` polling loop unchanged.
//! The server flavor also adds [`claim_flush`] (a single-winner token for
//! shutdown flushing) and escalation: a second signal during a slow flush
//! forces immediate `_exit(130)`.
//!
//! [`claim_flush`]: fading_server::interrupt::claim_flush

pub use fading_server::interrupt::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_install_is_idempotent() {
        install();
        install();
        assert!(!interrupted());
        assert_eq!(INTERRUPT_EXIT_CODE, 130);
    }
}
