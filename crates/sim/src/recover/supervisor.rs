//! Trial supervision: panic isolation, bounded retry, and a watchdog.
//!
//! A Monte-Carlo fleet at n = 10⁶ spends minutes per trial; one panicking
//! or hung trial must not take the whole batch with it. The supervisor
//! wraps each trial in [`std::panic::catch_unwind`], classifies panics
//! into a small taxonomy, retries panicked trials a bounded number of
//! times **with the same seed** (a deterministic panic will reproduce; a
//! heisenbug from e.g. memory pressure gets another chance), and — when a
//! wall-clock timeout is configured — runs the trial on a watchdog thread
//! so a hung trial becomes a typed [`TrialOutcome::TimedOut`] instead of
//! wedging the pool.
//!
//! Everything rolls up into a [`FleetSummary`]
//! (`succeeded`/`retried`/`timed_out`/`poisoned`) with a JSON round-trip
//! for the telemetry sidecar files.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use crate::obs::progress::{ProgressEvent, ProgressSink};
use crate::result::RunResult;

/// The supervised trial closure: seed in, result out. `'static` because
/// the watchdog path hands the closure to a detached thread.
pub type TrialFn = dyn Fn(u64) -> RunResult + Send + Sync + 'static;

/// How the supervisor treats each trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// How many times a *panicked* trial is re-run (same seed, fresh
    /// state) before being reported as [`TrialOutcome::Panicked`].
    /// Timeouts are never retried — a deterministic hang would hang again.
    pub max_retries: u32,
    /// Wall-clock budget per trial attempt. `None` (the default) runs the
    /// trial inline with no watchdog thread — the zero-overhead path.
    pub timeout: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 1,
            timeout: None,
        }
    }
}

/// Coarse classification of a caught panic, derived from its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// Slice/array index out of bounds.
    IndexOutOfBounds,
    /// Arithmetic overflow or underflow (debug-checked arithmetic).
    ArithmeticOverflow,
    /// A failed `assert!`/`assert_eq!`/`debug_assert!`.
    Assertion,
    /// An `unwrap()`/`expect()` on `None`/`Err`.
    UnwrapFailed,
    /// Anything else (including non-string payloads).
    Other,
}

impl PanicKind {
    /// Best-effort classification from the panic payload's message.
    #[must_use]
    pub fn classify(message: &str) -> Self {
        if message.contains("index out of bounds") || message.contains("out of range") {
            PanicKind::IndexOutOfBounds
        } else if message.contains("overflow") {
            PanicKind::ArithmeticOverflow
        } else if message.contains("assertion") {
            PanicKind::Assertion
        } else if message.contains("unwrap()") || message.contains("expect()") {
            PanicKind::UnwrapFailed
        } else {
            PanicKind::Other
        }
    }

    /// Stable label for telemetry.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PanicKind::IndexOutOfBounds => "index_out_of_bounds",
            PanicKind::ArithmeticOverflow => "arithmetic_overflow",
            PanicKind::Assertion => "assertion",
            PanicKind::UnwrapFailed => "unwrap_failed",
            PanicKind::Other => "other",
        }
    }

    /// Inverse of [`PanicKind::name`] (used by the progress-event parser).
    #[must_use]
    pub fn from_name(name: &str) -> Option<PanicKind> {
        [
            PanicKind::IndexOutOfBounds,
            PanicKind::ArithmeticOverflow,
            PanicKind::Assertion,
            PanicKind::UnwrapFailed,
            PanicKind::Other,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// The terminal outcome of one supervised trial. Every trial reports
/// **exactly one** of these — in particular, a completed result that
/// arrives at the timeout deadline beats the timeout (see
/// `await_completion`), so a trial can never be both.
#[derive(Debug)]
pub enum TrialOutcome {
    /// The trial produced a result (possibly after retries).
    Succeeded {
        /// The trial's seed.
        seed: u64,
        /// The run result.
        result: RunResult,
        /// How many panicked attempts preceded the success.
        retries: u32,
    },
    /// Every attempt panicked; the trial is poisoned.
    Panicked {
        /// The trial's seed.
        seed: u64,
        /// Classification of the final panic.
        kind: PanicKind,
        /// The final panic's message.
        message: String,
        /// Retries consumed (equals the config's `max_retries`).
        retries: u32,
    },
    /// The attempt outlived its wall-clock budget. The runaway thread is
    /// left detached (there is no safe way to kill it); its eventual
    /// result is discarded.
    TimedOut {
        /// The trial's seed.
        seed: u64,
        /// The budget that was exceeded.
        timeout: Duration,
        /// Panicked attempts that preceded the timeout.
        retries: u32,
    },
}

impl TrialOutcome {
    /// The trial's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        match self {
            TrialOutcome::Succeeded { seed, .. }
            | TrialOutcome::Panicked { seed, .. }
            | TrialOutcome::TimedOut { seed, .. } => *seed,
        }
    }

    /// The run result, when the trial succeeded.
    #[must_use]
    pub fn result(&self) -> Option<&RunResult> {
        match self {
            TrialOutcome::Succeeded { result, .. } => Some(result),
            _ => None,
        }
    }

    /// `true` iff the trial produced a result.
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, TrialOutcome::Succeeded { .. })
    }
}

/// Aggregate tally over a supervised fleet of trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetSummary {
    /// Trials supervised.
    pub trials: u64,
    /// Trials that produced a result.
    pub succeeded: u64,
    /// Panicked attempts that were re-run (counts attempts, not trials).
    pub retried: u64,
    /// Trials that exceeded their wall-clock budget.
    pub timed_out: u64,
    /// Trials whose every attempt panicked.
    pub poisoned: u64,
}

impl FleetSummary {
    /// Folds one trial outcome into the tally.
    pub fn record(&mut self, outcome: &TrialOutcome) {
        self.trials += 1;
        match outcome {
            TrialOutcome::Succeeded { retries, .. } => {
                self.succeeded += 1;
                self.retried += u64::from(*retries);
            }
            TrialOutcome::Panicked { retries, .. } => {
                self.poisoned += 1;
                self.retried += u64::from(*retries);
            }
            TrialOutcome::TimedOut { retries, .. } => {
                self.timed_out += 1;
                self.retried += u64::from(*retries);
            }
        }
    }

    /// Merges another fleet's tally into this one (sharded runs).
    pub fn merge(&mut self, other: &FleetSummary) {
        self.trials += other.trials;
        self.succeeded += other.succeeded;
        self.retried += other.retried;
        self.timed_out += other.timed_out;
        self.poisoned += other.poisoned;
    }

    /// One-line JSON object, stable key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trials\":{},\"succeeded\":{},\"retried\":{},\"timed_out\":{},\"poisoned\":{}}}",
            self.trials, self.succeeded, self.retried, self.timed_out, self.poisoned
        )
    }

    /// Parses the output of [`FleetSummary::to_json`]. Returns `None` on
    /// any missing key or malformed number (unknown keys are ignored).
    #[must_use]
    pub fn from_json(json: &str) -> Option<Self> {
        let field = |key: &str| -> Option<u64> {
            let pat = format!("\"{key}\":");
            let start = json.find(&pat)? + pat.len();
            let rest = &json[start..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        Some(FleetSummary {
            trials: field("trials")?,
            succeeded: field("succeeded")?,
            retried: field("retried")?,
            timed_out: field("timed_out")?,
            poisoned: field("poisoned")?,
        })
    }
}

/// One attempt's fate, before retry bookkeeping.
enum Attempt {
    Completed(RunResult),
    Panicked(String),
    TimedOut,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Waits for the watchdog channel. Precedence is pinned here: when the
/// deadline fires, one final non-blocking poll runs first, so a result
/// that completed *at* the deadline — including a `RoundCapExhausted`
/// run — wins over the timeout. Exactly one terminal outcome, always.
fn await_completion(
    rx: &mpsc::Receiver<thread::Result<RunResult>>,
    timeout: Duration,
) -> Attempt {
    let completed = |done: thread::Result<RunResult>| match done {
        Ok(result) => Attempt::Completed(result),
        Err(payload) => Attempt::Panicked(panic_message(payload.as_ref())),
    };
    match rx.recv_timeout(timeout) {
        Ok(done) => completed(done),
        Err(mpsc::RecvTimeoutError::Timeout) => match rx.try_recv() {
            Ok(done) => completed(done),
            Err(_) => Attempt::TimedOut,
        },
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Attempt::Panicked("trial thread exited without reporting".to_string())
        }
    }
}

fn attempt_with_watchdog(trial: &Arc<TrialFn>, seed: u64, timeout: Duration) -> Attempt {
    let (tx, rx) = mpsc::channel();
    let trial = Arc::clone(trial);
    let spawned = thread::Builder::new()
        .name(format!("fading-trial-{seed}"))
        .spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| trial(seed)));
            // The supervisor may have given up already; a dead receiver
            // just means the result is discarded.
            let _ = tx.send(outcome);
        });
    match spawned {
        Ok(_handle) => await_completion(&rx, timeout),
        Err(e) => Attempt::Panicked(format!("watchdog thread spawn failed: {e}")),
    }
}

/// Runs one trial under the supervisor's policy: panic isolation, bounded
/// same-seed retry, and (when configured) the wall-clock watchdog.
///
/// Without a timeout the trial runs inline under `catch_unwind` — no
/// thread, no channel, no allocation on the success path — which is what
/// keeps supervision overhead within the bench gate's 2% budget.
///
/// Progress goes to `sink` as [`ProgressEvent`]s: `TrialStarted` before
/// the first attempt, `TrialRetried` before each re-run, and exactly one
/// terminal event mirroring the returned [`TrialOutcome`]. The sink only
/// observes: it is called on this thread (never on the watchdog's trial
/// thread) and cannot alter the outcome; pass
/// [`NoopProgress`](crate::obs::NoopProgress) to observe nothing.
#[must_use]
pub fn supervise_trial(
    cfg: &SupervisorConfig,
    seed: u64,
    trial: &Arc<TrialFn>,
    sink: &dyn ProgressSink,
) -> TrialOutcome {
    let mut retries = 0;
    sink.on_event(&ProgressEvent::TrialStarted { seed });
    loop {
        let attempt = match cfg.timeout {
            None => match panic::catch_unwind(AssertUnwindSafe(|| trial(seed))) {
                Ok(result) => Attempt::Completed(result),
                Err(payload) => Attempt::Panicked(panic_message(payload.as_ref())),
            },
            Some(timeout) => attempt_with_watchdog(trial, seed, timeout),
        };
        match attempt {
            Attempt::Completed(result) => {
                sink.on_event(&ProgressEvent::TrialFinished {
                    seed,
                    rounds: result.rounds_executed(),
                    resolved: result.resolved(),
                    retries,
                });
                return TrialOutcome::Succeeded {
                    seed,
                    result,
                    retries,
                };
            }
            Attempt::TimedOut => {
                // recv_timeout already consumed the budget; unwrap is
                // safe by construction (only the Some branch times out).
                let timeout = cfg.timeout.unwrap_or_default();
                sink.on_event(&ProgressEvent::TrialTimedOut {
                    seed,
                    timeout_ms: timeout.as_millis() as u64,
                    retries,
                });
                return TrialOutcome::TimedOut {
                    seed,
                    timeout,
                    retries,
                };
            }
            Attempt::Panicked(message) => {
                if retries >= cfg.max_retries {
                    let kind = PanicKind::classify(&message);
                    sink.on_event(&ProgressEvent::TrialPoisoned {
                        seed,
                        kind,
                        retries,
                    });
                    return TrialOutcome::Panicked {
                        seed,
                        kind,
                        message,
                        retries,
                    };
                }
                retries += 1;
                sink.on_event(&ProgressEvent::TrialRetried { seed, retries });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::progress::NoopProgress;
    use crate::result::Trace;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn dummy_result(rounds: u64) -> RunResult {
        RunResult::new(Some(rounds), rounds, 4, 1, Some(0), 9, Trace::default())
    }

    fn arc(f: impl Fn(u64) -> RunResult + Send + Sync + 'static) -> Arc<TrialFn> {
        Arc::new(f)
    }

    #[test]
    fn successful_trial_passes_through() {
        let cfg = SupervisorConfig::default();
        let outcome = supervise_trial(&cfg, 7, &arc(dummy_result), &NoopProgress);
        match outcome {
            TrialOutcome::Succeeded {
                seed,
                result,
                retries,
            } => {
                assert_eq!(seed, 7);
                assert_eq!(result.rounds_executed(), 7);
                assert_eq!(retries, 0);
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn panicking_trial_is_retried_then_poisoned() {
        let cfg = SupervisorConfig {
            max_retries: 2,
            timeout: None,
        };
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&attempts);
        let outcome = supervise_trial(
            &cfg,
            3,
            &arc(move |_| {
                seen.fetch_add(1, Ordering::SeqCst);
                panic!("index out of bounds: the len is 4 but the index is 9")
            }),
            &NoopProgress,
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");
        match outcome {
            TrialOutcome::Panicked {
                kind,
                retries,
                message,
                ..
            } => {
                assert_eq!(kind, PanicKind::IndexOutOfBounds);
                assert_eq!(retries, 2);
                assert!(message.contains("index out of bounds"));
            }
            other => panic!("expected poisoned, got {other:?}"),
        }
    }

    #[test]
    fn flaky_trial_recovers_with_retry_count() {
        let cfg = SupervisorConfig {
            max_retries: 3,
            timeout: None,
        };
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&attempts);
        let outcome = supervise_trial(
            &cfg,
            5,
            &arc(move |seed| {
                if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("flaky");
                }
                dummy_result(seed)
            }),
            &NoopProgress,
        );
        match outcome {
            TrialOutcome::Succeeded { retries, .. } => assert_eq!(retries, 2),
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn hung_trial_times_out_without_wedging() {
        let cfg = SupervisorConfig {
            max_retries: 0,
            timeout: Some(Duration::from_millis(50)),
        };
        let outcome = supervise_trial(
            &cfg,
            11,
            &arc(|_| {
                // Simulated hang, far beyond the watchdog budget. The
                // detached thread dies with the test process.
                thread::sleep(Duration::from_secs(300));
                dummy_result(1)
            }),
            &NoopProgress,
        );
        match outcome {
            TrialOutcome::TimedOut { seed, timeout, .. } => {
                assert_eq!(seed, 11);
                assert_eq!(timeout, Duration::from_millis(50));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_still_reports_success_and_panic() {
        let cfg = SupervisorConfig {
            max_retries: 0,
            timeout: Some(Duration::from_secs(30)),
        };
        assert!(supervise_trial(&cfg, 2, &arc(dummy_result), &NoopProgress).is_success());
        let outcome = supervise_trial(&cfg, 2, &arc(|_| panic!("boom")), &NoopProgress);
        assert!(matches!(outcome, TrialOutcome::Panicked { .. }));
    }

    /// Satellite regression: the deadline poll precedence. A result that
    /// is already in the channel when the deadline fires must win over
    /// `TimedOut` — even a zero timeout cannot steal a completed run.
    #[test]
    fn completed_result_beats_the_deadline() {
        let (tx, rx) = mpsc::channel::<thread::Result<RunResult>>();
        tx.send(Ok(dummy_result(123))).unwrap();
        match await_completion(&rx, Duration::ZERO) {
            Attempt::Completed(result) => assert_eq!(result.rounds_executed(), 123),
            Attempt::Panicked(_) | Attempt::TimedOut => {
                panic!("a completed result must beat the deadline")
            }
        }
    }

    /// …and the cap-exhausted variant specifically: `RoundCapExhausted`
    /// is a *completed* outcome, not a hang — it must never be reported
    /// as `TimedOut` when both race.
    #[test]
    fn round_cap_exhausted_beats_the_deadline() {
        let capped = RunResult::new(None, 500, 8, 3, None, 42, Trace::default());
        assert!(!capped.outcome().is_resolved());
        let (tx, rx) = mpsc::channel::<thread::Result<RunResult>>();
        tx.send(Ok(capped)).unwrap();
        match await_completion(&rx, Duration::ZERO) {
            Attempt::Completed(result) => {
                assert!(matches!(
                    result.outcome(),
                    crate::RunOutcome::RoundCapExhausted { rounds_executed: 500 }
                ));
            }
            Attempt::Panicked(_) | Attempt::TimedOut => {
                panic!("RoundCapExhausted must win the race against the watchdog")
            }
        }
    }

    #[test]
    fn empty_channel_at_deadline_times_out() {
        let (tx, rx) = mpsc::channel::<thread::Result<RunResult>>();
        match await_completion(&rx, Duration::ZERO) {
            Attempt::TimedOut => {}
            Attempt::Completed(_) | Attempt::Panicked(_) => {
                panic!("nothing completed, the deadline must fire")
            }
        }
        drop(tx);
    }

    #[test]
    fn panic_taxonomy_classifies() {
        assert_eq!(
            PanicKind::classify("index out of bounds: the len is 2 but the index is 7"),
            PanicKind::IndexOutOfBounds
        );
        assert_eq!(
            PanicKind::classify("attempt to add with overflow"),
            PanicKind::ArithmeticOverflow
        );
        assert_eq!(
            PanicKind::classify("assertion failed: a == b"),
            PanicKind::Assertion
        );
        assert_eq!(
            PanicKind::classify("called `Option::unwrap()` on a `None` value"),
            PanicKind::UnwrapFailed
        );
        assert_eq!(PanicKind::classify("something else"), PanicKind::Other);
        for kind in [
            PanicKind::IndexOutOfBounds,
            PanicKind::ArithmeticOverflow,
            PanicKind::Assertion,
            PanicKind::UnwrapFailed,
            PanicKind::Other,
        ] {
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn fleet_summary_records_and_round_trips() {
        let mut summary = FleetSummary::default();
        summary.record(&TrialOutcome::Succeeded {
            seed: 0,
            result: dummy_result(1),
            retries: 2,
        });
        summary.record(&TrialOutcome::Panicked {
            seed: 1,
            kind: PanicKind::Other,
            message: "x".into(),
            retries: 1,
        });
        summary.record(&TrialOutcome::TimedOut {
            seed: 2,
            timeout: Duration::from_secs(1),
            retries: 0,
        });
        assert_eq!(summary.trials, 3);
        assert_eq!(summary.succeeded, 1);
        assert_eq!(summary.poisoned, 1);
        assert_eq!(summary.timed_out, 1);
        assert_eq!(summary.retried, 3);

        let json = summary.to_json();
        assert_eq!(FleetSummary::from_json(&json), Some(summary));
        assert_eq!(FleetSummary::from_json("{}"), None);

        let mut merged = summary;
        merged.merge(&summary);
        assert_eq!(merged.trials, 6);
        assert_eq!(merged.retried, 6);
    }
}
