//! Structured trial-progress events for supervised Monte-Carlo fleets.
//!
//! Supervision used to be a black box: a fleet went in, a
//! [`FleetSummary`](crate::recover::FleetSummary) came out, and everything
//! in between — which seed is running, which one is on its second retry,
//! which one just hit the watchdog — was invisible. A [`ProgressSink`]
//! attached to a [`TrialRunner`](crate::montecarlo::TrialRunner) through
//! [`TrialRunner::progress`](crate::montecarlo::TrialRunner::progress)
//! receives one typed [`ProgressEvent`] per trial transition, as it
//! happens.
//!
//! The determinism contract extends here: a sink only *observes* the
//! supervisor — it can never change a trial's outcome, and an observed
//! run produces byte-identical [`RunResult`](crate::RunResult)s to an
//! unobserved one (pinned by the `montecarlo` unit tests, the root
//! package's `tests/trial_runner.rs` and the server's
//! `tests/watch_determinism.rs`). Events are
//! emitted from whichever worker thread supervises the trial, so a sink
//! must be internally synchronized (`Send + Sync`); *ordering across
//! seeds* follows scheduling, while the per-seed sequence
//! (started → retried\* → terminal) is always in order.
//!
//! Every event has a one-line JSON form ([`ProgressEvent::to_json`] /
//! [`ProgressEvent::from_json`]) with the same bit-exact round-trip
//! guarantee as the other exporters; the job server forwards these lines
//! to `watch` subscribers verbatim (plus job/timestamp fields, which the
//! parser here ignores as unknown keys).

use std::sync::Mutex;

use crate::recover::PanicKind;
use crate::telemetry::jsonl::{parse_json, JsonValue, JsonlError};

/// One supervised-trial transition. Seeds and counts are `u64`/`u32`; all
/// values survive the JSON round-trip exactly (they stay well inside the
/// `f64`-exact integer range — seeds are `seed_base + index`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressEvent {
    /// A trial's first attempt is about to run.
    TrialStarted {
        /// The trial's seed.
        seed: u64,
    },
    /// A panicked attempt is being re-run with the same seed.
    TrialRetried {
        /// The trial's seed.
        seed: u64,
        /// Which retry this is (1 = first re-run).
        retries: u32,
    },
    /// The trial produced a result.
    TrialFinished {
        /// The trial's seed.
        seed: u64,
        /// Rounds the run executed.
        rounds: u64,
        /// Whether the run resolved within its round budget.
        resolved: bool,
        /// Panicked attempts that preceded the success.
        retries: u32,
    },
    /// The trial exceeded its wall-clock budget.
    TrialTimedOut {
        /// The trial's seed.
        seed: u64,
        /// The budget that was exceeded, in milliseconds.
        timeout_ms: u64,
        /// Panicked attempts that preceded the timeout.
        retries: u32,
    },
    /// Every attempt panicked; the trial is poisoned.
    TrialPoisoned {
        /// The trial's seed.
        seed: u64,
        /// Classification of the final panic.
        kind: PanicKind,
        /// Retries consumed.
        retries: u32,
    },
}

impl ProgressEvent {
    /// The trial's seed, for any variant.
    #[must_use]
    pub fn seed(&self) -> u64 {
        match self {
            ProgressEvent::TrialStarted { seed }
            | ProgressEvent::TrialRetried { seed, .. }
            | ProgressEvent::TrialFinished { seed, .. }
            | ProgressEvent::TrialTimedOut { seed, .. }
            | ProgressEvent::TrialPoisoned { seed, .. } => *seed,
        }
    }

    /// Stable wire label for the variant (the JSON `event` field).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ProgressEvent::TrialStarted { .. } => "trial_started",
            ProgressEvent::TrialRetried { .. } => "trial_retried",
            ProgressEvent::TrialFinished { .. } => "trial_finished",
            ProgressEvent::TrialTimedOut { .. } => "trial_timed_out",
            ProgressEvent::TrialPoisoned { .. } => "trial_poisoned",
        }
    }

    /// `true` iff this is a terminal event (finished / timed out /
    /// poisoned) — exactly one arrives per supervised trial.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ProgressEvent::TrialFinished { .. }
                | ProgressEvent::TrialTimedOut { .. }
                | ProgressEvent::TrialPoisoned { .. }
        )
    }

    /// One-line JSON object, stable key order, no trailing newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            ProgressEvent::TrialStarted { seed } => {
                format!("{{\"event\":\"trial_started\",\"seed\":{seed}}}")
            }
            ProgressEvent::TrialRetried { seed, retries } => format!(
                "{{\"event\":\"trial_retried\",\"seed\":{seed},\"retries\":{retries}}}"
            ),
            ProgressEvent::TrialFinished {
                seed,
                rounds,
                resolved,
                retries,
            } => format!(
                "{{\"event\":\"trial_finished\",\"seed\":{seed},\"rounds\":{rounds},\
                 \"resolved\":{resolved},\"retries\":{retries}}}"
            ),
            ProgressEvent::TrialTimedOut {
                seed,
                timeout_ms,
                retries,
            } => format!(
                "{{\"event\":\"trial_timed_out\",\"seed\":{seed},\"timeout_ms\":{timeout_ms},\
                 \"retries\":{retries}}}"
            ),
            ProgressEvent::TrialPoisoned {
                seed,
                kind,
                retries,
            } => format!(
                "{{\"event\":\"trial_poisoned\",\"seed\":{seed},\"kind\":\"{}\",\
                 \"retries\":{retries}}}",
                kind.name()
            ),
        }
    }

    /// Parses the output of [`ProgressEvent::to_json`]. Unknown keys are
    /// ignored (the server splices `job`/`t_ms` fields into forwarded
    /// lines); missing keys are an error.
    ///
    /// # Errors
    ///
    /// [`JsonlError::Parse`] on malformed JSON, an unknown `event` label,
    /// or a missing field.
    pub fn from_json(line: &str) -> Result<ProgressEvent, JsonlError> {
        let v = parse_json(line)?;
        let field_u64 = |key: &str| -> Result<u64, JsonlError> {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .map(|f| f as u64)
                .ok_or_else(|| parse_error(format!("missing or non-numeric {key:?}")))
        };
        let field_u32 = |key: &str| field_u64(key).map(|n| n as u32);
        let label = v
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| parse_error("missing \"event\""))?;
        match label {
            "trial_started" => Ok(ProgressEvent::TrialStarted {
                seed: field_u64("seed")?,
            }),
            "trial_retried" => Ok(ProgressEvent::TrialRetried {
                seed: field_u64("seed")?,
                retries: field_u32("retries")?,
            }),
            "trial_finished" => Ok(ProgressEvent::TrialFinished {
                seed: field_u64("seed")?,
                rounds: field_u64("rounds")?,
                resolved: v
                    .get("resolved")
                    .and_then(JsonValue::as_bool)
                    .ok_or_else(|| parse_error("missing or non-bool \"resolved\""))?,
                retries: field_u32("retries")?,
            }),
            "trial_timed_out" => Ok(ProgressEvent::TrialTimedOut {
                seed: field_u64("seed")?,
                timeout_ms: field_u64("timeout_ms")?,
                retries: field_u32("retries")?,
            }),
            "trial_poisoned" => {
                let name = v
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| parse_error("missing \"kind\""))?;
                Ok(ProgressEvent::TrialPoisoned {
                    seed: field_u64("seed")?,
                    kind: PanicKind::from_name(name)
                        .ok_or_else(|| parse_error(format!("unknown panic kind {name:?}")))?,
                    retries: field_u32("retries")?,
                })
            }
            other => Err(parse_error(format!("unknown progress event {other:?}"))),
        }
    }
}

fn parse_error(msg: impl Into<String>) -> JsonlError {
    JsonlError::Parse {
        line: 0,
        msg: msg.into(),
    }
}

/// Receives supervised-trial progress. Implementations must be cheap and
/// must never panic — events fire on the Monte-Carlo worker threads, on
/// the trial hot path. They must also never *block* for long: a sink that
/// stalls stalls its worker (the job server's sink therefore only does a
/// bounded try-push and drops on overflow).
pub trait ProgressSink: Send + Sync {
    /// Called once per trial transition.
    fn on_event(&self, event: &ProgressEvent);
}

/// The do-nothing sink: what the unobserved runner variants attach.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopProgress;

impl ProgressSink for NoopProgress {
    fn on_event(&self, _event: &ProgressEvent) {}
}

/// A sink that buffers every event in memory, for tests and in-process
/// dashboards. Thread-safe; take the events out with
/// [`MemoryProgress::take`].
#[derive(Debug, Default)]
pub struct MemoryProgress {
    events: Mutex<Vec<ProgressEvent>>,
}

impl MemoryProgress {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        MemoryProgress::default()
    }

    /// Removes and returns everything buffered so far (arrival order).
    #[must_use]
    pub fn take(&self) -> Vec<ProgressEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// How many events are buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// `true` when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ProgressSink for MemoryProgress {
    fn on_event(&self, event: &ProgressEvent) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<ProgressEvent> {
        vec![
            ProgressEvent::TrialStarted { seed: 7 },
            ProgressEvent::TrialRetried { seed: 7, retries: 2 },
            ProgressEvent::TrialFinished {
                seed: 9,
                rounds: 31,
                resolved: true,
                retries: 0,
            },
            ProgressEvent::TrialFinished {
                seed: 10,
                rounds: 5000,
                resolved: false,
                retries: 1,
            },
            ProgressEvent::TrialTimedOut {
                seed: 11,
                timeout_ms: 750,
                retries: 3,
            },
            ProgressEvent::TrialPoisoned {
                seed: 12,
                kind: PanicKind::IndexOutOfBounds,
                retries: 1,
            },
        ]
    }

    #[test]
    fn json_round_trips_every_variant() {
        for ev in all_variants() {
            let line = ev.to_json();
            assert_eq!(ProgressEvent::from_json(&line).unwrap(), ev, "{line}");
        }
    }

    #[test]
    fn parser_ignores_unknown_keys_like_the_server_splices() {
        let spliced =
            "{\"event\":\"trial_finished\",\"job\":\"j-1\",\"t_ms\":123,\"seed\":9,\
             \"rounds\":31,\"resolved\":true,\"retries\":0}";
        assert_eq!(
            ProgressEvent::from_json(spliced).unwrap(),
            ProgressEvent::TrialFinished {
                seed: 9,
                rounds: 31,
                resolved: true,
                retries: 0
            }
        );
    }

    #[test]
    fn parser_rejects_unknown_label_and_missing_fields() {
        assert!(ProgressEvent::from_json("{\"event\":\"warp\",\"seed\":1}").is_err());
        assert!(ProgressEvent::from_json("{\"event\":\"trial_started\"}").is_err());
        assert!(ProgressEvent::from_json("{\"seed\":1}").is_err());
        assert!(ProgressEvent::from_json("not json").is_err());
        assert!(
            ProgressEvent::from_json("{\"event\":\"trial_poisoned\",\"seed\":1,\"kind\":\"??\",\"retries\":0}")
                .is_err()
        );
    }

    #[test]
    fn terminal_classification_and_seed_accessors() {
        let events = all_variants();
        assert!(!events[0].is_terminal());
        assert!(!events[1].is_terminal());
        assert!(events[2].is_terminal());
        assert!(events[4].is_terminal());
        assert!(events[5].is_terminal());
        assert_eq!(events[0].seed(), 7);
        assert_eq!(events[5].seed(), 12);
        assert_eq!(events[5].label(), "trial_poisoned");
    }

    #[test]
    fn memory_sink_buffers_in_arrival_order() {
        let sink = MemoryProgress::new();
        assert!(sink.is_empty());
        for ev in all_variants() {
            sink.on_event(&ev);
        }
        assert_eq!(sink.len(), 6);
        assert_eq!(sink.take(), all_variants());
        assert!(sink.is_empty());
    }
}
