//! The local-socket wire protocol: one JSON object per line, both ways.
//!
//! Requests:
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"submit","job":{...JobSpec...}}
//! {"cmd":"status","id":"job-17"}
//! {"cmd":"stats"}
//! {"cmd":"watch"}                      // progress + frames, all jobs
//! {"cmd":"watch","id":"job-17"}        // one job's progress + frames
//! {"cmd":"subscribe"}                  // progress only, no frames
//! {"cmd":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"`; failures add `"error"`. `watch` and
//! `subscribe` switch the connection into streaming mode: after the ack
//! the server pushes one event object per line (`trial_*`,
//! `job_started`/`job_done`/`job_failed`, `frame`, `alert`, `dropped`)
//! until the client hangs up. The framing is
//! hand-rolled on the same [`jsonl`](fading_cr::sim::telemetry::jsonl)
//! parser the telemetry layer uses — no new dependencies, and the same
//! dialect on both ends.

use std::fmt::Write as _;

use fading_cr::jobspec::{JobSpec, JobSpecError};
use fading_cr::sim::telemetry::jsonl::{json_escape, parse_json, JsonValue};

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Submit one job.
    Submit(Box<JobSpec>),
    /// Query one job's lifecycle state.
    Status {
        /// The job id to look up.
        id: String,
    },
    /// Service-level tallies (completed/failed/in-flight/queue depth).
    Stats,
    /// Stream progress events and periodic time-series frames until the
    /// connection closes.
    Watch {
        /// Restrict progress events to this job (`None` = all jobs).
        id: Option<String>,
    },
    /// Stream progress events only (no frames).
    Subscribe {
        /// Restrict progress events to this job (`None` = all jobs).
        id: Option<String>,
    },
    /// Ask the server to stop accepting work and exit when drained.
    Shutdown,
}

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, not yet claimed.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Completed successfully.
    Done,
    /// Rejected or errored.
    Failed,
    /// No record of this id.
    Unknown,
}

impl JobState {
    /// The stable wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Unknown => "unknown",
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message (sent back verbatim in the error response).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line).map_err(|e| format!("malformed request: {e}"))?;
    let cmd = v
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing \"cmd\"".to_string())?;
    match cmd {
        "ping" => Ok(Request::Ping),
        "submit" => {
            let job = v
                .get("job")
                .ok_or_else(|| "submit requires a \"job\" object".to_string())?;
            let spec = JobSpec::from_value(job).map_err(|e: JobSpecError| e.to_string())?;
            Ok(Request::Submit(Box::new(spec)))
        }
        "status" => {
            let id = v
                .get("id")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "status requires an \"id\"".to_string())?;
            Ok(Request::Status { id: id.to_string() })
        }
        "stats" => Ok(Request::Stats),
        "watch" | "subscribe" => {
            // `id` is optional, but when present it must be a string.
            let id = match v.get("id") {
                None => None,
                Some(j) => Some(
                    j.as_str()
                        .ok_or_else(|| format!("{cmd} \"id\" must be a string"))?
                        .to_string(),
                ),
            };
            if cmd == "watch" {
                Ok(Request::Watch { id })
            } else {
                Ok(Request::Subscribe { id })
            }
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

/// `{"ok":false,"error":...}` with the message escaped.
#[must_use]
pub fn error_response(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(msg))
}

/// `{"ok":true}` plus any extra pre-rendered `"key":value` pairs.
#[must_use]
pub fn ok_response(extra: &[(&str, String)]) -> String {
    let mut s = String::from("{\"ok\":true");
    for (k, v) in extra {
        let _ = write!(s, ",\"{k}\":{v}");
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert!(matches!(parse_request("{\"cmd\":\"ping\"}"), Ok(Request::Ping)));
        assert!(matches!(parse_request("{\"cmd\":\"stats\"}"), Ok(Request::Stats)));
        assert!(matches!(
            parse_request("{\"cmd\":\"shutdown\"}"),
            Ok(Request::Shutdown)
        ));
        let status = parse_request("{\"cmd\":\"status\",\"id\":\"j1\"}").unwrap();
        match status {
            Request::Status { id } => assert_eq!(id, "j1"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_request("{\"cmd\":\"watch\"}"),
            Ok(Request::Watch { id: None })
        ));
        match parse_request("{\"cmd\":\"watch\",\"id\":\"j2\"}").unwrap() {
            Request::Watch { id } => assert_eq!(id.as_deref(), Some("j2")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_request("{\"cmd\":\"subscribe\"}"),
            Ok(Request::Subscribe { id: None })
        ));
        assert!(parse_request("{\"cmd\":\"watch\",\"id\":7}").is_err());
        let spec = JobSpec::example("sock-1");
        let line = format!("{{\"cmd\":\"submit\",\"job\":{}}}", spec.to_json());
        match parse_request(&line).unwrap() {
            Request::Submit(parsed) => assert_eq!(*parsed, spec),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_with_messages() {
        assert!(parse_request("").is_err());
        assert!(parse_request("{\"cmd\":\"nope\"}").is_err());
        assert!(parse_request("{\"cmd\":\"submit\"}").is_err());
        assert!(parse_request("{\"cmd\":\"submit\",\"job\":{\"id\":\"\"}}").is_err());
    }

    #[test]
    fn responses_are_parseable_json() {
        use fading_cr::sim::telemetry::jsonl::parse_json;
        let err = error_response("bad \"quoted\" thing\nline2");
        let v = parse_json(&err).unwrap();
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(JsonValue::as_str),
            Some("bad \"quoted\" thing\nline2")
        );
        let ok = ok_response(&[("id", "\"j1\"".to_string()), ("depth", "3".to_string())]);
        let v = parse_json(&ok).unwrap();
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("depth").and_then(JsonValue::as_f64), Some(3.0));
    }
}
