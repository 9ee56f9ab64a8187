//! Chrome trace-event JSON ("JSON array format"): one complete event
//! (`"ph":"X"`) per span, loadable in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev).
//!
//! The viewer wants microsecond floats (`ts`/`dur`), which cannot carry a
//! `u64` of nanoseconds exactly — so every event also stashes the exact
//! integers (`start_ns`, `end_ns`, `id`, `parent`, `depth`) in `args`,
//! and [`spans_from_chrome_trace`] reads those back for a bit-exact
//! round trip (tested in `crates/sim/tests/obs.rs`).

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::obs::SpanRecord;
use crate::telemetry::jsonl::{json_escape, parse_json, JsonValue};

use super::ExportError;

/// Writes `ns` nanoseconds as an exact decimal microsecond literal
/// (`12345` ns → `12.345`): at most three fractional digits, so the text
/// is exact even where an `f64` would round.
fn fmt_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}", ns / 1000);
    let frac = ns % 1000;
    if frac != 0 {
        let _ = write!(out, ".{frac:03}");
    }
}

/// Renders spans as a Chrome trace-event JSON array. Load the output in
/// `chrome://tracing` or Perfetto; each span becomes a complete (`X`)
/// event on its thread's track, nested by time.
#[must_use]
pub fn spans_to_chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"name\":\"");
        out.push_str(&json_escape(&s.name));
        let _ = write!(
            out,
            "\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":",
            s.thread
        );
        fmt_us(&mut out, s.start_ns);
        out.push_str(",\"dur\":");
        fmt_us(&mut out, s.duration_ns());
        let _ = write!(
            out,
            ",\"args\":{{\"id\":{},\"parent\":{},\"depth\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
            s.id,
            s.parent
                .map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.depth,
            s.start_ns,
            s.end_ns,
        );
    }
    out.push_str("\n]\n");
    out
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, ExportError> {
    let n = v
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| ExportError::at(0, format!("missing numeric key {key:?}")))?;
    if n.fract() == 0.0 && (0.0..9.007_199_254_740_992e15).contains(&n) {
        Ok(n as u64)
    } else {
        Err(ExportError::at(0, format!("key {key:?} is not a u64: {n}")))
    }
}

/// Parses a trace written by [`spans_to_chrome_trace`] back into spans,
/// reading the exact integers from `args` (ignoring the lossy `ts`/`dur`
/// floats). Events other than `"ph":"X"` are skipped.
///
/// # Errors
///
/// Returns [`ExportError::Parse`] on malformed JSON or a complete event
/// missing its `args` integers.
pub fn spans_from_chrome_trace(text: &str) -> Result<Vec<SpanRecord>, ExportError> {
    let doc = parse_json(text).map_err(|e| ExportError::at(0, e.to_string()))?;
    let events = doc
        .as_array()
        .ok_or_else(|| ExportError::at(0, "trace document is not a JSON array"))?;
    let mut spans = Vec::with_capacity(events.len());
    for ev in events {
        if ev.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ExportError::at(0, "event without a name"))?
            .to_string();
        let args = ev
            .get("args")
            .ok_or_else(|| ExportError::at(0, "event without args"))?;
        let parent = match args.get("parent") {
            Some(JsonValue::Null) | None => None,
            Some(v) => Some(
                v.as_f64()
                    .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                    .map(|n| n as u64)
                    .ok_or_else(|| ExportError::at(0, "bad parent id"))?,
            ),
        };
        spans.push(SpanRecord {
            id: field_u64(args, "id")?,
            parent,
            name: Cow::Owned(name),
            thread: field_u64(ev, "tid")?,
            depth: u32::try_from(field_u64(args, "depth")?)
                .map_err(|_| ExportError::at(0, "depth exceeds u32"))?,
            start_ns: field_u64(args, "start_ns")?,
            end_ns: field_u64(args, "end_ns")?,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        t: u64,
        d: u32,
        s: u64,
        e: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: Cow::Borrowed(name),
            thread: t,
            depth: d,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn golden_trace_shape() {
        let spans = vec![span(0, None, "step", 0, 0, 1500, 9999)];
        let text = spans_to_chrome_trace(&spans);
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ts\":1.5"), "{text}");
        assert!(text.contains("\"dur\":8.499"), "{text}");
        assert!(text.contains("\"tid\":0"));
        assert!(text.contains("\"parent\":null"));
    }

    #[test]
    fn round_trip_is_exact_including_odd_names() {
        let spans = vec![
            span(0, None, "step", 0, 0, 0, 1_000_000_007),
            span(1, Some(0), "resolve \"fast\"\n", 0, 1, 3, 999),
            // Near the parser's 2^53 exact-integer ceiling (≈104 days of
            // nanoseconds — far beyond any real trace).
            span(2, None, "worker", 5, 0, (1 << 53) - 2, (1 << 53) - 1),
        ];
        let back = spans_from_chrome_trace(&spans_to_chrome_trace(&spans)).unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn empty_trace_round_trips() {
        let back = spans_from_chrome_trace(&spans_to_chrome_trace(&[])).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn non_array_document_is_an_error() {
        assert!(spans_from_chrome_trace("{\"oops\":1}").is_err());
        assert!(spans_from_chrome_trace("not json").is_err());
    }
}
