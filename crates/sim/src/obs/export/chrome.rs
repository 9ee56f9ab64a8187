//! Chrome trace-event JSON ("JSON array format"): one complete event
//! (`"ph":"X"`) per span, loadable in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev).
//!
//! The viewer wants microsecond floats (`ts`/`dur`), which cannot carry a
//! `u64` of nanoseconds exactly — so every event also stashes the exact
//! integers (`start_ns`, `end_ns`, `id`, `parent`, `depth`) in `args`.
//! The output is pinned by a golden-bytes test.

use std::fmt::Write as _;

use crate::obs::SpanRecord;
use crate::telemetry::jsonl::json_escape;

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

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
    fn chrome_trace_golden_bytes() {
        let spans = vec![
            span(0, None, "step", 0, 0, 1500, 1_000_000_007),
            span(1, Some(0), "resolve \"fast\"\n", 0, 1, 3, 999),
            span(2, None, "worker", 5, 0, (1 << 53) - 2, (1 << 53) - 1),
        ];
        let golden = "[
{\"name\":\"step\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.500,\"dur\":999998.507,\"args\":{\"id\":0,\"parent\":null,\"depth\":0,\"start_ns\":1500,\"end_ns\":1000000007}},
{\"name\":\"resolve \\\"fast\\\"\\n\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.003,\"dur\":0.996,\"args\":{\"id\":1,\"parent\":0,\"depth\":1,\"start_ns\":3,\"end_ns\":999}},
{\"name\":\"worker\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":1,\"tid\":5,\"ts\":9007199254740.990,\"dur\":0.001,\"args\":{\"id\":2,\"parent\":null,\"depth\":0,\"start_ns\":9007199254740990,\"end_ns\":9007199254740991}}
]
";
        assert_eq!(spans_to_chrome_trace(&spans), golden);
        assert_eq!(spans_to_chrome_trace(&[]), "[\n\n]\n");
    }
}
