//! Fuzz coverage for the control-socket request parser: whatever bytes a
//! client throws at [`parse_request`], the server must answer with a
//! clean [`error_response`] — never panic, never hang. Strategies cover
//! raw garbage, truncated valid requests, escape-heavy strings, and
//! pathological nesting (which the JSONL parser's depth guard turns into
//! an error instead of a stack overflow).

use fading_cr::jobspec::JobSpec;
use fading_cr::sim::telemetry::jsonl::{parse_json, JsonValue};
use fading_server::protocol::{error_response, parse_request};
use proptest::prelude::*;

/// The contract under test: parsing either succeeds or yields an error
/// message that survives the trip back to the client as valid JSON.
fn assert_parse_is_total(line: &str) {
    if let Err(msg) = parse_request(line) {
        assert!(!msg.is_empty(), "error for {line:?} must carry a message");
        let rendered = error_response(&msg);
        let v = parse_json(&rendered)
            .unwrap_or_else(|e| panic!("error_response must be JSON ({e}): {rendered}"));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(JsonValue::as_str),
            Some(msg.as_str())
        );
    }
}

/// Valid request lines the mutating strategies start from.
fn valid_lines() -> Vec<String> {
    vec![
        "{\"cmd\":\"ping\"}".to_string(),
        "{\"cmd\":\"stats\"}".to_string(),
        "{\"cmd\":\"shutdown\"}".to_string(),
        "{\"cmd\":\"status\",\"id\":\"job-17\"}".to_string(),
        "{\"cmd\":\"watch\"}".to_string(),
        "{\"cmd\":\"watch\",\"id\":\"job-17\"}".to_string(),
        "{\"cmd\":\"subscribe\"}".to_string(),
        format!(
            "{{\"cmd\":\"submit\",\"job\":{}}}",
            JobSpec::example("fuzz-base").to_json()
        ),
    ]
}

/// Bytes → lossy UTF-8: arbitrary garbage including interior NULs,
/// truncated multi-byte sequences (replaced), and control characters.
fn garbage_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..=255, 0..96)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// A valid line cut off at an arbitrary byte offset (clamped to a char
/// boundary): simulates a client dying mid-write.
fn truncated_strategy() -> impl Strategy<Value = String> {
    (0usize..valid_lines().len(), 0usize..200).prop_map(|(which, cut)| {
        let line = valid_lines().swap_remove(which);
        let mut cut = cut.min(line.len());
        while cut > 0 && !line.is_char_boundary(cut) {
            cut -= 1;
        }
        line[..cut].to_string()
    })
}

/// Escape-heavy id payloads: backslash runs, quote storms, half-finished
/// `\u` sequences, embedded newlines-as-escapes.
fn escape_heavy_strategy() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        Just("\\\\".to_string()),
        Just("\\\"".to_string()),
        Just("\\u00".to_string()),
        Just("\\u0022".to_string()),
        Just("\\n\\r\\t".to_string()),
        Just("\\".to_string()),
        Just("\"".to_string()),
        Just("}".to_string()),
        Just("{".to_string()),
        Just("a".to_string()),
    ];
    prop::collection::vec(fragment, 0..24)
        .prop_map(|frags| format!("{{\"cmd\":\"status\",\"id\":\"{}\"}}", frags.concat()))
}

/// Deep nesting in arbitrary positions: the depth guard must reject
/// these cleanly instead of blowing the stack.
fn nesting_strategy() -> impl Strategy<Value = String> {
    (1usize..4000, 0usize..2).prop_map(|(depth, kind)| match kind {
        0 => "[".repeat(depth),
        _ => "{\"a\":".repeat(depth),
    })
}

/// A valid line with one byte overwritten: near-miss corruption.
fn bitflip_strategy() -> impl Strategy<Value = String> {
    (0usize..valid_lines().len(), 0usize..200, 0u8..=127).prop_map(|(which, pos, byte)| {
        let line = valid_lines().swap_remove(which);
        let mut bytes = line.into_bytes();
        if !bytes.is_empty() {
            let pos = pos % bytes.len();
            bytes[pos] = byte;
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn garbage_never_panics(line in garbage_strategy()) {
        assert_parse_is_total(&line);
    }

    #[test]
    fn truncated_requests_never_panic(line in truncated_strategy()) {
        assert_parse_is_total(&line);
    }

    #[test]
    fn escape_heavy_requests_never_panic(line in escape_heavy_strategy()) {
        assert_parse_is_total(&line);
    }

    #[test]
    fn deep_nesting_is_rejected_not_fatal(line in nesting_strategy()) {
        // Must be an error (it is not a complete request), and must not
        // overflow the stack getting there.
        prop_assert!(parse_request(&line).is_err());
        assert_parse_is_total(&line);
    }

    #[test]
    fn single_byte_corruption_never_panics(line in bitflip_strategy()) {
        assert_parse_is_total(&line);
    }
}

#[test]
fn pathological_nesting_errors_cleanly_at_scale() {
    // Far beyond any stack's recursion budget; the depth guard must cut
    // this off with a parse error.
    for line in [
        "[".repeat(200_000),
        "{\"a\":".repeat(100_000),
        format!(
            "{{\"cmd\":{}\"ping\"{}}}",
            "[".repeat(50_000),
            "]".repeat(50_000)
        ),
    ] {
        assert!(parse_request(&line).is_err());
        assert_parse_is_total(&line);
    }
}

/// A submit asking for more nodes or trials than a job may hold is refused
/// with an error that names the field, before anything is allocated.
#[test]
fn oversized_jobs_are_refused_at_submit() {
    for (field, value) in [("n", "1e15"), ("trials", "1e15"), ("n", "1048577")] {
        let job = JobSpec::example("huge").to_json();
        let key = format!("\"{field}\":");
        let start = job.find(&key).expect("the example has the field") + key.len();
        let end = start + job[start..].find([',', '}']).expect("a value");
        let job = format!("{}{value}{}", &job[..start], &job[end..]);
        let line = format!("{{\"cmd\":\"submit\",\"job\":{job}}}");
        match parse_request(&line) {
            Err(msg) => assert!(msg.contains(&format!("{field} must be at most")), "{msg}"),
            Ok(_) => panic!("{field} = {value} must be refused"),
        }
        assert_parse_is_total(&line);
    }
}

#[test]
fn valid_lines_still_parse() {
    // The fuzz harness's seed corpus must itself be accepted — guards
    // against the strategies silently drifting from the protocol.
    for line in valid_lines() {
        assert!(parse_request(&line).is_ok(), "{line}");
    }
}
