//! JSONL (one JSON object per line) export of [`RoundEvent`]s and
//! [`EngineCounters`], and the workspace's one JSON parser.
//!
//! The workspace's vendored `serde`/`serde_json` are offline no-op stubs,
//! so this module hand-rolls both:
//!
//! * The **writers** emit one flat JSON object per event, trial meta line
//!   or counters snapshot. `f64`s go through [`fmt_f64`]: the shortest
//!   form that parses back to the same bits, and the bare tokens `inf`,
//!   `-inf`, `NaN` for non-finite values (not valid JSON, but unambiguous
//!   — the paper's SINR can legitimately be `inf` when the denominator is
//!   zero).
//! * [`parse_json`] is a small recursive-descent parser covering that
//!   dialect (objects, arrays, numbers, strings, booleans, `null`, and the
//!   three non-finite tokens). The job server's socket requests, job
//!   specs, progress events, time-series frames and the bench baselines
//!   are read through it.
//!
//! # Golden bytes
//!
//! This module's unit tests pin the writers' exact bytes: one ids-detail
//! event line, one two-block trial stream and one counters line. That the
//! streams themselves do not depend on engine tier or thread count is the
//! differential oracle's (`tests/differential.rs` at the repository root).

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use fading_channel::NodeId;

use crate::obs::{EngineCounters, COUNTERS};

use super::RoundEvent;

/// Errors from parsing or I/O while reading/writing JSONL streams.
#[derive(Debug)]
pub enum JsonlError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed JSON or schema mismatch.
    Parse {
        /// Human-readable description of the failure.
        msg: String,
    },
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonlError::Io(e) => write!(f, "jsonl i/o error: {e}"),
            JsonlError::Parse { msg } => write!(f, "jsonl parse error: {msg}"),
        }
    }
}

impl std::error::Error for JsonlError {}

impl From<io::Error> for JsonlError {
    fn from(e: io::Error) -> Self {
        JsonlError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> JsonlError {
    JsonlError::Parse { msg: msg.into() }
}

/// Escapes `s` for embedding in a JSON string literal: quotes,
/// backslashes, and every control character below 0x20 (`\n`, `\r`,
/// `\t` by name, the rest as `\u00XX`). Everything else, non-ASCII text
/// included, passes through; [`parse_json`] reads the result back to `s`.
#[must_use]
pub fn json_escape(s: &str) -> String {
    use fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Appends the workspace's wire form of an `f64`: Rust's `{:?}`, the
/// shortest decimal that [`parse_json`] reads back to the same bits. It
/// keeps a `.0` on integral values below 1e16 (`3.0`, not `3`), switches
/// to exponent form from there (`1e16`, `5e-324`), and spells non-finite
/// values as the bare tokens `inf`, `-inf` and `NaN`. Every writer in the
/// workspace that emits a float into JSON goes through here.
pub fn fmt_f64(out: &mut String, v: f64) {
    use fmt::Write as _;
    let _ = write!(out, "{v:?}");
}

fn fmt_ids(out: &mut String, ids: &[NodeId]) {
    use fmt::Write as _;
    out.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push(']');
}

/// Serializes one [`RoundEvent`] as a single JSON line (no trailing newline).
#[must_use]
pub fn event_to_json(ev: &RoundEvent) -> String {
    use fmt::Write as _;
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"round\":{},\"active_pre_churn\":{},\"participants\":{},\"transmitters\":{},\
         \"listeners\":{},\"knocked_out\":{},\"churn_applied\":{}",
        ev.round,
        ev.active_pre_churn,
        ev.participants,
        ev.transmitters,
        ev.listeners,
        ev.knocked_out,
        ev.churn_applied,
    );
    s.push_str(",\"noise_scale\":");
    fmt_f64(&mut s, ev.noise_scale);
    s.push_str(",\"jam_power\":");
    fmt_f64(&mut s, ev.jam_power);
    let _ = write!(
        s,
        ",\"ge_in_burst\":{},\"ge_dropped\":{},\"resolve_path\":\"{}\",\"ff_fallbacks\":{},\
         \"resolved\":{},\"winner\":",
        ev.ge_in_burst,
        ev.ge_dropped,
        ev.resolve_path.name(),
        ev.ff_fallbacks,
        ev.resolved,
    );
    match ev.winner {
        Some(w) => {
            let _ = write!(s, "{w}");
        }
        None => s.push_str("null"),
    }
    s.push_str(",\"transmitter_ids\":");
    fmt_ids(&mut s, &ev.transmitter_ids);
    s.push_str(",\"knocked_out_ids\":");
    fmt_ids(&mut s, &ev.knocked_out_ids);
    s.push_str(",\"crashed_ids\":");
    fmt_ids(&mut s, &ev.crashed_ids);
    s.push_str(",\"revived_ids\":");
    fmt_ids(&mut s, &ev.revived_ids);
    s.push('}');
    s
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON value: standard JSON plus the non-finite number tokens.
///
/// Public so every reader in the workspace (socket requests, job specs,
/// progress events, time-series frames, the bench baselines) shares one
/// parser instead of growing its own; see [`parse_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// JSON `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, plus the non-finite tokens `inf` / `-inf` / `NaN`.
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as key/value pairs in source order (keys may repeat;
    /// lookups take the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if this is a finite, non-negative
    /// whole number below 2⁵³: the range where every integer is an `f64`,
    /// so the value is the one the text spelled. At 2⁵³ and above, a
    /// number may already have been rounded to its neighbor by the parser.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53
        match *self {
            JsonValue::Num(n) if (0.0..EXACT_LIMIT).contains(&n) && n.fract() == 0.0 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The first value under `key`, if this is an object holding it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Maximum container nesting the parser accepts. The writers in this
/// workspace emit at most ~4 levels; the guard exists so adversarial
/// input (`[[[[…`) is a clean `Parse` error instead of a stack overflow
/// in the recursive descent (the control socket feeds untrusted bytes
/// straight into [`parse_json`]).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn enter(&mut self) -> Result<(), JsonlError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(parse_err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonlError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(parse_err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonlError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b'N') if self.eat_literal("NaN") => Ok(JsonValue::Num(f64::NAN)),
            Some(b'i') if self.eat_literal("inf") => Ok(JsonValue::Num(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-inf") => {
                self.pos += 4;
                Ok(JsonValue::Num(f64::NEG_INFINITY))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(parse_err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| parse_err("non-utf8 number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| parse_err(format!("bad number {text:?} at byte {start}")))
    }

    fn parse_string(&mut self) -> Result<String, JsonlError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(parse_err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| parse_err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| parse_err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| parse_err("bad \\u hex"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| parse_err("bad \\u hex"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| parse_err("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(parse_err(format!("unknown escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte sequences intact).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| parse_err("non-utf8 string content"))?;
                    let ch = rest.chars().next().ok_or_else(|| parse_err("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonlError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => {
                    return Err(parse_err(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonlError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => {
                    return Err(parse_err(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

/// Parses one complete JSON document (trailing garbage is an error).
///
/// Accepts the workspace dialect: standard JSON plus the bare non-finite
/// tokens `inf` / `-inf` / `NaN` that this module's writers emit.
///
/// # Errors
///
/// Returns [`JsonlError::Parse`] (with byte offsets in the message) on
/// malformed input.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonlError> {
    let mut p = Parser::new(input);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(parse_err(format!("trailing garbage at byte {}", p.pos)));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// EngineCounters
// ---------------------------------------------------------------------------

/// Serializes one [`EngineCounters`] snapshot as a single JSON line (no
/// trailing newline), one key per counter-table row. Far-field ladder
/// counters are flattened under `ff_*` keys so the line stays greppable.
#[must_use]
pub fn counters_to_json(c: &EngineCounters) -> String {
    use fmt::Write as _;
    let mut s = String::with_capacity(COUNTERS.len() * 32);
    for (i, row) in COUNTERS.iter().enumerate() {
        s.push(if i == 0 { '{' } else { ',' });
        let v = row.get(c);
        if row.is_flag() {
            let _ = write!(s, "\"{}\":{}", row.key, v != 0);
        } else {
            let _ = write!(s, "\"{}\":{v}", row.key);
        }
    }
    s.push('}');
    s
}

/// Writes counters snapshots (one per line, e.g. one per trial) to a file
/// at `path` (created/truncated).
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_counters_to_path<P: AsRef<Path>>(
    path: P,
    counters: &[EngineCounters],
) -> Result<(), JsonlError> {
    let mut w = BufWriter::new(File::create(path)?);
    for c in counters {
        w.write_all(counters_to_json(c).as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------------

/// Writes events to `w`, one JSON object per line.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_events<W: Write>(w: &mut W, events: &[RoundEvent]) -> Result<(), JsonlError> {
    for ev in events {
        w.write_all(event_to_json(ev).as_bytes())?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Writes events to a file at `path` (created/truncated).
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_events_to_path<P: AsRef<Path>>(
    path: P,
    events: &[RoundEvent],
) -> Result<(), JsonlError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_events(&mut w, events)?;
    w.flush()?;
    Ok(())
}

/// One Monte-Carlo trial's event stream, tagged with its trial index and
/// seed so multi-trial exports stay self-describing.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialBlock {
    /// 0-based trial index (matches `montecarlo::run_trials` ordering).
    pub trial: u64,
    /// The per-trial RNG seed.
    pub seed: u64,
    /// The trial's round events, in round order.
    pub events: Vec<RoundEvent>,
}

/// Writes trial blocks as a meta line (`{"trial":…,"seed":…,"events":…}`)
/// followed by that trial's event lines. Meta lines are told apart from
/// event lines by their `"trial"` key, which event lines never carry.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_trial_blocks<W: Write>(w: &mut W, blocks: &[TrialBlock]) -> Result<(), JsonlError> {
    for b in blocks {
        writeln!(
            w,
            "{{\"trial\":{},\"seed\":{},\"events\":{}}}",
            b.trial,
            b.seed,
            b.events.len()
        )?;
        write_events(w, &b.events)?;
    }
    Ok(())
}

/// Writes trial blocks to a file at `path` (created/truncated).
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_trial_blocks_to_path<P: AsRef<Path>>(
    path: P,
    blocks: &[TrialBlock],
) -> Result<(), JsonlError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_trial_blocks(&mut w, blocks)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ResolvePath;

    #[test]
    fn fmt_f64_golden_bytes() {
        let cases: [(f64, &str); 10] = [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (3.0, "3.0"),
            (1e15, "1000000000000000.0"),
            (1e16, "1e16"),
            (0.1, "0.1"),
            (5e-324, "5e-324"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (f64::NAN, "NaN"),
        ];
        for (v, golden) in cases {
            let mut s = String::new();
            fmt_f64(&mut s, v);
            assert_eq!(s, golden, "{v:e}");
        }
    }

    /// An ids-detail event: a non-round float, a null `winner`, empty and
    /// non-empty id lists.
    fn sample_event() -> RoundEvent {
        RoundEvent {
            round: 42,
            active_pre_churn: 17,
            participants: 16,
            transmitters: 3,
            listeners: 13,
            knocked_out: 2,
            churn_applied: 1,
            noise_scale: 1.5,
            jam_power: 0.1 + 0.2, // deliberately non-round: 0.30000000000000004
            ge_in_burst: true,
            ge_dropped: 1,
            resolve_path: ResolvePath::Hierarchical,
            ff_fallbacks: 4,
            resolved: false,
            winner: None,
            transmitter_ids: vec![0, 5, 9],
            knocked_out_ids: vec![5, 9],
            crashed_ids: vec![11],
            revived_ids: vec![],
        }
    }

    const SAMPLE_EVENT_LINE: &str = "{\"round\":42,\"active_pre_churn\":17,\"participants\":16,\
         \"transmitters\":3,\"listeners\":13,\"knocked_out\":2,\"churn_applied\":1,\
         \"noise_scale\":1.5,\"jam_power\":0.30000000000000004,\"ge_in_burst\":true,\
         \"ge_dropped\":1,\"resolve_path\":\"hierarchical\",\"ff_fallbacks\":4,\
         \"resolved\":false,\"winner\":null,\"transmitter_ids\":[0,5,9],\
         \"knocked_out_ids\":[5,9],\"crashed_ids\":[11],\"revived_ids\":[]}";

    #[test]
    fn event_line_golden_bytes() {
        assert_eq!(event_to_json(&sample_event()), SAMPLE_EVENT_LINE);
    }

    #[test]
    fn trial_blocks_golden_bytes() {
        let resolved = RoundEvent {
            round: 43,
            noise_scale: 1.0,
            resolved: true,
            winner: Some(7),
            ..RoundEvent::default()
        };
        let blocks = [
            TrialBlock {
                trial: 0,
                seed: 100,
                events: vec![sample_event(), resolved],
            },
            TrialBlock {
                trial: 1,
                seed: 101,
                events: vec![],
            },
        ];
        let mut buf = Vec::new();
        write_trial_blocks(&mut buf, &blocks).unwrap();
        let golden = format!(
            "{{\"trial\":0,\"seed\":100,\"events\":2}}\n{SAMPLE_EVENT_LINE}\n\
             {{\"round\":43,\"active_pre_churn\":0,\"participants\":0,\"transmitters\":0,\
             \"listeners\":0,\"knocked_out\":0,\"churn_applied\":0,\"noise_scale\":1.0,\
             \"jam_power\":0.0,\"ge_in_burst\":false,\"ge_dropped\":0,\
             \"resolve_path\":\"exact\",\"ff_fallbacks\":0,\"resolved\":true,\"winner\":7,\
             \"transmitter_ids\":[],\"knocked_out_ids\":[],\"crashed_ids\":[],\
             \"revived_ids\":[]}}\n\
             {{\"trial\":1,\"seed\":101,\"events\":0}}\n"
        );
        assert_eq!(String::from_utf8(buf).unwrap(), golden);
    }

    #[test]
    fn counters_file_is_one_line_per_snapshot() {
        let path = std::env::temp_dir().join(format!(
            "fading-jsonl-counters-{}.jsonl",
            std::process::id()
        ));
        let all = [EngineCounters::distinct(), EngineCounters::default()];
        write_counters_to_path(&path, &all).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let golden = format!(
            "{}\n{}\n",
            counters_to_json(&all[0]),
            counters_to_json(&all[1])
        );
        assert_eq!(text, golden);
    }

    #[test]
    fn counters_line_golden_bytes() {
        let line = counters_to_json(&EngineCounters::distinct());
        let golden = "{\"rounds\":101,\"farfield_rounds\":102,\"hierarchical_rounds\":103,\
             \"gain_cache_rounds\":104,\"exact_rounds\":105,\"gain_cache_built\":true,\
             \"perturbed_rounds\":107,\"jammed_rounds\":108,\
             \"noise_scaled_rounds\":109,\"ge_dropped\":110,\"churn_applied\":111,\
             \"self_check_rounds\":112,\"self_check_samples\":113,\
             \"self_check_violations\":114,\"tier_demotions\":115,\
             \"ff_rounds\":201,\"ff_empty_round_silences\":202,\
             \"ff_nonfinite_fallbacks\":203,\"ff_noise_floor_silences\":204,\
             \"ff_no_near_winner_fallbacks\":205,\"ff_far_rival_fallbacks\":206,\
             \"ff_bracket_decisions\":207,\"ff_bracket_straddle_fallbacks\":208,\
             \"ff_canonical_rescans\":209,\"ff_refined_decisions\":210}";
        assert_eq!(line, golden);
    }

    #[test]
    fn parser_handles_strings_and_escapes() {
        let v = parse_json(r#"{"k":"a\"b\\c\ndA"}"#).unwrap();
        match v {
            JsonValue::Obj(f) => {
                assert_eq!(f[0].1, JsonValue::Str("a\"b\\c\ndA".to_string()));
            }
            other => panic!("expected object, got {other:?}"),
        }
        // Escape then parse returns the original string: quotes,
        // backslashes, every control character below 0x20, non-ASCII.
        let controls: String = (0u8..0x20).map(char::from).collect();
        for s in [
            String::new(),
            "say \"hi\"".to_string(),
            r"C:\dir\file \\ end\".to_string(),
            controls,
            "naïve Ωmega — 混合 🛰".to_string(),
            "\"\\\u{1}\u{1f}\u{7f}é\n".to_string(),
        ] {
            let literal = format!("\"{}\"", json_escape(&s));
            assert_eq!(
                parse_json(&literal).unwrap(),
                JsonValue::Str(s.clone()),
                "{literal}"
            );
        }
    }

    #[test]
    fn as_u64_reads_only_exact_whole_numbers() {
        let read = |text: &str| parse_json(text).unwrap().as_u64();
        assert_eq!(read("0"), Some(0));
        assert_eq!(read("-0.0"), Some(0));
        assert_eq!(read("42"), Some(42));
        assert_eq!(read("1e3"), Some(1000));
        assert_eq!(read("9007199254740991"), Some((1 << 53) - 1));
        // 2^53 + 1 parses to 2^53: both are past the exact range.
        for text in [
            "9007199254740992",
            "9007199254740993",
            "1e300",
            "-1",
            "0.5",
            "inf",
            "NaN",
            "\"7\"",
            "true",
        ] {
            assert_eq!(read(text), None, "{text}");
        }
    }

    #[test]
    fn parse_errors_print_their_message_alone() {
        let err = parse_json("{\"k\":1} x").unwrap_err();
        assert_eq!(
            err.to_string(),
            "jsonl parse error: trailing garbage at byte 8"
        );
    }
}
