//! Lossless JSONL (one JSON object per line) export of [`RoundEvent`]s.
//!
//! The workspace's vendored `serde`/`serde_json` are offline no-op stubs,
//! so this module hand-rolls both directions:
//!
//! * The **writer** emits one flat JSON object per event. `f64`s are
//!   formatted with Rust's `{:?}` (shortest representation that
//!   round-trips), so `parse(write(x)) == x` bit-for-bit for finite
//!   values. Non-finite values use the bare tokens `inf`, `-inf`, `NaN`
//!   (not valid JSON, but unambiguous and round-trippable — the paper's
//!   SINR can legitimately be `inf` when the denominator is zero).
//! * The **reader** is a small recursive-descent parser covering the
//!   subset the writer produces (objects, arrays, numbers, strings,
//!   booleans, `null`, and the three non-finite tokens). Unknown object
//!   keys are ignored, so streams stay readable across schema additions;
//!   missing keys are an error.
//!
//! # Round-trip guarantee
//!
//! For every event `e`: `event_from_json(&event_to_json(&e)) == Ok(e)`,
//! covered by the `jsonl_round_trip` suite in `crates/sim/tests/telemetry.rs`.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use fading_channel::{FarFieldStats, NodeId, SinrBreakdown};

use crate::obs::{EngineCounters, ResolvePath};

use super::RoundEvent;

/// Errors from parsing or I/O while reading/writing JSONL streams.
#[derive(Debug)]
pub enum JsonlError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed JSON or schema mismatch; `line` is 1-based (0 = unknown).
    Parse {
        /// 1-based line number where parsing failed (0 if not tied to a line).
        line: usize,
        /// Human-readable description of the failure.
        msg: String,
    },
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonlError::Io(e) => write!(f, "jsonl i/o error: {e}"),
            JsonlError::Parse { line, msg } => write!(f, "jsonl parse error (line {line}): {msg}"),
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
    JsonlError::Parse {
        line: 0,
        msg: msg.into(),
    }
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

/// Formats an `f64` so it round-trips exactly: shortest `{:?}` form for
/// finite values, bare `inf` / `-inf` / `NaN` tokens otherwise.
fn fmt_f64(out: &mut String, v: f64) {
    use fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else if v.is_nan() {
        out.push_str("NaN");
    } else if v > 0.0 {
        out.push_str("inf");
    } else {
        out.push_str("-inf");
    }
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

/// Serializes one [`SinrBreakdown`] as a JSON object (no trailing newline).
#[must_use]
pub fn breakdown_to_json(b: &SinrBreakdown) -> String {
    let mut s = String::with_capacity(160);
    write_breakdown(&mut s, b);
    s
}

fn write_breakdown(out: &mut String, b: &SinrBreakdown) {
    use fmt::Write as _;
    let _ = write!(out, "{{\"listener\":{},\"best_tx\":", b.listener);
    match b.best_tx {
        Some(tx) => {
            let _ = write!(out, "{tx}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"signal\":");
    fmt_f64(out, b.signal);
    out.push_str(",\"interference\":");
    fmt_f64(out, b.interference);
    out.push_str(",\"noise\":");
    fmt_f64(out, b.noise);
    out.push_str(",\"extra\":");
    fmt_f64(out, b.extra);
    out.push_str(",\"margin\":");
    fmt_f64(out, b.margin);
    let _ = write!(out, ",\"decoded\":{}}}", b.decoded);
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
    s.push_str(",\"sinr\":[");
    for (i, b) in ev.sinr.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_breakdown(&mut s, b);
    }
    s.push_str("]}");
    s
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON value — the subset this module writes, plus everything
/// the `obs::export` parsers need (strings, nested arrays/objects).
///
/// Public so other hand-rolled formats in the workspace (Chrome trace
/// parse-back, the bench-gate baseline reader) can reuse one parser
/// instead of growing their own; see [`parse_json`].
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
                _ => return Err(parse_err(format!("expected ',' or ']' at byte {}", self.pos))),
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
                _ => return Err(parse_err(format!("expected ',' or '}}' at byte {}", self.pos))),
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

// --- typed field extraction ------------------------------------------------

fn obj_fields(v: &JsonValue) -> Result<&[(String, JsonValue)], JsonlError> {
    match v {
        JsonValue::Obj(fields) => Ok(fields),
        _ => Err(parse_err("expected a JSON object")),
    }
}

fn get<'v>(fields: &'v [(String, JsonValue)], key: &str) -> Result<&'v JsonValue, JsonlError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| parse_err(format!("missing key {key:?}")))
}

fn get_f64(fields: &[(String, JsonValue)], key: &str) -> Result<f64, JsonlError> {
    match get(fields, key)? {
        JsonValue::Num(n) => Ok(*n),
        _ => Err(parse_err(format!("key {key:?} is not a number"))),
    }
}

fn num_to_usize(n: f64, key: &str) -> Result<usize, JsonlError> {
    if n.fract() == 0.0 && (0.0..9.007_199_254_740_992e15).contains(&n) {
        Ok(n as usize)
    } else {
        Err(parse_err(format!("key {key:?} is not a valid integer: {n}")))
    }
}

fn get_usize(fields: &[(String, JsonValue)], key: &str) -> Result<usize, JsonlError> {
    num_to_usize(get_f64(fields, key)?, key)
}

fn get_u64(fields: &[(String, JsonValue)], key: &str) -> Result<u64, JsonlError> {
    Ok(get_usize(fields, key)? as u64)
}

fn get_bool(fields: &[(String, JsonValue)], key: &str) -> Result<bool, JsonlError> {
    match get(fields, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(parse_err(format!("key {key:?} is not a boolean"))),
    }
}

fn get_opt_id(fields: &[(String, JsonValue)], key: &str) -> Result<Option<NodeId>, JsonlError> {
    match get(fields, key)? {
        JsonValue::Null => Ok(None),
        JsonValue::Num(n) => num_to_usize(*n, key).map(Some),
        _ => Err(parse_err(format!("key {key:?} is not null or a number"))),
    }
}

fn get_ids(fields: &[(String, JsonValue)], key: &str) -> Result<Vec<NodeId>, JsonlError> {
    match get(fields, key)? {
        JsonValue::Arr(items) => items
            .iter()
            .map(|v| match v {
                JsonValue::Num(n) => num_to_usize(*n, key),
                _ => Err(parse_err(format!("key {key:?} holds a non-numeric id"))),
            })
            .collect(),
        _ => Err(parse_err(format!("key {key:?} is not an array"))),
    }
}

fn get_resolve_path(fields: &[(String, JsonValue)]) -> Result<ResolvePath, JsonlError> {
    match get(fields, "resolve_path")? {
        JsonValue::Str(s) => ResolvePath::from_name(s)
            .ok_or_else(|| parse_err(format!("unknown resolve_path {s:?}"))),
        _ => Err(parse_err("key \"resolve_path\" is not a string")),
    }
}

fn breakdown_from_value(v: &JsonValue) -> Result<SinrBreakdown, JsonlError> {
    let f = obj_fields(v)?;
    Ok(SinrBreakdown {
        listener: get_usize(f, "listener")?,
        best_tx: get_opt_id(f, "best_tx")?,
        signal: get_f64(f, "signal")?,
        interference: get_f64(f, "interference")?,
        noise: get_f64(f, "noise")?,
        extra: get_f64(f, "extra")?,
        margin: get_f64(f, "margin")?,
        decoded: get_bool(f, "decoded")?,
    })
}

/// Parses one [`SinrBreakdown`] from its JSON object form.
///
/// # Errors
///
/// Returns [`JsonlError::Parse`] on malformed JSON or missing keys.
pub fn breakdown_from_json(line: &str) -> Result<SinrBreakdown, JsonlError> {
    breakdown_from_value(&parse_json(line)?)
}

/// Parses one [`RoundEvent`] from a JSON line produced by
/// [`event_to_json`]. Unknown keys are ignored; missing keys are errors.
///
/// # Errors
///
/// Returns [`JsonlError::Parse`] on malformed JSON or schema mismatch.
pub fn event_from_json(line: &str) -> Result<RoundEvent, JsonlError> {
    let v = parse_json(line)?;
    let f = obj_fields(&v)?;
    let sinr = match get(f, "sinr")? {
        JsonValue::Arr(items) => items
            .iter()
            .map(breakdown_from_value)
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(parse_err("key \"sinr\" is not an array")),
    };
    Ok(RoundEvent {
        round: get_u64(f, "round")?,
        active_pre_churn: get_usize(f, "active_pre_churn")?,
        participants: get_usize(f, "participants")?,
        transmitters: get_usize(f, "transmitters")?,
        listeners: get_usize(f, "listeners")?,
        knocked_out: get_usize(f, "knocked_out")?,
        churn_applied: get_usize(f, "churn_applied")?,
        noise_scale: get_f64(f, "noise_scale")?,
        jam_power: get_f64(f, "jam_power")?,
        ge_in_burst: get_bool(f, "ge_in_burst")?,
        ge_dropped: get_usize(f, "ge_dropped")?,
        resolve_path: get_resolve_path(f)?,
        ff_fallbacks: get_usize(f, "ff_fallbacks")?,
        resolved: get_bool(f, "resolved")?,
        winner: get_opt_id(f, "winner")?,
        transmitter_ids: get_ids(f, "transmitter_ids")?,
        knocked_out_ids: get_ids(f, "knocked_out_ids")?,
        crashed_ids: get_ids(f, "crashed_ids")?,
        revived_ids: get_ids(f, "revived_ids")?,
        sinr,
    })
}

// ---------------------------------------------------------------------------
// EngineCounters
// ---------------------------------------------------------------------------

/// Serializes one [`EngineCounters`] snapshot as a single JSON line (no
/// trailing newline). Far-field ladder counters are flattened under `ff_*`
/// keys so the line stays greppable.
#[must_use]
pub fn counters_to_json(c: &EngineCounters) -> String {
    use fmt::Write as _;
    let f = &c.farfield;
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"rounds\":{},\"farfield_rounds\":{},\"hierarchical_rounds\":{},\
         \"gain_cache_rounds\":{},\"exact_rounds\":{},\
         \"instrumented_rounds\":{},\"gain_cache_built\":{},\"gain_cache_bypassed_rounds\":{},\
         \"perturbed_rounds\":{},\"jammed_rounds\":{},\"noise_scaled_rounds\":{},\
         \"ge_dropped\":{},\"churn_applied\":{},\"self_check_rounds\":{},\
         \"self_check_samples\":{},\"self_check_violations\":{},\"tier_demotions\":{},\
         \"ff_rounds\":{},\"ff_empty_round_silences\":{},\
         \"ff_nonfinite_fallbacks\":{},\"ff_noise_floor_silences\":{},\
         \"ff_no_near_winner_fallbacks\":{},\"ff_far_rival_fallbacks\":{},\
         \"ff_bracket_decisions\":{},\"ff_bracket_straddle_fallbacks\":{},\
         \"ff_canonical_rescans\":{}}}",
        c.rounds,
        c.farfield_rounds,
        c.hierarchical_rounds,
        c.gain_cache_rounds,
        c.exact_rounds,
        c.instrumented_rounds,
        c.gain_cache_built,
        c.gain_cache_bypassed_rounds,
        c.perturbed_rounds,
        c.jammed_rounds,
        c.noise_scaled_rounds,
        c.ge_dropped,
        c.churn_applied,
        c.self_check_rounds,
        c.self_check_samples,
        c.self_check_violations,
        c.tier_demotions,
        f.rounds,
        f.empty_round_silences,
        f.nonfinite_fallbacks,
        f.noise_floor_silences,
        f.no_near_winner_fallbacks,
        f.far_rival_fallbacks,
        f.bracket_decisions,
        f.bracket_straddle_fallbacks,
        f.canonical_rescans,
    );
    s
}

/// Parses one [`EngineCounters`] snapshot from a line produced by
/// [`counters_to_json`]. Unknown keys are ignored; missing keys are
/// errors.
///
/// # Errors
///
/// Returns [`JsonlError::Parse`] on malformed JSON or schema mismatch.
pub fn counters_from_json(line: &str) -> Result<EngineCounters, JsonlError> {
    let v = parse_json(line)?;
    let f = obj_fields(&v)?;
    Ok(EngineCounters {
        rounds: get_u64(f, "rounds")?,
        farfield_rounds: get_u64(f, "farfield_rounds")?,
        hierarchical_rounds: get_u64(f, "hierarchical_rounds")?,
        gain_cache_rounds: get_u64(f, "gain_cache_rounds")?,
        exact_rounds: get_u64(f, "exact_rounds")?,
        instrumented_rounds: get_u64(f, "instrumented_rounds")?,
        gain_cache_built: get_bool(f, "gain_cache_built")?,
        gain_cache_bypassed_rounds: get_u64(f, "gain_cache_bypassed_rounds")?,
        perturbed_rounds: get_u64(f, "perturbed_rounds")?,
        jammed_rounds: get_u64(f, "jammed_rounds")?,
        noise_scaled_rounds: get_u64(f, "noise_scaled_rounds")?,
        ge_dropped: get_u64(f, "ge_dropped")?,
        churn_applied: get_u64(f, "churn_applied")?,
        self_check_rounds: get_u64(f, "self_check_rounds")?,
        self_check_samples: get_u64(f, "self_check_samples")?,
        self_check_violations: get_u64(f, "self_check_violations")?,
        tier_demotions: get_u64(f, "tier_demotions")?,
        farfield: FarFieldStats {
            rounds: get_u64(f, "ff_rounds")?,
            empty_round_silences: get_u64(f, "ff_empty_round_silences")?,
            nonfinite_fallbacks: get_u64(f, "ff_nonfinite_fallbacks")?,
            noise_floor_silences: get_u64(f, "ff_noise_floor_silences")?,
            no_near_winner_fallbacks: get_u64(f, "ff_no_near_winner_fallbacks")?,
            far_rival_fallbacks: get_u64(f, "ff_far_rival_fallbacks")?,
            bracket_decisions: get_u64(f, "ff_bracket_decisions")?,
            bracket_straddle_fallbacks: get_u64(f, "ff_bracket_straddle_fallbacks")?,
            canonical_rescans: get_u64(f, "ff_canonical_rescans")?,
        },
    })
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

/// Reads a counters stream written by [`write_counters_to_path`]; blank
/// lines are skipped.
///
/// # Errors
///
/// Propagates open/read failures; parse errors carry 1-based line numbers.
pub fn read_counters_from_path<P: AsRef<Path>>(path: P) -> Result<Vec<EngineCounters>, JsonlError> {
    let r = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(counters_from_json(&line).map_err(|e| remap(e, i + 1))?);
    }
    Ok(out)
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

/// Reads an event stream written by [`write_events`]; blank lines are
/// skipped.
///
/// # Errors
///
/// Returns [`JsonlError::Io`] on read failures and [`JsonlError::Parse`]
/// (with a 1-based line number) on malformed lines.
pub fn read_events<R: BufRead>(r: R) -> Result<Vec<RoundEvent>, JsonlError> {
    let mut events = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        events.push(event_from_json(&line).map_err(|e| match e {
            JsonlError::Parse { msg, .. } => JsonlError::Parse { line: i + 1, msg },
            other => other,
        })?);
    }
    Ok(events)
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

/// Reads an event stream from the file at `path`.
///
/// # Errors
///
/// Propagates open/read failures and per-line parse errors.
pub fn read_events_from_path<P: AsRef<Path>>(path: P) -> Result<Vec<RoundEvent>, JsonlError> {
    read_events(BufReader::new(File::open(path)?))
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
/// followed by that trial's event lines. Meta lines are distinguished on
/// read by their `"trial"` key, which event lines never carry.
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

/// Reads a stream written by [`write_trial_blocks`].
///
/// # Errors
///
/// Returns [`JsonlError::Parse`] if the stream does not start with a meta
/// line, a block is truncated, or any line is malformed.
pub fn read_trial_blocks<R: BufRead>(r: R) -> Result<Vec<TrialBlock>, JsonlError> {
    let mut blocks: Vec<TrialBlock> = Vec::new();
    let mut expected: usize = 0;
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let at = |msg: String| JsonlError::Parse { line: i + 1, msg };
        let v = parse_json(&line).map_err(|e| match e {
            JsonlError::Parse { msg, .. } => at(msg),
            other => other,
        })?;
        let f = obj_fields(&v).map_err(|_| at("expected an object".into()))?;
        if f.iter().any(|(k, _)| k == "trial") {
            if expected > 0 {
                return Err(at(format!("previous block short by {expected} event lines")));
            }
            blocks.push(TrialBlock {
                trial: get_u64(f, "trial").map_err(|e| remap(e, i + 1))?,
                seed: get_u64(f, "seed").map_err(|e| remap(e, i + 1))?,
                events: Vec::new(),
            });
            expected = get_usize(f, "events").map_err(|e| remap(e, i + 1))?;
        } else {
            let block = blocks
                .last_mut()
                .ok_or_else(|| at("event line before any trial meta line".into()))?;
            if expected == 0 {
                return Err(at("more event lines than the meta line declared".into()));
            }
            block
                .events
                .push(event_from_json(&line).map_err(|e| remap(e, i + 1))?);
            expected -= 1;
        }
    }
    if expected > 0 {
        return Err(parse_err(format!(
            "final block short by {expected} event lines"
        )));
    }
    Ok(blocks)
}

fn remap(e: JsonlError, line: usize) -> JsonlError {
    match e {
        JsonlError::Parse { msg, .. } => JsonlError::Parse { line, msg },
        other => other,
    }
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

/// Reads trial blocks from the file at `path`.
///
/// # Errors
///
/// Propagates open/read failures and per-line parse errors.
pub fn read_trial_blocks_from_path<P: AsRef<Path>>(path: P) -> Result<Vec<TrialBlock>, JsonlError> {
    read_trial_blocks(BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

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
            resolve_path: ResolvePath::FarField,
            ff_fallbacks: 4,
            resolved: false,
            winner: None,
            transmitter_ids: vec![0, 5, 9],
            knocked_out_ids: vec![5, 9],
            crashed_ids: vec![11],
            revived_ids: vec![],
            sinr: vec![SinrBreakdown {
                listener: 1,
                best_tx: Some(0),
                signal: 16.0,
                interference: 2.0,
                noise: 1.0,
                extra: 0.0,
                margin: 10.0,
                decoded: true,
            }],
        }
    }

    #[test]
    fn event_round_trips_bit_exactly() {
        let ev = sample_event();
        let line = event_to_json(&ev);
        assert!(!line.contains('\n'));
        let back = event_from_json(&line).unwrap();
        assert_eq!(back, ev);
        assert_eq!(back.jam_power.to_bits(), ev.jam_power.to_bits());
    }

    #[test]
    fn non_finite_floats_round_trip() {
        let mut ev = sample_event();
        ev.noise_scale = f64::INFINITY;
        ev.jam_power = f64::NEG_INFINITY;
        let back = event_from_json(&event_to_json(&ev)).unwrap();
        assert_eq!(back.noise_scale, f64::INFINITY);
        assert_eq!(back.jam_power, f64::NEG_INFINITY);
    }

    #[test]
    fn winner_and_best_tx_null_round_trip() {
        let mut ev = sample_event();
        ev.winner = Some(7);
        ev.sinr[0].best_tx = None;
        let back = event_from_json(&event_to_json(&ev)).unwrap();
        assert_eq!(back.winner, Some(7));
        assert_eq!(back.sinr[0].best_tx, None);
    }

    #[test]
    fn unknown_keys_are_ignored_missing_keys_are_errors() {
        let ev = RoundEvent {
            noise_scale: 1.0,
            ..RoundEvent::default()
        };
        let line = event_to_json(&ev);
        let extended = format!("{}{}", &line[..line.len() - 1], ",\"future_field\":3}");
        assert_eq!(event_from_json(&extended).unwrap(), ev);
        let truncated = line.replace("\"resolved\":false,", "");
        let err = event_from_json(&truncated).unwrap_err();
        assert!(err.to_string().contains("resolved"), "{err}");
    }

    #[test]
    fn stream_round_trips_and_skips_blank_lines() {
        let events = vec![sample_event(), RoundEvent::default()];
        let mut buf = Vec::new();
        write_events(&mut buf, &events).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push('\n'); // trailing blank line
        let back = read_events(text.as_bytes()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let good = event_to_json(&RoundEvent::default());
        let text = format!("{good}\nnot json\n");
        match read_events(text.as_bytes()) {
            Err(JsonlError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected a line-2 parse error, got {other:?}"),
        }
    }

    #[test]
    fn trial_blocks_round_trip() {
        let blocks = vec![
            TrialBlock {
                trial: 0,
                seed: 100,
                events: vec![sample_event()],
            },
            TrialBlock {
                trial: 1,
                seed: 101,
                events: vec![],
            },
            TrialBlock {
                trial: 2,
                seed: 102,
                events: vec![RoundEvent::default(), sample_event()],
            },
        ];
        let mut buf = Vec::new();
        write_trial_blocks(&mut buf, &blocks).unwrap();
        let back = read_trial_blocks(buf.as_slice()).unwrap();
        assert_eq!(back, blocks);
    }

    #[test]
    fn truncated_trial_block_is_an_error() {
        let blocks = vec![TrialBlock {
            trial: 0,
            seed: 1,
            events: vec![sample_event(), sample_event()],
        }];
        let mut buf = Vec::new();
        write_trial_blocks(&mut buf, &blocks).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let cut = text.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(read_trial_blocks(cut.as_bytes()).is_err());
    }

    #[test]
    fn breakdown_json_is_standalone() {
        let b = SinrBreakdown {
            listener: 3,
            best_tx: None,
            signal: 0.0,
            interference: f64::INFINITY,
            noise: 1.0,
            extra: 2.5,
            margin: f64::NEG_INFINITY,
            decoded: false,
        };
        assert_eq!(breakdown_from_json(&breakdown_to_json(&b)).unwrap(), b);
    }

    fn sample_counters() -> EngineCounters {
        EngineCounters {
            rounds: 100,
            farfield_rounds: 45,
            hierarchical_rounds: 15,
            gain_cache_rounds: 30,
            exact_rounds: 8,
            instrumented_rounds: 2,
            gain_cache_built: true,
            gain_cache_bypassed_rounds: 5,
            perturbed_rounds: 12,
            jammed_rounds: 9,
            noise_scaled_rounds: 7,
            ge_dropped: 3,
            churn_applied: 2,
            self_check_rounds: 25,
            self_check_samples: 50,
            self_check_violations: 1,
            tier_demotions: 1,
            farfield: FarFieldStats {
                rounds: 60,
                empty_round_silences: 11,
                nonfinite_fallbacks: 1,
                noise_floor_silences: 200,
                no_near_winner_fallbacks: 13,
                far_rival_fallbacks: 17,
                bracket_decisions: 4000,
                bracket_straddle_fallbacks: 19,
                canonical_rescans: 7,
            },
        }
    }

    #[test]
    fn counters_round_trip_exactly() {
        let c = sample_counters();
        let line = counters_to_json(&c);
        assert!(!line.contains('\n'));
        assert_eq!(counters_from_json(&line).unwrap(), c);
        // Default (all-zero) counters round-trip too.
        let zero = EngineCounters::default();
        assert_eq!(counters_from_json(&counters_to_json(&zero)).unwrap(), zero);
    }

    #[test]
    fn counters_unknown_keys_ignored_missing_keys_error() {
        let line = counters_to_json(&sample_counters());
        let extended = format!("{}{}", &line[..line.len() - 1], ",\"future\":1}");
        assert_eq!(counters_from_json(&extended).unwrap(), sample_counters());
        let truncated = line.replace("\"ff_bracket_decisions\":4000,", "");
        let err = counters_from_json(&truncated).unwrap_err();
        assert!(err.to_string().contains("ff_bracket_decisions"), "{err}");
    }

    #[test]
    fn counters_file_round_trip_with_line_numbers() {
        let dir = std::env::temp_dir().join("fading-jsonl-counters-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine_counters.jsonl");
        let all = vec![sample_counters(), EngineCounters::default()];
        write_counters_to_path(&path, &all).unwrap();
        assert_eq!(read_counters_from_path(&path).unwrap(), all);
        std::fs::write(&path, "{}\n").unwrap();
        match read_counters_from_path(&path) {
            Err(JsonlError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected a line-1 parse error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_resolve_path_is_an_error() {
        let line = event_to_json(&sample_event()).replace("\"farfield\"", "\"warp\"");
        let err = event_from_json(&line).unwrap_err();
        assert!(err.to_string().contains("resolve_path"), "{err}");
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
            assert_eq!(parse_json(&literal).unwrap(), JsonValue::Str(s.clone()), "{literal}");
        }
    }
}
