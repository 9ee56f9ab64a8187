//! Prometheus text exposition format (version 0.0.4): `# HELP` / `# TYPE`
//! comments, `name{label="value"} number` samples, histograms as
//! cumulative `_bucket{le="…"}` series plus `_sum` / `_count`.
//!
//! The writer emits the subset Prometheus scrapes, and its output is
//! pinned by golden-bytes tests. The parser reads that subset back into
//! [`PromSample`]s, so a test (or a client) can look samples up by name
//! and label.

use std::fmt::Write as _;

use crate::obs::{EngineCounters, COUNTERS};
use crate::telemetry::{Histogram, MetricsRegistry, PHASE_SPANS};

use super::ExportError;

/// One parsed sample line: metric name, labels in source order, value.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (e.g. `fading_resolve_rounds_total`).
    pub name: String,
    /// Label pairs, in the order written.
    pub labels: Vec<(String, String)>,
    /// Sample value. `+Inf`/`-Inf`/`NaN` parse to the matching `f64`.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn fmt_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v:?}");
    }
}

fn sample_line(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{v}\"");
        }
        out.push('}');
    }
    out.push(' ');
    fmt_value(out, value);
    out.push('\n');
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders one [`EngineCounters`] snapshot as a Prometheus scrape body,
/// one sample per counter-table row. Route counters become one
/// `fading_resolve_rounds_total` series labeled by `engine`; ladder
/// counters one `fading_farfield_decisions_total` series labeled by
/// `rung`; the `gain_cache_built` flag is a 0/1 gauge.
#[must_use]
pub fn counters_to_prometheus(c: &EngineCounters) -> String {
    let mut out = String::with_capacity(4096);
    let mut family = "";
    for row in &COUNTERS {
        if row.family != family {
            family = row.family;
            let kind = if row.is_flag() { "gauge" } else { "counter" };
            header(&mut out, family, kind, row.help);
        }
        sample_line(&mut out, family, row.label.as_slice(), row.get(c) as f64);
    }
    out
}

/// Renders one [`Histogram`] in Prometheus histogram convention:
/// cumulative `_bucket{le="…"}` lines (bucket `k`'s upper edge is `2^k`;
/// the overflow bucket is `+Inf`), then `_sum` and `_count`, plus
/// non-standard `_min` / `_max` gauges so the scrape carries the exact
/// extrema.
#[must_use]
pub fn histogram_to_prometheus(name: &str, help: &str, h: &Histogram) -> String {
    let mut out = String::with_capacity(4096);
    header(&mut out, name, "histogram", help);
    let mut cumulative = 0u64;
    let counts = h.bucket_counts();
    for (k, &c) in counts.iter().enumerate() {
        cumulative += c;
        let bucket = format!("{name}_bucket");
        if k == counts.len() - 1 {
            sample_line(&mut out, &bucket, &[("le", "+Inf")], cumulative as f64);
        } else {
            let mut edge = String::new();
            fmt_value(&mut edge, 2.0f64.powi(k as i32));
            sample_line(&mut out, &bucket, &[("le", &edge)], cumulative as f64);
        }
    }
    sample_line(&mut out, &format!("{name}_sum"), &[], h.sum());
    sample_line(&mut out, &format!("{name}_count"), &[], h.count() as f64);
    for (suffix, v) in [
        ("_min", h.min().unwrap_or(f64::INFINITY)),
        ("_max", h.max().unwrap_or(f64::NEG_INFINITY)),
    ] {
        let gauge = format!("{name}{suffix}");
        header(&mut out, &gauge, "gauge", "Exact extremum (non-standard)");
        sample_line(&mut out, &gauge, &[], v);
    }
    out
}

/// Renders a full [`MetricsRegistry`]: the run counters, the two
/// histograms, and per-phase wall-clock totals labeled by `phase`.
#[must_use]
pub fn registry_to_prometheus(m: &MetricsRegistry) -> String {
    let mut out = String::with_capacity(16 * 1024);
    for (name, help, v) in [
        ("fading_metrics_rounds_total", "Rounds recorded", m.rounds()),
        (
            "fading_metrics_transmissions_total",
            "Transmissions recorded",
            m.transmissions(),
        ),
        (
            "fading_metrics_knockouts_total",
            "Protocol knockouts recorded",
            m.knockouts(),
        ),
        (
            "fading_metrics_churn_applied_total",
            "Churn events applied",
            m.churn_applied(),
        ),
        (
            "fading_metrics_ge_dropped_total",
            "Gilbert-Elliott drops",
            m.ge_dropped(),
        ),
    ] {
        header(&mut out, name, "counter", help);
        sample_line(&mut out, name, &[], v as f64);
    }
    header(
        &mut out,
        "fading_phase_nanos_total",
        "counter",
        "Wall-clock nanoseconds per step phase",
    );
    for p in PHASE_SPANS {
        sample_line(
            &mut out,
            "fading_phase_nanos_total",
            &[("phase", p)],
            m.phase_nanos(p) as f64,
        );
    }
    out.push_str(&histogram_to_prometheus(
        "fading_round_latency_nanos",
        "Per-round wall-clock latency (ns)",
        m.round_latency_nanos(),
    ));
    out.push_str(&histogram_to_prometheus(
        "fading_knockouts_per_round",
        "Knockouts per round",
        m.knockouts_per_round(),
    ));
    out
}

/// Parses a Prometheus text scrape into its samples (comments and blank
/// lines skipped, order preserved).
///
/// # Errors
///
/// Returns [`ExportError::Parse`] with a 1-based line number on any
/// malformed sample line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, ExportError> {
    let mut samples = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line).map_err(|msg| ExportError::at(i + 1, msg))?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (name_and_labels, value_text) = match line.find('}') {
        Some(close) => {
            let (head, tail) = line.split_at(close + 1);
            (head, tail.trim())
        }
        None => {
            let mut it = line.splitn(2, ' ');
            let head = it.next().unwrap_or_default();
            (head, it.next().unwrap_or_default().trim())
        }
    };
    let (name, labels) = match name_and_labels.find('{') {
        Some(open) => {
            let name = &name_and_labels[..open];
            let body = name_and_labels[open + 1..]
                .strip_suffix('}')
                .ok_or("unterminated label set")?;
            (name, parse_labels(body)?)
        }
        None => (name_and_labels, Vec::new()),
    };
    if name.is_empty() {
        return Err("empty metric name".to_string());
    }
    let value = match value_text {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {other:?}"))?,
    };
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..]
            .trim_start()
            .strip_prefix('"')
            .ok_or("label value must be quoted")?;
        let close = after.find('"').ok_or("unterminated label value")?;
        labels.push((key, after[..close].to_string()));
        rest = after[close + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("unexpected label trailer {rest:?}"));
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_lines_parse_with_and_without_labels() {
        let text = "# HELP x y\nfoo 3\nbar{a=\"1\",b=\"two, three\"} -0.5\nbaz{le=\"+Inf\"} +Inf\n";
        let s = parse_prometheus(text).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].name, "foo");
        assert_eq!(s[0].value, 3.0);
        assert_eq!(s[1].label("b"), Some("two, three"));
        assert_eq!(s[2].value, f64::INFINITY);
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        let err = parse_prometheus("ok 1\nbroken{a=b} 2\n").unwrap_err();
        let ExportError::Parse { line, .. } = err;
        assert_eq!(line, 2);
    }

    /// `counters_to_prometheus(&EngineCounters::distinct())`, byte for byte.
    const GOLDEN_COUNTERS_SCRAPE: &str = "\
# HELP fading_rounds_total Rounds stepped
# TYPE fading_rounds_total counter
fading_rounds_total 101.0
# HELP fading_resolve_rounds_total Rounds served, by resolve tier
# TYPE fading_resolve_rounds_total counter
fading_resolve_rounds_total{engine=\"farfield\"} 102.0
fading_resolve_rounds_total{engine=\"hierarchical\"} 103.0
fading_resolve_rounds_total{engine=\"gain_cache\"} 104.0
fading_resolve_rounds_total{engine=\"exact\"} 105.0
# HELP fading_gain_cache_built 1 when a gain cache was built for this deployment
# TYPE fading_gain_cache_built gauge
fading_gain_cache_built 1.0
# HELP fading_perturbed_rounds_total Rounds under a non-neutral perturbation
# TYPE fading_perturbed_rounds_total counter
fading_perturbed_rounds_total 107.0
# HELP fading_jammed_rounds_total Rounds with an active jammer
# TYPE fading_jammed_rounds_total counter
fading_jammed_rounds_total 108.0
# HELP fading_noise_scaled_rounds_total Rounds with a noise-burst scale != 1
# TYPE fading_noise_scaled_rounds_total counter
fading_noise_scaled_rounds_total 109.0
# HELP fading_ge_dropped_total Messages dropped by Gilbert-Elliott loss
# TYPE fading_ge_dropped_total counter
fading_ge_dropped_total 110.0
# HELP fading_churn_applied_total Churn events applied
# TYPE fading_churn_applied_total counter
fading_churn_applied_total 111.0
# HELP fading_self_check_rounds_total Rounds audited by the self-checking engines
# TYPE fading_self_check_rounds_total counter
fading_self_check_rounds_total 112.0
# HELP fading_self_check_samples_total Listener samples re-resolved by the self-check
# TYPE fading_self_check_samples_total counter
fading_self_check_samples_total 113.0
# HELP fading_self_check_violations_total Self-check samples that disagreed with the serving tier
# TYPE fading_self_check_violations_total counter
fading_self_check_violations_total 114.0
# HELP fading_tier_demotions_total Engine tiers demoted after a self-check violation
# TYPE fading_tier_demotions_total counter
fading_tier_demotions_total 115.0
# HELP fading_farfield_engine_rounds_total Rounds the far-field engine resolved
# TYPE fading_farfield_engine_rounds_total counter
fading_farfield_engine_rounds_total 201.0
# HELP fading_farfield_decisions_total Far-field listener decisions, by ladder rung
# TYPE fading_farfield_decisions_total counter
fading_farfield_decisions_total{rung=\"empty_round_silence\"} 202.0
fading_farfield_decisions_total{rung=\"nonfinite_fallback\"} 203.0
fading_farfield_decisions_total{rung=\"noise_floor_silence\"} 204.0
fading_farfield_decisions_total{rung=\"no_near_winner_fallback\"} 205.0
fading_farfield_decisions_total{rung=\"far_rival_fallback\"} 206.0
fading_farfield_decisions_total{rung=\"bracket_decision\"} 207.0
fading_farfield_decisions_total{rung=\"bracket_straddle_fallback\"} 208.0
# HELP fading_farfield_canonical_rescans_total Exact fallbacks the bounded-kernel first pass could not settle
# TYPE fading_farfield_canonical_rescans_total counter
fading_farfield_canonical_rescans_total 209.0
# HELP fading_farfield_refined_decisions_total Far-field listeners the refined stage settled without the exact scan
# TYPE fading_farfield_refined_decisions_total counter
fading_farfield_refined_decisions_total 210.0
";

    #[test]
    fn counters_scrape_golden_bytes() {
        let text = counters_to_prometheus(&EngineCounters::distinct());
        assert_eq!(text, GOLDEN_COUNTERS_SCRAPE);
    }
}
