//! Prometheus text exposition format (version 0.0.4): `# HELP` / `# TYPE`
//! comments, `name{label="value"} number` samples, histograms as
//! cumulative `_bucket{le="…"}` series plus `_sum` / `_count`.
//!
//! The writer emits the subset Prometheus scrapes; the parser reads that
//! subset back into [`PromSample`]s, and the typed reconstructors
//! ([`counters_from_prometheus`], [`histogram_from_prometheus`]) invert
//! the corresponding writers exactly — covered by round-trip tests in
//! `crates/sim/tests/obs.rs`.

use std::fmt::Write as _;

use crate::obs::{EngineCounters, ResolvePath};
use crate::telemetry::{Histogram, MetricsRegistry, PHASE_SPANS};
use fading_channel::FarFieldStats;

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

/// Renders one [`EngineCounters`] snapshot as a Prometheus scrape body.
/// Route counters become one `fading_resolve_rounds_total` series labeled
/// by `engine`; ladder counters one `fading_farfield_decisions_total`
/// series labeled by `rung`.
#[must_use]
pub fn counters_to_prometheus(c: &EngineCounters) -> String {
    let mut out = String::with_capacity(2048);
    header(&mut out, "fading_rounds_total", "counter", "Rounds stepped");
    sample_line(&mut out, "fading_rounds_total", &[], c.rounds as f64);

    header(
        &mut out,
        "fading_resolve_rounds_total",
        "counter",
        "Rounds served, by resolve tier",
    );
    for p in ResolvePath::ALL {
        sample_line(
            &mut out,
            "fading_resolve_rounds_total",
            &[("engine", p.name())],
            c.rounds_for(p) as f64,
        );
    }

    header(
        &mut out,
        "fading_gain_cache_built",
        "gauge",
        "1 when a gain cache was built for this deployment",
    );
    sample_line(
        &mut out,
        "fading_gain_cache_built",
        &[],
        f64::from(u8::from(c.gain_cache_built)),
    );
    for (name, help, v) in [
        (
            "fading_perturbed_rounds_total",
            "Rounds under a non-neutral perturbation",
            c.perturbed_rounds,
        ),
        (
            "fading_jammed_rounds_total",
            "Rounds with an active jammer",
            c.jammed_rounds,
        ),
        (
            "fading_noise_scaled_rounds_total",
            "Rounds with a noise-burst scale != 1",
            c.noise_scaled_rounds,
        ),
        (
            "fading_ge_dropped_total",
            "Messages dropped by Gilbert-Elliott loss",
            c.ge_dropped,
        ),
        (
            "fading_churn_applied_total",
            "Churn events applied",
            c.churn_applied,
        ),
        (
            "fading_self_check_rounds_total",
            "Rounds audited by the self-checking engines",
            c.self_check_rounds,
        ),
        (
            "fading_self_check_samples_total",
            "Listener samples re-resolved by the self-check",
            c.self_check_samples,
        ),
        (
            "fading_self_check_violations_total",
            "Self-check samples that disagreed with the serving tier",
            c.self_check_violations,
        ),
        (
            "fading_tier_demotions_total",
            "Engine tiers demoted after a self-check violation",
            c.tier_demotions,
        ),
        (
            "fading_farfield_engine_rounds_total",
            "Rounds the far-field engine resolved",
            c.farfield.rounds,
        ),
        (
            "fading_farfield_canonical_rescans_total",
            "Exact fallbacks the bounded-kernel first pass could not settle",
            c.farfield.canonical_rescans,
        ),
    ] {
        header(&mut out, name, "counter", help);
        sample_line(&mut out, name, &[], v as f64);
    }

    header(
        &mut out,
        "fading_farfield_decisions_total",
        "counter",
        "Far-field listener decisions, by ladder rung",
    );
    let f = &c.farfield;
    for (rung, v) in [
        ("empty_round_silence", f.empty_round_silences),
        ("nonfinite_fallback", f.nonfinite_fallbacks),
        ("noise_floor_silence", f.noise_floor_silences),
        ("no_near_winner_fallback", f.no_near_winner_fallbacks),
        ("far_rival_fallback", f.far_rival_fallbacks),
        ("bracket_decision", f.bracket_decisions),
        ("bracket_straddle_fallback", f.bracket_straddle_fallbacks),
    ] {
        sample_line(
            &mut out,
            "fading_farfield_decisions_total",
            &[("rung", rung)],
            v as f64,
        );
    }
    out
}

/// Renders one [`Histogram`] in Prometheus histogram convention:
/// cumulative `_bucket{le="…"}` lines (bucket `k`'s upper edge is `2^k`;
/// the overflow bucket is `+Inf`), then `_sum` and `_count`, plus
/// non-standard `_min` / `_max` gauges so the exact extrema survive the
/// round trip.
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

/// Renders a full [`MetricsRegistry`]: the run counters, the three
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
    out.push_str(&histogram_to_prometheus(
        "fading_interference",
        "Per-listener interference sums",
        m.interference(),
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

fn find_value(
    samples: &[PromSample],
    name: &str,
    labels: &[(&str, &str)],
) -> Result<f64, ExportError> {
    samples
        .iter()
        .find(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
        .map(|s| s.value)
        .ok_or_else(|| ExportError::at(0, format!("missing sample {name} {labels:?}")))
}

fn as_u64(v: f64, what: &str) -> Result<u64, ExportError> {
    if v.fract() == 0.0 && (0.0..9.007_199_254_740_992e15).contains(&v) {
        Ok(v as u64)
    } else {
        Err(ExportError::at(
            0,
            format!("{what} is not a counter value: {v}"),
        ))
    }
}

/// Reconstructs an [`EngineCounters`] from a scrape written by
/// [`counters_to_prometheus`] — the exact inverse.
///
/// # Errors
///
/// Returns [`ExportError::Parse`] on malformed text or missing samples.
pub fn counters_from_prometheus(text: &str) -> Result<EngineCounters, ExportError> {
    let s = parse_prometheus(text)?;
    let route = |p: ResolvePath| {
        find_value(&s, "fading_resolve_rounds_total", &[("engine", p.name())])
            .and_then(|v| as_u64(v, p.name()))
    };
    let plain = |name: &str| find_value(&s, name, &[]).and_then(|v| as_u64(v, name));
    let rung = |r: &str| {
        find_value(&s, "fading_farfield_decisions_total", &[("rung", r)]).and_then(|v| as_u64(v, r))
    };
    Ok(EngineCounters {
        rounds: plain("fading_rounds_total")?,
        farfield_rounds: route(ResolvePath::FarField)?,
        hierarchical_rounds: route(ResolvePath::Hierarchical)?,
        gain_cache_rounds: route(ResolvePath::Cached)?,
        exact_rounds: route(ResolvePath::Exact)?,
        instrumented_rounds: route(ResolvePath::Instrumented)?,
        gain_cache_built: find_value(&s, "fading_gain_cache_built", &[])? != 0.0,
        perturbed_rounds: plain("fading_perturbed_rounds_total")?,
        jammed_rounds: plain("fading_jammed_rounds_total")?,
        noise_scaled_rounds: plain("fading_noise_scaled_rounds_total")?,
        ge_dropped: plain("fading_ge_dropped_total")?,
        churn_applied: plain("fading_churn_applied_total")?,
        self_check_rounds: plain("fading_self_check_rounds_total")?,
        self_check_samples: plain("fading_self_check_samples_total")?,
        self_check_violations: plain("fading_self_check_violations_total")?,
        tier_demotions: plain("fading_tier_demotions_total")?,
        farfield: FarFieldStats {
            rounds: plain("fading_farfield_engine_rounds_total")?,
            empty_round_silences: rung("empty_round_silence")?,
            nonfinite_fallbacks: rung("nonfinite_fallback")?,
            noise_floor_silences: rung("noise_floor_silence")?,
            no_near_winner_fallbacks: rung("no_near_winner_fallback")?,
            far_rival_fallbacks: rung("far_rival_fallback")?,
            bracket_decisions: rung("bracket_decision")?,
            bracket_straddle_fallbacks: rung("bracket_straddle_fallback")?,
            canonical_rescans: plain("fading_farfield_canonical_rescans_total")?,
        },
    })
}

/// Reconstructs a [`Histogram`] from a scrape written by
/// [`histogram_to_prometheus`] under the same `name` — the exact inverse
/// (cumulative buckets differenced back, extrema from `_min`/`_max`).
///
/// # Errors
///
/// Returns [`ExportError::Parse`] on malformed text, missing series, or
/// bucket counts that are not cumulative.
pub fn histogram_from_prometheus(text: &str, name: &str) -> Result<Histogram, ExportError> {
    let samples = parse_prometheus(text)?;
    let bucket_name = format!("{name}_bucket");
    let mut buckets = [0u64; Histogram::NUM_BUCKETS];
    let mut prev = 0u64;
    let mut seen = 0usize;
    for s in samples.iter().filter(|s| s.name == bucket_name) {
        if seen >= Histogram::NUM_BUCKETS {
            return Err(ExportError::at(0, format!("too many buckets for {name}")));
        }
        let cumulative = as_u64(s.value, &bucket_name)?;
        let count = cumulative.checked_sub(prev).ok_or_else(|| {
            ExportError::at(0, format!("non-cumulative bucket counts for {name}"))
        })?;
        buckets[seen] = count;
        prev = cumulative;
        seen += 1;
    }
    if seen != Histogram::NUM_BUCKETS {
        return Err(ExportError::at(
            0,
            format!(
                "expected {} buckets for {name}, found {seen}",
                Histogram::NUM_BUCKETS
            ),
        ));
    }
    let count = as_u64(
        find_value(&samples, &format!("{name}_count"), &[])?,
        "count",
    )?;
    let sum = find_value(&samples, &format!("{name}_sum"), &[])?;
    let min = find_value(&samples, &format!("{name}_min"), &[])?;
    let max = find_value(&samples, &format!("{name}_max"), &[])?;
    Ok(Histogram::from_parts(buckets, count, sum, min, max))
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

    #[test]
    fn empty_histogram_round_trips() {
        let h = Histogram::new();
        let text = histogram_to_prometheus("t", "help", &h);
        assert_eq!(histogram_from_prometheus(&text, "t").unwrap(), h);
    }
}
