//! Result records, the metric catalogue, small statistics helpers and the
//! output digest shared by every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: printed by every untraced run (`--trace 0`).
/// Must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("round_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: printed by every traced run (`--trace 1`). A metric
/// that could not be measured prints `null` with a note.
/// Must match `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("geom.deploy_ms", "ms"),
    ("sim.new_ms", "ms"),
    ("channel.gain_cache_mib", "MiB"),
    ("sim.act_ms", "ms"),
    ("sim.resolve_ms", "ms"),
    ("sim.feedback_ms", "ms"),
    ("sim.unattributed_frac", "ratio"),
    ("channel.rounds.exact", "count"),
    ("channel.rounds.gain_cache", "count"),
    ("channel.rounds.farfield", "count"),
    ("channel.rounds.hierarchical", "count"),
    ("channel.fallback_frac", "ratio"),
    ("channel.tx_per_round", "count"),
    ("channel.listeners_per_round", "count"),
    ("channel.resolve_ns_per_listener", "ns"),
    ("probe.round_ms", "ms"),
    ("probe.resolve_ns_per_listener", "ns"),
    ("kernels.alpha3_ms_per_mpoint", "ms/Mpoint"),
    ("kernels.generic_ms_per_mpoint", "ms/Mpoint"),
    ("pool.speedup", "ratio"),
    ("mc.busy_frac", "ratio"),
    ("server.submit_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.exec_ms", "ms"),
    ("server.run_job_ms", "ms"),
    ("trace_overhead", "ratio"),
];

/// What one run measured, plus everything that went wrong.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Trials attempted.
    pub attempted: u64,
    /// Trials that failed: unresolved, or not routed to one resolve tier.
    pub failed: u64,
    /// Correctness failures; any entry fails the run.
    pub errors: Vec<String>,
    /// Measured values by metric name; `None` = not measured.
    values: BTreeMap<&'static str, (Option<f64>, Option<String>)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (Some(value), None));
    }

    pub fn not_measured(&mut self, name: &'static str, why: impl Into<String>) {
        self.values.insert(name, (None, Some(why.into())));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The final result line: one JSON object with every metric of the
    /// catalogue for this mode, in catalogue order.
    pub fn result_json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let (value, note) = match self.values.get(name) {
                Some((v, n)) => (*v, n.clone()),
                None => (None, Some("not measured".to_string())),
            };
            let value = value.map_or_else(|| "null".to_string(), |v| format!("{v:?}"));
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\""
            );
            if let Some(note) = note {
                let _ = write!(metrics, ", \"note\": \"{}\"", note.replace('"', "'"));
            }
            metrics.push('}');
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.errors.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// 64-bit FNV-1a: the output digest (stable across platforms and builds).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The committed expected digests, keyed by `(workload, size)`.
#[derive(Debug)]
pub struct Expected(BTreeMap<(String, String), String>);

impl Expected {
    /// Parses `workload size digest` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, size, digest] = fields[..] else {
                return Err(format!("expected digests line {}: want 3 fields", i + 1));
            };
            map.insert((workload.to_string(), size.to_string()), digest.to_string());
        }
        Ok(Expected(map))
    }

    /// Compares a golden-block digest against its committed value.
    pub fn verify(&self, out: &mut Outcome, workload: &str, size: &str, got: Digest) {
        let got = got.hex();
        out.note(format!("digest {workload} {size} {got}"));
        match self.0.get(&(workload.to_string(), size.to_string())) {
            Some(want) if *want == got => {}
            Some(want) => out.errors.push(format!(
                "output digest mismatch for {workload}/{size}: got {got}, want {want}"
            )),
            None => out.errors.push(format!(
                "no expected digest for {workload}/{size} (got {got})"
            )),
        }
    }
}

/// `VmHWM` of this process in MiB (peak resident set).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Deterministic 64-bit mixing of a seed and a stream index (SplitMix64).
pub fn mix(seed: u64, stream: u64) -> u64 {
    fading_cr::sim::split_mix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(2000, 0.99), 20);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_lists_every_catalogue_metric() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.5);
        let line = out.result_json(false);
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{line}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }

    #[test]
    fn expected_digests_parse_and_mismatch_fails() {
        let exp = Expected::parse("# c\nfkn-mid smoke 00000000000000aa\n").unwrap();
        let mut out = Outcome::default();
        exp.verify(&mut out, "fkn-mid", "smoke", Digest::default());
        assert_eq!(out.errors.len(), 1);
        assert!(Expected::parse("a b\n").is_err());
    }
}
