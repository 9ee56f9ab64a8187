//! Counters, value histograms and span-timed totals folded from a run.
//!
//! A [`MetricsRegistry`] is a fold ([`MetricsRegistry::fold`]) of two
//! streams a simulation already produces, so the step loop itself reads
//! no clock:
//!
//! * its [`RoundEvent`]s give the run counters and the knockouts-per-round
//!   histogram;
//! * the finished spans of an attached [`Tracer`] give time: each `step`
//!   span is one round's latency, and the [`PHASE_SPANS`] add up to
//!   per-phase totals.
//!
//! [`MetricsRegistry::merge`] aggregates runs into a fleet view.
//!
//! The counters and the knockout histogram are deterministic. The times are
//! wall-clock measurements and are **not** part of the determinism
//! contract — two byte-identical runs report different nanosecond totals.
//!
//! [`Tracer`]: crate::obs::Tracer

use crate::obs::SpanRecord;
use crate::telemetry::RoundEvent;

/// The step loop's phase spans whose durations [`MetricsRegistry::fold`]
/// totals, in step order.
pub const PHASE_SPANS: [&str; 4] = ["churn", "act", "resolve", "feedback"];

/// A base-2 geometric histogram over non-negative `f64` values.
///
/// Bucket 0 holds values in `[0, 1)`; bucket `k ≥ 1` holds
/// `[2^(k−1), 2^k)`. 64 buckets cover every finite magnitude the
/// simulator produces (the last bucket absorbs overflow). Alongside the
/// buckets the histogram tracks exact count/sum/min/max, so means are not
/// quantized.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; Histogram::NUM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Number of buckets: bucket 0 = `[0, 1)`, bucket `k ≥ 1` =
    /// `[2^(k−1), 2^k)`, with the last bucket absorbing overflow
    /// (everything from `2^62` up, `+∞` included).
    pub const NUM_BUCKETS: usize = 64;

    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: [0; Histogram::NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation (negative or non-finite values are clamped
    /// into the terminal buckets rather than rejected — metrics must never
    /// panic mid-run).
    pub fn record(&mut self, value: f64) {
        let idx = if value >= 1.0 {
            // Values ≥ 2^62 (including +∞) saturate into the top bucket.
            let k = value.log2();
            if k >= (Histogram::NUM_BUCKETS - 2) as f64 {
                Histogram::NUM_BUCKETS - 1
            } else {
                k as usize + 1
            }
        } else {
            // NaN and everything below 1 (including negatives) land here.
            0
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The raw bucket counts (bucket 0 = `[0, 1)`, bucket `k` =
    /// `[2^(k−1), 2^k)`).
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// An upper bound on the `q`-quantile (`q ∈ [0, 1]`) read from the
    /// bucket boundaries: the least bucket upper edge below which at least
    /// `q` of the mass lies. Coarse by design (factor-of-two resolution);
    /// use the event stream for exact distributions.
    ///
    /// Edge cases (pinned by tests): `None` for an empty histogram or a
    /// `q` outside `[0, 1]` (NaN included); `q = 0.0` bounds the minimum
    /// (the first non-empty bucket's edge); `q = 1.0` bounds the maximum.
    /// When the answer lands in the overflow bucket — whose nominal edge
    /// `2^63` is *not* an upper bound for the values it absorbs — the
    /// exact tracked `max` is returned instead.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if k == Histogram::NUM_BUCKETS - 1 {
                    self.max
                } else if k == 0 {
                    1.0
                } else {
                    2.0f64.powi(k as i32)
                });
            }
        }
        // Unreachable: bucket counts sum to `count ≥ target` whenever
        // `count > 0`. Kept as a non-panicking fallback.
        None
    }

    /// Merges `other` into `self` bucket-wise, as if every observation
    /// recorded into `other` had been recorded here too. Counts, buckets,
    /// min and max merge exactly; `sum` (and hence `mean`) may differ from
    /// sequential recording by floating-point association only.
    ///
    /// Both histograms use the crate-wide base-2 bucket layout; the assert
    /// guards the invariant against a future layout change.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram merge requires identical bucket bounds"
        );
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregated metrics for one simulation, or a fleet of them merged.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    rounds: u64,
    transmissions: u64,
    knockouts: u64,
    churn_applied: u64,
    ge_dropped: u64,
    round_nanos: Histogram,
    knockouts_per_round: Histogram,
    phase_nanos: [u64; PHASE_SPANS.len()],
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The registry of one run, folded from its round `events` and its
    /// tracer's finished `spans`. Each event adds to the run counters and
    /// to the knockouts-per-round histogram. Each `step` span is one
    /// round's latency, each [`PHASE_SPANS`] span adds to its phase's
    /// total, and other spans are ignored.
    #[must_use]
    pub fn fold(events: &[RoundEvent], spans: &[SpanRecord]) -> Self {
        let mut m = MetricsRegistry::new();
        for event in events {
            m.rounds += 1;
            m.transmissions += event.transmitters as u64;
            m.knockouts += event.knocked_out as u64;
            m.churn_applied += event.churn_applied as u64;
            m.ge_dropped += event.ge_dropped as u64;
            m.knockouts_per_round.record(event.knocked_out as f64);
        }
        for span in spans {
            let nanos = span.duration_ns();
            if span.name == "step" {
                m.round_nanos.record(nanos as f64);
            } else if let Some(i) = PHASE_SPANS.iter().position(|&p| p == span.name) {
                m.phase_nanos[i] += nanos;
            }
        }
        m
    }

    /// Rounds recorded.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total transmissions across recorded rounds.
    #[must_use]
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Total protocol knockouts across recorded rounds.
    #[must_use]
    pub fn knockouts(&self) -> u64 {
        self.knockouts
    }

    /// Total churn events applied across recorded rounds.
    #[must_use]
    pub fn churn_applied(&self) -> u64 {
        self.churn_applied
    }

    /// Total Gilbert–Elliott message drops across recorded rounds.
    #[must_use]
    pub fn ge_dropped(&self) -> u64 {
        self.ge_dropped
    }

    /// Distribution of per-round wall-clock latency (`step` spans), in
    /// nanoseconds.
    #[must_use]
    pub fn round_latency_nanos(&self) -> &Histogram {
        &self.round_nanos
    }

    /// Distribution of knockouts per round.
    #[must_use]
    pub fn knockouts_per_round(&self) -> &Histogram {
        &self.knockouts_per_round
    }

    /// Accumulated wall-clock nanoseconds spent in the phase span named
    /// `phase` (0 for a name outside [`PHASE_SPANS`]).
    #[must_use]
    pub fn phase_nanos(&self, phase: &str) -> u64 {
        PHASE_SPANS
            .iter()
            .position(|&p| p == phase)
            .map_or(0, |i| self.phase_nanos[i])
    }

    /// Merges another registry into this one (counters add, histograms
    /// merge bucket-wise, phase totals add), so montecarlo drivers can
    /// aggregate per-trial registries into one fleet-wide view.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.rounds += other.rounds;
        self.transmissions += other.transmissions;
        self.knockouts += other.knockouts;
        self.churn_applied += other.churn_applied;
        self.ge_dropped += other.ge_dropped;
        self.round_nanos.merge(&other.round_nanos);
        self.knockouts_per_round.merge(&other.knockouts_per_round);
        for (p, &o) in self.phase_nanos.iter_mut().zip(other.phase_nanos.iter()) {
            *p += o;
        }
    }

    /// One-line human-readable summary (for logs and reports).
    #[must_use]
    pub fn summary(&self) -> String {
        let phases: Vec<String> = PHASE_SPANS
            .iter()
            .map(|&p| format!("{p}={}µs", self.phase_nanos(p) / 1_000))
            .collect();
        format!(
            "rounds={} tx={} knockouts={} churn={} ge_drops={} mean_round={:.1}µs [{}]",
            self.rounds,
            self.transmissions,
            self.knockouts,
            self.churn_applied,
            self.ge_dropped,
            self.round_nanos.mean() / 1_000.0,
            phases.join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_geometric() {
        let mut h = Histogram::new();
        h.record(0.0); // bucket 0
        h.record(0.5); // bucket 0
        h.record(1.0); // bucket 1: [1, 2)
        h.record(3.0); // bucket 2: [2, 4)
        h.record(1024.0); // bucket 11: [1024, 2048)
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(h.bucket_counts()[1], 1);
        assert_eq!(h.bucket_counts()[2], 1);
        assert_eq!(h.bucket_counts()[11], 1);
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(1024.0));
        assert!((h.mean() - (0.5 + 1.0 + 3.0 + 1024.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_handles_pathological_values() {
        let mut h = Histogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(h.bucket_counts()[Histogram::NUM_BUCKETS - 1], 1);
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile_upper_bound(0.5), None);
    }

    #[test]
    fn quantile_upper_bound_walks_buckets() {
        let mut h = Histogram::new();
        for _ in 0..9 {
            h.record(1.5); // bucket 1, upper edge 2.0
        }
        h.record(100.0); // bucket 7, upper edge 128.0
        assert_eq!(h.quantile_upper_bound(0.5), Some(2.0));
        assert_eq!(h.quantile_upper_bound(1.0), Some(128.0));
        assert_eq!(h.quantile_upper_bound(1.5), None);
    }

    #[test]
    fn quantile_edge_cases_are_pinned() {
        // q = 0.0 bounds the minimum: first non-empty bucket's edge.
        let mut h = Histogram::new();
        h.record(3.0); // bucket 2, edge 4.0
        h.record(100.0); // bucket 7, edge 128.0
        assert_eq!(h.quantile_upper_bound(0.0), Some(4.0));
        assert_eq!(h.quantile_upper_bound(1.0), Some(128.0));
        // Out-of-domain q (including NaN) is None, not a panic.
        assert_eq!(h.quantile_upper_bound(-0.1), None);
        assert_eq!(h.quantile_upper_bound(1.5), None);
        assert_eq!(h.quantile_upper_bound(f64::NAN), None);
        // Empty histogram: None at every q.
        assert_eq!(Histogram::new().quantile_upper_bound(0.0), None);
        assert_eq!(Histogram::new().quantile_upper_bound(1.0), None);
    }

    #[test]
    fn quantile_overflow_bucket_returns_exact_max() {
        // The overflow bucket's nominal edge (2^63) is NOT an upper bound
        // for what it absorbs; the exact tracked max is.
        let mut h = Histogram::new();
        let big = 2.0f64.powi(70);
        h.record(big);
        h.record(2.0 * big);
        assert_eq!(h.quantile_upper_bound(0.5), Some(2.0 * big));
        assert_eq!(h.quantile_upper_bound(1.0), Some(2.0 * big));
        // Mixed: the median stays on a real bucket edge, only the tail
        // falls into the overflow bucket.
        let mut h = Histogram::new();
        h.record(1.5);
        h.record(1.5);
        h.record(f64::INFINITY);
        assert_eq!(h.quantile_upper_bound(0.5), Some(2.0));
        assert_eq!(h.quantile_upper_bound(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn merge_is_recording_concatenated_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [0.0, 0.5, 7.0, 1e9] {
            a.record(v);
            both.record(v);
        }
        for v in [2.0, f64::INFINITY, -3.0] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.bucket_counts(), both.bucket_counts());
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.sum(), both.sum()); // same values, same order per side
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = Histogram::new();
        a.record(5.0);
        let snapshot = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, snapshot);
        let mut empty = Histogram::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    /// A counts-level event with `tx` transmitters, `ko` knockouts,
    /// `churn` churn events and `ge` loss drops.
    fn event(tx: usize, ko: usize, churn: usize, ge: usize) -> RoundEvent {
        RoundEvent {
            transmitters: tx,
            knocked_out: ko,
            churn_applied: churn,
            ge_dropped: ge,
            ..RoundEvent::default()
        }
    }

    /// A finished root span `name` lasting `micros` µs.
    fn span(name: &'static str, micros: u64) -> SpanRecord {
        SpanRecord {
            id: 0,
            parent: None,
            name: name.into(),
            thread: 0,
            depth: 0,
            start_ns: 1_000,
            end_ns: 1_000 + micros * 1_000,
        }
    }

    #[test]
    fn registry_merge_aggregates_everything() {
        let mut a =
            MetricsRegistry::fold(&[event(3, 2, 1, 4)], &[span("step", 5), span("resolve", 9)]);
        let b = MetricsRegistry::fold(&[event(1, 0, 0, 0)], &[span("step", 7), span("act", 2)]);
        a.merge(&b);
        assert_eq!(a.rounds(), 2);
        assert_eq!(a.transmissions(), 4);
        assert_eq!(a.knockouts(), 2);
        assert_eq!(a.phase_nanos("resolve"), 9_000);
        assert_eq!(a.phase_nanos("act"), 2_000);
        assert_eq!(a.round_latency_nanos().count(), 2);
    }

    #[test]
    fn registry_accumulates_rounds_and_phases() {
        let m = MetricsRegistry::fold(
            &[event(3, 2, 1, 4), event(1, 0, 0, 0)],
            &[
                span("step", 5),
                span("step", 7),
                span("resolve", 9),
                span("resolve", 1),
                span("resolve.gain_cache", 3),
            ],
        );
        assert_eq!(m.rounds(), 2);
        assert_eq!(m.transmissions(), 4);
        assert_eq!(m.knockouts(), 2);
        assert_eq!(m.churn_applied(), 1);
        assert_eq!(m.ge_dropped(), 4);
        assert_eq!(m.phase_nanos("resolve"), 10_000);
        assert_eq!(m.phase_nanos("act"), 0);
        assert_eq!(m.knockouts_per_round().count(), 2);
        assert!((m.round_latency_nanos().mean() - 6_000.0).abs() < 1e-9);
        let s = m.summary();
        assert!(s.contains("rounds=2") && s.contains("resolve=10µs"), "{s}");
    }
}
