//! Server-wide metrics, aggregated across jobs and served as Prometheus
//! text.
//!
//! The scrape body is composed from the existing `obs::export` writers —
//! [`counters_to_prometheus`] for the merged engine counters,
//! [`registry_to_prometheus`] for the metrics folded from traced trials'
//! events and spans (when `collect_spans` is on) — plus
//! service-level series rendered here in the same format: job/trial
//! tallies, the [`FleetSummary`] supervision counters, queue-depth and
//! in-flight gauges, and a job-latency [`Histogram`]. Everything round-
//! trips through the paired [`parse_prometheus`] parser, which CI uses to
//! check the scrape.
//!
//! [`parse_prometheus`]: fading_cr::sim::obs::export::prometheus::parse_prometheus

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Duration;

use fading_cr::sim::obs::export::prometheus::{
    counters_to_prometheus, histogram_to_prometheus, registry_to_prometheus,
};
use fading_cr::sim::obs::timeseries::TsSample;
use fading_cr::sim::obs::{EngineCounters, ProgressEvent};
use fading_cr::sim::recover::FleetSummary;
use fading_cr::sim::telemetry::jsonl::json_escape;
use fading_cr::sim::telemetry::{Histogram, MetricsRegistry};

/// Aggregated service metrics behind one lock (server threads record,
/// the scrape endpoint renders).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    jobs_submitted: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    jobs_rejected: u64,
    trials_completed: u64,
    trials_resumed: u64,
    fleet: FleetSummary,
    counters: EngineCounters,
    registry: MetricsRegistry,
    job_latency_ms: Histogram,
    queue_depth: u64,
    jobs_in_flight: u64,
    // Live trial-granularity counters fed by `record_progress` as events
    // happen, not at job completion — these make the monitor's
    // time-series frames move while a big fleet is still running.
    live_trials: u64,
    live_trial_rounds: u64,
    live_retried: u64,
    live_timed_out: u64,
    /// SLO alerts fired, keyed by rule name.
    alerts: BTreeMap<String, u64>,
    /// Watch lines dropped against slow subscribers (mirrors the hub).
    watch_dropped: u64,
}

impl ServerMetrics {
    /// A fresh, all-zero tally.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a spec accepted into the queue.
    pub fn record_submitted(&self) {
        self.lock().jobs_submitted += 1;
    }

    /// Records a spec rejected before execution (parse/validation).
    pub fn record_rejected(&self) {
        self.lock().jobs_rejected += 1;
    }

    /// Records a worker picking a job up.
    pub fn record_started(&self) {
        self.lock().jobs_in_flight += 1;
    }

    /// Records a completed job: its submit→complete latency, supervision
    /// tally, resumed-trial count, and merged engine metrics.
    pub fn record_completed(
        &self,
        latency: Duration,
        fleet: &FleetSummary,
        resumed: u64,
        counters: &EngineCounters,
        registry: Option<&MetricsRegistry>,
    ) {
        let mut m = self.lock();
        m.jobs_completed += 1;
        m.jobs_in_flight = m.jobs_in_flight.saturating_sub(1);
        m.trials_completed += fleet.succeeded;
        m.trials_resumed += resumed;
        m.fleet.merge(fleet);
        m.counters.merge(counters);
        if let Some(r) = registry {
            m.registry.merge(r);
        }
        m.job_latency_ms.record(latency.as_secs_f64() * 1e3);
    }

    /// Records a job that errored during execution.
    pub fn record_failed(&self) {
        let mut m = self.lock();
        m.jobs_failed += 1;
        m.jobs_in_flight = m.jobs_in_flight.saturating_sub(1);
    }

    /// Updates the queue-depth gauge.
    pub fn set_queue_depth(&self, depth: u64) {
        self.lock().queue_depth = depth;
    }

    /// Records one live trial-progress event (called from the progress
    /// sink on every event of every running job).
    pub fn record_progress(&self, event: &ProgressEvent) {
        let mut m = self.lock();
        match event {
            ProgressEvent::TrialStarted { .. } => {}
            ProgressEvent::TrialRetried { .. } => m.live_retried += 1,
            ProgressEvent::TrialFinished { rounds, .. } => {
                m.live_trials += 1;
                m.live_trial_rounds += rounds;
            }
            ProgressEvent::TrialTimedOut { .. } => {
                m.live_trials += 1;
                m.live_timed_out += 1;
            }
            ProgressEvent::TrialPoisoned { .. } => m.live_trials += 1,
        }
    }

    /// Records one fired SLO alert under its rule name.
    pub fn record_alert(&self, rule: &str) {
        *self.lock().alerts.entry(rule.to_string()).or_insert(0) += 1;
    }

    /// Mirrors the hub's total of lines dropped against slow watch
    /// subscribers (monotonic; the monitor refreshes it each tick).
    pub fn set_watch_dropped(&self, total: u64) {
        self.lock().watch_dropped = total;
    }

    /// Snapshots everything a time-series frame needs, stamped `t_ms`.
    /// Trial counters are live (from `record_progress`); engine-tier
    /// counters advance when jobs complete and merge their
    /// [`EngineCounters`].
    #[must_use]
    pub fn ts_sample(&self, t_ms: u64) -> TsSample {
        let m = self.lock();
        let mut s = TsSample::at(t_ms);
        s.trials = m.live_trials;
        s.trial_rounds = m.live_trial_rounds;
        s.retried = m.live_retried;
        s.timed_out = m.live_timed_out;
        s.jobs_completed = m.jobs_completed;
        s.jobs_failed = m.jobs_failed;
        s.engine = m.counters;
        s.queue_depth = m.queue_depth;
        s.jobs_in_flight = m.jobs_in_flight;
        s
    }

    /// Upper bounds on the p50/p95/p99 job latencies in milliseconds,
    /// `None` until a job has completed.
    #[must_use]
    pub fn latency_quantiles(&self) -> Option<(f64, f64, f64)> {
        let m = self.lock();
        Some((
            m.job_latency_ms.quantile_upper_bound(0.50)?,
            m.job_latency_ms.quantile_upper_bound(0.95)?,
            m.job_latency_ms.quantile_upper_bound(0.99)?,
        ))
    }

    /// Completed-job count (used by pollers and the idle-exit check).
    #[must_use]
    pub fn jobs_completed(&self) -> u64 {
        self.lock().jobs_completed
    }

    /// Failed-job count.
    #[must_use]
    pub fn jobs_failed(&self) -> u64 {
        self.lock().jobs_failed
    }

    /// In-flight job count.
    #[must_use]
    pub fn jobs_in_flight(&self) -> u64 {
        self.lock().jobs_in_flight
    }

    /// Renders the full scrape body (see the module docs for what's in
    /// it). The output parses with `parse_prometheus`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let m = self.lock();
        let mut out = String::with_capacity(4096);

        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "fading_jobs_submitted_total",
            "Specs accepted into the queue.",
            m.jobs_submitted,
        );
        counter(
            "fading_jobs_completed_total",
            "Jobs that ran to completion.",
            m.jobs_completed,
        );
        counter(
            "fading_jobs_failed_total",
            "Jobs that errored during execution.",
            m.jobs_failed,
        );
        counter(
            "fading_jobs_rejected_total",
            "Submissions rejected before execution.",
            m.jobs_rejected,
        );
        counter(
            "fading_trials_completed_total",
            "Trials completed across all jobs.",
            m.trials_completed,
        );
        counter(
            "fading_trials_resumed_total",
            "Trials satisfied from manifests without re-running.",
            m.trials_resumed,
        );
        counter(
            "fading_fleet_trials_total",
            "Supervised trials tallied (FleetSummary.trials).",
            m.fleet.trials,
        );
        counter(
            "fading_fleet_succeeded_total",
            "Supervised trials that succeeded (FleetSummary.succeeded).",
            m.fleet.succeeded,
        );
        counter(
            "fading_fleet_retried_total",
            "Trial retries performed (FleetSummary.retried).",
            m.fleet.retried,
        );
        counter(
            "fading_fleet_timed_out_total",
            "Trials that hit the watchdog timeout (FleetSummary.timed_out).",
            m.fleet.timed_out,
        );
        counter(
            "fading_fleet_poisoned_total",
            "Trials that exhausted retries panicking (FleetSummary.poisoned).",
            m.fleet.poisoned,
        );

        let mut gauge = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "fading_queue_depth",
            "Unclaimed submissions in the queue.",
            m.queue_depth,
        );
        gauge(
            "fading_jobs_in_flight",
            "Jobs currently executing.",
            m.jobs_in_flight,
        );

        let _ = writeln!(
            out,
            "# HELP fading_watch_dropped_total Stream lines dropped against slow watch subscribers."
        );
        let _ = writeln!(out, "# TYPE fading_watch_dropped_total counter");
        let _ = writeln!(out, "fading_watch_dropped_total {}", m.watch_dropped);
        let _ = writeln!(out, "# HELP fading_alerts_total SLO alerts fired, by rule.");
        let _ = writeln!(out, "# TYPE fading_alerts_total counter");
        for (rule, count) in &m.alerts {
            let _ = writeln!(
                out,
                "fading_alerts_total{{rule=\"{}\"}} {count}",
                json_escape(rule)
            );
        }

        out.push_str(&histogram_to_prometheus(
            "fading_job_latency_ms",
            "Submit-to-complete latency per job, milliseconds.",
            &m.job_latency_ms,
        ));
        out.push_str(&counters_to_prometheus(&m.counters));
        out.push_str(&registry_to_prometheus(&m.registry));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_cr::sim::obs::export::prometheus::parse_prometheus;

    fn sample(samples: &[fading_cr::sim::obs::export::prometheus::PromSample], name: &str) -> f64 {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    }

    /// Asserts the named sample holds exactly `want`: tallies are whole
    /// numbers, which render and parse exactly.
    fn assert_tally(
        samples: &[fading_cr::sim::obs::export::prometheus::PromSample],
        name: &str,
        want: u32,
    ) {
        let got = sample(samples, name);
        assert_eq!(
            got.to_bits(),
            f64::from(want).to_bits(),
            "{name}: got {got}, want {want}"
        );
    }

    #[test]
    fn scrape_parses_with_paired_parser_and_tallies() {
        let metrics = ServerMetrics::new();
        metrics.record_submitted();
        metrics.record_submitted();
        metrics.record_started();
        let fleet = FleetSummary {
            trials: 4,
            succeeded: 4,
            ..FleetSummary::default()
        };
        metrics.record_completed(
            Duration::from_millis(12),
            &fleet,
            1,
            &EngineCounters::default(),
            None,
        );
        metrics.record_started();
        metrics.record_failed();
        metrics.set_queue_depth(5);

        let text = metrics.render_prometheus();
        let samples = parse_prometheus(&text).expect("scrape must parse");
        assert_tally(&samples, "fading_jobs_submitted_total", 2);
        assert_tally(&samples, "fading_jobs_completed_total", 1);
        assert_tally(&samples, "fading_jobs_failed_total", 1);
        assert_tally(&samples, "fading_queue_depth", 5);
        assert_tally(&samples, "fading_jobs_in_flight", 0);
        assert_tally(&samples, "fading_fleet_succeeded_total", 4);
        assert_tally(&samples, "fading_trials_resumed_total", 1);
        assert_tally(&samples, "fading_job_latency_ms_count", 1);
    }

    #[test]
    fn progress_events_feed_live_counters_and_samples() {
        let metrics = ServerMetrics::new();
        assert!(metrics.latency_quantiles().is_none());
        metrics.record_progress(&ProgressEvent::TrialStarted { seed: 1 });
        metrics.record_progress(&ProgressEvent::TrialFinished {
            seed: 1,
            rounds: 40,
            resolved: true,
            retries: 0,
        });
        metrics.record_progress(&ProgressEvent::TrialRetried {
            seed: 2,
            retries: 1,
        });
        metrics.record_progress(&ProgressEvent::TrialTimedOut {
            seed: 2,
            timeout_ms: 50,
            retries: 1,
        });
        metrics.set_queue_depth(3);

        let s = metrics.ts_sample(500);
        assert_eq!(s.t_ms, 500);
        assert_eq!(s.trials, 2);
        assert_eq!(s.trial_rounds, 40);
        assert_eq!(s.retried, 1);
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.queue_depth, 3);

        metrics.record_completed(
            Duration::from_millis(20),
            &FleetSummary::default(),
            0,
            &EngineCounters::default(),
            None,
        );
        let (p50, p95, p99) = metrics.latency_quantiles().expect("one job recorded");
        assert!(p50 >= 20.0 && p95 >= p50 && p99 >= p95, "{p50} {p95} {p99}");
    }

    #[test]
    fn alerts_and_watch_drops_reach_the_scrape() {
        let metrics = ServerMetrics::new();
        metrics.record_alert("queue_depth");
        metrics.record_alert("queue_depth");
        metrics.record_alert("fallback_fraction");
        metrics.set_watch_dropped(7);

        let text = metrics.render_prometheus();
        let samples = parse_prometheus(&text).expect("scrape must parse");
        assert_tally(&samples, "fading_watch_dropped_total", 7);
        let alerts: Vec<_> = samples
            .iter()
            .filter(|s| s.name == "fading_alerts_total")
            .collect();
        assert_eq!(alerts.len(), 2);
        assert_eq!(
            alerts
                .iter()
                .find(|s| s.label("rule") == Some("queue_depth"))
                .map(|s| s.value),
            Some(2.0)
        );
    }
}
