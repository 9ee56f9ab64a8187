//! Live event streaming: the subscriber hub, slow-consumer policy, and
//! SLO watch rules.
//!
//! A [`EventHub`] fans server-side event lines (per-job progress,
//! periodic time-series frames, SLO alerts) out to any number of
//! subscribers, each holding a **bounded** queue. The job loop publishes
//! with a `try_push` discipline: when a subscriber's queue is full the
//! line is dropped *for that subscriber* and counted — never blocking
//! the publisher — so a stalled `watch` client cannot slow a job worker,
//! let alone perturb results (the determinism drill pins this). When
//! room returns, the subscriber receives one
//! `{"event":"dropped","count":N}` notice summarizing the gap.
//!
//! The fast path is what keeps the no-subscriber overhead inside the
//! bench gate's 5% budget: [`EventHub::has_subscribers`] is a single
//! relaxed atomic load, and publishers skip even *formatting* an event
//! line when nobody is attached.
//!
//! [`SloWatch`] evaluates [`SloRules`] over the monitor's
//! [`TimeSeries`] window each tick, edge-triggered: an [`Alert`] is
//! emitted when a rule crosses from compliant to violated (and re-armed
//! when it recovers), not on every tick of a sustained violation.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use fading_cr::sim::obs::timeseries::TimeSeries;
use fading_cr::sim::telemetry::jsonl::{fmt_f64, json_escape};

/// Default bound on one subscriber's pending-line queue. At ~100 bytes a
/// line this caps a stalled subscriber at ~100 KiB of retained lines.
pub const DEFAULT_SUBSCRIBER_CAPACITY: usize = 1024;

/// What one subscriber asked to receive.
#[derive(Debug, Clone, Default)]
pub struct Subscription {
    /// Only forward progress events for this job id (`None` = all jobs).
    pub job: Option<String>,
    /// Also forward periodic time-series frames.
    pub frames: bool,
    /// Queue bound; 0 means [`DEFAULT_SUBSCRIBER_CAPACITY`].
    pub capacity: usize,
}

impl Subscription {
    /// Everything: all jobs' progress plus frames.
    #[must_use]
    pub fn watch_all() -> Self {
        Subscription {
            job: None,
            frames: true,
            capacity: 0,
        }
    }
}

struct SubQueue {
    lines: VecDeque<String>,
    /// Lines dropped since the last `dropped` notice was enqueued.
    dropped_pending: u64,
}

struct SubscriberInner {
    queue: Mutex<SubQueue>,
    ready: Condvar,
    capacity: usize,
    frames: bool,
    job: Option<String>,
    closed: AtomicBool,
    dropped: AtomicU64,
}

impl SubscriberInner {
    /// Enqueue under the bound; full queue → drop and count.
    fn offer(&self, line: &str) {
        if self.closed.load(Ordering::Relaxed) {
            return;
        }
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if q.dropped_pending > 0 && q.lines.len() < self.capacity {
            let n = q.dropped_pending;
            q.dropped_pending = 0;
            q.lines
                .push_back(format!("{{\"event\":\"dropped\",\"count\":{n}}}"));
        }
        if q.lines.len() >= self.capacity {
            q.dropped_pending += 1;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            q.lines.push_back(line.to_string());
        }
        drop(q);
        self.ready.notify_one();
    }
}

/// A receiving handle onto one hub subscription. Dropping it without
/// [`Subscriber::close`] leaves the hub-side entry to be pruned on the
/// next publish.
pub struct Subscriber {
    inner: Arc<SubscriberInner>,
}

impl std::fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber")
            .field("job", &self.inner.job)
            .field("frames", &self.inner.frames)
            .field("dropped", &self.inner.dropped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Subscriber {
    /// Waits up to `timeout` for the next line. `None` on timeout or
    /// when closed with an empty queue.
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Option<String> {
        let mut q = self
            .inner
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(line) = q.lines.pop_front() {
            return Some(line);
        }
        if self.inner.closed.load(Ordering::Relaxed) {
            return None;
        }
        let (mut q, _timed_out) = self
            .inner
            .ready
            .wait_timeout(q, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        q.lines.pop_front()
    }

    /// Takes everything currently queued without waiting.
    #[must_use]
    pub fn drain(&self) -> Vec<String> {
        let mut q = self
            .inner
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        q.lines.drain(..).collect()
    }

    /// Lines dropped against this subscriber so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Detaches from the hub; the entry is pruned on the next publish.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Relaxed);
        self.inner.ready.notify_one();
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        self.close();
    }
}

/// The fan-out hub. One per server; all methods are thread-safe.
#[derive(Default)]
pub struct EventHub {
    subscribers: Mutex<Vec<Arc<SubscriberInner>>>,
    active: AtomicUsize,
    dropped_total: AtomicU64,
}

impl std::fmt::Debug for EventHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventHub")
            .field("active", &self.active.load(Ordering::Relaxed))
            .field("dropped_total", &self.dropped_total.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl EventHub {
    /// An empty hub.
    #[must_use]
    pub fn new() -> Self {
        EventHub::default()
    }

    /// One relaxed load — the publisher fast path. When `false`,
    /// callers skip formatting entirely.
    #[must_use]
    pub fn has_subscribers(&self) -> bool {
        self.active.load(Ordering::Relaxed) > 0
    }

    /// Total lines dropped against slow subscribers, hub-wide.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total.load(Ordering::Relaxed)
    }

    /// Attaches a subscriber.
    #[must_use]
    pub fn subscribe(&self, sub: Subscription) -> Subscriber {
        let inner = Arc::new(SubscriberInner {
            queue: Mutex::new(SubQueue {
                lines: VecDeque::new(),
                dropped_pending: 0,
            }),
            ready: Condvar::new(),
            capacity: if sub.capacity == 0 {
                DEFAULT_SUBSCRIBER_CAPACITY
            } else {
                sub.capacity
            },
            frames: sub.frames,
            job: sub.job,
            closed: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        });
        let mut subs = self
            .subscribers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        subs.push(Arc::clone(&inner));
        self.active.store(subs.len(), Ordering::Relaxed);
        drop(subs);
        Subscriber { inner }
    }

    fn deliver(&self, line: &str, wants: impl Fn(&SubscriberInner) -> bool) {
        let mut subs = self
            .subscribers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut dropped_delta = 0;
        subs.retain(|s| {
            if s.closed.load(Ordering::Relaxed) {
                dropped_delta += 0; // pruned; its drop tally was already folded in
                return false;
            }
            if wants(s) {
                let before = s.dropped.load(Ordering::Relaxed);
                s.offer(line);
                dropped_delta += s.dropped.load(Ordering::Relaxed) - before;
            }
            true
        });
        self.active.store(subs.len(), Ordering::Relaxed);
        drop(subs);
        if dropped_delta > 0 {
            self.dropped_total
                .fetch_add(dropped_delta, Ordering::Relaxed);
        }
    }

    /// Publishes a per-job progress line to subscribers watching `job`
    /// (or everything).
    pub fn publish_progress(&self, job: &str, line: &str) {
        self.deliver(line, |s| s.job.as_deref().is_none_or(|j| j == job));
    }

    /// Publishes a time-series frame line to frame subscribers.
    pub fn publish_frame(&self, line: &str) {
        self.deliver(line, |s| s.frames);
    }

    /// Publishes an alert line to every subscriber.
    pub fn publish_alert(&self, line: &str) {
        self.deliver(line, |_| true);
    }
}

/// Splices `"job":…,"t_ms":…` into an event line produced by the sim
/// layer (`{"event":…}`), right after the opening brace. Parsers ignore
/// the extra keys; dashboards key on them.
#[must_use]
pub fn with_job_fields(line: &str, job: &str, t_ms: u64) -> String {
    match line.strip_prefix('{') {
        Some(rest) => format!("{{\"job\":\"{}\",\"t_ms\":{t_ms},{rest}", json_escape(job)),
        None => line.to_string(),
    }
}

// ---------------------------------------------------------------------------
// SLO watch rules
// ---------------------------------------------------------------------------

/// Service-level thresholds the monitor checks each tick. `None`
/// disables a rule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloRules {
    /// Alert when the windowed far-field fallback fraction exceeds this.
    pub fallback_fraction_max: Option<f64>,
    /// Alert when watchdog timeouts exceed this many per minute over the
    /// window (a timeout *spike*).
    pub timed_out_per_min_max: Option<f64>,
    /// Alert when the queue depth exceeds this (submissions outpacing
    /// workers): checked every monitor tick and at every enqueue, where
    /// the depth counts the job just queued.
    pub queue_depth_max: Option<u64>,
}

impl SloRules {
    /// `true` when every rule is disabled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fallback_fraction_max.is_none()
            && self.timed_out_per_min_max.is_none()
            && self.queue_depth_max.is_none()
    }
}

/// One typed SLO violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Which rule fired: `fallback_fraction`, `timed_out_spike`, or
    /// `queue_depth`.
    pub rule: String,
    /// The observed value.
    pub value: f64,
    /// The configured threshold it exceeded.
    pub threshold: f64,
    /// Milliseconds since the monitor's epoch.
    pub t_ms: u64,
}

impl Alert {
    /// One-line JSON form: `{"event":"alert","rule":…,"value":…,
    /// "threshold":…,"t_ms":…}`. `f64`s use the workspace's wire form
    /// ([`fmt_f64`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{{\"event\":\"alert\",\"rule\":\"{}\",\"value\":",
            json_escape(&self.rule)
        );
        fmt_f64(&mut s, self.value);
        s.push_str(",\"threshold\":");
        fmt_f64(&mut s, self.threshold);
        let _ = write!(s, ",\"t_ms\":{}}}", self.t_ms);
        s
    }
}

/// Edge-triggered evaluator over a [`TimeSeries`] window. Keeps one
/// armed/violated latch per rule so a sustained violation alerts once,
/// then re-arms after recovery.
#[derive(Debug, Default)]
pub struct SloWatch {
    rules: SloRules,
    fallback_violated: bool,
    timeout_violated: bool,
    queue_violated: bool,
}

impl SloWatch {
    /// A watch over `rules`.
    #[must_use]
    pub fn new(rules: SloRules) -> Self {
        SloWatch {
            rules,
            ..SloWatch::default()
        }
    }

    /// The rules under watch.
    #[must_use]
    pub fn rules(&self) -> &SloRules {
        &self.rules
    }

    /// Evaluates every rule against the newest `window` frames of `ts`,
    /// returning alerts for rules that just crossed into violation.
    pub fn check(&mut self, ts: &TimeSeries, window: usize, t_ms: u64) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let rates = ts.rates(window);
        let mut edge =
            |violated: &mut bool, is_violation: bool, rule: &str, value: f64, threshold: f64| {
                if is_violation && !*violated {
                    alerts.push(Alert {
                        rule: rule.to_string(),
                        value,
                        threshold,
                        t_ms,
                    });
                }
                *violated = is_violation;
            };
        if let Some(max) = self.rules.fallback_fraction_max {
            edge(
                &mut self.fallback_violated,
                rates.fallback_fraction > max,
                "fallback_fraction",
                rates.fallback_fraction,
                max,
            );
        }
        if let Some(max) = self.rules.timed_out_per_min_max {
            let skip = ts.len().saturating_sub(window);
            let (mut timed_out, mut dt_ms) = (0u64, 0u64);
            for f in ts.frames().skip(skip) {
                timed_out += f.d_timed_out;
                dt_ms += f.dt_ms;
            }
            let per_min = if dt_ms == 0 {
                0.0
            } else {
                timed_out as f64 * 60_000.0 / dt_ms as f64
            };
            edge(
                &mut self.timeout_violated,
                per_min > max,
                "timed_out_spike",
                per_min,
                max,
            );
        }
        let depth = ts.latest().map_or(0, |f| f.queue_depth);
        alerts.extend(self.check_queue_depth(depth, t_ms));
        alerts
    }

    /// Evaluates the queue-depth rule alone against `depth`, sharing the
    /// rule's latch with [`SloWatch::check`]; the server also calls it at
    /// every enqueue.
    pub(crate) fn check_queue_depth(&mut self, depth: u64, t_ms: u64) -> Option<Alert> {
        let max = self.rules.queue_depth_max?;
        let violated = depth > max;
        let fired = violated && !self.queue_violated;
        self.queue_violated = violated;
        fired.then(|| Alert {
            rule: "queue_depth".to_string(),
            value: depth as f64,
            threshold: max as f64,
            t_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_cr::sim::obs::timeseries::TsSample;
    use fading_cr::sim::telemetry::jsonl::{parse_json, JsonValue};

    #[test]
    fn hub_fans_out_with_job_filtering() {
        let hub = EventHub::new();
        assert!(!hub.has_subscribers());
        let all = hub.subscribe(Subscription::watch_all());
        let only_a = hub.subscribe(Subscription {
            job: Some("a".to_string()),
            frames: false,
            capacity: 0,
        });
        assert!(hub.has_subscribers());

        hub.publish_progress("a", "{\"event\":\"x\"}");
        hub.publish_progress("b", "{\"event\":\"y\"}");
        hub.publish_frame("{\"event\":\"frame\"}");
        hub.publish_alert("{\"event\":\"alert\"}");

        assert_eq!(all.drain().len(), 4);
        let got = only_a.drain();
        assert_eq!(got.len(), 2, "job filter passes its job + alerts: {got:?}");
        assert!(got[0].contains("\"x\""));
        assert!(got[1].contains("alert"));
    }

    #[test]
    fn slow_consumer_drops_newest_and_reports_gap() {
        let hub = EventHub::new();
        let sub = hub.subscribe(Subscription {
            job: None,
            frames: false,
            capacity: 2,
        });
        for i in 0..5 {
            hub.publish_progress("j", &format!("{{\"n\":{i}}}"));
        }
        assert_eq!(sub.dropped(), 3);
        assert_eq!(hub.dropped_total(), 3);
        // Queue kept the oldest two lines (publisher never blocks).
        let got = sub.drain();
        assert_eq!(got, vec!["{\"n\":0}", "{\"n\":1}"]);
        // Now there is room again: the next publish first delivers the
        // gap notice, then the line.
        hub.publish_progress("j", "{\"n\":5}");
        let got = sub.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], "{\"event\":\"dropped\",\"count\":3}");
        assert_eq!(got[1], "{\"n\":5}");
    }

    #[test]
    fn closed_subscribers_are_pruned() {
        let hub = EventHub::new();
        let sub = hub.subscribe(Subscription::watch_all());
        sub.close();
        hub.publish_alert("{\"event\":\"alert\"}");
        assert!(!hub.has_subscribers());
        assert!(sub.recv_timeout(Duration::from_millis(1)).is_none());
    }

    #[test]
    fn recv_timeout_delivers_and_times_out() {
        let hub = EventHub::new();
        let sub = hub.subscribe(Subscription::watch_all());
        hub.publish_alert("{\"a\":1}");
        assert_eq!(
            sub.recv_timeout(Duration::from_millis(10)).unwrap(),
            "{\"a\":1}"
        );
        assert!(sub.recv_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn job_field_splice_keeps_lines_parseable() {
        let spliced = with_job_fields("{\"event\":\"trial_started\",\"seed\":3}", "job \"7\"", 42);
        let v = parse_json(&spliced).unwrap();
        assert_eq!(v.get("job").and_then(JsonValue::as_str), Some("job \"7\""));
        assert_eq!(v.get("t_ms").and_then(JsonValue::as_f64), Some(42.0));
        assert_eq!(v.get("seed").and_then(JsonValue::as_f64), Some(3.0));
    }

    #[test]
    fn alert_json_golden_bytes() {
        let a = Alert {
            rule: "queue_depth".to_string(),
            value: 17.0,
            threshold: 10.5,
            t_ms: 1234,
        };
        assert_eq!(
            a.to_json(),
            "{\"event\":\"alert\",\"rule\":\"queue_depth\",\"value\":17.0,\
             \"threshold\":10.5,\"t_ms\":1234}"
        );
    }

    fn series_with(fallback: u64, resolved: u64, timed_out: u64, depth: u64) -> TimeSeries {
        let mut ts = TimeSeries::new(8);
        ts.record(TsSample::at(0));
        let mut s = TsSample::at(1000);
        // `fallback` exact fallbacks among `resolved` ladder-resolved
        // listeners.
        s.engine.farfield.far_rival_fallbacks = fallback;
        s.engine.farfield.bracket_decisions = resolved - fallback;
        s.timed_out = timed_out;
        s.queue_depth = depth;
        ts.record(s);
        ts
    }

    #[test]
    fn slo_watch_is_edge_triggered() {
        let rules = SloRules {
            fallback_fraction_max: Some(0.10),
            timed_out_per_min_max: Some(5.0),
            queue_depth_max: Some(3),
        };
        assert!(!rules.is_empty());
        assert!(SloRules::default().is_empty());
        let mut watch = SloWatch::new(rules);

        // All three rules violated at once: fallback 20/100, one timeout
        // in one second = 60/min, depth 9.
        let ts = series_with(20, 100, 1, 9);
        let alerts = watch.check(&ts, 8, 1000);
        let rules_fired: Vec<&str> = alerts.iter().map(|a| a.rule.as_str()).collect();
        assert_eq!(
            rules_fired,
            vec!["fallback_fraction", "timed_out_spike", "queue_depth"]
        );
        // Still violated on the next tick → no re-alert.
        assert!(watch.check(&ts, 8, 2000).is_empty());
        // Recovered → re-armed → violated again → alerts again.
        let healthy = series_with(1, 100, 0, 0);
        assert!(watch.check(&healthy, 8, 3000).is_empty());
        assert_eq!(watch.check(&ts, 8, 4000).len(), 3);
    }

    #[test]
    fn enqueue_check_shares_the_queue_depth_latch() {
        let mut watch = SloWatch::new(SloRules {
            queue_depth_max: Some(0),
            ..SloRules::default()
        });
        let alert = watch.check_queue_depth(1, 7).expect("depth 1 > 0 fires");
        assert_eq!(
            (alert.rule.as_str(), alert.value, alert.t_ms),
            ("queue_depth", 1.0, 7)
        );
        // The next tick still sees a queued job: latched, no re-alert.
        assert!(watch.check(&series_with(0, 0, 0, 2), 8, 50).is_empty());
        // Drained, then a new enqueue alerts again.
        assert!(watch.check(&series_with(0, 0, 0, 0), 8, 100).is_empty());
        assert!(watch.check_queue_depth(1, 120).is_some());
        // A disabled rule never fires.
        assert!(SloWatch::default().check_queue_depth(99, 0).is_none());
    }
}
