//! The `fading-top` dashboard: a line-at-a-time model of a watch stream
//! and an ANSI terminal renderer.
//!
//! The binary (`src/bin/fading_top.rs`) connects to a running
//! fading-server's control socket, sends `{"cmd":"watch"}`, and feeds
//! every streamed line into a [`Dashboard`] via
//! [`Dashboard::apply_line`]; each refresh tick it prints
//! [`Dashboard::render`] over the previous screen. The split keeps all
//! the parsing/layout logic in the library where unit tests can drive
//! it with canned event lines — the binary is a thin socket loop.
//!
//! Everything renders from the wire events alone (`job_started`,
//! `trial_*`, `frame`, `alert`, `dropped`, `job_done`, `job_failed`),
//! so the same model works against a live server, a replayed JSONL
//! capture, or the `--demo` generator.

// Pure display math: truncating casts and format!-into-String are fine
// here and keep the layout code readable.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::format_push_string
)]

use std::collections::BTreeMap;
use std::collections::VecDeque;

use fading_cr::sim::obs::timeseries::{frame_from_json, TsFrame};
use fading_cr::sim::telemetry::jsonl::{parse_json, JsonValue};
use fading_cr::sim::ProgressEvent;

/// How many recent frames the sparklines look back over.
const FRAME_HISTORY: usize = 32;
/// How many recent alerts the dashboard retains.
const ALERT_HISTORY: usize = 5;

/// Per-job progress accumulated from trial events.
#[derive(Debug, Default, Clone)]
pub struct JobView {
    /// Total trials the job announced at start (0 until `job_started`).
    pub trials_total: u64,
    /// Trials finished (resolved or not).
    pub finished: u64,
    /// Same-seed retries observed.
    pub retried: u64,
    /// Watchdog timeouts observed.
    pub timed_out: u64,
    /// Poisoned (panicked-out) trials observed.
    pub poisoned: u64,
    /// Sum of rounds over finished trials.
    pub rounds: u64,
    /// Seed of the most recent event, for the activity column.
    pub last_seed: u64,
    /// Terminal state, once a `job_done` / `job_failed` arrives.
    pub state: JobRunState,
}

/// Lifecycle of a job as seen over the stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum JobRunState {
    /// Trials are still arriving.
    #[default]
    Running,
    /// `job_done` arrived.
    Done,
    /// `job_failed` arrived.
    Failed,
}

impl JobView {
    fn terminal(&self) -> u64 {
        self.finished + self.timed_out + self.poisoned
    }
}

/// The dashboard model: feed wire lines in, render screens out.
#[derive(Debug, Default)]
pub struct Dashboard {
    jobs: BTreeMap<String, JobView>,
    frames: VecDeque<TsFrame>,
    alerts: VecDeque<String>,
    /// Total lines the server reported dropping for this subscriber.
    pub dropped: u64,
    /// Lines that failed to parse (kept visible so a protocol skew is
    /// noticed rather than silently ignored).
    pub unparsed: u64,
    t_ms: u64,
}

impl Dashboard {
    /// An empty dashboard.
    #[must_use]
    pub fn new() -> Self {
        Dashboard::default()
    }

    /// Jobs seen so far, in id order.
    #[must_use]
    pub fn jobs(&self) -> &BTreeMap<String, JobView> {
        &self.jobs
    }

    /// The newest time-series frame, if any arrived.
    #[must_use]
    pub fn latest_frame(&self) -> Option<&TsFrame> {
        self.frames.back()
    }

    /// Ingests one stream line, updating the model. Unknown events and
    /// malformed lines bump [`Dashboard::unparsed`] instead of erroring:
    /// a dashboard should degrade, not die, on protocol skew.
    pub fn apply_line(&mut self, line: &str) {
        let Ok(v) = parse_json(line) else {
            self.unparsed += 1;
            return;
        };
        let Some(event) = v.get("event").and_then(JsonValue::as_str) else {
            self.unparsed += 1;
            return;
        };
        let num = |key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        if let Some(t) = v.get("t_ms").and_then(JsonValue::as_f64) {
            self.t_ms = self.t_ms.max(t as u64);
        }
        match event {
            "frame" => {
                if let Ok(frame) = frame_from_json(line) {
                    self.t_ms = self.t_ms.max(frame.t_ms);
                    self.frames.push_back(frame);
                    while self.frames.len() > FRAME_HISTORY {
                        self.frames.pop_front();
                    }
                } else {
                    self.unparsed += 1;
                }
            }
            "alert" => {
                let rule = v.get("rule").and_then(JsonValue::as_str).unwrap_or("?");
                let value = v
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                let threshold = v
                    .get("threshold")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                self.alerts.push_back(format!(
                    "[{:>6}ms] {rule} {value:.3} > {threshold:.3}",
                    num("t_ms")
                ));
                while self.alerts.len() > ALERT_HISTORY {
                    self.alerts.pop_front();
                }
            }
            "dropped" => self.dropped += num("count"),
            "job_started" => {
                let job = self.job_mut(&v);
                job.trials_total = num("trials");
            }
            "job_done" => self.job_mut(&v).state = JobRunState::Done,
            "job_failed" => self.job_mut(&v).state = JobRunState::Failed,
            // The `trial_*` lines, decoded by the supervisor's own codec;
            // anything else (an unknown event, a missing field) is unparsed.
            _ => match ProgressEvent::from_json(line) {
                Ok(progress) => self.apply_progress(&v, &progress),
                Err(_) => self.unparsed += 1,
            },
        }
    }

    fn apply_progress(&mut self, v: &JsonValue, progress: &ProgressEvent) {
        let job = self.job_mut(v);
        job.last_seed = progress.seed();
        match *progress {
            ProgressEvent::TrialStarted { .. } => {}
            ProgressEvent::TrialRetried { .. } => job.retried += 1,
            ProgressEvent::TrialFinished { rounds, .. } => {
                job.finished += 1;
                job.rounds += rounds;
            }
            ProgressEvent::TrialTimedOut { .. } => job.timed_out += 1,
            ProgressEvent::TrialPoisoned { .. } => job.poisoned += 1,
        }
    }

    fn job_mut(&mut self, v: &JsonValue) -> &mut JobView {
        let id = v
            .get("job")
            .and_then(JsonValue::as_str)
            .unwrap_or("(local)")
            .to_string();
        self.jobs.entry(id).or_default()
    }

    /// Renders one full screen, prefixed with the ANSI home+clear
    /// sequence so successive renders repaint in place. Pass
    /// `ansi = false` for plain text (tests, piped output).
    #[must_use]
    pub fn render(&self, width: usize, ansi: bool) -> String {
        let width = width.clamp(40, 200);
        let mut out = String::new();
        if ansi {
            out.push_str("\x1b[H\x1b[2J");
        }
        let latest = self.frames.back();
        out.push_str(&format!(
            "fading-top  t={:>8}ms  queue={:<4} in-flight={:<3} jobs={}\n",
            self.t_ms,
            latest.map_or(0, |f| f.queue_depth),
            latest.map_or(0, |f| f.jobs_in_flight),
            self.jobs.len()
        ));
        out.push_str(&"─".repeat(width));
        out.push('\n');

        // Rates + sparklines over the retained frame window.
        let trial_rounds: Vec<u64> = self.frames.iter().map(|f| f.d_trial_rounds).collect();
        let trials: Vec<u64> = self.frames.iter().map(|f| f.d_trials).collect();
        out.push_str(&format!(
            "rounds/f {:>8}  {}\n",
            trial_rounds.last().copied().unwrap_or(0),
            sparkline(&trial_rounds)
        ));
        out.push_str(&format!(
            "trials/f {:>8}  {}\n",
            trials.last().copied().unwrap_or(0),
            sparkline(&trials)
        ));

        // Tier mix from the newest frame's engine-round deltas.
        if let Some(f) = latest {
            let tiers: [(&str, u64); 4] = [
                ("hier", f.d_hierarchical_rounds),
                ("cache", f.d_gain_cache_rounds),
                ("exact", f.d_exact_rounds),
                ("instr", f.d_instrumented_rounds),
            ];
            let total: u64 = tiers.iter().map(|(_, n)| n).sum();
            if total > 0 {
                out.push_str("tiers    ");
                for (name, n) in tiers {
                    if n > 0 {
                        out.push_str(&format!("{name}:{:.0}% ", n as f64 * 100.0 / total as f64));
                    }
                }
                out.push('\n');
            }
        }
        out.push_str(&"─".repeat(width));
        out.push('\n');

        // Per-job progress bars.
        for (id, job) in &self.jobs {
            let done = job.terminal();
            let total = job.trials_total.max(done);
            let tag = match job.state {
                JobRunState::Running => "run ",
                JobRunState::Done => "done",
                JobRunState::Failed => "FAIL",
            };
            let extras = {
                let mut s = String::new();
                if job.retried > 0 {
                    s.push_str(&format!(" retry={}", job.retried));
                }
                if job.timed_out > 0 {
                    s.push_str(&format!(" tmo={}", job.timed_out));
                }
                if job.poisoned > 0 {
                    s.push_str(&format!(" poison={}", job.poisoned));
                }
                s
            };
            out.push_str(&format!(
                "{tag} {:<20} {} {done:>5}/{total:<5} seed={}{extras}\n",
                truncate(id, 20),
                progress_bar(done, total, 24),
                job.last_seed
            ));
        }

        // Recent alerts + stream health.
        if !self.alerts.is_empty() {
            out.push_str(&"─".repeat(width));
            out.push('\n');
            for a in &self.alerts {
                out.push_str(&format!("ALERT {a}\n"));
            }
        }
        if self.dropped > 0 || self.unparsed > 0 {
            out.push_str(&format!(
                "stream: {} lines dropped by server, {} unparsed\n",
                self.dropped, self.unparsed
            ));
        }
        out
    }
}

/// Eight-level unicode sparkline of `values`, scaled to the window max.
#[must_use]
pub fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return "▁".repeat(values.len());
    }
    values
        .iter()
        .map(|&v| BARS[((v * 7).div_ceil(max) as usize).min(7)])
        .collect()
}

/// A `[████░░░░]`-style bar of `width` cells, `done/total` filled.
#[must_use]
pub fn progress_bar(done: u64, total: u64, width: usize) -> String {
    let filled = if total == 0 {
        0
    } else {
        ((done.min(total) as usize) * width) / (total as usize).max(1)
    };
    let mut bar = String::with_capacity(width + 2);
    bar.push('[');
    for i in 0..width {
        bar.push(if i < filled { '█' } else { '░' });
    }
    bar.push(']');
    bar
}

fn truncate(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((idx, _)) => &s[..idx],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_events_accumulate_into_job_views() {
        let mut d = Dashboard::new();
        d.apply_line("{\"event\":\"job_started\",\"job\":\"j1\",\"t_ms\":5,\"trials\":4}");
        d.apply_line("{\"job\":\"j1\",\"t_ms\":6,\"event\":\"trial_started\",\"seed\":0}");
        d.apply_line(
            "{\"job\":\"j1\",\"t_ms\":9,\"event\":\"trial_finished\",\"seed\":0,\"rounds\":12,\"resolved\":true,\"retries\":0}",
        );
        d.apply_line(
            "{\"job\":\"j1\",\"t_ms\":10,\"event\":\"trial_retried\",\"seed\":1,\"retries\":1}",
        );
        d.apply_line(
            "{\"job\":\"j1\",\"t_ms\":11,\"event\":\"trial_timed_out\",\"seed\":1,\"timeout_ms\":50,\"retries\":1}",
        );
        let job = &d.jobs()["j1"];
        assert_eq!(job.trials_total, 4);
        assert_eq!(job.finished, 1);
        assert_eq!(job.rounds, 12);
        assert_eq!(job.retried, 1);
        assert_eq!(job.timed_out, 1);
        assert_eq!(job.state, JobRunState::Running);
        assert_eq!(d.unparsed, 0);

        d.apply_line("{\"event\":\"job_done\",\"job\":\"j1\",\"t_ms\":12,\"succeeded\":3}");
        assert_eq!(d.jobs()["j1"].state, JobRunState::Done);
    }

    #[test]
    fn malformed_trial_lines_are_unparsed() {
        let mut d = Dashboard::new();
        d.apply_line("{\"event\":\"job_started\",\"job\":\"j1\",\"trials\":4}");
        // A finished trial without its rounds, a retry without its count,
        // a poisoned trial of an unknown kind and an unknown event.
        for line in [
            "{\"job\":\"j1\",\"event\":\"trial_finished\",\"seed\":3,\"resolved\":true,\"retries\":0}",
            "{\"job\":\"j1\",\"event\":\"trial_retried\",\"seed\":3}",
            "{\"job\":\"j1\",\"event\":\"trial_poisoned\",\"seed\":3,\"kind\":\"??\",\"retries\":1}",
            "{\"job\":\"j1\",\"event\":\"trial_warped\",\"seed\":3}",
        ] {
            d.apply_line(line);
        }
        assert_eq!(d.unparsed, 4);
        let job = &d.jobs()["j1"];
        assert_eq!((job.finished, job.retried, job.poisoned), (0, 0, 0));
        assert_eq!(job.last_seed, 0, "no malformed line moves the seed");
        d.apply_line(
            "{\"job\":\"j1\",\"event\":\"trial_poisoned\",\"seed\":5,\"kind\":\"assertion\",\"retries\":1}",
        );
        assert_eq!((d.jobs()["j1"].poisoned, d.jobs()["j1"].last_seed), (1, 5));
        assert_eq!(d.unparsed, 4);
    }

    #[test]
    fn frames_alerts_and_drops_feed_the_render() {
        let mut d = Dashboard::new();
        d.apply_line(
            "{\"event\":\"frame\",\"t_ms\":1000,\"dt_ms\":500,\"d_trials\":3,\"d_trial_rounds\":40,\
             \"d_retried\":0,\"d_timed_out\":0,\"d_jobs_completed\":0,\"d_jobs_failed\":0,\
             \"d_engine_rounds\":40,\"d_farfield_rounds\":0,\"d_hierarchical_rounds\":30,\
             \"d_gain_cache_rounds\":0,\"d_exact_rounds\":10,\"d_instrumented_rounds\":0,\
             \"d_jammed_rounds\":0,\"d_fallback_listeners\":2,\"d_resolved_listeners\":90,\
             \"queue_depth\":7,\"jobs_in_flight\":1}",
        );
        d.apply_line(
            "{\"event\":\"alert\",\"rule\":\"queue_depth\",\"value\":7.0,\"threshold\":5.0,\"t_ms\":1000}",
        );
        d.apply_line("{\"event\":\"dropped\",\"count\":11}");
        d.apply_line("not json at all");
        assert_eq!(d.latest_frame().map(|f| f.queue_depth), Some(7));
        assert_eq!(d.dropped, 11);
        assert_eq!(d.unparsed, 1);

        let screen = d.render(60, false);
        assert!(screen.contains("queue=7"), "{screen}");
        assert!(screen.contains("ALERT"), "{screen}");
        assert!(screen.contains("queue_depth"), "{screen}");
        assert!(screen.contains("11 lines dropped"), "{screen}");
        assert!(screen.contains("hier:75% exact:25%"), "{screen}");
        // Plain render carries no escape codes; ANSI render does.
        assert!(!screen.contains('\x1b'));
        assert!(d.render(60, true).starts_with("\x1b[H\x1b[2J"));
    }

    #[test]
    fn sparkline_and_progress_bar_shapes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let line = sparkline(&[1, 4, 8]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'));
        assert_eq!(progress_bar(0, 4, 4), "[░░░░]");
        assert_eq!(progress_bar(2, 4, 4), "[██░░]");
        assert_eq!(progress_bar(4, 4, 4), "[████]");
        assert_eq!(progress_bar(9, 4, 4), "[████]");
        assert_eq!(progress_bar(0, 0, 4), "[░░░░]");
    }
}
