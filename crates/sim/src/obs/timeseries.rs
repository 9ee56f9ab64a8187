//! Fixed-capacity time-series recorder over the fleet's counters.
//!
//! The Prometheus scrape answers "what are the totals *right now*"; this
//! module answers "what happened *over the last minute*". A monitor loop
//! periodically builds a [`TsSample`] — a flat snapshot of the cumulative
//! counters ([`EngineCounters`] totals, trials finished, supervision
//! tallies, job tallies) plus the instantaneous gauges (queue depth, jobs
//! in flight) — and feeds it to a [`TimeSeries`], which stores the
//! **delta** against the previous sample as a [`TsFrame`] in a bounded
//! ring buffer.
//!
//! Deltas rather than levels because that is what a dashboard plots: a
//! frame *is* a rate once divided by its `dt_ms`, old frames can be
//! evicted without breaking later ones, and a counter reset (server
//! restart) clamps to zero instead of going negative (all deltas are
//! `saturating_sub`). The ring is fixed-capacity: recording is O(1), the
//! memory bound is set at construction, and eviction is counted
//! ([`TimeSeries::evicted`]) rather than silent.
//!
//! Windowed rates over the newest frames come from [`TimeSeries::rates`]:
//! rounds/sec and trials/sec (from live per-trial progress), the
//! fallback fraction (exact fallbacks over listeners the far-field ladder
//! resolved), and the jammer-active fraction (jammed rounds over engine
//! rounds). Engine-derived fields advance when a job's counters merge
//! (job completion), so those two fractions move in job-sized steps;
//! trials/rounds advance per trial.
//!
//! Frames have a one-line JSON form with the workspace's usual bit-exact
//! round-trip guarantee ([`frame_to_json`] / [`frame_from_json`]) —
//! trivially exact here since every field is an integer.

use std::collections::VecDeque;

use crate::obs::EngineCounters;
use crate::telemetry::jsonl::{parse_json, JsonValue, JsonlError};

/// One snapshot of the fleet's cumulative counters and gauges, stamped
/// with a caller-supplied monotonic timestamp (milliseconds since the
/// recorder's epoch — callers use `Instant::elapsed`, tests use plain
/// integers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsSample {
    /// Milliseconds since the monitor's epoch. Must be non-decreasing
    /// across samples fed to one [`TimeSeries`].
    pub t_ms: u64,
    /// Trials finished (live, from progress events).
    pub trials: u64,
    /// Rounds executed summed over finished trials (live).
    pub trial_rounds: u64,
    /// Panicked attempts that were re-run (live).
    pub retried: u64,
    /// Trials that hit the watchdog (live).
    pub timed_out: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Jobs failed.
    pub jobs_failed: u64,
    /// The merged [`EngineCounters`] total (advances at job completion).
    pub engine: EngineCounters,
    /// Queue depth **gauge** (not cumulative).
    pub queue_depth: u64,
    /// Jobs in flight **gauge** (not cumulative).
    pub jobs_in_flight: u64,
}

impl TsSample {
    /// An all-zero sample at `t_ms`.
    #[must_use]
    pub fn at(t_ms: u64) -> Self {
        TsSample {
            t_ms,
            ..TsSample::default()
        }
    }
}

/// The delta between two consecutive [`TsSample`]s: every cumulative
/// field becomes a `d_*` increment (saturating, so a counter reset reads
/// as zero progress, never underflow); the two gauges are carried at
/// their sampled absolute values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsFrame {
    /// Timestamp of the newer sample, ms since the monitor's epoch.
    pub t_ms: u64,
    /// Milliseconds elapsed since the previous sample.
    pub dt_ms: u64,
    /// Trials finished in this frame.
    pub d_trials: u64,
    /// Rounds executed by trials finished in this frame.
    pub d_trial_rounds: u64,
    /// Retried attempts in this frame.
    pub d_retried: u64,
    /// Watchdog timeouts in this frame.
    pub d_timed_out: u64,
    /// Jobs completed in this frame.
    pub d_jobs_completed: u64,
    /// Jobs failed in this frame.
    pub d_jobs_failed: u64,
    /// Engine rounds merged in this frame.
    pub d_engine_rounds: u64,
    /// Flat far-field rounds merged in this frame (always 0).
    pub d_farfield_rounds: u64,
    /// Hierarchical far-field rounds merged in this frame.
    pub d_hierarchical_rounds: u64,
    /// Gain-cache rounds merged in this frame.
    pub d_gain_cache_rounds: u64,
    /// Exact-scan rounds merged in this frame.
    pub d_exact_rounds: u64,
    /// Jammed rounds merged in this frame.
    pub d_jammed_rounds: u64,
    /// Exact-fallback listeners merged in this frame.
    pub d_fallback_listeners: u64,
    /// Ladder-resolved listeners merged in this frame.
    pub d_resolved_listeners: u64,
    /// Queue depth gauge at this frame's sample.
    pub queue_depth: u64,
    /// Jobs-in-flight gauge at this frame's sample.
    pub jobs_in_flight: u64,
}

impl TsFrame {
    fn delta(prev: &TsSample, next: &TsSample) -> TsFrame {
        let mut frame = TsFrame::default();
        for (_, field, source) in &FRAME_FIELDS {
            *field(&mut frame) = match source {
                Source::Level(get) => get(next),
                Source::Delta(get) => get(next).saturating_sub(get(prev)),
            };
        }
        frame
    }
}

/// Windowed rates over the newest frames of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rates {
    /// Wall-clock span the window covers, in milliseconds.
    pub window_ms: u64,
    /// Finished trials per second.
    pub trials_per_sec: f64,
    /// Trial rounds per second (live, per-trial granularity).
    pub rounds_per_sec: f64,
    /// Exact fallbacks over ladder-resolved listeners in the window
    /// (0 when no far-field listeners were resolved).
    pub fallback_fraction: f64,
    /// Jammed rounds over engine rounds in the window (0 when no engine
    /// rounds were merged).
    pub jammer_fraction: f64,
}

/// The bounded delta recorder. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    capacity: usize,
    last: Option<TsSample>,
    frames: VecDeque<TsFrame>,
    evicted: u64,
}

impl TimeSeries {
    /// A recorder holding at most `capacity` frames (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TimeSeries {
            capacity: capacity.max(1),
            last: None,
            frames: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Feeds one snapshot. The first sample only establishes the baseline
    /// (no frame — there is nothing to delta against); every later sample
    /// appends one frame, evicting the oldest when the ring is full.
    /// Returns the frame it appended.
    pub fn record(&mut self, sample: TsSample) -> Option<TsFrame> {
        let frame = self.last.as_ref().map(|prev| TsFrame::delta(prev, &sample));
        self.last = Some(sample);
        if let Some(frame) = frame {
            if self.frames.len() == self.capacity {
                self.frames.pop_front();
                self.evicted += 1;
            }
            self.frames.push_back(frame);
        }
        frame
    }

    /// The stored frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &TsFrame> {
        self.frames.iter()
    }

    /// The newest frame, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&TsFrame> {
        self.frames.back()
    }

    /// Frames currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when no frame has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The construction-time ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames evicted to make room since construction.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Windowed rates over the newest `window` frames (fewer if the ring
    /// holds fewer). All-zero when the window is empty or spans zero
    /// milliseconds.
    #[must_use]
    pub fn rates(&self, window: usize) -> Rates {
        let skip = self.frames.len().saturating_sub(window);
        let mut dt_ms = 0u64;
        let (mut trials, mut rounds) = (0u64, 0u64);
        let (mut fallback, mut resolved) = (0u64, 0u64);
        let (mut jammed, mut engine) = (0u64, 0u64);
        for f in self.frames.iter().skip(skip) {
            dt_ms += f.dt_ms;
            trials += f.d_trials;
            rounds += f.d_trial_rounds;
            fallback += f.d_fallback_listeners;
            resolved += f.d_resolved_listeners;
            jammed += f.d_jammed_rounds;
            engine += f.d_engine_rounds;
        }
        let per_sec = |count: u64| {
            if dt_ms == 0 {
                0.0
            } else {
                count as f64 * 1000.0 / dt_ms as f64
            }
        };
        let fraction = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        Rates {
            window_ms: dt_ms,
            trials_per_sec: per_sec(trials),
            rounds_per_sec: per_sec(rounds),
            fallback_fraction: fraction(fallback, resolved),
            jammer_fraction: fraction(jammed, engine),
        }
    }
}

/// How a frame field derives from the samples it spans.
enum Source {
    /// The newer sample's value.
    Level(fn(&TsSample) -> u64),
    /// The saturating increase from the older sample to the newer one.
    Delta(fn(&TsSample) -> u64),
}
use Source::{Delta, Level};

/// One wire field of a frame: its JSON key, the field it names, and the
/// sample field it is computed from.
type FrameField = (&'static str, fn(&mut TsFrame) -> &mut u64, Source);

/// Every field of a frame, in wire order. One table drives the delta, the
/// writer and the parser.
#[rustfmt::skip]
const FRAME_FIELDS: [FrameField; 18] = [
    ("t_ms", |f| &mut f.t_ms, Level(|s| s.t_ms)),
    ("dt_ms", |f| &mut f.dt_ms, Delta(|s| s.t_ms)),
    ("d_trials", |f| &mut f.d_trials, Delta(|s| s.trials)),
    ("d_trial_rounds", |f| &mut f.d_trial_rounds, Delta(|s| s.trial_rounds)),
    ("d_retried", |f| &mut f.d_retried, Delta(|s| s.retried)),
    ("d_timed_out", |f| &mut f.d_timed_out, Delta(|s| s.timed_out)),
    ("d_jobs_completed", |f| &mut f.d_jobs_completed, Delta(|s| s.jobs_completed)),
    ("d_jobs_failed", |f| &mut f.d_jobs_failed, Delta(|s| s.jobs_failed)),
    ("d_engine_rounds", |f| &mut f.d_engine_rounds, Delta(|s| s.engine.rounds)),
    ("d_farfield_rounds", |f| &mut f.d_farfield_rounds, Delta(|s| s.engine.farfield_rounds)),
    ("d_hierarchical_rounds", |f| &mut f.d_hierarchical_rounds, Delta(|s| s.engine.hierarchical_rounds)),
    ("d_gain_cache_rounds", |f| &mut f.d_gain_cache_rounds, Delta(|s| s.engine.gain_cache_rounds)),
    ("d_exact_rounds", |f| &mut f.d_exact_rounds, Delta(|s| s.engine.exact_rounds)),
    ("d_jammed_rounds", |f| &mut f.d_jammed_rounds, Delta(|s| s.engine.jammed_rounds)),
    ("d_fallback_listeners", |f| &mut f.d_fallback_listeners, Delta(|s| s.engine.farfield.exact_fallbacks())),
    ("d_resolved_listeners", |f| &mut f.d_resolved_listeners, Delta(|s| s.engine.farfield.listeners_resolved())),
    ("queue_depth", |f| &mut f.queue_depth, Level(|s| s.queue_depth)),
    ("jobs_in_flight", |f| &mut f.jobs_in_flight, Level(|s| s.jobs_in_flight)),
];

/// Serializes one frame as a single JSON line (no trailing newline),
/// stable key order.
#[must_use]
pub fn frame_to_json(frame: &TsFrame) -> String {
    use std::fmt::Write as _;
    let mut frame = *frame;
    let mut s = String::with_capacity(FRAME_FIELDS.len() * 24);
    s.push('{');
    for (i, (key, field, _)) in FRAME_FIELDS.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{key}\":{}", field(&mut frame));
    }
    s.push('}');
    s
}

/// Parses the output of [`frame_to_json`]. Unknown keys are ignored
/// (streams stay readable across schema additions); missing keys are an
/// error.
///
/// # Errors
///
/// [`JsonlError::Parse`] on malformed JSON or a missing field.
pub fn frame_from_json(line: &str) -> Result<TsFrame, JsonlError> {
    let v = parse_json(line)?;
    let mut frame = TsFrame::default();
    for (key, field, _) in &FRAME_FIELDS {
        *field(&mut frame) =
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| JsonlError::Parse {
                    msg: format!("missing or non-integer {key:?}"),
                })?;
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_channel::FarFieldStats;

    fn sample(t_ms: u64, trials: u64, rounds: u64) -> TsSample {
        TsSample {
            t_ms,
            trials,
            trial_rounds: rounds,
            queue_depth: trials % 5,
            jobs_in_flight: 1,
            ..TsSample::default()
        }
    }

    #[test]
    fn first_sample_is_baseline_only() {
        let mut ts = TimeSeries::new(8);
        assert!(ts.record(sample(100, 3, 30)).is_none());
        assert!(ts.is_empty());
        let frame = ts.record(sample(200, 5, 55)).unwrap();
        assert_eq!(frame.dt_ms, 100);
        assert_eq!(frame.d_trials, 2);
        assert_eq!(frame.d_trial_rounds, 25);
        assert_eq!(frame.queue_depth, 0, "gauge carries the sampled value");
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut ts = TimeSeries::new(3);
        for i in 0..10u64 {
            ts.record(sample(i * 100, i, i * 7));
        }
        // 10 samples → 9 frames, ring holds the newest 3.
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.evicted(), 6);
        assert_eq!(ts.capacity(), 3);
        let ts_values: Vec<u64> = ts.frames().map(|f| f.t_ms).collect();
        assert_eq!(ts_values, vec![700, 800, 900]);
        assert_eq!(ts.latest().unwrap().t_ms, 900);
    }

    #[test]
    fn counter_reset_clamps_to_zero() {
        let mut ts = TimeSeries::new(4);
        ts.record(sample(0, 100, 1000));
        let frame = ts.record(sample(50, 2, 20)).unwrap();
        assert_eq!(frame.d_trials, 0, "reset reads as zero progress");
        assert_eq!(frame.d_trial_rounds, 0);
        assert_eq!(frame.dt_ms, 50);
    }

    #[test]
    fn rates_over_window() {
        let mut ts = TimeSeries::new(16);
        let mut s = TsSample::at(0);
        ts.record(s);
        // 4 frames, 500 ms each: 2 trials and 100 rounds per frame,
        // fallback 3/60, jammed 10/50 per frame.
        for i in 1..=4u64 {
            s.t_ms = i * 500;
            s.trials += 2;
            s.trial_rounds += 100;
            s.engine.farfield.far_rival_fallbacks += 3;
            s.engine.farfield.bracket_decisions += 57;
            s.engine.jammed_rounds += 10;
            s.engine.rounds += 50;
            ts.record(s);
        }
        let r = ts.rates(4);
        assert_eq!(r.window_ms, 2000);
        assert!((r.trials_per_sec - 4.0).abs() < 1e-12);
        assert!((r.rounds_per_sec - 200.0).abs() < 1e-12);
        assert!((r.fallback_fraction - 0.05).abs() < 1e-12);
        assert!((r.jammer_fraction - 0.2).abs() < 1e-12);
        // A window wider than the ring uses whatever is there.
        assert_eq!(ts.rates(100).window_ms, 2000);
        // Empty window → zeros.
        assert_eq!(TimeSeries::new(4).rates(8), Rates::default());
    }

    #[test]
    fn each_frame_field_derives_from_its_own_sample_field() {
        let next = TsSample {
            t_ms: 1000,
            trials: 2,
            trial_rounds: 3,
            retried: 4,
            timed_out: 5,
            jobs_completed: 6,
            jobs_failed: 7,
            engine: EngineCounters {
                rounds: 8,
                farfield_rounds: 9,
                hierarchical_rounds: 10,
                gain_cache_rounds: 11,
                exact_rounds: 12,
                jammed_rounds: 13,
                // 14 exact fallbacks among 15 ladder-resolved listeners.
                farfield: FarFieldStats {
                    far_rival_fallbacks: 14,
                    bracket_decisions: 1,
                    ..FarFieldStats::default()
                },
                ..EngineCounters::default()
            },
            queue_depth: 16,
            jobs_in_flight: 17,
        };
        let frame = TsFrame::delta(&TsSample::at(1), &next);
        let golden = "{\"t_ms\":1000,\"dt_ms\":999,\"d_trials\":2,\"d_trial_rounds\":3,\
            \"d_retried\":4,\"d_timed_out\":5,\"d_jobs_completed\":6,\"d_jobs_failed\":7,\
            \"d_engine_rounds\":8,\"d_farfield_rounds\":9,\"d_hierarchical_rounds\":10,\
            \"d_gain_cache_rounds\":11,\"d_exact_rounds\":12,\"d_jammed_rounds\":13,\
            \"d_fallback_listeners\":14,\"d_resolved_listeners\":15,\"queue_depth\":16,\
            \"jobs_in_flight\":17}";
        assert_eq!(frame_to_json(&frame), golden);
    }

    /// The wire bytes of a frame whose 18 fields are all distinct and
    /// nonzero: pins the key names, their order and their values.
    #[test]
    fn frame_json_golden_bytes() {
        let frame = TsFrame {
            t_ms: 101,
            dt_ms: 102,
            d_trials: 103,
            d_trial_rounds: 104,
            d_retried: 105,
            d_timed_out: 106,
            d_jobs_completed: 107,
            d_jobs_failed: 108,
            d_engine_rounds: 109,
            d_farfield_rounds: 110,
            d_hierarchical_rounds: 111,
            d_gain_cache_rounds: 112,
            d_exact_rounds: 113,
            d_jammed_rounds: 114,
            d_fallback_listeners: 115,
            d_resolved_listeners: 116,
            queue_depth: 117,
            jobs_in_flight: 118,
        };
        let golden = "{\"t_ms\":101,\"dt_ms\":102,\"d_trials\":103,\"d_trial_rounds\":104,\
            \"d_retried\":105,\"d_timed_out\":106,\"d_jobs_completed\":107,\"d_jobs_failed\":108,\
            \"d_engine_rounds\":109,\"d_farfield_rounds\":110,\"d_hierarchical_rounds\":111,\
            \"d_gain_cache_rounds\":112,\"d_exact_rounds\":113,\"d_jammed_rounds\":114,\
            \"d_fallback_listeners\":115,\"d_resolved_listeners\":116,\"queue_depth\":117,\
            \"jobs_in_flight\":118}";
        assert_eq!(frame_to_json(&frame), golden);
    }

    #[test]
    fn frame_json_round_trips_bit_exact() {
        // A frame with every field distinct, so a swapped key would show.
        let mut frame = TsFrame::default();
        let value = |i: usize| (i as u64 + 1) * 1001;
        for (i, (_, field, _)) in FRAME_FIELDS.iter().enumerate() {
            *field(&mut frame) = value(i);
        }
        for (i, (key, field, _)) in FRAME_FIELDS.iter().enumerate() {
            assert_eq!(*field(&mut frame), value(i), "{key} shares a field");
        }
        let line = frame_to_json(&frame);
        assert_eq!(frame_from_json(&line).unwrap(), frame);
        // Unknown keys are ignored; missing keys are an error.
        let with_extra = line.replacen('{', "{\"schema\":9,", 1);
        assert_eq!(frame_from_json(&with_extra).unwrap(), frame);
        assert!(frame_from_json("{\"t_ms\":1}").is_err());
        assert!(frame_from_json("nope").is_err());
    }

    #[test]
    fn frame_fields_are_read_exactly() {
        let line = frame_to_json(&TsFrame::default());
        let top = (1u64 << 53) - 1;
        let with_t = |value: &str| {
            frame_from_json(&line.replacen("\"t_ms\":0", &format!("\"t_ms\":{value}"), 1))
        };
        assert_eq!(with_t(&top.to_string()).unwrap().t_ms, top);
        for value in ["-1", "2.5", "9007199254740992", "1e300", "inf"] {
            assert!(with_t(value).is_err(), "t_ms {value}");
        }
    }
}
