//! Seeded, parallel Monte-Carlo trial running.
//!
//! The paper's guarantees are "with high probability"; empirically that
//! means running many independent seeded trials and summarizing the
//! distribution of rounds-to-resolution. Trials are embarrassingly
//! parallel: each seed is one task of an ordered parallel map
//! ([`fading_channel::exec::map_ordered`] over a [`StealPool`]), so results
//! come back in seed order and parallel and serial execution produce
//! byte-identical output.
//!
//! Two entry points:
//!
//! * [`run_trials`] / [`run_trials_with`] — the plain form: a borrowed
//!   closure, no supervision.
//! * [`TrialRunner`] — the fault-tolerant form: every trial runs under the
//!   [`supervisor`](crate::recover::supervisor), and a
//!   [`TrialManifest`] and a [`ProgressSink`] can be attached.

use std::sync::{Arc, Mutex, PoisonError};

use fading_channel::exec::map_ordered;
use serde::{Deserialize, Serialize};

use crate::obs::progress::{NoopProgress, ProgressSink};
use crate::pool::StealPool;
use crate::recover::{
    supervise_trial, FleetSummary, SnapshotError, SupervisorConfig, TrialFn, TrialManifest,
    TrialOutcome,
};
use crate::RunResult;

/// Runs `trials` independent trials with seeds `seed_base..seed_base+trials`,
/// using up to `threads` worker threads (clamped to at least 1), and returns
/// the results **in seed order**.
///
/// `f` maps a seed to a completed [`RunResult`]; it typically builds a fresh
/// `Simulation` per call. Because every trial derives all randomness from
/// its seed, the output is independent of the thread count.
///
/// # Example
///
/// ```
/// use fading_channel::{SinrChannel, SinrParams};
/// use fading_geom::Deployment;
/// use fading_sim::{montecarlo, Action, Protocol, Reception, Simulation};
/// use rand::{rngs::SmallRng, Rng};
///
/// #[derive(Debug)]
/// struct Simple { active: bool }
/// impl Protocol for Simple {
///     fn act(&mut self, _r: u64, rng: &mut SmallRng) -> Action {
///         if rng.gen_bool(0.25) { Action::Transmit } else { Action::Listen }
///     }
///     fn feedback(&mut self, _r: u64, rx: &Reception) {
///         if rx.is_message() { self.active = false; }
///     }
///     fn is_active(&self) -> bool { self.active }
///     fn name(&self) -> &'static str { "simple" }
/// }
///
/// let results = montecarlo::run_trials(8, 4, 100, |seed| {
///     let d = Deployment::uniform_square(16, 10.0, seed);
///     let ch = SinrChannel::new(SinrParams::default_single_hop());
///     Simulation::new(d, Box::new(ch), seed, |_| Box::new(Simple { active: true }))
///         .run_until_resolved(10_000)
/// });
/// let summary = montecarlo::Summary::from_results(&results);
/// assert_eq!(summary.trials, 8);
/// assert!(summary.success_rate > 0.9);
/// ```
pub fn run_trials<F>(trials: usize, threads: usize, seed_base: u64, f: F) -> Vec<RunResult>
where
    F: Fn(u64) -> RunResult + Sync,
{
    run_trials_with(trials, threads, seed_base, |seed| (f(seed), ()))
        .into_iter()
        .map(|(result, ())| result)
        .collect()
}

/// Like [`run_trials`], but each trial returns a [`RunResult`] **plus** an
/// arbitrary per-trial payload `T` (telemetry events, per-trial
/// measurements, …), still merged **in seed order** regardless of the
/// thread count.
///
/// This is how telemetry-collecting experiment drivers stay deterministic:
/// each worker recovers its own trial's sink inside `f` and hands the
/// events back as the payload, and the seed-ordered merge makes the
/// combined stream independent of scheduling.
pub fn run_trials_with<F, T>(trials: usize, threads: usize, seed_base: u64, f: F) -> Vec<(RunResult, T)>
where
    F: Fn(u64) -> (RunResult, T) + Sync,
    T: Send,
{
    map_ordered(&StealPool::new(threads), trials, |i| f(seed_base + i as u64))
}

/// The fault-tolerant trial runner: seeds `seed_base..seed_base+trials` on
/// up to `threads` workers, every trial supervised, outcomes returned **in
/// seed order** as a [`TrialRun`].
///
/// Three optional setters choose the rest:
///
/// * [`supervisor`](Self::supervisor) — the [`SupervisorConfig`] (default:
///   one same-seed retry, no timeout). Panics are always caught and
///   classified; with a timeout, a hung trial becomes a typed
///   [`TrialOutcome::TimedOut`] instead of wedging the pool. Without one,
///   supervision is the inline `catch_unwind` path, within the bench
///   gate's 2% budget.
/// * [`manifest`](Self::manifest) — a [`TrialManifest`] to resume from and
///   record into: seeds already on record are **skipped** (counted as
///   succeeded, no progress events), and each fresh success is appended
///   and synced *as it finishes*, so a crash or SIGKILL mid-batch loses at
///   most the trials in flight. Every successful result is then the
///   manifest's record, so a resumed run equals an uninterrupted one
///   (manifests do not persist traces; fleets run at
///   [`TraceLevel::None`](crate::TraceLevel::None)).
/// * [`progress`](Self::progress) — a [`ProgressSink`] receiving every
///   trial transition (started / retried / finished / timed-out /
///   poisoned) from the worker supervising that trial. The sink only
///   observes: a watched run is byte-identical to an unwatched one.
///
/// # Example
///
/// ```
/// use fading_channel::{SinrChannel, SinrParams};
/// use fading_geom::Deployment;
/// use fading_sim::montecarlo::TrialRunner;
/// use fading_sim::{Action, Protocol, Reception, Simulation};
/// # use rand::{rngs::SmallRng, Rng};
/// # #[derive(Debug)]
/// # struct Simple { active: bool }
/// # impl Protocol for Simple {
/// #     fn act(&mut self, _r: u64, rng: &mut SmallRng) -> Action {
/// #         if rng.gen_bool(0.25) { Action::Transmit } else { Action::Listen }
/// #     }
/// #     fn feedback(&mut self, _r: u64, rx: &Reception) {
/// #         if rx.is_message() { self.active = false; }
/// #     }
/// #     fn is_active(&self) -> bool { self.active }
/// #     fn name(&self) -> &'static str { "simple" }
/// # }
///
/// let run = TrialRunner::new(4, 2, 10)
///     .run(|seed| {
///         let d = Deployment::uniform_square(16, 10.0, seed);
///         let ch = SinrChannel::new(SinrParams::default_single_hop());
///         Simulation::new(d, Box::new(ch), seed, |_| Box::new(Simple { active: true }))
///             .run_until_resolved(10_000)
///     })
///     .expect("no manifest, so no manifest IO");
/// assert!(run.complete());
/// assert_eq!(run.summary.succeeded, 4);
/// assert_eq!(run.outcomes[0].seed(), 10);
/// ```
pub struct TrialRunner<'a> {
    trials: usize,
    threads: usize,
    seed_base: u64,
    supervisor: SupervisorConfig,
    manifest: Option<&'a mut TrialManifest>,
    progress: &'a dyn ProgressSink,
}

impl std::fmt::Debug for TrialRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrialRunner")
            .field("trials", &self.trials)
            .field("threads", &self.threads)
            .field("seed_base", &self.seed_base)
            .field("supervisor", &self.supervisor)
            .field("manifest", &self.manifest.as_ref().map(|m| m.path()))
            .finish_non_exhaustive()
    }
}

impl<'a> TrialRunner<'a> {
    /// A runner for `trials` seeds starting at `seed_base` on up to
    /// `threads` workers (clamped to at least 1), with the default
    /// supervisor, no manifest and no progress sink.
    #[must_use]
    pub fn new(trials: usize, threads: usize, seed_base: u64) -> Self {
        TrialRunner {
            trials,
            threads,
            seed_base,
            supervisor: SupervisorConfig::default(),
            manifest: None,
            progress: &NoopProgress,
        }
    }

    /// Supervises every trial with `cfg`.
    #[must_use]
    pub fn supervisor(mut self, cfg: SupervisorConfig) -> Self {
        self.supervisor = cfg;
        self
    }

    /// Resumes from and records into `manifest`.
    #[must_use]
    pub fn manifest(mut self, manifest: &'a mut TrialManifest) -> Self {
        self.manifest = Some(manifest);
        self
    }

    /// Delivers every trial transition to `sink`.
    #[must_use]
    pub fn progress(mut self, sink: &'a dyn ProgressSink) -> Self {
        self.progress = sink;
        self
    }

    /// Runs the batch: `f` maps a seed to a completed [`RunResult`].
    ///
    /// `f` must be `Send + Sync + 'static` because the watchdog path hands
    /// it to a detached thread.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when appending to the manifest fails (the
    /// first failure is latched and stops recording; in-flight trials
    /// still finish); [`SnapshotError::Corrupt`] if the manifest ends up
    /// missing a successful trial (cannot happen through this API).
    pub fn run<F>(self, f: F) -> Result<TrialRun, SnapshotError>
    where
        F: Fn(u64) -> RunResult + Send + Sync + 'static,
    {
        let TrialRunner {
            trials,
            threads,
            seed_base,
            supervisor,
            manifest,
            progress,
        } = self;
        let trial: Arc<TrialFn> = Arc::new(f);
        let pending: Vec<u64> = (0..trials as u64)
            .map(|i| seed_base + i)
            .filter(|&seed| !manifest.as_deref().is_some_and(|m| m.is_done(seed)))
            .collect();
        let resumed = (trials - pending.len()) as u64;
        // Workers compute trials in parallel but append under one lock, so
        // each manifest line lands intact. The first IO failure is latched;
        // later completions still compute but stop recording.
        let sink: Mutex<(Option<&mut TrialManifest>, Option<SnapshotError>)> =
            Mutex::new((manifest, None));
        let fresh = map_ordered(&StealPool::new(threads), pending.len(), |i| {
            let outcome = supervise_trial(&supervisor, pending[i], &trial, progress);
            if let Some(result) = outcome.result() {
                record(&sink, pending[i], result);
            }
            outcome
        });
        let (manifest, err) = sink.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = err {
            return Err(e);
        }

        let mut fresh = fresh.into_iter().peekable();
        let mut outcomes = Vec::with_capacity(trials);
        for seed in (0..trials as u64).map(|i| seed_base + i) {
            let outcome = match fresh.next_if(|o| o.seed() == seed) {
                // Manifest-backed successes report the manifest's record.
                Some(TrialOutcome::Succeeded { retries, .. }) if manifest.is_some() => {
                    TrialOutcome::Succeeded {
                        seed,
                        result: on_record(manifest.as_deref(), seed)?,
                        retries,
                    }
                }
                Some(outcome) => outcome,
                // Resumed: completed in an earlier incarnation.
                None => TrialOutcome::Succeeded {
                    seed,
                    result: on_record(manifest.as_deref(), seed)?,
                    retries: 0,
                },
            };
            outcomes.push(outcome);
        }
        let mut summary = FleetSummary::default();
        for outcome in &outcomes {
            summary.record(outcome);
        }
        Ok(TrialRun {
            outcomes,
            summary,
            resumed,
        })
    }
}

/// Appends one completed trial to the shared manifest, if there is one and
/// no earlier append failed (the first IO error is latched in the pair).
fn record(
    sink: &Mutex<(Option<&mut TrialManifest>, Option<SnapshotError>)>,
    seed: u64,
    result: &RunResult,
) {
    let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
    if let (Some(manifest), err @ None) = &mut *guard {
        if let Err(e) = manifest.record(seed, result) {
            *err = Some(e);
        }
    }
}

/// The manifest's record for `seed`.
fn on_record(manifest: Option<&TrialManifest>, seed: u64) -> Result<RunResult, SnapshotError> {
    manifest
        .and_then(|m| m.get(seed))
        .cloned()
        .ok_or_else(|| SnapshotError::Corrupt {
            detail: format!("manifest missing completed trial for seed {seed}"),
        })
}

/// The outcome of one [`TrialRunner`] batch: per-seed outcomes, the
/// supervision tally, and how many trials were resumed from a manifest
/// instead of re-run.
#[derive(Debug)]
pub struct TrialRun {
    /// Per-trial outcomes, ordered by seed (`seed_base + i`). Resumed seeds
    /// are [`TrialOutcome::Succeeded`] with zero retries.
    pub outcomes: Vec<TrialOutcome>,
    /// Supervision tally over **all** seeds; resumed trials count as
    /// succeeded (they completed in an earlier incarnation).
    pub summary: FleetSummary,
    /// How many trials were satisfied from the manifest without re-running.
    pub resumed: u64,
}

impl TrialRun {
    /// The successful results in seed order (panicked and timed-out trials
    /// are skipped).
    #[must_use]
    pub fn results(&self) -> Vec<&RunResult> {
        self.outcomes.iter().filter_map(TrialOutcome::result).collect()
    }

    /// `true` when every trial succeeded.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.outcomes.iter().all(TrialOutcome::is_success)
    }
}

/// Distribution summary of a batch of trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Total number of trials.
    pub trials: usize,
    /// Fraction of trials that resolved within their round budget.
    pub success_rate: f64,
    /// Mean rounds-to-resolution over the *resolved* trials.
    pub mean_rounds: f64,
    /// Sample standard deviation of rounds over the resolved trials.
    pub std_rounds: f64,
    /// Minimum rounds over the resolved trials.
    pub min_rounds: u64,
    /// Median rounds over the resolved trials.
    pub median_rounds: f64,
    /// 95th-percentile rounds over the resolved trials.
    pub p95_rounds: f64,
    /// Maximum rounds over the resolved trials.
    pub max_rounds: u64,
    /// Mean total transmissions (energy) per trial, over **all** trials
    /// (0.0 when summarizing raw round counts via [`Summary::from_rounds`]).
    pub mean_transmissions: f64,
}

impl Summary {
    /// Summarizes a batch. Unresolved trials count against
    /// [`Summary::success_rate`] but are excluded from the round statistics.
    ///
    /// Returns an all-zero summary for an empty batch.
    #[must_use]
    pub fn from_results(results: &[RunResult]) -> Self {
        let rounds: Vec<u64> = results.iter().filter_map(RunResult::resolved_at).collect();
        let mut summary = Self::from_rounds(&rounds, results.len());
        if !results.is_empty() {
            summary.mean_transmissions = results
                .iter()
                .map(|r| r.total_transmissions() as f64)
                .sum::<f64>()
                / results.len() as f64;
        }
        summary
    }

    /// Summarizes raw per-trial round counts (`rounds` holds only resolved
    /// trials; `trials` is the total attempted).
    #[must_use]
    pub fn from_rounds(rounds: &[u64], trials: usize) -> Self {
        if rounds.is_empty() {
            return Summary {
                trials,
                success_rate: 0.0,
                mean_rounds: 0.0,
                std_rounds: 0.0,
                min_rounds: 0,
                median_rounds: 0.0,
                p95_rounds: 0.0,
                max_rounds: 0,
                mean_transmissions: 0.0,
            };
        }
        let mut sorted = rounds.to_vec();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let mean = sorted.iter().map(|&r| r as f64).sum::<f64>() / n;
        let var = if sorted.len() > 1 {
            sorted
                .iter()
                .map(|&r| (r as f64 - mean).powi(2))
                .sum::<f64>()
                / (n - 1.0)
        } else {
            0.0
        };
        Summary {
            trials,
            success_rate: n / trials.max(1) as f64,
            mean_rounds: mean,
            std_rounds: var.sqrt(),
            min_rounds: sorted[0],
            median_rounds: percentile(&sorted, 50.0),
            p95_rounds: percentile(&sorted, 95.0),
            max_rounds: sorted.last().copied().unwrap_or_default(),
            mean_transmissions: 0.0,
        }
    }
}

/// Computes the interpolation coordinates for the `q`-th percentile of a
/// length-`len` sorted sample: `(lo, hi, frac)` such that the value is
/// `sorted[lo] * (1 - frac) + sorted[hi] * frac`.
fn percentile_coords(len: usize, q: f64) -> (usize, usize, f64) {
    assert!(len > 0, "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q), "q must be in [0, 100]");
    let pos = q / 100.0 * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    (lo, hi, pos - lo as f64)
}

/// Linear-interpolated percentile of a **sorted** slice (`q` in `[0, 100]`).
///
/// This is the workspace's **canonical** quantile: position
/// `q/100 · (len − 1)` with linear interpolation between the bracketing
/// order statistics (the "type 7" estimator). `fading_analysis::stats`
/// re-exports it so every crate computes medians and p95s identically.
/// (The deliberately *different* `hitting::WinDistribution::quantile` —
/// an upper empirical quantile over failure mass — is documented there.)
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 100]`.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    let (lo, hi, frac) = percentile_coords(sorted.len(), q);
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// [`percentile`] over a sorted `f64` slice (same canonical estimator).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 100]`.
#[must_use]
pub fn percentile_f64(sorted: &[f64], q: f64) -> f64 {
    let (lo, hi, frac) = percentile_coords(sorted.len(), q);
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Trace;

    fn result_with_rounds(rounds: Option<u64>) -> RunResult {
        RunResult::new(
            rounds,
            rounds.unwrap_or(100),
            8,
            1,
            None,
            0,
            Trace::default(),
        )
    }

    #[test]
    fn run_trials_is_in_seed_order_and_thread_invariant() {
        let f = |seed: u64| result_with_rounds(Some(seed + 1));
        let serial = run_trials(16, 1, 0, f);
        let parallel = run_trials(16, 8, 0, f);
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.resolved_at(), Some(i as u64 + 1));
            assert_eq!(a.resolved_at(), b.resolved_at());
        }
    }

    #[test]
    fn run_trials_applies_seed_base() {
        let results = run_trials(3, 2, 100, |seed| result_with_rounds(Some(seed)));
        let got: Vec<_> = results.iter().map(|r| r.resolved_at().unwrap()).collect();
        assert_eq!(got, vec![100, 101, 102]);
    }

    #[test]
    fn summary_statistics() {
        let results: Vec<RunResult> = [1u64, 2, 3, 4, 100]
            .iter()
            .map(|&r| result_with_rounds(Some(r)))
            .chain(std::iter::once(result_with_rounds(None)))
            .collect();
        let s = Summary::from_results(&results);
        assert_eq!(s.trials, 6);
        assert!((s.success_rate - 5.0 / 6.0).abs() < 1e-12);
        assert!((s.mean_rounds - 22.0).abs() < 1e-12);
        assert_eq!(s.min_rounds, 1);
        assert_eq!(s.max_rounds, 100);
        assert_eq!(s.median_rounds, 3.0);
    }

    #[test]
    fn summary_of_empty_batch() {
        let s = Summary::from_results(&[]);
        assert_eq!(s.trials, 0);
        assert_eq!(s.success_rate, 0.0);
        assert_eq!(s.mean_rounds, 0.0);
    }

    #[test]
    fn summary_single_trial_has_zero_std() {
        let s = Summary::from_results(&[result_with_rounds(Some(7))]);
        assert_eq!(s.std_rounds, 0.0);
        assert_eq!(s.median_rounds, 7.0);
        assert_eq!(s.p95_rounds, 7.0);
    }

    fn result_with_transmissions(rounds: Option<u64>, transmissions: u64) -> RunResult {
        RunResult::new(
            rounds,
            rounds.unwrap_or(100),
            8,
            1,
            None,
            transmissions,
            Trace::default(),
        )
    }

    #[test]
    fn all_unresolved_batch_has_zero_success_but_counts_trials() {
        let results: Vec<RunResult> = (0..4).map(|_| result_with_rounds(None)).collect();
        let s = Summary::from_results(&results);
        assert_eq!(s.trials, 4);
        assert_eq!(s.success_rate, 0.0);
        // No resolved trials: every round statistic is the zero sentinel.
        assert_eq!(s.mean_rounds, 0.0);
        assert_eq!(s.std_rounds, 0.0);
        assert_eq!(s.min_rounds, 0);
        assert_eq!(s.median_rounds, 0.0);
        assert_eq!(s.p95_rounds, 0.0);
        assert_eq!(s.max_rounds, 0);
    }

    #[test]
    fn all_unresolved_batch_still_averages_transmissions() {
        // Energy is spent whether or not the run resolves, so
        // mean_transmissions covers *all* trials — including a batch with
        // zero successes.
        let results = vec![
            result_with_transmissions(None, 10),
            result_with_transmissions(None, 30),
        ];
        let s = Summary::from_results(&results);
        assert_eq!(s.success_rate, 0.0);
        assert!((s.mean_transmissions - 20.0).abs() < 1e-12);
    }

    #[test]
    fn p95_on_two_element_slice_interpolates() {
        // pos = 0.95 · (2 − 1): 5% of the low value, 95% of the high one.
        assert!((percentile(&[10, 20], 95.0) - 19.5).abs() < 1e-12);
        let s = Summary::from_rounds(&[10, 20], 2);
        assert!((s.p95_rounds - 19.5).abs() < 1e-12);
        assert!((s.median_rounds - 15.0).abs() < 1e-12);
    }

    #[test]
    fn mean_transmissions_over_mixed_resolved_and_unresolved() {
        // Round statistics come from resolved trials only;
        // mean_transmissions averages over the whole batch.
        let results = vec![
            result_with_transmissions(Some(5), 12),
            result_with_transmissions(None, 40),
            result_with_transmissions(Some(7), 8),
        ];
        let s = Summary::from_results(&results);
        assert_eq!(s.trials, 3);
        assert!((s.success_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_rounds - 6.0).abs() < 1e-12);
        assert!((s.mean_transmissions - 20.0).abs() < 1e-12);
    }

    #[test]
    fn from_rounds_leaves_transmissions_zero() {
        let s = Summary::from_rounds(&[3, 4, 5], 3);
        assert_eq!(s.mean_transmissions, 0.0);
        assert_eq!(s.success_rate, 1.0);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [10u64, 20, 30, 40];
        assert_eq!(percentile(&sorted, 0.0), 10.0);
        assert_eq!(percentile(&sorted, 100.0), 40.0);
        assert_eq!(percentile(&sorted, 50.0), 25.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "must be in")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1], 101.0);
    }

    #[test]
    fn percentile_f64_agrees_with_u64_version() {
        for sorted in [vec![7u64], vec![1, 2], vec![3, 3, 9], vec![1, 2, 2, 2, 10]] {
            let as_f64: Vec<f64> = sorted.iter().map(|&v| v as f64).collect();
            for q in [0.0, 25.0, 50.0, 90.0, 95.0, 100.0] {
                assert_eq!(percentile(&sorted, q), percentile_f64(&as_f64, q), "{sorted:?} q={q}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_f64_rejects_empty() {
        let _ = percentile_f64(&[], 50.0);
    }

    /// A clean per-test manifest path under the temp dir.
    fn manifest_path(dir: &str, file: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn trial_runner_isolates_panics_and_keeps_seed_order() {
        let run = TrialRunner::new(8, 4, 10)
            .run(|seed| {
                assert!(seed != 13, "injected poison for seed 13");
                result_with_rounds(Some(seed))
            })
            .unwrap();
        assert_eq!(run.outcomes.len(), 8);
        assert_eq!(run.summary.trials, 8);
        assert_eq!(run.summary.succeeded, 7);
        assert_eq!(run.summary.poisoned, 1);
        assert_eq!(run.summary.timed_out, 0);
        // Default config retries a panicked trial once before poisoning.
        assert_eq!(run.summary.retried, 1);
        for (i, outcome) in run.outcomes.iter().enumerate() {
            assert_eq!(outcome.seed(), 10 + i as u64, "outcomes stay seed-ordered");
            assert_eq!(outcome.is_success(), outcome.seed() != 13);
        }
        let results = run.results();
        assert_eq!(results.len(), 7);
        assert_eq!(results[0].resolved_at(), Some(10));
    }

    #[test]
    fn trial_runner_matches_unsupervised_results() {
        let f = |seed: u64| result_with_rounds(Some(seed * 3 + 1));
        let plain = run_trials(6, 2, 40, f);
        let supervised = TrialRunner::new(6, 2, 40)
            .supervisor(SupervisorConfig::default())
            .run(f)
            .unwrap();
        let resumed: Vec<&RunResult> = supervised.results();
        assert_eq!(resumed.len(), plain.len());
        for (a, b) in plain.iter().zip(resumed) {
            assert_eq!(a, b, "supervision must not change a healthy trial");
        }
    }

    #[test]
    fn manifest_run_skips_completed_trials_on_resume() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let path = manifest_path("fading-sim-montecarlo-test", "resume.jsonl");
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = |calls: &Arc<AtomicUsize>| {
            let calls = Arc::clone(calls);
            move |seed: u64| {
                calls.fetch_add(1, Ordering::SeqCst);
                result_with_rounds(Some(seed + 1))
            }
        };

        // First pass: only 3 of 6 trials "complete" before the crash.
        let mut first = crate::TrialManifest::open(&path).unwrap();
        let partial = TrialRunner::new(3, 2, 50)
            .manifest(&mut first)
            .run(counted(&calls))
            .unwrap();
        assert_eq!(partial.results().len(), 3);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        drop(first);

        // Resume: the full batch only runs the 3 missing seeds.
        let mut resumed = crate::TrialManifest::open(&path).unwrap();
        assert_eq!(resumed.completed(), 3);
        let full = TrialRunner::new(6, 2, 50)
            .manifest(&mut resumed)
            .run(counted(&calls))
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 6, "completed seeds are not re-run");
        let full = full.results();
        assert_eq!(full.len(), 6);
        for (i, r) in full.iter().enumerate() {
            assert_eq!(r.resolved_at(), Some(50 + i as u64 + 1), "seed order preserved");
        }

        // A fresh uninterrupted run over a clean manifest produces the
        // identical result vector.
        let clean = manifest_path("fading-sim-montecarlo-test", "fresh.jsonl");
        let mut fresh = crate::TrialManifest::open(&clean).unwrap();
        let uninterrupted = TrialRunner::new(6, 2, 50)
            .manifest(&mut fresh)
            .run(counted(&calls))
            .unwrap();
        assert_eq!(uninterrupted.results(), full, "resumed == uninterrupted");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&clean).ok();
    }

    #[test]
    fn supervised_manifest_run_resumes_and_tallies_failures() {
        let path = manifest_path("fading-sim-supmanifest-test", "fleet.jsonl");
        let cfg = SupervisorConfig {
            max_retries: 0,
            timeout: None,
        };
        // Seed 72 always panics; everything else succeeds.
        let f = |seed: u64| {
            assert_ne!(seed, 72, "poisoned trial");
            result_with_rounds(Some(seed + 1))
        };

        let mut first = crate::TrialManifest::open(&path).unwrap();
        let run = TrialRunner::new(4, 2, 70)
            .supervisor(cfg)
            .manifest(&mut first)
            .run(f)
            .unwrap();
        assert_eq!(run.summary.trials, 4);
        assert_eq!(run.summary.succeeded, 3);
        assert_eq!(run.summary.poisoned, 1);
        assert_eq!(run.resumed, 0);
        assert!(!run.complete());
        assert!(run.outcomes[2].result().is_none(), "poisoned seed has no result");
        drop(first);

        // Resume with a healthy trial fn: only the poisoned seed re-runs
        // (`resumed` counts the seeds satisfied straight from the manifest).
        let mut second = crate::TrialManifest::open(&path).unwrap();
        let run2 = TrialRunner::new(4, 2, 70)
            .supervisor(cfg)
            .manifest(&mut second)
            .run(|seed: u64| result_with_rounds(Some(seed + 1)))
            .unwrap();
        assert_eq!(run2.resumed, 3);
        assert_eq!(run2.summary.succeeded, 4);
        assert!(run2.complete());
        let rounds: Vec<_> = run2
            .results()
            .iter()
            .map(|r| r.resolved_at().unwrap())
            .collect();
        assert_eq!(rounds, vec![71, 72, 73, 74], "seed order preserved");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn observed_runner_matches_unobserved_and_orders_events_per_seed() {
        use crate::obs::progress::{MemoryProgress, ProgressEvent};
        let f = |seed: u64| result_with_rounds(Some(seed + 2));
        let cfg = SupervisorConfig::default();
        let plain = TrialRunner::new(10, 4, 30).supervisor(cfg).run(f).unwrap();
        let sink = MemoryProgress::new();
        let observed = TrialRunner::new(10, 4, 30)
            .supervisor(cfg)
            .progress(&sink)
            .run(f)
            .unwrap();
        assert_eq!(plain.summary, observed.summary);
        for (a, b) in plain.outcomes.iter().zip(&observed.outcomes) {
            assert_eq!(a.seed(), b.seed());
            assert_eq!(a.result(), b.result(), "a sink must not perturb results");
        }
        let events = sink.take();
        assert_eq!(events.len(), 20, "started + finished per trial");
        for seed in 30..40u64 {
            let per_seed: Vec<&ProgressEvent> =
                events.iter().filter(|e| e.seed() == seed).collect();
            assert_eq!(per_seed.len(), 2);
            assert!(matches!(per_seed[0], ProgressEvent::TrialStarted { .. }));
            assert!(matches!(
                per_seed[1],
                ProgressEvent::TrialFinished { rounds, resolved: true, retries: 0, .. }
                    if *rounds == seed + 2
            ));
        }
    }

    #[test]
    fn observed_manifest_runner_skips_events_for_resumed_seeds() {
        use crate::obs::progress::MemoryProgress;
        let path = manifest_path("fading-sim-observed-manifest-test", "fleet.jsonl");
        let cfg = SupervisorConfig::default();
        let f = |seed: u64| result_with_rounds(Some(seed + 1));

        let mut first = crate::TrialManifest::open(&path).unwrap();
        let sink = MemoryProgress::new();
        let run = TrialRunner::new(3, 2, 90)
            .supervisor(cfg)
            .manifest(&mut first)
            .progress(&sink)
            .run(f)
            .unwrap();
        assert!(run.complete());
        assert_eq!(sink.take().len(), 6);
        drop(first);

        // Resume over the same manifest: all 5 seeds satisfied means only
        // the 2 fresh ones emit events.
        let mut second = crate::TrialManifest::open(&path).unwrap();
        let run2 = TrialRunner::new(5, 2, 90)
            .supervisor(cfg)
            .manifest(&mut second)
            .progress(&sink)
            .run(f)
            .unwrap();
        assert_eq!(run2.resumed, 3);
        let events = sink.take();
        assert_eq!(events.len(), 4, "resumed seeds are silent");
        assert!(events.iter().all(|e| e.seed() >= 93));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_trials_with_carries_payloads_in_seed_order() {
        let f = |seed: u64| (result_with_rounds(Some(seed + 1)), format!("payload-{seed}"));
        let serial = run_trials_with(12, 1, 5, f);
        let parallel = run_trials_with(12, 8, 5, f);
        assert_eq!(serial.len(), 12);
        for (i, ((ra, pa), (rb, pb))) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(ra.resolved_at(), Some(5 + i as u64 + 1));
            assert_eq!(pa, &format!("payload-{}", 5 + i as u64));
            assert_eq!((ra, pa), (rb, pb), "thread count must not affect payload order");
        }
    }
}
