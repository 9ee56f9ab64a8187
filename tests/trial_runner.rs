//! Byte-identity of the Monte-Carlo runners: the plain `run_trials` and the
//! supervised `TrialRunner` produce the same `trial_line` bytes at any
//! thread count, and a manifest run stopped part-way and resumed from disk
//! produces the same bytes as an uninterrupted one.

use std::sync::Arc;

use fading::prelude::*;
use fading::sim::montecarlo::{run_trials, TrialRun, TrialRunner};
use fading::sim::obs::{MemoryProgress, ProgressEvent};
use fading::sim::recover::{trial_line, TrialManifest};

const N: usize = 64;
const TRIALS: usize = 12;
const SEED_BASE: u64 = 300;
const MAX_ROUNDS: u64 = 100_000;

fn scenario() -> Arc<Scenario> {
    let d = Deployment::uniform_density(N, 0.25, 9);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    Arc::new(
        Scenario::builder()
            .deployment(d)
            .sinr(params)
            .protocol(ProtocolKind::fkn_default())
            .build()
            .expect("valid scenario"),
    )
}

fn trial_fn(s: &Arc<Scenario>) -> impl Fn(u64) -> RunResult + Send + Sync + 'static {
    let s = Arc::clone(s);
    move |seed| s.simulation_with_seed(seed).run_until_resolved(MAX_ROUNDS)
}

/// The concatenated `trial_line`s of a seed-ordered batch.
fn lines<'a>(results: impl IntoIterator<Item = (u64, &'a RunResult)>) -> String {
    results
        .into_iter()
        .map(|(seed, r)| trial_line(seed, r) + "\n")
        .collect()
}

fn run_lines(run: &TrialRun) -> String {
    assert!(run.complete(), "every trial succeeds: {:?}", run.summary);
    lines(
        run.outcomes
            .iter()
            .filter_map(|o| o.result().map(|r| (o.seed(), r))),
    )
}

fn plain_lines(s: &Arc<Scenario>, threads: usize) -> String {
    let results = run_trials(TRIALS, threads, SEED_BASE, trial_fn(s));
    lines((SEED_BASE..).zip(&results))
}

/// Asserts `events` is exactly started → finished for each of `seeds`.
fn assert_started_then_finished(events: &[ProgressEvent], seeds: std::ops::Range<u64>) {
    assert_eq!(
        events.len(),
        2 * (seeds.end - seeds.start) as usize,
        "{events:?}"
    );
    for seed in seeds {
        let per_seed: Vec<&ProgressEvent> = events.iter().filter(|e| e.seed() == seed).collect();
        assert!(
            matches!(
                per_seed[..],
                [
                    ProgressEvent::TrialStarted { .. },
                    ProgressEvent::TrialFinished { retries: 0, .. }
                ]
            ),
            "seed {seed}: {per_seed:?}"
        );
    }
}

#[test]
fn runners_agree_byte_for_byte_across_threads_and_resume() {
    let s = scenario();
    let reference = plain_lines(&s, 1);
    assert_eq!(reference.lines().count(), TRIALS);
    assert_eq!(plain_lines(&s, 4), reference, "run_trials at 4 threads");

    for threads in [1, 4] {
        let run = TrialRunner::new(TRIALS, threads, SEED_BASE)
            .run(trial_fn(&s))
            .expect("no manifest");
        assert_eq!(
            run_lines(&run),
            reference,
            "TrialRunner at {threads} threads"
        );
    }

    // A manifest run stopped after 5 seeds, reopened from disk and resumed.
    let dir = std::env::temp_dir().join(format!("fading-trial-runner-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("manifest.jsonl");
    std::fs::remove_file(&path).ok();
    let stopped_after = 5;
    let sink = MemoryProgress::new();
    let mut manifest = TrialManifest::open(&path).expect("open manifest");
    let first = TrialRunner::new(stopped_after, 4, SEED_BASE)
        .manifest(&mut manifest)
        .progress(&sink)
        .run(trial_fn(&s))
        .expect("first pass");
    assert_eq!(first.resumed, 0);
    assert_started_then_finished(&sink.take(), SEED_BASE..SEED_BASE + stopped_after as u64);
    drop(manifest);

    let mut manifest = TrialManifest::open(&path).expect("reopen manifest");
    assert_eq!(manifest.completed(), stopped_after);
    let resumed = TrialRunner::new(TRIALS, 4, SEED_BASE)
        .manifest(&mut manifest)
        .progress(&sink)
        .run(trial_fn(&s))
        .expect("resumed pass");
    assert_eq!(resumed.resumed, stopped_after as u64);
    assert_eq!(resumed.summary.succeeded, TRIALS as u64);
    // Resumed seeds are silent; each fresh one is started → finished.
    assert_started_then_finished(
        &sink.take(),
        SEED_BASE + stopped_after as u64..SEED_BASE + TRIALS as u64,
    );
    assert_eq!(run_lines(&resumed), reference, "resumed manifest run");
    std::fs::remove_dir_all(&dir).ok();
}
