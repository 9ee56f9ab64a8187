//! `stream`: the service mix replayed bare and watched, on one host.
//!
//! Replays [`ServiceMix::full`] through an in-process server in
//! interleaved pairs: one replay bare, one with the monitor ticking every
//! 100 ms and a live watch-everything subscriber draining the stream
//! ([`LoadgenObs::watched`]). Pairs alternate which side runs first, and
//! every queue directory is kept until the last replay is done, so no
//! replay pays for the previous one's directory removal in its fsyncs.
//!
//! Prints each replay, then each side's median jobs/s and p50/p95/p99
//! latency, and the median of the per-pair throughput ratios
//! (bare jobs/s ÷ watched jobs/s) against the ≤ 5% streaming budget.
//! The ratio is informational: the replays are fsync-bound, and on a
//! shared host single pairs spread wider than the budget.
//!
//! Fails on a replay error, a failed job, or a watched replay that
//! streamed no lines or recorded no frames (the comparison would be
//! vacuous).

use std::path::{Path, PathBuf};

use fading_bench::service::{run_loadgen_observed, LoadgenObs, ServiceMix, ServiceResult};

const PAIRS: usize = 5;
const MONITOR_MS: u64 = 100;
const BUDGET: f64 = 1.05;

/// Removes the bench's queue directories when dropped, also on a panic.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn replay(root: &Path, mix: &ServiceMix, watched: bool) -> ServiceResult {
    let obs = if watched {
        LoadgenObs::watched(MONITOR_MS)
    } else {
        LoadgenObs::default()
    };
    let side = if watched { "watched" } else { "bare" };
    let r = run_loadgen_observed(root, mix, &obs)
        .unwrap_or_else(|e| panic!("stream: {side} replay failed: {e}"));
    println!(
        "  {side:>7}: {} jobs in {:.3} jobs/s, latency ms p50 {:.1} p95 {:.1} p99 {:.1} \
         max {:.1}, {} lines, {} frames",
        r.jobs, r.jobs_per_sec, r.p50_ms, r.p95_ms, r.p99_ms, r.max_ms, r.watch_lines, r.ts_frames
    );
    assert_eq!(
        r.failed, 0,
        "stream: {} jobs failed in a {side} replay",
        r.failed
    );
    if watched {
        assert!(
            r.watch_lines > 0 && r.ts_frames > 0,
            "stream: watched replay streamed nothing ({} lines, {} frames); \
             the comparison would be vacuous",
            r.watch_lines,
            r.ts_frames
        );
    }
    r
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn summary(side: &str, runs: &[ServiceResult]) {
    let med = |f: fn(&ServiceResult) -> f64| median(runs.iter().map(f).collect());
    println!(
        "{side:>7} median: {:.3} jobs/s, latency ms p50 {:.1} p95 {:.1} p99 {:.1}",
        med(|r| r.jobs_per_sec),
        med(|r| r.p50_ms),
        med(|r| r.p95_ms),
        med(|r| r.p99_ms)
    );
}

fn main() {
    let mix = ServiceMix::full();
    let scratch =
        Scratch(std::env::temp_dir().join(format!("fading-stream-{}", std::process::id())));
    std::fs::remove_dir_all(&scratch.0).ok();
    println!(
        "stream: {} small + {} huge jobs, {} workers, {PAIRS} pairs",
        mix.small_jobs, mix.huge_jobs, mix.workers
    );
    let mut bare = Vec::with_capacity(PAIRS);
    let mut watched = Vec::with_capacity(PAIRS);
    let mut ratios = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        println!("pair {pair}:");
        let dir = |side: &str| scratch.0.join(format!("{pair}-{side}"));
        let (b, w) = if pair % 2 == 0 {
            let b = replay(&dir("bare"), &mix, false);
            (b, replay(&dir("watched"), &mix, true))
        } else {
            let w = replay(&dir("watched"), &mix, true);
            (replay(&dir("bare"), &mix, false), w)
        };
        ratios.push(b.jobs_per_sec / w.jobs_per_sec.max(1e-9));
        bare.push(b);
        watched.push(w);
    }
    summary("bare", &bare);
    summary("watched", &watched);
    let pairs: Vec<String> = ratios.iter().map(|r| format!("{r:.3}")).collect();
    let ratio = median(ratios);
    println!(
        "stream: pair ratios (bare / watched jobs/s) [{}], median x{ratio:.3}, {} the \
         {BUDGET:.2}x budget (informational)",
        pairs.join(", "),
        if ratio <= BUDGET { "within" } else { "over" }
    );
}
