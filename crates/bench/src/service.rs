//! The service-mix replay behind the `stream` bench.
//!
//! A [`ServiceMix`] describes a replayable workload — many small-n jobs
//! (the latency-sensitive bulk) plus a few tile-tree-tier huge-n jobs
//! (the head-of-line-blocking stress) — and [`run_loadgen_observed`]
//! replays it against an in-process [`Server`], recording each job's
//! submit→complete latency, optionally with the monitor and a live watch
//! subscriber attached ([`LoadgenObs`]).

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fading_cr::jobspec::JobSpec;
use fading_cr::sim::montecarlo::percentile_f64;
use fading_server::{ExitPolicy, MonitorConfig, Server, ServerConfig, Subscription};

/// How long [`run_loadgen_observed`] waits for the fleet before declaring a hang.
const LOADGEN_DEADLINE: Duration = Duration::from_secs(900);

/// A replayable workload mix.
#[derive(Debug, Clone)]
pub struct ServiceMix {
    /// Count of small-n jobs.
    pub small_jobs: usize,
    /// Node counts the small jobs cycle through.
    pub small_ns: Vec<usize>,
    /// Trials per small job.
    pub small_trials: usize,
    /// Round cap per small trial (small jobs run to resolution).
    pub small_max_rounds: u64,
    /// Count of huge-n jobs (tile-tree engine tier).
    pub huge_jobs: usize,
    /// Node count of the huge jobs.
    pub huge_n: usize,
    /// Trials per huge job.
    pub huge_trials: usize,
    /// Round cap per huge trial (huge jobs are capped, not resolved —
    /// the replay times engine throughput, not protocol luck).
    pub huge_max_rounds: u64,
    /// Job workers in the server.
    pub workers: usize,
}

impl ServiceMix {
    /// The measured mix: a few hundred small jobs plus two tile-tree-tier
    /// stragglers.
    #[must_use]
    pub fn full() -> Self {
        ServiceMix {
            small_jobs: 240,
            small_ns: vec![32, 64, 96, 128, 160, 192],
            small_trials: 8,
            small_max_rounds: 20_000,
            huge_jobs: 2,
            huge_n: 16384,
            huge_trials: 2,
            huge_max_rounds: 150,
            workers: 2,
        }
    }

    /// Expands the mix into concrete job specs. Ids are zero-padded so
    /// queue claiming order matches submission order; huge jobs are
    /// interleaved at the front third to exercise head-of-line behavior.
    #[must_use]
    pub fn specs(&self) -> Vec<JobSpec> {
        let mut specs = Vec::with_capacity(self.small_jobs + self.huge_jobs);
        for i in 0..self.small_jobs {
            let mut spec = JobSpec::example(&format!("lg-{i:05}-small"));
            spec.n = self.small_ns[i % self.small_ns.len().max(1)];
            spec.trials = self.small_trials;
            spec.deploy_seed = 7 + i as u64;
            spec.seed_base = 1 + i as u64;
            spec.max_rounds = self.small_max_rounds;
            specs.push(spec);
        }
        for i in 0..self.huge_jobs {
            // Sorts between the small jobs (zero-padded prefix), so a huge
            // job is claimed while small jobs still queue behind it.
            let slot = (i + 1) * self.small_jobs / (self.huge_jobs + 1).max(1);
            let mut spec = JobSpec::example(&format!("lg-{slot:05}-z-huge{i}"));
            spec.n = self.huge_n;
            spec.trials = self.huge_trials;
            spec.deploy_seed = 1000 + i as u64;
            spec.seed_base = 5000 + i as u64;
            spec.max_rounds = self.huge_max_rounds;
            specs.push(spec);
        }
        specs
    }
}

/// Observability attachments for a service-mix replay: the monitor recording
/// time-series frames, and/or a live watch subscriber draining the event
/// stream while the fleet runs (what the `stream` bench pays for on its
/// watched side).
#[derive(Debug, Clone, Default)]
pub struct LoadgenObs {
    /// Run the server monitor at this interval and capture its frames.
    pub monitor_ms: Option<u64>,
    /// Attach a watch-everything subscriber drained by a live thread.
    pub subscriber: bool,
}

impl LoadgenObs {
    /// Monitor plus a draining subscriber — the fully-watched replay.
    #[must_use]
    pub fn watched(monitor_ms: u64) -> Self {
        LoadgenObs {
            monitor_ms: Some(monitor_ms),
            subscriber: true,
        }
    }
}

/// What one service-mix replay measured.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// Jobs that completed (done or failed).
    pub jobs: usize,
    /// Jobs that retired into `failed/`.
    pub failed: usize,
    /// Jobs per second of wall time, submit-of-first to
    /// completion-of-last.
    pub jobs_per_sec: f64,
    /// Median submit→complete latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Worst-case latency.
    pub max_ms: f64,
    /// Time-series frames the monitor recorded (0 when it didn't run).
    pub ts_frames: usize,
    /// Lines the attached subscriber drained (0 when none attached).
    pub watch_lines: usize,
}

/// Replays `mix` against a fresh in-process server rooted at `root`,
/// recording per-job submit→complete latency. `obs` optionally starts
/// the server monitor (counting its time-series frames into the result)
/// and drains a live watch subscriber for the whole replay — the measured
/// throughput then includes the full streaming cost.
///
/// # Errors
///
/// Server/queue IO failures, or the fleet not finishing inside the
/// harness deadline.
pub fn run_loadgen_observed(
    root: &Path,
    mix: &ServiceMix,
    obs: &LoadgenObs,
) -> Result<ServiceResult, String> {
    let cfg = ServerConfig {
        workers: mix.workers,
        ..ServerConfig::default()
    };
    let server = Server::open(root, cfg).map_err(|e| format!("open server: {e}"))?;
    if let Some(ms) = obs.monitor_ms {
        server.start_monitor(MonitorConfig {
            interval: Duration::from_millis(ms.max(10)),
            ..MonitorConfig::default()
        });
    }
    // The draining subscriber lives on its own thread so the stream is
    // consumed at realistic pace (bounded queues never back up) while the
    // main thread keeps polling job completion.
    let drainer = obs.subscriber.then(|| {
        let sub = server.hub().subscribe(Subscription::watch_all());
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut lines = 0usize;
            loop {
                match sub.recv_timeout(Duration::from_millis(20)) {
                    Some(_) => lines += 1,
                    None if flag.load(Ordering::Relaxed) => break lines,
                    None => {}
                }
            }
        });
        (stop, handle)
    });
    let specs = mix.specs();

    let started = Instant::now();
    let mut pending: Vec<(String, Instant)> = Vec::with_capacity(specs.len());
    for spec in &specs {
        server
            .queue()
            .submit(spec)
            .map_err(|e| format!("submit {}: {e}", spec.id))?;
        server.metrics().record_submitted();
        pending.push((spec.id.clone(), Instant::now()));
    }

    let worker = {
        let server = server.clone();
        std::thread::spawn(move || server.run(ExitPolicy::drain()))
    };

    let mut latencies_ms: Vec<f64> = Vec::with_capacity(pending.len());
    let mut failed = 0usize;
    while !pending.is_empty() {
        if started.elapsed() > LOADGEN_DEADLINE {
            return Err(format!(
                "loadgen deadline exceeded with {} jobs outstanding",
                pending.len()
            ));
        }
        pending.retain(|(id, submitted)| {
            let done = server.queue().is_done(id);
            let failed_now = !done && server.queue().is_failed(id);
            if done || failed_now {
                latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                if failed_now {
                    failed += 1;
                }
                false
            } else {
                true
            }
        });
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    worker
        .join()
        .map_err(|_| "server worker panicked".to_string())?;

    let watch_lines = drainer.map_or(0, |(stop, handle)| {
        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap_or(0)
    });
    let ts_frames = if obs.monitor_ms.is_some() {
        // The monitor keeps ticking after the drain; give it until one
        // more interval has passed so even a sub-interval replay records
        // at least one frame, then freeze the ring.
        let wait = Instant::now() + Duration::from_millis(obs.monitor_ms.unwrap_or(0).max(10) * 2);
        while server.timeseries_frames().is_empty() && Instant::now() < wait {
            std::thread::sleep(Duration::from_millis(2));
        }
        server.stop_monitor();
        server.timeseries_frames().len()
    } else {
        0
    };

    latencies_ms.sort_by(f64::total_cmp);
    let jobs = latencies_ms.len();
    Ok(ServiceResult {
        jobs,
        failed,
        jobs_per_sec: jobs as f64 / elapsed_secs.max(1e-9),
        p50_ms: percentile_f64(&latencies_ms, 0.50),
        p95_ms: percentile_f64(&latencies_ms, 0.95),
        p99_ms: percentile_f64(&latencies_ms, 0.99),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        ts_frames,
        watch_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_expands_to_unique_ordered_specs() {
        let mix = ServiceMix::full();
        let specs = mix.specs();
        assert_eq!(specs.len(), mix.small_jobs + mix.huge_jobs);
        let mut ids: Vec<&str> = specs.iter().map(|s| s.id.as_str()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "job ids must be unique");
        for spec in &specs {
            spec.validate().expect("mix specs must validate");
        }
        assert!(specs.iter().any(|s| s.n == mix.huge_n));
    }

    #[test]
    fn loadgen_replays_a_tiny_mix() {
        let root = std::env::temp_dir()
            .join("fading-loadgen-test")
            .join(format!("tiny-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mix = ServiceMix {
            small_jobs: 4,
            small_ns: vec![32, 48],
            small_trials: 1,
            small_max_rounds: 20_000,
            huge_jobs: 0,
            huge_n: 4096,
            huge_trials: 1,
            huge_max_rounds: 10,
            workers: 2,
        };
        let result = run_loadgen_observed(&root, &mix, &LoadgenObs::default()).unwrap();
        assert_eq!(result.jobs, 4);
        assert_eq!(result.failed, 0);
        assert!(result.jobs_per_sec > 0.0);
        assert!(result.p50_ms <= result.p95_ms && result.p95_ms <= result.p99_ms);
        assert!(result.p99_ms <= result.max_ms);
        assert_eq!(
            (result.ts_frames, result.watch_lines),
            (0, 0),
            "bare replays must not record obs artifacts"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn observed_loadgen_captures_frames_and_drains_the_stream() {
        let root = std::env::temp_dir()
            .join("fading-loadgen-test")
            .join(format!("observed-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mix = ServiceMix {
            small_jobs: 3,
            small_ns: vec![32, 64],
            small_trials: 2,
            small_max_rounds: 20_000,
            huge_jobs: 0,
            huge_n: 4096,
            huge_trials: 1,
            huge_max_rounds: 10,
            workers: 2,
        };
        let result = run_loadgen_observed(&root, &mix, &LoadgenObs::watched(10)).unwrap();
        assert_eq!(result.jobs, 3);
        assert_eq!(result.failed, 0);
        assert!(result.ts_frames > 0, "monitor recorded no frames");
        // 3 × (job_started + job_done) + 3 × 2 trials × (started + done),
        // plus whatever frames the subscriber caught.
        assert!(
            result.watch_lines >= 6 + 12,
            "subscriber drained only {} lines",
            result.watch_lines
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
