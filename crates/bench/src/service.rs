//! The service-throughput harness behind the `loadgen` binary and
//! `bench-gate --service`.
//!
//! A [`ServiceMix`] describes a replayable workload — many small-n jobs
//! (the latency-sensitive bulk) plus a few far-field-tier huge-n jobs
//! (the head-of-line-blocking stress) — and [`run_loadgen`] replays it
//! against an in-process [`Server`], recording each job's
//! submit→complete latency. The result is rendered into the committed
//! `BENCH_service.json` schema; [`parse_service_baseline`] and
//! [`judge_service`] implement the regression comparison `bench-gate
//! --service` runs against it: a throughput drop or a p95 latency blow-up
//! beyond the threshold fails the gate (improvements never do).

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fading_cr::jobspec::JobSpec;
use fading_cr::sim::montecarlo::percentile_f64;
use fading_cr::sim::obs::timeseries::frame_to_json;
use fading_cr::sim::telemetry::jsonl::{parse_json, JsonValue};
use fading_server::{ExitPolicy, MonitorConfig, Server, ServerConfig, Subscription};

/// How long [`run_loadgen`] waits for the fleet before declaring a hang.
const LOADGEN_DEADLINE: Duration = Duration::from_secs(900);

/// A replayable workload mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMix {
    /// Count of small-n jobs.
    pub small_jobs: usize,
    /// Node counts the small jobs cycle through.
    pub small_ns: Vec<usize>,
    /// Trials per small job.
    pub small_trials: usize,
    /// Round cap per small trial (small jobs run to resolution).
    pub small_max_rounds: u64,
    /// Count of huge-n jobs (far-field engine tier).
    pub huge_jobs: usize,
    /// Node count of the huge jobs.
    pub huge_n: usize,
    /// Trials per huge job.
    pub huge_trials: usize,
    /// Round cap per huge trial (huge jobs are capped, not resolved —
    /// the gate times engine throughput, not protocol luck).
    pub huge_max_rounds: u64,
    /// Job workers in the server.
    pub workers: usize,
}

impl ServiceMix {
    /// The committed-baseline mix: a few hundred small jobs plus two
    /// far-field-tier stragglers.
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

    /// A seconds-scale mix for smoke tests and the gate's own exit-code
    /// tests.
    #[must_use]
    pub fn quick() -> Self {
        ServiceMix {
            small_jobs: 24,
            small_ns: vec![32, 64, 96],
            small_trials: 1,
            small_max_rounds: 20_000,
            huge_jobs: 1,
            huge_n: 4096,
            huge_trials: 1,
            huge_max_rounds: 10,
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

/// Observability attachments for a loadgen replay: the monitor recording
/// time-series frames, and/or a live watch subscriber draining the event
/// stream while the fleet runs (what `bench-gate --stream-overhead` pays
/// for on its "watched" side).
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

/// What one loadgen replay measured.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// Jobs that completed (done or failed).
    pub jobs: usize,
    /// Jobs that retired into `failed/`.
    pub failed: usize,
    /// Submit-of-first to completion-of-last wall time.
    pub elapsed_secs: f64,
    /// `jobs / elapsed_secs`.
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
    /// Trials counted across those frames' deltas.
    pub ts_trials: u64,
    /// Lines the attached subscriber drained (0 when none attached).
    pub watch_lines: usize,
    /// The recorded frames as JSONL lines (`frame_to_json`), oldest
    /// first — what `loadgen --dump-frames` writes out.
    pub frames_jsonl: Vec<String>,
}

/// Replays `mix` against a fresh in-process server rooted at `root`,
/// recording per-job submit→complete latency.
///
/// # Errors
///
/// Server/queue IO failures, or the fleet not finishing inside the
/// harness deadline.
pub fn run_loadgen(root: &Path, mix: &ServiceMix) -> Result<ServiceResult, String> {
    run_loadgen_observed(root, mix, &LoadgenObs::default())
}

/// [`run_loadgen`] with observability attached: optionally starts the
/// server monitor (capturing its time-series ring into the result) and
/// optionally drains a live watch subscriber for the whole replay — the
/// measured throughput then includes the full streaming cost.
///
/// # Errors
///
/// Same failure modes as [`run_loadgen`].
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
    let (ts_frames, ts_trials, frames_jsonl) = if obs.monitor_ms.is_some() {
        // The monitor keeps ticking after the drain; give it until one
        // more interval has passed so even a sub-interval replay records
        // at least one frame, then freeze the ring.
        let wait = Instant::now() + Duration::from_millis(obs.monitor_ms.unwrap_or(0).max(10) * 2);
        while server.timeseries_frames().is_empty() && Instant::now() < wait {
            std::thread::sleep(Duration::from_millis(2));
        }
        server.stop_monitor();
        let frames = server.timeseries_frames();
        (
            frames.len(),
            frames.iter().map(|f| f.d_trials).sum(),
            frames.iter().map(frame_to_json).collect(),
        )
    } else {
        (0, 0, Vec::new())
    };

    latencies_ms.sort_by(f64::total_cmp);
    let jobs = latencies_ms.len();
    Ok(ServiceResult {
        jobs,
        failed,
        elapsed_secs,
        jobs_per_sec: jobs as f64 / elapsed_secs.max(1e-9),
        p50_ms: percentile_f64(&latencies_ms, 0.50),
        p95_ms: percentile_f64(&latencies_ms, 0.95),
        p99_ms: percentile_f64(&latencies_ms, 0.99),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        ts_frames,
        ts_trials,
        watch_lines,
        frames_jsonl,
    })
}

fn fmt_list(ns: &[usize]) -> String {
    let items: Vec<String> = ns.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Renders the `BENCH_service.json` schema: the replayed mix (so the gate
/// can re-run exactly it) plus the measured throughput and latency tail.
/// When the replay ran with the monitor attached, a `timeseries` section
/// records what the obs ring captured; baselines without it (or parsers
/// predating it) are unaffected — the gate never reads it.
#[must_use]
pub fn render_service_json(mix: &ServiceMix, result: &ServiceResult) -> String {
    let timeseries = if result.ts_frames > 0 {
        format!(
            ",\n    \"timeseries\": {{\"frames\": {}, \"d_trials\": {}}}",
            result.ts_frames, result.ts_trials
        )
    } else {
        String::new()
    };
    format!(
        "{{\n  \"bench\": \"service_loadgen\",\n  \"workload\": {{\n    \"small_jobs\": {},\n    \"small_ns\": {},\n    \"small_trials\": {},\n    \"small_max_rounds\": {},\n    \"huge_jobs\": {},\n    \"huge_n\": {},\n    \"huge_trials\": {},\n    \"huge_max_rounds\": {},\n    \"workers\": {}\n  }},\n  \"results\": {{\n    \"jobs\": {},\n    \"failed\": {},\n    \"elapsed_secs\": {:.3},\n    \"jobs_per_sec\": {:.3},\n    \"latency_ms\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}{timeseries}\n  }}\n}}\n",
        mix.small_jobs,
        fmt_list(&mix.small_ns),
        mix.small_trials,
        mix.small_max_rounds,
        mix.huge_jobs,
        mix.huge_n,
        mix.huge_trials,
        mix.huge_max_rounds,
        mix.workers,
        result.jobs,
        result.failed,
        result.elapsed_secs,
        result.jobs_per_sec,
        result.p50_ms,
        result.p95_ms,
        result.p99_ms,
        result.max_ms,
    )
}

/// A parsed `BENCH_service.json`: the mix to re-run and the committed
/// numbers to compare against.
#[derive(Debug, Clone)]
pub struct ServiceBaseline {
    /// The workload the committed numbers came from.
    pub mix: ServiceMix,
    /// Committed throughput.
    pub jobs_per_sec: f64,
    /// Committed 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// Committed 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
}

fn get_f64(v: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("{ctx} has no finite \"{key}\""))
}

fn get_usize(v: &JsonValue, key: &str, ctx: &str) -> Result<usize, String> {
    let x = get_f64(v, key, ctx)?;
    if x.fract() != 0.0 || x < 0.0 {
        return Err(format!("{ctx}.{key} is not a non-negative integer"));
    }
    Ok(x as usize)
}

/// Parses the `BENCH_service.json` schema.
///
/// # Errors
///
/// A description of the first structural problem.
pub fn parse_service_baseline(text: &str) -> Result<ServiceBaseline, String> {
    let doc = parse_json(text).map_err(|e| format!("baseline is not JSON: {e}"))?;
    let workload = doc
        .get("workload")
        .ok_or_else(|| "baseline has no \"workload\"".to_string())?;
    let small_ns: Vec<usize> = workload
        .get("small_ns")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "workload has no \"small_ns\" array".to_string())?
        .iter()
        .map(|v| {
            v.as_f64()
                .filter(|x| x.fract() == 0.0 && *x >= 1.0)
                .map(|x| x as usize)
                .ok_or_else(|| "small_ns entries must be positive integers".to_string())
        })
        .collect::<Result<_, _>>()?;
    if small_ns.is_empty() {
        return Err("workload.small_ns is empty".to_string());
    }
    let mix = ServiceMix {
        small_jobs: get_usize(workload, "small_jobs", "workload")?,
        small_ns,
        small_trials: get_usize(workload, "small_trials", "workload")?,
        small_max_rounds: get_usize(workload, "small_max_rounds", "workload")? as u64,
        huge_jobs: get_usize(workload, "huge_jobs", "workload")?,
        huge_n: get_usize(workload, "huge_n", "workload")?,
        huge_trials: get_usize(workload, "huge_trials", "workload")?,
        huge_max_rounds: get_usize(workload, "huge_max_rounds", "workload")? as u64,
        workers: get_usize(workload, "workers", "workload")?.max(1),
    };
    let results = doc
        .get("results")
        .ok_or_else(|| "baseline has no \"results\"".to_string())?;
    let latency = results
        .get("latency_ms")
        .ok_or_else(|| "results has no \"latency_ms\"".to_string())?;
    let jobs_per_sec = get_f64(results, "jobs_per_sec", "results")?;
    if jobs_per_sec <= 0.0 {
        return Err("results.jobs_per_sec must be positive".to_string());
    }
    let p95_ms = get_f64(latency, "p95", "latency_ms")?;
    if p95_ms <= 0.0 {
        return Err("latency_ms.p95 must be positive".to_string());
    }
    Ok(ServiceBaseline {
        mix,
        jobs_per_sec,
        p95_ms,
        p99_ms: get_f64(latency, "p99", "latency_ms")?,
    })
}

/// The gate's comparison of a fresh replay against the baseline.
#[derive(Debug, Clone)]
pub struct ServiceVerdict {
    /// `baseline.jobs_per_sec / measured.jobs_per_sec` — above 1 means
    /// throughput dropped.
    pub throughput_ratio: f64,
    /// `measured.p95_ms / baseline.p95_ms` — above 1 means the latency
    /// tail grew.
    pub p95_ratio: f64,
    /// Whether either ratio exceeds the threshold.
    pub regressed: bool,
}

/// Judges a fresh replay against the committed numbers: either a
/// throughput drop or a p95 blow-up beyond `threshold` regresses.
#[must_use]
pub fn judge_service(
    baseline: &ServiceBaseline,
    measured: &ServiceResult,
    threshold: f64,
) -> ServiceVerdict {
    let throughput_ratio = baseline.jobs_per_sec / measured.jobs_per_sec.max(1e-9);
    let p95_ratio = measured.p95_ms / baseline.p95_ms.max(1e-9);
    ServiceVerdict {
        throughput_ratio,
        p95_ratio,
        regressed: throughput_ratio > threshold || p95_ratio > threshold,
    }
}

/// Renders the `bench-gate --service` verdict block.
#[must_use]
pub fn render_service_verdict(
    baseline: &ServiceBaseline,
    measured: &ServiceResult,
    verdict: &ServiceVerdict,
    threshold: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>14} {:>12} {:>12} {:>8}  verdict (threshold {threshold:.2}x)",
        "metric", "baseline", "measured", "ratio"
    );
    let _ = writeln!(
        out,
        "{:>14} {:>12.3} {:>12.3} {:>7.2}x  {}",
        "jobs/sec",
        baseline.jobs_per_sec,
        measured.jobs_per_sec,
        verdict.throughput_ratio,
        if verdict.throughput_ratio > threshold {
            "REGRESSED"
        } else {
            "ok"
        }
    );
    let _ = writeln!(
        out,
        "{:>14} {:>12.3} {:>12.3} {:>7.2}x  {}",
        "p95 ms",
        baseline.p95_ms,
        measured.p95_ms,
        verdict.p95_ratio,
        if verdict.p95_ratio > threshold {
            "REGRESSED"
        } else {
            "ok"
        }
    );
    let _ = writeln!(
        out,
        "{:>14} {:>12.3} {:>12.3}",
        "p99 ms", baseline.p99_ms, measured.p99_ms
    );
    out
}

/// The paired comparison behind `bench-gate --stream-overhead`: the same
/// mix replayed twice on the same host — once bare, once with the monitor
/// plus a live watch subscriber attached — so the ratio isolates the
/// streaming cost from host speed.
#[derive(Debug, Clone)]
pub struct StreamOverheadVerdict {
    /// `plain.jobs_per_sec / watched.jobs_per_sec` — above 1 means the
    /// watched replay was slower.
    pub throughput_ratio: f64,
    /// `watched.p95_ms / plain.p95_ms`.
    pub p95_ratio: f64,
    /// Whether the throughput cost exceeds the threshold (p95 is
    /// informational — short-run latency tails are too noisy to gate on).
    pub regressed: bool,
}

/// Judges the watched replay against the bare one: streaming observers
/// must not cost more than `threshold`-fold throughput.
#[must_use]
pub fn judge_stream_overhead(
    plain: &ServiceResult,
    watched: &ServiceResult,
    threshold: f64,
) -> StreamOverheadVerdict {
    let throughput_ratio = plain.jobs_per_sec / watched.jobs_per_sec.max(1e-9);
    StreamOverheadVerdict {
        throughput_ratio,
        p95_ratio: watched.p95_ms / plain.p95_ms.max(1e-9),
        regressed: throughput_ratio > threshold,
    }
}

/// Renders the `bench-gate --stream-overhead` verdict block.
#[must_use]
pub fn render_stream_overhead(
    plain: &ServiceResult,
    watched: &ServiceResult,
    verdict: &StreamOverheadVerdict,
    threshold: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>14} {:>12} {:>12} {:>8}  verdict (threshold {threshold:.2}x)",
        "metric", "bare", "watched", "ratio"
    );
    let _ = writeln!(
        out,
        "{:>14} {:>12.3} {:>12.3} {:>7.2}x  {}",
        "jobs/sec",
        plain.jobs_per_sec,
        watched.jobs_per_sec,
        verdict.throughput_ratio,
        if verdict.regressed { "REGRESSED" } else { "ok" }
    );
    let _ = writeln!(
        out,
        "{:>14} {:>12.3} {:>12.3} {:>7.2}x  (informational)",
        "p95 ms", plain.p95_ms, watched.p95_ms, verdict.p95_ratio
    );
    let stream = format!(
        "{} lines, {} frames",
        watched.watch_lines, watched.ts_frames
    );
    let _ = writeln!(out, "{:>14} {:>12} {stream:>12}", "stream", "-");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_result(jobs_per_sec: f64, p95_ms: f64) -> ServiceResult {
        ServiceResult {
            jobs: 25,
            failed: 0,
            elapsed_secs: 25.0 / jobs_per_sec,
            jobs_per_sec,
            p50_ms: p95_ms * 0.3,
            p95_ms,
            p99_ms: p95_ms * 1.5,
            max_ms: p95_ms * 2.0,
            ts_frames: 0,
            ts_trials: 0,
            watch_lines: 0,
            frames_jsonl: Vec::new(),
        }
    }

    #[test]
    fn mix_expands_to_unique_ordered_specs() {
        let mix = ServiceMix::quick();
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
    fn service_json_round_trips_through_parser() {
        let mix = ServiceMix::full();
        let rendered = render_service_json(&mix, &fake_result(12.5, 840.0));
        let parsed = parse_service_baseline(&rendered).unwrap();
        assert_eq!(parsed.mix, mix);
        assert!((parsed.jobs_per_sec - 12.5).abs() < 1e-9);
        assert!((parsed.p95_ms - 840.0).abs() < 1e-9);
        assert!((parsed.p99_ms - 1260.0).abs() < 1e-9);
    }

    #[test]
    fn timeseries_section_renders_and_stays_parseable() {
        let mix = ServiceMix::quick();
        let mut result = fake_result(10.0, 500.0);
        result.ts_frames = 7;
        result.ts_trials = 120;
        let rendered = render_service_json(&mix, &result);
        assert!(rendered.contains("\"timeseries\": {\"frames\": 7, \"d_trials\": 120}"));
        // The gate's parser must keep accepting baselines with (and
        // without — covered by the round-trip test) the obs section.
        let parsed = parse_service_baseline(&rendered).unwrap();
        assert_eq!(parsed.mix, mix);
        let doc = parse_json(&rendered).unwrap();
        let frames = doc
            .get("results")
            .and_then(|r| r.get("timeseries"))
            .and_then(|t| t.get("frames"))
            .and_then(JsonValue::as_f64);
        assert_eq!(frames, Some(7.0));
    }

    #[test]
    fn stream_overhead_gate_separates_ok_from_regressed() {
        let plain = fake_result(10.0, 500.0);
        // 2% slower with watchers: fine at the 5% gate.
        let v = judge_stream_overhead(&plain, &fake_result(9.8, 520.0), 1.05);
        assert!(!v.regressed, "{v:?}");
        // 20% slower: gates.
        let v = judge_stream_overhead(&plain, &fake_result(8.0, 500.0), 1.05);
        assert!(v.regressed && v.throughput_ratio > 1.2, "{v:?}");
        // Watched somehow faster: never gates.
        let v = judge_stream_overhead(&plain, &fake_result(11.0, 400.0), 1.05);
        assert!(!v.regressed, "{v:?}");
        let mut watched = fake_result(8.0, 500.0);
        watched.watch_lines = 42;
        watched.ts_frames = 3;
        let table = render_stream_overhead(
            &plain,
            &watched,
            &judge_stream_overhead(&plain, &watched, 1.05),
            1.05,
        );
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("42 lines, 3 frames"));
    }

    #[test]
    fn committed_repo_baseline_parses() {
        let text = include_str!("../../../BENCH_service.json");
        let baseline = parse_service_baseline(text).unwrap();
        assert!(
            baseline.mix.small_jobs >= 100,
            "baseline must be the full mix"
        );
        assert!(
            baseline.mix.huge_jobs >= 1,
            "baseline must include huge jobs"
        );
        assert!(
            baseline.mix.huge_n > 4096,
            "huge jobs must be far-field tier"
        );
        assert!(baseline.jobs_per_sec > 0.0 && baseline.p95_ms > 0.0);
    }

    #[test]
    fn malformed_service_baselines_are_rejected() {
        assert!(parse_service_baseline("not json").is_err());
        assert!(parse_service_baseline("{}").is_err());
        let no_results =
            "{\"workload\": {\"small_jobs\": 1, \"small_ns\": [32], \"small_trials\": 1, \
             \"small_max_rounds\": 10, \"huge_jobs\": 0, \"huge_n\": 4096, \"huge_trials\": 1, \
             \"huge_max_rounds\": 10, \"workers\": 1}}";
        assert!(parse_service_baseline(no_results).is_err());
        let rendered = render_service_json(
            &ServiceMix::quick(),
            &ServiceResult {
                jobs_per_sec: 0.0,
                ..fake_result(1.0, 1.0)
            },
        );
        assert!(
            parse_service_baseline(&rendered).is_err(),
            "zero throughput would divide by zero in the gate"
        );
    }

    #[test]
    fn gate_separates_ok_from_regressed() {
        let baseline = parse_service_baseline(&render_service_json(
            &ServiceMix::quick(),
            &fake_result(10.0, 500.0),
        ))
        .unwrap();
        // Within threshold both ways.
        let v = judge_service(&baseline, &fake_result(8.0, 600.0), 1.5);
        assert!(!v.regressed, "{v:?}");
        // Throughput collapse gates.
        let v = judge_service(&baseline, &fake_result(4.0, 500.0), 1.5);
        assert!(v.regressed && v.throughput_ratio > 2.0, "{v:?}");
        // Latency-tail blow-up gates even at equal throughput.
        let v = judge_service(&baseline, &fake_result(10.0, 1200.0), 1.5);
        assert!(v.regressed && v.p95_ratio > 2.0, "{v:?}");
        // Speedups never gate.
        let v = judge_service(&baseline, &fake_result(40.0, 100.0), 1.5);
        assert!(!v.regressed, "{v:?}");
        let table = render_service_verdict(
            &baseline,
            &fake_result(4.0, 500.0),
            &judge_service(&baseline, &fake_result(4.0, 500.0), 1.5),
            1.5,
        );
        assert!(table.contains("REGRESSED") && table.contains("jobs/sec"));
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
        let result = run_loadgen(&root, &mix).unwrap();
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
