//! `loadgen` — replays a mixed job workload against an in-process
//! `fading-server` and snapshots throughput + latency percentiles.
//!
//! ```text
//! loadgen [--quick] [--workers N] [--out BENCH_service.json] [--root <dir>]
//!         [--monitor-ms MS] [--watch] [--dump-frames <path>]
//! ```
//!
//! The default (full) mix is a few hundred small-n jobs plus two
//! far-field-tier huge-n jobs — the committed `BENCH_service.json`
//! baseline that `bench-gate --service` diffs against. `--quick` runs a
//! seconds-scale mix for smoke checks. `--root` keeps the queue directory
//! around for inspection; by default a temp directory is used and
//! removed.
//!
//! The server monitor runs during the replay (default 100 ms tick; `0`
//! disables it) so the written baseline carries a `timeseries` section
//! recording what the obs ring saw. `--watch` additionally attaches a
//! live draining subscriber, making the measured numbers include the
//! full streaming cost — what `bench-gate --stream-overhead` compares.
//! `--dump-frames <path>` writes the captured frames as JSONL (one
//! `frame_to_json` line each) for offline narration — E19's tables come
//! from this.

use std::path::PathBuf;
use std::process::ExitCode;

use fading_bench::interrupt;
use fading_bench::service::{render_service_json, run_loadgen_observed, LoadgenObs, ServiceMix};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    interrupt::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut mix = if quick {
        ServiceMix::quick()
    } else {
        ServiceMix::full()
    };
    if let Some(w) = flag_value(&args, "--workers") {
        mix.workers = w.parse().expect("--workers wants an integer");
    }
    let monitor_ms: u64 = flag_value(&args, "--monitor-ms")
        .map(|v| v.parse().expect("--monitor-ms wants an integer"))
        .unwrap_or(100);
    let obs = LoadgenObs {
        monitor_ms: (monitor_ms > 0).then_some(monitor_ms),
        subscriber: args.iter().any(|a| a == "--watch"),
    };
    let out = flag_value(&args, "--out");
    let (root, ephemeral) = match flag_value(&args, "--root") {
        Some(dir) => (PathBuf::from(dir), false),
        None => (
            std::env::temp_dir().join(format!("fading-loadgen-{}", std::process::id())),
            true,
        ),
    };

    eprintln!(
        "# loadgen: {} small (n {:?}, {} trials) + {} huge (n {}, {} rounds cap), {} workers",
        mix.small_jobs,
        mix.small_ns,
        mix.small_trials,
        mix.huge_jobs,
        mix.huge_n,
        mix.huge_max_rounds,
        mix.workers
    );
    let result = match run_loadgen_observed(&root, &mix, &obs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            if ephemeral {
                std::fs::remove_dir_all(&root).ok();
            }
            return ExitCode::FAILURE;
        }
    };
    if ephemeral {
        std::fs::remove_dir_all(&root).ok();
    }

    println!(
        "loadgen: {} jobs ({} failed) in {:.2}s = {:.3} jobs/sec",
        result.jobs, result.failed, result.elapsed_secs, result.jobs_per_sec
    );
    println!(
        "latency ms: p50 {:.1}  p95 {:.1}  p99 {:.1}  max {:.1}",
        result.p50_ms, result.p95_ms, result.p99_ms, result.max_ms
    );
    if result.ts_frames > 0 || result.watch_lines > 0 {
        println!(
            "obs: {} time-series frames ({} trials), {} lines streamed to the watcher",
            result.ts_frames, result.ts_trials, result.watch_lines
        );
    }
    if result.failed > 0 {
        eprintln!(
            "loadgen: {} jobs failed — not writing a baseline",
            result.failed
        );
        return ExitCode::FAILURE;
    }
    if let Some(path) = flag_value(&args, "--dump-frames") {
        let mut body = result.frames_jsonl.join("\n");
        body.push('\n');
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("# wrote {} frames to {path}", result.ts_frames);
    }
    if let Some(path) = out {
        let json = render_service_json(&mix, &result);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("# wrote {path}");
    }
    ExitCode::SUCCESS
}
