//! `bench-gate` — the perf-regression gate: re-runs the resolve-tier
//! scaling probe (the same workload as the `scaling` snapshot binary) and
//! diffs the fresh timings against a committed `BENCH_scaling.json`
//! baseline, per (tier, n). When the baseline carries the per-α kernel
//! micro-probe (`"kernels"`), those cells are re-measured and diffed too
//! (shown as `kernel:<class>` rows). Exits nonzero when any cell slows
//! down beyond the relative threshold; speedups never fail.
//!
//! Usage:
//!
//! ```text
//! bench-gate [--baseline <path>] [--threshold <x>] [--check] [--quick]
//!            [--sizes a,b,c] [--budget-ms <x>]
//! ```
//!
//! * `--baseline <path>` — snapshot to diff against (default
//!   `BENCH_scaling.json`).
//! * `--threshold <x>` — fail beyond an `x`-fold slowdown (default 1.5).
//! * `--check` — informational mode: print the verdict table but always
//!   exit 0 (what CI runs, since absolute baselines are host-specific).
//! * `--quick` — probe only the sizes ≤ 4096 with a small budget, for a
//!   fast smoke signal.
//! * `--sizes a,b,c` — override the probed sizes (baseline cells for
//!   unprobed sizes are skipped).
//! * `--budget-ms <x>` — per-tier wall budget in milliseconds.
//! * `--inject-slowdown <f>` — multiply measured times by `f` (test hook
//!   proving the gate trips on a synthetic regression).
//!
//! With `--service` the gate switches to the service-throughput baseline
//! instead: it parses `BENCH_service.json` (or `--baseline <path>`),
//! replays the exact workload mix recorded in it through an in-process
//! `fading-server`, and fails when throughput drops — or the p95 latency
//! tail grows — beyond the threshold. `--check` and `--inject-slowdown`
//! behave the same in both modes.
//!
//! With `--stream-overhead` the gate replays the baseline's mix twice on
//! this host — bare, then with the monitor and a live watch subscriber
//! attached — and fails when streaming costs more than the threshold
//! (default 1.05, the "watchers are ≤5% overhead" contract). The paired
//! design makes it host-independent: both runs share the machine, so the
//! ratio isolates the observability cost. `--quick` swaps in the
//! seconds-scale mix.

use std::process::ExitCode;

use fading_bench::gate::{
    judge, judge_kernels, parse_baseline, parse_kernel_baseline, render_verdicts,
};
use fading_bench::probe::{default_budget_ms, run_kernel_probe, run_probe, DEFAULT_SIZES};
use fading_bench::service::{
    judge_service, judge_stream_overhead, parse_service_baseline, render_service_verdict,
    render_stream_overhead, run_loadgen, run_loadgen_observed, LoadgenObs, ServiceMix,
};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The `--service` mode: replay the baseline's recorded mix and gate on
/// throughput / latency-tail ratios.
fn service_gate(baseline_path: &str, threshold: f64, check_only: bool, inject: f64) -> ExitCode {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline = parse_service_baseline(&text).unwrap_or_else(|e| panic!("{baseline_path}: {e}"));

    eprintln!(
        "# bench-gate --service: replaying {} small + {} huge jobs against {baseline_path}",
        baseline.mix.small_jobs, baseline.mix.huge_jobs
    );
    let root = std::env::temp_dir().join(format!("fading-service-gate-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut measured = match run_loadgen(&root, &baseline.mix) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench-gate: loadgen replay failed: {e}");
            std::fs::remove_dir_all(&root).ok();
            return ExitCode::FAILURE;
        }
    };
    std::fs::remove_dir_all(&root).ok();
    if inject != 1.0 {
        eprintln!("# injecting synthetic {inject}x slowdown");
        measured.jobs_per_sec /= inject;
        measured.p50_ms *= inject;
        measured.p95_ms *= inject;
        measured.p99_ms *= inject;
        measured.max_ms *= inject;
    }

    let verdict = judge_service(&baseline, &measured, threshold);
    print!(
        "{}",
        render_service_verdict(&baseline, &measured, &verdict, threshold)
    );
    if measured.failed > 0 {
        println!(
            "bench-gate: {} jobs failed during the replay",
            measured.failed
        );
        return ExitCode::FAILURE;
    }
    if verdict.regressed {
        println!(
            "bench-gate: service regressed beyond {threshold:.2}x{}",
            if check_only {
                " (check mode: not failing)"
            } else {
                ""
            }
        );
        if !check_only {
            return ExitCode::FAILURE;
        }
    } else {
        println!("bench-gate: service throughput and latency within {threshold:.2}x of baseline");
    }
    ExitCode::SUCCESS
}

/// The `--stream-overhead` mode: the same mix twice — bare vs watched —
/// gated on the paired throughput ratio.
fn stream_overhead_gate(
    baseline_path: &str,
    threshold: f64,
    check_only: bool,
    quick: bool,
    inject: f64,
) -> ExitCode {
    let mix = if quick {
        ServiceMix::quick()
    } else {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        parse_service_baseline(&text)
            .unwrap_or_else(|e| panic!("{baseline_path}: {e}"))
            .mix
    };
    eprintln!(
        "# bench-gate --stream-overhead: {} small + {} huge jobs, bare then watched",
        mix.small_jobs, mix.huge_jobs
    );
    let base = std::env::temp_dir().join(format!("fading-stream-gate-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let run = |name: &str, obs: &LoadgenObs| {
        let root = base.join(name);
        let result = run_loadgen_observed(&root, &mix, obs);
        std::fs::remove_dir_all(&root).ok();
        result
    };
    let plain = run("bare", &LoadgenObs::default());
    let watched = run("watched", &LoadgenObs::watched(100));
    std::fs::remove_dir_all(&base).ok();
    let (plain, mut watched) = match (plain, watched) {
        (Ok(p), Ok(w)) => (p, w),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-gate: stream-overhead replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if inject != 1.0 {
        eprintln!("# injecting synthetic {inject}x slowdown on the watched run");
        watched.jobs_per_sec /= inject;
        watched.p95_ms *= inject;
    }
    if watched.watch_lines == 0 || watched.ts_frames == 0 {
        eprintln!(
            "bench-gate: watched replay streamed nothing ({} lines, {} frames) — the \
             comparison would be vacuous",
            watched.watch_lines, watched.ts_frames
        );
        return ExitCode::FAILURE;
    }

    let verdict = judge_stream_overhead(&plain, &watched, threshold);
    print!(
        "{}",
        render_stream_overhead(&plain, &watched, &verdict, threshold)
    );
    if plain.failed > 0 || watched.failed > 0 {
        println!(
            "bench-gate: {} jobs failed during the replays",
            plain.failed + watched.failed
        );
        return ExitCode::FAILURE;
    }
    if verdict.regressed {
        println!(
            "bench-gate: streaming overhead beyond {threshold:.2}x{}",
            if check_only {
                " (check mode: not failing)"
            } else {
                ""
            }
        );
        if !check_only {
            return ExitCode::FAILURE;
        }
    } else {
        println!("bench-gate: streaming overhead within {threshold:.2}x");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let service = args.iter().any(|a| a == "--service");
    let stream_overhead = args.iter().any(|a| a == "--stream-overhead");
    let baseline_path = flag_value(&args, "--baseline").unwrap_or_else(|| {
        if service || stream_overhead {
            "BENCH_service.json".to_string()
        } else {
            "BENCH_scaling.json".to_string()
        }
    });
    let threshold: f64 = flag_value(&args, "--threshold")
        .map(|v| v.parse().expect("--threshold wants a number"))
        .unwrap_or(if stream_overhead { 1.05 } else { 1.5 });
    assert!(
        threshold.is_finite() && threshold > 0.0,
        "--threshold must be a positive number, got {threshold}"
    );
    let check_only = args.iter().any(|a| a == "--check");
    let quick = args.iter().any(|a| a == "--quick");
    let inject: f64 = flag_value(&args, "--inject-slowdown")
        .map(|v| v.parse().expect("--inject-slowdown wants a number"))
        .unwrap_or(1.0);
    if stream_overhead {
        return stream_overhead_gate(&baseline_path, threshold, check_only, quick, inject);
    }
    if service {
        return service_gate(&baseline_path, threshold, check_only, inject);
    }

    let sizes: Vec<usize> = match flag_value(&args, "--sizes") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("--sizes wants integers"))
            .collect(),
        None if quick => DEFAULT_SIZES
            .iter()
            .copied()
            .filter(|&n| n <= 4096)
            .collect(),
        None => DEFAULT_SIZES.to_vec(),
    };
    let budget_ms = flag_value(&args, "--budget-ms")
        .map(|v| v.parse::<f64>().expect("--budget-ms wants a number"));

    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline = parse_baseline(&text).unwrap_or_else(|e| panic!("{baseline_path}: {e}"));
    let kernel_baseline =
        parse_kernel_baseline(&text).unwrap_or_else(|e| panic!("{baseline_path}: {e}"));

    eprintln!("# bench-gate: probing n = {sizes:?} against {baseline_path}");
    let mut measured_kernels = if kernel_baseline.is_empty() {
        Vec::new()
    } else {
        run_kernel_probe(if quick { 20.0 } else { 200.0 })
    };
    let mut measured = run_probe(
        &sizes,
        |n| budget_ms.unwrap_or_else(|| if quick { 50.0 } else { default_budget_ms(n) }),
        |s| eprintln!("  probed n = {} ({} tiers)", s.n, s.tiers.len()),
    );
    if inject != 1.0 {
        eprintln!("# injecting synthetic {inject}x slowdown");
        for s in &mut measured {
            for t in &mut s.tiers {
                t.ms_per_round *= inject;
            }
        }
        for k in &mut measured_kernels {
            k.ms_per_mpoint *= inject;
        }
    }

    let scaling_verdicts = judge(&baseline, &measured, threshold);
    if scaling_verdicts.is_empty() {
        // Kernel cells alone don't rescue a size list that matched
        // nothing — the caller asked for sizes the baseline never saw.
        eprintln!("bench-gate: no baseline cells matched the probed sizes");
        return ExitCode::FAILURE;
    }
    let mut verdicts = judge_kernels(&kernel_baseline, &measured_kernels, threshold);
    verdicts.extend(scaling_verdicts);
    print!("{}", render_verdicts(&verdicts, threshold));
    let regressed = verdicts.iter().filter(|v| v.regressed).count();
    if regressed > 0 {
        println!(
            "bench-gate: {regressed}/{} cells regressed beyond {threshold:.2}x{}",
            verdicts.len(),
            if check_only {
                " (check mode: not failing)"
            } else {
                ""
            }
        );
        if !check_only {
            return ExitCode::FAILURE;
        }
    } else {
        println!(
            "bench-gate: all {} cells within {threshold:.2}x of baseline",
            verdicts.len()
        );
    }
    ExitCode::SUCCESS
}
