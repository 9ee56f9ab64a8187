//! Hand-timed tier-scaling snapshot: per-round resolve cost of the exact
//! scan, the gain cache and the hierarchical (tile-tree) engine at
//! `n ∈ {1024, 4096, 16384, 65536, 262144, 1048576}` (quadratic tiers are
//! skipped above their ceilings), written as `BENCH_scaling.json`.
//!
//! Usage:
//!
//! ```text
//! scaling [--out <path>]
//! ```
//!
//! This is the snapshot producer behind the repo's scaling claims; the
//! `bench-gate` binary re-runs the same probe (shared via
//! `fading_bench::probe`) and diffs against the committed snapshot, and
//! the Criterion bench `resolve_scaling` tracks the workload with proper
//! sampling.

use fading_bench::interrupt;
use fading_bench::probe::{
    default_budget_ms, render_snapshot_json, run_kernel_probe, run_probe, DEFAULT_SIZES, DENSITY,
    SEED,
};

fn main() {
    interrupt::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());

    println!("# resolve-tier scaling (25% transmitters, density {DENSITY}, seed {SEED})");
    println!("# per-α kernel micro-probe (fused gain_batch + fold, ms per million points)");
    let kernels = run_kernel_probe(200.0);
    for k in &kernels {
        println!(
            "{:>9} (α = {:<4}) {:>10.4} ms/Mpoint",
            k.class, k.alpha, k.ms_per_mpoint
        );
    }
    println!(
        "{:>7} {:>11} {:>6} {:>14}",
        "n", "tier", "iters", "ms/round"
    );
    let samples = run_probe(&DEFAULT_SIZES, default_budget_ms, |s| {
        for t in &s.tiers {
            println!(
                "{:>7} {:>11} {:>6} {:>14.4}",
                s.n, t.tier, t.iters, t.ms_per_round
            );
        }
        if s.speedup_hierarchical_vs_exact > 0.0 {
            println!(
                "{:>7} {:>11} {:>6} {:>13.2}x",
                s.n, "h-speedup", "", s.speedup_hierarchical_vs_exact
            );
        }
    });

    std::fs::write(&out_path, render_snapshot_json(&samples, &kernels))
        .expect("write snapshot JSON");
    println!("\nwrote {out_path}");
    if interrupt::interrupted() {
        eprintln!("interrupted: snapshot covers the sizes completed before the signal");
        std::process::exit(interrupt::INTERRUPT_EXIT_CODE);
    }
}
