//! End-to-end exercise of the `bench-gate` binary: the gate must exit
//! nonzero on a synthetic 2× slowdown and zero when everything is within
//! threshold or `--check` mode is on.
//!
//! Test binaries run the *debug* build while the committed baseline was
//! measured in release, so absolute ratios here are meaningless — the
//! exit-code logic is what these tests pin (threshold arithmetic itself is
//! unit-tested in `fading_bench::gate`). A tiny probed size and a huge
//! pass-threshold keep the real-measurement cases deterministic.

use std::process::Command;

fn bench_gate(extra: &[&str]) -> std::process::Output {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json");
    Command::new(env!("CARGO_BIN_EXE_bench-gate"))
        .args([
            "--baseline",
            baseline,
            "--sizes",
            "1024",
            "--budget-ms",
            "40",
        ])
        .args(extra)
        .output()
        .expect("bench-gate binary runs")
}

#[test]
fn synthetic_slowdown_trips_the_gate() {
    // A 1000x injected slowdown regresses every cell whatever the host.
    let out = bench_gate(&["--inject-slowdown", "1000.0", "--threshold", "1.5"]);
    assert!(
        !out.status.success(),
        "gate must exit nonzero on a synthetic slowdown; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("REGRESSED"),
        "verdict table says so:\n{stdout}"
    );
    assert!(stdout.contains("cells regressed"));
}

#[test]
fn within_threshold_passes() {
    // Debug-vs-release drift is what it is; a huge threshold always passes.
    let out = bench_gate(&["--threshold", "10000"]);
    assert!(
        out.status.success(),
        "gate must exit zero inside threshold; stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("all"), "pass summary printed:\n{stdout}");
}

#[test]
fn check_mode_reports_but_never_fails() {
    let out = bench_gate(&[
        "--inject-slowdown",
        "1000.0",
        "--threshold",
        "1.5",
        "--check",
    ]);
    assert!(
        out.status.success(),
        "--check mode must exit zero even on regression; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("check mode: not failing"), "{stdout}");
}

#[test]
fn unmatched_sizes_fail_loudly() {
    // n=512 is not in the committed baseline: no cells to judge is an error,
    // not a silent pass.
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json");
    let out = Command::new(env!("CARGO_BIN_EXE_bench-gate"))
        .args([
            "--baseline",
            baseline,
            "--sizes",
            "512",
            "--budget-ms",
            "20",
        ])
        .output()
        .expect("bench-gate binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no baseline cells"));
}
