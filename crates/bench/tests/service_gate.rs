//! Exit-code contract of `bench-gate --service`: a freshly generated
//! same-host baseline passes, and a synthetic injected slowdown beyond
//! the threshold exits nonzero — proving a real service regression would
//! fail CI rather than drown in the noise of an informational log line.

#![cfg(unix)]

use std::path::PathBuf;
use std::process::{Command, Output};

const LOADGEN: &str = env!("CARGO_BIN_EXE_loadgen");
const GATE: &str = env!("CARGO_BIN_EXE_bench-gate");

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fading-service-gate-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn gate(baseline: &str, extra: &[&str]) -> Output {
    Command::new(GATE)
        .args(["--service", "--baseline", baseline, "--threshold", "4.0"])
        .args(extra)
        .output()
        .expect("spawn bench-gate")
}

#[test]
fn service_gate_passes_fresh_baseline_and_fails_injected_regression() {
    let dir = scratch();
    let baseline = dir.join("service.json");
    let baseline = baseline.to_str().expect("utf-8 path");

    // Same-host quick baseline, written by the real loadgen binary.
    let out = Command::new(LOADGEN)
        .args(["--quick", "--out", baseline])
        .output()
        .expect("spawn loadgen");
    assert!(
        out.status.success(),
        "loadgen --quick failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Fresh replay of the same mix on the same host: comfortably inside a
    // generous threshold.
    let ok = gate(baseline, &[]);
    assert!(
        ok.status.success(),
        "clean replay must pass: {}\n{}",
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(
        stdout.contains("jobs/sec"),
        "verdict table missing: {stdout}"
    );

    // A synthetic 10x slowdown beyond the 4x threshold must exit nonzero.
    let bad = gate(baseline, &["--inject-slowdown", "10.0"]);
    assert!(
        !bad.status.success(),
        "injected regression must fail the gate: {}",
        String::from_utf8_lossy(&bad.stdout)
    );
    assert!(
        String::from_utf8_lossy(&bad.stdout).contains("REGRESSED"),
        "verdict must name the regression"
    );

    // …but --check demotes it to informational (what CI runs).
    let checked = gate(baseline, &["--inject-slowdown", "10.0", "--check"]);
    assert!(
        checked.status.success(),
        "--check mode must never fail: {}",
        String::from_utf8_lossy(&checked.stdout)
    );

    std::fs::remove_dir_all(&dir).ok();
}
