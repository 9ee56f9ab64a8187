//! The benchmark's own tests, at the seconds-long smoke size: every
//! workload runs and passes its checks in both modes, prints exactly the
//! metrics `BENCHMARK.json` declares, and a corrupted expected digest
//! fails the run.

use std::path::PathBuf;
use std::process::{Command, Output};

fn perfbench(workload: &str, trace: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            trace,
        ])
        .args(["--size", "smoke"])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs")
}

fn last_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().unwrap_or_default().to_string()
}

/// Metric names of one section of `BENCHMARK.json`, in file order.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn assert_passes_with_declared_metrics(workload: &str, trace: &str, section: &str) {
    let out = perfbench(workload, trace, &[]);
    let line = last_line(&out);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}\n{line}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    let names = declared(section);
    assert!(!names.is_empty());
    for name in &names {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} missing in {line}"
        );
    }
    assert_eq!(line.matches("\"unit\"").count(), names.len(), "{line}");
}

#[test]
fn fkn_mid_runs_in_both_modes() {
    assert_passes_with_declared_metrics("fkn-mid", "0", "end_to_end");
    assert_passes_with_declared_metrics("fkn-mid", "1", "per_layer");
}

#[test]
fn fkn_large_runs_in_both_modes() {
    assert_passes_with_declared_metrics("fkn-large", "0", "end_to_end");
    assert_passes_with_declared_metrics("fkn-large", "1", "per_layer");
}

#[test]
fn fkn_alpha_runs_in_both_modes() {
    assert_passes_with_declared_metrics("fkn-alpha", "0", "end_to_end");
    assert_passes_with_declared_metrics("fkn-alpha", "1", "per_layer");
}

#[test]
fn corrupted_expected_digest_fails_the_run() {
    let committed = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected_digests.txt"),
    )
    .expect("committed digests");
    let corrupted: String = committed
        .lines()
        .map(|l| {
            if l.starts_with("fkn-mid") && l.contains("smoke") {
                let digest = l.split_whitespace().last().expect("digest field");
                l.replace(digest, "0123456789abcdef")
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(
        corrupted.trim(),
        committed.trim(),
        "the fkn-mid smoke digest was replaced"
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupted_digests.txt");
    std::fs::write(&path, corrupted).expect("write corrupted digests");

    let out = perfbench(
        "fkn-mid",
        "0",
        &["--expected", path.to_str().expect("utf-8 path")],
    );
    assert!(!out.status.success(), "a digest mismatch must fail the run");
    assert!(last_line(&out).starts_with("{\"correct\": false, "));
    assert!(String::from_utf8_lossy(&out.stderr).contains("output digest mismatch"));
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("perfbench runs");
    assert_eq!(out.status.code(), Some(2));
}
