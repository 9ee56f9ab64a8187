//! # fading-bench
//!
//! Benchmark harness for the `fading-cr` workspace:
//!
//! * the `experiments` binary regenerates every experiment table (E1–E16)
//!   recorded in `EXPERIMENTS.md`;
//! * the `sweep` binary runs one-off parameter sweeps;
//! * the three `harness = false` benches (`benches/`) assert the overhead
//!   budgets of telemetry and trial supervision, and replay the service
//!   mix bare and watched ([`service`]).
//!
//! End-to-end and per-layer timing of whole FKN trials and service jobs
//! lives in `perfbench/`, a workspace of its own.
//!
//! This crate's library part holds the small helpers shared between the
//! binaries and benches.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod interrupt;
pub mod service;

use fading_cr::experiments::ExperimentConfig;

/// Parses the common CLI scale flags (`--smoke`, `--quick`, `--full`).
/// Defaults to quick. Unknown flags are ignored by this parser (binaries
/// handle their own extra flags).
#[must_use]
pub fn config_from_args(args: &[String]) -> ExperimentConfig {
    if args.iter().any(|a| a == "--full") {
        ExperimentConfig::full()
    } else if args.iter().any(|a| a == "--smoke") {
        ExperimentConfig::smoke()
    } else {
        ExperimentConfig::quick()
    }
}

/// Extracts the experiment ids requested on the command line (tokens that
/// are not flags and not flag values). Empty means "all".
#[must_use]
pub fn ids_from_args(args: &[String]) -> Vec<String> {
    let mut ids = Vec::new();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--out" || a == "--telemetry" {
            skip_next = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        ids.push(a.to_ascii_lowercase());
    }
    ids
}

/// The value following `--out <dir>`, if present.
#[must_use]
pub fn out_dir_from_args(args: &[String]) -> Option<String> {
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value following `--telemetry <dir>`, if present: the directory the
/// telemetry-recording experiments (E8, E9) write their JSONL round-event
/// streams into.
#[must_use]
pub fn telemetry_dir_from_args(args: &[String]) -> Option<String> {
    args.iter()
        .position(|a| a == "--telemetry")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn scale_flags() {
        assert_eq!(
            config_from_args(&args(&["--full"])).trials,
            ExperimentConfig::full().trials
        );
        assert_eq!(
            config_from_args(&args(&["--smoke"])).trials,
            ExperimentConfig::smoke().trials
        );
        assert_eq!(
            config_from_args(&args(&[])).trials,
            ExperimentConfig::quick().trials
        );
    }

    #[test]
    fn id_extraction_skips_flags_and_out_values() {
        assert_eq!(
            ids_from_args(&args(&["E1", "--full", "e10"])),
            vec!["e1", "e10"]
        );
        assert!(ids_from_args(&args(&["--full"])).is_empty());
        assert_eq!(ids_from_args(&args(&["--out", "dir", "e2"])), vec!["e2"]);
        assert_eq!(
            ids_from_args(&args(&["--telemetry", "results/t", "e8"])),
            vec!["e8"]
        );
    }

    #[test]
    fn telemetry_dir_extraction() {
        assert_eq!(
            telemetry_dir_from_args(&args(&["e8", "--telemetry", "/tmp/t"])),
            Some("/tmp/t".to_string())
        );
        assert_eq!(telemetry_dir_from_args(&args(&["--telemetry"])), None);
        assert_eq!(telemetry_dir_from_args(&args(&["e8"])), None);
    }

    #[test]
    fn out_dir_extraction() {
        assert_eq!(
            out_dir_from_args(&args(&["e1", "--out", "/tmp/x"])),
            Some("/tmp/x".to_string())
        );
        assert_eq!(out_dir_from_args(&args(&["--out"])), None);
        assert_eq!(out_dir_from_args(&args(&["e1"])), None);
    }
}
