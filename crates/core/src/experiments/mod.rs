//! The experiment harness: every quantitative claim of the paper,
//! regenerated as a [`Table`].
//!
//! The PODC'16 paper is a theory paper — it has no measurement tables of
//! its own — so the reproduction treats each theorem/lemma as an
//! experiment. The index (same numbering as `DESIGN.md` / `EXPERIMENTS.md`):
//!
//! | Id | Claim |
//! |----|-------|
//! | E1 | Theorem 1 scaling in `n` (`O(log n)` on uniform deployments) |
//! | E2 | Theorem 1 scaling in `R` (chains with `log R ≫ log n`) |
//! | E3 | Protocol comparison on the SINR channel |
//! | E4 | Channel comparison: beating the radio-network `Ω(log² n)` limit |
//! | E5 | Robustness in the broadcast probability `p` |
//! | E6 | Role of the path-loss exponent `α > 2` |
//! | E7 | Lemma 6: dominant classes are mostly good |
//! | E8 | Corollaries 5/7: constant-fraction knockout per round |
//! | E9 | §3.3: executions obey the class-bound schedule |
//! | E10 | §4: the restricted k-hitting game needs `Θ(log k)` |
//! | E11 | The "with high probability" guarantee, quantified |
//! | E12 | Ablations: knockout rule, stochastic fading, deployment shape |
//! | E13 | Robustness degradation under fault injection (jamming, churn, noise, burst loss) |
//! | E14 | Engine-tier scaling: the tile-tree resolve tier vs the n² wall |
//! | E15 | Hierarchical tier + parallel resolve: full runs at `n = 2²⁰` |
//! | E16 | Fault-tolerant execution: supervision, manifest resume, self-check demotion |
//!
//! Each `eNN` function is deterministic given its [`ExperimentConfig`];
//! [`run_by_id`] provides a string-keyed registry for the CLI harness.
//!
//! # Example
//!
//! ```
//! use fading_cr::experiments::{e05_probability_sweep, ExperimentConfig};
//!
//! let cfg = ExperimentConfig::smoke();
//! let table = e05_probability_sweep(&cfg);
//! assert!(!table.is_empty());
//! ```

// Experiment drivers build fixed, known-valid configurations; a construction
// failure here is a programming error surfaced by each experiment's smoke
// test, so panicking is the right response (unlike in the library layers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;
mod e01_rounds_vs_n;
mod e02_rounds_vs_r;
mod e03_protocols_on_sinr;
mod e04_channel_comparison;
mod e05_p_sweep;
mod e06_alpha_sweep;
mod e07_good_fraction;
mod e08_knockout_fraction;
mod e09_schedule_adherence;
mod e10_hitting_game;
mod e11_high_probability;
mod e12_ablations;
mod e13_robustness;
mod e14_engine_scaling;
mod e15_parallel_scaling;
mod e16_recovery;

pub use common::ExperimentConfig;
pub use e01_rounds_vs_n::e01_rounds_vs_n;
pub use e02_rounds_vs_r::e02_rounds_vs_r;
pub use e03_protocols_on_sinr::e03_protocols_on_sinr;
pub use e04_channel_comparison::e04_channel_comparison;
pub use e05_p_sweep::e05_probability_sweep;
pub use e06_alpha_sweep::e06_alpha_sweep;
pub use e07_good_fraction::e07_good_fraction;
pub use e08_knockout_fraction::{e08_knockout_fraction, e08_knockout_fraction_with};
pub use e09_schedule_adherence::{e09_schedule_adherence, e09_schedule_adherence_with};
pub use e10_hitting_game::e10_hitting_game;
pub use e11_high_probability::e11_high_probability;
pub use e12_ablations::e12_ablations;
pub use e13_robustness::e13_robustness;
pub use e14_engine_scaling::e14_engine_scaling;
pub use e15_parallel_scaling::e15_parallel_scaling;
pub use e16_recovery::e16_recovery;

use crate::Table;

/// The experiment ids accepted by [`run_by_id`], in canonical order.
pub const ALL_IDS: [&str; 16] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16",
];

/// Runs one experiment by id (`"e1"` … `"e16"`, case-insensitive).
/// Returns `None` for an unknown id.
#[must_use]
pub fn run_by_id(id: &str, cfg: &ExperimentConfig) -> Option<Table> {
    run_by_id_with(id, cfg, None)
}

/// Like [`run_by_id`], additionally passing a telemetry export directory
/// to the experiments that record round-event streams (E8 and E9 write
/// seed-tagged JSONL trial blocks under `<dir>/e8.jsonl` / `<dir>/e9.jsonl`;
/// the other experiments ignore the directory). The produced tables are
/// identical with and without a directory — export is a side channel.
#[must_use]
pub fn run_by_id_with(id: &str, cfg: &ExperimentConfig, telemetry_dir: Option<&str>) -> Option<Table> {
    match id.to_ascii_lowercase().as_str() {
        "e1" => Some(e01_rounds_vs_n(cfg)),
        "e2" => Some(e02_rounds_vs_r(cfg)),
        "e3" => Some(e03_protocols_on_sinr(cfg)),
        "e4" => Some(e04_channel_comparison(cfg)),
        "e5" => Some(e05_probability_sweep(cfg)),
        "e6" => Some(e06_alpha_sweep(cfg)),
        "e7" => Some(e07_good_fraction(cfg)),
        "e8" => Some(e08_knockout_fraction_with(cfg, telemetry_dir)),
        "e9" => Some(e09_schedule_adherence_with(cfg, telemetry_dir)),
        "e10" => Some(e10_hitting_game(cfg)),
        "e11" => Some(e11_high_probability(cfg)),
        "e12" => Some(e12_ablations(cfg)),
        "e13" => Some(e13_robustness(cfg)),
        "e14" => Some(e14_engine_scaling(cfg)),
        "e15" => Some(e15_parallel_scaling(cfg)),
        "e16" => Some(e16_recovery(cfg)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_ids() {
        let cfg = ExperimentConfig::smoke();
        for id in ALL_IDS {
            let table = run_by_id(id, &cfg);
            assert!(table.is_some(), "unknown id {id}");
            assert!(
                !table.unwrap().is_empty(),
                "experiment {id} produced no rows"
            );
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_by_id("e99", &ExperimentConfig::smoke()).is_none());
        assert!(run_by_id("", &ExperimentConfig::smoke()).is_none());
    }

    #[test]
    fn ids_are_case_insensitive() {
        let cfg = ExperimentConfig::smoke();
        assert!(run_by_id("E5", &cfg).is_some());
    }
}
