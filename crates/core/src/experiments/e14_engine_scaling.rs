//! E14 — engine-tier scaling: the tile-tree tier versus the n² wall.

use std::time::Instant;

use fading_protocols::ProtocolKind;
use fading_sim::{EngineTier, SimConfig, Simulation};

use super::common::{sinr_for, standard_deployment, ExperimentConfig};
use crate::table::fmt_f64;
use crate::Table;

/// Which resolve tier a run is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// No acceleration: the O(listeners × transmitters) exact scan.
    Exact,
    /// Gain-cache engine (precomputed pairwise gains).
    GainCache,
    /// Tile-tree engine (tree-aggregated interference bounds).
    Tree,
}

impl Tier {
    fn label(self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::GainCache => "gain-cache",
            Tier::Tree => "hierarchical",
        }
    }

    /// A fresh FKN run on the standard deployment, its engine built for
    /// this tier only.
    fn simulation(self, n: usize, seed: u64) -> Simulation {
        let deployment = standard_deployment(n, seed);
        let channel = sinr_for(&deployment).build();
        let pk = ProtocolKind::fkn_default();
        let config = SimConfig {
            tier: Some(match self {
                Tier::Exact => EngineTier::Exact,
                Tier::GainCache => EngineTier::GainCache,
                Tier::Tree => EngineTier::Hierarchical,
            }),
            ..SimConfig::default()
        };
        Simulation::try_new(deployment, channel, seed, config, |id| pk.build(id))
            .expect("FKN on a standard deployment constructs")
    }
}

/// Largest `n` at which the quadratic tiers (exact scan, gain cache) are
/// still run: the gain cache refuses to build above this size, and the
/// exact scan's full-protocol runs stop being affordable.
const QUADRATIC_TIER_CEILING: usize = 4096;

fn tiers_for(n: usize) -> Vec<Tier> {
    if n <= QUADRATIC_TIER_CEILING {
        vec![Tier::Exact, Tier::GainCache, Tier::Tree]
    } else {
        vec![Tier::Tree]
    }
}

/// One timed batch: `trials` sequential FKN runs on fresh deployments,
/// pinned to `tier`. Returns `(resolved, total_rounds, wall_millis)`.
/// Trials run sequentially (no thread pool) so the per-round wall clock is
/// an honest single-core figure.
fn run_tier(
    cfg: &ExperimentConfig,
    seed_base: u64,
    n: usize,
    tier: Tier,
    trials: usize,
) -> (usize, u64, f64) {
    let mut resolved = 0usize;
    let mut total_rounds = 0u64;
    let mut wall = 0.0f64;
    for t in 0..trials {
        let seed = seed_base + t as u64;
        let mut sim = tier.simulation(n, seed);
        let start = Instant::now();
        let result = sim.run_until_resolved(cfg.max_rounds);
        wall += start.elapsed().as_secs_f64() * 1e3;
        total_rounds += result.rounds_executed();
        resolved += usize::from(result.resolved());
    }
    (resolved, total_rounds, wall)
}

/// E14: wall-clock cost per round of the three resolve tiers as `n` grows.
///
/// **Claim:** the tile-tree tier breaks the quadratic per-round wall — its
/// per-round cost grows sub-quadratically, letting full FKN runs complete
/// at `n = 65536` where neither the exact scan nor the gain cache (which
/// refuses to build above `n = 4096`) is usable. Exactness is not traded
/// away: the table re-verifies, at the largest quadratic-tier size, that a
/// tile-tree run is byte-identical to an exact run.
///
/// The sweep is `n ∈ {2¹⁰, 2¹², 2¹⁴, 2¹⁶}` clipped to `max_n_pow2 + 4`:
/// this experiment exists to measure *past* the standard experiment sizes
/// (the tile-tree tier's whole point), so its ceiling sits four powers of
/// two above the config's — `2¹⁶` under the full preset, `2¹⁰` under
/// smoke. When even that admits no sweep point, it falls back to the
/// single size `2^max_n_pow2` so every tier still runs.
#[must_use]
pub fn e14_engine_scaling(cfg: &ExperimentConfig) -> Table {
    let mut table =
        Table::new("E14: resolve-tier scaling (FKN, uniform density, SINR) — per-round cost vs n");
    table.headers(["n", "tier", "trials", "resolved", "mean rounds", "ms/round"]);

    let mut sweep: Vec<usize> = [10u32, 12, 14, 16]
        .iter()
        .filter(|&&p| p <= cfg.max_n_pow2 + 4)
        .map(|&p| 1usize << p)
        .collect();
    if sweep.is_empty() {
        sweep.push(1usize << cfg.max_n_pow2);
    }

    let mut exact_ms_per_round = None;
    let mut tree_ms_per_round = None;
    for (block, &n) in sweep.iter().enumerate() {
        // Large deployments get fewer (but never zero) trials: the tail
        // sizes exist to demonstrate feasibility and per-round cost, not
        // to tighten distributional estimates.
        let trials = if n <= QUADRATIC_TIER_CEILING {
            cfg.trials.clamp(1, 5)
        } else {
            cfg.trials.clamp(1, 3)
        };
        for tier in tiers_for(n) {
            let (resolved, rounds, wall) =
                run_tier(cfg, cfg.seed_block(block as u64), n, tier, trials);
            let ms_per_round = if rounds > 0 {
                wall / rounds as f64
            } else {
                0.0
            };
            if n == *sweep.last().expect("nonempty sweep") {
                match tier {
                    Tier::Exact => exact_ms_per_round = Some(ms_per_round),
                    Tier::Tree => tree_ms_per_round = Some(ms_per_round),
                    Tier::GainCache => {}
                }
            }
            table.row([
                n.to_string(),
                tier.label().to_string(),
                trials.to_string(),
                format!("{resolved}/{trials}"),
                fmt_f64(rounds as f64 / trials as f64),
                fmt_f64(ms_per_round),
            ]);
        }
    }

    if let (Some(exact), Some(tree)) = (exact_ms_per_round, tree_ms_per_round) {
        if tree > 0.0 {
            table.note(format!(
                "hierarchical vs exact at n={}: {}x faster per round",
                sweep.last().expect("nonempty sweep"),
                fmt_f64(exact / tree)
            ));
        }
    }

    // Decision-exactness cross-check at the largest quadratic-tier size in
    // the sweep: a tile-tree run must be byte-identical to an exact run.
    if let Some(&n) = sweep.iter().filter(|&&n| n <= QUADRATIC_TIER_CEILING).max() {
        let seed = cfg.seed_block(99);
        let run = |tier: Tier| tier.simulation(n, seed).run_until_resolved(cfg.max_rounds);
        let exact = run(Tier::Exact);
        let tree = run(Tier::Tree);
        assert_eq!(
            exact, tree,
            "decision-exactness violated at n={n}: hierarchical RunResult diverged"
        );
        table.note(format!(
            "cross-check at n={n}: hierarchical and exact runs byte-identical (seed {seed})"
        ));
    }
    table.note(format!(
        "exact and gain-cache tiers run only for n <= {QUADRATIC_TIER_CEILING} \
         (the cache refuses larger deployments; the exact scan is quadratic)"
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_runs_every_tier() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.trials = 2;
        let t = e14_engine_scaling(&cfg);
        // Smoke ceiling is 2^(7+4): the single sweep size 1024, three tiers.
        assert_eq!(t.num_rows(), 3);
        for row in t.rows() {
            assert_eq!(row[0], "1024");
            assert_eq!(
                row[3],
                format!("{}/{}", row[2], row[2]),
                "all trials resolve"
            );
        }
        let tiers: Vec<&str> = t.rows().iter().map(|r| r[1].as_str()).collect();
        assert_eq!(tiers, ["exact", "gain-cache", "hierarchical"]);
        assert!(
            t.notes().iter().any(|n| n.contains("byte-identical")),
            "cross-check note missing: {:?}",
            t.notes()
        );
    }

    #[test]
    fn tiny_config_falls_back_to_its_own_ceiling() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.max_n_pow2 = 5;
        cfg.trials = 2;
        let t = e14_engine_scaling(&cfg);
        // Ceiling 2^9 admits no sweep point: fall back to n = 32.
        assert_eq!(t.num_rows(), 3);
        for row in t.rows() {
            assert_eq!(row[0], "32");
        }
    }
}
