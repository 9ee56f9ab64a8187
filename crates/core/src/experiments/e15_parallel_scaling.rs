//! E15 — hierarchical tier + parallel resolve, up to n = 2²⁰.

use std::time::Instant;

use fading_protocols::ProtocolKind;
use fading_sim::{EngineTier, Simulation};

use super::common::{sinr_for, standard_deployment, ExperimentConfig};
use crate::table::fmt_f64;
use crate::Table;

/// Which resolve tier a run is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// The O(n²)-per-round exact scan — the ground-truth reference.
    Exact,
    /// Hierarchical (tile-tree) engine, resolved on `threads` workers of
    /// the work-stealing pool.
    Hier { threads: usize },
}

impl Tier {
    fn label(self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::Hier { threads: 1 } => "hier-1t",
            Tier::Hier { .. } => "hier-8t",
        }
    }

    fn pin(self, sim: &mut Simulation) {
        match self {
            Tier::Exact => sim.set_tier(EngineTier::Exact),
            Tier::Hier { threads } => {
                sim.set_tier(EngineTier::Hierarchical);
                sim.set_resolve_threads(threads);
            }
        }
    }
}

/// Largest `n` at which the exact cross-check runs (quadratic cost).
const CROSS_CHECK_CEILING: usize = 1 << 12;

/// The tiers timed at every size: the tile tree on one and on eight
/// resolve workers.
const TIERS: [Tier; 2] = [Tier::Hier { threads: 1 }, Tier::Hier { threads: 8 }];

/// One timed batch: `trials` sequential FKN runs on fresh deployments,
/// pinned to `tier`. Returns `(resolved, total_rounds, wall_millis)`.
/// Trials run sequentially; only the in-round resolve parallelizes (for
/// the `hier-8t` tier), so ms/round is an honest per-round wall figure.
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
        let deployment = standard_deployment(n, seed);
        let channel = sinr_for(&deployment).build();
        let pk = ProtocolKind::fkn_default();
        let mut sim = Simulation::new(deployment, channel, seed, |id| pk.build(id));
        tier.pin(&mut sim);
        let start = Instant::now();
        let result = sim.run_until_resolved(cfg.max_rounds);
        wall += start.elapsed().as_secs_f64() * 1e3;
        total_rounds += result.rounds_executed();
        resolved += usize::from(result.resolved());
    }
    (resolved, total_rounds, wall)
}

/// E15: wall-clock cost per round of the hierarchical tier, serial and on
/// the 8-worker stealing pool, up to `n = 2²⁰`.
///
/// **Claim:** full FKN runs complete on the hierarchical engine at
/// `n = 1,048,576`, and neither the tree traversal nor the
/// work-stealing pool trades exactness away: at the cross-check size a
/// `hier-8t` run is byte-identical to an exact run.
///
/// The sweep is `n ∈ {2¹², 2¹⁶, 2²⁰}` clipped to `max_n_pow2 + 8`: like
/// E14 this experiment exists to measure *past* the standard sizes, and
/// its headline point sits eight powers of two above the full preset's
/// ceiling. When the clip admits no sweep point it falls back to
/// `2^max_n_pow2` so every tier still runs.
#[must_use]
pub fn e15_parallel_scaling(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E15: hierarchical tier + parallel resolve (FKN, uniform density, SINR) — per-round cost vs n",
    );
    table.headers(["n", "tier", "trials", "resolved", "mean rounds", "ms/round"]);

    let mut sweep: Vec<usize> = [12u32, 16, 20]
        .iter()
        .filter(|&&p| p <= cfg.max_n_pow2 + 8)
        .map(|&p| 1usize << p)
        .collect();
    if sweep.is_empty() {
        sweep.push(1usize << cfg.max_n_pow2);
    }
    let top = *sweep.last().expect("nonempty sweep");

    let mut hier1_ms = None;
    let mut hier8_ms = None;
    for (block, &n) in sweep.iter().enumerate() {
        // The tail sizes exist to demonstrate feasibility and per-round
        // cost, not to tighten distributional estimates: one trial each.
        let trials = if n >= 1 << 16 {
            1
        } else {
            cfg.trials.clamp(1, 2)
        };
        for tier in TIERS {
            let (resolved, rounds, wall) =
                run_tier(cfg, cfg.seed_block(block as u64), n, tier, trials);
            let ms_per_round = if rounds > 0 {
                wall / rounds as f64
            } else {
                0.0
            };
            if n == top {
                match tier {
                    Tier::Hier { threads: 1 } => hier1_ms = Some(ms_per_round),
                    Tier::Hier { .. } => hier8_ms = Some(ms_per_round),
                    Tier::Exact => {}
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

    if let (Some(h1), Some(h8)) = (hier1_ms, hier8_ms) {
        if h8 > 0.0 {
            table.note(format!(
                "pool scaling at n={top}: hier-1t/hier-8t = {}x \
                 (bounded by the host's physical cores)",
                fmt_f64(h1 / h8)
            ));
        }
    }

    // Decision-exactness cross-check at the largest affordable size in
    // the sweep: a parallel hierarchical run must be byte-identical to an
    // exact serial run — the tree and the pool are both invisible.
    if let Some(&n) = sweep.iter().filter(|&&n| n <= CROSS_CHECK_CEILING).max() {
        let seed = cfg.seed_block(99);
        let run = |tier: Tier| {
            let deployment = standard_deployment(n, seed);
            let channel = sinr_for(&deployment).build();
            let pk = ProtocolKind::fkn_default();
            let mut sim = Simulation::new(deployment, channel, seed, |id| pk.build(id));
            tier.pin(&mut sim);
            sim.run_until_resolved(cfg.max_rounds)
        };
        let exact = run(Tier::Exact);
        let hier = run(Tier::Hier { threads: 8 });
        assert_eq!(
            exact, hier,
            "decision-exactness violated at n={n}: parallel hierarchical RunResult diverged"
        );
        table.note(format!(
            "cross-check at n={n}: hier-8t and exact runs byte-identical (seed {seed})"
        ));
    }
    table.note("hierarchical trials run sequentially — only the in-round resolve parallelizes");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_runs_every_tier_and_cross_checks() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.trials = 1;
        cfg.max_n_pow2 = 3;
        // Even the smallest sweep point (2^12 = 4096) is too slow for a
        // unit test; with max_n_pow2 = 3 the clip (p <= 11) empties the
        // sweep and the fallback single size 8 runs both tiers.
        let t = e15_parallel_scaling(&cfg);
        assert_eq!(t.num_rows(), 2);
        for row in t.rows() {
            assert_eq!(row[0], "8");
            assert_eq!(row[3], format!("{}/{}", row[2], row[2]), "all trials resolve");
        }
        let tiers: Vec<&str> = t.rows().iter().map(|r| r[1].as_str()).collect();
        assert_eq!(tiers, ["hier-1t", "hier-8t"]);
        assert!(
            t.notes().iter().any(|n| n.contains("byte-identical")),
            "cross-check note missing: {:?}",
            t.notes()
        );
    }
}
