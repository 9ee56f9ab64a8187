//! Shared experiment plumbing.

use serde::{Deserialize, Serialize};

use fading_channel::SinrParams;
use fading_geom::Deployment;
use fading_protocols::ProtocolKind;
use fading_sim::faults::FaultPlan;
use fading_sim::montecarlo::{self, Summary};
use fading_sim::{SimConfig, Simulation};

use crate::ChannelKind;

/// Sizing knobs shared by every experiment.
///
/// Three presets:
///
/// * [`ExperimentConfig::smoke`] — seconds; used by unit tests.
/// * [`ExperimentConfig::quick`] — a couple of minutes; sanity sweeps.
/// * [`ExperimentConfig::full`] — the `EXPERIMENTS.md` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Monte-Carlo trials per data point.
    pub trials: usize,
    /// Worker threads for parallel trials.
    pub threads: usize,
    /// Largest `n` as a power of two (`n` sweeps use `16 … 2^max_n_pow2`).
    pub max_n_pow2: u32,
    /// Per-trial round budget.
    pub max_rounds: u64,
    /// Base seed; every data point derives disjoint seed ranges from it.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Test-sized: tiny networks, few trials.
    #[must_use]
    pub fn smoke() -> Self {
        ExperimentConfig {
            trials: 5,
            threads: available_threads(),
            max_n_pow2: 7,
            max_rounds: 200_000,
            seed: 1,
        }
    }

    /// Sanity-sweep size.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            trials: 25,
            threads: available_threads(),
            max_n_pow2: 10,
            max_rounds: 1_000_000,
            seed: 1,
        }
    }

    /// The configuration used to produce `EXPERIMENTS.md` (sized so the
    /// complete E1–E12 sweep finishes within tens of minutes on a single
    /// core; all trends reported there are stable well below this scale).
    #[must_use]
    pub fn full() -> Self {
        ExperimentConfig {
            trials: 100,
            threads: available_threads(),
            max_n_pow2: 12,
            max_rounds: 4_000_000,
            seed: 1,
        }
    }

    /// The `n` sweep `16, 32, …, 2^max_n_pow2`.
    #[must_use]
    pub fn n_sweep(&self) -> Vec<usize> {
        (4..=self.max_n_pow2).map(|p| 1usize << p).collect()
    }

    /// A disjoint seed block for data point number `block` (each block
    /// reserves 2^20 seeds, far more than any trial count used).
    #[must_use]
    pub fn seed_block(&self, block: u64) -> u64 {
        self.seed + (block << 20)
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

/// The standard deployment for `n`-sweeps: uniform placement at fixed
/// density 0.25 nodes per unit² (mean nearest-neighbor spacing ≈ 1), so the
/// local contention profile stays constant as `n` grows and `R` stays
/// polynomial in `n` — the regime of the paper's headline bound.
#[must_use]
pub fn standard_deployment(n: usize, seed: u64) -> Deployment {
    Deployment::uniform_density(n, 0.25, seed)
}

/// SINR channel with default parameters and power auto-scaled so the
/// deployment is single-hop with a 2× margin over the paper's condition.
#[must_use]
pub fn sinr_for(deployment: &Deployment) -> ChannelKind {
    ChannelKind::Sinr(SinrParams::default_single_hop().with_power_for(deployment))
}

/// Like [`sinr_for`] with an explicit path-loss exponent.
#[must_use]
pub fn sinr_with_alpha(deployment: &Deployment, alpha: f64) -> ChannelKind {
    let params = SinrParams::builder()
        .alpha(alpha)
        .build()
        .expect("alpha validated by the experiment")
        .with_power_for(deployment);
    ChannelKind::Sinr(params)
}

/// Runs `cfg.trials` seeded trials where *each trial draws a fresh
/// deployment* (same distribution, different seed), and summarizes.
///
/// `deploy(seed)` builds the trial's deployment; `channel(&d)` and
/// `protocol(&d)` may depend on it (power scaling, size-aware protocols).
pub fn measure<D, C, P>(
    cfg: &ExperimentConfig,
    seed_base: u64,
    deploy: D,
    channel: C,
    protocol: P,
) -> Summary
where
    D: Fn(u64) -> Deployment + Sync,
    C: Fn(&Deployment) -> ChannelKind + Sync,
    P: Fn(&Deployment) -> ProtocolKind + Sync,
{
    let results = montecarlo::run_trials(cfg.trials, cfg.threads, seed_base, |seed| {
        let d = deploy(seed);
        let ch = channel(&d).build();
        let pk = protocol(&d);
        let mut sim = Simulation::new(d, ch, seed, |id| pk.build(id));
        sim.run_until_resolved(cfg.max_rounds)
    });
    Summary::from_results(&results)
}

/// Like [`measure`], attaching `plan(&d)`'s fault schedule to every trial.
/// With an empty plan the summary is byte-identical to [`measure`] on the
/// same arguments (the empty-plan contract of the fault subsystem).
pub fn measure_with_faults<D, C, P, F>(
    cfg: &ExperimentConfig,
    seed_base: u64,
    deploy: D,
    channel: C,
    protocol: P,
    plan: F,
) -> Summary
where
    D: Fn(u64) -> Deployment + Sync,
    C: Fn(&Deployment) -> ChannelKind + Sync,
    P: Fn(&Deployment) -> ProtocolKind + Sync,
    F: Fn(&Deployment) -> FaultPlan + Sync,
{
    let results = montecarlo::run_trials(cfg.trials, cfg.threads, seed_base, |seed| {
        let d = deploy(seed);
        let ch = channel(&d).build();
        let pk = protocol(&d);
        let config = SimConfig {
            fault_plan: Some(plan(&d)),
            ..SimConfig::default()
        };
        let mut sim = Simulation::try_new(d, ch, seed, config, |id| pk.build(id))
            .expect("fault plan must fit the trial deployment");
        sim.run_until_resolved(cfg.max_rounds)
    });
    Summary::from_results(&results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_protocols::ProtocolKind;

    #[test]
    fn n_sweep_is_powers_of_two() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.max_n_pow2 = 6;
        assert_eq!(cfg.n_sweep(), vec![16, 32, 64]);
    }

    #[test]
    fn seed_blocks_are_disjoint() {
        let cfg = ExperimentConfig::smoke();
        let a = cfg.seed_block(0);
        let b = cfg.seed_block(1);
        assert!(b - a >= (1 << 20));
        assert!(b - a > cfg.trials as u64);
    }

    #[test]
    fn standard_deployment_density() {
        let d = standard_deployment(100, 3);
        // Side = sqrt(100/0.25) = 20.
        for p in d.points() {
            assert!(p.x < 20.0 && p.y < 20.0);
        }
    }

    #[test]
    fn sinr_for_is_single_hop() {
        let d = standard_deployment(64, 5);
        let kind = sinr_for(&d);
        kind.sinr_params()
            .unwrap()
            .admits_single_hop(&d)
            .expect("auto-scaled power admits single hop");
    }

    #[test]
    fn measure_produces_full_success_on_easy_case() {
        let cfg = ExperimentConfig::smoke();
        let s = measure(
            &cfg,
            cfg.seed_block(0),
            |seed| standard_deployment(32, seed),
            sinr_for,
            |_| ProtocolKind::fkn_default(),
        );
        assert_eq!(s.trials, cfg.trials);
        assert_eq!(s.success_rate, 1.0);
        assert!(s.mean_rounds >= 1.0);
    }
}
