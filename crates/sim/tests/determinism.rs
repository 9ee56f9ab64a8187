//! Determinism harness: the gain cache must be invisible to results.
//!
//! [`montecarlo::run_trials`] batches over seeded simulations; this suite
//! asserts the batch output is **byte-identical** (full [`RunResult`]
//! equality, traces included) regardless of (a) whether the simulation
//! resolves rounds through the gain cache and (b) how many worker threads
//! run the batch — the cached-resolve contract and the seed-ordered
//! fan-out contract, checked end to end.

use fading_channel::{
    Channel, LossySinrChannel, RayleighSinrChannel, Reception, SinrChannel, SinrParams,
};
use fading_geom::{Deployment, Point};
use fading_sim::faults::{ChurnEvent, FaultPlan, GilbertElliott, Jammer, NoiseBurst};
use fading_sim::{
    montecarlo, Action, EngineTier, Protocol, ResolveEngine, RunResult, SimConfig, Simulation,
    TraceLevel,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// Transmits with fixed probability; knocked out on any reception.
#[derive(Debug)]
struct Knockout {
    p: f64,
    active: bool,
}

impl Protocol for Knockout {
    fn act(&mut self, _round: u64, rng: &mut SmallRng) -> Action {
        if rng.gen_bool(self.p) {
            Action::Transmit
        } else {
            Action::Listen
        }
    }
    fn feedback(&mut self, _round: u64, reception: &Reception) {
        if reception.is_message() {
            self.active = false;
        }
    }
    fn is_active(&self) -> bool {
        self.active
    }
    fn name(&self) -> &'static str {
        "test-knockout"
    }
}

/// A 0.25-knockout simulation over `deployment` under `config`.
fn knockout_sim(
    deployment: Deployment,
    channel: Box<dyn Channel>,
    seed: u64,
    config: SimConfig,
) -> Simulation {
    Simulation::try_new(deployment, channel, seed, config, |_| {
        Box::new(Knockout {
            p: 0.25,
            active: true,
        })
    })
    .expect("valid configuration")
}

/// A full-trace configuration pinned to `tier`, with an optional fault
/// plan.
fn pinned(tier: EngineTier, fault_plan: Option<FaultPlan>) -> SimConfig {
    SimConfig {
        tier: Some(tier),
        trace_level: TraceLevel::Full,
        fault_plan,
        ..SimConfig::default()
    }
}

/// Runs one full trial batch: `trials` seeded runs of a 24-node knockout
/// protocol on the channel built by `make_channel`, with the gain cache
/// forced on or off.
fn run_batch<F>(make_channel: &F, cached: bool, threads: usize, trials: usize) -> Vec<RunResult>
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    montecarlo::run_trials(trials, threads, 1000, |seed| {
        let deployment = Deployment::uniform_square(24, 15.0, seed);
        let tier = if cached {
            EngineTier::GainCache
        } else {
            EngineTier::Exact
        };
        let mut sim = knockout_sim(deployment, make_channel(), seed, pinned(tier, None));
        sim.run_until_resolved(20_000)
    })
}

/// The cross-product check for one channel: cache {on, off} × threads
/// {1, 8} must all produce the same `Vec<RunResult>`.
fn assert_cache_and_threads_invariant<F>(make_channel: F)
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    let trials = 12;
    let reference = run_batch(&make_channel, true, 1, trials);
    assert!(
        reference.iter().any(|r| r.resolved()),
        "batch never resolved; the scenario is too hard to be a useful oracle"
    );
    for &cached in &[true, false] {
        for &threads in &[1usize, 8] {
            let got = run_batch(&make_channel, cached, threads, trials);
            assert_eq!(
                got, reference,
                "results diverged at cached={cached}, threads={threads}"
            );
        }
    }
}

fn params() -> SinrParams {
    SinrParams::default_single_hop()
}

#[test]
fn sinr_results_invariant_under_cache_and_thread_count() {
    assert_cache_and_threads_invariant(|| Box::new(SinrChannel::new(params())));
}

#[test]
fn rayleigh_results_invariant_under_cache_and_thread_count() {
    assert_cache_and_threads_invariant(|| Box::new(RayleighSinrChannel::new(params())));
}

#[test]
fn lossy_results_invariant_under_cache_and_thread_count() {
    assert_cache_and_threads_invariant(|| {
        Box::new(LossySinrChannel::new(params(), 0.2).expect("valid drop_prob"))
    });
}

/// A representative kitchen-sink fault plan: duty-cycled budgeted jamming,
/// a noise burst, all three churn kinds, and Gilbert–Elliott burst loss.
fn stress_plan() -> FaultPlan {
    let power = SinrParams::default_single_hop().power() * 10.0;
    FaultPlan::new()
        .with_jammer(Jammer::new(Point::new(7.5, 7.5), power, 2, 6, 3, Some(60)).expect("valid"))
        .with_jammer(Jammer::continuous(Point::new(1.0, 14.0), power / 4.0, 10).expect("valid"))
        .with_noise_burst(NoiseBurst::new(5, 15, 4.0).expect("valid"))
        .with_churn(ChurnEvent::late_wake(4, 3).expect("valid"))
        .with_churn(ChurnEvent::crash(6, 0).expect("valid"))
        .with_churn(ChurnEvent::revive(12, 0).expect("valid"))
        .with_loss(GilbertElliott::new(0.15, 0.3, 0.02, 0.7).expect("valid"))
}

/// Like [`run_batch`], with the stress fault plan attached to every trial.
fn run_faulted_batch<F>(make_channel: &F, cached: bool, threads: usize, trials: usize) -> Vec<RunResult>
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    montecarlo::run_trials(trials, threads, 1000, |seed| {
        let deployment = Deployment::uniform_square(24, 15.0, seed);
        let tier = if cached {
            EngineTier::GainCache
        } else {
            EngineTier::Exact
        };
        let config = pinned(tier, Some(stress_plan()));
        let mut sim = knockout_sim(deployment, make_channel(), seed, config);
        sim.run_until_resolved(20_000)
    })
}

/// The cache {on, off} × threads {1, 8} cross-product with fault injection
/// active: jamming, churn, noise bursts, and burst loss must all preserve
/// byte-determinism.
fn assert_faulted_cache_and_threads_invariant<F>(make_channel: F)
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    let trials = 12;
    let reference = run_faulted_batch(&make_channel, true, 1, trials);
    assert!(
        reference.iter().any(|r| r.resolved()),
        "faulted batch never resolved; the scenario is too hard to be a useful oracle"
    );
    for &cached in &[true, false] {
        for &threads in &[1usize, 8] {
            let got = run_faulted_batch(&make_channel, cached, threads, trials);
            assert_eq!(
                got, reference,
                "faulted results diverged at cached={cached}, threads={threads}"
            );
        }
    }
}

#[test]
fn faulted_sinr_results_invariant_under_cache_and_thread_count() {
    assert_faulted_cache_and_threads_invariant(|| Box::new(SinrChannel::new(params())));
}

#[test]
fn faulted_rayleigh_results_invariant_under_cache_and_thread_count() {
    assert_faulted_cache_and_threads_invariant(|| Box::new(RayleighSinrChannel::new(params())));
}

#[test]
fn faulted_lossy_results_invariant_under_cache_and_thread_count() {
    assert_faulted_cache_and_threads_invariant(|| {
        Box::new(LossySinrChannel::new(params(), 0.2).expect("valid drop_prob"))
    });
}

#[test]
fn attaching_a_fault_plan_does_not_disturb_unfaulted_streams() {
    // A plan with no loss model must leave the channel and node RNG
    // streams untouched: the empty-plan run and the no-plan run are
    // byte-identical (the dedicated fault RNG lane is never drawn from).
    let run = |attach_empty: bool| {
        let deployment = Deployment::uniform_square(24, 15.0, 3);
        let config = SimConfig {
            trace_level: TraceLevel::Full,
            fault_plan: attach_empty.then(FaultPlan::new),
            ..SimConfig::default()
        };
        let channel = Box::new(RayleighSinrChannel::new(params()));
        let mut sim = knockout_sim(deployment, channel, 3, config);
        sim.run_until_resolved(20_000)
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn simulation_exposes_cache_state() {
    let make = |config: SimConfig| {
        let deployment = Deployment::uniform_square(16, 10.0, 7);
        knockout_sim(deployment, Box::new(SinrChannel::new(params())), 7, config)
    };
    let sim = make(SimConfig::default());
    assert_eq!(sim.tier(), EngineTier::GainCache, "SINR channel should build a cache");
    match sim.engine() {
        ResolveEngine::GainCache(c) => assert_eq!(c.len(), 16),
        other => panic!("expected the gain cache, got {:?}", other.tier()),
    }
    let sim = make(pinned(EngineTier::Exact, None));
    assert_eq!(sim.tier(), EngineTier::Exact);
    assert!(
        matches!(sim.engine(), ResolveEngine::Exact),
        "the override replaces the cache"
    );
}

/// A forced tier is the only engine a simulation builds. At n = 4096 the
/// auto tier is the n×n gain cache (128 MiB); a simulation pinned to the
/// exact scan must not build it first and then throw it away, and neither
/// may one pinned to the tile tree at n = 1024.
#[test]
fn forced_tier_is_built_once() {
    for (n, tier) in [(4096, EngineTier::Exact), (1024, EngineTier::Hierarchical)] {
        let channel = SinrChannel::new(params());
        assert_eq!(
            EngineTier::auto(&channel, n),
            EngineTier::GainCache,
            "n = {n}"
        );
        let deployment = Deployment::uniform_square(n, 2.0 * (n as f64).sqrt(), 5);
        let config = SimConfig {
            tier: Some(tier),
            ..SimConfig::default()
        };
        let sim = knockout_sim(deployment, Box::new(channel), 5, config);
        assert_eq!(sim.tier(), tier, "n = {n}");
        assert!(
            !sim.engine_counters().gain_cache_built,
            "n = {n}: pinning {tier:?} must not build the gain cache"
        );
    }
}

/// Regression: the Rayleigh channel's n×n gain cache is memory-bound past
/// LLC and *slower* than recomputing deterministic gains with the batched
/// kernels (measured 43.1 ms cached vs 33.4 ms uncached per round at
/// n = 4096). The auto tier must reflect that: Rayleigh keeps the cache up
/// to `RAYLEIGH_CACHE_PROFITABLE_NODES` and resolves exactly above it,
/// while the deterministic SINR channel keeps it at every size its own
/// guard admits.
/// Bypassing never changes results (cached ≡ uncached bit-exactly), which
/// `rayleigh_results_invariant_under_cache_and_thread_count` pins.
#[test]
fn rayleigh_bypasses_gain_cache_above_profitability_threshold() {
    use fading_channel::RAYLEIGH_CACHE_PROFITABLE_NODES;

    let make_sim = |channel: Box<dyn Channel>, n: usize| {
        let deployment = Deployment::uniform_square(n, 40.0, 11);
        knockout_sim(deployment, channel, 11, SimConfig::default())
    };

    // At and below the threshold the cache still wins and is kept.
    let small = make_sim(Box::new(RayleighSinrChannel::new(params())), 16);
    assert_eq!(small.tier(), EngineTier::GainCache, "small Rayleigh should cache");

    // Above it the simulator must not even build the cache...
    let n = RAYLEIGH_CACHE_PROFITABLE_NODES + 1;
    let big = make_sim(Box::new(RayleighSinrChannel::new(params())), n);
    assert!(
        matches!(big.engine(), ResolveEngine::Exact),
        "Rayleigh cache should be bypassed at n = {n}"
    );

    // ...while the deterministic channel keeps caching at the same size
    // (the policy is per-channel, not global).
    let sinr = make_sim(Box::new(SinrChannel::new(params())), n);
    assert_eq!(
        sinr.tier(),
        EngineTier::GainCache,
        "SINR should still cache at n = {n}"
    );
}

/// Like [`run_batch`]/[`run_faulted_batch`], but exercising the tile-tree
/// engine: gain cache disabled so the tree/exact comparison is pure,
/// fault plan optional.
fn run_tile_tree_batch<F>(
    make_channel: &F,
    tree: bool,
    threads: usize,
    trials: usize,
    faulted: bool,
) -> Vec<RunResult>
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    montecarlo::run_trials(trials, threads, 1000, move |seed| {
        let deployment = Deployment::uniform_square(24, 15.0, seed);
        let tier = if tree {
            EngineTier::Hierarchical
        } else {
            EngineTier::Exact
        };
        let config = pinned(tier, faulted.then(stress_plan));
        let mut sim = knockout_sim(deployment, make_channel(), seed, config);
        sim.run_until_resolved(20_000)
    })
}

/// The engine-tier cross-product: tile tree {on, off} × threads {1, 8} ×
/// fault plan {none, stress} must all produce byte-identical results —
/// the end-to-end restatement of the decision-exactness contract, with
/// knockout churn keeping the tile occupancy maintenance honest.
fn assert_tile_tree_and_threads_invariant<F>(make_channel: F)
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    let trials = 12;
    for &faulted in &[false, true] {
        let reference = run_tile_tree_batch(&make_channel, false, 1, trials, faulted);
        assert!(
            reference.iter().any(|r| r.resolved()),
            "batch (faulted={faulted}) never resolved; too hard to be a useful oracle"
        );
        for &tree in &[true, false] {
            for &threads in &[1usize, 8] {
                let got = run_tile_tree_batch(&make_channel, tree, threads, trials, faulted);
                assert_eq!(
                    got, reference,
                    "results diverged at tree={tree}, threads={threads}, faulted={faulted}"
                );
            }
        }
    }
}

#[test]
fn sinr_results_invariant_under_tile_tree_and_thread_count() {
    assert_tile_tree_and_threads_invariant(|| Box::new(SinrChannel::new(params())));
}

#[test]
fn rayleigh_results_invariant_under_tile_tree_and_thread_count() {
    // Rayleigh cannot be served by the tile tree (per-pair fading
    // draws pin the rng schedule); asking for it builds the highest tier
    // Rayleigh supports, which must be just as invisible.
    assert_tile_tree_and_threads_invariant(|| Box::new(RayleighSinrChannel::new(params())));
}

#[test]
fn lossy_results_invariant_under_tile_tree_and_thread_count() {
    assert_tile_tree_and_threads_invariant(|| {
        Box::new(LossySinrChannel::new(params(), 0.2).expect("valid drop_prob"))
    });
}

fn tree(sim: &Simulation) -> &fading_channel::HierarchicalFarFieldEngine {
    match sim.engine() {
        ResolveEngine::Hierarchical(e) => e,
        other => panic!("expected the tile-tree engine, got {:?}", other.tier()),
    }
}

#[test]
fn simulation_exposes_tile_tree_state() {
    let make = |config: SimConfig| {
        let deployment = Deployment::uniform_square(16, 10.0, 7);
        knockout_sim(deployment, Box::new(SinrChannel::new(params())), 7, config)
    };
    // The gain cache is the default at this size; the tile tree is
    // built only when the tier is set.
    let sim = make(SimConfig::default());
    assert_eq!(sim.tier(), EngineTier::GainCache, "cache tier should win at n=16");
    let sim = make(pinned(EngineTier::Hierarchical, None));
    assert_eq!(tree(&sim).num_active(), 16);
    assert_eq!(sim.engine().stats().rounds, 0, "no rounds resolved yet");
    let sim = make(pinned(EngineTier::Exact, None));
    assert!(
        matches!(sim.engine(), ResolveEngine::Exact),
        "the override replaces the engine"
    );
}

#[test]
fn tile_tree_occupancy_shrinks_as_nodes_knock_out() {
    let deployment = Deployment::uniform_square(24, 15.0, 3);
    let channel = SinrChannel::new(params());
    let config = SimConfig {
        tier: Some(EngineTier::Hierarchical),
        trace_level: TraceLevel::Counts,
        ..SimConfig::default()
    };
    let mut sim = knockout_sim(deployment, Box::new(channel), 17, config);
    assert_eq!(tree(&sim).num_active(), 24);

    let result = sim.run_until_resolved(20_000);
    assert!(result.resolved());
    assert!(sim.num_active() < sim.len(), "someone must knock out");

    let engine = tree(&sim);
    assert_eq!(
        engine.num_active(),
        sim.num_active(),
        "tile occupancy must track the simulation's live-node count"
    );
    let per_tile_sum: usize = (0..engine.tree().fine().num_tiles())
        .map(|t| engine.active_in_tile(t))
        .sum();
    assert_eq!(per_tile_sum, engine.num_active());
    let stats = engine.stats();
    assert!(stats.rounds > 0, "the engine should have served rounds");
    let listeners_served: u64 = result
        .trace()
        .rounds()
        .iter()
        .map(|r| (r.active_before - r.transmitters) as u64)
        .sum();
    assert_eq!(
        stats.listeners_resolved(),
        listeners_served,
        "every listener decision lands in exactly one stats bucket"
    );
    assert_eq!(
        stats.fast_decisions() + stats.noise_floor_silences + stats.exact_fallbacks(),
        stats.listeners_resolved(),
        "rung counters must reconcile with listeners resolved"
    );
}

#[test]
fn radio_channel_has_no_cache_but_runs_identically() {
    use fading_channel::RadioChannel;
    let run = |cached: bool| {
        let deployment = Deployment::uniform_square(12, 10.0, 5);
        let tier = if cached {
            EngineTier::GainCache
        } else {
            EngineTier::Exact
        };
        let mut sim = knockout_sim(
            deployment,
            Box::new(RadioChannel::new()),
            5,
            pinned(tier, None),
        );
        sim.run_until_resolved(20_000)
    };
    let a = run(true);
    let b = run(false);
    assert_eq!(a, b);

    let deployment = Deployment::uniform_square(12, 10.0, 5);
    let sim = knockout_sim(
        deployment,
        Box::new(RadioChannel::new()),
        5,
        SimConfig::default(),
    );
    assert!(matches!(sim.engine(), ResolveEngine::Exact));
}
