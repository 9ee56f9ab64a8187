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
    montecarlo, Action, EngineTier, Protocol, ResolveEngine, RunResult, Simulation, TraceLevel,
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

/// Runs one full trial batch: `trials` seeded runs of a 24-node knockout
/// protocol on the channel built by `make_channel`, with the gain cache
/// forced on or off.
fn run_batch<F>(make_channel: &F, cached: bool, threads: usize, trials: usize) -> Vec<RunResult>
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    montecarlo::run_trials(trials, threads, 1000, |seed| {
        let deployment = Deployment::uniform_square(24, 15.0, seed);
        let mut sim = Simulation::new(deployment, make_channel(), seed, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        sim.set_tier(if cached {
            EngineTier::GainCache
        } else {
            EngineTier::Exact
        });
        sim.set_trace_level(TraceLevel::Full);
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
        let mut sim = Simulation::new(deployment, make_channel(), seed, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        sim.set_fault_plan(stress_plan()).expect("plan fits deployment");
        sim.set_tier(if cached {
            EngineTier::GainCache
        } else {
            EngineTier::Exact
        });
        sim.set_trace_level(TraceLevel::Full);
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
        let mut sim = Simulation::new(
            deployment,
            Box::new(RayleighSinrChannel::new(params())),
            3,
            |_| {
                Box::new(Knockout {
                    p: 0.25,
                    active: true,
                })
            },
        );
        if attach_empty {
            sim.set_fault_plan(FaultPlan::new()).expect("empty plan");
        }
        sim.set_trace_level(TraceLevel::Full);
        sim.run_until_resolved(20_000)
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn simulation_exposes_cache_state() {
    let deployment = Deployment::uniform_square(16, 10.0, 7);
    let channel = SinrChannel::new(params());
    let mut sim = Simulation::new(deployment, Box::new(channel), 7, |_| {
        Box::new(Knockout {
            p: 0.25,
            active: true,
        })
    });
    assert_eq!(sim.tier(), EngineTier::GainCache, "SINR channel should build a cache");
    match sim.engine() {
        ResolveEngine::GainCache(c) => assert_eq!(c.len(), 16),
        other => panic!("expected the gain cache, got {:?}", other.tier()),
    }
    sim.set_tier(EngineTier::Exact);
    assert_eq!(sim.tier(), EngineTier::Exact);
    assert!(
        matches!(sim.engine(), ResolveEngine::Exact),
        "the override replaces the cache"
    );
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
        Simulation::new(deployment, channel, 11, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        })
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

/// Like [`run_batch`]/[`run_faulted_batch`], but exercising the far-field
/// engine: gain cache disabled so the farfield/exact comparison is pure,
/// fault plan optional.
fn run_farfield_batch<F>(
    make_channel: &F,
    farfield: bool,
    threads: usize,
    trials: usize,
    faulted: bool,
) -> Vec<RunResult>
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    montecarlo::run_trials(trials, threads, 1000, move |seed| {
        let deployment = Deployment::uniform_square(24, 15.0, seed);
        let mut sim = Simulation::new(deployment, make_channel(), seed, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        if faulted {
            sim.set_fault_plan(stress_plan()).expect("plan fits deployment");
        }
        sim.set_tier(if farfield {
            EngineTier::FarField
        } else {
            EngineTier::Exact
        });
        sim.set_trace_level(TraceLevel::Full);
        sim.run_until_resolved(20_000)
    })
}

/// The engine-tier cross-product: farfield {on, off} × threads {1, 8} ×
/// fault plan {none, stress} must all produce byte-identical results —
/// the end-to-end restatement of the decision-exactness contract, with
/// knockout churn keeping the tile occupancy maintenance honest.
fn assert_farfield_and_threads_invariant<F>(make_channel: F)
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    let trials = 12;
    for &faulted in &[false, true] {
        let reference = run_farfield_batch(&make_channel, false, 1, trials, faulted);
        assert!(
            reference.iter().any(|r| r.resolved()),
            "batch (faulted={faulted}) never resolved; too hard to be a useful oracle"
        );
        for &farfield in &[true, false] {
            for &threads in &[1usize, 8] {
                let got = run_farfield_batch(&make_channel, farfield, threads, trials, faulted);
                assert_eq!(
                    got, reference,
                    "results diverged at farfield={farfield}, threads={threads}, faulted={faulted}"
                );
            }
        }
    }
}

#[test]
fn sinr_results_invariant_under_farfield_and_thread_count() {
    assert_farfield_and_threads_invariant(|| Box::new(SinrChannel::new(params())));
}

#[test]
fn rayleigh_results_invariant_under_farfield_and_thread_count() {
    // Rayleigh cannot be served by the far-field tier (per-pair fading
    // draws pin the rng schedule); asking for it builds the highest tier
    // Rayleigh supports, which must be just as invisible.
    assert_farfield_and_threads_invariant(|| Box::new(RayleighSinrChannel::new(params())));
}

#[test]
fn lossy_results_invariant_under_farfield_and_thread_count() {
    assert_farfield_and_threads_invariant(|| {
        Box::new(LossySinrChannel::new(params(), 0.2).expect("valid drop_prob"))
    });
}

fn farfield(sim: &Simulation) -> &fading_channel::FarFieldEngine {
    match sim.engine() {
        ResolveEngine::FarField(e) => e,
        other => panic!("expected the far-field engine, got {:?}", other.tier()),
    }
}

#[test]
fn simulation_exposes_farfield_state() {
    let deployment = Deployment::uniform_square(16, 10.0, 7);
    let channel = SinrChannel::new(params());
    let mut sim = Simulation::new(deployment, Box::new(channel), 7, |_| {
        Box::new(Knockout {
            p: 0.25,
            active: true,
        })
    });
    // The gain cache is the default at this size; the far-field engine is
    // built only when the tier is set.
    assert_eq!(sim.tier(), EngineTier::GainCache, "cache tier should win at n=16");
    sim.set_tier(EngineTier::FarField);
    assert_eq!(farfield(&sim).num_active(), 16);
    assert_eq!(sim.engine().stats().rounds, 0, "no rounds resolved yet");
    sim.set_tier(EngineTier::Exact);
    assert!(
        matches!(sim.engine(), ResolveEngine::Exact),
        "the override replaces the engine"
    );
}

#[test]
fn farfield_occupancy_shrinks_as_nodes_knock_out() {
    let deployment = Deployment::uniform_square(24, 15.0, 3);
    let channel = SinrChannel::new(params());
    let mut sim = Simulation::new(deployment, Box::new(channel), 17, |_| {
        Box::new(Knockout {
            p: 0.25,
            active: true,
        })
    });
    sim.set_tier(EngineTier::FarField);
    sim.set_trace_level(TraceLevel::Counts);
    assert_eq!(farfield(&sim).num_active(), 24);

    let result = sim.run_until_resolved(20_000);
    assert!(result.resolved());
    assert!(sim.num_active() < sim.len(), "someone must knock out");

    let engine = farfield(&sim);
    assert_eq!(
        engine.num_active(),
        sim.num_active(),
        "tile occupancy must track the simulation's live-node count"
    );
    let per_tile_sum: usize = (0..engine.tiles().num_tiles())
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
        let mut sim = Simulation::new(deployment, Box::new(RadioChannel::new()), 5, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        sim.set_tier(if cached {
            EngineTier::GainCache
        } else {
            EngineTier::Exact
        });
        sim.set_trace_level(TraceLevel::Full);
        sim.run_until_resolved(20_000)
    };
    let a = run(true);
    let b = run(false);
    assert_eq!(a, b);

    let deployment = Deployment::uniform_square(12, 10.0, 5);
    let sim = Simulation::new(deployment, Box::new(RadioChannel::new()), 5, |_| {
        Box::new(Knockout {
            p: 0.25,
            active: true,
        })
    });
    assert!(matches!(sim.engine(), ResolveEngine::Exact));
}
