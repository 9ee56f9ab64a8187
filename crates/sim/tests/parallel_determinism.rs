//! Parallel-resolve determinism harness: neither the hierarchical engine
//! nor the work-stealing resolve pool may be visible in results.
//!
//! The cross-product here is the PR's headline contract, checked end to
//! end: hierarchical {on, off} × resolve threads {1, 2, 8} × fault plan
//! {none, stress} — with knockout churn shrinking the live set every
//! round — must produce **byte-identical** `Vec<RunResult>`s (traces
//! included). A channel-level multi-chunk check and an adversarial-sleep
//! pool test pin down the two mechanisms the argument rests on: the
//! fixed-chunk deterministic merge and the order-independence of the
//! stealing scheduler.

use fading_channel::{
    Channel, ChannelPerturbation, EngineTier, HierarchicalFarFieldEngine, LossySinrChannel,
    RayleighSinrChannel, Reception, ResolveEngine, SerialExecutor, SinrChannel, SinrParams,
    HIER_TILE_CHUNK,
};
use fading_geom::Deployment;
use fading_sim::faults::{ChurnEvent, FaultPlan, GilbertElliott, Jammer, NoiseBurst};
use fading_sim::{
    montecarlo, Action, Protocol, RunResult, SimConfig, Simulation, StealPool, TraceLevel,
};
use fading_geom::Point;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

fn params() -> SinrParams {
    SinrParams::default_single_hop()
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

/// The same kitchen-sink fault plan as `determinism.rs`: duty-cycled
/// budgeted jamming, a noise burst, all three churn kinds, and
/// Gilbert–Elliott burst loss.
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

/// One seeded trial batch with the hierarchical tier and resolve-thread
/// count under test. The tier is set so every round actually routes
/// through the engine being compared (hierarchical vs. exact).
fn run_hier_batch<F>(
    make_channel: &F,
    hierarchical: bool,
    resolve_threads: usize,
    trials: usize,
    faulted: bool,
) -> Vec<RunResult>
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    montecarlo::run_trials(trials, 1, 1000, move |seed| {
        let deployment = Deployment::uniform_square(24, 15.0, seed);
        let config = SimConfig {
            tier: Some(if hierarchical {
                EngineTier::Hierarchical
            } else {
                EngineTier::Exact
            }),
            trace_level: TraceLevel::Full,
            fault_plan: faulted.then(stress_plan),
            ..SimConfig::default()
        };
        let mut sim = knockout_sim(deployment, make_channel(), seed, config);
        sim.set_resolve_threads(resolve_threads);
        sim.run_until_resolved(20_000)
    })
}

/// The headline cross-product for one channel: hierarchical {on, off} ×
/// resolve threads {1, 2, 8} × faults {none, stress} must all produce the
/// same `Vec<RunResult>` as the exact serial reference.
fn assert_hierarchical_and_threads_invariant<F>(make_channel: F)
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    let trials = 8;
    for &faulted in &[false, true] {
        let reference = run_hier_batch(&make_channel, false, 1, trials, faulted);
        assert!(
            reference.iter().any(|r| r.resolved()),
            "batch (faulted={faulted}) never resolved; too hard to be a useful oracle"
        );
        for &hierarchical in &[true, false] {
            for &threads in &[1usize, 2, 8] {
                let got = run_hier_batch(&make_channel, hierarchical, threads, trials, faulted);
                assert_eq!(
                    got, reference,
                    "results diverged at hierarchical={hierarchical}, \
                     resolve_threads={threads}, faulted={faulted}"
                );
            }
        }
    }
}

#[test]
fn sinr_results_invariant_under_hierarchical_and_resolve_threads() {
    assert_hierarchical_and_threads_invariant(|| Box::new(SinrChannel::new(params())));
}

#[test]
fn lossy_results_invariant_under_hierarchical_and_resolve_threads() {
    assert_hierarchical_and_threads_invariant(|| {
        Box::new(LossySinrChannel::new(params(), 0.2).expect("valid drop_prob"))
    });
}

#[test]
fn rayleigh_results_invariant_under_hierarchical_and_resolve_threads() {
    // Rayleigh cannot be served by the hierarchical tier (per-pair fading
    // draws pin the rng schedule); asking for it builds the highest tier
    // Rayleigh supports, which must be just as invisible.
    assert_hierarchical_and_threads_invariant(|| Box::new(RayleighSinrChannel::new(params())));
}

/// Channel-level multi-chunk check: a deployment large enough to split
/// into several `HIER_TILE_CHUNK`-tile chunks must produce the same
/// receptions *and* the same rng cursor under the serial executor and
/// under pools of 2 and 8 workers — the deterministic-merge contract at
/// the layer where the parallelism actually lives.
#[test]
fn multi_chunk_resolve_is_executor_invariant() {
    let n = 8192;
    let deployment = Deployment::uniform_square(n, 184.0, 11);
    let positions = deployment.points().to_vec();
    let p = params();
    let ch = SinrChannel::new(p);
    let mut rng_seed = SmallRng::seed_from_u64(99);
    let transmitters: Vec<usize> = (0..n).filter(|_| rng_seed.gen_bool(0.25)).collect();
    let listeners: Vec<usize> = (0..n).filter(|i| !transmitters.contains(i)).collect();

    let run = |executor: &dyn fading_channel::ChunkExecutor| {
        let mut engine = ResolveEngine::build(&ch, EngineTier::Hierarchical, &positions);
        let ResolveEngine::Hierarchical(e) = &engine else {
            panic!("SINR must build a hierarchical engine");
        };
        assert!(
            e.tree().fine().num_tiles() > HIER_TILE_CHUNK,
            "need multiple HIER_TILE_CHUNK-tile chunks for this test to bite"
        );
        let mut rng = SmallRng::seed_from_u64(7);
        let rx = ch.resolve_with(
            &positions,
            &transmitters,
            &listeners,
            &mut engine,
            &ChannelPerturbation::neutral(),
            executor,
            &mut rng,
            None,
        );
        (rx, rng)
    };

    let (serial_rx, serial_rng) = run(&SerialExecutor);
    for &threads in &[2usize, 8] {
        let pool = StealPool::new(threads);
        let (rx, rng) = run(&pool);
        assert_eq!(rx, serial_rx, "receptions diverged at {threads} workers");
        assert_eq!(rng, serial_rng, "rng cursor diverged at {threads} workers");
    }
}

/// Adversarial-sleep pool test: per-task sleeps derived from the task id
/// scramble completion order (late tasks finish first, early tasks get
/// stolen), yet each task's output lands in its own slot and the gathered
/// results are identical across pool widths — completion order has no
/// channel through which to leak into results.
#[test]
fn adversarial_sleeps_cannot_leak_completion_order_into_results() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    const TASKS: usize = 64;
    let expected: Vec<u64> = (0..TASKS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();

    let mut completion_orders = Vec::new();
    for &threads in &[1usize, 2, 8] {
        let pool = StealPool::new(threads);
        let slots: Vec<AtomicU64> = (0..TASKS).map(|_| AtomicU64::new(0)).collect();
        let order = Mutex::new(Vec::with_capacity(TASKS));
        pool.run(TASKS, &|i| {
            // Deterministic per-task jitter, worst at the front of the
            // range so the owner's queue drains slowly and thieves win.
            let jitter_ms = 3u64.saturating_sub((i as u64) % 4);
            std::thread::sleep(std::time::Duration::from_millis(jitter_ms));
            slots[i].store((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15), Ordering::SeqCst);
            order.lock().expect("no panics hold the lock").push(i);
        });
        let got: Vec<u64> = slots.iter().map(|s| s.load(Ordering::SeqCst)).collect();
        assert_eq!(got, expected, "slot contents diverged at {threads} threads");
        let order = order.into_inner().expect("no panics hold the lock");
        assert_eq!(order.len(), TASKS, "every task ran exactly once");
        completion_orders.push(order);
    }
    // The single-threaded pool runs inline and in order; wider pools are
    // free to complete in any order — the point is that the assertion
    // above held regardless of what these orders turned out to be.
    assert_eq!(
        completion_orders[0],
        (0..TASKS).collect::<Vec<_>>(),
        "inline execution is sequential by construction"
    );
}

/// API surface: the hierarchical tier is not built below the auto
/// threshold, builds on demand, tracks knockout occupancy, and the
/// resolve-pool width is a visible, settable knob.
#[test]
fn simulation_exposes_hierarchical_state() {
    let make = |tier: Option<EngineTier>| {
        let deployment = Deployment::uniform_square(24, 15.0, 7);
        let config = SimConfig {
            tier,
            ..SimConfig::default()
        };
        knockout_sim(deployment, Box::new(SinrChannel::new(params())), 7, config)
    };
    let sim = make(None);
    assert_ne!(
        sim.tier(),
        EngineTier::Hierarchical,
        "24 nodes sit below the gain-cache guard, where auto keeps the cache"
    );
    assert_eq!(sim.resolve_threads(), 1, "serial resolve by default");

    let mut sim = make(Some(EngineTier::Hierarchical));
    sim.set_resolve_threads(8);
    assert_eq!(sim.resolve_threads(), 8);
    assert_eq!(
        hierarchical(&sim).num_active(),
        24,
        "on-demand build syncs occupancy with the live set"
    );
    assert_eq!(sim.engine().stats().rounds, 0);

    let result = sim.run_until_resolved(20_000);
    assert!(result.resolved());
    assert!(sim.num_active() < sim.len(), "someone must knock out");
    let engine = hierarchical(&sim);
    assert_eq!(
        engine.num_active(),
        sim.num_active(),
        "tree occupancy must track the simulation's live-node count"
    );
    let stats = engine.stats();
    assert!(stats.rounds > 0, "the tier should have served rounds");
    assert_eq!(
        stats.fast_decisions() + stats.noise_floor_silences + stats.exact_fallbacks(),
        stats.listeners_resolved(),
        "rung counters must reconcile with listeners resolved"
    );

    let sim = make(Some(EngineTier::Exact));
    assert!(
        matches!(sim.engine(), ResolveEngine::Exact),
        "the override replaces the engine"
    );
}

fn hierarchical(sim: &Simulation) -> &HierarchicalFarFieldEngine {
    match sim.engine() {
        ResolveEngine::Hierarchical(e) => e,
        other => panic!("expected the hierarchical engine, got {:?}", other.tier()),
    }
}
