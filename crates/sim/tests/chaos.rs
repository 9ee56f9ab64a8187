//! Chaos harness: random fault plans must never break the simulator.
//!
//! For each channel model, ≥128 randomly generated [`FaultPlan`]s (jammers
//! with random positions/powers/duty cycles/budgets, noise bursts, churn
//! schedules, Gilbert–Elliott burst loss) are each run as a small seeded
//! trial batch under every combination of gain cache {on, off} × worker
//! threads {1, 8}. The properties:
//!
//! 1. **No panics** — arbitrary (valid) plans never crash the engine.
//! 2. **Byte-determinism** — all four cache/thread configurations produce
//!    identical `Vec<RunResult>`, traces included.
//! 3. **Explicit outcomes** — every run ends as `Resolved` in a round
//!    within the cap, or as `RoundCapExhausted` having executed exactly
//!    the cap; no silent third state.

use fading_channel::{
    Channel, LossySinrChannel, RayleighSinrChannel, Reception, SinrChannel, SinrParams,
};
use fading_geom::{Deployment, Point};
use fading_sim::faults::{ChurnEvent, FaultPlan, GilbertElliott, Jammer, NoiseBurst};
use fading_sim::{
    montecarlo, Action, EngineTier, Protocol, RunOutcome, RunResult, Simulation, TraceLevel,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

const N_NODES: usize = 12;
const SIDE: f64 = 10.0;
const ROUND_CAP: u64 = 400;
const TRIALS: usize = 3;

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

/// Raw generated jammer parameters:
/// ((x, y), power_exponent, start, period, burst_raw, budget_raw).
type JammerSpec = ((f64, f64), f64, u64, u64, u64, u64);
/// (start, len, log10_factor).
type BurstSpec = (u64, u64, f64);
/// (round, node, kind_selector).
type ChurnSpec = (u64, usize, u8);
/// (enabled, p_enter, p_exit, drop_good, drop_bad).
type LossSpec = (bool, f64, f64, f64, f64);

/// Builds a valid `FaultPlan` from raw generated parameters. Raw values
/// are mapped into each component's legal domain, so construction can
/// only fail on a bug in the validators themselves.
fn build_plan(
    jammers: &[JammerSpec],
    bursts: &[BurstSpec],
    churn: &[ChurnSpec],
    loss: LossSpec,
) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &((x, y), power_exp, start, period, burst_raw, budget_raw) in jammers {
        let power = 10f64.powf(power_exp);
        let burst_len = 1 + burst_raw % period;
        let budget = if budget_raw == 0 { None } else { Some(budget_raw) };
        plan = plan.with_jammer(
            Jammer::new(Point::new(x, y), power, start, period, burst_len, budget)
                .expect("mapped jammer parameters are valid"),
        );
    }
    for &(start, len, log_factor) in bursts {
        plan = plan.with_noise_burst(
            NoiseBurst::new(start, len, 10f64.powf(log_factor))
                .expect("mapped burst parameters are valid"),
        );
    }
    for &(round, node, kind) in churn {
        let event = match kind % 3 {
            0 => ChurnEvent::late_wake(round, node),
            1 => ChurnEvent::crash(round, node),
            _ => ChurnEvent::revive(round, node),
        };
        plan = plan.with_churn(event.expect("round ≥ 1 by construction"));
    }
    let (enabled, p_enter, p_exit, drop_good, drop_bad) = loss;
    if enabled {
        plan = plan.with_loss(
            GilbertElliott::new(p_enter, p_exit, drop_good, drop_bad)
                .expect("probabilities drawn from [0, 1]"),
        );
    }
    plan
}

/// One seeded trial batch under the given plan and cache/thread config.
fn run_batch(
    make_channel: &(dyn Fn() -> Box<dyn Channel> + Sync),
    plan: &FaultPlan,
    cached: bool,
    threads: usize,
) -> Vec<RunResult> {
    montecarlo::run_trials(TRIALS, threads, 7_000, |seed| {
        let deployment = Deployment::uniform_square(N_NODES, SIDE, seed);
        let mut sim = Simulation::new(deployment, make_channel(), seed, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        sim.set_fault_plan(plan.clone())
            .expect("plan validated against this deployment size");
        sim.set_tier(if cached {
            EngineTier::GainCache
        } else {
            EngineTier::Exact
        });
        sim.set_trace_level(TraceLevel::Full);
        sim.run_until_resolved(ROUND_CAP)
    })
}

/// The full chaos property for one (channel, plan) pair.
fn check_chaos_properties(make_channel: &(dyn Fn() -> Box<dyn Channel> + Sync), plan: &FaultPlan) {
    let reference = run_batch(make_channel, plan, true, 1);
    for &cached in &[true, false] {
        for &threads in &[1usize, 8] {
            let got = run_batch(make_channel, plan, cached, threads);
            assert_eq!(
                got, reference,
                "faulted batch diverged at cached={cached}, threads={threads}, plan={plan:?}"
            );
        }
    }
    for result in &reference {
        match result.outcome() {
            RunOutcome::Resolved { round, winner } => {
                assert!((1..=ROUND_CAP).contains(&round), "round {round} out of range");
                assert!(winner.is_some(), "resolved runs must name a winner");
            }
            RunOutcome::RoundCapExhausted { rounds_executed } => {
                assert_eq!(rounds_executed, ROUND_CAP, "cap exhaustion must run the full cap");
            }
        }
    }
}

fn params() -> SinrParams {
    SinrParams::default_single_hop()
}

fn plan_strategy() -> impl Strategy<
    Value = (
        Vec<JammerSpec>,
        Vec<BurstSpec>,
        Vec<ChurnSpec>,
        LossSpec,
    ),
> {
    (
        prop::collection::vec(
            (
                (0.0..SIDE, 0.0..SIDE),
                0.0..9.0f64, // power 1 .. 10^9
                1u64..60,
                1u64..12,
                0u64..12, // mapped to 1..=period
                0u64..50, // 0 = unbounded
            ),
            0..3,
        ),
        prop::collection::vec((1u64..60, 1u64..40, -1.0..6.0f64), 0..3),
        prop::collection::vec((1u64..60, 0..N_NODES, 0u8..3), 0..7),
        (
            any::<bool>(),
            0.0..=1.0f64,
            0.0..=1.0f64,
            0.0..=1.0f64,
            0.0..=1.0f64,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sinr_survives_random_fault_plans((jammers, bursts, churn, loss) in plan_strategy()) {
        let plan = build_plan(&jammers, &bursts, &churn, loss);
        check_chaos_properties(&|| Box::new(SinrChannel::new(params())), &plan);
    }

    #[test]
    fn rayleigh_survives_random_fault_plans((jammers, bursts, churn, loss) in plan_strategy()) {
        let plan = build_plan(&jammers, &bursts, &churn, loss);
        check_chaos_properties(&|| Box::new(RayleighSinrChannel::new(params())), &plan);
    }

    #[test]
    fn lossy_survives_random_fault_plans((jammers, bursts, churn, loss) in plan_strategy()) {
        let plan = build_plan(&jammers, &bursts, &churn, loss);
        check_chaos_properties(
            &|| Box::new(LossySinrChannel::new(params(), 0.2).expect("valid drop_prob")),
            &plan,
        );
    }
}
