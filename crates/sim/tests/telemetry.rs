//! Telemetry integration suite: the late-wake participant regression,
//! active-set replay, event stream consistency and the metrics fold. That a sink never perturbs a
//! run, at any thread count, is the differential oracle's
//! (`tests/differential.rs`).

use std::sync::Arc;

use fading_channel::{Channel, RadioChannel, SinrChannel, SinrParams};
use fading_geom::{Deployment, Point};
use fading_sim::faults::{ChurnEvent, FaultPlan, GilbertElliott, Jammer, NoiseBurst};
use fading_sim::telemetry::{replay_active_sets, MetricsRegistry};
use fading_sim::{
    Action, EngineTier, MemorySink, NodeId, Protocol, Reception, RoundEvent, RunResult, SimConfig,
    Simulation, TelemetryDetail, Tracer,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// Transmits with fixed probability; knocked out on reception.
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

/// Always transmits (never resolves with ≥ 2 nodes on the radio channel).
#[derive(Debug)]
struct AlwaysTx;

impl Protocol for AlwaysTx {
    fn act(&mut self, _round: u64, _rng: &mut SmallRng) -> Action {
        Action::Transmit
    }
    fn feedback(&mut self, _round: u64, _reception: &Reception) {}
    fn is_active(&self) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "test-always"
    }
}

fn make_channel(name: &str) -> Box<dyn Channel> {
    let params = SinrParams::default_single_hop();
    match name {
        "sinr" => Box::new(SinrChannel::new(params)),
        "radio" => Box::new(RadioChannel::new()),
        other => panic!("unknown channel {other}"),
    }
}

/// A plan exercising every fault type at once (jamming, noise burst,
/// crash + revive, late wake, Gilbert–Elliott loss).
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

/// An always-transmitting 4-node radio line under `config`.
fn always_tx_line(config: SimConfig) -> Simulation {
    Simulation::try_new(line_deployment(4), make_channel("radio"), 0, config, |_| {
        Box::new(AlwaysTx)
    })
    .expect("valid configuration")
}

fn everything_plan() -> FaultPlan {
    let power = SinrParams::default_single_hop().power() * 10.0;
    FaultPlan::new()
        .with_jammer(Jammer::new(Point::new(6.0, 6.0), power, 3, 5, 2, Some(20)).unwrap())
        .with_noise_burst(NoiseBurst::new(4, 6, 3.0).unwrap())
        .with_churn(ChurnEvent::crash(5, 0).unwrap())
        .with_churn(ChurnEvent::revive(9, 0).unwrap())
        .with_churn(ChurnEvent::late_wake(3, 1).unwrap())
        .with_loss(GilbertElliott::new(0.2, 0.3, 0.05, 0.8).unwrap())
}

/// The default configuration with [`everything_plan`] attached.
fn faulted() -> SimConfig {
    SimConfig {
        fault_plan: Some(everything_plan()),
        ..SimConfig::default()
    }
}

/// A faulted SINR run with a full-detail sink: the result and its event
/// stream.
fn full_detail_run(seed: u64) -> (RunResult, Vec<RoundEvent>) {
    let deployment = Deployment::uniform_square(20, 12.0, seed);
    let mut sim = knockout_sim(deployment, make_channel("sinr"), seed, faulted());
    sim.run_recorded(5_000, TelemetryDetail::full())
}

fn line_deployment(n: usize) -> Deployment {
    Deployment::from_points(
        (0..n)
            .map(|i| Point::new(i as f64 * 2.0, 0.0))
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

/// Regression for the participant accounting bug: with a late-wake plan,
/// sleeping nodes are *active but not participating*, and the round's
/// record used to count them. `participants` is pinned to the awake,
/// post-churn nodes, while `active_pre_churn` keeps the raw active count.
#[test]
fn late_wake_participants_exclude_sleepers() {
    for tier in [EngineTier::GainCache, EngineTier::Exact] {
        let plan = FaultPlan::new()
            .with_churn(ChurnEvent::late_wake(4, 1).unwrap())
            .with_churn(ChurnEvent::late_wake(4, 2).unwrap())
            .with_churn(ChurnEvent::late_wake(4, 3).unwrap());
        let mut sim = always_tx_line(SimConfig {
            tier: Some(tier),
            fault_plan: Some(plan),
            ..SimConfig::default()
        });
        let (result, events) = sim.run_recorded(1, TelemetryDetail::counts());
        // Only node 0 is awake in round 1: one participant, who transmits
        // solo and resolves. The pre-fix code reported 4 here.
        assert_eq!(events[0].participants, 1, "{tier:?}");
        assert_eq!(events[0].transmitters, 1);
        assert_eq!(events[0].listeners, 0);
        assert_eq!(result.resolved_at(), Some(1));
        assert_eq!(
            events[0].active_pre_churn, 4,
            "sleepers are still active — the event keeps both views"
        );
        assert!(events[0].resolved);
        assert_eq!(events[0].winner, Some(0));
    }
}

/// Without late-wake churn, every active node participates: the
/// participant count equals the active count after the round's churn.
#[test]
fn participants_are_the_active_nodes_without_late_wake() {
    for faulted in [false, true] {
        let deployment = Deployment::uniform_square(20, 12.0, 5);
        // Crash/revive churn but NO late wakes: every active node is
        // awake, so participants == post-churn active count.
        let plan = faulted.then(|| {
            FaultPlan::new()
                .with_churn(ChurnEvent::crash(3, 0).unwrap())
                .with_churn(ChurnEvent::revive(6, 0).unwrap())
        });
        let config = SimConfig {
            fault_plan: plan,
            ..SimConfig::default()
        };
        let mut sim = knockout_sim(deployment, make_channel("sinr"), 5, config);
        let (result, events) = sim.run_recorded(5_000, TelemetryDetail::counts());
        assert_eq!(events.len() as u64, result.rounds_executed());
        for event in &events {
            assert_eq!(
                event.participants,
                event.transmitters + event.listeners,
                "faulted={faulted}"
            );
            // Churn this round shifts the pre-churn count by the applied
            // events, which participants must match; unfaulted rounds
            // apply none.
            if !faulted {
                assert_eq!(event.participants, event.active_pre_churn);
            }
        }
    }
}

/// `replay_active_sets` reconstructs exactly the per-round active sets an
/// observer loop would have snapshotted.
#[test]
fn replay_matches_observed_active_sets() {
    let deployment = Deployment::uniform_square(20, 12.0, 11);
    let mut sim = knockout_sim(deployment, make_channel("sinr"), 11, faulted());
    sim.set_telemetry_sink(Box::new(MemorySink::new(TelemetryDetail::ids())));
    let mut observed: Vec<Vec<NodeId>> = Vec::new();
    let result = sim.run_until_resolved_with(5_000, |s| observed.push(s.active_ids()));
    let events = MemorySink::recover(sim.take_telemetry_sink().unwrap())
        .unwrap()
        .into_events();
    assert_eq!(observed.len(), events.len() + 1);
    let replayed = replay_active_sets(&observed[0], &events);
    assert_eq!(replayed, observed, "replay must match the observer loop");
    assert!(result.resolved());
}

/// Internal consistency of full-detail faulted event streams, plus a
/// requirement that every fault signature (noise burst, jamming, churn)
/// shows up somewhere across the sampled seeds.
#[test]
fn event_stream_is_internally_consistent() {
    let (mut saw_noise, mut saw_jam, mut saw_churn) = (false, false, false);
    for seed in [13u64, 17, 23, 29, 31] {
        let (result, events) = full_detail_run(seed);
        assert_eq!(events.len() as u64, result.rounds_executed());
        for (k, ev) in events.iter().enumerate() {
            assert_eq!(ev.round, k as u64 + 1, "rounds must be contiguous from 1");
            assert_eq!(ev.participants, ev.transmitters + ev.listeners);
            assert_eq!(ev.transmitter_ids.len(), ev.transmitters);
            assert_eq!(ev.knocked_out_ids.len(), ev.knocked_out);
            assert_eq!(
                ev.churn_applied,
                ev.crashed_ids.len() + ev.revived_ids.len(),
                "churn_applied counts effective crashes + revivals"
            );
            assert_eq!(ev.sinr.len(), ev.listeners, "one breakdown per listener");
            assert_eq!(ev.resolved, ev.transmitters == 1);
            if ev.resolved {
                assert_eq!(ev.winner, Some(ev.transmitter_ids[0]));
            } else {
                assert_eq!(ev.winner, None);
            }
            assert!(ev.noise_scale >= 1.0);
            assert!(ev.jam_power >= 0.0);
            for b in &ev.sinr {
                assert_eq!(b.decoded, b.margin >= 0.0);
                assert!(b.signal >= 0.0 && b.interference >= 0.0 && b.extra >= 0.0);
            }
            saw_noise |= ev.noise_scale > 1.0;
            saw_jam |= ev.jam_power > 0.0;
            saw_churn |= ev.churn_applied > 0;
        }
        if result.resolved() {
            let resolving = events.last().unwrap();
            assert!(resolving.resolved, "seed {seed}");
            assert_eq!(resolving.winner, result.winner(), "seed {seed}");
        }
    }
    assert!(saw_noise, "no sampled run entered the noise burst window");
    assert!(saw_jam, "no sampled run recorded jammer activity");
    assert!(saw_churn, "no sampled run applied a crash/revive event");
}

/// Metrics collect without perturbing the run and agree with the result.
#[test]
fn metrics_registry_agrees_with_run_result() {
    let run = |with_metrics: bool| {
        let deployment = Deployment::uniform_square(20, 12.0, 21);
        let mut sim = knockout_sim(deployment, make_channel("sinr"), 21, SimConfig::default());
        let tracer = with_metrics.then(Tracer::new);
        if let Some(t) = &tracer {
            sim.set_tracer(Arc::clone(t));
        }
        sim.set_telemetry_sink(Box::new(MemorySink::new(TelemetryDetail::full())));
        let result = sim.run_until_resolved(5_000);
        let metrics = tracer.map(|t| {
            let sink = MemorySink::recover(sim.take_telemetry_sink().unwrap()).unwrap();
            MetricsRegistry::fold(sink.events(), &t.finished_spans())
        });
        (result, metrics)
    };
    let (plain, none) = run(false);
    let (timed, metrics) = run(true);
    assert!(none.is_none());
    assert_eq!(plain, timed, "metrics must not perturb the run");
    let metrics = metrics.unwrap();
    assert_eq!(metrics.rounds(), timed.rounds_executed());
    assert_eq!(metrics.transmissions(), timed.total_transmissions());
    assert_eq!(
        metrics.knockouts_per_round().count(),
        timed.rounds_executed()
    );
    assert!(
        metrics.interference().count() > 0,
        "full-detail sink routes SINR breakdowns into the interference histogram"
    );
    assert!(metrics.round_latency_nanos().count() > 0);
    let summary = metrics.summary();
    assert!(summary.contains("rounds="), "{summary}");
}
