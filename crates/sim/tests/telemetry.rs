//! Telemetry integration suite: the determinism matrix (sink on/off ×
//! cache on/off × threads 1/8, clean and faulted, across channel models),
//! JSONL round-trips, the `active_before` late-wake regression, the trace
//! record cap, and active-set replay.

use fading_channel::{
    Channel, LossySinrChannel, RadioChannel, RayleighSinrChannel, SinrChannel, SinrParams,
};
use fading_geom::{Deployment, Point};
use fading_sim::faults::{ChurnEvent, FaultPlan, GilbertElliott, Jammer, NoiseBurst};
use fading_sim::telemetry::{jsonl, replay_active_sets};
use fading_sim::{
    montecarlo, Action, EngineTier, MemorySink, NoopSink, NodeId, Protocol, Reception, RunResult,
    Simulation, TelemetryDetail, Trace, TraceLevel,
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
        "rayleigh" => Box::new(RayleighSinrChannel::new(params)),
        "lossy" => Box::new(LossySinrChannel::new(params, 0.3).unwrap()),
        "radio" => Box::new(RadioChannel::new()),
        other => panic!("unknown channel {other}"),
    }
}

/// A plan exercising every fault type at once (jamming, noise burst,
/// crash + revive, late wake, Gilbert–Elliott loss).
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

#[derive(Clone, Copy, Debug)]
enum Sink {
    None,
    Noop,
    Memory(TelemetryDetail),
}

fn run_matrix_cell(
    channel: &str,
    seed: u64,
    cache_on: bool,
    sink: Sink,
    faulted: bool,
) -> (RunResult, Option<MemorySink>) {
    let deployment = Deployment::uniform_square(20, 12.0, seed);
    let mut sim = Simulation::new(deployment, make_channel(channel), seed, |_| {
        Box::new(Knockout {
            p: 0.25,
            active: true,
        })
    });
    if faulted {
        sim.set_fault_plan(everything_plan()).unwrap();
    }
    sim.set_tier(if cache_on {
        EngineTier::GainCache
    } else {
        EngineTier::Exact
    });
    sim.set_trace_level(TraceLevel::Full);
    match sink {
        Sink::None => {}
        Sink::Noop => sim.set_telemetry_sink(Box::new(NoopSink)),
        Sink::Memory(detail) => sim.set_telemetry_sink(Box::new(MemorySink::new(detail))),
    }
    let result = sim.run_until_resolved(5_000);
    let recovered = sim.take_telemetry_sink().and_then(MemorySink::recover);
    (result, recovered)
}

/// The core non-perturbation contract: for every channel model, fault
/// setting, cache setting, and sink detail level, the `RunResult` is
/// byte-identical to the sink-free cached baseline.
#[test]
fn telemetry_never_perturbs_any_channel_or_fault_setting() {
    for channel in ["sinr", "rayleigh", "lossy", "radio"] {
        for faulted in [false, true] {
            let (baseline, _) = run_matrix_cell(channel, 42, true, Sink::None, faulted);
            for cache_on in [true, false] {
                for sink in [
                    Sink::None,
                    Sink::Noop,
                    Sink::Memory(TelemetryDetail::counts()),
                    Sink::Memory(TelemetryDetail::ids()),
                    Sink::Memory(TelemetryDetail::full()),
                ] {
                    let (result, _) = run_matrix_cell(channel, 42, cache_on, sink, faulted);
                    assert_eq!(
                        result, baseline,
                        "{channel} faulted={faulted} cache={cache_on} sink={sink:?}: \
                         telemetry or cache setting perturbed the run"
                    );
                }
            }
        }
    }
}

/// Monte-Carlo with per-trial sinks: the merged (result, events) stream is
/// identical across thread counts, and results match sink-free trials.
#[test]
fn montecarlo_telemetry_is_thread_invariant() {
    let trial = |seed: u64| {
        let deployment = Deployment::uniform_square(16, 10.0, seed);
        let mut sim = Simulation::new(deployment, make_channel("sinr"), seed, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        sim.set_fault_plan(everything_plan()).unwrap();
        sim.set_telemetry_sink(Box::new(MemorySink::new(TelemetryDetail::full())));
        let result = sim.run_until_resolved(5_000);
        let events = MemorySink::recover(sim.take_telemetry_sink().unwrap())
            .unwrap()
            .into_events();
        (result, events)
    };
    let one = montecarlo::run_trials_with(8, 1, 300, trial);
    let eight = montecarlo::run_trials_with(8, 8, 300, trial);
    assert_eq!(one, eight, "thread count must not affect results or event streams");

    let plain = montecarlo::run_trials(8, 4, 300, |seed| {
        let deployment = Deployment::uniform_square(16, 10.0, seed);
        let mut sim = Simulation::new(deployment, make_channel("sinr"), seed, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        sim.set_fault_plan(everything_plan()).unwrap();
        sim.run_until_resolved(5_000)
    });
    for ((with_sink, events), without_sink) in one.iter().zip(&plain) {
        assert_eq!(with_sink, without_sink, "sink must not perturb Monte-Carlo trials");
        assert_eq!(events.len() as u64, with_sink.rounds_executed());
    }
}

/// Full-detail event streams survive a JSONL file round-trip bit-exactly,
/// both as a flat stream and as tagged trial blocks.
#[test]
fn jsonl_files_round_trip_bit_exactly() {
    let (result, sink) = run_matrix_cell("sinr", 7, true, Sink::Memory(TelemetryDetail::full()), true);
    let events = sink.unwrap().into_events();
    assert_eq!(events.len() as u64, result.rounds_executed());
    assert!(
        events.iter().any(|e| !e.sinr.is_empty()),
        "faulted SINR run must produce breakdowns to make the round-trip meaningful"
    );

    let dir = std::env::temp_dir();
    let flat = dir.join(format!("fading-telemetry-{}-flat.jsonl", std::process::id()));
    jsonl::write_events_to_path(&flat, &events).unwrap();
    let back = jsonl::read_events_from_path(&flat).unwrap();
    assert_eq!(back, events, "flat stream must round-trip");
    std::fs::remove_file(&flat).ok();

    let blocks = vec![
        jsonl::TrialBlock {
            trial: 0,
            seed: 7,
            events: events.clone(),
        },
        jsonl::TrialBlock {
            trial: 1,
            seed: 8,
            events: Vec::new(),
        },
    ];
    let tagged = dir.join(format!("fading-telemetry-{}-blocks.jsonl", std::process::id()));
    jsonl::write_trial_blocks_to_path(&tagged, &blocks).unwrap();
    let back = jsonl::read_trial_blocks_from_path(&tagged).unwrap();
    assert_eq!(back, blocks, "trial blocks must round-trip");
    std::fs::remove_file(&tagged).ok();
}

fn line_deployment(n: usize) -> Deployment {
    Deployment::from_points(
        (0..n)
            .map(|i| Point::new(i as f64 * 2.0, 0.0))
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

/// Regression for the `active_before` accounting bug: with a late-wake
/// plan, sleeping nodes are *active but not participating*, and the trace
/// used to count them. `active_before` is pinned to the participant count
/// (post-churn, awake), while the telemetry event additionally reports the
/// raw pre-churn active count.
#[test]
fn late_wake_active_before_counts_participants_only() {
    let build = |cache_on: bool| {
        let mut sim = Simulation::new(line_deployment(4), make_channel("radio"), 0, |_| {
            Box::new(AlwaysTx)
        });
        let plan = FaultPlan::new()
            .with_churn(ChurnEvent::late_wake(4, 1).unwrap())
            .with_churn(ChurnEvent::late_wake(4, 2).unwrap())
            .with_churn(ChurnEvent::late_wake(4, 3).unwrap());
        sim.set_fault_plan(plan).unwrap();
        sim.set_tier(if cache_on {
            EngineTier::GainCache
        } else {
            EngineTier::Exact
        });
        sim.set_trace_level(TraceLevel::Counts);
        sim.set_telemetry_sink(Box::new(MemorySink::new(TelemetryDetail::counts())));
        sim
    };
    for cache_on in [true, false] {
        let mut sim = build(cache_on);
        let result = sim.run_until_resolved(1);
        let record = &result.trace().rounds()[0];
        // Only node 0 is awake in round 1: one participant, who transmits
        // solo and resolves. The pre-fix code reported 4 here.
        assert_eq!(record.active_before, 1, "cache={cache_on}");
        assert_eq!(record.transmitters, 1);
        assert_eq!(result.resolved_at(), Some(1));

        let events = MemorySink::recover(sim.take_telemetry_sink().unwrap())
            .unwrap()
            .into_events();
        assert_eq!(events[0].participants, 1);
        assert_eq!(events[0].transmitters, 1);
        assert_eq!(events[0].listeners, 0);
        assert_eq!(
            events[0].active_pre_churn, 4,
            "sleepers are still active — the event keeps both views"
        );
        assert!(events[0].resolved);
        assert_eq!(events[0].winner, Some(0));
    }
}

/// Without late-wake churn, the participant semantics coincide with the
/// old start-of-round active count — pinned here so the redefinition
/// cannot silently change unfaulted traces.
#[test]
fn active_before_unchanged_without_late_wake() {
    let run = |faulted: bool| {
        let deployment = Deployment::uniform_square(20, 12.0, 5);
        let mut sim = Simulation::new(deployment, make_channel("sinr"), 5, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        if faulted {
            // Crash/revive churn but NO late wakes: every active node is
            // awake, so participants == post-churn active count.
            let plan = FaultPlan::new()
                .with_churn(ChurnEvent::crash(3, 0).unwrap())
                .with_churn(ChurnEvent::revive(6, 0).unwrap());
            sim.set_fault_plan(plan).unwrap();
        }
        sim.set_trace_level(TraceLevel::Counts);
        sim.set_telemetry_sink(Box::new(MemorySink::new(TelemetryDetail::counts())));
        let result = sim.run_until_resolved(5_000);
        let events = MemorySink::recover(sim.take_telemetry_sink().unwrap())
            .unwrap()
            .into_events();
        (result, events)
    };
    for faulted in [false, true] {
        let (result, events) = run(faulted);
        assert_eq!(events.len(), result.trace().len());
        for (record, event) in result.trace().rounds().iter().zip(&events) {
            assert_eq!(record.active_before, event.participants, "faulted={faulted}");
            assert_eq!(
                event.participants,
                event.transmitters + event.listeners,
                "faulted={faulted}"
            );
            // No late-wakers ⇒ every post-churn active node participates.
            let post_churn = if event.round <= 1 || faulted {
                // active_pre_churn already reflects the previous round's
                // knockouts; churn this round shifts it by the applied
                // events, which participants must match.
                None
            } else {
                Some(event.active_pre_churn)
            };
            if let Some(expected) = post_churn {
                assert_eq!(event.participants, expected, "faulted={faulted}");
            }
        }
    }
}

/// Regression for unbounded trace growth: a run that exhausts its round
/// cap at `TraceLevel::Full` stops recording at the trace capacity,
/// keeps the *first* records, and reports `truncated`.
#[test]
fn trace_cap_bounds_round_cap_exhausted_runs() {
    let mut sim = Simulation::new(line_deployment(4), make_channel("radio"), 0, |_| {
        Box::new(AlwaysTx)
    });
    sim.set_trace_level(TraceLevel::Full);
    sim.set_trace_capacity(10);
    assert_eq!(sim.trace_capacity(), 10);
    let result = sim.run_until_resolved(100);
    assert!(!result.resolved(), "AlwaysTx on radio must exhaust the cap");
    assert_eq!(result.rounds_executed(), 100);
    assert_eq!(result.trace().len(), 10, "recording must stop at the cap");
    assert!(result.trace().truncated());
    let rounds: Vec<u64> = result.trace().rounds().iter().map(|r| r.round).collect();
    assert_eq!(rounds, (1..=10).collect::<Vec<u64>>(), "keep-first semantics");

    // Under the (documented) default cap nothing is truncated.
    assert_eq!(Trace::DEFAULT_RECORD_CAP, 65_536);
    let mut sim = Simulation::new(line_deployment(4), make_channel("radio"), 0, |_| {
        Box::new(AlwaysTx)
    });
    sim.set_trace_level(TraceLevel::Full);
    let result = sim.run_until_resolved(100);
    assert_eq!(result.trace().len(), 100);
    assert!(!result.trace().truncated());
}

/// `replay_active_sets` reconstructs exactly the per-round active sets an
/// observer loop would have snapshotted.
#[test]
fn replay_matches_observed_active_sets() {
    let deployment = Deployment::uniform_square(20, 12.0, 11);
    let mut sim = Simulation::new(deployment, make_channel("sinr"), 11, |_| {
        Box::new(Knockout {
            p: 0.25,
            active: true,
        })
    });
    sim.set_fault_plan(everything_plan()).unwrap();
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
        let (result, sink) =
            run_matrix_cell("sinr", seed, true, Sink::Memory(TelemetryDetail::full()), true);
        let events = sink.unwrap().into_events();
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
        let mut sim = Simulation::new(deployment, make_channel("sinr"), 21, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        sim.set_metrics_enabled(with_metrics);
        sim.set_telemetry_sink(Box::new(MemorySink::new(TelemetryDetail::full())));
        let result = sim.run_until_resolved(5_000);
        let metrics = sim.take_metrics();
        (result, metrics)
    };
    let (plain, none) = run(false);
    let (timed, metrics) = run(true);
    assert!(none.is_none());
    assert_eq!(plain, timed, "metrics must not perturb the run");
    let metrics = metrics.unwrap();
    assert_eq!(metrics.rounds(), timed.rounds_executed());
    assert_eq!(metrics.transmissions(), timed.total_transmissions());
    assert_eq!(metrics.knockouts_per_round().count(), timed.rounds_executed());
    assert!(
        metrics.interference().count() > 0,
        "full-detail sink routes SINR breakdowns into the interference histogram"
    );
    assert!(metrics.round_latency_nanos().count() > 0);
    let summary = metrics.summary();
    assert!(summary.contains("rounds="), "{summary}");
}
