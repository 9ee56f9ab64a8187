//! Cross-crate integration: the facade API end-to-end over every channel
//! and protocol combination that makes sense, plus reproducibility.

use fading::prelude::*;

fn uniform(n: usize, seed: u64) -> Deployment {
    Deployment::uniform_density(n, 0.25, seed)
}

#[test]
fn scenario_end_to_end_on_every_channel() {
    let d = uniform(48, 3);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    let cases: Vec<(ChannelKind, ProtocolKind)> = vec![
        (ChannelKind::Sinr(params), ProtocolKind::fkn_default()),
        (
            ChannelKind::RayleighSinr(params),
            ProtocolKind::fkn_default(),
        ),
        (ChannelKind::Radio, ProtocolKind::DecayClassic),
        (ChannelKind::RadioCd, ProtocolKind::CdElection),
    ];
    for (channel, protocol) in cases {
        let s = Scenario::builder()
            .deployment(d.clone())
            .channel(channel)
            .protocol(protocol)
            .seed(11)
            .build()
            .expect("valid scenario");
        let r = s.run(500_000);
        assert!(
            r.resolved(),
            "{}/{} did not resolve",
            channel.label(),
            protocol.label()
        );
    }
}

#[test]
fn identical_scenarios_reproduce_identical_results() {
    let build = || {
        Scenario::builder()
            .deployment(uniform(64, 5))
            .sinr(SinrParams::default_single_hop().with_power_for(&uniform(64, 5)))
            .protocol(ProtocolKind::fkn_default())
            .seed(77)
            .build()
            .expect("valid scenario")
    };
    let run = || {
        build()
            .simulation()
            .run_recorded(100_000, TelemetryDetail::ids())
    };
    let (a, a_events) = run();
    let (b, b_events) = run();
    assert_eq!(a.resolved_at(), b.resolved_at());
    assert_eq!(a.winner(), b.winner());
    assert_eq!(a_events, b_events);
}

#[test]
fn montecarlo_matches_individual_runs() {
    let s = Scenario::builder()
        .deployment(uniform(32, 9))
        .sinr(SinrParams::default_single_hop().with_power_for(&uniform(32, 9)))
        .protocol(ProtocolKind::fkn_default())
        .seed(100)
        .build()
        .expect("valid scenario");
    let batch = s.montecarlo(5, 3, 100_000);
    for (i, r) in batch.iter().enumerate() {
        let solo = s
            .simulation_with_seed(100 + i as u64)
            .run_until_resolved(100_000);
        assert_eq!(r.resolved_at(), solo.resolved_at(), "trial {i}");
    }
}

#[test]
fn winner_is_last_knockout_survivor_for_fkn() {
    // For FKN the winner's solo broadcast knocks out every remaining
    // listener that can hear it; the winner itself must still be active.
    let d = uniform(64, 21);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    let s = Scenario::builder()
        .deployment(d)
        .sinr(params)
        .protocol(ProtocolKind::fkn_default())
        .seed(21)
        .build()
        .expect("valid scenario");
    let mut sim = s.simulation();
    let r = sim.run_until_resolved(100_000);
    let winner = r.winner().expect("resolved");
    assert!(sim.is_active(winner), "winner was knocked out");
}

#[test]
fn analysis_machinery_composes_with_simulator_state() {
    let d = uniform(128, 2);
    let unit = d.min_link();
    let params = SinrParams::default_single_hop().with_power_for(&d);
    let mut sim = Simulation::new(d.clone(), Box::new(SinrChannel::new(params)), 2, |_| {
        Box::new(Fkn::new())
    });
    for _ in 0..5 {
        sim.step();
    }
    let active = sim.active_ids();
    if active.len() >= 2 {
        let classes = LinkClasses::partition(d.points(), &active, unit);
        let total: usize = classes.sizes().iter().sum();
        assert_eq!(total, active.len());
        let good = GoodNodes::classify(d.points(), &active, &classes, 3.0);
        for &u in &active {
            if classes.class_of(u).is_none() {
                assert!(!good.is_good(u));
            }
        }
    }
}

#[test]
fn experiments_registry_smoke() {
    use fading::experiments::{run_by_id, ExperimentConfig};
    let mut cfg = ExperimentConfig::smoke();
    cfg.trials = 3;
    cfg.max_n_pow2 = 6;
    for id in ["e1", "e7", "e10"] {
        let t = run_by_id(id, &cfg).expect("known id");
        assert!(!t.is_empty(), "{id} empty");
        // Every table renders and serializes.
        assert!(t.render().contains("##"));
        assert!(!t.to_csv().is_empty());
    }
}

#[test]
fn theory_predictions_are_consistent_with_measurements() {
    // A loose sanity link between `theory` and the simulator: FKN at n = 256
    // should resolve within 10× the unit-constant prediction.
    let d = uniform(256, 4);
    let r = d.link_ratio();
    let params = SinrParams::default_single_hop().with_power_for(&d);
    let s = Scenario::builder()
        .deployment(d)
        .sinr(params)
        .protocol(ProtocolKind::fkn_default())
        .seed(50)
        .build()
        .expect("valid scenario");
    let results = s.montecarlo(10, 4, 1_000_000);
    let summary = montecarlo::Summary::from_results(&results);
    assert_eq!(summary.success_rate, 1.0);
    let predicted = fading::theory::fkn_rounds(256, r, 1.0);
    assert!(
        summary.mean_rounds < 10.0 * predicted,
        "measured {} vs predicted unit {}",
        summary.mean_rounds,
        predicted
    );
}
