//! Property tests over the facade: arbitrary valid deployments and seeds
//! must always yield resolvable, reproducible, invariant-respecting runs.

use fading::prelude::*;
use proptest::prelude::*;

/// Deployments from a jittered lattice (non-coincident by construction),
/// with random size and spacing.
fn arb_deployment() -> impl Strategy<Value = Deployment> {
    (2usize..60, 1.0..8.0f64, any::<u64>()).prop_map(|(n, spacing, seed)| {
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        fading::geom::generators::grid_lattice(cols, rows, spacing, 0.3, seed)
            .expect("valid lattice parameters")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FKN resolves on any reasonable deployment, and the winner is one of
    /// the deployed nodes.
    #[test]
    fn fkn_always_resolves(d in arb_deployment(), seed in any::<u64>()) {
        let params = SinrParams::default_single_hop().with_power_for(&d);
        let n = d.len();
        let scenario = Scenario::builder()
            .deployment(d)
            .sinr(params)
            .protocol(ProtocolKind::fkn_default())
            .seed(seed)
            .build()
            .expect("valid scenario");
        let result = scenario.run(500_000);
        prop_assert!(result.resolved());
        let winner = result.winner().expect("resolved");
        prop_assert!(winner < n);
        prop_assert!(result.final_active() >= 1);
        prop_assert!(result.final_active() <= n);
    }

    /// Runs are bitwise reproducible per seed.
    #[test]
    fn runs_are_deterministic(d in arb_deployment(), seed in any::<u64>()) {
        let params = SinrParams::default_single_hop().with_power_for(&d);
        let build = || Scenario::builder()
            .deployment(d.clone())
            .sinr(params)
            .protocol(ProtocolKind::fkn_default())
            .seed(seed)
            .build()
            .expect("valid scenario");
        let run = || build().simulation().run_recorded(500_000, TelemetryDetail::ids());
        let (a, a_events) = run();
        let (b, b_events) = run();
        prop_assert_eq!(a.resolved_at(), b.resolved_at());
        prop_assert_eq!(a_events, b_events);
    }

    /// The active count never increases over a run (knockouts are
    /// permanent), and transmitter counts never exceed active counts.
    #[test]
    fn active_counts_are_monotone(d in arb_deployment(), seed in any::<u64>()) {
        let params = SinrParams::default_single_hop().with_power_for(&d);
        let scenario = Scenario::builder()
            .deployment(d)
            .sinr(params)
            .protocol(ProtocolKind::fkn_default())
            .seed(seed)
            .build()
            .expect("valid scenario");
        let (_, rounds) = scenario
            .simulation()
            .run_recorded(500_000, TelemetryDetail::counts());
        for w in rounds.windows(2) {
            prop_assert!(w[1].participants <= w[0].participants);
        }
        for r in &rounds {
            prop_assert!(r.transmitters <= r.participants);
            prop_assert!(r.knocked_out <= r.participants);
        }
    }

    /// Link classes computed on any live snapshot partition the active set.
    #[test]
    fn link_classes_partition_active_set(d in arb_deployment(), steps in 0u64..20) {
        let params = SinrParams::default_single_hop().with_power_for(&d);
        let unit = d.min_link();
        let mut sim = Simulation::new(
            d.clone(),
            Box::new(SinrChannel::new(params)),
            3,
            |_| Box::new(Fkn::new()),
        );
        for _ in 0..steps {
            sim.step();
        }
        let active = sim.active_ids();
        let classes = LinkClasses::partition(d.points(), &active, unit);
        if active.len() >= 2 {
            let total: usize = classes.sizes().iter().sum();
            prop_assert_eq!(total, active.len());
            for &u in &active {
                prop_assert!(classes.class_of(u).is_some());
            }
        } else {
            prop_assert_eq!(classes.num_classes(), 0);
        }
    }

    /// The hitting game's winning condition is symmetric in the proposal
    /// order and stable under permutation.
    #[test]
    fn hitting_win_condition_is_set_semantics(
        k in 4usize..64,
        seed in any::<u64>(),
        mut proposal in prop::collection::vec(0usize..64, 0..32),
    ) {
        proposal.retain(|&x| x < k);
        let game = RestrictedHitting::new(k, seed).expect("k >= 2");
        let forward = game.is_winning(&proposal);
        proposal.reverse();
        prop_assert_eq!(game.is_winning(&proposal), forward);
    }
}
