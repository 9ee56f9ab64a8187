//! Decision-exactness oracle for the far-field engine.
//!
//! The contract under test ([`Channel::resolve_with`] handed a
//! [`ResolveEngine::FarField`]) is *bit-exact* equivalence: resolving a
//! round through a [`FarFieldEngine`] must yield a `Reception` vector
//! **identical** (`==`, not approximately equal) to the exact tier —
//! `resolve` for neutral perturbations, the exact engine for faulted
//! rounds — while consuming the channel rng identically. The
//! property tests drive arbitrary deployments, transmitter/listener
//! partitions, parameter draws, and perturbations (noise scaling +
//! per-node jammer interference) through both paths for each path-loss
//! exponent class — the integer fast paths `α ∈ {3, 4, 6}` and the
//! generic class at `α ∈ {2.05, 2.5, 3.7}`, which the engine serves with
//! a bounded-error kernel — 256 cases per exponent, and additionally
//! **force multi-tile layouts** so the pruned path genuinely exercises the
//! far aggregation (the production sizing would put 40 nodes in a single
//! tile and never prune). Knife-edge cases pin the bounded kernel's
//! certificate: a decision within 1e-12 of `β` must reach the canonical
//! rescan.

use fading_channel::{
    Channel, ChannelPerturbation, EngineTier, FarFieldEngine, LossySinrChannel, RadioChannel,
    RayleighSinrChannel, Reception, ResolveEngine, SerialExecutor, SinrChannel, SinrParams,
};
use fading_geom::Point;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Distinct points on a jittered lattice (guaranteed non-coincident).
fn arb_positions(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0..0.4f64, 0.0..0.4f64), min..=max).prop_map(|jitters| {
        let side = (jitters.len() as f64).sqrt().ceil() as usize;
        jitters
            .iter()
            .enumerate()
            .map(|(i, &(jx, jy))| Point::new((i % side) as f64 + jx, (i / side) as f64 + jy))
            .collect()
    })
}

/// Splits node ids into disjoint (transmitters, listeners) from per-node
/// role draws: 0 ⇒ transmit, 1–2 ⇒ listen, 3 ⇒ idle.
fn partition(roles: &[u8], n: usize) -> (Vec<usize>, Vec<usize>) {
    let mut tx = Vec::new();
    let mut ls = Vec::new();
    for i in 0..n {
        match roles.get(i).copied().unwrap_or(1) % 4 {
            0 => tx.push(i),
            1 | 2 => ls.push(i),
            _ => {}
        }
    }
    (tx, ls)
}

fn params_with(alpha: f64, beta: f64, noise: f64, power: f64) -> SinrParams {
    SinrParams::builder()
        .alpha(alpha)
        .beta(beta)
        .noise(noise)
        .power(power)
        .build()
        .expect("strategy stays in the valid range")
}

/// A flat far-field engine over an explicit tiling, as a resolve engine
/// (the exact tier when the tiling cannot be built).
fn tiled(positions: &[Point], params: &SinrParams, tiles_per_side: usize) -> ResolveEngine {
    FarFieldEngine::build_with_tiling(positions, params, tiles_per_side)
        .map_or(ResolveEngine::Exact, ResolveEngine::FarField)
}

/// One round on `ch` through `engine` (serial executor, no breakdowns).
fn round<C: Channel>(
    ch: &C,
    positions: &[Point],
    (tx, ls): (&[usize], &[usize]),
    engine: &mut ResolveEngine,
    perturbation: &ChannelPerturbation<'_>,
    rng: &mut SmallRng,
) -> Vec<Reception> {
    ch.resolve_with(
        positions,
        tx,
        ls,
        engine,
        perturbation,
        &SerialExecutor,
        rng,
        None,
    )
}

/// Builds the jammer-interference vector for a perturbation: every third
/// node (by a role-derived mask) receives `jam_power`.
fn jam_extra(roles: &[u8], n: usize, jam_power: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if roles.get(i).copied().unwrap_or(0) % 3 == 0 {
                jam_power
            } else {
                0.0
            }
        })
        .collect()
}

/// Asserts bit-exact farfield/exact equivalence (receptions *and* final
/// rng state) for one channel on one scenario, neutral and perturbed.
fn assert_farfield_equiv<C: Channel>(
    ch: &C,
    positions: &[Point],
    tx: &[usize],
    ls: &[usize],
    engine: &mut ResolveEngine,
    perturbation: &ChannelPerturbation<'_>,
    seed: u64,
) {
    // Neutral round: farfield vs plain resolve.
    let mut rng_exact = SmallRng::seed_from_u64(seed);
    let mut rng_fast = SmallRng::seed_from_u64(seed);
    let exact = ch.resolve(positions, tx, ls, &mut rng_exact);
    let neutral = ChannelPerturbation::neutral();
    let fast = round(ch, positions, (tx, ls), engine, &neutral, &mut rng_fast);
    assert_eq!(
        exact,
        fast,
        "farfield receptions diverged on the clean path ({}, n={}, tx={}, ls={}, seed={seed})",
        ch.name(),
        positions.len(),
        tx.len(),
        ls.len()
    );
    assert_eq!(
        rng_exact,
        rng_fast,
        "farfield path consumed the rng differently ({}, seed={seed})",
        ch.name()
    );

    // Faulted round: farfield vs the exact tier under the same
    // noise-scale + jammer perturbation.
    let mut rng_exact = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut rng_fast = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut exact_engine = ResolveEngine::Exact;
    let exact = round(
        ch,
        positions,
        (tx, ls),
        &mut exact_engine,
        perturbation,
        &mut rng_exact,
    );
    let fast = round(ch, positions, (tx, ls), engine, perturbation, &mut rng_fast);
    assert_eq!(
        exact,
        fast,
        "farfield receptions diverged on the faulted path ({}, seed={seed})",
        ch.name()
    );
    assert_eq!(
        rng_exact,
        rng_fast,
        "farfield faulted path consumed the rng differently ({}, seed={seed})",
        ch.name()
    );
}

/// The full per-case oracle: SINR and lossy SINR take the pruned path
/// (engines forced to a multi-tile layout so far aggregation actually
/// runs); Rayleigh cannot be served by the tier and resolves exactly.
#[allow(clippy::too_many_arguments)] // mirrors the proptest argument list
fn check_all_channels(
    alpha: f64,
    positions: &[Point],
    roles: &[u8],
    beta: f64,
    noise: f64,
    power: f64,
    drop_prob: f64,
    jam_power: f64,
    noise_scale: f64,
    seed: u64,
) {
    let (tx, ls) = partition(roles, positions.len());
    let params = params_with(alpha, beta, noise, power);
    let extra = jam_extra(roles, positions.len(), jam_power);
    let perturbation = ChannelPerturbation::new(noise_scale, &extra);

    let sinr = SinrChannel::new(params);
    // Forced multi-tile layout: with ≤ 48 nodes the production sizing
    // would use one tile and the far path would never engage.
    let mut engine = tiled(positions, &params, 5);
    assert_eq!(
        engine.tier(),
        EngineTier::FarField,
        "multi-tile engine must build"
    );
    assert_farfield_equiv(&sinr, positions, &tx, &ls, &mut engine, &perturbation, seed);
    // And through the production builder (single tile ⇒ pure near scan).
    let mut default_engine = ResolveEngine::build(&sinr, EngineTier::FarField, positions);
    assert_eq!(default_engine.tier(), EngineTier::FarField);
    assert_farfield_equiv(
        &sinr,
        positions,
        &tx,
        &ls,
        &mut default_engine,
        &perturbation,
        seed,
    );

    let lossy = LossySinrChannel::new(params, drop_prob).expect("drop_prob in [0, 1)");
    let mut lengine = tiled(positions, &params, 5);
    assert_farfield_equiv(
        &lossy,
        positions,
        &tx,
        &ls,
        &mut lengine,
        &perturbation,
        seed,
    );

    // Rayleigh: no far-field tier by contract (per-pair rng draws); a
    // round on the exact tier must stay exact.
    let rayleigh = RayleighSinrChannel::new(params);
    assert!(rayleigh.max_tier() < EngineTier::FarField);
    let mut none = ResolveEngine::Exact;
    assert_farfield_equiv(
        &rayleigh,
        positions,
        &tx,
        &ls,
        &mut none,
        &perturbation,
        seed,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decision-exactness oracle at E6's smallest exponent, α = 2.05: the
    /// flattest path loss, where far tiles weigh the most.
    #[test]
    fn farfield_equals_exact_alpha_2_05(
        positions in arb_positions(2, 48),
        roles in prop::collection::vec(0u8..4, 48),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        jam_power in 0.0..100.0f64,
        noise_scale in 0.25..4.0f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(
            2.05, &positions, &roles, beta, noise, power, drop_prob, jam_power, noise_scale, seed,
        );
    }

    /// Decision-exactness oracle at the generic-class exponent α = 3.7.
    #[test]
    fn farfield_equals_exact_alpha_3_7(
        positions in arb_positions(2, 48),
        roles in prop::collection::vec(0u8..4, 48),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        jam_power in 0.0..100.0f64,
        noise_scale in 0.25..4.0f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(
            3.7, &positions, &roles, beta, noise, power, drop_prob, jam_power, noise_scale, seed,
        );
    }

    /// Decision-exactness oracle at the generic-class exponent α = 2.5.
    #[test]
    fn farfield_equals_exact_alpha_2_5(
        positions in arb_positions(2, 48),
        roles in prop::collection::vec(0u8..4, 48),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        jam_power in 0.0..100.0f64,
        noise_scale in 0.25..4.0f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(
            2.5, &positions, &roles, beta, noise, power, drop_prob, jam_power, noise_scale, seed,
        );
    }

    /// Decision-exactness oracle at the fast-path exponent α = 3.
    #[test]
    fn farfield_equals_exact_alpha_3(
        positions in arb_positions(2, 48),
        roles in prop::collection::vec(0u8..4, 48),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        jam_power in 0.0..100.0f64,
        noise_scale in 0.25..4.0f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(
            3.0, &positions, &roles, beta, noise, power, drop_prob, jam_power, noise_scale, seed,
        );
    }

    /// Decision-exactness oracle at the fast-path exponent α = 4.
    #[test]
    fn farfield_equals_exact_alpha_4(
        positions in arb_positions(2, 48),
        roles in prop::collection::vec(0u8..4, 48),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        jam_power in 0.0..100.0f64,
        noise_scale in 0.25..4.0f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(
            4.0, &positions, &roles, beta, noise, power, drop_prob, jam_power, noise_scale, seed,
        );
    }

    /// Decision-exactness oracle at the fast-path exponent α = 6.
    #[test]
    fn farfield_equals_exact_alpha_6(
        positions in arb_positions(2, 48),
        roles in prop::collection::vec(0u8..4, 48),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        jam_power in 0.0..100.0f64,
        noise_scale in 0.25..4.0f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(
            6.0, &positions, &roles, beta, noise, power, drop_prob, jam_power, noise_scale, seed,
        );
    }

    /// An engine built for *different* positions or parameters must be
    /// rejected, falling back to the exact (still correct) path.
    #[test]
    fn mismatched_engine_falls_back_to_exact(
        positions in arb_positions(3, 24),
        roles in prop::collection::vec(0u8..4, 24),
        seed in any::<u64>(),
    ) {
        let (tx, ls) = partition(&roles, positions.len());
        let params = params_with(3.0, 2.0, 1.0, 1e4);
        let ch = SinrChannel::new(params);
        let neutral = ChannelPerturbation::neutral();

        // Wrong node count: engine over a prefix of the deployment.
        let mut stale = FarFieldEngine::build(&positions[..positions.len() - 1], &params)
            .map_or(ResolveEngine::Exact, ResolveEngine::FarField);
        assert_farfield_equiv(&ch, &positions, &tx, &ls, &mut stale, &neutral, seed);

        // Wrong parameters: engine built under a different power.
        let other = params_with(3.0, 2.0, 1.0, 2e4);
        let mut wrong = FarFieldEngine::build(&positions, &other)
            .map_or(ResolveEngine::Exact, ResolveEngine::FarField);
        assert_farfield_equiv(&ch, &positions, &tx, &ls, &mut wrong, &neutral, seed);

        // No engine at all.
        let mut none = ResolveEngine::Exact;
        assert_farfield_equiv(&ch, &positions, &tx, &ls, &mut none, &neutral, seed);
    }
}

#[test]
fn radio_channels_take_the_default_fallback() {
    let positions = [
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(2.0, 0.0),
    ];
    let radio = RadioChannel::new();
    assert_eq!(radio.max_tier(), EngineTier::Exact);

    // Handing the geometry-free model a foreign engine must not change its
    // semantics (the default trait impl ignores it).
    let params = params_with(3.0, 2.0, 1.0, 1e4);
    let mut foreign =
        ResolveEngine::build(&SinrChannel::new(params), EngineTier::FarField, &positions);
    let rx = round(
        &radio,
        &positions,
        (&[0], &[1, 2]),
        &mut foreign,
        &ChannelPerturbation::neutral(),
        &mut SmallRng::seed_from_u64(3),
    );
    assert_eq!(
        rx,
        vec![
            Reception::Message { from: 0 },
            Reception::Message { from: 0 }
        ]
    );
}

/// On a large clustered deployment the pruned path must actually settle
/// decisions without the exact scan — otherwise the engine is a no-op and
/// the perf claims are vacuous. (Exactness is separately guaranteed by the
/// oracles above; this pins the *pruning*.)
#[test]
fn pruned_path_settles_decisions_on_spread_deployments() {
    let params = params_with(3.0, 2.0, 1.0, 16.0);
    // 32 × 32 lattice with 3-unit spacing: plenty of genuinely far tiles.
    let positions: Vec<Point> = (0..1024)
        .map(|i| Point::new((i % 32) as f64 * 3.0, (i / 32) as f64 * 3.0))
        .collect();
    let ch = SinrChannel::new(params);
    let mut engine = tiled(&positions, &params, 8);
    let tx: Vec<usize> = (0..1024).step_by(5).collect();
    let ls: Vec<usize> = (0..1024).filter(|i| i % 5 != 0).collect();
    let mut rng = SmallRng::seed_from_u64(11);
    let exact = ch.resolve(&positions, &tx, &ls, &mut rng);
    let fast = round(
        &ch,
        &positions,
        (&tx, &ls),
        &mut engine,
        &ChannelPerturbation::neutral(),
        &mut SmallRng::seed_from_u64(11),
    );
    assert_eq!(exact, fast);
    let stats = engine.stats();
    let settled = stats.fast_decisions() + stats.noise_floor_silences;
    assert!(
        settled > stats.exact_fallbacks(),
        "pruning should settle most listeners on a spread lattice: {stats:?}"
    );
    // Reconciliation invariant (acceptance criterion): every listener
    // decision lands in exactly one rung bucket, so the per-rung counters
    // plus the exact-fallback rungs sum to the listeners resolved.
    assert_eq!(
        stats.listeners_resolved(),
        ls.len() as u64,
        "one decision per listener: {stats:?}"
    );
    assert_eq!(
        stats.fast_decisions() + stats.noise_floor_silences + stats.exact_fallbacks(),
        stats.listeners_resolved(),
        "rung counters must reconcile with listeners resolved: {stats:?}"
    );
}

/// The largest noise floor at which `best` still decodes against
/// `interference` under the canonical test `best ≥ β·(noise + I)`; one
/// ulp more and it is silent.
fn knife_edge_noise(best: f64, interference: f64, beta: f64) -> f64 {
    let decodes = |n: f64| best >= beta * (n + interference);
    let up = |n: f64| f64::from_bits(n.to_bits() + 1);
    let mut n = best / beta - interference;
    while !decodes(n) {
        n = f64::from_bits(n.to_bits() - 1);
    }
    while decodes(up(n)) {
        n = up(n);
    }
    n
}

/// Knife-edge decisions at the generic exponent α = 2.5: one listener, a
/// near sender and five far interferers, with the noise floor tuned to
/// the last ulp at which the canonical test still decodes (and to the
/// first at which it does not). Each SINR lies within 1e-12 of β, far
/// inside the engine's 1e-9 slack, so neither the ladder nor the bounded
/// first pass of the fallback may certify it: every case must reach the
/// canonical rescan, and only that rescan can match the exact tier.
#[test]
fn generic_alpha_knife_edge_reaches_the_canonical_rescan() {
    let (alpha, beta, power) = (2.5, 1.5, 1.0);
    let far = [(5.3, 6.1), (7.2, 1.7), (2.2, 7.4), (6.6, 6.9), (7.9, 4.4)];
    let mut cases = 0u64;
    for case in 0..16 {
        let j = f64::from(case) / 16.0;
        let mut positions = vec![
            Point::new(0.05, 0.1),
            Point::new(0.9 + 0.3 * j, 0.4 - 0.2 * j),
        ];
        positions.extend(
            far.iter()
                .map(|&(x, y)| Point::new(x + 0.1 * j, y - 0.05 * j)),
        );
        // Pad the bounding box to [0, 8]² for unit tiles under an 8×8 grid.
        positions.push(Point::new(8.0, 8.0));
        let tx: Vec<usize> = (1..7).collect();
        let ls = [0usize];

        let probe = SinrChannel::new(params_with(alpha, beta, 1.0, power));
        let total = probe.interference_at(&positions, positions[0], &tx);
        let best = power / fading_channel::pow_alpha(positions[1].distance_sq(positions[0]), alpha);
        let edge = knife_edge_noise(best, total - best, beta);
        for noise in [edge, f64::from_bits(edge.to_bits() + 1)] {
            let params = params_with(alpha, beta, noise, power);
            let ch = SinrChannel::new(params);
            let sinr = ch.sinr(&positions, 1, 0, &tx);
            assert!(
                (sinr / beta - 1.0).abs() <= 1e-12,
                "case {case}: SINR {sinr} is not a knife edge of beta {beta}"
            );
            let mut engine = tiled(&positions, &params, 8);
            let exact = ch.resolve(&positions, &tx, &ls, &mut SmallRng::seed_from_u64(1));
            let fast = round(
                &ch,
                &positions,
                (&tx, &ls),
                &mut engine,
                &ChannelPerturbation::neutral(),
                &mut SmallRng::seed_from_u64(1),
            );
            assert_eq!(exact, fast, "case {case}, noise {noise:e}");
            let stats = engine.stats();
            assert_eq!(stats.exact_fallbacks(), 1, "case {case}: {stats:?}");
            assert_eq!(
                stats.canonical_rescans, 1,
                "case {case}: certification must refuse a knife edge: {stats:?}"
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 32);
}
