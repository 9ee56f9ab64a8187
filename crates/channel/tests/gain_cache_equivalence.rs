//! Cached/uncached equivalence oracle for the gain-cache engine.
//!
//! The contract under test ([`Channel::resolve_with`] handed a
//! [`ResolveEngine::GainCache`]) is *bit-exact* equivalence: for every
//! deterministic-gain channel, resolving a round through a [`GainCache`]
//! must yield a `Reception` vector **identical**
//! (`==`, not approximately equal) to the uncached path, while consuming
//! the channel rng identically. The property tests below drive arbitrary
//! deployments, transmitter/listener partitions, and parameter draws
//! through both paths for each path-loss exponent the experiments use
//! (`α ∈ {2.5, 3, 4, 6}`), 256 cases per exponent.

use fading_channel::{
    Channel, ChannelPerturbation, EngineTier, GainCache, LossySinrChannel, RadioChannel,
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

/// Asserts bit-exact cached/uncached equivalence (receptions *and* final
/// rng state) for one channel on one scenario.
fn assert_channel_equiv<C: Channel>(
    ch: &C,
    positions: &[Point],
    tx: &[usize],
    ls: &[usize],
    mut engine: ResolveEngine,
    seed: u64,
) {
    let mut rng_uncached = SmallRng::seed_from_u64(seed);
    let mut rng_cached = SmallRng::seed_from_u64(seed);
    let uncached = ch.resolve(positions, tx, ls, &mut rng_uncached);
    let cached = ch.resolve_with(
        positions,
        tx,
        ls,
        &mut engine,
        &ChannelPerturbation::neutral(),
        &SerialExecutor,
        &mut rng_cached,
        None,
    );
    assert_eq!(
        uncached,
        cached,
        "cached receptions diverged ({}, n={}, tx={}, ls={}, seed={seed})",
        ch.name(),
        positions.len(),
        tx.len(),
        ls.len()
    );
    assert_eq!(
        rng_uncached,
        rng_cached,
        "cached path consumed the rng differently ({}, seed={seed})",
        ch.name()
    );
}

/// The full per-case oracle: checks SINR, Rayleigh, and lossy SINR over
/// the same deployment, with caches built through `ResolveEngine::build`.
#[allow(clippy::too_many_arguments)] // mirrors the proptest argument list
fn check_all_channels(
    alpha: f64,
    positions: &[Point],
    roles: &[u8],
    beta: f64,
    noise: f64,
    power: f64,
    drop_prob: f64,
    seed: u64,
) {
    let (tx, ls) = partition(roles, positions.len());
    let params = params_with(alpha, beta, noise, power);

    let cache_for = |ch: &dyn Channel| {
        let engine = ResolveEngine::build(ch, EngineTier::GainCache, positions);
        assert_eq!(
            engine.tier(),
            EngineTier::GainCache,
            "deployments under test are within the size guard"
        );
        engine
    };

    let sinr = SinrChannel::new(params);
    assert_channel_equiv(&sinr, positions, &tx, &ls, cache_for(&sinr), seed);

    let rayleigh = RayleighSinrChannel::new(params);
    assert_channel_equiv(&rayleigh, positions, &tx, &ls, cache_for(&rayleigh), seed);

    let lossy = LossySinrChannel::new(params, drop_prob).expect("drop_prob in [0, 1)");
    assert_channel_equiv(&lossy, positions, &tx, &ls, cache_for(&lossy), seed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Equivalence oracle at the generic-powf exponent α = 2.5.
    #[test]
    fn cached_equals_uncached_alpha_2_5(
        positions in arb_positions(2, 40),
        roles in prop::collection::vec(0u8..4, 40),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(2.5, &positions, &roles, beta, noise, power, drop_prob, seed);
    }

    /// Equivalence oracle at the fast-path exponent α = 3.
    #[test]
    fn cached_equals_uncached_alpha_3(
        positions in arb_positions(2, 40),
        roles in prop::collection::vec(0u8..4, 40),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(3.0, &positions, &roles, beta, noise, power, drop_prob, seed);
    }

    /// Equivalence oracle at the fast-path exponent α = 4.
    #[test]
    fn cached_equals_uncached_alpha_4(
        positions in arb_positions(2, 40),
        roles in prop::collection::vec(0u8..4, 40),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(4.0, &positions, &roles, beta, noise, power, drop_prob, seed);
    }

    /// Equivalence oracle at the fast-path exponent α = 6.
    #[test]
    fn cached_equals_uncached_alpha_6(
        positions in arb_positions(2, 40),
        roles in prop::collection::vec(0u8..4, 40),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(6.0, &positions, &roles, beta, noise, power, drop_prob, seed);
    }

    /// A cache built for *different* positions or parameters must be
    /// rejected, falling back to the uncached (still correct) path.
    #[test]
    fn mismatched_cache_falls_back_to_uncached(
        positions in arb_positions(3, 20),
        roles in prop::collection::vec(0u8..4, 20),
        seed in any::<u64>(),
    ) {
        let (tx, ls) = partition(&roles, positions.len());
        let params = params_with(3.0, 2.0, 1.0, 1e4);
        let ch = SinrChannel::new(params);

        // Wrong node count: cache over a prefix of the deployment.
        let stale = GainCache::build(&positions[..positions.len() - 1], &params)
            .expect("within guard");
        assert_channel_equiv(&ch, &positions, &tx, &ls, ResolveEngine::GainCache(stale), seed);

        // Wrong parameters: cache built under a different power.
        let other = params_with(3.0, 2.0, 1.0, 2e4);
        let wrong = GainCache::build(&positions, &other).expect("within guard");
        assert_channel_equiv(&ch, &positions, &tx, &ls, ResolveEngine::GainCache(wrong), seed);

        // No cache at all.
        assert_channel_equiv(&ch, &positions, &tx, &ls, ResolveEngine::Exact, seed);
    }
}

#[test]
fn gain_cache_is_symmetric_with_zero_diagonal() {
    let positions = [
        Point::new(0.0, 0.0),
        Point::new(1.3, -0.7),
        Point::new(-2.1, 4.0),
        Point::new(5.5, 5.5),
    ];
    let params = params_with(3.0, 2.0, 1.0, 1e4);
    let cache = GainCache::build(&positions, &params).unwrap();
    for v in 0..positions.len() {
        assert_eq!(cache.gain(v, v), 0.0);
        for u in 0..positions.len() {
            // d(u,v) = d(v,u) exactly (coordinate subtraction only flips
            // sign, squaring erases it), so the gains are bit-equal.
            assert_eq!(cache.gain(u, v), cache.gain(v, u));
        }
    }
}

#[test]
fn size_guard_bypasses_cache_but_resolve_with_still_works() {
    let positions: Vec<Point> = (0..12).map(|i| Point::new(i as f64, 0.0)).collect();
    let params = params_with(3.0, 2.0, 1.0, 1e4);
    assert!(GainCache::build_with_limit(&positions, &params, 11).is_none());

    // The engine builder applies the default guard; at n = 12 the cache
    // exists, and an oversized deployment would just build the exact
    // tier — exercised here explicitly.
    let ch = SinrChannel::new(params);
    assert_eq!(
        ResolveEngine::build(&ch, EngineTier::GainCache, &positions).tier(),
        EngineTier::GainCache
    );
    let tx = [0usize, 5];
    let ls = [1usize, 2, 3];
    assert_channel_equiv(&ch, &positions, &tx, &ls, ResolveEngine::Exact, 99);
}

#[test]
fn radio_channels_have_no_cache_and_ignore_one() {
    let positions = [Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
    let radio = RadioChannel::new();
    assert_eq!(
        ResolveEngine::build(&radio, EngineTier::GainCache, &positions).tier(),
        EngineTier::Exact
    );

    // Handing the geometry-free model someone else's cache must not
    // change its semantics (the default trait impl ignores it).
    let params = params_with(3.0, 2.0, 1.0, 1e4);
    let foreign = GainCache::build(&positions, &params).unwrap();
    let rx = radio.resolve_with(
        &positions,
        &[0],
        &[1, 2],
        &mut ResolveEngine::GainCache(foreign),
        &ChannelPerturbation::neutral(),
        &SerialExecutor,
        &mut SmallRng::seed_from_u64(3),
        None,
    );
    assert_eq!(
        rx,
        vec![Reception::Message { from: 0 }, Reception::Message { from: 0 }]
    );
}
