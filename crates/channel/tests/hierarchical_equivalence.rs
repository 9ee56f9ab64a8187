//! Decision-exactness oracle for the hierarchical (tile-tree) far-field
//! engine.
//!
//! The contract under test ([`Channel::resolve_with`] handed a
//! [`ResolveEngine::Hierarchical`]) is the same *bit-exact* equivalence
//! the flat engine guarantees: resolving a round through a
//! [`HierarchicalFarFieldEngine`] must yield a `Reception` vector
//! **identical** (`==`, not approximately equal) to the exact tier —
//! `resolve` for neutral perturbations, the exact engine for faulted
//! rounds — while consuming the channel rng identically. The
//! property tests drive arbitrary deployments, transmitter/listener
//! partitions, parameter draws, and perturbations (noise scaling +
//! per-node jammer interference) through both paths for each path-loss
//! exponent class — the integer fast paths `α ∈ {3, 4, 6}` and the
//! generic `powf` class at `α ∈ {2.05, 2.5, 3.7}` — 256 cases per
//! exponent. A knife-edge case pins decisions within 1e-12 of `β`: they
//! must reach the exact fallback, through both the block and the tail
//! fallback scans, and the tree — canonical at every α — never needs a
//! canonical rescan. Two generator families deliberately stress the tree:
//! **clustered** fields (tight blobs separated by hundreds of units, so
//! coarse aggregates are accepted levels above the fine tiles) and
//! **corridor** fields (long thin strips, so the ceil-halving pyramid
//! degenerates to 1×k levels).

use std::sync::atomic::{AtomicUsize, Ordering};

use fading_channel::kernels::LISTENER_BLOCK;
use fading_channel::{
    Channel, ChannelPerturbation, ChunkExecutor, EngineTier, FarFieldStats,
    HierarchicalFarFieldEngine, LossySinrChannel, RadioChannel, RayleighSinrChannel, Reception,
    ResolveEngine, SerialExecutor, SinrChannel, SinrParams, HIER_CHUNK, HIER_TILE_CHUNK,
};
use fading_geom::Point;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Distinct points on a jittered lattice (guaranteed non-coincident).
fn arb_lattice_positions(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0..0.4f64, 0.0..0.4f64), min..=max).prop_map(|jitters| {
        let side = (jitters.len() as f64).sqrt().ceil() as usize;
        jitters
            .iter()
            .enumerate()
            .map(|(i, &(jx, jy))| Point::new((i % side) as f64 + jx, (i / side) as f64 + jy))
            .collect()
    })
}

/// Tight clusters flung across a 200×200 field: most transmitter mass sits
/// levels above any listener's fine neighborhood, so accepted aggregates
/// are genuinely coarse.
fn arb_clustered_positions() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (
            (0.0..200.0f64, 0.0..200.0f64),
            prop::collection::vec((0.0..2.0f64, 0.0..2.0f64), 1..12),
        ),
        1..6,
    )
    .prop_map(|clusters| {
        clusters
            .iter()
            .flat_map(|((cx, cy), members)| {
                members
                    .iter()
                    .map(move |&(dx, dy)| Point::new(cx + dx, cy + dy))
            })
            .collect()
    })
}

/// A long thin strip (one unit tall, up to ~150 units long): the pyramid's
/// ceil-halving runs many levels in one axis while the other is already 1,
/// exercising the degenerate 1×k merge geometry.
fn arb_corridor_positions(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0..3.0f64, 0.0..1.0f64), min..=max).prop_map(|jitters| {
        jitters
            .iter()
            .enumerate()
            .map(|(i, &(jx, jy))| Point::new(i as f64 * 3.0 + jx, jy))
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

/// A tile-tree engine over an explicit fine tiling, as a resolve engine
/// (the exact tier when the tiling cannot be built).
fn tiled(positions: &[Point], params: &SinrParams, tiles_per_side: usize) -> ResolveEngine {
    HierarchicalFarFieldEngine::build_with_tiling(positions, params, tiles_per_side)
        .map_or(ResolveEngine::Exact, ResolveEngine::Hierarchical)
}

/// Number of levels of a hierarchical engine's tree (0 for other tiers).
fn levels(engine: &ResolveEngine) -> usize {
    match engine {
        ResolveEngine::Hierarchical(e) => e.tree().num_levels(),
        _ => 0,
    }
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

/// Asserts bit-exact hierarchical/exact equivalence (receptions *and*
/// final rng state) for one channel on one scenario, neutral and faulted.
fn assert_hierarchical_equiv<C: Channel>(
    ch: &C,
    positions: &[Point],
    tx: &[usize],
    ls: &[usize],
    engine: &mut ResolveEngine,
    perturbation: &ChannelPerturbation<'_>,
    seed: u64,
) {
    // Neutral round: hierarchical vs plain resolve.
    let mut rng_exact = SmallRng::seed_from_u64(seed);
    let mut rng_fast = SmallRng::seed_from_u64(seed);
    let exact = ch.resolve(positions, tx, ls, &mut rng_exact);
    let neutral = ChannelPerturbation::neutral();
    let fast = round(ch, positions, (tx, ls), engine, &neutral, &mut rng_fast);
    assert_eq!(
        exact,
        fast,
        "hierarchical receptions diverged on the clean path ({}, n={}, tx={}, ls={}, seed={seed})",
        ch.name(),
        positions.len(),
        tx.len(),
        ls.len()
    );
    assert_eq!(
        rng_exact,
        rng_fast,
        "hierarchical path consumed the rng differently ({}, seed={seed})",
        ch.name()
    );

    // Faulted round: hierarchical vs the exact tier under the same
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
        "hierarchical receptions diverged on the faulted path ({}, seed={seed})",
        ch.name()
    );
    assert_eq!(
        rng_exact,
        rng_fast,
        "hierarchical faulted path consumed the rng differently ({}, seed={seed})",
        ch.name()
    );
}

/// The full per-case oracle: SINR and lossy SINR take the pruned path
/// (engines forced to a multi-tile fine grid so the pyramid has real
/// depth); Rayleigh cannot be served by the tier and resolves exactly.
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
    // Forced 8-per-side fine grid ⇒ a 4-level pyramid (8 → 4 → 2 → 1),
    // so coarse-level accepts genuinely happen at these small n.
    let mut engine = tiled(positions, &params, 8);
    assert_eq!(
        engine.tier(),
        EngineTier::Hierarchical,
        "multi-level engine must build"
    );
    assert!(
        levels(&engine) >= 4,
        "forced tiling should produce a multi-level pyramid"
    );
    assert_hierarchical_equiv(&sinr, positions, &tx, &ls, &mut engine, &perturbation, seed);
    // And through the production builder (small n ⇒ shallow tree, the
    // near scan dominates).
    let mut default_engine = ResolveEngine::build(&sinr, EngineTier::Hierarchical, positions);
    assert_eq!(default_engine.tier(), EngineTier::Hierarchical);
    assert_hierarchical_equiv(
        &sinr,
        positions,
        &tx,
        &ls,
        &mut default_engine,
        &perturbation,
        seed,
    );

    let lossy = LossySinrChannel::new(params, drop_prob).expect("drop_prob in [0, 1)");
    let mut lengine = tiled(positions, &params, 8);
    assert_hierarchical_equiv(
        &lossy,
        positions,
        &tx,
        &ls,
        &mut lengine,
        &perturbation,
        seed,
    );

    // Rayleigh: no tiled tier by contract (per-pair rng draws); a round
    // on the exact tier must stay exact.
    let rayleigh = RayleighSinrChannel::new(params);
    assert!(rayleigh.max_tier() < EngineTier::Hierarchical);
    let mut none = ResolveEngine::Exact;
    assert_hierarchical_equiv(
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

    /// Decision-exactness oracle at E6's smallest exponent, α = 2.05, on
    /// the clustered generator (the flattest path loss, where coarse far
    /// aggregates weigh the most).
    #[test]
    fn hierarchical_equals_exact_alpha_2_05_clustered(
        positions in arb_clustered_positions(),
        roles in prop::collection::vec(0u8..4, 60),
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
    fn hierarchical_equals_exact_alpha_3_7(
        positions in arb_lattice_positions(2, 48),
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
    fn hierarchical_equals_exact_alpha_2_5(
        positions in arb_lattice_positions(2, 48),
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
    fn hierarchical_equals_exact_alpha_3(
        positions in arb_lattice_positions(2, 48),
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

    /// Decision-exactness oracle at the fast-path exponent α = 4, on the
    /// clustered generator (coarse-level accepts dominate).
    #[test]
    fn hierarchical_equals_exact_alpha_4_clustered(
        positions in arb_clustered_positions(),
        roles in prop::collection::vec(0u8..4, 60),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        jam_power in 0.0..100.0f64,
        noise_scale in 0.25..4.0f64,
        seed in any::<u64>(),
    ) {
        prop_assume!(positions.len() >= 2);
        check_all_channels(
            4.0, &positions, &roles, beta, noise, power, drop_prob, jam_power, noise_scale, seed,
        );
    }

    /// Decision-exactness oracle at the fast-path exponent α = 6, on the
    /// corridor generator (degenerate 1×k pyramid levels).
    #[test]
    fn hierarchical_equals_exact_alpha_6_corridor(
        positions in arb_corridor_positions(2, 48),
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
        positions in arb_lattice_positions(3, 24),
        roles in prop::collection::vec(0u8..4, 24),
        seed in any::<u64>(),
    ) {
        let (tx, ls) = partition(&roles, positions.len());
        let params = params_with(3.0, 2.0, 1.0, 1e4);
        let ch = SinrChannel::new(params);
        let neutral = ChannelPerturbation::neutral();

        // Wrong node count: engine over a prefix of the deployment.
        let mut stale =
            HierarchicalFarFieldEngine::build(&positions[..positions.len() - 1], &params)
                .map_or(ResolveEngine::Exact, ResolveEngine::Hierarchical);
        assert_hierarchical_equiv(&ch, &positions, &tx, &ls, &mut stale, &neutral, seed);

        // Wrong parameters: engine built under a different power.
        let other = params_with(3.0, 2.0, 1.0, 2e4);
        let mut wrong = HierarchicalFarFieldEngine::build(&positions, &other)
            .map_or(ResolveEngine::Exact, ResolveEngine::Hierarchical);
        assert_hierarchical_equiv(&ch, &positions, &tx, &ls, &mut wrong, &neutral, seed);

        // No engine at all.
        let mut none = ResolveEngine::Exact;
        assert_hierarchical_equiv(&ch, &positions, &tx, &ls, &mut none, &neutral, seed);
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
    let mut foreign = ResolveEngine::build(
        &SinrChannel::new(params),
        EngineTier::Hierarchical,
        &positions,
    );
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

/// On a large spread deployment the tree traversal must both *accept
/// coarse aggregates* (otherwise it degenerates to the flat engine) and
/// *settle decisions without the exact scan* (otherwise the perf claims
/// are vacuous). Exactness is separately guaranteed by the oracles above;
/// this pins the pruning plus the counter reconciliation invariant.
#[test]
fn pruned_path_settles_decisions_on_spread_deployments() {
    let params = params_with(3.0, 2.0, 1.0, 16.0);
    // 32 × 32 lattice with 3-unit spacing: plenty of genuinely far tiles.
    let positions: Vec<Point> = (0..1024)
        .map(|i| Point::new((i % 32) as f64 * 3.0, (i / 32) as f64 * 3.0))
        .collect();
    let ch = SinrChannel::new(params);
    let mut engine = tiled(&positions, &params, 16);
    assert!(
        levels(&engine) >= 5,
        "16 tiles per side should yield a 5-level pyramid"
    );
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
    // decision lands in exactly one rung bucket.
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

/// A scoped-thread executor: `threads` workers claim task indices from a
/// shared counter, so tasks finish in a scheduling-dependent order.
struct Threads(usize);

impl ChunkExecutor for Threads {
    fn run(&self, num_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        let next = AtomicUsize::new(0);
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= num_tasks {
                return;
            }
            task(i);
        };
        std::thread::scope(|s| {
            for _ in 1..self.0 {
                s.spawn(worker);
            }
            worker();
        });
    }
}

/// One tile-tree round through `engine` on `executor`: the receptions,
/// the round's decision counters, and every fine tile's far aggregate as
/// raw bits.
fn threaded_round(
    engine: &mut ResolveEngine,
    ch: &SinrChannel,
    positions: &[Point],
    (tx, ls): (&[usize], &[usize]),
    perturbation: &ChannelPerturbation<'_>,
    executor: &dyn ChunkExecutor,
) -> (Vec<Reception>, FarFieldStats, Vec<Option<[u64; 3]>>) {
    engine.set_stats(FarFieldStats::default());
    let rx = ch.resolve_with(
        positions,
        tx,
        ls,
        engine,
        perturbation,
        executor,
        &mut SmallRng::seed_from_u64(5),
        None,
    );
    let ResolveEngine::Hierarchical(e) = engine else {
        panic!("expected the hierarchical engine, got {:?}", engine.tier());
    };
    let aggregates = (0..e.tree().fine().num_tiles())
        .map(|t| {
            e.far_aggregate(t)
                .map(|(lo, hi, cap)| [lo.to_bits(), hi.to_bits(), cap.to_bits()])
        })
        .collect();
    (rx, e.stats(), aggregates)
}

/// Resolves the round at 1, 2 and 8 threads, asserts the receptions
/// equal `want` and that receptions, counters and far-aggregate bits do
/// not depend on the thread count; returns the counters.
fn assert_thread_invariant(
    engine: &mut ResolveEngine,
    ch: &SinrChannel,
    positions: &[Point],
    round: (&[usize], &[usize]),
    perturbation: &ChannelPerturbation<'_>,
    want: &[Reception],
) -> FarFieldStats {
    let one = threaded_round(engine, ch, positions, round, perturbation, &Threads(1));
    assert_eq!(one.0, want, "receptions diverged from the exact tier");
    for threads in [2, 8] {
        let many = threaded_round(
            engine,
            ch,
            positions,
            round,
            perturbation,
            &Threads(threads),
        );
        assert_eq!(
            many.0, one.0,
            "receptions depend on the thread count ({threads})"
        );
        assert_eq!(
            many.1, one.1,
            "counters depend on the thread count ({threads})"
        );
        assert_eq!(
            many.2, one.2,
            "far aggregates depend on the thread count ({threads})"
        );
    }
    one.1
}

/// The batched exact fallback: 45 listeners in one chunk fall back (one
/// full `LISTENER_BLOCK` through the fused block scan plus a 13-listener
/// tail through the single-listener scan), interleaved with listeners the
/// bracket settles, so the pending offsets are scattered through the
/// chunk. Checked with the perturbation's `extra` term off (against
/// `resolve`) and on (against the exact tier), where the jammed
/// listeners' fallbacks land on both sides of the threshold.
///
/// Geometry (α = 3, P = 10⁶, β = 1.5, noise = 0.1, 8×8 tiling over
/// [0, 128]²): the fallback listeners sit in fine tile (0, 0), the lone
/// transmitter at (120, 120). Each hears it at 0.21–0.27, above β·noise =
/// 0.15, with nothing in its near ring, so the ladder exits at rung 3.
/// With `extra = 0.06` on every third of them the threshold moves to 0.24,
/// inside that range and below the far cap, so they still fall back and
/// the exact scan decodes some and silences others.
#[test]
fn batched_fallbacks_match_exact_with_and_without_extra() {
    let params = params_with(3.0, 1.5, 0.1, 1e6);
    let ch = SinrChannel::new(params);
    let mut positions = vec![
        Point::new(0.0, 0.0),
        Point::new(128.0, 128.0),
        Point::new(120.0, 120.0),
    ];
    let far: Vec<usize> = (0..45)
        .map(|i| {
            positions.push(Point::new(
                1.0 + (i % 9) as f64 * 1.5,
                1.0 + (i / 9) as f64 * 1.5,
            ));
            positions.len() - 1
        })
        .collect();
    let near: Vec<usize> = (0..20)
        .map(|i| {
            positions.push(Point::new(
                110.0 + (i % 5) as f64 * 2.0,
                110.0 + (i / 5) as f64 * 2.0,
            ));
            positions.len() - 1
        })
        .collect();
    let tx = vec![2];
    let mut ls = Vec::new();
    for (k, &v) in far.iter().enumerate() {
        ls.push(v);
        if let Some(&d) = near.get(k / 2).filter(|_| k % 2 == 0) {
            ls.push(d);
        }
    }
    assert!(ls.len() <= HIER_CHUNK, "the fallbacks must share one chunk");
    let mut extra = vec![0.0; positions.len()];
    for &v in far.iter().step_by(3) {
        extra[v] = 0.06;
    }
    let mut engine = tiled(&positions, &params, 8);

    let exact = ch.resolve(&positions, &tx, &ls, &mut SmallRng::seed_from_u64(5));
    let neutral = ChannelPerturbation::neutral();
    let stats = assert_thread_invariant(&mut engine, &ch, &positions, (&tx, &ls), &neutral, &exact);
    assert_eq!(stats.no_near_winner_fallbacks, 45, "{stats:?}");
    assert_eq!(
        stats.exact_fallbacks() % LISTENER_BLOCK as u64,
        13,
        "{stats:?}"
    );
    assert_eq!(stats.listeners_resolved(), ls.len() as u64);
    assert!(exact.iter().filter(|r| r.is_message()).count() == ls.len());

    let jammed = ChannelPerturbation::new(1.0, &extra);
    let exact = round(
        &ch,
        &positions,
        (&tx, &ls),
        &mut ResolveEngine::Exact,
        &jammed,
        &mut SmallRng::seed_from_u64(5),
    );
    let stats = assert_thread_invariant(&mut engine, &ch, &positions, (&tx, &ls), &jammed, &exact);
    assert_eq!(stats.no_near_winner_fallbacks, 45, "{stats:?}");
    let decoded = far.iter().step_by(3).filter(|v| {
        let i = ls.iter().position(|l| l == *v).expect("listener");
        exact[i].is_message()
    });
    let jammed_decodes = decoded.count();
    assert!(
        jammed_decodes > 0 && jammed_decodes < 15,
        "jammed fallbacks should land on both sides of the threshold: {jammed_decodes} of 15"
    );
}

/// Thread-count invariance on a round with several traversal chunks
/// (`HIER_TILE_CHUNK` tiles each) and several listener chunks: the
/// receptions equal the exact scan, and the counters and every tile's
/// far-aggregate bits are the same at 1, 2 and 8 threads, with and
/// without a perturbation.
#[test]
fn parallel_traversal_is_thread_count_invariant() {
    let params = params_with(3.0, 2.0, 1.0, 16.0);
    let ch = SinrChannel::new(params);
    let positions: Vec<Point> = (0..2304)
        .map(|i| {
            let jitter = ((i * 7919) % 13) as f64 * 0.05;
            Point::new(
                (i % 48) as f64 * 2.0 + jitter,
                (i / 48) as f64 * 2.0 + jitter,
            )
        })
        .collect();
    let tx: Vec<usize> = (0..positions.len()).step_by(7).collect();
    let ls: Vec<usize> = (0..positions.len()).filter(|i| i % 7 != 0).collect();
    assert!(ls.len() > HIER_CHUNK, "need several listener chunks");
    let mut engine = tiled(&positions, &params, 24);
    assert!(
        levels(&engine) >= 5 && 24 * 24 > 4 * HIER_TILE_CHUNK,
        "need a deep tree and several traversal chunks"
    );

    let exact = ch.resolve(&positions, &tx, &ls, &mut SmallRng::seed_from_u64(5));
    let neutral = ChannelPerturbation::neutral();
    let stats = assert_thread_invariant(&mut engine, &ch, &positions, (&tx, &ls), &neutral, &exact);
    assert_eq!(stats.listeners_resolved(), ls.len() as u64);

    let extra: Vec<f64> = (0..positions.len())
        .map(|i| (i % 5) as f64 * 0.01)
        .collect();
    let jammed = ChannelPerturbation::new(1.5, &extra);
    let exact = round(
        &ch,
        &positions,
        (&tx, &ls),
        &mut ResolveEngine::Exact,
        &jammed,
        &mut SmallRng::seed_from_u64(5),
    );
    assert_thread_invariant(&mut engine, &ch, &positions, (&tx, &ls), &jammed, &exact);
}

/// Knife-edge decisions at the generic exponent α = 2.5, 40 of them in one
/// listener chunk — one full `LISTENER_BLOCK` through the block scan and
/// an 8-listener tail. Each listener has its own sender 0.58 units away
/// and hears the other 39 as interference; its jammer term `extra` is
/// tuned to the last ulp at which the canonical test still decodes (even
/// listeners) or to the first at which it does not (odd ones). Every SINR
/// lies within 1e-12 of β, so no bracket may settle it: all 40 must reach
/// the exact fallback, at any thread count. The tree's fallback scans are
/// canonical, so none of them is rescanned.
#[test]
fn generic_alpha_knife_edge_reaches_the_exact_fallback() {
    let (alpha, beta, noise, power) = (2.5, 1.5, 1e-3, 1.0);
    let params = params_with(alpha, beta, noise, power);
    let ch = SinrChannel::new(params);
    let mut positions = Vec::new();
    let (mut tx, mut ls) = (Vec::new(), Vec::new());
    for i in 0..40 {
        let (x, y) = (f64::from(i % 8) * 4.0, f64::from(i / 8) * 4.0);
        ls.push(positions.len());
        positions.push(Point::new(x + 0.01 * f64::from(i), y));
        tx.push(positions.len());
        positions.push(Point::new(x + 0.5, y + 0.3));
    }
    let mut extra = vec![0.0; positions.len()];
    for (k, &v) in ls.iter().enumerate() {
        let at = positions[v];
        let total = ch.interference_at(&positions, at, &tx);
        let best = power / fading_channel::pow_alpha(positions[v + 1].distance_sq(at), alpha);
        let interference = total - best;
        let decodes = |e: f64| best >= beta * (noise + e + interference);
        let up = |e: f64| f64::from_bits(e.to_bits() + 1);
        let mut e = best / beta - noise - interference;
        assert!(e > 0.0, "listener {v} cannot be tuned to a knife edge");
        while !decodes(e) {
            e = f64::from_bits(e.to_bits() - 1);
        }
        while decodes(up(e)) {
            e = up(e);
        }
        extra[v] = if k % 2 == 0 { e } else { up(e) };
        let sinr = best / (noise + extra[v] + interference);
        assert!(
            (sinr / beta - 1.0).abs() <= 1e-12,
            "listener {v}: SINR {sinr}"
        );
    }
    let jammed = ChannelPerturbation::new(1.0, &extra);
    let exact = round(
        &ch,
        &positions,
        (&tx, &ls),
        &mut ResolveEngine::Exact,
        &jammed,
        &mut SmallRng::seed_from_u64(5),
    );
    assert_eq!(
        exact.iter().filter(|r| r.is_message()).count(),
        20,
        "the even listeners decode, the odd ones do not"
    );
    let mut engine = tiled(&positions, &params, 8);
    let stats = assert_thread_invariant(&mut engine, &ch, &positions, (&tx, &ls), &jammed, &exact);
    assert_eq!(stats.listeners_resolved(), 40, "{stats:?}");
    assert_eq!(stats.exact_fallbacks(), 40, "{stats:?}");
    assert_eq!(
        stats.canonical_rescans, 0,
        "the tree's fallbacks are canonical: {stats:?}"
    );
}
