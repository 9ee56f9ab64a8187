//! Kernel-contract suite: the batched SoA kernels must be **bit-identical**
//! to the scalar hot path (DESIGN.md §15, "summation-order contract").
//!
//! Three families of properties:
//!
//! 1. `pow_alpha_batch` ≡ scalar `pow_alpha` element-wise — bit-exact for
//!    the integer-exponent fast paths, ≤ 1e-9 relative for the generic
//!    `powf` class (mirroring `pow_alpha_fast_paths_match_generic_powf`);
//!    in fact the batch is bit-exact for the generic class too, which the
//!    test pins.
//! 2. `PointsSoA` stays coherent with the canonical `Vec<Point>` through
//!    arbitrary churn (push / overwrite / rebuild), and `gather` preserves
//!    id order bit-for-bit.
//! 3. The batched `scan_transmitters` path (the uncached public `resolve`)
//!    is bit-identical to both the cached scalar row path and a scalar
//!    reference fold written out here — including the first-strict-max
//!    tie-break, exercised with mirror-symmetric (equal-gain) transmitters.

use fading_channel::kernels::{distance_sq_batch, fold_scan, gain_batch, pow_alpha_batch};
use fading_channel::{
    pow_alpha, Channel, ChannelPerturbation, GainCache, Reception, ResolveEngine, SerialExecutor,
    SinrChannel, SinrParams,
};
use fading_geom::{Point, PointsSoA};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One round through the gain cache (serial executor, neutral, no
/// breakdowns).
fn resolve_cached(
    ch: &SinrChannel,
    positions: &[Point],
    tx: &[usize],
    ls: &[usize],
    cache: GainCache,
    rng: &mut SmallRng,
) -> Vec<Reception> {
    ch.resolve_with(
        positions,
        tx,
        ls,
        &mut ResolveEngine::GainCache(cache),
        &ChannelPerturbation::neutral(),
        &SerialExecutor,
        rng,
        None,
    )
}

fn params_with_alpha(alpha: f64) -> SinrParams {
    SinrParams::builder()
        .alpha(alpha)
        .beta(1.5)
        .noise(0.5)
        .power(1e4)
        .build()
        .expect("valid test params")
}

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

/// The path-loss exponents the kernels monomorphize over: every fast-path
/// class plus a generic (`powf`) representative.
const ALPHAS: [f64; 5] = [2.0, 2.5, 3.0, 4.0, 6.0];

/// The subset valid at the channel level (`SinrParams` requires α > 2;
/// the α = 2 kernel class exists for raw-kernel consumers and benches).
const CHANNEL_ALPHAS: [f64; 4] = [2.5, 3.0, 4.0, 6.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Oracle: `pow_alpha_batch` agrees with the scalar `pow_alpha`
    /// element-wise across the full dynamic range of squared distances —
    /// bit-exact for every class (the batch runs the *same* arithmetic;
    /// for the generic class `α·0.5` is precomputed, which IEEE-754
    /// guarantees is exact, so `powf` sees identical arguments).
    #[test]
    fn pow_alpha_batch_matches_scalar_oracle(
        // Log-uniform d² over (1e-30, 1e12]: tiny and huge distances get
        // equal weight, like the scalar fast-path oracle.
        samples in prop::collection::vec((-30.0..12.0f64, 1.0..10.0f64), 1..64),
        alpha in 2.1..6.0f64,
    ) {
        let d_sq: Vec<f64> = samples.iter().map(|&(e, m)| m * 10f64.powf(e)).collect();
        let mut out = vec![0.0; d_sq.len()];
        // The drawn generic exponent, plus every fast-path class.
        for &a in ALPHAS.iter().chain(std::iter::once(&alpha)) {
            pow_alpha_batch(a, &d_sq, &mut out);
            for (i, &d) in d_sq.iter().enumerate() {
                let scalar = pow_alpha(d, a);
                // Bit-exact across all classes...
                prop_assert_eq!(
                    out[i].to_bits(), scalar.to_bits(),
                    "alpha={} d_sq={} batch={} scalar={}", a, d, out[i], scalar
                );
                // ...which trivially implies the documented ≤1e-9 relative
                // bound for the generic class.
                prop_assert!((out[i] - scalar).abs() <= 1e-9 * scalar.abs());
            }
        }
    }

    /// The fused gain batch is bit-identical to the canonical per-pair
    /// expression `P / pow_alpha(Point::distance_sq(u, v), α)`, and the
    /// distance batch to `Point::distance_sq`, for every exponent class.
    #[test]
    fn gain_and_distance_batches_match_point_arithmetic(
        positions in arb_positions(2, 32),
        (lvx, lvy) in (-5.0..45.0f64, -5.0..45.0f64),
        power in 1.0..1e6f64,
    ) {
        let v = Point::new(lvx, lvy);
        let soa = PointsSoA::from_points(&positions);
        let mut d_out = vec![0.0; positions.len()];
        let mut g_out = vec![0.0; positions.len()];
        distance_sq_batch(soa.xs(), soa.ys(), v.x, v.y, &mut d_out);
        for (i, p) in positions.iter().enumerate() {
            prop_assert_eq!(d_out[i].to_bits(), p.distance_sq(v).to_bits());
        }
        for &alpha in &ALPHAS {
            gain_batch(power, alpha, soa.xs(), soa.ys(), v.x, v.y, &mut g_out);
            for (i, p) in positions.iter().enumerate() {
                let want = power / pow_alpha(p.distance_sq(v), alpha);
                prop_assert_eq!(
                    g_out[i].to_bits(), want.to_bits(),
                    "alpha={} i={}", alpha, i
                );
            }
        }
    }

    /// SoA/AoS coherence under churn: an arbitrary interleaving of pushes,
    /// overwrites, gathers, and rebuilds leaves `PointsSoA` bit-coherent
    /// with the canonical `Vec<Point>` it mirrors (the engines' build-time
    /// mirror plus the per-round coordinate buckets reduce to exactly
    /// these operations).
    #[test]
    fn points_soa_stays_coherent_through_churn(
        seed_points in arb_positions(1, 16),
        ops in prop::collection::vec((0u8..4, 0usize..64, -10.0..10.0f64, -10.0..10.0f64), 0..48),
    ) {
        let mut aos: Vec<Point> = seed_points.clone();
        let mut soa = PointsSoA::from_points(&seed_points);
        for &(op, idx, x, y) in &ops {
            match op {
                0 => {
                    // Push a fresh point to both representations.
                    aos.push(Point::new(x, y));
                    soa.push(Point::new(x, y));
                }
                1 if !aos.is_empty() => {
                    // Overwrite an existing slot (churn repositions a node).
                    let i = idx % aos.len();
                    aos[i] = Point::new(x, y);
                    soa.set(i, Point::new(x, y));
                }
                2 if !aos.is_empty() => {
                    // Gather a rotated id permutation and check bit-order.
                    let ids: Vec<usize> =
                        (0..aos.len()).map(|i| (i + idx) % aos.len()).collect();
                    let mut gx = Vec::new();
                    let mut gy = Vec::new();
                    soa.gather(&ids, &mut gx, &mut gy);
                    for (k, &id) in ids.iter().enumerate() {
                        prop_assert_eq!(gx[k].to_bits(), aos[id].x.to_bits());
                        prop_assert_eq!(gy[k].to_bits(), aos[id].y.to_bits());
                    }
                }
                3 => {
                    // Rebuild from scratch (deployment reload).
                    soa = PointsSoA::from_points(&aos);
                }
                _ => {}
            }
            prop_assert!(soa.matches(&aos), "SoA diverged after op {:?}", op);
            prop_assert_eq!(soa.len(), aos.len());
        }
        // Full round-trip at the end: every coordinate bit-equal.
        for (i, p) in aos.iter().enumerate() {
            prop_assert_eq!(soa.point(i).x.to_bits(), p.x.to_bits());
            prop_assert_eq!(soa.point(i).y.to_bits(), p.y.to_bits());
        }
    }

    /// End-to-end scan equivalence: the uncached `resolve` (batched SoA
    /// kernels + slice-order fold) must agree with (a) the cached resolve
    /// (scalar row reads) and (b) a scalar reference fold written out
    /// below, for every exponent class. This pins the winner and the
    /// accumulated total — any reassociation of the sum or slip of the
    /// first-strict-max rule shows up as a reception flip near the
    /// threshold.
    #[test]
    fn batched_resolve_matches_cached_and_scalar_reference(
        positions in arb_positions(3, 24),
        tx_mask in prop::collection::vec(any::<bool>(), 24),
        alpha_idx in 0usize..CHANNEL_ALPHAS.len(),
    ) {
        let alpha = CHANNEL_ALPHAS[alpha_idx];
        let params = params_with_alpha(alpha);
        let ch = SinrChannel::new(params);
        let n = positions.len();
        let transmitters: Vec<usize> =
            (0..n).filter(|&i| tx_mask.get(i).copied().unwrap_or(false)).collect();
        let listeners: Vec<usize> =
            (0..n).filter(|&i| !tx_mask.get(i).copied().unwrap_or(false)).collect();

        let mut rng = SmallRng::seed_from_u64(1);
        let batched = ch.resolve(&positions, &transmitters, &listeners, &mut rng);

        let cache = GainCache::build(&positions, &params).expect("within size guard");
        let mut rng = SmallRng::seed_from_u64(1);
        let cached = resolve_cached(&ch, &positions, &transmitters, &listeners, cache, &mut rng);
        prop_assert_eq!(&batched, &cached, "batched vs cached diverged at alpha={}", alpha);

        // Scalar reference: the canonical fold, written out longhand.
        for (k, &v) in listeners.iter().enumerate() {
            let vp = positions[v];
            let mut total = 0.0;
            let mut best_sig = 0.0;
            let mut best_tx = None;
            for &u in &transmitters {
                let sig = params.power() / pow_alpha(positions[u].distance_sq(vp), alpha);
                total += sig;
                if sig > best_sig {
                    best_sig = sig;
                    best_tx = Some(u);
                }
            }
            let denom = params.noise() + (total - best_sig);
            let want = match best_tx {
                Some(u) if best_sig >= params.beta() * denom => Reception::Message { from: u },
                _ => Reception::Silence,
            };
            prop_assert_eq!(batched[k], want, "listener {} alpha={}", v, alpha);
        }
    }
}

/// The tie-break, deterministically: two transmitters mirror-symmetric
/// about the listener produce bit-equal gains; the canonical rule keeps
/// the *earlier slice index*, in both transmitter orderings, on both the
/// batched and cached paths.
#[test]
fn batched_scan_keeps_first_strict_max_on_exact_ties() {
    let params = params_with_alpha(3.0);
    let ch = SinrChannel::new(params);
    // Listener at the origin; transmitters at (d, 0) and (-d, 0) have
    // bit-identical squared distances, hence bit-identical gains.
    let positions = [
        Point::new(0.0, 0.0),
        Point::new(1.25, 0.0),
        Point::new(-1.25, 0.0),
    ];
    let cache = GainCache::build(&positions, &params).expect("tiny deployment");
    for tx in [[1usize, 2], [2usize, 1]] {
        let mut rng = SmallRng::seed_from_u64(0);
        let batched = ch.resolve(&positions, &tx, &[0], &mut rng);
        let mut rng = SmallRng::seed_from_u64(0);
        let cached = resolve_cached(&ch, &positions, &tx, &[0], cache.clone(), &mut rng);
        assert_eq!(batched, cached, "tie-break diverged for order {tx:?}");
        // With β = 1.5 > 1 and two equal signals the SINR is ~1, so the
        // decode fails — but the *fold* still has a well-defined winner.
        // Check it directly through fold_scan on hand-built gains.
    }
    // fold_scan itself: equal gains keep the earlier index.
    let g = params.power() / pow_alpha(positions[1].distance_sq(positions[0]), 3.0);
    let fold = fold_scan(&[g, g]);
    assert_eq!(fold.best_idx, Some(0), "tie must keep the earlier index");
    let fold_rev = fold_scan(&[g * 0.5, g]);
    assert_eq!(fold_rev.best_idx, Some(1), "strict max must win");
}
