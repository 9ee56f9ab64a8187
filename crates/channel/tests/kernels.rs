//! Kernel-contract suite: the batched SoA kernels must be **bit-identical**
//! to the scalar hot path (DESIGN.md §15, "summation-order contract").
//!
//! Two families of properties:
//!
//! 1. `pow_alpha_batch` ≡ scalar `pow_alpha` element-wise — bit-exact for
//!    the integer-exponent fast paths, ≤ 1e-9 relative for the generic
//!    `powf` class (mirroring `pow_alpha_fast_paths_match_generic_powf`);
//!    in fact the batch is bit-exact for the generic class too, which the
//!    test pins.
//! 2. `PointsSoA` stays coherent with the canonical `Vec<Point>` through
//!    arbitrary churn (push / overwrite / rebuild), and `gather` preserves
//!    id order bit-for-bit.
//!
//! The batched resolve built on these kernels is held to the cached row
//! path, a longhand scalar fold and every other tier by the round-level
//! table of the differential oracle (`tests/differential.rs`), exact ties
//! included.

use fading_channel::kernels::{distance_sq_batch, gain_batch, pow_alpha_batch};
use fading_channel::pow_alpha;
use fading_geom::{Point, PointsSoA};
use proptest::prelude::*;

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
}
