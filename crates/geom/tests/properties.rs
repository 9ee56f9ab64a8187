//! Property-based tests: the spatial index and hull pipeline must agree with
//! brute force on arbitrary inputs, and deployments must maintain their
//! cached invariants.

use fading_geom::generators::{clustered, grid_lattice};
use fading_geom::{convex_hull, diameter, Deployment, GeomError, GridIndex, Point};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-1_000.0..1_000.0f64, -1_000.0..1_000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(), min..=max)
}

fn brute_nearest(points: &[Point], q: Point, exclude: usize) -> Option<f64> {
    points
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != exclude)
        .map(|(_, p)| p.distance(q))
        .min_by(|a, b| a.partial_cmp(b).unwrap())
}

/// Brute-force nearest neighbour of `q` other than `exclude`, ties towards
/// the smaller index.
fn brute_nearest_id(points: &[Point], q: Point, exclude: Option<usize>) -> Option<usize> {
    (0..points.len())
        .filter(|&j| Some(j) != exclude)
        .min_by(|&a, &b| {
            points[a]
                .distance_sq(q)
                .total_cmp(&points[b].distance_sq(q))
                .then(a.cmp(&b))
        })
}

/// Point sets for the nearest-neighbour oracles: uniform clouds, exact
/// lattices (every interior node has four tied neighbours), Gaussian
/// clusters, and clouds with coincident copies.
fn nn_point_sets() -> impl Strategy<Value = Vec<Point>> {
    prop_oneof![
        arb_points(2, 150),
        (2usize..14, 1usize..14, 0.25..4.0f64).prop_map(|(cols, rows, spacing)| {
            grid_lattice(cols, rows, spacing, 0.0, 1)
                .expect("at least two lattice points")
                .points()
                .to_vec()
        }),
        (1usize..6, 2usize..30, 0.01..5.0f64, 0u64..1_000).prop_map(
            |(clusters, per_cluster, sigma, seed)| {
                clustered(clusters, per_cluster, sigma, 100.0, seed)
                    .expect("Gaussian members do not coincide")
                    .points()
                    .to_vec()
            }
        ),
        (arb_points(2, 60), prop::collection::vec(0usize..60, 1..10)).prop_map(
            |(mut points, copies)| {
                for c in copies {
                    points.push(points[c % points.len()]);
                }
                points
            }
        ),
    ]
}

/// The pair `Deployment::from_points` reports: the first node in index
/// order with a coincident twin, and its smallest-index twin.
fn first_coincident(points: &[Point]) -> Option<(usize, usize)> {
    (0..points.len()).find_map(|i| {
        (0..points.len())
            .find(|&j| j != i && points[i].distance_sq(points[j]) == 0.0)
            .map(|j| (i.min(j), i.max(j)))
    })
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The nearest-neighbour ids and distances and the link extremes of the
/// 2^15-node deployment perfbench's fkn-alpha builds, bit for bit, pinned
/// to the values of the per-point ring search the batch pass replaced.
#[test]
fn grid_golden_nn_of_uniform_2_15() {
    let d = Deployment::uniform_density(1 << 15, 0.25, 2016);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for i in 0..d.len() {
        let j = d.nearest_neighbor(i).expect("in range") as u32;
        fnv1a(&mut hash, &j.to_le_bytes());
        fnv1a(
            &mut hash,
            &d.nn_distance(i).expect("in range").to_bits().to_le_bytes(),
        );
    }
    fnv1a(&mut hash, &d.min_link().to_bits().to_le_bytes());
    fnv1a(&mut hash, &d.max_link().to_bits().to_le_bytes());
    assert_eq!(hash, 0x2dec_d833_3a2d_aedf, "got {hash:#018x}");
}

#[test]
fn from_points_reports_first_of_several_coincident_pairs() {
    let (a, b, c) = (
        Point::new(1.0, 1.0),
        Point::new(2.0, 5.0),
        Point::new(-3.0, 0.5),
    );
    for (points, want) in [
        (vec![c, b, a, b, a, a], (1, 3)),
        (vec![a, b, c, c, b, a], (0, 5)),
        (vec![c, a, b, a, b, c, Point::ORIGIN], (0, 5)),
        (vec![Point::ORIGIN, b, a, a, b], (1, 4)),
    ] {
        assert_eq!(first_coincident(&points), Some(want));
        match Deployment::from_points(points) {
            Err(GeomError::CoincidentNodes { first, second }) => {
                assert_eq!((first, second), want);
            }
            other => panic!("expected CoincidentNodes {want:?}, got {other:?}"),
        }
    }
}

proptest! {
    #[test]
    fn grid_all_nearest_matches_brute_force(
        points in nn_point_sets(),
        query in arb_point(),
        exclude in 0usize..200,
    ) {
        let idx = GridIndex::build(&points);
        let (ids, distances) = idx.all_nearest();
        for i in 0..points.len() {
            let want = brute_nearest_id(&points, points[i], Some(i)).expect("n >= 2");
            prop_assert_eq!(ids[i] as usize, want, "node {} of {:?}", i, points);
            prop_assert_eq!(distances[i].to_bits(), points[i].distance(points[want]).to_bits());
        }
        // Single queries: an arbitrary point, and a node excluding another
        // (or, out of range, excluding nothing).
        let node = points[exclude % points.len()];
        for (q, e) in [(query, None), (query, Some(exclude)), (node, Some(exclude))] {
            prop_assert_eq!(idx.nearest(q, e), brute_nearest_id(&points, q, e), "query {} exclude {:?}", q, e);
        }
    }

    #[test]
    fn grid_all_nearest_on_cell_edges(
        coords in prop::collection::vec((0u32..24, 0u32..24), 2..120),
        cell in prop_oneof![Just(0.5), Just(1.0), Just(2.0), Just(3.0)],
    ) {
        // Integer coordinates and cells of a half-integer size put most
        // points exactly on cell edges, and ties abound.
        let points: Vec<Point> = coords
            .iter()
            .map(|&(x, y)| Point::new(f64::from(x), f64::from(y)))
            .collect();
        let idx = GridIndex::build_with_cell(&points, cell);
        let (ids, _) = idx.all_nearest();
        for i in 0..points.len() {
            prop_assert_eq!(Some(ids[i] as usize), brute_nearest_id(&points, points[i], Some(i)));
        }
    }

    #[test]
    fn from_points_reports_first_coincident_pair(
        (points, copies) in (arb_points(2, 60), prop::collection::vec((0usize..60, 0usize..70), 1..6)),
    ) {
        let mut points = points;
        for (from, to) in copies {
            let p = points[from % points.len()];
            let at = to % (points.len() + 1);
            points.insert(at, p);
        }
        let want = first_coincident(&points).expect("a copy was inserted");
        match Deployment::from_points(points) {
            Err(GeomError::CoincidentNodes { first, second }) => {
                prop_assert_eq!((first, second), want);
            }
            other => panic!("expected CoincidentNodes {want:?}, got {other:?}"),
        }
    }

    #[test]
    fn grid_nearest_matches_brute_force(points in arb_points(2, 120)) {
        let idx = GridIndex::build(&points);
        for i in 0..points.len() {
            let got = idx
                .nearest(points[i], Some(i))
                .map(|j| points[j].distance(points[i]));
            let want = brute_nearest(&points, points[i], i);
            match (got, want) {
                (Some(g), Some(w)) => prop_assert!((g - w).abs() < 1e-9, "i={i} got={g} want={w}"),
                (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
            }
        }
    }

    #[test]
    fn grid_within_matches_brute_force(
        points in arb_points(1, 120),
        center in arb_point(),
        radius in 0.0..2_000.0f64,
    ) {
        let idx = GridIndex::build(&points);
        let mut got = idx.within(center, radius);
        got.sort_unstable();
        let want: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_sq(center) <= radius * radius)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn annulus_count_matches_brute_force(
        points in arb_points(1, 100),
        center in arb_point(),
        (r_in, r_out) in (0.0..500.0f64, 0.0..1_500.0f64)
            .prop_map(|(a, b)| (a.min(b), a.max(b))),
    ) {
        let idx = GridIndex::build(&points);
        let got = idx.count_in_annulus(center, r_in, r_out);
        let want = points
            .iter()
            .filter(|p| {
                let d = p.distance(center);
                d > r_in && d <= r_out
            })
            .count();
        // Allow boundary off-by-epsilon differences: recompute with strict
        // tolerance and require the counts to be sandwiched.
        let lo = points
            .iter()
            .filter(|p| {
                let d = p.distance(center);
                d > r_in + 1e-9 && d <= r_out - 1e-9
            })
            .count();
        let hi = points
            .iter()
            .filter(|p| {
                let d = p.distance(center);
                d > r_in - 1e-9 && d <= r_out + 1e-9
            })
            .count();
        prop_assert!(got >= lo && got <= hi, "got={got} want≈{want} in [{lo},{hi}]");
    }

    #[test]
    fn diameter_matches_brute_force(points in arb_points(0, 80)) {
        let fast = diameter(&points);
        let mut slow: f64 = 0.0;
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                slow = slow.max(points[i].distance(points[j]));
            }
        }
        prop_assert!((fast - slow).abs() <= 1e-9 * slow.max(1.0), "fast={fast} slow={slow}");
    }

    #[test]
    fn hull_contains_all_points(points in arb_points(3, 60)) {
        let hull = convex_hull(&points);
        prop_assume!(hull.len() >= 3);
        // Every input point must be inside or on the hull: check via the
        // cross-product sign against every hull edge (hull is CCW).
        for p in &points {
            for k in 0..hull.len() {
                let a = hull[k];
                let b = hull[(k + 1) % hull.len()];
                let cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x);
                prop_assert!(cross >= -1e-6, "point {p} outside hull edge {k}");
            }
        }
    }

    #[test]
    fn deployment_invariants(points in arb_points(2, 80)) {
        match Deployment::from_points(points.clone()) {
            Ok(d) => {
                // min_link is the smallest nearest-neighbor distance.
                let min_nn = (0..d.len())
                    .map(|i| d.nn_distance(i).unwrap())
                    .fold(f64::INFINITY, f64::min);
                prop_assert!((d.min_link() - min_nn).abs() < 1e-9);
                // max_link >= every nn distance, and R >= 1.
                prop_assert!(d.max_link() + 1e-9 >= min_nn);
                prop_assert!(d.link_ratio() >= 1.0 - 1e-9);
                // Each node's recorded nearest neighbor is at the recorded distance.
                for i in 0..d.len() {
                    let j = d.nearest_neighbor(i).unwrap();
                    prop_assert!(i != j);
                    let dist = d.point(i).distance(d.point(j));
                    prop_assert!((dist - d.nn_distance(i).unwrap()).abs() < 1e-9);
                }
            }
            Err(_) => {
                // Only coincident points can fail here (the strategy
                // generates finite coordinates and >= 2 points).
                let mut coincident = false;
                'outer: for i in 0..points.len() {
                    for j in (i + 1)..points.len() {
                        if points[i].distance_sq(points[j]) == 0.0 {
                            coincident = true;
                            break 'outer;
                        }
                    }
                }
                prop_assert!(coincident);
            }
        }
    }

    #[test]
    fn normalization_preserves_ratio(points in arb_points(2, 50)) {
        if let Ok(d) = Deployment::from_points(points) {
            let n = d.normalized();
            prop_assert!((n.min_link() - 1.0).abs() < 1e-9);
            prop_assert!((n.link_ratio() - d.link_ratio()).abs() <= 1e-6 * d.link_ratio());
        }
    }
}
