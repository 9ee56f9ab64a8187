//! Convex hull and exact diameter computation.
//!
//! The paper's parameter `R` is the ratio of the longest to the shortest
//! link, and the longest link of a deployment is the diameter of its point
//! set. Computing the diameter naively is `O(n^2)`; this module provides the
//! standard `O(n log n)` pipeline: Andrew's monotone-chain convex hull
//! followed by rotating calipers.

use crate::Point;

/// Twice the signed area of triangle `(o, a, b)`.
///
/// Positive when `o -> a -> b` turns counter-clockwise.
fn cross(o: Point, a: Point, b: Point) -> f64 {
    (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
}

/// Computes the convex hull of `points` using Andrew's monotone chain.
///
/// Returns hull vertices in counter-clockwise order without repeating the
/// first vertex. Collinear points on hull edges are dropped. Degenerate
/// inputs are handled: fewer than three distinct points return what exists
/// (possibly fewer than three vertices).
///
/// # Example
///
/// ```
/// use fading_geom::{convex_hull, Point};
///
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(2.0, 0.0),
///     Point::new(2.0, 2.0),
///     Point::new(0.0, 2.0),
///     Point::new(1.0, 1.0), // interior
/// ];
/// let hull = convex_hull(&pts);
/// assert_eq!(hull.len(), 4);
/// ```
#[must_use]
pub fn convex_hull(points: &[Point]) -> Vec<Point> {
    let mut pts: Vec<Point> = points.to_vec();
    pts.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    pts.dedup_by(|a, b| a.x == b.x && a.y == b.y);
    let n = pts.len();
    if n < 3 {
        return pts;
    }
    let mut hull: Vec<Point> = Vec::with_capacity(2 * n);
    // Lower hull.
    for &p in &pts {
        while hull.len() >= 2 && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0 {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0
        {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // The last point equals the first.
    hull
}

/// Computes the exact diameter (longest pairwise distance) of `points` in
/// `O(n log n)` via convex hull + rotating calipers.
///
/// Points strictly inside the octagon of the eight extreme points are
/// dropped first (they cannot be hull vertices), so on spread-out sets the
/// monotone chain sorts hundreds of points rather than all of them.
///
/// Returns `0.0` for zero or one point.
///
/// # Example
///
/// ```
/// use fading_geom::{diameter, Point};
///
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(3.0, 4.0),
///     Point::new(1.0, 1.0),
/// ];
/// assert_eq!(diameter(&pts), 5.0);
/// ```
#[must_use]
pub fn diameter(points: &[Point]) -> f64 {
    hull_diameter(&convex_hull(&hull_candidates(points)))
}

/// The points that may be vertices of the convex hull of `points`.
///
/// The extreme points in the eight directions `k·45°` (the minima and
/// maxima of `x`, `y`, `x + y` and `x − y`), taken counter-clockwise, span a
/// convex octagon inside the hull. A point strictly inside every octagon
/// edge is strictly inside the hull and cannot be a vertex. The test is
/// conservative: it drops a point only when its orientation against every
/// edge clears `1e-9·(w + h)²` (`w × h` the bounding box), about 10⁶ times
/// the rounding error of [`cross`], so the points kept yield the same hull
/// as all of them.
fn hull_candidates(points: &[Point]) -> Vec<Point> {
    let Some(&first) = points.first() else {
        return Vec::new();
    };
    let keys = |p: Point| [p.x, p.x + p.y, p.y, p.y - p.x];
    // max[k] and min[k] are the extremes of keys(p)[k]; max of the four
    // keys gives directions 0°, 45°, 90°, 135°, min gives 180° … 315°.
    let mut max = keys(first).map(|v| (v, first));
    let mut min = max;
    for &p in points {
        for (k, v) in keys(p).into_iter().enumerate() {
            if v > max[k].0 {
                max[k] = (v, p);
            }
            if v < min[k].0 {
                min[k] = (v, p);
            }
        }
    }
    let mut octagon: Vec<Point> = max.iter().chain(&min).map(|&(_, p)| p).collect();
    octagon.dedup();
    if octagon.len() > 1 && octagon.first() == octagon.last() {
        octagon.pop();
    }
    let extent = (max[0].0 - min[0].0) + (max[2].0 - min[2].0);
    let margin = 1e-9 * extent * extent;
    let edges: Vec<(Point, Point)> = (0..octagon.len())
        .map(|k| (octagon[k], octagon[(k + 1) % octagon.len()]))
        .collect();
    points
        .iter()
        .copied()
        .filter(|&p| !edges.iter().all(|&(a, b)| cross(a, b, p) > margin))
        .collect()
}

/// The diameter of a convex polygon given counter-clockwise, by rotating
/// calipers over its antipodal pairs.
fn hull_diameter(hull: &[Point]) -> f64 {
    let m = hull.len();
    match m {
        0 | 1 => 0.0,
        2 => hull[0].distance(hull[1]),
        _ => {
            let mut best_sq: f64 = 0.0;
            let mut j = 1;
            for i in 0..m {
                let edge_from = hull[i];
                let edge_to = hull[(i + 1) % m];
                // Advance j while the triangle area keeps growing.
                loop {
                    let next = (j + 1) % m;
                    let area_now = cross(edge_from, edge_to, hull[j]).abs();
                    let area_next = cross(edge_from, edge_to, hull[next]).abs();
                    if area_next > area_now {
                        j = next;
                    } else {
                        break;
                    }
                }
                best_sq = best_sq
                    .max(edge_from.distance_sq(hull[j]))
                    .max(edge_to.distance_sq(hull[j]));
            }
            best_sq.sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_diameter(points: &[Point]) -> f64 {
        let mut best: f64 = 0.0;
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                best = best.max(points[i].distance(points[j]));
            }
        }
        best
    }

    #[test]
    fn hull_of_square_with_interior() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
            Point::new(2.0, 2.0),
            Point::new(1.0, 3.0),
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
    }

    #[test]
    fn hull_drops_collinear_edge_points() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 1.0),
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 3);
    }

    #[test]
    fn hull_degenerate_inputs() {
        assert!(convex_hull(&[]).is_empty());
        assert_eq!(convex_hull(&[Point::ORIGIN]).len(), 1);
        assert_eq!(convex_hull(&[Point::ORIGIN, Point::new(1.0, 1.0)]).len(), 2);
        // All collinear.
        let line: Vec<Point> = (0..10).map(|i| Point::new(f64::from(i), 0.0)).collect();
        let hull = convex_hull(&line);
        assert_eq!(hull.len(), 2);
    }

    #[test]
    fn diameter_matches_brute_force_on_clouds() {
        let mut state: u64 = 42;
        let mut pts = Vec::new();
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = ((state >> 33) % 10_000) as f64 / 100.0;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let y = ((state >> 33) % 10_000) as f64 / 100.0;
            pts.push(Point::new(x, y));
        }
        let fast = diameter(&pts);
        let slow = brute_diameter(&pts);
        assert!((fast - slow).abs() < 1e-9, "fast {fast} slow {slow}");
    }

    #[test]
    fn diameter_of_duplicated_point_is_zero() {
        let pts = vec![Point::new(3.0, 3.0); 7];
        assert_eq!(diameter(&pts), 0.0);
    }

    #[test]
    fn diameter_of_two_points() {
        assert_eq!(diameter(&[Point::ORIGIN, Point::new(0.0, 9.0)]), 9.0);
    }

    /// A deterministic cloud of `n` points in `[0, side)²`.
    fn cloud(n: usize, side: f64, mut state: u64) -> Vec<Point> {
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64 * side
        };
        (0..n).map(|_| Point::new(next(), next())).collect()
    }

    /// `diameter` must return, bit for bit, what the monotone chain and
    /// calipers give on the unfiltered set.
    fn assert_filter_is_exact(points: &[Point]) {
        let unfiltered = hull_diameter(&convex_hull(points));
        assert_eq!(
            diameter(points).to_bits(),
            unfiltered.to_bits(),
            "{points:?}"
        );
        assert_eq!(convex_hull(&hull_candidates(points)), convex_hull(points));
    }

    #[test]
    fn octagon_filter_bit_equals_unfiltered_chain() {
        let line = |n: i32, dx: f64, dy: f64| -> Vec<Point> {
            (0..n)
                .map(|i| Point::new(0.5 + f64::from(i) * dx, -2.0 + f64::from(i) * dy))
                .collect()
        };
        let mut sets = vec![
            vec![],
            vec![Point::new(1.0, 2.0)],
            vec![Point::ORIGIN, Point::new(3.0, 4.0)],
            vec![Point::ORIGIN, Point::new(3.0, 4.0), Point::new(1.0, 1.0)],
            vec![Point::ORIGIN, Point::new(2.0, 2.0), Point::new(1.0, 1.0)],
            line(40, 1.0, 0.0),
            line(40, 0.0, 0.3),
            line(40, 0.7, 0.7),
            line(40, 0.1, 0.3),
            vec![Point::new(3.0, 3.0); 7],
        ];
        for seed in 0..20 {
            let mut dup = cloud(200, 50.0, seed);
            dup.extend_from_within(..100);
            sets.push(dup);
            sets.push(cloud(3, 10.0, seed));
            sets.push(cloud(2_000, 1e3, seed));
            sets.push(cloud(2_000, 1e-3, seed));
            // A translated cloud: coordinates large against its extent.
            sets.push(
                cloud(500, 1.0, seed)
                    .into_iter()
                    .map(|p| Point::new(p.x + 1e6, p.y - 1e6))
                    .collect(),
            );
        }
        for points in &sets {
            assert_filter_is_exact(points);
        }
    }

    #[test]
    fn octagon_filter_drops_the_interior_of_uniform_sets() {
        let points = cloud(20_000, 100.0, 7);
        let kept = hull_candidates(&points).len();
        assert!(kept < 1_000, "kept {kept} of {}", points.len());
    }

    #[test]
    fn diameter_collinear() {
        let line: Vec<Point> = (0..17)
            .map(|i| Point::new(f64::from(i) * 2.0, 1.0))
            .collect();
        assert_eq!(diameter(&line), 32.0);
    }
}
