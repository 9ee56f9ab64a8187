//! Axis-aligned bounding boxes.

use serde::{Deserialize, Serialize};

use crate::Point;

/// An axis-aligned bounding box in the plane.
///
/// Used by [`GridIndex`](crate::GridIndex) for bucketing and by deployment
/// generators to describe their support region.
///
/// # Example
///
/// ```
/// use fading_geom::{Bbox, Point};
///
/// let b = Bbox::new(Point::new(0.0, 0.0), Point::new(10.0, 5.0));
/// assert!(b.contains(Point::new(3.0, 4.0)));
/// assert!(!b.contains(Point::new(3.0, 6.0)));
/// assert_eq!(b.width(), 10.0);
/// assert_eq!(b.height(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bbox {
    min: Point,
    max: Point,
}

impl Bbox {
    /// Creates a bounding box from two opposite corners.
    ///
    /// The corners may be given in any order; the box is normalized so that
    /// `min() <= max()` component-wise.
    #[must_use]
    pub fn new(a: Point, b: Point) -> Self {
        Bbox {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The smallest box containing every point in `points`.
    ///
    /// Returns `None` for an empty iterator.
    ///
    /// ```
    /// use fading_geom::{Bbox, Point};
    /// let pts = [Point::new(1.0, 4.0), Point::new(-2.0, 0.5)];
    /// let b = Bbox::containing(pts.iter().copied()).unwrap();
    /// assert_eq!(b.min(), Point::new(-2.0, 0.5));
    /// assert_eq!(b.max(), Point::new(1.0, 4.0));
    /// ```
    #[must_use]
    pub fn containing<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut bbox = Bbox::new(first, first);
        for p in iter {
            bbox.expand(p);
        }
        Some(bbox)
    }

    /// The corner with minimal coordinates.
    #[must_use]
    pub fn min(&self) -> Point {
        self.min
    }

    /// The corner with maximal coordinates.
    #[must_use]
    pub fn max(&self) -> Point {
        self.max
    }

    /// Horizontal extent.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Vertical extent.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Center of the box.
    #[must_use]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Grows the box (in place) so that it contains `p`.
    pub fn expand(&mut self, p: Point) {
        self.min = Point::new(self.min.x.min(p.x), self.min.y.min(p.y));
        self.max = Point::new(self.max.x.max(p.x), self.max.y.max(p.y));
    }

    /// Returns `true` if `p` lies inside the box (boundary inclusive).
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Squared distance from `p` to the nearest point of the box
    /// (zero if `p` is inside).
    #[must_use]
    pub fn distance_sq_to(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// Conservative `(min, max)` **squared** distance between any point of
    /// `self` and any point of `other`: the per-axis gap (0 where the
    /// spans overlap) and reach (the largest coordinate difference the two
    /// spans allow), each combined as `x² + y²`.
    #[must_use]
    pub fn distance_sq_bounds(&self, other: &Bbox) -> (f64, f64) {
        let (a, b) = (self, other);
        let gap = |a_min: f64, a_max: f64, b_min: f64, b_max: f64| -> f64 {
            (b_min - a_max).max(a_min - b_max).max(0.0)
        };
        let reach = |a_min: f64, a_max: f64, b_min: f64, b_max: f64| -> f64 {
            (b_max - a_min).max(a_max - b_min)
        };
        let gx = gap(a.min.x, a.max.x, b.min.x, b.max.x);
        let gy = gap(a.min.y, a.max.y, b.min.y, b.max.y);
        let rx = reach(a.min.x, a.max.x, b.min.x, b.max.x);
        let ry = reach(a.min.y, a.max.y, b.min.y, b.max.y);
        (gx * gx + gy * gy, rx * rx + ry * ry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corners() {
        let b = Bbox::new(Point::new(5.0, -1.0), Point::new(1.0, 3.0));
        assert_eq!(b.min(), Point::new(1.0, -1.0));
        assert_eq!(b.max(), Point::new(5.0, 3.0));
    }

    #[test]
    fn distance_sq_bounds_bracket_corner_pairs() {
        let a = Bbox::new(Point::new(0.0, 0.0), Point::new(1.0, 2.0));
        let b = Bbox::new(Point::new(4.0, 6.0), Point::new(5.0, 7.0));
        // Gap (3, 4) and reach (5, 7).
        assert_eq!(a.distance_sq_bounds(&b), (25.0, 74.0));
        assert_eq!(b.distance_sq_bounds(&a), (25.0, 74.0));
        // Overlapping boxes have no gap; a box reaches its own diagonal.
        assert_eq!(a.distance_sq_bounds(&a), (0.0, 5.0));
    }

    #[test]
    fn containing_empty_is_none() {
        assert!(Bbox::containing(std::iter::empty()).is_none());
    }

    #[test]
    fn containing_single_point_is_degenerate() {
        let p = Point::new(2.0, 2.0);
        let b = Bbox::containing([p]).unwrap();
        assert_eq!(b.width(), 0.0);
        assert_eq!(b.height(), 0.0);
        assert!(b.contains(p));
    }

    #[test]
    fn boundary_is_inclusive() {
        let b = Bbox::new(Point::ORIGIN, Point::new(1.0, 1.0));
        assert!(b.contains(Point::new(0.0, 0.0)));
        assert!(b.contains(Point::new(1.0, 1.0)));
        assert!(b.contains(Point::new(1.0, 0.5)));
    }

    #[test]
    fn expand_grows_to_contain() {
        let mut b = Bbox::new(Point::ORIGIN, Point::new(1.0, 1.0));
        b.expand(Point::new(-2.0, 5.0));
        assert!(b.contains(Point::new(-2.0, 5.0)));
        assert!(b.contains(Point::new(0.5, 0.5)));
    }

    #[test]
    fn distance_sq_inside_is_zero() {
        let b = Bbox::new(Point::ORIGIN, Point::new(4.0, 4.0));
        assert_eq!(b.distance_sq_to(Point::new(2.0, 2.0)), 0.0);
    }

    #[test]
    fn distance_sq_outside_corner() {
        let b = Bbox::new(Point::ORIGIN, Point::new(1.0, 1.0));
        // (4, 5) is 3 right of and 4 above the top-right corner.
        assert!((b.distance_sq_to(Point::new(4.0, 5.0)) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn center_is_midpoint() {
        let b = Bbox::new(Point::ORIGIN, Point::new(4.0, 2.0));
        assert_eq!(b.center(), Point::new(2.0, 1.0));
    }
}
