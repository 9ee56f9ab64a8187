//! Node deployments: point sets with cached link structure.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::hull::diameter;
use crate::{GeomError, GridIndex, Point};

/// An immutable set of node positions with cached link structure.
///
/// In the paper's terminology a *link* is any of the `n·(n−1)/2` node pairs;
/// the deployment caches the shortest link, the longest link (the point-set
/// diameter, computed exactly via rotating calipers), their ratio `R`
/// ([`Deployment::link_ratio`]), and every node's nearest neighbor.
///
/// Construct deployments either through the seeded generators re-exported as
/// inherent constructors (e.g. [`Deployment::uniform_square`]) or from raw
/// points via [`Deployment::from_points`] / [`DeploymentBuilder`].
///
/// # Example
///
/// ```
/// use fading_geom::{Deployment, Point};
///
/// let d = Deployment::from_points(vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(5.0, 0.0),
/// ])?;
/// assert_eq!(d.min_link(), 1.0);
/// assert_eq!(d.max_link(), 5.0);
/// assert_eq!(d.link_ratio(), 5.0);
/// assert_eq!(d.nearest_neighbor(2), Some(1));
/// # Ok::<(), fading_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Deployment {
    /// Shared with clones and with every simulation over the deployment.
    points: Arc<Vec<Point>>,
    nn_index: Vec<u32>,
    nn_distance: Vec<f64>,
    min_link: f64,
    max_link: f64,
}

impl Deployment {
    /// Builds a deployment from raw points, validating them and computing the
    /// cached link structure.
    ///
    /// # Errors
    ///
    /// * [`GeomError::TooFewNodes`] if fewer than two points are given.
    /// * [`GeomError::NonFinitePoint`] if any coordinate is NaN or infinite.
    /// * [`GeomError::CoincidentNodes`] if two points coincide (the shortest
    ///   link would be zero and `R` undefined). It names the first node in
    ///   index order that has a coincident twin, and its smallest-index twin.
    pub fn from_points(points: Vec<Point>) -> Result<Self, GeomError> {
        if points.len() < 2 {
            return Err(GeomError::TooFewNodes { got: points.len() });
        }
        for (i, p) in points.iter().enumerate() {
            if !p.is_finite() {
                return Err(GeomError::NonFinitePoint { index: i });
            }
        }
        let (nn_index, nn_distance) = GridIndex::build(&points).all_nearest();
        if let Some(i) = nn_distance.iter().position(|&d| d == 0.0) {
            let j = nn_index[i] as usize;
            return Err(GeomError::CoincidentNodes {
                first: i.min(j),
                second: i.max(j),
            });
        }
        let min_link = nn_distance.iter().copied().fold(f64::INFINITY, f64::min);
        let max_link = diameter(&points);
        Ok(Deployment {
            points: Arc::new(points),
            nn_index,
            nn_distance,
            min_link,
            max_link,
        })
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the deployment has no nodes.
    ///
    /// Note that [`Deployment::from_points`] rejects deployments with fewer
    /// than two nodes, so this is always `false` for constructed values; it
    /// exists for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn point(&self, i: usize) -> Point {
        self.points[i]
    }

    /// All node positions, indexed by node id.
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Index of the node nearest to node `i` (over the *whole* deployment,
    /// not just active nodes — per-round active nearest neighbors are
    /// recomputed by the analysis crate).
    ///
    /// Returns `None` if `i` is out of bounds.
    #[must_use]
    pub fn nearest_neighbor(&self, i: usize) -> Option<usize> {
        self.nn_index.get(i).map(|&j| j as usize)
    }

    /// Distance from node `i` to its nearest neighbor.
    ///
    /// Returns `None` if `i` is out of bounds.
    #[must_use]
    pub fn nn_distance(&self, i: usize) -> Option<f64> {
        self.nn_distance.get(i).copied()
    }

    /// Length of the shortest link (smallest pairwise distance).
    #[must_use]
    pub fn min_link(&self) -> f64 {
        self.min_link
    }

    /// Length of the longest link (the point-set diameter).
    #[must_use]
    pub fn max_link(&self) -> f64 {
        self.max_link
    }

    /// The paper's `R`: ratio of the longest to the shortest link.
    ///
    /// The paper normalizes the shortest link to `1`, making `R` the longest
    /// link; [`Deployment::normalized`] applies that normalization.
    #[must_use]
    pub fn link_ratio(&self) -> f64 {
        self.max_link / self.min_link
    }

    /// `⌈log₂ R⌉ + 1`, the number of link classes `d_0 … d_{⌈log R⌉}` the
    /// paper's analysis partitions nodes into.
    #[must_use]
    pub fn num_link_classes(&self) -> usize {
        debug_assert!(self.link_ratio() >= 1.0 - crate::EPSILON);
        (self.link_ratio().log2().ceil().max(0.0) as usize) + 1
    }

    /// Returns a copy rescaled so that the shortest link has length exactly
    /// `1` (the paper's normalization), anchored at the original origin.
    ///
    /// ```
    /// use fading_geom::{Deployment, Point};
    /// let d = Deployment::from_points(vec![
    ///     Point::new(0.0, 0.0),
    ///     Point::new(4.0, 0.0),
    ///     Point::new(10.0, 0.0),
    /// ]).unwrap();
    /// let n = d.normalized();
    /// assert!((n.min_link() - 1.0).abs() < 1e-12);
    /// assert!((n.link_ratio() - d.link_ratio()).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn normalized(&self) -> Deployment {
        let scale = 1.0 / self.min_link;
        let points = self.points.iter().map(|&p| p * scale).collect();
        match Deployment::from_points(points) {
            Ok(d) => d,
            Err(_) => unreachable!("rescaling by a positive finite factor preserves validity"),
        }
    }

    /// The node positions indexed by node id, shared rather than copied:
    /// every holder of the returned `Arc` reads this deployment's one copy.
    #[must_use]
    pub fn shared_points(&self) -> Arc<Vec<Point>> {
        Arc::clone(&self.points)
    }
}

/// Incremental builder for [`Deployment`].
///
/// # Example
///
/// ```
/// use fading_geom::{DeploymentBuilder, Point};
///
/// let d = DeploymentBuilder::new()
///     .point(Point::new(0.0, 0.0))
///     .point(Point::new(2.0, 0.0))
///     .points([Point::new(0.0, 2.0), Point::new(2.0, 2.0)])
///     .build()?;
/// assert_eq!(d.len(), 4);
/// # Ok::<(), fading_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeploymentBuilder {
    points: Vec<Point>,
}

impl DeploymentBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a single point.
    pub fn point(&mut self, p: Point) -> &mut Self {
        self.points.push(p);
        self
    }

    /// Adds many points.
    pub fn points<I: IntoIterator<Item = Point>>(&mut self, pts: I) -> &mut Self {
        self.points.extend(pts);
        self
    }

    /// Finalizes the deployment.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`Deployment::from_points`].
    pub fn build(&self) -> Result<Deployment, GeomError> {
        Deployment::from_points(self.points.clone())
    }
}

impl FromIterator<Point> for DeploymentBuilder {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        DeploymentBuilder {
            points: iter.into_iter().collect(),
        }
    }
}

impl Extend<Point> for DeploymentBuilder {
    fn extend<I: IntoIterator<Item = Point>>(&mut self, iter: I) {
        self.points.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_too_few_nodes() {
        assert!(matches!(
            Deployment::from_points(vec![]),
            Err(GeomError::TooFewNodes { got: 0 })
        ));
        assert!(matches!(
            Deployment::from_points(vec![Point::ORIGIN]),
            Err(GeomError::TooFewNodes { got: 1 })
        ));
    }

    #[test]
    fn rejects_coincident_nodes() {
        let err = Deployment::from_points(vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(1.0, 1.0),
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            GeomError::CoincidentNodes {
                first: 0,
                second: 2
            }
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let err =
            Deployment::from_points(vec![Point::ORIGIN, Point::new(f64::NAN, 0.0)]).unwrap_err();
        assert!(matches!(err, GeomError::NonFinitePoint { index: 1 }));
    }

    #[test]
    fn two_node_link_structure() {
        let d = Deployment::from_points(vec![Point::ORIGIN, Point::new(3.0, 0.0)]).unwrap();
        assert_eq!(d.min_link(), 3.0);
        assert_eq!(d.max_link(), 3.0);
        assert_eq!(d.link_ratio(), 1.0);
        assert_eq!(d.num_link_classes(), 1);
        assert_eq!(d.nearest_neighbor(0), Some(1));
        assert_eq!(d.nearest_neighbor(1), Some(0));
    }

    #[test]
    fn line_nearest_neighbors() {
        // 0---1-2 : node 0 at 0, node 1 at 10, node 2 at 12.
        let d = Deployment::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(12.0, 0.0),
        ])
        .unwrap();
        assert_eq!(d.nearest_neighbor(0), Some(1));
        assert_eq!(d.nearest_neighbor(1), Some(2));
        assert_eq!(d.nearest_neighbor(2), Some(1));
        assert_eq!(d.min_link(), 2.0);
        assert_eq!(d.max_link(), 12.0);
        assert_eq!(d.link_ratio(), 6.0);
        // ceil(log2 6) + 1 = 3 + 1 = 4
        assert_eq!(d.num_link_classes(), 4);
    }

    #[test]
    fn normalization_sets_min_link_to_one() {
        let d = Deployment::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 5.0),
            Point::new(0.0, 20.0),
        ])
        .unwrap();
        let n = d.normalized();
        assert!((n.min_link() - 1.0).abs() < 1e-12);
        assert!((n.link_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn builder_accumulates() {
        let mut b = DeploymentBuilder::new();
        b.point(Point::ORIGIN);
        b.points((1..4).map(|i| Point::new(f64::from(i), 0.0)));
        let d = b.build().unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.min_link(), 1.0);
    }

    #[test]
    fn builder_from_iterator() {
        let b: DeploymentBuilder = (0..3)
            .map(|i| Point::new(f64::from(i) * 2.0, 0.0))
            .collect();
        let d = b.build().unwrap();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn nn_distance_matches_nn_index() {
        let d = Deployment::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 7.0),
        ])
        .unwrap();
        for i in 0..3 {
            let j = d.nearest_neighbor(i).unwrap();
            assert_eq!(d.nn_distance(i).unwrap(), d.point(i).distance(d.point(j)));
        }
        assert_eq!(d.nearest_neighbor(99), None);
        assert_eq!(d.nn_distance(99), None);
    }

    #[test]
    fn min_link_is_min_nn_distance() {
        let d = Deployment::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(10.0, 10.0),
            Point::new(13.0, 10.0),
        ])
        .unwrap();
        assert_eq!(d.min_link(), 0.5);
    }
}
