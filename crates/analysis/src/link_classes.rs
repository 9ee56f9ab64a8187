//! Link classes: the paper's partition of active nodes.

use fading_channel::NodeId;
use fading_geom::{GridIndex, Point};

/// The paper's link-class partition for one round.
///
/// For a set of *active* nodes, node `u` belongs to class `d_i` iff the
/// distance to its nearest **active** neighbor lies in
/// `[unit·2^i, unit·2^{i+1})`, where `unit` is the normalization reference
/// (the deployment's shortest link; the paper normalizes it to 1). A round
/// with a single active node has no classes — which is exactly when the
/// problem is solved by that node's next broadcast.
///
/// Because knockouts remove nodes, a node's nearest active neighbor — and
/// hence its class — changes over an execution; the analysis in §3.3 of the
/// paper is precisely about controlling this migration. Re-partition after
/// every round of interest.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct LinkClasses {
    unit: f64,
    /// Class index per node id (`None`: inactive, out of range, or the only
    /// active node).
    class_of: Vec<Option<u32>>,
    /// Nearest active neighbor and its distance, per node id.
    nearest: Vec<Option<(NodeId, f64)>>,
    /// Members per class index.
    members: Vec<Vec<NodeId>>,
}

impl LinkClasses {
    /// Partitions the given active nodes.
    ///
    /// `positions` is indexed by node id; `active` lists the ids of
    /// currently active nodes; `unit` is the global normalization unit (the
    /// deployment's shortest link length).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is not strictly positive, if an id in `active` is
    /// out of bounds, or if two active nodes are closer than `unit`
    /// (which would make the class index negative — impossible when `unit`
    /// is the deployment's true shortest link).
    #[must_use]
    pub fn partition(positions: &[Point], active: &[NodeId], unit: f64) -> Self {
        assert!(unit > 0.0, "normalization unit must be positive");
        let n = positions.len();
        let mut class_of = vec![None; n];
        let mut nearest: Vec<Option<(NodeId, f64)>> = vec![None; n];
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        if active.len() >= 2 {
            let active_points: Vec<Point> = active.iter().map(|&id| positions[id]).collect();
            let (nn, nn_distance) = GridIndex::build(&active_points).all_nearest();
            for ((&id, &j), &d) in active.iter().zip(&nn).zip(&nn_distance) {
                let ratio = d / unit;
                assert!(
                    ratio >= 1.0 - 1e-9,
                    "active pair closer ({d}) than the unit ({unit})"
                );
                let class = ratio.max(1.0).log2().floor() as u32;
                nearest[id] = Some((active[j as usize], d));
                class_of[id] = Some(class);
                let ci = class as usize;
                if members.len() <= ci {
                    members.resize_with(ci + 1, Vec::new);
                }
                members[ci].push(id);
            }
        }
        LinkClasses {
            unit,
            class_of,
            nearest,
            members,
        }
    }

    /// The normalization unit used for the partition.
    #[must_use]
    pub fn unit(&self) -> f64 {
        self.unit
    }

    /// Class index of node `u`, if it has one.
    #[must_use]
    pub fn class_of(&self, u: NodeId) -> Option<usize> {
        self.class_of.get(u).copied().flatten().map(|c| c as usize)
    }

    /// Nearest active neighbor of `u` (its "partner" candidate) and the
    /// distance, if `u` is active and not alone.
    #[must_use]
    pub fn nearest_active(&self, u: NodeId) -> Option<(NodeId, f64)> {
        self.nearest.get(u).copied().flatten()
    }

    /// Members of class `d_i` (empty slice for empty or out-of-range `i`).
    #[must_use]
    pub fn members(&self, i: usize) -> &[NodeId] {
        self.members.get(i).map_or(&[], Vec::as_slice)
    }

    /// `n_i`: number of active nodes in class `d_i`.
    #[must_use]
    pub fn count(&self, i: usize) -> usize {
        self.members(i).len()
    }

    /// `n_{<i}`: total active nodes in classes strictly smaller than `i`.
    #[must_use]
    pub fn count_below(&self, i: usize) -> usize {
        (0..i.min(self.members.len()))
            .map(|j| self.members[j].len())
            .sum()
    }

    /// `n_{≥i}`: total active nodes in class `i` and larger.
    #[must_use]
    pub fn count_at_least(&self, i: usize) -> usize {
        (i..self.members.len()).map(|j| self.members[j].len()).sum()
    }

    /// Number of class slots (largest occupied index + 1; 0 if no classes).
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.members.len()
    }

    /// Number of **nonempty** classes (the paper's "network with `l` link
    /// classes" counts occupied classes).
    #[must_use]
    pub fn num_nonempty(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }

    /// The smallest nonempty class index, if any class is occupied.
    #[must_use]
    pub fn smallest_nonempty(&self) -> Option<usize> {
        self.members.iter().position(|m| !m.is_empty())
    }

    /// Per-class sizes `(n_0, n_1, …)` up to the largest occupied index.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn two_pairs_in_distinct_classes() {
        // Pair at distance 1 (class 0) and pair at distance 5 (class 2).
        let positions = pts(&[(0.0, 0.0), (1.0, 0.0), (100.0, 0.0), (105.0, 0.0)]);
        let active = vec![0, 1, 2, 3];
        let lc = LinkClasses::partition(&positions, &active, 1.0);
        assert_eq!(lc.class_of(0), Some(0));
        assert_eq!(lc.class_of(1), Some(0));
        assert_eq!(lc.class_of(2), Some(2));
        assert_eq!(lc.class_of(3), Some(2));
        assert_eq!(lc.sizes(), vec![2, 0, 2]);
        assert_eq!(lc.count_below(2), 2);
        assert_eq!(lc.count_at_least(1), 2);
        assert_eq!(lc.num_nonempty(), 2);
        assert_eq!(lc.smallest_nonempty(), Some(0));
    }

    #[test]
    fn class_boundaries_are_half_open() {
        // Distances exactly 1, 2, 4 land in classes 0, 1, 2.
        for (d, want) in [(1.0, 0), (1.99, 0), (2.0, 1), (3.99, 1), (4.0, 2)] {
            let positions = pts(&[(0.0, 0.0), (d, 0.0)]);
            let lc = LinkClasses::partition(&positions, &[0, 1], 1.0);
            assert_eq!(lc.class_of(0), Some(want), "distance {d}");
        }
    }

    #[test]
    fn single_active_node_has_no_class() {
        let positions = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let lc = LinkClasses::partition(&positions, &[0], 1.0);
        assert_eq!(lc.class_of(0), None);
        assert_eq!(lc.num_classes(), 0);
        assert_eq!(lc.smallest_nonempty(), None);
        assert_eq!(lc.nearest_active(0), None);
    }

    #[test]
    fn inactive_nodes_are_excluded() {
        // Node 1 (the close neighbor) is inactive: node 0's nearest active
        // neighbor is now node 2, far away — it migrates to a larger class.
        let positions = pts(&[(0.0, 0.0), (1.0, 0.0), (8.0, 0.0)]);
        let all = LinkClasses::partition(&positions, &[0, 1, 2], 1.0);
        assert_eq!(all.class_of(0), Some(0));
        let partial = LinkClasses::partition(&positions, &[0, 2], 1.0);
        assert_eq!(partial.class_of(0), Some(3)); // d=8 → class 3
        assert_eq!(partial.class_of(1), None);
        assert_eq!(partial.nearest_active(0), Some((2, 8.0)));
    }

    #[test]
    fn unit_scales_class_indices() {
        // Same geometry, unit 2: distance 4 becomes ratio 2 → class 1.
        let positions = pts(&[(0.0, 0.0), (4.0, 0.0)]);
        let lc = LinkClasses::partition(&positions, &[0, 1], 2.0);
        assert_eq!(lc.class_of(0), Some(1));
        assert_eq!(lc.unit(), 2.0);
    }

    #[test]
    fn members_lists_match_counts() {
        let positions = pts(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (50.0, 0.0),
            (53.0, 0.0),
            (100.0, 100.0),
        ]);
        let active = vec![0, 1, 2, 3, 4];
        let lc = LinkClasses::partition(&positions, &active, 1.0);
        for i in 0..lc.num_classes() {
            assert_eq!(lc.members(i).len(), lc.count(i));
            for &u in lc.members(i) {
                assert_eq!(lc.class_of(u), Some(i));
            }
        }
        let total: usize = lc.sizes().iter().sum();
        assert_eq!(total, 5);
    }

    #[test]
    #[should_panic(expected = "closer")]
    fn active_pair_below_unit_panics() {
        let positions = pts(&[(0.0, 0.0), (0.25, 0.0)]);
        let _ = LinkClasses::partition(&positions, &[0, 1], 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_unit_panics() {
        let positions = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let _ = LinkClasses::partition(&positions, &[0, 1], 0.0);
    }

    #[test]
    fn out_of_range_queries_are_none_or_empty() {
        let positions = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let lc = LinkClasses::partition(&positions, &[0, 1], 1.0);
        assert_eq!(lc.class_of(99), None);
        assert!(lc.members(99).is_empty());
        assert_eq!(lc.count(99), 0);
    }
}
