//! Multi-resolution tile hierarchy over a point set, with certified
//! per-node distance brackets.
//!
//! [`TileTree`] stacks geometrically coarser aggregation levels on top of a
//! fine [`TileIndex`]: level 0 mirrors the fine grid's tiles, and each
//! higher level merges 2×2 blocks of the previous one until a single root
//! node covers the whole deployment. Every node records the **content
//! bbox** of the points beneath it (the union of its non-empty children's
//! content bboxes) and their count, so the same gap/reach argument that
//! certifies [`TileIndex::distance_sq_bounds`] applies at every level:
//!
//! ```text
//! d_min(t, node)² ≤ d(u, v)² ≤ d_max(t, node)²
//!     for all u under node, v ∈ fine tile t,
//! ```
//!
//! up to ordinary floating-point rounding of the bound expressions (a few
//! ulps — consumers that need hard guarantees widen by a relative slack,
//! see the hierarchical far-field engine in `fading-channel`).
//!
//! The tree is the spatial substrate of that engine: near a listener it
//! descends to fine tiles (scanned exactly), far away it pairs the
//! coarsest nodes whose content bboxes are small relative to their
//! distance, so the engine's interaction lists hold O(nodes) pairs instead
//! of a quadratic tile-pair table.
//!
//! Like [`TileIndex`], the tree is static: it describes where points *are*.
//! Dynamic per-node masses (this round's transmitters) live with the
//! consumer.

use crate::{Bbox, TileIndex};

/// One aggregation level: a `cols × rows` grid of nodes, each the merge of
/// a 2×2 block of the level below (level 0 mirrors the fine tiles).
#[derive(Debug, Clone)]
struct TreeLevel {
    cols: usize,
    rows: usize,
    /// Points under each node (index = `row * cols + col`).
    counts: Vec<u32>,
    /// Content bbox over each node's points; meaningless when count is 0.
    content: Vec<Bbox>,
}

/// A multi-resolution tile hierarchy: a fine [`TileIndex`] plus a pyramid
/// of 2×2-merged aggregate levels up to a single root.
///
/// Nodes are addressed as `(level, index)` with `level ∈ 0..num_levels()`;
/// level 0 is the fine grid (same indices as [`TileTree::fine`]), the last
/// level is the 1×1 root. Every node keeps the content bbox of the points
/// beneath it, so its distance brackets hold for every member
/// ([`TileTree::distance_sq_bounds_to`]).
#[derive(Debug, Clone)]
pub struct TileTree {
    fine: TileIndex,
    levels: Vec<TreeLevel>,
}

impl TileTree {
    /// Builds a tree whose fine level is a `tiles_per_side × tiles_per_side`
    /// tiling (see [`TileIndex::build`] for the `None` conditions).
    #[must_use]
    pub fn build(points: &[crate::Point], tiles_per_side: usize) -> Option<Self> {
        TileIndex::build(points, tiles_per_side).map(Self::from_fine)
    }

    /// Builds a tree whose fine level targets `target_occupancy` points per
    /// tile, clamped to `max_tiles_per_side` (see
    /// [`TileIndex::with_target_occupancy`]).
    #[must_use]
    pub fn with_target_occupancy(
        points: &[crate::Point],
        target_occupancy: usize,
        max_tiles_per_side: usize,
    ) -> Option<Self> {
        TileIndex::with_target_occupancy(points, target_occupancy, max_tiles_per_side)
            .map(Self::from_fine)
    }

    /// Builds the aggregate pyramid over an existing fine index.
    #[must_use]
    pub fn from_fine(fine: TileIndex) -> Self {
        let base = TreeLevel {
            cols: fine.cols(),
            rows: fine.rows(),
            counts: (0..fine.num_tiles())
                .map(|t| fine.count(t) as u32)
                .collect(),
            content: (0..fine.num_tiles())
                .map(|t| {
                    fine.content_bbox(t)
                        .unwrap_or(Bbox::new(crate::Point::ORIGIN, crate::Point::ORIGIN))
                })
                .collect(),
        };
        let mut levels = vec![base];
        while let Some(prev) = levels.last().filter(|l| l.cols * l.rows > 1) {
            let cols = prev.cols.div_ceil(2);
            let rows = prev.rows.div_ceil(2);
            let mut counts = vec![0u32; cols * rows];
            let mut content =
                vec![Bbox::new(crate::Point::ORIGIN, crate::Point::ORIGIN); cols * rows];
            for r in 0..prev.rows {
                for c in 0..prev.cols {
                    let child = r * prev.cols + c;
                    if prev.counts[child] == 0 {
                        continue;
                    }
                    let parent = (r / 2) * cols + (c / 2);
                    let b = prev.content[child];
                    if counts[parent] == 0 {
                        content[parent] = b;
                    } else {
                        content[parent].expand(b.min());
                        content[parent].expand(b.max());
                    }
                    counts[parent] += prev.counts[child];
                }
            }
            levels.push(TreeLevel {
                cols,
                rows,
                counts,
                content,
            });
        }
        TileTree { fine, levels }
    }

    /// The fine tile index (level 0 of the tree).
    #[must_use]
    pub fn fine(&self) -> &TileIndex {
        &self.fine
    }

    /// Number of levels, root included (≥ 1; exactly 1 for a 1×1 fine grid).
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Nodes per row at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn level_cols(&self, level: usize) -> usize {
        self.levels[level].cols
    }

    /// Nodes per column at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn level_rows(&self, level: usize) -> usize {
        self.levels[level].rows
    }

    /// Total nodes at `level` (`cols × rows`, including empty ones).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn num_nodes(&self, level: usize) -> usize {
        self.levels[level].cols * self.levels[level].rows
    }

    /// The root's address: `(num_levels() - 1, 0)`, the one node covering
    /// every point.
    #[must_use]
    pub fn root(&self) -> (usize, usize) {
        (self.levels.len() - 1, 0)
    }

    /// The content bboxes of every node at `level`, row-major (index =
    /// `row * level_cols(level) + col`) — the slice form of
    /// [`TileTree::node_bbox`] for hot traversals. An empty node's entry
    /// is a placeholder, not a bbox of anything.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn level_content(&self, level: usize) -> &[Bbox] {
        &self.levels[level].content
    }

    /// Points under node `(level, idx)`.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn node_count(&self, level: usize, idx: usize) -> usize {
        self.levels[level].counts[idx] as usize
    }

    /// The content bbox of node `(level, idx)`, or `None` when no point
    /// lies under it.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `idx` is out of range.
    #[must_use]
    pub fn node_bbox(&self, level: usize, idx: usize) -> Option<Bbox> {
        (self.levels[level].counts[idx] > 0).then(|| self.levels[level].content[idx])
    }

    /// The children of node `(level, idx)` at `level - 1` (1, 2, or 4 of
    /// them at grid edges), in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or out of range, or `idx` is out of range.
    pub fn children(&self, level: usize, idx: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(level >= 1, "level 0 (fine tiles) has no children");
        let parent = &self.levels[level];
        let child = &self.levels[level - 1];
        let (c, r) = (idx % parent.cols, idx / parent.cols);
        assert!(r < parent.rows, "node {idx} out of range at level {level}");
        let c1 = (2 * c + 2).min(child.cols);
        let r1 = (2 * r + 2).min(child.rows);
        let cols = child.cols;
        (2 * r..r1).flat_map(move |rr| (2 * c..c1).map(move |cc| rr * cols + cc))
    }

    /// The fine-tile column and row ranges covered by node `(level, idx)`:
    /// node `(c, r)` at level `L` covers fine columns
    /// `[c·2^L, min((c+1)·2^L, fine_cols))` and likewise for rows.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `idx` is out of range.
    #[must_use]
    pub fn fine_tile_range(
        &self,
        level: usize,
        idx: usize,
    ) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let l = &self.levels[level];
        let (c, r) = (idx % l.cols, idx / l.cols);
        assert!(r < l.rows, "node {idx} out of range at level {level}");
        let scale = 1usize << level;
        let c0 = c * scale;
        let r0 = r * scale;
        (
            c0..(c0 + scale).min(self.fine.cols()),
            r0..(r0 + scale).min(self.fine.rows()),
        )
    }

    /// Conservative `(min, max)` **squared** distance between any member of
    /// fine tile `t` and any point under node `(level, idx)`, from their
    /// content bboxes. `None` when either side is empty.
    ///
    /// # Panics
    ///
    /// Panics if `t`, `level`, or `idx` is out of range.
    #[must_use]
    pub fn distance_sq_bounds_to(&self, t: usize, level: usize, idx: usize) -> Option<(f64, f64)> {
        let a = self.fine.content_bbox(t)?;
        let b = self.node_bbox(level, idx)?;
        Some(a.distance_sq_bounds(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn grid_points(n_side: usize, spacing: f64) -> Vec<Point> {
        (0..n_side * n_side)
            .map(|i| Point::new((i % n_side) as f64 * spacing, (i / n_side) as f64 * spacing))
            .collect()
    }

    /// Two dense clusters with a wide gap: exercises empty interior nodes.
    fn clustered_points() -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(Point::new((i % 5) as f64 * 0.3, (i / 5) as f64 * 0.3));
        }
        for i in 0..20 {
            pts.push(Point::new(
                40.0 + (i % 5) as f64 * 0.3,
                40.0 + (i / 5) as f64 * 0.3,
            ));
        }
        pts
    }

    #[test]
    fn build_rejects_degenerate_inputs() {
        assert!(TileTree::build(&[], 4).is_none());
        assert!(TileTree::build(&[Point::ORIGIN], 0).is_none());
        assert!(TileTree::with_target_occupancy(&[Point::ORIGIN], 0, 8).is_none());
    }

    #[test]
    fn pyramid_reaches_a_single_root() {
        let pts = grid_points(12, 1.0);
        let tree = TileTree::build(&pts, 12).unwrap();
        let (root_level, root) = tree.root();
        assert_eq!(root_level, tree.num_levels() - 1);
        assert_eq!(tree.num_nodes(root_level), 1);
        assert_eq!(tree.node_count(root_level, root), pts.len());
        // 12 → 6 → 3 → 2 → 1 tiles per side.
        assert_eq!(tree.num_levels(), 5);
        // A 1×1 fine grid is its own root.
        let tiny = TileTree::build(&pts, 1).unwrap();
        assert_eq!(tiny.num_levels(), 1);
        assert_eq!(tiny.root(), (0, 0));
    }

    #[test]
    fn every_level_conserves_the_point_count() {
        for pts in [grid_points(9, 0.7), clustered_points()] {
            let tree = TileTree::build(&pts, 8).unwrap();
            for l in 0..tree.num_levels() {
                let total: usize = (0..tree.num_nodes(l)).map(|i| tree.node_count(l, i)).sum();
                assert_eq!(total, pts.len(), "level {l} lost points");
            }
        }
    }

    #[test]
    fn children_counts_sum_to_parent() {
        let tree = TileTree::build(&clustered_points(), 8).unwrap();
        for l in 1..tree.num_levels() {
            for idx in 0..tree.num_nodes(l) {
                let sum: usize = tree
                    .children(l, idx)
                    .map(|c| tree.node_count(l - 1, c))
                    .sum();
                assert_eq!(sum, tree.node_count(l, idx), "node ({l}, {idx})");
            }
        }
    }

    #[test]
    fn node_bboxes_contain_every_covered_point() {
        let pts = clustered_points();
        let tree = TileTree::build(&pts, 8).unwrap();
        let fine = tree.fine();
        for l in 0..tree.num_levels() {
            for idx in 0..tree.num_nodes(l) {
                let (crange, rrange) = tree.fine_tile_range(l, idx);
                let covered: Vec<usize> = (0..pts.len())
                    .filter(|&i| {
                        let t = fine.tile_of(i);
                        let (tc, tr) = (t % fine.cols(), t / fine.cols());
                        crange.contains(&tc) && rrange.contains(&tr)
                    })
                    .collect();
                assert_eq!(covered.len(), tree.node_count(l, idx), "node ({l}, {idx})");
                if let Some(bbox) = tree.node_bbox(l, idx) {
                    for &i in &covered {
                        assert!(bbox.contains(pts[i]), "point {i} escapes node ({l}, {idx})");
                    }
                } else {
                    assert!(covered.is_empty());
                }
            }
        }
    }

    #[test]
    fn distance_bounds_bracket_all_member_pairs_at_every_level() {
        let pts = clustered_points();
        let tree = TileTree::build(&pts, 8).unwrap();
        let fine = tree.fine();
        for l in 0..tree.num_levels() {
            for idx in 0..tree.num_nodes(l) {
                let (crange, rrange) = tree.fine_tile_range(l, idx);
                for (v, pv) in pts.iter().enumerate() {
                    let t = fine.tile_of(v);
                    let Some((lo, hi)) = tree.distance_sq_bounds_to(t, l, idx) else {
                        continue;
                    };
                    for (u, pu) in pts.iter().enumerate() {
                        let s = fine.tile_of(u);
                        let (sc, sr) = (s % fine.cols(), s / fine.cols());
                        if !(crange.contains(&sc) && rrange.contains(&sr)) {
                            continue;
                        }
                        let d = pv.distance_sq(*pu);
                        assert!(
                            lo <= d && d <= hi,
                            "pair ({v}, {u}) d²={d} outside [{lo}, {hi}] of node ({l}, {idx})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn level_content_matches_node_bboxes() {
        let tree = TileTree::build(&clustered_points(), 8).unwrap();
        for l in 0..tree.num_levels() {
            let content = tree.level_content(l);
            assert_eq!(content.len(), tree.num_nodes(l));
            for (idx, bbox) in content.iter().enumerate() {
                if let Some(want) = tree.node_bbox(l, idx) {
                    assert_eq!(*bbox, want, "node ({l}, {idx})");
                }
            }
        }
    }

    #[test]
    fn fine_level_mirrors_the_tile_index() {
        let pts = grid_points(10, 1.3);
        let tree = TileTree::build(&pts, 5).unwrap();
        let fine = tree.fine();
        assert_eq!(tree.level_cols(0), fine.cols());
        assert_eq!(tree.level_rows(0), fine.rows());
        for t in 0..fine.num_tiles() {
            assert_eq!(tree.node_count(0, t), fine.count(t));
            assert_eq!(tree.node_bbox(0, t), fine.content_bbox(t));
        }
    }
}
