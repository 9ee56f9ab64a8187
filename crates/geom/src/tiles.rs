//! Fixed square tiling of a point set, with per-tile *content* bounding
//! boxes and conservative tile-pair distance bounds.
//!
//! [`TileIndex`] is the spatial substrate of the far-field interference
//! engine in `fading-channel`: it partitions a deployment's bounding box
//! into a `cols × rows` grid of tiles, assigns every point to exactly one
//! tile, and — crucially — records each tile's **content bbox**, the tight
//! axis-aligned box around the points actually assigned to it.
//!
//! Distance bounds between tiles are computed from the content bboxes, not
//! the nominal grid rectangles. This makes the bounds *unconditionally
//! correct*: a point provably lies inside its tile's content bbox (it was
//! expanded over the members), whereas floating-point rounding in the grid
//! assignment could in principle park a boundary point an ulp outside its
//! nominal cell. Any subset of a tile's members therefore satisfies
//!
//! ```text
//! d_min(t, s)² ≤ d(u, v)² ≤ d_max(t, s)²   for all u ∈ s, v ∈ t,
//! ```
//!
//! up to ordinary floating-point rounding of the bound expressions
//! themselves (a few ulps — consumers that need hard guarantees widen by a
//! relative slack, see the far-field engine).
//!
//! The index is static: it describes where points *are*, not which are
//! active. Dynamic per-tile occupancy lives with the consumer.
//!
//! # Example
//!
//! ```
//! use fading_geom::{Point, TileIndex};
//!
//! let pts: Vec<Point> = (0..100)
//!     .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
//!     .collect();
//! let tiles = TileIndex::build(&pts, 5).unwrap();
//! assert_eq!(tiles.num_tiles(), 25);
//! let t = tiles.tile_of(0);
//! let s = tiles.tile_of(99);
//! let (lo, hi) = tiles.distance_sq_bounds(t, s).unwrap();
//! let d = pts[0].distance_sq(pts[99]);
//! assert!(lo <= d && d <= hi);
//! ```

use crate::{Bbox, Point};

/// A fixed `cols × rows` square tiling of a point set's bounding box.
///
/// Tiles are identified by `tile_id = row * cols + col`. Distance bounds
/// between tiles come from the content bboxes of their members, so they
/// hold for every member pair ([`TileIndex::distance_sq_bounds`]).
#[derive(Debug, Clone)]
pub struct TileIndex {
    cols: usize,
    rows: usize,
    /// Tile id of each point (index = point index).
    tile_of: Vec<u32>,
    /// Static member count per tile.
    counts: Vec<u32>,
    /// Tight bbox over each tile's members; meaningless when `counts` is 0.
    content: Vec<Bbox>,
}

impl TileIndex {
    /// Builds a `tiles_per_side × tiles_per_side` tiling over the bounding
    /// box of `points`. Returns `None` when `points` is empty,
    /// `tiles_per_side` is zero, or the point set would not fit `u32` ids.
    #[must_use]
    pub fn build(points: &[Point], tiles_per_side: usize) -> Option<Self> {
        if points.is_empty() || tiles_per_side == 0 || points.len() > u32::MAX as usize {
            return None;
        }
        let bbox = Bbox::containing(points.iter().copied())?;
        let cols = tiles_per_side;
        let rows = tiles_per_side;
        let cell_w = bbox.width() / cols as f64;
        let cell_h = bbox.height() / rows as f64;
        let axis = |coord: f64, min: f64, cell: f64, cells: usize| -> usize {
            if cells <= 1 || cell <= 0.0 {
                return 0;
            }
            // The clamp also swallows the NaN/∞ a degenerate division could
            // produce for points on the max boundary.
            let i = ((coord - min) / cell).floor();
            if i.is_finite() && i > 0.0 {
                (i as usize).min(cells - 1)
            } else {
                0
            }
        };

        let num_tiles = cols * rows;
        let mut tile_of = Vec::with_capacity(points.len());
        let mut counts = vec![0u32; num_tiles];
        let mut content = vec![Bbox::new(Point::ORIGIN, Point::ORIGIN); num_tiles];
        for &p in points {
            let c = axis(p.x, bbox.min().x, cell_w, cols);
            let r = axis(p.y, bbox.min().y, cell_h, rows);
            let t = r * cols + c;
            tile_of.push(t as u32);
            if counts[t] == 0 {
                content[t] = Bbox::new(p, p);
            } else {
                content[t].expand(p);
            }
            counts[t] += 1;
        }
        Some(TileIndex {
            cols,
            rows,
            tile_of,
            counts,
            content,
        })
    }

    /// Builds a tiling sized so that the *average* occupied tile holds
    /// about `target_occupancy` points, clamping the side length to
    /// `[1, max_tiles_per_side]`. Returns `None` under the same conditions
    /// as [`TileIndex::build`].
    #[must_use]
    pub fn with_target_occupancy(
        points: &[Point],
        target_occupancy: usize,
        max_tiles_per_side: usize,
    ) -> Option<Self> {
        if target_occupancy == 0 || max_tiles_per_side == 0 {
            return None;
        }
        let side = (points.len() as f64 / target_occupancy as f64)
            .sqrt()
            .round() as usize;
        Self::build(points, side.clamp(1, max_tiles_per_side))
    }

    /// Number of points indexed.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.tile_of.len()
    }

    /// Total number of tiles (`cols × rows`, including empty ones).
    #[must_use]
    pub fn num_tiles(&self) -> usize {
        self.cols * self.rows
    }

    /// Tiles per row.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tiles per column.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The tile containing point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn tile_of(&self, i: usize) -> usize {
        self.tile_of[i] as usize
    }

    /// Number of points assigned to tile `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[inline]
    #[must_use]
    pub fn count(&self, t: usize) -> usize {
        self.counts[t] as usize
    }

    /// The tight bounding box of tile `t`'s members, or `None` when the
    /// tile is empty.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn content_bbox(&self, t: usize) -> Option<Bbox> {
        (self.counts[t] > 0).then(|| self.content[t])
    }

    /// Chebyshev (grid) distance between tiles `t` and `s`: the number of
    /// tile rings separating them (0 = same tile, 1 = touching neighbors).
    #[inline]
    #[must_use]
    pub fn chebyshev(&self, t: usize, s: usize) -> usize {
        let (tc, tr) = (t % self.cols, t / self.cols);
        let (sc, sr) = (s % self.cols, s / self.cols);
        tc.abs_diff(sc).max(tr.abs_diff(sr))
    }

    /// Conservative `(min, max)` **squared** distance between any member of
    /// tile `t` and any member of tile `s`, from their content bboxes.
    /// `None` when either tile is empty. `t == s` yields `(0, diag²)`.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `s` is out of range.
    #[must_use]
    pub fn distance_sq_bounds(&self, t: usize, s: usize) -> Option<(f64, f64)> {
        if self.counts[t] == 0 || self.counts[s] == 0 {
            return None;
        }
        Some(self.content[t].distance_sq_bounds(&self.content[s]))
    }

    /// Iterates the tile ids within Chebyshev distance `ring` of tile `t`
    /// (including `t` itself), in row-major order.
    pub fn neighborhood(&self, t: usize, ring: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighborhood_rows(t, ring).flatten()
    }

    /// [`neighborhood`](Self::neighborhood) one row at a time: each row's
    /// tiles are consecutive ids, so each item is a range of them.
    pub fn neighborhood_rows(
        &self,
        t: usize,
        ring: usize,
    ) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let (tc, tr) = (t % self.cols, t / self.cols);
        let c0 = tc.saturating_sub(ring);
        let c1 = (tc + ring).min(self.cols - 1);
        let r0 = tr.saturating_sub(ring);
        let r1 = (tr + ring).min(self.rows - 1);
        (r0..=r1).map(move |r| r * self.cols + c0..r * self.cols + c1 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n_side: usize, spacing: f64) -> Vec<Point> {
        (0..n_side * n_side)
            .map(|i| Point::new((i % n_side) as f64 * spacing, (i / n_side) as f64 * spacing))
            .collect()
    }

    #[test]
    fn build_rejects_degenerate_inputs() {
        assert!(TileIndex::build(&[], 4).is_none());
        assert!(TileIndex::build(&[Point::ORIGIN], 0).is_none());
        assert!(TileIndex::with_target_occupancy(&[Point::ORIGIN], 0, 8).is_none());
        assert!(TileIndex::with_target_occupancy(&[Point::ORIGIN], 8, 0).is_none());
    }

    #[test]
    fn every_point_lands_in_exactly_one_tile_with_consistent_counts() {
        let pts = grid_points(12, 1.0);
        let tiles = TileIndex::build(&pts, 4).unwrap();
        assert_eq!(tiles.num_points(), pts.len());
        let mut seen = vec![0usize; tiles.num_tiles()];
        for i in 0..pts.len() {
            seen[tiles.tile_of(i)] += 1;
        }
        for (t, &s) in seen.iter().enumerate() {
            assert_eq!(s, tiles.count(t), "tile {t}");
        }
        assert_eq!(seen.iter().sum::<usize>(), pts.len());
    }

    #[test]
    fn content_bboxes_contain_their_members() {
        let pts = grid_points(9, 0.7);
        let tiles = TileIndex::build(&pts, 3).unwrap();
        for (i, &p) in pts.iter().enumerate() {
            let t = tiles.tile_of(i);
            let bbox = tiles.content_bbox(t).expect("member tile is nonempty");
            assert!(bbox.contains(p), "point {i} outside its tile bbox");
        }
        for t in 0..tiles.num_tiles() {
            assert_eq!(tiles.content_bbox(t).is_some(), tiles.count(t) > 0);
        }
    }

    #[test]
    fn distance_bounds_bracket_all_member_pairs() {
        let pts = grid_points(10, 1.3);
        let tiles = TileIndex::build(&pts, 5).unwrap();
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                let (t, s) = (tiles.tile_of(i), tiles.tile_of(j));
                let (lo, hi) = tiles.distance_sq_bounds(t, s).unwrap();
                let d = pts[i].distance_sq(pts[j]);
                assert!(
                    lo <= d && d <= hi,
                    "pair ({i},{j}) d²={d} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn empty_tile_has_no_bounds() {
        // Two far clusters leave middle tiles empty.
        let mut pts = vec![Point::new(0.0, 0.0), Point::new(0.1, 0.1)];
        pts.push(Point::new(30.0, 30.0));
        let tiles = TileIndex::build(&pts, 6).unwrap();
        let empty = (0..tiles.num_tiles())
            .find(|&t| tiles.count(t) == 0)
            .expect("some tile must be empty");
        let occupied = tiles.tile_of(0);
        assert!(tiles.distance_sq_bounds(empty, occupied).is_none());
        assert!(tiles.distance_sq_bounds(occupied, empty).is_none());
    }

    #[test]
    fn chebyshev_matches_grid_offsets() {
        let pts = grid_points(8, 1.0);
        let tiles = TileIndex::build(&pts, 4).unwrap();
        assert_eq!(tiles.chebyshev(0, 0), 0);
        assert_eq!(tiles.chebyshev(0, 1), 1);
        assert_eq!(tiles.chebyshev(0, 5), 1); // diagonal neighbor
        assert_eq!(tiles.chebyshev(0, 15), 3); // opposite corner of 4×4
    }

    #[test]
    fn neighborhood_is_the_chebyshev_ball() {
        let pts = grid_points(10, 1.0);
        let tiles = TileIndex::build(&pts, 5).unwrap();
        for t in 0..tiles.num_tiles() {
            let near: Vec<usize> = tiles.neighborhood(t, 1).collect();
            for s in 0..tiles.num_tiles() {
                assert_eq!(near.contains(&s), tiles.chebyshev(t, s) <= 1, "t={t} s={s}");
            }
        }
        // Interior tile: full 3×3 ball.
        assert_eq!(tiles.neighborhood(12, 1).count(), 9);
        // Corner tile: clipped to 2×2.
        assert_eq!(tiles.neighborhood(0, 1).count(), 4);
        // Its rows: one range of consecutive ids each, within one row.
        let rows: Vec<_> = tiles.neighborhood_rows(12, 2).collect();
        assert_eq!(rows, vec![0..5, 5..10, 10..15, 15..20, 20..25]);
        let rows: Vec<_> = tiles.neighborhood_rows(9, 1).collect();
        assert_eq!(rows, vec![3..5, 8..10, 13..15]);
    }

    #[test]
    fn coincident_points_collapse_to_one_tile() {
        let pts = vec![Point::new(2.0, 2.0); 5];
        let tiles = TileIndex::build(&pts, 4).unwrap();
        let t = tiles.tile_of(0);
        for i in 1..5 {
            assert_eq!(tiles.tile_of(i), t);
        }
        assert_eq!(tiles.count(t), 5);
        let (lo, hi) = tiles.distance_sq_bounds(t, t).unwrap();
        assert_eq!((lo, hi), (0.0, 0.0));
    }

    #[test]
    fn target_occupancy_sizes_the_grid() {
        let pts = grid_points(32, 1.0); // 1024 points
        let tiles = TileIndex::with_target_occupancy(&pts, 16, 36).unwrap();
        // sqrt(1024/16) = 8 tiles per side.
        assert_eq!(tiles.cols(), 8);
        assert_eq!(tiles.rows(), 8);
        // The clamp binds for tiny targets.
        let clamped = TileIndex::with_target_occupancy(&pts, 1, 4).unwrap();
        assert_eq!(clamped.cols(), 4);
    }

    #[test]
    fn max_boundary_points_stay_in_range() {
        // Points exactly on the bbox max edge must clamp into the last tile.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
        ];
        let tiles = TileIndex::build(&pts, 7).unwrap();
        for i in 0..pts.len() {
            assert!(tiles.tile_of(i) < tiles.num_tiles());
        }
        assert_eq!(tiles.tile_of(1), tiles.num_tiles() - 1);
    }
}
