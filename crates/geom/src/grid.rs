//! A uniform-grid spatial index.

use crate::{Bbox, Point};

/// A uniform-grid spatial index over a fixed set of points.
///
/// The index counting-sorts points into square cells of a fixed size and
/// answers range, annulus, and nearest-neighbor queries by scanning only
/// nearby cells. For reasonably spread deployments queries are close to
/// `O(1)` amortized; the worst case degenerates gracefully to a full scan.
/// [`GridIndex::all_nearest`] answers every point's nearest-neighbour query
/// in one pass.
///
/// The index keeps its own copy of the coordinates in cell order, and its
/// queries report point *indices* into the slice it was built from.
///
/// # Example
///
/// ```
/// use fading_geom::{GridIndex, Point};
///
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(10.0, 10.0),
/// ];
/// let index = GridIndex::build(&pts);
/// assert_eq!(index.nearest(Point::new(0.2, 0.0), None), Some(0));
/// assert_eq!(index.nearest(Point::new(0.2, 0.0), Some(0)), Some(1));
///
/// let mut close = index.within(Point::new(0.0, 0.0), 2.0);
/// close.sort_unstable();
/// assert_eq!(close, vec![0, 1]);
///
/// let (ids, distances) = index.all_nearest();
/// assert_eq!(ids, vec![1, 0, 1]);
/// assert_eq!(distances[0], 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    bbox: Bbox,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Cell `c = row * cols + col` holds positions `starts[c]..starts[c + 1]`
    /// of `ids` and `xy`.
    starts: Vec<u32>,
    /// Point ids in cell order: cells row-major, ids ascending within a cell.
    ids: Vec<u32>,
    /// Coordinates in cell order: `xy[k]` is the position of point `ids[k]`.
    xy: Vec<Point>,
}

/// No point has this id (ids are below `u32::MAX`), so excluding it
/// excludes nothing.
const NO_POINT: u32 = u32::MAX;

impl GridIndex {
    /// Builds an index over `points` with an automatically chosen cell size
    /// (targeting an average of about one point per cell).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is non-finite.
    #[must_use]
    pub fn build(points: &[Point]) -> Self {
        let bbox = Bbox::containing(points.iter().copied())
            .unwrap_or_else(|| Bbox::new(Point::ORIGIN, Point::ORIGIN));
        let span = bbox.width().max(bbox.height()).max(1e-12);
        // Aim for ~1 point per cell: sqrt(n) cells per side.
        let side = (points.len() as f64).sqrt().ceil().max(1.0);
        let cell = span / side;
        Self::build_with_cell(points, cell)
    }

    /// Builds an index with an explicit cell size.
    ///
    /// Useful when the query radius is known in advance: choosing
    /// `cell ≈ radius` makes range queries scan at most 9 cells.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite, if any
    /// coordinate is non-finite, or if there are `u32::MAX` points or more.
    #[must_use]
    pub fn build_with_cell(points: &[Point], cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell size must be positive and finite"
        );
        assert!(
            points.len() < NO_POINT as usize,
            "too many points for u32 ids"
        );
        for (i, p) in points.iter().enumerate() {
            assert!(p.is_finite(), "point {i} has a non-finite coordinate");
        }
        let bbox = Bbox::containing(points.iter().copied())
            .unwrap_or_else(|| Bbox::new(Point::ORIGIN, Point::ORIGIN));
        let cols = ((bbox.width() / cell).floor() as usize + 1).max(1);
        let rows = ((bbox.height() / cell).floor() as usize + 1).max(1);
        let mut index = GridIndex {
            bbox,
            cell,
            cols,
            rows,
            starts: vec![0; cols * rows + 1],
            ids: vec![0; points.len()],
            xy: vec![Point::ORIGIN; points.len()],
        };
        // Counting sort by cell; visiting points in id order keeps each
        // cell's ids ascending.
        let cells: Vec<usize> = points
            .iter()
            .map(|&p| {
                let (c, r) = index.cell_of(p);
                r * cols + c
            })
            .collect();
        for &c in &cells {
            index.starts[c + 1] += 1;
        }
        for c in 0..cols * rows {
            index.starts[c + 1] += index.starts[c];
        }
        let mut next = index.starts[..cols * rows].to_vec();
        for (i, (&c, &p)) in cells.iter().zip(points).enumerate() {
            let k = next[c] as usize;
            next[c] += 1;
            index.ids[k] = i as u32;
            index.xy[k] = p;
        }
        index
    }

    /// Number of indexed points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xy.len()
    }

    /// Returns `true` if the index contains no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xy.is_empty()
    }

    /// The bounding box of the indexed points.
    #[must_use]
    pub fn bbox(&self) -> Bbox {
        self.bbox
    }

    fn cell_of(&self, p: Point) -> (usize, usize) {
        let c = ((p.x - self.bbox.min().x) / self.cell).floor() as isize;
        let r = ((p.y - self.bbox.min().y) / self.cell).floor() as isize;
        (
            c.clamp(0, self.cols as isize - 1) as usize,
            r.clamp(0, self.rows as isize - 1) as usize,
        )
    }

    /// Cell-order positions of the cells `c0..=c1` of `row`, which are
    /// contiguous because cells are stored row-major.
    fn span(&self, row: usize, c0: usize, c1: usize) -> std::ops::Range<usize> {
        let base = row * self.cols;
        self.starts[base + c0] as usize..self.starts[base + c1 + 1] as usize
    }

    /// Indices of all points within Euclidean distance `radius` of `center`
    /// (boundary inclusive). The query point itself is *not* excluded: if an
    /// indexed point coincides with `center` it is reported.
    #[must_use]
    pub fn within(&self, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |i| out.push(i));
        out
    }

    /// Calls `f(i)` for every indexed point `i` within `radius` of `center`,
    /// in cell order (cells row-major, ids ascending within a cell).
    ///
    /// This is the allocation-free workhorse behind [`GridIndex::within`].
    pub fn for_each_within<F: FnMut(usize)>(&self, center: Point, radius: f64, mut f: F) {
        self.scan_disk(center, radius, |k, _| f(self.ids[k] as usize));
    }

    /// Number of indexed points `q` with `r_in < distance(center, q) <= r_out`.
    ///
    /// This half-open convention matches the paper's exponential annuli
    /// `A^i_t(u) = B(u, 2^{t+1} 2^i) \ B(u, 2^t 2^i)`.
    #[must_use]
    pub fn count_in_annulus(&self, center: Point, r_in: f64, r_out: f64) -> usize {
        let mut count = 0;
        let r_in_sq = r_in * r_in;
        self.scan_disk(center, r_out, |_, d_sq| {
            if d_sq > r_in_sq {
                count += 1;
            }
        });
        count
    }

    /// Calls `f(k, squared distance)` for every cell-order position `k`
    /// within `radius` of `center`, scanning the cells of the disk's
    /// bounding box one row span at a time.
    fn scan_disk<F: FnMut(usize, f64)>(&self, center: Point, radius: f64, mut f: F) {
        if self.is_empty() || radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        let (c0, r0) = self.cell_of(Point::new(center.x - radius, center.y - radius));
        let (c1, r1) = self.cell_of(Point::new(center.x + radius, center.y + radius));
        for row in r0..=r1 {
            for k in self.span(row, c0, c1) {
                let d_sq = self.xy[k].distance_sq(center);
                if d_sq <= r_sq {
                    f(k, d_sq);
                }
            }
        }
    }

    /// Index of the point nearest to `query`, optionally excluding one index
    /// (typically the query point itself when it is part of the indexed set).
    ///
    /// Returns `None` if the index is empty or contains only the excluded
    /// point. Ties are broken towards the smaller index.
    #[must_use]
    pub fn nearest(&self, query: Point, exclude: Option<usize>) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let exclude = exclude.map_or(NO_POINT, |e| u32::try_from(e).unwrap_or(NO_POINT));
        let (qc, qr) = self.cell_of(query);
        let (_, j) = self.ring_search(query, qc, qr, exclude);
        (j != NO_POINT).then_some(j as usize)
    }

    /// Every point's nearest neighbour among the other indexed points, as
    /// `(ids, distances)` indexed by point id: `ids[i]` is
    /// `nearest(point i, Some(i))` and `distances[i]` its distance.
    ///
    /// One pass over the cells in row-major order answers the queries of a
    /// cell back to back, so the cells their searches share stay in cache.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are indexed.
    #[must_use]
    pub fn all_nearest(&self) -> (Vec<u32>, Vec<f64>) {
        assert!(self.len() >= 2, "all_nearest needs at least two points");
        let mut ids = vec![0; self.len()];
        let mut distances = vec![0.0; self.len()];
        for qr in 0..self.rows {
            for qc in 0..self.cols {
                for k in self.span(qr, qc, qc) {
                    let i = self.ids[k];
                    let (d_sq, j) = self.ring_search(self.xy[k], qc, qr, i);
                    ids[i as usize] = j;
                    distances[i as usize] = d_sq.sqrt();
                }
            }
        }
        (ids, distances)
    }

    /// The nearest point to `query` (in cell `(qc, qr)`) other than
    /// `exclude`, as `(squared distance, id)`, ties towards the smaller id;
    /// `(∞, NO_POINT)` if there is none.
    ///
    /// Scans Chebyshev rings of cells outward from the query's cell. Cells on
    /// ring `r` are at least `(r - 1) * cell` away, so the search stops at
    /// the first ring where that exceeds the best distance so far; rings 0
    /// and 1 (the 3×3 block) are therefore always scanned.
    fn ring_search(&self, query: Point, qc: usize, qr: usize, exclude: u32) -> (f64, u32) {
        let mut best = (f64::INFINITY, NO_POINT);
        let scan = |range: std::ops::Range<usize>, best: &mut (f64, u32)| {
            for k in range {
                let d_sq = self.xy[k].distance_sq(query);
                if d_sq <= best.0 {
                    let id = self.ids[k];
                    if id != exclude && (d_sq < best.0 || id < best.1) {
                        *best = (d_sq, id);
                    }
                }
            }
        };
        let (cols, rows) = (self.cols as isize, self.rows as isize);
        let (qc, qr) = (qc as isize, qr as isize);
        let cols_near = |ring: isize| {
            (
                (qc - ring).max(0) as usize,
                (qc + ring).min(cols - 1) as usize,
            )
        };
        let (c0, c1) = cols_near(1);
        for row in (qr - 1).max(0)..=(qr + 1).min(rows - 1) {
            scan(self.span(row as usize, c0, c1), &mut best);
        }
        for ring in 2..=cols.max(rows) {
            let reach = (ring as f64 - 1.0) * self.cell;
            if reach * reach > best.0 {
                break;
            }
            let mut any = false;
            let (c0, c1) = cols_near(ring);
            for row in [qr - ring, qr + ring] {
                if (0..rows).contains(&row) {
                    scan(self.span(row as usize, c0, c1), &mut best);
                    any = true;
                }
            }
            for col in [qc - ring, qc + ring] {
                if (0..cols).contains(&col) {
                    for row in (qr - ring + 1).max(0)..=(qr + ring - 1).min(rows - 1) {
                        scan(
                            self.span(row as usize, col as usize, col as usize),
                            &mut best,
                        );
                    }
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_nearest(points: &[Point], query: Point, exclude: Option<usize>) -> Option<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != exclude)
            .min_by(|(i, a), (j, b)| {
                a.distance_sq(query)
                    .partial_cmp(&b.distance_sq(query))
                    .unwrap()
                    .then(i.cmp(j))
            })
            .map(|(i, _)| i)
    }

    fn brute_within(points: &[Point], center: Point, radius: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_sq(center) <= radius * radius)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_index() {
        let idx = GridIndex::build(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.nearest(Point::ORIGIN, None), None);
        assert!(idx.within(Point::ORIGIN, 10.0).is_empty());
    }

    #[test]
    fn single_point() {
        let idx = GridIndex::build(&[Point::new(5.0, 5.0)]);
        assert_eq!(idx.nearest(Point::ORIGIN, None), Some(0));
        assert_eq!(idx.nearest(Point::ORIGIN, Some(0)), None);
    }

    #[test]
    fn within_boundary_inclusive() {
        let pts = [Point::ORIGIN, Point::new(2.0, 0.0)];
        let idx = GridIndex::build(&pts);
        let hits = idx.within(Point::ORIGIN, 2.0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn annulus_excludes_inner_boundary() {
        // r_in < d <= r_out
        let pts = [
            Point::ORIGIN,
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let idx = GridIndex::build(&pts);
        // annulus (1, 3]: contains points at distance 2 and 3 but not 0, 1.
        assert_eq!(idx.count_in_annulus(Point::ORIGIN, 1.0, 3.0), 2);
    }

    #[test]
    fn nearest_matches_brute_force_on_grid_cluster() {
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(Point::new(f64::from(i) * 1.3, f64::from(j) * 0.7));
            }
        }
        let idx = GridIndex::build(&pts);
        for i in 0..pts.len() {
            let got = idx.nearest(pts[i], Some(i));
            let want = brute_nearest(&pts, pts[i], Some(i));
            assert_eq!(
                got.map(|g| pts[g].distance(pts[i])),
                want.map(|w| pts[w].distance(pts[i])),
                "node {i}"
            );
        }
    }

    #[test]
    fn all_nearest_breaks_ties_towards_smaller_index() {
        // A unit lattice: interior nodes have four neighbours at distance 1.
        let pts: Vec<Point> = (0..5)
            .flat_map(|r| (0..5).map(move |c| Point::new(f64::from(c), f64::from(r))))
            .collect();
        let (ids, distances) = GridIndex::build(&pts).all_nearest();
        for i in 0..pts.len() {
            assert_eq!(Some(ids[i] as usize), brute_nearest(&pts, pts[i], Some(i)));
            assert_eq!(distances[i], 1.0);
        }
        // Node 12 sits at (2, 2); of its neighbours 7, 11, 13 and 17 the
        // smallest index wins.
        assert_eq!(ids[12], 7);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn all_nearest_needs_two_points() {
        let _ = GridIndex::build(&[Point::ORIGIN]).all_nearest();
    }

    #[test]
    fn within_matches_brute_force() {
        let mut pts = Vec::new();
        // A deterministic pseudo-random cloud.
        let mut state: u64 = 0x1234_5678;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((state >> 33) % 1000) as f64 / 10.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((state >> 33) % 1000) as f64 / 10.0;
            pts.push(Point::new(x, y));
        }
        let idx = GridIndex::build(&pts);
        for &radius in &[0.0, 1.0, 7.5, 40.0, 500.0] {
            for &center in &[Point::ORIGIN, Point::new(50.0, 50.0), Point::new(99.0, 1.0)] {
                let mut got = idx.within(center, radius);
                got.sort_unstable();
                let want = brute_within(&pts, center, radius);
                assert_eq!(got, want, "center {center} radius {radius}");
            }
        }
    }

    #[test]
    fn explicit_cell_size_agrees_with_auto() {
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new(f64::from(i % 7) * 3.0, f64::from(i / 7) * 2.0))
            .collect();
        let a = GridIndex::build(&pts);
        let b = GridIndex::build_with_cell(&pts, 0.5);
        for i in 0..pts.len() {
            assert_eq!(
                a.nearest(pts[i], Some(i)).map(|k| pts[k].distance(pts[i])),
                b.nearest(pts[i], Some(i)).map(|k| pts[k].distance(pts[i]))
            );
        }
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::build_with_cell(&[Point::ORIGIN], 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_point_panics() {
        let _ = GridIndex::build(&[Point::new(f64::NAN, 0.0)]);
    }

    #[test]
    fn identical_points_all_reported() {
        let pts = vec![Point::new(1.0, 1.0); 5];
        let idx = GridIndex::build(&pts);
        assert_eq!(idx.within(Point::new(1.0, 1.0), 0.0).len(), 5);
        // Nearest with exclusion still finds a coincident twin at distance 0.
        assert!(idx.nearest(pts[0], Some(0)).is_some());
    }

    #[test]
    fn collinear_degenerate_bbox() {
        // All points on a horizontal line: bbox has zero height.
        let pts: Vec<Point> = (0..20).map(|i| Point::new(f64::from(i), 3.0)).collect();
        let idx = GridIndex::build(&pts);
        for i in 0..pts.len() {
            let n = idx.nearest(pts[i], Some(i)).unwrap();
            assert!((pts[n].distance(pts[i]) - 1.0).abs() < 1e-12);
        }
    }
}
