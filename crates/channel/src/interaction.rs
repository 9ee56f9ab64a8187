//! Dual-tree interaction lists over a [`TileTree`]: the far-field pairs
//! of the tile-tree engine, built once per engine from geometry alone.
//!
//! Every tree node with points is a *target*. Its list holds the *source*
//! nodes whose transmitters it brackets as one aggregate: a listener in
//! fine tile `t` gets its far field from the lists of `t` and of every
//! ancestor of `t`. This is the well-separated pair idea of the fast
//! multipole method (Greengard and Rokhlin, 1987) and of dual-tree
//! algorithms (Gray and Moore, 2001), applied to certified brackets
//! instead of expansions.
//!
//! # The walk
//!
//! A depth-first walk over target nodes, starting at the root with the
//! root as its only candidate source. At each target `T` every candidate
//! `S` is, in order of the rules:
//!
//! * **accepted** into `T`'s list when `S`'s fine span misses the union of
//!   the [`HIER_NEAR_RING`] rings of every fine tile under `T`, and either
//!   both are fine tiles or their content boxes meet
//!   [`HIER_ACCEPT_RATIO_SQ`] (`d_max² ≤ ratio · d_min²`);
//! * **dropped** when both are fine tiles within the ring (the exact near
//!   scan owns them);
//! * **split** into its non-empty children, each a new candidate of `T`,
//!   while `S`'s level is at least `T`'s;
//! * otherwise **handed down** to every non-empty child of `T`.
//!
//! Splitting replaces a source by a partition of its points, and handing
//! down gives every child of `T` the same candidates, so for every fine
//! tile `t` the sources accepted at `t` and its ancestors, plus those
//! dropped at `t`, partition the non-empty fine tiles; the dropped ones
//! are exactly the non-empty tiles of `t`'s ring. The accept rule keeps
//! every pair's content-box bracket valid for every fine tile under `T`,
//! since each of their members lies in `T`'s content box. The unit tests
//! below check both facts.
//!
//! The lists are stored in CSR form: `u32` flat source ids, one target's
//! run after another, plus a `[start, end)` span per node. Flat ids number
//! the nodes level by level from the fine tiles up, so a fine tile's flat
//! id is its tile id.

use std::rc::Rc;

use fading_geom::{Bbox, TileTree};

use crate::hierarchical::{HIER_ACCEPT_RATIO_SQ, HIER_NEAR_RING};
use crate::kernels::AlphaKernel;

/// A far-field aggregate `(lo, hi, cap)`: the interference bracket and
/// the largest single gain any of its transmitters can have.
pub(crate) type Bracket = (f64, f64, f64);

/// No parent: the root's entry in [`InteractionLists::parent`].
const NO_PARENT: u32 = u32::MAX;

/// The interaction lists of one [`TileTree`], with the flat node layout
/// the per-round sums read (module docs).
#[derive(Debug)]
pub(crate) struct InteractionLists {
    /// Parent of every node by flat id ([`NO_PARENT`] for the root).
    parent: Vec<u32>,
    /// Content bbox of every node by flat id (a placeholder for an empty
    /// node, which never enters a pair).
    boxes: Vec<Bbox>,
    /// Accepted source ids, one target's run after another.
    sources: Vec<u32>,
    /// Per node: the `[start, end)` of its run in `sources`.
    spans: Vec<[u32; 2]>,
}

/// What the walk does with one candidate source of a target.
enum Verdict {
    Accept,
    Drop,
    Split,
    HandDown,
}

/// The walk's view of the tree, by flat id: what the rules read.
struct Walk<'a> {
    boxes: &'a [Bbox],
    level: Vec<u8>,
    /// Fine columns `[span[0], span[1])` and rows `[span[2], span[3])`.
    span: Vec<[u32; 4]>,
    /// Non-empty children in row-major order:
    /// `kids[kid_start[v]..kid_start[v + 1]]`.
    kid_start: Vec<u32>,
    kids: Vec<u32>,
}

impl Walk<'_> {
    fn kids(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.kids[self.kid_start[v] as usize..self.kid_start[v + 1] as usize]
    }

    /// The rule of the module docs for candidate `source` of `target`.
    fn verdict(&self, target: u32, source: u32) -> Verdict {
        let (t, s) = (target as usize, source as usize);
        let [tc0, tc1, tr0, tr1] = self.span[t];
        let [sc0, sc1, sr0, sr1] = self.span[s];
        let ring = HIER_NEAR_RING as u32;
        let near = sc0 < tc1 + ring
            && tc0.saturating_sub(ring) < sc1
            && sr0 < tr1 + ring
            && tr0.saturating_sub(ring) < sr1;
        let fine = self.level[t] == 0 && self.level[s] == 0;
        let tight = || {
            let (d_min_sq, d_max_sq) = self.boxes[t].distance_sq_bounds(&self.boxes[s]);
            d_max_sq <= HIER_ACCEPT_RATIO_SQ * d_min_sq
        };
        if !near && (fine || tight()) {
            Verdict::Accept
        } else if fine {
            Verdict::Drop
        } else if self.level[s] >= self.level[t] {
            Verdict::Split
        } else {
            Verdict::HandDown
        }
    }
}

impl InteractionLists {
    /// Runs the walk of the module docs over `tree`.
    pub(crate) fn build(tree: &TileTree) -> Self {
        let num_levels = tree.num_levels();
        let mut level_start = vec![0u32];
        for l in 0..num_levels {
            level_start.push(level_start[l] + tree.num_nodes(l) as u32);
        }
        let num_nodes = level_start[num_levels] as usize;
        let mut parent = vec![NO_PARENT; num_nodes];
        let mut boxes = Vec::with_capacity(num_nodes);
        let mut level = Vec::with_capacity(num_nodes);
        let mut span = Vec::with_capacity(num_nodes);
        let mut kid_start = vec![0u32];
        let mut kids = Vec::new();
        for l in 0..num_levels {
            boxes.extend_from_slice(tree.level_content(l));
            for idx in 0..tree.num_nodes(l) {
                let (cols, rows) = tree.fine_tile_range(l, idx);
                level.push(l as u8);
                span.push([cols.start, cols.end, rows.start, rows.end].map(|x| x as u32));
                if l > 0 {
                    for child in tree.children(l, idx) {
                        parent[level_start[l - 1] as usize + child] = level_start[l] + idx as u32;
                        if tree.node_count(l - 1, child) > 0 {
                            kids.push(level_start[l - 1] + child as u32);
                        }
                    }
                }
                kid_start.push(kids.len() as u32);
            }
        }
        let walk = Walk {
            boxes: &boxes,
            level,
            span,
            kid_start,
            kids,
        };

        let mut sources = Vec::new();
        let mut spans = vec![[0, 0]; num_nodes];
        let root = level_start[num_levels - 1];
        let mut targets: Vec<(u32, Rc<[u32]>)> = vec![(root, Rc::from([root]))];
        let mut pending = Vec::new();
        while let Some((target, candidates)) = targets.pop() {
            let start = sources.len() as u32;
            let mut handed = Vec::new();
            // Stacks pop last first, so everything goes on reversed.
            pending.extend(candidates.iter().rev());
            while let Some(source) = pending.pop() {
                match walk.verdict(target, source) {
                    Verdict::Accept => sources.push(source),
                    Verdict::Drop => {}
                    Verdict::Split => pending.extend(walk.kids(source).iter().rev()),
                    Verdict::HandDown => handed.push(source),
                }
            }
            spans[target as usize] = [start, sources.len() as u32];
            let handed: Rc<[u32]> = handed.into();
            for &child in walk.kids(target).iter().rev() {
                targets.push((child, Rc::clone(&handed)));
            }
        }
        InteractionLists {
            parent,
            boxes,
            sources,
            spans,
        }
    }

    /// Total nodes, empty ones included.
    pub(crate) fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Stored pairs, over every target.
    #[cfg(test)]
    fn num_pairs(&self) -> usize {
        self.sources.len()
    }

    /// The parent of node `node`, or `None` for the root.
    pub(crate) fn parent(&self, node: usize) -> Option<usize> {
        let p = self.parent[node];
        (p != NO_PARENT).then_some(p as usize)
    }

    /// The strict ancestors of node `node`, fine to root.
    pub(crate) fn ancestors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.parent(node), |&a| self.parent(a))
    }

    /// The sources accepted against target `node`.
    pub(crate) fn sources(&self, node: usize) -> &[u32] {
        let [start, end] = self.spans[node];
        &self.sources[start as usize..end as usize]
    }

    /// The certified `(d_min², d_max²)` between the content boxes of nodes
    /// `target` and `source`.
    fn pair_bounds(&self, target: usize, source: usize) -> (f64, f64) {
        self.boxes[target].distance_sq_bounds(&self.boxes[source])
    }

    /// Heap bytes of the lists and the flat layout.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.parent.len() * size_of::<u32>()
            + self.boxes.len() * size_of::<Bbox>()
            + self.sources.len() * size_of::<u32>()
            + self.spans.len() * size_of::<[u32; 2]>()
    }

    /// Target `node`'s list summed through kernel `k` over the per-node
    /// transmitter counts `mass` (by flat id), in list order: each source
    /// with transmitters adds `mass × [P/d_max^α, P/d_min^α]`, each gain
    /// widened by `k`'s [`GAIN_REL_ERR`](AlphaKernel::GAIN_REL_ERR) (a
    /// multiplication by 1.0 for the canonical classes), and raises the
    /// cap to its upper gain. d_min² = 0 (touching boxes) makes the upper
    /// gain infinite; the ladder's rung 1 then falls back, which is
    /// conservative, never wrong.
    pub(crate) fn sum<K: AlphaKernel>(
        &self,
        k: K,
        node: usize,
        mass: &[u32],
        power: f64,
    ) -> Bracket {
        let (widen_lo, widen_hi) = (1.0 - K::GAIN_REL_ERR, 1.0 + K::GAIN_REL_ERR);
        let (mut lo, mut hi, mut cap) = (0.0f64, 0.0f64, 0.0f64);
        for &s in self.sources(node) {
            let m = mass[s as usize];
            if m == 0 {
                continue;
            }
            let (d_min_sq, d_max_sq) = self.pair_bounds(node, s as usize);
            let m = f64::from(m);
            lo += m * ((power / k.pow_alpha(d_max_sq)) * widen_lo);
            let g_hi = (power / k.pow_alpha(d_min_sq)) * widen_hi;
            hi += m * g_hi;
            cap = cap.max(g_hi);
        }
        (lo, hi, cap)
    }
}

/// Fine tile `own`'s bracket: its own list's sum plus its ancestors'
/// `partials`, added fine to root — the one order both the round and
/// [`far_aggregate`](crate::HierarchicalFarFieldEngine::far_aggregate)
/// use.
pub(crate) fn fold_up(own: Bracket, partials: impl Iterator<Item = Bracket>) -> Bracket {
    partials.fold(own, |(lo, hi, cap), (p_lo, p_hi, p_cap)| {
        (lo + p_lo, hi + p_hi, cap.max(p_cap))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_geom::Point;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn uniform(n: usize, width: f64, height: f64, seed: u64) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>() * width, rng.gen::<f64>() * height))
            .collect()
    }

    /// Sixty specks of fifteen points, each far smaller than a fine tile,
    /// in a wide square: most fine tiles are empty, and content boxes are
    /// so small that even neighboring nodes look well separated, so only
    /// the ring rule keeps near specks out of the lists.
    fn clustered(seed: u64) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut points = Vec::new();
        for _ in 0..60 {
            let (cx, cy) = (rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0);
            for _ in 0..15 {
                points.push(Point::new(
                    cx + rng.gen::<f64>() * 0.3,
                    cy + rng.gen::<f64>() * 0.3,
                ));
            }
        }
        points
    }

    /// The partition oracle: for every non-empty fine tile `t`, the pairs
    /// of `t` and its ancestors cover each non-empty tile beyond the near
    /// ring exactly once and no other tile; and every stored pair's box
    /// bracket contains each member-to-member squared distance (at most
    /// `sample` members per side, evenly strided). Returns the lists.
    fn check_lists(points: &[Point], tree: &TileTree, sample: usize) -> InteractionLists {
        let lists = InteractionLists::build(tree);
        let fine = tree.fine();
        let num_fine = fine.num_tiles();
        // The non-empty fine tiles and the points under every node.
        let mut tiles_under = vec![Vec::new(); lists.num_nodes()];
        for t in (0..num_fine).filter(|&t| fine.count(t) > 0) {
            for node in std::iter::once(t).chain(lists.ancestors(t)) {
                tiles_under[node].push(t);
            }
        }
        let mut members = vec![Vec::new(); lists.num_nodes()];
        for i in 0..points.len() {
            let t = fine.tile_of(i);
            for node in std::iter::once(t).chain(lists.ancestors(t)) {
                members[node].push(i);
            }
        }
        let mut node = 0;
        for l in 0..tree.num_levels() {
            for idx in 0..tree.num_nodes(l) {
                assert_eq!(
                    members[node].len(),
                    tree.node_count(l, idx),
                    "node ({l}, {idx})"
                );
                node += 1;
            }
        }

        for t in (0..num_fine).filter(|&t| fine.count(t) > 0) {
            let mut covered = vec![0u32; num_fine];
            for node in std::iter::once(t).chain(lists.ancestors(t)) {
                for &s in lists.sources(node) {
                    assert!(!tiles_under[s as usize].is_empty(), "empty source {s}");
                    for &f in &tiles_under[s as usize] {
                        covered[f] += 1;
                    }
                }
            }
            for (f, &times) in covered.iter().enumerate() {
                let far = fine.count(f) > 0 && fine.chebyshev(t, f) > HIER_NEAR_RING;
                assert_eq!(
                    times,
                    u32::from(far),
                    "fine tile {f} covered {times} times for listener tile {t}"
                );
            }
        }

        let strided = |ids: &[usize]| -> Vec<usize> {
            let step = ids.len().div_ceil(sample).max(1);
            ids.iter().copied().step_by(step).collect()
        };
        for target in 0..lists.num_nodes() {
            let us = strided(&members[target]);
            assert!(
                !us.is_empty() || lists.sources(target).is_empty(),
                "empty target {target} has pairs"
            );
            for &s in lists.sources(target) {
                let (d_min_sq, d_max_sq) = lists.pair_bounds(target, s as usize);
                for &v in &strided(&members[s as usize]) {
                    for &u in &us {
                        let d_sq = points[u].distance_sq(points[v]);
                        assert!(
                            d_min_sq <= d_sq && d_sq <= d_max_sq,
                            "pair ({target}, {s}): members ({u}, {v}) at d² = {d_sq} escape \
                             [{d_min_sq}, {d_max_sq}]"
                        );
                    }
                }
            }
        }
        lists
    }

    #[test]
    fn interaction_lists_partition_odd_tilings() {
        let points = uniform(1200, 30.0, 30.0, 1);
        for tiles in [5, 7, 9, 16] {
            let tree = TileTree::build(&points, tiles).unwrap();
            let lists = check_lists(&points, &tree, usize::MAX);
            assert!(lists.num_pairs() > 0, "{tiles} tiles per side");
        }
    }

    #[test]
    fn interaction_lists_partition_clustered_with_empty_tiles() {
        let points = clustered(2);
        for tiles in [16, 25] {
            let tree = TileTree::build(&points, tiles).unwrap();
            let empty = (0..tree.fine().num_tiles())
                .filter(|&t| tree.fine().count(t) == 0)
                .count();
            assert!(
                empty > tree.fine().num_tiles() / 2,
                "{tiles}: {empty} empty"
            );
            check_lists(&points, &tree, usize::MAX);
        }
    }

    #[test]
    fn interaction_lists_partition_non_square_deployment() {
        // A 6:1 corridor: rectangular fine tiles, strips of empty rows.
        let points = uniform(1000, 120.0, 20.0, 3);
        for tiles in [9, 16] {
            let tree = TileTree::build(&points, tiles).unwrap();
            check_lists(&points, &tree, usize::MAX);
        }
    }

    #[test]
    fn interaction_lists_partition_default_tiling() {
        let n = 1 << 15;
        let side = (n as f64 / 0.25).sqrt();
        let points = uniform(n, side, side, 4);
        let tree = TileTree::with_target_occupancy(
            &points,
            crate::HIER_TARGET_TILE_OCCUPANCY,
            crate::HIER_MAX_TILES_PER_SIDE,
        )
        .unwrap();
        let lists = check_lists(&points, &tree, 6);
        // Geometry alone fixes the lists; uniform density keeps them O(n).
        let per_node = lists.heap_bytes() as f64 / n as f64;
        assert!(per_node < 32.0, "{per_node} bytes per deployment node");
    }

    #[test]
    fn a_one_tile_tree_has_no_pairs() {
        let points = uniform(50, 3.0, 3.0, 5);
        let tree = TileTree::build(&points, 1).unwrap();
        let lists = check_lists(&points, &tree, usize::MAX);
        assert_eq!(lists.num_pairs(), 0);
        assert_eq!(lists.ancestors(0).count(), 0);
    }
}
