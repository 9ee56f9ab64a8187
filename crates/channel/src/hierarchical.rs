//! The tile-tree far-field engine: a Barnes–Hut-style resolve with a
//! **decision-exactness** contract — its receptions are bit-identical to
//! the exact scan's on every input.
//!
//! # The idea
//!
//! The paper's Lemmas 3–4 bound a listener's far interference annulus by
//! annulus, each annulus by its population times the extremal gain over
//! it. The engine turns that argument into a certificate. A [`TileTree`]
//! partitions the deployment into small fine tiles and aggregates them
//! into a pyramid of content bboxes; per round, every listener scans its
//! **near field** (the fine tiles within [`HIER_NEAR_RING`] of its own)
//! exactly and brackets the rest, `I_lo ≤ I_far ≤ I_hi`, from tree nodes
//! chosen by an opening criterion. The decision ladder (`farfield.rs`)
//! then settles the reception from the near scan and the bracket, or
//! sends the listener to the exact scan when the bracket cannot.
//!
//! # The traversal
//!
//! Per round, transmitters are bucketed into fine tiles and their counts
//! propagated up the tree (only nodes actually touched are visited). For
//! each distinct listener tile the engine walks the tree from the root:
//!
//! * nodes with no transmitters beneath them are skipped;
//! * nodes whose fine-tile span intersects the listener's near ring are
//!   descended (their mass may include near transmitters, which the exact
//!   near scan owns);
//! * far nodes are **accepted** when their certified distance bracket is
//!   tight — `d_max² ≤ [`HIER_ACCEPT_RATIO_SQ`] · d_min²` — contributing
//!   `mass × [P/d_max^α, P/d_min^α]` to the interference bracket (and the
//!   upper gain to the far cap); loose nodes are descended, bottoming out
//!   at fine tiles which are always accepted.
//!
//! The ring is 2 rather than 1 because fine tiles at Chebyshev distance 2
//! are accepted with a `d_max/d_min` ratio of ~3–4, which loosens the
//! bracket and the far cap enough to cause most straddle and far-rival
//! fallbacks; scanning them exactly costs less than the fallbacks it
//! saves.
//!
//! Every transmitter therefore lands in exactly one accepted node or in
//! the near scan, and every accepted bracket is certified by the tree's
//! content bboxes, so the 5-rung decision ladder's exactness argument
//! holds. `tests/hierarchical_equivalence.rs` and
//! `tests/hierarchical_bounds.rs` enforce it end to end.
//!
//! # Generic α
//!
//! For α ∈ {2, 3, 4, 6} every gain the engine computes is the canonical
//! expression. For any other α (up to the bounded kernel's range) the
//! traversal's node gains, the near scans and the first pass of every
//! exact fallback run through the crate's bounded generic-α kernel, whose
//! gains lie within `2δ` (δ = 2⁻⁴⁰) of the canonical ones: node gains are
//! widened by that error, the ladder widens the near best signal by it,
//! and a fallback whose bounded bracket cannot settle the listener is
//! rescanned canonically. DESIGN.md §10.2 has the argument.
//!
//! # The tile-major round
//!
//! A round is one parallel pass over the round's listener tiles, run on a
//! [`ChunkExecutor`] through [`map_ordered`] in fixed [`HIER_TILE_CHUNK`]
//! tile chunks that never depend on the thread count:
//!
//! 1. **Serial prepare.** Bucket the transmitters and build the mass
//!    pyramid; bucket the listeners by fine tile (tiles in first-seen
//!    order, slice order within a tile).
//! 2. **Per tile.** Traverse the tree for the tile's far bracket, gather
//!    the tile's near transmitters once into chunk-local SoA scratch in
//!    slice order, and scan the tile's listeners against it
//!    [`LISTENER_BLOCK`] at a time through the fused block scan (the tail
//!    through a gain batch and [`fold_scan`]). A slice-order fold's first
//!    strict maximum is the lowest slice index among the maxima — the
//!    canonical winner rule — so each fold feeds the ladder directly.
//! 3. **Per chunk.** The listeners the ladder left to the exact scan are
//!    resolved [`LISTENER_BLOCK`] at a time over all transmitters, the
//!    tail one by one, and the chunk's receptions are written into their
//!    listener slots.
//!
//! Each chunk computes the same bits on whichever thread runs it, every
//! listener slot is written by exactly one chunk, and the per-chunk
//! ladder counters are u64 sums, so scheduling cannot reach the results.

use std::sync::{Mutex, PoisonError};

use fading_geom::{Point, PointsSoA, TileIndex, TileTree};

use crate::exec::{map_ordered, ChunkExecutor};
use crate::farfield::{decide_ladder, finish_fallback, Decision, DecisionInputs};
use crate::kernels::{
    fold_scan, gain_batch_with, scan_block_with, with_bounded_kernel, AlphaKernel, ScanFold,
    LISTENER_BLOCK,
};
use crate::sinr::{scan_soa_with, scan_transmitters_soa, ScanOutcome};
use crate::{
    ChannelPerturbation, FarFieldStats, NodeId, Reception, SinrParams, FARFIELD_REL_SLACK,
};

/// Average number of nodes per *fine* tile the engine aims for: small
/// enough that a listener tile's ring-2 near field (25 fine tiles) stays
/// cheap to scan exactly, large enough that the tree stays shallow.
pub const HIER_TARGET_TILE_OCCUPANCY: usize = 64;

/// Upper bound on fine tiles per side (memory is linear in tile count —
/// `512² = 262144` fine tiles ≈ a few MB of per-tile state).
pub const HIER_MAX_TILES_PER_SIDE: usize = 512;

/// Opening criterion: a far tree node is accepted as one aggregate when
/// `d_max² ≤ ratio · d_min²` between the listener tile's and the node's
/// content bboxes (i.e. `d_max ≤ 1.5·d_min`), otherwise its children are
/// visited. Smaller = tighter brackets but deeper traversals; 2.25 keeps
/// the worst accepted gain ratio `(d_max/d_min)^α` small while still
/// aggregating geometrically.
pub const HIER_ACCEPT_RATIO_SQ: f64 = 2.25;

/// Chebyshev fine-tile radius of the near field: tiles within this ring
/// of the listener's tile are scanned exactly. The module docs say why it
/// is 2 rather than 1.
pub const HIER_NEAR_RING: usize = 2;

/// Listener tiles per parallel task. Fixed (never derived from thread
/// count) so chunk boundaries — and with them which listeners share a
/// block scan — are identical under any executor.
pub const HIER_TILE_CHUNK: usize = 64;

/// Multi-resolution far-field engine over a [`TileTree`]. Built once per
/// deployment by
/// [`ResolveEngine::build`](crate::ResolveEngine::build); the
/// `hierarchical` module docs describe the traversal and its exactness
/// argument.
#[derive(Debug)]
pub struct HierarchicalFarFieldEngine {
    tree: TileTree,
    n: usize,
    power: f64,
    alpha: f64,
    first: Point,
    last: Point,
    /// Live-node flags mirrored from the simulator's knockout/churn state.
    alive: Vec<bool>,
    /// Live members per fine tile.
    alive_per_tile: Vec<u32>,
    num_alive: usize,
    /// SoA mirror of the build positions, feeding the batched kernels
    /// (coherent with `positions` whenever `matches` holds).
    soa: PointsSoA,
    /// Per-round transmitter slice indices per fine tile, ascending.
    tx_in_tile: Vec<Vec<u32>>,
    /// Round-level gathered transmitter coordinates (slice order): the
    /// source of every near gather and exact fallback. Written during the
    /// serial prepare, read-only during the parallel pass.
    tx_xs: Vec<f64>,
    tx_ys: Vec<f64>,
    /// Per-round transmitter count under each tree node, per level.
    tx_count: Vec<Vec<u32>>,
    /// Nodes touched this round, per level (level 0 doubles as the list of
    /// fine tiles whose `tx_in_tile` bucket needs clearing).
    touched: Vec<Vec<u32>>,
    stats: FarFieldStats,
}

/// A round's listeners bucketed by fine tile: `tiles` in first-seen
/// order, and `order[starts[i]..starts[i + 1]]` the slots (indices into
/// the listener slice) of tile `tiles[i]`'s listeners, ascending.
struct ListenerBuckets {
    tiles: Vec<u32>,
    starts: Vec<u32>,
    order: Vec<u32>,
}

impl ListenerBuckets {
    /// A counting sort of `listeners` by fine tile.
    fn new(fine: &TileIndex, listeners: &[NodeId]) -> Self {
        // Per-tile listener counts, then reused as each tile's write
        // cursor.
        let mut cursor = vec![0u32; fine.num_tiles()];
        let mut tiles = Vec::new();
        for &v in listeners {
            let t = fine.tile_of(v);
            if cursor[t] == 0 {
                tiles.push(t as u32);
            }
            cursor[t] += 1;
        }
        let mut starts = Vec::with_capacity(tiles.len() + 1);
        let mut next = 0u32;
        for &t in &tiles {
            starts.push(next);
            next += std::mem::replace(&mut cursor[t as usize], next);
        }
        starts.push(next);
        let mut order = vec![0u32; listeners.len()];
        for (slot, &v) in listeners.iter().enumerate() {
            let c = &mut cursor[fine.tile_of(v)];
            order[*c as usize] = slot as u32;
            *c += 1;
        }
        ListenerBuckets {
            tiles,
            starts,
            order,
        }
    }

    /// The bucket positions `[start, end)` of tiles `first..last`.
    fn span(&self, first: usize, last: usize) -> std::ops::Range<usize> {
        self.starts[first] as usize..self.starts[last] as usize
    }
}

/// Chunk-local scratch of the parallel pass: one per task, so concurrent
/// tasks never share mutable state.
#[derive(Debug, Default)]
struct ChunkScratch {
    /// Traversal stack of `(level, col, row)` node addresses.
    stack: Vec<(usize, usize, usize)>,
    /// The current tile's near transmitters: slice indices (ascending)
    /// and their coordinates, parallel.
    near_idx: Vec<u32>,
    near_x: Vec<f64>,
    near_y: Vec<f64>,
    /// Gain buffer for single-listener scans.
    gains: Vec<f64>,
    /// Positions (into the chunk's slots) of the listeners the ladder
    /// left to the exact scan.
    pending: Vec<usize>,
}

/// What every listener of a round shares: the inputs of its decision.
struct RoundInputs<'a> {
    positions: &'a [Point],
    transmitters: &'a [NodeId],
    listeners: &'a [NodeId],
    perturbation: Option<&'a ChannelPerturbation<'a>>,
    noise: f64,
    beta: f64,
}

impl RoundInputs<'_> {
    /// Listener `v`'s jammer term, when the round is perturbed.
    fn extra(&self, v: NodeId) -> Option<f64> {
        self.perturbation.map(|pt| pt.extra_at(v))
    }
}

/// The coordinates of the (at most [`LISTENER_BLOCK`]) listeners at
/// positions `block` of `order`.
fn block_coords(
    round: &RoundInputs<'_>,
    order: &[u32],
    block: impl IntoIterator<Item = usize>,
) -> ([f64; LISTENER_BLOCK], [f64; LISTENER_BLOCK]) {
    let mut vx = [0.0; LISTENER_BLOCK];
    let mut vy = [0.0; LISTENER_BLOCK];
    for (j, pos) in block.into_iter().enumerate() {
        let vp = round.positions[round.listeners[order[pos] as usize]];
        vx[j] = vp.x;
        vy[j] = vp.y;
    }
    (vx, vy)
}

impl HierarchicalFarFieldEngine {
    /// Builds an engine for `positions` under `params`, with the default
    /// tiling ([`HIER_TARGET_TILE_OCCUPANCY`] nodes per fine tile, at most
    /// [`HIER_MAX_TILES_PER_SIDE`] fine tiles per side).
    ///
    /// Returns `None` for an empty deployment or non-finite coordinates
    /// (the exact paths define the semantics of such inputs).
    #[must_use]
    pub fn build(positions: &[Point], params: &SinrParams) -> Option<Self> {
        let tree = TileTree::with_target_occupancy(
            positions,
            HIER_TARGET_TILE_OCCUPANCY,
            HIER_MAX_TILES_PER_SIDE,
        )?;
        Self::from_tree(tree, positions, params)
    }

    /// Builds an engine over an explicit `tiles_per_side × tiles_per_side`
    /// fine grid. Exposed so tests can force multi-level tree layouts on
    /// small deployments; `build` is the production sizing.
    #[must_use]
    pub fn build_with_tiling(
        positions: &[Point],
        params: &SinrParams,
        tiles_per_side: usize,
    ) -> Option<Self> {
        let tree = TileTree::build(positions, tiles_per_side)?;
        Self::from_tree(tree, positions, params)
    }

    fn from_tree(tree: TileTree, positions: &[Point], params: &SinrParams) -> Option<Self> {
        if !positions.iter().all(|p| p.is_finite()) {
            return None;
        }
        let num_fine = tree.fine().num_tiles();
        let num_levels = tree.num_levels();
        let alive_per_tile = (0..num_fine).map(|t| tree.fine().count(t) as u32).collect();
        Some(HierarchicalFarFieldEngine {
            n: positions.len(),
            power: params.power(),
            alpha: params.alpha(),
            first: positions[0],
            last: positions[positions.len() - 1],
            alive: vec![true; positions.len()],
            alive_per_tile,
            num_alive: positions.len(),
            soa: PointsSoA::from_points(positions),
            tx_in_tile: vec![Vec::new(); num_fine],
            tx_xs: Vec::new(),
            tx_ys: Vec::new(),
            tx_count: (0..num_levels)
                .map(|l| vec![0u32; tree.num_nodes(l)])
                .collect(),
            touched: vec![Vec::new(); num_levels],
            stats: FarFieldStats::default(),
            tree,
        })
    }

    /// Whether this engine was built over exactly these `positions` and
    /// SINR parameters (size, power, α, and a first/last position
    /// fingerprint — the same discipline as
    /// [`GainCache::matches`](crate::GainCache::matches)).
    #[must_use]
    pub fn matches(&self, positions: &[Point], params: &SinrParams) -> bool {
        self.n == positions.len()
            && self.power == params.power()
            && self.alpha == params.alpha()
            && positions.first() == Some(&self.first)
            && positions.last() == Some(&self.last)
    }

    /// Marks node `w` dead, decrementing its fine tile's live count.
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn deactivate(&mut self, w: NodeId) {
        assert!(
            w < self.n,
            "node {w} out of range for engine of size {}",
            self.n
        );
        if std::mem::replace(&mut self.alive[w], false) {
            self.alive_per_tile[self.tree.fine().tile_of(w)] -= 1;
            self.num_alive -= 1;
        }
    }

    /// Marks node `w` live again (churn revival). Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn activate(&mut self, w: NodeId) {
        assert!(
            w < self.n,
            "node {w} out of range for engine of size {}",
            self.n
        );
        if !std::mem::replace(&mut self.alive[w], true) {
            self.alive_per_tile[self.tree.fine().tile_of(w)] += 1;
            self.num_alive += 1;
        }
    }

    /// Whether node `w` is currently marked live.
    #[must_use]
    pub fn is_active(&self, w: NodeId) -> bool {
        self.alive[w]
    }

    /// Number of live nodes.
    #[must_use]
    pub fn num_active(&self) -> usize {
        self.num_alive
    }

    /// Number of live nodes in fine tile `t`.
    #[must_use]
    pub fn active_in_tile(&self, t: usize) -> usize {
        self.alive_per_tile[t] as usize
    }

    /// The underlying tile tree.
    #[must_use]
    pub fn tree(&self) -> &TileTree {
        &self.tree
    }

    /// The far-field aggregate `(lo, hi, cap)` a listener in fine tile `t`
    /// gets over the last round's transmitters (the same traversal the
    /// round ran), or `None` when `t` holds no node. Exposed so tests can
    /// pin a traversal's bracket.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn far_aggregate(&self, t: usize) -> Option<(f64, f64, f64)> {
        self.tree.fine().content_bbox(t)?;
        let mut stack = Vec::new();
        Some(with_bounded_kernel!(self.alpha, |k| self.traverse(k, t, &mut stack)))
    }

    /// Decision counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> FarFieldStats {
        self.stats
    }

    /// Resets the decision counters.
    pub fn reset_stats(&mut self) {
        self.stats = FarFieldStats::default();
    }

    /// Overwrites the decision counters (checkpoint restore: a rebuilt
    /// engine resumes the counter totals the snapshotted engine had
    /// accumulated, so `EngineCounters` reconciliation survives a resume).
    pub fn set_stats(&mut self, stats: FarFieldStats) {
        self.stats = stats;
    }

    /// One Barnes–Hut traversal through kernel `k`: the far-field
    /// aggregate `(lo, hi, cap)` for listeners in fine tile `lt`, over
    /// this round's transmitter masses, each node gain widened by `k`'s
    /// [`GAIN_REL_ERR`](AlphaKernel::GAIN_REL_ERR) so the aggregate
    /// brackets the canonical gains (a multiplication by 1.0 for the
    /// canonical classes). `stack` is caller-provided scratch; children
    /// are pushed in row-major order, so the accumulation order is a
    /// function of the tree and the masses alone.
    fn traverse<K: AlphaKernel>(
        &self,
        k: K,
        lt: usize,
        stack: &mut Vec<(usize, usize, usize)>,
    ) -> (f64, f64, f64) {
        let fine = self.tree.fine();
        let (fine_cols, fine_rows) = (fine.cols(), fine.rows());
        let (ltc, ltr) = (lt % fine_cols, lt / fine_cols);
        // The near ring in fine-tile coordinates (clipped at the grid edge,
        // exactly like `TileIndex::neighborhood`).
        let near_c0 = ltc.saturating_sub(HIER_NEAR_RING);
        let near_c1 = (ltc + HIER_NEAR_RING).min(fine_cols - 1);
        let near_r0 = ltr.saturating_sub(HIER_NEAR_RING);
        let near_r1 = (ltr + HIER_NEAR_RING).min(fine_rows - 1);
        let Some(lt_box) = fine.content_bbox(lt) else {
            unreachable!("a listener's tile holds the listener")
        };

        let p = self.power;
        let (widen_lo, widen_hi) = (1.0 - K::GAIN_REL_ERR, 1.0 + K::GAIN_REL_ERR);
        let (mut lo, mut hi, mut cap) = (0.0f64, 0.0f64, 0.0f64);
        stack.clear();
        stack.push((self.tree.num_levels() - 1, 0, 0));
        while let Some((l, c, r)) = stack.pop() {
            let idx = r * self.tree.level_cols(l) + c;
            let mass = self.tx_count[l][idx];
            if mass == 0 {
                continue;
            }
            let (d_min_sq, d_max_sq) = if l > 0 {
                // Descend nodes whose fine-tile span overlaps the near
                // ring: their mass may include near transmitters, which
                // the exact scan owns. Node (c, r) at level l spans fine
                // columns [c·2^l, min((c+1)·2^l, cols)), rows likewise.
                let overlaps_near = c << l <= near_c1
                    && near_c0 < ((c + 1) << l).min(fine_cols)
                    && r << l <= near_r1
                    && near_r0 < ((r + 1) << l).min(fine_rows);
                // A node with mass holds points, so its bbox is real; a
                // far node whose opening angle is too wide is refined.
                let accepted = (!overlaps_near)
                    .then(|| lt_box.distance_sq_bounds(&self.tree.level_content(l)[idx]))
                    .filter(|&(d_min_sq, d_max_sq)| d_max_sq <= HIER_ACCEPT_RATIO_SQ * d_min_sq);
                let Some(bounds) = accepted else {
                    let c1 = (2 * c + 2).min(self.tree.level_cols(l - 1));
                    let r1 = (2 * r + 2).min(self.tree.level_rows(l - 1));
                    for rr in 2 * r..r1 {
                        for cc in 2 * c..c1 {
                            stack.push((l - 1, cc, rr));
                        }
                    }
                    continue;
                };
                bounds
            } else {
                // Fine tile: near ones belong to the exact scan; far ones
                // are always accepted (the recursion's base case).
                if c.abs_diff(ltc).max(r.abs_diff(ltr)) <= HIER_NEAR_RING {
                    continue;
                }
                lt_box.distance_sq_bounds(&self.tree.level_content(0)[idx])
            };
            // Accept the aggregate. d_min² = 0 (touching boxes) makes the
            // upper gain infinite — rung 1 then falls back, which is
            // conservative, never wrong.
            let m = f64::from(mass);
            lo += m * ((p / k.pow_alpha(d_max_sq)) * widen_lo);
            let g_hi = (p / k.pow_alpha(d_min_sq)) * widen_hi;
            hi += m * g_hi;
            cap = cap.max(g_hi);
        }
        (lo, hi, cap)
    }

    /// Gathers fine tile `lt`'s near transmitters — every transmitter in
    /// its [`HIER_NEAR_RING`] neighborhood — into `sc` in slice order.
    fn gather_near(&self, lt: usize, sc: &mut ChunkScratch) {
        sc.near_idx.clear();
        for t in self.tree.fine().neighborhood(lt, HIER_NEAR_RING) {
            sc.near_idx.extend_from_slice(&self.tx_in_tile[t]);
        }
        sc.near_idx.sort_unstable();
        sc.near_x.clear();
        sc.near_y.clear();
        for &i in &sc.near_idx {
            sc.near_x.push(self.tx_xs[i as usize]);
            sc.near_y.push(self.tx_ys[i as usize]);
        }
    }

    /// Resolves the listeners of listener tiles `first..last` through
    /// kernel `k`, writing each reception into its slot of `out`, and
    /// returns the chunk's ladder counters. Read-only over the engine, so
    /// chunks run concurrently.
    fn resolve_chunk<K: AlphaKernel>(
        &self,
        k: K,
        round: &RoundInputs<'_>,
        buckets: &ListenerBuckets,
        (first, last): (usize, usize),
        out: &Mutex<Vec<Reception>>,
    ) -> FarFieldStats {
        let p = self.power;
        // The chunk's listener slots; positions below index into `order`.
        let span = buckets.span(first, last);
        let order = &buckets.order[span.clone()];
        let mut rx = vec![Reception::Silence; order.len()];
        let mut sc = ChunkScratch::default();
        let mut stats = FarFieldStats::default();

        for ti in first..last {
            let lt = buckets.tiles[ti] as usize;
            let (far_lo, far_hi, far_cap) = self.traverse(k, lt, &mut sc.stack);
            // Widened cap on any single far signal (covers bound rounding
            // and powf non-monotonicity; see FARFIELD_REL_SLACK).
            let far_cap = far_cap * (1.0 + FARFIELD_REL_SLACK);
            self.gather_near(lt, &mut sc);

            // The ladder on one listener's near fold. A slice-order fold's
            // first strict maximum is the canonical winner among the near
            // transmitters.
            let near_idx = &sc.near_idx;
            let mut decide = |pos: usize, fold: ScanFold, pending: &mut Vec<usize>| {
                let v = round.listeners[order[pos] as usize];
                let decision = decide_ladder(
                    &mut stats,
                    DecisionInputs {
                        near_sum: fold.total,
                        best_sig: fold.best_sig,
                        best_tx: fold
                            .best_idx
                            .map(|i| round.transmitters[near_idx[i] as usize]),
                        far_lo,
                        far_hi,
                        far_cap,
                        noise: round.noise,
                        extra: round.extra(v),
                        beta: round.beta,
                        gain_rel_err: K::GAIN_REL_ERR,
                    },
                );
                match decision {
                    Decision::Decided(reception) => rx[pos] = reception,
                    Decision::Exact => pending.push(pos),
                }
            };

            let tile = buckets.span(ti, ti + 1);
            let (start, end) = (tile.start - span.start, tile.end - span.start);
            let tail = end - (end - start) % LISTENER_BLOCK;
            for block_start in (start..tail).step_by(LISTENER_BLOCK) {
                let block = block_start..block_start + LISTENER_BLOCK;
                let (vx, vy) = block_coords(round, order, block.clone());
                let folds = scan_block_with(k, p, &sc.near_x, &sc.near_y, &vx, &vy);
                for (pos, fold) in block.zip(folds) {
                    decide(pos, fold, &mut sc.pending);
                }
            }
            for (pos, &slot) in order.iter().enumerate().take(end).skip(tail) {
                let vp = round.positions[round.listeners[slot as usize]];
                sc.gains.resize(sc.near_idx.len(), 0.0);
                gain_batch_with(k, p, &sc.near_x, &sc.near_y, vp.x, vp.y, &mut sc.gains);
                decide(pos, fold_scan(&sc.gains), &mut sc.pending);
            }
        }
        self.resolve_fallbacks(k, round, order, &mut sc, &mut rx, &mut stats);

        let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
        for (&slot, reception) in order.iter().zip(rx) {
            out[slot as usize] = reception;
        }
        stats
    }

    /// The exact fallbacks of one chunk (`sc.pending`, positions into
    /// `order` and `rx`), over every transmitter: [`LISTENER_BLOCK`]
    /// listeners at a time through the fused block scan, the tail one by
    /// one, each a slice-order first pass through `k` settled by
    /// [`finish_fallback`] — which runs the canonical scan only when that
    /// pass cannot certify the listener (never for a canonical `k`).
    fn resolve_fallbacks<K: AlphaKernel>(
        &self,
        k: K,
        round: &RoundInputs<'_>,
        order: &[u32],
        sc: &mut ChunkScratch,
        rx: &mut [Reception],
        stats: &mut FarFieldStats,
    ) {
        let (p, alpha) = (self.power, self.alpha);
        let (xs, ys) = (&self.tx_xs[..], &self.tx_ys[..]);
        let tx = round.transmitters;
        let ChunkScratch { pending, gains, .. } = sc;
        let mut settle = |pos: usize, first: ScanOutcome, gains: &mut Vec<f64>| {
            let v = round.listeners[order[pos] as usize];
            let vp = round.positions[v];
            let rescan = || scan_transmitters_soa(p, alpha, v, vp, tx, xs, ys, gains);
            let (noise, beta) = (round.noise, round.beta);
            rx[pos] = finish_fallback::<K>(first, noise, round.extra(v), beta, stats, rescan);
        };
        let mut blocks = pending.chunks_exact(LISTENER_BLOCK);
        for block in &mut blocks {
            let (vx, vy) = block_coords(round, order, block.iter().copied());
            let folds = scan_block_with(k, p, xs, ys, &vx, &vy);
            for (&pos, fold) in block.iter().zip(folds) {
                settle(pos, ScanOutcome::from_fold(fold, tx), gains);
            }
        }
        for &pos in blocks.remainder() {
            let v = round.listeners[order[pos] as usize];
            let first = scan_soa_with(k, p, v, round.positions[v], tx, xs, ys, gains);
            settle(pos, first, gains);
        }
    }

    /// Resolves one round with the tree-aggregated fast path; reception
    /// semantics (and bits) are exactly those of
    /// [`SinrChannel::resolve`](crate::SinrChannel). `perturbation` must be
    /// `None` for a neutral perturbation, mirroring the dispatch in
    /// `SinrChannel::resolve_core`. Tile chunks run on `executor`; the
    /// module docs say why scheduling cannot affect results.
    pub(crate) fn resolve_sinr(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        perturbation: Option<&ChannelPerturbation<'_>>,
        executor: &dyn ChunkExecutor,
    ) -> Vec<Reception> {
        debug_assert!(self.matches(positions, params));
        debug_assert!(
            crate::farfield::slack_certifies(transmitters.len()),
            "a round of {} transmitters exceeds the slack budget",
            transmitters.len()
        );
        self.stats.rounds += 1;
        self.prepare(transmitters);
        if transmitters.is_empty() {
            // The canonical loop yields Silence for every listener when
            // nobody transmits (best_tx stays None).
            self.stats.empty_round_silences += listeners.len() as u64;
            return vec![Reception::Silence; listeners.len()];
        }

        let round = RoundInputs {
            positions,
            transmitters,
            listeners,
            perturbation,
            noise: match perturbation {
                Some(pt) => params.noise() * pt.noise_scale(),
                None => params.noise(),
            },
            beta: params.beta(),
        };
        let buckets = ListenerBuckets::new(self.tree.fine(), listeners);
        let num_tiles = buckets.tiles.len();
        let out = Mutex::new(vec![Reception::Silence; listeners.len()]);
        let this = &*self;
        let chunks = with_bounded_kernel!(this.alpha, |k| map_ordered(
            executor,
            num_tiles.div_ceil(HIER_TILE_CHUNK),
            |chunk| {
                let first = chunk * HIER_TILE_CHUNK;
                let last = (first + HIER_TILE_CHUNK).min(num_tiles);
                this.resolve_chunk(k, &round, &buckets, (first, last), &out)
            }
        ));
        // Per-rung counters are u64 sums, so any chunking yields the same
        // totals.
        for local in &chunks {
            self.stats.add(local);
        }
        out.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// The round's serial prepare: clears last round's masses (touched
    /// nodes only), buckets this round's transmitters by fine tile (slice
    /// indices, ascending), propagates their counts up the tree, and
    /// gathers their coordinates in slice order.
    fn prepare(&mut self, transmitters: &[NodeId]) {
        for l in 0..self.touched.len() {
            for &t in &self.touched[l] {
                self.tx_count[l][t as usize] = 0;
                if l == 0 {
                    self.tx_in_tile[t as usize].clear();
                }
            }
            self.touched[l].clear();
        }
        for (idx, &u) in transmitters.iter().enumerate() {
            let t = self.tree.fine().tile_of(u);
            if self.tx_in_tile[t].is_empty() {
                self.touched[0].push(t as u32);
            }
            self.tx_in_tile[t].push(idx as u32);
            self.tx_count[0][t] += 1;
        }
        self.soa
            .gather(transmitters, &mut self.tx_xs, &mut self.tx_ys);
        for l in 1..self.tree.num_levels() {
            let cols = self.tree.level_cols(l);
            let child_cols = self.tree.level_cols(l - 1);
            // Split the borrows: children (level l-1) feed parents
            // (level l) in both the count and touched arrays.
            let (lower_counts, upper_counts) = self.tx_count.split_at_mut(l);
            let child_counts = &lower_counts[l - 1];
            let parent_counts = &mut upper_counts[0];
            let (lower_touched, upper_touched) = self.touched.split_at_mut(l);
            let child_touched = &lower_touched[l - 1];
            let parent_touched = &mut upper_touched[0];
            for &c in child_touched {
                let c = c as usize;
                let parent = (c / child_cols / 2) * cols + (c % child_cols) / 2;
                if parent_counts[parent] == 0 {
                    parent_touched.push(parent as u32);
                }
                parent_counts[parent] += child_counts[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SerialExecutor;
    use crate::{Channel, SinrChannel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn params() -> SinrParams {
        SinrParams::builder()
            .power(16.0)
            .alpha(3.0)
            .beta(2.0)
            .noise(1.0)
            .build()
            .unwrap()
    }

    fn lattice(n_side: usize, spacing: f64) -> Vec<Point> {
        (0..n_side * n_side)
            .map(|i| Point::new((i % n_side) as f64 * spacing, (i / n_side) as f64 * spacing))
            .collect()
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let p = params();
        assert!(HierarchicalFarFieldEngine::build(&[], &p).is_none());
        let nan = vec![Point::new(f64::NAN, 0.0), Point::ORIGIN];
        assert!(HierarchicalFarFieldEngine::build(&nan, &p).is_none());
    }

    #[test]
    fn matches_is_a_fingerprint() {
        let p = params();
        let pos = lattice(8, 1.0);
        let engine = HierarchicalFarFieldEngine::build(&pos, &p).unwrap();
        assert!(engine.matches(&pos, &p));
        let mut moved = pos.clone();
        moved[0] = Point::new(-7.0, -7.0);
        assert!(!engine.matches(&moved, &p));
        assert!(!engine.matches(&pos[..63], &p));
        let other = SinrParams::builder().power(32.0).build().unwrap();
        assert!(!engine.matches(&pos, &other));
    }

    #[test]
    fn occupancy_tracks_knockout_and_revival() {
        let p = params();
        let pos = lattice(8, 1.0);
        let mut engine = HierarchicalFarFieldEngine::build_with_tiling(&pos, &p, 4).unwrap();
        let t = engine.tree().fine().tile_of(0);
        let before = engine.active_in_tile(t);
        assert_eq!(engine.num_active(), 64);
        engine.deactivate(0);
        engine.deactivate(0); // idempotent
        assert!(!engine.is_active(0));
        assert_eq!(engine.active_in_tile(t), before - 1);
        assert_eq!(engine.num_active(), 63);
        engine.activate(0);
        engine.activate(0); // idempotent
        assert_eq!(engine.active_in_tile(t), before);
        assert_eq!(engine.num_active(), 64);
    }

    #[test]
    fn resolve_matches_exact_on_a_lattice() {
        let p = params();
        let ch = SinrChannel::new(p);
        let pos = lattice(16, 1.5);
        // 8 tiles per side → a 4-level tree with real aggregation.
        let mut engine = HierarchicalFarFieldEngine::build_with_tiling(&pos, &p, 8).unwrap();
        assert!(engine.tree().num_levels() >= 4);
        let transmitters: Vec<NodeId> = (0..pos.len()).step_by(7).collect();
        let listeners: Vec<NodeId> = (0..pos.len())
            .filter(|i| !transmitters.contains(i))
            .collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let exact = ch.resolve(&pos, &transmitters, &listeners, &mut rng);
        let fast = engine.resolve_sinr(&p, &pos, &transmitters, &listeners, None, &SerialExecutor);
        assert_eq!(exact, fast);
        let s = engine.stats();
        assert_eq!(s.rounds, 1);
        assert_eq!(s.listeners_resolved(), listeners.len() as u64);
    }

    #[test]
    fn consecutive_rounds_reset_the_masses() {
        let p = params();
        let ch = SinrChannel::new(p);
        let pos = lattice(12, 2.0);
        let mut engine = HierarchicalFarFieldEngine::build_with_tiling(&pos, &p, 6).unwrap();
        // Two rounds with disjoint transmitter sets: stale masses from
        // round 1 would corrupt round 2's brackets.
        for (seed, step) in [(1u64, 5usize), (2, 11)] {
            let transmitters: Vec<NodeId> = (0..pos.len()).step_by(step).collect();
            let listeners: Vec<NodeId> = (0..pos.len())
                .filter(|i| !transmitters.contains(i))
                .collect();
            let mut rng = SmallRng::seed_from_u64(seed);
            let exact = ch.resolve(&pos, &transmitters, &listeners, &mut rng);
            let fast =
                engine.resolve_sinr(&p, &pos, &transmitters, &listeners, None, &SerialExecutor);
            assert_eq!(exact, fast, "round with step {step}");
        }
        assert_eq!(engine.stats().rounds, 2);
    }

    #[test]
    fn empty_round_is_all_silence_and_counts_fast() {
        let p = params();
        let pos = lattice(4, 1.0);
        let mut engine = HierarchicalFarFieldEngine::build(&pos, &p).unwrap();
        let listeners: Vec<NodeId> = (0..pos.len()).collect();
        let rx = engine.resolve_sinr(&p, &pos, &[], &listeners, None, &SerialExecutor);
        assert!(rx.iter().all(|r| *r == Reception::Silence));
        assert_eq!(engine.stats().empty_round_silences, pos.len() as u64);
        assert_eq!(engine.stats().fast_decisions(), pos.len() as u64);
        engine.reset_stats();
        assert_eq!(engine.stats(), FarFieldStats::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn deactivate_out_of_range_panics() {
        let p = params();
        let pos = lattice(2, 1.0);
        let mut engine = HierarchicalFarFieldEngine::build(&pos, &p).unwrap();
        engine.deactivate(4);
    }
}
