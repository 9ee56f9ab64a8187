//! The tile-tree far-field engine: a dual-tree resolve with a
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
//! exactly and brackets the rest, `I_lo ≤ I_far ≤ I_hi`, from pairs of
//! tree nodes chosen by an opening criterion. The decision ladder (`farfield.rs`)
//! then settles the reception from the near scan and the bracket. A
//! listener it cannot settle gets a second, *refined* ladder with the
//! exact gains of its tile's close transmitters, and only a listener that
//! one cannot settle either takes the exact scan.
//!
//! # The interaction lists and the two-stage sum
//!
//! The far bracket's cut depends on geometry alone, so the engine settles
//! it once, at build: the `interaction` module's dual-tree walk gives
//! every tree node a list of *source* nodes it brackets as one aggregate.
//! A pair `(T, S)` is accepted when `S`'s fine span misses the near rings
//! of every fine tile under `T` and the two content boxes are tight —
//! `d_max² ≤ [`HIER_ACCEPT_RATIO_SQ`] · d_min²` — and a pair of fine tiles
//! beyond [`HIER_NEAR_RING`] is always accepted. For every fine tile `t`
//! the lists of `t` and its ancestors cover each non-empty fine tile
//! outside `t`'s near ring exactly once, and none inside it (the near
//! scan owns those). The lists are `u32` source ids in CSR form, O(nodes)
//! memory rather than one cut per tile.
//!
//! Per round, transmitters are bucketed into fine tiles and their counts
//! propagated up the tree (only nodes actually touched are visited). The
//! bracket is then summed in two stages:
//!
//! 1. every coarse node with listeners beneath it sums its own list,
//!    `mass × [P/d_max^α, P/d_min^α]` per source with transmitters (the
//!    upper gain also raising the far cap), in one parallel pass;
//! 2. every listener tile sums its own list the same way and adds its
//!    ancestors' partial sums, fine to root; it also keeps the ancestors'
//!    sums alone, the refined stage's far bracket.
//!
//! The ring is 2 rather than 1 because fine tiles at Chebyshev distance 2
//! are accepted with a `d_max/d_min` ratio of ~3–4, which loosens the
//! bracket and the far cap enough to cause most straddle and far-rival
//! fallbacks; scanning them exactly costs less than the fallbacks it
//! saves.
//!
//! Every transmitter therefore lands in exactly one accepted pair or in
//! the near scan, and every pair's bracket is certified by the tree's
//! content bboxes for every listener under its target, so the 5-rung
//! decision ladder's exactness argument holds. The round-level table of
//! the workspace's differential oracle (`tests/differential.rs`) enforces
//! it at forced tilings, 1, 2 and 8 threads, and checks every bracket
//! against the exact sums.
//!
//! # The refined stage
//!
//! A fine tile's own list holds fine tiles only (the `interaction` module
//! docs say why): its *close set*, the tiles just beyond the near ring,
//! whose box brackets are the loosest a listener gets and cause most of
//! the ladder's rung 3–5 fallbacks. They hold a small share of a large
//! round's transmitters. So a listener whose first ladder stops on rung 3,
//! 4 or 5 (not rung 1) is refined before it may fall back: the gain of
//! every close transmitter, through the round's kernel and the near
//! scan's expression, is merged into its near fold — totals add, the
//! larger gain wins and a tie goes to the lower slice index, the
//! canonical first strict maximum — and the ladder runs again on that fold
//! with the ancestors' sums as the far bracket, cap widened as before.
//! Near ring, close set and ancestors' lists cover disjoint source sets
//! that together hold every transmitter, so the second ladder's
//! certificate is the first one's with exact terms in place of a bracket
//! (DESIGN.md §10.2). The stage runs per listener, over the close
//! transmitters gathered once per tile, and only for a tile whose close
//! transmitters number at least one and at most a quarter of the round's
//! (counted by the tile's own list sum, checked at its first refinable
//! listener). Past a quarter, one listener's close gains cost a large
//! share of the block-scanned exact scan they would spare (DESIGN.md
//! §12.4 has the measurements).
//!
//! # Generic α
//!
//! For α ∈ {2, 3, 4, 6} every gain the engine computes is the canonical
//! expression. For any other α (up to the bounded kernel's range) the
//! pair gains, the near scans and the first pass of every exact fallback
//! run through the crate's bounded generic-α kernel, whose gains lie
//! within `2δ` (δ = 2⁻⁴⁰) of the canonical ones: pair gains are
//! widened by that error, the ladder widens the near best signal by it,
//! and a fallback whose bounded bracket cannot settle the listener is
//! rescanned canonically. DESIGN.md §10.2 has the argument.
//!
//! # The tile-major round
//!
//! A round is two parallel passes, run on a [`ChunkExecutor`] through
//! [`map_ordered`] in fixed [`HIER_TILE_CHUNK`] chunks that never depend on
//! the thread count:
//!
//! 1. **Serial prepare.** Count the transmitters per fine tile and build
//!    the mass pyramid; lay the transmitters out tile-major (one counting
//!    sort: each fine tile's run of slice indices, ascending, and their
//!    coordinates); bucket the listeners by fine tile (tiles in first-seen
//!    order, slice order within a tile); list the coarse nodes above the
//!    listener tiles (first-seen order, fine to root).
//! 2. **Per coarse node.** Sum the node's interaction list over this
//!    round's masses.
//! 3. **Per tile.** Add the tile's own list sum to its ancestors' sums for
//!    the far bracket, gather the tile's near transmitters once into
//!    chunk-local SoA scratch in slice order (one run slice per
//!    neighborhood row, then a sort), and block-scan the tile's listeners
//!    against it: [`LISTENER_BLOCK`] at a time through the fused block
//!    scan, the remainder in narrower blocks padded with copies of their
//!    last listener. A slice-order fold's first strict maximum is the
//!    lowest slice index among the maxima — the canonical winner rule — so
//!    each fold feeds the ladder directly. A listener the ladder leaves on
//!    rung 3–5 goes through the refined stage, which copies the runs of
//!    the tile's close tiles at its first such listener.
//! 4. **Per chunk.** The listeners both ladders left to the exact scan
//!    are block-scanned the same way over all transmitters, and the
//!    chunk's receptions are written into their listener slots.
//!
//! Each chunk computes the same bits on whichever thread runs it (its
//! blocks never reach into another chunk, and a lane's fold never depends
//! on the block it shares), every listener slot is written by exactly one
//! chunk, and the per-chunk
//! ladder counters are u64 sums, so scheduling cannot reach the results.

use std::sync::{Mutex, PoisonError};

use fading_geom::{gather_points, Point, TileIndex, TileTree};

use crate::exec::{map_ordered, ChunkExecutor};
use crate::farfield::{decide_refined, finish_fallback, ladder, Decision, DecisionInputs};
use crate::interaction::{fold_up, Bracket, InteractionLists};
use crate::kernels::{
    gain_batch_with, scan_listeners_with, with_bounded_kernel, AlphaKernel, ScanFold,
};
use crate::sinr::{scan_transmitters, ScanOutcome};
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

/// Opening criterion: a far (target, source) node pair is accepted as one
/// aggregate when `d_max² ≤ ratio · d_min²` between the two nodes' content
/// bboxes (i.e. `d_max ≤ 1.5·d_min`), otherwise one side is split. Smaller
/// = tighter brackets but longer interaction lists; 2.25 keeps the worst
/// accepted gain ratio `(d_max/d_min)^α` small while still aggregating
/// geometrically.
pub const HIER_ACCEPT_RATIO_SQ: f64 = 2.25;

/// Chebyshev fine-tile radius of the near field: tiles within this ring
/// of the listener's tile are scanned exactly. The module docs say why it
/// is 2 rather than 1.
pub const HIER_NEAR_RING: usize = 2;

/// Listener tiles (and coarse nodes, in a round's first pass) per parallel
/// task. Fixed (never derived from thread count) so chunk boundaries — and
/// with them which listeners share a block scan — are identical under any
/// executor.
pub const HIER_TILE_CHUNK: usize = 64;

/// Multi-resolution far-field engine over a [`TileTree`]. Built once per
/// deployment by
/// [`ResolveEngine::build`](crate::ResolveEngine::build); the
/// `hierarchical` module docs describe the interaction lists and their
/// exactness argument.
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
    /// The geometry-only far-field pairs and the flat node layout.
    lists: InteractionLists,
    /// This round's transmitters laid out tile-major, by a counting sort
    /// over the fine tiles: fine tile `t`'s run is
    /// `tx_start[t]..tx_start[t + 1]` of `run_idx` (slice indices,
    /// ascending) and of `run_x`/`run_y` (their coordinates). The source
    /// of every near and close gather.
    tx_start: Vec<u32>,
    run_idx: Vec<u32>,
    run_x: Vec<f64>,
    run_y: Vec<f64>,
    /// Round-level gathered transmitter coordinates (slice order): the
    /// source of every exact fallback. Written during the serial prepare,
    /// read-only during the parallel pass.
    tx_xs: Vec<f64>,
    tx_ys: Vec<f64>,
    /// Per-round transmitter count under each tree node, by flat id.
    tx_count: Vec<u32>,
    /// Nodes touched this round (flat ids), per level: the counts to clear
    /// before the next round.
    touched: Vec<Vec<u32>>,
    /// This round's list sums of the coarse nodes above its listener
    /// tiles, by flat id (stale elsewhere).
    node_sums: Vec<Bracket>,
    /// Marks the coarse nodes collected into a round's targets; all clear
    /// between rounds.
    is_target: Vec<bool>,
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
    /// The current tile's near transmitters: slice indices (ascending)
    /// and their coordinates, parallel.
    near_idx: Vec<u32>,
    near_x: Vec<f64>,
    near_y: Vec<f64>,
    /// The current tile's close transmitters, once the refined stage runs.
    close: CloseScratch,
    /// Positions (into the chunk's slots) of the listeners the ladder
    /// left to the exact scan.
    pending: Vec<usize>,
}

/// A listener tile's close transmitters — those in the fine tiles of its
/// own interaction list — for the refined stage: slice indices in list
/// order and their coordinates, parallel, plus a gain buffer.
#[derive(Debug, Default)]
struct CloseScratch {
    idx: Vec<u32>,
    x: Vec<f64>,
    y: Vec<f64>,
    gains: Vec<f64>,
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
        let alive_per_tile = (0..num_fine).map(|t| tree.fine().count(t) as u32).collect();
        let lists = InteractionLists::build(&tree);
        let num_nodes = lists.num_nodes();
        Some(HierarchicalFarFieldEngine {
            n: positions.len(),
            power: params.power(),
            alpha: params.alpha(),
            first: positions[0],
            last: positions[positions.len() - 1],
            alive: vec![true; positions.len()],
            alive_per_tile,
            num_alive: positions.len(),
            tx_start: vec![0; num_fine + 1],
            run_idx: Vec::new(),
            run_x: Vec::new(),
            run_y: Vec::new(),
            tx_xs: Vec::new(),
            tx_ys: Vec::new(),
            tx_count: vec![0; num_nodes],
            touched: vec![Vec::new(); tree.num_levels()],
            node_sums: vec![(0.0, 0.0, 0.0); num_nodes],
            is_target: vec![false; num_nodes],
            lists,
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
    /// gets over the last round's transmitters, or `None` when `t` holds no
    /// node. It sums the interaction lists of `t` and its ancestors in the
    /// round's own order, so it is the bracket the round used. Exposed so
    /// tests can pin that bracket.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn far_aggregate(&self, t: usize) -> Option<(f64, f64, f64)> {
        self.tree.fine().content_bbox(t)?;
        Some(with_bounded_kernel!(self.alpha, |k| self
            .recomputed_brackets(k, t)
            .0))
    }

    /// The refined stage's far bracket `(lo, hi, cap)` for a listener in
    /// fine tile `t` over the last round's transmitters, or `None` when `t`
    /// holds no node: everything beyond the near ring except
    /// [`close_tiles`](Self::close_tiles), i.e. the ancestors' interaction
    /// lists, summed in the round's order. Exposed so tests can pin that
    /// bracket.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn refined_aggregate(&self, t: usize) -> Option<(f64, f64, f64)> {
        self.tree.fine().content_bbox(t)?;
        Some(with_bounded_kernel!(self.alpha, |k| self
            .recomputed_brackets(k, t)
            .1))
    }

    /// The fine tiles of fine tile `t`'s own interaction list: its close
    /// set, whose transmitters the refined stage evaluates exactly for a
    /// listener in `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn close_tiles(&self, t: usize) -> &[u32] {
        assert!(t < self.tree.fine().num_tiles(), "tile {t} out of range");
        self.lists.sources(t)
    }

    /// [`tile_brackets`](Self::tile_brackets) of fine tile `t`, with its
    /// ancestors' list sums recomputed rather than read from the round's
    /// `node_sums`.
    fn recomputed_brackets<K: AlphaKernel>(&self, k: K, t: usize) -> (Bracket, Bracket, usize) {
        let sum = |a| self.lists.sum(k, a, &self.tx_count, self.power).0;
        self.tile_brackets(k, t, self.lists.ancestors(t).map(sum))
    }

    /// Fine tile `t`'s far brackets over this round's masses, given its
    /// ancestors' list sums `partials` (fine to root): the first ladder's —
    /// its own list, the close set, plus the ancestors' — and the refined
    /// stage's, the ancestors' alone; and the close set's transmitter
    /// count.
    fn tile_brackets<K: AlphaKernel>(
        &self,
        k: K,
        t: usize,
        partials: impl Iterator<Item = Bracket> + Clone,
    ) -> (Bracket, Bracket, usize) {
        let (own, close_count) = self.lists.sum(k, t, &self.tx_count, self.power);
        (
            fold_up(own, partials.clone()),
            fold_up((0.0, 0.0, 0.0), partials),
            close_count,
        )
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

    /// Fine tile `t`'s run in the tile-major transmitter layout.
    fn run(&self, t: usize) -> std::ops::Range<usize> {
        self.tx_start[t] as usize..self.tx_start[t + 1] as usize
    }

    /// Gathers fine tile `lt`'s near transmitters — every transmitter in
    /// its [`HIER_NEAR_RING`] neighborhood — into `sc` in slice order.
    fn gather_near(&self, lt: usize, sc: &mut ChunkScratch) {
        sc.near_idx.clear();
        // A neighborhood row's tiles are consecutive ids, so their runs
        // are one slice.
        for tiles in self.tree.fine().neighborhood_rows(lt, HIER_NEAR_RING) {
            let span = self.tx_start[tiles.start] as usize..self.tx_start[tiles.end] as usize;
            sc.near_idx.extend_from_slice(&self.run_idx[span]);
        }
        sc.near_idx.sort_unstable();
        sc.near_x.clear();
        sc.near_y.clear();
        for &i in &sc.near_idx {
            sc.near_x.push(self.tx_xs[i as usize]);
            sc.near_y.push(self.tx_ys[i as usize]);
        }
    }

    /// Gathers fine tile `lt`'s `count` close transmitters into `close`
    /// when the refined stage runs for the tile, and says whether it does:
    /// when there is at least one, and at most a quarter of the round's `k`
    /// transmitters. Past a quarter, evaluating the close set per listener
    /// costs a large share of the exact scan it would spare (module docs).
    fn gather_close(&self, lt: usize, count: usize, k: usize, close: &mut CloseScratch) -> bool {
        if count == 0 || 4 * count > k {
            return false;
        }
        close.idx.clear();
        close.x.clear();
        close.y.clear();
        // Runs hold a transmitter or two: a loop beats a copy call per run.
        for &s in self.lists.sources(lt) {
            for i in self.run(s as usize) {
                close.idx.push(self.run_idx[i]);
                close.x.push(self.run_x[i]);
                close.y.push(self.run_y[i]);
            }
        }
        true
    }

    /// The refined stage's fold for a listener at `vp`: its near fold
    /// `near` — total, best gain and the best's slice index — with the
    /// gains of the `close` transmitters through `k` (the near scan's
    /// expression) merged in. Totals add; the winner is the larger gain, a
    /// tie going to the lower slice index — the canonical first strict
    /// maximum over the near and close transmitters together.
    fn refine<K: AlphaKernel>(
        &self,
        k: K,
        close: &mut CloseScratch,
        vp: Point,
        (near_total, mut best_sig, mut best): (f64, f64, Option<u32>),
    ) -> (f64, f64, Option<u32>) {
        close.gains.resize(close.idx.len(), 0.0);
        gain_batch_with(
            k,
            self.power,
            &close.x,
            &close.y,
            vp.x,
            vp.y,
            &mut close.gains,
        );
        let mut total = 0.0;
        for (&g, &i) in close.gains.iter().zip(&close.idx) {
            total += g;
            if g > best_sig || (g == best_sig && best.is_some_and(|b| i < b)) {
                (best_sig, best) = (g, Some(i));
            }
        }
        (near_total + total, best_sig, best)
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
            let partials = self.lists.ancestors(lt).map(|a| self.node_sums[a]);
            // Each cap on a single far signal is widened (covers bound
            // rounding and powf non-monotonicity; see FARFIELD_REL_SLACK).
            let widen = |(lo, hi, cap): Bracket| (lo, hi, cap * (1.0 + FARFIELD_REL_SLACK));
            let (far, ancestors, close_count) = self.tile_brackets(k, lt, partials);
            let (far, ancestors) = (widen(far), widen(ancestors));
            self.gather_near(lt, &mut sc);
            // Whether the refined stage runs for this tile, settled at its
            // first listener the ladder leaves undecided.
            let mut refines = None;

            // The ladder on one listener's near fold, and on a refinable
            // rung the refined stage. A slice-order fold's first strict
            // maximum is the canonical winner among the near transmitters.
            let near_idx = &sc.near_idx;
            let close = &mut sc.close;
            let pending = &mut sc.pending;
            let mut decide = |pos: usize, fold: ScanFold| {
                let v = round.listeners[order[pos] as usize];
                let inputs =
                    |(near_sum, best_sig, best): (f64, f64, Option<u32>),
                     (far_lo, far_hi, far_cap): Bracket| DecisionInputs {
                        near_sum,
                        best_sig,
                        best_tx: best.map(|i| round.transmitters[i as usize]),
                        far_lo,
                        far_hi,
                        far_cap,
                        noise: round.noise,
                        extra: round.extra(v),
                        beta: round.beta,
                        gain_rel_err: K::GAIN_REL_ERR,
                    };
                let near = (
                    fold.total,
                    fold.best_sig,
                    fold.best_idx.map(|i| near_idx[i]),
                );
                let rung = ladder(inputs(near, far));
                let refine = rung.refinable()
                    && *refines.get_or_insert_with(|| {
                        self.gather_close(lt, close_count, round.transmitters.len(), close)
                    });
                let decision = if refine {
                    let merged = self.refine(k, close, round.positions[v], near);
                    decide_refined(&mut stats, inputs(merged, ancestors))
                } else {
                    rung.settle(&mut stats)
                };
                match decision {
                    Decision::Decided(reception) => rx[pos] = reception,
                    Decision::Exact => pending.push(pos),
                }
            };

            // The tile's listeners, block-scanned against its near field.
            let tile = buckets.span(ti, ti + 1);
            let start = tile.start - span.start;
            let at = |i: usize| round.positions[round.listeners[order[start + i] as usize]];
            let (xs, ys) = (&sc.near_x, &sc.near_y);
            scan_listeners_with(k, p, xs, ys, tile.len(), at, |i, fold| {
                decide(start + i, fold);
            });
        }
        self.resolve_fallbacks(k, round, order, &sc.pending, &mut rx, &mut stats);

        let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
        for (&slot, reception) in order.iter().zip(rx) {
            out[slot as usize] = reception;
        }
        stats
    }

    /// The exact fallbacks of one chunk (`pending`, positions into `order`
    /// and `rx`), block-scanned over every transmitter (the last block
    /// padded), each a slice-order first pass through `k` settled by
    /// [`finish_fallback`] — which runs the canonical scan only when that
    /// pass cannot certify the listener (never for a canonical `k`).
    fn resolve_fallbacks<K: AlphaKernel>(
        &self,
        k: K,
        round: &RoundInputs<'_>,
        order: &[u32],
        pending: &[usize],
        rx: &mut [Reception],
        stats: &mut FarFieldStats,
    ) {
        let (p, alpha) = (self.power, self.alpha);
        let tx = round.transmitters;
        let listener = |i: usize| round.listeners[order[pending[i]] as usize];
        let at = |i: usize| round.positions[listener(i)];
        let (noise, beta) = (round.noise, round.beta);
        let settle = |i: usize, fold: ScanFold| {
            let v = listener(i);
            let vp = round.positions[v];
            let rescan = || scan_transmitters(p, alpha, round.positions, None, v, vp, tx);
            let (first, extra) = (ScanOutcome::from_fold(fold, tx), round.extra(v));
            rx[pending[i]] = finish_fallback::<K>(first, noise, extra, beta, stats, rescan);
        };
        let (xs, ys) = (&self.tx_xs[..], &self.tx_ys[..]);
        scan_listeners_with(k, p, xs, ys, pending.len(), at, settle);
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
        self.prepare(positions, transmitters);
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
        self.sum_coarse_targets(&buckets.tiles, executor);
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

    /// The round's first pass: sums the interaction list of every coarse
    /// node above the listener tiles `tiles` into `node_sums`, in
    /// [`HIER_TILE_CHUNK`]-node chunks on `executor`. Each sum depends on
    /// its node alone, so scheduling cannot reach it.
    fn sum_coarse_targets(&mut self, tiles: &[u32], executor: &dyn ChunkExecutor) {
        let mut targets = Vec::new();
        for &t in tiles {
            for a in self.lists.ancestors(t as usize) {
                // An ancestor already listed has its own ancestors listed.
                if std::mem::replace(&mut self.is_target[a], true) {
                    break;
                }
                targets.push(a);
            }
        }
        let this = &*self;
        let sums = with_bounded_kernel!(this.alpha, |k| map_ordered(
            executor,
            targets.len().div_ceil(HIER_TILE_CHUNK),
            |chunk| {
                let first = chunk * HIER_TILE_CHUNK;
                let last = (first + HIER_TILE_CHUNK).min(targets.len());
                targets[first..last]
                    .iter()
                    .map(|&a| this.lists.sum(k, a, &this.tx_count, this.power).0)
                    .collect::<Vec<_>>()
            }
        ));
        for (&a, sum) in targets.iter().zip(sums.into_iter().flatten()) {
            self.node_sums[a] = sum;
            self.is_target[a] = false;
        }
    }

    /// The round's serial prepare: clears last round's masses (touched
    /// nodes only), counts this round's transmitters per fine tile and
    /// propagates the counts up the tree, lays the transmitters out
    /// tile-major (a counting sort: slice indices ascending within a tile,
    /// with their coordinates), and gathers their coordinates in slice
    /// order.
    fn prepare(&mut self, positions: &[Point], transmitters: &[NodeId]) {
        for l in 0..self.touched.len() {
            for &t in &self.touched[l] {
                self.tx_count[t as usize] = 0;
            }
            self.touched[l].clear();
        }
        let fine = self.tree.fine();
        for &u in transmitters {
            let t = fine.tile_of(u);
            if self.tx_count[t] == 0 {
                self.touched[0].push(t as u32);
            }
            self.tx_count[t] += 1;
        }
        // Fine tiles are flat ids 0..num_fine. `tx_start[t + 1]` starts as
        // tile t's first slot and serves as its write cursor, ending as
        // its end, which is tile t + 1's start.
        let mut next = 0;
        for t in 0..fine.num_tiles() {
            self.tx_start[t + 1] = next;
            next += self.tx_count[t];
        }
        let k = transmitters.len();
        self.run_idx.resize(k, 0);
        self.run_x.resize(k, 0.0);
        self.run_y.resize(k, 0.0);
        for (idx, &u) in transmitters.iter().enumerate() {
            let slot = &mut self.tx_start[fine.tile_of(u) + 1];
            let at = *slot as usize;
            *slot += 1;
            self.run_idx[at] = idx as u32;
            self.run_x[at] = positions[u].x;
            self.run_y[at] = positions[u].y;
        }
        gather_points(positions, transmitters, &mut self.tx_xs, &mut self.tx_ys);
        for l in 1..self.touched.len() {
            // Split the borrows: children (level l-1) feed parents (level l).
            let (lower, upper) = self.touched.split_at_mut(l);
            for &c in &lower[l - 1] {
                let Some(parent) = self.lists.parent(c as usize) else {
                    unreachable!("a node below the root has a parent")
                };
                if self.tx_count[parent] == 0 {
                    upper[0].push(parent as u32);
                }
                self.tx_count[parent] += self.tx_count[c as usize];
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

    /// Two listener tiles of an 8 × 8 tiling over [0, 128]²: `m` far
    /// listeners in tile (0, 0), which hear the one sender at (120, 120)
    /// above the noise floor with nothing in their near ring, so the
    /// ladder leaves each to the exact scan, and `41 − m` listeners around
    /// the sender in tile (7, 7), which the ladder settles. For `m` in
    /// 1..=40 every tile size from 1 to 40 and every chunk of 1 to 40
    /// fallbacks is block-scanned, the last block padded. Each listener's
    /// jammer term puts its SINR 0.5% above β (even slots) or below it
    /// (odd ones), so a listener decided on another's fold is caught.
    /// The expected receptions follow from that, not from the exact tier,
    /// which runs the same block scan.
    #[test]
    fn padded_blocks_match_exact_at_every_partial_size() {
        use crate::{pow_alpha, ResolveEngine};
        for alpha in [3.0, 2.5] {
            let (beta, noise, power) = (1.5, 0.1, 1e6);
            let p = SinrParams::builder()
                .power(power)
                .alpha(alpha)
                .beta(beta)
                .noise(noise)
                .build()
                .unwrap();
            let ch = SinrChannel::new(p);
            for m in 1..=40 {
                let mut pos = vec![
                    Point::new(0.0, 0.0),
                    Point::new(128.0, 128.0),
                    Point::new(120.0, 120.0),
                ];
                let mut listeners = Vec::new();
                for i in 0..m.max(41 - m) {
                    if i < m {
                        listeners.push(pos.len());
                        let (x, y) = ((i % 9) as f64 * 1.5, (i / 9) as f64 * 1.5);
                        pos.push(Point::new(1.0 + x, 1.0 + y));
                    }
                    if i < 41 - m {
                        listeners.push(pos.len());
                        let (x, y) = ((i % 7) as f64 * 2.0, (i / 7) as f64 * 2.0);
                        pos.push(Point::new(113.5 + x, 113.5 + y));
                    }
                }
                let mut jam = vec![0.0; pos.len()];
                for (slot, &v) in listeners.iter().enumerate() {
                    let signal = power / pow_alpha(pos[2].distance_sq(pos[v]), alpha);
                    let margin = if slot % 2 == 0 { 1.005 } else { 0.995 };
                    jam[v] = signal / (beta * margin) - noise;
                }
                let jam = ChannelPerturbation::new(1.0, &jam);
                let tx = [2];
                let mut rng = SmallRng::seed_from_u64(0);
                let exact = ch.resolve_with(
                    &pos,
                    &tx,
                    &listeners,
                    &mut ResolveEngine::Exact,
                    &jam,
                    &SerialExecutor,
                    &mut rng,
                    None,
                );
                // One sender: even slots decode it, odd ones hear silence.
                let want: Vec<Reception> = (0..listeners.len())
                    .map(|slot| match slot % 2 {
                        0 => Reception::Message { from: 2 },
                        _ => Reception::Silence,
                    })
                    .collect();
                assert_eq!(exact, want, "alpha={alpha} m={m}");
                let mut engine =
                    HierarchicalFarFieldEngine::build_with_tiling(&pos, &p, 8).unwrap();
                let fast =
                    engine.resolve_sinr(&p, &pos, &tx, &listeners, Some(&jam), &SerialExecutor);
                assert_eq!(fast, want, "alpha={alpha} m={m}");
                assert_eq!(engine.stats().exact_fallbacks(), m as u64, "alpha={alpha}");
            }
        }
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
