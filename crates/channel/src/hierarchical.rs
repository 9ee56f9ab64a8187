//! The hierarchical far-field engine: Barnes–Hut-style tile-tree resolve
//! with the same **decision-exactness** contract as [`FarFieldEngine`].
//!
//! # Why a hierarchy
//!
//! The flat engine precomputes gain bounds for every tile *pair*, which is
//! quadratic in tile count: capping the tables ([`MAX_TILES_PER_SIDE`])
//! keeps memory bounded but forces tile occupancy — and with it the exact
//! near-scan cost per listener — to grow linearly with `n`. The
//! [`TileTree`] removes the quadratic table: fine tiles stay small (near
//! scans stay O(occupancy)), and the far field is aggregated against
//! tree nodes chosen per listener tile by an opening criterion, touching
//! O(log n) nodes per traversal with **no** pairwise precompute.
//!
//! # The traversal
//!
//! Per round, transmitters are bucketed into fine tiles and their counts
//! propagated up the tree (only nodes actually touched are visited). For
//! each distinct listener tile the engine walks the tree from the root:
//!
//! * nodes with no transmitters beneath them are skipped;
//! * nodes whose fine-tile span intersects the listener's near ring
//!   ([`HIER_NEAR_RING`] tiles, wider than the flat engine's
//!   [`NEAR_RING`](crate::NEAR_RING)) are descended (their mass may include
//!   near transmitters, which the exact near scan owns);
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
//! content bboxes — so the 5-rung decision ladder ([`decide_ladder`]) and
//! its exactness argument carry over verbatim from the flat engine. The
//! receptions are **bit-identical** to the exact scan on
//! all inputs; `tests/farfield_equivalence.rs` and
//! `tests/hierarchical_bounds.rs` enforce it end to end.
//!
//! # In-round parallelism
//!
//! Both halves of a round run on a [`ChunkExecutor`] through
//! [`map_ordered`], in fixed-size chunks that never depend on the thread
//! count, so any executor scheduling produces byte-identical results:
//!
//! * **Traversals.** The round's distinct listener tiles are collected
//!   serially in first-seen order and traversed in [`HIER_TILE_CHUNK`]-tile
//!   chunks. Each tile's aggregate comes from the same sequential walk
//!   whichever thread runs it, and the aggregates are written back in
//!   order.
//! * **Decisions.** Listeners are split into [`HIER_CHUNK`]-sized chunks.
//!   Each chunk runs the ladder per listener and collects the listeners
//!   the ladder leaves undecided; those exact fallbacks are then resolved
//!   [`LISTENER_BLOCK`] at a time through the fused [`scan_block`] kernel
//!   (each lane bit-identical to the scalar fold), the tail one by one.
//!   The per-chunk ladder counters are summed (u64 addition —
//!   commutative).

use fading_geom::{Point, PointsSoA, TileTree};

use crate::exec::{map_ordered, ChunkExecutor};
use crate::farfield::{decide_ladder, finish_exact, Decision, DecisionInputs};
use crate::kernels::{gain_batch, scan_block, LISTENER_BLOCK};
use crate::sinr::{scan_transmitters_soa, ScanOutcome};
use crate::{
    pow_alpha, ChannelPerturbation, FarFieldStats, NodeId, Reception, SinrParams,
    FARFIELD_REL_SLACK,
};

/// Average number of nodes per *fine* tile the hierarchical engine aims
/// for. Matches the flat engine's occupancy target, but without the flat
/// engine's tile-count cap the occupancy actually stays at this value as
/// `n` grows.
pub const HIER_TARGET_TILE_OCCUPANCY: usize = 64;

/// Upper bound on fine tiles per side (memory is linear in tile count —
/// `512² = 262144` fine tiles ≈ a few MB of aggregates — so the cap is
/// far above [`MAX_TILES_PER_SIDE`](crate::MAX_TILES_PER_SIDE)).
pub const HIER_MAX_TILES_PER_SIDE: usize = 512;

/// Opening criterion: a far tree node is accepted as one aggregate when
/// `d_max² ≤ ratio · d_min²` between the listener tile's and the node's
/// content bboxes (i.e. `d_max ≤ 1.5·d_min`), otherwise its children are
/// visited. Smaller = tighter brackets but deeper traversals; 2.25 keeps
/// the worst accepted gain ratio `(d_max/d_min)^α` comparable to the flat
/// engine's near-far tile pairs while still aggregating geometrically.
pub const HIER_ACCEPT_RATIO_SQ: f64 = 2.25;

/// Chebyshev fine-tile radius of the tree engine's near field: tiles
/// within this ring of the listener's tile are scanned exactly. Wider than
/// the flat engine's [`NEAR_RING`](crate::NEAR_RING); see the
/// [module docs](self) for why.
pub const HIER_NEAR_RING: usize = 2;

/// Listeners per parallel chunk. Fixed (never derived from thread count)
/// so chunk boundaries — and thus all floating-point accumulation orders —
/// are identical under any executor.
pub const HIER_CHUNK: usize = 1024;

/// Distinct listener tiles per parallel traversal task. Fixed for the same
/// reason as [`HIER_CHUNK`]; each tile's walk is sequential either way.
pub const HIER_TILE_CHUNK: usize = 64;

/// Chunk-local buffers for [`HierarchicalFarFieldEngine`]'s parallel
/// listener phase: one per chunk closure, so concurrent
/// `decide_listener` calls never share mutable state.
#[derive(Debug, Default)]
struct NearScratch {
    /// Per-near-tile batched gains (bucket order).
    near_gains: Vec<f64>,
    /// Exact-fallback gains over all transmitters (slice order), for the
    /// tail that does not fill a [`LISTENER_BLOCK`].
    fallback_gains: Vec<f64>,
    /// Chunk offsets of the listeners the ladder left to the exact scan.
    pending: Vec<usize>,
}

/// Multi-resolution far-field engine over a [`TileTree`]. Built once per
/// deployment by
/// [`ResolveEngine::build`](crate::ResolveEngine::build);
/// see the [module docs](self) for the traversal and its exactness
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
    /// Per-round transmitter buckets per fine tile: `(node, slice index)`.
    tx_in_tile: Vec<Vec<(u32, u32)>>,
    /// Per-tile contiguous transmitter coordinates, parallel to
    /// `tx_in_tile` (bucket order), so near-ring scans run as one fused
    /// gain batch per tile.
    tx_x_in_tile: Vec<Vec<f64>>,
    tx_y_in_tile: Vec<Vec<f64>>,
    /// Round-level gathered transmitter coordinates (slice order) for the
    /// batched exact fallback. Written during the serial prepare phase,
    /// read-only during the parallel phases (gain buffers are chunk-local
    /// — see [`NearScratch`]).
    tx_xs: Vec<f64>,
    tx_ys: Vec<f64>,
    /// Per-round transmitter count under each tree node, per level.
    tx_count: Vec<Vec<u32>>,
    /// Nodes touched this round, per level (level 0 doubles as the list of
    /// fine tiles whose `tx_in_tile` bucket needs clearing).
    touched: Vec<Vec<u32>>,
    /// Per-listener-tile far aggregates `(lo, hi, cap)`, valid for the
    /// tiles whose `far_stamp` equals the current round's `stamp`.
    far: Vec<(f64, f64, f64)>,
    far_stamp: Vec<u64>,
    stamp: u64,
    /// This round's distinct listener tiles, in first-seen order.
    listener_tiles: Vec<u32>,
    stats: FarFieldStats,
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
            tx_x_in_tile: vec![Vec::new(); num_fine],
            tx_y_in_tile: vec![Vec::new(); num_fine],
            tx_xs: Vec::new(),
            tx_ys: Vec::new(),
            tx_count: (0..num_levels).map(|l| vec![0u32; tree.num_nodes(l)]).collect(),
            touched: vec![Vec::new(); num_levels],
            far: vec![(0.0, 0.0, 0.0); num_fine],
            far_stamp: vec![0; num_fine],
            stamp: 0,
            listener_tiles: Vec::new(),
            stats: FarFieldStats::default(),
            tree,
        })
    }

    /// Whether this engine was built over exactly these `positions` and
    /// SINR parameters (size, power, α, and a first/last position
    /// fingerprint — the same discipline as
    /// [`FarFieldEngine::matches`](crate::FarFieldEngine::matches)).
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

    /// The far-field aggregate `(lo, hi, cap)` the last round with
    /// transmitters computed for listener fine tile `t`, or `None` when no
    /// listener of that round sat in `t`. Exposed so tests can pin the
    /// aggregates' bits across thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn far_aggregate(&self, t: usize) -> Option<(f64, f64, f64)> {
        (self.stamp > 0 && self.far_stamp[t] == self.stamp).then(|| self.far[t])
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

    /// One Barnes–Hut traversal: the far-field aggregate `(lo, hi, cap)`
    /// for listeners in fine tile `lt`, over this round's transmitter
    /// masses. `stack` is caller-provided scratch of `(level, col, row)`
    /// node addresses; children are pushed in row-major order, so the
    /// accumulation order is a function of the tree and the masses alone.
    fn traverse(&self, lt: usize, stack: &mut Vec<(usize, usize, usize)>) -> (f64, f64, f64) {
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
        let alpha = self.alpha;
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
            lo += m * (p / pow_alpha(d_max_sq, alpha));
            let g_hi = p / pow_alpha(d_min_sq, alpha);
            hi += m * g_hi;
            cap = cap.max(g_hi);
        }
        (lo, hi, cap)
    }

    /// One listener's decision: exact near scan + cached far bracket
    /// through the shared ladder. Read-only over the engine (runs
    /// concurrently across chunks); `stats` and `near_gains` are the
    /// caller's chunk-local accumulator and gain buffer. A
    /// [`Decision::Exact`] is left to the caller's batched fallback.
    #[allow(clippy::too_many_arguments)] // the round's scalars, spelled out
    fn decide_listener(
        &self,
        v: NodeId,
        positions: &[Point],
        perturbation: Option<&ChannelPerturbation<'_>>,
        noise: f64,
        beta: f64,
        stats: &mut FarFieldStats,
        near_gains: &mut Vec<f64>,
    ) -> Decision {
        let p = self.power;
        let alpha = self.alpha;
        let vp = positions[v];
        let fine = self.tree.fine();
        let lt = fine.tile_of(v);
        debug_assert_eq!(self.far_stamp[lt], self.stamp, "prepare pass missed tile {lt}");
        let (far_lo, far_hi, far_cap) = self.far[lt];
        // Widened cap on any single far signal (covers bound rounding and
        // powf non-monotonicity; see FARFIELD_REL_SLACK).
        let far_cap = far_cap * (1.0 + FARFIELD_REL_SLACK);

        // Exact near-field scan: one fused gain batch per near tile
        // (canonical per-pair expression, bucket order), folded in bucket
        // order with winner = minimal slice index among the strict maxima
        // — exactly the canonical fold's first-strict-max.
        let mut near_sum = 0.0f64;
        let mut best_sig = 0.0f64;
        let mut best_tx: Option<NodeId> = None;
        let mut best_idx = u32::MAX;
        for near_t in fine.neighborhood(lt, HIER_NEAR_RING) {
            let bucket = &self.tx_in_tile[near_t];
            if bucket.is_empty() {
                continue;
            }
            near_gains.resize(bucket.len(), 0.0);
            gain_batch(
                p,
                alpha,
                &self.tx_x_in_tile[near_t],
                &self.tx_y_in_tile[near_t],
                vp.x,
                vp.y,
                near_gains,
            );
            for (&sig, &(u, idx)) in near_gains.iter().zip(bucket) {
                let u = u as usize;
                debug_assert_ne!(u, v, "a node cannot transmit and listen simultaneously");
                near_sum += sig;
                if sig > best_sig {
                    best_sig = sig;
                    best_tx = Some(u);
                    best_idx = idx;
                } else if sig == best_sig && sig > 0.0 && idx < best_idx {
                    best_tx = Some(u);
                    best_idx = idx;
                }
            }
        }

        decide_ladder(
            stats,
            DecisionInputs {
                near_sum,
                best_sig,
                best_tx,
                far_lo,
                far_hi,
                far_cap,
                noise,
                extra: perturbation.map(|pt| pt.extra_at(v)),
                beta,
                // The tree scans its near tiles canonically at every α.
                gain_rel_err: 0.0,
            },
        )
    }

    /// Resolves one listener chunk: the ladder per listener, then the
    /// chunk's exact fallbacks in [`LISTENER_BLOCK`]-wide fused scans over
    /// the round's gathered transmitters (`tx_xs`/`tx_ys`, read-only here),
    /// the tail that does not fill a block one listener at a time. Every
    /// fallback is the canonical fold, so the receptions are
    /// bit-identical to [`SinrChannel`](crate::SinrChannel) whichever way
    /// it was scanned.
    #[allow(clippy::too_many_arguments)] // the round's scalars, spelled out
    fn resolve_chunk(
        &self,
        chunk: &[NodeId],
        positions: &[Point],
        transmitters: &[NodeId],
        perturbation: Option<&ChannelPerturbation<'_>>,
        noise: f64,
        beta: f64,
        stats: &mut FarFieldStats,
    ) -> Vec<Reception> {
        let mut scratch = NearScratch::default();
        let mut rx = Vec::with_capacity(chunk.len());
        for &v in chunk {
            let decision = self.decide_listener(
                v,
                positions,
                perturbation,
                noise,
                beta,
                stats,
                &mut scratch.near_gains,
            );
            rx.push(match decision {
                Decision::Decided(reception) => reception,
                Decision::Exact => {
                    scratch.pending.push(rx.len());
                    Reception::Silence
                }
            });
        }

        let (p, alpha) = (self.power, self.alpha);
        let finish = |i: usize, outcome: ScanOutcome| {
            let extra = perturbation.map(|pt| pt.extra_at(chunk[i]));
            finish_exact(outcome, noise, extra, beta)
        };
        let mut blocks = scratch.pending.chunks_exact(LISTENER_BLOCK);
        for block in &mut blocks {
            let mut vx = [0.0; LISTENER_BLOCK];
            let mut vy = [0.0; LISTENER_BLOCK];
            for (j, &i) in block.iter().enumerate() {
                let vp = positions[chunk[i]];
                vx[j] = vp.x;
                vy[j] = vp.y;
            }
            let folds = scan_block(p, alpha, &self.tx_xs, &self.tx_ys, &vx, &vy);
            for (&i, fold) in block.iter().zip(folds) {
                rx[i] = finish(i, ScanOutcome::from_fold(fold, transmitters));
            }
        }
        for &i in blocks.remainder() {
            let v = chunk[i];
            let outcome = scan_transmitters_soa(
                p,
                alpha,
                v,
                positions[v],
                transmitters,
                &self.tx_xs,
                &self.tx_ys,
                &mut scratch.fallback_gains,
            );
            rx[i] = finish(i, outcome);
        }
        rx
    }

    /// Resolves one round with the tree-aggregated fast path; reception
    /// semantics (and bits) are exactly those of
    /// [`SinrChannel::resolve`](crate::SinrChannel). `perturbation` must be
    /// `None` for a neutral perturbation, mirroring the dispatch in
    /// `SinrChannel::resolve_core`. Listener chunks run on `executor`; see
    /// the [module docs](self) for why scheduling cannot affect results.
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
        let beta = params.beta();
        let noise = match perturbation {
            Some(pt) => params.noise() * pt.noise_scale(),
            None => params.noise(),
        };
        self.stats.rounds += 1;

        if transmitters.is_empty() {
            // The canonical loop yields Silence for every listener when
            // nobody transmits (best_tx stays None).
            self.stats.empty_round_silences += listeners.len() as u64;
            return vec![Reception::Silence; listeners.len()];
        }

        // Clear last round's masses (touched nodes only), then bucket this
        // round's transmitters by fine tile — remembering slice indices for
        // the canonical tie-break — and propagate counts up the tree.
        for l in 0..self.touched.len() {
            for &t in &self.touched[l] {
                self.tx_count[l][t as usize] = 0;
                if l == 0 {
                    self.tx_in_tile[t as usize].clear();
                    self.tx_x_in_tile[t as usize].clear();
                    self.tx_y_in_tile[t as usize].clear();
                }
            }
            self.touched[l].clear();
        }
        for (idx, &u) in transmitters.iter().enumerate() {
            let t = self.tree.fine().tile_of(u);
            if self.tx_in_tile[t].is_empty() {
                self.touched[0].push(t as u32);
            }
            self.tx_in_tile[t].push((u as u32, idx as u32));
            self.tx_x_in_tile[t].push(self.soa.xs()[u]);
            self.tx_y_in_tile[t].push(self.soa.ys()[u]);
            self.tx_count[0][t] += 1;
        }
        // Round-level SoA gather for the exact fallback scan: written here
        // in the serial prepare, read-only during the parallel phases.
        self.soa.gather(transmitters, &mut self.tx_xs, &mut self.tx_ys);
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
        self.stamp += 1;

        // The round's distinct listener tiles, in first-seen order (all
        // listeners of a tile share its aggregate).
        let mut tiles = std::mem::take(&mut self.listener_tiles);
        tiles.clear();
        for &v in listeners {
            let lt = self.tree.fine().tile_of(v);
            if self.far_stamp[lt] != self.stamp {
                self.far_stamp[lt] = self.stamp;
                tiles.push(lt as u32);
            }
        }

        // Parallel traversals in fixed-size tile chunks, returned in chunk
        // order and written back in tile order.
        let this = &*self;
        let aggregates = map_ordered(executor, tiles.len().div_ceil(HIER_TILE_CHUNK), |chunk| {
            let start = chunk * HIER_TILE_CHUNK;
            let end = (start + HIER_TILE_CHUNK).min(tiles.len());
            let mut stack = Vec::new();
            tiles[start..end]
                .iter()
                .map(|&lt| this.traverse(lt as usize, &mut stack))
                .collect::<Vec<_>>()
        });
        for (&lt, aggregate) in tiles.iter().zip(aggregates.into_iter().flatten()) {
            self.far[lt as usize] = aggregate;
        }
        self.listener_tiles = tiles;

        // Parallel decisions: fixed-size listener chunks, returned in chunk
        // order, so executor scheduling cannot reach the results.
        let this = &*self;
        let chunks = map_ordered(executor, listeners.len().div_ceil(HIER_CHUNK), |chunk| {
            let start = chunk * HIER_CHUNK;
            let end = (start + HIER_CHUNK).min(listeners.len());
            let mut local = FarFieldStats::default();
            let rx = this.resolve_chunk(
                &listeners[start..end],
                positions,
                transmitters,
                perturbation,
                noise,
                beta,
                &mut local,
            );
            (rx, local)
        });

        let mut out = Vec::with_capacity(listeners.len());
        for (rx, local) in chunks {
            out.extend(rx);
            // Per-rung counters are u64 sums, so any chunking yields the
            // same totals.
            self.stats.add(&local);
        }
        out
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
        let fast = engine.resolve_sinr(
            &p,
            &pos,
            &transmitters,
            &listeners,
            None,
            &SerialExecutor,
        );
        assert_eq!(exact, fast);
        let s = engine.stats();
        assert_eq!(s.rounds, 1);
        assert_eq!(s.listeners_resolved(), listeners.len() as u64);
        assert_eq!(
            s.fast_decisions() + s.noise_floor_silences + s.exact_fallbacks(),
            s.listeners_resolved()
        );
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
            let fast = engine.resolve_sinr(
                &p,
                &pos,
                &transmitters,
                &listeners,
                None,
                &SerialExecutor,
            );
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
    }
}
