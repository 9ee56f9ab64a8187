//! The far-field interference engine: tile-aggregated SINR resolve with a
//! **decision-exactness** contract.
//!
//! # The idea
//!
//! Exact SINR resolve walks every transmitter per listener — O(|T|·|L|)
//! work per round, which is the wall that stops the simulator past the
//! [`GainCache`] size guard. But the SINR *decision* rarely needs the exact
//! far interference: the paper's own analysis (Lemmas 3–4) bounds the
//! contribution of each exponential annulus `A^i_t(u)` by its population
//! times the extremal gain over the annulus, and that argument turns
//! directly into a kernel.
//!
//! [`FarFieldEngine`] partitions the deployment into a grid of tiles (a
//! [`TileIndex`] over the node positions) and precomputes, for every tile
//! pair `(t, s)`, the minimal and maximal pairwise gain `P/d^α` attainable
//! between their members — from the tiles' tight *content* bounding boxes.
//! Per round, transmitters are bucketed by tile; per listener, the engine:
//!
//! 1. scans the **near field** (the listener tile's 3×3 Chebyshev
//!    neighborhood) with the per-pair gain expression;
//! 2. aggregates every **far** tile as `mass × gain` bounds, giving
//!    `I_lo ≤ I_far ≤ I_hi` and a cap on any single far signal;
//! 3. decides the reception from the bracket: when `best_sig` clears (or
//!    misses) `β·(noise + I)` for *both* endpoints — after widening the
//!    bracket by [`FARFIELD_REL_SLACK`] to absorb floating-point
//!    reordering — the decision is provably the one the exact path takes;
//! 4. otherwise **falls back** to the canonical exact scan for that
//!    listener (shared code with [`SinrChannel`], so it is identical by
//!    construction).
//!
//! For α ∈ {2, 3, 4, 6} every gain above is the canonical expression. For
//! any other α the engine computes them with the crate's bounded
//! generic-α kernel (gains within `2δ`, δ = 2⁻⁴⁰, of the canonical ones)
//! and widens each certificate by that error; an exact fallback then runs
//! a bounded slice-order scan first and the canonical `powf` scan only if
//! that scan's bracket cannot settle the listener. DESIGN.md §10.2 has the
//! argument, including why the widened ladder still names the canonical
//! winner.
//!
//! # The decision-exactness contract
//!
//! The far-field tier is *not* an approximation: its `Reception` vectors
//! are **bit-identical** to `resolve` on all inputs. The
//! pruned path only ever skips work whose outcome is already certain:
//!
//! * **Certain silence** — the exact denominator is at least the (possibly
//!   jammed, noise-scaled) floor `N`, so if neither the near-field best nor
//!   the far-field cap can reach `β·N`, no transmitter decodes.
//! * **Winner identification** — the canonical winner is the *first*
//!   transmitter (in slice order) attaining the maximal signal. Far
//!   signals are capped by the per-tile upper gain; only when the near
//!   best *strictly* beats that cap is the winner certainly near, in which
//!   case the near scan (same expression, first-index tie-break) has
//!   already identified it exactly — or, under the bounded kernel, a
//!   certified `Message` over a floor ≥ 0 proves its sender strictly
//!   strongest (β ≥ 1).
//! * **Bracketed decision** — the exact interference the canonical fold
//!   produces differs from `near + far` only by summation order and the
//!   bounded kernel's error, i.e. by a relative error ≪
//!   [`FARFIELD_REL_SLACK`] (`FARFIELD_SLACK_BUDGET` sums it); the widened
//!   `[I_lo, I_hi]` bracket therefore contains it, and a decision that is
//!   invariant across the bracket is the exact decision.
//!
//! Every uncertain case — non-finite intermediate (including a NaN from
//! the bounded kernel), no near winner, a far tile that could rival the
//! near best, a bracket that straddles the threshold — takes the exact
//! fallback. The equivalence proptests in
//! `tests/farfield_equivalence.rs` enforce the contract end to end, and
//! `tests/farfield_bounds.rs` checks the bounds bracket real sums and that
//! adversarial clustered deployments do trigger the fallback.
//!
//! Stochastic channels are excluded by design: Rayleigh fading draws one
//! rng variate per (listener, transmitter) pair in canonical order, so any
//! pruning would desynchronize the rng stream. `RayleighSinrChannel`
//! therefore stops at the gain-cache tier ([`Channel::max_tier`]).
//!
//! [`Channel::max_tier`]: crate::Channel::max_tier

use fading_geom::{Point, PointsSoA, TileIndex};

use crate::kernels::{
    gain_batch_with, pow_alpha_batch_with, with_bounded_kernel, AlphaKernel, ScanScratch,
    BOUNDED_POW_REL_ERR,
};
use crate::sinr::{scan_soa_with, scan_transmitters_batched, ScanOutcome};
use crate::{ChannelPerturbation, NodeId, Reception, SinrParams};

/// Average number of nodes per tile the engine aims for when sizing the
/// grid (see [`TileIndex::with_target_occupancy`]).
pub const DEFAULT_TARGET_TILE_OCCUPANCY: usize = 64;

/// Upper bound on tiles per side: caps the pair-bound tables at
/// `(36²)² ≈ 1.7M` entries (~13 MB per table) regardless of `n`.
pub const MAX_TILES_PER_SIDE: usize = 36;

/// Chebyshev tile radius of the near field: tiles within this ring of the
/// listener's tile are scanned exactly; everything further is aggregated.
pub const NEAR_RING: usize = 1;

/// Relative slack by which the far-field bracket is widened before the
/// decision test.
///
/// It must absorb every source of discrepancy between the bracket and the
/// value the canonical fold computes: summation reorder, the bounded
/// generic-α kernel's error, and the rounding of the distance bounds. The
/// crate's `FARFIELD_SLACK_BUDGET` constant sums them (≈ 6.2e-11 at
/// k = 2¹⁸ transmitters) and a unit test keeps that sum below a tenth of
/// this slack. Extra slack only costs a sliver of fallbacks near the
/// decision boundary.
pub const FARFIELD_REL_SLACK: f64 = 1e-9;

/// Transmitter count the slack budget is sized for: the largest round
/// any committed workload resolves on a tiled tier (the n = 2²⁰ probe at
/// 25% contention, k = 2¹⁸). Past it the reorder term still fits the
/// slack itself up to k ≈ 4·10⁶, only without the tenfold margin.
pub(crate) const SLACK_BUDGET_TRANSMITTERS: usize = 1 << 18;

/// Relative rounding allowance for the certified distance bounds: the
/// few-ulp error of the tile and tree-node distance brackets, raised to
/// `α/2`, plus the (unspecified, but ulp-sized) non-monotonicity of
/// `powf` for non-integer `α`.
pub(crate) const BOUND_ROUNDING_REL_ERR: f64 = 1.0 / (1u64 << 44) as f64;

/// Everything [`FARFIELD_REL_SLACK`] must cover in a round with `k`
/// transmitters, as a relative error of the bracketed sum:
///
/// * **reorder** — the bracket and the canonical slice-order fold add the
///   same gains in different orders; each fold errs by at most
///   `(k − 1)·2⁻⁵³` of the sum, so they differ by `k·2⁻⁵²` at most;
/// * **bounded kernel** — near gains and `best_sig` computed by the
///   bounded generic-α kernel are each within `2δ` of the canonical gain
///   (`δ` = `BOUNDED_POW_REL_ERR` = 2⁻⁴⁰), once for the near sum and
///   once for the best signal;
/// * **bound rounding** — [`BOUND_ROUNDING_REL_ERR`].
pub(crate) const fn slack_budget(k: usize) -> f64 {
    k as f64 * f64::EPSILON + 2.0 * (2.0 * BOUNDED_POW_REL_ERR) + BOUND_ROUNDING_REL_ERR
}

/// The slack budget at [`SLACK_BUDGET_TRANSMITTERS`] (≈ 6.2e-11, of which
/// the reorder term is ≈ 5.8e-11).
pub(crate) const FARFIELD_SLACK_BUDGET: f64 = slack_budget(SLACK_BUDGET_TRANSMITTERS);

// The budget must leave the slack a tenfold margin; checked at compile
// time (and by `tests::slack_budget_leaves_a_tenfold_margin`).
const _: () = assert!(FARFIELD_SLACK_BUDGET <= FARFIELD_REL_SLACK / 10.0);

/// Decision counters accumulated by a [`FarFieldEngine`] across rounds,
/// one named counter per rung of the decision ladder (module docs,
/// "decision-exactness contract") plus the trivial transmitter-free case.
///
/// Every listener decision lands in **exactly one** bucket, so the sum of
/// all seven counters ([`FarFieldStats::listeners_resolved`]) equals the
/// total number of listener resolutions performed — the reconciliation
/// invariant the equivalence suite asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarFieldStats {
    /// Rounds resolved through the engine.
    pub rounds: u64,
    /// Listeners of transmitter-free rounds: decided (Silence) without
    /// entering the ladder, since the canonical fold has no candidate.
    pub empty_round_silences: u64,
    /// Rung 1: a non-finite intermediate (overflow, coincident nodes,
    /// touching tile boxes) voided the bracket reasoning → exact fallback.
    pub nonfinite_fallbacks: u64,
    /// Rung 2: certain silence — neither the near best nor the far cap
    /// could reach the (possibly jammed, noise-scaled) floor `β·N`.
    pub noise_floor_silences: u64,
    /// Rung 3: no near candidate, yet rung 2 could not rule out a far
    /// decode → exact fallback (only the exact scan can name the winner).
    pub no_near_winner_fallbacks: u64,
    /// Rung 4: some far tile's gain cap rivals the near best, so the
    /// canonical winner might be a far transmitter → exact fallback.
    pub far_rival_fallbacks: u64,
    /// Rung 5: the slack-widened interference bracket settled the decision
    /// (both endpoints agree).
    pub bracket_decisions: u64,
    /// Rung 5: the bracket straddled the `β` threshold → exact fallback.
    pub bracket_straddle_fallbacks: u64,
    /// Exact fallbacks (any rung) that the bounded-kernel first pass could
    /// not settle, so the canonical `powf` scan ran for them. A sub-count
    /// of [`exact_fallbacks`](FarFieldStats::exact_fallbacks), not a rung:
    /// it never enters [`listeners_resolved`](FarFieldStats::listeners_resolved).
    /// Always 0 for α ∈ {2, 3, 4, 6}, whose first pass is canonical.
    pub canonical_rescans: u64,
}

impl FarFieldStats {
    /// Adds every counter of `other` into `self` (the counters are u64
    /// sums, so merge order never matters).
    pub fn add(&mut self, other: &FarFieldStats) {
        self.rounds += other.rounds;
        self.empty_round_silences += other.empty_round_silences;
        self.nonfinite_fallbacks += other.nonfinite_fallbacks;
        self.noise_floor_silences += other.noise_floor_silences;
        self.no_near_winner_fallbacks += other.no_near_winner_fallbacks;
        self.far_rival_fallbacks += other.far_rival_fallbacks;
        self.bracket_decisions += other.bracket_decisions;
        self.bracket_straddle_fallbacks += other.bracket_straddle_fallbacks;
        self.canonical_rescans += other.canonical_rescans;
    }

    /// Listener decisions settled by the near scan + far bracket alone
    /// (including listeners of transmitter-free rounds).
    #[must_use]
    pub fn fast_decisions(&self) -> u64 {
        self.empty_round_silences + self.bracket_decisions
    }

    /// Listener decisions that required the exact canonical scan — the sum
    /// of every fallback rung.
    #[must_use]
    pub fn exact_fallbacks(&self) -> u64 {
        self.nonfinite_fallbacks
            + self.no_near_winner_fallbacks
            + self.far_rival_fallbacks
            + self.bracket_straddle_fallbacks
    }

    /// Total listener resolutions performed: the sum of every bucket.
    /// Equals `fast_decisions() + noise_floor_silences + exact_fallbacks()`
    /// by construction.
    #[must_use]
    pub fn listeners_resolved(&self) -> u64 {
        self.empty_round_silences
            + self.nonfinite_fallbacks
            + self.noise_floor_silences
            + self.no_near_winner_fallbacks
            + self.far_rival_fallbacks
            + self.bracket_decisions
            + self.bracket_straddle_fallbacks
    }

    /// Fraction of listener decisions that fell back to the exact scan
    /// (0.0 when no listener has been resolved yet).
    #[must_use]
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.listeners_resolved();
        if total == 0 {
            0.0
        } else {
            self.exact_fallbacks() as f64 / total as f64
        }
    }
}

/// Per-tile-pair gain bounds plus per-round scratch for the tile-aggregated
/// resolve. Built once per deployment by
/// [`ResolveEngine::build`](crate::ResolveEngine::build);
/// see the [module docs](self) for the algorithm and its exactness
/// argument.
#[derive(Debug, Clone)]
pub struct FarFieldEngine {
    tiles: TileIndex,
    n: usize,
    power: f64,
    alpha: f64,
    first: Point,
    last: Point,
    /// Lower gain bound per tile pair (`t * num_tiles + s`): attained at
    /// the maximal content-bbox distance. Zero for pairs with an empty side.
    pair_g_lo: Vec<f64>,
    /// Upper gain bound per tile pair: attained at the minimal content-bbox
    /// distance (`+∞` when the boxes touch — such pairs always fall back).
    pair_g_hi: Vec<f64>,
    /// Live-node flags mirrored from the simulator's knockout/churn state.
    alive: Vec<bool>,
    /// Live members per tile, maintained incrementally.
    alive_per_tile: Vec<u32>,
    num_alive: usize,
    /// SoA mirror of the build positions, feeding the batched kernels
    /// (coherent with `positions` whenever `matches` holds).
    soa: PointsSoA,
    /// Per-round transmitter buckets: `(node, slice index)` per tile.
    tx_in_tile: Vec<Vec<(u32, u32)>>,
    /// Per-tile contiguous transmitter coordinates, parallel to
    /// `tx_in_tile` (bucket order), so near-ring scans run as one fused
    /// gain batch per tile.
    tx_x_in_tile: Vec<Vec<f64>>,
    tx_y_in_tile: Vec<Vec<f64>>,
    /// Tiles with at least one transmitter this round.
    occupied: Vec<u32>,
    /// Round-level gathered transmitter coordinates + gain buffer for the
    /// batched exact fallback, and the near-scan gain buffer.
    scan: ScanScratch,
    near_gains: Vec<f64>,
    /// Lazily computed per-listener-tile far aggregates, validated by
    /// `far_stamp` against the current round's `stamp`.
    far_lo: Vec<f64>,
    far_hi: Vec<f64>,
    far_cap: Vec<f64>,
    far_stamp: Vec<u64>,
    stamp: u64,
    stats: FarFieldStats,
}

impl FarFieldEngine {
    /// Builds an engine for `positions` under `params`, with the default
    /// tiling ([`DEFAULT_TARGET_TILE_OCCUPANCY`] nodes per tile, at most
    /// [`MAX_TILES_PER_SIDE`] tiles per side).
    ///
    /// Returns `None` for an empty deployment or non-finite coordinates
    /// (the exact paths define the semantics of such inputs).
    #[must_use]
    pub fn build(positions: &[Point], params: &SinrParams) -> Option<Self> {
        let tiles = TileIndex::with_target_occupancy(
            positions,
            DEFAULT_TARGET_TILE_OCCUPANCY,
            MAX_TILES_PER_SIDE,
        )?;
        Self::from_tiles(tiles, positions, params)
    }

    /// Builds an engine over an explicit `tiles_per_side × tiles_per_side`
    /// grid. Exposed so tests can force multi-tile layouts on small
    /// deployments; `build` is the production sizing.
    #[must_use]
    pub fn build_with_tiling(
        positions: &[Point],
        params: &SinrParams,
        tiles_per_side: usize,
    ) -> Option<Self> {
        let tiles = TileIndex::build(positions, tiles_per_side)?;
        Self::from_tiles(tiles, positions, params)
    }

    fn from_tiles(tiles: TileIndex, positions: &[Point], params: &SinrParams) -> Option<Self> {
        if !positions.iter().all(|p| p.is_finite()) {
            return None;
        }
        let num_tiles = tiles.num_tiles();
        let p = params.power();
        let alpha = params.alpha();
        let mut pair_g_lo = vec![0.0; num_tiles * num_tiles];
        let mut pair_g_hi = vec![0.0; num_tiles * num_tiles];
        with_bounded_kernel!(alpha, |k| fill_pair_tables(
            k,
            &tiles,
            p,
            &mut pair_g_lo,
            &mut pair_g_hi
        ));
        let alive_per_tile = (0..num_tiles).map(|t| tiles.count(t) as u32).collect();
        Some(FarFieldEngine {
            tiles,
            n: positions.len(),
            power: p,
            alpha,
            first: positions[0],
            last: positions[positions.len() - 1],
            pair_g_lo,
            pair_g_hi,
            alive: vec![true; positions.len()],
            alive_per_tile,
            num_alive: positions.len(),
            soa: PointsSoA::from_points(positions),
            tx_in_tile: vec![Vec::new(); num_tiles],
            tx_x_in_tile: vec![Vec::new(); num_tiles],
            tx_y_in_tile: vec![Vec::new(); num_tiles],
            occupied: Vec::new(),
            scan: ScanScratch::new(),
            near_gains: Vec::new(),
            far_lo: vec![0.0; num_tiles],
            far_hi: vec![0.0; num_tiles],
            far_cap: vec![0.0; num_tiles],
            far_stamp: vec![0; num_tiles],
            stamp: 0,
            stats: FarFieldStats::default(),
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

    /// Marks node `w` dead, decrementing its tile's live count. Idempotent.
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
            self.alive_per_tile[self.tiles.tile_of(w)] -= 1;
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
            self.alive_per_tile[self.tiles.tile_of(w)] += 1;
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

    /// Number of live nodes in tile `t`.
    #[must_use]
    pub fn active_in_tile(&self, t: usize) -> usize {
        self.alive_per_tile[t] as usize
    }

    /// The underlying tile index.
    #[must_use]
    pub fn tiles(&self) -> &TileIndex {
        &self.tiles
    }

    /// The `(lower, upper)` gain bounds cached for tile pair `(t, s)`, or
    /// `None` when either tile has no members. Exposed for the bounds
    /// proptests.
    #[must_use]
    pub fn pair_gain_bounds(&self, t: usize, s: usize) -> Option<(f64, f64)> {
        (self.tiles.count(t) > 0 && self.tiles.count(s) > 0).then(|| {
            let i = t * self.tiles.num_tiles() + s;
            (self.pair_g_lo[i], self.pair_g_hi[i])
        })
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

    /// Resolves one round with the tile-aggregated fast path; reception
    /// semantics (and bits) are exactly those of
    /// [`SinrChannel::resolve`](crate::SinrChannel). `perturbation` must be
    /// `None` for a neutral perturbation, mirroring the dispatch in
    /// `SinrChannel::resolve_core`.
    pub(crate) fn resolve_sinr(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        perturbation: Option<&ChannelPerturbation<'_>>,
    ) -> Vec<Reception> {
        debug_assert!(self.matches(positions, params));
        with_bounded_kernel!(self.alpha, |k| self.resolve_round(
            k,
            params,
            positions,
            transmitters,
            listeners,
            perturbation
        ))
    }

    /// [`resolve_sinr`](Self::resolve_sinr) for one kernel class: near
    /// scans and first-pass fallback scans run through `k`, whose
    /// [`REL_ERR`](AlphaKernel::REL_ERR) the ladder widens `best_sig` by.
    fn resolve_round<K: AlphaKernel>(
        &mut self,
        k: K,
        params: &SinrParams,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        perturbation: Option<&ChannelPerturbation<'_>>,
    ) -> Vec<Reception> {
        let p = self.power;
        let alpha = self.alpha;
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

        // Bucket this round's transmitters by tile, remembering each
        // transmitter's slice index so the near scan can reproduce the
        // canonical first-strict-max tie-break — and each transmitter's
        // coordinates in bucket order, so near scans run as contiguous
        // gain batches.
        for &t in &self.occupied {
            self.tx_in_tile[t as usize].clear();
            self.tx_x_in_tile[t as usize].clear();
            self.tx_y_in_tile[t as usize].clear();
        }
        self.occupied.clear();
        for (idx, &u) in transmitters.iter().enumerate() {
            let t = self.tiles.tile_of(u);
            if self.tx_in_tile[t].is_empty() {
                self.occupied.push(t as u32);
            }
            self.tx_in_tile[t].push((u as u32, idx as u32));
            self.tx_x_in_tile[t].push(self.soa.xs()[u]);
            self.tx_y_in_tile[t].push(self.soa.ys()[u]);
        }
        self.stamp += 1;
        // Round-level gather for the batched exact fallback (shared with
        // the canonical resolve's uncached path), plus the near-scan gain
        // buffer — both moved out of `self` so the listener loop can
        // borrow tiles and buckets immutably alongside them.
        let mut scan = std::mem::take(&mut self.scan);
        self.soa.gather(transmitters, &mut scan.xs, &mut scan.ys);
        let mut near_gains = std::mem::take(&mut self.near_gains);

        let num_tiles = self.tiles.num_tiles();
        let mut out = Vec::with_capacity(listeners.len());
        for &v in listeners {
            let vp = positions[v];
            let lt = self.tiles.tile_of(v);

            // Far aggregates for this listener tile, computed once per
            // round per tile (all listeners of a tile share them).
            if self.far_stamp[lt] != self.stamp {
                let (mut lo, mut hi, mut cap) = (0.0f64, 0.0f64, 0.0f64);
                for &s in &self.occupied {
                    let s = s as usize;
                    if self.tiles.chebyshev(lt, s) <= NEAR_RING {
                        continue;
                    }
                    let mass = self.tx_in_tile[s].len() as f64;
                    lo += mass * self.pair_g_lo[lt * num_tiles + s];
                    let g_hi = self.pair_g_hi[lt * num_tiles + s];
                    hi += mass * g_hi;
                    cap = cap.max(g_hi);
                }
                self.far_lo[lt] = lo;
                self.far_hi[lt] = hi;
                self.far_cap[lt] = cap;
                self.far_stamp[lt] = self.stamp;
            }
            let far_lo = self.far_lo[lt];
            let far_hi = self.far_hi[lt];
            // Widened cap on any single far signal (covers bound rounding
            // and powf non-monotonicity; see FARFIELD_REL_SLACK).
            let far_cap = self.far_cap[lt] * (1.0 + FARFIELD_REL_SLACK);

            // Near-field scan: one fused gain batch per near tile through
            // `k` (bucket order), folded in bucket order with winner =
            // minimal slice index among the strict maxima — exactly the
            // canonical fold's first-strict-max when `k` is canonical, and
            // within `K::GAIN_REL_ERR` of it otherwise.
            let mut near_sum = 0.0f64;
            let mut best_sig = 0.0f64;
            let mut best_tx: Option<NodeId> = None;
            let mut best_idx = u32::MAX;
            for near_t in self.tiles.neighborhood(lt, NEAR_RING) {
                let bucket = &self.tx_in_tile[near_t];
                if bucket.is_empty() {
                    continue;
                }
                near_gains.resize(bucket.len(), 0.0);
                gain_batch_with(
                    k,
                    p,
                    &self.tx_x_in_tile[near_t],
                    &self.tx_y_in_tile[near_t],
                    vp.x,
                    vp.y,
                    &mut near_gains,
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

            let extra = perturbation.map(|pt| pt.extra_at(v));
            let decision = decide_ladder(
                &mut self.stats,
                DecisionInputs {
                    near_sum,
                    best_sig,
                    best_tx,
                    far_lo,
                    far_hi,
                    far_cap,
                    noise,
                    extra,
                    beta,
                    gain_rel_err: K::GAIN_REL_ERR,
                },
            );
            let reception = match decision {
                Decision::Decided(reception) => reception,
                // Exact fallback over *all* transmitters: a slice-order
                // scan through `k`, then — only if that cannot certify the
                // decision — the canonical scan SinrChannel itself runs.
                Decision::Exact => {
                    let first = scan_soa_with(
                        k,
                        p,
                        v,
                        vp,
                        transmitters,
                        &scan.xs,
                        &scan.ys,
                        &mut scan.gains,
                    );
                    finish_fallback::<K>(first, noise, extra, beta, &mut self.stats, || {
                        scan_transmitters_batched(p, alpha, v, vp, transmitters, &mut scan)
                    })
                }
            };
            out.push(reception);
        }
        self.scan = scan;
        self.near_gains = near_gains;
        out
    }
}

/// Fills the tile-pair gain tables through kernel `k`, one row at a time:
/// per source tile, the distance bounds for the whole row, then one pow
/// batch and one division pass each for the lower and upper gains,
/// widened by `k`'s [`GAIN_REL_ERR`](AlphaKernel::GAIN_REL_ERR) so they
/// bracket the canonical gains (the widening is a multiplication by 1.0
/// for the canonical classes). Pairs with an empty side keep the `∞`
/// sentinel distance, whose gain `p / ∞ = 0` matches an untouched slot;
/// d_min_sq = 0 (overlapping/touching content boxes) yields an infinite
/// upper bound, which forces the exact fallback for any listener near
/// such a pair — conservative, never wrong.
fn fill_pair_tables<K: AlphaKernel>(
    k: K,
    tiles: &TileIndex,
    p: f64,
    pair_g_lo: &mut [f64],
    pair_g_hi: &mut [f64],
) {
    let num_tiles = tiles.num_tiles();
    let (widen_lo, widen_hi) = (1.0 - K::GAIN_REL_ERR, 1.0 + K::GAIN_REL_ERR);
    let mut d_far = vec![f64::INFINITY; num_tiles];
    let mut d_near = vec![f64::INFINITY; num_tiles];
    let mut powed = vec![0.0; num_tiles];
    for t in 0..num_tiles {
        d_far.fill(f64::INFINITY);
        d_near.fill(f64::INFINITY);
        for s in 0..num_tiles {
            if let Some((d_min_sq, d_max_sq)) = tiles.distance_sq_bounds(t, s) {
                d_far[s] = d_max_sq;
                d_near[s] = d_min_sq;
            }
        }
        let row_lo = &mut pair_g_lo[t * num_tiles..(t + 1) * num_tiles];
        pow_alpha_batch_with(k, &d_far, &mut powed);
        for (slot, &pw) in row_lo.iter_mut().zip(&powed) {
            *slot = (p / pw) * widen_lo;
        }
        let row_hi = &mut pair_g_hi[t * num_tiles..(t + 1) * num_tiles];
        pow_alpha_batch_with(k, &d_near, &mut powed);
        for (slot, &pw) in row_hi.iter_mut().zip(&powed) {
            *slot = (p / pw) * widen_hi;
        }
    }
}

/// Everything [`decide_ladder`] needs about one listener, bundled to keep
/// the ladder's signature readable.
pub(crate) struct DecisionInputs {
    pub(crate) near_sum: f64,
    pub(crate) best_sig: f64,
    pub(crate) best_tx: Option<NodeId>,
    pub(crate) far_lo: f64,
    pub(crate) far_hi: f64,
    pub(crate) far_cap: f64,
    pub(crate) noise: f64,
    pub(crate) extra: Option<f64>,
    pub(crate) beta: f64,
    /// Relative error of each near gain against the canonical one (the
    /// scanning kernel's [`GAIN_REL_ERR`](AlphaKernel::GAIN_REL_ERR); 0
    /// when the near scan is canonical).
    pub(crate) gain_rel_err: f64,
}

/// What the decision ladder concluded for one listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// A rung settled the reception from the near scan and far bracket.
    Decided(Reception),
    /// No rung was conclusive: the caller must run the exact fallback
    /// ([`finish_fallback`]).
    Exact,
}

/// The rung of the ladder a listener stopped on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    NonFinite,
    NoiseFloor,
    NoNearWinner,
    FarRival,
    Bracket(Reception),
    Straddle,
}

/// The decision ladder (module docs, "decision-exactness contract"),
/// shared by the flat [`FarFieldEngine`] and the hierarchical engine — the
/// correctness argument only depends on the *bracket* inputs, not on how
/// they were aggregated. `stats` receives exactly one rung increment; a
/// [`Decision::Exact`] leaves the fallback scan to the caller, so an
/// engine may batch its fallbacks.
pub(crate) fn decide_ladder(stats: &mut FarFieldStats, inp: DecisionInputs) -> Decision {
    let (counter, decision) = match ladder(inp) {
        Rung::NonFinite => (&mut stats.nonfinite_fallbacks, Decision::Exact),
        Rung::NoiseFloor => (
            &mut stats.noise_floor_silences,
            Decision::Decided(Reception::Silence),
        ),
        Rung::NoNearWinner => (&mut stats.no_near_winner_fallbacks, Decision::Exact),
        Rung::FarRival => (&mut stats.far_rival_fallbacks, Decision::Exact),
        Rung::Bracket(reception) => (&mut stats.bracket_decisions, Decision::Decided(reception)),
        Rung::Straddle => (&mut stats.bracket_straddle_fallbacks, Decision::Exact),
    };
    *counter += 1;
    decision
}

/// The ladder's rungs in order. `best_sig` is widened to
/// `[b_lo, b_hi]` by `gain_rel_err`, so every rung that compares it
/// holds for the canonical best signal too; with `gain_rel_err = 0` the
/// widening is a multiplication by 1.0 and the rungs are the unwidened
/// ones.
fn ladder(inp: DecisionInputs) -> Rung {
    let DecisionInputs {
        near_sum,
        best_sig,
        best_tx,
        far_lo,
        far_hi,
        far_cap,
        noise,
        extra,
        beta,
        gain_rel_err,
    } = inp;
    // Rung 1: any non-finite intermediate (overflow, coincident nodes,
    // touching tile boxes, a NaN from the bounded kernel) voids the
    // bracket reasoning entirely.
    if !(near_sum.is_finite() && far_hi.is_finite() && far_cap.is_finite()) {
        return Rung::NonFinite;
    }
    let b_lo = best_sig * (1.0 - gain_rel_err);
    let b_hi = best_sig * (1.0 + gain_rel_err);
    let base = match extra {
        Some(e) => noise + e,
        None => noise,
    };
    // Rung 2: certain silence — the exact denominator is ≥ base, and
    // the exact best signal is ≤ max(near best, far cap).
    if b_hi.max(far_cap) < beta * base {
        return Rung::NoiseFloor;
    }
    // Rung 3: no near candidate, yet rung 2 could not rule out a far
    // decode — only the exact scan can name the winner.
    let Some(from) = best_tx else {
        return Rung::NoNearWinner;
    };
    // Rung 4: the near best must strictly dominate every possible far
    // signal, or the canonical winner might be a far transmitter.
    if far_cap >= b_lo {
        return Rung::FarRival;
    }
    // Rung 5: bracket the canonical interference and require the
    // decision to be invariant across it. A certified Message also
    // certifies the winner: with β ≥ 1 and a floor `base` ≥ 0, `from`
    // then out-signals every other transmitter strictly (DESIGN.md
    // §10.2). A near scan with gain error names its sender through that
    // lemma alone, so it certifies no Message over a negative (or NaN)
    // floor, which only a caller's negative perturbation can produce.
    let interference_near = near_sum - best_sig;
    let slack = FARFIELD_REL_SLACK * (near_sum + far_hi + best_sig);
    let i_lo = ((interference_near + far_lo) - slack).max(0.0);
    let i_hi = (interference_near + far_hi) + slack;
    let (denom_lo, denom_hi) = match extra {
        Some(e) => (noise + e + i_lo, noise + e + i_hi),
        None => (noise + i_lo, noise + i_hi),
    };
    let winner_certified = gain_rel_err == 0.0 || base >= 0.0;
    if b_lo >= beta * denom_hi && winner_certified {
        Rung::Bracket(Reception::Message { from })
    } else if b_hi < beta * denom_lo {
        Rung::Bracket(Reception::Silence)
    } else {
        Rung::Straddle
    }
}

/// Settles an exact fallback from its first-pass scan `first`, a
/// slice-order scan over every transmitter through kernel `K`. For a
/// canonical `K` that scan *is* the canonical one and decides directly.
/// Otherwise the ladder brackets it — no far field, the same slack — and
/// only a listener that bracket cannot settle pays for `rescan`, the
/// canonical scan (counted in
/// [`canonical_rescans`](FarFieldStats::canonical_rescans)).
pub(crate) fn finish_fallback<K: AlphaKernel>(
    first: ScanOutcome,
    noise: f64,
    extra: Option<f64>,
    beta: f64,
    stats: &mut FarFieldStats,
    rescan: impl FnOnce() -> ScanOutcome,
) -> Reception {
    if K::REL_ERR == 0.0 {
        return finish_exact(first, noise, extra, beta);
    }
    let certified = ladder(DecisionInputs {
        near_sum: first.total,
        best_sig: first.best_sig,
        best_tx: first.best_tx,
        far_lo: 0.0,
        far_hi: 0.0,
        far_cap: 0.0,
        noise,
        extra,
        beta,
        gain_rel_err: K::GAIN_REL_ERR,
    });
    match certified {
        Rung::NoiseFloor => Reception::Silence,
        Rung::Bracket(reception) => reception,
        _ => {
            stats.canonical_rescans += 1;
            finish_exact(rescan(), noise, extra, beta)
        }
    }
}

/// The canonical SINR test on an exact scan's outcome: the same
/// denominator expression (and evaluation order) as
/// `SinrChannel::resolve`, so a fallback decides bit-identically.
pub(crate) fn finish_exact(
    outcome: ScanOutcome,
    noise: f64,
    extra: Option<f64>,
    beta: f64,
) -> Reception {
    let ScanOutcome {
        total,
        best_sig,
        best_tx,
    } = outcome;
    let denom = match extra {
        Some(e) => noise + e + (total - best_sig),
        None => noise + (total - best_sig),
    };
    match best_tx {
        Some(u) if best_sig >= beta * denom => Reception::Message { from: u },
        _ => Reception::Silence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn slack_budget_leaves_a_tenfold_margin() {
        // Every committed workload's largest round, up to the n = 2²⁰
        // probe at 25% contention, keeps a tenfold margin; the bounded
        // kernel's share is a small part of it.
        for k in [1, 65_536, SLACK_BUDGET_TRANSMITTERS] {
            let budget = slack_budget(k);
            assert!(
                budget <= FARFIELD_REL_SLACK / 10.0,
                "budget {budget:e} at k = {k} vs slack {FARFIELD_REL_SLACK:e}"
            );
            assert!(budget - slack_budget(0) >= k as f64 * 2f64.powi(-52));
        }
        assert!((5.8e-11..5.9e-11).contains(&(slack_budget(1 << 18) - slack_budget(0))));
        assert!(slack_budget(0) < FARFIELD_REL_SLACK / 200.0);
        // Every node of an n = 2²⁰ deployment transmitting still fits the
        // slack itself, only without the tenfold margin.
        assert!(slack_budget(1 << 20) <= FARFIELD_REL_SLACK / 4.0);
        assert_eq!(
            FARFIELD_SLACK_BUDGET,
            slack_budget(SLACK_BUDGET_TRANSMITTERS)
        );
    }

    #[test]
    fn special_bounded_gains_never_decide() {
        use crate::kernels::{fold_scan, AlphaBounded};
        let k = AlphaBounded::new(2.5);
        // d² = 0 gives an infinite gain; subnormal and NaN d² give NaN.
        for d_sq in [0.0, f64::from_bits(1), f64::MIN_POSITIVE / 2.0, f64::NAN] {
            let fold = fold_scan(&[0.5, 16.0 / k.pow_alpha(d_sq)]);
            let first = ScanOutcome::from_fold(fold, &[7, 9]);
            let mut stats = FarFieldStats::default();
            let decision = decide_ladder(
                &mut stats,
                DecisionInputs {
                    near_sum: first.total,
                    best_sig: first.best_sig,
                    best_tx: first.best_tx,
                    far_lo: 0.0,
                    far_hi: 0.0,
                    far_cap: 0.0,
                    noise: 1.0,
                    extra: None,
                    beta: 2.0,
                    gain_rel_err: AlphaBounded::GAIN_REL_ERR,
                },
            );
            assert_eq!(decision, Decision::Exact, "d_sq={d_sq:e}");
            assert_eq!(stats.nonfinite_fallbacks, 1, "d_sq={d_sq:e}");
            let canonical = ScanOutcome {
                total: 2.5,
                best_sig: 2.0,
                best_tx: Some(9),
            };
            let mut rescanned = false;
            let rx = finish_fallback::<AlphaBounded>(first, 0.1, None, 1.5, &mut stats, || {
                rescanned = true;
                canonical
            });
            assert!(
                rescanned,
                "d_sq={d_sq:e}: a poisoned first pass must rescan"
            );
            assert_eq!(rx, Reception::Message { from: 9 });
            assert_eq!(stats.canonical_rescans, 1);
        }
    }

    #[test]
    fn negative_floor_certifies_no_bounded_message() {
        use crate::kernels::AlphaBounded;
        // A strong near sender over weak interference: a Message bracket
        // at any floor ≤ 1. With a negative jammer term the floor drops
        // below 0, where the winner lemma no longer names the sender of a
        // bounded near scan — only the canonical scan may.
        let inputs = |extra: f64, gain_rel_err: f64| DecisionInputs {
            near_sum: 10.5,
            best_sig: 10.0,
            best_tx: Some(7),
            far_lo: 0.0,
            far_hi: 0.0,
            far_cap: 0.0,
            noise: 1.0,
            extra: Some(extra),
            beta: 2.0,
            gain_rel_err,
        };
        let delta = AlphaBounded::GAIN_REL_ERR;
        for extra in [-1.5, -3.0, f64::NAN] {
            let mut stats = FarFieldStats::default();
            let decision = decide_ladder(&mut stats, inputs(extra, delta));
            assert_eq!(decision, Decision::Exact, "extra={extra}");
            assert_eq!(stats.bracket_straddle_fallbacks, 1, "extra={extra}");
            let first = ScanOutcome {
                total: 10.5,
                best_sig: 10.0,
                best_tx: Some(7),
            };
            let canonical = || ScanOutcome {
                total: 10.5,
                best_sig: 10.0,
                best_tx: Some(9),
            };
            let rx = finish_fallback::<AlphaBounded>(
                first,
                1.0,
                Some(extra),
                2.0,
                &mut stats,
                canonical,
            );
            assert_eq!(stats.canonical_rescans, 1, "extra={extra}");
            assert_eq!(rx, finish_exact(canonical(), 1.0, Some(extra), 2.0));
        }
        // A floor ≥ 0 certifies, bounded or canonical (the slack gives the
        // lemma its strict margin at a zero floor); a canonical near scan
        // names its sender directly at any floor.
        for (extra, gain_rel_err) in [(0.5, delta), (-1.0, delta), (0.5, 0.0), (-3.0, 0.0)] {
            let mut stats = FarFieldStats::default();
            assert_eq!(
                decide_ladder(&mut stats, inputs(extra, gain_rel_err)),
                Decision::Decided(Reception::Message { from: 7 }),
                "extra={extra} gain_rel_err={gain_rel_err:e}"
            );
        }
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let p = params();
        assert!(FarFieldEngine::build(&[], &p).is_none());
        let nan = vec![Point::new(f64::NAN, 0.0), Point::ORIGIN];
        assert!(FarFieldEngine::build(&nan, &p).is_none());
    }

    #[test]
    fn matches_is_a_fingerprint() {
        let p = params();
        let pos = lattice(8, 1.0);
        let engine = FarFieldEngine::build(&pos, &p).unwrap();
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
        let mut engine = FarFieldEngine::build_with_tiling(&pos, &p, 4).unwrap();
        let t = engine.tiles().tile_of(0);
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
    #[should_panic(expected = "out of range")]
    fn deactivate_out_of_range_panics() {
        let p = params();
        let pos = lattice(2, 1.0);
        let mut engine = FarFieldEngine::build(&pos, &p).unwrap();
        engine.deactivate(4);
    }

    #[test]
    fn resolve_matches_exact_on_a_lattice() {
        let p = params();
        let ch = SinrChannel::new(p);
        let pos = lattice(16, 1.5);
        let mut engine = FarFieldEngine::build_with_tiling(&pos, &p, 6).unwrap();
        let transmitters: Vec<NodeId> = (0..pos.len()).step_by(7).collect();
        let listeners: Vec<NodeId> = (0..pos.len())
            .filter(|i| !transmitters.contains(i))
            .collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let exact = ch.resolve(&pos, &transmitters, &listeners, &mut rng);
        let fast = engine.resolve_sinr(&p, &pos, &transmitters, &listeners, None);
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
    fn empty_round_is_all_silence_and_counts_fast() {
        let p = params();
        let pos = lattice(4, 1.0);
        let mut engine = FarFieldEngine::build(&pos, &p).unwrap();
        let listeners: Vec<NodeId> = (0..pos.len()).collect();
        let rx = engine.resolve_sinr(&p, &pos, &[], &listeners, None);
        assert!(rx.iter().all(|r| *r == Reception::Silence));
        assert_eq!(engine.stats().empty_round_silences, pos.len() as u64);
        assert_eq!(engine.stats().fast_decisions(), pos.len() as u64);
    }

    #[test]
    fn stats_reset() {
        let p = params();
        let pos = lattice(4, 1.0);
        let mut engine = FarFieldEngine::build(&pos, &p).unwrap();
        engine.resolve_sinr(&p, &pos, &[], &[0], None);
        assert_ne!(engine.stats(), FarFieldStats::default());
        engine.reset_stats();
        assert_eq!(engine.stats(), FarFieldStats::default());
    }
}
