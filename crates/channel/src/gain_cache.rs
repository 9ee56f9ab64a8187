//! Precomputed pairwise gain matrix.
//!
//! Every deterministic SINR quantity in this crate reduces to sums of the
//! pairwise power gains `G[u][v] = P / d(u,v)^α`. For a static deployment
//! those gains never change, yet the straightforward
//! [`Channel::resolve`](crate::Channel::resolve) recomputes a distance,
//! a [`pow_alpha`] and a division for every (transmitter, listener) pair in
//! every round. [`GainCache`] hoists that work out of the round loop: the
//! full `n × n` matrix is computed **once** per deployment, and rounds
//! resolved through it ([`ResolveEngine::GainCache`](crate::ResolveEngine)
//! handed to [`Channel::resolve_with`](crate::Channel::resolve_with))
//! reduce the per-round inner loop to a table lookup and an add.
//!
//! Bit-exactness contract: `GainCache::build` stores *exactly* the value
//! `P / pow_alpha(d²(u,v), α)` that the uncached resolve computes, and the
//! cached resolve paths accumulate those values in the same order with the
//! same expression grouping. Cached and uncached resolution therefore
//! produce **identical** `Reception` vectors, not merely close ones — the
//! round-level table of the workspace's differential oracle
//! (`tests/differential.rs`) enforces this bit for bit.
//!
//! The cache is `O(n²)` memory, so construction is guarded by a node-count
//! limit ([`DEFAULT_MAX_CACHED_NODES`]); past it, [`GainCache::build`]
//! returns `None` and callers fall back to on-the-fly computation. The
//! cache is only valid for fixed positions — mobile deployments must
//! resolve through [`ResolveEngine::Exact`](crate::ResolveEngine::Exact).

use fading_geom::{Point, PointsSoA};

use crate::kernels::gain_batch;
use crate::{NodeId, SinrParams};

/// Default node-count limit for [`GainCache::build`].
///
/// `4096` nodes ⇒ `4096² × 8 B = 128 MiB` of gains, the largest matrix the
/// experiment configurations are expected to touch. Larger deployments
/// fall back to on-the-fly gain computation.
pub const DEFAULT_MAX_CACHED_NODES: usize = 4096;

/// Precomputed pairwise power gains for one deployment under one parameter
/// set: `gain(u, v) = P / d(u,v)^α`, stored as a flat row-major matrix
/// (one row per *listener*).
///
/// Build once per deployment via [`GainCache::build`] (a simulator shares
/// it as [`EngineTables::GainCache`](crate::EngineTables::GainCache));
/// resolve rounds through it as
/// [`ResolveEngine::GainCache`](crate::ResolveEngine::GainCache).
///
/// # Example
///
/// ```
/// use fading_channel::{GainCache, SinrParams};
/// use fading_geom::Point;
///
/// let params = SinrParams::builder().power(16.0).alpha(3.0).build()?;
/// let pos = [Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
/// let cache = GainCache::build(&pos, &params).expect("within size guard");
/// assert_eq!(cache.gain(0, 1), 2.0); // 16 / 2³
/// assert_eq!(cache.gain(1, 0), 2.0); // symmetric
/// # Ok::<(), fading_channel::ChannelError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct GainCache {
    n: usize,
    power: f64,
    alpha: f64,
    /// Position fingerprint: the first and last deployment positions,
    /// recorded at build time so `matches` can reject a same-sized but
    /// different deployment without re-verifying every coordinate.
    first: Point,
    last: Point,
    /// Row-major: `gains[v * n + u]` is the gain of transmitter `u` at
    /// listener `v`; the diagonal is 0 (a node never hears itself).
    gains: Vec<f64>,
}

/// A summary: the `n²` gains are far too many to print.
impl std::fmt::Debug for GainCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GainCache")
            .field("n", &self.n)
            .field("power", &self.power)
            .field("alpha", &self.alpha)
            .finish_non_exhaustive()
    }
}

impl GainCache {
    /// Builds the gain matrix for `positions` under `params`, or `None`
    /// when the deployment is empty or exceeds
    /// [`DEFAULT_MAX_CACHED_NODES`] (the `O(n²)` size guard).
    #[must_use]
    pub fn build(positions: &[Point], params: &SinrParams) -> Option<Self> {
        Self::build_with_limit(positions, params, DEFAULT_MAX_CACHED_NODES)
    }

    /// Like [`GainCache::build`] with an explicit node-count limit.
    #[must_use]
    pub fn build_with_limit(
        positions: &[Point],
        params: &SinrParams,
        max_nodes: usize,
    ) -> Option<Self> {
        let n = positions.len();
        if n == 0 || n > max_nodes {
            return None;
        }
        let power = params.power();
        let alpha = params.alpha();
        // Row-batched build over an SoA mirror: each row is one fused
        // per-α gain batch, bit-identical per element to the uncached
        // resolve expression (same pow_alpha fast path, same division —
        // see the kernels module's summation-order contract). The batch
        // fills the diagonal with `P / pow_alpha(0, α)`; it is overwritten
        // with the canonical 0 (a node never hears itself) before the row
        // is ever read.
        let soa = PointsSoA::from_points(positions);
        let mut gains = vec![0.0; n * n];
        for (v, &vp) in positions.iter().enumerate() {
            let row = &mut gains[v * n..(v + 1) * n];
            gain_batch(power, alpha, soa.xs(), soa.ys(), vp.x, vp.y, row);
            row[v] = 0.0;
        }
        Some(GainCache {
            n,
            power,
            alpha,
            first: positions[0],
            last: positions[n - 1],
            gains,
        })
    }

    /// Number of nodes the cache was built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` only for a cache over zero nodes (never produced by `build`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Cheap consistency check: does this cache plausibly belong to
    /// `positions` under `params`?
    ///
    /// Compares the node count, the gain-determining parameters (`P`, `α`),
    /// and a position fingerprint (the first and last deployment
    /// positions), so a same-sized but different deployment cannot silently
    /// reuse a stale cache. It does **not** re-verify every position (that
    /// would cost as much as the lookups it guards) — callers that move
    /// interior nodes must still drop the cache themselves.
    #[must_use]
    pub fn matches(&self, positions: &[Point], params: &SinrParams) -> bool {
        self.n == positions.len()
            && self.power == params.power()
            && self.alpha == params.alpha()
            && positions.first() == Some(&self.first)
            && positions.last() == Some(&self.last)
    }

    /// The cached gain `P / d(u,v)^α` of transmitter `u` at listener `v`
    /// (0 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    #[inline]
    #[must_use]
    pub fn gain(&self, u: NodeId, v: NodeId) -> f64 {
        assert!(u < self.n && v < self.n, "node id out of range");
        self.gains[v * self.n + u]
    }

    /// Listener `v`'s full gain row: `row(v)[u] == gain(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn row(&self, v: NodeId) -> &[f64] {
        &self.gains[v * self.n..(v + 1) * self.n]
    }

    /// Total interference at node `v` from the given transmitters:
    /// `Σ_w gain(w, v)`, accumulated in `transmitters` order (so it is
    /// bit-identical to the uncached sum over the same order).
    #[must_use]
    pub fn interference_at_node(&self, transmitters: &[NodeId], v: NodeId) -> f64 {
        let row = self.row(v);
        transmitters.iter().map(|&w| row[w]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinr::pow_alpha;

    fn params() -> SinrParams {
        SinrParams::builder()
            .power(16.0)
            .alpha(3.0)
            .beta(2.0)
            .noise(1.0)
            .build()
            .unwrap()
    }

    fn line(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new(i as f64 * 2.0, 0.0)).collect()
    }

    #[test]
    fn gains_match_direct_formula() {
        let pos = line(5);
        let cache = GainCache::build(&pos, &params()).unwrap();
        for v in 0..5 {
            for u in 0..5 {
                let want = if u == v {
                    0.0
                } else {
                    16.0 / pow_alpha(pos[u].distance_sq(pos[v]), 3.0)
                };
                assert_eq!(cache.gain(u, v), want, "u={u} v={v}");
            }
        }
    }

    #[test]
    fn rows_alias_the_matrix() {
        let pos = line(4);
        let cache = GainCache::build(&pos, &params()).unwrap();
        for v in 0..4 {
            let row = cache.row(v);
            assert_eq!(row.len(), 4);
            for (u, &g) in row.iter().enumerate() {
                assert_eq!(g, cache.gain(u, v));
            }
        }
    }

    #[test]
    fn symmetric_for_symmetric_distance() {
        let pos = vec![
            Point::new(0.3, -1.7),
            Point::new(2.9, 4.1),
            Point::new(-5.0, 0.2),
        ];
        let cache = GainCache::build(&pos, &params()).unwrap();
        for v in 0..3 {
            for u in 0..3 {
                assert_eq!(cache.gain(u, v), cache.gain(v, u));
            }
        }
    }

    #[test]
    fn size_guard_rejects_large_deployments() {
        let pos = line(9);
        assert!(GainCache::build_with_limit(&pos, &params(), 8).is_none());
        assert!(GainCache::build_with_limit(&pos, &params(), 9).is_some());
        assert!(GainCache::build(&[], &params()).is_none());
    }

    #[test]
    fn matches_checks_count_and_params() {
        let pos = line(4);
        let cache = GainCache::build(&pos, &params()).unwrap();
        assert!(cache.matches(&pos, &params()));
        assert!(!cache.matches(&pos[..3], &params()));
        let other = SinrParams::builder()
            .power(32.0)
            .alpha(3.0)
            .build()
            .unwrap();
        assert!(!cache.matches(&pos, &other));
    }

    #[test]
    fn matches_rejects_same_sized_different_deployment() {
        // Regression: before the position fingerprint, any deployment of
        // the right size under the right parameters was accepted, so a
        // stale cache could silently serve wrong gains.
        let pos = line(4);
        let cache = GainCache::build(&pos, &params()).unwrap();

        let mut moved_first = pos.clone();
        moved_first[0] = Point::new(-3.5, 1.0);
        assert!(!cache.matches(&moved_first, &params()));

        let mut moved_last = pos.clone();
        moved_last[3] = Point::new(100.0, -2.0);
        assert!(!cache.matches(&moved_last, &params()));

        let shuffled: Vec<Point> = pos.iter().rev().copied().collect();
        assert!(!cache.matches(&shuffled, &params()));
    }

    #[test]
    fn interference_at_node_sums_in_order() {
        let pos = line(4);
        let cache = GainCache::build(&pos, &params()).unwrap();
        let tx = [0usize, 2, 3];
        let direct: f64 = tx.iter().map(|&w| cache.gain(w, 1)).sum();
        assert_eq!(cache.interference_at_node(&tx, 1), direct);
    }
}
