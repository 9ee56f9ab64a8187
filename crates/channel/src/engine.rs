//! The one resolve engine a simulation holds: which tier serves a round's
//! SINR test, and the state that tier needs.
//!
//! Every tier is **decision-exact**: resolving a round through
//! [`Channel::resolve_with`] returns receptions bit-identical to
//! [`Channel::resolve`] whichever [`ResolveEngine`] it is handed (and
//! consumes the rng identically). The tier is therefore a pure speed
//! policy, picked by [`EngineTier::auto`] from the channel and the
//! deployment size, and overridable without changing any result.

use fading_geom::Point;

use crate::{
    Channel, FarFieldStats, GainCache, HierarchicalFarFieldEngine, NodeId,
    DEFAULT_MAX_CACHED_NODES, RAYLEIGH_CACHE_PROFITABLE_NODES,
};

/// The three resolve tiers, lowest first. Each tier a channel supports
/// resolves bit-identically to every other; they differ only in speed
/// and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngineTier {
    /// The canonical O(listeners × transmitters) scan; nothing is built.
    Exact,
    /// The precomputed `n × n` [`GainCache`].
    GainCache,
    /// The tile-tree [`HierarchicalFarFieldEngine`].
    Hierarchical,
}

impl EngineTier {
    /// Every tier, lowest first.
    pub const ALL: [EngineTier; 3] = [
        EngineTier::Exact,
        EngineTier::GainCache,
        EngineTier::Hierarchical,
    ];

    /// Stable label for reports and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineTier::Exact => "exact",
            EngineTier::GainCache => "gain_cache",
            EngineTier::Hierarchical => "hierarchical",
        }
    }

    /// The next tier down, or `None` below [`EngineTier::Exact`].
    #[must_use]
    pub fn lower(self) -> Option<EngineTier> {
        match self {
            EngineTier::Exact => None,
            EngineTier::GainCache => Some(EngineTier::Exact),
            EngineTier::Hierarchical => Some(EngineTier::GainCache),
        }
    }

    /// The default tier for `channel` over a deployment of `n` nodes:
    ///
    /// * the SINR family (channels served up to the tile tree): the gain
    ///   cache up to [`DEFAULT_MAX_CACHED_NODES`], the tile tree above;
    /// * channels served at most by the gain cache (Rayleigh, whose
    ///   per-pair fades rule out pruning): the cache up to
    ///   [`RAYLEIGH_CACHE_PROFITABLE_NODES`], the exact scan above — past
    ///   last-level cache the memory-bound rows lose to the batched
    ///   kernels;
    /// * geometry-free channels (radio): the exact scan.
    #[must_use]
    pub fn auto(channel: &dyn Channel, n: usize) -> EngineTier {
        match channel.max_tier() {
            EngineTier::Hierarchical if n > DEFAULT_MAX_CACHED_NODES => EngineTier::Hierarchical,
            EngineTier::Hierarchical => EngineTier::GainCache,
            EngineTier::GainCache if n <= RAYLEIGH_CACHE_PROFITABLE_NODES => EngineTier::GainCache,
            _ => EngineTier::Exact,
        }
    }
}

/// The engine serving one simulation's rounds: one variant per
/// [`EngineTier`], holding that tier's precomputed state.
///
/// Build it with [`ResolveEngine::build`]; hand it to
/// [`Channel::resolve_with`] each round; keep its occupancy in step with
/// knockouts and churn via [`ResolveEngine::deactivate`] /
/// [`ResolveEngine::activate`].
#[derive(Debug)]
pub enum ResolveEngine {
    /// The exact scan: no state.
    Exact,
    /// Precomputed pairwise gains.
    GainCache(GainCache),
    /// Tile-tree far-field bounds (boxed: the engine's round state is
    /// far larger than the other variants).
    Hierarchical(Box<HierarchicalFarFieldEngine>),
}

impl ResolveEngine {
    /// Builds the highest tier at or below `tier` that `channel` can serve
    /// for `positions`: a tier above [`Channel::max_tier`] is skipped, as
    /// is one whose own guard refuses the deployment (the gain cache past
    /// [`DEFAULT_MAX_CACHED_NODES`], an empty or non-finite deployment for
    /// the tile tree). Falls back to [`ResolveEngine::Exact`].
    #[must_use]
    pub fn build(channel: &dyn Channel, tier: EngineTier, positions: &[Point]) -> ResolveEngine {
        let params = channel.sinr_params();
        let mut next = Some(tier.min(channel.max_tier()));
        while let Some(t) = next {
            let engine = match (t, params) {
                (EngineTier::Exact, _) => Some(ResolveEngine::Exact),
                (_, None) => None,
                (EngineTier::GainCache, Some(p)) => {
                    GainCache::build(positions, p).map(ResolveEngine::GainCache)
                }
                (EngineTier::Hierarchical, Some(p)) => {
                    HierarchicalFarFieldEngine::build(positions, p)
                        .map(|e| ResolveEngine::Hierarchical(Box::new(e)))
                }
            };
            if let Some(engine) = engine {
                return engine;
            }
            next = t.lower();
        }
        ResolveEngine::Exact
    }

    /// The tier this engine serves.
    #[must_use]
    pub fn tier(&self) -> EngineTier {
        match self {
            ResolveEngine::Exact => EngineTier::Exact,
            ResolveEngine::GainCache(_) => EngineTier::GainCache,
            ResolveEngine::Hierarchical(_) => EngineTier::Hierarchical,
        }
    }

    /// Marks node `w` inactive in the tile tree's occupancy counts
    /// (a no-op for the untiled tiers). Idempotent.
    pub fn deactivate(&mut self, w: NodeId) {
        match self {
            ResolveEngine::Hierarchical(e) => e.deactivate(w),
            ResolveEngine::Exact | ResolveEngine::GainCache(_) => {}
        }
    }

    /// Marks node `w` active again — the inverse of
    /// [`ResolveEngine::deactivate`], for revived nodes. Idempotent.
    pub fn activate(&mut self, w: NodeId) {
        match self {
            ResolveEngine::Hierarchical(e) => e.activate(w),
            ResolveEngine::Exact | ResolveEngine::GainCache(_) => {}
        }
    }

    /// The tile tree's decision-ladder counters (all zero for the untiled
    /// tiers).
    #[must_use]
    pub fn stats(&self) -> FarFieldStats {
        match self {
            ResolveEngine::Hierarchical(e) => e.stats(),
            ResolveEngine::Exact | ResolveEngine::GainCache(_) => FarFieldStats::default(),
        }
    }

    /// Overwrites the decision-ladder counters (checkpoint restore; a
    /// no-op for the untiled tiers).
    pub fn set_stats(&mut self, stats: FarFieldStats) {
        match self {
            ResolveEngine::Hierarchical(e) => e.set_stats(stats),
            ResolveEngine::Exact | ResolveEngine::GainCache(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        LossySinrChannel, RadioCdChannel, RadioChannel, RayleighSinrChannel, SinrChannel,
        SinrParams,
    };

    fn line(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new(i as f64 * 2.0, 0.0)).collect()
    }

    #[test]
    fn build_skips_tiers_the_channel_or_the_guard_refuses() {
        let params = SinrParams::default_single_hop();
        let pos = line(16);
        let sinr = SinrChannel::new(params);
        for t in EngineTier::ALL {
            assert_eq!(ResolveEngine::build(&sinr, t, &pos).tier(), t);
        }
        let rayleigh = RayleighSinrChannel::new(params);
        assert_eq!(
            ResolveEngine::build(&rayleigh, EngineTier::Hierarchical, &pos).tier(),
            EngineTier::GainCache
        );
        let radio = RadioChannel::new();
        assert_eq!(
            ResolveEngine::build(&radio, EngineTier::GainCache, &pos).tier(),
            EngineTier::Exact
        );
        // An empty deployment defeats every guard.
        assert_eq!(
            ResolveEngine::build(&sinr, EngineTier::Hierarchical, &[]).tier(),
            EngineTier::Exact
        );
    }

    #[test]
    fn auto_tier_boundaries() {
        let params = SinrParams::default_single_hop();
        let sinr = SinrChannel::new(params);
        let lossy = LossySinrChannel::new(params, 0.1).unwrap();
        for ch in [&sinr as &dyn Channel, &lossy] {
            let auto = |n| EngineTier::auto(ch, n);
            assert_eq!(auto(1), EngineTier::GainCache);
            assert_eq!(auto(4096), EngineTier::GainCache);
            // Every SINR-family deployment past the cache guard runs on
            // the tile tree.
            for n in [4097, 1 << 15, 65_536, 65_537, 1 << 18] {
                assert_eq!(auto(n), EngineTier::Hierarchical, "n = {n}");
            }
        }
        let rayleigh = RayleighSinrChannel::new(params);
        assert_eq!(EngineTier::auto(&rayleigh, 1024), EngineTier::GainCache);
        assert_eq!(EngineTier::auto(&rayleigh, 1025), EngineTier::Exact);
        for radio in [&RadioChannel::new() as &dyn Channel, &RadioCdChannel::new()] {
            for n in [2, 4096, 1 << 20] {
                assert_eq!(EngineTier::auto(radio, n), EngineTier::Exact);
            }
        }
    }
}
