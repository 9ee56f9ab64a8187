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
    Channel, FarFieldEngine, FarFieldStats, GainCache, HierarchicalFarFieldEngine, NodeId,
    DEFAULT_MAX_CACHED_NODES, RAYLEIGH_CACHE_PROFITABLE_NODES,
};

/// Deployment size above which [`EngineTier::auto`] picks the
/// hierarchical (tile-tree) tier for the SINR family.
///
/// Below this the flat [`FarFieldEngine`] is already fast — its tile-pair
/// tables are capped at `MAX_TILES_PER_SIDE²` entries — and the tree
/// traversal's extra bookkeeping buys nothing. Above it the flat engine's
/// per-listener far-field refresh starts scanning tens of thousands of
/// tiles and the `O(log)`-depth tree takes over.
pub const HIERARCHICAL_AUTO_THRESHOLD: usize = 65_536;

/// The four resolve tiers, lowest first. Each tier a channel supports
/// resolves bit-identically to every other; they differ only in speed
/// and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngineTier {
    /// The canonical O(listeners × transmitters) scan; nothing is built.
    Exact,
    /// The precomputed `n × n` [`GainCache`].
    GainCache,
    /// The flat tile-pair [`FarFieldEngine`].
    FarField,
    /// The tile-tree [`HierarchicalFarFieldEngine`].
    Hierarchical,
}

impl EngineTier {
    /// Every tier, lowest first.
    pub const ALL: [EngineTier; 4] = [
        EngineTier::Exact,
        EngineTier::GainCache,
        EngineTier::FarField,
        EngineTier::Hierarchical,
    ];

    /// Stable label for reports and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineTier::Exact => "exact",
            EngineTier::GainCache => "gain_cache",
            EngineTier::FarField => "farfield",
            EngineTier::Hierarchical => "hierarchical",
        }
    }

    /// The next tier down, or `None` below [`EngineTier::Exact`].
    #[must_use]
    pub fn lower(self) -> Option<EngineTier> {
        match self {
            EngineTier::Exact => None,
            EngineTier::GainCache => Some(EngineTier::Exact),
            EngineTier::FarField => Some(EngineTier::GainCache),
            EngineTier::Hierarchical => Some(EngineTier::FarField),
        }
    }

    /// The default tier for `channel` over a deployment of `n` nodes:
    ///
    /// * the SINR family (channels served up to the tile tree): the gain
    ///   cache up to [`DEFAULT_MAX_CACHED_NODES`], the flat far-field
    ///   engine up to [`HIERARCHICAL_AUTO_THRESHOLD`], the tile tree above;
    /// * channels served at most by the gain cache (Rayleigh, whose
    ///   per-pair fades rule out pruning): the cache up to
    ///   [`RAYLEIGH_CACHE_PROFITABLE_NODES`], the exact scan above — past
    ///   last-level cache the memory-bound rows lose to the batched
    ///   kernels;
    /// * geometry-free channels (radio): the exact scan.
    #[must_use]
    pub fn auto(channel: &dyn Channel, n: usize) -> EngineTier {
        match channel.max_tier() {
            EngineTier::Hierarchical | EngineTier::FarField => {
                if n <= DEFAULT_MAX_CACHED_NODES {
                    EngineTier::GainCache
                } else if n <= HIERARCHICAL_AUTO_THRESHOLD {
                    EngineTier::FarField
                } else {
                    EngineTier::Hierarchical
                }
            }
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
    /// Flat tile-pair far-field bounds.
    FarField(FarFieldEngine),
    /// Tile-tree far-field bounds.
    Hierarchical(HierarchicalFarFieldEngine),
}

impl ResolveEngine {
    /// Builds the highest tier at or below `tier` that `channel` can serve
    /// for `positions`: a tier above [`Channel::max_tier`] is skipped, as
    /// is one whose own guard refuses the deployment (the gain cache past
    /// [`DEFAULT_MAX_CACHED_NODES`], an empty or non-finite deployment for
    /// the tiled engines). Falls back to [`ResolveEngine::Exact`].
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
                (EngineTier::FarField, Some(p)) => {
                    FarFieldEngine::build(positions, p).map(ResolveEngine::FarField)
                }
                (EngineTier::Hierarchical, Some(p)) => {
                    HierarchicalFarFieldEngine::build(positions, p).map(ResolveEngine::Hierarchical)
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
            ResolveEngine::FarField(_) => EngineTier::FarField,
            ResolveEngine::Hierarchical(_) => EngineTier::Hierarchical,
        }
    }

    /// Marks node `w` inactive in the tiled engines' occupancy counts
    /// (a no-op for the untiled tiers). Idempotent.
    pub fn deactivate(&mut self, w: NodeId) {
        match self {
            ResolveEngine::FarField(e) => e.deactivate(w),
            ResolveEngine::Hierarchical(e) => e.deactivate(w),
            ResolveEngine::Exact | ResolveEngine::GainCache(_) => {}
        }
    }

    /// Marks node `w` active again — the inverse of
    /// [`ResolveEngine::deactivate`], for revived nodes. Idempotent.
    pub fn activate(&mut self, w: NodeId) {
        match self {
            ResolveEngine::FarField(e) => e.activate(w),
            ResolveEngine::Hierarchical(e) => e.activate(w),
            ResolveEngine::Exact | ResolveEngine::GainCache(_) => {}
        }
    }

    /// The tiled engines' decision-ladder counters (all zero for the
    /// untiled tiers).
    #[must_use]
    pub fn stats(&self) -> FarFieldStats {
        match self {
            ResolveEngine::FarField(e) => e.stats(),
            ResolveEngine::Hierarchical(e) => e.stats(),
            ResolveEngine::Exact | ResolveEngine::GainCache(_) => FarFieldStats::default(),
        }
    }

    /// Overwrites the decision-ladder counters (checkpoint restore; a
    /// no-op for the untiled tiers).
    pub fn set_stats(&mut self, stats: FarFieldStats) {
        match self {
            ResolveEngine::FarField(e) => e.set_stats(stats),
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
            assert_eq!(auto(4097), EngineTier::FarField);
            assert_eq!(auto(65_536), EngineTier::FarField);
            assert_eq!(auto(65_537), EngineTier::Hierarchical);
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
