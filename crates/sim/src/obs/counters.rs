//! Engine-decision counters: which resolve path fired, how often, and why.

use fading_channel::FarFieldStats;

use crate::telemetry::RoundEvent;

/// Which resolve tier served one round's channel resolution.
///
/// The step loop reads the path off the simulation's one engine (see
/// DESIGN.md §10's tier table), except that a round whose sink asked for
/// SINR breakdowns is the instrumented scan. The choice never changes
/// receptions — all five paths are bit-identical by contract — so
/// recording it in [`RoundEvent`] is observability, not behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ResolvePath {
    /// Canonical O(listeners × transmitters) scan.
    #[default]
    Exact,
    /// Gain-cache tier (precomputed pairwise gains).
    Cached,
    /// The flat tile-pair far-field engine, since removed: no round takes
    /// this path any more. Kept so encoded events and counters keep their
    /// shape.
    FarField,
    /// Multi-resolution tile-tree far-field engine (parallelizable).
    Hierarchical,
    /// Instrumented scan producing per-listener SINR breakdowns.
    Instrumented,
}

impl ResolvePath {
    /// Every path, in tier order.
    pub const ALL: [ResolvePath; 5] = [
        ResolvePath::Exact,
        ResolvePath::Cached,
        ResolvePath::FarField,
        ResolvePath::Hierarchical,
        ResolvePath::Instrumented,
    ];

    /// Stable label used by JSONL and the Prometheus exporter.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ResolvePath::Exact => "exact",
            ResolvePath::Cached => "gain_cache",
            ResolvePath::FarField => "farfield",
            ResolvePath::Hierarchical => "hierarchical",
            ResolvePath::Instrumented => "instrumented",
        }
    }

    /// Inverse of [`ResolvePath::name`] (used by the JSONL parser).
    #[must_use]
    pub fn from_name(name: &str) -> Option<ResolvePath> {
        ResolvePath::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// One unified view of every engine-level decision counter a simulation
/// accumulates: per-path round routing, gain-cache activity, fault
/// perturbation activity, and the far-field decision ladder's per-rung
/// counters. Read it with
/// [`Simulation::engine_counters`](crate::Simulation::engine_counters);
/// serialize it with [`telemetry::jsonl::counters_to_json`] or
/// [`obs::export::prometheus`](crate::obs::export::prometheus).
///
/// Invariant (asserted in the equivalence/determinism suites): the five
/// `*_rounds` route counters sum to `rounds`, and
/// `farfield.listeners_resolved()` equals the sum of the ladder's rung
/// counters.
///
/// [`telemetry::jsonl::counters_to_json`]: crate::telemetry::jsonl::counters_to_json
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineCounters {
    /// Rounds stepped.
    pub rounds: u64,
    /// Rounds resolved by the flat far-field engine. Always 0: that engine
    /// was folded into the tile tree. Kept so encoded counters keep their
    /// shape.
    pub farfield_rounds: u64,
    /// Rounds resolved by the hierarchical (tile-tree) far-field engine.
    pub hierarchical_rounds: u64,
    /// Rounds resolved through the gain cache.
    pub gain_cache_rounds: u64,
    /// Rounds resolved by the canonical exact scan.
    pub exact_rounds: u64,
    /// Rounds resolved through the instrumented (SINR-detail) scan.
    pub instrumented_rounds: u64,
    /// Whether a gain-cache engine was built for this simulation (its
    /// tier was chosen or set, and the size guard admitted it).
    pub gain_cache_built: bool,
    /// Rounds resolved under a non-neutral perturbation (jamming and/or
    /// noise scaling active).
    pub perturbed_rounds: u64,
    /// Rounds with at least one active jammer.
    pub jammed_rounds: u64,
    /// Rounds with a noise-burst scale ≠ 1.
    pub noise_scaled_rounds: u64,
    /// Messages dropped by Gilbert–Elliott burst loss, total.
    pub ge_dropped: u64,
    /// Churn events applied, total.
    pub churn_applied: u64,
    /// Rounds in which the opt-in self-check audited sampled listeners
    /// against the exact resolve path (see
    /// [`SimConfig::self_check`](crate::SimConfig::self_check)).
    pub self_check_rounds: u64,
    /// Listener decisions re-resolved by the self-check, total.
    pub self_check_samples: u64,
    /// Self-check violations observed (reception mismatch or non-finite
    /// SINR intermediate), total.
    pub self_check_violations: u64,
    /// Engine-tier demotions triggered by self-check violations
    /// (hierarchical → gain-cache → exact), total.
    pub tier_demotions: u64,
    /// The per-rung counters of the tile-tree engine's 5-rung decision
    /// ladder (all zero when it served no round), plus the
    /// `canonical_rescans` sub-count of its exact fallbacks.
    pub farfield: FarFieldStats,
}

impl EngineCounters {
    /// Sum of the per-path route counters; equals `rounds` by invariant.
    #[must_use]
    pub fn routed_rounds(&self) -> u64 {
        self.farfield_rounds
            + self.hierarchical_rounds
            + self.gain_cache_rounds
            + self.exact_rounds
            + self.instrumented_rounds
    }

    /// The route counter for one path.
    #[must_use]
    pub fn rounds_for(&self, path: ResolvePath) -> u64 {
        match path {
            ResolvePath::Exact => self.exact_rounds,
            ResolvePath::Cached => self.gain_cache_rounds,
            ResolvePath::FarField => self.farfield_rounds,
            ResolvePath::Hierarchical => self.hierarchical_rounds,
            ResolvePath::Instrumented => self.instrumented_rounds,
        }
    }

    /// Folds one stepped round's event: the round, its route, and its
    /// churn and loss counts.
    pub(crate) fn record_round(&mut self, event: &RoundEvent) {
        self.rounds += 1;
        *match event.resolve_path {
            ResolvePath::Exact => &mut self.exact_rounds,
            ResolvePath::Cached => &mut self.gain_cache_rounds,
            ResolvePath::FarField => &mut self.farfield_rounds,
            ResolvePath::Hierarchical => &mut self.hierarchical_rounds,
            ResolvePath::Instrumented => &mut self.instrumented_rounds,
        } += 1;
        self.churn_applied += event.churn_applied as u64;
        self.ge_dropped += event.ge_dropped as u64;
    }

    /// Merges another simulation's counters into this one (montecarlo
    /// aggregation). `gain_cache_built` ORs; everything else adds.
    pub fn merge(&mut self, other: &EngineCounters) {
        self.rounds += other.rounds;
        self.farfield_rounds += other.farfield_rounds;
        self.hierarchical_rounds += other.hierarchical_rounds;
        self.gain_cache_rounds += other.gain_cache_rounds;
        self.exact_rounds += other.exact_rounds;
        self.instrumented_rounds += other.instrumented_rounds;
        self.gain_cache_built |= other.gain_cache_built;
        self.perturbed_rounds += other.perturbed_rounds;
        self.jammed_rounds += other.jammed_rounds;
        self.noise_scaled_rounds += other.noise_scaled_rounds;
        self.ge_dropped += other.ge_dropped;
        self.churn_applied += other.churn_applied;
        self.self_check_rounds += other.self_check_rounds;
        self.self_check_samples += other.self_check_samples;
        self.self_check_violations += other.self_check_violations;
        self.tier_demotions += other.tier_demotions;
        self.farfield.add(&other.farfield);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_path_names_round_trip() {
        for p in ResolvePath::ALL {
            assert_eq!(ResolvePath::from_name(p.name()), Some(p));
        }
        assert_eq!(ResolvePath::from_name("warp-drive"), None);
    }

    #[test]
    fn routed_rounds_sums_paths() {
        let mut c = EngineCounters {
            rounds: 15,
            farfield_rounds: 4,
            hierarchical_rounds: 5,
            gain_cache_rounds: 3,
            exact_rounds: 2,
            instrumented_rounds: 1,
            ..EngineCounters::default()
        };
        assert_eq!(c.routed_rounds(), 15);
        for p in ResolvePath::ALL {
            assert!(c.rounds_for(p) > 0);
        }
        let other = c;
        c.merge(&other);
        assert_eq!(c.rounds, 30);
        assert_eq!(c.routed_rounds(), 30);
    }

    #[test]
    fn merge_adds_ladder_counters_and_ors_built() {
        let mut a = EngineCounters {
            gain_cache_built: false,
            ..EngineCounters::default()
        };
        a.farfield.bracket_decisions = 5;
        let mut b = EngineCounters {
            gain_cache_built: true,
            ..EngineCounters::default()
        };
        b.farfield.bracket_decisions = 7;
        b.farfield.noise_floor_silences = 2;
        a.merge(&b);
        assert!(a.gain_cache_built);
        assert_eq!(a.farfield.bracket_decisions, 12);
        assert_eq!(a.farfield.noise_floor_silences, 2);
    }
}
