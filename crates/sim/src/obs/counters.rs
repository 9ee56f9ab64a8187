//! Engine-decision counters: which resolve path fired, how often, and why.

use fading_channel::FarFieldStats;

use crate::telemetry::RoundEvent;

/// Which resolve tier served one round's channel resolution.
///
/// The step loop reads the path off the simulation's one engine (see
/// DESIGN.md §10's tier table). The choice never changes receptions, so
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
}

impl ResolvePath {
    /// Every path, in tier order.
    pub const ALL: [ResolvePath; 4] = [
        ResolvePath::Exact,
        ResolvePath::Cached,
        ResolvePath::FarField,
        ResolvePath::Hierarchical,
    ];

    /// Stable label used by JSONL and the Prometheus exporter.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ResolvePath::Exact => "exact",
            ResolvePath::Cached => "gain_cache",
            ResolvePath::FarField => "farfield",
            ResolvePath::Hierarchical => "hierarchical",
        }
    }
}

/// One unified view of every engine-level decision counter a simulation
/// accumulates: per-path round routing, gain-cache activity, fault
/// perturbation activity, and the far-field decision ladder's per-rung
/// counters. Read it with
/// [`Simulation::engine_counters`](crate::Simulation::engine_counters);
/// serialize it with [`telemetry::jsonl::counters_to_json`] or
/// [`obs::export::prometheus`](crate::obs::export::prometheus). Every
/// codec and [`merge`](EngineCounters::merge) walk one table of the
/// fields, so a field added here needs one row there and nothing else.
///
/// Invariant (asserted in every cell of the differential oracle,
/// `tests/differential.rs` at the repository root): the four `*_rounds`
/// route counters sum to `rounds`, and on tile-tree runs
/// `farfield.listeners_resolved()` equals the sum of the rounds'
/// [`RoundEvent::listeners`](crate::RoundEvent::listeners).
///
/// [`telemetry::jsonl::counters_to_json`]: crate::telemetry::jsonl::counters_to_json
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Rounds stepped.
    pub rounds: u64,
    /// Rounds resolved by the flat far-field engine. Always 0: that engine
    /// was folded into the tile tree. Kept because encoded counters keep
    /// their shape and the benchmark harness still reads it.
    pub farfield_rounds: u64,
    /// Rounds resolved by the hierarchical (tile-tree) far-field engine.
    pub hierarchical_rounds: u64,
    /// Rounds resolved through the gain cache (read by the benchmark
    /// harness, like `gain_cache_built`).
    pub gain_cache_rounds: u64,
    /// Rounds resolved by the canonical exact scan.
    pub exact_rounds: u64,
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
    /// ladder and its refined stage (all zero when it served no round),
    /// plus the `canonical_rescans` sub-count of its exact fallbacks.
    pub farfield: FarFieldStats,
}

impl EngineCounters {
    /// Sum of the per-path route counters; equals `rounds` by invariant.
    #[must_use]
    pub fn routed_rounds(&self) -> u64 {
        ResolvePath::ALL
            .into_iter()
            .map(|p| self.rounds_for(p))
            .sum()
    }

    /// The route counter for one path.
    #[must_use]
    pub fn rounds_for(&self, path: ResolvePath) -> u64 {
        let mut c = *self;
        *c.route(path)
    }

    fn route(&mut self, path: ResolvePath) -> &mut u64 {
        match path {
            ResolvePath::Exact => &mut self.exact_rounds,
            ResolvePath::Cached => &mut self.gain_cache_rounds,
            ResolvePath::FarField => &mut self.farfield_rounds,
            ResolvePath::Hierarchical => &mut self.hierarchical_rounds,
        }
    }

    /// Folds one stepped round's event: the round, its route, and its
    /// churn and loss counts.
    pub(crate) fn record_round(&mut self, event: &RoundEvent) {
        self.rounds += 1;
        *self.route(event.resolve_path) += 1;
        self.churn_applied += event.churn_applied as u64;
        self.ge_dropped += event.ge_dropped as u64;
    }

    /// Merges another simulation's counters into this one (montecarlo
    /// aggregation). `gain_cache_built` ORs; everything else adds.
    pub fn merge(&mut self, other: &EngineCounters) {
        let mut other = *other;
        for row in &COUNTERS {
            match row.slot {
                Slot::Sum(f) => *f(self) += *f(&mut other),
                Slot::Ladder(f) => *f(&mut self.farfield) += *f(&mut other.farfield),
                Slot::Flag(f) => *f(self) |= *f(&mut other),
            }
        }
    }
}

type CountField = fn(&mut EngineCounters) -> &mut u64;
type LadderField = fn(&mut FarFieldStats) -> &mut u64;

/// Where a [`Counter`] row's value lives, and so how it merges.
#[derive(Clone, Copy)]
pub(crate) enum Slot {
    /// A `u64` of [`EngineCounters`]; merging adds.
    Sum(CountField),
    /// A `u64` of the far-field ladder's [`FarFieldStats`]; merging adds.
    Ladder(LadderField),
    /// The `gain_cache_built` flag; merging ORs.
    Flag(fn(&mut EngineCounters) -> &mut bool),
}
use Slot::{Flag, Ladder, Sum};

/// One row of the counter table: a counter's JSONL key, its Prometheus
/// sample, and where it lives.
pub(crate) struct Counter {
    /// JSONL key (ladder rows carry an `ff_` prefix).
    pub key: &'static str,
    /// Prometheus metric family. Rows of one family are adjacent and
    /// share its help text.
    pub family: &'static str,
    /// The `(label, value)` pair telling this row's sample apart within
    /// its family, if the family has several samples.
    pub label: Option<(&'static str, &'static str)>,
    /// Prometheus `# HELP` text of the family.
    pub help: &'static str,
    /// The field the row reads and writes.
    pub slot: Slot,
}

impl Counter {
    /// This row's value in `c`; the flag reads 0 or 1.
    pub(crate) fn get(&self, c: &EngineCounters) -> u64 {
        let mut c = *c;
        match self.slot {
            Slot::Sum(f) => *f(&mut c),
            Slot::Ladder(f) => *f(&mut c.farfield),
            Slot::Flag(f) => u64::from(*f(&mut c)),
        }
    }

    /// Stores `v` into this row of `c`; the flag takes `v != 0`.
    pub(crate) fn set(&self, c: &mut EngineCounters, v: u64) {
        match self.slot {
            Slot::Sum(f) => *f(c) = v,
            Slot::Ladder(f) => *f(&mut c.farfield) = v,
            Slot::Flag(f) => *f(c) = v != 0,
        }
    }

    /// Whether this row is the boolean `gain_cache_built` flag.
    pub(crate) fn is_flag(&self) -> bool {
        matches!(self.slot, Slot::Flag(_))
    }

    /// Whether this row lives in the far-field ladder's stats.
    pub(crate) fn is_ladder(&self) -> bool {
        matches!(self.slot, Slot::Ladder(_))
    }
}

/// A row whose family has this one sample.
const fn row(key: &'static str, family: &'static str, help: &'static str, slot: Slot) -> Counter {
    Counter {
        key,
        family,
        label: None,
        help,
        slot,
    }
}

const fn route(key: &'static str, path: ResolvePath, f: CountField) -> Counter {
    let help = "Rounds served, by resolve tier";
    Counter {
        label: Some(("engine", path.name())),
        ..row(key, "fading_resolve_rounds_total", help, Sum(f))
    }
}

const fn rung(key: &'static str, rung: &'static str, f: LadderField) -> Counter {
    let help = "Far-field listener decisions, by ladder rung";
    Counter {
        label: Some(("rung", rung)),
        ..row(key, "fading_farfield_decisions_total", help, Ladder(f))
    }
}

/// Every counter, in the order of the JSONL line and the snapshot.
/// `merge`, the JSONL and snapshot codecs and the Prometheus encoder all
/// walk this table; only the per-round increments name fields directly.
#[rustfmt::skip]
pub(crate) const COUNTERS: [Counter; 25] = [
    row("rounds", "fading_rounds_total", "Rounds stepped", Sum(|c| &mut c.rounds)),
    route("farfield_rounds", ResolvePath::FarField, |c| &mut c.farfield_rounds),
    route("hierarchical_rounds", ResolvePath::Hierarchical, |c| &mut c.hierarchical_rounds),
    route("gain_cache_rounds", ResolvePath::Cached, |c| &mut c.gain_cache_rounds),
    route("exact_rounds", ResolvePath::Exact, |c| &mut c.exact_rounds),
    row("gain_cache_built", "fading_gain_cache_built",
        "1 when a gain cache was built for this deployment", Flag(|c| &mut c.gain_cache_built)),
    row("perturbed_rounds", "fading_perturbed_rounds_total",
        "Rounds under a non-neutral perturbation", Sum(|c| &mut c.perturbed_rounds)),
    row("jammed_rounds", "fading_jammed_rounds_total",
        "Rounds with an active jammer", Sum(|c| &mut c.jammed_rounds)),
    row("noise_scaled_rounds", "fading_noise_scaled_rounds_total",
        "Rounds with a noise-burst scale != 1", Sum(|c| &mut c.noise_scaled_rounds)),
    row("ge_dropped", "fading_ge_dropped_total",
        "Messages dropped by Gilbert-Elliott loss", Sum(|c| &mut c.ge_dropped)),
    row("churn_applied", "fading_churn_applied_total",
        "Churn events applied", Sum(|c| &mut c.churn_applied)),
    row("self_check_rounds", "fading_self_check_rounds_total",
        "Rounds audited by the self-checking engines", Sum(|c| &mut c.self_check_rounds)),
    row("self_check_samples", "fading_self_check_samples_total",
        "Listener samples re-resolved by the self-check", Sum(|c| &mut c.self_check_samples)),
    row("self_check_violations", "fading_self_check_violations_total",
        "Self-check samples that disagreed with the serving tier",
        Sum(|c| &mut c.self_check_violations)),
    row("tier_demotions", "fading_tier_demotions_total",
        "Engine tiers demoted after a self-check violation", Sum(|c| &mut c.tier_demotions)),
    row("ff_rounds", "fading_farfield_engine_rounds_total",
        "Rounds the far-field engine resolved", Ladder(|f| &mut f.rounds)),
    rung("ff_empty_round_silences", "empty_round_silence", |f| &mut f.empty_round_silences),
    rung("ff_nonfinite_fallbacks", "nonfinite_fallback", |f| &mut f.nonfinite_fallbacks),
    rung("ff_noise_floor_silences", "noise_floor_silence", |f| &mut f.noise_floor_silences),
    rung("ff_no_near_winner_fallbacks", "no_near_winner_fallback",
        |f| &mut f.no_near_winner_fallbacks),
    rung("ff_far_rival_fallbacks", "far_rival_fallback", |f| &mut f.far_rival_fallbacks),
    rung("ff_bracket_decisions", "bracket_decision", |f| &mut f.bracket_decisions),
    rung("ff_bracket_straddle_fallbacks", "bracket_straddle_fallback",
        |f| &mut f.bracket_straddle_fallbacks),
    row("ff_canonical_rescans", "fading_farfield_canonical_rescans_total",
        "Exact fallbacks the bounded-kernel first pass could not settle",
        Ladder(|f| &mut f.canonical_rescans)),
    row("ff_refined_decisions", "fading_farfield_refined_decisions_total",
        "Far-field listeners the refined stage settled without the exact scan",
        Ladder(|f| &mut f.refined_decisions)),
];

#[cfg(test)]
impl EngineCounters {
    /// A value with every field distinct and nonzero (the flag set), so a
    /// codec that swaps, drops or duplicates a field changes its output.
    pub(crate) fn distinct() -> Self {
        EngineCounters {
            rounds: 101,
            farfield_rounds: 102,
            hierarchical_rounds: 103,
            gain_cache_rounds: 104,
            exact_rounds: 105,
            gain_cache_built: true,
            perturbed_rounds: 107,
            jammed_rounds: 108,
            noise_scaled_rounds: 109,
            ge_dropped: 110,
            churn_applied: 111,
            self_check_rounds: 112,
            self_check_samples: 113,
            self_check_violations: 114,
            tier_demotions: 115,
            farfield: FarFieldStats {
                rounds: 201,
                empty_round_silences: 202,
                nonfinite_fallbacks: 203,
                noise_floor_silences: 204,
                no_near_winner_fallbacks: 205,
                far_rival_fallbacks: 206,
                bracket_decisions: 207,
                bracket_straddle_fallbacks: 208,
                canonical_rescans: 209,
                refined_decisions: 210,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::snapshot::counters_round_trip;
    use std::collections::HashSet;

    #[test]
    fn routed_rounds_sums_paths() {
        let c = EngineCounters {
            rounds: 14,
            farfield_rounds: 4,
            hierarchical_rounds: 5,
            gain_cache_rounds: 3,
            exact_rounds: 2,
            ..EngineCounters::default()
        };
        assert_eq!(c.routed_rounds(), 14);
        for p in ResolvePath::ALL {
            assert!(c.rounds_for(p) > 0);
        }
    }

    /// `EngineCounters::default()` with only `row` set to `v`.
    fn only(row: &Counter, v: u64) -> EngineCounters {
        let mut c = EngineCounters::default();
        row.set(&mut c, v);
        c
    }

    #[test]
    fn counter_table_keys_and_samples_are_unique() {
        let keys: HashSet<_> = COUNTERS.iter().map(|r| r.key).collect();
        assert_eq!(keys.len(), COUNTERS.len(), "duplicate JSONL key");
        let samples: HashSet<_> = COUNTERS.iter().map(|r| (r.family, r.label)).collect();
        assert_eq!(samples.len(), COUNTERS.len(), "duplicate Prometheus sample");
        // The Prometheus encoder writes a family's header at its first row,
        // so a family's rows are adjacent and share one help text.
        for (i, row) in COUNTERS.iter().enumerate() {
            let seen_before = COUNTERS[..i].iter().any(|r| r.family == row.family);
            let continues = i > 0 && COUNTERS[i - 1].family == row.family;
            assert_eq!(seen_before, continues, "{}: family split", row.key);
            if continues {
                assert_eq!(row.help, COUNTERS[i - 1].help, "{}: help", row.key);
            }
        }
    }

    #[test]
    fn counter_table_rows_round_trip_through_the_snapshot() {
        let whole = EngineCounters::distinct();
        assert_eq!(
            counters_round_trip(&whole),
            (whole, whole.farfield),
            "a field without its own row"
        );
        for row in &COUNTERS {
            let v = if row.is_flag() { 1 } else { 7 };
            let c = only(row, v);
            assert_ne!(c, EngineCounters::default(), "{}: no field", row.key);
            assert_eq!(row.get(&c), v, "{}", row.key);
            assert_eq!(counters_round_trip(&c), (c, c.farfield), "{}", row.key);
        }
    }

    #[test]
    fn merge_sums_every_count_and_ors_the_flag() {
        for row in &COUNTERS {
            if row.is_flag() {
                for (a, b) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    let mut c = only(row, a);
                    c.merge(&only(row, b));
                    assert_eq!(c, only(row, a | b), "{}: {a} | {b}", row.key);
                }
            } else {
                let mut c = only(row, 3);
                c.merge(&only(row, 4));
                assert_eq!(c, only(row, 7), "{}: 3 + 4", row.key);
            }
        }
    }
}
