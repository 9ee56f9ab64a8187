//! Observability integration suite: span nesting under panics and
//! out-of-order guard drops, exporters fed by a *real* traced simulation
//! run, engine counters on live runs, Monte-Carlo metrics
//! merging, and a property test pinning `Histogram::merge` to
//! concatenated recording. Route-counter reconciliation and the
//! tracer-attachment non-perturbation contract run in every cell of the
//! differential oracle (`tests/differential.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use fading_channel::{Channel, EngineTier, RadioChannel, SinrChannel, SinrParams};
use fading_geom::Deployment;
use fading_sim::obs::export::{chrome, flamegraph, prometheus};
use fading_sim::telemetry::jsonl;
use fading_sim::telemetry::{Histogram, MetricsRegistry};
use fading_sim::{
    montecarlo, Action, MemorySink, Protocol, Reception, ResolvePath, RunResult, SimConfig,
    Simulation, TelemetryDetail, Tracer,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// Transmits with fixed probability; knocked out on reception.
#[derive(Debug)]
struct Knockout {
    p: f64,
    active: bool,
}

impl Protocol for Knockout {
    fn act(&mut self, _round: u64, rng: &mut SmallRng) -> Action {
        if rng.gen_bool(self.p) {
            Action::Transmit
        } else {
            Action::Listen
        }
    }
    fn feedback(&mut self, _round: u64, reception: &Reception) {
        if reception.is_message() {
            self.active = false;
        }
    }
    fn is_active(&self) -> bool {
        self.active
    }
    fn name(&self) -> &'static str {
        "test-knockout"
    }
}

fn sinr_channel() -> Box<dyn Channel> {
    Box::new(SinrChannel::new(SinrParams::default_single_hop()))
}

fn knockout_sim(n: usize, seed: u64, channel: Box<dyn Channel>) -> Simulation {
    knockout_sim_with(n, seed, channel, SimConfig::default())
}

fn knockout_sim_with(
    n: usize,
    seed: u64,
    channel: Box<dyn Channel>,
    config: SimConfig,
) -> Simulation {
    let deployment = Deployment::uniform_square(n, 12.0, seed);
    Simulation::try_new(deployment, channel, seed, config, |_| {
        Box::new(Knockout {
            p: 0.25,
            active: true,
        })
    })
    .expect("valid configuration")
}

fn pinned(tier: EngineTier) -> SimConfig {
    SimConfig {
        tier: Some(tier),
        ..SimConfig::default()
    }
}

/// Runs `sim` with a fresh tracer and a memory sink at `detail`, and folds
/// the run's events and spans into a [`MetricsRegistry`].
fn metered_run(sim: &mut Simulation, detail: TelemetryDetail) -> (RunResult, MetricsRegistry) {
    let tracer = Tracer::new();
    sim.set_tracer(Arc::clone(&tracer));
    sim.set_telemetry_sink(Box::new(MemorySink::new(detail)));
    let result = sim.run_until_resolved(5_000);
    let sink = sim
        .take_telemetry_sink()
        .and_then(MemorySink::recover)
        .expect("memory sink recovers");
    let metrics = MetricsRegistry::fold(sink.events(), &tracer.finished_spans());
    (result, metrics)
}

// ---------------------------------------------------------------------------
// Span nesting under early returns, panics, and out-of-order drops.
// ---------------------------------------------------------------------------

#[test]
fn early_return_closes_spans_in_order() {
    let tracer = Tracer::new();
    fn work(tracer: &Arc<Tracer>, bail: bool) -> u32 {
        let _outer = tracer.span("outer");
        let _inner = tracer.span("inner");
        if bail {
            return 1; // both guards drop here, inner first
        }
        2
    }
    assert_eq!(work(&tracer, true), 1);
    let spans = tracer.finished_spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(tracer.open_spans(), 0);
    let inner = spans.iter().find(|s| s.name == "inner").unwrap();
    let outer = spans.iter().find(|s| s.name == "outer").unwrap();
    assert_eq!(inner.parent, Some(outer.id));
    assert!(inner.end_ns <= outer.end_ns);
}

#[test]
fn panic_inside_span_unwinds_cleanly_and_keeps_parent_stack_usable() {
    let tracer = Tracer::new();
    let _outer = tracer.span("outer");
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _doomed = tracer.span("doomed");
        let _nested = tracer.span("nested");
        panic!("boom");
    }));
    assert!(result.is_err());
    // The unwind dropped both guards; only `outer` should remain open, and
    // new spans must still nest under it.
    assert_eq!(tracer.open_spans(), 1);
    assert_eq!(tracer.current_depth(), 1);
    {
        let _after = tracer.span("after");
        assert_eq!(tracer.current_depth(), 2);
    }
    drop(_outer);
    let spans = tracer.finished_spans();
    assert_eq!(spans.len(), 4);
    let after = spans.iter().find(|s| s.name == "after").unwrap();
    let outer = spans.iter().find(|s| s.name == "outer").unwrap();
    assert_eq!(
        after.parent,
        Some(outer.id),
        "post-panic spans must nest under the survivor, not the unwound frames"
    );
}

#[test]
fn out_of_order_guard_drop_does_not_corrupt_parent_stack() {
    let tracer = Tracer::new();
    let a = tracer.span("a");
    let b = tracer.span("b");
    let c = tracer.span("c");
    // Drop the *middle* guard first: `c` is still open, so closing `b`
    // must also close `c` (a frame cannot outlive its parent) rather than
    // leave the stack pointing at freed frames.
    drop(b);
    assert_eq!(tracer.current_depth(), 1, "only `a` should remain open");
    // `c`'s guard is now stale; dropping it must be a no-op.
    drop(c);
    drop(a);
    let spans = tracer.finished_spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(tracer.open_spans(), 0);
    let b_rec = spans.iter().find(|s| s.name == "b").unwrap();
    let c_rec = spans.iter().find(|s| s.name == "c").unwrap();
    assert_eq!(
        c_rec.end_ns, b_rec.end_ns,
        "orphaned child is closed at its parent's end time"
    );
}

// ---------------------------------------------------------------------------
// Exporters fed by a real traced run.
// ---------------------------------------------------------------------------

/// Runs a traced simulation and returns the tracer with its spans.
fn traced_run() -> Arc<Tracer> {
    let tracer = Tracer::new();
    let mut sim = knockout_sim(20, 42, sinr_channel());
    sim.set_tracer(Arc::clone(&tracer));
    let result = sim.run_until_resolved(5_000);
    assert!(result.resolved());
    tracer
}

#[test]
fn real_run_spans_nest_step_phases_into_one_chrome_event_each() {
    let tracer = traced_run();
    let spans = tracer.finished_spans();
    assert_eq!(tracer.open_spans(), 0, "run left spans open");
    let steps: Vec<_> = spans.iter().filter(|s| s.name == "step").collect();
    assert!(!steps.is_empty());
    for name in ["churn", "act", "resolve", "feedback"] {
        let phase = spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no {name:?} span recorded"));
        let parent = phase.parent.expect("phase spans nest under step");
        assert!(
            steps.iter().any(|s| s.id == parent),
            "{name:?} span's parent is not a step span"
        );
    }
    // The n=20 SINR sim serves rounds through the gain cache, and the tier
    // span says so.
    assert!(spans.iter().any(|s| s.name == "resolve.gain_cache"));
    let trace = chrome::spans_to_chrome_trace(&spans);
    assert_eq!(trace.matches("\"ph\":\"X\"").count(), spans.len());
}

#[test]
fn real_run_spans_collapse_into_self_times() {
    let tracer = traced_run();
    let spans = tracer.finished_spans();
    let collapsed = flamegraph::collapse_spans(&spans);
    assert!(collapsed.iter().any(|(stack, _)| stack == "step"));
    assert!(collapsed
        .iter()
        .any(|(stack, _)| stack == "step;resolve;resolve.gain_cache"));
    // Self-times sum to total root duration.
    let total: u64 = collapsed.iter().map(|(_, ns)| ns).sum();
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    assert_eq!(total, roots, "self-times must partition root wall time");
}

#[test]
fn real_run_counters_reach_the_jsonl_line_and_the_scrape() {
    let mut sim = knockout_sim_with(24, 7, sinr_channel(), pinned(EngineTier::Hierarchical));
    let result = sim.run_until_resolved(5_000);
    assert!(result.resolved());
    let counters = sim.engine_counters();
    assert!(counters.rounds > 0);
    assert!(counters.farfield.listeners_resolved() > 0);

    // One key and one sample per counter; the exporters' bytes are pinned
    // by their golden tests.
    let line = jsonl::parse_json(&jsonl::counters_to_json(&counters)).unwrap();
    let jsonl::JsonValue::Obj(keys) = &line else {
        panic!("the counters line is not an object: {line:?}");
    };
    assert_eq!(keys.len(), 25);
    assert_eq!(
        line.get("rounds").and_then(jsonl::JsonValue::as_f64),
        Some(counters.rounds as f64)
    );
    let scrape = prometheus::counters_to_prometheus(&counters);
    let samples = prometheus::parse_prometheus(&scrape).unwrap();
    assert_eq!(samples.len(), 25);
    assert_eq!(samples[0].name, "fading_rounds_total");
    assert_eq!(samples[0].value, counters.rounds as f64);
}

#[test]
fn real_run_metrics_registry_scrape_carries_the_latency_histogram() {
    let mut sim = knockout_sim(20, 11, sinr_channel());
    let (result, metrics) = metered_run(&mut sim, TelemetryDetail::ids());
    assert!(result.resolved());
    assert!(metrics.rounds() > 0);
    let text = prometheus::registry_to_prometheus(&metrics);
    let samples = prometheus::parse_prometheus(&text).expect("the scrape parses");
    let buckets: Vec<f64> = samples
        .iter()
        .filter(|s| s.name == "fading_round_latency_nanos_bucket")
        .map(|s| s.value)
        .collect();
    let latency = metrics.round_latency_nanos();
    assert_eq!(buckets.len(), latency.bucket_counts().len());
    assert_eq!(buckets.last(), Some(&(latency.count() as f64)));
}

// ---------------------------------------------------------------------------
// Engine counters on live runs.
// ---------------------------------------------------------------------------

#[test]
fn radio_channel_runs_report_exact_route_and_no_cache() {
    let mut sim = knockout_sim(12, 5, Box::new(RadioChannel::new()));
    let result = sim.run_until_resolved(5_000);
    assert!(result.resolved());
    let c = sim.engine_counters();
    assert!(!c.gain_cache_built, "the radio channel builds no cache");
    assert_eq!(c.exact_rounds, c.rounds);
}

#[test]
fn telemetry_events_carry_resolve_path_and_farfield_fallback_deltas() {
    let mut sim = knockout_sim_with(24, 9, sinr_channel(), pinned(EngineTier::Hierarchical));
    sim.set_telemetry_sink(Box::new(MemorySink::new(TelemetryDetail::counts())));
    let result = sim.run_until_resolved(5_000);
    assert!(result.resolved());
    let sink = sim
        .take_telemetry_sink()
        .and_then(fading_sim::MemorySink::recover)
        .expect("memory sink recovers");
    let events = sink.events();
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .all(|e| e.resolve_path == ResolvePath::Hierarchical));
    let event_fallbacks: u64 = events.iter().map(|e| e.ff_fallbacks as u64).sum();
    assert_eq!(
        event_fallbacks,
        sim.engine_counters().farfield.exact_fallbacks(),
        "per-round fallback deltas must sum to the engine total"
    );
}

// ---------------------------------------------------------------------------
// Monte-Carlo metrics aggregation via MetricsRegistry::merge.
// ---------------------------------------------------------------------------

#[test]
fn montecarlo_trial_registries_merge_into_a_fleet_view() {
    let trial = |seed: u64| {
        let mut sim = knockout_sim(16, seed, sinr_channel());
        metered_run(&mut sim, TelemetryDetail::counts())
    };
    let per_trial = montecarlo::run_trials_with(8, 4, 100, trial);
    let mut fleet = MetricsRegistry::new();
    for (_, m) in &per_trial {
        fleet.merge(m);
    }
    let total_rounds: u64 = per_trial.iter().map(|(_, m)| m.rounds()).sum();
    assert!(total_rounds > 0);
    assert_eq!(fleet.rounds(), total_rounds);
    assert_eq!(
        fleet.knockouts(),
        per_trial.iter().map(|(_, m)| m.knockouts()).sum::<u64>()
    );
    assert_eq!(fleet.round_latency_nanos().count(), total_rounds);
    let max_latency = per_trial
        .iter()
        .filter_map(|(_, m)| m.round_latency_nanos().max())
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(fleet.round_latency_nanos().max(), Some(max_latency));
}

// ---------------------------------------------------------------------------
// Histogram::merge ≡ concatenated recording (property test).
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn histogram_merge_is_concatenated_recording(
        xs in prop::collection::vec(0.0_f64..1.0e12, 0..64),
        ys in prop::collection::vec(0.0_f64..1.0e12, 0..64),
    ) {
        let mut left = Histogram::new();
        for &x in &xs {
            left.record(x);
        }
        let mut right = Histogram::new();
        for &y in &ys {
            right.record(y);
        }
        let mut concat = Histogram::new();
        for &v in xs.iter().chain(&ys) {
            concat.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.bucket_counts(), concat.bucket_counts());
        prop_assert_eq!(left.count(), concat.count());
        prop_assert_eq!(left.min(), concat.min());
        prop_assert_eq!(left.max(), concat.max());
        // Sums agree to FP association tolerance.
        let scale = concat.sum().abs().max(1.0);
        prop_assert!((left.sum() - concat.sum()).abs() <= 1e-9 * scale);
        for q in [0.0, 0.5, 0.9, 1.0] {
            prop_assert_eq!(left.quantile_upper_bound(q), concat.quantile_upper_bound(q));
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram::merge with overflow-bucket mass (≥ 2^62, +∞): q = 1.0 on the
// merged histogram must resolve to the true exact max across both sides —
// not either side's own max — because the overflow bucket's nominal edge is
// not an upper bound for the values it absorbs.
// ---------------------------------------------------------------------------

/// Values spanning the normal buckets, the overflow bucket (≥ 2^62), and
/// the +∞ clamp path.
fn overflow_heavy_value() -> impl Strategy<Value = f64> {
    prop_oneof![0.0_f64..1.0e12, 4.7e18_f64..8.0e21, Just(f64::INFINITY),]
}

proptest! {
    #[test]
    fn histogram_merge_overflow_matches_concatenated(
        xs in prop::collection::vec(overflow_heavy_value(), 0..48),
        ys in prop::collection::vec(overflow_heavy_value(), 1..48),
    ) {
        let mut left = Histogram::new();
        for &x in &xs {
            left.record(x);
        }
        let mut right = Histogram::new();
        for &y in &ys {
            right.record(y);
        }
        let mut concat = Histogram::new();
        for &v in xs.iter().chain(&ys) {
            concat.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.bucket_counts(), concat.bucket_counts());
        prop_assert_eq!(left.count(), concat.count());
        prop_assert_eq!(left.min(), concat.min());
        prop_assert_eq!(left.max(), concat.max());
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            prop_assert_eq!(left.quantile_upper_bound(q), concat.quantile_upper_bound(q));
        }
        // The pinned contract: q = 1.0 is the true exact max of the union.
        let true_max = xs.iter().chain(&ys).copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(left.quantile_upper_bound(1.0), Some(true_max));
    }
}

#[test]
fn histogram_merge_overflow_only_side_resolves_true_max() {
    // One side recorded *only* overflow-bucket values, the other only
    // normal-bucket values; merged q = 1.0 must be the overflow side's
    // exact max regardless of merge direction.
    let big = 6.5e18; // ≥ 2^62 ≈ 4.61e18
    let bigger = 9.2e18;
    let mut overflow_only = Histogram::new();
    overflow_only.record(big);
    overflow_only.record(bigger);
    let mut normal_only = Histogram::new();
    normal_only.record(3.0);
    normal_only.record(700.0);

    let mut a = overflow_only.clone();
    a.merge(&normal_only);
    assert_eq!(a.quantile_upper_bound(1.0), Some(bigger));

    let mut b = normal_only.clone();
    b.merge(&overflow_only);
    assert_eq!(b.quantile_upper_bound(1.0), Some(bigger));

    // Both sides in the overflow bucket: the union max wins, not the
    // receiving side's.
    let mut c = overflow_only;
    let mut d = Histogram::new();
    d.record(8.8e20);
    c.merge(&d);
    assert_eq!(c.quantile_upper_bound(1.0), Some(8.8e20));
    assert_eq!(c.count(), 3);
}
