//! Structured per-round observability: events, sinks, metrics, JSONL.
//!
//! Every quantitative claim in the experiment suite rests on per-round
//! quantities the simulator computes and would otherwise throw away — SINR
//! margins, interference sums, knockout counts, active-set decay. This
//! module records them as a typed [`RoundEvent`] stream delivered to a
//! pluggable [`TelemetrySink`], with:
//!
//! * **Determinism**: events are derived exclusively from simulation state,
//!   never from wall clocks or sink behavior. Attaching any sink leaves the
//!   run's `RunResult` byte-identical to a sink-free run across engine
//!   tiers and thread settings (the sink *observes* the same resolve
//!   paths; when it requests SINR detail the round asks
//!   [`resolve_with`](fading_channel::Channel::resolve_with) for
//!   breakdowns, which is contractually bit-identical).
//! * **One report per round**: the step loop builds one counts-level
//!   [`RoundEvent`] every round whether or not a sink is attached — the
//!   engine counters read it too — so a sink adds only the delivery and
//!   whatever ids or SINR breakdowns its detail level asks for (guarded
//!   by the `telemetry_overhead_n2048` bench, ≤ 5 % of baseline step
//!   time). The event stream is the only per-round record of a run: a
//!   [`MemorySink`] keeps it in memory (see
//!   [`Simulation::run_recorded`](crate::Simulation::run_recorded)), and
//!   [`replay_active_sets`] rebuilds the active sets from an ids-level
//!   stream.
//! * **JSONL export**: [`jsonl`] serializes event streams one JSON object
//!   per line, f64s in their shortest exact form, with golden bytes pinned
//!   by its tests. The writer is hand-rolled —
//!   the workspace's vendored `serde` is an offline stub (see
//!   `vendor/serde`), so derive-based serialization is unavailable.
//! * **Metrics**: [`MetricsRegistry`] is a fold of an event stream
//!   (counters; knockout and interference histograms) and of a
//!   [`Tracer`](crate::obs::Tracer)'s finished spans (the round-latency
//!   histogram from `step` spans, per-phase totals from the
//!   [`PHASE_SPANS`]). The simulation reads no clock itself; the tracer
//!   is its only one. Span times are wall-clock durations and are
//!   therefore *excluded* from the determinism contract — the event
//!   stream is the reproducible artifact, the registry is for profiling.
//!
//! # Example
//!
//! ```
//! use fading_channel::{SinrChannel, SinrParams};
//! use fading_geom::Deployment;
//! use fading_sim::telemetry::{MemorySink, TelemetryDetail};
//! use fading_sim::{Action, Protocol, Reception, Simulation};
//! use rand::{rngs::SmallRng, Rng};
//!
//! #[derive(Debug)]
//! struct Simple { active: bool }
//! impl Protocol for Simple {
//!     fn act(&mut self, _r: u64, rng: &mut SmallRng) -> Action {
//!         if rng.gen_bool(0.25) { Action::Transmit } else { Action::Listen }
//!     }
//!     fn feedback(&mut self, _r: u64, rx: &Reception) {
//!         if rx.is_message() { self.active = false; }
//!     }
//!     fn is_active(&self) -> bool { self.active }
//!     fn name(&self) -> &'static str { "simple" }
//! }
//!
//! let d = Deployment::uniform_square(16, 10.0, 1);
//! let ch = SinrChannel::new(SinrParams::default_single_hop());
//! let mut sim = Simulation::new(d, Box::new(ch), 7, |_| Box::new(Simple { active: true }));
//! sim.set_telemetry_sink(Box::new(MemorySink::new(TelemetryDetail::ids())));
//! let result = sim.run_until_resolved(10_000);
//! let events = MemorySink::recover(sim.take_telemetry_sink().unwrap()).unwrap().into_events();
//! assert_eq!(events.len() as u64, result.rounds_executed());
//! assert!(events.last().unwrap().resolved);
//! // `run_recorded` is the same three steps in one call.
//! let mut again = Simulation::new(
//!     Deployment::uniform_square(16, 10.0, 1),
//!     Box::new(SinrChannel::new(SinrParams::default_single_hop())),
//!     7,
//!     |_| Box::new(Simple { active: true }),
//! );
//! assert_eq!(again.run_recorded(10_000, TelemetryDetail::ids()), (result, events));
//! ```

pub mod jsonl;
mod metrics;

pub use metrics::{Histogram, MetricsRegistry, PHASE_SPANS};

use fading_channel::{NodeId, SinrBreakdown};

use crate::RunResult;

/// What happened in one simulated round, as seen by a [`TelemetrySink`].
///
/// Count fields are always populated. The id vectors are populated only
/// when the sink's [`TelemetryDetail::ids`] flag is set, and `sinr` only
/// under [`TelemetryDetail::sinr`] — they stay empty (not `None`) otherwise
/// so consumers can iterate unconditionally.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundEvent {
    /// 1-based round number.
    pub round: u64,
    /// Active nodes before this round's churn events were applied.
    pub active_pre_churn: usize,
    /// Nodes that actually participated (active ∧ awake, post-churn):
    /// `transmitters + listeners`.
    pub participants: usize,
    /// Number of transmitting nodes.
    pub transmitters: usize,
    /// Number of listening nodes.
    pub listeners: usize,
    /// Nodes knocked out (deactivated by their protocol) this round.
    pub knocked_out: usize,
    /// Churn events (crashes/revivals) that actually took effect at the
    /// start of this round.
    pub churn_applied: usize,
    /// Multiplier applied to ambient noise this round (1.0 = clean).
    pub noise_scale: f64,
    /// Total jammer interference power landed across all nodes this round
    /// (0.0 when no jammer was active).
    pub jam_power: f64,
    /// Whether the Gilbert–Elliott loss process was in its burst state.
    pub ge_in_burst: bool,
    /// Messages erased by the Gilbert–Elliott drop pass this round.
    pub ge_dropped: usize,
    /// Which resolve tier served this round's channel resolution. Pure
    /// observability: all paths are bit-identical by contract, and two
    /// runs differing only in engine settings will differ here (and only
    /// here), which is why determinism suites compare events across
    /// thread counts but not across engine configurations.
    pub resolve_path: crate::obs::ResolvePath,
    /// Far-field listeners that fell back to the exact scan this round
    /// (0 on every other path).
    pub ff_fallbacks: usize,
    /// Whether this round resolved contention (exactly one transmitter).
    pub resolved: bool,
    /// The solo transmitter when `resolved`.
    pub winner: Option<NodeId>,
    /// Transmitting node ids ([`TelemetryDetail::ids`] only).
    pub transmitter_ids: Vec<NodeId>,
    /// Ids knocked out this round ([`TelemetryDetail::ids`] only).
    pub knocked_out_ids: Vec<NodeId>,
    /// Ids crashed by churn at the start of this round
    /// ([`TelemetryDetail::ids`] only).
    pub crashed_ids: Vec<NodeId>,
    /// Ids revived by churn at the start of this round
    /// ([`TelemetryDetail::ids`] only).
    pub revived_ids: Vec<NodeId>,
    /// Per-listener SINR decompositions, in listener order
    /// ([`TelemetryDetail::sinr`] only; empty on geometry-free channels,
    /// which have no SINR to decompose).
    pub sinr: Vec<SinrBreakdown>,
}

/// How much per-round detail a sink wants the simulator to collect.
///
/// Counts are always recorded; ids and SINR breakdowns cost extra work per
/// round, so sinks opt in. The simulator reads this **once, at attach
/// time** — a sink cannot change its detail level mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryDetail {
    /// Populate the per-event id vectors (transmitters, knockouts, churn).
    pub ids: bool,
    /// Populate per-listener [`SinrBreakdown`]s (routes resolution through
    /// the instrumented channel path — bit-identical by contract).
    pub sinr: bool,
}

impl TelemetryDetail {
    /// Counts only — the cheapest level.
    #[must_use]
    pub fn counts() -> Self {
        TelemetryDetail {
            ids: false,
            sinr: false,
        }
    }

    /// Counts plus id vectors.
    #[must_use]
    pub fn ids() -> Self {
        TelemetryDetail {
            ids: true,
            sinr: false,
        }
    }

    /// Everything: counts, ids, and per-listener SINR breakdowns.
    #[must_use]
    pub fn full() -> Self {
        TelemetryDetail {
            ids: true,
            sinr: true,
        }
    }
}

/// A consumer of per-round [`RoundEvent`]s, attached to a simulation via
/// [`Simulation::set_telemetry_sink`](crate::Simulation::set_telemetry_sink).
///
/// Sinks must be pure observers: nothing a sink does can feed back into
/// the simulation (the API gives it no handle to do so), which is what
/// makes the determinism contract structural rather than behavioral.
pub trait TelemetrySink: std::fmt::Debug + Send {
    /// The detail level this sink wants. Read once at attach time.
    fn detail(&self) -> TelemetryDetail {
        TelemetryDetail::counts()
    }

    /// Called once per executed round, after the round completed.
    fn on_round(&mut self, event: &RoundEvent);

    /// Called once when `run_until_resolved` finishes (not called for
    /// manually stepped simulations).
    fn on_run_end(&mut self, result: &RunResult) {
        let _ = result;
    }

    /// Type-erasure escape hatch so callers can recover a concrete sink
    /// from the `Box<dyn TelemetrySink>` returned by
    /// [`Simulation::take_telemetry_sink`](crate::Simulation::take_telemetry_sink)
    /// (see [`MemorySink::recover`]). Implement as `self`.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// A sink that drops every event: the zero-cost baseline used by the
/// overhead bench and by callers who only want the (side-effect-free)
/// proof that telemetry does not perturb a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn on_round(&mut self, _event: &RoundEvent) {}

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// A sink that buffers every event in memory, at a chosen detail level.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    detail: TelemetryDetail,
    events: Vec<RoundEvent>,
}

impl MemorySink {
    /// An empty sink requesting the given detail level.
    #[must_use]
    pub fn new(detail: TelemetryDetail) -> Self {
        MemorySink {
            detail,
            events: Vec::new(),
        }
    }

    /// The buffered events so far, in round order.
    #[must_use]
    pub fn events(&self) -> &[RoundEvent] {
        &self.events
    }

    /// Consumes the sink, yielding its events.
    #[must_use]
    pub fn into_events(self) -> Vec<RoundEvent> {
        self.events
    }

    /// Downcasts a boxed sink back to a `MemorySink` (`None` if the box
    /// holds some other sink type).
    #[must_use]
    pub fn recover(sink: Box<dyn TelemetrySink>) -> Option<MemorySink> {
        sink.into_any().downcast().ok().map(|b| *b)
    }
}

impl TelemetrySink for MemorySink {
    fn detail(&self) -> TelemetryDetail {
        self.detail
    }

    fn on_round(&mut self, event: &RoundEvent) {
        self.events.push(event.clone());
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Reconstructs the per-round active-set trajectory from an event stream
/// recorded at [`TelemetryDetail::ids`] (or higher).
///
/// Returns `events.len() + 1` snapshots: the initial set, then the set
/// after each round (churn applied, then knockouts removed — the order the
/// simulator applies them). Snapshot `k` is therefore exactly what
/// `Simulation::active_ids()` returned *before* round `k + 1` executed,
/// which is what observer-loop consumers (e.g. the E9 schedule-adherence
/// analysis) historically snapshotted.
#[must_use]
pub fn replay_active_sets(initial_active: &[NodeId], events: &[RoundEvent]) -> Vec<Vec<NodeId>> {
    let mut snapshots = Vec::with_capacity(events.len() + 1);
    let mut current: Vec<NodeId> = initial_active.to_vec();
    snapshots.push(current.clone());
    for ev in events {
        if !ev.crashed_ids.is_empty() {
            current.retain(|v| !ev.crashed_ids.contains(v));
        }
        for &v in &ev.revived_ids {
            if let Err(pos) = current.binary_search(&v) {
                current.insert(pos, v);
            }
        }
        if !ev.knocked_out_ids.is_empty() {
            current.retain(|v| !ev.knocked_out_ids.contains(v));
        }
        snapshots.push(current.clone());
    }
    snapshots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(round: u64) -> RoundEvent {
        RoundEvent {
            round,
            participants: 4,
            transmitters: 2,
            listeners: 2,
            noise_scale: 1.0,
            ..RoundEvent::default()
        }
    }

    #[test]
    fn detail_presets() {
        assert!(!TelemetryDetail::counts().ids);
        assert!(!TelemetryDetail::counts().sinr);
        assert!(TelemetryDetail::ids().ids);
        assert!(!TelemetryDetail::ids().sinr);
        assert!(TelemetryDetail::full().ids && TelemetryDetail::full().sinr);
        assert_eq!(TelemetryDetail::default(), TelemetryDetail::counts());
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let mut sink = MemorySink::new(TelemetryDetail::counts());
        sink.on_round(&event(1));
        sink.on_round(&event(2));
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.events()[1].round, 2);
        assert_eq!(sink.into_events().len(), 2);
    }

    #[test]
    fn recover_round_trips_through_box() {
        let mut sink = MemorySink::new(TelemetryDetail::full());
        sink.on_round(&event(1));
        let boxed: Box<dyn TelemetrySink> = Box::new(sink);
        assert_eq!(boxed.detail(), TelemetryDetail::full());
        let back = MemorySink::recover(boxed).expect("must downcast");
        assert_eq!(back.events().len(), 1);
    }

    #[test]
    fn recover_rejects_foreign_sinks() {
        let boxed: Box<dyn TelemetrySink> = Box::new(NoopSink);
        assert!(MemorySink::recover(boxed).is_none());
    }

    #[test]
    fn replay_applies_knockouts_and_churn_in_order() {
        let mut e1 = event(1);
        e1.knocked_out_ids = vec![1, 3];
        let mut e2 = event(2);
        e2.crashed_ids = vec![0];
        e2.revived_ids = vec![3]; // revived by churn, then...
        e2.knocked_out_ids = vec![3]; // ...knocked out again the same round
        let snaps = replay_active_sets(&[0, 1, 2, 3], &[e1, e2]);
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0], vec![0, 1, 2, 3]);
        assert_eq!(snaps[1], vec![0, 2]);
        assert_eq!(snaps[2], vec![2]);
    }

    #[test]
    fn replay_revive_keeps_sorted_order_without_duplicates() {
        let mut e = event(1);
        e.revived_ids = vec![2, 2, 0];
        let snaps = replay_active_sets(&[1, 3], &[e]);
        assert_eq!(snaps[1], vec![0, 1, 2, 3]);
    }
}
