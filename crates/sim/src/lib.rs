//! # fading-sim
//!
//! A synchronous, round-based wireless network simulator for contention
//! resolution, driving node-local protocols over the channel models of
//! [`fading_channel`].
//!
//! The model follows Section 2 of *Contention Resolution on a Fading
//! Channel* (Fineman, Gilbert, Kuhn, Newport — PODC 2016): time is divided
//! into synchronous rounds; in each round a node either transmits at fixed
//! power or listens (half-duplex); reception is decided by the channel
//! model. The **contention resolution problem is solved in the first round
//! in which exactly one active node transmits**.
//!
//! * [`Protocol`] — the node-local state machine interface.
//! * [`Simulation`] — owns a deployment, a channel, and one protocol
//!   instance per node; steps rounds until resolution.
//! * [`RunResult`] / [`Trace`] — what happened, at selectable detail.
//! * [`montecarlo`] — seeded parallel trial running and summaries.
//! * [`faults`] — deterministic adversarial fault injection (jammers,
//!   noise bursts, churn, Gilbert–Elliott burst loss), attached to a run
//!   via [`Simulation::set_fault_plan`].
//! * [`telemetry`] — structured per-round observability: [`RoundEvent`]
//!   streams to pluggable [`TelemetrySink`]s, JSONL export, and a
//!   [`MetricsRegistry`] of latency/interference/knockout statistics,
//!   attached via [`Simulation::set_telemetry_sink`]. Attaching a sink
//!   never changes a run's outcome.
//! * [`obs`] — profiling-grade observability: a hand-rolled span
//!   [`Tracer`] over the step loop (attach via
//!   [`Simulation::set_tracer`]), unified [`EngineCounters`] for the
//!   resolve tiers and the far-field decision ladder
//!   ([`Simulation::engine_counters`]), and Prometheus / Chrome-trace /
//!   flamegraph exporters.
//! * [`recover`] — fault-tolerant execution: checksummed
//!   checkpoint/resume ([`Simulation::snapshot`] / [`Simulation::restore`]),
//!   supervised trials with panic isolation, a watchdog and resume
//!   manifests (all through [`montecarlo::TrialRunner`]), and opt-in
//!   self-checking engines with graceful tier degradation
//!   ([`Simulation::set_self_check`]).
//!
//! Everything is deterministic given the master seed: node RNGs are derived
//! by SplitMix64 from `(seed, node id)`, the channel RNG from `seed`, and
//! fault injection from its own `seed` lane.
//!
//! # Example
//!
//! ```
//! use fading_channel::{SinrChannel, SinrParams};
//! use fading_geom::Deployment;
//! use fading_sim::{Action, Protocol, Reception, Simulation};
//! use rand::{rngs::SmallRng, Rng};
//!
//! /// The paper's algorithm in eight lines (the production version lives in
//! /// `fading-protocols`).
//! #[derive(Debug)]
//! struct Simple { active: bool }
//! impl Protocol for Simple {
//!     fn act(&mut self, _round: u64, rng: &mut SmallRng) -> Action {
//!         if rng.gen_bool(0.25) { Action::Transmit } else { Action::Listen }
//!     }
//!     fn feedback(&mut self, _round: u64, reception: &Reception) {
//!         if reception.is_message() { self.active = false; }
//!     }
//!     fn is_active(&self) -> bool { self.active }
//!     fn name(&self) -> &'static str { "simple" }
//! }
//!
//! let deployment = Deployment::uniform_square(32, 20.0, 1);
//! let channel = SinrChannel::new(SinrParams::default_single_hop());
//! let mut sim = Simulation::new(deployment, Box::new(channel), 99, |_id| {
//!     Box::new(Simple { active: true })
//! });
//! let result = sim.run_until_resolved(10_000);
//! assert!(result.resolved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod action;
pub mod faults;
pub mod montecarlo;
pub mod obs;
mod pool;
mod protocol;
pub mod recover;
mod result;
mod rng;
mod simulation;
pub mod telemetry;

pub use action::Action;
pub use faults::{FaultError, FaultPlan};
pub use obs::{
    EngineCounters, MemoryProgress, NoopProgress, ProgressEvent, ProgressSink, Rates,
    ResolvePath, SpanGuard, SpanRecord, TimeSeries, Tracer, TsFrame, TsSample,
};
pub use pool::StealPool;
pub use protocol::{Protocol, ProtocolStateError};
pub use recover::{
    FleetSummary, PanicKind, SimSnapshot, SnapshotError, SupervisorConfig, TrialManifest,
    TrialOutcome,
};
pub use result::{RoundRecord, RunOutcome, RunResult, Trace, TraceLevel};
pub use rng::{channel_rng, fault_rng, node_rng, self_check_rng, split_mix64};
pub use simulation::{SimError, Simulation, StepOutcome};
pub use telemetry::{
    MemorySink, MetricsRegistry, NoopSink, RoundEvent, TelemetryDetail, TelemetrySink,
};

// Re-export the vocabulary types callers always need alongside the simulator.
pub use fading_channel::{Channel, EngineTier, GainCache, NodeId, Reception, ResolveEngine};
