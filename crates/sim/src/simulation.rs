//! The round-based simulation engine.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

use fading_channel::{
    Channel, ChannelPerturbation, EngineTier, NodeId, ResolveEngine, SerialExecutor, SinrBreakdown,
};
use fading_geom::{Deployment, Point};

use crate::faults::{ChurnEvent, ChurnKind, FaultError, FaultPlan};
use crate::obs::{EngineCounters, ResolvePath, SpanGuard, Tracer};
use crate::pool::StealPool;
use crate::recover::snapshot::{fnv1a64, SimSnapshot, SnapshotError};
use crate::result::RunResult;
use crate::rng::{channel_rng, fault_rng, node_rng, self_check_rng};
use crate::telemetry::{MemorySink, RoundEvent, TelemetryDetail, TelemetrySink};
use crate::{Action, Protocol};

/// Why a simulation could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The deployment had no nodes.
    EmptyDeployment,
    /// Every protocol instance reported inactive at construction, so no
    /// round could ever have a transmitter and the run could never resolve.
    NoActiveNodes,
    /// The configured fault plan does not fit the deployment.
    Fault(FaultError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EmptyDeployment => write!(f, "deployment has no nodes"),
            SimError::NoActiveNodes => {
                write!(
                    f,
                    "no protocol instance is active; the run can never resolve"
                )
            }
            SimError::Fault(e) => write!(f, "fault plan rejected: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The settings fixed before round 1, passed to [`Simulation::try_new`].
/// Each one shapes the engine or the run's recorded bytes, so none can
/// change once the simulation exists; the engine is built once, for the
/// configured tier.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimConfig {
    /// Forces the engine tier: the highest tier at or below it that the
    /// channel can serve for this deployment is built (see
    /// [`ResolveEngine::build`]). `None` takes [`EngineTier::auto`]'s
    /// choice. Every tier is decision-exact (bit-identical receptions;
    /// see [`Channel::resolve_with`]), so the tier changes a run's speed,
    /// never its outcome.
    pub tier: Option<EngineTier>,
    /// Self-checking engines: on every eligible round this many randomly
    /// chosen listeners are re-resolved through the **exact** scan, with
    /// SINR breakdowns, and compared with the fast tier's receptions (0 = off).
    ///
    /// A round is eligible when a fast tier (gain cache or tile tree)
    /// served it on a channel whose resolve draws no randomness — a
    /// partial re-resolve on an RNG-drawing channel would desynchronize
    /// the stream. On any mismatch, or a non-finite signal / interference
    /// / noise intermediate, the serving tier is **demoted**: the next
    /// lower tier the channel can serve is built on the spot
    /// (hierarchical → gain-cache → exact), recorded in
    /// [`EngineCounters::tier_demotions`] and the span stream. The check
    /// never panics, and because the tiers are bit-identical, demotion
    /// never changes a healthy run's outcome. Sample selection draws from
    /// a dedicated RNG lane, so auditing does not perturb the run.
    pub self_check: usize,
    /// Faults injected into the run (see [`crate::faults`]). An *empty*
    /// plan is byte-identical to no plan at all.
    pub fault_plan: Option<FaultPlan>,
}

/// Self-checking state: per-round sampled re-resolution of listeners
/// through the exact path (see [`SimConfig::self_check`]).
#[derive(Debug)]
struct SelfCheck {
    /// Listeners audited per eligible round (never 0).
    samples: usize,
    /// Dedicated RNG lane for sample selection — drawing from the node or
    /// channel lanes would perturb the run under audit.
    rng: SmallRng,
    /// Test hook: force the next audited sample to report a violation.
    inject_violation: bool,
}

/// A synchronous-round simulation: one deployment, one channel, one protocol
/// instance per node.
///
/// Each round the simulator (1) asks every active node for its action,
/// (2) resolves receptions for the active listeners through the channel,
/// (3) delivers feedback to the listeners, and (4) deactivates nodes whose
/// protocol reports inactive. The run is **resolved** in the first round in
/// which exactly one active node transmits. Each round is reported once, as
/// one [`RoundEvent`] that the engine counters and the telemetry sink read;
/// a [`MemorySink`] keeps the stream (see [`Simulation::run_recorded`]).
///
/// See the [crate-level example](crate) for a complete usage sketch.
#[derive(Debug)]
pub struct Simulation {
    positions: Vec<Point>,
    channel: Box<dyn Channel>,
    // Master seed, retained for snapshot fingerprinting and the
    // self-check RNG lane.
    seed: u64,
    protocols: Vec<Box<dyn Protocol>>,
    node_rngs: Vec<SmallRng>,
    chan_rng: SmallRng,
    active: Vec<bool>,
    num_active: usize,
    round: u64,
    total_transmissions: u64,
    resolved_at: Option<u64>,
    winner: Option<NodeId>,
    // The one engine serving every round, built once for the configured
    // (or auto) tier; a failed self-check demotes it one tier at a time.
    engine: ResolveEngine,
    // Executor for the hierarchical engine's per-listener-chunk resolve.
    // Thread count never changes results (the ChunkExecutor contract);
    // defaults to 1, raised via `set_resolve_threads`.
    resolve_pool: StealPool,
    // Scratch buffers reused across rounds.
    transmitters: Vec<NodeId>,
    listeners: Vec<NodeId>,
    // Fault injection (see crate::faults). Without a plan every other
    // field here is an empty placeholder.
    fault_plan: Option<FaultPlan>,
    fault_rng: SmallRng,
    // First round in which node i participates (0 = from the start).
    wake_round: Vec<u64>,
    // Crash/Revive events sorted by round, consumed via `churn_cursor`.
    churn_events: Vec<ChurnEvent>,
    churn_cursor: usize,
    // jam_gains[j * n + v] = interference power jammer j lands on node v.
    jam_gains: Vec<f64>,
    jam_scratch: Vec<f64>,
    // Gilbert–Elliott state: currently in the bad (burst) state?
    loss_in_burst: bool,
    // Telemetry (see crate::telemetry). The detail level is cached at
    // attach time; with no sink the round's event goes to the counters
    // only (guarded by the `telemetry_overhead_n2048` bench).
    telemetry: Option<Box<dyn TelemetrySink>>,
    telemetry_detail: TelemetryDetail,
    // Span tracer (see crate::obs), the simulation's only clock. None
    // until attached; with no tracer every span site is one `Option`
    // check.
    tracer: Option<Arc<Tracer>>,
    // Engine-decision counters (see crate::obs::EngineCounters). The live
    // engine's ladder counters are merged in by `engine_counters()`;
    // `counters.farfield` holds those of engines it replaced.
    counters: EngineCounters,
    // None = self-checking off (the default); the scratch holds the audit
    // resolve's SINR breakdowns.
    self_check: Option<SelfCheck>,
    self_check_scratch: Vec<SinrBreakdown>,
}

impl Simulation {
    /// Creates a simulation over `deployment` with the given channel and
    /// master `seed`, with the default [`SimConfig`]. `make_protocol` is
    /// called once per node id to build that node's protocol instance.
    pub fn new<F>(
        deployment: Deployment,
        channel: Box<dyn Channel>,
        seed: u64,
        make_protocol: F,
    ) -> Self
    where
        F: FnMut(NodeId) -> Box<dyn Protocol>,
    {
        Simulation::build(
            deployment,
            channel,
            seed,
            SimConfig::default(),
            make_protocol,
        )
    }

    /// Like [`Simulation::new`] with an explicit [`SimConfig`], rejecting
    /// degenerate setups instead of constructing a simulation that can
    /// never make progress.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyDeployment`] if `deployment` has no nodes;
    /// [`SimError::Fault`] if the fault plan does not fit the deployment
    /// (a churn event names a node outside it);
    /// [`SimError::NoActiveNodes`] if every protocol instance reports
    /// inactive at construction (such a run has no possible transmitter and
    /// would only ever burn its round budget).
    pub fn try_new<F>(
        deployment: Deployment,
        channel: Box<dyn Channel>,
        seed: u64,
        config: SimConfig,
        make_protocol: F,
    ) -> Result<Self, SimError>
    where
        F: FnMut(NodeId) -> Box<dyn Protocol>,
    {
        if deployment.is_empty() {
            return Err(SimError::EmptyDeployment);
        }
        if let Some(plan) = &config.fault_plan {
            plan.validate_for(deployment.len())
                .map_err(SimError::Fault)?;
        }
        let sim = Simulation::build(deployment, channel, seed, config, make_protocol);
        if sim.num_active == 0 {
            return Err(SimError::NoActiveNodes);
        }
        Ok(sim)
    }

    /// Construction proper; `config`'s fault plan is already validated.
    fn build<F>(
        deployment: Deployment,
        channel: Box<dyn Channel>,
        seed: u64,
        config: SimConfig,
        mut make_protocol: F,
    ) -> Self
    where
        F: FnMut(NodeId) -> Box<dyn Protocol>,
    {
        let n = deployment.len();
        let protocols: Vec<Box<dyn Protocol>> = (0..n).map(&mut make_protocol).collect();
        let node_rngs: Vec<SmallRng> = (0..n).map(|i| node_rng(seed, i)).collect();
        let active: Vec<bool> = protocols.iter().map(|p| p.is_active()).collect();
        let num_active = active.iter().filter(|&&a| a).count();
        let tier = config
            .tier
            .unwrap_or_else(|| EngineTier::auto(channel.as_ref(), n));
        let mut sim = Simulation {
            positions: deployment.into_points(),
            channel,
            seed,
            protocols,
            node_rngs,
            chan_rng: channel_rng(seed),
            active,
            num_active,
            round: 0,
            total_transmissions: 0,
            resolved_at: None,
            winner: None,
            engine: ResolveEngine::Exact,
            resolve_pool: StealPool::new(1),
            transmitters: Vec::new(),
            listeners: Vec::new(),
            fault_plan: None,
            fault_rng: fault_rng(seed),
            wake_round: Vec::new(),
            churn_events: Vec::new(),
            churn_cursor: 0,
            jam_gains: Vec::new(),
            jam_scratch: Vec::new(),
            loss_in_burst: false,
            telemetry: None,
            telemetry_detail: TelemetryDetail::counts(),
            tracer: None,
            counters: EngineCounters::default(),
            self_check: (config.self_check > 0).then(|| SelfCheck {
                samples: config.self_check,
                rng: self_check_rng(seed),
                inject_violation: false,
            }),
            self_check_scratch: Vec::new(),
        };
        sim.rebuild_engine(tier);
        if let Some(plan) = config.fault_plan {
            sim.attach_fault_plan(plan);
        }
        sim
    }

    /// Precomputes what the step loop needs from a validated `plan`.
    fn attach_fault_plan(&mut self, plan: FaultPlan) {
        let n = self.positions.len();
        // Late wake-ups become a per-node first-participation round (the
        // latest wins if several target the same node); crashes and
        // revivals become a round-sorted event queue.
        self.wake_round = vec![0; n];
        for ev in plan.churn() {
            match ev.kind {
                ChurnKind::LateWake => {
                    self.wake_round[ev.node] = self.wake_round[ev.node].max(ev.round);
                }
                ChurnKind::Crash | ChurnKind::Revive => self.churn_events.push(*ev),
            }
        }
        self.churn_events.sort_by_key(|ev| ev.round);

        // Precompute each jammer's interference power at every node; the
        // per-round perturbation is then a sum over active jammers.
        for jammer in plan.jammers() {
            for &pos in &self.positions {
                self.jam_gains.push(self.channel.interferer_gain(
                    jammer.position(),
                    pos,
                    jammer.power(),
                ));
            }
        }
        self.jam_scratch = vec![0.0; n];
        self.fault_plan = Some(plan);
    }

    /// The attached fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Whether node `i` is awake (has passed any scheduled late wake-up).
    /// Nodes are awake from round 1 unless a [`ChurnKind::LateWake`] event
    /// delays them.
    ///
    /// [`ChurnKind::LateWake`]: crate::faults::ChurnKind::LateWake
    #[must_use]
    pub fn is_awake(&self, i: NodeId) -> bool {
        match self.wake_round.get(i) {
            // `wake_round[i] = r` means "participates from round r"; during
            // Phase 1 of round r the comparison uses the incremented round.
            Some(&r) => self.round + 1 >= r,
            None => i < self.positions.len(),
        }
    }

    /// Forces node `v` inactive (crash-stop), regardless of protocol state.
    /// Returns whether the node's state actually changed.
    fn force_deactivate(&mut self, v: NodeId) -> bool {
        if self.active[v] {
            self.active[v] = false;
            self.num_active -= 1;
            self.engine.deactivate(v);
            true
        } else {
            false
        }
    }

    /// Re-activates a crashed node. A node whose own protocol has
    /// deactivated (knocked out) stays inactive: revival only undoes a
    /// crash, it never overrides the protocol contract that inactive
    /// protocols are never scheduled. Returns whether the node's state
    /// actually changed.
    fn force_activate(&mut self, v: NodeId) -> bool {
        if !self.active[v] && self.protocols[v].is_active() {
            self.active[v] = true;
            self.num_active += 1;
            self.engine.activate(v);
            true
        } else {
            false
        }
    }

    /// Applies the churn events scheduled for the current round (called at
    /// the start of [`Simulation::step`], before actions are collected),
    /// counting the ones that took effect in `event.churn_applied`; when
    /// `record_ids` is set, effective crashes/revivals are also listed in
    /// the event.
    fn apply_churn(&mut self, event: &mut RoundEvent, record_ids: bool) {
        while self.churn_cursor < self.churn_events.len()
            && self.churn_events[self.churn_cursor].round <= self.round
        {
            let ev = self.churn_events[self.churn_cursor];
            self.churn_cursor += 1;
            let (changed, ids) = match ev.kind {
                ChurnKind::Crash => (self.force_deactivate(ev.node), &mut event.crashed_ids),
                ChurnKind::Revive => (self.force_activate(ev.node), &mut event.revived_ids),
                ChurnKind::LateWake => unreachable!("late wakes are precomputed"),
            };
            if changed {
                event.churn_applied += 1;
                if record_ids {
                    ids.push(ev.node);
                }
            }
        }
    }

    /// Replaces the engine with one built for the highest tier at or below
    /// `tier` that the channel can serve for this deployment (see
    /// [`ResolveEngine::build`]), its occupancy synced to the current
    /// active set. Construction, snapshot restore and self-check demotion
    /// build through here.
    fn rebuild_engine(&mut self, tier: EngineTier) {
        if tier == self.engine.tier() {
            return;
        }
        let mut engine = ResolveEngine::build(self.channel.as_ref(), tier, &self.positions);
        for (i, &is_active) in self.active.iter().enumerate() {
            if !is_active {
                engine.deactivate(i);
            }
        }
        let retired = std::mem::replace(&mut self.engine, engine);
        self.counters.farfield.add(&retired.stats());
        self.counters.gain_cache_built |= self.engine.tier() == EngineTier::GainCache;
    }

    /// The tier serving rounds now.
    #[must_use]
    pub fn tier(&self) -> EngineTier {
        self.engine.tier()
    }

    /// The engine serving rounds now.
    #[must_use]
    pub fn engine(&self) -> &ResolveEngine {
        &self.engine
    }

    /// Sets how many worker threads the hierarchical engine's parallel
    /// per-listener resolve may use (clamped to at least 1; default 1).
    ///
    /// The thread count never changes results: listener chunking is fixed
    /// (independent of `threads`), chunk outputs are merged in chunk
    /// order, and the per-chunk ladder counters are commutative sums — so
    /// `threads ∈ {1, 2, 8}` produce byte-identical [`RunResult`]s and
    /// snapshots (checked by the differential oracle,
    /// `tests/differential.rs` at the repository root, on rounds split
    /// across two chunks).
    pub fn set_resolve_threads(&mut self, threads: usize) {
        self.resolve_pool = StealPool::new(threads);
    }

    /// Worker threads available to the hierarchical resolve.
    #[must_use]
    pub fn resolve_threads(&self) -> usize {
        self.resolve_pool.threads()
    }

    /// Attaches a telemetry sink; each subsequent round delivers one
    /// [`RoundEvent`] to it. The sink's [`TelemetrySink::detail`] level is
    /// read **once, here**. Replaces any previously attached sink.
    ///
    /// Attaching a sink never changes a run's outcome: events are pure
    /// observations of the round the engine resolved.
    pub fn set_telemetry_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.telemetry_detail = sink.detail();
        self.telemetry = Some(sink);
    }

    /// Detaches and returns the telemetry sink, if one is attached (use
    /// [`crate::telemetry::MemorySink::recover`] to downcast it back to a
    /// concrete type).
    pub fn take_telemetry_sink(&mut self) -> Option<Box<dyn TelemetrySink>> {
        self.telemetry_detail = TelemetryDetail::counts();
        self.telemetry.take()
    }

    /// Attaches a span tracer: every subsequent [`Simulation::step`]
    /// records a `step` span with one child per phase (`churn`, `act`,
    /// `resolve` + its tier, `ge_drop`, `feedback`, `telemetry`). The
    /// tracer is the simulation's only clock: round latency and phase
    /// totals are folds of these spans (see
    /// [`MetricsRegistry::fold`](crate::telemetry::MetricsRegistry::fold)).
    ///
    /// Tracing never changes a run's outcome — spans only observe. A run is
    /// traced exactly when a tracer is attached; without one every span
    /// site is one `Option` check.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Opens a span on the attached tracer, if one is attached.
    fn span(&self, name: &'static str) -> Option<SpanGuard> {
        self.tracer.as_ref().map(|t| t.span(name))
    }

    /// One unified snapshot of every engine-decision counter: per-tier
    /// round routing, gain-cache and perturbation activity, and the
    /// far-field decision ladder's per-rung counters (the live engine's
    /// plus those of every engine it replaced). See [`EngineCounters`] for
    /// the reconciliation invariants.
    #[must_use]
    pub fn engine_counters(&self) -> EngineCounters {
        let mut c = self.counters;
        c.farfield.add(&self.engine.stats());
        c
    }

    /// Whether self-checking is enabled (see [`SimConfig::self_check`]).
    #[must_use]
    pub fn self_check_enabled(&self) -> bool {
        self.self_check.is_some()
    }

    /// Test hook: forces the next audited self-check sample to report a
    /// violation, driving the demotion path without a real engine defect.
    /// No-op when self-checking is disabled.
    pub fn inject_self_check_violation(&mut self) {
        if let Some(sc) = &mut self.self_check {
            sc.inject_violation = true;
        }
    }

    /// Fingerprint over the construction inputs (node count, seed, channel,
    /// positions, fault-plan shape). A snapshot only restores into a
    /// simulation with the same fingerprint.
    fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(40 + self.positions.len() * 16);
        bytes.extend_from_slice(&(self.positions.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(self.channel.name().as_bytes());
        for p in &self.positions {
            bytes.extend_from_slice(&p.x.to_le_bytes());
            bytes.extend_from_slice(&p.y.to_le_bytes());
        }
        match &self.fault_plan {
            None => bytes.push(0xFF),
            Some(plan) => {
                bytes.push(1);
                bytes.extend_from_slice(&(plan.jammers().len() as u64).to_le_bytes());
                bytes.extend_from_slice(&(plan.noise_bursts().len() as u64).to_le_bytes());
                bytes.extend_from_slice(&(plan.churn().len() as u64).to_le_bytes());
                bytes.push(u8::from(plan.loss().is_some()));
            }
        }
        fnv1a64(&bytes)
    }

    /// Captures a checksummed [`SimSnapshot`] of every piece of mutable run
    /// state: round counter, all RNG lanes (including the fault lane), the
    /// active mask, per-node protocol states, fault-plan progress
    /// (churn cursor, Gilbert–Elliott burst state), the engine tier and
    /// its ladder counters, and the counters.
    ///
    /// Restoring into an identically constructed simulation (same
    /// deployment, channel, seed, protocol factory, and fault plan) via
    /// [`Simulation::restore`] resumes the run **byte-identically**: the
    /// resumed [`RunResult`] equals the uninterrupted one across every
    /// engine tier.
    #[must_use]
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            n: self.positions.len() as u64,
            seed: self.seed,
            fingerprint: self.fingerprint(),
            round: self.round,
            total_transmissions: self.total_transmissions,
            resolved_at: self.resolved_at,
            winner: self.winner.map(|w| w as u64),
            active: self.active.clone(),
            node_rngs: self.node_rngs.iter().map(SmallRng::state).collect(),
            chan_rng: self.chan_rng.state(),
            fault_rng: self.fault_rng.state(),
            self_check_samples: self.self_check.as_ref().map_or(0, |sc| sc.samples as u64),
            self_check_rng: self.self_check.as_ref().map_or([0; 4], |sc| sc.rng.state()),
            protocol_states: self.protocols.iter().map(|p| p.save_state()).collect(),
            churn_cursor: self.churn_cursor as u64,
            loss_in_burst: self.loss_in_burst,
            tier: self.engine.tier(),
            counters: self.counters,
            engine_stats: self.engine.stats(),
        }
    }

    /// Restores a [`SimSnapshot`] into this simulation, which must be
    /// **freshly constructed** with the same inputs as the snapshot's
    /// source (deployment, channel, seed, protocol factory, and fault
    /// plan). After a successful restore the simulation continues exactly
    /// where the snapshot was taken.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Incompatible`] when this simulation has already
    /// stepped, the node counts differ, the construction fingerprint does
    /// not match, or the snapshot's engine tier cannot be built here;
    /// [`SnapshotError::ProtocolState`] when a protocol rejects its
    /// checkpointed state words.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<(), SnapshotError> {
        if self.round != 0 {
            return Err(SnapshotError::Incompatible {
                detail: format!(
                    "restore target must be freshly constructed, but {} round(s) already ran",
                    self.round
                ),
            });
        }
        if snap.n as usize != self.positions.len() {
            return Err(SnapshotError::Incompatible {
                detail: format!(
                    "snapshot holds {} nodes, this simulation has {}",
                    snap.n,
                    self.positions.len()
                ),
            });
        }
        if snap.fingerprint != self.fingerprint() {
            return Err(SnapshotError::Incompatible {
                detail: "construction fingerprint mismatch (different deployment, seed, \
                         channel, or fault plan)"
                    .to_string(),
            });
        }

        // 1. Protocol states first: the active-mask reconciliation below
        // consults `Protocol::is_active` (revive semantics).
        for (p, state) in self.protocols.iter_mut().zip(&snap.protocol_states) {
            p.load_state(state)?;
        }
        // 2. Reconcile the active mask in both directions; the forced
        // transitions keep every engine's occupancy in sync.
        for i in 0..self.positions.len() {
            if self.active[i] && !snap.active[i] {
                self.force_deactivate(i);
            } else if !self.active[i] && snap.active[i] {
                self.force_activate(i);
            }
        }
        // A knocked-out protocol must never be counted active again; if
        // the mask still disagrees, the snapshot belongs to a different
        // protocol configuration.
        if self.active != snap.active {
            return Err(SnapshotError::Incompatible {
                detail: "active mask could not be reconciled (protocol states disagree \
                         with the snapshot's activity)"
                    .to_string(),
            });
        }
        // 3. RNG lanes.
        for (rng, state) in self.node_rngs.iter_mut().zip(&snap.node_rngs) {
            *rng = SmallRng::from_state(*state);
        }
        self.chan_rng = SmallRng::from_state(snap.chan_rng);
        self.fault_rng = SmallRng::from_state(snap.fault_rng);
        // 4. The engine: rebuilt at the snapshot's tier (its occupancy
        // syncs to the active mask reconciled above); a channel that
        // cannot serve that tier is incompatible with the snapshot.
        self.rebuild_engine(snap.tier);
        if self.engine.tier() != snap.tier {
            return Err(SnapshotError::Incompatible {
                detail: format!(
                    "the snapshot's {} engine cannot be built here \
                     (different channel capabilities)",
                    snap.tier.name()
                ),
            });
        }
        self.engine.set_stats(snap.engine_stats);
        // 5. Scalars, fault progress, counters.
        self.round = snap.round;
        self.total_transmissions = snap.total_transmissions;
        self.resolved_at = snap.resolved_at;
        self.winner = snap.winner.map(|w| w as NodeId);
        self.churn_cursor = snap.churn_cursor as usize;
        self.loss_in_burst = snap.loss_in_burst;
        self.counters = snap.counters;
        // 6. Self-check lane.
        self.self_check = if snap.self_check_samples == 0 {
            None
        } else {
            Some(SelfCheck {
                samples: snap.self_check_samples as usize,
                rng: SmallRng::from_state(snap.self_check_rng),
                inject_violation: false,
            })
        };
        Ok(())
    }

    /// Number of nodes in the deployment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if the deployment is empty (never the case for deployments
    /// built through `fading-geom`, which require at least two nodes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The current (1-based) count of completed rounds.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of currently active nodes.
    #[must_use]
    pub fn num_active(&self) -> usize {
        self.num_active
    }

    /// Whether node `i` is still active.
    #[must_use]
    pub fn is_active(&self, i: NodeId) -> bool {
        self.active.get(i).copied().unwrap_or(false)
    }

    /// Ids of currently active nodes, in increasing order.
    #[must_use]
    pub fn active_ids(&self) -> Vec<NodeId> {
        (0..self.len()).filter(|&i| self.active[i]).collect()
    }

    /// Node positions (index = node id).
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The round in which contention was resolved, if it has been.
    #[must_use]
    pub fn resolved_at(&self) -> Option<u64> {
        self.resolved_at
    }

    /// The solo transmitter of the resolving round, once resolved.
    #[must_use]
    pub fn winner(&self) -> Option<NodeId> {
        self.winner
    }

    /// Total transmissions so far, across all nodes and rounds (the energy
    /// cost in the unit-per-broadcast model).
    #[must_use]
    pub fn total_transmissions(&self) -> u64 {
        self.total_transmissions
    }

    /// Executes one synchronous round and reports it to the counters and
    /// any attached sink.
    ///
    /// Stepping past resolution is allowed (the remaining active nodes keep
    /// running their protocols); `resolved_at` keeps the *first* resolving
    /// round.
    pub fn step(&mut self) {
        let _step_span = self.span("step");
        self.round += 1;

        // The round's one report. Counts are always filled; ids only when
        // the sink asks for them.
        let sink_ids = self.telemetry.is_some() && self.telemetry_detail.ids;
        let mut event = RoundEvent {
            round: self.round,
            active_pre_churn: self.num_active,
            noise_scale: 1.0,
            ..RoundEvent::default()
        };

        let span_churn = self.span("churn");
        self.apply_churn(&mut event, sink_ids);
        drop(span_churn);

        // Phase 1: collect actions from active, awake nodes. (A node
        // scheduled for a late wake-up sleeps — neither transmits nor
        // listens — until its wake round.)
        let span_act = self.span("act");
        self.transmitters.clear();
        self.listeners.clear();
        for i in 0..self.positions.len() {
            if !self.active[i] {
                continue;
            }
            if let Some(&wake) = self.wake_round.get(i) {
                if self.round < wake {
                    continue;
                }
            }
            match self.protocols[i].act(self.round, &mut self.node_rngs[i]) {
                Action::Transmit => self.transmitters.push(i),
                Action::Listen => self.listeners.push(i),
            }
        }
        drop(span_act);

        self.total_transmissions += self.transmitters.len() as u64;
        event.transmitters = self.transmitters.len();
        event.listeners = self.listeners.len();
        // The nodes that actually took part this round: active ∧ awake,
        // post-churn. This — not `num_active`, which at this point still
        // counts sleeping late-wakers — is what `RoundEvent::participants`
        // reports.
        event.participants = event.transmitters + event.listeners;

        // Phase 2: the channel decides what listeners observe, through the
        // one engine. Every tier is bit-identical, so which one serves
        // never affects the outcome; likewise a neutral (or absent)
        // perturbation resolves through the clean expressions. The
        // classification is the same for perturbed and unperturbed
        // rounds: the fault plan changes what is resolved, not which
        // engine resolves it.
        event.resolve_path = match self.engine.tier() {
            EngineTier::Exact => ResolvePath::Exact,
            EngineTier::GainCache => ResolvePath::Cached,
            EngineTier::Hierarchical => ResolvePath::Hierarchical,
        };
        // Snapshot the far-field fallback tally so the event can report the
        // per-round delta (plain field reads; negligible next to resolve).
        let ff_fallbacks_before = self.engine.stats().exact_fallbacks();
        let span_resolve = self.span("resolve");
        let span_tier = self.span(match event.resolve_path {
            ResolvePath::Exact => "resolve.exact",
            ResolvePath::Cached => "resolve.gain_cache",
            ResolvePath::FarField => "resolve.farfield",
            ResolvePath::Hierarchical => "resolve.hierarchical",
        });
        let perturbation = match &self.fault_plan {
            None => ChannelPerturbation::neutral(),
            Some(plan) => {
                let noise_scale = plan.noise_scale(self.round);
                let jamming = plan.any_jammer_active(self.round);
                if noise_scale != 1.0 {
                    self.counters.noise_scaled_rounds += 1;
                }
                if jamming {
                    self.counters.jammed_rounds += 1;
                }
                if noise_scale != 1.0 || jamming {
                    self.counters.perturbed_rounds += 1;
                }
                let extra: &[f64] = if jamming {
                    let n = self.positions.len();
                    self.jam_scratch.iter_mut().for_each(|g| *g = 0.0);
                    for (j, jammer) in plan.jammers().iter().enumerate() {
                        if jammer.is_active(self.round) {
                            let row = &self.jam_gains[j * n..(j + 1) * n];
                            for (g, &add) in self.jam_scratch.iter_mut().zip(row) {
                                *g += add;
                            }
                        }
                    }
                    &self.jam_scratch
                } else {
                    &[]
                };
                event.noise_scale = noise_scale;
                event.jam_power = extra.iter().sum();
                ChannelPerturbation::new(noise_scale, extra)
            }
        };
        let mut receptions = self.channel.resolve_with(
            &self.positions,
            &self.transmitters,
            &self.listeners,
            &mut self.engine,
            &perturbation,
            &self.resolve_pool,
            &mut self.chan_rng,
            None,
        );
        event.ff_fallbacks = (self.engine.stats().exact_fallbacks() - ff_fallbacks_before) as usize;
        drop(span_tier);
        drop(span_resolve);
        debug_assert_eq!(receptions.len(), self.listeners.len());

        // Self-checking engines (opt-in): re-resolve a few sampled
        // listeners through the exact scan, with breakdowns, and compare with
        // the fast tier's receptions. Only tier-served rounds on channels
        // whose resolve draws no RNG are auditable — a partial re-resolve
        // on an RNG-drawing channel would desynchronize the stream. On a
        // mismatch or non-finite intermediate the serving tier is demoted
        // for the rest of the run; the check itself never panics.
        if self.self_check.is_some()
            && matches!(
                event.resolve_path,
                ResolvePath::Cached | ResolvePath::Hierarchical
            )
            && !self.listeners.is_empty()
            && !self.channel.resolve_draws_rng()
        {
            if let Some(mut sc) = self.self_check.take() {
                let _span_check = self.span("self_check");
                self.counters.self_check_rounds += 1;
                let m = self.listeners.len();
                let samples = sc.samples.min(m);
                let inject = std::mem::take(&mut sc.inject_violation);
                let mut violated = false;
                for s in 0..samples {
                    let idx = sc.rng.gen_range(0..m);
                    let audit = [self.listeners[idx]];
                    // The audited channels are deterministic (no RNG
                    // draws); the clone just keeps the signature happy
                    // without touching the real stream.
                    let mut audit_rng = self.chan_rng.clone();
                    let expected = self.channel.resolve_with(
                        &self.positions,
                        &self.transmitters,
                        &audit,
                        &mut ResolveEngine::Exact,
                        &perturbation,
                        &SerialExecutor,
                        &mut audit_rng,
                        Some(&mut self.self_check_scratch),
                    );
                    self.counters.self_check_samples += 1;
                    let nonfinite = self.self_check_scratch.first().is_some_and(|b| {
                        !b.signal.is_finite() || !b.interference.is_finite() || !b.noise.is_finite()
                    });
                    if expected.first() != Some(&receptions[idx]) || nonfinite || (inject && s == 0)
                    {
                        self.counters.self_check_violations += 1;
                        violated = true;
                    }
                }
                if violated {
                    // Graceful degradation: replace the tier that served
                    // this round with the next lower one the channel can
                    // serve (hierarchical → gain-cache → exact). Only fast
                    // tiers are audited, so a lower tier always exists.
                    let _span_demote = self.span("self_check.demote");
                    if let Some(lower) = self.engine.tier().lower() {
                        self.rebuild_engine(lower);
                    }
                    self.counters.tier_demotions += 1;
                }
                self.self_check = Some(sc);
            }
        }

        // Gilbert–Elliott burst loss: advance the channel state once per
        // round, then drop each decoded message with the state's drop
        // probability. Draws come from the dedicated fault RNG lane, and
        // the reception set is cache-invariant, so this pass preserves
        // byte-determinism across cache and thread settings.
        if let Some(ge) = self.fault_plan.as_ref().and_then(FaultPlan::loss) {
            let _span_ge = self.span("ge_drop");
            self.loss_in_burst = ge.advance(self.loss_in_burst, &mut self.fault_rng);
            let drop_prob = ge.drop_prob(self.loss_in_burst);
            if drop_prob > 0.0 {
                for r in &mut receptions {
                    if r.is_message() && self.fault_rng.gen_bool(drop_prob) {
                        *r = fading_channel::Reception::Silence;
                        event.ge_dropped += 1;
                    }
                }
            }
        }
        event.ge_in_burst = self.loss_in_burst;

        // Phase 3: feedback and deactivation.
        let span_feedback = self.span("feedback");
        for (k, &v) in self.listeners.iter().enumerate() {
            self.protocols[v].feedback(self.round, &receptions[k]);
            if !self.protocols[v].is_active() {
                self.active[v] = false;
                self.num_active -= 1;
                event.knocked_out += 1;
                if sink_ids {
                    event.knocked_out_ids.push(v);
                }
                self.engine.deactivate(v);
            }
        }
        drop(span_feedback);

        // Resolution check: exactly one *active* node transmitted.
        event.resolved = self.transmitters.len() == 1;
        event.winner = event.resolved.then(|| self.transmitters[0]);
        if self.resolved_at.is_none() && event.resolved {
            self.resolved_at = Some(self.round);
            self.winner = event.winner;
        }
        if sink_ids {
            event.transmitter_ids = self.transmitters.clone();
        }
        self.counters.record_round(&event);
        if self.telemetry.is_some() {
            let _span_telemetry = self.span("telemetry");
            if let Some(sink) = self.telemetry.as_deref_mut() {
                sink.on_round(&event);
            }
        }
    }

    /// Runs rounds until contention resolves or `max_rounds` is exhausted,
    /// then returns the result (consuming nothing; the simulation can be
    /// inspected or stepped further).
    pub fn run_until_resolved(&mut self, max_rounds: u64) -> RunResult {
        self.run_until_resolved_with(max_rounds, |_| {})
    }

    /// Like [`Simulation::run_until_resolved`], invoking `observe(&self)`
    /// **before every round** (and once more after the final round), so
    /// callers can snapshot evolving state — e.g. per-round link-class
    /// partitions for the §3.3 schedule-adherence analysis — without
    /// hand-rolling the stepping loop.
    pub fn run_until_resolved_with<F>(&mut self, max_rounds: u64, mut observe: F) -> RunResult
    where
        F: FnMut(&Simulation),
    {
        let initial = self.positions.len();
        while self.resolved_at.is_none() && self.round < max_rounds {
            observe(self);
            self.step();
        }
        observe(self);
        let result = RunResult::new(
            self.resolved_at,
            self.round,
            initial,
            self.num_active,
            self.winner,
            self.total_transmissions,
        );
        if let Some(sink) = self.telemetry.as_deref_mut() {
            sink.on_run_end(&result);
        }
        result
    }

    /// Like [`Simulation::run_until_resolved`] with a fresh [`MemorySink`]
    /// at `detail` attached for the run (replacing any attached sink):
    /// returns the result and the run's events, one per round executed
    /// here.
    pub fn run_recorded(
        &mut self,
        max_rounds: u64,
        detail: TelemetryDetail,
    ) -> (RunResult, Vec<RoundEvent>) {
        self.set_telemetry_sink(Box::new(MemorySink::new(detail)));
        let result = self.run_until_resolved(max_rounds);
        let sink = self.take_telemetry_sink().and_then(MemorySink::recover);
        (
            result,
            sink.map(MemorySink::into_events).unwrap_or_default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_channel::{RadioChannel, Reception, SinrChannel, SinrParams};
    use rand::Rng;

    /// Transmits with a fixed probability forever; knocked out on reception.
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
        fn save_state(&self) -> Vec<u64> {
            vec![u64::from(self.active)]
        }
        fn load_state(&mut self, state: &[u64]) -> Result<(), crate::ProtocolStateError> {
            match state {
                [active] => {
                    self.active = *active != 0;
                    Ok(())
                }
                _ => Err(crate::ProtocolStateError {
                    protocol: self.name(),
                    expected: 1,
                    got: state.len(),
                }),
            }
        }
    }

    /// Always transmits.
    #[derive(Debug)]
    struct AlwaysTx;

    impl Protocol for AlwaysTx {
        fn act(&mut self, _round: u64, _rng: &mut SmallRng) -> Action {
            Action::Transmit
        }
        fn feedback(&mut self, _round: u64, _reception: &Reception) {}
        fn is_active(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "test-always"
        }
    }

    /// Only node 0 transmits; everyone else listens.
    #[derive(Debug)]
    struct OnlyNodeZero {
        id: NodeId,
    }

    impl Protocol for OnlyNodeZero {
        fn act(&mut self, _round: u64, _rng: &mut SmallRng) -> Action {
            if self.id == 0 {
                Action::Transmit
            } else {
                Action::Listen
            }
        }
        fn feedback(&mut self, _round: u64, _reception: &Reception) {}
        fn is_active(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "test-node-zero"
        }
    }

    fn line_deployment(n: usize) -> Deployment {
        Deployment::from_points(
            (0..n)
                .map(|i| Point::new(i as f64 * 2.0, 0.0))
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn solo_transmitter_resolves_in_round_one() {
        let mut sim = Simulation::new(line_deployment(4), Box::new(RadioChannel::new()), 0, |id| {
            Box::new(OnlyNodeZero { id })
        });
        sim.step();
        assert_eq!(sim.resolved_at(), Some(1));
        assert_eq!(sim.winner(), Some(0));
    }

    #[test]
    fn everyone_transmitting_never_resolves_on_radio() {
        let mut sim = Simulation::new(line_deployment(4), Box::new(RadioChannel::new()), 0, |_| {
            Box::new(AlwaysTx)
        });
        let result = sim.run_until_resolved(50);
        assert!(!result.resolved());
        assert_eq!(result.rounds_executed(), 50);
        assert_eq!(result.final_active(), 4);
    }

    #[test]
    fn knockout_protocol_resolves_on_sinr() {
        let deployment = Deployment::uniform_square(24, 15.0, 3);
        let channel = SinrChannel::new(SinrParams::default_single_hop());
        let mut sim = Simulation::new(deployment, Box::new(channel), 17, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        let result = sim.run_until_resolved(5_000);
        assert!(result.resolved(), "run did not resolve");
        assert!(result.winner().is_some());
        assert!(result.final_active() >= 1);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let run = |seed: u64| knockout_sim(seed).run_recorded(5_000, TelemetryDetail::ids());
        let a = run(123);
        let b = run(123);
        let c = run(124);
        assert_eq!(a, b);
        // Different seeds should (generically) differ somewhere.
        assert_ne!(a, c);
    }

    #[test]
    fn run_recorded_events_carry_the_requested_detail() {
        let run = |detail: TelemetryDetail| {
            let radio = Box::new(RadioChannel::new());
            let mut sim = Simulation::new(line_deployment(6), radio, 1, |_| Box::new(AlwaysTx));
            sim.step();
            sim.run_recorded(2, detail).1
        };
        let counts = run(TelemetryDetail::counts());
        let ids = run(TelemetryDetail::ids());
        // Only the rounds the recorded run executes are recorded.
        assert_eq!(counts.len(), 1);
        assert_eq!((counts[0].round, counts[0].transmitters), (2, 6));
        assert!(counts[0].transmitter_ids.is_empty());
        assert_eq!(ids[0].transmitter_ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn knocked_out_nodes_stop_acting() {
        // Two nodes, radio channel: when one transmits alone the other is
        // knocked out; afterwards num_active == 1.
        let mut sim = Simulation::new(line_deployment(2), Box::new(RadioChannel::new()), 9, |_| {
            Box::new(Knockout {
                p: 0.5,
                active: true,
            })
        });
        let result = sim.run_until_resolved(10_000);
        assert!(result.resolved());
        assert_eq!(sim.num_active(), 1);
        let survivor = sim.active_ids();
        assert_eq!(survivor.len(), 1);
        assert_eq!(Some(survivor[0]), result.winner());
    }

    #[test]
    fn transmission_count_matches_events() {
        let deployment = Deployment::uniform_square(24, 15.0, 3);
        let channel = SinrChannel::new(SinrParams::default_single_hop());
        let mut sim = Simulation::new(deployment, Box::new(channel), 17, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        let (result, events) = sim.run_recorded(5_000, TelemetryDetail::counts());
        let from_events: u64 = events.iter().map(|e| e.transmitters as u64).sum();
        assert_eq!(result.total_transmissions(), from_events);
        assert!(result.total_transmissions() > 0);
        assert_eq!(sim.total_transmissions(), from_events);
    }

    fn knockout_sim(seed: u64) -> Simulation {
        knockout_sim_with(seed, SimConfig::default()).unwrap()
    }

    fn knockout_sim_with(seed: u64, config: SimConfig) -> Result<Simulation, SimError> {
        let deployment = Deployment::uniform_square(20, 12.0, 5);
        let channel = SinrChannel::new(SinrParams::default_single_hop());
        Simulation::try_new(deployment, Box::new(channel), seed, config, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        })
    }

    fn with_plan(plan: FaultPlan) -> SimConfig {
        SimConfig {
            fault_plan: Some(plan),
            ..SimConfig::default()
        }
    }

    /// `make_protocol` over an `n`-node radio line with `plan` attached.
    fn radio_line_with_plan<F>(n: usize, plan: FaultPlan, make_protocol: F) -> Simulation
    where
        F: FnMut(NodeId) -> Box<dyn Protocol>,
    {
        let config = with_plan(plan);
        let radio = Box::new(RadioChannel::new());
        Simulation::try_new(line_deployment(n), radio, 0, config, make_protocol).unwrap()
    }

    #[test]
    fn try_new_rejects_empty_deployment() {
        let deployment = Deployment::from_points(Vec::new()).unwrap_or_else(|_| {
            // `fading-geom` may itself refuse empty deployments; in that
            // case the guard in try_new is unreachable through the public
            // API and this test only checks the NoActiveNodes path below.
            Deployment::uniform_square(2, 5.0, 0)
        });
        if deployment.is_empty() {
            let err = Simulation::try_new(
                deployment,
                Box::new(RadioChannel::new()),
                0,
                SimConfig::default(),
                |_| Box::new(AlwaysTx),
            )
            .unwrap_err();
            assert_eq!(err, SimError::EmptyDeployment);
            assert!(err.to_string().contains("no nodes"));
        }
    }

    #[test]
    fn try_new_rejects_all_inactive_protocols() {
        let err = Simulation::try_new(
            line_deployment(4),
            Box::new(RadioChannel::new()),
            0,
            SimConfig::default(),
            |_| {
                Box::new(Knockout {
                    p: 0.5,
                    active: false,
                })
            },
        )
        .unwrap_err();
        assert_eq!(err, SimError::NoActiveNodes);
        assert!(err.to_string().contains("never resolve"));
    }

    #[test]
    fn try_new_accepts_normal_setup() {
        let sim = Simulation::try_new(
            line_deployment(4),
            Box::new(RadioChannel::new()),
            0,
            SimConfig::default(),
            |_| Box::new(AlwaysTx),
        )
        .unwrap();
        assert_eq!(sim.num_active(), 4);
    }

    #[test]
    fn fault_plan_rejects_out_of_range_churn() {
        let plan = FaultPlan::new().with_churn(crate::faults::ChurnEvent::crash(3, 999).unwrap());
        let err = knockout_sim_with(1, with_plan(plan)).unwrap_err();
        assert!(matches!(
            err,
            SimError::Fault(FaultError::NodeOutOfRange { node: 999, .. })
        ));
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_none() {
        let run = |with_plan: bool| {
            let config = SimConfig {
                fault_plan: with_plan.then(FaultPlan::new),
                ..SimConfig::default()
            };
            knockout_sim_with(77, config)
                .unwrap()
                .run_recorded(5_000, TelemetryDetail::ids())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn continuous_strong_jammer_blocks_all_knockouts() {
        // A jammer drowning every listener cannot stop a lucky solo
        // transmission from resolving contention — but it must prevent
        // every knockout (no listener ever decodes a message).
        use crate::faults::Jammer;
        let power = SinrParams::default_single_hop().power() * 1e6;
        let plan = FaultPlan::new()
            .with_jammer(Jammer::continuous(Point::new(6.0, 6.0), power, 1).unwrap());
        let mut sim = knockout_sim_with(42, with_plan(plan)).unwrap();
        let (_, events) = sim.run_recorded(200, TelemetryDetail::counts());
        assert!(
            events.iter().all(|e| e.knocked_out == 0),
            "an overwhelming continuous jammer must prevent every knockout"
        );
        assert_eq!(sim.num_active(), sim.len());
    }

    #[test]
    fn budgeted_jammer_only_delays_resolution() {
        use crate::faults::Jammer;
        let clean = {
            let mut sim = knockout_sim(42);
            sim.run_until_resolved(5_000)
        };
        let jammed = {
            let power = SinrParams::default_single_hop().power() * 1e6;
            let plan = FaultPlan::new()
                .with_jammer(Jammer::new(Point::new(6.0, 6.0), power, 1, 1, 1, Some(30)).unwrap());
            let mut sim = knockout_sim_with(42, with_plan(plan)).unwrap();
            sim.run_until_resolved(5_000)
        };
        assert!(
            jammed.resolved(),
            "a budget-bounded jammer cannot block forever"
        );
        assert!(
            jammed.resolved_at().unwrap() >= clean.resolved_at().unwrap(),
            "jamming should never speed up resolution on the same seed"
        );
    }

    #[test]
    fn crash_events_force_nodes_out() {
        use crate::faults::ChurnEvent;
        let plan = FaultPlan::new()
            .with_churn(ChurnEvent::crash(2, 1).unwrap())
            .with_churn(ChurnEvent::crash(2, 2).unwrap())
            .with_churn(ChurnEvent::crash(2, 3).unwrap());
        let mut sim = radio_line_with_plan(4, plan, |_| Box::new(AlwaysTx));
        sim.step();
        assert_eq!(sim.num_active(), 4);
        // Round 2: nodes 1–3 crash at the start, node 0 transmits alone.
        sim.step();
        assert_eq!(sim.resolved_at(), Some(2), "resolution after crashes");
        assert_eq!(sim.winner(), Some(0));
        assert!(!sim.is_active(1));
        assert_eq!(sim.num_active(), 1);
    }

    #[test]
    fn revive_undoes_crash_but_not_knockout() {
        use crate::faults::ChurnEvent;
        let plan = FaultPlan::new()
            .with_churn(ChurnEvent::crash(1, 2).unwrap())
            .with_churn(ChurnEvent::revive(3, 2).unwrap());
        let mut sim = radio_line_with_plan(4, plan, |_| Box::new(AlwaysTx));
        sim.step();
        assert!(!sim.is_active(2), "crash must deactivate");
        sim.step();
        assert!(!sim.is_active(2));
        sim.step();
        assert!(sim.is_active(2), "revive must restore a crashed node");
        assert_eq!(sim.num_active(), 4);
    }

    #[test]
    fn revive_never_resurrects_protocol_knockouts() {
        use crate::faults::ChurnEvent;
        // Two-node radio network: node 0 transmits alone in round 1, so
        // node 1 receives and knocks itself out. A revival scheduled later
        // must NOT bring it back: its own protocol is inactive.
        let plan = FaultPlan::new().with_churn(ChurnEvent::revive(3, 1).unwrap());
        let mut sim = radio_line_with_plan(2, plan, |id| {
            if id == 0 {
                Box::new(AlwaysTx) as Box<dyn Protocol>
            } else {
                Box::new(Knockout {
                    p: 0.0,
                    active: true,
                })
            }
        });
        sim.step();
        assert!(!sim.is_active(1), "reception must knock node 1 out");
        sim.step();
        sim.step();
        assert!(
            !sim.is_active(1),
            "revival must not override a protocol-level knockout"
        );
    }

    #[test]
    fn late_wake_nodes_sleep_until_their_round() {
        use crate::faults::ChurnEvent;
        // All nodes always transmit; nodes 1–3 wake only at round 4. With
        // only node 0 awake, round 1 resolves immediately.
        let plan = FaultPlan::new()
            .with_churn(ChurnEvent::late_wake(4, 1).unwrap())
            .with_churn(ChurnEvent::late_wake(4, 2).unwrap())
            .with_churn(ChurnEvent::late_wake(4, 3).unwrap());
        let mut sim = radio_line_with_plan(4, plan, |_| Box::new(AlwaysTx));
        assert!(sim.is_awake(0));
        assert!(!sim.is_awake(1));
        sim.step();
        assert_eq!(
            sim.resolved_at(),
            Some(1),
            "the lone awake node transmits solo"
        );
        assert_eq!(sim.winner(), Some(0));
        // After round 3 completes, the sleepers join in round 4.
        sim.step();
        sim.step();
        assert!(sim.is_awake(1));
        let before = sim.total_transmissions();
        sim.step();
        assert_eq!(
            sim.total_transmissions() - before,
            4,
            "all four awake nodes should transmit"
        );
    }

    #[test]
    fn noise_burst_suppresses_decoding_for_its_window() {
        use crate::faults::NoiseBurst;
        // Solo transmitter on SINR: listener decodes every round — unless a
        // massive noise burst covers the round.
        let channel = SinrChannel::new(SinrParams::default_single_hop());
        let deployment =
            Deployment::from_points(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).unwrap();
        let plan = FaultPlan::new().with_noise_burst(NoiseBurst::new(2, 2, 1e12).unwrap());
        let config = with_plan(plan);
        let mut sim = Simulation::try_new(deployment, Box::new(channel), 0, config, |id| {
            Box::new(OnlyNodeZero { id })
        })
        .unwrap();
        // The burst covers rounds 2–3; a solo transmitter still
        // resolves in round 1, and stepping through the burst never panics.
        sim.step();
        assert_eq!(sim.resolved_at(), Some(1), "solo transmitter must resolve");
        assert_eq!(sim.winner(), Some(0));
        sim.step();
        sim.step();
        assert_eq!(sim.num_active(), 2);
    }

    #[test]
    fn gilbert_elliott_loss_changes_trajectory_deterministically() {
        use crate::faults::GilbertElliott;
        let run = |with_loss: bool| {
            let config = SimConfig {
                fault_plan: with_loss.then(|| {
                    FaultPlan::new().with_loss(GilbertElliott::new(0.3, 0.2, 0.1, 0.95).unwrap())
                }),
                ..SimConfig::default()
            };
            knockout_sim_with(123, config)
                .unwrap()
                .run_recorded(5_000, TelemetryDetail::ids())
        };
        let a = run(true);
        let b = run(true);
        assert_eq!(a, b, "faulted runs must be reproducible from the seed");
        let clean = run(false);
        // Dropped knockout messages slow resolution on this seed.
        assert!(a.0.resolved() && clean.0.resolved());
        let knockouts = |events: &[RoundEvent]| -> Vec<Vec<NodeId>> {
            events.iter().map(|e| e.knocked_out_ids.clone()).collect()
        };
        assert_ne!(
            knockouts(&a.1),
            knockouts(&clean.1),
            "heavy burst loss should alter the knockout trajectory"
        );
    }

    #[test]
    fn faulted_run_is_cache_invariant() {
        use crate::faults::{ChurnEvent, GilbertElliott, Jammer, NoiseBurst};
        let run = |cache_on: bool| {
            let power = SinrParams::default_single_hop().power() * 10.0;
            let plan = FaultPlan::new()
                .with_jammer(Jammer::new(Point::new(6.0, 6.0), power, 3, 5, 2, Some(20)).unwrap())
                .with_noise_burst(NoiseBurst::new(4, 6, 3.0).unwrap())
                .with_churn(ChurnEvent::crash(5, 0).unwrap())
                .with_churn(ChurnEvent::revive(9, 0).unwrap())
                .with_churn(ChurnEvent::late_wake(3, 1).unwrap())
                .with_loss(GilbertElliott::new(0.2, 0.3, 0.05, 0.8).unwrap());
            let tier = if cache_on {
                EngineTier::GainCache
            } else {
                EngineTier::Exact
            };
            let config = SimConfig {
                tier: Some(tier),
                ..with_plan(plan)
            };
            knockout_sim_with(9, config)
                .unwrap()
                .run_until_resolved(5_000)
        };
        assert_eq!(run(true), run(false), "fault path must be cache-invariant");
    }

    #[test]
    fn self_check_on_a_healthy_run_never_demotes() {
        let clean = knockout_sim(31).run_until_resolved(5_000);
        let checked_config = SimConfig {
            self_check: 4,
            ..SimConfig::default()
        };
        let mut sim = knockout_sim_with(31, checked_config).unwrap();
        assert!(sim.self_check_enabled());
        let checked = sim.run_until_resolved(5_000);
        let counters = sim.engine_counters();
        assert!(
            counters.self_check_rounds > 0,
            "cached rounds must be audited"
        );
        assert!(counters.self_check_samples >= counters.self_check_rounds);
        assert_eq!(counters.self_check_violations, 0);
        assert_eq!(counters.tier_demotions, 0);
        assert_eq!(
            sim.tier(),
            EngineTier::GainCache,
            "no demotion on a healthy run"
        );
        assert_eq!(checked, clean, "auditing must not perturb the run");
    }

    #[test]
    fn injected_violation_demotes_the_tier_without_panicking() {
        // One case per rung of the ladder: the serving tier, and the tier
        // the demotion must build on demand.
        for (from, to) in [
            (EngineTier::Hierarchical, EngineTier::GainCache),
            (EngineTier::GainCache, EngineTier::Exact),
        ] {
            let pinned = SimConfig {
                tier: Some(from),
                ..SimConfig::default()
            };
            let clean = knockout_sim_with(31, pinned.clone())
                .unwrap()
                .run_until_resolved(5_000);
            let mut sim = knockout_sim_with(
                31,
                SimConfig {
                    self_check: 2,
                    ..pinned
                },
            )
            .unwrap();
            assert_eq!(sim.tier(), from);
            sim.inject_self_check_violation();
            let result = sim.run_until_resolved(5_000);
            let counters = sim.engine_counters();
            assert_eq!(counters.tier_demotions, 1, "{from:?}: exactly one demotion");
            assert!(counters.self_check_violations >= 1);
            assert_eq!(sim.tier(), to, "{from:?} must demote to {to:?}");
            // The tiers are bit-identical, so a (spurious) demotion
            // degrades speed, never the outcome.
            assert_eq!(result, clean, "{from:?}: demotion changed the run");
        }
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        let make = || knockout_sim(55);
        let uninterrupted = make().run_until_resolved(5_000);

        let mut interrupted = make();
        for _ in 0..3 {
            interrupted.step();
        }
        let bytes = interrupted.snapshot().to_bytes();
        drop(interrupted);

        let decoded = crate::recover::SimSnapshot::from_bytes(&bytes).unwrap();
        let mut resumed = make();
        resumed.restore(&decoded).unwrap();
        let result = resumed.run_until_resolved(5_000);
        assert_eq!(result, uninterrupted, "resume must be byte-identical");
    }

    #[test]
    fn snapshots_ignore_the_resolve_thread_count() {
        let tree = SimConfig {
            tier: Some(EngineTier::Hierarchical),
            ..SimConfig::default()
        };
        let snapshot_at = |threads: usize| {
            let mut sim = knockout_sim_with(55, tree.clone()).unwrap();
            sim.set_resolve_threads(threads);
            for _ in 0..3 {
                sim.step();
            }
            sim.snapshot()
        };
        let serial = snapshot_at(1);
        assert_eq!(serial.to_bytes(), snapshot_at(4).to_bytes());
        let mut resumed = knockout_sim_with(55, tree).unwrap();
        resumed.set_resolve_threads(2);
        resumed.restore(&serial).unwrap();
        assert_eq!(resumed.tier(), EngineTier::Hierarchical);
        assert_eq!(resumed.resolve_threads(), 2, "restore keeps the caller's");
    }

    #[test]
    fn restore_rejects_a_foreign_or_stepped_target() {
        let mut source = knockout_sim(1);
        source.step();
        let snap = source.snapshot();

        // Different seed → different fingerprint.
        let mut wrong_seed = knockout_sim(2);
        assert!(matches!(
            wrong_seed.restore(&snap),
            Err(SnapshotError::Incompatible { .. })
        ));

        // A target that has already stepped is refused.
        let mut stepped = knockout_sim(1);
        stepped.step();
        let err = stepped.restore(&snap).unwrap_err();
        assert!(err.to_string().contains("freshly constructed"), "{err}");

        // The identical fresh target accepts it.
        let mut fresh = knockout_sim(1);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.round(), 1);
    }

    #[test]
    fn snapshot_restore_preserves_fault_plan_progress() {
        use crate::faults::{ChurnEvent, GilbertElliott, Jammer, NoiseBurst};
        let plan = || {
            let power = SinrParams::default_single_hop().power() * 10.0;
            FaultPlan::new()
                .with_jammer(Jammer::new(Point::new(6.0, 6.0), power, 3, 5, 2, Some(20)).unwrap())
                .with_noise_burst(NoiseBurst::new(4, 6, 3.0).unwrap())
                .with_churn(ChurnEvent::crash(5, 0).unwrap())
                .with_churn(ChurnEvent::revive(9, 0).unwrap())
                .with_churn(ChurnEvent::late_wake(3, 1).unwrap())
                .with_loss(GilbertElliott::new(0.2, 0.3, 0.05, 0.8).unwrap())
        };
        let make = || knockout_sim_with(9, with_plan(plan())).unwrap();
        let uninterrupted = make().run_until_resolved(5_000);

        // Interrupt mid-churn: after round 6 the crash fired (round 5) but
        // the revive (round 9) is still pending, and the GE chain and
        // jammer budget are mid-flight.
        let mut interrupted = make();
        for _ in 0..6 {
            interrupted.step();
        }
        let snap = interrupted.snapshot();
        let mut resumed = make();
        resumed.restore(&snap).unwrap();
        let result = resumed.run_until_resolved(5_000);
        assert_eq!(
            result, uninterrupted,
            "mid-churn resume must be byte-identical"
        );
    }

    #[test]
    fn active_ids_track_deactivation() {
        let mut sim = Simulation::new(line_deployment(3), Box::new(RadioChannel::new()), 0, |id| {
            Box::new(OnlyNodeZero { id })
        });
        assert_eq!(sim.active_ids(), vec![0, 1, 2]);
        assert_eq!(sim.num_active(), 3);
        assert!(sim.is_active(2));
        assert!(!sim.is_active(5));
        sim.step();
        // OnlyNodeZero never deactivates anyone.
        assert_eq!(sim.num_active(), 3);
    }
}
