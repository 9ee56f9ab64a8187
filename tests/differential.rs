//! The differential oracle: every engine tier, thread count, observer and
//! checkpoint/resume path must reproduce the exact, serial, unobserved run,
//! and every round any tier resolves must be the exact SINR test of Eq. (1).
//!
//! # Run level
//!
//! A *case* is a deployment family × path-loss exponent α × channel × fault
//! plan, running the paper's FKN protocol (through [`ProtocolKind::build`])
//! over a batch of seeded trials. A *cell* is one way to run that batch:
//!
//! | axis            | values                                                  |
//! |-----------------|---------------------------------------------------------|
//! | engine tier     | exact, gain cache, tile tree                            |
//! | resolve threads | 1, 2, 8                                                 |
//! | trial threads   | 1, 8                                                    |
//! | observation     | none, tracer, counts sink, closure                      |
//! |                 | (the reference: an ids sink)                            |
//! | self-check      | 0 or 2 audited listeners per round                      |
//! | resume          | uninterrupted, or snapshot → bytes → restore half-way   |
//!
//! A cell is dropped when it is the same run as another: a requested tier
//! the case cannot serve builds a lower one, only the tile tree reads the
//! resolve pool, and a one-trial batch has nothing to spread over trial
//! threads. Each family's [`Coverage`] picks which remaining cells it runs.
//!
//! Every cell is held to the case's reference cell (exact, serial,
//! uninterrupted, recording every round at ids detail):
//!
//! * each trial's [`RunResult`] is equal;
//! * each sink's rounds agree with the reference's in round, participants,
//!   transmitters and knockouts, and at ids detail in the transmitter ids;
//! * each trial's final snapshot (every rng lane, the active mask, protocol
//!   states, counters, ladder stats) equals that of the first cell with the
//!   same engine and self-check — for a bare exact cell, the reference's —
//!   and each sink's event stream equals the first stream of its kind;
//! * route counters partition the rounds, and the tile tree resolves each
//!   listener of each round once and tracks knockouts;
//! * the case is not vacuous: each family states what its tile-tree cells
//!   must reach (parallel chunks, bracket decisions, fallbacks, refined
//!   decisions).
//!
//! # Round level
//!
//! A *case* is one round handed straight to [`Channel::resolve_with`]: a
//! named geometry [`Generator`] (drawn lattices, clusters and corridors, or
//! a pinned adversarial round) × α × channel × perturbation × transmitter
//! fraction. A *cell* is the engine it is handed, how it runs, and whether
//! it reports breakdowns:
//!
//! | axis                 | values                                            |
//! |----------------------|---------------------------------------------------|
//! | channel              | SINR, lossy SINR, Rayleigh, radio, radio with CD  |
//! | α                    | 3, 4, 6; bounded generic 2.05, 2.5, 3.7; 9.5 > 8  |
//! | perturbation         | neutral, noise-scaled, jammed, negative floor     |
//! | transmitter fraction | 1/4, 1/2 (drawn rounds only)                      |
//! | engine tier (cell)   | exact, gain cache, tile tree at forced tilings,   |
//! |                      | and a tree and a cache built for other positions  |
//! |                      | or another power                                  |
//! | resolve threads      | 1, 2, 8 (tile tree only)                          |
//! | breakdown            | off, on                                           |
//!
//! Every cell matches the reference (`Channel::resolve` for neutral rounds,
//! the exact tier for perturbed ones) in its receptions and its final rng
//! cursor. Breakdowns agree with the decision, add back up to Eq. (1) and,
//! on deterministic channels, equal a longhand slice-order scan. Every tree
//! node's certificate, every random cut of the tree and the ladder's far
//! aggregate contain the exact interference. Each generator states what
//! its tree rounds must reach through [`FarFieldStats`], per round (a knife
//! edge reaches the exact fallback and a canonical rescan) and in total.
//!
//! Failures name the case and the cell. Random fault plan `k` of a channel
//! is regenerated from the vendored proptest's `case_rng(channel, k)`, and
//! a drawn round from `case_rng("<generator>/α=<α>", sample)`.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use fading::channel::kernels::LISTENER_BLOCK;
use fading::channel::{
    pow_alpha, Channel, ChannelPerturbation, EngineTier, FarFieldStats, GainCache,
    HierarchicalFarFieldEngine, LossySinrChannel, RadioCdChannel, RadioChannel,
    RayleighSinrChannel, Reception, ResolveEngine, SerialExecutor, SinrBreakdown, SinrChannel,
    SinrParams, HIER_NEAR_RING, HIER_TILE_CHUNK, RAYLEIGH_CACHE_PROFITABLE_NODES,
};
use fading::geom::{generators, Deployment, Point, TileIndex, TileTree};
use fading::protocols::{ProtocolKind, DEFAULT_BROADCAST_PROBABILITY};
use fading::sim::faults::{ChurnEvent, FaultPlan, GilbertElliott, Jammer, NoiseBurst};
use fading::sim::montecarlo::{run_trials, run_trials_with, TrialRun, TrialRunner};
use fading::sim::recover::{trial_line, TrialManifest};
use fading::sim::{
    EngineCounters, MemoryProgress, MemorySink, ProgressEvent, ResolvePath, RoundEvent, RunOutcome,
    RunResult, SimConfig, SimSnapshot, Simulation, SnapshotError, StealPool, TelemetryDetail,
    Tracer,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const MAX_ROUNDS: u64 = 400;

// ---------------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------------

/// A deployment family, and how much of the cell product it runs.
#[derive(Clone, Copy)]
struct Family {
    name: &'static str,
    deploy: fn(u64) -> Deployment,
    nodes: usize,
    /// The side of the square the fault plans' jammers sit in.
    side: f64,
    trials: usize,
    /// FKN's broadcast probability. The small family knocks out densely so
    /// its runs last long enough to cut half-way.
    p: f64,
    coverage: Coverage,
    expect: Expect,
}

/// 24 uniform nodes: one fine tile, so every cell is affordable.
const SMALL: Family = Family {
    name: "small",
    deploy: |seed| Deployment::uniform_square(24, 15.0, seed),
    nodes: 24,
    side: 15.0,
    trials: 3,
    p: 0.25,
    coverage: Coverage::Full,
    expect: Expect {
        split_rounds: false,
        brackets_and_fallbacks: false,
        refined: false,
    },
};

/// 1,536 nodes in 24 Gaussian clusters: a multi-level tree with far
/// brackets and fallbacks.
const CLUSTERED: Family = Family {
    name: "clustered",
    deploy: |seed| generators::clustered(24, 64, 3.0, 150.0, seed).expect("valid"),
    nodes: 1536,
    side: 150.0,
    trials: 1,
    p: DEFAULT_BROADCAST_PROBABILITY,
    coverage: Coverage::OneAxis,
    expect: Expect {
        split_rounds: false,
        brackets_and_fallbacks: true,
        refined: false,
    },
};

/// 8,192 uniform nodes (side 181): 121 fine tiles, more than one
/// `HIER_TILE_CHUNK`, so the tree splits each round across threads.
const LARGE: Family = Family {
    name: "large",
    deploy: |seed| Deployment::uniform_density(8192, 0.25, seed),
    nodes: 8192,
    side: 181.0,
    trials: 1,
    p: DEFAULT_BROADCAST_PROBABILITY,
    coverage: Coverage::OneAxisOnTree,
    expect: Expect {
        split_rounds: true,
        brackets_and_fallbacks: true,
        refined: true,
    },
};

#[derive(Clone, Copy, Debug, PartialEq)]
enum ChannelName {
    Sinr,
    Lossy,
    Rayleigh,
    Radio,
    /// The radio model with collision detection (round level only).
    RadioCd,
}

impl ChannelName {
    fn build(self, alpha: f64) -> Box<dyn Channel> {
        self.with_params(SinrParams::builder().alpha(alpha).build().expect("α > 2"))
    }

    fn with_params(self, params: SinrParams) -> Box<dyn Channel> {
        match self {
            ChannelName::Sinr => Box::new(SinrChannel::new(params)),
            ChannelName::Lossy => Box::new(LossySinrChannel::new(params, 0.2).expect("valid")),
            ChannelName::Rayleigh => Box::new(RayleighSinrChannel::new(params)),
            ChannelName::Radio => Box::new(RadioChannel::new()),
            ChannelName::RadioCd => Box::new(RadioCdChannel::new()),
        }
    }

    fn name(self) -> &'static str {
        match self {
            ChannelName::Sinr => "sinr",
            ChannelName::Lossy => "lossy",
            ChannelName::Rayleigh => "rayleigh",
            ChannelName::Radio => "radio",
            ChannelName::RadioCd => "radio-cd",
        }
    }

    /// The radio channel has no path loss, so a second α would rerun the
    /// same case.
    fn alphas(self) -> &'static [f64] {
        match self {
            ChannelName::Radio | ChannelName::RadioCd => &[3.0],
            _ => &[3.0, 2.5],
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Plan {
    None,
    Stress,
    /// Random plan `k` of the channel's seeded stream.
    Random(u32),
}

struct Case {
    family: Family,
    alpha: f64,
    channel: ChannelName,
    plan: Plan,
    fault_plan: Option<FaultPlan>,
}

impl Case {
    fn new(family: Family, alpha: f64, channel: ChannelName, plan: Plan) -> Case {
        let fault_plan = match plan {
            Plan::None => None,
            Plan::Stress => Some(stress_plan(family.side)),
            Plan::Random(k) => Some(random_plan(family, channel, k)),
        };
        Case {
            family,
            alpha,
            channel,
            plan,
            fault_plan,
        }
    }

    const SEED_BASE: u64 = 1000;

    fn simulation(&self, seed: u64, cell: &Cell) -> Simulation {
        let config = SimConfig {
            tier: Some(cell.tier),
            self_check: cell.self_check,
            fault_plan: self.fault_plan.clone(),
        };
        let protocol = ProtocolKind::Fkn { p: self.family.p };
        let deployment = (self.family.deploy)(seed);
        let channel = self.channel.build(self.alpha);
        let mut sim =
            Simulation::try_new(deployment, channel, seed, config, |id| protocol.build(id))
                .unwrap_or_else(|e| panic!("{self}: invalid configuration: {e:?}"));
        sim.set_resolve_threads(cell.resolve_threads);
        sim
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (family, channel) = (self.family.name, self.channel.name());
        write!(
            f,
            "case {family}/α={}/{channel}/{:?}",
            self.alpha, self.plan
        )
    }
}

/// Duty-cycled budgeted jamming, a noise burst, all three churn kinds and
/// Gilbert–Elliott burst loss: every fault cursor a snapshot must carry.
fn stress_plan(side: f64) -> FaultPlan {
    let power = SinrParams::default_single_hop().power() * 10.0;
    let at = |x: f64, y: f64| Point::new(x * side, y * side);
    FaultPlan::new()
        .with_jammer(Jammer::new(at(0.5, 0.5), power, 2, 6, 3, Some(60)).expect("valid"))
        .with_jammer(Jammer::continuous(at(0.07, 0.93), power / 4.0, 10).expect("valid"))
        .with_noise_burst(NoiseBurst::new(5, 15, 4.0).expect("valid"))
        .with_churn(ChurnEvent::late_wake(4, 3).expect("valid"))
        .with_churn(ChurnEvent::crash(6, 0).expect("valid"))
        .with_churn(ChurnEvent::revive(12, 0).expect("valid"))
        .with_loss(GilbertElliott::new(0.15, 0.3, 0.02, 0.7).expect("valid"))
}

/// Random plan `k` of `channel`: up to two jammers anywhere with powers
/// 1..10⁹, duty cycles and budgets; up to two noise bursts; up to six
/// churn events; optional burst loss. Raw draws are mapped into each
/// component's legal domain, so construction fails only on a validator bug.
fn random_plan(family: Family, channel: ChannelName, k: u32) -> FaultPlan {
    let side = family.side;
    let jammer = (
        (0.0..side, 0.0..side),
        0.0..9.0f64,
        1u64..60,
        1u64..12,
        0u64..12,
        0u64..50,
    );
    let loss = (
        any::<bool>(),
        0.0..=1.0f64,
        0.0..=1.0f64,
        0.0..=1.0f64,
        0.0..=1.0f64,
    );
    let strategy = (
        prop::collection::vec(jammer, 0..3),
        prop::collection::vec((1u64..60, 1u64..40, -1.0..6.0f64), 0..3),
        prop::collection::vec((1u64..60, 0..family.nodes, 0u8..3), 0..7),
        loss,
    );
    let (jammers, bursts, churn, loss) =
        strategy.generate(&mut proptest::test_runner::case_rng(channel.name(), k));
    let mut plan = FaultPlan::new();
    for ((x, y), power_exp, start, period, burst, budget) in jammers {
        let power = 10f64.powf(power_exp);
        let budget = (budget != 0).then_some(budget);
        let jammer = Jammer::new(
            Point::new(x, y),
            power,
            start,
            period,
            1 + burst % period,
            budget,
        );
        plan = plan.with_jammer(jammer.expect("mapped jammer parameters are valid"));
    }
    for (start, len, log_factor) in bursts {
        let burst = NoiseBurst::new(start, len, 10f64.powf(log_factor));
        plan = plan.with_noise_burst(burst.expect("mapped burst parameters are valid"));
    }
    for (round, node, kind) in churn {
        let event = match kind % 3 {
            0 => ChurnEvent::late_wake(round, node),
            1 => ChurnEvent::crash(round, node),
            _ => ChurnEvent::revive(round, node),
        };
        plan = plan.with_churn(event.expect("round ≥ 1 by construction"));
    }
    if let (true, p_enter, p_exit, drop_good, drop_bad) = loss {
        let ge = GilbertElliott::new(p_enter, p_exit, drop_good, drop_bad);
        plan = plan.with_loss(ge.expect("probabilities drawn from [0, 1]"));
    }
    plan
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Observe {
    None,
    Tracer,
    CountsSink,
    Closure,
    /// The reference's: an ids-detail sink, whose rounds every other sink
    /// is held to.
    IdsSink,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    /// The tier the simulation builds.
    tier: EngineTier,
    resolve_threads: usize,
    trial_threads: usize,
    observe: Observe,
    self_check: usize,
    resume: bool,
}

const RESOLVE_THREADS: [usize; 3] = [1, 2, 8];
const TRIAL_THREADS: [usize; 2] = [1, 8];
const OBSERVE: [Observe; 4] = [
    Observe::None,
    Observe::Tracer,
    Observe::CountsSink,
    Observe::Closure,
];
const SELF_CHECK: [usize; 2] = [0, 2];
/// Cells per tier: resolve threads × trial threads × observation ×
/// self-check × resume.
const CELLS_PER_TIER: usize = 3 * 2 * 4 * 2 * 2;

impl Cell {
    /// The `i`-th cell of `tier`'s product, the last axis fastest; 0 is
    /// the reference value of every axis.
    fn nth(tier: EngineTier, i: usize) -> Cell {
        Cell {
            tier,
            resolve_threads: RESOLVE_THREADS[i / 32],
            trial_threads: TRIAL_THREADS[i / 16 % 2],
            observe: OBSERVE[i / 4 % 4],
            self_check: SELF_CHECK[i / 2 % 2],
            resume: i % 2 == 1,
        }
    }

    /// How many axes other than the tier leave their reference value.
    fn departures(&self) -> usize {
        let r = Cell::nth(self.tier, 0);
        usize::from(self.resolve_threads != r.resolve_threads)
            + usize::from(self.trial_threads != r.trial_threads)
            + usize::from(self.observe != r.observe)
            + usize::from(self.self_check != r.self_check)
            + usize::from(self.resume != r.resume)
    }

    /// Every axis the cell's tier and batch can vary is at its last value.
    fn is_corner(&self, trials: usize) -> bool {
        (self.tier != EngineTier::Hierarchical || self.resolve_threads == 8)
            && (trials == 1 || self.trial_threads == 8)
            && (self.observe, self.self_check, self.resume) == (Observe::Closure, 2, true)
    }
}

/// Which cells of the deduplicated product a case runs.
#[derive(Clone, Copy, Debug)]
enum Coverage {
    Full,
    /// `per_case` evenly strided cells, offset by `shift`: a stream of cases
    /// with consecutive shifts covers the product between them.
    Strided {
        per_case: usize,
        shift: usize,
    },
    /// Each axis departing alone from the reference, plus the corner.
    OneAxis,
    /// [`Coverage::OneAxis`] on the tile tree; the exact scan runs only the
    /// reference.
    OneAxisOnTree,
}

/// The deduplicated cell product of `case`, reference first, filtered by
/// `coverage`.
fn cells(case: &Case, coverage: Coverage) -> Vec<Cell> {
    let deployment = (case.family.deploy)(Case::SEED_BASE);
    let channel = case.channel.build(case.alpha);
    let mut built: Vec<EngineTier> = EngineTier::ALL
        .iter()
        .map(|&t| ResolveEngine::build(channel.as_ref(), t, deployment.points()).tier())
        .collect();
    built.dedup();
    let trials = case.family.trials;
    let mut product: Vec<Cell> = built
        .iter()
        .flat_map(|&tier| (0..CELLS_PER_TIER).map(move |i| Cell::nth(tier, i)))
        .filter(|c| c.tier == EngineTier::Hierarchical || c.resolve_threads == 1)
        .filter(|c| trials > 1 || c.trial_threads == 1)
        .collect();
    // The reference records its rounds; every other cell with
    // `Observe::None` is bare (no sink, no tracer).
    product[0].observe = Observe::IdsSink;
    let reference = product[0];
    match coverage {
        Coverage::Full => product,
        Coverage::Strided { per_case, shift } => {
            let step = product.len().div_ceil(per_case);
            let strided = product.iter().skip(shift % step).step_by(step);
            let mut picked: Vec<Cell> = std::iter::once(&reference)
                .chain(strided)
                .copied()
                .collect();
            picked.dedup();
            picked
        }
        Coverage::OneAxis | Coverage::OneAxisOnTree => product
            .into_iter()
            .filter(|c| {
                matches!(coverage, Coverage::OneAxis)
                    || c.tier == EngineTier::Hierarchical
                    || *c == reference
            })
            .filter(|c| c.departures() <= 1 || c.is_corner(trials))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Running and checking a cell
// ---------------------------------------------------------------------------

/// One trial of one cell, and what the comparison needs from it.
struct Trial {
    result: RunResult,
    /// The final snapshot's bytes, taken at the cell's own resolve threads.
    state: Vec<u8>,
    /// The sink's events, for sink cells.
    events: Option<Vec<RoundEvent>>,
    counters: EngineCounters,
    /// The tile tree's shape, for tree cells.
    tree: Option<TreeShape>,
}

fn run_cell(case: &Case, cell: &Cell, cuts: &[u64]) -> Vec<Trial> {
    run_trials_with(
        case.family.trials,
        cell.trial_threads,
        Case::SEED_BASE,
        |seed| {
            let trial = run_trial(case, cell, seed, cuts[(seed - Case::SEED_BASE) as usize]);
            (trial.result.clone(), trial)
        },
    )
    .into_iter()
    .map(|(_, trial)| trial)
    .collect()
}

fn run_trial(case: &Case, cell: &Cell, seed: u64, cut: u64) -> Trial {
    let ctx = format!("{case}, {cell:?}, seed {seed}");
    let tracer = Tracer::new();
    let observed = || {
        let mut sim = case.simulation(seed, cell);
        let detail = match cell.observe {
            Observe::Tracer => {
                sim.set_tracer(Arc::clone(&tracer));
                None
            }
            Observe::CountsSink => Some(TelemetryDetail::counts()),
            Observe::IdsSink => Some(TelemetryDetail::ids()),
            Observe::None | Observe::Closure => None,
        };
        if let Some(detail) = detail {
            sim.set_telemetry_sink(Box::new(MemorySink::new(detail)));
        }
        sim
    };
    let events_of = |sim: &mut Simulation| {
        let sink = sim.take_telemetry_sink().and_then(MemorySink::recover);
        sink.map(MemorySink::into_events)
    };
    // A resumed run is the same configuration interrupted: the victim
    // carries the cell's observation up to the cut, its snapshot goes
    // through the byte codec into a fresh twin, and the twin finishes.
    let mut sim = observed();
    let (mut events, mut resumed_at) = (None, 0);
    if cell.resume {
        let mut victim = observed();
        while victim.round() < cut && victim.resolved_at().is_none() {
            victim.step();
        }
        let bytes = victim.snapshot().to_bytes();
        assert_corruption_is_loud(&ctx, &bytes);
        let snap = SimSnapshot::from_bytes(&bytes).expect("snapshot codec round-trips");
        sim.restore(&snap)
            .unwrap_or_else(|e| panic!("{ctx}: restore failed: {e:?}"));
        resumed_at = snap.round();
        events = events_of(&mut victim);
    }
    let mut seen = Vec::new();
    let result = if cell.observe == Observe::Closure {
        sim.run_until_resolved_with(MAX_ROUNDS, |s| seen.push(s.round()))
    } else {
        sim.run_until_resolved(MAX_ROUNDS)
    };
    if let Some(tail) = events_of(&mut sim) {
        events.get_or_insert_with(Vec::new).extend(tail);
    }
    let rounds = result.rounds_executed();
    match cell.observe {
        Observe::Tracer => {
            let spans = tracer.finished_spans();
            let steps = spans.iter().filter(|s| s.name == "step").count() as u64;
            assert_eq!(steps, rounds, "{ctx}: one step span per round");
        }
        Observe::Closure => {
            let want: Vec<u64> = (resumed_at..=rounds).collect();
            assert_eq!(
                seen, want,
                "{ctx}: the observer sees every round and the end"
            );
        }
        Observe::CountsSink | Observe::IdsSink => {
            let got: Vec<u64> = events.iter().flatten().map(|e| e.round).collect();
            assert_eq!(
                got,
                (1..=rounds).collect::<Vec<_>>(),
                "{ctx}: one event per round"
            );
        }
        Observe::None => {}
    }
    let tree = match sim.engine() {
        ResolveEngine::Hierarchical(e) => {
            let tiles = e.tree().fine().num_tiles();
            let per_tile: usize = (0..tiles).map(|t| e.active_in_tile(t)).sum();
            assert_eq!(e.num_active(), sim.num_active(), "{ctx}: tree occupancy");
            assert_eq!(per_tile, sim.num_active(), "{ctx}: per-tile occupancy");
            Some(TreeShape::of(e.tree()))
        }
        _ => None,
    };
    Trial {
        result,
        state: sim.snapshot().to_bytes(),
        events,
        counters: sim.engine_counters(),
        tree,
    }
}

/// A flipped payload byte and a truncation both decode to a typed
/// `Corrupt` error, never to a snapshot.
fn assert_corruption_is_loud(ctx: &str, bytes: &[u8]) {
    let mut flipped = bytes.to_vec();
    flipped[bytes.len() / 2] ^= 0x40;
    for damaged in [&flipped[..], &bytes[..bytes.len() - 9]] {
        let decoded = SimSnapshot::from_bytes(damaged);
        let corrupt = matches!(decoded, Err(SnapshotError::Corrupt { .. }));
        assert!(corrupt, "{ctx}: a damaged snapshot must decode to Corrupt");
    }
}

/// Route counters partition the rounds; the tile tree resolves each
/// listener of each round it serves exactly once (`rounds` are the
/// reference's).
fn assert_counters_reconcile(ctx: &str, cell: &Cell, trial: &Trial, rounds: &[RoundEvent]) {
    let c = &trial.counters;
    assert_eq!(c.rounds, trial.result.rounds_executed(), "{ctx}: rounds");
    assert_eq!(
        c.routed_rounds(),
        c.rounds,
        "{ctx}: routes partition rounds"
    );
    let healthy = (c.self_check_violations, c.tier_demotions) == (0, 0);
    assert!(healthy, "{ctx}: the self-check flagged a healthy engine");
    let path = match cell.tier {
        EngineTier::Exact => ResolvePath::Exact,
        EngineTier::GainCache => ResolvePath::Cached,
        EngineTier::Hierarchical => ResolvePath::Hierarchical,
    };
    assert_eq!(
        c.rounds_for(path),
        c.rounds,
        "{ctx}: every round takes {path:?}"
    );
    let cache = cell.tier == EngineTier::GainCache;
    assert_eq!(c.gain_cache_built, cache, "{ctx}: the engine is built once");
    let f = &c.farfield;
    if path == ResolvePath::Hierarchical {
        let listeners: usize = rounds.iter().map(|r| r.listeners).sum();
        assert_eq!(f.rounds, c.rounds, "{ctx}: ladder rounds");
        assert_eq!(
            f.listeners_resolved(),
            listeners as u64,
            "{ctx}: ladder listeners"
        );
    } else {
        assert_eq!(*f, FarFieldStats::default(), "{ctx}: no ladder ran");
    }
}

/// A sink's rounds agree with the reference's in round, participants,
/// transmitters and knockouts, and when the sink records ids, in the
/// transmitter ids.
fn assert_rounds_match(ctx: &str, got: &[RoundEvent], want: &[RoundEvent], ids: bool) {
    assert_eq!(got.len(), want.len(), "{ctx}: rounds recorded");
    for (g, w) in got.iter().zip(want) {
        let counts = |e: &RoundEvent| (e.round, e.participants, e.transmitters, e.knocked_out);
        assert_eq!(counts(g), counts(w), "{ctx}: round {} differs", w.round);
        if ids {
            assert_eq!(
                g.transmitter_ids, w.transmitter_ids,
                "{ctx}: round {} transmitters differ",
                w.round
            );
        }
    }
}

/// What a family's tile-tree cells must reach.
#[derive(Clone, Copy, Debug)]
struct Expect {
    /// More than one `HIER_TILE_CHUNK` of fine tiles, run at resolve
    /// threads 2 and 8.
    split_rounds: bool,
    /// Both bracket decisions and exact fallbacks.
    brackets_and_fallbacks: bool,
    /// Decisions of the refined stage.
    refined: bool,
}

/// How many fine tiles and levels a tile tree has.
#[derive(Clone, Copy, Debug)]
struct TreeShape {
    tiles: usize,
    levels: usize,
}

impl TreeShape {
    fn of(tree: &TileTree) -> TreeShape {
        TreeShape {
            tiles: tree.fine().num_tiles(),
            levels: tree.num_levels(),
        }
    }
}

/// What a case's (or a round-level generator's) tile-tree cells reached.
#[derive(Debug, Default)]
struct Reach {
    tiles: usize,
    levels: usize,
    resolve_threads: BTreeSet<usize>,
    /// The ladder counters summed over every tree cell.
    stats: FarFieldStats,
}

impl Reach {
    /// Adds one tree cell: its tree's shape, its resolve threads and its
    /// ladder counters.
    fn add(&mut self, tree: TreeShape, resolve_threads: usize, stats: &FarFieldStats) {
        self.tiles = self.tiles.max(tree.tiles);
        self.levels = self.levels.max(tree.levels);
        self.resolve_threads.insert(resolve_threads);
        self.stats.add(stats);
    }

    fn split_rounds(&self) -> bool {
        self.tiles > HIER_TILE_CHUNK && self.resolve_threads.is_superset(&BTreeSet::from([2, 8]))
    }

    fn brackets_and_fallbacks(&self) -> bool {
        self.stats.bracket_decisions > 0 && self.stats.exact_fallbacks() > 0
    }

    /// The refined stage settled some listener.
    fn refined(&self) -> bool {
        self.stats.refined_decisions > 0
    }
}

/// Runs every cell of `case` against its reference; returns the number of
/// cells compared and what the tree cells reached.
fn check_case(case: &Case, coverage: Coverage) -> (usize, Reach) {
    let cells = cells(case, coverage);
    let reference = run_cell(case, &cells[0], &vec![0; case.family.trials]);
    for (i, t) in reference.iter().enumerate() {
        let explicit = match t.result.outcome() {
            RunOutcome::Resolved { round, winner } => round >= 1 && winner.is_some(),
            RunOutcome::RoundCapExhausted { rounds_executed } => rounds_executed == MAX_ROUNDS,
        };
        assert!(explicit, "{case}, trial {i}: {:?}", t.result.outcome());
    }
    let cuts: Vec<u64> = reference
        .iter()
        .map(|t| (t.result.rounds_executed() / 2).max(1))
        .collect();

    // The first cell of each snapshot class and of each sink kind.
    let mut states = HashMap::new();
    let mut streams: HashMap<_, Vec<Vec<RoundEvent>>> = HashMap::new();
    let mut reach = Reach::default();
    for (k, cell) in cells.iter().enumerate() {
        let ran = (k > 0).then(|| run_cell(case, cell, &cuts));
        let got = ran.as_ref().unwrap_or(&reference);
        let stream_key = (cell.tier, cell.self_check, cell.observe);
        for (i, (t, want)) in got.iter().zip(&reference).enumerate() {
            let ctx = format!("{case}, {cell:?}, trial {i}");
            assert_eq!(
                t.result, want.result,
                "{ctx}: RunResult differs from the reference"
            );
            let rounds = want.events.as_deref().expect("the reference records");
            assert_counters_reconcile(&ctx, cell, t, rounds);
            if let Some(events) = &t.events {
                let ids = cell.observe != Observe::CountsSink;
                assert_rounds_match(&ctx, events, rounds, ids);
            }
            if let Some(tree) = t.tree {
                reach.add(tree, cell.resolve_threads, &t.counters.farfield);
            }
            if let (Some(events), Some(first)) = (&t.events, streams.get(&stream_key)) {
                assert!(*events == first[i], "{ctx}: event stream differs");
            }
        }
        let snapshots: Vec<Vec<u8>> = got.iter().map(|t| t.state.clone()).collect();
        let state_key = (cell.tier, cell.self_check);
        let (first, want) = states
            .entry(state_key)
            .or_insert((*cell, snapshots.clone()));
        for (i, (s, w)) in snapshots.iter().zip(want.iter()).enumerate() {
            assert!(
                s == w,
                "{case}, {cell:?}, trial {i}: final snapshot differs from {first:?}'s"
            );
        }
        if let Some(events) = got.iter().map(|t| t.events.clone()).collect() {
            streams.entry(stream_key).or_insert(events);
        }
    }

    if !reach.resolve_threads.is_empty() {
        let expect = case.family.expect;
        let vacuous = (expect.split_rounds && !reach.split_rounds())
            || (expect.brackets_and_fallbacks && !reach.brackets_and_fallbacks())
            || (expect.refined && !reach.refined());
        assert!(
            !vacuous,
            "{case}: tree cells fall short of {expect:?}: {reach:?}"
        );
    }
    (cells.len() - 1, reach)
}

/// Runs `cases`, then prints how many (case, cell) pairs they checked and
/// what their tile-tree cells reached.
fn check_cases(label: &str, cases: &[(Case, Coverage)]) {
    let (mut pairs, mut split, mut bracketed, mut tree_at_2_5) = (0, 0, 0, 0);
    let (mut tiles, mut brackets, mut refined, mut fallbacks) = (0, 0, 0, 0);
    for (case, coverage) in cases {
        let (n, reach) = check_case(case, *coverage);
        pairs += n;
        split += usize::from(reach.split_rounds());
        bracketed += usize::from(reach.brackets_and_fallbacks());
        tree_at_2_5 += usize::from(!reach.resolve_threads.is_empty() && case.alpha == 2.5);
        tiles = tiles.max(reach.tiles);
        brackets += reach.stats.bracket_decisions;
        refined += reach.stats.refined_decisions;
        fallbacks += reach.stats.exact_fallbacks();
    }
    println!(
        "differential {label}: {} cases, {pairs} (case, cell) pairs; tree cases that split \
         rounds: {split}, with brackets and fallbacks: {bracketed}, at α = 2.5: {tree_at_2_5} \
         (≤ {tiles} fine tiles; {brackets} bracket decisions, {refined} refined decisions, \
         {fallbacks} fallbacks)",
        cases.len()
    );
}

/// The family's cases on `channel`: every α, no faults and the stress plan.
fn check_family(family: Family, channel: ChannelName) {
    let cases: Vec<_> = (channel.alphas().iter())
        .flat_map(|&alpha| [Plan::None, Plan::Stress].map(|plan| (alpha, plan)))
        .map(|(alpha, plan)| (Case::new(family, alpha, channel, plan), family.coverage))
        .collect();
    check_cases(&format!("{}/{}", family.name, channel.name()), &cases);
}

/// 128 random plans of `channel` per α on the small family, each running
/// a strided slice of the product so that the plans cover it between them.
fn check_random_plans(channel: ChannelName) {
    let cases: Vec<_> = (channel.alphas().iter())
        .flat_map(|&alpha| (0..128).map(move |k| (alpha, k)))
        .map(|(alpha, k)| {
            let coverage = Coverage::Strided {
                per_case: 6,
                shift: k as usize,
            };
            (Case::new(SMALL, alpha, channel, Plan::Random(k)), coverage)
        })
        .collect();
    check_cases(&format!("random/{}", channel.name()), &cases);
}

macro_rules! oracle_tests {
    ($($test:ident: $check:expr;)*) => {
        $(#[test] fn $test() { $check; })*
    };
}

// The large family runs only where the tile tree serves: on the Rayleigh
// and radio channels every tier builds the exact scan, the reference.
oracle_tests! {
    full_product_small_sinr: check_family(SMALL, ChannelName::Sinr);
    full_product_small_lossy: check_family(SMALL, ChannelName::Lossy);
    full_product_small_rayleigh: check_family(SMALL, ChannelName::Rayleigh);
    full_product_small_radio: check_family(SMALL, ChannelName::Radio);
    random_plans_sinr: check_random_plans(ChannelName::Sinr);
    random_plans_lossy: check_random_plans(ChannelName::Lossy);
    random_plans_rayleigh: check_random_plans(ChannelName::Rayleigh);
    random_plans_radio: check_random_plans(ChannelName::Radio);
    clustered_sinr: check_family(CLUSTERED, ChannelName::Sinr);
    clustered_lossy: check_family(CLUSTERED, ChannelName::Lossy);
    clustered_rayleigh: check_family(CLUSTERED, ChannelName::Rayleigh);
    clustered_radio: check_family(CLUSTERED, ChannelName::Radio);
    tile_tree_splits_rounds_sinr: check_family(LARGE, ChannelName::Sinr);
    tile_tree_splits_rounds_lossy: check_family(LARGE, ChannelName::Lossy);
}

// ---------------------------------------------------------------------------
// The trial runners
// ---------------------------------------------------------------------------

#[test]
fn runners_agree_byte_for_byte_across_threads_and_resume() {
    const TRIALS: usize = 12;
    let case = Arc::new(Case::new(SMALL, 3.0, ChannelName::Sinr, Plan::Stress));
    let base = Case::SEED_BASE;
    let trial = {
        let case = Arc::clone(&case);
        move |seed| {
            let mut sim = case.simulation(seed, &Cell::nth(EngineTier::Exact, 0));
            sim.run_until_resolved(MAX_ROUNDS)
        }
    };
    let lines = |results: Vec<(u64, &RunResult)>| -> String {
        let lines = results
            .into_iter()
            .map(|(seed, r)| trial_line(seed, r) + "\n");
        lines.collect()
    };
    let run_lines = |run: &TrialRun| {
        assert!(run.complete(), "every trial succeeds: {:?}", run.summary);
        lines(
            run.outcomes
                .iter()
                .filter_map(|o| Some((o.seed(), o.result()?)))
                .collect(),
        )
    };
    let reference = lines((base..).zip(&run_trials(TRIALS, 1, base, &trial)).collect());
    let plain = lines((base..).zip(&run_trials(TRIALS, 8, base, &trial)).collect());
    assert_eq!(plain, reference, "run_trials at 8 threads");
    for threads in [1, 8] {
        let run = TrialRunner::new(TRIALS, threads, base).run(trial.clone());
        let got = run_lines(&run.expect("no manifest"));
        assert_eq!(got, reference, "TrialRunner at {threads} threads");
    }

    // A manifest run stopped after 5 seeds, reopened from disk and resumed:
    // resumed seeds are silent, each fresh one is started → finished.
    let dir = std::env::temp_dir().join(format!("fading-differential-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("manifest.jsonl");
    let assert_progress = |events: Vec<ProgressEvent>, seeds: std::ops::Range<u64>| {
        assert_eq!(
            events.len() as u64,
            2 * (seeds.end - seeds.start),
            "{events:?}"
        );
        for seed in seeds {
            let per_seed: Vec<_> = events.iter().filter(|e| e.seed() == seed).collect();
            let in_order = matches!(
                per_seed[..],
                [
                    ProgressEvent::TrialStarted { .. },
                    ProgressEvent::TrialFinished { retries: 0, .. }
                ]
            );
            assert!(in_order, "seed {seed}: {per_seed:?}");
        }
    };
    let stopped = 5;
    let sink = MemoryProgress::new();
    let mut manifest = TrialManifest::open(&path).expect("open manifest");
    let first = TrialRunner::new(stopped, 8, base)
        .manifest(&mut manifest)
        .progress(&sink)
        .run(trial.clone())
        .expect("first pass");
    assert_eq!(first.resumed, 0);
    assert_progress(sink.take(), base..base + stopped as u64);
    drop(manifest);
    let mut manifest = TrialManifest::open(&path).expect("reopen manifest");
    assert_eq!(manifest.completed(), stopped);
    let resumed = TrialRunner::new(TRIALS, 8, base)
        .manifest(&mut manifest)
        .progress(&sink)
        .run(trial)
        .expect("resumed pass");
    assert_eq!(resumed.resumed, stopped as u64);
    assert_progress(sink.take(), base + stopped as u64..base + TRIALS as u64);
    assert_eq!(run_lines(&resumed), reference, "resumed manifest run");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Engine choice and engine state
// ---------------------------------------------------------------------------

fn fkn_sim(deployment: Deployment, channel: ChannelName, config: SimConfig) -> Simulation {
    let protocol = ProtocolKind::Fkn { p: 0.25 };
    let channel = channel.build(3.0);
    Simulation::try_new(deployment, channel, 7, config, |id| protocol.build(id))
        .expect("valid configuration")
}

fn pinned(tier: EngineTier) -> SimConfig {
    SimConfig {
        tier: Some(tier),
        ..SimConfig::default()
    }
}

/// The auto tier at 24 SINR nodes is the gain cache; a pinned tier
/// replaces it; the tile tree is built on demand with every node in it,
/// tracks knockouts, and reads a settable resolve pool.
#[test]
fn engine_state_tracks_tier_and_occupancy() {
    let make = |config| fkn_sim((SMALL.deploy)(7), ChannelName::Sinr, config);
    let auto = make(SimConfig::default());
    assert_eq!(auto.resolve_threads(), 1, "serial resolve by default");
    match auto.engine() {
        ResolveEngine::GainCache(c) => assert_eq!(c.len(), 24),
        other => panic!("expected the gain cache, got {:?}", other.tier()),
    }
    let exact = make(pinned(EngineTier::Exact));
    assert!(matches!(exact.engine(), ResolveEngine::Exact));

    let mut sim = make(pinned(EngineTier::Hierarchical));
    sim.set_resolve_threads(8);
    assert_eq!(sim.resolve_threads(), 8);
    let tree = |sim: &Simulation| match sim.engine() {
        ResolveEngine::Hierarchical(e) => (e.num_active(), e.stats().rounds),
        other => panic!("expected the tile tree, got {:?}", other.tier()),
    };
    assert_eq!(tree(&sim), (24, 0), "built with every node in it");
    assert!(sim.run_until_resolved(20_000).resolved());
    assert!(sim.num_active() < sim.len(), "someone must knock out");
    let (active, rounds) = tree(&sim);
    assert_eq!(active, sim.num_active(), "occupancy tracks knockouts");
    assert_eq!(rounds, sim.round());
}

/// A forced tier is the only engine a simulation builds. At n = 4096 the
/// auto tier is the n×n gain cache (128 MiB); a simulation pinned to the
/// exact scan must not build it first and then throw it away, and neither
/// may one pinned to the tile tree at n = 1024.
#[test]
fn forced_tier_is_built_once() {
    for (n, tier) in [(4096, EngineTier::Exact), (1024, EngineTier::Hierarchical)] {
        let auto = EngineTier::auto(ChannelName::Sinr.build(3.0).as_ref(), n);
        assert_eq!(auto, EngineTier::GainCache, "n = {n}");
        let deployment = Deployment::uniform_square(n, 2.0 * (n as f64).sqrt(), 5);
        let sim = fkn_sim(deployment, ChannelName::Sinr, pinned(tier));
        assert_eq!(sim.tier(), tier, "n = {n}");
        let built = sim.engine_counters().gain_cache_built;
        assert!(
            !built,
            "n = {n}: pinning {tier:?} must not build the gain cache"
        );
    }
}

/// Regression: the Rayleigh channel's n×n gain cache is memory-bound past
/// LLC and *slower* than recomputing deterministic gains with the batched
/// kernels (measured 43.1 ms cached vs 33.4 ms uncached per round at
/// n = 4096). The auto tier must reflect that: Rayleigh keeps the cache up
/// to `RAYLEIGH_CACHE_PROFITABLE_NODES` and resolves exactly above it,
/// while the deterministic SINR channel keeps it at every size its own
/// guard admits. Either way the results match: the Rayleigh cases above
/// run both tiers.
#[test]
fn rayleigh_bypasses_gain_cache_above_profitability_threshold() {
    let tier = |channel, n| {
        let deployment = Deployment::uniform_square(n, 40.0, 11);
        fkn_sim(deployment, channel, SimConfig::default()).tier()
    };
    let big = RAYLEIGH_CACHE_PROFITABLE_NODES + 1;
    assert_eq!(tier(ChannelName::Rayleigh, 16), EngineTier::GainCache);
    assert_eq!(
        tier(ChannelName::Rayleigh, big),
        EngineTier::Exact,
        "n = {big}"
    );
    assert_eq!(
        tier(ChannelName::Sinr, big),
        EngineTier::GainCache,
        "n = {big}"
    );
}

/// The radio channel has no geometry to cache: every tier it is asked for
/// builds the exact scan, so its cases run one engine.
#[test]
fn radio_channel_has_no_cache_but_runs_identically() {
    for config in [SimConfig::default(), pinned(EngineTier::GainCache)] {
        let deployment = Deployment::uniform_square(12, 10.0, 5);
        let sim = fkn_sim(deployment, ChannelName::Radio, config);
        assert!(matches!(sim.engine(), ResolveEngine::Exact));
    }
}

/// A plan with no loss model must leave the channel and node rng streams
/// untouched: the empty-plan run and the no-plan run are byte-identical
/// (the dedicated fault rng lane is never drawn from).
#[test]
fn attaching_a_fault_plan_does_not_disturb_unfaulted_streams() {
    let run = |fault_plan: Option<FaultPlan>| {
        let config = SimConfig {
            fault_plan,
            ..SimConfig::default()
        };
        let mut sim = fkn_sim((SMALL.deploy)(3), ChannelName::Rayleigh, config);
        sim.run_recorded(20_000, TelemetryDetail::ids())
    };
    assert_eq!(run(None), run(Some(FaultPlan::new())));
}

// ---------------------------------------------------------------------------
// The round-level table
// ---------------------------------------------------------------------------

/// A round's `(transmitters, listeners)`.
type Round = (Vec<usize>, Vec<usize>);

/// One generated round: positions, SINR parameters (α included), the round
/// or the draws that pick it, and the jammed perturbation's term.
struct Scene {
    positions: Vec<Point>,
    params: SinrParams,
    /// A pinned round `(transmitters, listeners)`; `None` draws one per
    /// transmitter fraction from `roles`.
    round: Option<Round>,
    /// One uniform draw in [0, 1) per node.
    roles: Vec<f64>,
    /// The jammed perturbation's per-node term.
    jam: Vec<f64>,
}

/// The transmitter fractions a drawn round is picked at.
const TX_FRACTIONS: [f64; 2] = [0.25, 0.5];

impl Scene {
    /// A scene over generated `positions` with drawn parameters, roles and
    /// jammer, in the ranges the SINR engines must handle: β ∈ [1, 4),
    /// N ∈ [0, 2), P ∈ [1, 10⁶), a jammer of power [0, 100) on every
    /// third node.
    fn drawn(positions: Vec<Point>, alpha: f64, rng: &mut SmallRng) -> Scene {
        let params = params(
            alpha,
            rng.gen_range(1.0..4.0),
            rng.gen_range(0.0..2.0),
            rng.gen_range(1.0..1e6),
        );
        let roles = positions.iter().map(|_| rng.gen::<f64>()).collect();
        let jam_power = rng.gen_range(0.0..100.0);
        let jam = (0..positions.len())
            .map(|i| if i % 3 == 0 { jam_power } else { 0.0 })
            .collect();
        Scene {
            positions,
            params,
            round: None,
            roles,
            jam,
        }
    }

    /// A scene whose round, parameters and jammer are pinned.
    fn pinned(positions: Vec<Point>, params: SinrParams, round: Round, jam: Vec<f64>) -> Scene {
        Scene {
            positions,
            params,
            round: Some(round),
            roles: Vec::new(),
            jam,
        }
    }

    /// The scene's rounds `(transmitters, listeners)`, each with the
    /// transmitter fraction it was drawn at (`None` for a pinned round): a
    /// node transmits when its draw is below the fraction, and three
    /// quarters of the rest listen.
    fn rounds(&self) -> Vec<(Option<f64>, Round)> {
        if let Some(round) = &self.round {
            return vec![(None, round.clone())];
        }
        let pick = |keep: &dyn Fn(f64) -> bool| {
            (0..self.roles.len())
                .filter(|&i| keep(self.roles[i]))
                .collect()
        };
        let round = |f: f64| {
            let listen = f + 0.75 * (1.0 - f);
            (Some(f), (pick(&|u| u < f), pick(&|u| u >= f && u < listen)))
        };
        TX_FRACTIONS.map(round).to_vec()
    }
}

fn params(alpha: f64, beta: f64, noise: f64, power: f64) -> SinrParams {
    SinrParams::builder()
        .alpha(alpha)
        .beta(beta)
        .noise(noise)
        .power(power)
        .build()
        .expect("valid SINR parameters")
}

/// The canonical gain `P / d^α` of `u` at `v`.
fn gain(params: &SinrParams, u: Point, v: Point) -> f64 {
    params.power() / pow_alpha(u.distance_sq(v), params.alpha())
}

/// Every α class the kernels serve: the canonical fast paths, the bounded
/// generic kernel, and past `BOUNDED_MAX_ALPHA` the canonical `powf`.
const ALPHAS: [f64; 7] = [3.0, 4.0, 6.0, 2.05, 2.5, 3.7, 9.5];

/// Whether the tile tree scans at `alpha` through the bounded kernel,
/// whose fallbacks may need a canonical rescan.
fn bounded(alpha: f64) -> bool {
    ![3.0, 4.0, 6.0].contains(&alpha) && alpha <= 8.0
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Perturbation {
    Neutral,
    NoiseScaled,
    /// The noise floor plus the scene's jammer term.
    Jammed,
    /// A negative jammer term larger than the noise on even nodes, NaN on
    /// odd ones: the floor the ladder sees is negative or NaN.
    NegativeFloor,
}

const PERTURBATIONS: [Perturbation; 4] = [
    Perturbation::Neutral,
    Perturbation::NoiseScaled,
    Perturbation::Jammed,
    Perturbation::NegativeFloor,
];

impl Perturbation {
    /// The noise scale and per-node term of the perturbation on `scene`.
    fn terms(self, scene: &Scene) -> (f64, Vec<f64>) {
        let below = -(1.5 * scene.params.noise() + 1.0);
        match self {
            Perturbation::Neutral => (1.0, Vec::new()),
            Perturbation::NoiseScaled => (2.5, Vec::new()),
            Perturbation::Jammed => (1.0, scene.jam.clone()),
            Perturbation::NegativeFloor => {
                let floor = |i: usize| if i.is_multiple_of(2) { below } else { f64::NAN };
                (1.0, (0..scene.positions.len()).map(floor).collect())
            }
        }
    }
}

/// A named geometry generator, and the slice of the case product it runs.
struct Generator {
    name: &'static str,
    samples: u32,
    alphas: &'static [f64],
    scene: fn(u32, f64) -> Scene,
    /// Forced fine tilings (tiles per side) of the tile-tree cells.
    tilings: &'static [usize],
    /// Which cases of the product the generator runs.
    runs: fn(&RoundCase) -> bool,
    /// What each tile-tree round of a case must reach.
    each: fn(&RoundCase, &FarFieldStats) -> bool,
    /// What the generator's tile-tree rounds must reach between them.
    total: fn(&Reach) -> bool,
}

/// A generator sample × α × channel × perturbation × transmitter fraction.
struct RoundCase<'a> {
    generator: &'a Generator,
    sample: u32,
    alpha: f64,
    channel: ChannelName,
    perturbation: Perturbation,
    /// `None` for a pinned round.
    fraction: Option<f64>,
}

impl RoundCase<'_> {
    /// The channel rng seed of the case's round.
    fn seed(&self) -> u64 {
        let axes = [
            u64::from(self.sample),
            self.alpha.to_bits() % 1009,
            self.channel as u64,
            self.perturbation as u64,
            self.fraction.map_or(0, |f| f.to_bits() % 1013),
        ];
        axes.iter().fold(17, |h, a| h.wrapping_mul(1_000_003) ^ a)
    }
}

impl fmt::Display for RoundCase<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "round {}/{}/α={}/{}/{:?}/tx={:?}",
            self.generator.name,
            self.sample,
            self.alpha,
            self.channel.name(),
            self.perturbation,
            self.fraction
        )
    }
}

/// The engine a round-level cell hands the channel.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RoundTier {
    Exact,
    GainCache,
    /// The tile tree over a forced `n × n` fine tiling.
    Tree(usize),
    /// A tile tree built for another deployment ([`round_engines`]).
    StaleTree,
    /// A gain cache built for another deployment.
    StaleCache,
}

impl RoundTier {
    fn threads(self) -> &'static [usize] {
        match self {
            RoundTier::Tree(_) => &RESOLVE_THREADS,
            _ => &RESOLVE_THREADS[..1],
        }
    }
}

/// Gain caches are built for scenes up to this size; past it their n × n
/// table costs more than the rest of the case.
const ROUND_CACHE_NODES: usize = 1024;

/// The engines of `scene`'s cells. The stale engines are built over other
/// positions (the scene less its last node) for even samples and under
/// another power for odd ones: either way the round must not use them. A
/// gain cache is also checked as a table: symmetric, zero on the diagonal,
/// and refused by a size guard one node short.
fn round_engines(scene: &Scene, tilings: &[usize], sample: u32) -> Vec<(RoundTier, ResolveEngine)> {
    let (positions, params) = (&scene.positions[..], &scene.params);
    let n = positions.len();
    let (stale_positions, stale_params) = if sample.is_multiple_of(2) {
        (&positions[..n - 1], *params)
    } else {
        let (alpha, beta, noise) = (params.alpha(), params.beta(), params.noise());
        (
            positions,
            self::params(alpha, beta, noise, 2.0 * params.power()),
        )
    };
    let tree = |positions: &[Point], params: &SinrParams, tiles| {
        let built = HierarchicalFarFieldEngine::build_with_tiling(positions, params, tiles);
        built.map(|e| ResolveEngine::Hierarchical(Box::new(e)))
    };
    let cache = |positions: &[Point], params: &SinrParams| {
        GainCache::build_with_limit(positions, params, ROUND_CACHE_NODES)
    };
    let mut engines = vec![(RoundTier::Exact, Some(ResolveEngine::Exact))];
    let table = cache(positions, params);
    if let Some(table) = &table {
        for v in 0..n {
            assert_eq!(table.gain(v, v), 0.0, "the gain table's diagonal");
            for u in 0..v {
                assert_eq!(table.gain(u, v), table.gain(v, u), "a symmetric gain table");
            }
        }
        assert!(GainCache::build_with_limit(positions, params, n - 1).is_none());
    }
    engines.push((RoundTier::GainCache, table.map(ResolveEngine::GainCache)));
    for &tiles in tilings {
        let engine = tree(positions, params, tiles);
        assert!(engine.is_some(), "the {tiles}-per-side tree must build");
        engines.push((RoundTier::Tree(tiles), engine));
    }
    let stale_tree = tree(stale_positions, &stale_params, tilings[0]);
    engines.push((RoundTier::StaleTree, stale_tree));
    let stale_cache = cache(stale_positions, &stale_params).map(ResolveEngine::GainCache);
    engines.push((RoundTier::StaleCache, stale_cache));
    engines
        .into_iter()
        .filter_map(|(tier, engine)| Some((tier, engine?)))
        .collect()
}

fn tree_of(engine: &ResolveEngine) -> &HierarchicalFarFieldEngine {
    match engine {
        ResolveEngine::Hierarchical(e) => e,
        other => panic!("expected the tile tree, got {:?}", other.tier()),
    }
}

/// Runs every case `generator` takes at `alphas`; returns how many cases
/// and (case, cell) pairs it checked and what its tree rounds reached.
fn check_generator(generator: &Generator, alphas: &[f64]) -> (usize, usize, Reach) {
    let (mut cases, mut pairs, mut reach) = (0, 0, Reach::default());
    for sample in 0..generator.samples {
        for &alpha in alphas {
            let scene = (generator.scene)(sample, alpha);
            let mut engines = round_engines(&scene, generator.tilings, sample);
            for (fraction, round) in scene.rounds() {
                let ctx = format!("{}/{sample}/α={alpha}/tx={fraction:?}", generator.name);
                for (tier, engine) in &engines {
                    if let RoundTier::Tree(_) = tier {
                        let tree = tree_of(engine).tree();
                        assert_brackets_sound(&ctx, tree, &scene, &round, u64::from(sample));
                    }
                }
                for (channel, perturbation) in ROUND_CHANNELS
                    .iter()
                    .flat_map(|&c| PERTURBATIONS.map(|p| (c, p)))
                {
                    let case = RoundCase {
                        generator,
                        sample,
                        alpha,
                        channel,
                        perturbation,
                        fraction,
                    };
                    if (generator.runs)(&case) {
                        pairs += check_round_case(&case, &scene, &round, &mut engines, &mut reach);
                        cases += 1;
                    }
                }
            }
        }
    }
    (cases, pairs, reach)
}

const ROUND_CHANNELS: [ChannelName; 5] = [
    ChannelName::Sinr,
    ChannelName::Lossy,
    ChannelName::Rayleigh,
    ChannelName::Radio,
    ChannelName::RadioCd,
];

/// Runs one case in every cell and holds each to the reference; returns
/// the number of cells.
fn check_round_case(
    case: &RoundCase,
    scene: &Scene,
    (tx, ls): &Round,
    engines: &mut [(RoundTier, ResolveEngine)],
    reach: &mut Reach,
) -> usize {
    let positions = &scene.positions[..];
    let channel = case.channel.with_params(scene.params);
    let (noise_scale, extra) = case.perturbation.terms(scene);
    let perturbation = ChannelPerturbation::new(noise_scale, &extra);
    let seed = case.seed();
    let mut want_rng = SmallRng::seed_from_u64(seed);
    let want = if perturbation.is_neutral() {
        channel.resolve(positions, tx, ls, &mut want_rng)
    } else {
        let exact = &mut ResolveEngine::Exact;
        let serial = &SerialExecutor;
        channel.resolve_with(
            positions,
            tx,
            ls,
            exact,
            &perturbation,
            serial,
            &mut want_rng,
            None,
        )
    };
    let tree_capable = channel.max_tier() == EngineTier::Hierarchical;
    let mut first_breakdown: Option<String> = None;
    let mut cells = 0;
    for (tier, engine) in engines.iter_mut() {
        let mut serial_stats = None;
        for &resolve_threads in tier.threads() {
            for breakdown in [false, true] {
                let ctx =
                    format!("{case}, {tier:?} at {resolve_threads} threads, breakdown {breakdown}");
                engine.set_stats(FarFieldStats::default());
                let mut rng = SmallRng::seed_from_u64(seed);
                // A stale entry the channel must clear.
                let mut breakdowns = breakdown.then(|| vec![STALE_BREAKDOWN]);
                let pool = StealPool::new(resolve_threads);
                let got = channel.resolve_with(
                    positions,
                    tx,
                    ls,
                    engine,
                    &perturbation,
                    &pool,
                    &mut rng,
                    breakdowns.as_mut(),
                );
                assert_eq!(got, want, "{ctx}: receptions differ from the reference");
                assert_eq!(rng, want_rng, "{ctx}: the rng cursor differs");
                if let Some(b) = breakdowns {
                    let printed = format!("{b:?}");
                    match &first_breakdown {
                        Some(first) => assert!(printed == *first, "{ctx}: breakdowns differ"),
                        None => {
                            check_breakdowns(&ctx, case, scene, (tx, ls), &perturbation, &b, &got);
                            first_breakdown = Some(printed);
                        }
                    }
                }
                cells += 1;
                let stats = engine.stats();
                let served = matches!(tier, RoundTier::Tree(_)) && tree_capable && !breakdown;
                if !served {
                    assert_eq!(stats, FarFieldStats::default(), "{ctx}: no ladder ran");
                    continue;
                }
                assert_eq!(stats.rounds, 1, "{ctx}: the tree served the round");
                let resolved = stats.listeners_resolved();
                assert_eq!(
                    resolved,
                    ls.len() as u64,
                    "{ctx}: one decision per listener"
                );
                if !bounded(case.alpha) {
                    assert_eq!(
                        stats.canonical_rescans, 0,
                        "{ctx}: a canonical scan rescanned"
                    );
                }
                let each = (case.generator.each)(case, &stats);
                assert!(each, "{ctx}: the tree round falls short: {stats:?}");
                let tree = tree_of(engine);
                match serial_stats {
                    Some(first) => assert_eq!(stats, first, "{ctx}: counters depend on threads"),
                    None => {
                        assert_far_field_bracketed(&ctx, tree, scene, (tx, ls));
                        serial_stats = Some(stats);
                    }
                }
                reach.add(TreeShape::of(tree.tree()), resolve_threads, &stats);
            }
        }
    }
    cells
}

const STALE_BREAKDOWN: SinrBreakdown = SinrBreakdown {
    listener: usize::MAX,
    best_tx: None,
    signal: -1.0,
    interference: -1.0,
    noise: -1.0,
    extra: -1.0,
    margin: -1.0,
    decoded: false,
};

/// Breakdowns follow the listeners, agree with the decision and add back
/// up to Eq. (1); on deterministic channels each equals a longhand
/// slice-order scan (first strict maximum wins).
fn check_breakdowns(
    ctx: &str,
    case: &RoundCase,
    scene: &Scene,
    (tx, ls): (&[usize], &[usize]),
    perturbation: &ChannelPerturbation<'_>,
    breakdowns: &[SinrBreakdown],
    rx: &[Reception],
) {
    if matches!(case.channel, ChannelName::Radio | ChannelName::RadioCd) {
        assert!(
            breakdowns.is_empty(),
            "{ctx}: a geometry-free channel reports none"
        );
        return;
    }
    assert_eq!(
        breakdowns.len(),
        ls.len(),
        "{ctx}: one breakdown per listener"
    );
    let beta = scene.params.beta();
    let noise = scene.params.noise() * perturbation.noise_scale();
    for (k, (b, &v)) in breakdowns.iter().zip(ls).enumerate() {
        // Only a failing check formats the listener's context.
        let at = || format!("{ctx}, listener {v}: {b:?}");
        assert_eq!(b.listener, v, "{}: breakdowns follow the listeners", at());
        // Never negative; NaN only as ∞ − ∞ beside a coincident sender.
        let negative = b.signal < 0.0 || b.interference < 0.0;
        assert!(!negative, "{}: power terms", at());
        let margin = b.signal - beta * (b.noise + b.extra + b.interference);
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        assert!(same(b.margin, margin), "{}: the margin is Eq. (1)", at());
        assert!(same(b.noise, noise), "{}: the scaled noise", at());
        assert!(
            same(b.extra, perturbation.extra_at(v)),
            "{}: the jammer term",
            at()
        );
        let decodes = b.best_tx.is_some() && b.margin >= 0.0;
        assert_eq!(b.decoded, decodes, "{}: decoded ⇔ margin ≥ 0", at());
        match rx[k] {
            Reception::Message { from } => {
                assert!(
                    b.decoded && b.best_tx == Some(from),
                    "{}: {:?}",
                    at(),
                    rx[k]
                );
            }
            // Only the lossy channel drops a message the SINR test passed.
            _ if b.decoded => assert_eq!(case.channel, ChannelName::Lossy, "{}: dropped", at()),
            _ => {}
        }
        if case.channel == ChannelName::Rayleigh {
            continue;
        }
        let (mut total, mut best_sig, mut best_tx) = (0.0, 0.0, None);
        for &u in tx {
            let sig = gain(&scene.params, scene.positions[u], scene.positions[v]);
            total += sig;
            if sig > best_sig {
                (best_sig, best_tx) = (sig, Some(u));
            }
        }
        assert_eq!(b.best_tx, best_tx, "{}: the first strict maximum", at());
        assert!(same(b.signal, best_sig), "{}: the longhand signal", at());
        assert!(
            same(b.interference, total - best_sig),
            "{}: the longhand sum",
            at()
        );
    }
}

/// Relative tolerance for comparing a bracket with a sum of `terms`
/// canonical gains: the rounding of two summation orders. The bounded
/// kernel's certified error (2⁻⁴⁰) is ~10⁴ times wider, so a widening with
/// the wrong sign still shows.
fn sum_tolerance(terms: usize) -> f64 {
    4.0 * (terms + 2) as f64 * f64::EPSILON
}

/// The engine's far aggregate `(lo, hi, cap)` for each listener's tile
/// brackets the exact interference the listener gets from transmitters
/// outside its near ring, and caps each such gain. So does the refined
/// stage's view: its close tiles lie outside the ring, its rest bracket
/// brackets and caps what they leave out, and the rest bracket plus the
/// exact close sum brackets the whole far field.
fn assert_far_field_bracketed(
    ctx: &str,
    engine: &HierarchicalFarFieldEngine,
    scene: &Scene,
    (tx, ls): (&[usize], &[usize]),
) {
    let fine = engine.tree().fine();
    let tol = sum_tolerance(tx.len());
    let within = |sum: f64, lo: f64, hi: f64| lo <= sum * (1.0 + tol) && sum <= hi * (1.0 + tol);
    let mut aggregates = HashMap::new();
    for &v in ls {
        let t = fine.tile_of(v);
        let ((lo, hi, cap), (r_lo, r_hi, r_cap)) = *aggregates.entry(t).or_insert_with(|| {
            let far = engine.far_aggregate(t).expect("the tile holds v");
            (far, engine.refined_aggregate(t).expect("the tile holds v"))
        });
        let close = engine.close_tiles(t);
        assert!(
            close
                .iter()
                .all(|&c| fine.chebyshev(t, c as usize) > HIER_NEAR_RING),
            "{ctx}: tile {t}'s close tiles {close:?} reach into its near ring"
        );
        let (mut far, mut strongest) = (0.0, 0.0f64);
        let (mut close_sum, mut rest, mut strongest_rest) = (0.0, 0.0, 0.0f64);
        for &u in tx {
            let tu = fine.tile_of(u);
            if fine.chebyshev(t, tu) > HIER_NEAR_RING {
                let g = gain(&scene.params, scene.positions[u], scene.positions[v]);
                far += g;
                strongest = strongest.max(g);
                if close.contains(&(tu as u32)) {
                    close_sum += g;
                } else {
                    rest += g;
                    strongest_rest = strongest_rest.max(g);
                }
            }
        }
        let sound = within(far, lo, hi) && strongest <= cap;
        assert!(
            sound,
            "{ctx}: listener {v}'s far field {far} (max gain {strongest}) escapes the \
             aggregate [{lo}, {hi}] (cap {cap})"
        );
        let refined = within(rest, r_lo, r_hi)
            && strongest_rest <= r_cap
            && within(far, r_lo + close_sum, r_hi + close_sum);
        assert!(
            refined,
            "{ctx}: listener {v}'s far field {far} (close {close_sum}; rest {rest}, max gain \
             {strongest_rest}) escapes the refined aggregate [{r_lo}, {r_hi}] (cap {r_cap}) \
             plus the exact close sum"
        );
    }
}

/// Every node certificate of `tree`, at every level and against every
/// listener's tile, brackets each distance from the listener to the node's
/// transmitters and the sum of their exact gains; and a seeded random cut
/// of the tree (descend or accept by coin flip, the listener's own fine
/// tile never accepted) brackets the gain the cut aggregates.
fn assert_brackets_sound(ctx: &str, tree: &TileTree, scene: &Scene, (tx, ls): &Round, seed: u64) {
    let (positions, params) = (&scene.positions, &scene.params);
    let g = |d_sq: f64| params.power() / pow_alpha(d_sq, params.alpha());
    let fine = tree.fine();
    let cols = fine.cols();
    // Each node's transmitters, by level.
    let members: Vec<Vec<Vec<usize>>> = (0..tree.num_levels())
        .map(|level| {
            (0..tree.num_nodes(level))
                .map(|idx| {
                    let (col_range, row_range) = tree.fine_tile_range(level, idx);
                    let under = |&&u: &&usize| {
                        let t = fine.tile_of(u);
                        col_range.contains(&(t % cols)) && row_range.contains(&(t / cols))
                    };
                    tx.iter().filter(under).copied().collect()
                })
                .collect()
        })
        .collect();
    let tol = sum_tolerance(tx.len());
    let in_bracket =
        |sum: f64, lo: f64, hi: f64| lo <= sum * (1.0 + tol) && sum <= hi * (1.0 + tol);
    let mut rng = SmallRng::seed_from_u64(seed);
    for &v in ls {
        let vp = positions[v];
        let lt = fine.tile_of(v);
        for (level, nodes) in members.iter().enumerate() {
            for (idx, node) in nodes.iter().enumerate().filter(|(_, m)| !m.is_empty()) {
                let (d_min_sq, d_max_sq) = tree
                    .distance_sq_bounds_to(lt, level, idx)
                    .expect("both sides hold points");
                let mut sum = 0.0;
                for &u in node {
                    let d_sq = positions[u].distance_sq(vp);
                    assert!(
                        d_min_sq <= d_sq && d_sq <= d_max_sq,
                        "{ctx}: pair ({v}, {u}) at d² = {d_sq} escapes node ({level}, {idx})'s \
                         certificate [{d_min_sq}, {d_max_sq}]"
                    );
                    sum += g(d_sq);
                }
                let m = node.len() as f64;
                let (lo, hi) = (m * g(d_max_sq), m * g(d_min_sq));
                assert!(
                    in_bracket(sum, lo, hi),
                    "{ctx}: listener {v}'s gain {sum} from node ({level}, {idx}) escapes [{lo}, {hi}]"
                );
            }
        }
        let (mut lo, mut hi, mut exact) = (0.0, 0.0, 0.0);
        let mut stack = vec![tree.root()];
        while let Some((level, idx)) = stack.pop() {
            let node = &members[level][idx];
            if node.is_empty() {
                continue;
            }
            let (col_range, row_range) = tree.fine_tile_range(level, idx);
            let covers = col_range.contains(&(lt % cols)) && row_range.contains(&(lt / cols));
            if covers && level == 0 {
                continue;
            }
            if covers || (level > 0 && rng.gen_bool(0.5)) {
                stack.extend(tree.children(level, idx).map(|c| (level - 1, c)));
                continue;
            }
            let (d_min_sq, d_max_sq) = tree
                .distance_sq_bounds_to(lt, level, idx)
                .expect("both sides hold points");
            let m = node.len() as f64;
            lo += m * g(d_max_sq);
            hi += m * g(d_min_sq);
            exact += node
                .iter()
                .map(|&u| g(positions[u].distance_sq(vp)))
                .sum::<f64>();
        }
        assert!(
            in_bracket(exact, lo, hi),
            "{ctx}: listener {v}'s cut aggregate {exact} escapes [{lo}, {hi}]"
        );
    }
}

/// Runs `generators` (each at `alpha`, or at its own α list), checks what
/// each one's tree rounds reached, and prints the pair count.
fn check_round_level(generators: &[Generator], alpha: Option<f64>) {
    let (mut cases, mut pairs, mut all) = (0, 0, Reach::default());
    for generator in generators {
        let alphas = alpha.map_or(generator.alphas.to_vec(), |a| vec![a]);
        let (c, p, reach) = check_generator(generator, &alphas);
        let name = generator.name;
        assert!(
            (generator.total)(&reach),
            "{name}: tree rounds fall short: {reach:?}"
        );
        (cases, pairs) = (cases + c, pairs + p);
        all.tiles = all.tiles.max(reach.tiles);
        all.levels = all.levels.max(reach.levels);
        all.stats.add(&reach.stats);
    }
    let s = &all.stats;
    let names: Vec<_> = generators.iter().map(|g| g.name).collect();
    let at = alpha.map_or("its own α".to_string(), |a| format!("α = {a}"));
    println!(
        "differential round_level {} at {at}: {cases} cases, {pairs} (case, cell) pairs; \
         {} tree rounds (≤ {} fine tiles, ≤ {} levels; {} bracket decisions, {} refined \
         decisions, {} fallbacks, {} canonical rescans)",
        names.join("+"),
        s.rounds,
        all.tiles,
        all.levels,
        s.bracket_decisions,
        s.refined_decisions,
        s.exact_fallbacks(),
        s.canonical_rescans
    );
}

// ---------------------------------------------------------------------------
// Round-level generators
// ---------------------------------------------------------------------------

fn scene_rng(name: &str, sample: u32, alpha: f64) -> SmallRng {
    proptest::test_runner::case_rng(&format!("{name}/α={alpha}"), sample)
}

fn shuffle(items: &mut [usize], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// 2–48 distinct points on a jittered unit lattice.
fn lattice(sample: u32, alpha: f64) -> Scene {
    let mut rng = scene_rng("lattice", sample, alpha);
    let n = rng.gen_range(2..=48usize);
    let side = (n as f64).sqrt().ceil() as usize;
    let positions = (0..n)
        .map(|i| {
            let (jx, jy) = (rng.gen_range(0.0..0.4), rng.gen_range(0.0..0.4));
            Point::new((i % side) as f64 + jx, (i / side) as f64 + jy)
        })
        .collect();
    Scene::drawn(positions, alpha, &mut rng)
}

/// One to five tight clusters flung across a 200 × 200 field: most
/// transmitter mass sits levels above a listener's fine tile, so accepted
/// aggregates are coarse.
fn clustered(sample: u32, alpha: f64) -> Scene {
    let mut rng = scene_rng("clustered", sample, alpha);
    let mut positions = Vec::new();
    for _ in 0..rng.gen_range(1..6) {
        let (cx, cy) = (rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0));
        for _ in 0..rng.gen_range(2..12) {
            let (dx, dy) = (rng.gen_range(0.0..2.0), rng.gen_range(0.0..2.0));
            positions.push(Point::new(cx + dx, cy + dy));
        }
    }
    Scene::drawn(positions, alpha, &mut rng)
}

/// 2–48 points along a strip one unit tall and up to ~150 long: the
/// pyramid's levels degenerate to 1 × k.
fn corridor(sample: u32, alpha: f64) -> Scene {
    let mut rng = scene_rng("corridor", sample, alpha);
    let n = rng.gen_range(2..=48usize);
    let positions = (0..n)
        .map(|i| {
            let (jx, jy) = (rng.gen_range(0.0..3.0), rng.gen_range(0.0..1.0));
            Point::new(i as f64 * 3.0 + jx, jy)
        })
        .collect();
    Scene::drawn(positions, alpha, &mut rng)
}

/// 81 tiles of 9 × 9 over [0, 54]², each holding 36 listeners (a full
/// `LISTENER_BLOCK` and a tail) and 4 transmitters, passed in shuffled
/// slice order, so the near gather's slice-order sort and the
/// lowest-slice-index winner rule both matter. More than one
/// `HIER_TILE_CHUNK` of tiles, so a round splits across threads.
fn crowded(sample: u32, alpha: f64) -> Scene {
    let mut rng = scene_rng("crowded", sample, alpha);
    let (mut positions, mut tx, mut ls) = (Vec::new(), Vec::new(), Vec::new());
    for tile in 0..81 {
        let (x0, y0) = (f64::from(tile % 9) * 6.0, f64::from(tile / 9) * 6.0);
        for j in 0..40 {
            let (jx, jy) = (rng.gen_range(0.0..0.3), rng.gen_range(0.0..0.3));
            let (x, y) = (f64::from(j % 7) * 0.8, f64::from(j / 7) * 0.9);
            let role = if j % 13 == 0 { &mut tx } else { &mut ls };
            role.push(positions.len());
            positions.push(Point::new(x0 + 0.3 + x + jx, y0 + 0.3 + y + jy));
        }
    }
    // Idle pads pinning the bounding box, so the tiles are 6 × 6.
    positions.extend([Point::new(0.0, 0.0), Point::new(54.0, 54.0)]);
    shuffle(&mut tx, &mut rng);
    shuffle(&mut ls, &mut rng);
    let fine = TileIndex::build(&positions, 9).expect("finite points");
    let mut per_tile = vec![0; fine.num_tiles()];
    for &v in &ls {
        per_tile[fine.tile_of(v)] += 1;
    }
    let block_and_tail = |&c: &usize| c > LISTENER_BLOCK && c % LISTENER_BLOCK != 0;
    assert!(per_tile.iter().all(block_and_tail), "{per_tile:?}");
    assert!(fine.num_tiles() > HIER_TILE_CHUNK, "several tile chunks");
    let jam = (0..positions.len())
        .map(|i| (i % 7) as f64 * 0.002)
        .collect();
    Scene::pinned(positions, params(alpha, 1.5, 0.01, 4.0), (tx, ls), jam)
}

/// 45 listeners in fine tile (0, 0) of an 8 × 8 tiling over [0, 128]² hear
/// one transmitter at (120, 120) at 0.21–0.27 (α = 3, P = 10⁶, β = 1.5,
/// N = 0.1), above β·N = 0.15, with nothing in their near ring: the ladder
/// exits at rung 3 for each, so they fall back as one full
/// `LISTENER_BLOCK` and a 13-listener tail, interleaved in the tile chunk
/// with 20 listeners near the sender that the bracket settles. The jammer
/// (0.06 on every third of them) moves the threshold to 0.24, so the exact
/// scan decodes some of those and silences the others.
fn batched_fallback(_: u32, alpha: f64) -> Scene {
    let mut positions = vec![
        Point::new(0.0, 0.0),
        Point::new(128.0, 128.0),
        Point::new(120.0, 120.0),
    ];
    let mut place = |x: f64, y: f64| {
        positions.push(Point::new(x, y));
        positions.len() - 1
    };
    let far: Vec<usize> = (0..45)
        .map(|i| place(1.0 + f64::from(i % 9) * 1.5, 1.0 + f64::from(i / 9) * 1.5))
        .collect();
    let near: Vec<usize> = (0..20)
        .map(|i| {
            place(
                110.0 + f64::from(i % 5) * 2.0,
                110.0 + f64::from(i / 5) * 2.0,
            )
        })
        .collect();
    let tx = vec![2];
    let mut ls = Vec::new();
    for (k, &v) in far.iter().enumerate() {
        ls.push(v);
        if let Some(&d) = near.get(k / 2).filter(|_| k % 2 == 0) {
            ls.push(d);
        }
    }
    const { assert!(8 * 8 <= HIER_TILE_CHUNK) };
    let mut jam = vec![0.0; positions.len()];
    for &v in far.iter().step_by(3) {
        jam[v] = 0.06;
    }
    let p = params(alpha, 1.5, 0.1, 1e6);
    let rx = SinrChannel::new(p).resolve_with(
        &positions,
        &tx,
        &ls,
        &mut ResolveEngine::Exact,
        &ChannelPerturbation::new(1.0, &jam),
        &SerialExecutor,
        &mut SmallRng::seed_from_u64(0),
        None,
    );
    let decoded = far.iter().step_by(3).filter(|&&v| {
        let k = ls.iter().position(|&l| l == v).expect("a listener");
        rx[k].is_message()
    });
    let decoded = decoded.count();
    assert!(
        decoded > 0 && decoded < 15,
        "{decoded} of 15 jammed fallbacks decode"
    );
    Scene::pinned(positions, p, (tx, ls), jam)
}

/// The largest `x` at which `decodes(x)` still holds, walking ulps from
/// `guess`: a knife edge tuned to the last ulp.
fn last_decoding(guess: f64, decodes: impl Fn(f64) -> bool) -> f64 {
    let up = |x: f64| f64::from_bits(x.to_bits() + 1);
    let mut x = guess;
    while !decodes(x) {
        x = f64::from_bits(x.to_bits() - 1);
    }
    while decodes(up(x)) {
        x = up(x);
    }
    x
}

/// 40 listeners at α = 2.5, one tile chunk of them (a full
/// `LISTENER_BLOCK` and an 8-listener tail), each 0.58 from its own sender
/// and hearing the other 39 as interference. The jammer term is tuned to
/// the last ulp at which the canonical test still decodes (even listeners)
/// or the first at which it does not (odd ones): every SINR lies within
/// 10⁻¹² of β, so the jammed round must reach the exact fallback for all
/// 40 and the canonical rescan for all 40.
fn knife_edge_block(_: u32, alpha: f64) -> Scene {
    let (beta, noise, power) = (1.5, 1e-3, 1.0);
    let p = params(alpha, beta, noise, power);
    let (mut positions, mut tx, mut ls) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..40 {
        let (x, y) = (f64::from(i % 8) * 4.0, f64::from(i / 8) * 4.0);
        ls.push(positions.len());
        positions.push(Point::new(x + 0.01 * f64::from(i), y));
        tx.push(positions.len());
        positions.push(Point::new(x + 0.5, y + 0.3));
    }
    let ch = SinrChannel::new(p);
    let mut jam = vec![0.0; positions.len()];
    for (k, &v) in ls.iter().enumerate() {
        let at = positions[v];
        let best = gain(&p, positions[v + 1], at);
        let interference = ch.interference_at(&positions, at, &tx) - best;
        let decodes = |e: f64| best >= beta * (noise + e + interference);
        let e = last_decoding(best / beta - noise - interference, decodes);
        assert!(e > 0.0, "listener {v} cannot be tuned to a knife edge");
        jam[v] = if k % 2 == 0 {
            e
        } else {
            f64::from_bits(e.to_bits() + 1)
        };
        let sinr = best / (noise + jam[v] + interference);
        assert!(
            (sinr / beta - 1.0).abs() <= 1e-12,
            "listener {v}: SINR {sinr}"
        );
    }
    Scene::pinned(positions, p, (tx, ls), jam)
}

/// One listener at α = 2.5, a near sender and five far interferers the
/// tree aggregates, with the noise tuned to the last ulp at which the
/// canonical test decodes (even samples) or one ulp above (odd ones),
/// over 16 placements. Each SINR lies within 10⁻¹² of β, far inside the
/// ladder's slack, so the neutral round reaches the canonical rescan.
fn knife_edge_noise(sample: u32, alpha: f64) -> Scene {
    let (beta, power) = (1.5, 1.0);
    let j = f64::from(sample / 2) / 16.0;
    let far = [(5.3, 6.1), (7.2, 1.7), (2.2, 7.4), (6.6, 6.9), (7.9, 4.4)];
    let mut positions = vec![
        Point::new(0.05, 0.1),
        Point::new(0.9 + 0.3 * j, 0.4 - 0.2 * j),
    ];
    positions.extend(far.map(|(x, y)| Point::new(x + 0.1 * j, y - 0.05 * j)));
    // Pads the bounding box to [0, 8]²: unit tiles under an 8 × 8 grid.
    positions.push(Point::new(8.0, 8.0));
    let tx: Vec<usize> = (1..7).collect();
    let probe = SinrChannel::new(params(alpha, beta, 1.0, power));
    let best = gain(probe.params(), positions[1], positions[0]);
    let interference = probe.interference_at(&positions, positions[0], &tx) - best;
    let edge = last_decoding(best / beta - interference, |n| {
        best >= beta * (n + interference)
    });
    let noise = f64::from_bits(edge.to_bits() + u64::from(sample % 2));
    let p = params(alpha, beta, noise, power);
    let sinr = SinrChannel::new(p).sinr(&positions, 1, 0, &tx);
    assert!(
        (sinr / beta - 1.0).abs() <= 1e-12,
        "SINR {sinr} is not a knife edge"
    );
    let jam = vec![0.0; positions.len()];
    Scene::pinned(positions, p, (tx, vec![0]), jam)
}

/// Gains the bounded kernel cannot certify: a listener a subnormal d²
/// from its sender (a NaN bounded gain) and one on top of its sender (an
/// infinite gain), among a lattice of ordinary listeners. Both trip rung
/// 1; at generic α their bounded first pass is refused and the canonical
/// rescan decides.
fn special_bounded_gains(_: u32, alpha: f64) -> Scene {
    let mut positions = vec![
        Point::new(0.0, 0.0),    // listener, a subnormal d² from 1
        Point::new(1e-158, 0.0), // sender
        Point::new(5.0, 5.0),    // listener on top of 3
        Point::new(5.0, 5.0),    // sender
    ];
    assert!(positions[1].distance_sq(positions[0]) < f64::MIN_POSITIVE);
    positions.extend(
        (0..36).map(|i| Point::new(1.0 + f64::from(i % 6) * 1.3, 1.0 + f64::from(i / 6) * 1.3)),
    );
    positions.push(Point::new(8.0, 8.0));
    let tx = vec![1, 3, positions.len() - 1];
    let ls = (0..positions.len() - 1)
        .filter(|v| !tx.contains(v))
        .collect();
    let jam = vec![0.0; positions.len()];
    Scene::pinned(positions, params(alpha, 1.5, 0.01, 1.0), (tx, ls), jam)
}

/// Two transmitters mirror-symmetric about a listener: bit-equal gains,
/// in both slice orders, the one with the lower slice index in the later
/// near tile. Over a negative floor a canonical near scan certifies a
/// `Message` despite the tie, so it must name the canonical winner, the
/// lowest slice index.
fn exact_ties(sample: u32, alpha: f64) -> Scene {
    let positions = vec![
        Point::new(4.5, 4.5), // listener
        Point::new(6.5, 4.5),
        Point::new(2.5, 4.5),
        Point::new(0.0, 0.0), // pads: the bbox is [0, 8]², unit tiles
        Point::new(8.0, 8.0),
    ];
    let tx = if sample == 0 { vec![1, 2] } else { vec![2, 1] };
    let jam = vec![0.0; positions.len()];
    Scene::pinned(positions, params(alpha, 2.0, 1.0, 16.0), (tx, vec![0]), jam)
}

/// The strongest signal lives outside the listener's near ring, so the
/// near scan finds no candidate and the ladder must exit at rung 3, where
/// the exact fallback recovers the far sender.
fn far_only_sender(_: u32, alpha: f64) -> Scene {
    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(120.0, 120.0),
        Point::new(60.0, 0.0),
    ];
    let fine = TileIndex::build(&positions, 8).expect("finite points");
    assert!(fine.chebyshev(fine.tile_of(0), fine.tile_of(1)) > HIER_NEAR_RING);
    let p = params(alpha, 1.5, 0.1, 1e6);
    let rx = SinrChannel::new(p).resolve(&positions, &[1], &[0], &mut SmallRng::seed_from_u64(0));
    assert_eq!(
        rx,
        [Reception::Message { from: 1 }],
        "the far sender decodes"
    );
    let jam = vec![0.0; positions.len()];
    Scene::pinned(positions, p, (vec![1], vec![0]), jam)
}

/// A zero SINR margin on a coarse bracket (α = 4, P = 16, β = 2,
/// N = 2⁻⁸, an 8 × 8 tiling of [0, 32]², so 4 × 4 tiles): listener 0 at
/// (0.5, 0.5) hears a near sender at (4.5, 4.5) at 2⁻⁶ and 64 coincident
/// far senders at (16.5, 16.5) at 2⁻¹⁴ each, all powers of two, so
/// `β·(N + I) = 2⁻⁶` equals the signal exactly. The cluster's level-1 node
/// holds all 64 with a point bbox, so its certificate against the
/// listener's tile is tight, and the interaction lists bracket the whole
/// far field in one pair of level-1 nodes: no slack can separate the
/// outcomes and the bracket must straddle. At generic α the same
/// aggregate pins the bounded kernel's widening.
fn coarse_knife_edge(_: u32, alpha: f64) -> Scene {
    let mut positions = vec![Point::new(0.5, 0.5), Point::new(4.5, 4.5)];
    positions.extend([Point::new(16.5, 16.5); 64]);
    // An idle pad stretching the bbox to [0, 32]².
    positions.push(Point::new(32.0, 32.0));
    let tree = TileTree::build(&positions, 8).expect("finite points");
    let fine = tree.fine();
    let t0 = fine.tile_of(0);
    assert_eq!(tree.num_levels(), 4, "8 → 4 → 2 → 1");
    assert!(
        fine.chebyshev(t0, fine.tile_of(2)) > HIER_NEAR_RING,
        "the cluster is far"
    );
    assert!(
        fine.chebyshev(t0, fine.tile_of(1)) <= HIER_NEAR_RING,
        "the sender is near"
    );
    let node = 2 * tree.level_cols(1) + 2;
    assert_eq!(
        tree.node_count(1, node),
        64,
        "level-1 node (2, 2) holds the cluster"
    );
    let (d_min_sq, d_max_sq) = tree.distance_sq_bounds_to(t0, 1, node).expect("occupied");
    assert_eq!(d_min_sq, d_max_sq, "a point bbox gives a tight certificate");
    let (p, tx): (_, Vec<usize>) = (params(alpha, 2.0, 0.00390625, 16.0), (1..66).collect());
    if alpha == 4.0 {
        let rx =
            SinrChannel::new(p).resolve(&positions, &tx, &[0], &mut SmallRng::seed_from_u64(0));
        assert_eq!(
            rx,
            [Reception::Message { from: 1 }],
            "`≥` admits a zero margin"
        );
    }
    let jam = vec![0.0; positions.len()];
    Scene::pinned(positions, p, (tx, vec![0]), jam)
}

/// Six isolated sender–listener pairs, every listener decidable by the
/// bracket. A negative (or NaN) floor voids the lemma that lets a bounded
/// near scan name its sender, so at generic α no listener over it is
/// certified: all fall back and are rescanned canonically. A canonical
/// scan certifies the negative floors and falls back on the NaN ones.
fn negative_floor_pairs(_: u32, alpha: f64) -> Scene {
    let (mut positions, mut tx, mut ls) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..6 {
        // Odd pairs put the listener on an odd node, under a NaN floor.
        let (listener, sender) = if k % 2 == 0 { (0.0, 0.5) } else { (0.5, 0.0) };
        let x = f64::from(k) * 10.0;
        let mut place = |dx: f64, list: &mut Vec<usize>| {
            list.push(positions.len());
            positions.push(Point::new(x + dx, 0.0));
        };
        if k % 2 == 0 {
            place(listener, &mut ls);
            place(sender, &mut tx);
        } else {
            place(sender, &mut tx);
            place(listener, &mut ls);
        }
    }
    positions.push(Point::new(50.5, 50.0));
    let mut jam = vec![0.0; positions.len()];
    for &v in &ls {
        jam[v] = 0.5;
    }
    Scene::pinned(positions, params(alpha, 2.0, 1.0, 1.0), (tx, ls), jam)
}

/// The transmitters of `tx` the refined stage evaluates exactly for
/// listener `v` under an 8 × 8 tiling: those in the fine sources of its
/// tile's own interaction list.
fn close_transmitters(
    positions: &[Point],
    params: &SinrParams,
    tx: &[usize],
    v: usize,
) -> Vec<usize> {
    let engine =
        HierarchicalFarFieldEngine::build_with_tiling(positions, params, 8).expect("finite points");
    let fine = engine.tree().fine();
    let close = engine.close_tiles(fine.tile_of(v));
    let is_close = |u: &usize| close.contains(&(fine.tile_of(*u) as u32));
    tx.iter().copied().filter(is_close).collect()
}

/// Three weak senders in the far corner of [0, 8]², which an ancestor's
/// list aggregates for a listener near the bottom edge, and the two pads
/// that make the tiles of an 8 × 8 tiling unit squares.
const CORNER_AND_PADS: [Point; 5] = [
    Point::new(7.5, 7.5),
    Point::new(6.5, 7.5),
    Point::new(7.5, 6.5),
    Point::new(0.0, 0.0),
    Point::new(8.0, 8.0),
];

/// A far rival in the listener tile's close set (P = 16, β = 1.2,
/// N = 0.01, unit tiles): listener 0 at (0.5, 0.5) hears a near sender at
/// (2.9, 2.9) and, three tiles away in a fine source of its own list, a
/// rival at (3.1, 0.5) twice as strong, plus the weak corner senders. The
/// close bracket's cap is the rival's gain, so the first ladder stops on
/// rung 4; the refined stage's exact gains make the rival the winner, the
/// corner cannot rival it, and the second ladder decodes it.
fn close_rival(_: u32, alpha: f64) -> Scene {
    let mut positions = vec![
        Point::new(0.5, 0.5),
        Point::new(2.9, 2.9),
        Point::new(3.1, 0.5),
    ];
    positions.extend(CORNER_AND_PADS);
    let p = params(alpha, 1.2, 0.01, 16.0);
    let tx = vec![1, 2, 3, 4, 5];
    assert_eq!(close_transmitters(&positions, &p, &tx, 0), [2]);
    let rx = SinrChannel::new(p).resolve(&positions, &tx, &[0], &mut SmallRng::seed_from_u64(0));
    assert_eq!(rx, [Reception::Message { from: 2 }], "the rival decodes");
    let jam = vec![0.0; positions.len()];
    Scene::pinned(positions, p, (tx, vec![0]), jam)
}

/// A near sender and a close one mirror-symmetric about listener 0 at
/// (3.75, 0.5), 2.5 away on dyadic coordinates: bit-equal gains, in both
/// slice orders, the near one two tiles away and the close one three.
/// Two idle nodes widen the content boxes of the two level-1 nodes, so
/// that no coarse pair takes the close sender's tile before the fine
/// tiles meet. The close bracket's cap is the tied gain, so the first
/// ladder stops on
/// rung 4 and the refined stage merges the tie. Over a negative floor a
/// canonical scan certifies a `Message` despite the tie, so the merge must
/// name the canonical winner, the lower slice index.
fn close_ties(sample: u32, alpha: f64) -> Scene {
    let mut positions = vec![
        Point::new(3.75, 0.5),
        Point::new(1.25, 0.5),
        Point::new(6.25, 0.5),
        Point::new(2.1, 1.9),
        Point::new(7.9, 1.9),
    ];
    positions.extend(CORNER_AND_PADS);
    let p = params(alpha, 2.0, 1.0, 16.0);
    let tx = if sample == 0 {
        vec![1, 2, 5, 6, 7]
    } else {
        vec![2, 1, 5, 6, 7]
    };
    assert_eq!(close_transmitters(&positions, &p, &tx, 0), [2]);
    let (near, close) = (positions[1], positions[2]);
    assert_eq!(gain(&p, near, positions[0]), gain(&p, close, positions[0]));
    let jam = vec![0.0; positions.len()];
    Scene::pinned(positions, p, (tx, vec![0]), jam)
}

/// A knife edge the refined stage cannot settle: listener 0 at (0.5, 0.5)
/// hears a near sender at (1.5, 0.5), a close interferer at (3.5, 0.5)
/// and the corner senders, with the noise tuned to the last ulp at which
/// the canonical test decodes (even samples) or one ulp above (odd ones).
/// The SINR lies within 10⁻¹² of β, far inside the ladder's slack, so the
/// refined stage runs and still straddles: the neutral round reaches the
/// exact scan.
fn close_knife_edge(sample: u32, alpha: f64) -> Scene {
    let (beta, power) = (1.5, 1.0);
    let mut positions = vec![
        Point::new(0.5, 0.5),
        Point::new(1.5, 0.5),
        Point::new(3.5, 0.5),
    ];
    positions.extend(CORNER_AND_PADS);
    let tx = vec![1, 2, 3, 4, 5];
    let probe = SinrChannel::new(params(alpha, beta, 1.0, power));
    assert_eq!(close_transmitters(&positions, probe.params(), &tx, 0), [2]);
    let best = gain(probe.params(), positions[1], positions[0]);
    let interference = probe.interference_at(&positions, positions[0], &tx) - best;
    let edge = last_decoding(best / beta - interference, |n| {
        best >= beta * (n + interference)
    });
    let noise = f64::from_bits(edge.to_bits() + u64::from(sample % 2));
    let p = params(alpha, beta, noise, power);
    let sinr = SinrChannel::new(p).sinr(&positions, 1, 0, &tx);
    assert!(
        (sinr / beta - 1.0).abs() <= 1e-12,
        "SINR {sinr} is not a knife edge"
    );
    let jam = vec![0.0; positions.len()];
    Scene::pinned(positions, p, (tx, vec![0]), jam)
}

impl Generator {
    /// A drawn geometry: six samples at every α class, every case of its
    /// product, held only to what its rounds reach in `total`.
    const fn drawn(
        name: &'static str,
        scene: fn(u32, f64) -> Scene,
        tilings: &'static [usize],
        total: fn(&Reach) -> bool,
    ) -> Generator {
        Generator {
            name,
            samples: 6,
            alphas: &ALPHAS,
            scene,
            tilings,
            runs: |_| true,
            each: |_, _| true,
            total,
        }
    }

    /// A pinned round over an 8 × 8 tiling, every case of its product,
    /// each tree round held to `each`.
    const fn pinned(
        name: &'static str,
        samples: u32,
        alphas: &'static [f64],
        scene: fn(u32, f64) -> Scene,
        each: fn(&RoundCase, &FarFieldStats) -> bool,
    ) -> Generator {
        Generator {
            name,
            samples,
            alphas,
            scene,
            tilings: &[8],
            runs: |_| true,
            each,
            total: |r| r.stats.rounds > 0,
        }
    }
}

const DRAWN: [Generator; 3] = [
    Generator::drawn("lattice", lattice, &[5, 8], |r| {
        r.brackets_and_fallbacks() && r.refined()
    }),
    Generator::drawn("clustered", clustered, &[7, 16], |r| {
        r.brackets_and_fallbacks() && r.levels >= 5
    }),
    Generator::drawn("corridor", corridor, &[4, 9], |r| {
        r.brackets_and_fallbacks() && r.refined()
    }),
];

const CROWDED: Generator = Generator {
    name: "tile_major_crowded",
    samples: 1,
    alphas: &[3.0, 2.5],
    scene: crowded,
    tilings: &[9],
    // Every perturbation and α on the SINR channel; each other channel at
    // the neutral α = 3 round.
    runs: |c| {
        c.channel == ChannelName::Sinr
            || (c.alpha == 3.0 && c.perturbation == Perturbation::Neutral)
    },
    each: |_, _| true,
    total: |r| {
        let settled = r.stats.fast_decisions() + r.stats.noise_floor_silences;
        r.split_rounds() && settled > r.stats.exact_fallbacks()
    },
};

const BATCHED_FALLBACK: Generator =
    Generator::pinned("batched_fallback", 1, &[3.0], batched_fallback, |c, s| {
        let jammed = matches!(c.perturbation, Perturbation::Neutral | Perturbation::Jammed);
        let block_and_tail = s.exact_fallbacks() % LISTENER_BLOCK as u64 == 13;
        !jammed || (s.no_near_winner_fallbacks == 45 && block_and_tail)
    });

const KNIFE_EDGE_BLOCK: Generator =
    Generator::pinned("knife_edge_block", 1, &[2.5], knife_edge_block, |c, s| {
        c.perturbation != Perturbation::Jammed
            || (s.exact_fallbacks() == 40 && s.canonical_rescans == 40)
    });

const KNIFE_EDGE_NOISE: Generator =
    Generator::pinned("knife_edge_noise", 32, &[2.5], knife_edge_noise, |c, s| {
        c.perturbation != Perturbation::Neutral
            || (s.exact_fallbacks() == 1 && s.canonical_rescans == 1)
    });

const SPECIAL_BOUNDED_GAINS: Generator = Generator::pinned(
    "special_bounded_gains",
    1,
    &[2.5, 3.0],
    special_bounded_gains,
    |c, s| s.nonfinite_fallbacks >= 2 && (!bounded(c.alpha) || s.canonical_rescans >= 2),
);

const EXACT_TIES: Generator =
    Generator::pinned("exact_ties", 2, &[3.0, 2.5], exact_ties, |c, s| {
        match c.perturbation {
            Perturbation::NegativeFloor if bounded(c.alpha) => s.canonical_rescans == 1,
            Perturbation::NegativeFloor => s.bracket_decisions == 1,
            _ => true,
        }
    });

const FAR_ONLY_SENDER: Generator =
    Generator::pinned("far_only_sender", 1, &[3.0], far_only_sender, |c, s| {
        c.perturbation != Perturbation::Neutral || s.no_near_winner_fallbacks == 1
    });

const COARSE_KNIFE_EDGE: Generator = Generator::pinned(
    "coarse_knife_edge",
    1,
    &[4.0, 2.5],
    coarse_knife_edge,
    |c, s| {
        (c.alpha, c.perturbation) != (4.0, Perturbation::Neutral)
            || (s.exact_fallbacks() == 1 && s.bracket_straddle_fallbacks == 1)
    },
);

const NEGATIVE_FLOOR_PAIRS: Generator = Generator::pinned(
    "negative_floor_pairs",
    1,
    &ALPHAS,
    negative_floor_pairs,
    |c, s| {
        let ls = s.listeners_resolved();
        match c.perturbation {
            Perturbation::Neutral | Perturbation::Jammed => {
                s.bracket_decisions == ls && s.canonical_rescans == 0
            }
            Perturbation::NegativeFloor if bounded(c.alpha) => {
                s.bracket_decisions == 0 && s.canonical_rescans == ls
            }
            Perturbation::NegativeFloor => {
                s.bracket_decisions == ls / 2 && s.exact_fallbacks() == ls / 2
            }
            Perturbation::NoiseScaled => true,
        }
    },
);

const CLOSE_RIVAL: Generator =
    Generator::pinned("close_rival", 1, &[3.0, 2.5], close_rival, |c, s| {
        c.perturbation != Perturbation::Neutral
            || (s.refined_decisions == 1 && s.exact_fallbacks() == 0)
    });

const CLOSE_TIES: Generator =
    Generator::pinned("close_ties", 2, &[3.0, 2.5], close_ties, |c, s| {
        match c.perturbation {
            Perturbation::NegativeFloor if bounded(c.alpha) => s.canonical_rescans == 1,
            Perturbation::NegativeFloor => s.refined_decisions == 1,
            _ => true,
        }
    });

const CLOSE_KNIFE_EDGE: Generator = Generator::pinned(
    "close_knife_edge",
    2,
    &[3.0, 2.5],
    close_knife_edge,
    |c, s| {
        let rescans = if bounded(c.alpha) { 1 } else { 0 };
        c.perturbation != Perturbation::Neutral
            || (s.bracket_straddle_fallbacks == 1
                && s.exact_fallbacks() == 1
                && s.canonical_rescans == rescans)
    },
);

oracle_tests! {
    round_level_alpha_3: check_round_level(&DRAWN, Some(3.0));
    round_level_alpha_4: check_round_level(&DRAWN, Some(4.0));
    round_level_alpha_6: check_round_level(&DRAWN, Some(6.0));
    round_level_alpha_2_05: check_round_level(&DRAWN, Some(2.05));
    round_level_alpha_2_5: check_round_level(&DRAWN, Some(2.5));
    round_level_alpha_3_7: check_round_level(&DRAWN, Some(3.7));
    round_level_alpha_9_5: check_round_level(&DRAWN, Some(9.5));
    round_level_tile_major_crowded: check_round_level(&[CROWDED], None);
    round_level_batched_fallback: check_round_level(&[BATCHED_FALLBACK], None);
    round_level_knife_edge_block: check_round_level(&[KNIFE_EDGE_BLOCK], None);
    round_level_knife_edge_noise: check_round_level(&[KNIFE_EDGE_NOISE], None);
    round_level_special_bounded_gains: check_round_level(&[SPECIAL_BOUNDED_GAINS], None);
    round_level_exact_ties: check_round_level(&[EXACT_TIES], None);
    round_level_far_only_sender: check_round_level(&[FAR_ONLY_SENDER], None);
    round_level_coarse_knife_edge: check_round_level(&[COARSE_KNIFE_EDGE], None);
    round_level_negative_floor_pairs: check_round_level(&[NEGATIVE_FLOOR_PAIRS], None);
    round_level_close_rival: check_round_level(&[CLOSE_RIVAL], None);
    round_level_close_ties: check_round_level(&[CLOSE_TIES], None);
    round_level_close_knife_edge: check_round_level(&[CLOSE_KNIFE_EDGE], None);
}
