//! The differential oracle: every engine tier, thread count, observer and
//! checkpoint/resume path must reproduce the exact, serial, unobserved run.
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
//! | observation     | none, tracer, counts sink, full-SINR sink, closure      |
//! | self-check      | 0 or 2 audited listeners per round                      |
//! | resume          | uninterrupted, or snapshot → bytes → restore half-way   |
//!
//! A cell is dropped when it is the same run as another: a requested tier
//! the case cannot serve builds a lower one, only the tile tree reads the
//! resolve pool, and a one-trial batch has nothing to spread over trial
//! threads. Each family's [`Coverage`] picks which remaining cells it runs.
//!
//! Every cell is held to the case's reference cell (exact, serial,
//! unobserved, uninterrupted):
//!
//! * each trial's full-trace [`RunResult`] is equal;
//! * each trial's final snapshot (every rng lane, the active mask, protocol
//!   states, counters, ladder stats) equals that of the first cell with the
//!   same engine, self-check and instrumentation, and each sink's event
//!   stream equals the first stream of its kind;
//! * route counters partition the rounds, and the tile tree resolves each
//!   listener of each round once and tracks knockouts;
//! * the case is not vacuous: each family states what its tile-tree cells
//!   must reach (parallel chunks, bracket decisions, fallbacks).
//!
//! Failures name the case and the cell. Random fault plan `k` of a channel
//! is regenerated from the vendored proptest's `case_rng(channel, k)`.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use fading::channel::{
    Channel, EngineTier, FarFieldStats, LossySinrChannel, RadioChannel, RayleighSinrChannel,
    ResolveEngine, SinrChannel, SinrParams, HIER_TILE_CHUNK, RAYLEIGH_CACHE_PROFITABLE_NODES,
};
use fading::geom::{generators, Deployment, Point};
use fading::protocols::{ProtocolKind, DEFAULT_BROADCAST_PROBABILITY};
use fading::sim::faults::{ChurnEvent, FaultPlan, GilbertElliott, Jammer, NoiseBurst};
use fading::sim::montecarlo::{run_trials, run_trials_with, TrialRun, TrialRunner};
use fading::sim::recover::{trial_line, TrialManifest};
use fading::sim::{
    EngineCounters, MemoryProgress, MemorySink, ProgressEvent, ResolvePath, RoundEvent, RunOutcome,
    RunResult, SimConfig, SimSnapshot, Simulation, SnapshotError, TelemetryDetail, TraceLevel,
    Tracer,
};
use proptest::prelude::*;

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
    },
};

#[derive(Clone, Copy, Debug, PartialEq)]
enum ChannelName {
    Sinr,
    Lossy,
    Rayleigh,
    Radio,
}

impl ChannelName {
    fn build(self, alpha: f64) -> Box<dyn Channel> {
        let params = SinrParams::builder().alpha(alpha).build().expect("α > 2");
        match self {
            ChannelName::Sinr => Box::new(SinrChannel::new(params)),
            ChannelName::Lossy => Box::new(LossySinrChannel::new(params, 0.2).expect("valid")),
            ChannelName::Rayleigh => Box::new(RayleighSinrChannel::new(params)),
            ChannelName::Radio => Box::new(RadioChannel::new()),
        }
    }

    fn name(self) -> &'static str {
        match self {
            ChannelName::Sinr => "sinr",
            ChannelName::Lossy => "lossy",
            ChannelName::Rayleigh => "rayleigh",
            ChannelName::Radio => "radio",
        }
    }

    /// The radio channel has no path loss, so a second α would rerun the
    /// same case.
    fn alphas(self) -> &'static [f64] {
        match self {
            ChannelName::Radio => &[3.0],
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
            trace_level: TraceLevel::Full,
            self_check: cell.self_check,
            fault_plan: self.fault_plan.clone(),
            ..SimConfig::default()
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
    SinrSink,
    Closure,
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
const OBSERVE: [Observe; 5] = [
    Observe::None,
    Observe::Tracer,
    Observe::CountsSink,
    Observe::SinrSink,
    Observe::Closure,
];
const SELF_CHECK: [usize; 2] = [0, 2];
/// Cells per tier: resolve threads × trial threads × observation ×
/// self-check × resume.
const CELLS_PER_TIER: usize = 3 * 2 * 5 * 2 * 2;

impl Cell {
    /// The `i`-th cell of `tier`'s product, the last axis fastest; 0 is
    /// the reference value of every axis.
    fn nth(tier: EngineTier, i: usize) -> Cell {
        Cell {
            tier,
            resolve_threads: RESOLVE_THREADS[i / 40],
            trial_threads: TRIAL_THREADS[i / 20 % 2],
            observe: OBSERVE[i / 4 % 5],
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

    fn instrumented(&self) -> bool {
        self.observe == Observe::SinrSink
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
    let product: Vec<Cell> = built
        .iter()
        .flat_map(|&tier| (0..CELLS_PER_TIER).map(move |i| Cell::nth(tier, i)))
        .filter(|c| c.tier == EngineTier::Hierarchical || c.resolve_threads == 1)
        .filter(|c| trials > 1 || c.trial_threads == 1)
        .collect();
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
    /// The final snapshot's bytes, taken at resolve threads 1 (which the
    /// snapshot records but which never changes a run).
    state: Vec<u8>,
    /// The sink's events, for sink cells.
    events: Option<Vec<RoundEvent>>,
    counters: EngineCounters,
    /// Fine tiles of the tile tree, for tree cells.
    tiles: Option<usize>,
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
            Observe::SinrSink => Some(TelemetryDetail::full()),
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
        Observe::CountsSink | Observe::SinrSink => {
            let got: Vec<u64> = events.iter().flatten().map(|e| e.round).collect();
            assert_eq!(
                got,
                (1..=rounds).collect::<Vec<_>>(),
                "{ctx}: one event per round"
            );
        }
        Observe::None => {}
    }
    let tiles = match sim.engine() {
        ResolveEngine::Hierarchical(e) => {
            let tiles = e.tree().fine().num_tiles();
            let per_tile: usize = (0..tiles).map(|t| e.active_in_tile(t)).sum();
            assert_eq!(e.num_active(), sim.num_active(), "{ctx}: tree occupancy");
            assert_eq!(per_tile, sim.num_active(), "{ctx}: per-tile occupancy");
            Some(tiles)
        }
        _ => None,
    };
    sim.set_resolve_threads(1);
    Trial {
        result,
        state: sim.snapshot().to_bytes(),
        events,
        counters: sim.engine_counters(),
        tiles,
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
/// listener of each round it serves exactly once.
fn assert_counters_reconcile(ctx: &str, cell: &Cell, trial: &Trial) {
    let c = &trial.counters;
    assert_eq!(c.rounds, trial.result.rounds_executed(), "{ctx}: rounds");
    assert_eq!(
        c.routed_rounds(),
        c.rounds,
        "{ctx}: routes partition rounds"
    );
    let healthy = (c.self_check_violations, c.tier_demotions) == (0, 0);
    assert!(healthy, "{ctx}: the self-check flagged a healthy engine");
    let path = match (cell.instrumented(), cell.tier) {
        (true, _) => ResolvePath::Instrumented,
        (false, EngineTier::Exact) => ResolvePath::Exact,
        (false, EngineTier::GainCache) => ResolvePath::Cached,
        (false, EngineTier::Hierarchical) => ResolvePath::Hierarchical,
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
        let rounds = trial.result.trace().rounds();
        let listeners: usize = rounds
            .iter()
            .map(|r| r.active_before - r.transmitters)
            .sum();
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

/// What a family's tile-tree cells must reach.
#[derive(Clone, Copy, Debug)]
struct Expect {
    /// More than one `HIER_TILE_CHUNK` of fine tiles, run at resolve
    /// threads 2 and 8.
    split_rounds: bool,
    /// Both bracket decisions and exact fallbacks.
    brackets_and_fallbacks: bool,
}

/// What one case's tile-tree cells reached.
#[derive(Debug, Default)]
struct Reach {
    tiles: usize,
    resolve_threads: BTreeSet<usize>,
    bracket_decisions: u64,
    fallbacks: u64,
}

impl Reach {
    fn split_rounds(&self) -> bool {
        self.tiles > HIER_TILE_CHUNK && self.resolve_threads.is_superset(&BTreeSet::from([2, 8]))
    }

    fn brackets_and_fallbacks(&self) -> bool {
        self.bracket_decisions > 0 && self.fallbacks > 0
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
            assert_counters_reconcile(&ctx, cell, t);
            if let Some(tiles) = t.tiles {
                reach.tiles = reach.tiles.max(tiles);
                reach.resolve_threads.insert(cell.resolve_threads);
                reach.bracket_decisions += t.counters.farfield.bracket_decisions;
                reach.fallbacks += t.counters.farfield.exact_fallbacks();
            }
            if let (Some(events), Some(first)) = (&t.events, streams.get(&stream_key)) {
                assert!(*events == first[i], "{ctx}: event stream differs");
            }
        }
        let snapshots: Vec<Vec<u8>> = got.iter().map(|t| t.state.clone()).collect();
        let state_key = (cell.tier, cell.self_check, cell.instrumented());
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
            || (expect.brackets_and_fallbacks && !reach.brackets_and_fallbacks());
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
    let (mut tiles, mut brackets, mut fallbacks) = (0, 0, 0);
    for (case, coverage) in cases {
        let (n, reach) = check_case(case, *coverage);
        pairs += n;
        split += usize::from(reach.split_rounds());
        bracketed += usize::from(reach.brackets_and_fallbacks());
        tree_at_2_5 += usize::from(!reach.resolve_threads.is_empty() && case.alpha == 2.5);
        tiles = tiles.max(reach.tiles);
        brackets += reach.bracket_decisions;
        fallbacks += reach.fallbacks;
    }
    println!(
        "differential {label}: {} cases, {pairs} (case, cell) pairs; tree cases that split \
         rounds: {split}, with brackets and fallbacks: {bracketed}, at α = 2.5: {tree_at_2_5} \
         (≤ {tiles} fine tiles; {brackets} bracket decisions, {fallbacks} fallbacks)",
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
            trace_level: TraceLevel::Full,
            fault_plan,
            ..SimConfig::default()
        };
        fkn_sim((SMALL.deploy)(3), ChannelName::Rayleigh, config).run_until_resolved(20_000)
    };
    assert_eq!(run(None), run(Some(FaultPlan::new())));
}
