//! Trial execution with and without tracing, and the per-layer figures
//! derived from it. Every layer is measured from outside: by timing calls
//! into public functions, from the spans the simulator records into an
//! attached `Tracer`, and from a counts-level `TelemetrySink`.

use std::any::Any;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fading_cr::channel::kernels::gain_batch;
use fading_cr::sim::recover::trial_line;
use fading_cr::sim::{EngineCounters, RoundEvent, SpanRecord, TelemetrySink, Tracer};
use fading_cr::{ChannelKind, Deployment, ProtocolKind, RunResult, Scenario, Simulation};

use crate::report::{median, Outcome};

/// Round budget of every trial; FKN resolves far below it.
pub const MAX_ROUNDS: u64 = 100_000;

/// Spans must cover at least this share of each traced trial's wall time.
pub const MIN_SPAN_COVERAGE: f64 = 0.95;

/// One trial's measurements.
#[derive(Debug, Clone, Default)]
pub struct TrialStats {
    /// Engine build: `simulation_with_seed` plus resolve-pool set-up.
    pub new_ns: u64,
    /// Time inside `run_until_resolved*`.
    pub run_ns: u64,
    pub rounds: u64,
    pub counters: EngineCounters,
    /// Present for traced trials only.
    pub spans: Option<SpanStats>,
}

impl TrialStats {
    pub fn wall_ns(&self) -> u64 {
        self.new_ns + self.run_ns
    }
}

/// Span and telemetry totals of one traced trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub trial_ns: u64,
    pub new_ns: u64,
    pub step_ns: u64,
    pub act_ns: u64,
    pub resolve_ns: u64,
    pub feedback_ns: u64,
    pub tx: u64,
    pub listeners: u64,
    /// Rounds seen by the `observe` hook (called before each round and
    /// once after the last).
    pub observed_rounds: u64,
}

impl SpanStats {
    /// Share of the trial's wall time covered by the engine-build span and
    /// the simulator's per-round `step` spans.
    pub fn coverage(&self) -> f64 {
        (self.new_ns + self.step_ns) as f64 / self.trial_ns.max(1) as f64
    }
}

/// Counts-level telemetry: transmitters and listeners per round.
#[derive(Debug, Default)]
struct CountsSink {
    tx: u64,
    listeners: u64,
}

impl TelemetrySink for CountsSink {
    fn on_round(&mut self, event: &RoundEvent) {
        self.tx += event.transmitters as u64;
        self.listeners += event.listeners as u64;
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn build(scenario: &Scenario, seed: u64, resolve_threads: usize) -> Simulation {
    let mut sim = scenario.simulation_with_seed(seed);
    sim.set_resolve_threads(resolve_threads);
    sim
}

/// Runs one trial as a user would: engine build, then rounds to resolution.
pub fn trial(scenario: &Scenario, seed: u64, resolve_threads: usize) -> (RunResult, TrialStats) {
    let t0 = Instant::now();
    let mut sim = build(scenario, seed, resolve_threads);
    let t1 = Instant::now();
    let result = sim.run_until_resolved(MAX_ROUNDS);
    let run_ns = nanos(t1.elapsed());
    let stats = TrialStats {
        new_ns: nanos(t1 - t0),
        run_ns,
        rounds: result.rounds_executed(),
        counters: sim.engine_counters(),
        spans: None,
    };
    (result, stats)
}

/// [`trial`] with a fresh `Tracer` and a counts-level telemetry sink
/// attached. The benchmark opens `bench.trial` and `sim.new`; the
/// simulator's own `step`/`act`/`resolve`/`feedback` spans nest below.
pub fn traced_trial(
    scenario: &Scenario,
    seed: u64,
    resolve_threads: usize,
) -> (RunResult, TrialStats) {
    let tracer = Tracer::new();
    let trial_span = tracer.span("bench.trial");
    let t0 = Instant::now();
    let new_span = tracer.span("sim.new");
    let mut sim = build(scenario, seed, resolve_threads);
    drop(new_span);
    sim.set_tracer(Arc::clone(&tracer));
    sim.set_telemetry_sink(Box::new(CountsSink::default()));
    let t1 = Instant::now();
    let mut observed = 0u64;
    let result = sim.run_until_resolved_with(MAX_ROUNDS, |_| observed += 1);
    let run_ns = nanos(t1.elapsed());
    drop(trial_span);

    let counts = sim
        .take_telemetry_sink()
        .and_then(|s| s.into_any().downcast::<CountsSink>().ok())
        .expect("the counts sink attached above");
    let spans = span_totals(
        &tracer.finished_spans(),
        &counts,
        observed.saturating_sub(1),
    );
    let stats = TrialStats {
        new_ns: nanos(t1 - t0),
        run_ns,
        rounds: result.rounds_executed(),
        counters: sim.engine_counters(),
        spans: Some(spans),
    };
    (result, stats)
}

fn span_totals(spans: &[SpanRecord], counts: &CountsSink, observed_rounds: u64) -> SpanStats {
    let mut s = SpanStats {
        tx: counts.tx,
        listeners: counts.listeners,
        observed_rounds,
        ..SpanStats::default()
    };
    for span in spans {
        let d = span.duration_ns();
        match &*span.name {
            "bench.trial" => s.trial_ns += d,
            "sim.new" => s.new_ns += d,
            "step" => s.step_ns += d,
            "act" => s.act_ns += d,
            "resolve" => s.resolve_ns += d,
            "feedback" => s.feedback_ns += d,
            _ => {}
        }
    }
    s
}

/// Results of consecutive seeds from `base`, in the line format the job
/// server writes to `trials.jsonl` (seed, rounds, winner, transmissions).
pub fn trial_lines<'a>(base: u64, results: impl Iterator<Item = &'a RunResult>) -> Vec<u8> {
    let mut lines = Vec::new();
    for (i, r) in results.enumerate() {
        lines.extend(trial_line(base + i as u64, r).into_bytes());
        lines.push(b'\n');
    }
    lines
}

/// Correctness of one trial: resolved, a winner, and every round routed
/// to exactly one resolve tier.
pub fn check_trial(
    out: &mut Outcome,
    label: &str,
    seed: u64,
    r: &RunResult,
    s: &TrialStats,
) -> bool {
    let ok = r.resolved() && r.winner().is_some();
    out.check(ok, || format!("{label}: trial seed {seed} did not resolve"));
    let c = &s.counters;
    out.check(
        c.routed_rounds() == c.rounds && c.rounds == s.rounds,
        || {
            format!(
                "{label}: seed {seed} routed {} of {} rounds (result says {})",
                c.routed_rounds(),
                c.rounds,
                s.rounds
            )
        },
    );
    if let Some(sp) = &s.spans {
        out.check(sp.observed_rounds == s.rounds, || {
            format!(
                "{label}: observe hook saw {} rounds, result has {}",
                sp.observed_rounds, s.rounds
            )
        });
    }
    ok
}

/// Per-layer figures from traced trials. With `reconcile`, a trial whose
/// spans cover less than [`MIN_SPAN_COVERAGE`] of its wall time fails the
/// run.
pub fn report_layers(out: &mut Outcome, label: &str, trials: &[TrialStats], reconcile: bool) {
    let traced: Vec<&SpanStats> = trials.iter().filter_map(|t| t.spans.as_ref()).collect();
    let rounds: u64 = trials.iter().map(|t| t.rounds).sum::<u64>().max(1);
    let sum = |f: fn(&SpanStats) -> u64| traced.iter().map(|s| f(s)).sum::<u64>();
    let per_round_ms = |ns: u64| ns as f64 / rounds as f64 / 1e6;

    let new_ms: Vec<f64> = trials.iter().map(|t| t.new_ns as f64 / 1e6).collect();
    out.set("sim.new_ms", median(&new_ms));
    out.set("sim.act_ms", per_round_ms(sum(|s| s.act_ns)));
    out.set("sim.resolve_ms", per_round_ms(sum(|s| s.resolve_ns)));
    out.set("sim.feedback_ms", per_round_ms(sum(|s| s.feedback_ns)));
    let covered = sum(|s| s.new_ns + s.step_ns) as f64;
    let wall = sum(|s| s.trial_ns).max(1) as f64;
    out.set("sim.unattributed_frac", (1.0 - covered / wall).max(0.0));

    let worst = traced
        .iter()
        .map(|s| s.coverage())
        .fold(f64::INFINITY, f64::min);
    if reconcile && worst < MIN_SPAN_COVERAGE {
        eprintln!(
            "RECONCILIATION FAILED: {label}: spans cover only {:.1}% of a trial's wall time (need {:.0}%)",
            worst * 100.0,
            MIN_SPAN_COVERAGE * 100.0
        );
        out.errors.push(format!(
            "{label}: span coverage {worst:.3} below {MIN_SPAN_COVERAGE}"
        ));
    }
    out.note(format!(
        "reconciliation {label}: {} traced trials, worst span coverage {:.2}%",
        traced.len(),
        worst * 100.0
    ));

    let mut c = EngineCounters::default();
    for t in trials {
        c.merge(&t.counters);
    }
    out.set("channel.rounds.exact", c.exact_rounds as f64);
    out.set("channel.rounds.gain_cache", c.gain_cache_rounds as f64);
    out.set("channel.rounds.farfield", c.farfield_rounds as f64);
    out.set("channel.rounds.hierarchical", c.hierarchical_rounds as f64);
    out.set("channel.fallback_frac", c.farfield.fallback_fraction());

    let per_round = RoundCost::of_trials(trials);
    out.set("channel.tx_per_round", per_round.tx);
    out.set("channel.listeners_per_round", per_round.listeners);
    out.set(
        "channel.resolve_ns_per_listener",
        per_round.ns_per_listener(),
    );
}

/// `gain_batch` throughput on the workload's own deployment: ms per
/// million (listener, node) gains, median of five timed samples.
pub fn kernel_ms_per_mpoint(deployment: &Deployment, alpha: f64) -> f64 {
    let xs: Vec<f64> = deployment.points().iter().map(|p| p.x).collect();
    let ys: Vec<f64> = deployment.points().iter().map(|p| p.y).collect();
    let mut out = vec![0.0; xs.len()];
    let listeners = xs.len().min(16);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut points = 0usize;
            while t.elapsed() < Duration::from_millis(20) {
                for v in 0..listeners {
                    gain_batch(
                        1.0,
                        alpha,
                        black_box(&xs),
                        black_box(&ys),
                        xs[v],
                        ys[v],
                        &mut out,
                    );
                    black_box(&out);
                    points += xs.len();
                }
            }
            t.elapsed().as_secs_f64() * 1e3 / (points as f64 / 1e6)
        })
        .collect();
    median(&samples)
}

/// Average cost and size of one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundCost {
    pub round_ms: f64,
    pub resolve_ms: f64,
    pub tx: f64,
    pub listeners: f64,
}

impl RoundCost {
    /// Per-round averages over traced trials.
    pub fn of_trials(trials: &[TrialStats]) -> RoundCost {
        let rounds = trials.iter().map(|t| t.rounds).sum::<u64>().max(1) as f64;
        let mut total = SpanStats::default();
        for s in trials.iter().filter_map(|t| t.spans.as_ref()) {
            total.step_ns += s.step_ns;
            total.resolve_ns += s.resolve_ns;
            total.tx += s.tx;
            total.listeners += s.listeners;
        }
        RoundCost {
            round_ms: total.step_ns as f64 / rounds / 1e6,
            resolve_ms: total.resolve_ns as f64 / rounds / 1e6,
            tx: total.tx as f64 / rounds,
            listeners: total.listeners as f64 / rounds,
        }
    }

    pub fn ns_per_listener(&self) -> f64 {
        self.resolve_ms * 1e6 / self.listeners.max(1.0)
    }

    /// Explains in numbers why `self` costs more per round than `other`:
    /// resolve time is listeners times the cost of one listener, and a
    /// listener's cost grows with the transmitters it must weigh.
    pub fn gap_note(&self, other: &RoundCost) -> String {
        format!(
            "probe gap: 25%-contention probe round {:.3} ms vs protocol round {:.3} ms ({:.2}x); \
             resolve {:.3} vs {:.3} ms per round ({:.2}x) = listeners {:.0} vs {:.0} ({:.2}x) \
             x {:.0} vs {:.0} ns per listener ({:.2}x), with transmitters {:.0} vs {:.1} ({:.1}x)",
            self.round_ms,
            other.round_ms,
            self.round_ms / other.round_ms,
            self.resolve_ms,
            other.resolve_ms,
            self.resolve_ms / other.resolve_ms,
            self.listeners,
            other.listeners,
            self.listeners / other.listeners,
            self.ns_per_listener(),
            other.ns_per_listener(),
            self.ns_per_listener() / other.ns_per_listener(),
            self.tx,
            other.tx,
            self.tx / other.tx,
        )
    }
}

/// One round at 25% contention (every node transmits with probability
/// 1/4) on the same deployment and channel: the resolve-scaling probe's
/// setting.
pub fn probe_round(
    deployment: &Deployment,
    channel: ChannelKind,
    resolve_threads: usize,
) -> RoundCost {
    let scenario = Scenario::builder()
        .deployment(deployment.clone())
        .channel(channel)
        .protocol(ProtocolKind::FixedProbability { p: 0.25 })
        .build()
        .expect("the workload's own deployment and channel validate");
    let mut sim = build(&scenario, 1, resolve_threads);
    let tracer = Tracer::new();
    sim.set_tracer(Arc::clone(&tracer));
    sim.set_telemetry_sink(Box::new(CountsSink::default()));
    sim.step();
    let counts = sim
        .take_telemetry_sink()
        .and_then(|s| s.into_any().downcast::<CountsSink>().ok())
        .expect("the counts sink attached above");
    let spans = span_totals(&tracer.finished_spans(), &counts, 1);
    RoundCost {
        round_ms: spans.step_ns as f64 / 1e6,
        resolve_ms: spans.resolve_ns as f64 / 1e6,
        tx: counts.tx as f64,
        listeners: counts.listeners as f64,
    }
}

/// Sets the kernel and probe layers for a deployment and channel.
pub fn report_channel_probes(
    out: &mut Outcome,
    deployment: &Deployment,
    channel: ChannelKind,
    resolve_threads: usize,
) -> RoundCost {
    out.set(
        "kernels.alpha3_ms_per_mpoint",
        kernel_ms_per_mpoint(deployment, 3.0),
    );
    out.set(
        "kernels.generic_ms_per_mpoint",
        kernel_ms_per_mpoint(deployment, 2.5),
    );
    let probe = probe_round(deployment, channel, resolve_threads);
    out.set("probe.round_ms", probe.round_ms);
    out.set("probe.resolve_ns_per_listener", probe.ns_per_listener());
    probe
}

/// `n² · 8` bytes per live gain cache, in MiB (computed, not measured).
pub fn gain_cache_mib(n: usize, live: usize) -> f64 {
    (n * n * 8 * live) as f64 / (1024.0 * 1024.0)
}
