//! The three FKN workloads: Monte-Carlo batches of full protocol trials
//! run in-process through `montecarlo::run_trials_with`.

use std::time::Instant;

use fading_cr::channel::SinrParams;
use fading_cr::jobspec::{ChannelSpec, JobSpec};
use fading_cr::sim::montecarlo::run_trials_with;
use fading_cr::{ChannelKind, Deployment, ProtocolKind, RunResult, Scenario};

use crate::host::Host;
use crate::layers::{self, TrialStats};
use crate::report::{beyond, median, mix, peak_rss_mib, percentile, Digest, Outcome};
use crate::{service, Args, Size};

/// Deployment density of every FKN workload (nodes per unit area).
const DENSITY: f64 = 0.25;
/// Deployment seed: every run uses one fixed deployment (one `Scenario`),
/// so `--seed` varies the trial seeds only.
const DEPLOY_SEED: u64 = 2016;
/// First trial seed of the golden block, whose digest is committed.
const GOLDEN_TRIAL_BASE: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One FKN workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct FknWorkload {
    pub name: &'static str,
    pub n: usize,
    pub alpha: f64,
    /// Threads of `run_trials_with` (trials in parallel).
    pub mc_threads: usize,
    /// `Simulation::set_resolve_threads` (parallel resolve within a round).
    pub resolve_threads: usize,
    /// Trials per `run_trials_with` call.
    pub batch: usize,
}

impl FknWorkload {
    pub fn named(name: &str, size: Size) -> Option<FknWorkload> {
        let full = size == Size::Full;
        let w = match name {
            "fkn-mid" => FknWorkload {
                name: "fkn-mid",
                n: if full { 4096 } else { 512 },
                alpha: 3.0,
                mc_threads: 2,
                resolve_threads: 1,
                batch: 8,
            },
            "fkn-large" => FknWorkload {
                name: "fkn-large",
                n: if full { 1 << 18 } else { 1 << 12 },
                alpha: 3.0,
                mc_threads: 1,
                resolve_threads: 2,
                batch: 1,
            },
            "fkn-alpha" => FknWorkload {
                name: "fkn-alpha",
                // 2^15 rather than 2^16: over a dozen trials per 10 s run,
                // which keeps the batch-latency tail steady across seeds.
                n: if full { 1 << 15 } else { 2048 },
                alpha: 2.5,
                mc_threads: 1,
                resolve_threads: 1,
                batch: 1,
            },
            _ => return None,
        };
        Some(w)
    }
}

/// The SINR channel at exponent `alpha`, power scaled to be single-hop.
pub fn sinr(deployment: &Deployment, alpha: f64) -> ChannelKind {
    let params = SinrParams::builder()
        .alpha(alpha)
        .build()
        .expect("alpha is a valid path-loss exponent");
    ChannelKind::Sinr(params.with_power_for(deployment))
}

fn scenario(deployment: Deployment, alpha: f64) -> Scenario {
    let channel = sinr(&deployment, alpha);
    Scenario::builder()
        .deployment(deployment)
        .channel(channel)
        .protocol(ProtocolKind::fkn_default())
        .build()
        .expect("uniform deployments with scaled power are single-hop")
}

struct Inputs {
    scenario: Scenario,
    /// First trial seed after the golden block, derived from `--seed`.
    seed_base: u64,
}

/// Input generation: the deployment, its scenario and the trial seed
/// list. Returns the inputs and the time spent in
/// `Deployment::uniform_density`.
fn setup(w: &FknWorkload, seed: u64) -> (Inputs, f64) {
    let t = Instant::now();
    let deployment = Deployment::uniform_density(w.n, DENSITY, DEPLOY_SEED);
    let deploy_ms = t.elapsed().as_secs_f64() * 1e3;
    let inputs = Inputs {
        scenario: scenario(deployment, w.alpha),
        seed_base: mix(seed, 2) >> 16,
    };
    (inputs, deploy_ms)
}

pub fn run(w: &FknWorkload, args: &Args, host: &Host, out: &mut Outcome) {
    let mut setup_s = Vec::new();
    let mut deploy_ms = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (i, d) = setup(w, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        deploy_ms.push(d);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));

    let one = |scn: &Scenario, seed: u64| {
        if args.trace {
            layers::traced_trial(scn, seed, w.resolve_threads)
        } else {
            layers::trial(scn, seed, w.resolve_threads)
        }
    };

    // Batch 0 is the golden block; later batches use seed-derived trial seeds.
    let t0 = Instant::now();
    let mut batch_ms = Vec::new();
    let mut trials: Vec<TrialStats> = Vec::new();
    let mut golden: Vec<(RunResult, TrialStats)> = Vec::new();
    while batch_ms.len() < 2 || t0.elapsed().as_secs_f64() < args.seconds {
        let k = batch_ms.len() as u64;
        let base = if k == 0 {
            GOLDEN_TRIAL_BASE
        } else {
            inputs.seed_base + (k - 1) * w.batch as u64
        };
        let tb = Instant::now();
        let results = run_trials_with(w.batch, w.mc_threads, base, |s| one(&inputs.scenario, s));
        batch_ms.push(tb.elapsed().as_secs_f64() * 1e3);
        for (i, (r, s)) in results.into_iter().enumerate() {
            let seed = base + i as u64;
            out.attempted += 1;
            if !layers::check_trial(out, w.name, seed, &r, &s) {
                out.failed += 1;
            }
            if k == 0 {
                golden.push((r, s.clone()));
            }
            trials.push(s);
        }
    }
    let phase_s = t0.elapsed().as_secs_f64();
    let golden_lines = layers::trial_lines(GOLDEN_TRIAL_BASE, golden.iter().map(|(r, _)| r));
    let mut digest = Digest::default();
    digest.update(&golden_lines);
    args.expected.verify(out, w.name, args.size.label(), digest);

    // A job is one trial: what each seed of a Monte-Carlo batch (or of a
    // server job) costs its caller, engine build included.
    let rounds: u64 = trials.iter().map(|t| t.rounds).sum();
    let run_ns: u64 = trials.iter().map(|t| t.run_ns).sum();
    let job_ms: Vec<f64> = trials.iter().map(|t| t.wall_ns() as f64 / 1e6).collect();
    out.set("trials_per_s", trials.len() as f64 / phase_s);
    out.set("round_ms", run_ns as f64 / rounds.max(1) as f64 / 1e6);
    out.set("jobs_per_s", trials.len() as f64 / phase_s);
    out.set("job_p50_ms", median(&job_ms));
    out.set("job_p99_ms", percentile(&job_ms, 0.99));
    out.note(format!(
        "{}: {} trials in {} batches of {} over {phase_s:.2} s, {rounds} rounds; job p99 has {} of {} samples beyond it",
        w.name,
        trials.len(),
        batch_ms.len(),
        w.batch,
        beyond(job_ms.len(), 0.99),
        job_ms.len()
    ));
    if let Some(rss) = peak_rss_mib() {
        out.set("peak_rss_mib", rss);
    }

    if args.trace {
        traced_layers(
            w,
            args,
            host,
            out,
            &inputs,
            &trials,
            &golden,
            &golden_lines,
            &batch_ms,
            median(&deploy_ms),
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_layers(
    w: &FknWorkload,
    args: &Args,
    host: &Host,
    out: &mut Outcome,
    inputs: &Inputs,
    trials: &[TrialStats],
    golden: &[(RunResult, TrialStats)],
    golden_lines: &[u8],
    batch_ms: &[f64],
    deploy_ms: f64,
) {
    out.set("geom.deploy_ms", deploy_ms);
    // Smoke-size trials last about a millisecond, so one preemption can
    // open a gap of several percent: reconcile at the benchmark's size.
    layers::report_layers(out, w.name, trials, args.size == Size::Full);
    let cache_built = trials.iter().any(|t| t.counters.gain_cache_built);
    let live = if cache_built { w.mc_threads } else { 0 };
    out.set("channel.gain_cache_mib", layers::gain_cache_mib(w.n, live));
    out.note(format!(
        "channel.gain_cache_mib is computed as n^2*8 bytes x {live} live caches, not measured"
    ));

    // The first golden trial, replayed untraced at 1 and 2 resolve
    // threads: byte-identical results, and the parallel speed-up.
    let (seed0, (reference, _)) = (GOLDEN_TRIAL_BASE, &golden[0]);
    let legs: Vec<(RunResult, TrialStats)> = (1..=2)
        .map(|t| layers::trial(&inputs.scenario, seed0, t))
        .collect();
    for (t, (r, _)) in legs.iter().enumerate() {
        out.check(r == reference, || {
            format!(
                "{}: seed {seed0} at {} resolve threads differs from the traced run",
                w.name,
                t + 1
            )
        });
    }
    if host.multicore() {
        out.set(
            "pool.speedup",
            legs[0].1.run_ns as f64 / legs[1].1.run_ns.max(1) as f64,
        );
        let busy_ns: u64 = trials.iter().map(TrialStats::wall_ns).sum();
        let fleet_ns = batch_ms.iter().sum::<f64>() * 1e6 * w.mc_threads as f64;
        out.set("mc.busy_frac", busy_ns as f64 / fleet_ns);
    } else {
        out.not_measured("pool.speedup", "not measured (1 core)");
        out.not_measured("mc.busy_frac", "not measured (1 core)");
    }

    // Tracing overhead: the traced golden block against an untraced replay.
    let untraced: Vec<u64> = if w.batch == 1 && w.mc_threads == 1 {
        vec![legs[w.resolve_threads - 1].1.wall_ns()]
    } else {
        run_trials_with(w.batch, w.mc_threads, GOLDEN_TRIAL_BASE, |s| {
            layers::trial(&inputs.scenario, s, w.resolve_threads)
        })
        .iter()
        .map(|(_, s)| s.wall_ns())
        .collect()
    };
    let traced: u64 = golden.iter().map(|(_, s)| s.wall_ns()).sum();
    out.set(
        "trace_overhead",
        traced as f64 / untraced.iter().sum::<u64>().max(1) as f64,
    );

    // The golden batch as a service job: the server layers around the
    // same trials. A job spec carries no path-loss exponent, so the job
    // runs at the service's alpha = 3.
    let spec = JobSpec {
        id: "golden".to_string(),
        n: w.n,
        density: DENSITY,
        deploy_seed: DEPLOY_SEED,
        protocol: ProtocolKind::fkn_default(),
        channel: ChannelSpec::Sinr,
        trials: w.batch,
        seed_base: GOLDEN_TRIAL_BASE,
        max_rounds: layers::MAX_ROUNDS,
        telemetry: false,
    };
    let work = args
        .work_dir
        .join(format!("{}-{}", w.name, std::process::id()));
    match service::job_probe(&work, &spec, out) {
        Ok(bytes) if w.alpha == 3.0 => {
            out.check(bytes == golden_lines, || {
                format!(
                    "{}: the service's trials.jsonl differs from the library's results",
                    w.name
                )
            });
        }
        Ok(_) => out.note(format!(
            "{}: the job probe ran at alpha = 3 (job specs carry no exponent)",
            w.name
        )),
        Err(e) => out.errors.push(e),
    }
    let _ = std::fs::remove_dir(&args.work_dir);

    let scn = &inputs.scenario;
    let probe =
        layers::report_channel_probes(out, scn.deployment(), scn.channel(), w.resolve_threads);
    out.note(probe.gap_note(&layers::RoundCost::of_trials(trials)));
}
