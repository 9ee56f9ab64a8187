//! Kernel benches: per-round channel resolution cost across models and
//! sizes — the inner loop of every experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

use fading_cr::channel::ChannelPerturbation;
use fading_cr::prelude::*;

fn split(n: usize) -> (Vec<usize>, Vec<usize>) {
    // 25% transmitters, the FKN default.
    let transmitters: Vec<usize> = (0..n).step_by(4).collect();
    let listeners: Vec<usize> = (0..n).filter(|i| i % 4 != 0).collect();
    (transmitters, listeners)
}

/// One round on `ch` through `engine` (serial executor, no breakdowns).
fn resolve_on(
    ch: &dyn Channel,
    positions: &[Point],
    (tx, rx): (&[usize], &[usize]),
    engine: &mut ResolveEngine,
    perturbation: &ChannelPerturbation<'_>,
    rng: &mut SmallRng,
) -> Vec<Reception> {
    ch.resolve_with(
        positions,
        tx,
        rx,
        engine,
        perturbation,
        &SerialExecutor,
        rng,
        None,
    )
}

fn bench_channels(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_resolve");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);
    for &n in &[256usize, 1024, 4096] {
        let d = Deployment::uniform_density(n, 0.25, 7);
        let positions = d.points().to_vec();
        let (tx, rx) = split(n);
        let params = SinrParams::default_single_hop().with_power_for(&d);

        let sinr = SinrChannel::new(params);
        group.bench_with_input(BenchmarkId::new("sinr", n), &n, |b, _| {
            let mut rng = SmallRng::seed_from_u64(0);
            b.iter(|| sinr.resolve(&positions, &tx, &rx, &mut rng));
        });

        let neutral = ChannelPerturbation::neutral();
        let mut cache = ResolveEngine::build(&sinr, EngineTier::GainCache, &positions);
        assert_eq!(
            cache.tier(),
            EngineTier::GainCache,
            "bench sizes are within the cache guard"
        );
        group.bench_with_input(BenchmarkId::new("sinr-cached", n), &n, |b, _| {
            let mut rng = SmallRng::seed_from_u64(0);
            b.iter(|| {
                resolve_on(
                    &sinr,
                    &positions,
                    (&tx, &rx),
                    &mut cache,
                    &neutral,
                    &mut rng,
                )
            });
        });

        let rayleigh = RayleighSinrChannel::new(params);
        group.bench_with_input(BenchmarkId::new("rayleigh", n), &n, |b, _| {
            let mut rng = SmallRng::seed_from_u64(0);
            b.iter(|| rayleigh.resolve(&positions, &tx, &rx, &mut rng));
        });

        group.bench_with_input(BenchmarkId::new("rayleigh-cached", n), &n, |b, _| {
            let mut rng = SmallRng::seed_from_u64(0);
            b.iter(|| {
                resolve_on(
                    &rayleigh,
                    &positions,
                    (&tx, &rx),
                    &mut cache,
                    &neutral,
                    &mut rng,
                )
            });
        });

        let radio = RadioChannel::new();
        group.bench_with_input(BenchmarkId::new("radio", n), &n, |b, _| {
            let mut rng = SmallRng::seed_from_u64(0);
            b.iter(|| radio.resolve(&positions, &tx, &rx, &mut rng));
        });
    }
    group.finish();
}

/// The acceptance workload for the gain cache: n = 2048 with *half* the
/// nodes transmitting (maximal per-listener interference work). The cached
/// path must come in at least 2× faster than the uncached one.
fn bench_cached_vs_uncached(c: &mut Criterion) {
    let mut group = c.benchmark_group("cached_vs_uncached_n2048_half_tx");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let n = 2048usize;
    let d = Deployment::uniform_density(n, 0.25, 7);
    let positions = d.points().to_vec();
    let tx: Vec<usize> = (0..n).step_by(2).collect();
    let rx: Vec<usize> = (1..n).step_by(2).collect();
    let params = SinrParams::default_single_hop().with_power_for(&d);
    let sinr = SinrChannel::new(params);
    let mut cache = ResolveEngine::build(&sinr, EngineTier::GainCache, &positions);
    assert_eq!(
        cache.tier(),
        EngineTier::GainCache,
        "n = 2048 is within the cache guard"
    );
    let neutral = ChannelPerturbation::neutral();

    group.bench_function("uncached", |b| {
        let mut rng = SmallRng::seed_from_u64(0);
        b.iter(|| sinr.resolve(&positions, &tx, &rx, &mut rng));
    });
    group.bench_function("cached", |b| {
        let mut rng = SmallRng::seed_from_u64(0);
        b.iter(|| {
            resolve_on(
                &sinr,
                &positions,
                (&tx, &rx),
                &mut cache,
                &neutral,
                &mut rng,
            )
        });
    });
    group.finish();
}

/// The fault-injection overhead check at n = 2048: a simulation round with
/// an **empty** fault plan must track the plain resolve within a few
/// percent (the acceptance target is < 10%), and the perturbed path with an
/// active jammer shows the true cost of fault evaluation.
fn bench_faulted_vs_unfaulted(c: &mut Criterion) {
    use fading_cr::sim::faults::{FaultPlan, Jammer};

    let mut group = c.benchmark_group("faulted_vs_unfaulted_n2048");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let n = 2048usize;
    let d = Deployment::uniform_density(n, 0.25, 7);
    let positions = d.points().to_vec();
    let (tx, rx) = split(n);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    let sinr = SinrChannel::new(params);
    let mut cache = ResolveEngine::build(&sinr, EngineTier::GainCache, &positions);
    assert_eq!(
        cache.tier(),
        EngineTier::GainCache,
        "n = 2048 is within the cache guard"
    );

    // Channel layer: the neutral perturbation must cost nothing beyond a
    // branch; a jamming perturbation adds one add per listener.
    group.bench_function("resolve-perturbed-neutral", |b| {
        let mut rng = SmallRng::seed_from_u64(0);
        let neutral = ChannelPerturbation::neutral();
        b.iter(|| {
            resolve_on(
                &sinr,
                &positions,
                (&tx, &rx),
                &mut cache,
                &neutral,
                &mut rng,
            )
        });
    });
    let jam: Vec<f64> = positions
        .iter()
        .map(|&p| sinr.interferer_gain(Point::new(0.0, 0.0), p, params.power() * 16.0))
        .collect();
    group.bench_function("resolve-perturbed-jammed", |b| {
        let mut rng = SmallRng::seed_from_u64(0);
        let perturbation = ChannelPerturbation::new(2.0, &jam);
        b.iter(|| {
            resolve_on(
                &sinr,
                &positions,
                (&tx, &rx),
                &mut cache,
                &perturbation,
                &mut rng,
            )
        });
    });

    // Simulation layer: a full round with no plan vs. an empty plan vs. an
    // active jammer — the empty-plan delta is the acceptance number. The
    // no-knockout protocol keeps all n nodes contending forever, so every
    // measured step does full-contention work (FKN would resolve within a
    // few rounds and leave the iteration loop timing near-empty steps).
    let make_sim = |plan: Option<FaultPlan>| {
        let d = Deployment::uniform_density(n, 0.25, 7);
        let params = SinrParams::default_single_hop().with_power_for(&d);
        let mut sim = Simulation::new(d, Box::new(SinrChannel::new(params)), 1, |id| {
            fading_cr::protocols::ProtocolKind::FixedProbability { p: 0.25 }.build(id)
        });
        if let Some(p) = plan {
            sim.set_fault_plan(p).expect("plan fits");
        }
        sim
    };
    group.bench_function("sim-step-no-plan", |b| {
        let mut sim = make_sim(None);
        b.iter(|| sim.step());
    });
    group.bench_function("sim-step-empty-plan", |b| {
        let mut sim = make_sim(Some(FaultPlan::new()));
        b.iter(|| sim.step());
    });
    group.bench_function("sim-step-jammed", |b| {
        let power = SinrParams::default_single_hop().power() * 1e6;
        let plan = FaultPlan::new()
            .with_jammer(Jammer::continuous(Point::new(45.0, 45.0), power, 1).expect("valid"));
        let mut sim = make_sim(Some(plan));
        b.iter(|| sim.step());
    });
    group.finish();
}

fn bench_pow_alpha(c: &mut Criterion) {
    let mut group = c.benchmark_group("pow_alpha");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(2));
    let d_sq: Vec<f64> = (1..1000).map(|i| f64::from(i) * 0.37).collect();
    for &alpha in &[2.5f64, 3.0, 4.0] {
        group.bench_with_input(BenchmarkId::from_parameter(alpha), &alpha, |b, &alpha| {
            b.iter(|| {
                d_sq.iter()
                    .map(|&x| fading_cr::channel::pow_alpha(x, alpha))
                    .sum::<f64>()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_channels, bench_cached_vs_uncached, bench_faulted_vs_unfaulted,
        bench_pow_alpha
}
criterion_main!(benches);
