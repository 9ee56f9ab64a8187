//! Tier-scaling benches: per-round resolve cost of the exact scan, the
//! gain cache, and the far-field engine as `n` grows into the regime where
//! the quadratic tiers stop being viable.
//!
//! The snapshot numbers recorded in `BENCH_scaling.json` come from the
//! `scaling` binary (which times the same workload without Criterion's
//! sampling overhead at the biggest sizes); this bench is the
//! statistically careful version for regression tracking at the sizes
//! Criterion can afford.

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

fn bench_resolve_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("resolve_scaling");
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    for &n in &[1024usize, 4096, 16384, 65536] {
        // Bigger sizes get a longer budget: a single exact round at
        // n = 16384 is already tens of milliseconds.
        group.measurement_time(Duration::from_secs(if n >= 16384 { 6 } else { 2 }));
        let d = Deployment::uniform_density(n, 0.25, 7);
        let positions = d.points().to_vec();
        let (tx, rx) = split(n);
        let params = SinrParams::default_single_hop().with_power_for(&d);
        let sinr = SinrChannel::new(params);

        // The exact quadratic scan: affordable under Criterion sampling up
        // to n = 16384 (the `scaling` binary covers 65536 with hand-timed
        // iterations).
        if n <= 16384 {
            group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
                let mut rng = SmallRng::seed_from_u64(0);
                b.iter(|| sinr.resolve(&positions, &tx, &rx, &mut rng));
            });
        }

        let round = |engine: &mut ResolveEngine, rng: &mut SmallRng| {
            sinr.resolve_with(
                &positions,
                &tx,
                &rx,
                engine,
                &ChannelPerturbation::neutral(),
                &SerialExecutor,
                rng,
                None,
            )
        };

        // The gain cache refuses deployments above its size guard.
        let mut cache = ResolveEngine::build(&sinr, EngineTier::GainCache, &positions);
        if cache.tier() == EngineTier::GainCache {
            group.bench_with_input(BenchmarkId::new("gain-cache", n), &n, |b, _| {
                let mut rng = SmallRng::seed_from_u64(0);
                b.iter(|| round(&mut cache, &mut rng));
            });
        }
        drop(cache);

        let mut engine = ResolveEngine::build(&sinr, EngineTier::Hierarchical, &positions);
        assert_eq!(
            engine.tier(),
            EngineTier::Hierarchical,
            "the tile tree must build at any n"
        );
        group.bench_with_input(BenchmarkId::new("hierarchical", n), &n, |b, _| {
            let mut rng = SmallRng::seed_from_u64(0);
            b.iter(|| round(&mut engine, &mut rng));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_resolve_scaling
}
criterion_main!(benches);
