//! E1 bench: wall-clock of FKN resolution as n grows (the workload behind
//! the rounds-vs-n table).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use fading_cr::prelude::*;

fn bench_e1(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_rounds_vs_n");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[128usize, 512, 2048] {
        // Gain cache on (the simulator default) vs. forced off — same
        // seeds, bit-identical results, different wall-clock.
        group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let d = Deployment::uniform_density(n, 0.25, seed);
                let params = SinrParams::default_single_hop().with_power_for(&d);
                Simulation::new(d, Box::new(SinrChannel::new(params)), seed, |_| {
                    Box::new(Fkn::new())
                })
                .run_until_resolved(1_000_000)
            });
        });
        group.bench_with_input(BenchmarkId::new("uncached", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let d = Deployment::uniform_density(n, 0.25, seed);
                let params = SinrParams::default_single_hop().with_power_for(&d);
                let config = SimConfig {
                    tier: Some(EngineTier::Exact),
                    ..SimConfig::default()
                };
                Simulation::try_new(d, Box::new(SinrChannel::new(params)), seed, config, |_| {
                    Box::new(Fkn::new())
                })
                .expect("valid configuration")
                .run_until_resolved(1_000_000)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_e1
}
criterion_main!(benches);
