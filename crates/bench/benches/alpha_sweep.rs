//! E6 bench: run-to-resolution wall-clock across path-loss exponents
//! (non-integer alphas also exercise the slow `powf` path of the SINR
//! kernel), plus the kernel-level batched-vs-scalar sweep: the fused
//! `gain_batch` SoA kernel against the equivalent scalar `pow_alpha`
//! loop over `Point`s, per exponent class.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use fading_cr::channel::kernels::gain_batch;
use fading_cr::channel::pow_alpha;
use fading_cr::geom::PointsSoA;
use fading_cr::prelude::*;

fn bench_e6(c: &mut Criterion) {
    let n = 512;
    let mut group = c.benchmark_group("e6_alpha_sweep");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &alpha in &[2.1f64, 3.0, 4.0, 6.0] {
        group.bench_with_input(BenchmarkId::from_parameter(alpha), &alpha, |b, &alpha| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let d = Deployment::uniform_density(n, 0.25, seed);
                let params = SinrParams::builder()
                    .alpha(alpha)
                    .build()
                    .expect("valid alpha")
                    .with_power_for(&d);
                Simulation::new(d, Box::new(SinrChannel::new(params)), seed, |_| {
                    Box::new(Fkn::new())
                })
                .run_until_resolved(2_000_000)
            });
        });
    }
    group.finish();
}

/// Batched vs scalar gain computation over one listener's scan of a
/// 65536-point deployment, per exponent class (α = 2 is kernel-only: the
/// channel itself requires α > 2, but the class exists for raw consumers).
fn bench_kernels(c: &mut Criterion) {
    let n = 1 << 16;
    let d = Deployment::uniform_density(n, 0.25, 7);
    let positions = d.points().to_vec();
    let soa = PointsSoA::from_points(&positions);
    let v = positions[0];
    let mut gains = vec![0.0f64; n];
    let mut group = c.benchmark_group("kernel_alpha_sweep");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &alpha in &[2.0f64, 2.5, 3.0, 4.0, 6.0] {
        group.bench_with_input(BenchmarkId::new("batched", alpha), &alpha, |b, &alpha| {
            b.iter(|| {
                gain_batch(1e9, alpha, soa.xs(), soa.ys(), v.x, v.y, &mut gains);
                std::hint::black_box(gains.last().copied())
            });
        });
        group.bench_with_input(BenchmarkId::new("scalar", alpha), &alpha, |b, &alpha| {
            b.iter(|| {
                for (g, p) in gains.iter_mut().zip(&positions) {
                    *g = 1e9 / pow_alpha(p.distance_sq(v), alpha);
                }
                std::hint::black_box(gains.last().copied())
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_e6, bench_kernels
}
criterion_main!(benches);
