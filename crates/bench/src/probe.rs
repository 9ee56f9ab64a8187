//! The resolve-tier scaling probe shared by the `scaling` snapshot binary
//! and the `bench-gate` regression gate: hand-timed per-round resolve cost
//! of the exact scan, the gain cache, the flat far-field engine, and the
//! hierarchical (tile-tree) engine over a size sweep, rendered as the
//! `BENCH_scaling.json` schema.
//!
//! Timing is deliberately simple (adaptive iteration counts against a
//! wall-clock budget) so the probe stays runnable at `n = 1048576`, where
//! only the hierarchical tier is tractable — the quadratic tiers are
//! capped ([`EXACT_TIER_CEILING`], [`FARFIELD_TIER_CEILING`]) and skipped
//! above their ceilings; the Criterion bench `resolve_scaling` tracks the
//! same workload with proper sampling.

use std::fmt::Write as _;
use std::time::Instant;

use fading_cr::channel::ChannelPerturbation;
use fading_cr::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Deployment density (nodes per unit²) of the standard experiment sweep.
pub const DENSITY: f64 = 0.25;
/// Deployment seed: fixed so snapshots are comparable across runs.
pub const SEED: u64 = 7;
/// The size sweep of the committed snapshot.
pub const DEFAULT_SIZES: [usize; 6] = [1024, 4096, 16384, 65536, 262_144, 1_048_576];
/// Largest size at which the probe times the exact scan — one exact round
/// above this costs the better part of a minute.
pub const EXACT_TIER_CEILING: usize = 65_536;
/// Largest size at which the probe times the flat far-field engine: its
/// tile grid is capped at `MAX_TILES_PER_SIDE`, so occupancy — and with it
/// the near-ring scan — grows linearly in `n` past the cap. One size above
/// [`EXACT_TIER_CEILING`] is kept so the hierarchical tier is cross-checked
/// against an independent engine there.
pub const FARFIELD_TIER_CEILING: usize = 262_144;
/// Worker threads for the hierarchical tier's [`StealPool`] — the
/// committed snapshot's parallel configuration.
pub const HIER_PROBE_THREADS: usize = 8;
/// Points per `gain_batch` call in the kernel micro-probe: big enough to
/// amortize dispatch, small enough to stay L2-resident so the probe
/// measures arithmetic, not memory bandwidth.
pub const KERNEL_PROBE_POINTS: usize = 1 << 16;
/// One representative exponent per kernel class, in class order
/// (`alpha2`, `alpha3`, `alpha4`, `alpha6`, `generic`).
pub const KERNEL_PROBE_ALPHAS: [f64; 5] = [2.0, 3.0, 4.0, 6.0, 2.5];

/// Times `f` with one warm-up call plus enough iterations to roughly fill
/// `budget_ms` (clamped to [3, 200]); returns `(iters, ms_per_call)`.
pub fn time_ms(mut f: impl FnMut(), budget_ms: f64) -> (u32, f64) {
    let start = Instant::now();
    f();
    let estimate = start.elapsed().as_secs_f64() * 1e3;
    let iters = ((budget_ms / estimate.max(1e-4)) as u32).clamp(3, 200);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (
        iters,
        start.elapsed().as_secs_f64() * 1e3 / f64::from(iters),
    )
}

/// One timed resolve tier at one deployment size.
#[derive(Clone, Debug)]
pub struct TierSample {
    /// Tier name: `"exact"`, `"gain-cache"`, `"farfield"`, or
    /// `"hierarchical"`.
    pub tier: &'static str,
    /// Iterations the adaptive loop settled on.
    pub iters: u32,
    /// Measured mean wall time per resolve round, in milliseconds.
    pub ms_per_round: f64,
}

/// All tier samples at one deployment size.
#[derive(Clone, Debug)]
pub struct SizeSample {
    /// Number of deployed nodes.
    pub n: usize,
    /// Per-tier timings in ladder order (tiers above their ceiling are
    /// absent).
    pub tiers: Vec<TierSample>,
    /// `exact ms / farfield ms`; 0 when either tier was not probed.
    pub speedup_farfield_vs_exact: f64,
    /// `exact ms / hierarchical ms`; 0 when the exact tier was not probed.
    pub speedup_hierarchical_vs_exact: f64,
    /// Fraction of flat far-field listener decisions that fell back to the
    /// exact scan during the probe (0 when the tier was not probed).
    pub farfield_fallback_fraction: f64,
    /// Fraction of hierarchical listener decisions that fell back to the
    /// exact scan during the probe.
    pub hierarchical_fallback_fraction: f64,
}

impl SizeSample {
    /// The measured ms/round of one tier, when it was probed.
    #[must_use]
    pub fn tier_ms(&self, tier: &str) -> Option<f64> {
        self.tiers
            .iter()
            .find(|t| t.tier == tier)
            .map(|t| t.ms_per_round)
    }
}

/// One timed kernel class from the per-α micro-probe.
#[derive(Clone, Debug)]
pub struct KernelSample {
    /// Stable class label (`AlphaClass::label`): `"alpha2"`, `"alpha3"`,
    /// `"alpha4"`, `"alpha6"`, or `"generic"`.
    pub class: &'static str,
    /// The representative exponent probed for this class.
    pub alpha: f64,
    /// Measured milliseconds per million fused `gain_batch` points.
    pub ms_per_mpoint: f64,
}

/// Times the fused [`gain_batch`](fading_cr::channel::kernels::gain_batch)
/// kernel per exponent class over an L2-resident SoA buffer
/// ([`KERNEL_PROBE_POINTS`] points), reporting ms per million points. This
/// is the per-kernel cell of `BENCH_scaling.json` ("kernels"), diffed by
/// `bench-gate` alongside the tier cells.
#[must_use]
pub fn run_kernel_probe(budget_ms: f64) -> Vec<KernelSample> {
    use fading_cr::channel::kernels::{gain_batch, AlphaClass};
    use fading_cr::geom::PointsSoA;

    let n = KERNEL_PROBE_POINTS;
    let d = Deployment::uniform_density(n, DENSITY, SEED);
    let soa = PointsSoA::from_points(d.points());
    let v = d.points()[0];
    let mut gains = vec![0.0f64; n];
    let mut out = Vec::with_capacity(KERNEL_PROBE_ALPHAS.len());
    for &alpha in &KERNEL_PROBE_ALPHAS {
        let (_, ms_per_call) = time_ms(
            || {
                gain_batch(1e9, alpha, soa.xs(), soa.ys(), v.x, v.y, &mut gains);
                // The fold is part of every consumer's hot path; include
                // it so the cell reflects what the engines actually pay.
                std::hint::black_box(fading_cr::channel::kernels::fold_scan(&gains));
            },
            budget_ms,
        );
        out.push(KernelSample {
            class: AlphaClass::of(alpha).label(),
            alpha,
            ms_per_mpoint: ms_per_call * 1e6 / n as f64,
        });
    }
    out
}

/// Runs the scaling probe over `sizes`, timing each tier against
/// `budget_ms_for(n)` milliseconds, asserting cross-tier exactness at
/// every size (each probed tier's receptions must be byte-identical to
/// the cheapest independent reference: the exact scan up to
/// [`EXACT_TIER_CEILING`], the flat far-field engine above it). `report`
/// sees each completed [`SizeSample`] as it lands (the binaries print
/// progressively; pass `|_| {}` for silence).
///
/// The probe polls [`crate::interrupt::interrupted`] between sizes: on
/// SIGINT/SIGTERM it stops early and returns the sizes completed so far,
/// letting the binaries flush a partial snapshot instead of losing
/// everything.
pub fn run_probe(
    sizes: &[usize],
    budget_ms_for: impl Fn(usize) -> f64,
    mut report: impl FnMut(&SizeSample),
) -> Vec<SizeSample> {
    let pool = StealPool::new(HIER_PROBE_THREADS);
    let mut out = Vec::with_capacity(sizes.len());
    for &n in sizes {
        if crate::interrupt::interrupted() {
            break;
        }
        let d = Deployment::uniform_density(n, DENSITY, SEED);
        let positions = d.points().to_vec();
        let tx: Vec<usize> = (0..n).step_by(4).collect();
        let rx: Vec<usize> = (0..n).filter(|i| i % 4 != 0).collect();
        let params = SinrParams::default_single_hop().with_power_for(&d);
        let sinr = SinrChannel::new(params);
        let budget_ms = budget_ms_for(n);

        let mut tiers = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0);

        let exact_rx = (n <= EXACT_TIER_CEILING).then(|| {
            let receptions = sinr.resolve(&positions, &tx, &rx, &mut rng);
            let (iters, ms) = time_ms(
                || {
                    sinr.resolve(&positions, &tx, &rx, &mut rng);
                },
                budget_ms,
            );
            tiers.push(TierSample {
                tier: "exact",
                iters,
                ms_per_round: ms,
            });
            receptions
        });

        // One round of the probe through `engine`, on the probe's pool.
        let round = |engine: &mut ResolveEngine, rng: &mut SmallRng| {
            sinr.resolve_with(
                &positions,
                &tx,
                &rx,
                engine,
                &ChannelPerturbation::neutral(),
                &pool,
                rng,
                None,
            )
        };

        let mut cache = ResolveEngine::build(&sinr, EngineTier::GainCache, &positions);
        if cache.tier() == EngineTier::GainCache {
            let cached_rx = round(&mut cache, &mut rng);
            let reference = exact_rx
                .as_ref()
                .expect("the cache size guard is far below the exact-tier ceiling");
            assert_eq!(reference, &cached_rx, "gain cache broke exactness at n={n}");
            let (iters, ms) = time_ms(
                || {
                    round(&mut cache, &mut rng);
                },
                budget_ms,
            );
            tiers.push(TierSample {
                tier: "gain-cache",
                iters,
                ms_per_round: ms,
            });
        }
        drop(cache);

        let mut farfield_fallback_fraction = 0.0;
        let far_rx = (n <= FARFIELD_TIER_CEILING).then(|| {
            let mut engine = ResolveEngine::build(&sinr, EngineTier::FarField, &positions);
            let receptions = round(&mut engine, &mut rng);
            if let Some(reference) = &exact_rx {
                assert_eq!(reference, &receptions, "farfield broke exactness at n={n}");
            }
            let (iters, ms) = time_ms(
                || {
                    round(&mut engine, &mut rng);
                },
                budget_ms,
            );
            tiers.push(TierSample {
                tier: "farfield",
                iters,
                ms_per_round: ms,
            });
            farfield_fallback_fraction = engine.stats().fallback_fraction();
            receptions
        });

        let mut hier_engine = ResolveEngine::build(&sinr, EngineTier::Hierarchical, &positions);
        let hier_rx = round(&mut hier_engine, &mut rng);
        // Cross-check against the cheapest independently computed tier.
        if let Some(reference) = exact_rx.as_ref().or(far_rx.as_ref()) {
            assert_eq!(reference, &hier_rx, "hierarchical broke exactness at n={n}");
        }
        let (iters, ms) = time_ms(
            || {
                round(&mut hier_engine, &mut rng);
            },
            budget_ms,
        );
        tiers.push(TierSample {
            tier: "hierarchical",
            iters,
            ms_per_round: ms,
        });
        let hierarchical_fallback_fraction = hier_engine.stats().fallback_fraction();

        let exact_ms = tiers
            .iter()
            .find(|t| t.tier == "exact")
            .map(|t| t.ms_per_round);
        let far_ms = tiers
            .iter()
            .find(|t| t.tier == "farfield")
            .map(|t| t.ms_per_round);
        let hier_ms = tiers
            .last()
            .expect("hierarchical sample always present")
            .ms_per_round;
        let sample = SizeSample {
            n,
            tiers,
            speedup_farfield_vs_exact: match (exact_ms, far_ms) {
                (Some(e), Some(f)) => e / f,
                _ => 0.0,
            },
            speedup_hierarchical_vs_exact: exact_ms.map_or(0.0, |e| e / hier_ms),
            farfield_fallback_fraction,
            hierarchical_fallback_fraction,
        };
        report(&sample);
        out.push(sample);
    }
    out
}

/// The committed snapshot's per-size wall budget: the big sizes get more
/// room on purpose — the adaptive clamp still gives ≥ 3 honest iterations
/// and one exact round at `n = 65536` already costs seconds.
#[must_use]
pub fn default_budget_ms(n: usize) -> f64 {
    if n >= 16384 {
        3000.0
    } else {
        1000.0
    }
}

/// Renders probe output in the `BENCH_scaling.json` schema. `kernels` is
/// the per-α micro-probe ([`run_kernel_probe`]); pass `&[]` to omit the
/// section (older snapshots without it still parse).
#[must_use]
pub fn render_snapshot_json(samples: &[SizeSample], kernels: &[KernelSample]) -> String {
    let mut kernels_json = String::new();
    for (i, k) in kernels.iter().enumerate() {
        if i > 0 {
            kernels_json.push_str(", ");
        }
        write!(
            kernels_json,
            "{{\"class\": \"{}\", \"alpha\": {}, \"ms_per_mpoint\": {:.6}}}",
            k.class, k.alpha, k.ms_per_mpoint
        )
        .expect("write to String cannot fail");
    }
    let mut size_blocks = Vec::with_capacity(samples.len());
    for s in samples {
        let mut tiers_json = String::new();
        for (i, t) in s.tiers.iter().enumerate() {
            if i > 0 {
                tiers_json.push_str(", ");
            }
            write!(
                tiers_json,
                "{{\"tier\": \"{}\", \"iters\": {}, \"ms_per_round\": {:.6}}}",
                t.tier, t.iters, t.ms_per_round
            )
            .expect("write to String cannot fail");
        }
        size_blocks.push(format!(
            "    {{\n      \"n\": {},\n      \"tiers\": [{tiers_json}],\n      \
             \"speedup_farfield_vs_exact\": {:.2},\n      \
             \"speedup_hierarchical_vs_exact\": {:.2},\n      \
             \"farfield_fallback_fraction\": {:.6},\n      \
             \"hierarchical_fallback_fraction\": {:.6}\n    }}",
            s.n,
            s.speedup_farfield_vs_exact,
            s.speedup_hierarchical_vs_exact,
            s.farfield_fallback_fraction,
            s.hierarchical_fallback_fraction
        ));
    }
    let kernels_section = if kernels.is_empty() {
        String::new()
    } else {
        format!("  \"kernels\": [{kernels_json}],\n")
    };
    format!(
        "{{\n  \"bench\": \"resolve_scaling\",\n  \"workload\": {{\n    \
         \"tx_fraction\": 0.25,\n    \"density\": {DENSITY},\n    \"seed\": {SEED},\n    \
         \"channel\": \"sinr-single-hop\",\n    \"hierarchical_threads\": {HIER_PROBE_THREADS}\n  \
         }},\n{kernels_section}  \"sizes\": [\n{}\n  ]\n}}\n",
        size_blocks.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_runs_and_renders_at_a_tiny_size() {
        let samples = run_probe(&[256], |_| 5.0, |_| {});
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].n, 256);
        assert_eq!(samples[0].tiers.first().map(|t| t.tier), Some("exact"));
        assert_eq!(
            samples[0].tiers.last().map(|t| t.tier),
            Some("hierarchical")
        );
        assert!(samples[0].tier_ms("farfield").is_some());
        assert!(samples[0].speedup_hierarchical_vs_exact > 0.0);
        let json = render_snapshot_json(&samples, &[]);
        assert!(json.contains("\"bench\": \"resolve_scaling\""));
        assert!(json.contains("\"n\": 256"));
        assert!(json.contains("\"tier\": \"hierarchical\""));
        assert!(json.contains("\"hierarchical_fallback_fraction\""));
        assert!(
            !json.contains("\"kernels\""),
            "empty kernel probe must omit the section"
        );
    }

    #[test]
    fn kernel_probe_covers_every_class_and_renders() {
        let kernels = run_kernel_probe(2.0);
        let labels: Vec<&str> = kernels.iter().map(|k| k.class).collect();
        assert_eq!(
            labels,
            vec!["alpha2", "alpha3", "alpha4", "alpha6", "generic"]
        );
        assert!(kernels.iter().all(|k| k.ms_per_mpoint > 0.0));
        let json = render_snapshot_json(&[], &kernels);
        assert!(json.contains("\"kernels\""));
        assert!(json.contains("\"class\": \"alpha2\""));
        assert!(json.contains("\"ms_per_mpoint\""));
    }

    #[test]
    fn default_budget_grows_with_n() {
        assert_eq!(default_budget_ms(1024), 1000.0);
        assert_eq!(default_budget_ms(16384), 3000.0);
        assert_eq!(default_budget_ms(65536), 3000.0);
    }

    #[test]
    fn tier_ceilings_cover_the_default_sweep() {
        // The two largest default sizes must exercise the ceilings: one
        // size runs hierarchical + farfield only, the top size runs
        // hierarchical alone.
        assert!(DEFAULT_SIZES.contains(&FARFIELD_TIER_CEILING));
        assert!(DEFAULT_SIZES.iter().any(|&n| n > FARFIELD_TIER_CEILING));
        const { assert!(EXACT_TIER_CEILING < FARFIELD_TIER_CEILING) };
    }
}
