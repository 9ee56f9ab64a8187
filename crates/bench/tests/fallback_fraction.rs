//! Regression gate on the hierarchical engine's pruning quality: the
//! fraction of listener decisions that give up on the bracket and fall
//! back to the exact scan must stay small at every probed size, or the
//! "hierarchical tier is fast" claim silently erodes into "hierarchical
//! tier is a slow wrapper around the exact scan".
//!
//! Two gates, because the two workloads differ:
//!
//! * **The probe** (a 25%-contention round at fixed sizes). The bound (6%)
//!   sits above the committed snapshot's measured fractions (≤ ~4.5%
//!   across the sweep) with headroom for geometry jitter, and far below
//!   the ~100% a broken bracket would produce.
//! * **Protocol rounds** (whole FKN runs, whose early rounds hold many
//!   more listeners per transmitter than the probe). The bound (9%) sits
//!   above the 5–6% the tile-tree engine measures with its ring-2 near
//!   field, and below the 17–19% it measured with a ring-1 near field.

use fading_bench::probe::run_probe;
use fading_cr::channel::{EngineTier, SinrParams};
use fading_cr::{ChannelKind, Deployment, ProtocolKind, Scenario};

/// The quick-mode sizes (`bench-gate --quick` probes ≤ 4096) plus one
/// mid-size point; kept small enough for a test-suite run.
const SIZES: [usize; 3] = [1024, 4096, 16384];

const MAX_FALLBACK_FRACTION: f64 = 0.06;

#[test]
fn hierarchical_fallback_fraction_stays_low() {
    let samples = run_probe(&SIZES, |_| 5.0, |_| {});
    assert_eq!(samples.len(), SIZES.len());
    for s in &samples {
        assert!(
            s.hierarchical_fallback_fraction <= MAX_FALLBACK_FRACTION,
            "hierarchical fallback fraction {:.4} at n={} exceeds {MAX_FALLBACK_FRACTION}",
            s.hierarchical_fallback_fraction,
            s.n
        );
        // The flat engine is probed at these sizes too and shares the
        // decision ladder; hold it to the same bar so a shared-ladder
        // regression cannot hide in either engine.
        assert!(
            s.farfield_fallback_fraction <= MAX_FALLBACK_FRACTION,
            "flat farfield fallback fraction {:.4} at n={} exceeds {MAX_FALLBACK_FRACTION}",
            s.farfield_fallback_fraction,
            s.n
        );
    }
}

/// Deployment size of the protocol-round gate: large enough for a deep
/// tree and thousands of transmitters in the first rounds, small enough
/// for a test-suite run.
const PROTOCOL_N: usize = 1 << 14;

const MAX_PROTOCOL_FALLBACK_FRACTION: f64 = 0.09;

#[test]
fn hierarchical_fallback_fraction_stays_low_on_protocol_rounds() {
    let deployment = Deployment::uniform_density(PROTOCOL_N, 0.25, 2016);
    for alpha in [2.5, 3.0] {
        let params = SinrParams::builder()
            .alpha(alpha)
            .build()
            .expect("valid path-loss exponent");
        let scenario = Scenario::builder()
            .deployment(deployment.clone())
            .channel(ChannelKind::Sinr(params.with_power_for(&deployment)))
            .protocol(ProtocolKind::fkn_default())
            .build()
            .expect("uniform deployments with scaled power are single-hop");
        for seed in [1, 2] {
            let mut sim = scenario.simulation_with_seed(seed);
            sim.set_tier(EngineTier::Hierarchical);
            assert_eq!(sim.tier(), EngineTier::Hierarchical);
            let result = sim.run_until_resolved(100_000);
            assert!(
                result.resolved(),
                "alpha={alpha} seed={seed} did not resolve"
            );
            let stats = sim.engine().stats();
            assert!(stats.listeners_resolved() > 0);
            let fraction = stats.exact_fallbacks() as f64 / stats.listeners_resolved() as f64;
            assert!(
                fraction <= MAX_PROTOCOL_FALLBACK_FRACTION,
                "protocol-round fallback fraction {fraction:.4} at alpha={alpha} seed={seed} \
                 exceeds {MAX_PROTOCOL_FALLBACK_FRACTION}: {stats:?}"
            );
        }
    }
}
