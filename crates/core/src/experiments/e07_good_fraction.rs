//! E7 — Lemma 6: dominant link classes are mostly good.

use fading_analysis::{GoodNodes, LinkClasses};
use fading_channel::{ChannelPerturbation, ResolveEngine, SerialExecutor, SinrBreakdown};
use fading_geom::{Deployment, Point};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::common::{sinr_for, ExperimentConfig};
use crate::table::fmt_f64;
use crate::Table;

/// Builds the adversarial Lemma 6 stress deployment: `dom_pairs` pairs at
/// separation 20 (link class 4) on a sparse super-grid, with the first
/// `loaded` anchors each crowded by an 11×11 unit-spaced cluster (121
/// class-0 nodes) placed squarely inside the anchor's `t = 0` annulus
/// `(16, 32]`.
fn lemma6_deployment(dom_pairs: usize, loaded: usize) -> Deployment {
    let spacing = 512.0;
    let side = (dom_pairs as f64).sqrt().ceil() as usize;
    let mut points = Vec::new();
    for k in 0..dom_pairs {
        let x = (k % side) as f64 * spacing;
        let y = (k / side) as f64 * spacing;
        points.push(Point::new(x, y));
        points.push(Point::new(x + 20.0, y));
        if k < loaded {
            // 11×11 cluster centered 24 above the anchor: distances from the
            // anchor lie in [16.2, 31.8] ⊂ (16, 32].
            for r in 0..11 {
                for c in 0..11 {
                    points.push(Point::new(
                        x + f64::from(c) - 5.0,
                        y + 24.0 + f64::from(r) - 5.0,
                    ));
                }
            }
        }
    }
    Deployment::from_points(points).expect("construction avoids coincidences")
}

/// Measures the dominant pairs' decode success from channel telemetry:
/// every node except the pair partners transmits at once (anchors plus all
/// loaded-cluster nodes — the worst case the deployment supports), the
/// partners listen, and [`Channel::resolve_with`] reports one
/// [`SinrBreakdown`] per partner. Returns the fraction of partners whose
/// Equation 1 test passed.
///
/// [`Channel::resolve_with`]: fading_channel::Channel::resolve_with
fn dominant_pair_decode_fraction(
    d: &Deployment,
    dom_pairs: usize,
    loaded: usize,
    seed: u64,
) -> f64 {
    let channel = sinr_for(d).build();
    // Mirror the construction order of `lemma6_deployment`: anchor, partner,
    // then (for the first `loaded` anchors) 121 cluster points.
    let mut listeners = Vec::with_capacity(dom_pairs);
    let mut idx = 0;
    for k in 0..dom_pairs {
        listeners.push(idx + 1);
        idx += 2;
        if k < loaded {
            idx += 121;
        }
    }
    debug_assert_eq!(idx, d.len());
    let transmitters: Vec<usize> = (0..d.len()).filter(|i| !listeners.contains(i)).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut breakdown: Vec<SinrBreakdown> = Vec::new();
    let _ = channel.resolve_with(
        d.points(),
        &transmitters,
        &listeners,
        &mut ResolveEngine::Exact,
        &ChannelPerturbation::neutral(),
        &SerialExecutor,
        &mut rng,
        Some(&mut breakdown),
    );
    debug_assert_eq!(breakdown.len(), listeners.len());
    breakdown.iter().filter(|b| b.decoded).count() as f64 / breakdown.len() as f64
}

/// E7: the good-node fraction of a dominant link class as smaller-class
/// mass crowds its annuli.
///
/// **Claim reproduced (Lemma 6):** if `n_{<i} ≤ δ·n_i` then at least half
/// of `V_i` is good. The deployment is adversarial — every smaller-class
/// node is placed inside some dominant node's first annulus — yet the good
/// fraction stays above ½ until the smaller-class mass exceeds the
/// dominant class many times over: the lemma's constant `δ` is very
/// conservative, and the implication itself never fails.
///
/// The last column is telemetry-derived: the fraction of dominant pairs
/// that still decode under worst-case concurrent transmission, read from
/// the channel layer's [`SinrBreakdown`] instrumentation. It degrades as
/// clusters load the annuli — the physical mechanism behind the
/// combinatorial good-fraction decline in column five.
#[must_use]
pub fn e07_good_fraction(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new("E7: good-node fraction of the dominant class (Lemma 6)");
    table.headers([
        "loaded anchors",
        "n_i (class 4)",
        "n_<i",
        "ratio n_<i/n_i",
        "good fraction",
        ">= 1/2",
        "pair decode frac (SINR)",
    ]);

    let dom_pairs = 16.min(1 << (cfg.max_n_pow2 / 2)).max(4);
    let loads = [0usize, 1, 2, 4, 8, 12, 16];
    for &loaded in loads.iter().filter(|&&l| l <= dom_pairs) {
        let d = lemma6_deployment(dom_pairs, loaded);
        let active: Vec<usize> = (0..d.len()).collect();
        let classes = LinkClasses::partition(d.points(), &active, 1.0);
        let good = GoodNodes::classify(d.points(), &active, &classes, 3.0);
        let n_i = classes.count(4);
        let n_below = classes.count_below(4);
        let frac = good.good_fraction(4);
        let decode = dominant_pair_decode_fraction(&d, dom_pairs, loaded, cfg.seed);
        table.row([
            loaded.to_string(),
            n_i.to_string(),
            n_below.to_string(),
            fmt_f64(n_below as f64 / n_i.max(1) as f64),
            fmt_f64(frac),
            if frac >= 0.5 { "yes" } else { "NO" }.to_string(),
            fmt_f64(decode),
        ]);
    }
    table.note(format!(
        "{dom_pairs} class-4 pairs; each loaded anchor gains 121 class-0 nodes inside its t=0 annulus"
    ));
    table.note("Lemma 6 requires >= 1/2 good whenever n_<i <= delta*n_i; the table locates the empirical breaking ratio");
    table.note("pair decode frac: SinrBreakdown-decoded fraction of pair receivers with all other nodes transmitting (telemetry)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_class_is_fully_good() {
        let cfg = ExperimentConfig::smoke();
        let t = e07_good_fraction(&cfg);
        let first = &t.rows()[0];
        assert_eq!(first[0], "0");
        assert_eq!(first[4], "1.00");
        assert_eq!(first[5], "yes");
    }

    #[test]
    fn loading_reduces_good_fraction_monotonically() {
        let cfg = ExperimentConfig::smoke();
        let t = e07_good_fraction(&cfg);
        let fracs: Vec<f64> = t.rows().iter().map(|r| r[4].parse().unwrap()).collect();
        for w in fracs.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "good fraction increased: {fracs:?}");
        }
        assert!(*fracs.last().unwrap() < 1.0, "max load had no effect");
    }

    #[test]
    fn pair_decode_column_is_a_fraction_and_degrades_under_load() {
        let cfg = ExperimentConfig::smoke();
        let t = e07_good_fraction(&cfg);
        let decodes: Vec<f64> = t.rows().iter().map(|r| r[6].parse().unwrap()).collect();
        assert!(decodes.iter().all(|f| (0.0..=1.0).contains(f)));
        assert!(
            decodes.last().unwrap() < decodes.first().unwrap(),
            "cluster interference must erode the pair decode fraction: {decodes:?}"
        );
    }

    #[test]
    fn deployment_geometry_is_as_designed() {
        let d = lemma6_deployment(4, 2);
        assert_eq!(d.len(), 4 * 2 + 2 * 121);
        let active: Vec<usize> = (0..d.len()).collect();
        let classes = LinkClasses::partition(d.points(), &active, 1.0);
        assert_eq!(classes.count(4), 8);
        assert_eq!(classes.count(0), 242);
    }
}
