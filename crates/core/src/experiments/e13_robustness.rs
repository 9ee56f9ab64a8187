//! E13 — robustness degradation under adversarial fault injection.

use fading_channel::SinrParams;
use fading_geom::{Deployment, Point};
use fading_protocols::ProtocolKind;
use fading_sim::faults::{ChurnEvent, FaultPlan, GilbertElliott, Jammer, NoiseBurst};

use super::common::{measure_with_faults, sinr_for, standard_deployment, ExperimentConfig};
use crate::table::fmt_f64;
use crate::Table;

/// A protocol family: display name plus a per-`n` kind constructor.
type ProtocolFamily = (&'static str, Box<dyn Fn(usize) -> ProtocolKind + Sync>);

/// Fault intensity levels swept by E13, in degradation order.
const INTENSITIES: [&str; 4] = ["none", "light", "moderate", "heavy"];

/// The geometric center of a deployment's bounding box (where a jammer
/// hurts the most listeners).
fn center_of(d: &Deployment) -> Point {
    let pts = d.points();
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in pts {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    Point::new((min_x + max_x) / 2.0, (min_y + max_y) / 2.0)
}

/// Builds the fault plan for one intensity level against one deployment.
/// Level 0 is the **empty** plan — byte-identical to no fault injection at
/// all, so the "none" column doubles as the E1/E3 baseline.
fn plan_for(level: usize, d: &Deployment) -> FaultPlan {
    if level == 0 {
        return FaultPlan::new();
    }
    let n = d.len();
    let node_power = SinrParams::default_single_hop().with_power_for(d).power();
    let center = center_of(d);
    let expect = "E13 fault parameters are statically valid";

    // Everything scales with the level: jammer strength and duty, noise
    // burst magnitude, churn fraction, and burst-loss severity.
    let jam_power = node_power * (4u32.pow(level as u32) as f64);
    let burst_len = level as u64; // of a 4-round cycle: 25% / 50% / 75% duty
    let mut plan = FaultPlan::new().with_jammer(
        Jammer::new(center, jam_power, 1, 4, burst_len, Some(60 * level as u64)).expect(expect),
    );

    if level >= 2 {
        plan = plan.with_noise_burst(
            NoiseBurst::new(2, 20 * level as u64, 2.0 * level as f64).expect(expect),
        );
    }

    // Crash a level-dependent fraction of the nodes early; revive half of
    // the crashed at round 40. Strides keep the victims spread out.
    let crashed = n * level / 8;
    for k in 0..crashed {
        let node = (k * n) / crashed.max(1) % n;
        plan = plan.with_churn(ChurnEvent::crash(3 + (k as u64 % 5), node).expect(expect));
        if k % 2 == 0 {
            plan = plan.with_churn(ChurnEvent::revive(40, node).expect(expect));
        }
    }
    // A level-dependent fraction wakes late.
    let sleepers = n * level / 16;
    for k in 0..sleepers {
        let node = (k * n) / sleepers.max(1).wrapping_mul(2) % n + n / 2;
        plan = plan.with_churn(ChurnEvent::late_wake(10 + level as u64, node % n).expect(expect));
    }

    plan.with_loss(
        GilbertElliott::new(0.05 * level as f64, 0.3, 0.0, 0.3 * level as f64).expect(expect),
    )
}

/// E13: resolution rounds and success rate for each protocol as fault
/// intensity rises from nothing to heavy combined jamming + churn + noise +
/// burst loss, at fixed `n`.
///
/// **Claims probed:** the paper's algorithm needs no coordination and uses
/// receptions only as knockout signals, so bounded adversarial interference
/// should *degrade* it (slower knockouts → more rounds) but not *break* it
/// — resolution still occurs once the jamming budget is spent and crashed
/// nodes leave at most a smaller contention population. The zero-fault row
/// is byte-identical to an unfaulted run (the empty-plan contract) and so
/// matches the E1/E3 baselines at the same `n` and seeds.
#[must_use]
pub fn e13_robustness(cfg: &ExperimentConfig) -> Table {
    let n = 1usize << cfg.max_n_pow2.min(8);
    let mut table = Table::new("E13: mean rounds by fault intensity (fixed n)");
    table.headers(["intensity", "fkn", "aloha(n)", "fkn+js15"]);

    let protocols: Vec<ProtocolFamily> = vec![
        ("fkn", Box::new(|_n| ProtocolKind::fkn_default())),
        ("aloha", Box::new(|n| ProtocolKind::Aloha { n })),
        (
            "fkn+js15",
            Box::new(|n| ProtocolKind::FknInterleavedJs {
                p: 0.05,
                n_bound: 2 * n,
            }),
        ),
    ];

    for (li, &label) in INTENSITIES.iter().enumerate() {
        let mut cells = vec![label.to_string()];
        for (pi, (_, proto)) in protocols.iter().enumerate() {
            // Same seed block for every intensity of a protocol: the sweep
            // isolates the fault plan as the only changing variable.
            let block = pi as u64;
            let s = measure_with_faults(
                cfg,
                cfg.seed_block(block),
                move |seed| standard_deployment(n, seed),
                sinr_for,
                |d| proto(d.len()),
                |d| plan_for(li, d),
            );
            let cell = if s.success_rate < 1.0 {
                format!(
                    "{} ({}%)",
                    fmt_f64(s.mean_rounds),
                    fmt_f64(100.0 * s.success_rate)
                )
            } else {
                fmt_f64(s.mean_rounds)
            };
            cells.push(cell);
        }
        table.row(cells);
    }
    table.note(format!(
        "n = {n}; cells: mean rounds (success % appended when < 100)"
    ));
    table.note(
        "intensity scales jammer power/duty/budget, noise bursts, churn fraction, burst loss",
    );
    table.note("row `none` attaches an empty fault plan: byte-identical to the unfaulted baseline");
    table
}

#[cfg(test)]
mod tests {
    use super::super::common::measure;
    use super::*;

    #[test]
    fn one_row_per_intensity_with_all_protocols() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.max_n_pow2 = 6;
        cfg.trials = 4;
        let t = e13_robustness(&cfg);
        assert_eq!(t.num_rows(), INTENSITIES.len());
        assert_eq!(t.rows()[0].len(), 4);
        assert_eq!(t.rows()[0][0], "none");
        assert_eq!(t.rows()[3][0], "heavy");
    }

    #[test]
    fn zero_fault_row_matches_the_unfaulted_baseline() {
        // The "none" row must reproduce plain `measure` exactly — same
        // seeds, same deployments, empty plan — which is the same pipeline
        // E1/E3 use for their baselines.
        let mut cfg = ExperimentConfig::smoke();
        cfg.max_n_pow2 = 6;
        cfg.trials = 4;
        let n = 1usize << cfg.max_n_pow2.min(8);
        let faulted = measure_with_faults(
            &cfg,
            cfg.seed_block(0),
            |seed| standard_deployment(n, seed),
            sinr_for,
            |_| ProtocolKind::fkn_default(),
            |d| plan_for(0, d),
        );
        let baseline = measure(
            &cfg,
            cfg.seed_block(0),
            |seed| standard_deployment(n, seed),
            sinr_for,
            |_| ProtocolKind::fkn_default(),
        );
        assert_eq!(faulted, baseline);

        let t = e13_robustness(&cfg);
        assert_eq!(t.rows()[0][1], crate::table::fmt_f64(baseline.mean_rounds));
    }

    #[test]
    fn degradation_is_monotone_from_none_to_heavy_for_fkn() {
        // More faults can only slow fkn down (same seeds, harsher plan) —
        // check the endpoints, which are far enough apart to be stable at
        // smoke scale.
        let mut cfg = ExperimentConfig::smoke();
        cfg.max_n_pow2 = 6;
        cfg.trials = 5;
        let n = 1usize << cfg.max_n_pow2.min(8);
        let run = |level: usize| {
            measure_with_faults(
                &cfg,
                cfg.seed_block(0),
                |seed| standard_deployment(n, seed),
                sinr_for,
                |_| ProtocolKind::fkn_default(),
                |d| plan_for(level, d),
            )
        };
        let none = run(0);
        let heavy = run(3);
        assert!(
            heavy.mean_rounds >= none.mean_rounds,
            "heavy faults should not speed up resolution: {} < {}",
            heavy.mean_rounds,
            none.mean_rounds
        );
    }

    #[test]
    fn plans_scale_with_intensity() {
        let d = standard_deployment(64, 1);
        assert!(plan_for(0, &d).is_empty());
        let light = plan_for(1, &d);
        let heavy = plan_for(3, &d);
        assert!(!light.is_empty());
        assert!(light.validate_for(64).is_ok());
        assert!(heavy.validate_for(64).is_ok());
        assert!(heavy.churn().len() > light.churn().len());
    }
}
