//! E8 — Corollaries 5/7: constant-fraction knockout per round.

use fading_analysis::{separated_subset, GoodNodes, LinkClasses};
use fading_protocols::ProtocolKind;
use fading_sim::{MemorySink, Simulation, TelemetryDetail};

use super::common::{sinr_for, standard_deployment, ExperimentConfig, TelemetryExport};
use crate::table::fmt_f64;
use crate::Table;

/// E8: the fraction of `S_i` (the well-separated good subset of the
/// smallest nonempty class) knocked out by a *single* FKN round, across
/// `n`.
///
/// **Claim reproduced (Corollaries 5 and 7):** with constant probability
/// per member — independently of `n` — a constant fraction of `S_i`
/// receives a message and deactivates each round. The measured fraction
/// should therefore be roughly flat in `n`; its flatness is what turns
/// per-class `log`-many rounds into the global `O(log n + log R)` bound.
///
/// The knockout sets are read from the telemetry layer: each trial attaches
/// a [`MemorySink`] at id detail and counts `knocked_out_ids ∩ S_i` from
/// the round's [`RoundEvent`](fading_sim::RoundEvent) instead of diffing
/// simulator state by hand.
#[must_use]
pub fn e08_knockout_fraction(cfg: &ExperimentConfig) -> Table {
    e08_knockout_fraction_with(cfg, None)
}

/// [`e08_knockout_fraction`] with an optional telemetry export directory:
/// when set, every trial's round-event stream is appended to
/// `<dir>/e8.jsonl` as seed-tagged
/// [`TrialBlock`](fading_sim::telemetry::jsonl::TrialBlock)s, and each
/// trial's engine-decision counters
/// ([`EngineCounters`](fading_sim::EngineCounters): resolve-tier routing
/// plus far-field rung tallies) go to `<dir>/e8.engine_counters.jsonl`, one
/// line per trial in trial order.
#[must_use]
pub fn e08_knockout_fraction_with(cfg: &ExperimentConfig, telemetry_dir: Option<&str>) -> Table {
    let (table, export) = knockout_fraction(cfg, telemetry_dir.is_some());
    if let Some(dir) = telemetry_dir {
        export.write(dir, "e8");
    }
    table
}

/// The E8 table, plus every trial's telemetry when `export` is set.
fn knockout_fraction(cfg: &ExperimentConfig, export: bool) -> (Table, TelemetryExport) {
    let mut table =
        Table::new("E8: one-round knockout fraction in S_i (smallest nonempty class, FKN on SINR)");
    table.headers([
        "n",
        "mean |S_i|",
        "knockout frac (mean)",
        "knockout frac (min)",
        "active knockout frac",
    ]);

    let mut telemetry = TelemetryExport::default();
    for (block, &n) in cfg.n_sweep().iter().enumerate() {
        let mut s_sizes = Vec::new();
        let mut fractions = Vec::new();
        let mut overall = Vec::new();
        for trial in 0..cfg.trials as u64 {
            let seed = cfg.seed_block(block as u64) + trial;
            let d = standard_deployment(n, seed);
            let unit = d.min_link();
            let channel = sinr_for(&d).build();
            let pk = ProtocolKind::fkn_default();
            let mut sim = Simulation::new(d.clone(), channel, seed, |id| pk.build(id));
            sim.set_telemetry_sink(Box::new(MemorySink::new(TelemetryDetail::ids())));

            let before = sim.active_ids();
            let classes = LinkClasses::partition(d.points(), &before, unit);
            let good = GoodNodes::classify(d.points(), &before, &classes, 3.0);
            let Some(i) = classes.smallest_nonempty() else {
                continue;
            };
            let s_i = separated_subset(d.points(), &classes, &good, i, 2.0);
            if s_i.is_empty() {
                continue;
            }
            sim.step();
            let events = MemorySink::recover(sim.take_telemetry_sink().expect("sink attached"))
                .expect("MemorySink recovers as itself")
                .into_events();
            let event = events.last().expect("one step produces one event");
            let knocked = s_i
                .members()
                .iter()
                .filter(|&&u| event.knocked_out_ids.contains(&u))
                .count();
            s_sizes.push(s_i.len() as f64);
            fractions.push(knocked as f64 / s_i.len() as f64);
            overall.push(event.knocked_out as f64 / before.len() as f64);
            if export {
                telemetry.push(seed, events, sim.engine_counters());
            }
        }
        if fractions.is_empty() {
            continue;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let min = fractions.iter().copied().fold(f64::INFINITY, f64::min);
        table.row([
            n.to_string(),
            fmt_f64(mean(&s_sizes)),
            fmt_f64(mean(&fractions)),
            fmt_f64(min),
            fmt_f64(mean(&overall)),
        ]);
    }
    table.note("separation parameter s = 2; one simulated round per trial");
    table.note("flat columns across n confirm the per-round constant-fraction guarantee");
    table.note("knockout sets read from telemetry round events (MemorySink at id detail)");
    (table, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knockout_fraction_is_substantial_and_flat() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.trials = 8;
        cfg.max_n_pow2 = 9;
        let t = e08_knockout_fraction(&cfg);
        assert!(t.num_rows() >= 3);
        let fracs: Vec<f64> = t.rows().iter().map(|r| r[2].parse().unwrap()).collect();
        for (i, f) in fracs.iter().enumerate() {
            assert!(*f > 0.05, "row {i} fraction {f} too small");
        }
        // Flatness: the largest and smallest mean fraction within 5x.
        let max = fracs.iter().copied().fold(0.0f64, f64::max);
        let min = fracs.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min < 5.0, "fractions not flat: {fracs:?}");
    }

    #[test]
    fn telemetry_export_writes_trial_blocks() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.trials = 2;
        cfg.max_n_pow2 = 5;
        let dir = std::env::temp_dir().join(format!("e8-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_str().unwrap().to_string();
        let with = e08_knockout_fraction_with(&cfg, Some(&dir_str));
        let without = e08_knockout_fraction(&cfg);
        assert_eq!(with, without, "export must not change the table");
        let (table, export) = knockout_fraction(&cfg, true);
        assert_eq!(table, without);
        assert!(!export.blocks.is_empty());
        for b in &export.blocks {
            assert_eq!(b.events.len(), 1, "one step per trial");
        }
        for c in &export.counters {
            assert_eq!(c.rounds, 1, "each trial stepped exactly one round");
            assert_eq!(c.routed_rounds(), c.rounds);
        }
        let seeds: Vec<u64> = (0..cfg.n_sweep().len() as u64)
            .flat_map(|k| (0..cfg.trials as u64).map(move |t| cfg.seed_block(k) + t))
            .collect();
        export.assert_written(&dir, "e8", &seeds);
        std::fs::remove_dir_all(&dir).ok();
    }
}
