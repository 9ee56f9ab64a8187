//! E9 — §3.3: executions obey the class-bound schedule.

use fading_analysis::{ClassBoundSchedule, LinkClasses, ScheduleParams};
use fading_protocols::ProtocolKind;
use fading_sim::telemetry::replay_active_sets;
use fading_sim::{Simulation, TelemetryDetail};

use super::common::{sinr_for, standard_deployment, ExperimentConfig, TelemetryExport};
use crate::table::fmt_f64;
use crate::Table;

/// E9: does a real FKN execution's link-class size trajectory respect the
/// §3.3 class-bound vectors `q_0, q_1, …`?
///
/// **Claim reproduced (Lemma 10 / Theorem 1):** every execution advances
/// through the bound sequence — each event `r(t)` ("sizes permanently below
/// `q_t`") occurs, monotonically — and the completion round `r(T)` is
/// within a constant factor of the horizon `T = Θ(log n + log R)`
/// (Claim 8), because each step needs only `O(1)` rounds (segments).
///
/// The active-set trajectory is reconstructed from telemetry: the run
/// records id-detail [`RoundEvent`](fading_sim::RoundEvent)s
/// ([`Simulation::run_recorded`]) and [`replay_active_sets`] rebuilds the
/// per-round active sets, replacing the old lock-step observer loop.
#[must_use]
pub fn e09_schedule_adherence(cfg: &ExperimentConfig) -> Table {
    e09_schedule_adherence_with(cfg, None)
}

/// [`e09_schedule_adherence`] with an optional telemetry export directory:
/// when set, every resolved trial's event stream is appended to
/// `<dir>/e9.jsonl` as seed-tagged
/// [`TrialBlock`](fading_sim::telemetry::jsonl::TrialBlock)s, and each
/// such trial's engine-decision counters
/// ([`EngineCounters`](fading_sim::EngineCounters)) go to
/// `<dir>/e9.engine_counters.jsonl`, one line per trial in trial order.
#[must_use]
pub fn e09_schedule_adherence_with(cfg: &ExperimentConfig, telemetry_dir: Option<&str>) -> Table {
    let (table, export) = schedule_adherence(cfg, telemetry_dir.is_some());
    if let Some(dir) = telemetry_dir {
        export.write(dir, "e9");
    }
    table
}

/// The E9 table, plus every resolved trial's telemetry when `export` is
/// set.
fn schedule_adherence(cfg: &ExperimentConfig, export: bool) -> (Table, TelemetryExport) {
    let mut table = Table::new("E9: class-bound schedule adherence (FKN on SINR)");
    table.headers([
        "n",
        "horizon T",
        "coverage",
        "monotone",
        "mean r(T)",
        "mean resolved",
        "rounds/step",
    ]);

    let mut telemetry = TelemetryExport::default();
    let trials = cfg.trials.clamp(2, 20);
    for (block, &n) in cfg.n_sweep().iter().enumerate() {
        let mut coverages = Vec::new();
        let mut completions = Vec::new();
        let mut resolved_rounds = Vec::new();
        let mut horizon = 0u64;
        let mut all_monotone = true;
        for trial in 0..trials as u64 {
            let seed = cfg.seed_block(block as u64) + trial;
            let d = standard_deployment(n, seed);
            let unit = d.min_link();
            let channel = sinr_for(&d).build();
            let pk = ProtocolKind::fkn_default();
            let mut sim = Simulation::new(d.clone(), channel, seed, |id| pk.build(id));
            let initial = sim.active_ids();
            let (result, events) = sim.run_recorded(cfg.max_rounds, TelemetryDetail::ids());
            let Some(resolved) = result.resolved_at() else {
                continue;
            };
            let mut series: Vec<Vec<usize>> = replay_active_sets(&initial, &events)
                .iter()
                .map(|active| LinkClasses::partition(d.points(), active, unit).sizes())
                .collect();
            // Budget parity with the observer formulation: at most one
            // snapshot per budgeted round.
            series.truncate(cfg.max_rounds as usize);
            if export {
                telemetry.push(seed, events, sim.engine_counters());
            }
            let sched = ClassBoundSchedule::new(n, d.num_link_classes(), ScheduleParams::default());
            horizon = sched.horizon();
            let adherence = sched.adherence(&series);
            all_monotone &= adherence.is_monotone();
            coverages.push(adherence.coverage());
            if let Some(c) = adherence.completion_round() {
                completions.push(c as f64);
            }
            resolved_rounds.push(resolved as f64);
        }
        if coverages.is_empty() {
            continue;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let mean_completion = if completions.is_empty() {
            f64::NAN
        } else {
            mean(&completions)
        };
        table.row([
            n.to_string(),
            horizon.to_string(),
            fmt_f64(mean(&coverages)),
            if all_monotone { "yes" } else { "NO" }.to_string(),
            fmt_f64(mean_completion),
            fmt_f64(mean(&resolved_rounds)),
            fmt_f64(mean_completion / horizon as f64),
        ]);
    }
    table.note("schedule params: gamma = 1/2, rho = 1/4 (gamma_slow = 5/6, stagger l = 8)");
    table.note("coverage = fraction of steps t whose event r(t) occurred; rounds/step = r(T)/T");
    table.note("active-set series replayed from telemetry round events (id detail)");
    (table, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adherence_is_complete_and_monotone() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.trials = 3;
        cfg.max_n_pow2 = 8;
        let t = e09_schedule_adherence(&cfg);
        assert!(t.num_rows() >= 3);
        for row in t.rows() {
            let coverage: f64 = row[2].parse().unwrap();
            assert!(coverage > 0.99, "coverage {coverage} in row {row:?}");
            assert_eq!(row[3], "yes");
        }
    }

    #[test]
    fn completion_is_constant_factor_of_horizon() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.trials = 3;
        cfg.max_n_pow2 = 8;
        let t = e09_schedule_adherence(&cfg);
        for row in t.rows() {
            let ratio: f64 = row[6].parse().unwrap();
            assert!(
                ratio < 10.0,
                "rounds/step ratio {ratio} too large ({row:?})"
            );
        }
    }

    #[test]
    fn telemetry_export_matches_plain_run() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.trials = 2;
        cfg.max_n_pow2 = 5;
        let dir = std::env::temp_dir().join(format!("e9-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_str().unwrap().to_string();
        let with = e09_schedule_adherence_with(&cfg, Some(&dir_str));
        let without = e09_schedule_adherence(&cfg);
        assert_eq!(with, without, "export must not change the table");
        let (table, export) = schedule_adherence(&cfg, true);
        assert_eq!(table, without);
        assert!(!export.blocks.is_empty());
        for b in &export.blocks {
            assert!(!b.events.is_empty());
        }
        for (c, b) in export.counters.iter().zip(&export.blocks) {
            assert_eq!(
                c.rounds,
                b.events.len() as u64,
                "counters cover every round"
            );
            assert_eq!(c.routed_rounds(), c.rounds);
        }
        let trials = cfg.trials.clamp(2, 20) as u64;
        let seeds: Vec<u64> = (0..cfg.n_sweep().len() as u64)
            .flat_map(|k| (0..trials).map(move |t| cfg.seed_block(k) + t))
            .collect();
        export.assert_written(&dir, "e9", &seeds);
        std::fs::remove_dir_all(&dir).ok();
    }
}
