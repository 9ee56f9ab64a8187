//! E16 — the fault-tolerant execution layer, exercised end to end.
//!
//! Three stages, one row each:
//!
//! 1. **supervised fleet** — a Monte-Carlo batch with one deliberately
//!    panicking trial, run through the supervisor: the panic is caught and
//!    retried (same seed, fresh state), the fleet completes, and the
//!    summary accounts for every trial.
//! 2. **manifest resume** — the same batch run half-way against an
//!    on-disk [`TrialManifest`], then "resumed": the second pass skips
//!    every completed trial and the combined results are byte-identical
//!    to an uninterrupted batch.
//! 3. **self-check demotion** — a run with an injected self-check
//!    violation: the serving tier is demoted mid-run (visible in the
//!    engine counters) and the run still finishes with the exact result.
//!
//! [`TrialManifest`]: fading_sim::recover::TrialManifest

use std::sync::atomic::{AtomicBool, Ordering};

use fading_sim::montecarlo::{run_trials, TrialRunner};
use fading_sim::recover::TrialManifest;
use fading_sim::{SimConfig, Simulation};

use super::common::{sinr_for, standard_deployment, ExperimentConfig};
use crate::table::fmt_f64;
use crate::Table;
use fading_protocols::ProtocolKind;

/// The seed offset (within the batch) of the deliberately panicking trial.
const PANIC_OFFSET: u64 = 2;

fn trial(cfg: &ExperimentConfig, n: usize, seed: u64) -> fading_sim::RunResult {
    let d = standard_deployment(n, seed);
    let ch = sinr_for(&d).build();
    let pk = ProtocolKind::fkn_default();
    let mut sim = Simulation::new(d, ch, seed, |id| pk.build(id));
    sim.run_until_resolved(cfg.max_rounds)
}

/// Runs the experiment: one table over the three robustness stages.
#[must_use]
pub fn e16_recovery(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E16: fault-tolerant execution — supervised fleets, manifest resume, self-check demotion",
    );
    table.headers(["stage", "n", "trials", "fleet / detail", "exact?"]);

    let n = 1usize << cfg.max_n_pow2.min(7);
    let trials = cfg.trials.max(4);
    let seed_base = cfg.seed_block(0);

    // Reference: the same batch with no supervision and no failures.
    let cfg_owned = *cfg;
    let reference = run_trials(trials, cfg.threads, seed_base, |seed| {
        trial(&cfg_owned, n, seed)
    });

    // Stage 1: supervised fleet with one injected panic (first attempt of
    // the seed at PANIC_OFFSET; the same-seed retry then runs clean, so
    // the fleet result is byte-identical to the reference).
    let tripped = AtomicBool::new(false);
    let cfg_owned = *cfg;
    let sup = TrialRunner::new(trials, cfg.threads, seed_base)
        .run(move |seed| {
            if seed == seed_base + PANIC_OFFSET && !tripped.swap(true, Ordering::SeqCst) {
                panic!("e16 injected panic (caught by the supervisor)");
            }
            trial(&cfg_owned, n, seed)
        })
        .expect("no manifest, so no manifest I/O");
    let supervised_exact = sup.results() == reference.iter().collect::<Vec<_>>();
    table.row([
        "supervised".to_string(),
        n.to_string(),
        trials.to_string(),
        format!(
            "ok={} retried={} timed_out={} poisoned={}",
            sup.summary.succeeded, sup.summary.retried, sup.summary.timed_out, sup.summary.poisoned
        ),
        yes_no(supervised_exact && sup.summary.poisoned == 0),
    ]);

    // Stage 2: manifest resume. First pass completes half the batch, the
    // resumed pass skips exactly those trials and finishes the rest.
    let manifest_path = std::env::temp_dir().join(format!(
        "fading-e16-manifest-{}-{seed_base}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&manifest_path).ok();
    let expect = "e16 manifest I/O on a scratch file";
    let first = trials / 2;
    let mut manifest = TrialManifest::open(&manifest_path).expect(expect);
    let cfg_owned = *cfg;
    TrialRunner::new(first, cfg.threads, seed_base)
        .manifest(&mut manifest)
        .run(move |seed| trial(&cfg_owned, n, seed))
        .expect(expect);
    // Re-open from disk — the resume path a killed process would take.
    let mut manifest = TrialManifest::open(&manifest_path).expect(expect);
    let already = manifest.completed();
    let resumed = TrialRunner::new(trials, cfg.threads, seed_base)
        .manifest(&mut manifest)
        .run(move |seed| trial(&cfg_owned, n, seed))
        .expect(expect);
    std::fs::remove_file(&manifest_path).ok();
    let resume_exact = resumed.results() == reference.iter().collect::<Vec<_>>();
    table.row([
        "manifest resume".to_string(),
        n.to_string(),
        trials.to_string(),
        format!("first pass={first} skipped on resume={already}"),
        yes_no(resume_exact && already == first),
    ]);

    // Stage 3: self-check demotion. A clean reference run vs one with an
    // injected violation: the tier is demoted, nothing panics, and the
    // result is still exact.
    let seed = seed_base;
    let d = standard_deployment(n, seed);
    let ch = sinr_for(&d).build();
    let pk = ProtocolKind::fkn_default();
    let mut clean_sim = Simulation::new(d.clone(), sinr_for(&d).build(), seed, |id| pk.build(id));
    let clean = clean_sim.run_until_resolved(cfg.max_rounds);
    let config = SimConfig {
        self_check: 2,
        ..SimConfig::default()
    };
    let mut sim = Simulation::try_new(d, ch, seed, config, |id| pk.build(id))
        .expect("FKN on a standard deployment constructs");
    sim.inject_self_check_violation();
    let checked = sim.run_until_resolved(cfg.max_rounds);
    let counters = sim.engine_counters();
    table.row([
        "self-check demote".to_string(),
        n.to_string(),
        "1".to_string(),
        format!(
            "violations={} demotions={} checked_rounds={} mean_rounds={}",
            counters.self_check_violations,
            counters.tier_demotions,
            counters.self_check_rounds,
            fmt_f64(clean.rounds_executed() as f64),
        ),
        yes_no(checked == clean && counters.tier_demotions >= 1),
    ]);

    table
}

fn yes_no(ok: bool) -> String {
    if ok { "yes" } else { "NO" }.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_all_stages_are_exact() {
        let table = e16_recovery(&ExperimentConfig::smoke());
        assert_eq!(table.rows().len(), 3);
        for row in table.rows() {
            assert_eq!(row[4], "yes", "stage {:?} must be exact: {:?}", row[0], row);
        }
    }
}
