//! `supervision_overhead_n2048`: guards the zero-cost contract of the
//! trial supervisor.
//!
//! Running a trial through `supervise_trial` with the default inline
//! configuration (no watchdog thread) and self-checking disabled must stay
//! within 2% of calling the trial closure directly (`n = 2048`, maximum
//! contention — the `resolve_scaling` workload shape). Plain timing
//! harness rather than Criterion so it can *assert* the budget:
//! interleaved A/B reps, median of the per-rep times, up to three attempts
//! to ride out scheduler noise.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fading_cr::prelude::*;
use fading_cr::sim::recover::{supervise_trial, SupervisorConfig, TrialFn};
use fading_cr::sim::NoopProgress;

const N: usize = 2048;
const ROUNDS: u64 = 48;
const REPS: usize = 11;
const TOLERANCE: f64 = 1.02;

fn run_trial(seed: u64) -> RunResult {
    let d = Deployment::uniform_density(N, 0.25, seed);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    let mut sim = Simulation::new(d, Box::new(SinrChannel::new(params)), seed, |_| {
        Box::new(Fkn::new())
    });
    assert!(!sim.self_check_enabled(), "self-check must default off");
    sim.run_until_resolved(ROUNDS)
}

fn time_direct() -> Duration {
    let start = Instant::now();
    let result = run_trial(7);
    let elapsed = start.elapsed();
    std::hint::black_box(result);
    elapsed
}

fn time_supervised(cfg: &SupervisorConfig, trial: &Arc<TrialFn>) -> Duration {
    let start = Instant::now();
    let outcome = supervise_trial(cfg, 7, trial, &NoopProgress);
    let elapsed = start.elapsed();
    assert!(outcome.is_success(), "the trial itself must not fail");
    std::hint::black_box(outcome);
    elapsed
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn measure() -> (Duration, Duration) {
    let cfg = SupervisorConfig::default();
    assert!(
        cfg.timeout.is_none(),
        "default config must be the inline path"
    );
    let trial: Arc<TrialFn> = Arc::new(run_trial);
    let mut direct = Vec::with_capacity(REPS);
    let mut supervised = Vec::with_capacity(REPS);
    // Warm-up: fault the gain-cache code paths and the allocator once.
    let _ = time_direct();
    for _ in 0..REPS {
        direct.push(time_direct());
        supervised.push(time_supervised(&cfg, &trial));
    }
    (median(direct), median(supervised))
}

fn main() {
    let attempts = 3;
    let mut last = None;
    for attempt in 1..=attempts {
        let (direct, supervised) = measure();
        let ratio = supervised.as_secs_f64() / direct.as_secs_f64();
        println!(
            "supervision_overhead_n2048 attempt {attempt}: direct {direct:?}, \
             supervised {supervised:?} (x{ratio:.3})"
        );
        if ratio <= TOLERANCE {
            println!("supervision_overhead_n2048: PASS (supervisor within 2% of direct)");
            return;
        }
        last = Some(ratio);
    }
    panic!(
        "supervision_overhead_n2048: supervisor overhead x{:.3} exceeds the 2% budget \
         in {attempts} attempts",
        last.unwrap()
    );
}
