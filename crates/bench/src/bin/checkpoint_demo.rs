//! Deterministic checkpoint/resume driver for the kill/resume integration
//! test (and for poking at the snapshot layer by hand).
//!
//! Usage:
//!
//! ```text
//! checkpoint_demo [--n <nodes>] [--seed <seed>] [--max-rounds <r>]
//!                 [--checkpoint <path>] [--resume] [--every <rounds>]
//!                 [--round-delay-ms <ms>]
//! ```
//!
//! Runs one faulted simulation (jamming, a noise burst, churn, and
//! Gilbert–Elliott loss — every fault cursor the snapshot must carry) to
//! resolution or the round cap. With `--checkpoint` a checksummed
//! [`SimSnapshot`] is atomically rewritten every `--every` rounds; with
//! `--resume` the run restores from that file first (a missing file starts
//! fresh; a corrupt one is a loud typed error, exit 3). `--round-delay-ms`
//! slows the loop down so a test can SIGKILL it mid-flight.
//!
//! The single stdout line `RESULT …` is the run's digest: a resumed run
//! must reproduce the uninterrupted run's line byte for byte.
//!
//! [`SimSnapshot`]: fading_cr::sim::recover::SimSnapshot

use std::path::PathBuf;
use std::time::Duration;

use fading_cr::prelude::*;
use fading_cr::sim::faults::{ChurnEvent, GilbertElliott, Jammer, NoiseBurst};
use fading_cr::sim::recover::SimSnapshot;

fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn build_sim(n: usize, seed: u64) -> Simulation {
    let d = Deployment::uniform_density(n, 0.25, seed);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    let plan = FaultPlan::new()
        .with_jammer(
            Jammer::new(
                Point::new(1.0, 1.0),
                params.power() * 8.0,
                3,
                6,
                2,
                Some(40),
            )
            .expect("valid jammer"),
        )
        .with_noise_burst(NoiseBurst::new(4, 7, 2.5).expect("valid burst"))
        .with_churn(ChurnEvent::crash(5, 0).expect("valid crash"))
        .with_churn(ChurnEvent::revive(11, 0).expect("valid revive"))
        .with_churn(ChurnEvent::late_wake(3, 1).expect("valid late wake"))
        .with_loss(GilbertElliott::new(0.15, 0.4, 0.02, 0.6).expect("valid loss chain"));
    let config = SimConfig {
        fault_plan: Some(plan),
        ..SimConfig::default()
    };
    Simulation::try_new(d, Box::new(SinrChannel::new(params)), seed, config, |_| {
        Box::new(Fkn::new())
    })
    .expect("valid fault plan")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = flag_value(&args, "--n", 48);
    let seed: u64 = flag_value(&args, "--seed", 11);
    let max_rounds: u64 = flag_value(&args, "--max-rounds", 5_000);
    let every: u64 = flag_value(&args, "--every", 1);
    let delay_ms: u64 = flag_value(&args, "--round-delay-ms", 0);
    let checkpoint: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--checkpoint")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let resume = args.iter().any(|a| a == "--resume");

    let mut sim = build_sim(n, seed);

    if resume {
        match checkpoint.as_deref() {
            Some(path) if path.exists() => match SimSnapshot::read_from_path(path) {
                Ok(snap) => {
                    if let Err(e) = sim.restore(&snap) {
                        eprintln!(
                            "checkpoint at {} does not fit this run: {e}",
                            path.display()
                        );
                        std::process::exit(3);
                    }
                    eprintln!("resumed at round {}", sim.round());
                }
                Err(e) => {
                    eprintln!("unreadable checkpoint {}: {e}", path.display());
                    std::process::exit(3);
                }
            },
            Some(path) => eprintln!("no checkpoint at {}, starting fresh", path.display()),
            None => eprintln!("--resume without --checkpoint, starting fresh"),
        }
    }

    while sim.resolved_at().is_none() && sim.round() < max_rounds {
        sim.step();
        if let Some(path) = &checkpoint {
            if sim.round().is_multiple_of(every.max(1)) {
                if let Err(e) = sim.snapshot().write_to_path(path) {
                    eprintln!("checkpoint write failed: {e}");
                    std::process::exit(4);
                }
            }
        }
        if delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
    }

    // The budget is already consumed (or the run resolved), so this only
    // assembles the RunResult from the final state.
    let result = sim.run_until_resolved(max_rounds);
    println!(
        "RESULT resolved_at={:?} rounds={} winner={:?} transmissions={} final_active={}",
        result.resolved_at(),
        result.rounds_executed(),
        result.winner(),
        result.total_transmissions(),
        result.final_active(),
    );
}
