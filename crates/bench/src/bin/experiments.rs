//! Regenerates the experiment tables (E1–E15) recorded in `EXPERIMENTS.md`.
//!
//! Usage:
//!
//! ```text
//! experiments [e1 e2 …] [--smoke|--quick|--full] [--out <dir>] [--telemetry <dir>]
//! ```
//!
//! With no ids, runs all sixteen experiments. `--out <dir>` additionally
//! writes one CSV per table. `--telemetry <dir>` makes the
//! telemetry-recording experiments (E8, E9) export their JSONL round-event
//! streams into `<dir>` (seed-tagged trial blocks; tables are unchanged).
//!
//! The binary is interrupt-safe: on SIGINT/SIGTERM it finishes the
//! experiment in flight, flushes the tables completed so far (including a
//! partial `report.md` when `--out` is set), and exits with status 130.
//! Experiments that persist per-trial manifests (E16) can then be resumed.

use std::io::Write as _;
use std::time::Instant;

use fading_bench::interrupt;
use fading_bench::{config_from_args, ids_from_args, out_dir_from_args, telemetry_dir_from_args};
use fading_cr::experiments::{run_by_id_with, ALL_IDS};
use fading_cr::report::Report;

fn main() {
    interrupt::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = config_from_args(&args);
    let mut ids = ids_from_args(&args);
    if ids.is_empty() {
        ids = ALL_IDS.iter().map(|s| (*s).to_string()).collect();
    }
    let out_dir = out_dir_from_args(&args);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let telemetry_dir = telemetry_dir_from_args(&args);
    if let Some(dir) = &telemetry_dir {
        std::fs::create_dir_all(dir).expect("create telemetry directory");
    }

    println!(
        "# fading-cr experiment harness — trials={} threads={} max_n=2^{} seed={}\n",
        cfg.trials, cfg.threads, cfg.max_n_pow2, cfg.seed
    );
    let mut report = Report::new("fading-cr experiment run").preamble(format!(
        "Configuration: trials={} threads={} max_n=2^{} max_rounds={} seed={}.",
        cfg.trials, cfg.threads, cfg.max_n_pow2, cfg.max_rounds, cfg.seed
    ));

    let mut stopped_early = false;
    for id in &ids {
        if interrupt::interrupted() {
            stopped_early = true;
            break;
        }
        let start = Instant::now();
        match run_by_id_with(id, &cfg, telemetry_dir.as_deref()) {
            Some(table) => {
                println!("{}", table.render());
                println!("  [{} completed in {:.1?}]\n", id, start.elapsed());
                if let Some(dir) = &out_dir {
                    let path = format!("{dir}/{id}.csv");
                    let mut f = std::fs::File::create(&path).expect("create CSV file");
                    f.write_all(table.to_csv().as_bytes()).expect("write CSV");
                }
                report = report.table(table);
            }
            None => {
                eprintln!(
                    "unknown experiment id: {id} (known: {})",
                    ALL_IDS.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    if stopped_early {
        report = report
            .preamble("NOTE: interrupted by SIGINT/SIGTERM; this report is partial.".to_string());
    }
    if let Some(dir) = &out_dir {
        let path = format!("{dir}/report.md");
        std::fs::write(&path, report.render()).expect("write report.md");
        eprintln!("wrote {path}");
    }
    if stopped_early {
        eprintln!("interrupted: flushed completed tables, exiting");
        std::process::exit(interrupt::INTERRUPT_EXIT_CODE);
    }
}
