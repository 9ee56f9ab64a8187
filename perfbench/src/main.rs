//! perfbench: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <fkn-mid|fkn-large|fkn-alpha> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|smoke] [--expected <file>]
//! ```
//!
//! Builds the workload's inputs from `--seed`, measures for `--seconds`,
//! checks the outputs against the committed digests, and prints as its
//! last line one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. See `NOTES.md`.

mod fkn;
mod host;
mod layers;
mod report;
mod service;

use std::path::PathBuf;
use std::process::ExitCode;

use host::Host;
use report::{Expected, Outcome};

/// Digests of each workload's golden block, committed with the benchmark.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

const USAGE: &str = "usage: perfbench --workload <fkn-mid|fkn-large|fkn-alpha> \
--seed <n> --seconds <s> --trace <0|1> [--size full|smoke] [--expected <file>]";

/// Input size: `full` is the benchmark, `smoke` a seconds-long variant of
/// every workload for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub expected: Expected,
    /// Scratch space for the job server's queue, under the working
    /// directory.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut expected_path = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                });
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size must be full or smoke, not {other:?}")),
                };
            }
            "--expected" => expected_path = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let expected_text = match &expected_path {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?,
        None => EXPECTED_DIGESTS.to_string(),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        expected: Expected::parse(&expected_text)?,
        work_dir: PathBuf::from(".bench_work"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    println!("host {}", host.to_json());
    println!(
        "workload {} size {} seed {} seconds {} trace {}",
        args.workload,
        args.size.label(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let Some(w) = fkn::FknWorkload::named(&args.workload, args.size) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let mut out = Outcome::default();
    fkn::run(&w, &args, &host, &mut out);

    for line in &out.notes {
        println!("{line}");
    }
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let line = out.result_json(args.trace);
    println!("{line}");
    if out.errors.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
