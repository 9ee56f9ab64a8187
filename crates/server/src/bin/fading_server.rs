//! `fading-server` — the simulation job server binary.
//!
//! ```text
//! fading-server --queue <dir> [--addr 127.0.0.1:0] [--metrics-addr 127.0.0.1:0]
//!               [--workers N] [--trial-threads N] [--poll-ms MS]
//!               [--drain] [--idle-exit-ms MS] [--collect-spans]
//!               [--monitor-ms MS] [--slo-fallback-max F]
//!               [--slo-timeout-spike PER_MIN] [--slo-queue-max N]
//! ```
//!
//! When `--addr` is given the monitor thread starts automatically (at
//! `--monitor-ms`, default 250 ms) so `watch` connections receive
//! time-series frames; the `--slo-*` flags arm the corresponding watch
//! rules, whose alerts reach both the stream and the Prometheus scrape.
//!
//! On startup the server re-enqueues any spec stranded in `running/` by
//! a previous incarnation (their manifests make the re-run skip finished
//! trials), then announces its listeners on stdout:
//!
//! ```text
//! RECOVERED 2
//! LISTEN 127.0.0.1:40123
//! METRICS 127.0.0.1:40124
//! READY
//! ```
//!
//! so scripts can parse the ephemeral ports. `--drain` exits once the
//! queue is empty; `--idle-exit-ms` exits after that much continuous
//! idleness (both for CI). A first SIGINT/SIGTERM finishes in-flight
//! jobs and exits cleanly with code 130; a second forces immediate exit.

use std::process::ExitCode;
use std::time::Duration;

use fading_server::{interrupt, ExitPolicy, MonitorConfig, Server, ServerConfig, SloRules};

struct Args {
    queue: Option<String>,
    addr: Option<String>,
    metrics_addr: Option<String>,
    workers: usize,
    trial_threads: usize,
    poll_ms: u64,
    drain: bool,
    idle_exit_ms: Option<u64>,
    collect_spans: bool,
    selftest_interrupt: bool,
    monitor_ms: Option<u64>,
    slo: SloRules,
}

fn usage() -> ! {
    eprintln!(
        "usage: fading-server --queue <dir> [--addr HOST:PORT] [--metrics-addr HOST:PORT]\n\
         \x20                    [--workers N] [--trial-threads N] [--poll-ms MS]\n\
         \x20                    [--drain] [--idle-exit-ms MS] [--collect-spans]\n\
         \x20                    [--monitor-ms MS] [--slo-fallback-max F]\n\
         \x20                    [--slo-timeout-spike PER_MIN] [--slo-queue-max N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        queue: None,
        addr: None,
        metrics_addr: None,
        workers: 1,
        trial_threads: 1,
        poll_ms: 20,
        drain: false,
        idle_exit_ms: None,
        collect_spans: false,
        selftest_interrupt: false,
        monitor_ms: None,
        slo: SloRules::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage();
            })
        };
        match flag.as_str() {
            "--queue" => args.queue = Some(value("--queue")),
            "--addr" => args.addr = Some(value("--addr")),
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")),
            "--workers" => args.workers = parse_num(&value("--workers"), "--workers"),
            "--trial-threads" => {
                args.trial_threads = parse_num(&value("--trial-threads"), "--trial-threads");
            }
            "--poll-ms" => args.poll_ms = parse_num(&value("--poll-ms"), "--poll-ms"),
            "--idle-exit-ms" => {
                args.idle_exit_ms = Some(parse_num(&value("--idle-exit-ms"), "--idle-exit-ms"));
            }
            "--monitor-ms" => {
                args.monitor_ms = Some(parse_num(&value("--monitor-ms"), "--monitor-ms"));
            }
            "--slo-fallback-max" => {
                args.slo.fallback_fraction_max = Some(parse_num(
                    &value("--slo-fallback-max"),
                    "--slo-fallback-max",
                ));
            }
            "--slo-timeout-spike" => {
                args.slo.timed_out_per_min_max = Some(parse_num(
                    &value("--slo-timeout-spike"),
                    "--slo-timeout-spike",
                ));
            }
            "--slo-queue-max" => {
                args.slo.queue_depth_max =
                    Some(parse_num(&value("--slo-queue-max"), "--slo-queue-max"));
            }
            "--drain" => args.drain = true,
            "--collect-spans" => args.collect_spans = true,
            "--selftest-interrupt" => args.selftest_interrupt = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    args
}

fn parse_num<T: std::str::FromStr>(s: &str, name: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{name}: invalid number {s:?}");
        usage();
    })
}

/// Test harness for the interrupt drill: install the handler, announce
/// readiness, then on the first signal start a deliberately slow "flush"
/// so the test can land a second signal mid-flush and observe the forced
/// fast exit (the handler calls `_exit(130)` directly).
fn selftest_interrupt() -> ExitCode {
    interrupt::install();
    println!("READY");
    while !interrupt::interrupted() {
        std::thread::sleep(Duration::from_millis(5));
    }
    if interrupt::claim_flush() {
        println!("FLUSH-BEGIN");
        // Long enough for the drill to deliver the second signal.
        std::thread::sleep(Duration::from_millis(2000));
        println!("FLUSH-END");
    }
    ExitCode::from(u8::try_from(interrupt::INTERRUPT_EXIT_CODE).unwrap_or(130))
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.selftest_interrupt {
        return selftest_interrupt();
    }
    let Some(queue_root) = args.queue.as_deref() else {
        eprintln!("--queue is required");
        usage();
    };

    let cfg = ServerConfig {
        workers: args.workers.max(1),
        trial_threads: args.trial_threads.max(1),
        poll_interval: Duration::from_millis(args.poll_ms.max(1)),
        collect_spans: args.collect_spans,
        ..ServerConfig::default()
    };
    let server = match Server::open(std::path::Path::new(queue_root), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open queue at {queue_root}: {e}");
            return ExitCode::FAILURE;
        }
    };

    match server.recover_stranded() {
        Ok(n) => println!("RECOVERED {n}"),
        Err(e) => {
            eprintln!("stranded-spec recovery failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(addr) = args.addr.as_deref() {
        match server.listen(addr) {
            Ok(local) => println!("LISTEN {local}"),
            Err(e) => {
                eprintln!("cannot listen on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(addr) = args.metrics_addr.as_deref() {
        match server.serve_metrics(addr) {
            Ok(local) => println!("METRICS {local}"),
            Err(e) => {
                eprintln!("cannot serve metrics on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Start the monitor whenever the control socket is up (watchers need
    // frames) or the operator asked for it / armed SLO rules explicitly.
    if args.addr.is_some() || args.monitor_ms.is_some() || !args.slo.is_empty() {
        server.start_monitor(MonitorConfig {
            interval: Duration::from_millis(args.monitor_ms.unwrap_or(250).max(10)),
            rules: args.slo,
            ..MonitorConfig::default()
        });
    }
    println!("READY");

    let exit = ExitPolicy {
        drain: args.drain,
        idle_exit: args.idle_exit_ms.map(Duration::from_millis),
    };
    server.run(exit);

    if interrupt::interrupted() {
        if interrupt::claim_flush() {
            eprintln!("interrupted; in-flight jobs finished, exiting");
        }
        return ExitCode::from(u8::try_from(interrupt::INTERRUPT_EXIT_CODE).unwrap_or(130));
    }
    ExitCode::SUCCESS
}
