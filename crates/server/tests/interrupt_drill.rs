//! The double-interrupt drill: a first SIGINT asks `fading-server` for a
//! graceful wind-down (finish the flush, exit 130); a second SIGINT
//! during a slow flush must force an immediate exit — also 130 — instead
//! of hanging until the flush completes.
//!
//! Drives the binary's `--selftest-interrupt` harness, which installs
//! the real handler, announces `READY`, and on the first signal starts a
//! deliberately slow (2 s) flush between `FLUSH-BEGIN` and `FLUSH-END`
//! markers — a window wide enough to land the second signal and observe
//! the forced fast exit (no `FLUSH-END`).

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_fading-server");

fn send_sigint(child: &Child) {
    let status = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("spawn kill(1)");
    assert!(status.success(), "kill -INT failed: {status:?}");
}

#[test]
fn second_sigint_during_flush_forces_immediate_exit_130() {
    let mut child = Command::new(BIN)
        .arg("--selftest-interrupt")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn selftest harness");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut next_line = || {
        lines
            .next()
            .expect("stdout closed early")
            .expect("read stdout")
    };

    assert_eq!(next_line(), "READY");
    send_sigint(&child);
    assert_eq!(next_line(), "FLUSH-BEGIN");

    // Mid-flush: the second signal must cut the 2 s flush short.
    let forced_at = Instant::now();
    send_sigint(&child);
    let status = child.wait().expect("reap harness");
    let elapsed = forced_at.elapsed();

    assert_eq!(
        status.code(),
        Some(130),
        "forced exit must still report the interrupt status"
    );
    assert!(
        elapsed < Duration::from_millis(1500),
        "second SIGINT must force an immediate exit, waited {elapsed:?}"
    );
    let rest: Vec<String> = lines.map(|l| l.expect("read stdout")).collect();
    assert!(
        !rest.iter().any(|l| l == "FLUSH-END"),
        "the flush must have been cut short, got {rest:?}"
    );
}

#[test]
fn single_sigint_finishes_the_flush_and_exits_130() {
    let mut child = Command::new(BIN)
        .arg("--selftest-interrupt")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn selftest harness");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut next_line = || {
        lines
            .next()
            .expect("stdout closed early")
            .expect("read stdout")
    };

    assert_eq!(next_line(), "READY");
    send_sigint(&child);
    assert_eq!(next_line(), "FLUSH-BEGIN");
    assert_eq!(
        next_line(),
        "FLUSH-END",
        "an uncontested flush must complete"
    );
    let status = child.wait().expect("reap harness");
    assert_eq!(status.code(), Some(130));
}
