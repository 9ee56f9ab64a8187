//! The watcher-determinism guard: attaching live subscribers — including
//! a deliberately stalled one whose bounded queue overflows — must leave
//! every job artifact byte-identical to an unwatched run. This is the
//! teeth behind the hub's fire-and-forget publishing contract: a slow
//! consumer loses lines, the simulation loses nothing.

use std::path::{Path, PathBuf};

use fading_cr::jobspec::JobSpec;
use fading_server::{ExitPolicy, Server, ServerConfig, Subscription};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("fading-watch-determinism")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn specs() -> Vec<JobSpec> {
    let mut a = JobSpec::example("wd-a");
    a.trials = 8;
    a.seed_base = 300;
    let mut b = JobSpec::example("wd-b");
    b.n = 96;
    b.trials = 5;
    b.deploy_seed = 7;
    b.seed_base = 900;
    vec![a, b]
}

fn artifacts(root: &Path) -> Vec<(String, Vec<u8>)> {
    let queue = fading_server::JobQueue::open(root).expect("open queue");
    let mut out = Vec::new();
    for spec in specs() {
        for file in ["trials.jsonl", "result.json", "manifest.jsonl"] {
            let path = queue.job_dir(&spec.id).join(file);
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.push((format!("{}/{file}", spec.id), bytes));
        }
    }
    out
}

fn drain(root: &Path, watched: bool) -> (u64, usize) {
    let server = Server::open(root, ServerConfig::default()).expect("open server");
    let subs = watched.then(|| {
        // A healthy watcher with room for everything, and a stalled one
        // whose two-line queue must overflow within the first trial.
        let healthy = server.hub().subscribe(Subscription::watch_all());
        let stalled = server.hub().subscribe(Subscription {
            job: None,
            frames: true,
            capacity: 2,
        });
        (healthy, stalled)
    });
    for spec in specs() {
        server.queue().submit(&spec).expect("submit");
    }
    server.run(ExitPolicy::drain());
    let (dropped, healthy_lines) = subs.map_or((0, 0), |(healthy, stalled)| {
        (stalled.dropped(), healthy.drain().len())
    });
    (dropped, healthy_lines)
}

#[test]
fn artifacts_are_byte_identical_with_watchers_attached() {
    let plain_root = scratch("plain");
    let watched_root = scratch("watched");

    let (no_drops, none) = drain(&plain_root, false);
    assert_eq!((no_drops, none), (0, 0));
    let (dropped, healthy_lines) = drain(&watched_root, true);

    // The stalled subscriber really did overflow, and the healthy one
    // really did stream: this test must not pass vacuously.
    assert!(
        dropped > 0,
        "stalled subscriber must drop lines (got {dropped})"
    );
    // 2 jobs × (job_started + job_done) + per-trial started/finished.
    assert!(
        healthy_lines as u64 >= 4 + 2 * (8 + 5),
        "healthy subscriber saw only {healthy_lines} lines"
    );

    let plain = artifacts(&plain_root);
    let watched = artifacts(&watched_root);
    assert_eq!(plain.len(), watched.len());
    for ((name_p, bytes_p), (name_w, bytes_w)) in plain.iter().zip(watched.iter()) {
        assert_eq!(name_p, name_w);
        assert_eq!(
            bytes_p, bytes_w,
            "{name_p} must be byte-identical with watchers attached"
        );
    }

    std::fs::remove_dir_all(&plain_root).ok();
    std::fs::remove_dir_all(&watched_root).ok();
}
