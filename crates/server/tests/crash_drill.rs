//! The service crash drill: SIGKILL a `fading-server` mid-fleet, restart
//! it over the same queue, and require every job to complete exactly once
//! with `trials.jsonl` byte-identical to an uninterrupted reference run.
//!
//! The victim gets one deliberately long job (a round-capped n=512 fleet)
//! ahead of a handful of small jobs, so the kill reliably lands inside
//! the long job's trial fleet — the restart must then resume that job
//! from its manifest (re-running only the unfinished trials) and still
//! produce the same bytes, because trial results are recorded seed-
//! ordered from deterministic per-seed RNG streams.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use fading_cr::jobspec::JobSpec;
use fading_server::JobQueue;

const BIN: &str = env!("CARGO_BIN_EXE_fading-server");

fn drill_specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    // Claimed first (lexicographic): the long fleet the kill lands in.
    let mut big = JobSpec::example("a-long");
    big.n = 768;
    big.trials = 48;
    big.max_rounds = 60;
    big.deploy_seed = 11;
    big.seed_base = 100;
    specs.push(big);
    for i in 0..4 {
        let mut small = JobSpec::example(&format!("b-small-{i}"));
        small.n = 48 + 16 * i as usize;
        small.trials = 2;
        small.deploy_seed = 20 + i;
        small.seed_base = 200 + 10 * i;
        specs.push(small);
    }
    specs
}

fn submit_all(root: &Path, specs: &[JobSpec]) -> JobQueue {
    let queue = JobQueue::open(root).expect("open queue");
    for spec in specs {
        queue.submit(spec).expect("submit spec");
    }
    queue
}

fn run_drain(root: &Path) {
    let status = Command::new(BIN)
        .args(["--queue", root.to_str().expect("utf-8 path"), "--drain"])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .expect("spawn fading-server");
    assert!(status.success(), "drain run failed: {status:?}");
}

fn read_trials(queue: &JobQueue, id: &str) -> Vec<u8> {
    std::fs::read(queue.job_dir(id).join("trials.jsonl"))
        .unwrap_or_else(|e| panic!("trials.jsonl for {id}: {e}"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("fading-crash-drill")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn sigkill_mid_fleet_then_restart_completes_every_job_byte_identically() {
    let specs = drill_specs();

    // Reference: the same queue contents, drained uninterrupted.
    let ref_root = scratch("reference");
    let ref_queue = submit_all(&ref_root, &specs);
    run_drain(&ref_root);
    for spec in &specs {
        assert!(
            ref_queue.is_done(&spec.id),
            "reference {} must finish",
            spec.id
        );
    }

    // Victim: same submissions; SIGKILL the server mid-fleet.
    let victim_root = scratch("victim");
    let victim_queue = submit_all(&victim_root, &specs);
    let mut child = Command::new(BIN)
        .args([
            "--queue",
            victim_root.to_str().expect("utf-8 path"),
            "--drain",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    // Let it claim the long job and finish some — not all — of its trials.
    let manifest = victim_queue.job_dir("a-long").join("manifest.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let lines = std::fs::read_to_string(&manifest)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if lines >= 2 {
            break;
        }
        assert!(
            child.try_wait().expect("poll victim").is_none(),
            "victim drained before the kill — lengthen the long job"
        );
        assert!(
            Instant::now() < deadline,
            "victim never started the long job"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL the victim");
    child.wait().expect("reap the victim");
    assert!(
        !victim_queue.is_done("a-long"),
        "the kill must land before the long job completes"
    );
    let stranded = victim_queue.stranded().expect("list running/");
    assert!(
        !stranded.is_empty(),
        "the killed server must leave its claimed spec in running/"
    );
    let done_before = specs.iter().filter(|s| victim_queue.is_done(&s.id)).count();

    // Restart over the same queue; stranded specs re-enqueue and resume.
    run_drain(&victim_root);

    for spec in &specs {
        assert!(
            victim_queue.is_done(&spec.id),
            "{} must complete after restart",
            spec.id
        );
        let trials = read_trials(&victim_queue, &spec.id);
        assert_eq!(
            trials,
            read_trials(&ref_queue, &spec.id),
            "{}: resumed trials.jsonl must be byte-identical to the reference",
            spec.id
        );
        // Exactly once: every seed appears exactly one time.
        let text = String::from_utf8(trials).expect("utf-8 trials.jsonl");
        assert_eq!(text.lines().count(), spec.trials, "{}", spec.id);
        for i in 0..spec.trials {
            let seed = spec.seed_base + i as u64;
            let needle = format!("\"seed\":{seed},");
            assert_eq!(
                text.matches(&needle).count(),
                1,
                "{}: seed {seed} must appear exactly once",
                spec.id
            );
        }
    }
    // The restart must have *resumed* the long job, not re-run it.
    let result = std::fs::read_to_string(victim_queue.job_dir("a-long").join("result.json"))
        .expect("result.json for a-long");
    assert!(
        !result.contains("\"resumed\":0,"),
        "the long job must report resumed trials, got: {result}"
    );
    // And nothing ran twice at the job level either.
    let done_after = specs.iter().filter(|s| victim_queue.is_done(&s.id)).count();
    assert_eq!(done_after, specs.len());
    assert!(
        done_before < done_after,
        "restart must finish the remainder"
    );

    std::fs::remove_dir_all(scratch("reference").parent().expect("parent")).ok();
}
