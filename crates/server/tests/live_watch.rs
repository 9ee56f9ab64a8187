//! End-to-end watch drill against the real `fading-server` binary: boot
//! it with a control socket (which auto-starts the monitor), attach a
//! `watch` connection, submit jobs over a second connection, and require
//! the stream to deliver job lifecycle events, per-job seed-ordered
//! trial progress, and periodic time-series frames — then check the
//! thick `stats` reply (per-state depths + latency quantiles) once the
//! jobs retire.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fading_cr::jobspec::JobSpec;
use fading_cr::sim::obs::ProgressEvent;
use fading_cr::sim::telemetry::jsonl::{parse_json, JsonValue};

const BIN: &str = env!("CARGO_BIN_EXE_fading-server");

struct Harness {
    child: Child,
    socket_addr: String,
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn boot(root: &std::path::Path) -> Harness {
    let mut child = Command::new(BIN)
        .args([
            "--queue",
            root.to_str().expect("utf-8 path"),
            "--addr",
            "127.0.0.1:0",
            "--monitor-ms",
            "50",
            "--slo-queue-max",
            "0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn fading-server");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut socket_addr = String::new();
    for line in lines.by_ref() {
        let line = line.expect("read server stdout");
        if let Some(addr) = line.strip_prefix("LISTEN ") {
            socket_addr = addr.to_string();
        } else if line == "READY" {
            break;
        }
    }
    assert!(!socket_addr.is_empty(), "server must announce LISTEN");
    Harness { child, socket_addr }
}

fn request(addr: &str, line: &str) -> JsonValue {
    let mut stream = TcpStream::connect(addr).expect("connect control socket");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    parse_json(response.trim()).expect("response must be JSON")
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("fading-live-watch")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn watch_streams_progress_frames_and_alerts_end_to_end() {
    let root = scratch("stream");
    std::fs::create_dir_all(&root).expect("scratch dir");
    let harness = boot(&root);
    let addr = harness.socket_addr.clone();

    // Attach the watcher BEFORE submitting so it sees every event.
    let mut watch = TcpStream::connect(&addr).expect("connect watch socket");
    watch
        .write_all(b"{\"cmd\":\"watch\"}\n")
        .expect("send watch");
    watch
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    let mut watch_reader = BufReader::new(watch.try_clone().expect("clone watch stream"));
    let mut ack = String::new();
    watch_reader.read_line(&mut ack).expect("read watch ack");
    let ack = parse_json(ack.trim()).expect("ack must be JSON");
    assert_eq!(ack.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        ack.get("streaming").and_then(JsonValue::as_bool),
        Some(true)
    );

    // One long-ish job first, then two quick ones. The queue-depth SLO
    // rule is armed at 0 and evaluated at every enqueue (counting the job
    // just queued), so it fires however fast the worker drains the queue.
    let mut long = JobSpec::example("a-long");
    long.n = 512;
    long.trials = 24;
    long.max_rounds = 60;
    long.seed_base = 40;
    let mut quick1 = JobSpec::example("b-quick");
    quick1.trials = 3;
    quick1.seed_base = 700;
    let mut quick2 = JobSpec::example("c-quick");
    quick2.trials = 2;
    quick2.deploy_seed = 9;
    quick2.seed_base = 800;
    let specs = [long, quick1, quick2];
    for spec in &specs {
        let reply = request(
            &addr,
            &format!("{{\"cmd\":\"submit\",\"job\":{}}}", spec.to_json()),
        );
        assert_eq!(reply.get("ok").and_then(JsonValue::as_bool), Some(true));
    }

    // Pump the stream until every job reported done AND at least one
    // frame and one alert came through (the monitor keeps ticking after
    // the jobs retire, so frames keep flowing until the deadline).
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut lines: Vec<String> = Vec::new();
    let mut done_jobs = 0;
    let (mut saw_frame, mut saw_alert) = (false, false);
    while done_jobs < specs.len() || !saw_frame || !saw_alert {
        assert!(
            Instant::now() < deadline,
            "stream incomplete (done={done_jobs} frame={saw_frame} alert={saw_alert}); saw {lines:#?}"
        );
        let mut line = String::new();
        match watch_reader.read_line(&mut line) {
            Ok(0) => panic!("server closed the watch stream early"),
            Ok(_) => {
                let line = line.trim().to_string();
                if line.is_empty() {
                    continue; // keepalive
                }
                if line.contains("\"event\":\"job_done\"") {
                    done_jobs += 1;
                }
                saw_frame |= line.contains("\"event\":\"frame\"");
                saw_alert |= line.contains("\"event\":\"alert\"") && line.contains("queue_depth");
                lines.push(line);
            }
            Err(e) => panic!("watch stream read failed: {e}"),
        }
    }

    // Every line is valid JSON with an "event".
    for line in &lines {
        let v = parse_json(line).unwrap_or_else(|e| panic!("bad stream line ({e}): {line}"));
        assert!(
            v.get("event").and_then(JsonValue::as_str).is_some(),
            "stream line without event: {line}"
        );
    }

    // Frames arrived (the monitor runs at 50 ms).
    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"frame\"")),
        "no time-series frames in the stream"
    );
    // The queue-depth rule (max 0, checked at enqueue) fired into the same
    // stream.
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"alert\"") && l.contains("queue_depth")),
        "no queue_depth alert in the stream"
    );

    // Per job: a job_started, then trial events in strict seed order
    // (started → terminal for each seed, single trial thread), then the
    // job_done that ended the pump loop.
    for spec in &specs {
        let tag = format!("\"job\":\"{}\"", spec.id);
        let job_lines: Vec<&String> = lines.iter().filter(|l| l.contains(&tag)).collect();
        assert!(
            job_lines[0].contains("\"event\":\"job_started\""),
            "{}: first line {job_lines:?}",
            spec.id
        );
        let events: Vec<ProgressEvent> = job_lines
            .iter()
            .filter(|l| l.contains("\"event\":\"trial_"))
            .map(|l| ProgressEvent::from_json(l).expect("trial event parses"))
            .collect();
        assert_eq!(events.len(), 2 * spec.trials, "{}", spec.id);
        for (i, pair) in events.chunks(2).enumerate() {
            let seed = spec.seed_base + i as u64;
            assert!(
                matches!(pair[0], ProgressEvent::TrialStarted { seed: s } if s == seed),
                "{}: {pair:?}",
                spec.id
            );
            assert!(
                pair[1].is_terminal() && pair[1].seed() == seed,
                "{}: {pair:?}",
                spec.id
            );
        }
    }

    // Thick stats: per-state depths and latency quantiles. The job_done
    // event is published just before the spec retires into done/, so
    // give the directory rename a moment to land.
    let stats_deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = request(&addr, "{\"cmd\":\"stats\"}");
        assert_eq!(stats.get("ok").and_then(JsonValue::as_bool), Some(true));
        let done = stats
            .get("states")
            .and_then(|s| s.get("done"))
            .and_then(JsonValue::as_f64);
        if done == Some(specs.len() as f64) {
            break stats;
        }
        assert!(
            Instant::now() < stats_deadline,
            "jobs never all retired into done/: {done:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let states = stats.get("states").expect("stats must carry states");
    assert_eq!(states.get("queued").and_then(JsonValue::as_f64), Some(0.0));
    let latency = stats
        .get("latency_ms")
        .expect("stats must carry latency_ms");
    let p50 = latency.get("p50").and_then(JsonValue::as_f64).expect("p50");
    let p99 = latency.get("p99").and_then(JsonValue::as_f64).expect("p99");
    assert!(p50 > 0.0 && p99 >= p50, "p50={p50} p99={p99}");

    drop(harness);
    std::fs::remove_dir_all(&root).ok();
}
