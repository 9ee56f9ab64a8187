//! End-to-end service drill against the real `fading-server` binary:
//! boot it with socket + metrics listeners, submit jobs over the JSONL
//! socket, poll status to completion, then scrape the Prometheus
//! endpoint over real HTTP and require the body to parse with the
//! workspace's own paired parser — the same check CI runs.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fading_cr::jobspec::JobSpec;
use fading_cr::sim::obs::export::prometheus::{parse_prometheus, PromSample};
use fading_cr::sim::telemetry::jsonl::{parse_json, JsonValue};

const BIN: &str = env!("CARGO_BIN_EXE_fading-server");

struct Harness {
    child: Child,
    socket_addr: String,
    metrics_addr: String,
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
            "--metrics-addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn fading-server");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut socket_addr = String::new();
    let mut metrics_addr = String::new();
    for line in lines.by_ref() {
        let line = line.expect("read server stdout");
        if let Some(addr) = line.strip_prefix("LISTEN ") {
            socket_addr = addr.to_string();
        } else if let Some(addr) = line.strip_prefix("METRICS ") {
            metrics_addr = addr.to_string();
        } else if line == "READY" {
            break;
        }
    }
    assert!(!socket_addr.is_empty(), "server must announce LISTEN");
    assert!(!metrics_addr.is_empty(), "server must announce METRICS");
    Harness {
        child,
        socket_addr,
        metrics_addr,
    }
}

/// Sends one JSONL request and returns the parsed response object.
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

fn http_get(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    stream
        .write_all(format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .expect("send GET");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("HTTP response must have a blank line");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "bad status: {head}");
    body.to_string()
}

fn sample(samples: &[PromSample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("missing sample {name}"))
        .value
}

#[test]
fn socket_submissions_complete_and_scrape_parses() {
    let root = std::env::temp_dir().join(format!("fading-service-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let harness = boot(&root);

    let pong = request(&harness.socket_addr, "{\"cmd\":\"ping\"}");
    assert_eq!(pong.get("ok").and_then(JsonValue::as_bool), Some(true));

    // Submit a small mix over the socket: three jobs, one with telemetry.
    let mut ids = Vec::new();
    for i in 0..3 {
        let mut spec = JobSpec::example(&format!("e2e-{i}"));
        spec.n = 32 + 16 * i;
        spec.trials = 2;
        spec.telemetry = i == 0;
        let resp = request(
            &harness.socket_addr,
            &format!("{{\"cmd\":\"submit\",\"job\":{}}}", spec.to_json()),
        );
        assert_eq!(
            resp.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "submit {} must be accepted",
            spec.id
        );
        ids.push(spec.id);
    }
    // A bad submission is rejected with an error, not a hang.
    let bad = request(
        &harness.socket_addr,
        "{\"cmd\":\"submit\",\"job\":{\"id\":\"bad\",\"n\":0}}",
    );
    assert_eq!(bad.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert!(bad.get("error").and_then(JsonValue::as_str).is_some());

    // Poll status until every job reports done.
    let deadline = Instant::now() + Duration::from_secs(120);
    for id in &ids {
        loop {
            let resp = request(
                &harness.socket_addr,
                &format!("{{\"cmd\":\"status\",\"id\":\"{id}\"}}"),
            );
            match resp.get("state").and_then(JsonValue::as_str) {
                Some("done") => break,
                Some("failed") => panic!("job {id} failed"),
                _ => {
                    assert!(Instant::now() < deadline, "job {id} never completed");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }
    let stats = request(&harness.socket_addr, "{\"cmd\":\"stats\"}");
    assert_eq!(
        stats.get("completed").and_then(JsonValue::as_f64),
        Some(3.0)
    );

    // The telemetry job streamed per-trial event files.
    let events_dir = root.join("jobs").join("e2e-0").join("events");
    assert!(
        events_dir.join("1.jsonl").exists(),
        "telemetry stream missing"
    );

    // Scrape over real HTTP; the body must parse with the paired parser.
    let body = http_get(&harness.metrics_addr);
    let samples = parse_prometheus(&body).expect("scrape must parse");
    assert_eq!(sample(&samples, "fading_jobs_completed_total"), 3.0);
    assert_eq!(sample(&samples, "fading_jobs_failed_total"), 0.0);
    assert!(sample(&samples, "fading_rounds_total") > 0.0);
    assert_eq!(sample(&samples, "fading_job_latency_ms_count"), 3.0);

    drop(harness);
    std::fs::remove_dir_all(&root).ok();
}
