//! The server's `collect_spans` path: every trial runs under a span tracer
//! and a counts-level event sink, and both fold into the scrape's
//! `MetricsRegistry`. Turning it on must leave the job's artifacts
//! byte-identical, and the scrape must account for every round.

use std::path::{Path, PathBuf};
use std::time::Duration;

use fading_cr::jobspec::JobSpec;
use fading_cr::sim::obs::export::prometheus::parse_prometheus;
use fading_cr::sim::telemetry::PHASE_SPANS;
use fading_server::queue::JobQueue;
use fading_server::server::run_job;
use fading_server::{JobReport, ServerConfig, ServerMetrics};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("fading-collect-spans")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Files by name, with their bytes, sorted by name.
type Files = Vec<(String, Vec<u8>)>;

/// Every file under `dir` (none when it does not exist).
fn files(dir: &Path) -> Files {
    let mut out: Files = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .map(|e| {
                    let e = e.expect("dir entry");
                    let bytes = std::fs::read(e.path()).expect("read artifact");
                    (e.file_name().to_string_lossy().into_owned(), bytes)
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

/// Runs `spec` through `run_job` in a fresh queue; returns the report, the
/// bytes of `trials.jsonl` and the per-seed event files.
fn run(spec: &JobSpec, collect_spans: bool) -> (JobReport, Vec<u8>, Files) {
    let root = scratch(&format!("{}-{collect_spans}", spec.id));
    let queue = JobQueue::open(&root).expect("open queue");
    let cfg = ServerConfig {
        collect_spans,
        ..ServerConfig::default()
    };
    let report = run_job(&queue, &cfg, spec).expect("job runs");
    let job_dir = queue.job_dir(&spec.id);
    let trials = std::fs::read(job_dir.join("trials.jsonl")).expect("trials.jsonl");
    let events = files(&job_dir.join("events"));
    std::fs::remove_dir_all(&root).ok();
    (report, trials, events)
}

#[test]
fn collect_spans_folds_every_round_and_leaves_artifacts_unchanged() {
    for telemetry in [false, true] {
        let mut spec = JobSpec::example(if telemetry { "spans-tel" } else { "spans" });
        spec.trials = 4;
        spec.telemetry = telemetry;

        let (plain, plain_trials, plain_events) = run(&spec, false);
        let (traced, traced_trials, traced_events) = run(&spec, true);
        assert_eq!(
            traced_trials, plain_trials,
            "telemetry={telemetry}: trials.jsonl must be byte-identical"
        );
        assert_eq!(
            traced_events, plain_events,
            "telemetry={telemetry}: event files must be byte-identical"
        );
        assert_eq!(traced_events.len(), if telemetry { 4 } else { 0 });
        assert!(plain.registry.is_none());
        assert_eq!(traced.counters, plain.counters);

        let rounds: u64 = traced
            .run
            .results()
            .iter()
            .map(|r| r.rounds_executed())
            .sum();
        assert!(rounds > 0);
        let metrics = ServerMetrics::new();
        metrics.record_completed(
            Duration::from_millis(5),
            &traced.run.summary,
            traced.run.resumed,
            &traced.counters,
            traced.registry.as_ref(),
        );
        let scrape = parse_prometheus(&metrics.render_prometheus()).expect("scrape parses");
        let value = |name: &str| {
            scrape
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing from the scrape"))
                .value
        };
        assert_eq!(value("fading_metrics_rounds_total"), rounds as f64);
        assert_eq!(value("fading_round_latency_nanos_count"), rounds as f64);
        for phase in PHASE_SPANS {
            let series = scrape
                .iter()
                .find(|s| s.name == "fading_phase_nanos_total" && s.label("phase") == Some(phase));
            assert!(series.is_some(), "phase {phase} missing from the scrape");
        }
        let resolve = scrape
            .iter()
            .find(|s| s.name == "fading_phase_nanos_total" && s.label("phase") == Some("resolve"))
            .map_or(0.0, |s| s.value);
        assert!(resolve > 0.0, "resolve spans must carry time");
    }
}
