//! The job server: claim → validate → shard → record.
//!
//! A [`Server`] owns a [`JobQueue`] and runs a small pool of job workers.
//! Each claimed spec is validated into a `Scenario`, its trials are
//! sharded across threads through a manifest-backed
//! [`TrialRunner`] — so panicked trials are tallied instead of fatal, and
//! a SIGKILL loses at most the in-flight trials — and its artifacts land
//! in the job's output directory:
//!
//! ```text
//! jobs/<id>/manifest.jsonl    append-only per-trial resume log
//! jobs/<id>/trials.jsonl      seed-ordered final results (byte-stable)
//! jobs/<id>/result.json       summary + supervision tally
//! jobs/<id>/events/<seed>.jsonl   per-trial RoundEvents (telemetry jobs)
//! ```
//!
//! `trials.jsonl` is written from the seed-ordered result vector, so a
//! crashed-and-resumed job produces a byte-identical file to an
//! uninterrupted one (manifests do not persist traces; service jobs run
//! at `TraceLevel::None`). Clients reach the server through the file
//! queue directly or via [`Server::listen`]'s JSONL socket; Prometheus
//! text is served by [`Server::serve_metrics`].
//!
//! Live observability rides on top (DESIGN.md §16): an [`EventHub`]
//! fans trial progress, periodic [`TsFrame`]s from the monitor thread,
//! and SLO [`Alert`](crate::stream::Alert)s out to `watch`/`subscribe`
//! connections. Publishing is strictly fire-and-forget — a slow or
//! stalled subscriber loses lines (counted), never slows a worker — so
//! job artifacts stay byte-identical with or without watchers attached.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fading_cr::jobspec::JobSpec;
use fading_cr::sim::montecarlo::{Summary, TrialRun, TrialRunner};
use fading_cr::sim::obs::timeseries::{frame_to_json, TimeSeries, TsFrame};
use fading_cr::sim::obs::{EngineCounters, NoopProgress, ProgressEvent, ProgressSink};
use fading_cr::sim::recover::{trial_line, SupervisorConfig, TrialManifest};
use fading_cr::sim::telemetry::jsonl::{json_escape, write_events_to_path};
use fading_cr::sim::telemetry::{MemorySink, MetricsRegistry, TelemetryDetail};
use fading_cr::sim::RunResult;

use crate::interrupt;
use crate::metrics::ServerMetrics;
use crate::protocol::{error_response, ok_response, parse_request, JobState, Request};
use crate::queue::JobQueue;
use crate::stream::{with_job_fields, EventHub, SloRules, SloWatch, Subscription};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent job workers.
    pub workers: usize,
    /// Threads sharding the trials *within* one job.
    pub trial_threads: usize,
    /// Supervision policy for every trial.
    pub supervisor: SupervisorConfig,
    /// Queue poll interval when idle.
    pub poll_interval: Duration,
    /// Collect per-round span histograms (`MetricsRegistry`) from every
    /// trial and merge them into the scrape. Costs a few percent per
    /// round; off by default.
    pub collect_spans: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            trial_threads: 1,
            supervisor: SupervisorConfig {
                max_retries: 1,
                timeout: None,
            },
            poll_interval: Duration::from_millis(20),
            collect_spans: false,
        }
    }
}

/// When [`Server::run`] should return.
#[derive(Debug, Clone, Copy)]
pub struct ExitPolicy {
    /// Return once the queue is empty and nothing is in flight.
    pub drain: bool,
    /// Return after this much continuous idleness (no claim, nothing in
    /// flight).
    pub idle_exit: Option<Duration>,
}

impl ExitPolicy {
    /// Keep serving until stopped or interrupted.
    #[must_use]
    pub fn forever() -> Self {
        ExitPolicy {
            drain: false,
            idle_exit: None,
        }
    }

    /// Process what's queued, then return.
    #[must_use]
    pub fn drain() -> Self {
        ExitPolicy {
            drain: true,
            idle_exit: None,
        }
    }
}

/// Monitor-thread tunables (see [`Server::start_monitor`]).
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Sampling cadence for time-series frames and SLO checks.
    pub interval: Duration,
    /// SLO thresholds; all-`None` disables alerting but keeps frames.
    pub rules: SloRules,
    /// Ring-buffer capacity, in frames.
    pub ring_capacity: usize,
    /// How many recent frames windowed rates and rules look back over.
    pub rate_window: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            interval: Duration::from_millis(250),
            rules: SloRules::default(),
            ring_capacity: 512,
            rate_window: 16,
        }
    }
}

struct Inner {
    cfg: ServerConfig,
    queue: JobQueue,
    metrics: ServerMetrics,
    stop: AtomicBool,
    drain: AtomicBool,
    hub: EventHub,
    started: Instant,
    timeseries: Mutex<TimeSeries>,
    monitor_stop: AtomicBool,
    monitor_running: AtomicBool,
}

/// The job server; cheap to clone (all state is shared).
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("root", &self.inner.queue.root())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Opens (or creates) a server over the queue at `root`.
    ///
    /// # Errors
    ///
    /// Queue-directory creation failures.
    pub fn open(root: &Path, cfg: ServerConfig) -> io::Result<Server> {
        let queue = JobQueue::open(root)?;
        Ok(Server {
            inner: Arc::new(Inner {
                cfg,
                queue,
                metrics: ServerMetrics::new(),
                stop: AtomicBool::new(false),
                drain: AtomicBool::new(false),
                hub: EventHub::new(),
                started: Instant::now(),
                timeseries: Mutex::new(TimeSeries::new(
                    MonitorConfig::default().ring_capacity,
                )),
                monitor_stop: AtomicBool::new(false),
                monitor_running: AtomicBool::new(false),
            }),
        })
    }

    /// The live-event hub (attach in-process subscribers directly; socket
    /// clients use the `watch`/`subscribe` verbs).
    #[must_use]
    pub fn hub(&self) -> &EventHub {
        &self.inner.hub
    }

    /// Milliseconds since this server instance was opened (the `t_ms`
    /// clock stamped onto every streamed event).
    #[must_use]
    pub fn t_ms(&self) -> u64 {
        u64::try_from(self.inner.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// A copy of the monitor's recorded frames, oldest first.
    #[must_use]
    pub fn timeseries_frames(&self) -> Vec<TsFrame> {
        self.inner
            .timeseries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .frames()
            .copied()
            .collect()
    }

    /// Starts the monitor thread: every `interval` it samples the metrics
    /// into the time-series ring, publishes a `frame` event, refreshes the
    /// queue-depth gauge, evaluates the SLO rules (publishing `alert`
    /// events and bumping the alert counters), and mirrors the hub's
    /// dropped-line total into the scrape. Idempotent: a second call while
    /// the monitor runs is a no-op. Runs detached until
    /// [`stop_monitor`](Self::stop_monitor) or process exit.
    pub fn start_monitor(&self, cfg: MonitorConfig) {
        if self.inner.monitor_running.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.monitor_stop.store(false, Ordering::SeqCst);
        {
            let mut ts = self
                .inner
                .timeseries
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *ts = TimeSeries::new(cfg.ring_capacity);
        }
        let server = self.clone();
        std::thread::spawn(move || server.monitor_loop(cfg));
    }

    /// Asks the monitor thread to exit after its current tick.
    pub fn stop_monitor(&self) {
        self.inner.monitor_stop.store(true, Ordering::SeqCst);
    }

    fn monitor_loop(&self, cfg: MonitorConfig) {
        let inner = &*self.inner;
        let mut watch = SloWatch::new(cfg.rules);
        // Baseline sample so the first sleep's frame has a predecessor.
        self.monitor_tick(&mut watch, cfg.rate_window);
        while !inner.monitor_stop.load(Ordering::SeqCst) && !inner.stop.load(Ordering::SeqCst) {
            std::thread::sleep(cfg.interval);
            self.monitor_tick(&mut watch, cfg.rate_window);
        }
        inner.monitor_running.store(false, Ordering::SeqCst);
    }

    fn monitor_tick(&self, watch: &mut SloWatch, rate_window: usize) {
        let inner = &*self.inner;
        if let Ok(depth) = inner.queue.depth() {
            inner.metrics.set_queue_depth(depth as u64);
        }
        inner.metrics.set_watch_dropped(inner.hub.dropped_total());
        let t_ms = self.t_ms();
        let sample = inner.metrics.ts_sample(t_ms);
        let (frame, alerts) = {
            let mut ts = inner
                .timeseries
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let frame = ts.record(sample);
            let alerts = watch.check(&ts, rate_window, t_ms);
            (frame, alerts)
        };
        if let Some(frame) = frame {
            if inner.hub.has_subscribers() {
                let body = frame_to_json(&frame);
                let line = body
                    .strip_prefix('{')
                    .map_or(body.clone(), |rest| format!("{{\"event\":\"frame\",{rest}"));
                inner.hub.publish_frame(&line);
            }
        }
        for alert in alerts {
            inner.metrics.record_alert(&alert.rule);
            inner.hub.publish_alert(&alert.to_json());
        }
    }

    /// The underlying queue.
    #[must_use]
    pub fn queue(&self) -> &JobQueue {
        &self.inner.queue
    }

    /// The aggregated metrics.
    #[must_use]
    pub fn metrics(&self) -> &ServerMetrics {
        &self.inner.metrics
    }

    /// Asks [`run`](Self::run) to return after the current jobs finish.
    pub fn request_stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
    }

    /// Moves specs stranded in `running/` by a dead incarnation back into
    /// the queue; their manifests make the re-run skip finished trials.
    /// Returns how many were recovered.
    ///
    /// # Errors
    ///
    /// IO failures listing or renaming.
    pub fn recover_stranded(&self) -> io::Result<usize> {
        let stranded = self.inner.queue.stranded()?;
        let n = stranded.len();
        for path in stranded {
            let name = path
                .file_name()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "nameless spec"))?;
            std::fs::rename(&path, self.inner.queue.incoming_dir().join(name))?;
        }
        Ok(n)
    }

    /// Looks up a job's lifecycle state across the queue directories.
    #[must_use]
    pub fn job_state(&self, id: &str) -> JobState {
        let q = &self.inner.queue;
        let name = format!("{id}.json");
        if q.done_dir().join(&name).exists() {
            JobState::Done
        } else if q.failed_dir().join(&name).exists() {
            JobState::Failed
        } else if q.running_dir().join(&name).exists() {
            JobState::Running
        } else if q.incoming_dir().join(&name).exists() {
            JobState::Queued
        } else {
            JobState::Unknown
        }
    }

    /// Runs the worker pool until the exit policy (or
    /// [`request_stop`](Self::request_stop), or an interrupt) says stop.
    /// Blocks the calling thread.
    pub fn run(&self, exit: ExitPolicy) {
        interrupt::install();
        let workers = self.inner.cfg.workers.max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.worker_loop(exit));
            }
        });
    }

    fn worker_loop(&self, exit: ExitPolicy) {
        let inner = &*self.inner;
        let mut idle_since = Instant::now();
        loop {
            if inner.stop.load(Ordering::SeqCst) || interrupt::interrupted() {
                return;
            }
            match inner.queue.claim_next() {
                Ok(Some(path)) => {
                    idle_since = Instant::now();
                    self.execute_spec_file(&path);
                }
                Ok(None) => {
                    let drained = inner.metrics.jobs_in_flight() == 0;
                    if (exit.drain || inner.drain.load(Ordering::SeqCst)) && drained {
                        return;
                    }
                    if let Some(limit) = exit.idle_exit {
                        if drained && idle_since.elapsed() >= limit {
                            return;
                        }
                    }
                    if !drained {
                        idle_since = Instant::now();
                    }
                    std::thread::sleep(inner.cfg.poll_interval);
                }
                Err(e) => {
                    eprintln!("queue poll error: {e}");
                    std::thread::sleep(inner.cfg.poll_interval);
                }
            }
            if let Ok(depth) = inner.queue.depth() {
                inner.metrics.set_queue_depth(depth as u64);
            }
        }
    }

    /// Runs one claimed spec file to completion and retires it.
    fn execute_spec_file(&self, running: &Path) {
        let inner = &*self.inner;
        let started = Instant::now();
        let text = match std::fs::read_to_string(running) {
            Ok(t) => t,
            Err(e) => {
                inner.metrics.record_rejected();
                let _ = inner.queue.finish(running, Some(&format!("unreadable spec: {e}")));
                return;
            }
        };
        let spec = match JobSpec::from_json(text.trim()) {
            Ok(s) => s,
            Err(e) => {
                inner.metrics.record_rejected();
                let _ = inner.queue.finish(running, Some(&e.to_string()));
                return;
            }
        };
        inner.metrics.record_started();
        if inner.hub.has_subscribers() {
            inner.hub.publish_progress(
                &spec.id,
                &format!(
                    "{{\"event\":\"job_started\",\"job\":\"{}\",\"t_ms\":{},\"trials\":{}}}",
                    json_escape(&spec.id),
                    self.t_ms(),
                    spec.trials
                ),
            );
        }
        let progress = ServerProgress {
            metrics: &inner.metrics,
            hub: &inner.hub,
            job: &spec.id,
            epoch: inner.started,
        };
        match run_job_observed(&inner.queue, &inner.cfg, &spec, &progress) {
            Ok(report) => {
                if inner.hub.has_subscribers() {
                    inner.hub.publish_progress(
                        &spec.id,
                        &format!(
                            "{{\"event\":\"job_done\",\"job\":\"{}\",\"t_ms\":{},\"succeeded\":{},\"resumed\":{}}}",
                            json_escape(&spec.id),
                            self.t_ms(),
                            report.run.summary.succeeded,
                            report.run.resumed
                        ),
                    );
                }
                inner.metrics.record_completed(
                    started.elapsed(),
                    &report.run.summary,
                    report.run.resumed,
                    &report.counters,
                    report.registry.as_ref(),
                );
                let _ = inner.queue.finish(running, None);
            }
            Err(e) => {
                if inner.hub.has_subscribers() {
                    inner.hub.publish_progress(
                        &spec.id,
                        &format!(
                            "{{\"event\":\"job_failed\",\"job\":\"{}\",\"t_ms\":{},\"error\":\"{}\"}}",
                            json_escape(&spec.id),
                            self.t_ms(),
                            json_escape(&e)
                        ),
                    );
                }
                inner.metrics.record_failed();
                let _ = inner.queue.finish(running, Some(&e));
            }
        }
    }

    /// Binds a JSONL control socket (see [`protocol`](crate::protocol))
    /// and serves it from a detached thread. Returns the bound address
    /// (bind to port 0 for an ephemeral one).
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn listen(&self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let server = self.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let server = server.clone();
                std::thread::spawn(move || server.serve_connection(stream));
            }
        });
        Ok(local)
    }

    fn serve_connection(&self, stream: TcpStream) {
        let Ok(peer_read) = stream.try_clone() else {
            return;
        };
        let mut writer = stream;
        let reader = BufReader::new(peer_read);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            // `watch`/`subscribe` flip the connection into streaming mode
            // and never come back to request/response.
            match parse_request(&line) {
                Ok(Request::Watch { id }) => {
                    self.stream_events(&mut writer, id, true);
                    return;
                }
                Ok(Request::Subscribe { id }) => {
                    self.stream_events(&mut writer, id, false);
                    return;
                }
                parsed => {
                    let response = self.handle_request(parsed);
                    if writer
                        .write_all(format!("{response}\n").as_bytes())
                        .is_err()
                    {
                        break;
                    }
                }
            }
        }
    }

    /// The post-ack half of a `watch`/`subscribe` connection: pump hub
    /// lines to the socket until the client hangs up or the server stops.
    /// Idle stretches get a blank keepalive line (clients skip empty
    /// lines) so a vanished client is still detected within a few
    /// seconds even when no events flow.
    fn stream_events(&self, writer: &mut TcpStream, id: Option<String>, frames: bool) {
        let sub = self.inner.hub.subscribe(Subscription {
            job: id,
            frames,
            capacity: 0,
        });
        let ack = ok_response(&[("streaming", "true".to_string())]);
        if writer.write_all(format!("{ack}\n").as_bytes()).is_err() {
            return;
        }
        let mut idle_ticks = 0u32;
        loop {
            if let Some(line) = sub.recv_timeout(Duration::from_millis(250)) {
                idle_ticks = 0;
                if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                    return;
                }
            } else {
                if self.inner.stop.load(Ordering::SeqCst) || interrupt::interrupted() {
                    return;
                }
                idle_ticks += 1;
                if idle_ticks >= 8 {
                    idle_ticks = 0;
                    if writer.write_all(b"\n").is_err() {
                        return;
                    }
                }
            }
        }
    }

    fn handle_request(&self, parsed: Result<Request, String>) -> String {
        let inner = &*self.inner;
        match parsed {
            Err(msg) => {
                inner.metrics.record_rejected();
                error_response(&msg)
            }
            Ok(Request::Ping) => ok_response(&[("pong", "true".to_string())]),
            Ok(Request::Submit(spec)) => match inner.queue.submit(&spec) {
                Ok(_) => {
                    inner.metrics.record_submitted();
                    ok_response(&[("id", format!("\"{}\"", spec.id))])
                }
                Err(e) => {
                    inner.metrics.record_rejected();
                    error_response(&format!("submit failed: {e}"))
                }
            },
            Ok(Request::Status { id }) => {
                let state = self.job_state(&id);
                ok_response(&[
                    ("id", format!("\"{}\"", json_escape(&id))),
                    ("state", format!("\"{}\"", state.label())),
                ])
            }
            Ok(Request::Stats) => {
                let depths = inner.queue.state_depths().unwrap_or_default();
                let mut fields = vec![
                    ("completed", inner.metrics.jobs_completed().to_string()),
                    ("failed", inner.metrics.jobs_failed().to_string()),
                    ("in_flight", inner.metrics.jobs_in_flight().to_string()),
                    ("queue_depth", depths.incoming.to_string()),
                    (
                        "states",
                        format!(
                            "{{\"queued\":{},\"running\":{},\"done\":{},\"failed\":{}}}",
                            depths.incoming, depths.running, depths.done, depths.failed
                        ),
                    ),
                    ("watch_dropped", inner.hub.dropped_total().to_string()),
                ];
                if let Some((p50, p95, p99)) = inner.metrics.latency_quantiles() {
                    fields.push((
                        "latency_ms",
                        format!("{{\"p50\":{p50:?},\"p95\":{p95:?},\"p99\":{p99:?}}}"),
                    ));
                }
                ok_response(&fields)
            }
            // Streaming verbs are intercepted in `serve_connection`; seeing
            // one here means the transport can't stream (shouldn't happen
            // over the socket).
            Ok(Request::Watch { .. } | Request::Subscribe { .. }) => {
                error_response("watch/subscribe require a streaming connection")
            }
            Ok(Request::Shutdown) => {
                inner.drain.store(true, Ordering::SeqCst);
                ok_response(&[("draining", "true".to_string())])
            }
        }
    }

    /// Binds a minimal HTTP endpoint serving the Prometheus scrape body
    /// on every GET, from a detached thread. Returns the bound address.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn serve_metrics(&self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let server = self.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                // Drain the request head; the path is irrelevant (every
                // GET gets the scrape).
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let body = server.inner.metrics.render_prometheus();
                let head = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                );
                let _ = stream.write_all(head.as_bytes());
                let _ = stream.write_all(body.as_bytes());
            }
        });
        Ok(local)
    }
}

/// The per-job progress sink: tallies every event into the live metrics
/// and — only when someone is watching — formats it onto the hub with
/// the job id and server clock spliced in. The hub path is try-push all
/// the way down, so this sink never blocks a trial thread.
struct ServerProgress<'a> {
    metrics: &'a ServerMetrics,
    hub: &'a EventHub,
    job: &'a str,
    epoch: Instant,
}

impl ProgressSink for ServerProgress<'_> {
    fn on_event(&self, event: &ProgressEvent) {
        self.metrics.record_progress(event);
        if self.hub.has_subscribers() {
            let t_ms = u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
            self.hub
                .publish_progress(self.job, &with_job_fields(&event.to_json(), self.job, t_ms));
        }
    }
}

/// What one completed job reports back.
#[derive(Debug)]
pub struct JobReport {
    /// The trial-run outcome (outcomes, supervision tally, resume count).
    pub run: TrialRun,
    /// Engine counters merged over every trial run here.
    pub counters: EngineCounters,
    /// Span histograms, when [`ServerConfig::collect_spans`] is on.
    pub registry: Option<MetricsRegistry>,
}

/// Executes one validated spec: builds the scenario, shards the trials
/// through the supervised manifest runner, and writes the job artifacts.
///
/// # Errors
///
/// A human-readable failure reason (spec invalid, manifest IO/corruption,
/// or artifact write errors).
pub fn run_job(queue: &JobQueue, cfg: &ServerConfig, spec: &JobSpec) -> Result<JobReport, String> {
    run_job_observed(queue, cfg, spec, &NoopProgress)
}

/// [`run_job`] with a progress sink observing every trial event. The
/// unobserved form is this one with [`NoopProgress`] — one code path, so
/// attaching a sink cannot change results.
///
/// # Errors
///
/// Same as [`run_job`].
pub fn run_job_observed(
    queue: &JobQueue,
    cfg: &ServerConfig,
    spec: &JobSpec,
    progress: &dyn ProgressSink,
) -> Result<JobReport, String> {
    let scenario = Arc::new(spec.build_scenario().map_err(|e| e.to_string())?);
    let job_dir = queue.job_dir(&spec.id);
    std::fs::create_dir_all(&job_dir).map_err(|e| format!("creating job dir: {e}"))?;
    let mut manifest = TrialManifest::open(&job_dir.join("manifest.jsonl"))
        .map_err(|e| format!("opening manifest: {e}"))?;

    let counters_acc = Arc::new(Mutex::new(EngineCounters::default()));
    let registry_acc = Arc::new(Mutex::new(MetricsRegistry::new()));
    let events_dir = job_dir.join("events");
    if spec.telemetry {
        std::fs::create_dir_all(&events_dir).map_err(|e| format!("creating events dir: {e}"))?;
    }

    let trial_fn = {
        let scenario = Arc::clone(&scenario);
        let counters_acc = Arc::clone(&counters_acc);
        let registry_acc = Arc::clone(&registry_acc);
        let events_dir = events_dir.clone();
        let collect_spans = cfg.collect_spans;
        let telemetry = spec.telemetry;
        let max_rounds = spec.max_rounds;
        move |seed: u64| -> RunResult {
            let mut sim = scenario.simulation_with_seed(seed);
            if collect_spans {
                sim.set_metrics_enabled(true);
            }
            if telemetry {
                sim.set_telemetry_sink(Box::new(MemorySink::new(TelemetryDetail::counts())));
            }
            let result = sim.run_until_resolved(max_rounds);
            {
                let mut c = counters_acc.lock().unwrap_or_else(PoisonError::into_inner);
                c.merge(&sim.engine_counters());
            }
            if collect_spans {
                if let Some(m) = sim.metrics() {
                    let mut r = registry_acc.lock().unwrap_or_else(PoisonError::into_inner);
                    r.merge(m);
                }
            }
            if telemetry {
                if let Some(mem) = sim.take_telemetry_sink().and_then(MemorySink::recover) {
                    let path = events_dir.join(format!("{seed}.jsonl"));
                    if let Err(e) = write_events_to_path(&path, mem.events()) {
                        eprintln!("warning: telemetry stream for seed {seed} not written: {e}");
                    }
                }
            }
            result
        }
    };

    let run = TrialRunner::new(spec.trials, cfg.trial_threads, spec.seed_base)
        .supervisor(cfg.supervisor)
        .manifest(&mut manifest)
        .progress(progress)
        .run(trial_fn)
        .map_err(|e| format!("trial fleet failed: {e}"))?;

    write_artifacts(&job_dir, spec, &run).map_err(|e| format!("writing artifacts: {e}"))?;
    let counters = *counters_acc.lock().unwrap_or_else(PoisonError::into_inner);
    let registry = cfg.collect_spans.then(|| {
        registry_acc
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    });
    Ok(JobReport {
        run,
        counters,
        registry,
    })
}

/// Formats an `f64` for the result JSON (always finite here).
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:?}")
    }
}

/// Writes `trials.jsonl` (seed-ordered, byte-stable across resumes) and
/// `result.json`.
fn write_artifacts(job_dir: &Path, spec: &JobSpec, run: &TrialRun) -> io::Result<()> {
    let mut trials = String::new();
    let mut completed: Vec<RunResult> = Vec::with_capacity(run.outcomes.len());
    for outcome in &run.outcomes {
        if let Some(result) = outcome.result() {
            trials.push_str(&trial_line(outcome.seed(), result));
            trials.push('\n');
            completed.push(result.clone());
        }
    }
    std::fs::write(job_dir.join("trials.jsonl"), trials)?;

    let summary = Summary::from_results(&completed);
    let result_json = format!(
        "{{\"id\":\"{}\",\"trials\":{},\"resumed\":{},\"complete\":{},\"fleet\":{},\"summary\":{{\"trials\":{},\"success_rate\":{},\"mean_rounds\":{},\"std_rounds\":{},\"min_rounds\":{},\"median_rounds\":{},\"p95_rounds\":{},\"max_rounds\":{},\"mean_transmissions\":{}}}}}\n",
        spec.id,
        spec.trials,
        run.resumed,
        run.complete(),
        run.summary.to_json(),
        summary.trials,
        fmt_f64(summary.success_rate),
        fmt_f64(summary.mean_rounds),
        fmt_f64(summary.std_rounds),
        summary.min_rounds,
        fmt_f64(summary.median_rounds),
        fmt_f64(summary.p95_rounds),
        summary.max_rounds,
        fmt_f64(summary.mean_transmissions),
    );
    std::fs::write(job_dir.join("result.json"), result_json)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("fading-server-test")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn drain_runs_submitted_jobs_and_writes_artifacts() {
        let root = tmp_root("drain");
        let server = Server::open(&root, ServerConfig::default()).unwrap();
        let mut spec = JobSpec::example("drain-1");
        spec.trials = 3;
        spec.telemetry = true;
        server.queue().submit(&spec).unwrap();
        server.metrics().record_submitted();
        server.run(ExitPolicy::drain());

        assert_eq!(server.metrics().jobs_completed(), 1);
        assert!(server.queue().is_done("drain-1"));
        assert_eq!(server.job_state("drain-1"), JobState::Done);
        let job_dir = server.queue().job_dir("drain-1");
        let trials = std::fs::read_to_string(job_dir.join("trials.jsonl")).unwrap();
        assert_eq!(trials.lines().count(), 3);
        let result = std::fs::read_to_string(job_dir.join("result.json")).unwrap();
        assert!(result.contains("\"complete\":true"), "{result}");
        // Telemetry streamed one event file per trial seed.
        for i in 0..3 {
            let seed = spec.seed_base + i;
            assert!(job_dir.join("events").join(format!("{seed}.jsonl")).exists());
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn invalid_specs_are_rejected_into_failed() {
        let root = tmp_root("reject");
        let server = Server::open(&root, ServerConfig::default()).unwrap();
        std::fs::write(
            server.queue().incoming_dir().join("broken.json"),
            "{\"id\":\"broken\",\"n\":1}\n",
        )
        .unwrap();
        server.run(ExitPolicy::drain());
        assert!(server.queue().is_failed("broken"));
        assert_eq!(server.job_state("broken"), JobState::Failed);
        let err = std::fs::read_to_string(server.queue().failed_dir().join("broken.error")).unwrap();
        assert!(!err.trim().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn hub_subscribers_see_seed_ordered_progress_and_lifecycle() {
        let root = tmp_root("watch-unit");
        let server = Server::open(&root, ServerConfig::default()).unwrap();
        let sub = server.hub().subscribe(Subscription::watch_all());
        let mut spec = JobSpec::example("w1");
        spec.trials = 3;
        server.queue().submit(&spec).unwrap();
        server.run(ExitPolicy::drain());

        let lines = sub.drain();
        assert!(lines[0].contains("\"event\":\"job_started\""), "{lines:?}");
        assert!(
            lines.last().unwrap().contains("\"event\":\"job_done\""),
            "{lines:?}"
        );
        // With the default single trial thread, trial events arrive in
        // strict seed order: started/finished pairs for each seed.
        let trials: Vec<ProgressEvent> = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"trial_"))
            .map(|l| ProgressEvent::from_json(l).expect("spliced lines parse"))
            .collect();
        assert_eq!(trials.len(), 6);
        for (i, pair) in trials.chunks(2).enumerate() {
            let seed = spec.seed_base + i as u64;
            assert!(
                matches!(pair[0], ProgressEvent::TrialStarted { seed: s } if s == seed),
                "{pair:?}"
            );
            assert!(
                matches!(pair[1], ProgressEvent::TrialFinished { seed: s, .. } if s == seed),
                "{pair:?}"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn job_results_are_deterministic_across_reruns() {
        let cfg = ServerConfig::default();
        let root_a = tmp_root("det-a");
        let root_b = tmp_root("det-b");
        let mut spec = JobSpec::example("det");
        spec.trials = 4;
        for root in [&root_a, &root_b] {
            let server = Server::open(root, cfg.clone()).unwrap();
            server.queue().submit(&spec).unwrap();
            server.run(ExitPolicy::drain());
        }
        let a = std::fs::read(JobQueue::open(&root_a).unwrap().job_dir("det").join("trials.jsonl"))
            .unwrap();
        let b = std::fs::read(JobQueue::open(&root_b).unwrap().job_dir("det").join("trials.jsonl"))
            .unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same spec, byte-identical trials.jsonl");
        std::fs::remove_dir_all(&root_a).ok();
        std::fs::remove_dir_all(&root_b).ok();
    }
}
