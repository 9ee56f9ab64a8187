//! The server layers, measured with one job through an in-process
//! `fading-server`: the job is submitted over the TCP control socket and
//! its `job_started`/`job_done` lines are stamped as they arrive on a
//! `watch` connection. `run_job` then runs the same spec outside the
//! worker loop, which splits execution into the job's own work and server
//! overhead.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use fading_cr::jobspec::JobSpec;
use fading_server::queue::JobQueue;
use fading_server::server::run_job;
use fading_server::{ExitPolicy, Server, ServerConfig};

use crate::report::Outcome;

/// How long the job may take before the probe gives up.
const DONE_TIMEOUT: Duration = Duration::from_secs(120);

/// The server's default tunables with two job workers.
fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn connect(addr: SocketAddr) -> io::Result<BufReader<TcpStream>> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(DONE_TIMEOUT))?;
    Ok(BufReader::new(s))
}

/// Sends one request line and checks the reply is `ok`.
fn request(conn: &mut BufReader<TcpStream>, line: &str) -> io::Result<()> {
    conn.get_mut().write_all(line.as_bytes())?;
    let mut reply = String::new();
    conn.read_line(&mut reply)?;
    if reply.contains("\"ok\":true") {
        Ok(())
    } else {
        Err(io::Error::other(format!("server replied {reply:?}")))
    }
}

/// Runs `spec` through a fresh server under `work` (deleted afterwards)
/// and sets the `server.*` layers. Returns the job's `trials.jsonl`.
pub fn job_probe(work: &Path, spec: &JobSpec, out: &mut Outcome) -> Result<Vec<u8>, String> {
    let result = probe_in(work, spec, out);
    let _ = std::fs::remove_dir_all(work);
    result.map_err(|e| format!("job probe: {e}"))
}

fn probe_in(work: &Path, spec: &JobSpec, out: &mut Outcome) -> io::Result<Vec<u8>> {
    let root = work.join("queue");
    let server = Server::open(&root, config())?;
    let addr = server.listen("127.0.0.1:0")?;
    let runner = {
        let server = server.clone();
        std::thread::spawn(move || server.run(ExitPolicy::forever()))
    };
    let timings = submit_and_watch(addr, spec);
    server.request_stop();
    runner.join().expect("server workers exit cleanly");
    let (submit_ms, queue_wait_ms, exec_ms) = timings?;
    out.set("server.submit_ms", submit_ms);
    out.set("server.queue_wait_ms", queue_wait_ms);
    out.set("server.exec_ms", exec_ms);
    let bytes = std::fs::read(root.join("jobs").join(&spec.id).join("trials.jsonl"))?;

    let direct = JobQueue::open(&work.join("direct"))?;
    let t = Instant::now();
    run_job(&direct, &config(), spec).map_err(io::Error::other)?;
    out.set("server.run_job_ms", ms(t.elapsed()));
    Ok(bytes)
}

/// Submits `spec` and follows it on the watch stream. Returns the submit
/// round trip, submit → `job_started` and `job_started` → `job_done`, in
/// milliseconds.
fn submit_and_watch(addr: SocketAddr, spec: &JobSpec) -> io::Result<(f64, f64, f64)> {
    let mut watch = connect(addr)?;
    request(&mut watch, "{\"cmd\":\"watch\"}\n")?;
    let mut submit = connect(addr)?;
    let sent = Instant::now();
    request(
        &mut submit,
        &format!("{{\"cmd\":\"submit\",\"job\":{}}}\n", spec.to_json()),
    )?;
    let submit_ms = ms(sent.elapsed());
    let ours = format!("\"job\":\"{}\"", spec.id);
    let mut started = None;
    let mut line = String::new();
    while sent.elapsed() < DONE_TIMEOUT {
        line.clear();
        if watch.read_line(&mut line)? == 0 {
            break;
        }
        let at = Instant::now();
        if !line.contains(&ours) {
            continue;
        }
        if line.contains("\"event\":\"job_started\"") {
            started = Some(at);
        } else if line.contains("\"event\":\"job_done\"") {
            let s = started.ok_or_else(|| io::Error::other("job_done before job_started"))?;
            return Ok((submit_ms, ms(s - sent), ms(at - s)));
        } else if line.contains("\"event\":\"job_failed\"") {
            return Err(io::Error::other(line.trim().to_string()));
        }
    }
    Err(io::Error::other(format!("job {} did not finish", spec.id)))
}
