//! The `served_mix` workload: a child `served serve --workers 1` on
//! loopback with a temporary state directory, driven by one
//! load-generator process with two threads and at most one connection
//! each (the machine's two cores):
//!
//! * an **open loop** of `GET /healthz`, `GET /jobs` and
//!   `GET /jobs/<id>` at [`OPEN_LOOP_RATE`] requests/s with Poisson
//!   arrivals drawn from the workload seed; each request is timed from
//!   the moment it was due, so a stall also charges the requests queued
//!   behind it;
//! * a **closed loop** of `CampaignConfig::smoke()`-size jobs: submit,
//!   follow the job's stream on a live WebSocket subscriber until
//!   `job_done`, fetch `/result`, then replay the finished log on a late
//!   subscriber.
//!
//! The daemon is killed and its state directory removed on every exit
//! path (the guard's `Drop` runs during a panic's unwind too).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wsn_bench::campaign::{
    run_campaign, run_campaign_resumable, CampaignConfig, CampaignRun, CancelAfter,
};
use wsn_serve::ws::{accept_key, decode_frame, encode_frame, Frame, Opcode};
use wsn_serve::CheckpointStore;
use wsn_simcore::{derive_stream_seed, SimRng};
use wsn_stats::JsonValue;

use crate::trace::Tracer;
use crate::workloads::Workload;
use crate::{median, ms, percentile, Metric, Report, OUT_DIR};

/// Open-loop arrival rate, requests/s. The daemon's accept loop sleeps
/// 25 ms between polls, so one connection at a time saturates near
/// 40 requests/s; this rate keeps the loop well below that.
pub const OPEN_LOOP_RATE: f64 = 12.0;

/// Daemon spawns timed for `setup_s` (the last one serves the run).
const SETUP_SPAWNS: usize = 5;

/// Per-operation socket timeout: a request slower than this failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Checkpoint cadence passed to the daemon, in trials: a smoke job (30
/// trials) then writes three mid-run checkpoints.
const CHECKPOINT_EVERY: &str = "8";

/// A running daemon. Dropping it kills the process, waits for it and
/// removes its state directory.
struct Daemon {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    dir: PathBuf,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Daemon {
    /// Spawns the daemon and waits for its first `200` from `/healthz`;
    /// returns it with the time that took.
    fn spawn(bin: &Path, dir: PathBuf) -> io::Result<(Daemon, Duration)> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .args(["--checkpoint-every", CHECKPOINT_EVERY])
            .arg("--state-dir")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            _stdout: BufReader::new(stdout),
            dir,
            addr: String::new(),
        };
        let mut line = String::new();
        daemon._stdout.read_line(&mut line)?;
        daemon.addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| io::Error::other(format!("unexpected daemon banner {line:?}")))?
            .to_owned();
        loop {
            if let Ok(r) = http(&daemon.addr, "GET", "/healthz", None) {
                if r.status == 200 {
                    return Ok((daemon, start.elapsed()));
                }
            }
            if start.elapsed() > IO_TIMEOUT {
                return Err(io::Error::other("daemon never answered /healthz"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// One HTTP exchange with its phase timestamps.
struct Exchange {
    status: u16,
    body: String,
    start: Instant,
    connected: Instant,
    first_byte: Instant,
}

/// Reads a response head; returns the status and lower-cased headers.
fn read_head(reader: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("status line {line:?}"))
        })?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
        }
    }
    Ok((status, headers))
}

/// One request on a fresh connection (the daemon serves one request per
/// connection), timing connect and time to first byte.
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> io::Result<Exchange> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    reader.fill_buf()?;
    let first_byte = Instant::now();
    let (status, headers) = read_head(&mut reader)?;
    let length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let mut bytes = Vec::new();
    match length {
        Some(n) => {
            bytes.resize(n, 0);
            reader.read_exact(&mut bytes)?;
        }
        None => {
            reader.read_to_end(&mut bytes)?;
        }
    }
    let body = String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok(Exchange {
        status,
        body,
        start,
        connected,
        first_byte,
    })
}

/// A WebSocket subscription followed to the server's close frame.
struct Subscription {
    start: Instant,
    upgraded: Instant,
    closed: Instant,
    /// Every text frame with its arrival time.
    lines: Vec<(String, Instant)>,
}

/// Subscribes to `path` and reads text frames until the close frame.
fn subscribe(addr: &str, path: &str) -> io::Result<Subscription> {
    let key = wsn_serve::base64::encode(b"wsn-benchmark-ws");
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: {addr}\r\nupgrade: websocket\r\nconnection: Upgrade\r\n\
         sec-websocket-key: {key}\r\nsec-websocket-version: 13\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let (status, headers) = read_head(&mut reader)?;
    let upgraded = Instant::now();
    let echoed = headers
        .iter()
        .find(|(k, _)| k == "sec-websocket-accept")
        .map(|(_, v)| v.as_str());
    if status != 101 || echoed != Some(accept_key(&key).as_str()) {
        return Err(io::Error::other(format!("upgrade refused ({status})")));
    }
    let mut lines = Vec::new();
    let mut inbuf: Vec<u8> = reader.buffer().to_vec();
    reader.consume(inbuf.len());
    let mut chunk = [0u8; 8192];
    loop {
        while let Some((frame, used)) = decode_frame(&inbuf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))?
        {
            inbuf.drain(..used);
            match frame.opcode {
                Opcode::Text => lines.push((
                    String::from_utf8(frame.payload).map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 text frame")
                    })?,
                    Instant::now(),
                )),
                Opcode::Close => {
                    let closed = Instant::now();
                    let _ = stream.write_all(&encode_frame(&frame, Some([7, 7, 7, 7])));
                    return Ok(Subscription {
                        start,
                        upgraded,
                        closed,
                        lines,
                    });
                }
                Opcode::Ping => {
                    let pong = Frame {
                        fin: true,
                        opcode: Opcode::Pong,
                        payload: frame.payload,
                    };
                    stream.write_all(&encode_frame(&pong, Some([1, 2, 3, 4])))?;
                }
                _ => {}
            }
        }
        match reader.read(&mut chunk)? {
            0 => return Err(io::Error::other("stream ended without a close frame")),
            n => inbuf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// The `event` field of a `wsn-serve/1` line.
fn event_of(line: &str) -> Option<String> {
    JsonValue::parse(line)
        .ok()?
        .get("event")?
        .as_str()
        .map(str::to_owned)
}

/// What the open loop measured.
#[derive(Default)]
struct OpenLoop {
    /// Latency from due time, ms; failed requests are `+inf`.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    ttfb_ms: Vec<f64>,
    failed: u64,
    tracer: Option<Tracer>,
}

fn open_loop(
    addr: &str,
    seed: u64,
    until: Instant,
    latest_job: &Mutex<Option<String>>,
    origin: Instant,
) -> OpenLoop {
    let mut rng = SimRng::seed_from_u64(derive_stream_seed(seed, &[1]));
    let mut out = OpenLoop {
        tracer: Some(Tracer::new(origin)),
        ..OpenLoop::default()
    };
    let tracer = out.tracer.as_mut().expect("just set");
    let mut due = Instant::now();
    for request in 0u64.. {
        let gap = -(1.0 - rng.uniform_f64()).ln() / OPEN_LOOP_RATE;
        due += Duration::from_secs_f64(gap);
        if due >= until {
            break;
        }
        let route = rng.range_usize(3);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        out.late_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        let path = match (route, latest_job.lock().expect("job id lock").clone()) {
            (1, _) => "/jobs".to_owned(),
            (2, Some(id)) => format!("/jobs/{id}"),
            _ => "/healthz".to_owned(),
        };
        tracer.set_trial(request);
        match http(addr, "GET", &path, None) {
            Ok(x) if x.status == 200 => {
                let done = Instant::now();
                out.latency_ms.push(ms(done - due));
                out.connect_ms.push(ms(x.connected - x.start));
                out.ttfb_ms.push(ms(x.first_byte - x.connected));
                tracer.record("serve.connect", x.start, x.connected);
                tracer.record("serve.ttfb", x.connected, x.first_byte);
            }
            Ok(x) => {
                eprintln!("open loop: GET {path} answered {}", x.status);
                out.latency_ms.push(f64::INFINITY);
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("open loop: GET {path} failed: {e}");
                out.latency_ms.push(f64::INFINITY);
                out.failed += 1;
            }
        }
    }
    out
}

/// One finished job of the closed loop.
struct FinishedJob {
    config: CampaignConfig,
    result: String,
}

/// What the closed loop measured.
#[derive(Default)]
struct ClosedLoop {
    jobs: Vec<FinishedJob>,
    trials: u64,
    wall: Duration,
    job_s: Vec<f64>,
    replay_ms: Vec<f64>,
    upgrade_ms: Vec<f64>,
    frame_gap_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    checkpoints: Vec<f64>,
    attempted: u64,
    failed: u64,
    tracer: Option<Tracer>,
}

impl ClosedLoop {
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(name, start, end);
        }
    }

    fn fail(&mut self, what: String) {
        eprintln!("closed loop: {what}");
        self.failed += 1;
    }

    /// One job: submit, follow live, fetch the result, replay late.
    fn job(&mut self, addr: &str, config: CampaignConfig, latest_job: &Mutex<Option<String>>) {
        self.attempted += 4;
        let posted = match http(addr, "POST", "/jobs", Some(&config.to_json().to_string())) {
            Ok(x) if x.status == 201 => x,
            Ok(x) => return self.fail(format!("POST /jobs answered {}: {}", x.status, x.body)),
            Err(e) => return self.fail(format!("POST /jobs failed: {e}")),
        };
        let Some(id) = JsonValue::parse(&posted.body)
            .ok()
            .and_then(|v| v.get("id")?.as_str().map(str::to_owned))
        else {
            return self.fail(format!("POST /jobs returned no id: {}", posted.body));
        };
        *latest_job.lock().expect("job id lock") = Some(id.clone());
        let stream_path = format!("/jobs/{id}/stream");
        let live = match subscribe(addr, &stream_path) {
            Ok(s) => s,
            Err(e) => return self.fail(format!("live subscriber of {id}: {e}")),
        };
        self.record("serve.ws_upgrade", live.start, live.upgraded);
        let events: Vec<Option<String>> = live.lines.iter().map(|(l, _)| event_of(l)).collect();
        let at = |name: &str| {
            events
                .iter()
                .position(|e| e.as_deref() == Some(name))
                .map(|i| live.lines[i].1)
        };
        let (Some(started), Some(done)) = (at("job_started"), at("job_done")) else {
            return self.fail(format!("{id}: stream ended without job_started/job_done"));
        };
        self.job_s.push((done - posted.start).as_secs_f64());
        self.queue_wait_ms.push(ms(started - posted.start));
        self.upgrade_ms.push(ms(live.upgraded - live.start));
        self.checkpoints.push(
            events
                .iter()
                .filter(|e| e.as_deref() == Some("checkpoint"))
                .count() as f64,
        );
        let mut prev = live.upgraded;
        for (_, t) in &live.lines {
            self.frame_gap_ms.push(ms(*t - prev));
            prev = *t;
        }
        self.record("serve.job", posted.start, done);
        let result = match http(addr, "GET", &format!("/jobs/{id}/result"), None) {
            Ok(x) if x.status == 200 => x.body,
            Ok(x) => return self.fail(format!("GET result of {id} answered {}", x.status)),
            Err(e) => return self.fail(format!("GET result of {id} failed: {e}")),
        };
        self.trials += config.trial_count();
        self.jobs.push(FinishedJob { config, result });
        match subscribe(addr, &stream_path) {
            Ok(late) => {
                self.replay_ms.push(ms(late.closed - late.start));
                self.record("serve.replay", late.start, late.closed);
                let same = late
                    .lines
                    .iter()
                    .map(|(l, _)| l)
                    .eq(live.lines.iter().map(|(l, _)| l));
                if !same {
                    self.fail(format!(
                        "{id}: the late subscriber replayed a different log"
                    ));
                }
            }
            Err(e) => self.fail(format!("late subscriber of {id}: {e}")),
        }
    }
}

/// Median time of `CheckpointStore::save_checkpoint` for a checkpoint
/// of the served job's shape (a smoke job interrupted after 8 trials).
fn checkpoint_save_ms(seed: u64) -> io::Result<f64> {
    let config = Workload::ServedMix.job(seed, 0).remove(0).with_workers(1);
    let checkpoint = match run_campaign_resumable(&config, None, &CancelAfter::new(8)) {
        Ok(CampaignRun::Interrupted(cp)) => cp,
        _ => {
            return Err(io::Error::other(
                "the smoke job did not stop at its checkpoint",
            ))
        }
    };
    let dir = PathBuf::from(OUT_DIR).join(format!("checkpoints-{}", std::process::id()));
    let store = CheckpointStore::open(&dir)?;
    let mut samples = Vec::new();
    let mut result = Ok(());
    for _ in 0..31 {
        let start = Instant::now();
        if let Err(e) = store.save_checkpoint("job-bench", &checkpoint) {
            result = Err(e);
            break;
        }
        samples.push(ms(start.elapsed()));
    }
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| median(&samples))
}

/// Runs `served_mix`; returns its metrics (end-to-end, or per-layer
/// when `traced`) and the client-side spans.
///
/// # Errors
///
/// The daemon could not be started.
pub fn run(
    served_bin: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> io::Result<(Vec<Metric>, Tracer)> {
    let state_dir =
        |i: usize| PathBuf::from(OUT_DIR).join(format!("served-{}-{i}", std::process::id()));
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_SPAWNS {
        let (d, took) = Daemon::spawn(served_bin, state_dir(i))?;
        setups.push(took.as_secs_f64());
        daemon = Some(d); // dropping the previous one kills it
    }
    let daemon = daemon.expect("at least one spawn");
    let origin = Instant::now();
    let latest_job: Mutex<Option<String>> = Mutex::new(None);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let (open, closed) = std::thread::scope(|scope| {
        let open = scope.spawn(|| open_loop(&daemon.addr, seed, until, &latest_job, origin));
        let closed = scope.spawn(|| {
            let mut c = ClosedLoop {
                tracer: Some(Tracer::new(origin)),
                ..ClosedLoop::default()
            };
            let mut k = 0u64;
            while Instant::now() < until {
                let config = Workload::ServedMix.job(seed, k).remove(0);
                c.job(&daemon.addr, config, &latest_job);
                k += 1;
            }
            c.wall = start.elapsed();
            c
        });
        (
            open.join().expect("open-loop thread"),
            closed.join().expect("closed-loop thread"),
        )
    });
    let peak_rss = crate::peak_rss_mib(&daemon.child.id().to_string()).unwrap_or(0.0);
    drop(daemon);

    // Output check: every finished job's /result is byte-identical to a
    // direct run of its config.
    for job in &closed.jobs {
        let direct = run_campaign(&job.config.clone().with_workers(crate::nproc()))
            .map(|r| r.to_json().to_file_string());
        report.check(direct.as_deref() == Ok(job.result.as_str()), || {
            format!(
                "/result of job {} differs from a direct run",
                job.config.master_seed
            )
        });
    }
    report.attempted += open.latency_ms.len() as u64 + closed.attempted;
    report.failed += open.failed + closed.failed;

    let mut tracer = Tracer::new(origin);
    tracer.absorb(open.tracer.expect("set at start"));
    tracer.absorb(closed.tracer.expect("set at start"));
    let metrics = if traced {
        vec![
            Metric::new("serve.connect_ms_p50", median(&open.connect_ms), "ms"),
            Metric::new("serve.ttfb_ms_p50", median(&open.ttfb_ms), "ms"),
            Metric::new("serve.ttfb_ms_p99", percentile(&open.ttfb_ms, 0.99), "ms"),
            Metric::new("serve.ws_upgrade_ms_p50", median(&closed.upgrade_ms), "ms"),
            Metric::new(
                "serve.ws_frame_gap_ms_p99",
                percentile(&closed.frame_gap_ms, 0.99),
                "ms",
            ),
            Metric::new(
                "serve.job_queue_wait_ms_p50",
                median(&closed.queue_wait_ms),
                "ms",
            ),
            Metric::new(
                "serve.checkpoint_save_ms_p50",
                checkpoint_save_ms(seed)?,
                "ms",
            ),
            Metric::new(
                "serve.checkpoints_per_job",
                closed.checkpoints.iter().sum::<f64>() / closed.checkpoints.len().max(1) as f64,
                "count",
            ),
            Metric::new(
                "serve.loadgen_late_ms_p99",
                percentile(&open.late_ms, 0.99),
                "ms",
            ),
            Metric::new(
                "serve.requests",
                (open.latency_ms.len() as u64 + closed.attempted) as f64,
                "count",
            ),
            Metric::new(
                "serve.requests_failed",
                (open.failed + closed.failed) as f64,
                "count",
            ),
        ]
    } else {
        eprintln!(
            "served_mix: {} open-loop requests at {OPEN_LOOP_RATE}/s, {} jobs",
            open.latency_ms.len(),
            closed.jobs.len()
        );
        vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new(
                "trials_per_s",
                closed.trials as f64 / closed.wall.as_secs_f64(),
                "trials/s",
            ),
            Metric::new("peak_rss_mb", peak_rss, "MiB"),
            Metric::new("req_ms_p50", median(&open.latency_ms), "ms"),
            Metric::new("req_ms_p99", percentile(&open.latency_ms, 0.99), "ms"),
            Metric::new("job_s_p50", median(&closed.job_s), "s"),
            Metric::new("replay_ms_p50", median(&closed.replay_ms), "ms"),
        ]
    };
    Ok((metrics, tracer))
}
