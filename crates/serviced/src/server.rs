//! The racerepd server: accept loop, bounded job queue, worker pool, and
//! graceful drain.
//!
//! # Shape
//!
//! One acceptor thread (the caller of [`Server::run`]) owns the listener;
//! cheap requests (`stats`, `shutdown`) are answered inline, `submit`
//! requests go through explicit admission control into a bounded queue.
//! When the queue is full the client is told to come back
//! (`retry_after_ms`), never silently buffered — under overload the server
//! sheds load instead of growing without bound.
//!
//! Worker threads pop jobs and run the existing plan/execute/assemble
//! classification engine with `jobs = 1`: each worker *is* one engine
//! lane, so a pool of N workers classifies N submissions concurrently
//! without oversubscribing, and each worker's single [`Vproc`] reuses its
//! snapshot arena across every replay of a job. With a cache directory,
//! finished reports go into the [`ReportMemo`], so a resubmitted workload
//! is answered from one file with zero virtual-processor executions.
//!
//! Drain (SIGTERM/ctrl-c on unix, or a protocol `shutdown` request) stops
//! the accept loop, lets the workers finish every queued job, and returns.
//! Memo entries are durable once written, so there is nothing to flush.
//!
//! [`Vproc`]: idna_replay::vproc::Vproc

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use minijson::Json;
use replay_race::classify::{static_predictions, ClassifierConfig};
use replay_race::pipeline::{analyze, Analysis};
use tvm::asm::assemble;
use tvm::predecode::DecodedProgram;

use crate::container::log_from_bytes_mode;
use crate::memo::{MemoKey, ReportMemo};
use crate::proto::{b64_decode, read_frame, write_frame, ProtoError};
use idna_replay::codec::DecodeMode;

/// Server options (the `racerep serve` flags).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7199` (port 0 picks an ephemeral
    /// port; see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads classifying submissions concurrently.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are rejected with a
    /// retry hint.
    pub queue_capacity: usize,
    /// Directory for the report memo; `None` classifies every submission
    /// from scratch.
    pub cache_dir: Option<PathBuf>,
    /// The classification engine configuration. `jobs` is forced to 1 per
    /// worker — the pool is the parallelism.
    pub classifier: ClassifierConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7199".into(),
            workers: 2,
            queue_capacity: 64,
            cache_dir: None,
            classifier: ClassifierConfig::default(),
        }
    }
}

/// Monotone counters exposed through the `stats` request.
#[derive(Default, Debug)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    /// Per-phase wall-clock nanos, summed across jobs: decode (assembly
    /// and container) plus the [`analyze`] phase timings. Classify also
    /// counts the static predictions under `--trust-static`; report also
    /// counts rendering the report JSON.
    decode_ns: AtomicU64,
    replay_ns: AtomicU64,
    detect_ns: AtomicU64,
    classify_ns: AtomicU64,
    report_ns: AtomicU64,
    /// Memo lookups and writes.
    memo_ns: AtomicU64,
}

/// One queued submission: the parsed request plus the stream to answer on.
struct Job {
    stream: TcpStream,
    doc: Json,
}

struct Shared {
    config: ServerConfig,
    queue: Mutex<std::collections::VecDeque<Job>>,
    available: Condvar,
    draining: AtomicBool,
    counters: Counters,
    memo: Option<ReportMemo>,
    started: Instant,
}

/// A running classification service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Milliseconds a rejected client should wait before retrying.
const RETRY_AFTER_MS: u64 = 250;

/// How often the signal watcher checks the SIGINT/SIGTERM latch, and the
/// acceptor's back-off after a failed `accept`.
const POLL: Duration = Duration::from_millis(25);

#[cfg(unix)]
mod signals {
    //! Minimal SIGINT/SIGTERM latching without any crate dependency: the
    //! process's C runtime already links `signal`, and the handler only
    //! stores to a static atomic (async-signal-safe).
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        DRAIN_REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub fn requested() -> bool {
        DRAIN_REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

impl Server {
    /// Binds the listener and opens the report memo.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the cache directory is
    /// unusable.
    pub fn bind(mut config: ServerConfig) -> Result<Server, String> {
        config.workers = config.workers.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        config.classifier.jobs = 1;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let memo = match &config.cache_dir {
            Some(dir) => Some(
                ReportMemo::open(dir)
                    .map_err(|e| format!("cannot open cache at {}: {e}", dir.display()))?,
            ),
            None => None,
        };
        let shared = Arc::new(Shared {
            config,
            queue: Mutex::new(std::collections::VecDeque::new()),
            available: Condvar::new(),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
            memo,
            started: Instant::now(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port 0 to the ephemeral port picked).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// Runs the accept loop until drain, then finishes queued jobs and
    /// returns. Installs SIGINT/SIGTERM latches on unix, watched by a
    /// helper thread.
    ///
    /// # Errors
    ///
    /// Fails only on listener-level errors; per-connection failures are
    /// answered on the wire and logged to the counters.
    pub fn run(self) -> Result<(), String> {
        signals::install();
        let mut wake_addr = self.listener.local_addr().map_err(|e| e.to_string())?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(std::net::Ipv4Addr::LOCALHOST.into());
        }
        let shared = self.shared;
        std::thread::scope(|scope| {
            for _ in 0..shared.config.workers {
                let shared = Arc::clone(&shared);
                scope.spawn(move || worker_loop(&shared));
            }
            scope.spawn(|| watch_signals(&shared, wake_addr));
            // The acceptor blocks in `accept`, so a connection is served
            // the moment it arrives. A protocol `shutdown` sets the drain
            // flag from inside `handle_connection`; a signal's drain is
            // delivered by the watcher's wake-up connection.
            while !shared.draining.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) if !shared.draining.load(Ordering::SeqCst) => {
                        handle_connection(&shared, stream);
                    }
                    Ok(_) => {}
                    // Transient accept errors (aborted handshakes, fd
                    // exhaustion) should not kill the service, nor spin.
                    Err(_) => std::thread::sleep(POLL),
                }
            }
            // Drain: wake every worker; each exits once the queue is dry.
            shared.available.notify_all();
        });
        Ok(())
    }
}

/// Turns a latched SIGINT/SIGTERM into a drain: sets the flag, then wakes
/// the acceptor blocked in `accept` with one loopback connection. Exits
/// once the server drains for any reason.
fn watch_signals(shared: &Shared, wake_addr: std::net::SocketAddr) {
    while !shared.draining.load(Ordering::SeqCst) {
        if signals::requested() {
            shared.draining.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(wake_addr);
            return;
        }
        std::thread::sleep(POLL);
    }
}

/// Reads one request frame and dispatches it. `stats` and `shutdown` are
/// answered inline; `submit` goes through admission control.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(30))).ok();
    let doc = match read_frame(&mut stream) {
        Ok(doc) => doc,
        Err(e) => {
            respond_error(&mut stream, &e.message);
            return;
        }
    };
    match doc.get("type").and_then(Json::as_str) {
        Some("stats") => {
            let _ = write_frame(&mut stream, &stats_json(shared));
        }
        Some("shutdown") => {
            shared.draining.store(true, Ordering::SeqCst);
            let _ = write_frame(&mut stream, &Json::obj(vec![("type", Json::str("ok"))]));
        }
        Some("submit") => {
            let mut queue = shared.queue.lock().unwrap();
            if queue.len() >= shared.config.queue_capacity {
                drop(queue);
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(
                    &mut stream,
                    &Json::obj(vec![
                        ("type", Json::str("busy")),
                        ("retry_after_ms", Json::from(RETRY_AFTER_MS)),
                    ]),
                );
                return;
            }
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            queue.push_back(Job { stream, doc });
            drop(queue);
            shared.available.notify_one();
        }
        other => {
            respond_error(&mut stream, &format!("unknown request type {other:?}"));
        }
    }
}

fn respond_error(stream: &mut TcpStream, message: &str) {
    let _ = write_frame(
        stream,
        &Json::obj(vec![("type", Json::str("error")), ("message", Json::str(message))]),
    );
    let _ = stream.flush();
}

/// Worker: pop, classify, answer. Exits when draining and the queue is
/// empty (in-flight jobs always finish).
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _timeout) =
                    shared.available.wait_timeout(queue, Duration::from_millis(100)).unwrap();
                queue = q;
            }
        };
        let Some(mut job) = job else { return };
        match run_submission(shared, &job.doc) {
            Ok(response) => {
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut job.stream, &response);
            }
            Err(message) => {
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                respond_error(&mut job.stream, &message);
            }
        }
    }
}

/// Answers one submission: from the memo when it holds this exact
/// (program, log, configuration), otherwise by assembling and decoding it
/// and running [`analyze`] — the path one-shot `racerep races` takes — to
/// render the same report JSON value as `racerep races --format json`,
/// then memoizing it.
fn run_submission(shared: &Shared, doc: &Json) -> Result<Json, String> {
    let counters = &shared.counters;
    let source = doc
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| String::from("submit needs a \"program\" field (tasm source)"))?;
    let log_b64 = doc
        .get("log")
        .and_then(Json::as_str)
        .ok_or_else(|| String::from("submit needs a \"log\" field (base64 log container)"))?;
    let classifier = shared.config.classifier;

    let start = Instant::now();
    let container = b64_decode(log_b64).map_err(|e: ProtoError| e.message)?;
    add_ns(&counters.decode_ns, start.elapsed());

    let start = Instant::now();
    let memo =
        shared.memo.as_ref().map(|memo| (memo, MemoKey::new(source, &container, &classifier)));
    let memoized = memo.as_ref().and_then(|(memo, key)| memo.get(key));
    add_ns(&counters.memo_ns, start.elapsed());
    if let Some(report_json) = memoized {
        return Ok(result_json(report_json, 0, true));
    }

    let start = Instant::now();
    let program =
        assemble(source).map_err(|e| format!("program line {}: {}", e.line, e.message))?;
    if program.threads().is_empty() {
        return Err("program has no threads".into());
    }
    let decoded = Arc::new(DecodedProgram::new(Arc::new(program)));
    let (log, _schedule, decode) = log_from_bytes_mode(&container, DecodeMode::Strict)?;
    add_ns(&counters.decode_ns, start.elapsed());

    let start = Instant::now();
    let predictions = static_predictions(decoded.program(), classifier.trust_static);
    let predict = start.elapsed();
    // The trace and detections are dropped here; only the report is kept,
    // and only until it is rendered.
    let Analysis { report, classification, timings, .. } =
        analyze(&decoded, &log, &decode, &classifier, predictions.as_ref())
            .map_err(|e| e.to_string())?;
    let start = Instant::now();
    let report_json = report.to_json_value();
    drop(report);
    add_ns(&counters.replay_ns, timings.replay);
    add_ns(&counters.detect_ns, timings.detect);
    add_ns(&counters.classify_ns, predict + timings.classify);
    add_ns(&counters.report_ns, timings.report + start.elapsed());

    if let Some((memo, key)) = &memo {
        let start = Instant::now();
        // A failed write is counted by the memo; the client still gets its
        // report.
        let _ = memo.put(key, &report_json);
        add_ns(&counters.memo_ns, start.elapsed());
    }
    Ok(result_json(report_json, classification.vproc_replays, false))
}

/// Adds one job's time in a phase to its `phase_ns` counter.
fn add_ns(counter: &AtomicU64, elapsed: Duration) {
    counter.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

/// A submit's `result` response. `cached` says the report came from the
/// memo (and so `replays` is 0).
fn result_json(report: Json, replays: u64, cached: bool) -> Json {
    Json::obj(vec![
        ("type", Json::str("result")),
        ("report", report),
        ("replays", Json::from(replays)),
        ("cached", Json::Bool(cached)),
    ])
}

/// The `stats` response document.
fn stats_json(shared: &Shared) -> Json {
    let c = &shared.counters;
    let queue_depth = shared.queue.lock().unwrap().len();
    let load = |a: &AtomicU64| Json::from(a.load(Ordering::Relaxed));
    let mut fields = vec![
        ("type", Json::str("stats")),
        ("uptime_ms", Json::from(shared.started.elapsed().as_millis() as u64)),
        ("workers", Json::from(shared.config.workers)),
        ("queue_depth", Json::from(queue_depth)),
        ("queue_capacity", Json::from(shared.config.queue_capacity)),
        (
            "jobs",
            Json::obj(vec![
                ("accepted", load(&c.accepted)),
                ("rejected", load(&c.rejected)),
                ("completed", load(&c.completed)),
                ("failed", load(&c.failed)),
            ]),
        ),
        (
            "phase_ns",
            Json::obj(vec![
                ("decode", load(&c.decode_ns)),
                ("replay", load(&c.replay_ns)),
                ("detect", load(&c.detect_ns)),
                ("classify", load(&c.classify_ns)),
                ("report", load(&c.report_ns)),
                ("memo", load(&c.memo_ns)),
            ]),
        ),
    ];
    if let Some(memo) = &shared.memo {
        let s = memo.stats();
        fields.push((
            "cache",
            Json::obj(vec![
                ("entries", Json::from(s.entries)),
                ("disk_bytes", Json::from(s.disk_bytes)),
                ("persisted_hits", Json::from(s.hits)),
                ("misses", Json::from(s.misses)),
                ("invalid_entries", Json::from(s.invalid)),
                ("persisted_writes", Json::from(s.writes)),
                ("write_errors", Json::from(s.write_errors)),
            ]),
        ));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    #[test]
    fn back_to_back_requests_do_not_wait_for_the_acceptor() {
        let server =
            Server::bind(ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() })
                .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());
        // Each request is answered in well under a millisecond once
        // accepted; an acceptor that slept between nonblocking polls
        // would add up to one 25 ms nap per request (~500 ms here).
        let start = Instant::now();
        for _ in 0..20 {
            client::stats(&addr).expect("stats");
        }
        let elapsed = start.elapsed();
        client::shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean drain");
        assert!(elapsed < Duration::from_millis(250), "20 stats requests took {elapsed:?}");
    }
}
