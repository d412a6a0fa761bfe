//! `service`: an in-process `serviced::Server` on loopback (2 workers, a
//! persistent cache directory) driven by one client in a closed loop
//! calling `serviced::client::submit`, as `racerep submit` does. One
//! client keeps one job in flight, so the process CPU clock times each
//! submit alone: client framing, the server's decode, queue hand-off,
//! replay, detect, classify, report and cache work.
//!
//! The logs are seeded recordings of the browser generator, made in
//! set-up, at a scale where one submission plans more pair replays than the
//! server's in-memory cache holds (4,096 entries by default), so the
//! working set exceeds the program's own cache. The mix is reads beside
//! writes: every `FRESH_INTERVAL_S` seconds of the run's CPU time one
//! submit sends a log the server has not seen; every other submit resends
//! one of the logs set-up submitted once. Writes come at a fixed rate of CPU
//! time rather than of wall time, so the mix does not depend on how much of
//! the run the host took away. Every returned
//! report must be byte-identical to the one-shot report of the same log,
//! computed in set-up.
//!
//! Why: only this workload touches framing, container decode, the queue and
//! the persistent cache.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use idna_replay::codec::with_log_writer;
use idna_replay::recorder::record_with;
use minijson::Json;
use replay_race::classify::TrustStatic;
use serviced::container::log_to_bytes_with;
use serviced::{client, Server, ServerConfig};
use tvm::predecode::DecodedProgram;
use workloads::browser::{browser_program, BrowserConfig};

use crate::browser::schedule;
use crate::layers::{analyze_log, Steps};
use crate::stats::{cpu_ms, mean, ratio};
use crate::trace::{self, Tracer};
use crate::{metric, out_dir, Metric, OpResult, Options, Workload};

/// `racerep races --format json` on a log, to check the service against.
/// One classify worker, as each of the server's workers runs the engine.
const ONE_SHOT: Steps = Steps { native: false, trust: TrustStatic::Off, jobs: 1 };

/// Submission attempts while the server answers `busy`.
const ATTEMPTS: usize = 20;
/// One submit per this many CPU seconds of the run sends a fresh log.
const FRESH_INTERVAL_S: f64 = 4.0;

struct Scale {
    browser: BrowserConfig,
    /// Logs submitted once in set-up, then resent.
    seen: usize,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale { browser: crate::browser::config(true), seen: 2 }
    } else {
        // 10 threads: each log plans ~4,800 pair replays (mean over seeds
        // 1-5), above the 4,096-entry default, at ~0.5 s per submit.
        let browser = BrowserConfig { fetchers: 4, parsers: 4, jobs: 32, work: 24 };
        Scale { browser, seen: 8 }
    }
}

/// Layer metrics read from the server's `svc-stats` document, per completed
/// job unless noted.
const PHASES: [&str; 5] = ["decode", "replay", "detect", "classify", "report"];

pub fn layer_metric_names() -> &'static [(&'static str, &'static str)] {
    &[
        ("serviced.decode_ms", "ms"),
        ("serviced.replay_ms", "ms"),
        ("serviced.detect_ms", "ms"),
        ("serviced.classify_ms", "ms"),
        ("serviced.report_ms", "ms"),
        ("serviced.unattributed_ms", "ms"),
        ("serviced.jobs", "count"),
        ("serviced.rejected", "count"),
        ("serviced.cache.hit_ratio", "ratio"),
        ("serviced.cache.lookups", "count"),
        ("serviced.cache.persisted_hits", "count"),
        ("serviced.cache.evictions", "count"),
        ("serviced.cache.persisted_writes", "count"),
        ("serviced.cache.disk_bytes", "bytes"),
    ]
}

pub struct Service {
    addr: String,
    source: String,
    /// Log containers: the seen pool, then the fresh pool.
    logs: Vec<Vec<u8>>,
    /// One-shot report JSON of each log.
    expected: Vec<String>,
    seen: usize,
    next_seen: AtomicU64,
    next_fresh: AtomicU64,
    /// Process CPU ms when the run's first op started: fresh logs fall due
    /// from here.
    run_start: OnceLock<f64>,
    server: Option<JoinHandle<Result<(), String>>>,
    cache_dir: PathBuf,
    window_start: Mutex<Option<Json>>,
}

impl Service {
    pub fn set_up(opts: &Options, rep: usize) -> Result<Self, String> {
        let scale = scale(opts.smoke);
        let program = browser_program(&scale.browser);
        let source = tvm::asm::disassemble_annotated(&program);
        let decoded = Arc::new(DecodedProgram::new(program));
        let idle = Tracer::new();
        let mut logs = Vec::new();
        let mut expected = Vec::new();
        let mut min_replays = u64::MAX;
        // One fresh log per interval, the first at the start of the run; a
        // run uses no more CPU seconds than wall seconds with one job in
        // flight.
        let fresh = (opts.seconds / FRESH_INTERVAL_S).floor() as usize + 1;
        for i in 0..scale.seen + fresh {
            let run = schedule(opts.seed, 1_000 + i as u64);
            let recording = record_with(&decoded, &run);
            let container = with_log_writer(|w| log_to_bytes_with(&recording.log, &run, w));
            let pass = analyze_log(&idle, 0, &decoded, &container, ONE_SHOT)?;
            min_replays = min_replays.min(pass.classification.vproc_replays);
            expected.push(pass.json);
            logs.push(container);
        }
        eprintln!("service logs plan at least {min_replays} pair replays each");
        let cache_dir = out_dir().join(format!("service-cache-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_dir: Some(cache_dir.clone()),
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr()?.to_string();
        let service = Service {
            addr,
            source,
            logs,
            expected,
            seen: scale.seen,
            next_seen: AtomicU64::new(0),
            next_fresh: AtomicU64::new(0),
            run_start: OnceLock::new(),
            server: Some(std::thread::spawn(move || server.run())),
            cache_dir,
            window_start: Mutex::new(None),
        };
        // Warm-up: the server sees every log of the seen pool once.
        for i in 0..service.seen {
            service.submit(&Tracer::new(), 0, i).1.map_or(Ok(()), Err)?;
        }
        Ok(service)
    }

    /// Submits log `i` as op `id`; returns the latency and any failure.
    fn submit(&self, tr: &Tracer, id: u64, i: usize) -> (f64, Option<String>) {
        let (result, latency) = tr.op(id, || -> Result<String, String> {
            let response = tr.layer("serviced.submit", id, || {
                client::submit(&self.addr, &self.source, &self.logs[i], ATTEMPTS)
            })?;
            let count = |key| response.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
            tr.count(id, "serviced.replays", count("replays"));
            tr.count(id, "serviced.store_hits", count("store_hits"));
            let report = response.get("report").ok_or("response has no report")?;
            Ok(tr.layer("report.json", id, || report.to_string_pretty()))
        });
        let error = match result {
            Err(e) => Some(e),
            Ok(json) if json != self.expected[i] => {
                Some(format!("log {i}: service report differs from the one-shot report"))
            }
            Ok(_) => None,
        };
        (latency, error)
    }
}

/// `doc[path...]` as a number, 0 when absent.
fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut cur = doc;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_u64().unwrap_or(0) as f64
}

impl Workload for Service {
    /// A submit's CPU time follows the calibration kernel's only in part:
    /// over 15 runs inside one host spell on the baseline VM, it moved with
    /// the kernel's time to the power 0.38 (browser 0.90, corpus 0.86,
    /// which scale by the full ratio), and scaling by the full ratio made
    /// its figures noisier than unscaled ones (run-to-run CV 0.049 against
    /// 0.035).
    fn speed_elasticity(&self) -> f64 {
        0.4
    }

    fn op(&self, tr: &Tracer, id: u64) -> OpResult {
        let fresh_pool = (self.logs.len() - self.seen) as u64;
        let elapsed = (cpu_ms() - *self.run_start.get_or_init(cpu_ms)) / 1e3;
        let due = ((elapsed / FRESH_INTERVAL_S) as u64 + 1).min(fresh_pool);
        let fresh = self
            .next_fresh
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < due).then_some(n + 1))
            .ok();
        let i = match fresh {
            Some(f) => self.seen + f as usize,
            None => (self.next_seen.fetch_add(1, Ordering::Relaxed) % self.seen as u64) as usize,
        };
        let (latency_ms, error) = self.submit(tr, id, i);
        OpResult { latency_ms, error }
    }

    fn begin_window(&self) {
        *self.window_start.lock().expect("window lock poisoned") = client::stats(&self.addr).ok();
    }

    fn window_metrics(&self, tr: &Tracer) -> Vec<Metric> {
        let (Some(before), Ok(after)) = (
            self.window_start.lock().expect("window lock poisoned").take(),
            client::stats(&self.addr),
        ) else {
            return Vec::new();
        };
        let delta = |path: &[&str]| num(&after, path) - num(&before, path);
        let jobs = delta(&["jobs", "completed"]);
        let mut out = Vec::new();
        let mut phases_ms = 0.0;
        for phase in PHASES {
            let ms = ratio(delta(&["phase_ns", phase]) / 1e6, jobs);
            phases_ms += ms;
            out.push(metric(format!("serviced.{phase}_ms"), ms, "ms"));
        }
        let own = trace::self_times(&tr.spans());
        let round_trips: Vec<f64> =
            own.get("serviced.submit").map(|m| m.values().copied().collect()).unwrap_or_default();
        out.push(metric("serviced.unattributed_ms", mean(&round_trips) - phases_ms, "ms"));
        out.push(metric("serviced.jobs", jobs, "count"));
        out.push(metric("serviced.rejected", delta(&["jobs", "rejected"]), "count"));
        let hits = delta(&["cache", "mem_hits"]) + delta(&["cache", "persisted_hits"]);
        let lookups = hits + delta(&["cache", "misses"]);
        out.push(metric("serviced.cache.hit_ratio", ratio(hits, lookups), "ratio"));
        out.push(metric("serviced.cache.lookups", ratio(lookups, jobs), "count"));
        for key in ["persisted_hits", "evictions", "persisted_writes"] {
            let per_job = ratio(delta(&["cache", key]), jobs);
            out.push(metric(format!("serviced.cache.{key}"), per_job, "count"));
        }
        out.push(metric(
            "serviced.cache.disk_bytes",
            num(&after, &["cache", "disk_bytes"]),
            "bytes",
        ));
        out
    }
}

impl Drop for Service {
    /// Drains the server, waits for it, and removes its cache directory.
    /// Errors are ignored: there is nothing left to report them to.
    fn drop(&mut self) {
        if client::shutdown(&self.addr).is_ok() {
            if let Some(handle) = self.server.take() {
                let _ = handle.join();
            }
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}
