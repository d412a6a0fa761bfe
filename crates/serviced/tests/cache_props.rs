//! Property tests for the service's report memo: a damaged, colliding, or
//! differently configured entry is never served. Each test runs a real
//! server over a memo directory and checks that every submit returns the
//! one-shot report bytes, recomputed whenever the entry on disk can not be
//! trusted.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use idna_replay::codec::LogWriter;
use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use minijson::Json;
use replay_race::classify::{classify_races_with, BatchMode, ClassifierConfig};
use replay_race::detect::{detect_races, DetectorConfig};
use replay_race::report::Report;
use serviced::container::log_to_bytes_with;
use serviced::{client, MemoKey, ReportMemo, Server, ServerConfig};
use tvm::asm::assemble;
use tvm::scheduler::RunConfig;

/// Two workers bump one counter without a lock: a small program whose
/// report still holds races, so a memo entry stays a few KB.
const PROGRAM: &str = "\
.thread worker_a
  ld r1, [r15+8]
  addi r1, r1, 1
  st [r15+8], r1
  halt

.thread worker_b
  ld r1, [r15+8]
  addi r1, r1, 1
  st [r15+8], r1
  halt
";

/// xorshift64* — deterministic, no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("racerepd-cache-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The program's recorded log container and its one-shot report, rendered
/// as `racerep races --format json` prints it.
fn workload() -> (Vec<u8>, String) {
    let program = Arc::new(assemble(PROGRAM).unwrap());
    let run = RunConfig::round_robin(1);
    let recording = record(&program, &run);
    let container = log_to_bytes_with(&recording.log, &run, &mut LogWriter::new());
    let trace = replay(&program, &recording.log).unwrap();
    let detected = detect_races(&trace, &DetectorConfig::default());
    let config = ClassifierConfig { jobs: 1, ..ClassifierConfig::default() };
    let classification = classify_races_with(&trace, &detected, &config, None);
    assert!(!classification.races.is_empty(), "the test program must race");
    let report = Report::build(&trace, &classification).to_json_value().to_string_pretty();
    (container, report)
}

/// A running server over `memo_dir`; drains on drop.
struct Service {
    addr: String,
    handle: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl Service {
    fn boot(memo_dir: &Path, classifier: ClassifierConfig) -> Service {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_dir: Some(memo_dir.to_path_buf()),
            classifier,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        Service { addr, handle: Some(std::thread::spawn(move || server.run())) }
    }

    /// Submits and returns `(pretty report, replays, cached)`.
    fn submit(&self, container: &[u8]) -> (String, u64, bool) {
        let response = client::submit(&self.addr, PROGRAM, container, 40).unwrap();
        let report = response.get("report").expect("a report").to_string_pretty();
        let replays = response.get("replays").and_then(Json::as_u64).unwrap();
        let cached = response.get("cached").and_then(Json::as_bool).unwrap();
        (report, replays, cached)
    }

    fn memo_counter(&self, key: &str) -> u64 {
        let stats = client::stats(&self.addr).unwrap();
        stats.get("cache").and_then(|c| c.get(key)).and_then(Json::as_u64).unwrap()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        client::shutdown(&self.addr).unwrap();
        let result = self.handle.take().unwrap().join().unwrap();
        if !std::thread::panicking() {
            result.expect("server drains cleanly");
        }
    }
}

/// The single entry file in `dir`.
fn only_entry(dir: &Path) -> PathBuf {
    let entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rrm"))
        .collect();
    assert_eq!(entries.len(), 1, "one workload, one entry: {entries:?}");
    entries[0].clone()
}

/// Replaces the entry with `damaged`, submits, and checks the server
/// refused the entry and recomputed the one-shot report.
fn assert_recomputed(svc: &Service, path: &Path, damaged: &[u8], container: &[u8], want: &str) {
    std::fs::write(path, damaged).unwrap();
    let (got, replays, cached) = svc.submit(container);
    assert!(!cached && replays > 0, "a damaged entry ({} bytes) was served", damaged.len());
    assert_eq!(got, want, "recomputed report differs from one-shot");
}

/// The configuration a server runs with `classifier` (workers run the
/// engine on one thread each), which is what its memo keys carry.
fn served(classifier: ClassifierConfig) -> ClassifierConfig {
    ClassifierConfig { jobs: 1, ..classifier }
}

/// Cut the entry at every byte boundary: the memo serves no prefix. Each
/// connection can wait out the acceptor's 25 ms idle poll, so the server
/// is driven through every header cut and 64 cuts spread over the body;
/// each of those submits recomputes the one-shot bytes.
#[test]
fn truncation_at_every_byte_is_never_served() {
    let (container, want) = workload();
    let dir = temp_dir("truncate");
    let svc = Service::boot(&dir, ClassifierConfig::default());
    let (cold, replays, cached) = svc.submit(&container);
    assert!(!cached && replays > 0);
    assert_eq!(cold, want);
    let path = only_entry(&dir);
    let intact = std::fs::read(&path).unwrap();

    let memo = ReportMemo::open(&dir).unwrap();
    let key = MemoKey::new(PROGRAM, &container, &served(ClassifierConfig::default()));
    assert!(memo.get(&key).is_some(), "the test reads the server's own entry");
    for cut in 0..intact.len() {
        std::fs::write(&path, &intact[..cut]).unwrap();
        assert!(memo.get(&key).is_none(), "a {cut}-byte prefix was served");
    }

    let stride = (intact.len() / 64).max(1);
    for cut in (0..32).chain((32..intact.len()).step_by(stride)) {
        assert_recomputed(&svc, &path, &intact[..cut], &container, &want);
        assert_eq!(std::fs::read(&path).unwrap(), intact, "the recompute rewrites the entry");
    }
    let (warm, replays, cached) = svc.submit(&container);
    assert!(cached && replays == 0, "the rewritten entry is served");
    assert_eq!(warm, want);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// 200 seeded single-bit flips anywhere in the entry — header, checksum,
/// lengths, key material, report — are never served.
#[test]
fn bit_flip_never_serves_damaged_values() {
    let (container, want) = workload();
    let dir = temp_dir("bitflip");
    let svc = Service::boot(&dir, ClassifierConfig::default());
    svc.submit(&container);
    let path = only_entry(&dir);
    let intact = std::fs::read(&path).unwrap();
    let mut rng = Rng(0xb17f_11b5);
    for _ in 0..200 {
        let mut damaged = intact.clone();
        let at = rng.below(damaged.len() as u64) as usize;
        damaged[at] ^= 1 << rng.below(8);
        assert_recomputed(&svc, &path, &damaged, &container, &want);
    }
    assert_eq!(svc.memo_counter("invalid_entries"), 200);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A container whose key digest collides with a stored entry's (`x` and
/// `x ‖ [0]`) but whose bytes differ is a miss, not the other's report.
#[test]
fn colliding_digest_with_different_bytes_is_a_miss() {
    let (container, want) = workload();
    let config = served(ClassifierConfig::default());
    // The digest pads a short tail with zeros, so appending a zero byte
    // collides whenever the key material does not end on an 8-byte word.
    let mut x = container.clone();
    while MemoKey::new(PROGRAM, &x, &config).file_name()
        != MemoKey::new(PROGRAM, &[x.as_slice(), &[0]].concat(), &config).file_name()
    {
        x.push(0);
    }
    let x0 = [x.as_slice(), &[0]].concat();
    assert_ne!(MemoKey::new(PROGRAM, &x, &config), MemoKey::new(PROGRAM, &x0, &config));

    let dir = temp_dir("collide");
    let memo = ReportMemo::open(&dir).unwrap();
    memo.put(&MemoKey::new(PROGRAM, &x, &config), &Json::parse(&want).unwrap()).unwrap();
    assert!(memo.get(&MemoKey::new(PROGRAM, &x0, &config)).is_none());
    assert!(memo.get(&MemoKey::new(PROGRAM, &x, &config)).is_some());
    let stats = memo.stats();
    assert_eq!((stats.hits, stats.misses, stats.invalid), (1, 1, 1));

    // Through the server: the planted entry for `x` is refused for `x0`,
    // and the trailing zeros don't change what the log decodes to.
    let svc = Service::boot(&dir, config);
    let (got, replays, cached) = svc.submit(&x0);
    assert!(!cached && replays > 0, "a colliding entry was served");
    assert_eq!(got, want);
    assert_eq!(svc.memo_counter("invalid_entries"), 1);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The classifier configuration is part of the key: a server restarted
/// with `--batch off` recomputes the same log, then serves its own entry.
#[test]
fn restart_with_other_classifier_flags_misses() {
    let (container, want) = workload();
    let dir = temp_dir("config");
    let svc = Service::boot(&dir, ClassifierConfig::default());
    svc.submit(&container);
    drop(svc);

    let unbatched = ClassifierConfig { batching: BatchMode::Off, ..ClassifierConfig::default() };
    let svc = Service::boot(&dir, unbatched);
    let (got, replays, cached) = svc.submit(&container);
    assert!(!cached && replays > 0, "an entry made under other flags was served");
    assert_eq!(got, want);
    let (got, replays, cached) = svc.submit(&container);
    assert!(cached && replays == 0);
    assert_eq!(got, want);
    assert_eq!(svc.memo_counter("persisted_hits"), 1);
    assert_eq!(svc.memo_counter("entries"), 2, "one entry per configuration");
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Entries survive a reopen, storing the same key twice keeps one entry,
/// and temporary files a crashed writer left behind are swept on open.
#[test]
fn reopen_roundtrip_and_idempotent_insert() {
    let (container, want) = workload();
    let report = Json::parse(&want).unwrap();
    let key = MemoKey::new(PROGRAM, &container, &served(ClassifierConfig::default()));
    let dir = temp_dir("reopen");
    {
        let memo = ReportMemo::open(&dir).unwrap();
        memo.put(&key, &report).unwrap();
        memo.put(&key, &report).unwrap();
        assert_eq!(memo.stats().entries, 1);
        assert_eq!(memo.stats().writes, 2);
    }
    let stale = dir.join(format!("{}.1.0.tmp", key.file_name()));
    std::fs::write(&stale, b"torn").unwrap();
    let memo = ReportMemo::open(&dir).unwrap();
    assert!(!stale.exists(), "open sweeps leftover temporary files");
    assert_eq!(memo.get(&key).expect("a hit after reopen").to_string_pretty(), want);
    let _ = std::fs::remove_dir_all(&dir);
}
