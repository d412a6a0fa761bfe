//! End-to-end test of the racerepd classification service: boots a server
//! on an ephemeral port, submits workloads from four concurrent client
//! threads, and checks every response is byte-identical to the one-shot
//! `racerep races --format json` report. A second server generation over
//! the same cache directory then proves warm submissions are answered
//! from the on-disk report memo with zero virtual-processor replays.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use minijson::Json;
use racerep::{cmd_races, cmd_record, cmd_submit, parse_schedule, FailOn};
use replay_race::classify::{ClassifierConfig, TrustStatic};
use serviced::{client, Server, ServerConfig};

fn sample(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/asm").join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("racerepd-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One prepared workload: program source + recorded log container, plus
/// the expected one-shot report JSON.
struct Workload {
    name: &'static str,
    source: String,
    container: Vec<u8>,
    expected_json: String,
}

fn prepare(work: &Path, name: &'static str, schedule: &str) -> Workload {
    let program_path = sample(name);
    let log_path = work.join(format!("{name}.idna"));
    cmd_record(&program_path, &log_path, parse_schedule(schedule).unwrap()).unwrap();
    let expected_json =
        cmd_races(&program_path, &log_path, true, &ClassifierConfig::default(), None, false, false)
            .unwrap();
    Workload {
        name,
        source: std::fs::read_to_string(&program_path).unwrap(),
        container: std::fs::read(&log_path).unwrap(),
        expected_json,
    }
}

fn boot(cache_dir: &Path) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_capacity: 16,
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn service_matches_one_shot_and_serves_warm_resubmits_from_cache() {
    let work = temp_dir("work");
    let cache_dir = temp_dir("cache");
    let workloads: Vec<Workload> = [
        ("handoff.tasm", "rr:2"),
        ("stats.tasm", "rr:2"),
        ("refcount.tasm", "chunked:3:1:6"),
        ("idiom_double_check.tasm", "rr:2"),
    ]
    .into_iter()
    .map(|(name, schedule)| prepare(&work, name, schedule))
    .collect();
    let workloads = Arc::new(workloads);

    // Generation 1 (cold): four concurrent clients, one workload each.
    let (addr, handle) = boot(&cache_dir);
    std::thread::scope(|scope| {
        for w in workloads.iter() {
            let addr = addr.clone();
            scope.spawn(move || {
                let response = client::submit(&addr, &w.source, &w.container, 40).unwrap();
                assert_eq!(
                    response.get("type").and_then(Json::as_str),
                    Some("result"),
                    "{}: {response:?}",
                    w.name
                );
                let got = response.get("report").unwrap().to_string_pretty();
                assert_eq!(got, w.expected_json, "{}: cold response differs from one-shot", w.name);
            });
        }
    });
    let stats = client::stats(&addr).unwrap();
    let completed = stats.get("jobs").unwrap().get("completed").and_then(Json::as_u64).unwrap();
    assert_eq!(completed, workloads.len() as u64);

    // Graceful drain: the run() thread exits cleanly after `shutdown`.
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().expect("server drains cleanly");

    // Generation 2 (warm): a fresh process-equivalent over the same cache
    // directory. Every report must come from the memo on disk: zero vproc
    // replays, byte-identical reports.
    let (addr, handle) = boot(&cache_dir);
    for w in workloads.iter() {
        let response = client::submit(&addr, &w.source, &w.container, 40).unwrap();
        let got = response.get("report").unwrap().to_string_pretty();
        assert_eq!(got, w.expected_json, "{}: warm response differs from one-shot", w.name);
        let replays = response.get("replays").and_then(Json::as_u64).unwrap();
        assert_eq!(replays, 0, "{}: warm submission must not replay", w.name);
    }
    let stats = client::stats(&addr).unwrap();
    let persisted_hits =
        stats.get("cache").unwrap().get("persisted_hits").and_then(Json::as_u64).unwrap();
    assert!(persisted_hits > 0, "warm hits must be served from the persistent segments");
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().expect("server drains cleanly");

    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// `racerep submit --fail-on harmful` gates the exit code on the remote
/// verdicts, exactly like `lint` gates on static warnings.
#[test]
fn submit_fail_on_harmful_sets_the_exit_code() {
    let work = temp_dir("failon");
    let cache_dir = temp_dir("failon-cache");
    let (addr, handle) = boot(&cache_dir);

    // stats.tasm: racy counters classify potentially harmful (the paper's
    // approximate-computation pattern).
    let harmful_prog = sample("stats.tasm");
    let harmful_log = work.join("stats.idna");
    cmd_record(&harmful_prog, &harmful_log, parse_schedule("rr:2").unwrap()).unwrap();
    let (_, code) = cmd_submit(&harmful_prog, &harmful_log, &addr, false, FailOn::Harmful).unwrap();
    assert_eq!(code, 1, "harmful verdicts must trip --fail-on harmful");
    let (_, code) = cmd_submit(&harmful_prog, &harmful_log, &addr, true, FailOn::None).unwrap();
    assert_eq!(code, 0, "fail-on none never gates");

    // handoff.tasm: the flag handoff filters benign, so the gate stays
    // open.
    let benign_prog = sample("handoff.tasm");
    let benign_log = work.join("handoff.idna");
    cmd_record(&benign_prog, &benign_log, parse_schedule("rr:2").unwrap()).unwrap();
    let (_, code) = cmd_submit(&benign_prog, &benign_log, &addr, false, FailOn::Harmful).unwrap();
    assert_eq!(code, 0, "benign-only reports must not trip the gate");

    client::shutdown(&addr).unwrap();
    handle.join().unwrap().expect("server drains cleanly");
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A server started with `--trust-static skip-benign` skips the replays
/// one-shot `races --trust-static skip-benign` skips: its report is
/// byte-identical to that one-shot report, not to the untrusted one.
#[test]
fn trust_static_server_matches_the_trusted_one_shot_report() {
    let work = temp_dir("trust");
    let classifier =
        ClassifierConfig { trust_static: TrustStatic::SkipAgreedBenign, ..Default::default() };
    let program = sample("idiom_redundant_write.tasm");
    let log = work.join("idiom_redundant_write.idna");
    cmd_record(&program, &log, parse_schedule("rr:2").unwrap()).unwrap();
    let trusted = cmd_races(&program, &log, true, &classifier, None, false, false).unwrap();
    let untrusted =
        cmd_races(&program, &log, true, &ClassifierConfig::default(), None, false, false).unwrap();
    assert!(trusted.contains("\"instances_analyzed\": 0"), "{trusted}");
    assert_ne!(trusted, untrusted, "the trusted tier must skip a replay here");

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        classifier,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    let source = std::fs::read_to_string(&program).unwrap();
    let container = std::fs::read(&log).unwrap();
    let response = client::submit(&addr, &source, &container, 40).unwrap();
    let got = response.get("report").unwrap().to_string_pretty();
    assert_eq!(got, trusted, "the server must apply --trust-static like one-shot races");

    client::shutdown(&addr).unwrap();
    handle.join().unwrap().expect("server drains cleanly");
    let _ = std::fs::remove_dir_all(&work);
}
