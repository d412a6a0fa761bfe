//! Scaling study of the classification engine: classify wall-time at 1→N
//! worker threads, with shared-prefix batching off and on, on the browser
//! workload, with a built-in check that every configuration produces the
//! same classification (the engine's determinism contract).

use bench::timing::measure;

use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use replay_race::classify::{classify_races_with, BatchMode, ClassifierConfig};
use replay_race::detect::{detect_races, DetectorConfig};
use tvm::scheduler::RunConfig;
use workloads::browser::{browser_program, BrowserConfig};

fn main() {
    let cfg = BrowserConfig { fetchers: 3, parsers: 2, jobs: 8, work: 24 };
    let program = browser_program(&cfg);
    let recording = record(&program, &RunConfig::chunked(7, 1, 8).with_max_steps(10_000_000));
    let trace = replay(&program, &recording.log).expect("replay");
    let detected = detect_races(&trace, &DetectorConfig::default());
    let instances = detected.instance_count() as u64;
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "classify_scaling: {} races, {instances} instances, {available} hardware threads",
        detected.unique_races()
    );

    let classify = |jobs: usize, batching: BatchMode| {
        let config = ClassifierConfig { jobs, batching, ..ClassifierConfig::default() };
        classify_races_with(&trace, &detected, &config, None)
    };

    let baseline_result = classify(1, BatchMode::Off);
    let baseline = measure(2, 12, || classify(1, BatchMode::Off));

    let mut job_counts = vec![1usize, 2, 4];
    if !job_counts.contains(&available) {
        job_counts.push(available);
    }
    for batching in [BatchMode::Off, BatchMode::Shared] {
        for &jobs in &job_counts {
            let result = classify(jobs, batching);
            let m = measure(2, 12, || classify(jobs, batching));
            let speedup = baseline.seconds() / m.seconds();
            let stats = result.batch_stats;
            println!(
                "classify/{batching:?}/jobs={jobs:<2} median {:>10?}  speedup {speedup:>5.2}x  \
                 replays {:>6}  {:>5} batches, {:>6} prefix executions",
                m.median, result.vproc_replays, stats.batches, stats.prefix_executions,
            );
            // Determinism contract: neither the job count nor batching
            // changes the result.
            assert_eq!(
                result.races, baseline_result.races,
                "classification must be identical at jobs={jobs}, batching={batching:?}"
            );
        }
    }
}
