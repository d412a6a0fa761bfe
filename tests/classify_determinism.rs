//! Determinism guarantees of the parallel plan/execute/assemble
//! classification engine: for every workloads pattern, the classification
//! is bit-for-bit identical at any job count, the live-outs it hands the
//! report are the ones a fresh replay produces, and merging split
//! classifications equals classifying everything at once.

use std::collections::BTreeSet;

use idna_replay::recorder::record;
use idna_replay::replayer::{replay, ReplayTrace};
use idna_replay::vproc::{PairOrder, Vproc, VprocConfig};
use replay_race::classify::{
    classify_races_with, merge_classifications, ClassificationResult, ClassifierConfig,
    InstanceOutcome,
};
use replay_race::detect::{detect_races, DetectedRaces, DetectorConfig};
use tvm::scheduler::RunConfig;
use workloads::corpus::{corpus_program, instance_ids};

/// Records and replays one corpus pattern in isolation.
fn pattern_trace(id: &str, schedule: &RunConfig) -> (ReplayTrace, DetectedRaces) {
    let enabled: BTreeSet<&str> = [id].into_iter().collect();
    let program = corpus_program(&enabled);
    let recording = record(&program, schedule);
    let trace = replay(&program, &recording.log).expect("fresh recordings replay");
    let detected = detect_races(&trace, &DetectorConfig::default());
    (trace, detected)
}

fn classify_with(
    trace: &ReplayTrace,
    detected: &DetectedRaces,
    jobs: usize,
) -> ClassificationResult {
    let config = ClassifierConfig { jobs, ..ClassifierConfig::default() };
    classify_races_with(trace, detected, &config, None)
}

/// Full bit-for-bit equality of two classifications (races, instance
/// outcomes, kept live-outs, replay accounting).
fn assert_identical(a: &ClassificationResult, b: &ClassificationResult, what: &str) {
    assert_eq!(a.races, b.races, "{what}: classified races differ");
    assert_eq!(a.vproc_replays, b.vproc_replays, "{what}: replay counts differ");
}

/// The schedules the matrix runs under: one deterministic round-robin and
/// one chunked-random interleaving for scheduling diversity.
fn schedules() -> Vec<RunConfig> {
    vec![
        RunConfig::round_robin(2).with_max_steps(400_000),
        RunConfig::chunked(9, 1, 6).with_max_steps(400_000),
    ]
}

#[test]
fn every_pattern_classifies_identically_at_any_job_count() {
    for id in instance_ids() {
        for schedule in schedules() {
            let (trace, detected) = pattern_trace(id, &schedule);
            let sequential = classify_with(&trace, &detected, 1);
            for jobs in [2, 0] {
                let parallel = classify_with(&trace, &detected, jobs);
                assert_identical(&sequential, &parallel, &format!("{id} jobs={jobs}"));
            }
        }
    }
}

#[test]
fn exposing_live_outs_match_a_fresh_replay() {
    // The report renders each State-Change difference from the live-outs
    // the classifier kept; they must be exactly what replaying the first
    // exposing instance under the same virtual-processor options gives.
    for vproc in [VprocConfig::default(), VprocConfig::permissive()] {
        for id in instance_ids() {
            let schedule = RunConfig::chunked(9, 1, 6).with_max_steps(400_000);
            let (trace, detected) = pattern_trace(id, &schedule);
            let config = ClassifierConfig { vproc, jobs: 2, ..ClassifierConfig::default() };
            let result = classify_races_with(&trace, &detected, &config, None);
            let fresh = Vproc::new(&trace, vproc);
            for race in result.races.values() {
                let first = race.first_exposing_instance();
                let Some((fwd, rev)) = race.exposing_live_outs.as_deref() else {
                    assert!(
                        first.is_none_or(|ci| ci.outcome != InstanceOutcome::StateChange),
                        "{id} {}: a State-Change scenario lost its live-outs",
                        race.id
                    );
                    continue;
                };
                let ci = first.expect("live-outs come from an exposing instance");
                assert_eq!(ci.outcome, InstanceOutcome::StateChange, "{id} {}", race.id);
                let (a, b) = (&ci.instance.a, &ci.instance.b);
                assert_eq!(Ok(fwd), fresh.run_pair(a, b, PairOrder::AThenB).as_ref(), "{id}");
                assert_eq!(Ok(rev), fresh.run_pair(a, b, PairOrder::BThenA).as_ref(), "{id}");
            }
        }
    }
}

/// Splits detected races into two halves per static race, preserving the
/// per-race instance order (the first ⌈n/2⌉ instances, then the rest).
fn split_detected(detected: &DetectedRaces) -> (DetectedRaces, DetectedRaces) {
    let mut first =
        DetectedRaces { instances: detected.instances.clone(), ..DetectedRaces::default() };
    let mut second =
        DetectedRaces { instances: detected.instances.clone(), ..DetectedRaces::default() };
    for (id, indices) in &detected.by_static {
        let mid = indices.len().div_ceil(2);
        first.by_static.insert(*id, indices[..mid].to_vec());
        if indices.len() > mid {
            second.by_static.insert(*id, indices[mid..].to_vec());
        }
    }
    (first, second)
}

#[test]
fn merging_split_executions_equals_classifying_everything_at_once() {
    // §4.3 accounting reconciliation: classifying two halves of the
    // instance evidence and merging must equal classifying it all at once —
    // including the replay counter and each race's kept live-outs.
    for id in ["ax_s1", "us_h1", "hf_rc", "rw2"] {
        let schedule = RunConfig::chunked(9, 1, 6).with_max_steps(400_000);
        let (trace, detected) = pattern_trace(id, &schedule);
        let whole = classify_with(&trace, &detected, 2);
        let (first, second) = split_detected(&detected);
        let merged = merge_classifications(&[
            classify_with(&trace, &first, 2),
            classify_with(&trace, &second, 2),
        ]);
        assert_identical(&whole, &merged, id);
    }
}
