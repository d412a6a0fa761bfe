//! Cross-validation of the static benign-idiom recognizers against the
//! replay classifier (the tentpole invariants of the idiom pass):
//!
//! 1. **Zero-flip**: no race the pass predicts benign at *high* confidence
//!    is ever classified potentially harmful by replay — over every corpus
//!    pattern under two schedules, and corpus-wide when
//!    `TrustStatic::SkipAgreedBenign` actually skips the replays.
//! 2. **Passivity**: computing predictions changes nothing downstream —
//!    detector output is byte-identical under the candidate pre-filter and
//!    classification is byte-identical when predictions are supplied but
//!    trust is off.

use std::collections::BTreeSet;
use std::sync::Arc;

use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use replay_race::classify::{
    classify_races_with, predictions_by_id, ClassifierConfig, OutcomeGroup,
};
use replay_race::detect::{detect_races, DetectorConfig};
use tvm::scheduler::RunConfig;
use workloads::corpus::{corpus_program, instance_ids};
use workloads::eval::run_trust_ablation;

fn schedules() -> Vec<RunConfig> {
    vec![
        RunConfig::round_robin(2).with_max_steps(400_000),
        RunConfig::chunked(9, 1, 6).with_max_steps(400_000),
    ]
}

#[test]
fn high_confidence_benign_predictions_are_never_replayed_harmful() {
    let mut trusted_races = 0usize;
    for id in instance_ids() {
        let enabled: BTreeSet<&str> = [id].into_iter().collect();
        let program = corpus_program(&enabled);
        let predictions = predictions_by_id(&racecheck::analyze(&program));
        for schedule in schedules() {
            let recording = record(&program, &schedule);
            let trace = replay(&program, &recording.log).expect("fresh recordings replay");
            let detected = detect_races(&trace, &DetectorConfig::default());
            let result = classify_races_with(&trace, &detected, &ClassifierConfig::default(), None);
            for (race_id, race) in &result.races {
                if predictions.get(race_id).is_some_and(|p| p.predicted.high_confidence_benign()) {
                    assert_eq!(
                        race.group,
                        OutcomeGroup::NoStateChange,
                        "{id}: {race_id} predicted benign at high confidence but replay \
                         classified it {:?}",
                        race.group
                    );
                    trusted_races += 1;
                }
            }
        }
    }
    assert!(trusted_races > 0, "the corpus must exercise high-confidence predictions");
}

#[test]
fn trust_static_skip_never_flips_a_corpus_verdict() {
    let ablation = run_trust_ablation();
    assert!(
        ablation.verdict_flips.is_empty(),
        "skipping replays for high-confidence benign predictions flipped verdicts: {:?}",
        ablation.verdict_flips
    );
    assert_eq!(
        ablation.baseline.merged.races.keys().collect::<Vec<_>>(),
        ablation.trusted.merged.races.keys().collect::<Vec<_>>(),
        "trusting predictions must not add or drop races"
    );
    assert!(ablation.skipped_races() > 0, "the corpus must exercise the skip path");
    assert!(ablation.replays_saved() > 0, "skipping races must save vproc replays");
}

#[test]
fn idiom_tagging_and_prefilter_leave_detector_and_classifier_output_identical() {
    for id in instance_ids() {
        let enabled: BTreeSet<&str> = [id].into_iter().collect();
        let program = corpus_program(&enabled);
        let analysis = racecheck::analyze(&program);
        let predictions = predictions_by_id(&analysis);
        let candidates = Arc::new(analysis.candidates);
        for schedule in schedules() {
            let recording = record(&program, &schedule);
            let trace = replay(&program, &recording.log).expect("fresh recordings replay");

            let unfiltered = detect_races(&trace, &DetectorConfig::default());
            let filtered = detect_races(
                &trace,
                &DetectorConfig {
                    prefilter: Some(Arc::clone(&candidates)),
                    ..DetectorConfig::default()
                },
            );
            assert_eq!(
                filtered.instances, unfiltered.instances,
                "{id}: prefilter changed instances"
            );
            assert_eq!(
                filtered.by_static, unfiltered.by_static,
                "{id}: prefilter changed grouping"
            );

            // Predictions are advisory: with trust off they must not change
            // one bit of the classification.
            let config = ClassifierConfig::default();
            let without = classify_races_with(&trace, &unfiltered, &config, None);
            let with = classify_races_with(&trace, &unfiltered, &config, Some(&predictions));
            assert_eq!(without.races, with.races, "{id}: predictions changed verdicts");
            assert_eq!(without.vproc_replays, with.vproc_replays, "{id}: replay counts differ");
            assert_eq!(without.static_skipped_races, 0);
            assert_eq!(with.static_skipped_races, 0, "{id}: trust off must never skip");
        }
    }
}
