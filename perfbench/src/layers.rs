//! The one-shot pipeline, called layer by layer in the order `racerep
//! record` and `racerep races --format json` call them, with a span around
//! each call and the layer's counters read where the call returns. Each
//! layer's output is also freed inside a span of that layer, so the op's
//! own glue stays small.

use std::sync::Arc;

use idna_replay::codec::{with_log_writer, DecodeMode};
use idna_replay::recorder::record_with;
use idna_replay::replayer::replay_with;
use replay_race::classify::{
    classify_races_with, predictions_by_id, ClassificationResult, ClassifierConfig, TrustStatic,
};
use replay_race::detect::{detect_races, DetectorConfig};
use replay_race::report::Report;
use serviced::container::{log_from_bytes_mode, log_to_bytes_with};
use tvm::machine::Machine;
use tvm::predecode::DecodedProgram;
use tvm::scheduler::{run_native, RunConfig};

use crate::trace::Tracer;

/// What one pipeline pass runs besides record → report.
#[derive(Copy, Clone)]
pub struct Steps {
    /// Run the program natively first (the §5.1 baseline).
    pub native: bool,
    /// The `--trust-static` tier; anything but `Off` runs the static
    /// analyzer and hands its predictions to classify.
    pub trust: TrustStatic,
    /// Classify worker threads (`--jobs`; 0 = available parallelism).
    pub jobs: usize,
}

/// One pass's outputs: the report JSON text and the classification.
pub struct Pass {
    pub json: String,
    pub classification: ClassificationResult,
}

/// Records `run` and takes the log through the whole one-shot pipeline.
pub fn one_shot(
    tr: &Tracer,
    op: u64,
    decoded: &Arc<DecodedProgram>,
    run: &RunConfig,
    steps: Steps,
) -> Result<Pass, String> {
    if steps.native {
        let native = tr.layer("tvm.native", op, || {
            let mut machine = Machine::with_decoded(decoded.clone());
            run_native(&mut machine, run)
        });
        tr.count(op, "tvm.instructions", native.steps as f64);
    }
    let recording = tr.layer("idna.record", op, || record_with(decoded, run));
    if !recording.summary.completed {
        return Err("recorded run exhausted its step budget".into());
    }
    let (container, sizes) = tr.layer("idna.encode", op, || {
        with_log_writer(|writer| {
            let bytes = log_to_bytes_with(&recording.log, run, writer);
            (bytes, writer.measure(&recording.log))
        })
    });
    tr.count(op, "idna.log_raw_bytes", sizes.raw_bytes as f64);
    tr.count(op, "idna.log_compressed_bytes", sizes.compressed_bytes as f64);
    let pass = analyze_log(tr, op, decoded, &container, steps);
    tr.layer("idna.record", op, || drop(recording));
    tr.layer("idna.encode", op, || drop(container));
    pass
}

/// The `racerep races --format json` half: decode a log container, replay,
/// detect, (analyze,) classify and render the report.
pub fn analyze_log(
    tr: &Tracer,
    op: u64,
    decoded: &Arc<DecodedProgram>,
    container: &[u8],
    steps: Steps,
) -> Result<Pass, String> {
    let Steps { trust, jobs, .. } = steps;
    let (log, _schedule, _report) =
        tr.layer("idna.decode", op, || log_from_bytes_mode(container, DecodeMode::Strict))?;
    let trace =
        tr.layer("idna.replay", op, || replay_with(decoded, &log)).map_err(|e| e.to_string())?;
    let detected = tr.layer("detect", op, || detect_races(&trace, &DetectorConfig::default()));
    tr.count(op, "detect.instances", detected.instance_count() as f64);
    tr.count(op, "detect.unique_races", detected.unique_races() as f64);
    let predictions = (trust != TrustStatic::Off).then(|| {
        tr.layer("racecheck.analyze", op, || {
            let analysis = racecheck::analyze(decoded.program());
            tr.count(op, "racecheck.candidate_pairs", analysis.stats.candidate_pairs as f64);
            tr.count(op, "racecheck.warnings", analysis.warnings.len() as f64);
            predictions_by_id(&analysis)
        })
    });
    let config = ClassifierConfig { trust_static: trust, jobs, ..ClassifierConfig::default() };
    let classification = tr.layer("classify", op, || {
        classify_races_with(&trace, &detected, &config, predictions.as_ref())
    });
    let analyzed: usize = classification.races.values().map(|r| r.counts.analyzed).sum();
    let batching = classification.batch_stats;
    tr.count(op, "classify.vproc_replays", classification.vproc_replays as f64);
    tr.count(op, "classify.analyzed_instances", analyzed as f64);
    tr.count(op, "classify.planned_hits", classification.cache_stats.hits as f64);
    tr.count(op, "classify.batches", batching.batches as f64);
    tr.count(op, "classify.forks", batching.forks as f64);
    tr.count(op, "classify.prefix_executions", batching.prefix_executions as f64);
    tr.count(op, "classify.static_skipped_races", classification.static_skipped_races as f64);
    let report = tr.layer("report.build", op, || Report::build(&trace, &classification));
    let json = tr.layer("report.json", op, || report.to_json_value().to_string_pretty());
    tr.count(op, "report.json_bytes", json.len() as f64);
    // Freeing a layer's output is that layer's cost.
    tr.layer("report.build", op, || drop(report));
    if let Some(predictions) = predictions {
        tr.layer("racecheck.analyze", op, || drop(predictions));
    }
    tr.layer("detect", op, || drop(detected));
    tr.layer("idna.replay", op, || drop(trace));
    tr.layer("idna.decode", op, || drop(log));
    Ok(Pass { json, classification })
}
