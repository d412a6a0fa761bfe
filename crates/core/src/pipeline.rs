//! The paper's offline analysis as one function. [`analyze`] takes a
//! program and a decoded replay log through replay → detect → classify →
//! report, timing each phase; `racerep races`, the racerepd service and
//! [`run_pipeline`] (record a fresh execution, then analyze it) all call
//! it, so every front end produces its report on the same path.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use idna_replay::codec::{strip_damaged, with_log_writer, DecodeReport, LogSizeReport};
use idna_replay::damage::{ThreadDamage, TraceDamage};
use idna_replay::event::ReplayLog;
use idna_replay::recorder::record_with;
use idna_replay::replayer::{replay_with, ReplayError, ReplayTrace};
use racecheck::domain::AbsLoc;
use tvm::isa::{Instr, SysCall};
use tvm::predecode::DecodedProgram;
use tvm::program::Program;
use tvm::scheduler::RunConfig;

use crate::classify::{
    classify_races_with, ClassificationResult, ClassifierConfig, StaticPrediction,
};
use crate::detect::{detect_races, DetectedRaces, DetectorConfig, StaticRaceId};
use crate::report::Report;

/// Pipeline options.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Scheduler policy and step budget for the recorded run.
    pub run: RunConfig,
    pub classifier: ClassifierConfig,
    /// Static predictions (idiom verdict + impact reach) keyed by race id,
    /// consulted only under the [`crate::classify::TrustStatic`] skip
    /// tiers. `None` (the default) classifies every race by replay.
    pub static_predictions: Option<Arc<BTreeMap<StaticRaceId, StaticPrediction>>>,
}

impl PipelineConfig {
    /// A pipeline configuration with the given scheduler.
    #[must_use]
    pub fn new(run: RunConfig) -> Self {
        PipelineConfig { run, classifier: ClassifierConfig::default(), static_predictions: None }
    }
}

/// Wall-clock duration of each analysis phase.
#[derive(Copy, Clone, Debug, Default)]
pub struct PhaseTimings {
    /// Replay of the log into a trace, including a damaged log's fallback
    /// replay and damage profile.
    pub replay: Duration,
    /// Happens-before race detection over the trace.
    pub detect: Duration,
    /// Dual-order classification of every race instance.
    pub classify: Duration,
    /// Building the developer-facing report.
    pub report: Duration,
}

/// Everything [`analyze`] produces for one replay log.
#[derive(Debug)]
pub struct Analysis {
    /// The replayed trace (kept for report drill-down and time travel).
    pub trace: ReplayTrace,
    /// Detected races.
    pub detected: DetectedRaces,
    /// Classification of every race.
    pub classification: ClassificationResult,
    /// The developer-facing report.
    pub report: Report,
    /// Phase timings.
    pub timings: PhaseTimings,
}

/// Replays `log` against `decoded`, detects its races, classifies them and
/// builds the report.
///
/// `decode` is the decoder's account of the log; a freshly recorded log
/// passes `&DecodeReport::default()`. When it is not clean (a tolerant
/// decode salvaged a damaged log), the trace carries a damage profile —
/// the decode report narrowed by the static analyzer's per-thread
/// may-write sets — so races whose live-in state was lost come back as
/// replay failures; and a replay that fails on the salvaged bytes is
/// retried with the damaged threads stripped to placeholders.
///
/// `predictions` are consulted only under the
/// [`crate::classify::TrustStatic`] skip tiers of `classifier`.
///
/// # Errors
///
/// Returns [`ReplayError`] when the log does not replay against the program
/// (for a damaged log: not even with its damaged threads stripped).
pub fn analyze(
    decoded: &Arc<DecodedProgram>,
    log: &ReplayLog,
    decode: &DecodeReport,
    classifier: &ClassifierConfig,
    predictions: Option<&BTreeMap<StaticRaceId, StaticPrediction>>,
) -> Result<Analysis, ReplayError> {
    let damaged = !decode.is_clean();
    let start = Instant::now();
    let mut trace = match replay_with(decoded, log) {
        Ok(trace) => trace,
        // A salvaged prefix can still hold silently corrupted values that
        // derail the replay (checksums detect damage, they do not localize
        // it). Placeholder-only damaged threads always replay — each
        // thread replays purely from its own log.
        Err(_) if damaged => replay_with(decoded, &strip_damaged(log, decode))?,
        Err(e) => return Err(e),
    };
    if damaged {
        trace.set_damage(damage_profile(decoded.program(), decode));
    }
    let replay = start.elapsed();

    let start = Instant::now();
    let detected = detect_races(&trace, &DetectorConfig::default());
    let detect = start.elapsed();

    let start = Instant::now();
    let classification = classify_races_with(&trace, &detected, classifier, predictions);
    let classify = start.elapsed();

    let start = Instant::now();
    let report = Report::build(&trace, &classification);
    let timings = PhaseTimings { replay, detect, classify, report: start.elapsed() };

    Ok(Analysis { trace, detected, classification, report, timings })
}

/// Everything the pipeline produces for one recorded execution.
#[derive(Debug)]
pub struct PipelineResult {
    /// The analysis of the recorded log.
    pub analysis: Analysis,
    /// Wall-clock time of the execution with the recorder attached.
    pub record_time: Duration,
    /// Log-size metrics.
    pub log_size: LogSizeReport,
    /// Whether the recorded run finished within its step budget.
    pub run_completed: bool,
    /// Total instructions in the recorded run.
    pub instructions: u64,
}

/// Records one execution of `program` and [`analyze`]s its log.
///
/// # Errors
///
/// Returns [`ReplayError`] when the freshly recorded log fails to replay —
/// which indicates a bug in the recorder/replayer pair, not in the analyzed
/// program.
///
/// # Examples
///
/// ```
/// use replay_race::pipeline::{run_pipeline, PipelineConfig};
/// use tvm::{ProgramBuilder, RunConfig};
/// use tvm::isa::Reg;
///
/// let mut b = ProgramBuilder::new();
/// b.thread("w");
/// b.movi(Reg::R1, 5).store(Reg::R1, Reg::R15, 0x30).halt();
/// b.thread("r");
/// b.load(Reg::R2, Reg::R15, 0x30).halt();
/// let result = run_pipeline(&b.build().into(), &PipelineConfig::new(RunConfig::round_robin(1)))?;
/// assert_eq!(result.analysis.detected.unique_races(), 1);
/// # Ok::<(), idna_replay::replayer::ReplayError>(())
/// ```
pub fn run_pipeline(
    program: &Arc<Program>,
    config: &PipelineConfig,
) -> Result<PipelineResult, ReplayError> {
    // Predecode once; recording, replay, and the classification virtual
    // processor all share this flat instruction stream (decode time is
    // deliberately outside the phase timers — it is a one-time cost per
    // program, not per stage).
    let decoded = Arc::new(DecodedProgram::new(program.clone()));

    let start = Instant::now();
    let recording = record_with(&decoded, &config.run);
    let record_time = start.elapsed();

    let log_size = with_log_writer(|writer| writer.measure(&recording.log));
    let analysis = analyze(
        &decoded,
        &recording.log,
        &DecodeReport::default(),
        &config.classifier,
        config.static_predictions.as_deref(),
    )?;

    Ok(PipelineResult {
        analysis,
        record_time,
        log_size,
        run_completed: recording.summary.completed,
        instructions: recording.summary.steps,
    })
}

/// Refines a tolerant decode's damage report into a per-thread damage
/// horizon using the static analyzer: a damaged thread only taints the
/// global addresses it may write (and the heap only if it can reach heap
/// traffic), so races between intact threads on unrelated state keep
/// their clean verdicts. Falls back to "may write anything" for a
/// damaged thread the analysis cannot bound.
fn damage_profile(program: &Program, report: &DecodeReport) -> TraceDamage {
    if report.is_clean() {
        return TraceDamage::default();
    }
    // Lost alloc/free syscalls corrupt the replayed heap history for every
    // thread, so heap trust requires the *program* to be heap-free — the
    // per-thread summaries do not cover syscall reachability.
    let program_uses_heap = program.instrs().iter().any(|i| {
        matches!(
            i,
            Instr::Syscall { call: SysCall::Alloc } | Instr::Syscall { call: SysCall::Free }
        )
    });
    let analysis = racecheck::analyze(program);
    let threads = report
        .frames
        .iter()
        .filter(|f| !f.status.is_intact())
        .map(|f| {
            let Some(summary) = analysis.threads.get(f.tid) else {
                // A frame slot the program has no thread for: the log and
                // program disagree, trust nothing.
                return ThreadDamage {
                    tid: f.tid,
                    trusted_ts: f.trusted_ts,
                    may_write: None,
                    may_heap: true,
                };
            };
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            let mut may_heap = program_uses_heap;
            let mut unbounded = false;
            for access in summary.accesses.iter().filter(|a| a.writes) {
                match access.loc {
                    AbsLoc::Global { lo, hi } => ranges.push((lo, hi)),
                    AbsLoc::Above { lo } => {
                        ranges.push((lo, u64::MAX));
                        may_heap = true;
                    }
                    AbsLoc::Heap { .. } => may_heap = true,
                    AbsLoc::Unknown => {
                        unbounded = true;
                        may_heap = true;
                    }
                }
            }
            ranges.sort_unstable();
            ranges.dedup();
            ThreadDamage {
                tid: f.tid,
                trusted_ts: f.trusted_ts,
                may_write: if unbounded { None } else { Some(ranges) },
                may_heap,
            }
        })
        .collect();
    TraceDamage::new(threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Verdict;
    use tvm::isa::Reg;
    use tvm::ProgramBuilder;

    #[test]
    fn pipeline_end_to_end() {
        let mut b = ProgramBuilder::new();
        b.thread("a");
        b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 0x20).halt();
        b.thread("b");
        b.movi(Reg::R1, 2).store(Reg::R1, Reg::R15, 0x20).halt();
        let result =
            run_pipeline(&b.build().into(), &PipelineConfig::new(RunConfig::round_robin(1)))
                .unwrap();
        assert!(result.run_completed);
        let analysis = &result.analysis;
        assert_eq!(analysis.detected.unique_races(), 1);
        assert_eq!(analysis.classification.with_verdict(Verdict::PotentiallyHarmful).count(), 1);
        assert_eq!(analysis.report.races.len(), 1);
        assert!(result.log_size.raw_bytes > 0);
        assert!(result.instructions > 0);
    }

    #[test]
    fn analyze_retries_a_damaged_log_on_its_intact_threads() {
        use idna_replay::codec::{FrameInfo, FrameStatus};
        let mut b = ProgramBuilder::new();
        b.thread("a");
        b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 0x20).halt();
        b.thread("b");
        b.load(Reg::R2, Reg::R15, 0x20).halt();
        let program: Arc<Program> = b.build().into();
        let mut log = idna_replay::recorder::record(&program, &RunConfig::round_robin(1)).log;
        // Thread b's log now claims more instructions than it ran: it no
        // longer replays.
        log.threads[1].end_instr += 5;
        let decoded = Arc::new(DecodedProgram::new(program));
        let config = ClassifierConfig::default();

        // A clean decode report vouches for every thread: no retry.
        let clean = analyze(&decoded, &log, &DecodeReport::default(), &config, None);
        assert!(matches!(clean, Err(ReplayError::IncompleteReplay { tid: 1, .. })), "{clean:?}");

        // Reporting b's frame damaged replays the log with b stripped to a
        // placeholder and attaches the damage profile.
        let frame = |tid, status| FrameInfo {
            tid,
            payload_len: 0,
            status,
            salvaged_events: 0,
            trusted_ts: 0,
        };
        let damaged = DecodeReport {
            format_version: 2,
            frames: vec![
                frame(0, FrameStatus::Intact),
                frame(1, FrameStatus::ChecksumMismatch { expected: 0, actual: 1 }),
            ],
            bytes_dropped: 0,
        };
        let analysis = analyze(&decoded, &log, &damaged, &config, None).expect("stripped replay");
        assert!(analysis.trace.damage().is_some());
        assert_eq!(analysis.detected.unique_races(), 0, "b's load is gone with its frame");
    }
}
