//! `corpus`: the 20 labelled executions with their pinned schedules, one
//! caller in a closed loop. One op is one full pass analyzed as
//! `racerep races --trust-static skip-benign,skip-unreachable` does: each
//! execution is recorded, decoded, replayed, detected, statically analyzed
//! and classified, then the classifications are merged and Table 1 is
//! checked against ground truth.
//!
//! Why: many small programs make per-program fixed costs and the static
//! passes dominate, so a classify-only optimisation should show little
//! here. The schedules stay pinned because the ground truth depends on
//! them; `--seed` does not change this workload.

use std::collections::BTreeSet;
use std::sync::Arc;

use replay_race::classify::{merge_classifications, TrustStatic};
use tvm::predecode::DecodedProgram;
use tvm::scheduler::RunConfig;
use workloads::corpus::{corpus_executions, corpus_manifest, corpus_program};
use workloads::eval::{CorpusReport, Table1};
use workloads::truth::TruthTable;

use crate::layers::{one_shot, Steps};
use crate::trace::Tracer;
use crate::{OpResult, Options, Workload};

/// Table 1 at the commit that introduced the benchmark: rows No-State-
/// Change, State-Change, Replay-Failure; columns really benign, really
/// harmful.
const TABLE1: [[usize; 2]; 3] = [[45, 0], [15, 3], [14, 5]];

/// Classify runs on one worker (`--jobs 1`). With the default (one worker
/// per vCPU) each of the 20 small classify calls spawns workers and wakes
/// an idle vCPU; on a shared 2-vCPU VM that wake-up waits on the host, and
/// back-to-back passes read 294-338 ms at 25-31% host steal against
/// 164-174 ms at 3-4% with one worker. That noise hid every other effect
/// here. One worker also keeps the op single-threaded, so its process CPU
/// time is its latency on an unshared core.
const STEPS: Steps = Steps { native: false, trust: TrustStatic::SkipBoth, jobs: 1 };

pub struct Corpus {
    executions: Vec<(Arc<DecodedProgram>, RunConfig)>,
    truth: TruthTable,
}

impl Corpus {
    pub fn set_up(_opts: &Options) -> Result<Self, String> {
        let executions: Vec<(Arc<DecodedProgram>, RunConfig)> = corpus_executions()
            .iter()
            .map(|exec| {
                let enabled: BTreeSet<&str> = exec.enabled.iter().copied().collect();
                (Arc::new(DecodedProgram::new(corpus_program(&enabled))), exec.schedule)
            })
            .collect();
        let first = executions.first().ok_or("the corpus has no executions")?;
        let truth = TruthTable::resolve(first.0.program(), &corpus_manifest());
        let corpus = Corpus { executions, truth };
        // Warm-up: one checked pass.
        corpus.op(&Tracer::new(), 0).error.map_or(Ok(corpus), Err)
    }

    fn check(&self, merged: replay_race::ClassificationResult) -> Result<(), String> {
        let unexpected: Vec<_> =
            merged.races.keys().filter(|id| self.truth.verdict(**id).is_none()).copied().collect();
        let report = CorpusReport {
            merged,
            truth: self.truth.clone(),
            executions: Vec::new(),
            unexpected,
            total_instructions: 0,
        };
        let table = Table1::compute(&report);
        if !report.unexpected.is_empty() {
            return Err(format!("unexpected races: {:?}", report.unexpected));
        }
        if table.missed_harmful() != 0 {
            return Err(format!("{} harmful races classified benign", table.missed_harmful()));
        }
        if table.cells != TABLE1 {
            return Err(format!("Table 1 is {:?}, expected {TABLE1:?}", table.cells));
        }
        Ok(())
    }
}

impl Workload for Corpus {
    fn op(&self, tr: &Tracer, id: u64) -> OpResult {
        let (merged, latency_ms) = tr.op(id, || -> Result<_, String> {
            let mut results = Vec::with_capacity(self.executions.len());
            for (decoded, run) in &self.executions {
                let pass = one_shot(tr, id, decoded, run, STEPS)?;
                tr.layer("report.json", id, || drop(pass.json));
                results.push(pass.classification);
            }
            Ok(tr.layer("classify", id, || {
                let merged = merge_classifications(&results);
                drop(results);
                merged
            }))
        });
        OpResult { latency_ms, error: merged.and_then(|m| self.check(m)).err() }
    }
}
