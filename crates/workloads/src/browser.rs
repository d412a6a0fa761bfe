//! The Internet-Explorer stand-in for the paper's §5.1 overhead study.
//!
//! The paper measures recording (≈6×), replay (≈10×), happens-before
//! analysis (≈45×) and classification (≈280×) overheads on an IE session
//! with 27 threads. This workload models a browser page load:
//!
//! * a main thread that dispatches `jobs` page resources through a shared,
//!   CAS-lock-protected work queue,
//! * `fetchers` that pull jobs and "download" (compute) content into
//!   per-job buffers,
//! * `parsers` that transform the content,
//! * a renderer that spins until everything is parsed and aggregates,
//! * racy statistics counters sprinkled through all stages (as real
//!   browsers had), so the analysis has races to chew on — the paper found
//!   2,196 dynamic race instances in its IE run.

use std::sync::Arc;

use tvm::isa::{BinOp, Cond, Reg, RmwOp};
use tvm::{Program, ProgramBuilder};

/// Browser-workload sizing.
#[derive(Copy, Clone, Debug)]
pub struct BrowserConfig {
    /// Number of fetcher threads.
    pub fetchers: usize,
    /// Number of parser threads.
    pub parsers: usize,
    /// Number of page resources to process.
    pub jobs: u64,
    /// Compute work per job (loop iterations).
    pub work: u64,
}

impl Default for BrowserConfig {
    fn default() -> Self {
        BrowserConfig { fetchers: 3, parsers: 2, jobs: 8, work: 32 }
    }
}

impl BrowserConfig {
    /// A paper-scale configuration: 27 threads, as in the IE study.
    #[must_use]
    pub fn paper_scale() -> Self {
        BrowserConfig { fetchers: 14, parsers: 12, jobs: 64, work: 48 }
    }

    /// Total thread count (fetchers + parsers + main + renderer).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.fetchers + self.parsers + 2
    }
}

// Global layout.
const QLOCK: u64 = 0x10; // CAS spin lock protecting the queue head
const QHEAD: u64 = 0x11; // next job to fetch
const FETCHED: u64 = 0x12; // per-job fetched flags base (jobs words)
                           // Racy statistics (intentionally unsynchronized, like the paper's apps).
const STAT_FETCH: u64 = 0x90;
const STAT_PARSE: u64 = 0x91;
const PARSED_COUNT: u64 = 0x92; // atomically maintained parse counter
const CONFIG: u64 = 0x93; // page configuration, published once by main
const CONFIG_READY: u64 = 0x94; // atomic release flag guarding CONFIG
const CONTENT: u64 = 0x100; // per-job content words
const PARSED: u64 = 0x200; // per-job parsed flags

/// Builds the browser workload.
#[must_use]
pub fn browser_program(cfg: &BrowserConfig) -> Arc<Program> {
    assert!(cfg.jobs <= 0x100, "job table overflows the global layout");
    let mut b = ProgramBuilder::new();

    // --- helpers -----------------------------------------------------
    // Lock: spin on CAS(QLOCK, 0 -> 1); unlock: xchg 0.
    let emit_lock = |b: &mut ProgramBuilder, ns: &str, n: usize| {
        let acquire = b.fresh_label(&format!("{ns}{n}_acquire"));
        b.label(acquire)
            .movi(Reg::R10, 0)
            .movi(Reg::R11, 1)
            .cas(Reg::R12, Reg::R15, QLOCK as i64, Reg::R10, Reg::R11)
            .branch(Cond::Eq, Reg::R12, Reg::R15, acquire);
    };
    let emit_unlock = |b: &mut ProgramBuilder| {
        b.movi(Reg::R10, 0).atomic_rmw(RmwOp::Xchg, Reg::R12, Reg::R15, QLOCK as i64, Reg::R10);
    };

    // --- main: seed the queue ----------------------------------------
    b.thread("main");
    b.movi(Reg::R1, 0).store(Reg::R1, Reg::R15, QHEAD as i64);
    // Publish the page configuration through a validated flag handoff:
    // plain store of the value, then an atomic release of CONFIG_READY.
    // The renderer acquires it with an atomic spin — the static order pass
    // proves the pair ordered, so it never becomes a candidate.
    b.movi(Reg::R4, cfg.jobs * 2 + 1).store(Reg::R4, Reg::R15, CONFIG as i64);
    b.movi(Reg::R5, 1).atomic_rmw(RmwOp::Xchg, Reg::R6, Reg::R15, CONFIG_READY as i64, Reg::R5);
    // Publish "open for business" through the lock so fetchers can start.
    emit_lock(&mut b, "main", 0);
    emit_unlock(&mut b);
    b.halt();

    // --- fetchers ------------------------------------------------------
    for fi in 0..cfg.fetchers {
        b.thread(&format!("fetcher{fi}"));
        let next_job = b.fresh_label(&format!("f{fi}_next"));
        let done = b.fresh_label(&format!("f{fi}_done"));
        b.label(next_job);
        // j = pop(queue) under the lock.
        emit_lock(&mut b, "f", fi);
        b.load(Reg::R1, Reg::R15, QHEAD as i64).addi(Reg::R2, Reg::R1, 1).store(
            Reg::R2,
            Reg::R15,
            QHEAD as i64,
        );
        emit_unlock(&mut b);
        b.bini(BinOp::Sub, Reg::R3, Reg::R1, cfg.jobs).branch(Cond::Eq, Reg::R3, Reg::R15, done);
        // Out-of-range pops (> jobs) also stop.
        b.bini(BinOp::Div, Reg::R3, Reg::R1, cfg.jobs + 1).branch(
            Cond::Ne,
            Reg::R3,
            Reg::R15,
            done,
        );
        // "Download": content[j] = sum of `work` values derived from j.
        let work_top = b.fresh_label(&format!("f{fi}_work"));
        b.movi(Reg::R4, 0) // acc
            .movi(Reg::R5, 0) // k
            .label(work_top)
            .bin(BinOp::Add, Reg::R4, Reg::R4, Reg::R5)
            .addi(Reg::R4, Reg::R4, 3)
            .addi(Reg::R5, Reg::R5, 1)
            .bini(BinOp::Sub, Reg::R6, Reg::R5, cfg.work)
            .branch(Cond::Ne, Reg::R6, Reg::R15, work_top);
        b.movi(Reg::R7, CONTENT).add(Reg::R7, Reg::R7, Reg::R1).store(Reg::R4, Reg::R7, 0);
        // fetched[j] = 1 (plain store: consumed by parsers via spin — a
        // user-constructed-synchronization race).
        b.movi(Reg::R8, FETCHED).add(Reg::R8, Reg::R8, Reg::R1).movi(Reg::R9, 1).store(
            Reg::R9,
            Reg::R8,
            0,
        );
        // Racy statistics: stat_fetch++ without synchronization.
        b.load(Reg::R9, Reg::R15, STAT_FETCH as i64).addi(Reg::R9, Reg::R9, 1).store(
            Reg::R9,
            Reg::R15,
            STAT_FETCH as i64,
        );
        b.jump(next_job);
        b.label(done);
        b.halt();
    }

    // --- parsers -------------------------------------------------------
    for pi in 0..cfg.parsers {
        b.thread(&format!("parser{pi}"));
        let next = b.fresh_label(&format!("p{pi}_next"));
        let wait = b.fresh_label(&format!("p{pi}_wait"));
        let done = b.fresh_label(&format!("p{pi}_done"));
        // Parsers statically partition jobs: job = pi, pi + parsers, ...
        b.movi(Reg::R1, pi as u64);
        b.label(next);
        b.bini(BinOp::Div, Reg::R3, Reg::R1, cfg.jobs).branch(Cond::Ne, Reg::R3, Reg::R15, done);
        // Wait for fetched[j] (racy flag read).
        b.movi(Reg::R8, FETCHED).add(Reg::R8, Reg::R8, Reg::R1);
        b.label(wait);
        b.load(Reg::R9, Reg::R8, 0).branch(Cond::Eq, Reg::R9, Reg::R15, wait);
        // Parse: parsed[j] = content[j] * 2 + 1.
        b.movi(Reg::R7, CONTENT)
            .add(Reg::R7, Reg::R7, Reg::R1)
            .load(Reg::R4, Reg::R7, 0)
            .bini(BinOp::Mul, Reg::R4, Reg::R4, 2)
            .addi(Reg::R4, Reg::R4, 1)
            .movi(Reg::R7, PARSED)
            .add(Reg::R7, Reg::R7, Reg::R1)
            .store(Reg::R4, Reg::R7, 0);
        // Racy statistics + an atomic progress counter (the proper one).
        b.load(Reg::R9, Reg::R15, STAT_PARSE as i64).addi(Reg::R9, Reg::R9, 1).store(
            Reg::R9,
            Reg::R15,
            STAT_PARSE as i64,
        );
        b.movi(Reg::R9, 1).atomic_rmw(RmwOp::Add, Reg::R10, Reg::R15, PARSED_COUNT as i64, Reg::R9);
        b.bini(BinOp::Add, Reg::R1, Reg::R1, cfg.parsers as u64).jump(next);
        b.label(done);
        b.halt();
    }

    // --- renderer --------------------------------------------------------
    b.thread("renderer");
    let rcfg = b.fresh_label("r_cfg");
    let rwait = b.fresh_label("r_wait");
    let ragg = b.fresh_label("r_agg");
    let rsum = b.fresh_label("r_sum");
    let rdone = b.fresh_label("r_done");
    // Acquire the page configuration main published (validated handoff:
    // identity-RMW spin until CONFIG_READY is nonzero, then a plain read
    // of CONFIG that the order pass proves race-free).
    b.label(rcfg);
    b.movi(Reg::R2, 0)
        .atomic_rmw(RmwOp::Or, Reg::R1, Reg::R15, CONFIG_READY as i64, Reg::R2)
        .branch(Cond::Eq, Reg::R1, Reg::R15, rcfg);
    b.load(Reg::R14, Reg::R15, CONFIG as i64);
    // Wait (atomically) for all jobs parsed.
    b.label(rwait);
    b.movi(Reg::R2, 0)
        .atomic_rmw(RmwOp::Or, Reg::R1, Reg::R15, PARSED_COUNT as i64, Reg::R2)
        .bini(BinOp::Sub, Reg::R3, Reg::R1, cfg.jobs)
        .branch(Cond::Ne, Reg::R3, Reg::R15, rwait);
    // Aggregate parsed values and print the page "checksum". The loop is
    // top-tested with a division guard (`R5 / jobs == 0  ⟺  R5 < jobs`) so
    // the index into PARSED stays bounded even after interval widening.
    b.movi(Reg::R4, 0).movi(Reg::R5, 0).label(ragg);
    b.bini(BinOp::Div, Reg::R3, Reg::R5, cfg.jobs).branch(Cond::Ne, Reg::R3, Reg::R15, rsum);
    b.movi(Reg::R7, PARSED)
        .add(Reg::R7, Reg::R7, Reg::R5)
        .load(Reg::R6, Reg::R7, 0)
        .add(Reg::R4, Reg::R4, Reg::R6)
        .addi(Reg::R5, Reg::R5, 1)
        .jump(ragg);
    b.label(rsum);
    // Fold the handed-off configuration into the checksum: it is ordered,
    // so the rendered value stays schedule-independent.
    b.add(Reg::R4, Reg::R4, Reg::R14);
    b.print(Reg::R4);
    // Read the racy stats, as a browser's telemetry would.
    b.load(Reg::R1, Reg::R15, STAT_FETCH as i64)
        .load(Reg::R2, Reg::R15, STAT_PARSE as i64)
        .add(Reg::R1, Reg::R1, Reg::R2)
        .print(Reg::R1);
    b.jump(rdone);
    b.label(rdone);
    b.halt();

    Arc::new(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_race::pipeline::{run_pipeline, PipelineConfig};
    use tvm::machine::Machine;
    use tvm::scheduler::{run, RunConfig};

    #[test]
    fn browser_completes_and_renders() {
        let p = browser_program(&BrowserConfig::default());
        let mut m = Machine::new(p);
        let summary = run(&mut m, &RunConfig::round_robin(8).with_max_steps(5_000_000), &mut ());
        assert!(summary.completed, "browser run must terminate");
        assert!(summary.faults.is_empty(), "{:?}", summary.faults);
        // The renderer printed a checksum and the (approximate) stats.
        assert!(m.output().len() >= 2);
        assert!(m.output()[0].value > 0);
    }

    #[test]
    fn checksum_is_schedule_independent() {
        // The data path is properly ordered (locks + flag spins), so the
        // rendered checksum must not depend on the schedule; only the racy
        // stats may vary.
        let p = browser_program(&BrowserConfig::default());
        let mut checksums = Vec::new();
        for seed in 0..4u64 {
            let mut m = Machine::new(p.clone());
            let summary =
                run(&mut m, &RunConfig::chunked(seed, 1, 8).with_max_steps(5_000_000), &mut ());
            assert!(summary.completed, "seed {seed}");
            checksums.push(m.output()[0].value);
        }
        assert!(checksums.windows(2).all(|w| w[0] == w[1]), "{checksums:?}");
    }

    #[test]
    fn browser_pipeline_finds_the_planted_races() {
        let p = browser_program(&BrowserConfig::default());
        let result = run_pipeline(
            &p,
            &PipelineConfig::new(RunConfig::chunked(1, 1, 8).with_max_steps(5_000_000)),
        )
        .expect("pipeline");
        // The racy stats counters and fetched-flag handoffs are real races.
        assert!(result.analysis.detected.unique_races() > 0);
        assert!(
            result.analysis.detected.instance_count() > result.analysis.detected.unique_races()
        );
    }
}
