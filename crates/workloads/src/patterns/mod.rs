//! Race-pattern library: one module per entry in the paper's taxonomy.
//!
//! Every pattern is an *emitter*: it appends threads and code to a shared
//! [`ProgramBuilder`] under a namespace, and returns the manifest of races
//! it plants. Patterns compose — a corpus execution instantiates many
//! patterns into one program, like the many services of the paper's
//! Vista/IE runs.
//!
//! # Conventions
//!
//! * `r15` is never written: it is the zero register, and `[r15 + K]`
//!   addresses global `K`.
//! * `r14` is reserved for the per-instance enable gate.
//! * Patterns that must be *correctly classified benign* (No-State-Change)
//!   keep their regions convergent: spin loops re-read until the expected
//!   value arrives, both sides of data-dependent branches rejoin and
//!   clobber condition registers, and no value derived from a racy read
//!   escapes with order-dependent content.
//! * Patterns planted as replayer-limitation misclassifications route the
//!   alternative order into *cold code* that the recorded execution never
//!   touched.

pub mod approx_stats;
pub mod both_values;
pub mod disjoint_bits;
pub mod double_check;
pub mod extras;
pub mod harmful;
pub mod redundant_write;
pub mod user_sync;
pub mod value_impact;

use tvm::builder::{Label, ProgramBuilder};
use tvm::isa::{Cond, Reg};
use tvm::memory::GLOBAL_LIMIT;

use crate::truth::GroundTruthRace;

/// Allocator for global words, so composed patterns never collide.
#[derive(Debug)]
pub struct GlobalAlloc {
    next: u64,
}

impl GlobalAlloc {
    /// Starts allocating at a small offset (0 is left unused on purpose:
    /// stray null-ish addresses should not silently alias a pattern's
    /// state).
    #[must_use]
    pub fn new() -> Self {
        GlobalAlloc { next: 0x100 }
    }

    /// Allocates one global word.
    ///
    /// # Panics
    ///
    /// Panics if the globals region is exhausted.
    pub fn word(&mut self) -> u64 {
        let addr = self.next;
        self.next += 1;
        assert!(self.next < GLOBAL_LIMIT, "globals region exhausted");
        addr
    }

    /// Allocates `n` consecutive global words, returning the base.
    pub fn block(&mut self, n: u64) -> u64 {
        let base = self.next;
        self.next += n;
        assert!(self.next < GLOBAL_LIMIT, "globals region exhausted");
        base
    }
}

impl Default for GlobalAlloc {
    fn default() -> Self {
        Self::new()
    }
}

/// Emission context handed to every pattern.
#[derive(Debug)]
pub struct Ctx<'a> {
    pub b: &'a mut ProgramBuilder,
    pub alloc: &'a mut GlobalAlloc,
    /// Namespace for marks and thread names, e.g. `"e03.user_sync1"`.
    pub ns: String,
    /// Global word gating this instance: threads halt immediately when it
    /// is zero. `None` means always enabled.
    pub enable: Option<u64>,
}

impl<'a> Ctx<'a> {
    /// Creates a context.
    pub fn new(
        b: &'a mut ProgramBuilder,
        alloc: &'a mut GlobalAlloc,
        ns: impl Into<String>,
        enable: Option<u64>,
    ) -> Self {
        Ctx { b, alloc, ns: ns.into(), enable }
    }

    /// Namespaced mark on the next instruction; returns the full mark name.
    pub fn mark(&mut self, suffix: &str) -> String {
        let name = format!("{}.{}", self.ns, suffix);
        self.b.mark(&name);
        name
    }

    /// Namespaced fresh label.
    pub fn label(&mut self, suffix: &str) -> Label {
        let name = format!("{}.{}", self.ns, suffix);
        self.b.fresh_label(&name)
    }

    /// Declares a namespaced thread and emits the enable gate: when the
    /// instance's enable word is 0 the thread halts before touching any
    /// shared state.
    pub fn thread(&mut self, suffix: &str) {
        let name = format!("{}.{}", self.ns, suffix);
        self.b.thread(&name);
        if let Some(enable) = self.enable {
            let go = self.label(&format!("{suffix}_go"));
            self.b
                .load(Reg::R14, Reg::R15, enable as i64)
                .branch(Cond::Ne, Reg::R14, Reg::R15, go)
                .halt()
                .label(go);
        }
    }

    /// Emits `n` instructions of register-local busywork (delays a thread
    /// without touching memory), leaving `r13` clobbered.
    pub fn busywork(&mut self, n: usize) {
        for i in 0..n {
            self.b.movi(Reg::R13, i as u64);
        }
    }

    /// Clears the scratch registers a pattern used, so live-out comparison
    /// sees converged register files (`r1..=r8` plus `r13`).
    pub fn clobber_scratch(&mut self) {
        for r in 1..=8u8 {
            self.b.movi(Reg::new(r), 0);
        }
        self.b.movi(Reg::R13, 0);
    }
}

/// What a pattern emitted: its manifest plus bookkeeping for tests.
#[derive(Clone, Debug, Default)]
pub struct Emitted {
    /// The planted races.
    pub races: Vec<GroundTruthRace>,
}

impl Emitted {
    pub(crate) fn push(
        &mut self,
        mark_a: impl Into<String>,
        mark_b: impl Into<String>,
        verdict: crate::truth::TrueVerdict,
    ) {
        self.races.push(GroundTruthRace::new(mark_a, mark_b, verdict));
    }

    /// Merges another pattern's manifest into this one.
    pub fn extend(&mut self, other: Emitted) {
        self.races.extend(other.races);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared harness for pattern unit tests: build one pattern instance,
    //! run the full pipeline, and join against the manifest.

    use std::collections::BTreeMap;
    use std::sync::Arc;

    use replay_race::classify::{ClassificationResult, OutcomeGroup};
    use replay_race::detect::StaticRaceId;
    use replay_race::pipeline::{run_pipeline, PipelineConfig};
    use tvm::scheduler::RunConfig;
    use tvm::{Program, ProgramBuilder};

    use super::{Ctx, Emitted, GlobalAlloc};
    use crate::truth::TruthTable;

    pub(crate) struct PatternRun {
        pub program: Arc<Program>,
        #[allow(dead_code)] // kept for ad-hoc debugging in pattern tests
        pub truth: TruthTable,
        pub result: ClassificationResult,
        /// Group per planted race (None when never detected in this run).
        pub groups: BTreeMap<StaticRaceId, Option<OutcomeGroup>>,
        /// Detected races that are not in the manifest.
        pub unexpected: Vec<StaticRaceId>,
    }

    /// Emits one pattern with `emit`, runs it under `run`, classifies, and
    /// joins with the manifest.
    pub(crate) fn run_pattern(
        emit: impl FnOnce(&mut Ctx<'_>) -> Emitted,
        run: RunConfig,
    ) -> PatternRun {
        let mut b = ProgramBuilder::new();
        let mut alloc = GlobalAlloc::new();
        let mut ctx = Ctx::new(&mut b, &mut alloc, "test", None);
        let emitted = emit(&mut ctx);
        let program: Arc<Program> = Arc::new(b.build());
        let truth = TruthTable::resolve(&program, &emitted.races);
        let result = run_pipeline(&program, &PipelineConfig::new(run))
            .expect("pipeline")
            .analysis
            .classification;
        let mut groups = BTreeMap::new();
        for (id, _) in truth.iter() {
            groups.insert(id, result.races.get(&id).map(|r| r.group));
        }
        let unexpected =
            result.races.keys().filter(|id| truth.verdict(**id).is_none()).copied().collect();
        PatternRun { program, truth, result, groups, unexpected }
    }

    /// Asserts that every planted race was detected with the expected group
    /// and nothing unexpected was found.
    pub(crate) fn assert_groups(run: &PatternRun, expected: &[(&str, &str, OutcomeGroup)]) {
        assert!(
            run.unexpected.is_empty(),
            "unexpected races detected: {:?}\n(program)\n{}",
            run.unexpected,
            run.program
        );
        assert_eq!(
            run.groups.len(),
            expected.len(),
            "planted {} races, expectation lists {}",
            run.groups.len(),
            expected.len()
        );
        for (mark_a, mark_b, group) in expected {
            let pc_a = run.program.mark(&format!("test.{mark_a}")).expect("mark a");
            let pc_b = run.program.mark(&format!("test.{mark_b}")).expect("mark b");
            let id = StaticRaceId::new(pc_a, pc_b);
            let got = run.groups.get(&id).unwrap_or_else(|| panic!("race {id} not planted"));
            assert_eq!(
                got.as_ref(),
                Some(group),
                "race {id} ({mark_a} vs {mark_b}): expected {group:?}, got {got:?}"
            );
        }
    }
}
