//! Reproduces the paper's Figure 2: a racy reference-count decrement with a
//! conditional `free`, triaged by the replay classifier. The example records
//! the program under increasingly adversarial schedules until the racy
//! regions overlap, then prints the two-way replay scenario a developer
//! would use to understand the bug — including the interleaving where the
//! object is freed twice.
//!
//! ```sh
//! cargo run -p replay-race --example triage_refcount
//! ```

use std::sync::Arc;

use replay_race::classify::Verdict;
use replay_race::pipeline::{run_pipeline, PipelineConfig};
use tvm::isa::{Cond, Reg, RmwOp, SysCall};
use tvm::{Program, ProgramBuilder, RunConfig};

const READY: i64 = 0x8;
const RC: i64 = 0x10;
const FOO: i64 = 0x18;

/// Two worker threads execute, without synchronization:
///
/// ```c
/// foo->refCnt--;
/// if (foo->refCnt == 0)
///     free(foo);
/// ```
fn figure2_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    b.thread("setup");
    b.movi(Reg::R0, 4)
        .syscall(SysCall::Alloc)
        .store(Reg::R0, Reg::R15, FOO)
        .movi(Reg::R1, 2)
        .store(Reg::R1, Reg::R15, RC)
        .movi(Reg::R2, 1)
        .atomic_rmw(RmwOp::Xchg, Reg::R3, Reg::R15, READY, Reg::R2)
        .halt();
    for name in ["w1", "w2"] {
        b.thread(name);
        let spin = b.fresh_label(&format!("{name}_spin"));
        let skip = b.fresh_label(&format!("{name}_skip"));
        b.label(spin)
            .movi(Reg::R2, 0)
            .atomic_rmw(RmwOp::Or, Reg::R1, Reg::R15, READY, Reg::R2)
            .branch(Cond::Eq, Reg::R1, Reg::R15, spin);
        b.mark(&format!("{name}_load_refcnt"))
            .load(Reg::R3, Reg::R15, RC)
            .subi(Reg::R3, Reg::R3, 1)
            .mark(&format!("{name}_store_refcnt"))
            .store(Reg::R3, Reg::R15, RC)
            .mark(&format!("{name}_recheck_refcnt"))
            .load(Reg::R4, Reg::R15, RC)
            .branch(Cond::Ne, Reg::R4, Reg::R15, skip)
            .load(Reg::R0, Reg::R15, FOO)
            .mark(&format!("{name}_free"))
            .syscall(SysCall::Free)
            .label(skip)
            .halt();
    }
    Arc::new(b.build())
}

fn main() {
    let program = figure2_program();
    for seed in 0..64u64 {
        let config = PipelineConfig::new(RunConfig::chunked(seed, 1, 6).with_max_steps(200_000));
        let result = run_pipeline(&program, &config).expect("replay");
        let harmful: Vec<_> =
            result.analysis.classification.with_verdict(Verdict::PotentiallyHarmful).collect();
        if harmful.is_empty() {
            continue;
        }
        println!("schedule seed {seed} exposed the bug\n");
        println!("{}", result.analysis.report.to_text());
        println!("triage summary:");
        for race in &harmful {
            println!(
                "  {}: {} instances, {} exposing ({}%)",
                race.id,
                race.counts.analyzed,
                race.counts.exposing(),
                race.counts.exposing() * 100 / race.counts.analyzed.max(1)
            );
        }
        return;
    }
    println!("no schedule in the sweep overlapped the racy regions; try more seeds");
}
