//! Quickstart: build a racy two-thread program, run the whole pipeline, and
//! print the developer report.
//!
//! ```sh
//! cargo run -p replay-race --example quickstart
//! ```

use replay_race::classify::Verdict;
use replay_race::pipeline::{run_pipeline, PipelineConfig};
use tvm::isa::Reg;
use tvm::{ProgramBuilder, RunConfig};

fn main() {
    // Shared globals (word addresses).
    const SAME: i64 = 0x20; // both threads store the same value: benign race
    const DIFF: i64 = 0x28; // threads store different values: harmful race

    let mut b = ProgramBuilder::new();
    b.thread("worker_a");
    b.movi(Reg::R1, 7)
        .mark("a_redundant_store")
        .store(Reg::R1, Reg::R15, SAME)
        .movi(Reg::R2, 1)
        .mark("a_conflicting_store")
        .store(Reg::R2, Reg::R15, DIFF)
        .halt();
    b.thread("worker_b");
    b.movi(Reg::R1, 7)
        .mark("b_redundant_store")
        .store(Reg::R1, Reg::R15, SAME)
        .movi(Reg::R2, 2)
        .mark("b_conflicting_store")
        .store(Reg::R2, Reg::R15, DIFF)
        .halt();

    let program = b.build().into();
    let config = PipelineConfig::new(RunConfig::round_robin(1));
    let result = run_pipeline(&program, &config).expect("fresh recordings always replay");

    println!("instructions executed : {}", result.instructions);
    println!("unique data races     : {}", result.analysis.detected.unique_races());
    println!("dynamic race instances: {}", result.analysis.detected.instance_count());
    println!(
        "potentially harmful   : {}",
        result.analysis.classification.with_verdict(Verdict::PotentiallyHarmful).count()
    );
    println!(
        "potentially benign    : {}",
        result.analysis.classification.with_verdict(Verdict::PotentiallyBenign).count()
    );
    println!(
        "log size              : {} bytes raw ({:.2} bits/instr), {} bytes compressed",
        result.log_size.raw_bytes,
        result.log_size.bits_per_instr_raw(),
        result.log_size.compressed_bytes
    );
    println!();
    println!("{}", result.analysis.report.to_text());
}
