//! The paper's §5.1 overhead and log-size study, on the browser stand-in:
//! native execution vs recording vs replay vs happens-before analysis vs
//! dual-order classification, plus bits-per-instruction of the replay log.
//!
//! ```sh
//! cargo run --release -p workloads --example overhead_study
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use replay_race::pipeline::{run_pipeline, PipelineConfig};
use tvm::machine::Machine;
use tvm::predecode::DecodedProgram;
use tvm::scheduler::{run_native, RunConfig};
use workloads::browser::{browser_program, BrowserConfig};

fn main() {
    let cfg = BrowserConfig::paper_scale();
    println!("browser workload: {} threads, {} jobs (paper: 27 threads)", cfg.threads(), cfg.jobs);
    let program = browser_program(&cfg);
    let run = RunConfig::chunked(7, 1, 8).with_max_steps(50_000_000);
    let start = Instant::now();
    run_native(&mut Machine::with_decoded(Arc::new(DecodedProgram::new(program.clone()))), &run);
    let native = start.elapsed();
    let result = run_pipeline(&program, &PipelineConfig::new(run)).expect("pipeline");

    let detected = &result.analysis.detected;
    let t = &result.analysis.timings;
    let slowdown = |phase: Duration| phase.as_secs_f64() / native.as_secs_f64().max(1e-12);
    println!("instructions executed : {}", result.instructions);
    println!(
        "dynamic race instances: {} ({} unique races; paper's IE run: 2,196 instances)",
        detected.instance_count(),
        detected.unique_races()
    );
    println!();
    println!("phase           time        overhead vs native   (paper)");
    println!("native          {native:>9.3?}   1.0x");
    for (label, phase, paper) in [
        ("record", result.record_time, "~6x"),
        ("replay", t.replay, "~10x"),
        ("hb detection", t.detect, "~45x"),
        ("classification", t.classify, "~280x"),
    ] {
        println!("{label:<15} {phase:>9.3?}   {:>6.1}x              ({paper})", slowdown(phase));
    }
    println!();
    println!(
        "log size: {} bytes raw = {:.3} bits/instr (paper ~0.8); compressed {} bytes = {:.3} bits/instr (paper ~0.3)",
        result.log_size.raw_bytes,
        result.log_size.bits_per_instr_raw(),
        result.log_size.compressed_bytes,
        result.log_size.bits_per_instr_compressed()
    );
    println!(
        "projected: {:.1} MB per billion instructions (paper ~96 MB)",
        result.log_size.mb_per_billion_instrs()
    );
}
