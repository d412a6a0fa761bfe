//! Cross-crate end-to-end tests: record → replay → detect → classify →
//! report on real workloads, plus the permissive-replay ablation and the
//! time-travel facility over pipeline traces.

use std::collections::BTreeSet;

use idna_replay::timetravel::TimeTraveler;
use idna_replay::vproc::VprocConfig;
use replay_race::classify::{ClassifierConfig, InstanceOutcome, OutcomeGroup, Verdict};
use replay_race::pipeline::{run_pipeline, PipelineConfig};
use tvm::scheduler::RunConfig;
use workloads::browser::{browser_program, BrowserConfig};
use workloads::corpus::{corpus_executions, corpus_program};

#[test]
fn browser_pipeline_end_to_end() {
    let program = browser_program(&BrowserConfig::default());
    let result = run_pipeline(
        &program,
        &PipelineConfig::new(RunConfig::chunked(5, 1, 8).with_max_steps(10_000_000)),
    )
    .expect("pipeline");
    assert!(result.run_completed);
    // The browser has real races (racy stats, flag handoffs).
    assert!(
        result.analysis.detected.unique_races() >= 3,
        "{}",
        result.analysis.detected.unique_races()
    );
    // The racy statistics counters must be flagged potentially harmful
    // (they change state) — the browser's developers would triage them.
    assert!(result.analysis.classification.with_verdict(Verdict::PotentiallyHarmful).count() >= 1);
    // Reports render for every race.
    let text = result.analysis.report.to_text();
    assert!(text.contains("data race report"));
    // Log sizes are sane.
    assert!(result.log_size.raw_bytes > 0);
    assert!(result.log_size.compressed_bytes <= result.log_size.raw_bytes);
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let program = browser_program(&BrowserConfig::default());
    let cfg = PipelineConfig::new(RunConfig::chunked(9, 1, 6).with_max_steps(10_000_000));
    let a = run_pipeline(&program, &cfg).expect("pipeline");
    let b = run_pipeline(&program, &cfg).expect("pipeline");
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.analysis.detected.instance_count(), b.analysis.detected.instance_count());
    assert_eq!(a.log_size.raw_bytes, b.log_size.raw_bytes);
    let groups_a: Vec<_> =
        a.analysis.classification.races.values().map(|r| (r.id, r.group)).collect();
    let groups_b: Vec<_> =
        b.analysis.classification.races.values().map(|r| (r.id, r.group)).collect();
    assert_eq!(groups_a, groups_b);
}

#[test]
fn permissive_control_flow_fixes_the_replayer_limitation_races() {
    // Paper §5.2.4: six really-benign races were classified potentially
    // harmful only because the alternative replay left recorded code. With
    // permissive control flow (the paper's proposed fix), those races
    // classify No-State-Change.
    let exec = corpus_executions()
        .into_iter()
        .find(|e| e.name == "e09_font_cache") // contains dc_c1, a limitation race
        .expect("known execution");
    let enabled: BTreeSet<&str> = exec.enabled.iter().copied().collect();
    let program = corpus_program(&enabled);

    let strict = run_pipeline(&program, &PipelineConfig::new(exec.schedule)).expect("pipeline");
    let mut cfg = PipelineConfig::new(exec.schedule);
    cfg.classifier = ClassifierConfig {
        vproc: VprocConfig { permissive_control_flow: true, ..VprocConfig::default() },
        ..ClassifierConfig::default()
    };
    let permissive = run_pipeline(&program, &cfg).expect("pipeline");

    let dc_cold_id = {
        let pc_a = program.mark("dc_c1.init_flag").unwrap();
        let pc_b = program.mark("dc_c1.outer_check").unwrap();
        replay_race::detect::StaticRaceId::new(pc_a, pc_b)
    };
    assert_eq!(
        strict.analysis.classification.races[&dc_cold_id].group,
        OutcomeGroup::ReplayFailure
    );
    assert_eq!(
        permissive.analysis.classification.races[&dc_cold_id].group,
        OutcomeGroup::NoStateChange,
        "the paper predicts the limitation races become no-state-change"
    );
}

#[test]
fn permissive_state_change_scenarios_quote_the_classifiers_live_outs() {
    // The report renders a State-Change difference from the two live-outs
    // the classifier compared, never by replaying again: a re-run under
    // other virtual-processor options would fail on exactly these
    // permissive executions and contradict the verdict it explains.
    for name in ["e12_print_spooler", "e13_tab_close", "e17_gc_pass", "e18_stress_mix"] {
        let exec = corpus_executions().into_iter().find(|e| e.name == name).expect("execution");
        let enabled: BTreeSet<&str> = exec.enabled.iter().copied().collect();
        let program = corpus_program(&enabled);
        let mut cfg = PipelineConfig::new(exec.schedule);
        cfg.classifier = ClassifierConfig { vproc: VprocConfig::permissive(), ..cfg.classifier };
        let result = run_pipeline(&program, &cfg).expect("pipeline");
        let differences: Vec<&str> = result
            .analysis
            .report
            .races
            .iter()
            .filter_map(|r| r.scenario.as_ref())
            .filter(|s| s.outcome == InstanceOutcome::StateChange)
            .map(|s| s.difference.as_str())
            .collect();
        assert!(!differences.is_empty(), "{name}: expected State-Change scenarios");
        for difference in &differences {
            assert!(!difference.contains("replay failure"), "{name}: {difference}");
        }
        if name == "e12_print_spooler" {
            assert!(differences.contains(&"register live-outs differ"), "{differences:?}");
        }
    }
}

#[test]
fn time_travel_reconstructs_states_along_a_pipeline_trace() {
    let program = browser_program(&BrowserConfig { fetchers: 2, parsers: 1, jobs: 4, work: 8 });
    let result = run_pipeline(
        &program,
        &PipelineConfig::new(RunConfig::round_robin(4).with_max_steps(10_000_000)),
    )
    .expect("pipeline");
    let tt = TimeTraveler::new(&result.analysis.trace);
    // Walk backwards through the first thread's execution; every state must
    // be reconstructible.
    let last_region = result
        .analysis
        .trace
        .regions()
        .iter()
        .rfind(|r| r.region.id.tid == 0)
        .expect("thread 0 has regions");
    let end = last_region.region.end_instr;
    for back in 1..=end.min(10) {
        assert!(tt.state_before(0, end - back).is_some(), "state {} steps back must exist", back);
    }
}

#[test]
fn report_json_round_trips_for_real_workloads() {
    let program = browser_program(&BrowserConfig::default());
    let result = run_pipeline(
        &program,
        &PipelineConfig::new(RunConfig::chunked(5, 1, 8).with_max_steps(10_000_000)),
    )
    .expect("pipeline");
    let json = result.analysis.report.to_json();
    let parsed = replay_race::report::Report::from_json(&json).expect("parse");
    assert_eq!(parsed.races.len(), result.analysis.report.races.len());
}
