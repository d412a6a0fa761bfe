//! Differential fuzzer for the value-impact taint pass (`DESIGN.md` §D13).
//!
//! Generates seeded handoff-shaped programs ([`bench::genprog`], whose
//! channels mix write-back, dead, and printed consumers) and checks, for
//! every program under two schedules, that the pass's `Unreachable`
//! proofs hold against the replay classifier:
//!
//! - every race the pass proves `Unreachable` that the schedule
//!   materializes is classified No-State-Change by the dual-order replay
//!   — anything else is a refuted proof, i.e. a soundness bug, not a
//!   precision miss;
//! - classifying with `TrustStatic::SkipUnreachable` or
//!   `TrustStatic::SkipBoth` reproduces the trust-off verdict and outcome
//!   group for every race, while never adding vproc replays.
//!
//! Usage: `fuzz_impact [seed] [rounds]`. Every failure prints the
//! (round, schedule) pair, so a run is replayable from its seed alone.
//! Exits non-zero on any violation.

use bench::genprog;
use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use replay_race::classify::{
    classify_races_with, predictions_by_id, ClassifierConfig, OutcomeGroup, TrustStatic,
};
use replay_race::detect::{detect_races, DetectorConfig};
use tvm::rng::SplitMix64;

/// Outcome tallies across all trials.
#[derive(Default)]
struct Tally {
    programs: u64,
    runs: u64,
    unreachable_warnings: u64,
    unreachable_materialized: u64,
    replays_skipped: u64,
    violations: u64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(0x0D13_5EED, |s| s.parse().expect("seed"));
    let rounds: u64 = args.next().map_or(300, |s| s.parse().expect("rounds"));

    let mut tally = Tally::default();
    eprintln!("fuzzing impact soundness: {rounds} programs x 2 schedules (seed {seed:#x}) ...");
    for round in 0..rounds {
        let mut rng = SplitMix64::new(seed.wrapping_add(round.wrapping_mul(0x9E37)));
        let program = std::sync::Arc::new(genprog::generate(&mut rng));
        let analysis = racecheck::analyze(&program);
        let predictions = predictions_by_id(&analysis);
        tally.programs += 1;
        tally.unreachable_warnings +=
            predictions.values().filter(|p| p.reach == racecheck::Reach::Unreachable).count()
                as u64;

        for (si, schedule) in genprog::schedules(round).into_iter().enumerate() {
            tally.runs += 1;
            let rec = record(&program, &schedule);
            let trace = match replay(&program, &rec.log) {
                Ok(trace) => trace,
                Err(e) => {
                    tally.violations += 1;
                    println!("VIOLATION [round {round}, schedule {si}]: replay failed: {e:?}");
                    continue;
                }
            };
            let detected = detect_races(&trace, &DetectorConfig::default());
            let baseline =
                classify_races_with(&trace, &detected, &ClassifierConfig::default(), None);

            // An Unreachable proof the replay refutes is a soundness bug.
            for (id, race) in &baseline.races {
                if predictions.get(id).is_none_or(|p| p.reach != racecheck::Reach::Unreachable) {
                    continue;
                }
                tally.unreachable_materialized += 1;
                if race.group != OutcomeGroup::NoStateChange {
                    tally.violations += 1;
                    println!(
                        "VIOLATION [round {round}, schedule {si}]: {id} proven \
                         impact-unreachable but replayed {:?}",
                        race.group
                    );
                }
            }

            // Trusting the proofs must be invisible in the verdicts.
            for trust in [TrustStatic::SkipUnreachable, TrustStatic::SkipBoth] {
                let config =
                    ClassifierConfig { trust_static: trust, ..ClassifierConfig::default() };
                let trusted = classify_races_with(&trace, &detected, &config, Some(&predictions));
                tally.replays_skipped += trusted.static_skipped_races;
                if trusted.races.len() != baseline.races.len() {
                    tally.violations += 1;
                    println!(
                        "VIOLATION [round {round}, schedule {si}, {trust:?}]: race set changed \
                         ({} -> {})",
                        baseline.races.len(),
                        trusted.races.len()
                    );
                    continue;
                }
                for (id, base) in &baseline.races {
                    let Some(t) = trusted.races.get(id) else {
                        tally.violations += 1;
                        println!(
                            "VIOLATION [round {round}, schedule {si}, {trust:?}]: {id} dropped"
                        );
                        continue;
                    };
                    if t.verdict != base.verdict || t.group != base.group {
                        tally.violations += 1;
                        println!(
                            "VIOLATION [round {round}, schedule {si}, {trust:?}]: {id} \
                             {:?}/{:?} -> {:?}/{:?}",
                            base.verdict, base.group, t.verdict, t.group
                        );
                    }
                }
                if trusted.vproc_replays > baseline.vproc_replays {
                    tally.violations += 1;
                    println!(
                        "VIOLATION [round {round}, schedule {si}, {trust:?}]: trusting proofs \
                         added replays ({} -> {})",
                        baseline.vproc_replays, trusted.vproc_replays
                    );
                }
            }
        }
    }

    println!(
        "{} programs / {} runs: {} unreachable warnings, {} materialized and replay-checked, \
         {} replays skipped under trust, {} violations",
        tally.programs,
        tally.runs,
        tally.unreachable_warnings,
        tally.unreachable_materialized,
        tally.replays_skipped,
        tally.violations,
    );
    assert!(
        tally.unreachable_materialized > 0,
        "the fuzzer never materialized an impact-unreachable race"
    );
    assert!(tally.replays_skipped > 0, "the fuzzer never exercised the skip path");
    if tally.violations > 0 {
        std::process::exit(1);
    }
}
