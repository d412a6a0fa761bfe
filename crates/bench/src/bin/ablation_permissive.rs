//! E-A2 (DESIGN.md D3): quantifies the paper's §4.2.1 proposal — "we are
//! looking at trying to log enough information to allow replay to continue"
//! past unknown loads and unrecorded control flow.
//!
//! The paper predicts that with that support, the six replayer-limitation
//! races would be correctly classified potentially benign. This ablation
//! runs the corpus under four virtual-processor configurations and prints
//! the Table 1 shift — including the *cost* of permissiveness: harmful
//! races whose only exposure was a replay failure can silently converge and
//! be missed.
//!
//! ```sh
//! cargo run --release -p bench --bin ablation_permissive
//! ```

use idna_replay::vproc::VprocConfig;
use replay_race::classify::ClassifierConfig;
use workloads::eval::{run_corpus_with, Table1};

fn main() {
    let configs: [(&str, VprocConfig); 4] = [
        ("strict (paper's tool)", VprocConfig::default()),
        (
            "permissive loads",
            VprocConfig { permissive_unknown_loads: true, ..VprocConfig::default() },
        ),
        (
            "permissive control flow",
            VprocConfig { permissive_control_flow: true, ..VprocConfig::default() },
        ),
        ("fully permissive", VprocConfig::permissive()),
    ];

    println!(
        "{:<26} {:>5} {:>5} {:>5} {:>22} {:>16}",
        "vproc configuration", "NSC", "SC", "RF", "benign flagged harmful", "harmful missed"
    );
    for (label, vproc) in configs {
        eprintln!("running corpus with {label} ...");
        let report = run_corpus_with(&ClassifierConfig { vproc, ..ClassifierConfig::default() });
        let t1 = Table1::compute(&report);
        let (nsc, sc, rf) = (
            t1.cells[0][0] + t1.cells[0][1],
            t1.cells[1][0] + t1.cells[1][1],
            t1.cells[2][0] + t1.cells[2][1],
        );
        println!(
            "{label:<26} {nsc:>5} {sc:>5} {rf:>5} {:>22} {:>16}",
            t1.benign_flagged_harmful(),
            t1.missed_harmful()
        );
    }
    println!();
    println!(
        "reading: permissive control flow converts the replayer-limitation failures into\n\
         No-State-Change (the paper's predicted fix), but fully permissive replay can also\n\
         let genuinely harmful cold paths converge silently — missed harmful races > 0 is\n\
         the price the paper's strict failure-as-harmful policy avoids by design."
    );
}
