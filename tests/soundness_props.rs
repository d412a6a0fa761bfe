//! Property-based soundness tests over randomly generated multi-threaded
//! programs:
//!
//! * the happens-before detector reports only genuine conflicts in
//!   unordered regions (the paper's "no false positives" claim),
//! * record→replay is faithful for every schedule,
//! * classification outcomes are consistent with the virtual processor's
//!   live-outs,
//! * the log codec round-trips real logs.
//!
//! Cases are generated by the in-tree [`tvm::rng::SplitMix64`] generator
//! (the workspace builds offline, with no external proptest dependency),
//! so every failure is reproducible from the printed case seed.

use std::sync::Arc;

use idna_replay::codec::{compress, decode_log, decompress, encode_log};
use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use idna_replay::vproc::{PairOrder, Vproc, VprocConfig};
use replay_race::classify::{classify_races_with, ClassifierConfig, InstanceOutcome};
use replay_race::detect::{detect_races, DetectorConfig};
use tvm::exec::AccessKind;
use tvm::isa::{BinOp, Cond, Reg, RmwOp, SysCall};
use tvm::rng::SplitMix64;
use tvm::scheduler::RunConfig;
use tvm::{Program, ProgramBuilder};

const CASES: u64 = 48;

/// A tiny random "statement" for generated threads. All memory operands
/// stay in a small shared window of globals so threads genuinely conflict.
#[derive(Clone, Debug)]
enum Stmt {
    SetReg {
        reg: u8,
        value: u64,
    },
    Load {
        reg: u8,
        slot: u8,
    },
    Store {
        reg: u8,
        slot: u8,
    },
    Add {
        dst: u8,
        src: u8,
    },
    AtomicAdd {
        slot: u8,
    },
    Fence,
    Print {
        reg: u8,
    },
    Nop,
    /// A bounded loop decrementing a register.
    Loop {
        reg: u8,
        count: u8,
    },
}

fn gen_stmt(rng: &mut SplitMix64) -> Stmt {
    match rng.next_below(9) {
        0 => Stmt::SetReg { reg: rng.next_in(1, 7) as u8, value: rng.next_u64() },
        1 => Stmt::Load { reg: rng.next_in(1, 7) as u8, slot: rng.next_below(6) as u8 },
        2 => Stmt::Store { reg: rng.next_in(1, 7) as u8, slot: rng.next_below(6) as u8 },
        3 => Stmt::Add { dst: rng.next_in(1, 7) as u8, src: rng.next_in(1, 7) as u8 },
        4 => Stmt::AtomicAdd { slot: rng.next_below(6) as u8 },
        5 => Stmt::Fence,
        6 => Stmt::Print { reg: rng.next_in(1, 7) as u8 },
        7 => Stmt::Nop,
        _ => Stmt::Loop { reg: rng.next_in(1, 7) as u8, count: rng.next_in(1, 4) as u8 },
    }
}

/// `threads` thread bodies of `min_len..=max_len` statements each.
fn gen_bodies(
    rng: &mut SplitMix64,
    min_threads: u64,
    max_threads: u64,
    max_len: u64,
) -> Vec<Vec<Stmt>> {
    let threads = rng.next_in(min_threads, max_threads);
    (0..threads).map(|_| (0..rng.next_in(1, max_len)).map(|_| gen_stmt(rng)).collect()).collect()
}

fn build_program(threads: &[Vec<Stmt>]) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    for (i, body) in threads.iter().enumerate() {
        b.thread(&format!("t{i}"));
        for (j, stmt) in body.iter().enumerate() {
            match *stmt {
                Stmt::SetReg { reg, value } => {
                    b.movi(Reg::new(reg), value);
                }
                Stmt::Load { reg, slot } => {
                    b.load(Reg::new(reg), Reg::R15, i64::from(slot) + 0x20);
                }
                Stmt::Store { reg, slot } => {
                    b.store(Reg::new(reg), Reg::R15, i64::from(slot) + 0x20);
                }
                Stmt::Add { dst, src } => {
                    b.bin(BinOp::Add, Reg::new(dst), Reg::new(dst), Reg::new(src));
                }
                Stmt::AtomicAdd { slot } => {
                    b.movi(Reg::R9, 1).atomic_rmw(
                        RmwOp::Add,
                        Reg::R10,
                        Reg::R15,
                        i64::from(slot) + 0x20,
                        Reg::R9,
                    );
                }
                Stmt::Fence => {
                    b.fence();
                }
                Stmt::Print { reg } => {
                    b.print(Reg::new(reg));
                }
                Stmt::Nop => {
                    b.syscall(SysCall::Nop);
                }
                Stmt::Loop { reg, count } => {
                    let top = b.fresh_label(&format!("t{i}_s{j}_loop"));
                    b.movi(Reg::new(reg), u64::from(count))
                        .label(top)
                        .subi(Reg::new(reg), Reg::new(reg), 1)
                        .branch(Cond::Ne, Reg::new(reg), Reg::R15, top);
                }
            }
        }
        b.halt();
    }
    Arc::new(b.build())
}

/// Every race the detector reports is two accesses by different
/// threads to the same address, at least one a write, in regions that
/// genuinely overlap by sequencer timestamps.
#[test]
fn detector_reports_only_true_conflicts() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x50F1_0000 + case);
        let bodies = gen_bodies(&mut rng, 2, 3, 11);
        let seed = rng.next_u64();
        let program = build_program(&bodies);
        let rec = record(&program, &RunConfig::random(seed).with_max_steps(100_000));
        if !rec.summary.completed {
            continue;
        }
        let trace = replay(&program, &rec.log).expect("replay");
        let detected = detect_races(&trace, &DetectorConfig::default());
        for inst in &detected.instances {
            assert_ne!(inst.a.tid(), inst.b.tid(), "case {case}: racing accesses in one thread");
            assert_eq!(
                inst.a.addr, inst.b.addr,
                "case {case}: racing accesses on different addresses"
            );
            assert!(
                inst.a.kind == AccessKind::Write || inst.b.kind == AccessKind::Write,
                "case {case}: read-read pair reported"
            );
            let ra = trace.region(inst.a.region).region;
            let rb = trace.region(inst.b.region).region;
            assert!(ra.overlaps(&rb), "case {case}: regions {ra:?} and {rb:?} do not overlap");
        }
    }
}

/// Record→replay fidelity: the replayed final architectural state of
/// every thread equals the live machine's.
#[test]
fn replay_is_faithful() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x50F2_0000 + case);
        let bodies = gen_bodies(&mut rng, 1, 3, 11);
        let seed = rng.next_u64();
        let program = build_program(&bodies);
        let rec = record(&program, &RunConfig::random(seed).with_max_steps(100_000));
        if !rec.summary.completed {
            continue;
        }
        let trace = replay(&program, &rec.log).expect("replay");
        for tid in 0..program.threads().len() {
            let last = trace
                .regions()
                .iter()
                .rfind(|r| r.region.id.tid == tid)
                .expect("thread has regions");
            assert_eq!(&last.exit.regs, rec.machine.thread(tid).regs(), "case {case}");
            // Outputs match per thread.
            let replayed: Vec<u64> = trace
                .regions()
                .iter()
                .filter(|r| r.region.id.tid == tid)
                .flat_map(|r| r.outputs.clone())
                .collect();
            let recorded: Vec<u64> =
                rec.machine.output().iter().filter(|o| o.tid == tid).map(|o| o.value).collect();
            assert_eq!(replayed, recorded, "case {case}");
        }
    }
}

/// A No-State-Change verdict really means both orders completed with
/// identical live-outs (re-verified directly against the vproc).
#[test]
fn no_state_change_is_justified() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x50F3_0000 + case);
        let bodies = gen_bodies(&mut rng, 2, 3, 9);
        let seed = rng.next_u64();
        let program = build_program(&bodies);
        let rec = record(&program, &RunConfig::random(seed).with_max_steps(100_000));
        if !rec.summary.completed {
            continue;
        }
        let trace = replay(&program, &rec.log).expect("replay");
        let detected = detect_races(&trace, &DetectorConfig::default());
        let classified = classify_races_with(&trace, &detected, &ClassifierConfig::default(), None);
        let vproc = Vproc::new(&trace, VprocConfig::default());
        for race in classified.races.values() {
            for ci in &race.instances {
                if ci.outcome == InstanceOutcome::NoStateChange {
                    let x = vproc
                        .run_pair(&ci.instance.a, &ci.instance.b, PairOrder::AThenB)
                        .expect("completed before");
                    let y = vproc
                        .run_pair(&ci.instance.a, &ci.instance.b, PairOrder::BThenA)
                        .expect("completed before");
                    assert_eq!(x, y, "case {case}: NSC instance re-verification failed");
                }
            }
        }
    }
}

/// The codec round-trips every real log, and compression is lossless.
#[test]
fn codec_roundtrips_random_logs() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x50F4_0000 + case);
        let bodies = gen_bodies(&mut rng, 1, 3, 14);
        let seed = rng.next_u64();
        let program = build_program(&bodies);
        let rec = record(&program, &RunConfig::random(seed).with_max_steps(100_000));
        let bytes = encode_log(&rec.log);
        let decoded = decode_log(&bytes).expect("decode");
        assert_eq!(&rec.log, &decoded, "case {case}");
        let c = compress(&bytes);
        assert_eq!(decompress(&c).expect("decompress"), bytes, "case {case}");
    }
}
