//! Seeded-loop property tests for the log codec: LZSS compression and the
//! log encoder must round-trip on the boundary shapes real runs never hit —
//! empty input, long all-zero runs (maximally compressible), incompressible
//! random bytes, and zero-instruction logs (which guard the
//! `instructions.max(1)` division in [`LogSizeReport`]).
//!
//! Cases are generated with the in-tree [`tvm::rng::SplitMix64`] (the
//! workspace builds offline, with no external proptest dependency), so every
//! failure reproduces from the printed seed.

use idna_replay::codec::{
    compress, decode_log, decode_log_mode, decompress, encode_log, DecodeMode, LogWriter,
};
use idna_replay::event::{EndStatus, ReplayLog, ThreadEvent, ThreadLog};
use tvm::isa::NUM_REGS;
use tvm::machine::Fault;
use tvm::rng::SplitMix64;

#[test]
fn compress_round_trips_empty_input() {
    let compressed = compress(&[]);
    assert_eq!(decompress(&compressed).expect("decompress"), Vec::<u8>::new());
}

#[test]
fn compress_round_trips_all_zero_pages() {
    // Maximally compressible input: long runs of zeros at page-ish sizes,
    // including off-by-one lengths around the match-window boundaries.
    for len in [1, 2, 63, 64, 65, 512, 4096, 4097, 65_536] {
        let input = vec![0u8; len];
        let compressed = compress(&input);
        assert_eq!(decompress(&compressed).expect("decompress"), input, "len {len}");
        assert!(
            compressed.len() < input.len().max(16),
            "all-zero input of {len} bytes should compress (got {})",
            compressed.len()
        );
    }
}

#[test]
fn compress_round_trips_incompressible_bytes() {
    // Random bytes have no matches to exploit; the codec must still
    // round-trip exactly (worst case is a bounded expansion, never loss).
    let mut rng = SplitMix64::new(0xc0de_c0de);
    for case in 0..32 {
        let len = (rng.next_u64() % 8192) as usize;
        let input: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let compressed = compress(&input);
        assert_eq!(
            decompress(&compressed).expect("decompress"),
            input,
            "case {case} (seed 0xc0de_c0de, len {len})"
        );
    }
}

#[test]
fn compress_round_trips_mixed_runs_and_noise() {
    // Alternating compressible runs and noise exercises match/literal
    // switching inside one stream.
    let mut rng = SplitMix64::new(0x5e_ed);
    for case in 0..16 {
        let mut input = Vec::new();
        for _ in 0..rng.next_index(8) + 1 {
            match rng.next_index(3) {
                0 => input.extend(std::iter::repeat_n(
                    rng.next_u64() as u8,
                    (rng.next_u64() % 300) as usize,
                )),
                1 => input.extend((0..rng.next_u64() % 300).map(|_| rng.next_u64() as u8)),
                _ => {
                    let pattern: Vec<u8> =
                        (0..4 + rng.next_index(8)).map(|_| rng.next_u64() as u8).collect();
                    for _ in 0..rng.next_index(50) {
                        input.extend_from_slice(&pattern);
                    }
                }
            }
        }
        let compressed = compress(&input);
        assert_eq!(
            decompress(&compressed).expect("decompress"),
            input,
            "case {case} (seed 0x5e_ed, len {})",
            input.len()
        );
    }
}

/// A log with no threads and no instructions.
fn empty_log() -> ReplayLog {
    ReplayLog { threads: Vec::new(), total_instructions: 0 }
}

/// A log whose single thread recorded zero instructions.
fn zero_instruction_thread_log() -> ReplayLog {
    ReplayLog {
        threads: vec![ThreadLog {
            tid: 0,
            name: "idle".to_string(),
            start_regs: [0; NUM_REGS],
            start_pc: 7,
            start_ts: 0,
            events: Vec::new(),
            end_instr: 0,
            end_ts: 0,
            end_status: EndStatus::Truncated,
            footprint: Vec::new(),
        }],
        total_instructions: 0,
    }
}

#[test]
fn zero_instruction_logs_round_trip() {
    for (name, log) in [("empty", empty_log()), ("idle thread", zero_instruction_thread_log())] {
        let encoded = encode_log(&log);
        assert_eq!(decode_log(&encoded).expect("decode"), log, "{name}");
        let mut writer = LogWriter::new();
        let compressed = writer.encode_compressed(&log).to_vec();
        let raw = decompress(&compressed).expect("decompress");
        assert_eq!(decode_log(&raw).expect("decode compressed"), log, "{name} (compressed)");
    }
}

/// A small two-thread log exercising every event kind, both varint widths
/// (values above `0x80` and above `0x4000`), a non-zero register, a fault
/// end status, and a footprint — the fixture behind the byte pins below.
fn pinned_log() -> ReplayLog {
    let mut regs = [0u64; NUM_REGS];
    regs[1] = 0x1234;
    ReplayLog {
        threads: vec![
            ThreadLog {
                tid: 0,
                name: "main".to_string(),
                start_regs: regs,
                start_pc: 0,
                start_ts: 0,
                events: vec![
                    ThreadEvent::Load { load_index: 0, value: 0x99 },
                    ThreadEvent::Sequencer { instr_index: 3, ts: 2 },
                    ThreadEvent::SyscallRet { sys_index: 0, value: 0x10_0000 },
                ],
                end_instr: 7,
                end_ts: 4,
                end_status: EndStatus::Halted,
                footprint: vec![0, 1, 2, 3, 6],
            },
            ThreadLog {
                tid: 1,
                name: "w".to_string(),
                start_regs: [0; NUM_REGS],
                start_pc: 8,
                start_ts: 1,
                events: vec![ThreadEvent::Load { load_index: 0, value: 0x4001 }],
                end_instr: 2,
                end_ts: 3,
                end_status: EndStatus::Faulted(Fault::InvalidAccess { addr: 0x30 }),
                footprint: vec![8, 9],
            },
        ],
        total_instructions: 9,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// The v2 encoding of [`pinned_log`], byte for byte: `IDNL` magic, format
/// version 2, instruction/thread counts, then one length-prefixed,
/// checksummed frame per thread.
const PINNED_V2: &str = "49444e4c0209022f000000c0a1d8152f5ef2cc00046d61696e00b4\
2400000000000000000000000000000000070400050001010103030000990102030201008080\
4023000000f738fc54c4e4418b010177000000000000000000000000000000000801020302003\
0020801010000818001";

/// The v1 (pre-framing) encoding of the same log. Version 1 is no longer
/// decoded: these bytes must be refused by version, never misread as v2.
const PINNED_V1: &str = "49444e4c01090200046d61696e00b4240000000000000000000000\
0000000000070400050001010103030000990102030201008080400101770000000000000000\
0000000000000000080102030200300208010100\
00818001";

#[test]
fn v2_encoding_is_byte_stable() {
    let log = pinned_log();
    let encoded = encode_log(&log);
    assert_eq!(hex(&encoded), PINNED_V2, "v2 byte layout changed — bump FORMAT_VERSION");
    assert_eq!(decode_log(&encoded).expect("strict decode"), log);
    let (decoded, report) =
        decode_log_mode(&encoded, DecodeMode::Tolerant).expect("tolerant decode");
    assert_eq!(decoded, log);
    assert!(report.is_clean(), "a pristine v2 log decodes clean");
}

#[test]
fn v1_pinned_bytes_are_rejected() {
    for mode in [DecodeMode::Strict, DecodeMode::Tolerant] {
        let err = decode_log_mode(&unhex(PINNED_V1), mode).expect_err("v1 bytes must not decode");
        assert_eq!(err.message, "unsupported format version 1", "{mode:?}");
    }
}

#[test]
fn zero_instruction_log_report_is_finite() {
    // `instructions == 0` must not divide by zero or go non-finite in any
    // LogSizeReport metric.
    for log in [empty_log(), zero_instruction_thread_log()] {
        let report = LogWriter::new().measure(&log);
        assert_eq!(report.instructions, 0);
        assert!(report.bits_per_instr_raw().is_finite());
        assert!(report.bits_per_instr_compressed().is_finite());
        assert!(report.mb_per_billion_instrs().is_finite());
        assert!(report.raw_bytes > 0, "even an empty log has a header");
    }
}
