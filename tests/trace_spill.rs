//! Acceptance tests for the out-of-core trace spill path: a trace
//! captured past its byte cap, spilled and replayed through the memory
//! mapping must match the in-memory replay record-for-record (mid-stream
//! faults and missing halts included), corrupted or truncated copies of
//! the files the spilling writer produces must surface typed
//! [`TraceError`]s — never panics — and timing results driven through a
//! spilled [`TraceStore`] under a tiny byte cap must be bit-identical to
//! the direct interpreter path.

use std::path::PathBuf;

use perfclone::{base_config, run_timing, run_timing_store, Error};
use perfclone_isa::{InstrMetaTable, MemWidth, Program, ProgramBuilder, Reg, StreamDesc};
use perfclone_kernels::{by_name, Scale};
use perfclone_sim::{TraceError, TraceStore};
use proptest::prelude::*;

/// A deterministic program built from a random opcode stream — the same
/// shape mix as the packed-trace acceptance tests (ALU chains, stream and
/// base-register memory traffic, xorshift-fed conditional branches,
/// jumps), with an optional missing `halt` so the stream ends in a
/// `PcOutOfRange` fault.
fn random_program(ops: &[u8], halt: bool) -> Program {
    let mut b = ProgramBuilder::new("rand");
    let r = Reg::new;
    let buf = b.alloc(256);
    let id = b.stream(StreamDesc { base: 0x10_0000, stride: 24, length: 1 << 10 });
    b.li(r(5), buf as i64);
    b.li(r(7), 0x9e37_79b9);
    for (i, op) in ops.iter().enumerate() {
        match op % 8 {
            0 => b.addi(r(3), r(3), 1),
            1 => b.mul(r(4), r(4), r(3)),
            2 => b.ld_stream(r(6), id, MemWidth::B8),
            3 => b.sd(r(3), r(5), ((i % 8) * 8) as i32),
            4 => b.ld(r(9), r(5), 0),
            5 => {
                b.srli(r(8), r(7), 13);
                b.xor(r(7), r(7), r(8));
            }
            6 => {
                let skip = b.label();
                b.andi(r(8), r(7), 1);
                b.bnez(r(8), skip);
                b.nop();
                b.bind(skip);
            }
            _ => {
                let over = b.label();
                b.j(over);
                b.nop();
                b.bind(over);
            }
        }
    }
    if halt {
        b.halt();
    }
    b.build()
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("perfclone-trace-spill-{}-{name}", std::process::id()))
}

/// Captures `p` under `cap_bytes`, spilling past it into the temp dir.
fn capture(p: &Program, limit: u64, cap_bytes: usize) -> TraceStore {
    TraceStore::capture(p, limit, cap_bytes, &std::env::temp_dir()).expect("capture")
}

/// Captures `p` through the production spill writer: a byte cap of 0
/// spills every non-empty capture to disk.
fn spill(p: &Program, limit: u64) -> TraceStore {
    let store = capture(p, limit, 0);
    assert!(store.is_spilled(), "a zero cap must spill");
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Spill → mmap → replay equals the in-memory replay record for
    /// record, and the trace metadata (length, halt, fault, program
    /// name) survives the round trip — for halting and faulting programs
    /// across capture limits.
    #[test]
    fn spilled_replay_matches_in_memory(
        ops in proptest::collection::vec(any::<u8>(), 1..160),
        halt in any::<bool>(),
        limit in prop_oneof![Just(u64::MAX), 1u64..400],
    ) {
        let p = random_program(&ops, halt);
        let packed = capture(&p, limit, usize::MAX);
        let spilled = spill(&p, limit);

        prop_assert_eq!(spilled.len(), packed.len());
        prop_assert_eq!(spilled.halted(), packed.halted());
        prop_assert_eq!(spilled.fault(), packed.fault());
        prop_assert_eq!(spilled.program_name(), packed.program_name());

        let mut mem = packed.replay(&p);
        let mut disk = spilled.replay(&p);
        loop {
            let a = mem.next();
            let b = disk.next();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(mem.fault(), disk.fault());
    }

    /// Flipping any single byte of a valid spill file, header or payload,
    /// is caught as a typed error — never a panic, never a silently
    /// different replay. The FNV-1a checksum covers every byte but its
    /// own, which the comparison covers.
    #[test]
    fn any_flipped_payload_byte_is_detected(
        ops in proptest::collection::vec(any::<u8>(), 1..64),
        flip in any::<u64>(),
    ) {
        let p = random_program(&ops, true);
        let spilled = spill(&p, u64::MAX);
        let mut bytes =
            std::fs::read(spilled.spill_path().expect("spilled")).expect("read spill file");
        let at = flip as usize % bytes.len();
        bytes[at] ^= 0x01;
        let flipped = temp("flipped.spill");
        std::fs::write(&flipped, &bytes).expect("write corrupted copy");
        let result = TraceStore::open(&flipped);
        let _ = std::fs::remove_file(&flipped);
        match result {
            Err(
                TraceError::Corrupt { .. }
                | TraceError::BadVersion { .. }
                | TraceError::BadMagic { .. },
            ) => {}
            other => {
                return Err(TestCaseError::fail(format!(
                    "byte {at} flip must be detected, got {other:?}"
                )));
            }
        }
    }
}

/// Structural corruptions each map to their specific typed error:
/// wrong magic, unsupported version, truncation, and a missing file. And
/// each of the 80 header bytes flipped in turn gives a typed error.
#[test]
fn corruption_errors_are_typed() {
    let p = by_name("crc32").expect("bundled kernel").build(Scale::Tiny).program;
    let spilled = spill(&p, 2_000);
    let good = std::fs::read(spilled.spill_path().expect("spilled")).expect("read spill file");

    let write = |name: &str, bytes: &[u8]| {
        let p = temp(name);
        std::fs::write(&p, bytes).expect("write corrupted copy");
        p
    };

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    let f = write("badmagic.spill", &bad_magic);
    assert!(matches!(TraceStore::open(&f), Err(TraceError::BadMagic { .. })));
    let _ = std::fs::remove_file(&f);

    let mut bad_version = good.clone();
    bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    let f = write("badversion.spill", &bad_version);
    assert!(matches!(TraceStore::open(&f), Err(TraceError::BadVersion { version: 99, .. })));
    let _ = std::fs::remove_file(&f);

    for cut in [0, 7, 40, good.len() - 1] {
        let f = write("truncated.spill", &good[..cut]);
        assert!(
            matches!(
                TraceStore::open(&f),
                Err(TraceError::Corrupt { .. } | TraceError::BadMagic { .. })
            ),
            "truncation to {cut} bytes must be detected"
        );
        let _ = std::fs::remove_file(&f);
    }

    for at in 0..80 {
        let mut flipped = good.clone();
        flipped[at] ^= 0x01;
        let f = write("header.spill", &flipped);
        let result = TraceStore::open(&f);
        let _ = std::fs::remove_file(&f);
        assert!(
            matches!(
                result,
                Err(TraceError::Corrupt { .. }
                    | TraceError::BadVersion { .. }
                    | TraceError::BadMagic { .. })
            ),
            "header byte {at} flipped: {result:?}"
        );
    }

    let missing = temp("never-written.spill");
    assert!(matches!(TraceStore::open(&missing), Err(TraceError::Io { .. })));
}

/// A capture forced over a tiny byte cap comes back spilled, and timing
/// results replayed from it are bit-identical to both the in-memory store
/// and the direct interpreter path.
#[test]
fn capped_capture_spills_and_times_bit_identically() {
    let built = by_name("crc32").expect("bundled kernel").build(Scale::Tiny);
    let program = built.program;
    let limit = 20_000;
    let config = base_config();

    let mem = capture(&program, limit, usize::MAX);
    assert!(!mem.is_spilled(), "an uncapped capture must stay in memory");

    let spilled = capture(&program, limit, 1024);
    assert!(spilled.is_spilled(), "a 1 KiB cap must force a spill");
    assert_eq!(spilled.len(), mem.len());
    assert_eq!(spilled.halted(), mem.halted());

    let meta = InstrMetaTable::new(&program);
    let direct = run_timing(&program, &config, limit).expect("direct timing");
    let via_mem =
        run_timing_store(&program, &mem, &meta, &config).expect("in-memory replay timing");
    let via_disk =
        run_timing_store(&program, &spilled, &meta, &config).expect("spilled replay timing");
    assert_eq!(direct.report, via_mem.report);
    assert_eq!(direct.report, via_disk.report, "spilled replay must be bit-identical");
    assert_eq!(direct.power, via_mem.power);
    assert_eq!(direct.power, via_disk.power);
}

/// A faulting program's fault survives the spill round trip, and a
/// timing run over the spilled store surfaces it as `Error::Sim` exactly
/// like the in-memory store does.
#[test]
fn faulted_trace_carries_through_spill() {
    let p = random_program(&[0, 1, 3, 4, 6, 7], false); // no halt → PcOutOfRange
    let packed = capture(&p, u64::MAX, usize::MAX);
    assert!(packed.fault().is_some(), "missing halt must fault");

    let spilled = spill(&p, u64::MAX);
    assert_eq!(spilled.fault(), packed.fault());

    let config = base_config();
    let meta = InstrMetaTable::new(&p);
    let mem_err = run_timing_store(&p, &packed, &meta, &config);
    let disk_err = run_timing_store(&p, &spilled, &meta, &config);
    match (mem_err, disk_err) {
        (Err(Error::Sim(a)), Err(Error::Sim(b))) => assert_eq!(a, b),
        other => panic!("both stores must surface the fault, got {other:?}"),
    }
}
