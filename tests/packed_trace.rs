//! Acceptance tests for record-once/replay-many packed dynamic traces:
//! replay must reproduce the interpreter's stream record-for-record
//! (mid-stream faults included), and timing results obtained through the
//! shared trace cache must be bit-identical to the direct interpreter
//! path across machine configurations and rayon thread counts.

use perfclone::experiments::design_change_sweep;
use perfclone_isa::{InstrMetaTable, MemWidth, Program, ProgramBuilder, Reg, StreamDesc};
use perfclone_kernels::{by_name, Scale};
use perfclone_repro::prelude::*;
use perfclone_sim::{ReplayChunk, Simulator, CHUNK_LEN};
use proptest::prelude::*;

fn susan_tiny() -> Program {
    by_name("susan").expect("bundled kernel").build(Scale::Tiny).program
}

/// Captures `p` under `cap_bytes`, spilling past it into the temp dir.
fn capture(p: &Program, limit: u64, cap_bytes: usize) -> TraceStore {
    TraceStore::capture(p, limit, cap_bytes, &std::env::temp_dir()).expect("capture")
}

/// A deterministic program built from a random opcode stream: ALU chains,
/// multiplies, stream loads, base-register loads/stores, xorshift-driven
/// conditional branches, and jumps — with an optional missing `halt`, so
/// the stream ends in a `PcOutOfRange` fault. Covers every packed-record
/// shape: fall-through, taken branch, redirect, memory access, fault.
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
                // xorshift step: keeps later branch directions varied.
                b.srli(r(8), r(7), 13);
                b.xor(r(7), r(7), r(8));
            }
            6 => {
                // Data-dependent forward branch over a nop.
                let skip = b.label();
                b.andi(r(8), r(7), 1);
                b.bnez(r(8), skip);
                b.nop();
                b.bind(skip);
            }
            _ => {
                // Unconditional jump over a nop: a redirect that is not a
                // taken conditional branch.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replay reproduces `Simulator::trace` record-for-record — every
    /// `DynInstr` field — and carries the same fault, for random programs
    /// (halting and faulting) across capture limits.
    #[test]
    fn replay_reproduces_interpreter_stream(
        ops in proptest::collection::vec(any::<u8>(), 1..160),
        halt in any::<bool>(),
        limit in prop_oneof![Just(u64::MAX), 1u64..400],
    ) {
        let p = random_program(&ops, halt);
        let packed = capture(&p, limit, usize::MAX);
        let mut itrace = Simulator::trace(&p, limit);
        let mut replay = packed.replay(&p);
        loop {
            let a = itrace.next();
            let b = replay.next();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(itrace.fault(), packed.fault());
        prop_assert_eq!(replay.fault(), packed.fault());
    }

    /// The batched SoA decoder reproduces the record-at-a-time oracle
    /// record for record — every `DynInstr` field — and carries the same
    /// fault, for random
    /// programs (halting and faulting) across capture limits straddling
    /// the word (64) and chunk (256) boundaries.
    #[test]
    fn batched_decode_matches_oracle_record_for_record(
        ops in proptest::collection::vec(any::<u8>(), 1..160),
        halt in any::<bool>(),
        limit in prop_oneof![
            Just(u64::MAX),
            1u64..400,
            (CHUNK_LEN as u64 - 2)..(CHUNK_LEN as u64 + 2),
        ],
    ) {
        let p = random_program(&ops, halt);
        let packed = capture(&p, limit, usize::MAX);
        let meta = InstrMetaTable::new(&p);
        let mut oracle = packed.replay(&p);
        let mut batched = packed.replay_batched(&p, &meta);
        let mut chunk = ReplayChunk::new();
        loop {
            let n = batched.fill(&mut chunk);
            if n == 0 {
                break;
            }
            for rec in chunk.records(p.instrs()) {
                prop_assert_eq!(oracle.next(), Some(rec));
            }
        }
        prop_assert_eq!(oracle.next(), None, "batched decode must not end early");
        prop_assert_eq!(batched.fault(), packed.fault());
    }
}

/// A halt or fault landing exactly on (or either side of) a chunk
/// boundary decodes identically through the batched path — the
/// carry-through case where a chunk fills completely and the stream's
/// terminal state must survive into the next (empty) `fill`.
#[test]
fn chunk_boundary_halt_and_fault_match_oracle() {
    for extra in [CHUNK_LEN - 2, CHUNK_LEN - 1, CHUNK_LEN, CHUNK_LEN + 1] {
        for halt in [true, false] {
            let mut b = ProgramBuilder::new("edge");
            for _ in 0..extra {
                b.nop();
            }
            if halt {
                b.halt();
            }
            let p = b.build();
            let packed = capture(&p, u64::MAX, usize::MAX);
            let meta = InstrMetaTable::new(&p);
            let mut oracle = packed.replay(&p);
            let mut batched = packed.replay_batched(&p, &meta);
            let mut chunk = ReplayChunk::new();
            loop {
                let n = batched.fill(&mut chunk);
                if n == 0 {
                    break;
                }
                for rec in chunk.records(p.instrs()) {
                    assert_eq!(oracle.next(), Some(rec), "{extra} nops, halt={halt}");
                }
            }
            assert_eq!(oracle.next(), None, "{extra} nops, halt={halt}: early end");
            assert_eq!(batched.fault(), packed.fault());
            assert_eq!(packed.fault().is_some(), !halt, "missing halt must fault");
        }
    }
}

/// A spilled (mmapped) trace forced over a tiny byte cap — the
/// programmatic form of the `PERFCLONE_TRACE_CAP` forcing CI uses —
/// decodes batched exactly as the in-memory record-at-a-time oracle.
#[test]
fn spilled_batched_decode_matches_in_memory_oracle() {
    let program = susan_tiny();
    let limit = 20_000;
    let store = capture(&program, limit, 1024);
    assert!(store.is_spilled(), "batched decode must be exercised over the mmap");
    let meta = InstrMetaTable::new(&program);
    let packed = capture(&program, limit, usize::MAX);
    let mut oracle = packed.replay(&program);
    let mut batched = store.replay_batched(&program, &meta);
    let mut chunk = ReplayChunk::new();
    loop {
        let n = batched.fill(&mut chunk);
        if n == 0 {
            break;
        }
        for rec in chunk.records(program.instrs()) {
            assert_eq!(oracle.next(), Some(rec));
        }
    }
    assert_eq!(oracle.next(), None, "spilled batched decode must not end early");
    assert_eq!(batched.fault(), packed.fault());
}

/// `run_timing_trace` (one capture through the shared cache, replayed per
/// configuration) is bit-identical to `run_timing` (one functional
/// execution per configuration) for the base machine and every Table-3
/// design change.
#[test]
fn run_timing_trace_is_bit_identical_across_configs() {
    let program = susan_tiny();
    let cache = WorkloadCache::new();
    let mut configs = vec![base_config()];
    configs.extend(design_changes());
    for c in &configs {
        let direct = run_timing(&program, c, u64::MAX).expect("direct path");
        let replay =
            run_timing_trace("susan-tiny", &program, c, u64::MAX, &cache).expect("replay path");
        assert_eq!(
            direct.report, replay.report,
            "{}: PipelineReport must be bit-identical",
            c.name
        );
        assert_eq!(direct.power.total_energy.to_bits(), replay.power.total_energy.to_bits());
        assert_eq!(direct.power.average_power.to_bits(), replay.power.average_power.to_bits());
        assert_eq!(
            direct.power.energy_per_instr.to_bits(),
            replay.power.energy_per_instr.to_bits()
        );
    }
    let stats = cache.snapshot();
    assert_eq!(stats.packed_trace_computes, 1, "one capture must serve every configuration");
    assert_eq!(stats.packed_trace_lookups, configs.len() as u64);
}

/// The design sweep (which fans replay cells across rayon workers)
/// returns, at 1, 4, and 8 worker threads, exactly what live
/// interpretation gives cell by cell — the batched replay path shares one
/// interned metadata table across the pool, so the table must be
/// position-independent too.
#[test]
fn parallel_sweep_replay_is_thread_count_invariant() {
    let program = susan_tiny();
    let clone = Cloner::new().clone_program(&program, u64::MAX).expect("clone").clone;
    let base = base_config();
    let mut configs = vec![base];
    configs.extend(design_changes());
    // Debug renders every f64 exactly, so equal text is equal bits.
    let live: Vec<String> = configs
        .iter()
        .flat_map(|c| [&program, &clone].map(|p| run_timing(p, c, u64::MAX).expect("live")))
        .map(|t| format!("{t:?}"))
        .collect();
    for threads in [1, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        let sweep =
            pool.install(|| design_change_sweep(&program, &clone, &base, u64::MAX)).expect("sweep");
        let mut replayed = vec![&sweep.base_real, &sweep.base_synth];
        replayed.extend(sweep.changes.iter().flat_map(|c| [&c.real, &c.synth]));
        let replayed: Vec<String> = replayed.iter().map(|t| format!("{t:?}")).collect();
        assert_eq!(replayed, live, "threads={threads}");
    }
}

/// A mid-stream fault replays as the same typed error the interpreter
/// path surfaces.
#[test]
fn faulting_program_replays_as_the_same_error() {
    let mut b = ProgramBuilder::new("fall");
    b.nop(); // no halt: execution falls off the end of the text section
    let p = b.build();
    let cache = WorkloadCache::new();
    let direct = run_timing(&p, &base_config(), u64::MAX).expect_err("must fault");
    let replay =
        run_timing_trace("fall", &p, &base_config(), u64::MAX, &cache).expect_err("must fault");
    assert!(matches!(&replay, Error::Sim(SimError::PcOutOfRange { .. })), "got {replay}");
    assert_eq!(direct.to_string(), replay.to_string());
}

/// A zero-cycle (or otherwise degenerate) baseline cannot anchor a
/// relative error: the checked accessors return `None` and the legacy
/// accessors the documented infinity sentinel instead of NaN.
#[test]
fn pair_comparison_guards_degenerate_baselines() {
    let program = susan_tiny();
    let empty = run_timing(&program, &base_config(), 0).expect("empty run");
    let full = run_timing(&program, &base_config(), u64::MAX).expect("full run");
    assert_eq!(empty.report.cycles, 0);

    let cmp = PairComparison { real: empty, synth: full.clone() };
    assert_eq!(cmp.ipc_error_checked(), None);
    assert!(cmp.ipc_error().is_infinite());

    // A baseline whose power model degenerated to zero (or NaN) likewise
    // cannot anchor a relative power error.
    let mut degenerate = full.clone();
    degenerate.power.average_power = 0.0;
    let cmp = PairComparison { real: degenerate.clone(), synth: full.clone() };
    assert_eq!(cmp.power_error_checked(), None);
    assert!(cmp.power_error().is_infinite());
    degenerate.power.average_power = f64::NAN;
    let cmp = PairComparison { real: degenerate, synth: full.clone() };
    assert_eq!(cmp.power_error_checked(), None);
    assert!(cmp.power_error().is_infinite());

    // A healthy baseline still yields finite checked errors.
    let healthy = PairComparison { real: full.clone(), synth: full };
    assert_eq!(healthy.ipc_error_checked(), Some(0.0));
    assert_eq!(healthy.ipc_error(), 0.0);
}
