//! The block runner retires exactly the interpreter's records.
//!
//! `Simulator::run_blocks` hands its observer a block's start pc, its
//! length, its memory records with their offsets and its last record, and
//! nothing of the records in between. The proptest rebuilds every record
//! from that: the pcs `start..start + len`, the static instruction from the
//! text, `next_pc = pc + 1` except at the last record, each memory access
//! at its offset, and the last record as delivered. The rebuilt stream
//! must equal `Simulator::trace`'s record for record, and the run must
//! return the trace's outcome or fault (a cut-short block is delivered
//! before the fault): the records it yielded and whether the program
//! halted. Under a budget it must return that outcome, or the exhausted
//! budget where the trace stopped at the limit without halting. Inputs:
//! catalog kernels stopped at a random limit, clones at random seeds run
//! to `halt`, and small random programs that halt, jump out of their text,
//! or fall off its end in the middle of a block.

use perfclone_isa::{Program, ProgramBuilder, Reg};
use perfclone_kernels::{catalog, Scale};
use perfclone_repro::prelude::*;
use perfclone_sim::{BlockObserver, DynInstr, MemAccess, RunOutcome, Simulator};
use proptest::prelude::*;

/// One call the block runner made on its observer.
#[derive(Clone, Copy, Debug)]
enum Event {
    Enter(u32),
    Mem(u32, MemAccess),
    Exit(u32, DynInstr),
}

/// Records every call, in order.
#[derive(Default)]
struct Events(Vec<Event>);

impl BlockObserver for Events {
    fn enter_block(&mut self, pc: u32) {
        self.0.push(Event::Enter(pc));
    }

    fn on_mem(&mut self, offset: u32, m: MemAccess) {
        self.0.push(Event::Mem(offset, m));
    }

    fn exit_block(&mut self, len: u32, last: &DynInstr) {
        self.0.push(Event::Exit(len, *last));
    }
}

/// Rebuilds the records of a run from its blocks, or says where the calls
/// do not form whole blocks.
fn rebuild(program: &Program, events: &[Event]) -> Result<Vec<DynInstr>, String> {
    let mut records: Vec<DynInstr> = Vec::new();
    let mut calls = events.iter();
    while let Some(call) = calls.next() {
        let Event::Enter(start) = *call else {
            return Err(format!("{call:?} outside a block"));
        };
        let mut mems = Vec::new();
        let (len, last) = loop {
            match calls.next() {
                Some(&Event::Mem(offset, m)) => mems.push((offset, m)),
                Some(&Event::Exit(len, last)) => break (len, last),
                other => return Err(format!("the block at {start} ended in {other:?}")),
            }
        };
        let text = program
            .instrs()
            .get(start as usize..(start + len) as usize)
            .filter(|text| !text.is_empty())
            .ok_or_else(|| format!("a block of {len} at {start} is outside the text"))?;
        let first = records.len();
        records.extend((start..).zip(text).map(|(pc, &instr)| DynInstr {
            pc,
            instr,
            next_pc: pc + 1,
            taken: false,
            mem: None,
        }));
        let mut next_offset = 0;
        for (offset, m) in mems {
            if offset < next_offset || offset >= len {
                return Err(format!(
                    "an access at offset {offset} of the block of {len} at {start}"
                ));
            }
            records[first + offset as usize].mem = Some(m);
            next_offset = offset + 1;
        }
        let at_end = records.last_mut().expect("the block holds a record");
        if (at_end.pc, at_end.instr, at_end.mem) != (last.pc, last.instr, last.mem) {
            return Err(format!("the block at {start} delivered {last:?} as its last record"));
        }
        *at_end = last;
    }
    Ok(records)
}

/// Runs `program` under `limit` through the block runner and checks it
/// against the record-at-a-time interpreter, as a limit and as a budget.
fn check(program: &Program, limit: u64) -> Result<(), TestCaseError> {
    let mut trace = Simulator::trace(program, limit);
    let records: Vec<DynInstr> = trace.by_ref().collect();
    let per_record = match trace.fault() {
        Some(fault) => Err(fault.clone()),
        None => {
            Ok(RunOutcome { retired: records.len() as u64, halted: trace.into_inner().is_halted() })
        }
    };

    let mut events = Events::default();
    let blocks = Simulator::new(program).run_blocks(limit, &mut events);
    prop_assert_eq!(&blocks, &per_record, "outcome at limit {}", limit);
    let rebuilt = rebuild(program, &events.0).map_err(TestCaseError::fail)?;
    prop_assert_eq!(rebuilt.len(), records.len(), "records at limit {}", limit);
    for (i, (rebuilt, record)) in rebuilt.iter().zip(&records).enumerate() {
        prop_assert_eq!(rebuilt, record, "record {} at limit {}", i, limit);
    }

    // The budget rule: a run that retires its whole budget without
    // halting has exhausted it.
    let per_record = per_record.and_then(|out| {
        if !out.halted && out.retired >= limit {
            Err(SimError::BudgetExhausted { budget: limit })
        } else {
            Ok(out)
        }
    });
    let mut events = Events::default();
    let blocks = Simulator::new(program).run_budget_blocks(limit, &mut events);
    prop_assert_eq!(&blocks, &per_record, "outcome under budget {}", limit);
    let rebuilt = rebuild(program, &events.0).map_err(TestCaseError::fail)?;
    prop_assert!(rebuilt == records, "records under budget {}", limit);
    Ok(())
}

/// Retired records of each catalog kernel run to `halt` at `Scale::Tiny`.
fn kernel_lengths() -> &'static [u64] {
    static LENGTHS: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    LENGTHS.get_or_init(|| {
        catalog()
            .iter()
            .map(|k| {
                let program = k.build(Scale::Tiny).program;
                Simulator::new(&program).run(u64::MAX).expect("kernels halt").retired
            })
            .collect()
    })
}

/// Instructions of the random programs: arithmetic, loads and stores
/// through the moving base register, and a data-dependent forward branch.
#[derive(Clone, Copy, Debug)]
enum Op {
    Alu(u8, u8, u8),
    Load(u8, i32),
    Store(u8, i32),
    Skip(u8),
}

/// How a random program leaves its text.
#[derive(Clone, Copy, Debug)]
enum Exit {
    Halt,
    /// A jump to the pc just past the text.
    JumpPastEnd,
    /// A register jump far outside the text.
    JumpFar,
    /// No control transfer: the last block runs off the end.
    FallOff,
}

fn op() -> impl Strategy<Value = Op> {
    let reg = 1u8..8;
    prop_oneof![
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(d, a, b)| Op::Alu(d, a, b)),
        (reg.clone(), 0i32..8).prop_map(|(d, slot)| Op::Load(d, slot)),
        (reg.clone(), 0i32..8).prop_map(|(s, slot)| Op::Store(s, slot)),
        reg.prop_map(Op::Skip),
    ]
}

fn exit() -> impl Strategy<Value = Exit> {
    prop_oneof![Just(Exit::Halt), Just(Exit::JumpPastEnd), Just(Exit::JumpFar), Just(Exit::FallOff)]
}

/// A loop of `body` run `trips` times over a buffer whose base moves by 8
/// bytes a trip, then `tail`, then `exit`.
fn random_program(body: &[Op], tail: &[Op], trips: i64, exit: Exit) -> Program {
    let mut b = ProgramBuilder::new("random");
    let r = Reg::new;
    let (ptr, i, lim, far) = (r(8), r(9), r(10), r(11));
    b.li(ptr, 0x4000);
    b.li(i, 0);
    b.li(lim, trips);
    for k in 1..8 {
        b.li(r(k), i64::from(k) * 3 - 7);
    }
    let emit = |b: &mut ProgramBuilder, ops: &[Op]| {
        for op in ops {
            match *op {
                Op::Alu(d, a, c) => b.add(r(d), r(a), r(c)),
                Op::Load(d, slot) => b.ld(r(d), ptr, slot * 8),
                Op::Store(s, slot) => b.sd(r(s), ptr, slot * 8),
                Op::Skip(c) => {
                    let over = b.label();
                    b.blt(r(c), i, over);
                    b.nop();
                    b.bind(over);
                }
            }
        }
    };
    let top = b.label();
    b.bind(top);
    emit(&mut b, body);
    b.addi(ptr, ptr, 8);
    b.addi(i, i, 1);
    b.blt(i, lim, top);
    emit(&mut b, tail);
    match exit {
        Exit::Halt => b.halt(),
        Exit::JumpPastEnd => {
            let end = b.label();
            b.j(end);
            b.bind(end);
        }
        Exit::JumpFar => {
            b.li(far, 1 << 20);
            b.jr(far);
        }
        Exit::FallOff => b.nop(),
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A kernel stopped after `limit` records, often inside a block, or
    /// run to `halt`.
    #[test]
    fn blocks_are_their_records_on_kernel_windows(k in 0..catalog().len(), frac in 0.0f64..1.05) {
        let len = kernel_lengths()[k];
        let limit = (frac * len as f64) as u64;
        check(&catalog()[k].build(Scale::Tiny).program, limit)?;
    }

    /// A clone at a random synthesis seed, run to `halt`.
    #[test]
    fn blocks_are_their_records_on_clones(k in 0..catalog().len(), seed: u64) {
        let profile = profile_program(&catalog()[k].build(Scale::Tiny).program, u64::MAX)
            .expect("kernel profiles");
        let params = SynthesisParams { seed, target_dynamic: 20_000, ..SynthesisParams::default() };
        let clone = Cloner::with_params(params).clone_program_from(&profile).expect("clone synthesizes");
        check(&clone, u64::MAX)?;
    }
}

proptest! {
    /// Random programs that halt, jump out of their text or fall off its
    /// end, under a random limit.
    #[test]
    fn blocks_are_their_records_on_random_programs(
        body in proptest::collection::vec(op(), 0..10),
        tail in proptest::collection::vec(op(), 0..6),
        (trips, exit) in (1i64..100, exit()),
        limit in prop_oneof![Just(u64::MAX), 0u64..1500],
    ) {
        check(&random_program(&body, &tail, trips, exit), limit)?;
    }
}
