//! The functional interpreter.

use std::error::Error;
use std::fmt;

use perfclone_isa::{AluOp, FpOp, Instr, MemRef, MemWidth, Program};

use crate::mem::Memory;
use crate::state::ArchState;
use crate::trace::{DynInstr, MemAccess, Observer, Trace};

/// Errors surfaced by functional execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The program counter left the program text.
    PcOutOfRange {
        /// The offending program counter.
        pc: u32,
        /// Number of instructions in the program.
        len: usize,
    },
    /// A [`run_budget`](Simulator::run_budget) call retired its whole
    /// instruction budget without the program halting — the runaway guard for
    /// pathological (non-terminating) synthetic programs.
    BudgetExhausted {
        /// The instruction budget that was exhausted.
        budget: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PcOutOfRange { pc, len } => {
                write!(f, "program counter {pc} outside program of {len} instructions")
            }
            SimError::BudgetExhausted { budget } => {
                write!(f, "program did not halt within the {budget}-instruction budget")
            }
        }
    }
}

impl Error for SimError {}

/// Result of a bounded [`Simulator::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Instructions retired during this run.
    pub retired: u64,
    /// `true` when the program executed `halt`.
    pub halted: bool,
}

/// A functional simulator executing one [`Program`].
///
/// The simulator borrows the program and owns the memory image and
/// architectural state. Use [`step`](Simulator::step) for single-instruction
/// control, [`run`](Simulator::run)/[`run_with`](Simulator::run_with) for
/// bounded execution, or [`Program`]-level convenience [`trace`] for an
/// iterator view.
///
/// [`trace`]: Simulator::trace
#[derive(Clone, Debug)]
pub struct Simulator<'p> {
    program: &'p Program,
    state: ArchState,
    mem: Memory,
    halted: bool,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator with the program's initial data image loaded.
    pub fn new(program: &'p Program) -> Simulator<'p> {
        let mut mem = Memory::new();
        for seg in program.data() {
            mem.write_bytes(seg.addr, &seg.bytes);
        }
        Simulator {
            program,
            state: ArchState::new(program.entry(), program.streams().len()),
            mem,
            halted: false,
        }
    }

    /// Creates a trace iterator that retires at most `limit` instructions.
    pub fn trace(program: &'p Program, limit: u64) -> Trace<'p> {
        Trace::new(Simulator::new(program), limit)
    }

    /// The architectural state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// The memory image.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// `true` once the program has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Executes one instruction and returns its retirement record, or
    /// `Ok(None)` if the program has already halted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PcOutOfRange`] if control flow escapes the
    /// program text.
    // The consumers of the retired stream (the profiler, the gate's
    // re-profile, address extraction, trace capture, the live pipeline) run
    // their loops in other crates. Without LTO a non-generic function is
    // opaque across crates, so `#[inline]` is what lets each loop fuse with
    // the interpreter instead of calling out per instruction and returning
    // the record through memory.
    #[inline]
    pub fn step(&mut self) -> Result<Option<DynInstr>, SimError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.state.pc();
        if pc as usize >= self.program.len() {
            return Err(SimError::PcOutOfRange { pc, len: self.program.len() });
        }
        let instr = self.program.fetch(pc);
        let mut next_pc = pc.wrapping_add(1);
        let mut taken = false;
        let mut mem_access = None;

        match instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = alu(op, self.state.reg(rs1), self.state.reg(rs2));
                self.state.set_reg(rd, v);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let v = alu(op, self.state.reg(rs1), i64::from(imm));
                self.state.set_reg(rd, v);
            }
            Instr::Li { rd, imm } => self.state.set_reg(rd, imm),
            Instr::Mul { rd, rs1, rs2 } => {
                let v = self.state.reg(rs1).wrapping_mul(self.state.reg(rs2));
                self.state.set_reg(rd, v);
            }
            Instr::Div { rd, rs1, rs2 } => {
                let (a, b) = (self.state.reg(rs1), self.state.reg(rs2));
                self.state.set_reg(rd, if b == 0 { 0 } else { a.wrapping_div(b) });
            }
            Instr::Rem { rd, rs1, rs2 } => {
                let (a, b) = (self.state.reg(rs1), self.state.reg(rs2));
                self.state.set_reg(rd, if b == 0 { a } else { a.wrapping_rem(b) });
            }
            Instr::Fp { op, fd, fs1, fs2 } => {
                let v = fp(op, self.state.freg(fs1), self.state.freg(fs2));
                self.state.set_freg(fd, v);
            }
            Instr::FLi { fd, imm } => self.state.set_freg(fd, imm),
            Instr::CvtIf { fd, rs } => {
                let v = self.state.reg(rs) as f64;
                self.state.set_freg(fd, v);
            }
            Instr::CvtFi { rd, fs } => {
                let v = self.state.freg(fs) as i64;
                self.state.set_reg(rd, v);
            }
            Instr::FCmpLt { rd, fs1, fs2 } => {
                let v = i64::from(self.state.freg(fs1) < self.state.freg(fs2));
                self.state.set_reg(rd, v);
            }
            Instr::Load { rd, mem, width } => {
                let addr = self.effective_address(mem);
                let v = match width {
                    MemWidth::B1 => i64::from(self.mem.read_u8(addr)),
                    MemWidth::B4 => i64::from(self.mem.read_u32(addr) as i32),
                    MemWidth::B8 => self.mem.read_u64(addr) as i64,
                };
                self.state.set_reg(rd, v);
                mem_access = Some(MemAccess { addr, bytes: width.bytes() as u8, is_store: false });
            }
            Instr::Store { rs, mem, width } => {
                let addr = self.effective_address(mem);
                let v = self.state.reg(rs);
                match width {
                    MemWidth::B1 => self.mem.write_u8(addr, v as u8),
                    MemWidth::B4 => self.mem.write_u32(addr, v as u32),
                    MemWidth::B8 => self.mem.write_u64(addr, v as u64),
                }
                mem_access = Some(MemAccess { addr, bytes: width.bytes() as u8, is_store: true });
            }
            Instr::LoadF { fd, mem } => {
                let addr = self.effective_address(mem);
                let v = self.mem.read_f64(addr);
                self.state.set_freg(fd, v);
                mem_access = Some(MemAccess { addr, bytes: 8, is_store: false });
            }
            Instr::StoreF { fs, mem } => {
                let addr = self.effective_address(mem);
                self.mem.write_f64(addr, self.state.freg(fs));
                mem_access = Some(MemAccess { addr, bytes: 8, is_store: true });
            }
            Instr::Branch { cond, rs1, rs2, target } => {
                taken = cond.eval(self.state.reg(rs1), self.state.reg(rs2));
                if taken {
                    next_pc = target;
                }
            }
            Instr::Jump { target } => next_pc = target,
            Instr::Jal { rd, target } => {
                self.state.set_reg(rd, i64::from(pc) + 1);
                next_pc = target;
            }
            Instr::Jr { rs } => next_pc = self.state.reg(rs) as u32,
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }

        self.state.set_pc(next_pc);
        Ok(Some(DynInstr { pc, instr, next_pc, taken, mem: mem_access }))
    }

    /// Runs until `halt` or until `limit` instructions have retired.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`step`](Simulator::step).
    pub fn run(&mut self, limit: u64) -> Result<RunOutcome, SimError> {
        self.run_with(limit, &mut crate::trace::NullObserver)
    }

    /// Runs like [`run`](Simulator::run), invoking `observer` for every
    /// retired instruction.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`step`](Simulator::step).
    pub fn run_with<O: Observer>(
        &mut self,
        limit: u64,
        observer: &mut O,
    ) -> Result<RunOutcome, SimError> {
        let mut retired = 0;
        while retired < limit {
            match self.step()? {
                Some(d) => {
                    retired += 1;
                    observer.on_retire(&d);
                }
                None => break,
            }
        }
        Ok(RunOutcome { retired, halted: self.halted })
    }

    /// Runs like [`run`](Simulator::run) but treats an exhausted budget as an
    /// error: the program must execute `halt` within `budget` instructions.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExhausted`] when `budget` instructions retire
    /// without the program halting, in addition to the faults surfaced by
    /// [`step`](Simulator::step).
    pub fn run_budget(&mut self, budget: u64) -> Result<RunOutcome, SimError> {
        self.run_budget_with(budget, &mut crate::trace::NullObserver)
    }

    /// Runs like [`run_budget`](Simulator::run_budget), invoking `observer`
    /// for every retired instruction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExhausted`] when `budget` instructions retire
    /// without the program halting, in addition to the faults surfaced by
    /// [`step`](Simulator::step).
    pub fn run_budget_with<O: Observer>(
        &mut self,
        budget: u64,
        observer: &mut O,
    ) -> Result<RunOutcome, SimError> {
        let out = self.run_with(budget, observer)?;
        if !out.halted && out.retired >= budget {
            return Err(SimError::BudgetExhausted { budget });
        }
        Ok(out)
    }

    fn effective_address(&mut self, mem: MemRef) -> u64 {
        match mem {
            MemRef::Base { base, offset } => {
                (self.state.reg(base)).wrapping_add(i64::from(offset)) as u64
            }
            MemRef::Stream(id) => {
                let desc = self.program.stream(id);
                let k = self.state.next_stream_pos(id.index() as usize);
                desc.address(k)
            }
        }
    }
}

fn alu(op: AluOp, a: i64, b: i64) -> i64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => ((a as u64) << (b as u64 & 63)) as i64,
        AluOp::Srl => ((a as u64) >> (b as u64 & 63)) as i64,
        AluOp::Sra => a >> (b as u64 & 63),
        AluOp::Slt => i64::from(a < b),
        AluOp::Sltu => i64::from((a as u64) < (b as u64)),
    }
}

fn fp(op: FpOp, a: f64, b: f64) -> f64 {
    match op {
        FpOp::Add => a + b,
        FpOp::Sub => a - b,
        FpOp::Mul => a * b,
        FpOp::Div => a / b,
        FpOp::Sqrt => a.abs().sqrt(),
        FpOp::Min => a.min(b),
        FpOp::Max => a.max(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CountingObserver;
    use perfclone_isa::{MemWidth, ProgramBuilder, Reg, StreamDesc};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn loop_sums_correctly() {
        let mut b = ProgramBuilder::new("sum");
        let (i, n, acc) = (r(1), r(2), r(3));
        b.li(i, 1);
        b.li(n, 100);
        b.li(acc, 0);
        let top = b.label();
        b.bind(top);
        b.add(acc, acc, i);
        b.addi(i, i, 1);
        b.ble(i, n, top);
        b.halt();
        let p = b.build();
        let mut sim = Simulator::new(&p);
        let out = sim.run(10_000).unwrap();
        assert!(out.halted);
        assert_eq!(sim.state().reg(acc), 5050);
        // 3 setup + 100 iterations of 3 + halt
        assert_eq!(out.retired, 3 + 300 + 1);
    }

    #[test]
    fn memory_program_reads_initial_data() {
        let mut b = ProgramBuilder::new("mem");
        let table = b.data_u64(&[10, 20, 30]);
        let ptr = r(1);
        let acc = r(2);
        let tmp = r(3);
        b.li(ptr, table as i64);
        b.ld(tmp, ptr, 0);
        b.add(acc, acc, tmp);
        b.ld(tmp, ptr, 8);
        b.add(acc, acc, tmp);
        b.ld(tmp, ptr, 16);
        b.add(acc, acc, tmp);
        b.halt();
        let p = b.build();
        let mut sim = Simulator::new(&p);
        sim.run(100).unwrap();
        assert_eq!(sim.state().reg(acc), 60);
    }

    #[test]
    fn stream_addressing_walks_and_wraps() {
        let mut b = ProgramBuilder::new("stream");
        let id = b.stream(StreamDesc { base: 0x2000, stride: 8, length: 3 });
        for _ in 0..4 {
            b.ld_stream(r(1), id, MemWidth::B8);
        }
        b.halt();
        let p = b.build();
        let addrs: Vec<u64> =
            Simulator::trace(&p, 100).filter_map(|d| d.mem.map(|m| m.addr)).collect();
        assert_eq!(addrs, vec![0x2000, 0x2008, 0x2010, 0x2000]);
    }

    #[test]
    fn branch_taken_flag_and_observer_counts() {
        let mut b = ProgramBuilder::new("br");
        let (i, n) = (r(1), r(2));
        b.li(i, 0);
        b.li(n, 10);
        let top = b.label();
        b.bind(top);
        b.addi(i, i, 1);
        b.blt(i, n, top); // taken 9 times, not taken once
        b.halt();
        let p = b.build();
        let mut sim = Simulator::new(&p);
        let mut counter = CountingObserver::default();
        sim.run_with(1_000, &mut counter).unwrap();
        assert_eq!(counter.branches, 10);
        assert_eq!(counter.taken_branches, 9);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new("call");
        let ra = r(31);
        let func = b.label();
        let done = b.label();
        b.jal(ra, func);
        b.j(done);
        b.bind(func);
        b.li(r(1), 42);
        b.jr(ra);
        b.bind(done);
        b.halt();
        let p = b.build();
        let mut sim = Simulator::new(&p);
        let out = sim.run(100).unwrap();
        assert!(out.halted);
        assert_eq!(sim.state().reg(r(1)), 42);
    }

    #[test]
    fn pc_out_of_range_is_an_error() {
        let mut b = ProgramBuilder::new("fall");
        b.nop(); // no halt: falls off the end
        let p = b.build();
        let mut sim = Simulator::new(&p);
        assert!(sim.step().unwrap().is_some());
        assert!(matches!(sim.step(), Err(SimError::PcOutOfRange { pc: 1, .. })));
        let err = SimError::PcOutOfRange { pc: 1, len: 1 };
        assert!(err.to_string().contains("outside program"));
    }

    #[test]
    fn run_respects_limit() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.label();
        b.bind(top);
        b.j(top);
        let p = b.build();
        let mut sim = Simulator::new(&p);
        let out = sim.run(17).unwrap();
        assert_eq!(out.retired, 17);
        assert!(!out.halted);
    }

    #[test]
    fn run_budget_errors_on_nonhalting_program() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.label();
        b.bind(top);
        b.j(top);
        let p = b.build();
        let mut sim = Simulator::new(&p);
        let err = sim.run_budget(1_000).unwrap_err();
        assert_eq!(err, SimError::BudgetExhausted { budget: 1_000 });
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn run_budget_accepts_halting_program() {
        let mut b = ProgramBuilder::new("h");
        b.nop();
        b.halt();
        let p = b.build();
        let mut sim = Simulator::new(&p);
        let out = sim.run_budget(2).unwrap();
        assert!(out.halted);
        assert_eq!(out.retired, 2);
    }

    #[test]
    fn trace_records_fault_on_early_stop() {
        let mut b = ProgramBuilder::new("fall");
        b.nop(); // no halt: falls off the end
        let p = b.build();
        let mut trace = Simulator::trace(&p, 100);
        assert_eq!(trace.by_ref().count(), 1);
        assert!(matches!(trace.fault(), Some(SimError::PcOutOfRange { pc: 1, .. })));
        // A clean halt leaves no fault behind.
        let mut b = ProgramBuilder::new("h");
        b.halt();
        let p = b.build();
        let mut trace = Simulator::trace(&p, 100);
        assert_eq!(trace.by_ref().count(), 1);
        assert!(trace.fault().is_none());
    }

    #[test]
    fn division_by_zero_is_defined() {
        let mut b = ProgramBuilder::new("div0");
        b.li(r(1), 5);
        b.li(r(2), 0);
        b.div(r(3), r(1), r(2));
        b.rem(r(4), r(1), r(2));
        b.halt();
        let p = b.build();
        let mut sim = Simulator::new(&p);
        sim.run(100).unwrap();
        assert_eq!(sim.state().reg(r(3)), 0);
        assert_eq!(sim.state().reg(r(4)), 5);
    }

    #[test]
    fn byte_and_word_width_semantics() {
        let mut b = ProgramBuilder::new("widths");
        let addr = b.data_u64(&[0xffff_ffff_ffff_ffff]);
        b.li(r(1), addr as i64);
        b.lb(r(2), r(1), 0); // zero-extended byte
        b.lw(r(3), r(1), 0); // sign-extended word
        b.halt();
        let p = b.build();
        let mut sim = Simulator::new(&p);
        sim.run(100).unwrap();
        assert_eq!(sim.state().reg(r(2)), 0xff);
        assert_eq!(sim.state().reg(r(3)), -1);
    }

    #[test]
    fn halted_sim_steps_to_none() {
        let mut b = ProgramBuilder::new("h");
        b.halt();
        let p = b.build();
        let mut sim = Simulator::new(&p);
        assert!(sim.step().unwrap().is_some());
        assert!(sim.is_halted());
        assert!(sim.step().unwrap().is_none());
    }
}
