//! # perfclone-isa
//!
//! A small load-store RISC instruction set used by the performance-cloning
//! reproduction as the substrate ISA (substituting for the Alpha ISA used by
//! the original paper).
//!
//! The crate provides:
//!
//! * [`Reg`] / [`FReg`] — the 32 integer and 32 floating-point architectural
//!   registers (`r0` reads as zero),
//! * [`Instr`] — the instruction set itself, with helpers for operand and
//!   class inspection used by the profiler and the timing simulator,
//! * [`Program`] — a fully linked unit: instructions, initial data image and
//!   stride-stream descriptors,
//! * [`ProgramBuilder`] — an assembler DSL with labels, used both by the
//!   hand-written benchmark kernels and by the clone synthesizer,
//! * [`disasm`] — a human-readable disassembler.
//!
//! Programs live only in memory. What the reproduction disseminates is the
//! profile JSON and the clone emitted as C (the paper's §3.2, step 12), so
//! the crate has no binary encoding and no text assembler: `disasm` output
//! is for people to read.
//!
//! # Example
//!
//! ```
//! use perfclone_isa::{ProgramBuilder, Reg};
//!
//! // Sum the integers 1..=10 into r3.
//! let mut b = ProgramBuilder::new("sum");
//! let (i, n, acc) = (Reg::new(1), Reg::new(2), Reg::new(3));
//! b.li(i, 1);
//! b.li(n, 10);
//! b.li(acc, 0);
//! let top = b.label();
//! b.bind(top);
//! b.add(acc, acc, i);
//! b.addi(i, i, 1);
//! b.ble(i, n, top);
//! b.halt();
//! let program = b.build();
//! assert_eq!(program.name(), "sum");
//! ```

mod builder;
mod disasm;
mod instr;
mod meta;
mod program;
mod reg;

pub use builder::{Label, ProgramBuilder};
pub use disasm::{disasm, disasm_program};
pub use instr::{AluOp, Cond, FpOp, Instr, InstrClass, MemRef, MemWidth, OperandList, RegRef};
pub use meta::{InstrMeta, InstrMetaTable};
pub use program::{DataSeg, Program, StreamDesc, StreamId, INSTR_BYTES};
pub use reg::{FReg, Reg};
