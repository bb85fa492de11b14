//! Flat per-instruction static metadata, interned once per [`Program`].
//!
//! The timing pipeline asks the same questions of every retired record:
//! which functional-unit class, which source/destination registers (as
//! [`RegRef::flat_index`] slots in the rename table), whether the record
//! carries a memory access, and whether it is a conditional branch. On the
//! replay hot path those answers are static — they depend only on the
//! instruction at the record's pc — yet the enum-matching accessors on
//! [`Instr`] re-derive them per dynamic record.
//!
//! [`InstrMeta`] caches the answers in a flat `Copy` struct and
//! [`InstrMetaTable`] interns one per pc in a dense, pc-indexed `Vec` built
//! once per program. The batched replay path and the workload profiler
//! index the table by pc (the record-at-a-time replay oracle resolves from
//! the program text instead); paths without a stable pc→instr mapping
//! (statsim's synthetic traces shuffle block bodies, so one pc can denote
//! different instructions across records) derive the same struct per record
//! via [`InstrMeta::of`], keeping a single derivation of the metadata
//! semantics.
//!
//! Every field is computed *through* the existing `Instr` accessors
//! (`class`, `uses`, `defs`, `mem_ref`, `is_cond_branch`, `is_control`), so
//! the interned answers are identical to the unintermed ones by
//! construction — the bit-identity property the replay oracle tests rely on.

use crate::instr::{Instr, InstrClass};
use crate::program::Program;

/// Maximum operands in an [`OperandList`](crate::OperandList); mirrored here
/// so the fixed arrays below cannot silently truncate.
const MAX_OPERANDS: usize = 3;

/// Cached static answers for one instruction. `Copy` and 16 bytes, so a
/// pc-indexed table of these stays cache-resident for real programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstrMeta {
    /// Functional-unit class (`Instr::class`).
    pub class: InstrClass,
    /// `Instr::is_cond_branch()`.
    pub cond_branch: bool,
    /// `Instr::is_control()`.
    pub control: bool,
    /// The instruction performs a memory access (`Instr::mem_ref().is_some()`).
    pub has_mem: bool,
    /// Number of valid entries in `use_idx`.
    pub num_uses: u8,
    /// Number of valid entries in `def_idx`.
    pub num_defs: u8,
    /// `RegRef::flat_index` of each source operand, in `Instr::uses` order
    /// (order matters: dependence lists dedup in first-seen order).
    pub use_idx: [u8; MAX_OPERANDS],
    /// `RegRef::flat_index` of each destination operand, in `Instr::defs` order.
    pub def_idx: [u8; MAX_OPERANDS],
}

impl InstrMeta {
    /// Derives the metadata for one instruction via the canonical `Instr`
    /// accessors. This is the *only* derivation in the workspace; interned
    /// tables and per-record paths both go through it.
    pub fn of(instr: &Instr) -> InstrMeta {
        let uses = instr.uses();
        let defs = instr.defs();
        let mut use_idx = [0u8; MAX_OPERANDS];
        let mut def_idx = [0u8; MAX_OPERANDS];
        for (slot, reg) in use_idx.iter_mut().zip(uses.iter()) {
            *slot = reg.flat_index() as u8;
        }
        for (slot, reg) in def_idx.iter_mut().zip(defs.iter()) {
            *slot = reg.flat_index() as u8;
        }
        InstrMeta {
            class: instr.class(),
            cond_branch: instr.is_cond_branch(),
            control: instr.is_control(),
            has_mem: instr.mem_ref().is_some(),
            num_uses: uses.len() as u8,
            num_defs: defs.len() as u8,
            use_idx,
            def_idx,
        }
    }

    /// Valid source-operand flat indices, in `Instr::uses` order.
    #[inline]
    pub fn uses(&self) -> &[u8] {
        &self.use_idx[..self.num_uses as usize]
    }

    /// Valid destination-operand flat indices, in `Instr::defs` order.
    #[inline]
    pub fn defs(&self) -> &[u8] {
        &self.def_idx[..self.num_defs as usize]
    }
}

/// Dense pc-indexed table of [`InstrMeta`], built once per [`Program`] and
/// shared by every replay of that program (the `WorkloadCache` memoizes one
/// per workload). Indexing by pc replaces four-plus enum matches per retired
/// record with one 16-byte load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrMetaTable {
    metas: Vec<InstrMeta>,
}

impl InstrMetaTable {
    /// Interns metadata for every instruction of `program`, in pc order.
    pub fn new(program: &Program) -> InstrMetaTable {
        Self::of_instrs(program.instrs())
    }

    /// Interns metadata for a raw instruction slice (pc = slice index).
    pub fn of_instrs(instrs: &[Instr]) -> InstrMetaTable {
        InstrMetaTable { metas: instrs.iter().map(InstrMeta::of).collect() }
    }

    /// Number of interned entries (== program length).
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The entry for `pc`. Panics if `pc` is outside the program, same as
    /// resolving the instruction itself would.
    #[inline]
    pub fn at(&self, pc: u32) -> &InstrMeta {
        &self.metas[pc as usize]
    }

    /// The whole table as a pc-indexed slice.
    #[inline]
    pub fn as_slice(&self) -> &[InstrMeta] {
        &self.metas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::{FReg, Reg};

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new("meta-sample");
        let (a, i, n) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.li(a, 7);
        b.li(i, 0);
        b.li(n, 4);
        let top = b.label();
        b.bind(top);
        b.add(a, a, i);
        b.lw(Reg::new(4), a, 0);
        b.sw(Reg::new(4), a, 8);
        b.fadd(FReg::new(1), FReg::new(2), FReg::new(3));
        b.addi(i, i, 1);
        b.ble(i, n, top);
        b.j(top);
        b.halt();
        b.build()
    }

    #[test]
    fn meta_matches_instr_accessors_for_every_pc() {
        let program = sample_program();
        let table = InstrMetaTable::new(&program);
        assert_eq!(table.len(), program.len());
        for (pc, instr) in program.instrs().iter().enumerate() {
            let m = table.at(pc as u32);
            assert_eq!(m.class, instr.class());
            assert_eq!(m.cond_branch, instr.is_cond_branch());
            assert_eq!(m.control, instr.is_control());
            assert_eq!(m.has_mem, instr.mem_ref().is_some());
            let uses: Vec<u8> = instr.uses().iter().map(|r| r.flat_index() as u8).collect();
            let defs: Vec<u8> = instr.defs().iter().map(|r| r.flat_index() as u8).collect();
            assert_eq!(m.uses(), uses.as_slice(), "uses order must match at pc {pc}");
            assert_eq!(m.defs(), defs.as_slice(), "defs order must match at pc {pc}");
        }
    }

    #[test]
    fn meta_is_compact() {
        // The table is indexed per retired record; keep the entry small
        // enough that real programs stay in L1/L2.
        assert!(std::mem::size_of::<InstrMeta>() <= 16);
    }
}
