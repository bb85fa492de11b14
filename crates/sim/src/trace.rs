//! Dynamic-instruction trace records, the record iterator and the
//! per-block instrumentation hook.

use perfclone_isa::Instr;

/// One dynamic memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub bytes: u8,
    /// `true` for stores.
    pub is_store: bool,
}

/// One retired dynamic instruction, as yielded by [`Trace`](crate::Trace)
/// and replayed from a [`TraceStore`](crate::TraceStore).
///
/// This is the interchange record between the functional core, the workload
/// profiler, and the timing simulator: it carries everything a trace-driven
/// microarchitecture model needs (control-flow outcome and effective
/// address) without exposing register *values*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DynInstr {
    /// Program counter of the instruction (instruction index).
    pub pc: u32,
    /// The static instruction.
    pub instr: Instr,
    /// Program counter of the next retired instruction.
    pub next_pc: u32,
    /// For conditional branches: whether the branch was taken.
    pub taken: bool,
    /// For loads/stores: the dynamic access.
    pub mem: Option<MemAccess>,
}

impl DynInstr {
    /// Returns `true` when control did not fall through to `pc + 1`.
    #[inline]
    pub fn redirected(&self) -> bool {
        self.next_pc != self.pc.wrapping_add(1)
    }
}

/// Instrumentation hook invoked once per executed basic block, in program
/// order — ATOM's per-block analysis routines, which the paper's profiler
/// keys its statistics by (§3.1.1). [`Simulator::run_blocks`] drives it.
///
/// A block runs from its start pc through its first control transfer
/// (class `Branch` or `Jump`, `halt` included), so its records are the
/// instructions at `start..start + len` of the text and only the last one
/// can redirect control. The limit, the budget or a fault can cut the last
/// block of a run short; it is still delivered, ending in a record that
/// transfers no control.
///
/// [`Simulator::run_blocks`]: crate::Simulator::run_blocks
pub trait BlockObserver {
    /// A block starts at `pc`.
    fn enter_block(&mut self, pc: u32);

    /// The record `offset` places after the block's first accessed memory
    /// as `m`. Every load and store is reported, in order, and no other
    /// record.
    fn on_mem(&mut self, offset: u32, m: MemAccess);

    /// The block's `len` records have retired; `last` is the final one.
    fn exit_block(&mut self, len: u32, last: &DynInstr);
}

/// An iterator over the dynamic instruction stream of a program.
///
/// Wraps a [`Simulator`](crate::Simulator) and yields one [`DynInstr`] per
/// retired instruction until the program halts, the instruction budget is
/// exhausted, or the program faults.
#[derive(Debug)]
pub struct Trace<'p> {
    sim: crate::Simulator<'p>,
    remaining: u64,
    fault: Option<crate::SimError>,
}

impl<'p> Trace<'p> {
    pub(crate) fn new(sim: crate::Simulator<'p>, limit: u64) -> Trace<'p> {
        Trace { sim, remaining: limit, fault: None }
    }

    /// The fault that ended the trace early, if any. A faulting program
    /// truncates the iterator; callers that must distinguish a clean stop
    /// from a crash check this after exhausting the iterator.
    pub fn fault(&self) -> Option<&crate::SimError> {
        self.fault.as_ref()
    }

    /// Consumes the trace, returning the underlying simulator (for state
    /// inspection after the walk).
    pub fn into_inner(self) -> crate::Simulator<'p> {
        self.sim
    }
}

impl Iterator for Trace<'_> {
    type Item = DynInstr;

    // Consumers iterate this from other crates (address extraction, trace
    // capture, the live pipeline); `#[inline]` lets their loops fuse with
    // the interpreter, for the reason given at `Simulator::step`.
    #[inline]
    fn next(&mut self) -> Option<DynInstr> {
        if self.remaining == 0 || self.fault.is_some() {
            return None;
        }
        self.remaining -= 1;
        match self.sim.step() {
            Ok(d) => d,
            Err(e) => {
                self.fault = Some(e);
                None
            }
        }
    }
}
