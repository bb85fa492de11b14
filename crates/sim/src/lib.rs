//! # perfclone-sim
//!
//! Functional (instruction-accurate) simulator for the `perfclone-isa`
//! instruction set, with instrumentation hooks.
//!
//! This crate plays the role SimpleScalar's `sim-safe` plus an ATOM/PIN-style
//! instrumentation layer play in the original paper: it executes a
//! [`Program`](perfclone_isa::Program) and surfaces its retired instructions
//! as [`DynInstr`] records, the raw material from which `perfclone-profile`
//! measures the microarchitecture-independent workload attributes and which
//! `perfclone-uarch` replays through its timing model. It has two hooks. An
//! [`Observer`] sees every record; trace capture and the tests use it. A
//! [`BlockObserver`] sees whole basic blocks (the start pc, the length, the
//! memory records and the last record), as ATOM's per-block analysis
//! routines do; the profiler uses it.
//!
//! # Example
//!
//! ```
//! use perfclone_isa::{ProgramBuilder, Reg};
//! use perfclone_sim::Simulator;
//!
//! let mut b = ProgramBuilder::new("answer");
//! b.li(Reg::new(1), 6);
//! b.li(Reg::new(2), 7);
//! b.mul(Reg::new(3), Reg::new(1), Reg::new(2));
//! b.halt();
//! let program = b.build();
//!
//! let mut sim = Simulator::new(&program);
//! let outcome = sim.run(1_000)?;
//! assert!(outcome.halted);
//! assert_eq!(sim.state().reg(Reg::new(3)), 42);
//! # Ok::<(), perfclone_sim::SimError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod exec;
pub mod faultfs;
mod mem;
mod packed;
mod spill;
mod state;
mod trace;

pub use exec::{RunOutcome, SimError, Simulator};
pub use faultfs::FaultFsPlan;
pub use mem::Memory;
pub use packed::{BatchReplay, PackedRecorder, PackedReplay, PackedTrace, ReplayChunk, CHUNK_LEN};
pub use spill::{reap_stray_spills, SpilledTrace, SpillingRecorder, TraceError, TraceStore};
pub use state::ArchState;
pub use trace::{
    BlockObserver, CountingObserver, DynInstr, MemAccess, NullObserver, Observer, Trace,
};
