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
//! `perfclone-uarch` replays through its timing model. The retired stream
//! leaves the interpreter two ways. [`Simulator::trace`] yields it a record
//! at a time; trace capture, address extraction and the live pipeline
//! iterate it. [`Simulator::run_blocks`] hands a [`BlockObserver`] whole
//! basic blocks (the start pc, the length, the memory records and the last
//! record), as ATOM's per-block analysis routines see them; the profiler
//! uses it. A [`TraceStore`] records the stream once, in memory or spilled
//! to disk, and replays it for each machine configuration.
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
pub use packed::{BatchReplay, PackedReplay, ReplayChunk, CHUNK_LEN};
pub use spill::{reap_stray_spills, TraceError, TraceStore};
pub use state::ArchState;
pub use trace::{BlockObserver, DynInstr, MemAccess, Trace};
