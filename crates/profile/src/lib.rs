//! # perfclone-profile
//!
//! Microarchitecture-independent workload profiling (paper §3.1).
//!
//! The profiler consumes the retired-instruction stream of a program a basic
//! block at a time (via `perfclone-sim`'s
//! [`BlockObserver`](perfclone_sim::BlockObserver) hook, as ATOM's per-block
//! analysis routines see it) and builds a [`WorkloadProfile`] containing
//! exactly the attribute families the paper measures:
//!
//! * the **statistical flow graph** — dynamic basic blocks, execution
//!   frequencies and transition counts (§3.1.1),
//! * the **instruction mix** per block (§3.1.2),
//! * **data dependency distance distributions**, for registers and memory,
//!   per (predecessor, block) context (§3.1.3),
//! * **per-static-load/store stride streams** — dominant stride, stream
//!   length, coverage (§3.1.4),
//! * **per-static-branch taken rate and transition rate** (§3.1.5).
//!
//! The fidelity gate judges a clone on whole-run totals of these families
//! only ([`ProfileTotals`]): read off a profile with
//! [`WorkloadProfile::totals`], or gathered from a run by the
//! [`TotalsCollector`], which builds nothing else.
//!
//! Everything in the profile is a function of the program's architectural
//! execution only; no cache, predictor, or pipeline state is consulted. The
//! profile is serializable — it is the artifact a vendor would disseminate
//! instead of the proprietary binary.
//!
//! # Example
//!
//! ```
//! use perfclone_isa::{ProgramBuilder, Reg};
//! use perfclone_profile::profile_program;
//!
//! let mut b = ProgramBuilder::new("loop");
//! let (i, n) = (Reg::new(1), Reg::new(2));
//! b.li(i, 0);
//! b.li(n, 100);
//! let top = b.label();
//! b.bind(top);
//! b.addi(i, i, 1);
//! b.blt(i, n, top);
//! b.halt();
//! let p = b.build();
//!
//! let profile = profile_program(&p, 10_000)?;
//! assert_eq!(profile.total_instrs, 2 + 200 + 1);
//! assert!(!profile.nodes.is_empty());
//! # Ok::<(), perfclone_profile::ProfileError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod collect;
mod error;
mod hist;
mod model;
mod report;
mod totals;

pub use collect::{profile_program, Profiler};
pub use error::ProfileError;
pub use hist::{DepHistogram, DEP_BUCKET_EDGES, NUM_DEP_BUCKETS};
pub use model::{
    BlockProfile, BranchProfile, ContextProfile, EdgeProfile, StreamProfile, WorkloadProfile,
};
pub use report::render_report;
pub use totals::{ProfileTotals, TotalsCollector};
