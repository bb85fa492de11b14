//! # perfclone-uarch
//!
//! Execution-driven microarchitecture timing models — the SimpleScalar
//! substitute for the performance-cloning reproduction.
//!
//! * [`Cache`] — set-associative, LRU, write-back caches,
//! * [`BranchPredictor`] — static, bimodal, 2-level GAp and gshare
//!   direction predictors,
//! * [`Pipeline`] — a trace-driven superscalar out-of-order/in-order
//!   pipeline with ROB, LSQ, functional-unit pool, I/D/L2 hierarchy, and
//!   per-structure activity counters (consumed by `perfclone-power`),
//! * [`config`] — the paper's Table-2 base machine, the five Table-3 design
//!   changes, and the 28-configuration L1-D sweep of Figures 4 and 5,
//! * [`simulate_dcache`] — the timing-free cache replay the cache sweeps
//!   use.
//!
//! # Example
//!
//! ```
//! use perfclone_isa::{ProgramBuilder, Reg};
//! use perfclone_sim::Simulator;
//! use perfclone_uarch::{base_config, Pipeline};
//!
//! let mut b = ProgramBuilder::new("tiny");
//! b.li(Reg::new(1), 3);
//! b.mul(Reg::new(2), Reg::new(1), Reg::new(1));
//! b.halt();
//! let p = b.build();
//!
//! let report = Pipeline::new(base_config()).run(Simulator::trace(&p, u64::MAX));
//! assert_eq!(report.instrs, 3);
//! assert!(report.ipc() > 0.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod grid;
pub mod stackdist;

mod cache;
mod pipeline;
mod predictor;
mod sweep;

pub use cache::{AccessResult, Assoc, Cache, CacheConfig, CacheStats};
pub use config::{base_config, cache_sweep, design_changes, IssuePolicy, MachineConfig};
pub use grid::GridAxes;
pub use pipeline::{Activity, Pipeline, PipelineReport};
pub use predictor::{BranchPredictor, PredictorKind, PredictorStats};
pub use stackdist::{sweep_trace, AddressTrace, DataRef};
pub use sweep::{
    simulate_dcache, simulate_hierarchy_trace, sweep_dcache, DcacheSweepPoint, HierarchyPoint,
};
