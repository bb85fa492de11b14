//! # perfclone-validate
//!
//! Clone validation for the performance-cloning pipeline: the missing
//! closed-loop stage between synthesis and dissemination.
//!
//! The paper's premise is that a synthetic clone can stand in for the
//! proprietary application — which only holds if, for every clone the
//! pipeline emits, the microarchitecture-independent attributes of §3.1
//! survived synthesis. This crate provides the three pieces that make the
//! pipeline trustworthy:
//!
//! * a **fidelity gate** ([`gate`]) — measures an emitted clone with the
//!   `perfclone-profile` totals collector and compares all five §3.1
//!   attribute families (instruction mix, dependency distances, stride
//!   streams, branch taken rate, branch transition rate) against the
//!   source profile under configurable per-attribute tolerances, producing
//!   a structured [`ValidationReport`];
//! * a **deterministic fault injector** ([`fault`]) — a seeded [`FaultPlan`]
//!   that perturbs workload profiles at defined points (truncated traces,
//!   un-normalized SFG transition probabilities, zeroed stride streams,
//!   out-of-range dependency distances, corrupted register classes) so
//!   tests can prove every stage returns a typed error or a
//!   degraded-but-flagged result instead of panicking;
//! * **deterministic seed derivation** ([`seeds`]) — the per-cell seed
//!   function parallel sweeps and the fault injector share, so results are
//!   bit-identical at any thread count.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
pub mod fault;
pub mod gate;
pub mod seeds;

pub use error::ValidateError;
pub use fault::{Fault, FaultPlan};
pub use gate::{Attribute, AttributeCheck, Gate, Tolerance, Tolerances, ValidationReport, Verdict};
pub use seeds::derive_cell_seed;
