//! The unified error taxonomy for the cloning pipeline.
//!
//! Every fallible stage — functional simulation, profiling, synthesis,
//! the fidelity gate, trace spill and the sweep journal — has its own
//! typed error; [`Error`] folds them into one enum so facade-level APIs
//! ([`Cloner`](crate::Cloner), [`run_timing`](crate::run_timing), the
//! suite and experiment drivers) return a single error type. Runaway
//! guards from any layer, and a grid cell over its deadline, fold into
//! [`Error::BudgetExhausted`], so "this did not terminate within its
//! budget" looks the same to a caller no matter which stage tripped it.
//! The timing model has no budget to exhaust: it bounds every run itself
//! and panics if it ever breaks that bound, a defect of the model.

use std::error::Error as StdError;
use std::fmt;

use perfclone_profile::ProfileError;
use perfclone_sim::SimError;
use perfclone_sim::TraceError as SpillError;
use perfclone_synth::SynthError;
use perfclone_validate::ValidateError;

use crate::journal::JournalError;

/// Any error the cloning pipeline can surface.
#[derive(Clone, Debug)]
pub enum Error {
    /// The functional simulator faulted (escaped its text section,
    /// divided by zero, ...).
    Sim(SimError),
    /// Profiling failed, or a profile failed structural validation.
    Profile(ProfileError),
    /// Clone synthesis failed.
    Synth(SynthError),
    /// The fidelity gate rejected a clone (or could not evaluate it).
    Validate(ValidateError),
    /// A stage's runaway guard tripped, or a grid cell's run took more
    /// cycles than its deadline: the named stage did not terminate within
    /// its instruction/cycle/instance budget.
    BudgetExhausted {
        /// Which stage exhausted its budget (`"sim"`, `"synth"`,
        /// `"pipeline"`, `"validate"`).
        stage: &'static str,
        /// The budget that was exhausted (instructions, cycles, or
        /// instances, per stage).
        budget: u64,
    },
    /// A suite operation needs at least one member.
    EmptySuite {
        /// The suite's name.
        name: String,
    },
    /// A suite member's weight must be positive.
    NonPositiveWeight {
        /// The offending program's name.
        name: String,
        /// The rejected weight.
        weight: f64,
    },
    /// Spilling an over-cap packed trace to disk (or reading it back)
    /// failed. The timing drivers answer this, and only this, by falling
    /// back to direct interpretation.
    Spill(SpillError),
    /// A sweep journal could not be opened, read, or appended to.
    Journal(JournalError),
    /// A design-space grid has no cells (an empty axis, or `max_cells`
    /// of zero).
    EmptyGrid {
        /// The workload the grid was built for.
        workload: String,
    },
    /// A sweep journal holds quarantined cells, but the resuming run did
    /// not opt into degraded coverage (`--keep-going`).
    DegradedJournal {
        /// The workload the journal belongs to.
        workload: String,
        /// How many cells the journal quarantines.
        quarantined: u64,
    },
    /// A deterministically injected fault from the chaos harness (the
    /// grid fault injector / `PERFCLONE_GRID_FAULTS`). Classified by its
    /// `transient` flag; never produced outside fault-injection runs.
    Injected {
        /// The grid cell the fault was injected into.
        cell: u64,
        /// The per-cell attempt the fault failed (0 = first try).
        attempt: u32,
        /// `true` when the injection models a transient fault.
        transient: bool,
    },
}

/// Whether an [`Error`] is worth retrying.
///
/// The per-cell sweep supervisor consults this for every failure: a
/// `Transient` error is retried with seeded exponential backoff, a
/// `Permanent` one aborts the sweep (or quarantines the cell under
/// `--keep-going`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// Environmental and likely to pass on retry: I/O failures from the
    /// journal or spill layers, and injected faults flagged transient.
    Transient,
    /// Deterministic for the cell's inputs: retrying re-derives the same
    /// failure (simulator faults, budget exhaustion, validation, corrupt
    /// records, spec mismatches, …).
    Permanent,
}

impl Error {
    /// Classifies the error for the retry supervisor (see [`ErrorClass`]).
    ///
    /// Only operating-system I/O failures — which depend on the machine's
    /// state, not the cell's inputs — and transient-flagged injected
    /// faults classify as [`ErrorClass::Transient`]. Corruption and
    /// validation failures are deliberately `Permanent` even when they
    /// arrived via the filesystem: re-reading the same corrupt bytes
    /// cannot succeed, and the journal layer has its own recovery path
    /// (demote and re-execute) for them.
    pub fn classify(&self) -> ErrorClass {
        match self {
            Error::Journal(JournalError::Io { .. }) | Error::Spill(SpillError::Io { .. }) => {
                ErrorClass::Transient
            }
            Error::Injected { transient, .. } => {
                if *transient {
                    ErrorClass::Transient
                } else {
                    ErrorClass::Permanent
                }
            }
            _ => ErrorClass::Permanent,
        }
    }

    /// A short, stable tag naming the error's variant — the `kind` field
    /// of quarantine records, so degraded-coverage reports can be grouped
    /// without parsing prose.
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Sim(_) => "sim",
            Error::Profile(_) => "profile",
            Error::Synth(_) => "synth",
            Error::Validate(_) => "validate",
            Error::BudgetExhausted { .. } => "budget-exhausted",
            Error::EmptySuite { .. } => "empty-suite",
            Error::NonPositiveWeight { .. } => "non-positive-weight",
            Error::Spill(_) => "spill",
            Error::Journal(_) => "journal",
            Error::EmptyGrid { .. } => "empty-grid",
            Error::DegradedJournal { .. } => "degraded-journal",
            Error::Injected { .. } => "injected",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Sim(e) => write!(f, "simulation failed: {e}"),
            Error::Profile(e) => write!(f, "profiling failed: {e}"),
            Error::Synth(e) => write!(f, "synthesis failed: {e}"),
            Error::Validate(e) => write!(f, "validation failed: {e}"),
            Error::BudgetExhausted { stage, budget } => {
                write!(f, "{stage} stage exceeded its budget of {budget}")
            }
            Error::EmptySuite { name } => write!(f, "suite '{name}' has no members"),
            Error::NonPositiveWeight { name, weight } => {
                write!(f, "suite member '{name}' has non-positive weight {weight}")
            }
            Error::Spill(e) => write!(f, "trace spill failed: {e}"),
            Error::Journal(e) => write!(f, "sweep journal failed: {e}"),
            Error::EmptyGrid { workload } => {
                write!(f, "design-space grid for '{workload}' has no cells")
            }
            Error::DegradedJournal { workload, quarantined } => write!(
                f,
                "the sweep journal for '{workload}' quarantines {quarantined} cell(s); \
                 resume with --keep-going to accept degraded coverage, or delete the \
                 quarantine-*.json records to retry those cells"
            ),
            Error::Injected { cell, attempt, transient } => write!(
                f,
                "injected {} fault at cell {cell} (attempt {attempt})",
                if *transient { "transient" } else { "permanent" }
            ),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Sim(e) => Some(e),
            Error::Profile(e) => Some(e),
            Error::Synth(e) => Some(e),
            Error::Validate(e) => Some(e),
            Error::Spill(e) => Some(e),
            Error::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Error {
        match e {
            SimError::BudgetExhausted { budget } => Error::BudgetExhausted { stage: "sim", budget },
            other => Error::Sim(other),
        }
    }
}

impl From<ProfileError> for Error {
    fn from(e: ProfileError) -> Error {
        match e {
            ProfileError::Fault(SimError::BudgetExhausted { budget }) => {
                Error::BudgetExhausted { stage: "sim", budget }
            }
            other => Error::Profile(other),
        }
    }
}

impl From<SynthError> for Error {
    fn from(e: SynthError) -> Error {
        match e {
            SynthError::WalkBudgetExhausted { budget, .. } => {
                Error::BudgetExhausted { stage: "synth", budget: budget as u64 }
            }
            other => Error::Synth(other),
        }
    }
}

impl From<SpillError> for Error {
    fn from(e: SpillError) -> Error {
        Error::Spill(e)
    }
}

impl From<JournalError> for Error {
    fn from(e: JournalError) -> Error {
        Error::Journal(e)
    }
}

impl From<ValidateError> for Error {
    fn from(e: ValidateError) -> Error {
        match e {
            ValidateError::BudgetExhausted { budget } => {
                Error::BudgetExhausted { stage: "validate", budget }
            }
            other => Error::Validate(other),
        }
    }
}
