//! Typed errors for the fidelity gate.

use std::error::Error as StdError;
use std::fmt;

use perfclone_profile::ProfileError;
use perfclone_sim::SimError;

use crate::gate::ValidationReport;

/// Errors surfaced while validating an emitted clone against its source
/// profile.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidateError {
    /// The source profile itself is structurally invalid; nothing can be
    /// compared against it.
    Source(ProfileError),
    /// The clone faulted (escaped its text section) while being measured.
    CloneFaulted(SimError),
    /// The clone did not halt within the gate's instruction budget for
    /// measuring it — the runaway guard for pathological synthetic programs.
    BudgetExhausted {
        /// The instruction budget that was exhausted.
        budget: u64,
    },
    /// One or more attribute families drifted past their failure tolerance.
    /// The carried report names every violated attribute.
    GateFailed(Box<ValidationReport>),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Source(e) => write!(f, "source profile invalid: {e}"),
            ValidateError::CloneFaulted(e) => write!(f, "clone faulted while being measured: {e}"),
            ValidateError::BudgetExhausted { budget } => {
                write!(f, "clone did not halt within the {budget}-instruction gate budget")
            }
            ValidateError::GateFailed(report) => {
                write!(f, "fidelity gate failed: {}", report.failure_summary())
            }
        }
    }
}

impl StdError for ValidateError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ValidateError::Source(e) => Some(e),
            ValidateError::CloneFaulted(e) => Some(e),
            _ => None,
        }
    }
}
