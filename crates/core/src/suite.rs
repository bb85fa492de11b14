//! Workload suites: EEMBC-style aggregation of per-benchmark results into
//! a single mark, for both real programs and their clones.
//!
//! The paper's motivation (§1) is exactly this setting: embedded vendors
//! benchmark processors with suite-level marks (EEMBC's AutoMark,
//! TeleMark, …), but want the marks to reflect *their* applications. A
//! [`Suite`] bundles programs with weights; [`suite_mark`] computes the
//! geometric-mean IPC mark of a suite on a machine, so a cloned suite can
//! stand in for a proprietary one.

use perfclone_isa::Program;
use perfclone_uarch::MachineConfig;
use perfclone_validate::Gate;
use rayon::prelude::*;

use crate::{run_timing, Cloner, Error};

/// A named, weighted collection of programs.
#[derive(Debug)]
pub struct Suite {
    name: String,
    entries: Vec<(Program, f64)>,
}

impl Suite {
    /// Creates an empty suite.
    pub fn new(name: impl Into<String>) -> Suite {
        Suite { name: name.into(), entries: Vec::new() }
    }

    /// The suite's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a program with the given weight (weights need not sum to 1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonPositiveWeight`] if `weight` is zero, negative,
    /// or NaN; the suite is left unchanged.
    pub fn push(&mut self, program: Program, weight: f64) -> Result<(), Error> {
        // partial_cmp: NaN is incomparable (None), so it is rejected too.
        if !matches!(weight.partial_cmp(&0.0), Some(std::cmp::Ordering::Greater)) {
            return Err(Error::NonPositiveWeight { name: program.name().to_string(), weight });
        }
        self.entries.push((program, weight));
        Ok(())
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The programs and weights.
    pub fn entries(&self) -> impl Iterator<Item = (&Program, f64)> {
        self.entries.iter().map(|(p, w)| (p, *w))
    }

    /// Builds the suite of clones: every member profiled and synthesized
    /// with `cloner`'s params, weights preserved. Members fan over the
    /// ambient pool; each clone depends only on its member and the params,
    /// so the cloned suite is identical at any width. Each clone must pass
    /// `gate` before it is admitted to the cloned suite.
    ///
    /// # Errors
    ///
    /// Everything [`Cloner::clone_program`] returns, plus
    /// [`Error::Validate`] when a member's clone fails the gate (the
    /// wrapped report names every violated attribute). When several
    /// members fail, the error is the first in member order, at any width.
    pub fn clone_suite(&self, cloner: &Cloner, gate: &Gate) -> Result<Suite, Error> {
        let cloned: Vec<Result<Program, Error>> = self
            .entries
            .par_iter()
            .map(|(program, _)| Ok(cloner.clone_validated(program, u64::MAX, gate)?.0.clone))
            .collect();
        let mut out = Suite::new(format!("{}-clone", self.name));
        for (clone, (_, weight)) in cloned.into_iter().zip(&self.entries) {
            out.push(clone?, *weight)?;
        }
        Ok(out)
    }
}

/// A suite mark: weighted geometric mean of per-program IPC (the EEMBC
/// aggregation), plus the weighted arithmetic mean power.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuiteMark {
    /// Weighted geometric-mean IPC.
    pub ipc_mark: f64,
    /// Weighted arithmetic-mean power.
    pub power_mark: f64,
}

/// Computes the suite mark of `suite` on `config`. Per-member timing
/// runs fan over the ambient pool; the weighted reduction runs in member
/// order, so the mark is bit-identical at any width.
///
/// # Errors
///
/// Returns [`Error::EmptySuite`] for an empty suite and [`Error::Sim`] if
/// a member faults during its timing run; when several members fault, the
/// error is the first in member order, at any width.
pub fn suite_mark(suite: &Suite, config: &MachineConfig, limit: u64) -> Result<SuiteMark, Error> {
    if suite.is_empty() {
        return Err(Error::EmptySuite { name: suite.name().to_string() });
    }
    let timed: Vec<Result<(f64, f64), Error>> = suite
        .entries
        .par_iter()
        .map(|(program, weight)| {
            let t = run_timing(program, config, limit)?;
            Ok((weight * t.report.ipc().ln(), weight * t.power.average_power))
        })
        .collect();
    let mut log_sum = 0.0;
    let mut power_sum = 0.0;
    let mut weight_sum = 0.0;
    for (cell, (_, weight)) in timed.into_iter().zip(&suite.entries) {
        let (log_w, power_w) = cell?;
        log_sum += log_w;
        power_sum += power_w;
        weight_sum += weight;
    }
    Ok(SuiteMark { ipc_mark: (log_sum / weight_sum).exp(), power_mark: power_sum / weight_sum })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{base_config, SynthesisParams};
    use perfclone_kernels::{by_name, Scale};

    fn program(name: &str) -> Program {
        by_name(name).expect("kernel exists").build(Scale::Tiny).program
    }

    #[test]
    fn suite_mark_is_between_member_ipcs() {
        let mut s = Suite::new("auto");
        s.push(program("bitcount"), 1.0).unwrap();
        s.push(program("qsort"), 1.0).unwrap();
        let mark = suite_mark(&s, &base_config(), u64::MAX).unwrap();
        assert!(mark.ipc_mark > 0.3 && mark.ipc_mark <= 1.0);
        assert!(mark.power_mark > 0.0);
    }

    #[test]
    fn cloned_suite_mark_tracks_real_mark() {
        let mut s = Suite::new("telecom");
        s.push(program("crc32"), 2.0).unwrap();
        s.push(program("adpcm_enc"), 1.0).unwrap();
        let cloner = Cloner::with_params(SynthesisParams {
            target_dynamic: 60_000,
            ..SynthesisParams::default()
        });
        let clones = s.clone_suite(&cloner, &Gate::default()).unwrap();
        assert_eq!(clones.len(), s.len());
        assert_eq!(clones.name(), "telecom-clone");
        let real = suite_mark(&s, &base_config(), u64::MAX).unwrap();
        let synth = suite_mark(&clones, &base_config(), u64::MAX).unwrap();
        let err = ((synth.ipc_mark - real.ipc_mark) / real.ipc_mark).abs();
        assert!(err < 0.3, "suite mark error {err:.3}");
    }

    #[test]
    fn zero_weight_rejected() {
        let mut s = Suite::new("bad");
        let err = s.push(program("crc32"), 0.0).unwrap_err();
        assert!(
            matches!(err, Error::NonPositiveWeight { ref name, weight } if name == "crc32" && weight == 0.0)
        );
        assert!(s.is_empty(), "rejected member must not be added");
        assert!(s.push(program("crc32"), -1.0).is_err());
        assert!(s.push(program("crc32"), f64::NAN).is_err());
    }

    #[test]
    fn empty_suite_rejected() {
        let s = Suite::new("none");
        let err = suite_mark(&s, &base_config(), 1000).unwrap_err();
        assert!(matches!(err, Error::EmptySuite { ref name } if name == "none"));
    }
}
