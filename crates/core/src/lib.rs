//! # perfclone
//!
//! Performance cloning: profile a (proprietary) application's
//! microarchitecture-independent characteristics and synthesize a benchmark
//! clone with the same performance and power behaviour but entirely
//! different code — a full reproduction of Joshi, Eeckhout, Bell & John,
//! *Performance Cloning: A Technique for Disseminating Proprietary
//! Applications as Benchmarks* (IISWC 2006).
//!
//! This crate is the facade over the workspace: it wires the functional
//! simulator, the workload profiler, the clone synthesizer, the timing
//! pipeline, and the power model into the two flows the paper's Figure 1
//! shows — *clone generation* and *clone validation* — plus the experiment
//! drivers that regenerate every table and figure of the evaluation.
//!
//! ```text
//! proprietary workload ─▶ Profiler ─▶ WorkloadProfile ─▶ Synthesizer ─▶ clone
//!                                                                        │
//!        real hardware / execution-driven simulator  ◀──────────────────┘
//! ```
//!
//! # Quick start
//!
//! ```
//! use perfclone::{Cloner, validate_pair, base_config};
//! use perfclone_kernels::{by_name, Scale};
//!
//! // The "proprietary" application: one of the embedded kernels.
//! let app = by_name("crc32").unwrap().build(Scale::Tiny).program;
//!
//! // Clone it: profile + synthesize. Only microarchitecture-independent
//! // attributes flow into the clone.
//! let cloner = Cloner::new();
//! let outcome = cloner.clone_program(&app, 1_000_000)?;
//!
//! // Validate: run both through the same machine; IPCs should be close.
//! let cmp = validate_pair(&app, &outcome.clone, &base_config(), 1_000_000)?;
//! assert!(cmp.ipc_error() < 0.5);
//! # Ok::<(), perfclone::Error>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
mod error;
pub mod experiments;
pub mod grid;
pub mod journal;
pub mod suite;

pub use cache::{trace_cap, WorkloadCache, WorkloadCacheStats, DEFAULT_TRACE_CAP};
pub use error::{Error, ErrorClass};
pub use grid::{
    env_fault_injector, pareto_frontier, parse_fault_injector, run_grid, run_grid_with, CellId,
    CellRow, FaultInjector, GridOutcome, GridPolicy, GridSpec, ParetoPoint, ShardEvent,
};
pub use journal::{Journal, JournalError, JournalLoad, QuarantineRecord};
pub use perfclone_sim::faultfs;
pub use perfclone_validate::seeds;
pub use seeds::derive_cell_seed;

pub use perfclone_metrics::{mean_abs_pct_error, pearson, rank, relative_error, spearman, Table};
pub use perfclone_power::{estimate_power, PowerReport};
pub use perfclone_profile::{profile_program, ProfileError, WorkloadProfile};
pub use perfclone_sim::{
    reap_stray_spills, PackedReplay, SimError, TraceError as SpillTraceError, TraceStore,
};
pub use perfclone_synth::{
    emit_c, synthesize, BranchModel, MemoryModel, SynthError, SynthesisParams,
};
pub use perfclone_uarch::{
    base_config, cache_sweep, design_changes, sweep_trace, AddressTrace, CacheConfig, GridAxes,
    MachineConfig, Pipeline, PipelineReport,
};
pub use perfclone_validate::{
    Attribute, AttributeCheck, Fault, FaultPlan, Gate, Tolerance, Tolerances, ValidateError,
    ValidationReport, Verdict,
};

pub use perfclone_isa::{InstrMeta, InstrMetaTable};

use perfclone_isa::Program;
use perfclone_sim::Simulator;

/// The performance-cloning pipeline: profiling plus synthesis under one
/// set of [`SynthesisParams`].
///
/// See the [crate-level example](crate) for the end-to-end flow.
#[derive(Clone, Debug, Default)]
pub struct Cloner {
    params: SynthesisParams,
}

/// The output of [`Cloner::clone_program`]: the disseminable profile and
/// the synthesized clone built from it.
#[derive(Clone, Debug)]
pub struct CloneOutcome {
    /// The microarchitecture-independent workload profile (the only data
    /// that leaves the vendor).
    pub profile: WorkloadProfile,
    /// The synthetic benchmark clone.
    pub clone: Program,
}

impl Cloner {
    /// Creates a cloner with default synthesis parameters.
    pub fn new() -> Cloner {
        Cloner::default()
    }

    /// Creates a cloner with explicit synthesis parameters.
    pub fn with_params(params: SynthesisParams) -> Cloner {
        Cloner { params }
    }

    /// The active synthesis parameters.
    pub fn params(&self) -> &SynthesisParams {
        &self.params
    }

    /// Profiles `program` for up to `limit` instructions and synthesizes
    /// its clone — the full Figure-1 flow.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Profile`] / [`Error::Sim`] if profiling fails and
    /// [`Error::Synth`] if the profile cannot be synthesized from.
    pub fn clone_program(&self, program: &Program, limit: u64) -> Result<CloneOutcome, Error> {
        let profile = profile_program(program, limit)?;
        let clone = synthesize(&profile, &self.params)?;
        Ok(CloneOutcome { profile, clone })
    }

    /// Synthesizes a clone from an already-collected profile — the step a
    /// third party performs after receiving the disseminated profile.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Synth`] when the profile fails structural
    /// validation (a corrupted or truncated dissemination artifact).
    pub fn clone_program_from(&self, profile: &WorkloadProfile) -> Result<Program, Error> {
        Ok(synthesize(profile, &self.params)?)
    }

    /// [`clone_program`](Cloner::clone_program) followed by the fidelity
    /// gate: the clone is measured and compared against the source
    /// profile attribute by attribute, and only a clone whose report has
    /// no failing attribute is returned.
    ///
    /// # Errors
    ///
    /// Everything [`clone_program`](Cloner::clone_program) returns, plus
    /// [`Error::Validate`] with
    /// [`ValidateError::GateFailed`] (carrying the report that names every
    /// violated attribute) when the clone drifts past `gate`'s failure
    /// tolerances.
    pub fn clone_validated(
        &self,
        program: &Program,
        limit: u64,
        gate: &Gate,
    ) -> Result<(CloneOutcome, ValidationReport), Error> {
        let outcome = self.clone_program(program, limit)?;
        let report = gate.accept(&outcome.profile, &outcome.clone)?;
        Ok((outcome, report))
    }
}

/// IPC and power of one program on one machine configuration.
#[derive(Clone, Debug)]
pub struct TimingResult {
    /// The pipeline report (cycles, IPC, cache and predictor statistics).
    pub report: PipelineReport,
    /// The Wattch-style power estimate.
    pub power: PowerReport,
}

/// Runs `program` (up to `limit` instructions) through the timing pipeline
/// under `config` and estimates power, interpreting it live.
///
/// # Errors
///
/// Returns [`Error::Sim`] if the program faults while the pipeline is
/// consuming its dynamic trace (the fault is captured mid-stream by
/// [`Simulator::trace`] and surfaced here instead of silently truncating
/// the run).
pub fn run_timing(
    program: &Program,
    config: &MachineConfig,
    limit: u64,
) -> Result<TimingResult, Error> {
    let _span = perfclone_obs::span!("uarch.pipeline.run");
    let mut trace = Simulator::trace(program, limit);
    let report = Pipeline::new(*config).run(&mut trace);
    timing_result(config, report, trace.fault())
}

/// Runs a captured [`TraceStore`] — in memory, or spilled to disk and
/// mmapped back — through the timing pipeline under `config`: the replay
/// half of record-once/replay-many. The batched decoder resolves per-pc
/// static questions from `meta`, which a sweep builds once per program
/// (e.g. via [`WorkloadCache::instr_meta`]) and shares across every
/// configuration. The result is bit-identical to [`run_timing`] at the
/// capture limit, for both storage classes.
///
/// # Errors
///
/// Returns [`Error::Sim`] carrying the fault recorded at capture time, if
/// any — a fault replays as the same typed error the interpreter path
/// surfaces.
///
/// # Panics
///
/// Panics if `program` is not the program the trace was captured from, or
/// `meta` was built from a different program (see
/// [`TraceStore::replay_batched`]).
pub fn run_timing_store(
    program: &Program,
    store: &TraceStore,
    meta: &InstrMetaTable,
    config: &MachineConfig,
) -> Result<TimingResult, Error> {
    let _span = perfclone_obs::span!("uarch.pipeline.run");
    let report = Pipeline::new(*config).run_batched(store.replay_batched(program, meta));
    let timing = timing_result(config, report, store.fault())?;
    perfclone_obs::count!("trace.replays", 1);
    perfclone_obs::count!("replay.batch.runs", 1);
    Ok(timing)
}

/// The tail every timing run shares: a fault that cut the stream short
/// wins over the report; otherwise the run is counted and its power
/// estimated.
fn timing_result(
    config: &MachineConfig,
    report: PipelineReport,
    fault: Option<&SimError>,
) -> Result<TimingResult, Error> {
    if let Some(f) = fault {
        return Err(Error::Sim(f.clone()));
    }
    perfclone_obs::count!("uarch.pipeline.runs", 1);
    perfclone_obs::count!("uarch.pipeline.instrs", report.instrs);
    let power = estimate_power(config, &report);
    Ok(TimingResult { report, power })
}

/// Times one cell over a workload's capture: replays the captured trace,
/// or — when spilling the capture failed ([`Error::Spill`]) — interprets
/// `program` live up to `limit`. Both paths return bit-identical results.
/// This is the only place a failed capture turns into live
/// interpretation; the failure itself was already logged and counted
/// (`trace.fallbacks`) where the capture was attempted.
pub(crate) fn time_capture(
    program: &Program,
    capture: Result<&TraceStore, &Error>,
    meta: &InstrMetaTable,
    config: &MachineConfig,
    limit: u64,
) -> Result<TimingResult, Error> {
    match capture {
        Ok(store) => run_timing_store(program, store, meta, config),
        Err(Error::Spill(_)) => run_timing(program, config, limit),
        Err(e) => Err(e.clone()),
    }
}

/// [`run_timing`] through the shared [`WorkloadCache`]: the workload's
/// dynamic trace is captured once per `(workload, limit)` and replayed for
/// this and every subsequent configuration, so an N-configuration sweep
/// pays one functional execution instead of N. A capture that outgrows
/// `PERFCLONE_TRACE_CAP` (see [`trace_cap`]) spills to disk and replays
/// via mmap; only when the spill itself fails does this fall back to the
/// direct interpreter path — logged and counted, never silently truncated
/// — and either way it returns the identical result.
///
/// # Errors
///
/// Same as [`run_timing`]: the interpreter path's errors, or the capture
/// fault replayed as [`Error::Sim`].
pub fn run_timing_trace(
    workload: &str,
    program: &Program,
    config: &MachineConfig,
    limit: u64,
    cache: &WorkloadCache,
) -> Result<TimingResult, Error> {
    let capture = cache.packed_trace(workload, program, limit);
    let meta = cache.instr_meta(workload, program);
    time_capture(program, capture.as_deref(), &meta, config, limit)
}

/// Side-by-side comparison of a real program and its clone on one machine.
#[derive(Clone, Debug)]
pub struct PairComparison {
    /// The real benchmark's result.
    pub real: TimingResult,
    /// The clone's result.
    pub synth: TimingResult,
}

/// Relative absolute error `|s − r| / r`, guarded: `None` when the real
/// baseline `r` is zero or either value is non-finite — the degenerate
/// cases where the ratio would be `NaN`/`inf` and silently poison a sweep
/// summary.
fn guarded_rel_error(r: f64, s: f64) -> Option<f64> {
    if r == 0.0 || !r.is_finite() || !s.is_finite() {
        return None;
    }
    Some(((s - r) / r).abs())
}

impl PairComparison {
    /// `|IPC_synth − IPC_real| / IPC_real` — Figure 6's metric.
    ///
    /// Returns the documented sentinel [`f64::INFINITY`] when the real
    /// baseline is zero or non-finite (e.g. a zero-instruction run), so a
    /// degenerate baseline fails loudly against any tolerance instead of
    /// propagating `NaN` (which passes *no* comparison and vanishes from
    /// summaries). Use [`ipc_error_checked`](PairComparison::ipc_error_checked)
    /// to branch on the degenerate case instead.
    pub fn ipc_error(&self) -> f64 {
        self.ipc_error_checked().unwrap_or(f64::INFINITY)
    }

    /// [`ipc_error`](PairComparison::ipc_error) as a typed outcome: `None`
    /// when the real baseline is zero/non-finite instead of the sentinel.
    pub fn ipc_error_checked(&self) -> Option<f64> {
        guarded_rel_error(self.real.report.ipc(), self.synth.report.ipc())
    }

    /// `|P_synth − P_real| / P_real` — Figure 7's metric.
    ///
    /// Guarded like [`ipc_error`](PairComparison::ipc_error): a zero or
    /// non-finite real power baseline yields [`f64::INFINITY`], never
    /// `NaN`.
    pub fn power_error(&self) -> f64 {
        self.power_error_checked().unwrap_or(f64::INFINITY)
    }

    /// [`power_error`](PairComparison::power_error) as a typed outcome:
    /// `None` when the real baseline is zero/non-finite.
    pub fn power_error_checked(&self) -> Option<f64> {
        guarded_rel_error(self.real.power.average_power, self.synth.power.average_power)
    }
}

/// Runs the real program and its clone through the same machine and
/// returns the side-by-side result (the validation half of Figure 1).
///
/// # Errors
///
/// Returns [`Error::Sim`] if either program faults during its timing run.
pub fn validate_pair(
    real: &Program,
    clone: &Program,
    config: &MachineConfig,
    limit: u64,
) -> Result<PairComparison, Error> {
    Ok(PairComparison {
        real: run_timing(real, config, limit)?,
        synth: run_timing(clone, config, limit)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfclone_kernels::{by_name, Scale};

    #[test]
    fn cloner_produces_runnable_clone() {
        let app = by_name("crc32").unwrap().build(Scale::Tiny).program;
        let outcome = Cloner::new().clone_program(&app, 200_000).unwrap();
        let mut sim = Simulator::new(&outcome.clone);
        assert!(sim.run(20_000_000).unwrap().halted);
        assert!(outcome.profile.total_instrs > 0);
    }

    #[test]
    fn validate_pair_reports_errors() {
        let params =
            SynthesisParams { target_blocks: 100, target_dynamic: 150_000, ..Default::default() };
        let app = by_name("crc32").unwrap().build(Scale::Tiny).program;
        let outcome = Cloner::with_params(params).clone_program(&app, u64::MAX).unwrap();
        let cmp = validate_pair(&app, &outcome.clone, &base_config(), u64::MAX).unwrap();
        assert!(cmp.real.report.ipc() > 0.0);
        assert!(cmp.synth.report.ipc() > 0.0);
        // Tight loops clone very well; allow generous slack in the unit
        // test (the benches measure the real numbers).
        assert!(cmp.ipc_error() < 0.5, "ipc error {}", cmp.ipc_error());
        assert!(cmp.power_error() < 0.5, "power error {}", cmp.power_error());
    }
}
