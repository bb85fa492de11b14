//! Experiment drivers for the paper's evaluation (§5): the 28-configuration
//! cache sweep (Figures 4 and 5), base-configuration comparison (Figures 6
//! and 7), and the five design changes (Table 3, Figures 8 and 9).
//!
//! Each sweep fans its cells over the ambient rayon pool, whose width
//! the caller sets (`--jobs` on the CLI); width 1 is the serial run. Each
//! cell builds its own pipeline, caches, and predictor state, and results
//! are collected in input order, so every width returns bit-identical
//! values.

use perfclone_isa::{InstrMetaTable, Program};
use perfclone_metrics::{pearson, rank, relative_error};
use perfclone_sim::TraceStore;
use perfclone_uarch::{design_changes, sweep_trace, AddressTrace, CacheConfig, MachineConfig};
use rayon::prelude::*;

use crate::cache::{capture_packed, trace_cap};
use crate::{time_capture, Error, TimingResult};

/// One program's sweep-local replay material: its capture — possibly
/// spilled to disk, or a failed spill that makes every cell re-interpret —
/// and its interned metadata table, both built once per sweep.
struct Captured<'a> {
    program: &'a Program,
    capture: Result<TraceStore, Error>,
    meta: InstrMetaTable,
}

impl<'a> Captured<'a> {
    fn new(program: &'a Program, limit: u64) -> Captured<'a> {
        let capture = capture_packed(program, limit, trace_cap());
        Captured { program, capture, meta: InstrMetaTable::new(program) }
    }

    /// One timing cell; replay and live fallback are bit-identical.
    fn time(&self, config: &MachineConfig, limit: u64) -> Result<TimingResult, Error> {
        time_capture(self.program, self.capture.as_ref(), &self.meta, config, limit, None)
    }
}

/// Result of sweeping real program and clone over the same cache
/// configurations.
#[derive(Clone, Debug)]
pub struct CacheSweepComparison {
    /// The configurations swept.
    pub configs: Vec<CacheConfig>,
    /// Real program misses-per-instruction, per configuration.
    pub real_mpi: Vec<f64>,
    /// Clone misses-per-instruction, per configuration.
    pub synth_mpi: Vec<f64>,
}

impl CacheSweepComparison {
    /// Pearson correlation between real and clone MPI over the
    /// configurations other than the first (the paper correlates the 27
    /// points relative to the 256 B direct-mapped baseline; Pearson is
    /// invariant to the affine normalization, so raw MPIs are used).
    pub fn correlation(&self) -> f64 {
        pearson(&self.real_mpi[1..], &self.synth_mpi[1..])
    }

    /// Cache-configuration rankings by MPI (rank 1 = fewest misses) for
    /// real and clone — the Figure-5 scatter data.
    pub fn rankings(&self) -> (Vec<f64>, Vec<f64>) {
        (rank(&self.real_mpi), rank(&self.synth_mpi))
    }
}

fn sweep_mpi(trace: &AddressTrace, configs: &[CacheConfig]) -> Vec<f64> {
    sweep_trace(trace, configs).iter().map(|pt| pt.mpi()).collect()
}

/// Sweeps a (real, clone) pair over `configs` (Figure 4 / 5 experiment).
///
/// Each program's data-reference trace is extracted once and evaluated
/// for all configurations by the single-pass stack-distance engine
/// ([`sweep_trace`]) — two functional simulations total instead of
/// 2 × `configs.len()`. The two extractions (the dominant cost) fan over
/// the ambient pool; miss counts are exact integers, so the result is
/// bit-identical at any width.
pub fn cache_sweep_pair(
    real: &Program,
    clone: &Program,
    configs: &[CacheConfig],
    limit: u64,
) -> CacheSweepComparison {
    let programs = [real, clone];
    let mut mpi: Vec<Vec<f64>> =
        programs.par_iter().map(|p| sweep_mpi(&AddressTrace::extract(p, limit), configs)).collect();
    // Two inputs in, two sweeps out; the defaults are unreachable.
    let synth_mpi = mpi.pop().unwrap_or_default();
    let real_mpi = mpi.pop().unwrap_or_default();
    CacheSweepComparison { configs: configs.to_vec(), real_mpi, synth_mpi }
}

/// Results of one design-change experiment for one benchmark pair.
#[derive(Clone, Debug)]
pub struct DesignChangeResult {
    /// The changed configuration.
    pub config: MachineConfig,
    /// Real program on the changed configuration.
    pub real: TimingResult,
    /// Clone on the changed configuration.
    pub synth: TimingResult,
}

/// A benchmark pair evaluated on the base configuration and all five
/// design changes — the Table-3 experiment.
#[derive(Clone, Debug)]
pub struct DesignChangeSweep {
    /// Base-configuration results (real, clone).
    pub base_real: TimingResult,
    /// Base-configuration clone result.
    pub base_synth: TimingResult,
    /// Per-design-change results, in Table-3 order.
    pub changes: Vec<DesignChangeResult>,
}

impl DesignChangeSweep {
    /// The paper's §5.2 relative IPC error for design change `i`.
    pub fn ipc_relative_error(&self, i: usize) -> f64 {
        relative_error(
            self.changes[i].synth.report.ipc(),
            self.base_synth.report.ipc(),
            self.changes[i].real.report.ipc(),
            self.base_real.report.ipc(),
        )
    }

    /// The paper's §5.2 relative power error for design change `i`.
    pub fn power_relative_error(&self, i: usize) -> f64 {
        relative_error(
            self.changes[i].synth.power.average_power,
            self.base_synth.power.average_power,
            self.changes[i].real.power.average_power,
            self.base_real.power.average_power,
        )
    }
}

/// Runs the full Table-3 sweep for one (real, clone) pair: base plus the
/// five design changes.
///
/// Each program's dynamic trace is captured once ([`TraceStore`]) and
/// replayed through every configuration — two functional executions total
/// instead of 2 × (1 + 5) — spilling to disk when a capture exceeds
/// `PERFCLONE_TRACE_CAP`, and falling back to per-cell interpretation only
/// when that spill fails. The two captures and then the 2 × (1 + 5)
/// (program × configuration) timing cells fan over the ambient pool.
/// Every cell constructs its own [`Pipeline`](crate::Pipeline) — caches,
/// predictor, window state and all — and replays its program's shared
/// immutable [`TraceStore`], so every path and every width yields
/// bit-identical results.
///
/// # Errors
///
/// Returns [`Error::Sim`] if either program faults on any configuration;
/// when several cells fault, the reported error is the first in cell
/// order (base before the design changes, real before clone), at any
/// width.
pub fn design_change_sweep(
    real: &Program,
    clone: &Program,
    base: &MachineConfig,
    limit: u64,
) -> Result<DesignChangeSweep, Error> {
    let mut configs = vec![*base];
    configs.extend(design_changes());
    let programs = [real, clone];
    // Two captures fan over the pool first, then every (program × config)
    // cell replays its program's shared capture — the workers share the
    // immutable captures and metadata tables by reference, nothing else.
    let captured: Vec<Captured<'_>> =
        programs.par_iter().map(|p| Captured::new(p, limit)).collect();
    let cells: Vec<(&MachineConfig, &Captured<'_>)> =
        configs.iter().flat_map(|config| captured.iter().map(move |c| (config, c))).collect();
    let results: Vec<Result<TimingResult, Error>> =
        cells.par_iter().map(|&(config, c)| c.time(config, limit)).collect();
    // Collect preserves cell order, so the first error is the first
    // failing cell's, and consecutive results pair up into one row per
    // config.
    let mut results = results.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter();
    let pairs = std::iter::from_fn(|| Some((results.next()?, results.next()?)));
    let mut changes: Vec<DesignChangeResult> = configs
        .iter()
        .zip(pairs)
        .map(|(&config, (real, synth))| DesignChangeResult { config, real, synth })
        .collect();
    // configs[0] is the base, so the first row always exists.
    let base_row = changes.remove(0);
    Ok(DesignChangeSweep { base_real: base_row.real, base_synth: base_row.synth, changes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cloner, SynthesisParams};
    use perfclone_kernels::{by_name, Scale};
    use perfclone_uarch::{base_config, cache_sweep};

    fn small_pair() -> (Program, Program) {
        let app = by_name("susan").unwrap().build(Scale::Tiny).program;
        let params =
            SynthesisParams { target_blocks: 120, target_dynamic: 120_000, ..Default::default() };
        let clone = Cloner::with_params(params).clone_program(&app, u64::MAX).unwrap().clone;
        (app, clone)
    }

    #[test]
    fn cache_sweep_correlates() {
        let (app, clone) = small_pair();
        let sweep = cache_sweep_pair(&app, &clone, &cache_sweep(), u64::MAX);
        assert_eq!(sweep.real_mpi.len(), 28);
        let r = sweep.correlation();
        assert!(r > 0.5, "correlation {r}");
        let (rr, rs) = sweep.rankings();
        assert_eq!(rr.len(), 28);
        assert_eq!(rs.len(), 28);
    }

    /// Acceptance: the single-pass engine behind the sweep drivers must
    /// reproduce per-configuration `simulate_dcache` replay exactly, for
    /// every configuration of the Figure-4/5 sweep set.
    #[test]
    fn engine_sweep_matches_per_config_replay_on_fig04_set() {
        use perfclone_uarch::simulate_dcache;
        let (app, clone) = small_pair();
        let configs = cache_sweep();
        let sweep = cache_sweep_pair(&app, &clone, &configs, u64::MAX);
        for (i, config) in configs.iter().enumerate() {
            let real = simulate_dcache(&app, *config, u64::MAX);
            let synth = simulate_dcache(&clone, *config, u64::MAX);
            assert_eq!(sweep.real_mpi[i].to_bits(), real.mpi().to_bits(), "{config}");
            assert_eq!(sweep.synth_mpi[i].to_bits(), synth.mpi().to_bits(), "{config}");
        }
    }

    #[test]
    fn design_change_sweep_produces_all_points() {
        let (app, clone) = small_pair();
        let sweep = design_change_sweep(&app, &clone, &base_config(), 150_000).unwrap();
        assert_eq!(sweep.changes.len(), 5);
        for i in 0..5 {
            assert!(sweep.ipc_relative_error(i).is_finite());
            assert!(sweep.power_relative_error(i).is_finite());
            let change = &sweep.changes[i];
            assert!(change.real.report.ipc() > 0.0 && change.synth.report.ipc() > 0.0);
            assert!(
                change.real.power.average_power > 0.0 && change.synth.power.average_power > 0.0
            );
        }
    }
}
