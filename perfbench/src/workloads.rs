//! The four workloads: set-up, one untraced round through the program's
//! facade functions, the output checks, and the fidelity numbers. The same
//! rounds decomposed into layer calls live in `layers.rs`.
//!
//! Every op's inputs derive from the run seed (clone seeds are
//! `derive_cell_seed(seed, kernel, round)`, the derivation the figure
//! benches use), and every round repeats the same ops, so all rounds of a
//! run must produce the same digest.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use perfclone::experiments::{
    cache_sweep_pair, design_change_sweep, CacheSweepComparison, DesignChangeSweep,
};
use perfclone::{
    base_config, cache_sweep, derive_cell_seed, design_changes, profile_program, run_grid,
    run_timing, CacheConfig, CellRow, Cloner, Error, Gate, GridAxes, GridSpec, MachineConfig,
    SynthesisParams, TimingResult, TraceStore, ValidateError, ValidationReport, WorkloadCache,
};
use perfclone_isa::Program;
use perfclone_kernels::{by_name, catalog, Scale};
use perfclone_uarch::simulate_dcache;

use crate::calib::{reference, Sample};
use crate::stats::Digest;
use crate::trace::Tracer;

/// One timed round: each op's time, how many failed, and the digest of
/// everything the round simulated.
#[derive(Default)]
pub struct Round {
    pub ops: Vec<Sample>,
    pub failed: u64,
    pub digest: u64,
}

impl Round {
    /// Runs and times `op`, then times the reference.
    pub fn timed<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let (out, sample) = Sample::time(op);
        self.ops.push(sample);
        out
    }
}

pub trait Workload: Sized {
    /// Builds the round's inputs. `tr` records layer spans only in the
    /// traced run.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String>;
    /// Digest of the inputs, so repeated set-ups can be checked equal.
    fn setup_digest(&self) -> u64;
    /// One untraced round, calling only the program's facade functions.
    /// `run` is the run's scratch directory.
    fn round(&mut self, run: &Path) -> Result<Round, String>;
    /// Re-derives outputs of the last round by other routes and compares.
    fn check(&self, seed: u64) -> Result<(), String>;
    /// Clone-fidelity numbers of the last round, as `(metric, value)`.
    fn fidelity(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Retries the program counted itself during the untraced rounds.
    fn retries(&self) -> u64 {
        0
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs.into_iter().fold((0.0, 0u32), |(s, n), x| (s + x, n + 1));
    sum / f64::from(n)
}

fn build(name: &str, tr: &mut Tracer) -> Result<Program, String> {
    let kernel = by_name(name).ok_or_else(|| format!("no kernel named {name}"))?;
    Ok(tr.span("kernels.build", |_| kernel.build(Scale::Small).program))
}

/// The figure benches' synthesis parameters: clone length matched to the
/// profile, clamped to 100K–2.5M instructions.
pub fn clone_params(seed: u64, kernel: &str, round: u64, profile_len: u64) -> SynthesisParams {
    SynthesisParams {
        seed: derive_cell_seed(seed, kernel, round),
        target_dynamic: profile_len.clamp(100_000, 2_500_000),
        ..SynthesisParams::default()
    }
}

fn hash_program(d: &mut Digest, p: &Program) {
    d.debug(&p.name());
    d.debug(&p.instrs());
    d.debug(&p.streams());
    d.u64(p.data().len() as u64);
}

pub fn hash_timing(d: &mut Digest, t: &TimingResult) {
    d.debug(&t.report);
    d.debug(&t.power);
}

/// A real kernel and the clone synthesized from its profile.
pub struct Pair {
    pub name: &'static str,
    pub real: Program,
    pub clone: Program,
}

fn prepare_pairs(
    names: &[&'static str],
    window: u64,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Vec<Pair>, String> {
    let mut pairs = Vec::with_capacity(names.len());
    for &name in names {
        let real = build(name, tr)?;
        let profile = tr.span("profile", |_| profile_program(&real, window)).map_err(err)?;
        tr.add("profile.instrs", profile.total_instrs as f64);
        let params = clone_params(seed, name, 0, profile.total_instrs);
        let clone = tr
            .span("synth", |_| Cloner::with_params(params).clone_program_from(&profile))
            .map_err(err)?;
        tr.add("synth.static_instrs", clone.len() as f64);
        pairs.push(Pair { name, real, clone });
    }
    Ok(pairs)
}

fn hash_pairs(pairs: &[Pair]) -> u64 {
    let mut d = Digest::default();
    for p in pairs {
        hash_program(&mut d, &p.real);
        hash_program(&mut d, &p.clone);
    }
    d.value()
}

/// Picks `(pair, config, side)` for the `i`-th seeded check cell.
fn pick(seed: u64, what: &str, i: u64, pairs: usize, configs: usize) -> (usize, usize, usize) {
    let h = derive_cell_seed(seed, what, i) as usize;
    (h % pairs, (h / pairs) % configs, (h / pairs / configs) % 2)
}

// ---------------------------------------------------------------- clone_suite

/// Profile window of the vendor flow: long enough for every kernel's
/// steady state, short enough for 46 ops a second.
pub const CLONE_WINDOW: u64 = 200_000;
/// Clone seeds per kernel per round.
pub const CLONE_SEEDS: u64 = 2;

pub struct CloneSuite {
    pub seed: u64,
    pub kernels: Vec<(&'static str, Program)>,
    pub gate: Gate,
    /// Pass, warn and fail verdicts plus ops that errored, last round.
    pub tally: [u64; 4],
}

/// What one gated clone produced: profile length, clone size and the
/// gate's answer.
pub type Gated = Result<(u64, usize, Result<ValidationReport, ValidateError>), Error>;

/// Folds one op into the round's verdict tally and digest.
pub fn tally_gate(tally: &mut [u64; 4], d: &mut Digest, out: &Gated) {
    let mut errored = |e: &dyn std::fmt::Display| {
        tally[3] += 1;
        d.debug(&e.to_string());
    };
    let (instrs, len, gated) = match out {
        Ok(v) => v,
        Err(e) => return errored(e),
    };
    let report = match gated {
        Ok(report) => report,
        Err(ValidateError::GateFailed(report)) => report.as_ref(),
        Err(e) => return errored(e),
    };
    let verdict = report.verdict();
    tally[verdict as usize] += 1;
    d.u64(*instrs);
    d.u64(*len as u64);
    d.debug(&verdict);
    d.u64(report.clone_instrs);
    for a in &report.attributes {
        d.f64(a.delta);
    }
}

impl Workload for CloneSuite {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<CloneSuite, String> {
        let mut kernels = Vec::new();
        for k in catalog() {
            kernels.push((k.name(), build(k.name(), tr)?));
        }
        Ok(CloneSuite { seed, kernels, gate: Gate::default(), tally: [0; 4] })
    }

    fn setup_digest(&self) -> u64 {
        let mut d = Digest::default();
        for (_, p) in &self.kernels {
            hash_program(&mut d, p);
        }
        d.value()
    }

    fn round(&mut self, _run: &Path) -> Result<Round, String> {
        let mut round = Round::default();
        let mut d = Digest::default();
        let mut tally = [0; 4];
        for (name, program) in &self.kernels {
            for s in 0..CLONE_SEEDS {
                let out: Gated = round.timed(|| {
                    let profile = profile_program(program, CLONE_WINDOW)?;
                    let params = clone_params(self.seed, name, s, profile.total_instrs);
                    let clone = Cloner::with_params(params).clone_program_from(&profile)?;
                    Ok((profile.total_instrs, clone.len(), self.gate.accept(&profile, &clone)))
                });
                tally_gate(&mut tally, &mut d, &out);
            }
        }
        round.failed = tally[2] + tally[3];
        round.digest = d.value();
        self.tally = tally;
        Ok(round)
    }

    fn check(&self, _seed: u64) -> Result<(), String> {
        let ops = self.kernels.len() as u64 * CLONE_SEEDS;
        let [pass, warn, fail, errors] = self.tally;
        if pass + warn + fail + errors != ops {
            return Err(format!(
                "clone_suite: {pass}+{warn}+{fail} verdicts and {errors} errors for {ops} ops"
            ));
        }
        Ok(())
    }

    fn fidelity(&self) -> Vec<(&'static str, f64)> {
        let ops = self.kernels.len() as u64 * CLONE_SEEDS;
        vec![("gate_pass_frac", self.tally[0] as f64 / ops as f64)]
    }
}

// --------------------------------------------------------------- design_sweep

/// Instruction window of each design-sweep trace: five times the grid's
/// 20K, so the per-instruction cost of the pipeline dominates.
pub const DESIGN_WINDOW: u64 = 100_000;
pub const DESIGN_KERNELS: &[&str] = &[
    "basicmath",
    "qsort",
    "susan",
    "dijkstra",
    "patricia",
    "rijndael",
    "sha",
    "crc32",
    "gsm",
    "ispell",
    "jpeg_enc",
    "mpeg2_dec",
];

pub struct DesignSweep {
    pub pairs: Vec<Pair>,
    /// The last untraced round's sweeps, one per pair (`None` if it failed).
    pub last: Vec<Option<DesignChangeSweep>>,
}

/// Base plus the five Table-3 changes, in the order the sweep runs them.
pub fn design_configs() -> Vec<MachineConfig> {
    std::iter::once(base_config()).chain(design_changes()).collect()
}

/// A sweep's cells in run order: `[base real, base clone, change 1 real, ...]`.
fn sweep_cells(s: &DesignChangeSweep) -> Vec<&TimingResult> {
    let mut cells = vec![&s.base_real, &s.base_synth];
    for c in &s.changes {
        cells.extend([&c.real, &c.synth]);
    }
    cells
}

impl Workload for DesignSweep {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<DesignSweep, String> {
        let pairs = prepare_pairs(DESIGN_KERNELS, DESIGN_WINDOW, seed, tr)?;
        Ok(DesignSweep { pairs, last: Vec::new() })
    }

    fn setup_digest(&self) -> u64 {
        hash_pairs(&self.pairs)
    }

    fn round(&mut self, _run: &Path) -> Result<Round, String> {
        let mut round = Round::default();
        let mut d = Digest::default();
        let base = base_config();
        self.last.clear();
        for p in &self.pairs {
            let sweep =
                round.timed(|| design_change_sweep(&p.real, &p.clone, &base, DESIGN_WINDOW));
            match sweep {
                Ok(s) => {
                    sweep_cells(&s).into_iter().for_each(|t| hash_timing(&mut d, t));
                    self.last.push(Some(s));
                }
                Err(e) => {
                    round.failed += 1;
                    d.debug(&e.to_string());
                    self.last.push(None);
                }
            }
        }
        round.digest = d.value();
        Ok(round)
    }

    fn check(&self, seed: u64) -> Result<(), String> {
        let configs = design_configs();
        for i in 0..2 {
            let (p, c, side) = pick(seed, "design_sweep.check", i, self.pairs.len(), configs.len());
            let pair = &self.pairs[p];
            let sweep = self.last[p].as_ref().ok_or("design_sweep: checked pair failed")?;
            let stored = sweep_cells(sweep)[2 * c + side];
            let program = if side == 0 { &pair.real } else { &pair.clone };
            let live = run_timing(program, &configs[c], DESIGN_WINDOW).map_err(err)?;
            if live.report != stored.report
                || format!("{:?}", live.power) != format!("{:?}", stored.power)
            {
                return Err(format!(
                    "design_sweep: replayed {} cell {c} side {side} differs from live interpretation",
                    pair.name
                ));
            }
        }
        Ok(())
    }

    /// Fig. 6 and Fig. 7 errors at the base configuration and the mean
    /// Table-3 relative IPC error, in percent.
    fn fidelity(&self) -> Vec<(&'static str, f64)> {
        let sweeps: Vec<&DesignChangeSweep> = self.last.iter().flatten().collect();
        let err = |r: f64, s: f64| ((s - r) / r).abs();
        let ipc = sweeps.iter().map(|s| err(s.base_real.report.ipc(), s.base_synth.report.ipc()));
        let power = sweeps
            .iter()
            .map(|s| err(s.base_real.power.average_power, s.base_synth.power.average_power));
        let design =
            sweeps.iter().flat_map(|s| (0..s.changes.len()).map(|i| s.ipc_relative_error(i)));
        vec![
            ("ipc_err_pct", 100.0 * mean(ipc)),
            ("power_err_pct", 100.0 * mean(power)),
            ("design_err_pct", 100.0 * mean(design)),
        ]
    }
}

// ----------------------------------------------------------------- grid_dense

pub const GRID_KERNEL: &str = "crc32";
/// Instructions per cell: short, so per-cell fixed costs show.
pub const GRID_LIMIT: u64 = 20_000;
pub const GRID_CELLS: u64 = 512;
pub const GRID_SHARD: u64 = 32;
/// `PERFCLONE_TRACE_CAP` for this workload: the clone's packed trace
/// outgrows it, spills to disk and replays via mmap.
pub const GRID_TRACE_CAP: &str = "4096";

pub struct GridDense {
    pub clone: Program,
    pub spec: GridSpec,
    pub cache: WorkloadCache,
    pub store: Arc<TraceStore>,
    rounds: u64,
    last_rows: Vec<CellRow>,
    last_journal: Option<PathBuf>,
    retries: u64,
}

pub fn hash_rows(d: &mut Digest, rows: &[CellRow]) {
    for r in rows {
        d.debug(&r.id);
        d.u64(r.cycles);
        d.u64(r.instrs);
        d.f64(r.ipc);
        d.f64(r.power);
        d.f64(r.l1d_mpi);
    }
}

fn rows_digest(rows: &[CellRow]) -> u64 {
    let mut d = Digest::default();
    hash_rows(&mut d, rows);
    d.value()
}

impl GridDense {
    /// A fresh journal directory under the run's scratch directory.
    pub fn journal_dir(&mut self, run: &Path, tag: &str) -> PathBuf {
        self.rounds += 1;
        run.join(format!("journal-{tag}{}", self.rounds))
    }
}

impl Workload for GridDense {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<GridDense, String> {
        let mut pairs = prepare_pairs(&[GRID_KERNEL], u64::MAX, seed, tr)?;
        let clone = pairs.pop().ok_or("grid_dense: no clone")?.clone;
        let spec = GridSpec {
            workload: format!("{GRID_KERNEL}.clone"),
            scale: "small".into(),
            limit: GRID_LIMIT,
            axes: GridAxes::dense(),
            max_cells: GRID_CELLS,
            shard_size: GRID_SHARD,
        };
        let cache = WorkloadCache::new();
        let store = tr
            .span("sim.capture", |_| cache.packed_trace(&spec.workload, &clone, GRID_LIMIT))
            .map_err(err)?;
        tr.add("sim.capture.instrs", store.len() as f64);
        tr.add("sim.capture.bytes", store.stored_bytes() as f64);
        if !store.is_spilled() {
            return Err("grid_dense: the trace did not spill; PERFCLONE_TRACE_CAP ignored".into());
        }
        tr.add("sim.spill.files", 1.0);
        tr.add("sim.spill.bytes", store.stored_bytes() as f64);
        Ok(GridDense {
            clone,
            spec,
            cache,
            store,
            rounds: 0,
            last_rows: Vec::new(),
            last_journal: None,
            retries: 0,
        })
    }

    fn setup_digest(&self) -> u64 {
        let mut d = Digest::default();
        hash_program(&mut d, &self.clone);
        d.u64(self.store.len());
        d.value()
    }

    fn round(&mut self, run: &Path) -> Result<Round, String> {
        let dir = self.journal_dir(run, "");
        // A shard's time runs from the end of the previous shard's callback
        // (or the sweep's start) to its own; the reference runs in between.
        let clock = Mutex::new((Instant::now(), Vec::new()));
        let outcome = run_grid(&self.clone, &self.spec, &dir, &self.cache, |_| {
            let mut guard = clock.lock().expect("shard clock lock is never poisoned");
            let (last, ops) = &mut *guard;
            ops.push(Sample { secs: last.elapsed().as_secs_f64(), reference: reference() });
            *last = Instant::now();
        })
        .map_err(err)?;
        if outcome.rows.len() as u64 != self.spec.cells() || !outcome.spilled_trace {
            return Err(format!(
                "grid_dense: {} rows of {} cells, spilled trace: {}",
                outcome.rows.len(),
                self.spec.cells(),
                outcome.spilled_trace
            ));
        }
        self.retries += outcome.retries;
        if let Some(old) = self.last_journal.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
        let digest = rows_digest(&outcome.rows);
        self.last_rows = outcome.rows;
        let (_, ops) = clock.into_inner().expect("shard clock lock is never poisoned");
        Ok(Round { ops, failed: 0, digest })
    }

    fn check(&self, seed: u64) -> Result<(), String> {
        // The finished journal must resume every shard with equal rows.
        let dir = self.last_journal.as_ref().ok_or("grid_dense: no journal")?;
        let fresh = AtomicU64::new(0);
        let resumed = run_grid(&self.clone, &self.spec, dir, &self.cache, |ev| {
            if !ev.resumed {
                fresh.fetch_add(1, Ordering::Relaxed);
            }
        })
        .map_err(err)?;
        let fresh = fresh.into_inner();
        if fresh > 0
            || resumed.executed_shards > 0
            || rows_digest(&resumed.rows) != rows_digest(&self.last_rows)
        {
            return Err(format!("grid_dense: resume re-executed {fresh} shards or changed rows"));
        }
        // One seeded cell, re-timed by live interpretation.
        let cell = derive_cell_seed(seed, "grid_dense.check", 0) % self.spec.cells();
        let config = self.spec.axes.config(cell).ok_or("grid_dense: cell out of range")?;
        let live = run_timing(&self.clone, &config, GRID_LIMIT).map_err(err)?;
        let row = &self.last_rows[cell as usize];
        let same = live.report.cycles == row.cycles
            && live.report.instrs == row.instrs
            && live.report.ipc().to_bits() == row.ipc.to_bits()
            && live.power.average_power.to_bits() == row.power.to_bits()
            && live.report.l1d_mpi().to_bits() == row.l1d_mpi.to_bits();
        if !same {
            return Err(format!("grid_dense: cell {cell} differs from live interpretation"));
        }
        Ok(())
    }

    fn retries(&self) -> u64 {
        self.retries
    }
}

// ---------------------------------------------------------------- cache_sweep

pub const CACHE_WINDOW: u64 = 200_000;

pub struct CacheSweep {
    pub pairs: Vec<Pair>,
    pub configs: Vec<CacheConfig>,
    last: Vec<CacheSweepComparison>,
}

pub fn hash_sweep(d: &mut Digest, s: &CacheSweepComparison) {
    s.real_mpi.iter().chain(&s.synth_mpi).for_each(|&m| d.f64(m));
}

impl Workload for CacheSweep {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<CacheSweep, String> {
        let names: Vec<&'static str> = catalog().iter().map(|k| k.name()).collect();
        let pairs = prepare_pairs(&names, CACHE_WINDOW, seed, tr)?;
        Ok(CacheSweep { pairs, configs: cache_sweep(), last: Vec::new() })
    }

    fn setup_digest(&self) -> u64 {
        hash_pairs(&self.pairs)
    }

    fn round(&mut self, _run: &Path) -> Result<Round, String> {
        let mut round = Round::default();
        let mut d = Digest::default();
        self.last.clear();
        for p in &self.pairs {
            let sweep =
                round.timed(|| cache_sweep_pair(&p.real, &p.clone, &self.configs, CACHE_WINDOW));
            hash_sweep(&mut d, &sweep);
            self.last.push(sweep);
        }
        round.digest = d.value();
        Ok(round)
    }

    fn check(&self, seed: u64) -> Result<(), String> {
        for i in 0..4 {
            let (p, c, side) =
                pick(seed, "cache_sweep.check", i, self.pairs.len(), self.configs.len());
            let pair = &self.pairs[p];
            let (program, stored) = if side == 0 {
                (&pair.real, self.last[p].real_mpi[c])
            } else {
                (&pair.clone, self.last[p].synth_mpi[c])
            };
            let live = simulate_dcache(program, self.configs[c], CACHE_WINDOW).mpi();
            if live.to_bits() != stored.to_bits() {
                return Err(format!(
                    "cache_sweep: {} config {} side {side}: engine {stored} vs replay {live}",
                    pair.name, self.configs[c]
                ));
            }
        }
        Ok(())
    }

    /// Mean Pearson r over the kernels whose real MPI varies by at least
    /// 15% across the sweep — fig04's rule for leaving out flat kernels.
    fn fidelity(&self) -> Vec<(&'static str, f64)> {
        let rs: Vec<f64> = self
            .last
            .iter()
            .filter(|s| {
                let (lo, hi) = s
                    .real_mpi
                    .iter()
                    .fold((f64::INFINITY, 0.0f64), |(l, h), &v| (l.min(v), h.max(v)));
                hi > 1e-9 && (hi - lo) / hi >= 0.15
            })
            .map(CacheSweepComparison::correlation)
            .collect();
        vec![("cache_r", mean(rs))]
    }
}
