//! Sharded, resumable, fault-tolerant design-space sweeps over a
//! [`GridAxes`] product.
//!
//! A [`GridSpec`] names a workload, an instruction limit, and the axes of
//! a design-space grid; [`run_grid`] enumerates the grid's cells in
//! shards, times each cell by replaying the workload's packed trace
//! (spilled to disk and mmapped back when over-cap), journals every
//! completed shard, and streams rows to the caller as shards finish.
//!
//! # Per-cell supervision
//!
//! [`run_grid_with`] wraps every cell execution in a supervisor governed
//! by a [`GridPolicy`]: failures classified
//! [`Transient`](crate::ErrorClass::Transient) (operating-system I/O, not
//! the cell's own physics) are retried up to `max_retries` times with
//! seeded exponential backoff — the jitter derives from
//! [`derive_cell_seed`], so a retry schedule is a pure function of
//! `(seed, workload, cell, attempt)` and reproducible across thread
//! counts. [`Permanent`](crate::ErrorClass::Permanent) failures abort the
//! sweep, or — under `keep_going` — quarantine the cell: a typed
//! `quarantine-NNNNNN.json` record lands in the journal, the shard's row
//! set legitimately omits that cell, and the sweep completes with
//! degraded coverage reported in [`GridOutcome::quarantined`]. A resumed
//! sweep honours existing quarantine records instead of re-deriving the
//! same failure; delete the records to force a retry. An optional
//! [`FaultInjector`] (or `PERFCLONE_GRID_FAULTS`, see
//! [`env_fault_injector`]) injects deterministic per-cell faults for
//! chaos testing the supervisor itself.
//!
//! # Cell-ID stability contract
//!
//! A cell's identity is `g<spec-hash>-c<index>`, where the spec hash
//! covers the workload name, scale label, instruction limit, and the
//! [canonical](GridAxes::canonical) axes encoding — and deliberately
//! *excludes* `shard_size` and `max_cells`. Re-sharding a sweep or
//! truncating it with `--cells` therefore never renames the cells both
//! runs share; only changing what a cell *measures* (workload, limit,
//! axes) changes its ID. The journal separately refuses to resume across
//! a `shard_size` or cell-count change (see
//! [`Journal::open`](crate::journal::Journal::open)), because shard
//! records are keyed by shard index.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

use perfclone_isa::{InstrMetaTable, Program};
use perfclone_sim::TraceStore;
use perfclone_uarch::{GridAxes, MachineConfig};
use perfclone_validate::derive_cell_seed;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::cache::WorkloadCache;
use crate::error::ErrorClass;
use crate::journal::{Journal, JournalError, QuarantineRecord};
use crate::{time_capture, Error, TimingResult};

/// One design-space sweep: a workload, an instruction limit, the grid
/// axes, and the sharding geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridSpec {
    /// Cache/journal key naming the workload (must be unique per
    /// program, as with every [`WorkloadCache`] entry).
    pub workload: String,
    /// Human-readable scale label (recorded in the journal spec; part of
    /// the cell-ID hash so differently-scaled sweeps never collide).
    pub scale: String,
    /// Instruction limit per timing run.
    pub limit: u64,
    /// The design-space axes.
    pub axes: GridAxes,
    /// Enumerate at most this many cells (truncates the grid; use
    /// `u64::MAX` for the full product). Not part of the cell-ID hash.
    pub max_cells: u64,
    /// Cells per shard (clamped to at least 1). Not part of the cell-ID
    /// hash, but a journal is bound to one value.
    pub shard_size: u64,
}

impl GridSpec {
    /// Number of cells this sweep enumerates: the axes product, truncated
    /// to `max_cells`.
    pub fn cells(&self) -> u64 {
        self.axes.cells().min(self.max_cells)
    }

    /// Cells per shard, clamped to at least 1.
    pub fn shard_cells(&self) -> u64 {
        self.shard_size.max(1)
    }

    /// Number of shards ([`cells`](GridSpec::cells) divided into
    /// [`shard_cells`](GridSpec::shard_cells)-sized work units).
    pub fn shard_count(&self) -> u64 {
        self.cells().div_ceil(self.shard_cells())
    }

    /// The half-open cell range `[start, end)` of shard `shard`, or
    /// `None` when the shard index is out of range.
    pub fn shard_range(&self, shard: u64) -> Option<(u64, u64)> {
        if shard >= self.shard_count() {
            return None;
        }
        let start = shard * self.shard_cells();
        let end = (start + self.shard_cells()).min(self.cells());
        Some((start, end))
    }

    /// FNV-1a hash of the spec's identity: workload, scale, limit, and
    /// canonical axes — *not* `shard_size` or `max_cells` (see the
    /// module docs for the stability contract).
    pub fn spec_hash(&self) -> u64 {
        fnv1a(
            format!(
                "workload={};scale={};limit={};axes={}",
                self.workload,
                self.scale,
                self.limit,
                self.axes.canonical()
            )
            .as_bytes(),
        )
    }

    /// The stable identity of cell `index` under this spec.
    pub fn cell_id(&self, index: u64) -> CellId {
        CellId { spec: self.spec_hash(), index }
    }
}

/// A cell's stable identity: grid-spec hash plus linear cell index,
/// rendered `g<hash>-c<index>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellId {
    /// The owning spec's [`GridSpec::spec_hash`].
    pub spec: u64,
    /// The cell's linear index in enumeration order.
    pub index: u64,
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{:016x}-c{}", self.spec, self.index)
    }
}

/// One cell's journaled metrics row (the RunReport-schema unit the `grid`
/// CLI verb streams).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellRow {
    /// Linear cell index.
    pub cell: u64,
    /// Stable cell ID (`g<spec-hash>-c<index>`).
    pub id: String,
    /// Pipeline cycles.
    pub cycles: u64,
    /// Instructions committed.
    pub instrs: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Average power (Watts, Wattch-style model).
    pub power: f64,
    /// L1-D misses per committed instruction.
    pub l1d_mpi: f64,
}

impl CellRow {
    fn of(spec: &GridSpec, cell: u64, timing: &TimingResult) -> CellRow {
        CellRow {
            cell,
            id: spec.cell_id(cell).to_string(),
            cycles: timing.report.cycles,
            instrs: timing.report.instrs,
            ipc: timing.report.ipc(),
            power: timing.power.average_power,
            l1d_mpi: timing.report.l1d_mpi(),
        }
    }
}

/// One point on the IPC-vs-power Pareto frontier.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// The cell's linear index.
    pub cell: u64,
    /// The cell's stable ID.
    pub id: String,
    /// The cell's IPC (maximized).
    pub ipc: f64,
    /// The cell's average power (minimized).
    pub power: f64,
}

/// The IPC-vs-power Pareto frontier of `rows`: every cell no other cell
/// dominates (higher-or-equal IPC *and* lower-or-equal power, with at
/// least one strict). Deterministic for a given row set regardless of
/// input order — ties collapse to the lowest cell index — and returned
/// sorted by cell index. Non-finite rows are excluded.
pub fn pareto_frontier(rows: &[CellRow]) -> Vec<ParetoPoint> {
    let mut pts: Vec<&CellRow> =
        rows.iter().filter(|r| r.ipc.is_finite() && r.power.is_finite()).collect();
    pts.sort_by(|a, b| {
        b.ipc.total_cmp(&a.ipc).then(a.power.total_cmp(&b.power)).then(a.cell.cmp(&b.cell))
    });
    let mut frontier = Vec::new();
    let mut best_power = f64::INFINITY;
    for r in pts {
        if r.power < best_power {
            frontier.push(ParetoPoint {
                cell: r.cell,
                id: r.id.clone(),
                ipc: r.ipc,
                power: r.power,
            });
            best_power = r.power;
        }
    }
    frontier.sort_by_key(|p| p.cell);
    frontier
}

/// One shard's completion, streamed to [`run_grid`]'s callback.
#[derive(Clone, Copy, Debug)]
pub struct ShardEvent<'a> {
    /// The shard index.
    pub shard: u64,
    /// First cell of the shard.
    pub start: u64,
    /// One past the last cell of the shard.
    pub end: u64,
    /// `true` when the shard's rows came from the journal (a resumed
    /// sweep skipping completed work) rather than fresh execution.
    pub resumed: bool,
    /// The shard's metric rows, in cell order (cells quarantined under
    /// `keep_going` are omitted here and listed in
    /// [`quarantined`](ShardEvent::quarantined)).
    pub rows: &'a [CellRow],
    /// Cells of this shard quarantined under `keep_going`, in cell order.
    pub quarantined: &'a [QuarantineRecord],
}

/// A completed sweep's merged results.
#[derive(Clone, Debug)]
pub struct GridOutcome {
    /// Every non-quarantined cell's row, in cell order (journaled and
    /// fresh merged).
    pub rows: Vec<CellRow>,
    /// Cells enumerated ([`GridSpec::cells`]).
    pub cells: u64,
    /// Shards executed by this run.
    pub executed_shards: u64,
    /// Shards skipped because the journal already held them.
    pub skipped_shards: u64,
    /// `true` when the workload's packed trace lives on disk (spilled
    /// over `PERFCLONE_TRACE_CAP` and replayed via mmap).
    pub spilled_trace: bool,
    /// The IPC-vs-power Pareto frontier of [`rows`](GridOutcome::rows).
    pub pareto: Vec<ParetoPoint>,
    /// Cells quarantined under `keep_going` (this run's and prior runs'
    /// merged), in cell order. Empty on a fully healthy sweep.
    pub quarantined: Vec<QuarantineRecord>,
    /// Transient-failure retries the supervisor performed this run.
    pub retries: u64,
    /// Journal records demoted to pending (truncated/corrupt) and
    /// re-executed by this run.
    pub recovered_shards: u64,
}

impl GridOutcome {
    /// `true` when every enumerated cell has a row (nothing quarantined).
    pub fn full_coverage(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// Supervision policy for per-cell execution: retry budget, backoff
/// shape, per-cell deadline, and whether permanent failures quarantine
/// (`keep_going`) or abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridPolicy {
    /// Transient-failure retries per cell (0 = fail fast).
    pub max_retries: u32,
    /// Backoff base in milliseconds; attempt `n` sleeps
    /// `min(cap, base·2ⁿ + jitter)` where `jitter < base`. 0 disables
    /// sleeping entirely (tests).
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Per-cell deadline in simulated cycles: a cell whose run takes more
    /// cycles fails with [`Error::BudgetExhausted`] (stage `"pipeline"`,
    /// permanent). The supervisor checks it once the run has finished, so
    /// the run itself is bounded only by the model's own commit bound.
    /// `None` = no deadline.
    pub cell_deadline: Option<u64>,
    /// `true`: quarantine permanently-failing cells and complete the
    /// sweep with degraded coverage. `false` (default): abort on the
    /// first permanent failure.
    pub keep_going: bool,
    /// Root seed for backoff jitter (derive with the sweep's seed so
    /// retry schedules are reproducible).
    pub seed: u64,
}

impl Default for GridPolicy {
    fn default() -> GridPolicy {
        GridPolicy {
            max_retries: 2,
            backoff_base_ms: 25,
            backoff_cap_ms: 1_000,
            cell_deadline: None,
            keep_going: false,
            seed: 0,
        }
    }
}

impl GridPolicy {
    /// The backoff before retry `attempt` of `cell`: exponential in the
    /// attempt, capped at `backoff_cap_ms`, with deterministic jitter
    /// derived via [`derive_cell_seed`] from `(seed, workload, cell,
    /// attempt)` — a pure function, so retry schedules are bit-identical
    /// across thread counts and resumed runs.
    pub fn backoff(&self, workload: &str, cell: u64, attempt: u32) -> Duration {
        if self.backoff_base_ms == 0 {
            return Duration::ZERO;
        }
        let exp =
            self.backoff_base_ms.saturating_mul(1u64 << attempt.min(16)).min(self.backoff_cap_ms);
        let cell_seed = derive_cell_seed(self.seed, workload, cell);
        let jitter =
            derive_cell_seed(cell_seed, "retry-backoff", u64::from(attempt)) % self.backoff_base_ms;
        Duration::from_millis(exp.saturating_add(jitter).min(self.backoff_cap_ms))
    }
}

/// A deterministic per-cell fault source for chaos testing: called before
/// every execution attempt with `(cell, attempt)`; returning `Some(err)`
/// makes that attempt fail with `err` instead of running the cell.
pub type FaultInjector = dyn Fn(u64, u32) -> Option<Error> + Sync;

/// Parses a fault schedule into a [`FaultInjector`]. The spec is
/// comma-separated `CELL=KIND` entries where `KIND` is `perm` (every
/// attempt fails permanently) or `trans[:K]` (attempts `0..K` fail
/// transiently, then the cell succeeds; bare `trans` means `K = 1`).
/// Malformed entries are ignored; returns `None` when nothing parses.
///
/// Example: `"5=perm,9=trans:2"` — cell 5 always fails, cell 9 fails its
/// first two attempts.
pub fn parse_fault_injector(spec: &str) -> Option<Box<FaultInjector>> {
    let mut plan: BTreeMap<u64, (bool, u32)> = BTreeMap::new();
    for entry in spec.split(',') {
        let Some((cell, kind)) = entry.trim().split_once('=') else { continue };
        let Ok(cell) = cell.trim().parse::<u64>() else { continue };
        match kind.trim() {
            "perm" => {
                plan.insert(cell, (false, u32::MAX));
            }
            "trans" => {
                plan.insert(cell, (true, 1));
            }
            k => {
                if let Some(n) = k.strip_prefix("trans:").and_then(|n| n.parse::<u32>().ok()) {
                    plan.insert(cell, (true, n.max(1)));
                }
            }
        }
    }
    if plan.is_empty() {
        return None;
    }
    Some(Box::new(move |cell, attempt| {
        let &(transient, failing) = plan.get(&cell)?;
        (attempt < failing).then_some(Error::Injected { cell, attempt, transient })
    }))
}

/// [`parse_fault_injector`] over the `PERFCLONE_GRID_FAULTS` environment
/// variable — the chaos harness's hook for injecting cell faults into an
/// otherwise ordinary `perfclone grid` invocation.
pub fn env_fault_injector() -> Option<Box<FaultInjector>> {
    parse_fault_injector(&std::env::var("PERFCLONE_GRID_FAULTS").ok()?)
}

/// Per-shard artificial delay (`PERFCLONE_GRID_SHARD_DELAY_MS`), parsed
/// once. Exists for the crash/kill harness: stretching shard execution
/// makes "killed mid-sweep" reproducible.
fn shard_delay() -> Option<Duration> {
    static DELAY: OnceLock<Option<Duration>> = OnceLock::new();
    *DELAY.get_or_init(|| {
        std::env::var("PERFCLONE_GRID_SHARD_DELAY_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis)
    })
}

/// Executes one cell under supervision: transient failures (see
/// [`Error::classify`]) are retried with seeded backoff up to the
/// policy's budget, and a run over the policy's `cell_deadline` fails
/// permanently. Returns the timing plus the retries spent, or the final
/// error plus the attempts made (≥ 1).
#[allow(clippy::too_many_arguments)]
fn supervise_cell(
    program: &Program,
    capture: Result<&TraceStore, &Error>,
    meta: &InstrMetaTable,
    spec: &GridSpec,
    policy: &GridPolicy,
    injector: Option<&FaultInjector>,
    cell: u64,
    config: &MachineConfig,
) -> Result<(TimingResult, u64), (Error, u32)> {
    let mut attempt: u32 = 0;
    loop {
        let outcome = match injector.and_then(|inject| inject(cell, attempt)) {
            Some(err) => Err(err),
            None => time_capture(program, capture, meta, config, spec.limit).and_then(|timing| {
                match policy.cell_deadline {
                    Some(budget) if timing.report.cycles > budget => {
                        Err(Error::BudgetExhausted { stage: "pipeline", budget })
                    }
                    _ => Ok(timing),
                }
            }),
        };
        match outcome {
            Ok(timing) => return Ok((timing, u64::from(attempt))),
            Err(err) => {
                if err.classify() == ErrorClass::Transient && attempt < policy.max_retries {
                    perfclone_obs::count!("grid.retries", 1);
                    perfclone_obs::instant!("grid.cell.retry");
                    eprintln!(
                        "perfclone: cell {cell} failed transiently ({err}); \
                         retry {}/{}",
                        attempt + 1,
                        policy.max_retries
                    );
                    std::thread::sleep(policy.backoff(&spec.workload, cell, attempt));
                    attempt += 1;
                } else {
                    return Err((err, attempt + 1));
                }
            }
        }
    }
}

/// Runs `op` (a journal write), retrying transient I/O failures with the
/// policy's backoff (keyed on `cell` so concurrent shards don't sleep in
/// lockstep). Non-I/O journal errors propagate immediately.
fn retry_journal<T>(
    policy: &GridPolicy,
    workload: &str,
    cell: u64,
    mut op: impl FnMut() -> Result<T, JournalError>,
) -> Result<T, Error> {
    let mut attempt: u32 = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e @ JournalError::Io { .. }) if attempt < policy.max_retries => {
                perfclone_obs::count!("grid.journal.retries", 1);
                eprintln!("perfclone: journal write failed transiently ({e}); retrying");
                std::thread::sleep(policy.backoff(workload, cell, attempt));
                attempt += 1;
            }
            Err(e) => return Err(Error::Journal(e)),
        }
    }
}

/// Runs (or resumes) the sharded design-space sweep `spec` describes,
/// under the default [`GridPolicy`] (fail-fast, 2 transient retries) and
/// no fault injection. See [`run_grid_with`].
///
/// # Errors
///
/// As [`run_grid_with`].
pub fn run_grid(
    program: &Program,
    spec: &GridSpec,
    journal_dir: &Path,
    cache: &WorkloadCache,
    on_shard: impl Fn(ShardEvent<'_>) + Sync,
) -> Result<GridOutcome, Error> {
    run_grid_with(program, spec, journal_dir, cache, &GridPolicy::default(), None, on_shard)
}

/// Runs (or resumes) the sharded design-space sweep `spec` describes,
/// with per-cell supervision.
///
/// The workload's packed dynamic trace is captured once through `cache`
/// — spilling to disk and replaying via mmap when it outgrows
/// `PERFCLONE_TRACE_CAP` — and every cell replays it under that cell's
/// decoded configuration, wrapped in the retry supervisor `policy`
/// configures (see the module docs). Shards fan over the ambient rayon
/// pool; each completed shard is journaled atomically in `journal_dir`
/// and streamed to `on_shard` as it lands (journaled shards of a resumed
/// sweep are streamed first, in shard order, with `resumed = true`). The
/// merged row set is assembled in cell order, so a resumed sweep returns
/// rows bit-identical to an uninterrupted one.
///
/// `injector`, when given, is consulted before every execution attempt
/// and can fail cells deterministically — the chaos harness's hook.
///
/// # Errors
///
/// [`Error::EmptyGrid`] when the spec enumerates no cells,
/// [`Error::Journal`] when the journal cannot be opened (including
/// [`JournalError::SpecMismatch`](crate::journal::JournalError) — the
/// directory belongs to a different sweep) or appended to,
/// [`Error::DegradedJournal`] when the journal quarantines cells but
/// `policy.keep_going` is off, plus everything the timing path returns
/// ([`Error::Sim`] for faulting cells, [`Error::BudgetExhausted`] for
/// cells over the deadline) unless `keep_going` quarantines it.
/// A failed trace spill ([`Error::Spill`]) is handled internally by
/// re-interpreting per cell.
pub fn run_grid_with(
    program: &Program,
    spec: &GridSpec,
    journal_dir: &Path,
    cache: &WorkloadCache,
    policy: &GridPolicy,
    injector: Option<&FaultInjector>,
    on_shard: impl Fn(ShardEvent<'_>) + Sync,
) -> Result<GridOutcome, Error> {
    let _span = perfclone_obs::span!("grid.sweep");
    if spec.cells() == 0 {
        return Err(Error::EmptyGrid { workload: spec.workload.clone() });
    }
    perfclone_obs::gauge!("grid.cells", spec.cells());

    // One capture for the whole sweep; if its spill fails, every cell
    // re-interprets instead.
    let capture = cache.packed_trace(&spec.workload, program, spec.limit);
    let spilled_trace = capture.as_deref().is_ok_and(TraceStore::is_spilled);
    // One interned static-resolution table for the whole sweep: every
    // cell's batched replay indexes it instead of re-resolving per record.
    let meta = cache.instr_meta(&spec.workload, program);

    let (journal, load) = Journal::open(journal_dir, spec)?;
    if !policy.keep_going && !load.quarantined.is_empty() {
        return Err(Error::DegradedJournal {
            workload: spec.workload.clone(),
            quarantined: load.quarantined.len() as u64,
        });
    }
    let recovered_shards = load.recovered;
    let done = load.shards;
    let prior_quarantined = load.quarantined;
    let skipped_shards = done.len() as u64;
    for (&shard, rows) in &done {
        // Journal::open validated the range; a missing range here would
        // mean the spec changed underneath us mid-call.
        let Some((start, end)) = spec.shard_range(shard) else { continue };
        perfclone_obs::count!("grid.shards.skipped", 1);
        // Resumed cells count as done so live progress/ETA covers them.
        perfclone_obs::count!("grid.cells.done", rows.len() as u64);
        let quars: Vec<QuarantineRecord> =
            prior_quarantined.range(start..end).map(|(_, rec)| rec.clone()).collect();
        on_shard(ShardEvent { shard, start, end, resumed: true, rows, quarantined: &quars });
    }

    let pending: Vec<u64> = (0..spec.shard_count()).filter(|s| !done.contains_key(s)).collect();
    let executed_shards = pending.len() as u64;
    // Rayon workers start span-free; carry the sweep span's id across the
    // pool so per-shard spans (and their trace events) nest under it.
    let sweep_span = perfclone_obs::current();
    type ShardDone = (u64, Vec<CellRow>, Vec<QuarantineRecord>, u64);
    let fresh: Vec<Result<ShardDone, Error>> = pending
        .par_iter()
        .map(|&shard| {
            let _shard_span = perfclone_obs::Span::child_of(sweep_span, "grid.shard");
            // In range by construction: shard < shard_count().
            let (start, end) = spec
                .shard_range(shard)
                .ok_or_else(|| Error::EmptyGrid { workload: spec.workload.clone() })?;
            if let Some(delay) = shard_delay() {
                std::thread::sleep(delay);
            }
            let mut rows = Vec::with_capacity((end - start) as usize);
            let mut quars: Vec<QuarantineRecord> = Vec::new();
            let mut retries: u64 = 0;
            for cell in start..end {
                if let Some(prior) = prior_quarantined.get(&cell) {
                    // Quarantined by an earlier run: honour the record
                    // instead of re-deriving the same failure (delete the
                    // quarantine-*.json file to force a retry).
                    quars.push(prior.clone());
                    perfclone_obs::count!("grid.cells.done", 1);
                    continue;
                }
                // In range by construction: cell < cells() ≤ axes.cells().
                let config = spec
                    .axes
                    .config(cell)
                    .ok_or_else(|| Error::EmptyGrid { workload: spec.workload.clone() })?;
                perfclone_obs::instant!("grid.cell.start");
                match supervise_cell(
                    program,
                    capture.as_deref(),
                    &meta,
                    spec,
                    policy,
                    injector,
                    cell,
                    &config,
                ) {
                    Ok((timing, cell_retries)) => {
                        retries += cell_retries;
                        rows.push(CellRow::of(spec, cell, &timing));
                        perfclone_obs::instant!("grid.cell.finish");
                        perfclone_obs::count!("grid.cells.done", 1);
                    }
                    Err((err, attempts)) => {
                        retries += u64::from(attempts.saturating_sub(1));
                        if !policy.keep_going {
                            return Err(err);
                        }
                        let rec = QuarantineRecord {
                            cell,
                            id: spec.cell_id(cell).to_string(),
                            kind: err.kind().to_string(),
                            reason: err.to_string(),
                            attempts,
                        };
                        retry_journal(policy, &spec.workload, cell, || {
                            journal.record_quarantine(&rec)
                        })?;
                        perfclone_obs::count!("grid.quarantined", 1);
                        // Quarantined cells are processed work: count them
                        // done so live progress/ETA still converges.
                        perfclone_obs::count!("grid.cells.done", 1);
                        perfclone_obs::instant!("grid.cell.quarantine");
                        eprintln!(
                            "perfclone: cell {cell} ({}) failed permanently ({err}); \
                             quarantined after {attempts} attempt(s)",
                            rec.id
                        );
                        quars.push(rec);
                    }
                }
            }
            retry_journal(policy, &spec.workload, start, || {
                journal.record_shard(shard, start, end, &rows)
            })?;
            perfclone_obs::count!("grid.shards.executed", 1);
            on_shard(ShardEvent {
                shard,
                start,
                end,
                resumed: false,
                rows: &rows,
                quarantined: &quars,
            });
            Ok((shard, rows, quars, retries))
        })
        .collect();

    let mut merged = done;
    let mut quarantined = prior_quarantined;
    let mut retries: u64 = 0;
    for result in fresh {
        let (shard, rows, quars, shard_retries) = result?;
        merged.insert(shard, rows);
        for rec in quars {
            quarantined.insert(rec.cell, rec);
        }
        retries += shard_retries;
    }
    let mut rows = Vec::with_capacity(spec.cells() as usize);
    for shard_rows in merged.into_values() {
        rows.extend(shard_rows);
    }
    let pareto = pareto_frontier(&rows);
    Ok(GridOutcome {
        rows,
        cells: spec.cells(),
        executed_shards,
        skipped_shards,
        spilled_trace,
        pareto,
        quarantined: quarantined.into_values().collect(),
        retries,
        recovered_shards,
    })
}

/// FNV-1a over `bytes` (the same construction the spill codec and seed
/// derivation use; duplicated because it is four lines and keeping the
/// grid's hashes, the spec hash and the journal's row checksum, in this
/// crate makes their stability contract auditable).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GridSpec {
        GridSpec {
            workload: "crc32".into(),
            scale: "tiny".into(),
            limit: 100_000,
            axes: GridAxes::small(),
            max_cells: u64::MAX,
            shard_size: 5,
        }
    }

    #[test]
    fn shards_tile_the_grid_exactly() {
        let s = spec();
        assert_eq!(s.cells(), 32);
        assert_eq!(s.shard_count(), 7);
        let mut next = 0;
        for shard in 0..s.shard_count() {
            let (start, end) = s.shard_range(shard).unwrap();
            assert_eq!(start, next, "shard {shard} must start where the last ended");
            assert!(end > start);
            next = end;
        }
        assert_eq!(next, s.cells());
        assert_eq!(s.shard_range(s.shard_count()), None);
    }

    #[test]
    fn spec_hash_ignores_sharding_but_not_identity() {
        let a = spec();
        let resharded = GridSpec { shard_size: 11, max_cells: 10, ..a.clone() };
        assert_eq!(a.spec_hash(), resharded.spec_hash());
        assert_ne!(a.spec_hash(), GridSpec { limit: 1, ..a.clone() }.spec_hash());
        assert_ne!(a.spec_hash(), GridSpec { workload: "x".into(), ..a.clone() }.spec_hash());
        assert_ne!(a.spec_hash(), GridSpec { axes: GridAxes::dense(), ..a.clone() }.spec_hash());
    }

    #[test]
    fn cell_ids_render_hash_and_index() {
        let s = spec();
        let id = s.cell_id(7);
        assert_eq!(id.to_string(), format!("g{:016x}-c7", s.spec_hash()));
    }

    #[test]
    fn pareto_keeps_only_undominated_cells() {
        let row = |cell, ipc, power| CellRow {
            cell,
            id: format!("c{cell}"),
            cycles: 1,
            instrs: 1,
            ipc,
            power,
            l1d_mpi: 0.0,
        };
        let rows = vec![
            row(0, 1.0, 5.0),      // frontier: cheapest
            row(1, 2.0, 7.0),      // frontier
            row(2, 1.5, 8.0),      // dominated by 1 (less IPC, more power)
            row(3, 2.0, 9.0),      // dominated by 1 (same IPC, more power)
            row(4, 3.0, 12.0),     // frontier: fastest
            row(5, f64::NAN, 1.0), // non-finite: excluded
        ];
        let frontier = pareto_frontier(&rows);
        let cells: Vec<u64> = frontier.iter().map(|p| p.cell).collect();
        assert_eq!(cells, vec![0, 1, 4]);
        let mut shuffled = rows.clone();
        shuffled.reverse();
        assert_eq!(pareto_frontier(&shuffled), frontier, "input order must not matter");
    }

    #[test]
    fn backoff_is_deterministic_capped_and_seeded() {
        let p = GridPolicy { seed: 7, ..Default::default() };
        assert_eq!(p.backoff("crc32", 3, 1), p.backoff("crc32", 3, 1));
        // Jitter varies with the cell (collisions are possible modulo the
        // base, but not across 20 consecutive cells).
        let base = p.backoff("crc32", 3, 1);
        assert!(
            (0..20).any(|cell| p.backoff("crc32", cell, 1) != base),
            "jitter must depend on the cell"
        );
        let cap = Duration::from_millis(p.backoff_cap_ms);
        for attempt in 0..40 {
            assert!(p.backoff("crc32", 3, attempt) <= cap);
        }
        let zero = GridPolicy { backoff_base_ms: 0, ..Default::default() };
        assert_eq!(zero.backoff("crc32", 0, 0), Duration::ZERO);
    }

    #[test]
    fn fault_injector_spec_parses_perm_and_transient() {
        let inject = parse_fault_injector("5=perm, 9=trans:2, 11=trans").unwrap();
        assert!(matches!(inject(5, 0), Some(Error::Injected { transient: false, .. })));
        assert!(matches!(inject(5, 9), Some(Error::Injected { transient: false, .. })));
        assert!(matches!(inject(9, 0), Some(Error::Injected { transient: true, .. })));
        assert!(matches!(inject(9, 1), Some(Error::Injected { transient: true, .. })));
        assert!(inject(9, 2).is_none(), "trans:2 succeeds on the third attempt");
        assert!(inject(11, 0).is_some() && inject(11, 1).is_none(), "bare trans = trans:1");
        assert!(inject(4, 0).is_none(), "unlisted cells are healthy");
        assert!(parse_fault_injector("").is_none());
        assert!(parse_fault_injector("bogus, 3=nope").is_none());
    }
}
