//! Subcommand implementations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use perfclone::experiments::{cache_sweep_pair, design_change_sweep};
use perfclone::{
    base_config, cache_sweep, env_fault_injector, pareto_frontier, run_grid_with, run_timing,
    run_timing_trace, CellRow, Cloner, Gate, GridAxes, GridOutcome, GridPolicy, GridSpec,
    PairComparison, SynthesisParams, Table, ValidationReport, Verdict, WorkloadCache,
    WorkloadProfile,
};
use perfclone_isa::Program;
use perfclone_obs::{
    DegradedCoverage, GateAttribute, Metric, QuarantinedCell, RunReport, Sampler, SamplerConfig,
    SweepStats, Timeline, TraceSummary,
};
use perfclone_uarch::{design_changes, MachineConfig};

use crate::args::{parse, Parsed};

const USAGE: &str = "\
perfclone — performance cloning toolchain (IISWC 2006 reproduction)

USAGE:
  perfclone list                                  list the benchmark kernels
  perfclone configs                               list machine configurations
  perfclone profile <kernel> [opts]               profile to JSON
  perfclone synth <profile.json> [opts]           synthesize a clone
  perfclone clone <kernel> [opts]                 profile + synth + gate
  perfclone validate <kernel> [opts]              clone + side-by-side timing
  perfclone sweep <kernel> [opts]                 28-config cache sweep
  perfclone dsweep <kernel> [opts]                Table-3 design-change timing
                                                  sweep (record-once/replay-many)
  perfclone grid <kernel> [opts]                  sharded, resumable design-space
                                                  sweep with journaled shards and
                                                  an IPC-vs-power Pareto frontier
  perfclone disasm <kernel> [opts]                disassemble a kernel
  perfclone report <kernel|report.json> [opts]    characterization report, or
                                                  pretty-print a saved run report
  perfclone statsim <kernel> [opts]               statistical-simulation IPC

OPTIONS:
  --scale tiny|small      input scale (default small)
  -o, --out FILE          output file (profile JSON / clone C source)
  --asm FILE              also write the clone as assembly text
  --seed N                synthesis seed
  --dynamic N             clone dynamic-instruction target
  --config NAME           machine config for validate (default base)
  --allow-degraded        downgrade fidelity-gate failures to warnings
                          (validate still prints the full report)
  --report FILE|-         write a machine-readable run report (stage
                          timings, cache hit rates, gate distances) as
                          JSON; `-` streams it to stdout and moves the
                          human output to stderr
  -j, --jobs N            worker threads for sweeps (default: all cores;
                          results are identical at any thread count)
  --grid small|dense      grid axes preset (default small: 32 cells;
                          dense: 10240 cells)
  --cells N               truncate the grid to its first N cells
  --shard N               cells per journaled shard (default 8)
  --limit N               instruction limit per grid cell (default all)
  --journal DIR           journal directory for grid sweeps (default
                          <tmp>/perfclone-grid-<kernel>); rerunning with
                          the same journal resumes, skipping completed
                          shards bit-identically
  --stream                stream grid rows as JSON lines to stdout as
                          shards complete (human output moves to stderr)
  --max-retries N         transient-failure retries per grid cell
                          (default 2; backoff is seeded and exponential)
  --cell-deadline N       simulated-cycle deadline per grid cell; a cell
                          whose run takes more cycles fails permanently
                          (default: none)
  --keep-going            quarantine permanently-failing grid cells (typed
                          quarantine-*.json records in the journal) and
                          complete the sweep with degraded coverage
                          instead of aborting on the first failure
  --trace-out FILE        record span begin/end and instant events in
                          per-thread ring buffers and write them as Chrome
                          Trace Format JSON (open in Perfetto via
                          https://ui.perfetto.dev) when the command ends;
                          works with every verb
  --heartbeat MS          grid only: cadence of the live JSONL heartbeat
                          records the sampler thread emits on stderr
                          (cells/s, ETA, retries, RSS; default 1000,
                          0 disables); stdout is never touched

ENVIRONMENT:
  PERFCLONE_TRACE_RING    per-thread event-ring capacity for --trace-out
                          (default 16384; the oldest events are dropped,
                          and counted, when a ring wraps)
  PERFCLONE_TRACE_CAP     byte budget for in-memory packed dynamic traces
                          (default 1 GiB); over-cap captures spill to disk
                          and replay via mmap with identical results
  PERFCLONE_SPILL_DIR     directory for spilled traces (default: tmp)
  PERFCLONE_FAULTFS       arm the deterministic I/O chaos shim, e.g.
                          `seed=7,enospc=13,short=19,torn=11,corrupt=17,
                          scope=grid-journal` (rates are 1-in-N per
                          operation; scope is a path substring filter)
  PERFCLONE_GRID_FAULTS   inject deterministic grid cell faults, e.g.
                          `5=perm,9=trans:2` (cell 5 always fails, cell 9
                          fails its first two attempts)
";

/// When set, human-readable output goes to stderr so `--report -` can own
/// stdout for the JSON document.
static HUMAN_TO_STDERR: AtomicBool = AtomicBool::new(false);

/// Prints human-readable command output — to stdout normally, to stderr
/// while `--report -` owns stdout.
macro_rules! say {
    ($($t:tt)*) => {{
        if HUMAN_TO_STDERR.load(Ordering::Relaxed) {
            eprintln!($($t)*);
        } else {
            println!($($t)*);
        }
    }};
}

/// Structured results the subcommands contribute to a pending `--report`
/// document: rows the telemetry registry cannot derive on its own.
#[derive(Default)]
struct ReportExtras {
    workload: Option<String>,
    gate: Vec<GateAttribute>,
    sweep: Option<SweepStats>,
    degraded: Option<DegradedCoverage>,
    metrics: Vec<Metric>,
    timeline: Option<Timeline>,
}

/// Pending report extras; `Some` only while a `--report` run is active.
static EXTRAS: Mutex<Option<ReportExtras>> = Mutex::new(None);

fn extras_lock() -> std::sync::MutexGuard<'static, Option<ReportExtras>> {
    match EXTRAS.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn note_workload(name: &str) {
    if let Some(e) = extras_lock().as_mut() {
        e.workload = Some(name.to_string());
    }
}

fn note_gate(report: &ValidationReport) {
    if let Some(e) = extras_lock().as_mut() {
        e.gate = report
            .attributes
            .iter()
            .map(|a| GateAttribute {
                attribute: a.attribute.label().to_string(),
                delta: a.delta,
                warn_at: a.warn_at,
                fail_at: a.fail_at,
                verdict: a.verdict.label().to_string(),
            })
            .collect();
    }
}

fn note_sweep(configs: u64, wall_ns: u64, instrs: u64) {
    if let Some(e) = extras_lock().as_mut() {
        let secs = (wall_ns as f64 / 1e9).max(1e-9);
        e.sweep = Some(SweepStats {
            configs,
            wall_ns,
            configs_per_sec: configs as f64 / secs,
            instrs,
            instrs_per_sec: instrs as f64 / secs,
        });
    }
}

fn note_metric(name: &str, value: f64) {
    if let Some(e) = extras_lock().as_mut() {
        e.metrics.push(Metric { name: name.to_string(), value });
    }
}

/// Contributes the sampler's down-sampled series to a pending report
/// (dropped when the sampler recorded nothing).
fn note_timeline(timeline: Timeline) {
    if timeline.points.is_empty() {
        return;
    }
    if let Some(e) = extras_lock().as_mut() {
        e.timeline = Some(timeline);
    }
}

/// Maps a sweep's quarantine records into the report's degraded-coverage
/// section (a no-op for healthy sweeps).
fn note_degraded(outcome: &GridOutcome) {
    if outcome.quarantined.is_empty() {
        return;
    }
    if let Some(e) = extras_lock().as_mut() {
        e.degraded = Some(DegradedCoverage {
            total_cells: outcome.cells,
            covered_cells: outcome.rows.len() as u64,
            retries: outcome.retries,
            quarantined: outcome
                .quarantined
                .iter()
                .map(|q| QuarantinedCell {
                    cell: q.cell,
                    id: q.id.clone(),
                    kind: q.kind.clone(),
                    reason: q.reason.clone(),
                    attempts: q.attempts,
                })
                .collect(),
        });
    }
}

/// Assembles the run report from the telemetry snapshot plus whatever the
/// subcommand contributed, and writes it to `dest` (`-` = stdout).
fn write_report(cmd: &str, dest: &str) -> Result<(), String> {
    let extras = extras_lock().take().unwrap_or_default();
    let workload = extras.workload.unwrap_or_else(|| "-".to_string());
    let mut report = RunReport::from_snapshot(cmd, &workload, perfclone_obs::snapshot());
    report.gate = extras.gate;
    report.sweep = extras.sweep;
    report.degraded = extras.degraded;
    report.metrics = extras.metrics;
    report.timeline = extras.timeline;
    if perfclone_obs::trace_enabled() {
        let stats = perfclone_obs::trace_stats();
        report.trace = Some(TraceSummary {
            events: stats.events,
            dropped: stats.dropped,
            threads: stats.threads,
        });
    }
    let json = report.to_json().map_err(|e| format!("serializing report: {e}"))?;
    if dest == "-" {
        println!("{json}");
    } else {
        std::fs::write(dest, &json).map_err(|e| format!("writing {dest}: {e}"))?;
        say!("run report -> {dest}");
    }
    Ok(())
}

/// Writes the recorded event trace as Chrome Trace Format JSON to `dest`
/// and prints a one-line accounting of what landed in it.
fn write_trace(dest: &str) -> Result<(), String> {
    let json = perfclone_obs::chrome_trace();
    std::fs::write(dest, &json).map_err(|e| format!("writing {dest}: {e}"))?;
    let stats = perfclone_obs::trace_stats();
    say!(
        "event trace -> {dest} ({} events across {} thread(s), {} dropped to ring wrap); \
         open in Perfetto: https://ui.perfetto.dev",
        stats.events,
        stats.threads,
        stats.dropped
    );
    Ok(())
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad options, or
/// I/O failures.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first().map(String::as_str) else {
        println!("{USAGE}");
        return Ok(());
    };
    let rest = parse(&argv[1..])?;
    let report_dest = rest.report_dest().map(str::to_string);
    let trace_dest = rest.trace_out().map(str::to_string);
    if report_dest.is_some() || trace_dest.is_some() {
        // Start from a clean registry (and rewound event rings) so the
        // report and trace cover exactly this command.
        perfclone_obs::reset();
    }
    if report_dest.is_some() {
        *extras_lock() = Some(ReportExtras::default());
        HUMAN_TO_STDERR.store(report_dest.as_deref() == Some("-"), Ordering::Relaxed);
    }
    if trace_dest.is_some() {
        perfclone_obs::set_trace_enabled(true);
    }
    // Make `--jobs` the ambient parallelism for whatever the subcommand
    // fans out (currently the cache sweeps).
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(rest.jobs()?)
        .build()
        .map_err(|e| format!("building thread pool: {e}"))?;
    let result = pool.install(|| match cmd {
        "help" | "--help" | "-h" => {
            say!("{USAGE}");
            Ok(())
        }
        "list" => list(),
        "configs" => configs(),
        "profile" => profile(&rest),
        "synth" => synth(&rest),
        "clone" => clone_kernel(&rest),
        "validate" => validate(&rest),
        "sweep" => sweep(&rest),
        "dsweep" => dsweep(&rest),
        "grid" => grid(&rest),
        "disasm" => disasm(&rest),
        "report" => report(&rest),
        "statsim" => statsim(&rest),
        other => Err(format!("unknown command {other:?}")),
    });
    // Export the trace before the report so the report's `trace` summary
    // describes exactly what the file holds; disable tracing after the
    // report is written (it reads the enabled flag).
    let result = match &trace_dest {
        Some(dest) => result.and_then(|()| write_trace(dest)),
        None => result,
    };
    let result = if let Some(dest) = report_dest {
        let write_result = result.and_then(|()| write_report(cmd, &dest));
        HUMAN_TO_STDERR.store(false, Ordering::Relaxed);
        *extras_lock() = None;
        write_result
    } else {
        result
    };
    if trace_dest.is_some() {
        perfclone_obs::set_trace_enabled(false);
    }
    result
}

fn kernel_program(parsed: &Parsed, pos: usize) -> Result<(String, Program), String> {
    let name = parsed.positional.get(pos).ok_or_else(|| "missing kernel name".to_string())?;
    let kernel = perfclone_kernels::by_name(name)
        .ok_or_else(|| format!("unknown kernel {name:?} (see `perfclone list`)"))?;
    note_workload(name);
    Ok((name.clone(), kernel.build(parsed.scale()?).program))
}

/// Renders the per-stage wall-time footer `validate`, `dsweep`, `grid`
/// and `clone` print: every duration comes from the span registry, so a
/// `--jobs N` run reports the same stages (with pool fan-out folded into
/// the driving span) at any thread count.
fn stage_footer() -> Option<String> {
    let snap = perfclone_obs::snapshot();
    if snap.spans.is_empty() {
        return None;
    }
    let stages = RunReport::from_snapshot("", "", snap).stages;
    let parts: Vec<String> = stages
        .iter()
        .map(|s| {
            if s.calls == 1 {
                format!("{} {}", s.name, perfclone_obs::fmt_ns(s.total_ns))
            } else {
                format!("{} {} ({} calls)", s.name, perfclone_obs::fmt_ns(s.total_ns), s.calls)
            }
        })
        .collect();
    Some(format!("stage timings: {}", parts.join(" · ")))
}

fn list() -> Result<(), String> {
    let paper = perfclone_kernels::catalog().len();
    let mut t = Table::new(vec!["kernel".into(), "domain".into(), "population".into()]);
    for (i, k) in perfclone_kernels::catalog_extended().iter().enumerate() {
        let tag = if i < paper { "paper (Table 1)" } else { "extended" };
        t.row(vec![k.name().into(), k.domain().to_string(), tag.into()]);
    }
    say!("{}", t.render());
    Ok(())
}

fn all_configs() -> Vec<MachineConfig> {
    let mut v = vec![base_config()];
    v.extend(design_changes());
    v
}

fn configs() -> Result<(), String> {
    for c in all_configs() {
        say!("{c}");
    }
    Ok(())
}

fn profile(parsed: &Parsed) -> Result<(), String> {
    let (name, program) = kernel_program(parsed, 0)?;
    let profile = perfclone::profile_program(&program, u64::MAX).map_err(|e| e.to_string())?;
    let json = profile.to_json().map_err(|e| e.to_string())?;
    let out = parsed.opt(&["-o", "--out"]).map(str::to_string).unwrap_or(format!("{name}.json"));
    std::fs::write(&out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    say!(
        "profiled {name}: {} instrs, {} SFG nodes, {} streams, {} branches -> {out}",
        profile.total_instrs,
        profile.nodes.len(),
        profile.streams.len(),
        profile.branches.len()
    );
    Ok(())
}

fn synth_params(parsed: &Parsed, profile: &WorkloadProfile) -> Result<SynthesisParams, String> {
    let mut params = SynthesisParams {
        target_dynamic: profile.total_instrs.clamp(100_000, 2_500_000),
        ..SynthesisParams::default()
    };
    if let Some(seed) = parsed.opt_u64(&["--seed"])? {
        params.seed = seed;
    }
    if let Some(dynamic) = parsed.opt_u64(&["--dynamic"])? {
        params.target_dynamic = dynamic;
    }
    Ok(params)
}

fn synth(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.positional.first().ok_or_else(|| "missing profile path".to_string())?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let profile = WorkloadProfile::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    let params = synth_params(parsed, &profile)?;
    let clone =
        Cloner::with_params(params).clone_program_from(&profile).map_err(|e| e.to_string())?;
    let c_out =
        parsed.opt(&["-o", "--out"]).map(str::to_string).unwrap_or(format!("{}.c", profile.name));
    std::fs::write(&c_out, perfclone::emit_c(&clone))
        .map_err(|e| format!("writing {c_out}: {e}"))?;
    say!(
        "synthesized {}: {} static instrs, {} streams -> {c_out}",
        clone.name(),
        clone.len(),
        clone.streams().len()
    );
    if let Some(asm) = parsed.opt(&["--asm"]) {
        std::fs::write(asm, perfclone_isa::disasm_program(&clone))
            .map_err(|e| format!("writing {asm}: {e}"))?;
        say!("assembly listing -> {asm}");
    }
    Ok(())
}

fn validate(parsed: &Parsed) -> Result<(), String> {
    let span = perfclone_obs::span!("cli.validate");
    let (name, program) = kernel_program(parsed, 0)?;
    let config = match parsed.opt(&["--config"]) {
        None => base_config(),
        Some(wanted) => all_configs()
            .into_iter()
            .find(|c| c.name == wanted)
            .ok_or_else(|| format!("unknown config {wanted:?} (see `perfclone configs`)"))?,
    };
    let cache = WorkloadCache::new();
    let profile = cache.profile(&name, &program, u64::MAX).map_err(|e| e.to_string())?;
    let params = synth_params(parsed, &profile)?;
    let clone =
        Cloner::with_params(params).clone_program_from(&profile).map_err(|e| e.to_string())?;
    // Fidelity gate first: measure the clone and compare the five
    // attribute families before the (microarchitecture-dependent)
    // side-by-side timing run.
    let report = Gate::default().report(&profile, &clone).map_err(|e| e.to_string())?;
    note_gate(&report);
    say!("{}", report.render());
    if report.verdict() == Verdict::Fail {
        if parsed.allow_degraded() {
            eprintln!(
                "perfclone: warning: {} (continuing: --allow-degraded)",
                report.failure_summary()
            );
        } else {
            return Err(format!(
                "{} (rerun with --allow-degraded to continue)",
                report.failure_summary()
            ));
        }
    }
    // Side-by-side timing: both traces go through the shared cache
    // (captured once, replayed for whatever config was picked).
    let real =
        run_timing_trace(&name, &program, &config, u64::MAX, &cache).map_err(|e| e.to_string())?;
    let synth = run_timing_trace(&format!("{name}.clone"), &clone, &config, u64::MAX, &cache)
        .map_err(|e| e.to_string())?;
    let cmp = PairComparison { real, synth };
    let fmt_rel = |e: Option<f64>| match e {
        Some(v) => format!("{:.1}%", 100.0 * v),
        None => "n/a (degenerate baseline)".to_string(),
    };
    let mut t = Table::new(vec!["metric".into(), "real".into(), "clone".into(), "error".into()]);
    t.row(vec![
        "IPC".into(),
        format!("{:.3}", cmp.real.report.ipc()),
        format!("{:.3}", cmp.synth.report.ipc()),
        fmt_rel(cmp.ipc_error_checked()),
    ]);
    t.row(vec![
        "power".into(),
        format!("{:.2}", cmp.real.power.average_power),
        format!("{:.2}", cmp.synth.power.average_power),
        fmt_rel(cmp.power_error_checked()),
    ]);
    t.row(vec![
        "L1D miss/instr".into(),
        format!("{:.4}", cmp.real.report.l1d_mpi()),
        format!("{:.4}", cmp.synth.report.l1d_mpi()),
        "-".into(),
    ]);
    t.row(vec![
        "bpred mispredict".into(),
        format!("{:.3}", cmp.real.report.bpred.mispredict_rate()),
        format!("{:.3}", cmp.synth.report.bpred.mispredict_rate()),
        "-".into(),
    ]);
    say!("{name} on {} :\n\n{}", config.name, t.render());
    // Durations come from the span registry (satisfying the same clock as
    // `--report`), so a `--jobs N` run prints consistent stage times.
    drop(span);
    if let Some(footer) = stage_footer() {
        say!("{footer}");
    }
    Ok(())
}

fn sweep(parsed: &Parsed) -> Result<(), String> {
    let (name, program) = kernel_program(parsed, 0)?;
    let profile = perfclone::profile_program(&program, u64::MAX).map_err(|e| e.to_string())?;
    let params = synth_params(parsed, &profile)?;
    let target_dynamic = params.target_dynamic;
    let clone =
        Cloner::with_params(params).clone_program_from(&profile).map_err(|e| e.to_string())?;
    let mut t = Table::new(vec!["config".into(), "MPI (real)".into(), "MPI (clone)".into()]);
    // Single-pass engine: each program's data trace is extracted once (the
    // two extractions fan over the installed `--jobs` pool) and all 28
    // configurations are evaluated by one stack-distance pass; the rows
    // come back in configuration order regardless of the thread count.
    let sweep_span = perfclone_obs::span!("cli.sweep");
    let start = std::time::Instant::now();
    let cmp = cache_sweep_pair(&program, &clone, &cache_sweep(), u64::MAX);
    let wall_ns = start.elapsed().as_nanos() as u64;
    drop(sweep_span);
    let configs = cmp.configs.len() as u64;
    // Each config re-evaluates both programs' reference streams, so the
    // sweep "represents" (real + clone) dynamic instructions per config.
    note_sweep(configs, wall_ns, (profile.total_instrs + target_dynamic) * configs);
    for ((cfg, r), s) in cmp.configs.iter().zip(&cmp.real_mpi).zip(&cmp.synth_mpi) {
        t.row(vec![cfg.to_string(), format!("{r:.5}"), format!("{s:.5}")]);
    }
    let pearson = cmp.correlation();
    note_metric("sweep.mpi.pearson", pearson);
    say!("{name} cache sweep:\n\n{}", t.render());
    say!("pearson r = {pearson:.3}");
    Ok(())
}

/// `perfclone dsweep <kernel>`: the Table-3 design-change timing sweep —
/// real program vs clone on the base machine and every single-parameter
/// design change. Both retired streams are captured once as packed traces
/// and replayed per configuration over the `--jobs` pool; a capture over
/// `PERFCLONE_TRACE_CAP` spills to disk and replays via mmap, and only a
/// failed spill makes the engine re-interpret per config, with
/// bit-identical results either way (CI runs this command under a tiny
/// cap and under a forced spill failure).
fn dsweep(parsed: &Parsed) -> Result<(), String> {
    let (name, program) = kernel_program(parsed, 0)?;
    let profile = perfclone::profile_program(&program, u64::MAX).map_err(|e| e.to_string())?;
    let params = synth_params(parsed, &profile)?;
    let target_dynamic = params.target_dynamic;
    let clone =
        Cloner::with_params(params).clone_program_from(&profile).map_err(|e| e.to_string())?;
    let sweep_span = perfclone_obs::span!("cli.dsweep");
    let start = std::time::Instant::now();
    let sweep = design_change_sweep(&program, &clone, &base_config(), u64::MAX)
        .map_err(|e| e.to_string())?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    drop(sweep_span);
    let configs = 1 + sweep.changes.len() as u64;
    note_sweep(configs, wall_ns, (profile.total_instrs + target_dynamic) * configs);
    let fmt_rel = |e: Option<f64>| match e {
        Some(v) => format!("{:.1}%", 100.0 * v),
        None => "n/a".to_string(),
    };
    let mut t = Table::new(vec![
        "config".into(),
        "IPC (real)".into(),
        "IPC (clone)".into(),
        "IPC err".into(),
        "power err".into(),
    ]);
    let mut rows = vec![(base_config(), &sweep.base_real, &sweep.base_synth)];
    rows.extend(sweep.changes.iter().map(|c| (c.config, &c.real, &c.synth)));
    for (config, real, synth) in rows {
        let cmp = PairComparison { real: real.clone(), synth: synth.clone() };
        t.row(vec![
            config.name.into(),
            format!("{:.3}", cmp.real.report.ipc()),
            format!("{:.3}", cmp.synth.report.ipc()),
            fmt_rel(cmp.ipc_error_checked()),
            fmt_rel(cmp.power_error_checked()),
        ]);
    }
    say!("{name} design-change sweep ({configs} configs):\n\n{}", t.render());
    if let Some(footer) = stage_footer() {
        say!("{footer}");
    }
    Ok(())
}

/// Restores the prior `HUMAN_TO_STDERR` value on drop (so `--stream`'s
/// stdout takeover never leaks past the subcommand).
struct HumanToStderrGuard(bool);

impl Drop for HumanToStderrGuard {
    fn drop(&mut self) {
        HUMAN_TO_STDERR.store(self.0, Ordering::Relaxed);
    }
}

/// `perfclone grid <kernel>`: the sharded, resumable design-space sweep.
/// Cells of the `--grid` axes product are timed by replaying the
/// workload's packed trace (spilled to disk and mmapped back when it
/// outgrows `PERFCLONE_TRACE_CAP`), shards are journaled atomically in
/// `--journal` as they complete, and rerunning with the same journal
/// resumes bit-identically, re-executing only incomplete shards. Rows
/// stream to stdout as JSON lines under `--stream`; the IPC-vs-power
/// Pareto frontier is updated per shard and printed at the end.
fn grid(parsed: &Parsed) -> Result<(), String> {
    use std::io::Write as _;
    let span = perfclone_obs::span!("cli.grid");
    let (name, program) = kernel_program(parsed, 0)?;
    let axes = match parsed.opt(&["--grid"]) {
        None | Some("small") => GridAxes::small(),
        Some("dense") => GridAxes::dense(),
        Some(other) => return Err(format!("unknown grid {other:?} (use small or dense)")),
    };
    let scale = match parsed.scale()? {
        perfclone_kernels::Scale::Tiny => "tiny",
        perfclone_kernels::Scale::Small => "small",
    };
    let spec = GridSpec {
        workload: name.clone(),
        scale: scale.to_string(),
        limit: parsed.opt_u64(&["--limit"])?.unwrap_or(u64::MAX),
        axes,
        max_cells: parsed.opt_u64(&["--cells"])?.unwrap_or(u64::MAX),
        shard_size: parsed.opt_u64(&["--shard"])?.unwrap_or(8),
    };
    let journal_dir = match parsed.opt(&["--journal"]) {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("perfclone-grid-{name}")),
    };
    let mut policy = GridPolicy {
        keep_going: parsed.keep_going(),
        cell_deadline: parsed.opt_u64(&["--cell-deadline"])?,
        seed: parsed.opt_u64(&["--seed"])?.unwrap_or(0),
        ..GridPolicy::default()
    };
    if let Some(retries) = parsed.opt_u64(&["--max-retries"])? {
        policy.max_retries =
            u32::try_from(retries).map_err(|_| "--max-retries is too large".to_string())?;
    }
    // The chaos harness's hook: deterministic per-cell faults from the
    // environment, None in ordinary runs.
    let injector = env_fault_injector();
    let stream = parsed.opt(&["--stream"]).is_some();
    let _stdout_guard =
        stream.then(|| HumanToStderrGuard(HUMAN_TO_STDERR.swap(true, Ordering::Relaxed)));
    let total_shards = spec.shard_count();
    say!(
        "{name} grid sweep: {} cells / {total_shards} shards (spec g{:016x}, journal {})",
        spec.cells(),
        spec.spec_hash(),
        journal_dir.display()
    );
    let cache = WorkloadCache::new();
    // Live telemetry: the sampler thread heartbeats JSONL on stderr and
    // accumulates the report's timeline. Stdout is untouched either way.
    let heartbeat_ms = parsed.heartbeat_ms()?;
    let sampler = (heartbeat_ms > 0).then(|| {
        Sampler::start(SamplerConfig {
            interval: std::time::Duration::from_millis(heartbeat_ms),
            emit_heartbeats: true,
            ..SamplerConfig::default()
        })
    });
    // (shards seen, rows so far) for progress lines and the running
    // frontier; shards land in arbitrary order, the merge is ordered.
    let progress = Mutex::new((0u64, Vec::<CellRow>::new()));
    let start = std::time::Instant::now();
    let outcome =
        run_grid_with(&program, &spec, &journal_dir, &cache, &policy, injector.as_deref(), |ev| {
            if stream {
                let mut out = std::io::stdout().lock();
                for row in ev.rows {
                    if let Ok(json) = serde_json::to_string(row) {
                        let _ = writeln!(out, "{json}");
                    }
                }
            }
            let mut g = match progress.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            g.0 += 1;
            g.1.extend_from_slice(ev.rows);
            let frontier = pareto_frontier(&g.1);
            let tag = if ev.resumed { "resumed" } else { "done" };
            say!(
                "shard {:>3}/{total_shards} {tag} (cells {}..{}); running pareto: {} points",
                g.0,
                ev.start,
                ev.end,
                frontier.len()
            );
        })
        .map_err(|e| e.to_string())?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    if let Some(sampler) = sampler {
        note_timeline(sampler.stop());
    }
    note_sweep(outcome.cells, wall_ns, outcome.rows.iter().map(|r| r.instrs).sum());
    note_metric("grid.shards.executed", outcome.executed_shards as f64);
    note_metric("grid.shards.skipped", outcome.skipped_shards as f64);
    note_metric("grid.pareto.points", outcome.pareto.len() as f64);
    note_metric("grid.trace.spilled", if outcome.spilled_trace { 1.0 } else { 0.0 });
    note_metric("grid.retries", outcome.retries as f64);
    note_metric("grid.quarantined", outcome.quarantined.len() as f64);
    note_metric("grid.shards.recovered", outcome.recovered_shards as f64);
    note_degraded(&outcome);
    if let Some(out) = parsed.opt(&["-o", "--out"]) {
        let mut text = String::new();
        for row in &outcome.rows {
            text.push_str(&serde_json::to_string(row).map_err(|e| e.to_string())?);
            text.push('\n');
        }
        std::fs::write(out, &text).map_err(|e| format!("writing {out}: {e}"))?;
        say!("merged rows -> {out}");
    }
    let mut t = Table::new(vec!["cell".into(), "id".into(), "IPC".into(), "power (W)".into()]);
    for p in &outcome.pareto {
        t.row(vec![
            p.cell.to_string(),
            p.id.clone(),
            format!("{:.3}", p.ipc),
            format!("{:.2}", p.power),
        ]);
    }
    say!(
        "{name} grid: {} cells ({} shards executed, {} resumed from journal{}).\n\n\
         IPC-vs-power Pareto frontier ({} points):\n\n{}",
        outcome.cells,
        outcome.executed_shards,
        outcome.skipped_shards,
        if outcome.spilled_trace { "; trace spilled to disk, replayed via mmap" } else { "" },
        outcome.pareto.len(),
        t.render()
    );
    if outcome.retries > 0 || outcome.recovered_shards > 0 {
        say!(
            "resilience: {} transient retr{} · {} journal record(s) recovered",
            outcome.retries,
            if outcome.retries == 1 { "y" } else { "ies" },
            outcome.recovered_shards
        );
    }
    if !outcome.quarantined.is_empty() {
        let mut q = Table::new(vec![
            "cell".into(),
            "id".into(),
            "kind".into(),
            "attempts".into(),
            "reason".into(),
        ]);
        for rec in &outcome.quarantined {
            q.row(vec![
                rec.cell.to_string(),
                rec.id.clone(),
                rec.kind.clone(),
                rec.attempts.to_string(),
                rec.reason.clone(),
            ]);
        }
        say!(
            "degraded coverage: {}/{} cells have rows; {} quarantined \
             (delete the journal's quarantine-*.json records to retry):\n\n{}",
            outcome.rows.len(),
            outcome.cells,
            outcome.quarantined.len(),
            q.render()
        );
    }
    drop(span);
    if let Some(footer) = stage_footer() {
        say!("{footer}");
    }
    Ok(())
}

fn disasm(parsed: &Parsed) -> Result<(), String> {
    let (_, program) = kernel_program(parsed, 0)?;
    say!("{}", perfclone_isa::disasm_program(&program));
    Ok(())
}

fn report(parsed: &Parsed) -> Result<(), String> {
    // File-path positional: pretty-print a saved `--report` document.
    // Kernel name: the workload characterization report, as before.
    if let Some(arg) = parsed.positional.first() {
        if std::path::Path::new(arg).is_file() {
            let json = std::fs::read_to_string(arg).map_err(|e| format!("reading {arg}: {e}"))?;
            let run = RunReport::from_json(&json).map_err(|e| format!("parsing {arg}: {e}"))?;
            say!("{}", run.render());
            return Ok(());
        }
    }
    let (_, program) = kernel_program(parsed, 0)?;
    let profile = perfclone::profile_program(&program, u64::MAX).map_err(|e| e.to_string())?;
    say!("{}", perfclone_profile::render_report(&profile));
    Ok(())
}

/// `perfclone clone <kernel>`: the dissemination flow end-to-end through
/// the shared [`WorkloadCache`] — profile, synthesize, and judge the clone
/// with the fidelity gate — optionally emitting the clone as C (`-o`) and
/// the run report (`--report`).
fn clone_kernel(parsed: &Parsed) -> Result<(), String> {
    let span = perfclone_obs::span!("cli.clone");
    let (name, program) = kernel_program(parsed, 0)?;
    let cache = WorkloadCache::new();
    let profile = cache.profile(&name, &program, u64::MAX).map_err(|e| e.to_string())?;
    let params = synth_params(parsed, &profile)?;
    // Routes through the cache's clone memo (which re-requests the profile
    // internally), so `--report` documents real hit rates.
    let clone =
        cache.clone_program(&name, &program, u64::MAX, &params).map_err(|e| e.to_string())?;
    let gate = Gate::default();
    let report = gate.report(&profile, &clone).map_err(|e| e.to_string())?;
    note_gate(&report);
    say!("{}", report.render());
    if let Some(out) = parsed.opt(&["-o", "--out"]) {
        std::fs::write(out, perfclone::emit_c(&clone))
            .map_err(|e| format!("writing {out}: {e}"))?;
        say!("clone C source -> {out}");
    }
    if report.verdict() == Verdict::Fail && !parsed.allow_degraded() {
        return Err(format!(
            "{} (rerun with --allow-degraded to continue)",
            report.failure_summary()
        ));
    }
    drop(span);
    if let Some(footer) = stage_footer() {
        say!("{footer}");
    }
    Ok(())
}

fn statsim(parsed: &Parsed) -> Result<(), String> {
    use perfclone_statsim::{synth_trace, TraceParams};
    let (name, program) = kernel_program(parsed, 0)?;
    let profile = perfclone::profile_program(&program, u64::MAX).map_err(|e| e.to_string())?;
    let mut tp = TraceParams {
        length: profile.total_instrs.clamp(100_000, 1_000_000),
        ..TraceParams::default()
    };
    if let Some(n) = parsed.opt_u64(&["--dynamic"])? {
        tp.length = n;
    }
    if let Some(s) = parsed.opt_u64(&["--seed"])? {
        tp.seed = s;
    }
    let trace = synth_trace(&profile, &tp).map_err(|e| e.to_string())?;
    let config = base_config();
    let real = run_timing(&program, &config, u64::MAX).map_err(|e| e.to_string())?;
    let synth = perfclone_uarch::Pipeline::new(config).run(trace);
    let mut t = Table::new(vec!["metric".into(), "real".into(), "statsim trace".into()]);
    t.row(vec!["IPC".into(), format!("{:.3}", real.report.ipc()), format!("{:.3}", synth.ipc())]);
    t.row(vec![
        "L1D miss/instr".into(),
        format!("{:.4}", real.report.l1d_mpi()),
        format!("{:.4}", synth.l1d_mpi()),
    ]);
    say!(
        "{name} statistical simulation ({} synthetic instrs):

{}",
        tp.length,
        t.render()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<(), String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&argv)
    }

    #[test]
    fn help_and_list_work() {
        run(&["help"]).unwrap();
        run(&["list"]).unwrap();
        run(&["configs"]).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["validate", "not-a-kernel"]).is_err());
    }

    #[test]
    fn profile_synth_round_trip() {
        let dir = std::env::temp_dir();
        let json = dir.join("cli_test_profile.json");
        let c = dir.join("cli_test_clone.c");
        let asm = dir.join("cli_test_clone.s");
        run(&["profile", "crc32", "--scale", "tiny", "-o", json.to_str().unwrap()]).unwrap();
        run(&[
            "synth",
            json.to_str().unwrap(),
            "-o",
            c.to_str().unwrap(),
            "--asm",
            asm.to_str().unwrap(),
            "--dynamic",
            "20000",
        ])
        .unwrap();
        let c_text = std::fs::read_to_string(&c).unwrap();
        assert!(c_text.contains("asm volatile"));
        let asm_text = std::fs::read_to_string(&asm).unwrap();
        assert!(asm_text.contains("halt"));
    }

    #[test]
    fn validate_runs_on_tiny_kernel() {
        run(&["validate", "bitcount", "--scale", "tiny", "--dynamic", "20000"]).unwrap();
    }

    #[test]
    fn dsweep_runs_on_tiny_kernel() {
        run(&["dsweep", "crc32", "--scale", "tiny", "--dynamic", "20000", "--jobs", "2"]).unwrap();
        assert!(run(&["dsweep", "not-a-kernel"]).is_err());
    }

    #[test]
    fn sweep_runs_with_explicit_jobs() {
        run(&["sweep", "crc32", "--scale", "tiny", "--dynamic", "20000", "--jobs", "2"]).unwrap();
        let e = run(&["sweep", "crc32", "--scale", "tiny", "--jobs", "0"]).unwrap_err();
        assert!(e.contains("--jobs"));
    }

    #[test]
    fn report_and_statsim_run_on_tiny_kernels() {
        run(&["report", "susan", "--scale", "tiny"]).unwrap();
        run(&["statsim", "crc32", "--scale", "tiny", "--dynamic", "20000"]).unwrap();
    }

    #[test]
    fn extended_kernels_are_reachable() {
        run(&["validate", "viterbi", "--scale", "tiny", "--dynamic", "20000"]).unwrap();
        run(&["disasm", "sobel", "--scale", "tiny"]).unwrap();
    }

    /// `--report` runs reset the process-global telemetry registry and
    /// share the extras slot, so they serialize on this lock.
    fn report_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn clone_writes_a_parseable_run_report() {
        let _g = report_lock();
        let path = std::env::temp_dir().join("cli_test_clone_report.json");
        run(&[
            "clone",
            "crc32",
            "--scale",
            "tiny",
            "--dynamic",
            "20000",
            "--report",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let report = RunReport::from_json(&json).unwrap();
        assert_eq!(report.command, "clone");
        assert_eq!(report.workload, "crc32");
        let stage = |n: &str| report.stages.iter().any(|s| s.name == n);
        assert!(stage("profile.collect"), "stages: {:?}", report.stages);
        assert!(stage("synth.gen"));
        assert!(stage("validate.gate"));
        // The clone memo re-requests the profile, so the profile cache
        // sees a hit.
        let profile_cache = report.caches.iter().find(|c| c.name == "profile").unwrap();
        assert!(profile_cache.lookups > profile_cache.computes);
        assert_eq!(report.gate.len(), 5, "gate: {:?}", report.gate);
        assert!(report.gate.iter().all(|a| a.delta.is_finite()));
        // And the saved document pretty-prints through `perfclone report`.
        run(&["report", path.to_str().unwrap()]).unwrap();
    }

    #[test]
    fn report_to_stdout_and_sweep_stats() {
        let _g = report_lock();
        run(&["clone", "crc32", "--scale", "tiny", "--dynamic", "20000", "--report", "-"]).unwrap();
        let path = std::env::temp_dir().join("cli_test_sweep_report.json");
        run(&[
            "sweep",
            "crc32",
            "--scale",
            "tiny",
            "--dynamic",
            "20000",
            "--jobs",
            "2",
            "--report",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let report = RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let sweep = report.sweep.expect("sweep stats populated");
        assert_eq!(sweep.configs, 28);
        assert!(sweep.configs_per_sec > 0.0);
        let pearson = report
            .metrics
            .iter()
            .find(|m| m.name == "sweep.mpi.pearson")
            .expect("pearson metric recorded")
            .value;
        // The printed r is the paper's Fig. 4 correlation of the same clone.
        let program = perfclone_kernels::by_name("crc32")
            .expect("bundled kernel")
            .build(perfclone_kernels::Scale::Tiny)
            .program;
        let profile = perfclone::profile_program(&program, u64::MAX).unwrap();
        let params = SynthesisParams { target_dynamic: 20_000, ..SynthesisParams::default() };
        let clone = Cloner::with_params(params).clone_program_from(&profile).unwrap();
        let r = cache_sweep_pair(&program, &clone, &cache_sweep(), u64::MAX).correlation();
        assert!((pearson - r).abs() < 1e-12, "CLI r = {pearson}, Fig. 4 r = {r}");
    }

    #[test]
    fn grid_sweeps_and_resumes_bit_identically() {
        let pid = std::process::id();
        let journal = std::env::temp_dir().join(format!("cli_test_grid_journal-{pid}"));
        let _ = std::fs::remove_dir_all(&journal);
        let out1 = std::env::temp_dir().join(format!("cli_test_grid_rows1-{pid}.jsonl"));
        let out2 = std::env::temp_dir().join(format!("cli_test_grid_rows2-{pid}.jsonl"));
        let args = |out: &std::path::Path| {
            vec![
                "grid".to_string(),
                "crc32".to_string(),
                "--scale".into(),
                "tiny".into(),
                "--limit".into(),
                "20000".into(),
                "--cells".into(),
                "8".into(),
                "--shard".into(),
                "3".into(),
                "--jobs".into(),
                "2".into(),
                "--journal".into(),
                journal.to_str().unwrap().into(),
                "-o".into(),
                out.to_str().unwrap().into(),
            ]
        };
        dispatch(&args(&out1)).unwrap();
        // Second run resumes from the full journal: every shard skipped,
        // merged rows byte-identical.
        dispatch(&args(&out2)).unwrap();
        let a = std::fs::read(&out1).unwrap();
        let b = std::fs::read(&out2).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "resumed rows must be bit-identical");
        assert_eq!(a.iter().filter(|&&c| c == b'\n').count(), 8, "one JSONL row per cell");
        let _ = std::fs::remove_dir_all(&journal);
        let _ = std::fs::remove_file(&out1);
        let _ = std::fs::remove_file(&out2);
    }

    #[test]
    fn bad_config_name_is_reported() {
        let e =
            run(&["validate", "crc32", "--scale", "tiny", "--config", "warp-drive"]).unwrap_err();
        assert!(e.contains("warp-drive"));
    }
}
