//! The paper's evaluation in one run: Figures 3–9, Table 3, ablations
//! A1–A6, extensions E1–E3 and the fidelity gate's verdicts, each printed
//! as the table EXPERIMENTS.md records.
//!
//! Every section reads one clone population. The results several sections
//! share are computed once per kernel: the real program and its clone
//! timed on nine configurations, and one 28-configuration L1-D sweep.
//! Programs that one section times on one configuration run live in that
//! section: A1's µarch-dependent clone, A2's merged clone, A6's seed
//! clones and E3's kernels.

use perfclone::experiments::{
    cache_sweep_pair, CacheSweepComparison, DesignChangeResult, DesignChangeSweep,
};
use perfclone::{
    base_config, cache_sweep, design_changes, pearson, rank, run_timing, run_timing_trace,
    spearman, sweep_trace, validate_pair, AddressTrace, BranchModel, Cloner, Fault, FaultPlan,
    Gate, MachineConfig, MemoryModel, PairComparison, SynthesisParams, Table, TimingResult,
    Verdict, WorkloadCache,
};
use perfclone_isa::Program;
use perfclone_kernels::{catalog, catalog_extended, Kernel, Scale};
use perfclone_sim::Simulator;
use perfclone_statsim::{synth_trace, TraceParams};
use perfclone_uarch::{
    simulate_dcache, simulate_hierarchy_trace, Assoc, BranchPredictor, CacheConfig, Pipeline,
    PredictorKind,
};
use rayon::prelude::*;

use crate::{
    emit_run_report, init_parallelism, kernels_from_env, mean, prepare_population,
    root_seed_from_env, scale_from_env, PreparedBench,
};

/// Index of design change 3 (doubled fetch/decode/issue width) in
/// [`DesignChangeSweep::changes`]: the change Figures 8 and 9 and A4 read.
const DOUBLE_WIDTH: usize = 2;

/// ROB sizes E2 sweeps beyond base (16) and design change 1 (32), which
/// it reads from the Table-3 cells.
const EXTRA_ROBS: [u32; 3] = [8, 64, 128];

/// A6's synthesis seeds, one clone each per kernel.
const A6_SEEDS: [u64; 5] = [1, 7, 42, 1234, 99999];

/// A6 clones' dynamic-length cap.
const A6_MAX_DYNAMIC: u64 = 1_000_000;

/// A4's statistical trace: length cap (statistical-simulation practice)
/// and RNG seed.
const A4_MAX_LENGTH: u64 = 1_000_000;
const A4_SEED: u64 = 11;

/// Regenerates the evaluation and prints every section to stdout, then
/// emits one run report (`bench.paper`) through `PERFCLONE_REPORT`. The
/// output is identical at any `PERFCLONE_JOBS`.
pub fn run() {
    init_parallelism();
    let scale = scale_from_env();
    let root = root_seed_from_env();
    let pop = prepare_population(&kernels_from_env(), scale, root);
    let cells = shared_cells(&pop);
    let mut metrics = Vec::new();
    for section in sections(&pop, &cells, scale, root) {
        print!("{}", section.render());
        metrics.extend(section.metrics);
    }
    emit_run_report("bench.paper", "suite", &metrics);
}

/// Every section, in EXPERIMENTS.md order.
fn sections(pop: &[PreparedBench], cells: &[Cells], scale: Scale, root: u64) -> Vec<Section> {
    vec![
        fig03(pop),
        fig04(pop, cells),
        fig05(cells),
        fig06(pop, cells),
        fig07(pop, cells),
        table3(cells),
        fig08(pop, cells),
        fig09(pop, cells),
        a1(pop, cells),
        a2(pop, cells),
        a3(pop, cells),
        a4(pop, cells),
        a5(pop),
        a6(pop, cells),
        e1(pop),
        e2(pop, cells),
        e3(scale, root),
        gate(pop),
    ]
}

/// One kernel's results that several sections read.
struct Cells {
    /// Real program and clone on base and the five Table-3 changes.
    design: DesignChangeSweep,
    /// Real program and clone at each of [`EXTRA_ROBS`].
    windows: Vec<DesignChangeResult>,
    /// The 28-configuration L1-D sweep.
    sweep: CacheSweepComparison,
}

/// E2's window point: ROB `rob`, LSQ half of it.
fn window_config(rob: u32) -> MachineConfig {
    MachineConfig {
        name: "window-sweep",
        rob_size: rob,
        lsq_size: (rob / 2).max(4),
        ..base_config()
    }
}

/// Times each kernel's program and clone on base, the five design changes
/// and [`EXTRA_ROBS`], and sweeps both over the L1-D configurations.
/// Kernels run one after another; a kernel's 18 timing cells fan over the
/// ambient pool and replay one capture per program from a cache dropped
/// before the next kernel, so peak memory holds one kernel's captures.
fn shared_cells(pop: &[PreparedBench]) -> Vec<Cells> {
    let base = base_config();
    let changes = design_changes();
    let windows = EXTRA_ROBS.map(window_config);
    let configs: Vec<&MachineConfig> =
        std::iter::once(&base).chain(&changes).chain(&windows).collect();
    let sweep_configs = cache_sweep();
    pop.iter()
        .map(|bench| {
            let name = bench.kernel.name();
            eprintln!("  timing {name} ...");
            let sweep = cache_sweep_pair(&bench.program, &bench.clone, &sweep_configs, u64::MAX);
            let clone_name = format!("{name}.clone");
            let cache = WorkloadCache::new();
            let cells: Vec<(&MachineConfig, &str, &Program)> = configs
                .iter()
                .flat_map(|&c| [(c, name, &bench.program), (c, clone_name.as_str(), &bench.clone)])
                .collect();
            let results: Vec<TimingResult> = cells
                .par_iter()
                .map(|&(config, key, program)| {
                    run_timing_trace(key, program, config, u64::MAX, &cache)
                        .expect("bundled kernels run cleanly")
                })
                .collect();
            let mut results = results.into_iter();
            let mut pairs = std::iter::from_fn(|| Some((results.next()?, results.next()?)));
            let (base_real, base_synth) = pairs.next().expect("a base cell per program");
            let mut rows = |configs: &[MachineConfig]| -> Vec<DesignChangeResult> {
                configs
                    .iter()
                    .zip(&mut pairs)
                    .map(|(&config, (real, synth))| DesignChangeResult { config, real, synth })
                    .collect()
            };
            let design = DesignChangeSweep { base_real, base_synth, changes: rows(&changes) };
            let windows = rows(&windows);
            Cells { design, windows, sweep }
        })
        .collect()
}

/// One printed table of the evaluation.
struct Section {
    title: String,
    table: Table,
    /// Lines printed after the table.
    notes: Vec<String>,
    /// Headline numbers for the run report.
    metrics: Vec<(String, f64)>,
}

impl Section {
    fn new(title: impl Into<String>, table: Table) -> Section {
        Section { title: title.into(), table, notes: Vec::new(), metrics: Vec::new() }
    }

    fn note(mut self, line: impl Into<String>) -> Section {
        self.notes.push(line.into());
        self
    }

    fn render(&self) -> String {
        let mut out = format!("\n{}\n\n{}\n", self.title, self.table.render());
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }
}

fn table(headers: &[&str]) -> Table {
    Table::new(headers.iter().map(|h| h.to_string()).collect())
}

fn pct1(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

fn pct2(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// The mean over rows of one column.
fn column_mean<T>(rows: &[T], column: impl Fn(&T) -> f64) -> f64 {
    mean(&rows.iter().map(column).collect::<Vec<_>>())
}

/// Mean absolute difference of two curves over the same points.
fn mean_abs_diff(real: &[f64], other: &[f64]) -> f64 {
    real.iter().zip(other).map(|(r, s)| (r - s).abs()).sum::<f64>() / real.len() as f64
}

/// `|other − real| / real`.
fn abs_error(real: f64, other: f64) -> f64 {
    ((other - real) / real).abs()
}

/// `r()` unless the real program's curve is flat: its values vary by less
/// than 15% of their peak over the sweep, or stay at zero. Pearson on a
/// flat curve (a pure streaming working set) is numerically meaningless,
/// so such a kernel is left out of correlation averages and judged by its
/// absolute error instead. The paper's population was chosen to be
/// cache-sensitive over its sweep, so every one of its points is the
/// correlated kind.
fn unless_flat(real: &[f64], r: impl FnOnce() -> f64) -> Option<f64> {
    let (lo, hi) = real.iter().fold((f64::INFINITY, 0.0f64), |(l, h), &v| (l.min(v), h.max(v)));
    let flat = hi <= 1e-9 || (hi - lo) / hi < 0.15;
    (!flat).then(r)
}

/// An [`unless_flat`] correlation as printed.
fn r_cell(r: Option<f64>) -> String {
    r.map_or_else(|| "flat".into(), |r| format!("{r:.3}"))
}

/// `f` over each kernel's population entry and shared cells, fanned over
/// the ambient pool; results come back in kernel order.
fn per_kernel<R: Send>(
    pop: &[PreparedBench],
    cells: &[Cells],
    f: impl Fn(&PreparedBench, &Cells) -> R + Sync,
) -> Vec<R> {
    let kernels: Vec<(&PreparedBench, &Cells)> = pop.iter().zip(cells).collect();
    kernels.par_iter().map(|&(bench, cells)| f(bench, cells)).collect()
}

/// Real and clone base results as one comparison.
fn base_pair(cells: &Cells) -> PairComparison {
    PairComparison { real: cells.design.base_real.clone(), synth: cells.design.base_synth.clone() }
}

fn fig03(pop: &[PreparedBench]) -> Section {
    let mut table = table(&["benchmark", "domain", "single-stride refs", "unique streams"]);
    let coverages: Vec<f64> = pop.iter().map(|b| b.profile.stride_coverage()).collect();
    let streams: Vec<f64> = pop.iter().map(|b| b.profile.unique_streams() as f64).collect();
    for (bench, cov) in pop.iter().zip(&coverages) {
        table.row(vec![
            bench.kernel.name().into(),
            bench.kernel.domain().to_string(),
            pct1(*cov),
            bench.profile.unique_streams().to_string(),
        ]);
    }
    table.row(vec![
        "average".into(),
        "-".into(),
        pct1(mean(&coverages)),
        format!("{:.1}", mean(&streams)),
    ]);
    Section::new(
        "Figure 3 — dynamic memory references covered by a single stride per static op",
        table,
    )
    .note(
        "(paper: >=90% for most MiBench/MediaBench programs; our population contains\n\
         more data-dependent table lookups, so irregular ops fall back to the\n\
         footprint walker during synthesis — see DESIGN.md)",
    )
}

fn fig04(pop: &[PreparedBench], cells: &[Cells]) -> Section {
    let mut table = table(&["benchmark", "pearson r", "sweep MAE", "unique streams"]);
    let mut rs = Vec::new();
    let mut maes = Vec::new();
    for (bench, cells) in pop.iter().zip(cells) {
        let sweep = &cells.sweep;
        let mae = mean_abs_diff(&sweep.real_mpi, &sweep.synth_mpi);
        maes.push(mae);
        let r = unless_flat(&sweep.real_mpi, || sweep.correlation());
        rs.extend(r);
        table.row(vec![
            bench.kernel.name().into(),
            r_cell(r),
            format!("{mae:.5}"),
            bench.profile.unique_streams().to_string(),
        ]);
    }
    table.row(vec![
        "average (non-flat)".into(),
        format!("{:.3}", mean(&rs)),
        format!("{:.5}", mean(&maes)),
        "-".into(),
    ]);
    Section::new("Figure 4 — Pearson correlation of real vs clone MPI over 28 cache configs", table)
        .note("(paper: average 0.93, minimum 0.80 on its worst benchmark)")
}

fn fig05(cells: &[Cells]) -> Section {
    let configs = cache_sweep();
    let n = configs.len();
    let mut real_rank_sum = vec![0.0f64; n];
    let mut synth_rank_sum = vec![0.0f64; n];
    for c in cells {
        let (rr, rs) = c.sweep.rankings();
        for i in 0..n {
            real_rank_sum[i] += rr[i];
            synth_rank_sum[i] += rs[i];
        }
    }
    let kernels = cells.len() as f64;
    let real_avg: Vec<f64> = real_rank_sum.iter().map(|s| s / kernels).collect();
    let synth_avg: Vec<f64> = synth_rank_sum.iter().map(|s| s / kernels).collect();
    // Re-rank the averages so both axes are 1..=28 as in the figure.
    let real_final = rank(&real_avg);
    let synth_final = rank(&synth_avg);
    let mut table = table(&["cache config", "rank (real)", "rank (clone)", "|delta|"]);
    let mut max_delta = 0.0f64;
    for i in 0..n {
        let d = (real_final[i] - synth_final[i]).abs();
        max_delta = max_delta.max(d);
        table.row(vec![
            configs[i].to_string(),
            format!("{:.1}", real_final[i]),
            format!("{:.1}", synth_final[i]),
            format!("{d:.1}"),
        ]);
    }
    Section::new("Figure 5 — cache-configuration ranking, real vs clone (45-degree scatter)", table)
        .note(format!(
            "rank correlation (spearman): {:.3}   max rank deviation: {:.1}",
            spearman(&real_final, &synth_final),
            max_delta
        ))
        .note("(paper: all points close to the 45-degree line through the origin)")
}

fn fig06(pop: &[PreparedBench], cells: &[Cells]) -> Section {
    let mut table = table(&["benchmark", "IPC (real)", "IPC (clone)", "abs error"]);
    let mut errors = Vec::new();
    let mut metrics = Vec::new();
    for (bench, cells) in pop.iter().zip(cells) {
        let name = bench.kernel.name();
        let cmp = base_pair(cells);
        let rendered = match cmp.ipc_error_checked() {
            Some(err) => {
                errors.push(err);
                metrics.push((format!("fig06.ipc.err.{name}"), err));
                pct1(err)
            }
            // A zero/non-finite baseline cannot anchor a relative error;
            // keep it out of the average instead of poisoning it.
            None => "n/a (degenerate baseline)".to_string(),
        };
        let (ri, si) = (cmp.real.report.ipc(), cmp.synth.report.ipc());
        table.row(vec![name.into(), format!("{ri:.3}"), format!("{si:.3}"), rendered]);
    }
    table.row(vec!["average".into(), "-".into(), "-".into(), pct2(mean(&errors))]);
    metrics.push(("fig06.ipc.err.mean".into(), mean(&errors)));
    let section =
        Section::new("Figure 6 — IPC on the base configuration, real vs synthetic clone", table)
            .note("(paper: average absolute IPC error 8.73%)");
    Section { metrics, ..section }
}

fn fig07(pop: &[PreparedBench], cells: &[Cells]) -> Section {
    let mut table = table(&["benchmark", "power (real)", "power (clone)", "abs error"]);
    let mut errors = Vec::new();
    let mut metrics = Vec::new();
    for (bench, cells) in pop.iter().zip(cells) {
        let name = bench.kernel.name();
        let cmp = base_pair(cells);
        let rendered = match cmp.power_error_checked() {
            Some(err) => {
                errors.push(err);
                metrics.push((format!("fig07.power.err.{name}"), err));
                pct1(err)
            }
            None => "n/a (degenerate baseline)".to_string(),
        };
        let (rp, sp) = (cmp.real.power.average_power, cmp.synth.power.average_power);
        table.row(vec![name.into(), format!("{rp:.2}"), format!("{sp:.2}"), rendered]);
    }
    table.row(vec!["average".into(), "-".into(), "-".into(), pct2(mean(&errors))]);
    metrics.push(("fig07.power.err.mean".into(), mean(&errors)));
    let section =
        Section::new("Figure 7 — power on the base configuration, real vs synthetic clone", table)
            .note("(paper: average absolute power error 6.44%)");
    Section { metrics, ..section }
}

fn table3(cells: &[Cells]) -> Section {
    let labels = [
        "1. double ROB + LSQ entries",
        "2. halve L1 D-cache",
        "3. double fetch/decode/issue width",
        "4. 2-level GAp -> not-taken predictor",
        "5. out-of-order -> in-order issue",
    ];
    let mut table = table(&["design change", "avg rel. error IPC", "avg rel. error power"]);
    let mut all_ipc = Vec::new();
    let mut all_pow = Vec::new();
    for (i, (label, config)) in labels.iter().zip(design_changes()).enumerate() {
        let ipc: Vec<f64> = cells.iter().map(|c| c.design.ipc_relative_error(i)).collect();
        let pow: Vec<f64> = cells.iter().map(|c| c.design.power_relative_error(i)).collect();
        let (mi, mp) = (mean(&ipc), mean(&pow));
        all_ipc.push(mi);
        all_pow.push(mp);
        table.row(vec![format!("{label} ({})", config.name), pct2(mi), pct2(mp)]);
    }
    table.row(vec!["average".into(), pct2(mean(&all_ipc)), pct2(mean(&all_pow))]);
    Section::new("Table 3 — relative error of the clone under five design changes", table).note(
        "(paper: IPC 5.81/1.48/5.41/6.51/3.26%, avg 4.49%; power 3.41/0.39/4.59/1.80/1.22%, avg 2.28%)",
    )
}

fn fig08(pop: &[PreparedBench], cells: &[Cells]) -> Section {
    let mut table = table(&["benchmark", "speedup (real)", "speedup (clone)"]);
    let mut real_sp = Vec::new();
    let mut synth_sp = Vec::new();
    for (bench, cells) in pop.iter().zip(cells) {
        let d = &cells.design;
        let wide = &d.changes[DOUBLE_WIDTH];
        let real = wide.real.report.ipc() / d.base_real.report.ipc();
        let synth = wide.synth.report.ipc() / d.base_synth.report.ipc();
        real_sp.push(real);
        synth_sp.push(synth);
        table.row(vec![bench.kernel.name().into(), format!("{real:.3}"), format!("{synth:.3}")]);
    }
    table.row(vec![
        "average".into(),
        format!("{:.3}", mean(&real_sp)),
        format!("{:.3}", mean(&synth_sp)),
    ]);
    Section::new("Figure 8 — IPC speedup from doubling fetch/decode/issue width", table)
        .note("(paper: average real speedup 1.72, tracked closely by the clones)")
}

fn fig09(pop: &[PreparedBench], cells: &[Cells]) -> Section {
    let mut table = table(&["benchmark", "power increase (real)", "power increase (clone)"]);
    let mut real_inc = Vec::new();
    let mut synth_inc = Vec::new();
    for (bench, cells) in pop.iter().zip(cells) {
        let d = &cells.design;
        let wide = &d.changes[DOUBLE_WIDTH];
        let real = wide.real.power.average_power / d.base_real.power.average_power - 1.0;
        let synth = wide.synth.power.average_power / d.base_synth.power.average_power - 1.0;
        real_inc.push(real);
        synth_inc.push(synth);
        table.row(vec![bench.kernel.name().into(), pct1(real), pct1(synth)]);
    }
    table.row(vec!["average".into(), pct1(mean(&real_inc)), pct1(mean(&synth_inc))]);
    Section::new("Figure 9 — power increase from doubling fetch/decode/issue width", table)
        .note("(paper: clones track the per-benchmark power increase closely)")
}

/// Misses per instruction of `program` over the Figure-4 configurations.
fn l1_mpi(program: &Program) -> Vec<f64> {
    let trace = AddressTrace::extract(program, u64::MAX);
    sweep_trace(&trace, &cache_sweep()).iter().map(|pt| pt.mpi()).collect()
}

fn a1(pop: &[PreparedBench], cells: &[Cells]) -> Section {
    let base = base_config();
    let reference = base.l1d;
    // Per kernel: r of the population clone, r of the µarch-dependent
    // clone, and their misprediction-rate errors under the base predictor.
    let rows: Vec<(Option<f64>, Option<f64>, f64, f64)> = per_kernel(pop, cells, |bench, cells| {
        // Calibrate the prior-work baseline on the reference cache.
        let ref_point = simulate_dcache(&bench.program, reference, u64::MAX);
        let miss_rate = if ref_point.accesses == 0 {
            0.0
        } else {
            ref_point.misses as f64 / ref_point.accesses as f64
        };
        let params = SynthesisParams {
            memory_model: MemoryModel::MissRateTarget {
                miss_rate,
                line_bytes: reference.line_bytes,
            },
            branch_model: BranchModel::TakenRateOnly,
            ..bench.params
        };
        let dep_clone =
            Cloner::with_params(params).clone_program_from(&bench.profile).expect("synthesize");
        let sweep = &cells.sweep;
        let dep = CacheSweepComparison { synth_mpi: l1_mpi(&dep_clone), ..sweep.clone() };
        let bp = |t: &TimingResult| t.report.bpred.mispredict_rate();
        let real_bp = bp(&cells.design.base_real);
        let dep_bp = bp(&run_timing(&dep_clone, &base, u64::MAX).expect("timing"));
        (
            unless_flat(&sweep.real_mpi, || sweep.correlation()),
            unless_flat(&dep.real_mpi, || dep.correlation()),
            (bp(&cells.design.base_synth) - real_bp).abs(),
            (dep_bp - real_bp).abs(),
        )
    });
    let mut table =
        table(&["benchmark", "r (uarch-indep)", "r (uarch-dep)", "bp err indep", "bp err dep"]);
    for (bench, &(ri, rd, bi, bd)) in pop.iter().zip(&rows) {
        table.row(vec![
            bench.kernel.name().into(),
            r_cell(ri),
            r_cell(rd),
            format!("{bi:.3}"),
            format!("{bd:.3}"),
        ]);
    }
    let r_indep: Vec<f64> = rows.iter().filter_map(|r| r.0).collect();
    let r_dep: Vec<f64> = rows.iter().filter_map(|r| r.1).collect();
    table.row(vec![
        "average (r non-flat)".into(),
        format!("{:.3}", mean(&r_indep)),
        format!("{:.3}", mean(&r_dep)),
        format!("{:.3}", column_mean(&rows, |r| r.2)),
        format!("{:.3}", column_mean(&rows, |r| r.3)),
    ]);
    Section::new("Ablation A1 — microarchitecture-independent vs -dependent clone models", table)
        .note(
            "(the paper's motivation: workloads generated from microarchitecture-dependent\n\
         attributes yield large errors when cache/branch configurations change)",
        )
}

fn a2(pop: &[PreparedBench], cells: &[Cells]) -> Section {
    let base = base_config();
    let rows: Vec<(f64, f64)> = per_kernel(pop, cells, |bench, cells| {
        let params = SynthesisParams { context_sensitive: false, ..bench.params };
        let merged =
            Cloner::with_params(params).clone_program_from(&bench.profile).expect("synthesize");
        let real = cells.design.base_real.report.ipc();
        let ctx = cells.design.base_synth.report.ipc();
        let merged = run_timing(&merged, &base, u64::MAX).expect("timing").report.ipc();
        (abs_error(real, ctx), abs_error(real, merged))
    });
    let mut table = table(&["benchmark", "IPC err (context)", "IPC err (merged)"]);
    for (bench, &(ce, me)) in pop.iter().zip(&rows) {
        table.row(vec![bench.kernel.name().into(), pct1(ce), pct1(me)]);
    }
    table.row(vec![
        "average".into(),
        pct2(column_mean(&rows, |r| r.0)),
        pct2(column_mean(&rows, |r| r.1)),
    ]);
    Section::new("Ablation A2 — per-(pred,succ) context vs merged dependency statistics", table)
}

fn a3(pop: &[PreparedBench], cells: &[Cells]) -> Section {
    let mut rows: Vec<(usize, Option<f64>, &str)> = pop
        .iter()
        .zip(cells)
        .map(|(bench, cells)| {
            let sweep = &cells.sweep;
            (
                bench.profile.unique_streams(),
                unless_flat(&sweep.real_mpi, || sweep.correlation()),
                bench.kernel.name(),
            )
        })
        .collect();
    rows.sort_by_key(|r| r.0);
    let mut table = table(&["benchmark", "unique streams", "pearson r"]);
    for &(streams, r, name) in &rows {
        table.row(vec![name.into(), streams.to_string(), r_cell(r)]);
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) =
        rows.iter().filter_map(|&(streams, r, _)| Some((streams as f64, r?))).unzip();
    Section::new("Ablation A3 — cache correlation vs number of unique streams", table)
        .note(format!("correlation(streams, r), non-flat rows = {:.3}", pearson(&xs, &ys)))
        .note("(paper: programs needing more unique streams clone less accurately)")
}

fn a4(pop: &[PreparedBench], cells: &[Cells]) -> Section {
    let base = base_config();
    // Per kernel: base IPC error and 2x-width speedup error of the clone
    // and of a statistical-simulation trace from the same profile.
    let rows: Vec<[f64; 4]> = per_kernel(pop, cells, |bench, cells| {
        let params = TraceParams {
            length: bench.profile.total_instrs.clamp(100_000, A4_MAX_LENGTH),
            seed: A4_SEED,
        };
        let trace = synth_trace(&bench.profile, &params).expect("trace");
        let d = &cells.design;
        let wide = &d.changes[DOUBLE_WIDTH];
        let (real_b, real_w) = (d.base_real.report.ipc(), wide.real.report.ipc());
        let (clone_b, clone_w) = (d.base_synth.report.ipc(), wide.synth.report.ipc());
        let trace_b = Pipeline::new(base).run(trace.iter().copied()).ipc();
        let trace_w = Pipeline::new(wide.config).run(trace.iter().copied()).ipc();
        let real_sp = real_w / real_b;
        [
            abs_error(real_b, clone_b),
            abs_error(real_b, trace_b),
            abs_error(real_sp, clone_w / clone_b),
            abs_error(real_sp, trace_w / trace_b),
        ]
    });
    let mut table = table(&[
        "benchmark",
        "IPC err (clone)",
        "IPC err (statsim)",
        "speedup err (clone)",
        "speedup err (statsim)",
    ]);
    for (bench, row) in pop.iter().zip(&rows) {
        let mut cells = vec![bench.kernel.name().to_string()];
        cells.extend(row.iter().map(|&e| pct1(e)));
        table.row(cells);
    }
    let mut average = vec!["average".to_string()];
    average.extend((0..4).map(|i| pct2(column_mean(&rows, |r| r[i]))));
    table.row(average);
    Section::new("Ablation A4 — executable clone vs statistical-simulation trace", table).note(
        "(both consume the same profile; the clone is compilable and shippable,\n\
         the trace is simulator-only — the paper's positioning in its section 2)",
    )
}

/// A5's predictor population, weakest to strongest.
fn predictors() -> [PredictorKind; 10] {
    [
        PredictorKind::NotTaken,
        PredictorKind::Taken,
        PredictorKind::Bimodal { table_bits: 6 },
        PredictorKind::Bimodal { table_bits: 9 },
        PredictorKind::Bimodal { table_bits: 12 },
        PredictorKind::Gshare { history_bits: 8 },
        PredictorKind::Gshare { history_bits: 12 },
        PredictorKind::TwoLevelGAp { history_bits: 6, addr_bits: 4 },
        PredictorKind::TwoLevelGAp { history_bits: 8, addr_bits: 4 },
        PredictorKind::TwoLevelGAp { history_bits: 10, addr_bits: 6 },
    ]
}

/// `program`'s misprediction rate under each of [`predictors`]: one
/// functional run feeds every predictor, and each keeps its own state, so
/// each rate equals that of a run of its own.
fn mispredict_rates(program: &Program) -> Vec<f64> {
    let mut bps = predictors().map(BranchPredictor::new);
    for d in Simulator::trace(program, u64::MAX) {
        if d.instr.is_cond_branch() {
            for bp in &mut bps {
                bp.predict_and_update(d.pc, d.taken);
            }
        }
    }
    bps.iter().map(|bp| bp.stats().mispredict_rate()).collect()
}

fn a5(pop: &[PreparedBench]) -> Section {
    let rows: Vec<(f64, f64)> = pop
        .par_iter()
        .map(|bench| {
            let real = mispredict_rates(&bench.program);
            let synth = mispredict_rates(&bench.clone);
            (pearson(&real, &synth), mean_abs_diff(&real, &synth))
        })
        .collect();
    let mut table = table(&["benchmark", "pearson r", "mean |delta| mispredict"]);
    for (bench, &(r, d)) in pop.iter().zip(&rows) {
        table.row(vec![bench.kernel.name().into(), format!("{r:.3}"), format!("{d:.4}")]);
    }
    table.row(vec![
        "average".into(),
        format!("{:.3}", column_mean(&rows, |r| r.0)),
        format!("{:.4}", column_mean(&rows, |r| r.1)),
    ]);
    Section::new("Ablation A5 — misprediction tracking across 10 branch predictor designs", table)
        .note("(the clone must track the original across predictors, §3.1.5)")
}

fn a6(pop: &[PreparedBench], cells: &[Cells]) -> Section {
    let base = base_config();
    let clone_ipcs: Vec<Vec<f64>> = pop
        .par_iter()
        .map(|bench| {
            A6_SEEDS
                .iter()
                .map(|&seed| {
                    let params = SynthesisParams {
                        seed,
                        target_dynamic: bench.profile.total_instrs.clamp(100_000, A6_MAX_DYNAMIC),
                        ..SynthesisParams::default()
                    };
                    let clone = Cloner::with_params(params)
                        .clone_program_from(&bench.profile)
                        .expect("synthesize");
                    run_timing(&clone, &base, u64::MAX).expect("timing").report.ipc()
                })
                .collect()
        })
        .collect();
    let mut table =
        table(&["benchmark", "IPC (real)", "clone IPC mean", "clone IPC stddev", "seed spread"]);
    let mut spreads = Vec::new();
    for ((bench, cells), ipcs) in pop.iter().zip(cells).zip(&clone_ipcs) {
        let real = cells.design.base_real.report.ipc();
        let m = mean(ipcs);
        let var = ipcs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / ipcs.len() as f64;
        let sd = var.sqrt();
        let spread = (ipcs.iter().cloned().fold(0.0f64, f64::max)
            - ipcs.iter().cloned().fold(f64::INFINITY, f64::min))
            / m;
        spreads.push(spread);
        table.row(vec![
            bench.kernel.name().into(),
            format!("{real:.3}"),
            format!("{m:.3}"),
            format!("{sd:.4}"),
            pct1(spread),
        ]);
    }
    table.row(vec!["average".into(), "-".into(), "-".into(), "-".into(), pct2(mean(&spreads))]);
    Section::new("Ablation A6 — clone IPC spread over 5 synthesis seeds", table)
        .note("(a small spread means results do not hinge on one lucky seed)")
}

/// E1's unified-L2 configurations: 32 KB–512 KB × {2, 4, 8}-way.
fn l2_sweep() -> Vec<CacheConfig> {
    let mut out = Vec::new();
    let mut size = 32 * 1024u64;
    while size <= 512 * 1024 {
        for ways in [2u32, 4, 8] {
            out.push(CacheConfig::new(size, Assoc::Ways(ways), 64));
        }
        size *= 2;
    }
    out
}

fn e1(pop: &[PreparedBench]) -> Section {
    let l1 = base_config().l1d;
    let configs = l2_sweep();
    // One functional simulation per program; every (L1, L2) pair replays
    // the same extracted trace.
    let l2_mpi = |program: &Program| -> Vec<f64> {
        let trace = AddressTrace::extract(program, u64::MAX);
        configs.iter().map(|c| simulate_hierarchy_trace(&trace, l1, *c).l2_mpi()).collect()
    };
    let rows: Vec<(Option<f64>, f64)> = pop
        .par_iter()
        .map(|bench| {
            let real = l2_mpi(&bench.program);
            let synth = l2_mpi(&bench.clone);
            (unless_flat(&real, || pearson(&real, &synth)), mean_abs_diff(&real, &synth))
        })
        .collect();
    let mut table = table(&["benchmark", "pearson r", "sweep MAE"]);
    for (bench, &(r, mae)) in pop.iter().zip(&rows) {
        table.row(vec![bench.kernel.name().into(), r_cell(r), format!("{mae:.5}")]);
    }
    let rs: Vec<f64> = rows.iter().filter_map(|r| r.0).collect();
    table.row(vec!["average (non-flat)".into(), format!("{:.3}", mean(&rs)), "-".into()]);
    Section::new(
        format!("Extension E1 — L2 sweep ({} configurations, L1 fixed at Table 2)", configs.len()),
        table,
    )
}

fn e2(pop: &[PreparedBench], cells: &[Cells]) -> Section {
    let mut table = table(&["benchmark", "pearson r", "max IPC err"]);
    let mut rs = Vec::new();
    let mut worst = Vec::new();
    for (bench, cells) in pop.iter().zip(cells) {
        let (d, w) = (&cells.design, &cells.windows);
        // ROB 8, 16 (base), 32 (design change 1), 64 and 128.
        let points = [
            (&w[0].real, &w[0].synth),
            (&d.base_real, &d.base_synth),
            (&d.changes[0].real, &d.changes[0].synth),
            (&w[1].real, &w[1].synth),
            (&w[2].real, &w[2].synth),
        ];
        let real: Vec<f64> = points.iter().map(|p| p.0.report.ipc()).collect();
        let synth: Vec<f64> = points.iter().map(|p| p.1.report.ipc()).collect();
        let r = pearson(&real, &synth);
        let w = real.iter().zip(&synth).map(|(&a, &b)| abs_error(a, b)).fold(0.0f64, f64::max);
        rs.push(r);
        worst.push(w);
        table.row(vec![bench.kernel.name().into(), format!("{r:.3}"), pct1(w)]);
    }
    table.row(vec!["average".into(), format!("{:.3}", mean(&rs)), pct1(mean(&worst))]);
    Section::new("Extension E2 — IPC tracking across ROB sizes 8-128", table)
}

fn e3(scale: Scale, root: u64) -> Section {
    // The five kernels past the main catalog, which the models were never
    // tuned against.
    let extended: Vec<&'static Kernel> = catalog_extended().iter().skip(catalog().len()).collect();
    let pop = prepare_population(&extended, scale, root);
    let base = base_config();
    let pairs: Vec<PairComparison> = pop
        .par_iter()
        .map(|b| validate_pair(&b.program, &b.clone, &base, u64::MAX).expect("timing"))
        .collect();
    let mut table = table(&["kernel", "IPC (real)", "IPC (clone)", "IPC err", "power err"]);
    let mut ipc_errs = Vec::new();
    let mut pow_errs = Vec::new();
    for (bench, cmp) in pop.iter().zip(&pairs) {
        let (ie, pe) = (cmp.ipc_error(), cmp.power_error());
        ipc_errs.push(ie);
        pow_errs.push(pe);
        table.row(vec![
            bench.kernel.name().into(),
            format!("{:.3}", cmp.real.report.ipc()),
            format!("{:.3}", cmp.synth.report.ipc()),
            pct1(ie),
            pct1(pe),
        ]);
    }
    table.row(vec![
        "average".into(),
        "-".into(),
        "-".into(),
        pct2(mean(&ipc_errs)),
        pct2(mean(&pow_errs)),
    ]);
    Section::new("Extension E3 — clone quality on the out-of-population kernels", table).note(
        "(models were never tuned against these five; errors comparable to Fig. 6\n \
         means the microarchitecture-independent models generalize)",
    )
}

/// `pass/warn/fail` counts.
fn tally(verdicts: impl Iterator<Item = Verdict>) -> String {
    let mut counts = [0usize; 3];
    for v in verdicts {
        counts[v as usize] += 1;
    }
    format!("{}/{}/{}", counts[0], counts[1], counts[2])
}

fn gate(pop: &[PreparedBench]) -> Section {
    let gate = Gate::default();
    // Per kernel: the gate's report on the clone, and its verdict on a
    // clone of the profile with every stream's stride zeroed (None when
    // that profile does not synthesize).
    let rows: Vec<(perfclone::ValidationReport, Option<Verdict>)> = pop
        .par_iter()
        .map(|bench| {
            let report = gate.report(&bench.profile, &bench.clone).expect("gate");
            let faulty = FaultPlan::single(1, Fault::ZeroStrideStreams).apply(&bench.profile);
            let fault = Cloner::with_params(bench.params)
                .clone_program_from(&faulty)
                .ok()
                .map(|clone| gate.report(&bench.profile, &clone).expect("gate").verdict());
            (report, fault)
        })
        .collect();
    let mut table = table(&[
        "benchmark",
        "verdict",
        "mix",
        "deps",
        "streams",
        "taken",
        "transition",
        "zero-stride clone",
    ]);
    for (bench, (report, fault)) in pop.iter().zip(&rows) {
        let mut row = vec![bench.kernel.name().to_string(), report.verdict().label().into()];
        row.extend(report.attributes.iter().map(|a| format!("{:.2}", a.delta)));
        row.push(fault.map_or("rejected", |v| v.label()).into());
        table.row(row);
    }
    let mut totals = vec!["pass/warn/fail".to_string(), tally(rows.iter().map(|r| r.0.verdict()))];
    totals.extend(["-"; 5].map(String::from));
    totals.push(tally(rows.iter().filter_map(|r| r.1)));
    table.row(totals);
    Section::new(
        "Fidelity gate — verdict and attribute deltas per clone, and on a zero-stride clone",
        table,
    )
    .note(
        "(zero-stride clone: synthesized from the profile with every stream's stride set to\n\
         zero, a fault the gate should fail)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfclone::experiments::design_change_sweep;
    use perfclone_kernels::by_name;

    fn bits(t: &TimingResult) -> (u64, u64) {
        (t.report.ipc().to_bits(), t.power.average_power.to_bits())
    }

    /// The whitespace-split row of `section`'s table that starts with `name`.
    fn row(section: &Section, name: &str) -> Vec<String> {
        let text = section.table.render();
        let row = text.lines().find(|l| l.split_whitespace().next() == Some(name));
        let row = row.unwrap_or_else(|| panic!("no {name} row in {}", section.title));
        row.split_whitespace().map(String::from).collect()
    }

    /// The shared cells equal what `design_change_sweep`, `run_timing` and
    /// `cache_sweep_pair` return, bit for bit; Figures 6–9 print those
    /// values; and every table has its rows. basicmath's real miss curve is
    /// flat at Tiny, so the flat rows are covered too.
    #[test]
    fn shared_cells_equal_the_direct_calls() {
        let kernels = ["basicmath", "crc32"].map(|k| by_name(k).expect("catalog kernel"));
        let root = 0x5EED;
        let pop = prepare_population(&kernels, Scale::Tiny, root);
        let cells = shared_cells(&pop);
        let sections = sections(&pop, &cells, Scale::Tiny, root);
        let section = |prefix: &str| {
            sections.iter().find(|s| s.title.starts_with(prefix)).expect("section exists")
        };
        for (bench, cells) in pop.iter().zip(&cells) {
            let (program, clone) = (&bench.program, &bench.clone);
            let direct = design_change_sweep(program, clone, &base_config(), u64::MAX).unwrap();
            let shared = &cells.design;
            assert_eq!(bits(&shared.base_real), bits(&direct.base_real));
            assert_eq!(bits(&shared.base_synth), bits(&direct.base_synth));
            assert_eq!(shared.changes.len(), 5);
            for (s, d) in shared.changes.iter().zip(&direct.changes) {
                assert_eq!(s.config, d.config);
                assert_eq!((bits(&s.real), bits(&s.synth)), (bits(&d.real), bits(&d.synth)));
            }
            let rob8 = &cells.windows[0];
            assert_eq!(rob8.config, window_config(8));
            assert_eq!(
                bits(&rob8.real),
                bits(&run_timing(program, &rob8.config, u64::MAX).unwrap())
            );
            assert_eq!(
                bits(&rob8.synth),
                bits(&run_timing(clone, &rob8.config, u64::MAX).unwrap())
            );
            let sweep = cache_sweep_pair(program, clone, &cache_sweep(), u64::MAX);
            let mpi_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(mpi_bits(&cells.sweep.real_mpi), mpi_bits(&sweep.real_mpi));
            assert_eq!(mpi_bits(&cells.sweep.synth_mpi), mpi_bits(&sweep.synth_mpi));

            let name = bench.kernel.name();
            let (ipc, power) =
                (|t: &TimingResult| t.report.ipc(), |t: &TimingResult| t.power.average_power);
            let wide = &direct.changes[DOUBLE_WIDTH];
            let expect = |cols: [String; 2]| [vec![name.to_string()], cols.to_vec()].concat();
            assert_eq!(
                row(section("Figure 6"), name)[..3],
                expect([
                    format!("{:.3}", ipc(&direct.base_real)),
                    format!("{:.3}", ipc(&direct.base_synth))
                ])
            );
            assert_eq!(
                row(section("Figure 7"), name)[..3],
                expect([
                    format!("{:.2}", power(&direct.base_real)),
                    format!("{:.2}", power(&direct.base_synth))
                ])
            );
            assert_eq!(
                row(section("Figure 8"), name),
                expect([
                    format!("{:.3}", ipc(&wide.real) / ipc(&direct.base_real)),
                    format!("{:.3}", ipc(&wide.synth) / ipc(&direct.base_synth)),
                ])
            );
            assert_eq!(
                row(section("Figure 9"), name),
                expect([
                    pct1(power(&wide.real) / power(&direct.base_real) - 1.0),
                    pct1(power(&wide.synth) / power(&direct.base_synth) - 1.0),
                ])
            );
        }
        assert_eq!(row(section("Figure 4"), "basicmath")[1], "flat");
        // One row per kernel plus a summary row, except where a table's rows
        // are not kernels or its summary is a note.
        assert_eq!(sections.len(), 18);
        for s in &sections {
            let rows = match s.title.split(" — ").next().unwrap() {
                "Figure 5" => cache_sweep().len(),
                "Table 3" => 5 + 1,
                "Extension E3" => 5 + 1,
                "Ablation A3" => pop.len(),
                _ => pop.len() + 1,
            };
            assert_eq!(s.table.len(), rows, "{}", s.title);
        }
    }
}
