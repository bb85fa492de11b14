//! # perfclone-bench
//!
//! Shared machinery for the bench targets that regenerate every table and
//! figure of the paper's evaluation (§5). Each `benches/*.rs` binary is a
//! plain `harness = false` main that builds the benchmark population,
//! clones it, runs the experiment, and prints the same rows/series the
//! paper reports.
//!
//! Environment knobs:
//!
//! * `PERFCLONE_SCALE` — `tiny` (fast smoke runs) or `small` (default; the
//!   paper-scale inputs, ~0.5-2 M dynamic instructions per kernel),
//! * `PERFCLONE_KERNELS` — comma-separated kernel names to restrict the
//!   population (default: all 23; an unknown name is an error),
//! * `PERFCLONE_JOBS` — worker threads for the parallel experiment paths
//!   (default: all cores; results are identical at any thread count),
//! * `PERFCLONE_SEED` — root seed from which each kernel's synthesis seed
//!   is derived (default: the synthesizer's default seed),
//! * `PERFCLONE_REPORT` — destination for a machine-readable [`RunReport`]
//!   of the experiment (`-` = stdout); same schema as the CLI's `--report`.

use perfclone::{
    derive_cell_seed, run_timing_trace, Cloner, MachineConfig, SynthesisParams, TimingResult,
    WorkloadCache, WorkloadProfile,
};
use perfclone_isa::Program;
use perfclone_kernels::{catalog, Kernel, Scale};
use perfclone_obs::{Metric, RunReport};

/// One prepared benchmark: the original program, its profile, and its
/// synthesized clone.
pub struct PreparedBench {
    /// The kernel descriptor.
    pub kernel: &'static Kernel,
    /// The original ("proprietary") program.
    pub program: Program,
    /// The microarchitecture-independent profile.
    pub profile: WorkloadProfile,
    /// The synthetic benchmark clone.
    pub clone: Program,
}

/// Reads the input scale from `PERFCLONE_SCALE` (default: small).
pub fn scale_from_env() -> Scale {
    match std::env::var("PERFCLONE_SCALE").as_deref() {
        Ok("tiny") | Ok("Tiny") | Ok("TINY") => Scale::Tiny,
        _ => Scale::Small,
    }
}

/// Reads the worker-thread count from `PERFCLONE_JOBS` (default: the
/// machine's available parallelism).
pub fn jobs_from_env() -> usize {
    std::env::var("PERFCLONE_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Reads the experiments' root seed from `PERFCLONE_SEED` (default: the
/// synthesizer's default seed). Per-kernel seeds are derived from it.
pub fn root_seed_from_env() -> u64 {
    std::env::var("PERFCLONE_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(SynthesisParams::default().seed)
}

/// Makes `PERFCLONE_JOBS` the ambient parallelism for the experiment run.
/// Call once at the top of a bench `main`.
pub fn init_parallelism() {
    let _ = rayon::ThreadPoolBuilder::new().num_threads(jobs_from_env()).build_global();
}

/// The kernel population, optionally restricted via `PERFCLONE_KERNELS`.
///
/// # Panics
///
/// Panics, naming them, when the list holds names the catalog lacks: a
/// typo would otherwise shrink the population without a word.
pub fn kernels_from_env() -> Vec<&'static Kernel> {
    let list = std::env::var("PERFCLONE_KERNELS").unwrap_or_default();
    select_kernels(&list).unwrap_or_else(|e| panic!("PERFCLONE_KERNELS: {e}"))
}

/// The catalog kernels a comma-separated list names, in catalog order; a
/// blank list selects them all.
fn select_kernels(list: &str) -> Result<Vec<&'static Kernel>, String> {
    if list.trim().is_empty() {
        return Ok(catalog().iter().collect());
    }
    let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
    let unknown: Vec<&str> =
        wanted.iter().copied().filter(|w| catalog().iter().all(|k| k.name() != *w)).collect();
    if !unknown.is_empty() {
        return Err(format!("unknown kernel(s) {unknown:?} (`perfclone list` names them all)"));
    }
    Ok(catalog().iter().filter(|k| wanted.contains(&k.name())).collect())
}

/// The replay benches' shared configuration set: base, the five Table-3
/// design changes, and six further single-parameter variants — 12
/// configurations, the shape of a real design-space exploration.
pub fn design_sweep_configs() -> Vec<MachineConfig> {
    let base = perfclone::base_config();
    let mut configs = vec![base];
    configs.extend(perfclone::design_changes());
    configs.extend([
        MachineConfig { name: "4x-window", rob_size: 64, lsq_size: 32, ..base },
        MachineConfig { name: "slow-mem", mem_latency: 80, ..base },
        MachineConfig { name: "wide-bus", mem_bus_bytes: 16, ..base },
        MachineConfig { name: "2-mem-ports", mem_ports: 2, ..base },
        MachineConfig {
            name: "3x-width",
            fetch_width: 3,
            decode_width: 3,
            issue_width: 3,
            commit_width: 3,
            ..base
        },
        MachineConfig { name: "fast-l2", l2_latency: 2, ..base },
    ]);
    configs
}

/// The scale's lowercase label, for bench records and reports.
pub fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
    }
}

/// Synthesis parameters used by the experiments: clone dynamic length
/// matched to the original's.
pub fn experiment_params(profile_len: u64) -> SynthesisParams {
    SynthesisParams {
        target_dynamic: profile_len.clamp(100_000, 2_500_000),
        ..SynthesisParams::default()
    }
}

/// Builds, profiles, and clones one kernel.
pub fn prepare(
    kernel: &'static Kernel,
    scale: Scale,
    params_of: &dyn Fn(u64) -> SynthesisParams,
) -> PreparedBench {
    let program = kernel.build(scale).program;
    let profile =
        perfclone::profile_program(&program, u64::MAX).expect("bundled kernels profile cleanly");
    let params = params_of(profile.total_instrs);
    let clone = Cloner::with_params(params)
        .clone_program_from(&profile)
        .expect("bundled kernel profiles synthesize cleanly");
    PreparedBench { kernel, program, profile, clone }
}

/// Builds the whole population with the default experiment parameters,
/// printing progress to stderr.
pub fn prepare_all() -> Vec<PreparedBench> {
    let scale = scale_from_env();
    kernels_from_env()
        .into_iter()
        .map(|k| {
            eprintln!("  preparing {} ...", k.name());
            prepare(k, scale, &experiment_params)
        })
        .collect()
}

/// Parallel [`prepare_all`]: kernels fan over the ambient thread pool
/// (see [`init_parallelism`]), each profiled and synthesized with a seed
/// derived from the root seed and the kernel's name. Per-kernel seeds
/// depend only on the (root, kernel) cell, and results come back in
/// catalog order, so the population is identical at any thread count.
pub fn prepare_all_par() -> Vec<PreparedBench> {
    use rayon::prelude::*;
    let scale = scale_from_env();
    let root = root_seed_from_env();
    let kernels = kernels_from_env();
    kernels
        .par_iter()
        .map(|k| {
            eprintln!("  preparing {} ...", k.name());
            prepare(k, scale, &|profile_len| SynthesisParams {
                seed: derive_cell_seed(root, k.name(), 0),
                ..experiment_params(profile_len)
            })
        })
        .collect()
}

/// Times every (benchmark × configuration) cell of a two-configuration
/// study in parallel. For each prepared benchmark the four cells are
/// `[real@base, real@alt, clone@base, clone@alt]`; the flat cell list
/// fans over the ambient thread pool and results reassemble in benchmark
/// order, bit-identical at any thread count. Each program's retired
/// stream is captured once as a packed trace through a shared
/// [`WorkloadCache`] and replayed by both configurations' cells (an
/// over-`PERFCLONE_TRACE_CAP` capture spills to disk and replays via
/// mmap; only a failed spill re-interprets — same results either way).
pub fn grid_timing_par(
    benches: &[PreparedBench],
    base: &MachineConfig,
    alt: &MachineConfig,
) -> Vec<[TimingResult; 4]> {
    use rayon::prelude::*;
    let cache = WorkloadCache::new();
    let cells: Vec<(usize, usize)> =
        (0..benches.len()).flat_map(|b| (0..4).map(move |c| (b, c))).collect();
    let results: Vec<TimingResult> = cells
        .par_iter()
        .map(|&(b, c)| {
            let bench = &benches[b];
            let name = bench.kernel.name();
            let (key, program, config) = match c {
                0 => (name.to_string(), &bench.program, base),
                1 => (name.to_string(), &bench.program, alt),
                2 => (format!("{name}.clone"), &bench.clone, base),
                _ => (format!("{name}.clone"), &bench.clone, alt),
            };
            run_timing_trace(&key, program, config, u64::MAX, &cache)
                .expect("bundled kernels run cleanly")
        })
        .collect();
    results
        .chunks_exact(4)
        .map(|c| [c[0].clone(), c[1].clone(), c[2].clone(), c[3].clone()])
        .collect()
}

/// Emits this experiment's [`RunReport`] when `PERFCLONE_REPORT` names a
/// destination (`-` = stdout): the current telemetry snapshot plus the
/// experiment's headline numbers as metric rows. Benches and the CLI
/// share one schema, so the same tooling consumes both. A missing or
/// empty variable is a no-op; write failures are reported to stderr
/// rather than failing the experiment.
pub fn emit_run_report(command: &str, workload: &str, metrics: &[(String, f64)]) {
    let dest = match std::env::var("PERFCLONE_REPORT") {
        Ok(d) if !d.trim().is_empty() => d,
        _ => return,
    };
    let mut report = RunReport::from_snapshot(command, workload, perfclone_obs::snapshot());
    report.metrics =
        metrics.iter().map(|(name, value)| Metric { name: name.clone(), value: *value }).collect();
    match report.to_json() {
        Ok(json) if dest == "-" => println!("{json}"),
        Ok(json) => match std::fs::write(&dest, &json) {
            Ok(()) => eprintln!("run report -> {dest}"),
            Err(e) => eprintln!("perfclone-bench: cannot write {dest}: {e}"),
        },
        Err(e) => eprintln!("perfclone-bench: cannot serialize run report: {e}"),
    }
}

/// Geometric-free arithmetic mean helper.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Not setting the variables yields the full population at Small.
        std::env::remove_var("PERFCLONE_KERNELS");
        assert_eq!(kernels_from_env().len(), 23);
    }

    #[test]
    fn kernel_list_names_its_unknown_entries() {
        let picked: Vec<&str> =
            select_kernels(" crc32, sha ").unwrap().iter().map(|k| k.name()).collect();
        assert_eq!(picked, ["sha", "crc32"], "catalog order");
        assert_eq!(select_kernels(" ").unwrap().len(), 23);
        let err = select_kernels("crc32,crc3,shaa").map(|_| ()).unwrap_err();
        assert!(err.contains(r#"["crc3", "shaa"]"#), "{err}");
    }

    #[test]
    fn experiment_params_clamp() {
        assert_eq!(experiment_params(10).target_dynamic, 100_000);
        assert_eq!(experiment_params(10_000_000).target_dynamic, 2_500_000);
        assert_eq!(experiment_params(500_000).target_dynamic, 500_000);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn parallel_knob_defaults() {
        std::env::remove_var("PERFCLONE_JOBS");
        std::env::remove_var("PERFCLONE_SEED");
        assert!(jobs_from_env() >= 1);
        assert_eq!(root_seed_from_env(), SynthesisParams::default().seed);
    }

    #[test]
    fn seeded_prepare_is_deterministic() {
        let k = catalog().iter().find(|k| k.name() == "crc32").expect("crc32 exists");
        let params_of = |len: u64| SynthesisParams {
            seed: derive_cell_seed(7, "crc32", 0),
            ..experiment_params(len)
        };
        let a = prepare(k, Scale::Tiny, &params_of);
        let b = prepare(k, Scale::Tiny, &params_of);
        assert_eq!(format!("{:?}", a.clone), format!("{:?}", b.clone));
    }
}
