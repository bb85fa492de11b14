//! # perfclone-bench
//!
//! The bench targets: `paper`, which regenerates every table and figure of
//! the paper's evaluation (§5) plus the ablations, extensions and gate
//! verdicts EXPERIMENTS.md records (see [`paper`]), and three timing mains
//! (`grid_sweep`, `trace_replay_compare`, `obs_overhead`). Each is a plain
//! `harness = false` main.
//!
//! Environment knobs (unset or blank selects the default; any other value
//! the knob cannot use panics, naming the variable and the value):
//!
//! * `PERFCLONE_SCALE` — `tiny` (fast smoke runs) or `small` (default; the
//!   paper-scale inputs, ~0.5-2 M dynamic instructions per kernel),
//! * `PERFCLONE_KERNELS` — comma-separated kernel names to restrict the
//!   population (default: all 23),
//! * `PERFCLONE_JOBS` — worker threads for the parallel experiment paths,
//!   a positive integer (default: all cores; results are identical at any
//!   thread count),
//! * `PERFCLONE_SEED` — decimal root seed from which each kernel's
//!   synthesis seed is derived (default: the synthesizer's default seed),
//! * `PERFCLONE_REPORT` — destination for a machine-readable [`RunReport`]
//!   of the experiment (`-` = stdout); same schema as the CLI's `--report`.

use perfclone::{derive_cell_seed, Cloner, MachineConfig, SynthesisParams, WorkloadProfile};
use perfclone_isa::Program;
use perfclone_kernels::{catalog, Kernel, Scale};
use perfclone_obs::{Metric, RunReport};
use rayon::prelude::*;

pub mod paper;

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
    /// The parameters the clone was synthesized with.
    pub params: SynthesisParams,
}

/// Reads the input scale from `PERFCLONE_SCALE` (default: small).
///
/// # Panics
///
/// Panics, naming the value, on anything but `tiny` or `small`: a typo
/// would otherwise run the minutes-long Small population without a word.
pub fn scale_from_env() -> Scale {
    knob("PERFCLONE_SCALE", parse_scale)
}

/// Reads the worker-thread count from `PERFCLONE_JOBS` (default: the
/// machine's available parallelism).
///
/// # Panics
///
/// Panics, naming the value, when it is not a positive integer.
fn jobs_from_env() -> usize {
    knob("PERFCLONE_JOBS", parse_jobs)
}

/// Reads the experiments' root seed from `PERFCLONE_SEED` (default: the
/// synthesizer's default seed). Per-kernel seeds are derived from it.
///
/// # Panics
///
/// Panics, naming the value, when it is not a decimal `u64`.
pub(crate) fn root_seed_from_env() -> u64 {
    knob("PERFCLONE_SEED", parse_seed)
}

/// Parses environment variable `name` (unset reads as blank), panicking
/// with the variable's name on a value `parse` rejects.
fn knob<T>(name: &str, parse: fn(&str) -> Result<T, String>) -> T {
    let value = match std::env::var(name) {
        Ok(value) => value,
        Err(std::env::VarError::NotPresent) => String::new(),
        Err(std::env::VarError::NotUnicode(value)) => panic!("{name}: not UTF-8: {value:?}"),
    };
    parse(&value).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// A scale name in any case; blank is small.
fn parse_scale(value: &str) -> Result<Scale, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "" | "small" => Ok(Scale::Small),
        "tiny" => Ok(Scale::Tiny),
        _ => Err(format!("unknown scale {value:?} (use tiny or small)")),
    }
}

/// A positive thread count; blank is the machine's available parallelism.
fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.trim() {
        "" => Ok(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)),
        v => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("expected a positive integer, got {value:?}")),
        },
    }
}

/// A decimal `u64` seed; blank is the synthesizer's default seed.
fn parse_seed(value: &str) -> Result<u64, String> {
    match value.trim() {
        "" => Ok(SynthesisParams::default().seed),
        v => v.parse().map_err(|_| format!("expected a decimal integer, got {value:?}")),
    }
}

/// Makes `PERFCLONE_JOBS` the ambient parallelism for the experiment run.
/// Call once, before the first parallel map.
pub(crate) fn init_parallelism() {
    let _ = rayon::ThreadPoolBuilder::new().num_threads(jobs_from_env()).build_global();
}

/// The kernel population, optionally restricted via `PERFCLONE_KERNELS`.
///
/// # Panics
///
/// Panics, naming them, when the list holds names the catalog lacks: a
/// typo would otherwise shrink the population without a word.
pub(crate) fn kernels_from_env() -> Vec<&'static Kernel> {
    knob("PERFCLONE_KERNELS", select_kernels)
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

/// The `trace_replay_compare` bench's configuration set: base, the five
/// Table-3 design changes, and six further single-parameter variants — 12
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
    PreparedBench { kernel, program, profile, clone, params }
}

/// Builds, profiles and clones `kernels` at `scale`: the one clone
/// population the [`paper`] sections read. Each kernel's synthesis seed is
/// `derive_cell_seed(root, name, 0)`, as perfbench derives it, and its clone
/// length is matched to the original's ([`experiment_params`]). Kernels fan
/// over the ambient thread pool and come back in input order, so the
/// population is identical at any thread count.
pub(crate) fn prepare_population(
    kernels: &[&'static Kernel],
    scale: Scale,
    root: u64,
) -> Vec<PreparedBench> {
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

/// Emits this experiment's [`RunReport`] when `PERFCLONE_REPORT` names a
/// destination (`-` = stdout): the current telemetry snapshot plus the
/// experiment's headline numbers as metric rows. Benches and the CLI
/// share one schema, so the same tooling consumes both. A missing or
/// empty variable is a no-op; write failures are reported to stderr
/// rather than failing the experiment.
pub(crate) fn emit_run_report(command: &str, workload: &str, metrics: &[(String, f64)]) {
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
pub(crate) fn mean(xs: &[f64]) -> f64 {
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
    fn scale_knob_names_a_bad_value() {
        assert_eq!(parse_scale(""), Ok(Scale::Small));
        assert_eq!(parse_scale(" TINY "), Ok(Scale::Tiny));
        assert_eq!(parse_scale("Small"), Ok(Scale::Small));
        let err = parse_scale("tiy").unwrap_err();
        assert!(err.contains(r#""tiy""#), "{err}");
    }

    #[test]
    fn jobs_knob_names_a_bad_value() {
        assert!(parse_jobs(" ").unwrap() >= 1);
        assert_eq!(parse_jobs("4"), Ok(4));
        for bad in ["0", "four", "-1"] {
            let err = parse_jobs(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn seed_knob_names_a_bad_value() {
        assert_eq!(parse_seed(""), Ok(SynthesisParams::default().seed));
        assert_eq!(parse_seed("7"), Ok(7));
        for bad in ["0x1", "-1", "seven"] {
            let err = parse_seed(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
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
