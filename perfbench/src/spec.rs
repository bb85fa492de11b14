//! The benchmark's definition: workloads, metrics, units and bounds. It
//! lives here once; `perfbench spec` renders it as `BENCHMARK.json`.

use serde::Value;

/// Seconds one run measures, unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 20;

/// How to run the benchmark from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark.
pub const PATHS: &[&str] = &["perfbench"];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "clone_suite",
        why: "vendor flow: profile, synthesize and gate 23 kernels x 2 seeds; all time is \
              interpreter, profiler, synthesizer and gate, the timing model does no work",
    },
    WorkloadSpec {
        name: "design_sweep",
        why: "architect flow: 12 real+clone pairs through the 6-config Table-3 sweep on \
              in-memory packed traces; time goes to the pipeline model per instruction",
    },
    WorkloadSpec {
        name: "grid_dense",
        why: "512 short (20K-instruction) cells per round from an mmapped spilled trace with \
              journaled shards, so per-cell fixed costs show",
    },
    WorkloadSpec {
        name: "cache_sweep",
        why: "23 real+clone pairs through the 28-config L1-D sweep: the only path through \
              address extraction and the stack-distance engine, no pipeline",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression; `0.0` means it must match exactly.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    m(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    m(name, unit, Better::Higher, 0.0)
}

/// Host-time metrics of every workload, from the untraced run. An op is
/// one gated clone (clone_suite), one 12-cell pair sweep (design_sweep),
/// one 32-cell shard (grid_dense) or one 56-evaluation pair cache sweep
/// (cache_sweep).
pub const END_TO_END: &[MetricSpec] = &[
    m("ops_per_s", "1/s", Better::Higher, 0.2),
    m("op_ms", "ms", Better::Lower, 0.25),
    m("peak_rss_mib", "MiB", Better::Lower, 0.1),
    m("setup_s", "s", Better::Lower, 0.25),
];

/// Reported, never gated: the p90 over every op sample.
pub const INFO: &[MetricSpec] = &[lower("op_p90_ms", "ms")];

/// Simulated outputs that measure clone fidelity. They are exact
/// functions of the seed, so two commits compare them exactly.
pub const FIDELITY: &[MetricSpec] = &[
    higher("gate_pass_frac", "ratio"),
    lower("ipc_err_pct", "%"),
    lower("power_err_pct", "%"),
    lower("design_err_pct", "%"),
    higher("cache_r", "r"),
];

/// Per-layer metrics of the traced run; layer names are crate names.
pub const PER_LAYER: &[MetricSpec] = &[
    lower("kernels.build_s", "s"),
    lower("profile.calls", "count"),
    lower("profile.minstr", "Minstr"),
    lower("profile.busy_s", "s"),
    higher("profile.minstr_per_s", "Minstr/s"),
    lower("synth.calls", "count"),
    lower("synth.busy_s", "s"),
    lower("synth.static_instrs", "count"),
    lower("validate.calls", "count"),
    lower("validate.busy_s", "s"),
    higher("validate.pass", "count"),
    lower("validate.warn", "count"),
    lower("validate.fail", "count"),
    higher("validate.pass_frac", "ratio"),
    lower("sim.capture.calls", "count"),
    lower("sim.capture.minstr", "Minstr"),
    lower("sim.capture.busy_s", "s"),
    lower("sim.capture.bytes_per_instr", "B/instr"),
    lower("sim.spill.files", "count"),
    lower("sim.spill.bytes", "B"),
    lower("sim.decode.busy_s", "s"),
    higher("sim.decode.mrec_per_s", "Mrec/s"),
    lower("isa.meta.calls", "count"),
    lower("isa.meta.busy_s", "s"),
    lower("uarch.pipeline.calls", "count"),
    lower("uarch.pipeline.minstr", "Minstr"),
    lower("uarch.pipeline.sim_mcycles", "Mcycles"),
    lower("uarch.pipeline.busy_s", "s"),
    lower("uarch.pipeline.new_us", "us"),
    lower("uarch.pipeline.ns_per_instr", "ns"),
    lower("uarch.extract.calls", "count"),
    lower("uarch.extract.minstr", "Minstr"),
    lower("uarch.extract.busy_s", "s"),
    lower("uarch.stackdist.busy_s", "s"),
    lower("uarch.stackdist.accesses", "count"),
    lower("uarch.stackdist.configs", "count"),
    lower("power.calls", "count"),
    lower("power.busy_s", "s"),
    lower("power.us_per_call", "us"),
    lower("core.grid.shards", "count"),
    lower("core.grid.busy_s", "s"),
    lower("core.grid.self_s", "s"),
    lower("core.grid.overhead_s", "s"),
    lower("core.grid.retries", "count"),
    lower("core.journal.write_s", "s"),
    lower("core.journal.bytes", "B"),
    lower("obs.trace_overhead_pct", "%"),
    higher("obs.layer_coverage_pct", "%"),
];

/// Looks a metric up by name in every table.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(INFO).chain(FIDELITY).chain(PER_LAYER).find(|m| m.name == name)
}

fn strs(items: &[&str]) -> Value {
    Value::Arr(items.iter().map(|s| Value::Str((*s).into())).collect())
}

fn metric_value(m: &MetricSpec, with_bound: bool) -> Value {
    let mut fields = vec![
        ("name".into(), Value::Str(m.name.into())),
        ("unit".into(), Value::Str(m.unit.into())),
        ("better".into(), Value::Str(m.better.label().into())),
    ];
    if with_bound {
        fields.push(("bound".into(), Value::F64(m.bound)));
    }
    Value::Obj(fields)
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

/// `BENCHMARK.json`: one key per line, one list entry per line.
pub fn benchmark_json() -> String {
    let list = |items: Vec<Value>| {
        let lines: Vec<String> = items.iter().map(|v| format!("    {}", json(v))).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Value::Obj(vec![
                ("name".into(), Value::Str(w.name.into())),
                ("why".into(), Value::Str(w.why.into())),
            ])
        })
        .collect();
    let keys = [
        ("command", json(&strs(COMMAND))),
        ("paths", json(&strs(PATHS))),
        ("run_seconds", RUN_SECONDS.to_string()),
        ("workloads", list(workloads)),
        ("end_to_end", list(END_TO_END.iter().map(|m| metric_value(m, true)).collect())),
        ("per_layer", list(PER_LAYER.iter().map(|m| metric_value(m, false)).collect())),
    ];
    let body: Vec<String> = keys.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with `perfbench spec`");
    }

    #[test]
    fn names_are_unique_and_bounds_in_range() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(INFO)
            .chain(FIDELITY)
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "every name is used once");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
