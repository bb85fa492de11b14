//! `perfbench`: the end-to-end and per-layer benchmark of the
//! performance-cloning reproduction. README.md describes the workloads,
//! the metrics and how to run, trace and compare.
//!
//! ```text
//! perfbench [--workload NAME]... [--seed N] [--seconds N] [--trace 0|1] [--trace-out FILE]
//! perfbench spec
//! perfbench compare BASE.jsonl... -- NEW.jsonl...
//! ```

mod calib;
mod compare;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use perfclone::SynthesisParams;
use serde::Value;

use calib::Sample;
use layers::{Layered, Walls};
use trace::Tracer;
use workloads::{CacheSweep, CloneSuite, DesignSweep, GridDense, Workload, GRID_TRACE_CAP};

/// A run sets up at least this many times, and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median of the set-ups.
const SETUPS: usize = 9;
/// Keeps the cheapest set-up (clone_suite's, about 10 ms) from reporting
/// the median of only nine samples.
const SETUP_SECONDS: f64 = 1.0;
/// A run keeps going past `--seconds` until it has this many rounds, so
/// every op has a best of several.
const MIN_ROUNDS: usize = 5;
/// Rounds of the traced run. A fixed number, so the per-layer work counts
/// repeat exactly from run to run, and a traced run costs only a few
/// seconds more than an untraced one.
const TRACED_ROUNDS: usize = 5;
/// Where runs keep their journals and spill files, under the working
/// directory; each run removes its own subdirectory.
const OUT_DIR: &str = ".bench_out";

struct Opts {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: SynthesisParams::default().seed,
        seconds: spec::RUN_SECONDS,
        trace: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: &String| v.parse::<u64>().map_err(|_| format!("{flag} takes a whole number"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec::WORKLOADS.iter().any(|s| s.name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                o.workloads.push(w.clone());
            }
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => o.seconds = number(value()?)?,
            "--trace" => o.trace = number(value()?)? == 1,
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    }
    o.trace |= o.trace_out.is_some();
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Some("compare") => compare::run(&args[1..]),
        _ => parse(&args).and_then(|o| run(&o)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process, or each of several in a child
/// process of its own, one at a time.
fn run(o: &Opts) -> Result<bool, String> {
    if let [name] = o.workloads.as_slice() {
        return run_one(name, o);
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in &o.workloads {
        let mut child = Command::new(&exe);
        child.args(["--workload", w]);
        child.args(["--seed", &o.seed.to_string(), "--seconds", &o.seconds.to_string()]);
        child.args(["--trace", if o.trace { "1" } else { "0" }]);
        if let Some(out) = &o.trace_out {
            child.arg("--trace-out").arg(out.with_extension(format!("{w}.json")));
        }
        ok &= child.status().map_err(|e| e.to_string())?.success();
    }
    Ok(ok)
}

/// The run's scratch directory (journals, spill files), removed on drop
/// whether the run succeeds or fails.
struct RunDir(PathBuf);

impl RunDir {
    fn create(workload: &str) -> Result<RunDir, String> {
        let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
        let dir = RunDir(cwd.join(OUT_DIR).join(format!("{workload}-{}", std::process::id())));
        let spill = dir.0.join("spill");
        std::fs::create_dir_all(&spill).map_err(|e| format!("{}: {e}", spill.display()))?;
        Ok(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        perfclone::reap_stray_spills(&self.0.join("spill"));
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(out) = self.0.parent() {
            let _ = std::fs::remove_dir(out); // only once no other run uses it
        }
    }
}

fn run_one(name: &str, o: &Opts) -> Result<bool, String> {
    let run = RunDir::create(name)?;
    // Still single-threaded: nothing has read these variables yet.
    std::env::set_var("PERFCLONE_SPILL_DIR", run.0.join("spill"));
    if name == "grid_dense" {
        std::env::set_var("PERFCLONE_TRACE_CAP", GRID_TRACE_CAP);
    } else {
        std::env::remove_var("PERFCLONE_TRACE_CAP");
    }
    // One worker: on two cores the parallel sweep's spread is several
    // times wider than the serial one's.
    rayon::ThreadPoolBuilder::new().num_threads(1).build_global().map_err(|e| e.to_string())?;
    match name {
        "clone_suite" => bench::<CloneSuite>(name, o, &run.0),
        "design_sweep" => bench::<DesignSweep>(name, o, &run.0),
        "grid_dense" => bench::<GridDense>(name, o, &run.0),
        "cache_sweep" => bench::<CacheSweep>(name, o, &run.0),
        other => Err(format!("unknown workload {other}")),
    }
}

fn counter(name: &str) -> u64 {
    perfclone_obs::snapshot().counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

/// Checks that the program's own counter `name` moved from `before` by
/// what the benchmark counted. Skipped when the program's telemetry is
/// switched off.
fn check_counter(problems: &mut Vec<String>, name: &str, before: u64, counted: u64) {
    let moved = counter(name).saturating_sub(before);
    if perfclone_obs::enabled() && moved != counted {
        problems
            .push(format!("program counter {name} moved {moved}, the benchmark counted {counted}"));
    }
}

/// The untraced timed region: whole rounds until `seconds` have passed
/// and at least [`MIN_ROUNDS`] have run.
struct Timed {
    rounds: usize,
    /// Each op's fastest scaled time over the rounds; op i of every round
    /// is the same op on the same inputs.
    best: Vec<f64>,
    samples: Vec<Sample>,
    failed: u64,
    digest: u64,
    wall_s: f64,
}

fn run_rounds<W: Workload>(
    w: &mut W,
    o: &Opts,
    run: &Path,
    problems: &mut Vec<String>,
) -> Result<Timed, String> {
    let mut t = Timed {
        rounds: 0,
        best: Vec::new(),
        samples: Vec::new(),
        failed: 0,
        digest: 0,
        wall_s: 0.0,
    };
    let t0 = Instant::now();
    while t.rounds < MIN_ROUNDS || t0.elapsed() < Duration::from_secs(o.seconds) {
        let r = w.round(run)?;
        t.rounds += 1;
        t.failed += r.failed;
        let scaled: Vec<f64> = r.ops.iter().map(Sample::scaled).collect();
        if t.rounds == 1 {
            t.best.clone_from(&scaled);
            t.digest = r.digest;
        } else if r.digest != t.digest {
            problems.push(format!("round {} simulated other outputs than round 1", t.rounds));
        }
        t.best.iter_mut().zip(&scaled).for_each(|(b, s)| *b = b.min(*s));
        t.samples.extend(r.ops);
    }
    t.wall_s = t0.elapsed().as_secs_f64();
    Ok(t)
}

/// The traced run: one traced set-up and [`TRACED_ROUNDS`] rounds, each
/// decomposed into layer calls; returns the per-layer metrics.
fn traced<W: Workload + Layered>(
    w: &mut W,
    name: &str,
    o: &Opts,
    run: &Path,
    timed: &Timed,
    problems: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut tr = Tracer::new(true);
    let (spills, records) = (counter("trace.spills"), counter("replay.batch.records"));
    drop(W::setup(o.seed, &mut tr)?);
    tr.timed = true;
    let mut traced = Vec::new();
    for i in 1..=TRACED_ROUNDS {
        let r = w.traced_round(run, &mut tr)?;
        if r.digest != timed.digest {
            problems.push(format!("traced round {i} simulated other outputs than the untraced"));
        }
        traced.extend(r.ops);
    }
    tr.timed = false;
    check_counter(problems, "trace.spills", spills, tr.count("sim.spill.files") as u64);
    check_counter(problems, "replay.batch.records", records, tr.count("replay.records") as u64);
    w.drain(TRACED_ROUNDS, &mut tr);
    tr.add("core.grid.retries", w.retries() as f64);
    if let Some(path) = &o.trace_out {
        std::fs::write(path, tr.chrome_trace()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let scaled = |ops: &[Sample]| ops.iter().map(Sample::scaled).sum::<f64>();
    let traced_s = scaled(&traced);
    let walls = Walls {
        untraced_s: scaled(&timed.samples) * TRACED_ROUNDS as f64 / timed.rounds as f64,
        traced_s,
        scale: traced_s / traced.iter().map(|s| s.secs).sum::<f64>(),
        grid: name == "grid_dense",
    };
    Ok(layers::per_layer(&tr, &walls))
}

fn bench<W: Workload + Layered>(name: &str, o: &Opts, run: &Path) -> Result<bool, String> {
    let mut problems = Vec::new();

    let mut setup_secs = Vec::new();
    let mut first: Option<W> = None;
    let t0 = Instant::now();
    while setup_secs.len() < SETUPS || t0.elapsed().as_secs_f64() < SETUP_SECONDS {
        let (w, sample) = Sample::time(|| W::setup(o.seed, &mut Tracer::new(false)));
        let w = w?;
        setup_secs.push(sample.scaled());
        match &first {
            None => first = Some(w),
            Some(f) if f.setup_digest() != w.setup_digest() => {
                problems.push("repeated set-ups built different inputs".into());
            }
            Some(_) => {}
        }
    }
    let mut w = first.ok_or("no set-up ran")?;

    let retries = counter("grid.retries");
    let timed = run_rounds(&mut w, o, run, &mut problems)?;
    let rss_kib = perfclone_obs::rss::peak_rss_kib().ok_or("peak RSS is unavailable")?;
    check_counter(&mut problems, "grid.retries", retries, w.retries());
    if let Err(e) = w.check(o.seed) {
        problems.push(e);
    }
    let per_layer =
        if o.trace { Some(traced(&mut w, name, o, run, &timed, &mut problems)?) } else { None };

    let best = &timed.best;
    let e2e = [
        ("ops_per_s", best.len() as f64 / best.iter().sum::<f64>()),
        ("op_ms", 1e3 * stats::median(best).ok_or("no ops")?),
        ("peak_rss_mib", rss_kib as f64 / 1024.0),
        ("setup_s", stats::median(&setup_secs).ok_or("no set-up")?),
    ];
    // The p90 over every op sample, when ten lie beyond it; not gated, as
    // it mixes the ops' own spread with the machine's.
    let scaled: Vec<f64> = timed.samples.iter().map(Sample::scaled).collect();
    let tail = stats::tail(&scaled, 0.9).map(|p90| ("op_p90_ms", 1e3 * p90));
    let reference: Vec<f64> = timed.samples.iter().map(|s| s.reference).collect();

    for p in &problems {
        eprintln!("perfbench: {name}: {p}");
    }
    let correct = problems.is_empty();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{}",
        json(&obj(vec![
            ("workload", Value::Str(name.into())),
            ("seed", Value::U64(o.seed)),
            ("nproc", Value::U64(nproc as u64)),
            ("jobs", Value::U64(1)),
            ("rounds", Value::U64(timed.rounds as u64)),
            ("ops_per_round", Value::U64(best.len() as u64)),
            ("failed", Value::U64(timed.failed)),
            ("samples", Value::U64(timed.samples.len() as u64)),
            ("timed_s", Value::F64(timed.wall_s)),
            ("reference_ms", Value::F64(1e3 * stats::median(&reference).unwrap_or(f64::NAN))),
            ("digest", Value::Str(format!("{:016x}", timed.digest))),
            ("correct", Value::Bool(correct)),
        ]))
    );
    let layer_rows = per_layer.iter().flatten().map(|(k, v)| (*k, *v));
    for (metric, value) in e2e.iter().copied().chain(tail).chain(w.fidelity()).chain(layer_rows) {
        println!("{}", metric_line(name, o.seed, metric, value));
    }
    let reported: Vec<(&str, f64)> = match &per_layer {
        Some(m) => spec::PER_LAYER.iter().map(|s| (s.name, m[s.name])).collect(),
        None => e2e.to_vec(),
    };
    let attempted = (timed.rounds * best.len()) as u64;
    println!("{}", final_line(correct, attempted, timed.failed, &reported));
    Ok(correct)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

fn unit(metric: &str) -> &'static str {
    spec::metric(metric).map_or("", |m| m.unit)
}

/// One JSONL record of a run's metric, as `compare` reads them.
fn metric_line(workload: &str, seed: u64, metric: &str, value: f64) -> String {
    json(&obj(vec![
        ("workload", Value::Str(workload.into())),
        ("seed", Value::U64(seed)),
        ("metric", Value::Str(metric.into())),
        ("value", Value::F64(value)),
        ("unit", Value::Str(unit(metric).into())),
    ]))
}

/// The run's last line: the verdict, the op counts and the metrics.
fn final_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(k, v)| {
            let m = obj(vec![("value", Value::F64(*v)), ("unit", Value::Str(unit(k).into()))]);
            (k.to_string(), m)
        })
        .collect();
    json(&obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", Value::Obj(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(line: &str) -> Vec<String> {
        match serde_json::from_str::<Value>(line).expect("valid JSON") {
            Value::Obj(fields) => fields.into_iter().map(|(k, _)| k).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn jsonl_lines_have_their_shape() {
        let line = metric_line("grid_dense", 7, "op_ms", 1.25);
        assert_eq!(keys(&line), ["workload", "seed", "metric", "value", "unit"]);
        assert!(line.contains(r#""unit":"ms""#), "{line}");
        let last = final_line(true, 120, 0, &[("op_ms", 1.25), ("setup_s", 0.5)]);
        assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
        assert!(last.contains(r#""setup_s":{"value":0.5,"unit":"s"}"#), "{last}");
    }

    #[test]
    fn arguments_parse_and_default() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o =
            parse(&args("--workload grid_dense --seed 3 --seconds 4 --trace 1")).expect("parses");
        assert_eq!((o.workloads.len(), o.seed, o.seconds, o.trace), (1, 3, 4, true));
        let o = parse(&[]).expect("parses");
        assert_eq!(o.workloads.len(), spec::WORKLOADS.len());
        assert_eq!(o.seconds, spec::RUN_SECONDS);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }
}
