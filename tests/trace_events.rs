//! Well-formedness of the Chrome Trace Format export under real parallel
//! work: a sharded grid sweep runs on 1/4/8-thread rayon pools with
//! tracing on, followed by a cache sweep on the calling thread, and the
//! exported JSON must be valid, balanced (`B`/`E` pairs match per tid),
//! and per-thread monotonic — the properties Perfetto's importer needs to
//! render spans instead of rejecting the file — with parent edges intact
//! across the pool hop.

use std::sync::{Mutex, MutexGuard, OnceLock};

use perfclone::{cache_sweep, run_grid, sweep_trace, GridAxes, GridSpec, WorkloadCache};
use perfclone_kernels::{by_name, Scale};
use proptest::prelude::*;
use serde::Value;

/// Tracing state (the event log and the enable switch) is process-global,
/// so tests in this binary serialize on one lock.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Looks up a key in an `Obj` value.
fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, fv)| fv),
        _ => None,
    }
}

fn str_field<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    match field(v, key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn num_field(v: &Value, key: &str) -> Option<f64> {
    match field(v, key) {
        Some(Value::U64(n)) => Some(*n as f64),
        Some(Value::I64(n)) => Some(*n as f64),
        Some(Value::F64(n)) => Some(*n),
        _ => None,
    }
}

/// Runs a 4-shard grid sweep on a `jobs`-thread pool and then the
/// 28-config cache sweep on the calling thread, with tracing on, and
/// returns the exported Chrome trace.
fn traced_sweep(jobs: usize) -> String {
    perfclone_obs::reset();
    perfclone_obs::set_trace_enabled(true);
    let program = by_name("crc32").expect("kernel").build(Scale::Tiny).program;
    let spec = GridSpec {
        workload: "crc32".into(),
        scale: "tiny".into(),
        limit: 20_000,
        axes: GridAxes::small(),
        max_cells: 4,
        shard_size: 1,
    };
    let journal =
        std::env::temp_dir().join(format!("perfclone-trace-events-{}-{jobs}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("pool");
    pool.install(|| run_grid(&program, &spec, &journal, &WorkloadCache::new(), |_| {}))
        .expect("grid");
    let _ = std::fs::remove_dir_all(&journal);
    let trace = perfclone::AddressTrace::extract(&program, 60_000);
    let _ = sweep_trace(&trace, &cache_sweep());
    perfclone_obs::set_trace_enabled(false);
    perfclone_obs::chrome_trace()
}

/// Parses a Chrome trace document into its event array.
fn parse_events(json: &str) -> Vec<Value> {
    let doc: Value = serde_json::from_str(json).expect("trace export is valid JSON");
    match field(&doc, "traceEvents") {
        Some(Value::Arr(events)) => events.clone(),
        other => panic!("traceEvents must be an array, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Across pool widths, the export is valid JSON whose per-tid streams
    /// are balanced (every `E` has a preceding `B`, every `B` is closed)
    /// and per-tid timestamps never run backwards. The non-meta event
    /// count also reconciles exactly with [`perfclone_obs::trace_stats`].
    /// Every `grid.shard` span names `grid.sweep` as
    /// its parent, and at width ≥ 2 at least one runs on another thread,
    /// so the parent edge is checked across a real pool hop.
    #[test]
    fn export_is_balanced_and_monotonic_at_any_pool_width(
        jobs in prop_oneof![Just(1usize), Just(4), Just(8)],
    ) {
        let _g = registry_lock();
        let json = traced_sweep(jobs);
        let stats = perfclone_obs::trace_stats();
        let events = parse_events(&json);

        let mut depth: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
        let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        let mut recorded = 0u64;
        // (id, tid) of each B event named here, and (parent, tid) of the
        // spans expected to nest under them.
        let (mut grid, mut pass) = (None, None);
        let (mut shards, mut groups) = (Vec::new(), Vec::new());
        for ev in &events {
            let ph = str_field(ev, "ph").expect("event has ph");
            if ph == "M" {
                continue; // metadata carries no timestamp
            }
            recorded += 1;
            let tid = match field(ev, "tid") {
                Some(Value::U64(t)) => *t,
                other => panic!("tid must be an integer, got {other:?}"),
            };
            let ts = num_field(ev, "ts").expect("event has ts");
            let prev = last_ts.entry(tid).or_insert(0.0);
            prop_assert!(ts >= *prev, "tid {} time ran backwards: {} after {}", tid, ts, *prev);
            *prev = ts;
            match ph {
                "B" => {
                    *depth.entry(tid).or_insert(0) += 1;
                    let arg = |key| field(ev, "args").and_then(|a| num_field(a, key));
                    match str_field(ev, "name") {
                        Some("grid.sweep") => grid = Some((arg("id"), tid)),
                        Some("grid.shard") => shards.push((arg("parent"), tid)),
                        Some("sweep.pass") => pass = Some((arg("id"), tid)),
                        Some("sweep.group") => groups.push((arg("parent"), tid)),
                        _ => {}
                    }
                }
                "E" => {
                    let d = depth.entry(tid).or_insert(0);
                    *d -= 1;
                    prop_assert!(*d >= 0, "tid {tid} closed a span it never opened");
                }
                "i" => {}
                other => prop_assert!(false, "unexpected phase {other:?}"),
            }
        }
        for (tid, d) in &depth {
            prop_assert_eq!(*d, 0, "tid {} left {} span(s) open in the export", tid, d);
        }

        // Parent edges survive the pool hop: every grid.shard B names the
        // driving grid.sweep span as its parent, and at width >= 2 some
        // shard ran on a worker thread rather than the sweep's own.
        let (grid_id, grid_tid) = grid.expect("grid.sweep span in trace");
        prop_assert_eq!(shards.len(), 4, "grid.shard spans in trace");
        for (parent, _) in &shards {
            prop_assert_eq!(*parent, grid_id);
        }
        if jobs > 1 {
            prop_assert!(shards.iter().any(|&(_, tid)| tid != grid_tid), "no shard left the sweep's thread");
        }
        // Same-thread nesting: sweep.group spans sit under sweep.pass.
        let (pass_id, pass_tid) = pass.expect("sweep.pass span in trace");
        prop_assert!(!groups.is_empty(), "sweep.group spans in trace");
        for &(parent, tid) in &groups {
            prop_assert_eq!(parent, pass_id);
            prop_assert_eq!(tid, pass_tid);
        }

        // The export holds exactly the events the log accounted for.
        prop_assert_eq!(recorded, stats.events);
    }
}
