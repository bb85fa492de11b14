//! Integration tests of the telemetry subsystem's cross-crate contracts:
//! counter and histogram totals are a pure function of the work performed
//! (identical at any thread count for the same seed), spans traced across
//! rayon pools nest under the driving stage, stage rows count every span
//! while only traced spans are logged, a live snapshot round-trips
//! through the [`RunReport`] JSON schema, and switching telemetry off
//! changes no result.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use perfclone::experiments::cache_sweep_pair;
use perfclone::{
    cache_sweep, run_grid, sweep_trace, AddressTrace, Gate, GridAxes, GridSpec, SynthesisParams,
    WorkloadCache,
};
use perfclone_kernels::{by_name, Scale};
use perfclone_obs::{RunReport, TelemetrySnapshot};
use perfclone_uarch::sweep_dcache;
use proptest::prelude::*;
use rayon::prelude::*;

/// The registry is process-global and these tests reset it, so they
/// serialize on one lock.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs the full pipeline on a `jobs`-thread pool — profile, then per
/// `(target_dynamic, target_blocks)` pair of `targets`, through
/// `par_iter` in that order, synthesize, gate and 28-config cache sweep of
/// the program and the clone — and returns the schedule-independent
/// telemetry view.
fn pipeline_snapshot(jobs: usize, seed: u64, targets: [(u64, u32); 2]) -> TelemetrySnapshot {
    perfclone_obs::reset();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("pool");
    pool.install(|| {
        let program = by_name("crc32").expect("kernel").build(Scale::Tiny).program;
        let cache = WorkloadCache::new();
        let profile = cache.profile("crc32", &program, 200_000).expect("profile");
        let _: Vec<()> = targets
            .par_iter()
            .map(|&(target_dynamic, target_blocks)| {
                let params = SynthesisParams {
                    seed,
                    target_dynamic,
                    target_blocks,
                    ..SynthesisParams::default()
                };
                let clone =
                    cache.clone_program("crc32", &program, 200_000, &params).expect("clone");
                let _report = Gate::default().report(&profile, &clone).expect("gate");
                let _sweep = cache_sweep_pair(&program, &clone, &cache_sweep(), 200_000);
            })
            .collect();
    });
    perfclone_obs::snapshot().deterministic()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The determinism contract: for the same seed, every counter total,
    /// gauge value, and non-wall-time histogram bucket is identical
    /// whether the pipeline ran on one thread or eight. Only span wall
    /// times (excluded by `deterministic()`) may differ.
    ///
    /// The two clones differ in both synthesis targets, so a value that
    /// each synthesis sets has two writers. A one-thread run synthesizes
    /// them in the order given, so a second one-thread run, in the reverse
    /// order, shows a value kept from its last writer changing however
    /// the pool's threads are timed.
    #[test]
    fn telemetry_is_schedule_independent(
        seed in 0u64..1000,
        target_dynamic in 20_000u64..60_000,
    ) {
        let _g = registry_lock();
        let targets = [(target_dynamic, 0), (target_dynamic + 20_000, 40)];
        let serial = pipeline_snapshot(1, seed, targets);
        let reversed = pipeline_snapshot(1, seed, [targets[1], targets[0]]);
        let parallel = pipeline_snapshot(8, seed, targets);
        for other in [&reversed, &parallel] {
            prop_assert_eq!(&serial.counters, &other.counters);
            prop_assert_eq!(&serial.gauges, &other.gauges);
            prop_assert_eq!(&serial.histograms, &other.histograms);
            prop_assert!(other.spans.is_empty());
        }
        prop_assert!(serial.spans.is_empty());
    }
}

/// Grid shard spans, opened on rayon workers whose thread-locals start
/// empty, carry the driving `grid.sweep` span as their explicit parent;
/// the cache engine's `sweep.group` spans, opened on the calling thread,
/// nest under their `sweep.pass` on their own.
#[test]
fn sweep_spans_nest_across_the_pool() {
    let _g = registry_lock();
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
        std::env::temp_dir().join(format!("perfclone-observability-{}-spans", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
    pool.install(|| run_grid(&program, &spec, &journal, &WorkloadCache::new(), |_| {}))
        .expect("grid");
    let _ = std::fs::remove_dir_all(&journal);
    let trace = AddressTrace::extract(&program, 100_000);
    let _ = sweep_trace(&trace, &cache_sweep());
    perfclone_obs::set_trace_enabled(false);

    let snap = perfclone_obs::snapshot();
    let named = |name: &'static str| snap.spans.iter().filter(move |s| s.name == name);
    let grid = named("grid.sweep").next().expect("grid.sweep span");
    assert_eq!(named("grid.shard").count(), 4, "spans: {:?}", snap.spans);
    for shard in named("grid.shard") {
        assert_eq!(shard.parent, grid.id, "shard span not parented to the grid sweep");
    }
    let pass = named("sweep.pass").next().expect("sweep.pass span");
    assert!(named("sweep.group").next().is_some(), "spans: {:?}", snap.spans);
    for group in named("sweep.group") {
        assert_eq!(group.parent, pass.id, "group span not parented to the pass");
    }
}

/// The registry and event tracing observe the cache sweep without
/// steering it: the 28-config miss counts are the same with both on as
/// with both off.
#[test]
fn telemetry_does_not_change_sweep_results() {
    let _g = registry_lock();
    let program = by_name("crc32").expect("kernel").build(Scale::Tiny).program;
    let configs = cache_sweep();
    perfclone_obs::set_enabled(true);
    perfclone_obs::set_trace_enabled(true);
    let on = sweep_dcache(&program, &configs, u64::MAX);
    perfclone_obs::set_enabled(false);
    perfclone_obs::set_trace_enabled(false);
    let off = sweep_dcache(&program, &configs, u64::MAX);
    perfclone_obs::set_enabled(true);
    assert_eq!(on, off, "telemetry must not change sweep results");
}

/// Every span counts in its stage row, traced or not. Traced, the rows
/// equal, name for name, the calls and summed durations of the logged
/// spans; untraced, nothing is logged and the rows count the same calls.
/// The untraced run comes first, so totals a reset failed to clear would
/// show in the traced run's rows.
#[test]
fn stage_rows_count_every_span_and_only_traced_spans_are_logged() {
    let _g = registry_lock();
    let untraced = live_pipeline_snapshot();
    perfclone_obs::set_trace_enabled(true);
    let traced = live_pipeline_snapshot();
    perfclone_obs::set_trace_enabled(false);

    let rows = |snap: &TelemetrySnapshot| -> BTreeMap<String, (u64, u64)> {
        snap.stages.iter().map(|s| (s.name.clone(), (s.calls, s.total_ns))).collect()
    };
    let mut from_spans: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in &traced.spans {
        let row = from_spans.entry(s.name.clone()).or_default();
        row.0 += 1;
        row.1 += s.duration_ns;
    }
    assert_eq!(rows(&traced), from_spans);
    for stage in ["profile.collect", "synth.gen", "validate.gate", "validate.measure"] {
        assert!(from_spans.contains_key(stage), "no traced {stage} span: {from_spans:?}");
    }

    assert!(untraced.spans.is_empty(), "untraced spans were logged: {:?}", untraced.spans);
    let calls = |snap: &TelemetrySnapshot| -> Vec<(String, u64)> {
        snap.stages.iter().map(|s| (s.name.clone(), s.calls)).collect()
    };
    assert_eq!(calls(&untraced), calls(&traced));
}

/// A report built from a live pipeline snapshot survives the JSON round
/// trip bit-for-bit and carries non-empty stage and cache summaries.
#[test]
fn live_snapshot_round_trips_through_run_report() {
    let _g = registry_lock();
    let snap = live_pipeline_snapshot();
    let report = RunReport::from_snapshot("test", "crc32", snap);
    assert!(report.stages.iter().any(|s| s.name == "profile.collect"), "{:?}", report.stages);
    assert!(report.stages.iter().any(|s| s.name == "synth.gen"));
    assert!(report.stages.iter().any(|s| s.name == "validate.gate"));
    assert!(report.caches.iter().any(|c| c.name == "profile" && c.lookups > 0));
    let json = report.to_json().expect("serialize");
    let back = RunReport::from_json(&json).expect("parse");
    assert_eq!(back, report);
}

/// Profiles, synthesizes and gates one clone on the calling thread and
/// returns the whole snapshot, wall-time data included (no
/// `deterministic()`).
fn live_pipeline_snapshot() -> TelemetrySnapshot {
    perfclone_obs::reset();
    let program = by_name("crc32").expect("kernel").build(Scale::Tiny).program;
    let cache = WorkloadCache::new();
    let profile = cache.profile("crc32", &program, 200_000).expect("profile");
    let params = SynthesisParams { target_dynamic: 20_000, ..SynthesisParams::default() };
    let clone = cache.clone_program("crc32", &program, 200_000, &params).expect("clone");
    let _report = Gate::default().report(&profile, &clone).expect("gate");
    perfclone_obs::snapshot()
}
