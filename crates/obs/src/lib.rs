//! # perfclone-obs
//!
//! Zero-dependency pipeline telemetry for the performance-cloning
//! toolchain: a global registry of named [`Counter`]s, [`Gauge`]s, and
//! log2-bucketed [`Histogram`]s, lightweight RAII [`Span`]s that record
//! wall time per pipeline stage into a `span.<stage>.ns` histogram, and
//! a versioned, machine-readable [`RunReport`] serialized through the
//! vendored serde shims.
//!
//! Every pipeline stage — profile collection, SFG walk and clone
//! emission, stack-distance cache sweeps, statistical simulation, the
//! fidelity gate, and the shared [`WorkloadCache`] — publishes into one
//! registry, so a single snapshot describes where a run's time and work
//! went. The CLI's `--report` flag and the bench binaries serialize that
//! snapshot as a [`RunReport`]; `perfclone report` pretty-prints a saved
//! one.
//!
//! [`WorkloadCache`]: https://docs.rs/perfclone
//!
//! ## Hot-path contract
//!
//! The update path is lock-free: handles are `&'static` atomics interned
//! once per name (the [`count!`]/[`record!`]/[`gauge!`] macros cache the
//! handle in a local `OnceLock`, so the name→handle map is consulted once
//! per call *site*, not per call), and every update is one `Relaxed`
//! atomic RMW (two for a histogram sample: its bucket and its total)
//! behind one `Relaxed` enabled-flag load. Instrumented code
//! batches: hot loops accumulate locally and publish once per stage, so
//! enabling telemetry costs well under 1 % on the sweep benches (see
//! EXPERIMENTS.md "Telemetry overhead"). A span's one always-on record
//! is its histogram: the sample count and running total are the stage's
//! calls and wall time, so the telemetry a run keeps does not grow with
//! the number of spans it closes.
//!
//! Telemetry is on by default; `PERFCLONE_OBS=0` (or `off`/`false`) or
//! [`set_enabled`]`(false)` turns every update into a near-free branch.
//!
//! ## Determinism contract
//!
//! Counter totals, gauge values, and the bucket totals of histograms not
//! derived from wall time are functions of the work performed, never of
//! the thread schedule — the same seed yields the same snapshot at any
//! `PERFCLONE_JOBS`. Wall-clock data (span durations, the `span.*.ns`
//! histograms they feed and the stage rows read from those) is the
//! explicit exception; filter it with
//! [`TelemetrySnapshot::deterministic`]. `tests/observability.rs` holds
//! the pipeline to this contract by property test.
//!
//! ## Spans under rayon
//!
//! [`Span::enter`] nests under the calling thread's current span via a
//! thread-local. Worker threads spawned by the rayon shim start with no
//! current span, so parallel stages capture [`current`] *before* fanning
//! out and open children with [`Span::child_of`], carrying the parent id
//! across the pool explicitly:
//!
//! ```
//! use perfclone_obs::{current, Span};
//! let sweep = Span::enter("sweep");
//! let parent = current(); // capture on the driving thread
//! // inside each rayon closure:
//! let _cell = Span::child_of(parent, "sweep.cell");
//! ```
//!
//! ## Event tracing and live telemetry
//!
//! Beyond aggregates, the crate records individual events while tracing
//! is on: each span that closes and each [`instant!`] marker is appended,
//! with its thread, to the registry's event log (see the `trace` module
//! docs), which exports as Chrome Trace Format JSON via [`chrome_trace`],
//! loadable in Perfetto. Tracing is off by default; the CLI's
//! `--trace-out FILE` flag enables it for one run.
//! A [`Sampler`] thread turns the same registry into live JSONL
//! heartbeats on stderr and a down-sampled [`Timeline`] for the
//! [`RunReport`] v2 `timeline` section, with RSS self-sampled through
//! [`rss`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod registry;
mod report;
pub mod rss;
mod sample;
mod span;
mod trace;

pub use registry::{
    counter, enabled, gauge, histogram, reset, set_enabled, snapshot, Counter, Gauge, Histogram,
};
pub use report::{
    fmt_ns, CacheRates, CounterEntry, DegradedCoverage, GateAttribute, GaugeEntry, HistogramBucket,
    HistogramEntry, Metric, QuarantinedCell, RunReport, SpanEntry, StageSummary, SweepStats,
    TelemetrySnapshot, Timeline, TimelinePoint, TraceSummary, REPORT_VERSION,
};
pub use sample::{Sampler, SamplerConfig};
pub use span::{current, Span, SpanId};
pub use trace::{
    chrome_trace, set_trace_enabled, trace_enabled, trace_instant, trace_stats, TraceStats,
};

/// Opens an RAII span: `let _s = span!("synth.gen");`. The span closes
/// (and records) when the guard drops. Nested under the thread's current
/// span; see [`Span::child_of`] for crossing rayon pools.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::Span::enter($name)
    };
}

/// Adds to a named counter: `count!("synth.walk.steps", n)`; with one
/// argument, increments by 1. The handle is interned on first use per
/// call site, so steady-state cost is one atomic add.
#[macro_export]
macro_rules! count {
    ($name:literal) => {
        $crate::count!($name, 1u64)
    };
    ($name:literal, $n:expr) => {{
        static __HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        __HANDLE.get_or_init(|| $crate::counter($name)).add(($n) as u64);
    }};
}

/// Sets a named gauge to a value: `gauge!("synth.walk.budget", b)`.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $v:expr) => {{
        static __HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        __HANDLE.get_or_init(|| $crate::gauge($name)).set(($v) as u64);
    }};
}

/// Records a thread-scoped instant event into the trace log:
/// `instant!("grid.cell.finish")`. Near-free while tracing is off (the
/// default); see [`set_trace_enabled`] and the `--trace-out` CLI flag.
#[macro_export]
macro_rules! instant {
    ($name:literal) => {
        $crate::trace_instant($name)
    };
}

/// Records a value into a named log2-bucketed histogram:
/// `record!("profile.block_size", size)`.
#[macro_export]
macro_rules! record {
    ($name:literal, $v:expr) => {{
        static __HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        __HANDLE.get_or_init(|| $crate::histogram($name)).record(($v) as u64);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The registry is process-global; tests that read snapshots
    /// serialize on this lock and reset first.
    pub(crate) fn registry_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn macros_update_the_registry() {
        let _g = registry_lock();
        reset();
        count!("test.macro.counter");
        count!("test.macro.counter", 4);
        gauge!("test.macro.gauge", 17);
        record!("test.macro.hist", 9);
        let snap = snapshot();
        let c = snap.counters.iter().find(|c| c.name == "test.macro.counter");
        assert_eq!(c.map(|c| c.value), Some(5));
        let g = snap.gauges.iter().find(|g| g.name == "test.macro.gauge");
        assert_eq!(g.map(|g| g.value), Some(17));
        let h = snap.histograms.iter().find(|h| h.name == "test.macro.hist").unwrap();
        assert_eq!(h.count, 1);
        // 9 lands in the [8, 15] bucket.
        assert_eq!(h.buckets, vec![HistogramBucket { lo: 8, hi: 15, count: 1 }]);
    }

    #[test]
    fn disabled_registry_drops_updates() {
        let _g = registry_lock();
        reset();
        set_enabled(false);
        count!("test.disabled.counter", 10);
        record!("test.disabled.hist", 10);
        let _s = span!("test.disabled.span");
        drop(_s);
        set_enabled(true);
        let snap = snapshot();
        assert!(snap.counters.iter().all(|c| c.name != "test.disabled.counter" || c.value == 0));
        assert!(snap.histograms.iter().all(|h| h.name != "test.disabled.hist" || h.count == 0));
        assert!(snap.spans.iter().all(|s| s.name != "test.disabled.span"));
        assert!(snap.stages.iter().all(|s| s.name != "test.disabled.span"));
    }

    #[test]
    fn spans_nest_and_carry_explicit_parents() {
        let _g = registry_lock();
        reset();
        set_trace_enabled(true);
        let outer = Span::enter("test.outer");
        let outer_id = outer.id().map(SpanId::get).unwrap_or(0);
        {
            let _inner = Span::enter("test.inner");
        }
        // Simulate a rayon worker: no thread-local context, explicit id.
        let captured = outer.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(current().is_none(), "workers start span-free");
                let _cell = Span::child_of(captured, "test.cell");
            });
        });
        drop(outer);
        set_trace_enabled(false);
        let snap = snapshot();
        let find = |name: &str| snap.spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(find("test.inner").parent, outer_id);
        assert_eq!(find("test.cell").parent, outer_id);
        assert_eq!(find("test.outer").parent, 0);
        // Span durations feed the span.*.ns latency histograms.
        assert!(snap.histograms.iter().any(|h| h.name == "span.test.outer.ns" && h.count == 1));
    }

    #[test]
    fn deterministic_view_excludes_wall_time() {
        let _g = registry_lock();
        reset();
        count!("test.det.counter", 3);
        record!("test.det.hist", 2);
        {
            let _s = span!("test.det.span");
        }
        let det = snapshot().deterministic();
        assert!(det.spans.is_empty());
        assert!(det.stages.is_empty());
        assert!(det.histograms.iter().all(|h| !h.name.starts_with("span.")));
        assert!(det.counters.iter().any(|c| c.name == "test.det.counter"));
        assert!(det.histograms.iter().any(|h| h.name == "test.det.hist"));
    }

    #[test]
    fn reset_clears_stage_totals_and_the_event_log() {
        let _g = registry_lock();
        reset();
        set_trace_enabled(true);
        {
            let _s = span!("test.reset.span");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        reset();
        {
            let _s = span!("test.reset.span");
        }
        set_trace_enabled(false);
        let snap = snapshot();
        let spans: Vec<&SpanEntry> =
            snap.spans.iter().filter(|s| s.name == "test.reset.span").collect();
        assert_eq!(spans.len(), 1, "the span before the reset is gone");
        let stage = snap.stages.iter().find(|s| s.name == "test.reset.span").unwrap();
        assert_eq!((stage.calls, stage.total_ns), (1, spans[0].duration_ns));
    }
}
