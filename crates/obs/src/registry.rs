//! The global telemetry registry: named atomic instruments, interned once
//! and updated lock-free, plus the event log that tracing appends to.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::report::{
    CounterEntry, GaugeEntry, HistogramBucket, HistogramEntry, SpanEntry, StageSummary,
    TelemetrySnapshot,
};

/// `HIST_BUCKETS` log2 buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds `[2^(i-1), 2^i − 1]`, and the last bucket tops out at `u64::MAX`.
const HIST_BUCKETS: usize = 65;

/// A monotonically increasing named counter. Updates are `Relaxed` atomic
/// adds; totals are exact because every increment lands (there is no
/// sampling), but a concurrent reader may observe mid-stage values — see
/// [`snapshot`] for the torn-read semantics.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`; a no-op while telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1; a no-op while telemetry is disabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named last-write-wins value (budgets, configured sizes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value; a no-op while telemetry is disabled.
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// sizes in bytes or instructions), with the running total of its
/// samples. Bucket totals of histograms fed by deterministic quantities
/// are thread-schedule independent; the `span.*.ns` latency histograms
/// are not.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    total: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS], total: AtomicU64::new(0) }
    }
}

/// Bucket index of a sample: 0 for 0, else `floor(log2 v) + 1`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` range of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

impl Histogram {
    /// Records one sample; a no-op while telemetry is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.total.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    fn entry(&self, name: &str) -> HistogramEntry {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                let (lo, hi) = bucket_range(i);
                buckets.push(HistogramBucket { lo, hi, count: c });
                count += c;
            }
        }
        HistogramEntry { name: name.to_string(), count, buckets }
    }

    /// The stage row of a `span.<stage>.ns` histogram that has samples.
    fn stage(&self, name: &str) -> Option<StageSummary> {
        let stage = name.strip_prefix("span.")?.strip_suffix(".ns")?;
        let calls = self.count();
        (calls > 0).then(|| StageSummary {
            name: stage.to_string(),
            calls,
            total_ns: self.total.load(Ordering::Relaxed),
        })
    }
}

/// One finished span, as the event log keeps it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub duration_ns: u64,
}

/// One entry of the event log, appended only while tracing is on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// The thread it happened on, numbered from 1 in the order threads
    /// first log an event.
    pub tid: u64,
    pub kind: EventKind,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum EventKind {
    /// A span that closed.
    Span(SpanRecord),
    /// An `instant!`. `next_id` is the span-id counter at the instant:
    /// the spans with smaller ids opened before it, so it lies inside each
    /// of those on its thread that closes after it.
    Instant { name: &'static str, ts_ns: u64, next_id: u64 },
}

pub(crate) struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    events: Mutex<Vec<Event>>,
    next_span_id: AtomicU64,
    epoch: Instant,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Instrument maps are only mutated by `BTreeMap::insert`, which
    // cannot be observed half-done through a poisoned lock: recover.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        events: Mutex::new(Vec::new()),
        next_span_id: AtomicU64::new(1),
        epoch: Instant::now(),
    })
}

impl Registry {
    pub(crate) fn next_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The id [`next_span_id`](Registry::next_span_id) hands out next.
    pub(crate) fn peek_span_id(&self) -> u64 {
        self.next_span_id.load(Ordering::Relaxed)
    }

    pub(crate) fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub(crate) fn log(&self, event: Event) {
        lock(&self.events).push(event);
    }

    /// Runs `f` on the event log, oldest entry first.
    pub(crate) fn with_events<R>(&self, f: impl FnOnce(&[Event]) -> R) -> R {
        f(&lock(&self.events))
    }
}

fn intern<T: Default>(map: &Mutex<BTreeMap<&'static str, &'static T>>, name: &str) -> &'static T {
    let mut map = lock(map);
    if let Some(handle) = map.get(name) {
        return handle;
    }
    let leaked_name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let handle: &'static T = Box::leak(Box::new(T::default()));
    map.insert(leaked_name, handle);
    handle
}

/// Interns (or finds) the counter named `name`. The handle is `'static`;
/// cache it (the [`count!`](crate::count) macro does) so the name map is
/// consulted once per call site.
pub fn counter(name: &str) -> &'static Counter {
    intern(&registry().counters, name)
}

/// Interns (or finds) the gauge named `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    intern(&registry().gauges, name)
}

/// Interns (or finds) the histogram named `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    intern(&registry().histograms, name)
}

fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let off =
            matches!(std::env::var("PERFCLONE_OBS").as_deref(), Ok("0") | Ok("off") | Ok("false"));
        AtomicBool::new(!off)
    })
}

/// Whether telemetry updates are being recorded. Defaults to `true`;
/// `PERFCLONE_OBS=0` (or `off`/`false`) starts the process disabled.
#[inline]
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Enables or disables all telemetry recording at runtime (instrument
/// reads, [`snapshot`], and [`reset`] keep working either way).
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// Takes a full snapshot of the registry: every instrument, sorted by
/// name, the stage rows read from the `span.<stage>.ns` histograms, and
/// the traced spans in completion order.
///
/// Torn-read semantics: each atomic is read once with `Relaxed` ordering
/// and no global lock is held across instruments, so a snapshot taken
/// *while stages are running* may mix values from slightly different
/// instants (e.g. `lookups` observed before a racing `computes`
/// increment). Between stages — where every report in this workspace is
/// taken — all updates have completed and the snapshot is exact.
///
/// Two guarantees hold even mid-run, and the timeline
/// [`Sampler`](crate::Sampler) depends on both: snapshotting never
/// panics or blocks writers, and each *individual* counter is monotonic
/// across successive snapshots (every `add` lands exactly once, so a
/// later snapshot can only observe an equal or larger total). What a
/// torn read can do is skew *relationships between* instruments — a
/// derived quantity like `lookups − computes` may be transiently off by
/// in-flight updates — which is why the sampler computes all derived
/// values with saturating arithmetic and clamps its monotonic series.
pub fn snapshot() -> TelemetrySnapshot {
    let r = registry();
    let counters = lock(&r.counters)
        .iter()
        .map(|(name, c)| CounterEntry { name: (*name).to_string(), value: c.get() })
        .collect();
    let gauges = lock(&r.gauges)
        .iter()
        .map(|(name, g)| GaugeEntry { name: (*name).to_string(), value: g.get() })
        .collect();
    let (histograms, stages) = {
        let histograms = lock(&r.histograms);
        (
            histograms.iter().map(|(name, h)| h.entry(name)).collect(),
            histograms.iter().filter_map(|(name, h)| h.stage(name)).collect(),
        )
    };
    let spans = r.with_events(|log| {
        log.iter()
            .filter_map(|e| match e.kind {
                EventKind::Span(s) => Some(SpanEntry {
                    id: s.id,
                    parent: s.parent,
                    name: s.name.to_string(),
                    start_ns: s.start_ns,
                    duration_ns: s.duration_ns,
                }),
                EventKind::Instant { .. } => None,
            })
            .collect()
    });
    TelemetrySnapshot { counters, gauges, histograms, stages, spans }
}

/// Zeroes every instrument, histogram totals included, and clears the
/// event log. Registrations (and cached handles) stay valid. Intended
/// for tests and for the CLI, which resets before a `--report` run so
/// the report covers exactly one command.
pub fn reset() {
    let r = registry();
    for c in lock(&r.counters).values() {
        c.0.store(0, Ordering::Relaxed);
    }
    for g in lock(&r.gauges).values() {
        g.0.store(0, Ordering::Relaxed);
    }
    for h in lock(&r.histograms).values() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.total.store(0, Ordering::Relaxed);
    }
    lock(&r.events).clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::registry_lock;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn interning_returns_the_same_handle() {
        let a = counter("test.intern.same") as *const Counter;
        let b = counter("test.intern.same") as *const Counter;
        assert_eq!(a, b);
        let h1 = histogram("test.intern.hist") as *const Histogram;
        let h2 = histogram("test.intern.hist") as *const Histogram;
        assert_eq!(h1, h2);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let _g = registry_lock();
        let c = counter("test.reset.counter");
        c.add(7);
        let h = histogram("test.reset.hist");
        h.record(100);
        reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.incr();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn concurrent_snapshots_never_observe_a_counter_going_backwards() {
        let _g = registry_lock();
        reset();
        let c = counter("test.torn.counter");
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // Add before checking stop: even a writer first
                    // scheduled after the reader finished lands at least
                    // one increment, keeping the final assert meaningful.
                    loop {
                        c.add(3);
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                });
            }
            let mut prev = 0u64;
            for _ in 0..2_000 {
                let snap = snapshot();
                let v = snap
                    .counters
                    .iter()
                    .find(|e| e.name == "test.torn.counter")
                    .map_or(0, |e| e.value);
                assert!(v >= prev, "counter went backwards: {v} < {prev}");
                prev = v;
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(c.get() > 0);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let _g = registry_lock();
        reset();
        counter("test.sort.b").incr();
        counter("test.sort.a").incr();
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
