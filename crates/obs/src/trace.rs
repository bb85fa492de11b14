//! Per-thread lock-free event rings with Chrome Trace Format export.
//!
//! Every thread that emits a trace event owns a fixed-capacity ring of
//! slots; the owning thread is the only writer, so writes are plain
//! atomic stores guarded by a per-slot sequence counter (a seqlock). The
//! exporter — and nothing else — reads rings, possibly while their owners
//! are still writing: a slot whose sequence is odd or changes across the
//! read is simply counted as dropped, never torn into a half-written
//! event. When a ring wraps, the oldest events are overwritten and the
//! difference between the monotonic write count (`head`) and the ring
//! capacity is reported as the dropped-event count.
//!
//! Tracing is **off** by default and costs two relaxed atomic loads per
//! call site while off; `--trace-out` (or [`set_trace_enabled`]) turns
//! it on. Events additionally honour the global
//! [`enabled()`](crate::enabled) switch, so `PERFCLONE_OBS=0` silences
//! tracing along with every other instrument.
//!
//! [`chrome_trace`] renders the retained events as Chrome Trace Format
//! JSON (`{"traceEvents": [...]}`), loadable in Perfetto or
//! `chrome://tracing`. Span begin/end pairs become `"B"`/`"E"` duration
//! events carrying the span id and parent id in `args` (parent edges
//! survive rayon pool hops because [`Span::child_of`](crate::Span) feeds
//! the explicit parent through), and [`trace_instant`] events become
//! thread-scoped `"i"` instants. Export re-balances each thread's stream:
//! `E` events whose `B` was overwritten by a wrap are dropped, and spans
//! still open at export time are closed at the last timestamp seen, so
//! every exported tid has balanced, LIFO-nested `B`/`E` pairs.

use std::cell::OnceCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use serde::Value;

pub(crate) const KIND_BEGIN: u32 = 1;
pub(crate) const KIND_END: u32 = 2;
pub(crate) const KIND_INSTANT: u32 = 3;

/// Default ring capacity (events per thread); override with
/// `PERFCLONE_TRACE_RING` or [`set_trace_ring_capacity`].
const DEFAULT_RING_CAPACITY: usize = 1 << 14;
const MIN_RING_CAPACITY: usize = 8;
const MAX_RING_CAPACITY: usize = 1 << 22;

/// Open-addressed name-interning probe table size (power of two). The
/// workspace has a few dozen distinct event names; collisions past the
/// table fall back to a mutex-guarded content scan.
const NAME_SLOTS: usize = 1024;

/// One event slot. The sequence counter is even when the slot is stable
/// and odd while the owning thread is overwriting it.
struct Slot {
    seq: AtomicU32,
    kind: AtomicU32,
    name: AtomicU32,
    ts_ns: AtomicU64,
    id: AtomicU64,
    parent: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            seq: AtomicU32::new(0),
            kind: AtomicU32::new(0),
            name: AtomicU32::new(0),
            ts_ns: AtomicU64::new(0),
            id: AtomicU64::new(0),
            parent: AtomicU64::new(0),
        }
    }
}

/// A decoded, consistent event read out of a ring.
#[derive(Clone, Copy, Debug)]
struct RawEvent {
    kind: u32,
    name: u32,
    ts_ns: u64,
    id: u64,
    parent: u64,
}

/// One thread's event ring. `head` counts every event ever written (the
/// write cursor is `head % capacity`), so `head - capacity` events have
/// been overwritten once the ring wraps.
struct Ring {
    tid: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u64, capacity: usize) -> Ring {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, Slot::new);
        Ring { tid, head: AtomicU64::new(0), slots: slots.into_boxed_slice() }
    }

    /// Writes one event. Only ever called from the ring's owning thread.
    fn push(&self, kind: u32, name: u32, ts_ns: u64, id: u64, parent: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let mask = self.slots.len() - 1;
        let Some(slot) = self.slots.get(head as usize & mask) else { return };
        // Seqlock write: odd sequence marks the slot in flux. Release
        // fences order the field stores between the two seq updates for
        // a concurrent exporter.
        slot.seq.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.kind.store(kind, Ordering::Relaxed);
        slot.name.store(name, Ordering::Relaxed);
        slot.ts_ns.store(ts_ns, Ordering::Relaxed);
        slot.id.store(id, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.seq.fetch_add(1, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Reads every retained event in write order, skipping (and counting
    /// as dropped) slots that are mid-write or overwritten during the
    /// read. The first element of the return is the events; the second is
    /// the dropped count (wrap overwrites plus torn reads).
    fn collect(&self) -> (Vec<RawEvent>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut dropped = start;
        let mut out = Vec::with_capacity((head - start) as usize);
        let mask = self.slots.len() - 1;
        for i in start..head {
            let Some(slot) = self.slots.get(i as usize & mask) else { continue };
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                dropped += 1;
                continue;
            }
            let ev = RawEvent {
                kind: slot.kind.load(Ordering::Relaxed),
                name: slot.name.load(Ordering::Relaxed),
                ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                id: slot.id.load(Ordering::Relaxed),
                parent: slot.parent.load(Ordering::Relaxed),
            };
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                dropped += 1;
                continue;
            }
            out.push(ev);
        }
        (out, dropped)
    }
}

struct NameSlot {
    /// Thin pointer of the interned `&'static str` (0 = empty). Published
    /// with `Release` *after* `idx`, so a `key` hit implies `idx` is set.
    key: AtomicUsize,
    idx: AtomicU32,
}

impl NameSlot {
    const fn new() -> NameSlot {
        NameSlot { key: AtomicUsize::new(0), idx: AtomicU32::new(0) }
    }
}

struct TraceState {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    next_tid: AtomicU64,
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Interned event names; `RawEvent::name` indexes this table.
    names: Mutex<Vec<String>>,
    name_slots: Box<[NameSlot]>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn state() -> &'static TraceState {
    static STATE: OnceLock<TraceState> = OnceLock::new();
    STATE.get_or_init(|| {
        let capacity = std::env::var("PERFCLONE_TRACE_RING")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .map_or(DEFAULT_RING_CAPACITY, clamp_capacity);
        let mut name_slots = Vec::with_capacity(NAME_SLOTS);
        name_slots.resize_with(NAME_SLOTS, NameSlot::new);
        TraceState {
            enabled: AtomicBool::new(false),
            capacity: AtomicUsize::new(capacity),
            next_tid: AtomicU64::new(1),
            rings: Mutex::new(Vec::new()),
            names: Mutex::new(Vec::new()),
            name_slots: name_slots.into_boxed_slice(),
        }
    })
}

fn clamp_capacity(cap: usize) -> usize {
    cap.clamp(MIN_RING_CAPACITY, MAX_RING_CAPACITY).next_power_of_two()
}

/// Whether event tracing is currently recording (requires both the trace
/// switch and the global [`enabled()`](crate::enabled) switch).
#[inline]
pub fn trace_enabled() -> bool {
    crate::enabled() && state().enabled.load(Ordering::Relaxed)
}

/// Turns event tracing on or off. Off by default; the CLI enables it for
/// the duration of a `--trace-out` run.
pub fn set_trace_enabled(on: bool) {
    state().enabled.store(on, Ordering::Relaxed);
}

/// Sets the per-thread ring capacity (rounded up to a power of two) for
/// rings created *after* the call; existing rings keep their size. Also
/// settable at process start with `PERFCLONE_TRACE_RING`.
pub fn set_trace_ring_capacity(capacity: usize) {
    state().capacity.store(clamp_capacity(capacity), Ordering::Relaxed);
}

thread_local! {
    static LOCAL_RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
}

/// Runs `f` on the calling thread's ring, creating and registering it on
/// first use. Quietly does nothing during thread-local teardown.
fn with_ring(f: impl FnOnce(&Ring)) {
    let _ = LOCAL_RING.try_with(|cell| {
        let ring = cell.get_or_init(|| {
            let s = state();
            let tid = s.next_tid.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(Ring::new(tid, s.capacity.load(Ordering::Relaxed)));
            lock(&s.rings).push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

/// Interns `name` and returns its index in the export name table. The
/// fast path is one probe of a lock-free open-addressed table keyed by
/// the string's address (event names are `&'static str` literals, so the
/// address is stable per call site).
fn name_id(name: &'static str) -> u32 {
    let s = state();
    let key = name.as_ptr() as usize;
    let mask = NAME_SLOTS - 1;
    let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    for step in 0..NAME_SLOTS {
        let Some(slot) = s.name_slots.get((h + step) & mask) else { break };
        let k = slot.key.load(Ordering::Acquire);
        if k == key {
            return slot.idx.load(Ordering::Relaxed);
        }
        if k == 0 {
            // Claim under the names mutex so idx allocation and slot
            // publication are atomic with respect to other claimers.
            let mut names = lock(&s.names);
            let k = slot.key.load(Ordering::Acquire);
            if k == key {
                return slot.idx.load(Ordering::Relaxed);
            }
            if k != 0 {
                continue; // lost the slot to a different name; keep probing
            }
            let idx = names.len() as u32;
            names.push(name.to_string());
            slot.idx.store(idx, Ordering::Relaxed);
            slot.key.store(key, Ordering::Release);
            return idx;
        }
    }
    // Probe table exhausted (hundreds of distinct names): fall back to a
    // content scan under the mutex. Correct, just slower.
    let mut names = lock(&s.names);
    if let Some(idx) = names.iter().position(|n| n == name) {
        return idx as u32;
    }
    let idx = names.len() as u32;
    names.push(name.to_string());
    idx
}

/// Records a thread-scoped instant event (rendered as `"i"` in the
/// exported trace). Near-free while tracing is off.
#[inline]
pub fn trace_instant(name: &'static str) {
    if !trace_enabled() {
        return;
    }
    let id = name_id(name);
    let ts = crate::registry::registry().elapsed_ns();
    with_ring(|r| r.push(KIND_INSTANT, id, ts, 0, 0));
}

/// Records a span-begin event. Called by [`Span::open`](crate::Span) with
/// the span's id, parent id, and start timestamp.
#[inline]
pub(crate) fn span_begin(name: &'static str, span_id: u64, parent: u64, ts_ns: u64) {
    if !trace_enabled() {
        return;
    }
    let id = name_id(name);
    with_ring(|r| r.push(KIND_BEGIN, id, ts_ns, span_id, parent));
}

/// Records a span-end event. Called by `Span::drop`.
#[inline]
pub(crate) fn span_end(name: &'static str, span_id: u64, parent: u64) {
    if !trace_enabled() {
        return;
    }
    let id = name_id(name);
    let ts = crate::registry::registry().elapsed_ns();
    with_ring(|r| r.push(KIND_END, id, ts, span_id, parent));
}

/// Rewinds every ring (and so the event and dropped counts) to empty.
/// Registered rings, interned names, and thread ids survive. Intended for
/// quiescent points, like [`reset()`](crate::reset) — which calls this.
pub(crate) fn trace_reset() {
    for ring in lock(&state().rings).iter() {
        ring.head.store(0, Ordering::Release);
    }
}

/// Aggregate event accounting across every ring, for the RunReport v2
/// `trace` summary and the CLI's post-export one-liner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events written over the rings' lifetime (retained + dropped).
    pub events: u64,
    /// Events lost to ring wrap (oldest-first overwrite).
    pub dropped: u64,
    /// Threads that wrote at least one event.
    pub threads: u64,
}

/// Returns the current event accounting. Exact when writers are
/// quiescent; while a sweep is still running the totals may trail the
/// writers by in-flight events.
pub fn trace_stats() -> TraceStats {
    let s = state();
    let mut stats = TraceStats::default();
    for ring in lock(&s.rings).iter() {
        let head = ring.head.load(Ordering::Acquire);
        if head == 0 {
            continue;
        }
        let cap = ring.slots.len() as u64;
        stats.events += head;
        stats.dropped += head.saturating_sub(cap);
        stats.threads += 1;
    }
    stats
}

/// Renders every retained event as Chrome Trace Format JSON — an object
/// with a `traceEvents` array — loadable in Perfetto. Timestamps are
/// microseconds (fractional, nanosecond precision) since the registry
/// epoch. Each ring becomes one `tid`; per tid the stream is re-balanced
/// so `B`/`E` pairs always match (see module docs).
pub fn chrome_trace() -> String {
    let s = state();
    let names: Vec<String> = lock(&s.names).clone();
    let mut rings: Vec<Arc<Ring>> = lock(&s.rings).iter().map(Arc::clone).collect();
    rings.sort_by_key(|r| r.tid);
    let pid = u64::from(std::process::id());

    let mut events: Vec<Value> = Vec::new();
    events.push(meta_event("process_name", pid, 0, "perfclone"));
    for ring in &rings {
        let (raw, _dropped) = ring.collect();
        if raw.is_empty() {
            continue;
        }
        events.push(meta_event("thread_name", pid, ring.tid, &format!("worker-{}", ring.tid)));
        // Track open B events so the exported stream is balanced even if
        // a wrap ate a B (skip its orphaned E) or a span is still open
        // (synthesize its E at the last timestamp seen).
        let mut open: Vec<u32> = Vec::new();
        let mut last_ts = 0u64;
        for ev in &raw {
            last_ts = last_ts.max(ev.ts_ns);
            let name = names.get(ev.name as usize).map_or("?", String::as_str);
            match ev.kind {
                KIND_BEGIN => {
                    open.push(ev.name);
                    events.push(begin_event(name, pid, ring.tid, ev.ts_ns, ev.id, ev.parent));
                }
                KIND_END => {
                    if open.pop().is_none() {
                        continue; // B lost to wrap; dropping E keeps the tid balanced
                    }
                    events.push(end_event(name, pid, ring.tid, ev.ts_ns));
                }
                _ => events.push(instant_event(name, pid, ring.tid, ev.ts_ns)),
            }
        }
        while let Some(name_idx) = open.pop() {
            let name = names.get(name_idx as usize).map_or("?", String::as_str);
            events.push(end_event(name, pid, ring.tid, last_ts));
        }
    }

    let doc = Value::Obj(vec![
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ("traceEvents".to_string(), Value::Arr(events)),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|_| "{\"traceEvents\":[]}".to_string())
}

fn ts_us(ts_ns: u64) -> Value {
    Value::F64(ts_ns as f64 / 1000.0)
}

fn event_base(name: &str, ph: &str, pid: u64, tid: u64) -> Vec<(String, Value)> {
    vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("ph".to_string(), Value::Str(ph.to_string())),
        ("pid".to_string(), Value::U64(pid)),
        ("tid".to_string(), Value::U64(tid)),
    ]
}

fn meta_event(name: &str, pid: u64, tid: u64, arg_name: &str) -> Value {
    let mut fields = event_base(name, "M", pid, tid);
    fields.push((
        "args".to_string(),
        Value::Obj(vec![("name".to_string(), Value::Str(arg_name.to_string()))]),
    ));
    Value::Obj(fields)
}

fn begin_event(name: &str, pid: u64, tid: u64, ts_ns: u64, id: u64, parent: u64) -> Value {
    let mut fields = event_base(name, "B", pid, tid);
    fields.push(("cat".to_string(), Value::Str("span".to_string())));
    fields.push(("ts".to_string(), ts_us(ts_ns)));
    fields.push((
        "args".to_string(),
        Value::Obj(vec![
            ("id".to_string(), Value::U64(id)),
            ("parent".to_string(), Value::U64(parent)),
        ]),
    ));
    Value::Obj(fields)
}

fn end_event(name: &str, pid: u64, tid: u64, ts_ns: u64) -> Value {
    let mut fields = event_base(name, "E", pid, tid);
    fields.push(("cat".to_string(), Value::Str("span".to_string())));
    fields.push(("ts".to_string(), ts_us(ts_ns)));
    Value::Obj(fields)
}

fn instant_event(name: &str, pid: u64, tid: u64, ts_ns: u64) -> Value {
    let mut fields = event_base(name, "i", pid, tid);
    fields.push(("cat".to_string(), Value::Str("instant".to_string())));
    fields.push(("ts".to_string(), ts_us(ts_ns)));
    fields.push(("s".to_string(), Value::Str("t".to_string())));
    Value::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::registry_lock;

    #[test]
    fn ring_records_in_order_and_wraps_with_accurate_drop_count() {
        let ring = Ring::new(1, 8);
        for i in 0..5u64 {
            ring.push(KIND_INSTANT, 0, i * 10, 0, 0);
        }
        let (events, dropped) = ring.collect();
        assert_eq!(dropped, 0);
        assert_eq!(events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(), [0, 10, 20, 30, 40]);
        for i in 5..20u64 {
            ring.push(KIND_INSTANT, 0, i * 10, 0, 0);
        }
        let (events, dropped) = ring.collect();
        assert_eq!(dropped, 12, "20 written, 8 retained");
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().map(|e| e.ts_ns), Some(120), "oldest retained is #12");
        assert_eq!(events.last().map(|e| e.ts_ns), Some(190));
    }

    #[test]
    fn torn_slots_are_skipped_not_misread() {
        let ring = Ring::new(1, 8);
        ring.push(KIND_INSTANT, 7, 100, 0, 0);
        // Simulate a write caught mid-flight: odd sequence.
        if let Some(slot) = ring.slots.get(1) {
            slot.seq.fetch_add(1, Ordering::Release);
        }
        ring.head.store(2, Ordering::Release);
        let (events, dropped) = ring.collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events.first().map(|e| e.name), Some(7));
        assert_eq!(dropped, 1);
    }

    #[test]
    fn name_interning_is_stable_and_content_addressed() {
        let a = name_id("test.trace.name.a");
        let b = name_id("test.trace.name.b");
        assert_ne!(a, b);
        assert_eq!(name_id("test.trace.name.a"), a);
        let names = lock(&state().names);
        assert_eq!(names.get(a as usize).map(String::as_str), Some("test.trace.name.a"));
        assert_eq!(names.get(b as usize).map(String::as_str), Some("test.trace.name.b"));
    }

    #[test]
    fn export_balances_wrapped_and_unclosed_streams() {
        let _g = registry_lock();
        crate::reset();
        set_trace_enabled(true);
        // Thread with its own small ring: B, E, then an unclosed B.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                with_ring(|r| {
                    let n = name_id("test.trace.balance");
                    r.push(KIND_END, n, 5, 1, 0); // orphaned E (B lost to "wrap")
                    r.push(KIND_BEGIN, n, 10, 2, 0);
                    r.push(KIND_END, n, 20, 2, 0);
                    r.push(KIND_BEGIN, n, 30, 3, 0); // left open
                    r.push(KIND_INSTANT, n, 40, 0, 0);
                });
            });
        });
        set_trace_enabled(false);
        let json = chrome_trace();
        let v: Value = serde_json::from_str(&json).unwrap();
        let Value::Obj(fields) = &v else { panic!("not an object") };
        let events = fields.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v).unwrap();
        let Value::Arr(events) = events else { panic!("traceEvents not an array") };
        let mut depth = 0i64;
        for ev in events {
            let Value::Obj(f) = ev else { panic!("event not an object") };
            let ph = f.iter().find(|(k, _)| k == "ph").map(|(_, v)| v).unwrap();
            match ph {
                Value::Str(s) if s == "B" => depth += 1,
                Value::Str(s) if s == "E" => {
                    depth -= 1;
                    assert!(depth >= 0, "E without matching B in export");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "every B closed in export");
    }
}
