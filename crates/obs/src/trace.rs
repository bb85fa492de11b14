//! Event tracing with Chrome Trace Format export.
//!
//! While tracing is on, every span that closes and every
//! [`trace_instant`] is appended to the registry's event log together
//! with the thread it ran on; [`reset()`](crate::reset) clears the log. A
//! traced run keeps every event, so the export is complete. Tracing is
//! **off** by default and costs two relaxed atomic loads per span close
//! or instant while off; `--trace-out` (or [`set_trace_enabled`]) turns
//! it on. It also honours the global [`enabled()`](crate::enabled)
//! switch, so `PERFCLONE_OBS=0` silences tracing along with every other
//! instrument.
//!
//! [`chrome_trace`] renders the log as Chrome Trace Format JSON
//! (`{"traceEvents": [...]}`), loadable in Perfetto or
//! `chrome://tracing`, with one `tid` per thread. Each span becomes a
//! `"B"`/`"E"` pair carrying its id and parent id in `args` (parent edges
//! survive rayon pool hops because [`Span::child_of`](crate::Span) feeds
//! the explicit parent through), and each instant a thread-scoped `"i"`.
//! The log holds spans at their close, and a thread's spans close in
//! post-order: a span's children on its thread are the spans logged
//! before it with larger ids that no later span has claimed. So the
//! exporter rebuilds each thread's nesting from completion order and
//! span ids alone, with no tie-break on equal timestamps. A span that
//! closed while tracing was off is not in the log; its traced children
//! nest under the nearest traced span around them, or become roots.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use serde::Value;

use crate::registry::{registry, Event, EventKind, SpanRecord};

static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether event tracing is currently recording (requires both the trace
/// switch and the global [`enabled()`](crate::enabled) switch).
#[inline]
pub fn trace_enabled() -> bool {
    crate::enabled() && TRACING.load(Ordering::Relaxed)
}

/// Turns event tracing on or off. Off by default; the CLI enables it for
/// the duration of a `--trace-out` run.
pub fn set_trace_enabled(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// The calling thread's trace `tid`, assigned when it first logs an
/// event. Ids survive [`reset()`](crate::reset).
fn thread_id() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

/// Logs a span that closed while tracing was on. Called by `Span::drop`.
pub(crate) fn log_span(span: SpanRecord) {
    registry().log(Event { tid: thread_id(), kind: EventKind::Span(span) });
}

/// Records a thread-scoped instant event (rendered as `"i"` in the
/// exported trace). Near-free while tracing is off.
#[inline]
pub fn trace_instant(name: &'static str) {
    if !trace_enabled() {
        return;
    }
    let r = registry();
    let next_id = r.peek_span_id();
    let ts_ns = r.elapsed_ns();
    r.log(Event { tid: thread_id(), kind: EventKind::Instant { name, ts_ns, next_id } });
}

/// Event accounting for the RunReport v2 `trace` summary and the CLI's
/// post-export one-liner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events the export holds: two per traced span, one per instant.
    pub events: u64,
    /// Threads that logged at least one event.
    pub threads: u64,
}

/// Counts the logged events. Exact when writers are quiescent; while a
/// sweep is still running the totals may trail spans about to close.
pub fn trace_stats() -> TraceStats {
    registry().with_events(|log| TraceStats {
        events: log
            .iter()
            .map(|e| match e.kind {
                EventKind::Span(_) => 2,
                EventKind::Instant { .. } => 1,
            })
            .sum(),
        threads: log.iter().map(|e| e.tid).collect::<BTreeSet<_>>().len() as u64,
    })
}

/// Renders the event log as Chrome Trace Format JSON — an object with a
/// `traceEvents` array — loadable in Perfetto. Timestamps are
/// microseconds (fractional, nanosecond precision) since the registry
/// epoch. Each thread becomes one `tid` whose `B`/`E` pairs are balanced
/// and LIFO-nested (see module docs).
pub fn chrome_trace() -> String {
    let pid = u64::from(std::process::id());
    let doc = registry().with_events(|log| render(log, pid));
    serde_json::to_string(&doc).unwrap_or_else(|_| "{\"traceEvents\":[]}".to_string())
}

/// Builds the trace document of `log`. Per thread, `done` holds the
/// rendered events of each finished subtree with its key: a span's id, or
/// an instant's `next_id`. A closing span takes the trailing subtrees
/// keyed above its id, which are the ones that started inside it.
fn render(log: &[Event], pid: u64) -> Value {
    let mut threads: BTreeMap<u64, Vec<(u64, Vec<Value>)>> = BTreeMap::new();
    for event in log {
        let (tid, done) = (event.tid, threads.entry(event.tid).or_default());
        match event.kind {
            EventKind::Span(s) => {
                let inside = done.iter().rev().take_while(|(key, _)| *key > s.id).count();
                let mut events = vec![begin_event(s.name, pid, tid, s.start_ns, s.id, s.parent)];
                events.extend(done.drain(done.len() - inside..).flat_map(|(_, evs)| evs));
                events.push(end_event(s.name, pid, tid, s.start_ns + s.duration_ns));
                done.push((s.id, events));
            }
            EventKind::Instant { name, ts_ns, next_id } => {
                done.push((next_id, vec![instant_event(name, pid, tid, ts_ns)]));
            }
        }
    }
    let mut events = vec![meta_event("process_name", pid, 0, "perfclone")];
    for (tid, done) in threads {
        events.push(meta_event("thread_name", pid, tid, &format!("worker-{tid}")));
        events.extend(done.into_iter().flat_map(|(_, evs)| evs));
    }
    Value::Obj(vec![
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ("traceEvents".to_string(), Value::Arr(events)),
    ])
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

    fn span(tid: u64, id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Event {
        let record = SpanRecord { id, parent, name, start_ns: start, duration_ns: end - start };
        Event { tid, kind: EventKind::Span(record) }
    }

    fn instant(tid: u64, name: &'static str, ts_ns: u64, next_id: u64) -> Event {
        Event { tid, kind: EventKind::Instant { name, ts_ns, next_id } }
    }

    fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
        match v {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, fv)| fv),
            _ => None,
        }
        .unwrap_or_else(|| panic!("event has no {key:?}: {v:?}"))
    }

    fn text<'v>(v: &'v Value, key: &str) -> &'v str {
        match field(v, key) {
            Value::Str(s) => s,
            other => panic!("{key:?} is not a string: {other:?}"),
        }
    }

    /// The log in completion order, as two threads would leave it:
    ///
    /// * tid 1: `parent` (id 1) and `child` (id 2) both open at 100 and
    ///   close at 200; an instant fires inside `child` at 200 and another
    ///   just after `parent` closes, also at 200. Then `outer` (id 3)
    ///   holds siblings `left` (id 4, 300–400) and `right` (id 5,
    ///   400–500) that touch at 400.
    /// * tid 2: `orphan` (id 7, 160–170) is the child of span 6, which
    ///   closed after tracing was switched off and so is not logged.
    #[test]
    fn export_rebuilds_each_threads_nesting_from_the_log() {
        let log = [
            instant(1, "in_child", 200, 3),
            span(1, 2, 1, "child", 100, 200),
            span(2, 7, 6, "orphan", 160, 170),
            span(1, 1, 0, "parent", 100, 200),
            instant(1, "after_parent", 200, 3),
            span(1, 4, 3, "left", 300, 400),
            span(1, 5, 3, "right", 400, 500),
            span(1, 3, 0, "outer", 300, 500),
        ];
        let doc = render(&log, 9);
        let Value::Arr(events) = field(&doc, "traceEvents") else { panic!("no event array") };

        let mut per_tid: BTreeMap<u64, Vec<(String, String)>> = BTreeMap::new();
        let mut open: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
        for ev in events {
            let ph = text(ev, "ph");
            if ph == "M" {
                continue;
            }
            let (Value::U64(tid), Value::F64(ts)) = (field(ev, "tid"), field(ev, "ts")) else {
                panic!("bad tid or ts: {ev:?}")
            };
            let name = text(ev, "name").to_string();
            let prev = last_ts.entry(*tid).or_insert(0.0);
            assert!(*ts >= *prev, "tid {tid} ran backwards at {name}");
            *prev = *ts;
            let stack = open.entry(*tid).or_default();
            match ph {
                "B" => stack.push(name.clone()),
                "E" => assert_eq!(stack.pop().as_ref(), Some(&name), "tid {tid}: E out of order"),
                _ => {}
            }
            per_tid.entry(*tid).or_default().push((ph.to_string(), name));
        }
        assert!(open.values().all(Vec::is_empty), "unclosed spans: {open:?}");

        let seq = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs.iter().map(|(ph, name)| (ph.to_string(), name.to_string())).collect()
        };
        assert_eq!(
            per_tid[&1],
            seq(&[
                ("B", "parent"),
                ("B", "child"),
                ("i", "in_child"),
                ("E", "child"),
                ("E", "parent"),
                ("i", "after_parent"),
                ("B", "outer"),
                ("B", "left"),
                ("E", "left"),
                ("B", "right"),
                ("E", "right"),
                ("E", "outer"),
            ])
        );
        assert_eq!(per_tid[&2], seq(&[("B", "orphan"), ("E", "orphan")]));
        let orphan = events.iter().find(|e| text(e, "name") == "orphan").expect("orphan B");
        assert_eq!(field(field(orphan, "args"), "parent"), &Value::U64(6));
    }
}
