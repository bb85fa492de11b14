//! RAII wall-time spans with explicit parent propagation across thread
//! pools.

use std::cell::Cell;

use crate::registry::{registry, SpanRecord};

thread_local! {
    /// Id of the innermost open span on this thread (0 = none). Worker
    /// threads spawned by the rayon shim are fresh std threads and start
    /// at 0 — parallel stages must carry the parent id explicitly via
    /// [`Span::child_of`].
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Opaque identifier of an open span, used to parent spans across thread
/// pools. Ids are unique within a process run and never 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw id, as it appears in [`SpanEntry::id`] and
    /// [`SpanEntry::parent`] (where 0 marks a root span).
    ///
    /// [`SpanEntry::id`]: crate::SpanEntry::id
    /// [`SpanEntry::parent`]: crate::SpanEntry::parent
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Id of the calling thread's innermost open span. Capture this on the
/// driving thread before fanning work out to a pool, then open workers'
/// spans with [`Span::child_of`].
pub fn current() -> Option<SpanId> {
    let id = CURRENT.with(Cell::get);
    (id != 0).then_some(SpanId(id))
}

/// An open span. Created by [`Span::enter`] (or the
/// [`span!`](crate::span) macro); the elapsed wall time is recorded when
/// the guard drops as a sample in the `span.<name>.ns` histogram, whose
/// count and total are the snapshot's stage row. While tracing is on
/// ([`trace_enabled()`](crate::trace_enabled)), the closed span is also
/// appended to the event log, and so to the snapshot's `spans`.
///
/// While telemetry is disabled ([`enabled()`](crate::enabled) is false)
/// spans are inert: nothing is allocated or recorded and [`Span::id`]
/// returns `None`.
#[derive(Debug)]
pub struct Span {
    /// 0 when the span was opened while telemetry was disabled.
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    /// What `CURRENT` held when this span opened; restored on drop. Only
    /// meaningful on the opening thread — spans must drop on the thread
    /// that opened them (RAII guarantees this for guards held on the
    /// stack).
    prev_current: u64,
}

impl Span {
    /// Opens a span nested under the calling thread's current span (a
    /// root span if there is none).
    pub fn enter(name: &'static str) -> Span {
        let parent = CURRENT.with(Cell::get);
        Span::open(parent, name)
    }

    /// Opens a span under an explicitly provided parent, ignoring the
    /// thread-local context. This is how spans nest across the rayon
    /// shim's worker threads, which start with no current span:
    /// capture [`current()`] before the `par_iter`, pass it into the
    /// closure, and open each worker's span with `child_of`.
    pub fn child_of(parent: Option<SpanId>, name: &'static str) -> Span {
        Span::open(parent.map_or(0, SpanId::get), name)
    }

    fn open(parent: u64, name: &'static str) -> Span {
        if !crate::enabled() {
            return Span { id: 0, parent: 0, name, start_ns: 0, prev_current: 0 };
        }
        let r = registry();
        let id = r.next_span_id();
        let prev_current = CURRENT.with(|c| c.replace(id));
        let start_ns = r.elapsed_ns();
        Span { id, parent, name, start_ns, prev_current }
    }

    /// This span's id, for parenting child spans on other threads.
    /// `None` when the span was opened while telemetry was disabled.
    pub fn id(&self) -> Option<SpanId> {
        (self.id != 0).then_some(SpanId(self.id))
    }

    /// Wall time since the span opened, in nanoseconds (0 when inert).
    pub fn elapsed_ns(&self) -> u64 {
        if self.id == 0 {
            0
        } else {
            registry().elapsed_ns().saturating_sub(self.start_ns)
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        CURRENT.with(|c| c.set(self.prev_current));
        let duration_ns = registry().elapsed_ns().saturating_sub(self.start_ns);
        let hist_name = format!("span.{}.ns", self.name);
        crate::histogram(&hist_name).record(duration_ns);
        if crate::trace_enabled() {
            crate::trace::log_span(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                duration_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::registry_lock;

    #[test]
    fn sibling_spans_share_a_parent() {
        let _g = registry_lock();
        crate::reset();
        crate::set_trace_enabled(true);
        let outer = Span::enter("test.span.outer");
        let outer_id = outer.id().map(SpanId::get).unwrap_or(0);
        {
            let _a = Span::enter("test.span.a");
        }
        {
            let _b = Span::enter("test.span.b");
        }
        drop(outer);
        crate::set_trace_enabled(false);
        let snap = crate::snapshot();
        for name in ["test.span.a", "test.span.b"] {
            let s = snap.spans.iter().find(|s| s.name == name);
            assert_eq!(s.map(|s| s.parent), Some(outer_id), "{name}");
        }
        assert!(current().is_none(), "context restored after drops");
    }

    #[test]
    fn disabled_spans_are_inert_and_restore_nothing() {
        let _g = registry_lock();
        crate::reset();
        let outer = Span::enter("test.span.live");
        crate::set_enabled(false);
        let dead = Span::enter("test.span.dead");
        assert!(dead.id().is_none());
        assert_eq!(dead.elapsed_ns(), 0);
        drop(dead);
        crate::set_enabled(true);
        // The disabled span must not have clobbered the live context.
        assert_eq!(current(), outer.id());
        drop(outer);
    }
}
