//! Benchmark-side spans around calls into the program's layers.
//!
//! Spans are kept in memory and written once, at exit, as Chrome Trace
//! JSON (which Perfetto loads). A disabled [`Tracer`] runs the wrapped
//! call and records nothing, so set-up code is shared by the untraced and
//! traced runs.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

struct SpanRec {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    op: u64,
    timed: bool,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    op: u64,
    /// `false` while tracing set-up; only timed spans count towards layer
    /// coverage.
    pub timed: bool,
    counts: BTreeMap<&'static str, f64>,
}

/// Summed duration of `spans`; `0.0`, not `-0.0`, when there are none.
fn total<'a>(spans: impl Iterator<Item = &'a SpanRec>) -> f64 {
    spans.fold(0.0, |acc, s| acc + (s.end - s.start))
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            timed: false,
            counts: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named after the layer call it wraps.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
            op: self.op,
            timed: self.timed,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// A span that starts a new operation: it and its descendants share
    /// one op id.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op += 1;
        self.span(name, f)
    }

    /// Adds `v` to the work counter `key` (a no-op when disabled).
    pub fn add(&mut self, key: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(key).or_default() += v;
        }
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn calls(&self, name: &str) -> f64 {
        self.named(name).count() as f64
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn busy(&self, name: &str) -> f64 {
        total(self.named(name))
    }

    /// [`busy`](Tracer::busy) minus the time the spans' children cover.
    pub fn self_time(&self, name: &str) -> f64 {
        let children =
            self.spans.iter().filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name));
        self.busy(name) - total(children)
    }

    /// Total duration of the timed spans that have no children: the layer
    /// calls themselves, without the benchmark's glue around them.
    pub fn timed_leaf_busy(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        total(
            self.spans
                .iter()
                .zip(has_child)
                .filter(|(s, parent)| s.timed && !parent)
                .map(|(s, _)| s),
        )
    }

    /// The spans as Chrome Trace JSON: one complete (`X`) event each, with
    /// the op id and parent span in `args`.
    pub fn chrome_trace(&self) -> String {
        let us = |s: f64| Value::F64((s * 1e6 * 1000.0).round() / 1000.0);
        let events = self
            .spans
            .iter()
            .map(|s| {
                let parent =
                    s.parent.map_or(Value::Null, |p| Value::Str(self.spans[p].name.into()));
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str(if s.timed { "timed" } else { "setup" }.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), us(s.start)),
                    ("dur".into(), us(s.end - s.start)),
                    ("pid".into(), Value::U64(1)),
                    ("tid".into(), Value::U64(1)),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("op".into(), Value::U64(s.op)),
                            ("parent".into(), parent),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![("traceEvents".into(), Value::Arr(events))]);
        serde_json::to_string(&doc).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.timed = true;
        tr.op("op", |tr| {
            tr.span("leaf", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            tr.span("leaf", |_| ());
        });
        assert_eq!(tr.calls("leaf"), 2.0);
        assert!(tr.self_time("op") < tr.busy("op"));
        assert!((tr.timed_leaf_busy() - tr.busy("leaf")).abs() < 1e-12);
        let doc: Value = serde_json::from_str(&tr.chrome_trace()).expect("valid JSON");
        let Value::Obj(fields) = doc else { panic!("object") };
        let Value::Arr(events) = &fields[0].1 else { panic!("events") };
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("leaf", |_| 7), 7);
        tr.add("work", 1.0);
        assert_eq!(tr.calls("leaf"), 0.0);
        assert_eq!(tr.count("work"), 0.0);
    }
}
