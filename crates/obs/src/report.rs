//! Snapshot and run-report types: the machine-readable schema shared by
//! the CLI's `--report` flag and the bench binaries.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// Version of the [`RunReport`] JSON schema. Bumped whenever a field is
/// added, removed, or changes meaning; consumers should check it before
/// interpreting the rest of the document.
///
/// v2 adds the optional [`RunReport::timeline`] and [`RunReport::trace`]
/// sections. Every v1 field kept its name and meaning, so v1 readers can
/// treat a v2 document as v1 plus ignorable extra keys, and this build
/// still parses v1 documents (the new fields deserialize as absent).
pub const REPORT_VERSION: u32 = 2;

/// A named counter total.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Dotted counter name, e.g. `synth.walk.steps`.
    pub name: String,
    /// Total at snapshot time.
    pub value: u64,
}

/// A named gauge value.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Dotted gauge name, e.g. `synth.walk.budget`.
    pub name: String,
    /// Last value written.
    pub value: u64,
}

/// One non-empty log2 bucket of a histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Inclusive upper bound of the bucket.
    pub hi: u64,
    /// Samples that landed in `[lo, hi]`.
    pub count: u64,
}

/// A named histogram: total sample count plus its non-empty buckets.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Dotted histogram name, e.g. `profile.block_size`.
    pub name: String,
    /// Total samples across all buckets.
    pub count: u64,
    /// Non-empty buckets in ascending order.
    pub buckets: Vec<HistogramBucket>,
}

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEntry {
    /// Unique id within the run (never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Stage name, e.g. `synth.gen`.
    pub name: String,
    /// Open time in nanoseconds since the registry epoch.
    pub start_ns: u64,
    /// Wall time from open to drop, in nanoseconds.
    pub duration_ns: u64,
}

/// A point-in-time copy of the whole registry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeEntry>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramEntry>,
    /// One row per stage, read from each `span.<stage>.ns` histogram with
    /// samples, sorted by name.
    pub stages: Vec<StageSummary>,
    /// The spans that closed while tracing was on, in completion order;
    /// empty when nothing was traced.
    pub spans: Vec<SpanEntry>,
}

impl TelemetrySnapshot {
    /// The schedule-independent view: drops spans, stage rows and the
    /// `span.*.ns` latency histograms they are read from. What remains is
    /// a pure function of the work performed — identical across
    /// `PERFCLONE_JOBS` settings for the same seed (the contract
    /// `tests/observability.rs` checks).
    #[must_use]
    pub fn deterministic(mut self) -> TelemetrySnapshot {
        self.spans.clear();
        self.stages.clear();
        self.histograms.retain(|h| !h.name.starts_with("span."));
        self
    }
}

/// Aggregate wall time of one pipeline stage (all spans sharing a name),
/// read from the stage's `span.<name>.ns` histogram.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Span name, e.g. `profile.collect`.
    pub name: String,
    /// Number of spans recorded under this name.
    pub calls: u64,
    /// Summed wall time across those spans, in nanoseconds. Nested spans
    /// each count their own wall time; sibling stages do not sum to the
    /// parent.
    pub total_ns: u64,
}

/// Hit statistics of one [`WorkloadCache`] memo, derived from its
/// `cache.<name>.lookups` / `cache.<name>.computes` counters.
///
/// [`WorkloadCache`]: https://docs.rs/perfclone
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CacheRates {
    /// Memo name, e.g. `profile` or `trace`.
    pub name: String,
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that had to run the compute closure.
    pub computes: u64,
    /// Lookups served from an already-computed slot.
    pub hits: u64,
    /// `hits / lookups`, or 0 when there were no lookups.
    pub hit_rate: f64,
}

/// One fidelity-gate attribute judgement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GateAttribute {
    /// Attribute family label, e.g. `instruction mix`.
    pub attribute: String,
    /// Measured distance between original and clone.
    pub delta: f64,
    /// Warn threshold the gate applied.
    pub warn_at: f64,
    /// Fail threshold the gate applied.
    pub fail_at: f64,
    /// `pass`, `warn`, or `fail`.
    pub verdict: String,
}

/// Throughput of a design-space sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Cache configurations simulated.
    pub configs: u64,
    /// Wall time of the sweep stage, in nanoseconds.
    pub wall_ns: u64,
    /// `configs / wall seconds`.
    pub configs_per_sec: f64,
    /// Instructions represented across all simulated configs.
    pub instrs: u64,
    /// `instrs / wall seconds`.
    pub instrs_per_sec: f64,
}

/// One quarantined sweep cell: a cell whose execution failed permanently
/// under `--keep-going` and whose row the sweep therefore omits.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedCell {
    /// Linear cell index within the grid.
    pub cell: u64,
    /// Stable cell ID (`g<spec-hash>-c<index>`).
    pub id: String,
    /// Typed failure kind (the error variant's stable tag, e.g. `sim` or
    /// `budget-exhausted`).
    pub kind: String,
    /// Human-readable failure description.
    pub reason: String,
    /// Execution attempts made before quarantining (1 = no retries).
    pub attempts: u32,
}

/// Degraded-coverage summary of a `--keep-going` sweep: how much of the
/// grid has rows, what was retried, and which cells were quarantined.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegradedCoverage {
    /// Cells the sweep enumerated.
    pub total_cells: u64,
    /// Cells with a metrics row (`total_cells` minus quarantined).
    pub covered_cells: u64,
    /// Transient-failure retries the supervisor performed.
    pub retries: u64,
    /// The quarantined cells, in cell order.
    pub quarantined: Vec<QuarantinedCell>,
}

/// One sample of the run's time-series telemetry, produced by the
/// [`Sampler`](crate::Sampler) at a fixed cadence while a sweep runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Milliseconds since the registry epoch.
    pub t_ms: u64,
    /// Grid cells completed so far (`grid.cells.done`, including cells
    /// restored from the resume journal).
    pub cells_done: u64,
    /// Cells the sweep enumerates (`grid.cells` gauge; 0 outside sweeps).
    pub cells_total: u64,
    /// Instantaneous throughput since the previous point.
    pub cells_per_s: f64,
    /// Self-sampled resident set size in KiB (0 when procfs is absent).
    pub rss_kib: u64,
    /// Aggregate hit rate across every `cache.*` memo, in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Transient-failure retries so far (`grid.retries`).
    pub retries: u64,
    /// Cells quarantined so far (`grid.quarantined`).
    pub quarantined: u64,
}

/// The down-sampled time-series a sampler accumulated over a run: the
/// RunReport v2 `timeline` section.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Effective spacing between points in milliseconds (the base
    /// sampling interval times the final down-sampling stride).
    pub interval_ms: u64,
    /// The thinned series, oldest first.
    pub points: Vec<TimelinePoint>,
}

impl Timeline {
    /// An empty timeline (no points recorded).
    #[must_use]
    pub fn empty() -> Timeline {
        Timeline { interval_ms: 0, points: Vec::new() }
    }
}

/// Event-trace accounting: the RunReport v2 `trace` section, present when
/// the run recorded events for a `--trace-out` export.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Events the exported trace holds.
    pub events: u64,
    /// Events left out of the export. Always 0, since a traced run keeps
    /// every event; kept so that the v2 section keeps its shape.
    pub dropped: u64,
    /// Threads that recorded at least one event.
    pub threads: u64,
}

/// A named scalar result (bench errors, IPC deltas, miss rates).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Dotted metric name, e.g. `fig06.ipc.err.crc32`.
    pub name: String,
    /// The value.
    pub value: f64,
}

/// The versioned, machine-readable record of one pipeline run: what the
/// CLI writes for `--report out.json` and the bench binaries emit so both
/// share one schema. The stage and cache-rate summaries ride next to the
/// raw counters, gauges and histograms they are read from.
/// `Deserialize` is hand-written (not derived) so the v2-only optional
/// fields parse as absent from v1 documents instead of erroring.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RunReport {
    /// Schema version; see [`REPORT_VERSION`].
    pub report_version: u32,
    /// The command that produced the report, e.g. `clone` or `bench.paper`.
    pub command: String,
    /// Workload (kernel) name, or a comma list / `suite` for multi-kernel
    /// runs.
    pub workload: String,
    /// Per-stage wall-time aggregates, sorted by name.
    pub stages: Vec<StageSummary>,
    /// Per-memo cache hit rates, sorted by name.
    pub caches: Vec<CacheRates>,
    /// Fidelity-gate attribute distances (empty when no gate ran).
    pub gate: Vec<GateAttribute>,
    /// Sweep throughput (null when no sweep ran).
    pub sweep: Option<SweepStats>,
    /// Degraded-coverage summary (null when the sweep was healthy or no
    /// sweep ran): present exactly when a `--keep-going` grid sweep
    /// quarantined cells.
    pub degraded: Option<DegradedCoverage>,
    /// Free-form scalar results.
    pub metrics: Vec<Metric>,
    /// Down-sampled time-series of throughput, RSS, and cache hit rates
    /// (null when no sampler ran). Added in schema v2.
    pub timeline: Option<Timeline>,
    /// Event-trace accounting (null when tracing was off). Added in
    /// schema v2.
    pub trace: Option<TraceSummary>,
    /// Raw counter totals. Notable names: `cache.trace.lookups` /
    /// `cache.trace.computes` (packed-trace memo traffic, also surfaced in
    /// [`RunReport::caches`]), `trace.captures` / `trace.replays` (packed
    /// captures and zero-allocation replays), `trace.spills` (over-cap
    /// captures spilled to disk and replayed via mmap), `trace.fallbacks`
    /// (captures whose spill failed, each re-interpreted instead, never
    /// silently truncated),
    /// `trace.spill.reaped` (stray spill files of dead processes removed
    /// on startup), `grid.shards.executed` / `grid.shards.skipped`
    /// (sharded-sweep progress: fresh work vs. journal resume),
    /// `grid.retries` (transient cell failures retried by the
    /// supervisor), `grid.quarantined` (cells given up on under
    /// `--keep-going`), `grid.journal.retries` (transient journal-write
    /// failures retried), and `grid.journal.truncated_recovered`
    /// (truncated/corrupt journal records demoted to pending and
    /// re-executed).
    pub counters: Vec<CounterEntry>,
    /// Raw gauge values. Notable names: `trace.bytes` (bytes of every
    /// in-memory capture this process made; it only grows, so a capture
    /// dropped since still counts), `trace.spill.bytes` (total bytes of
    /// spilled trace files), `grid.cells` (cells the latest grid sweep
    /// enumerates), and `statsim.trace.bytes` (resident footprint of the
    /// latest statistical trace, which cannot be packed).
    pub gauges: Vec<GaugeEntry>,
    /// Raw histograms.
    pub histograms: Vec<HistogramEntry>,
    /// The spans that closed while tracing was on, in completion order;
    /// empty for an untraced run, whose stage wall times are in
    /// [`RunReport::stages`] and the `span.*.ns` histograms.
    pub spans: Vec<SpanEntry>,
}

impl serde::Deserialize for RunReport {
    fn from_value(v: &serde::Value) -> Result<RunReport, serde::Error> {
        Ok(RunReport {
            report_version: serde::get_field(v, "report_version")?,
            command: serde::get_field(v, "command")?,
            workload: serde::get_field(v, "workload")?,
            stages: serde::get_field(v, "stages")?,
            caches: serde::get_field(v, "caches")?,
            gate: serde::get_field(v, "gate")?,
            sweep: serde::opt_field(v, "sweep")?,
            degraded: serde::opt_field(v, "degraded")?,
            metrics: serde::get_field(v, "metrics")?,
            // v2 additions: absent from v1 documents, so optional lookups.
            timeline: serde::opt_field(v, "timeline")?,
            trace: serde::opt_field(v, "trace")?,
            counters: serde::get_field(v, "counters")?,
            gauges: serde::get_field(v, "gauges")?,
            histograms: serde::get_field(v, "histograms")?,
            spans: serde::get_field(v, "spans")?,
        })
    }
}

/// Derives [`CacheRates`] rows from `cache.<name>.lookups` /
/// `cache.<name>.computes` counter pairs.
fn caches_from(counters: &[CounterEntry]) -> Vec<CacheRates> {
    let mut lookups: BTreeMap<&str, u64> = BTreeMap::new();
    let mut computes: BTreeMap<&str, u64> = BTreeMap::new();
    for c in counters {
        if let Some(rest) = c.name.strip_prefix("cache.") {
            if let Some(memo) = rest.strip_suffix(".lookups") {
                lookups.insert(memo, c.value);
            } else if let Some(memo) = rest.strip_suffix(".computes") {
                computes.insert(memo, c.value);
            }
        }
    }
    lookups
        .into_iter()
        .map(|(name, l)| {
            let c = computes.get(name).copied().unwrap_or(0);
            let hits = l.saturating_sub(c);
            let hit_rate = if l == 0 { 0.0 } else { hits as f64 / l as f64 };
            CacheRates { name: name.to_string(), lookups: l, computes: c, hits, hit_rate }
        })
        .collect()
}

impl RunReport {
    /// Builds a report from a snapshot, taking its stage rows and
    /// deriving the cache-rate summary. Gate, sweep, and metric rows start
    /// empty; the caller fills them from stage results it holds.
    pub fn from_snapshot(command: &str, workload: &str, snap: TelemetrySnapshot) -> RunReport {
        RunReport {
            report_version: REPORT_VERSION,
            command: command.to_string(),
            workload: workload.to_string(),
            stages: snap.stages,
            caches: caches_from(&snap.counters),
            gate: Vec::new(),
            sweep: None,
            degraded: None,
            metrics: Vec::new(),
            timeline: None,
            trace: None,
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: snap.histograms,
            spans: snap.spans,
        }
    }

    /// Serializes to compact JSON.
    ///
    /// # Errors
    ///
    /// Never fails for reports this crate builds; the `Result` mirrors
    /// the serializer API.
    pub fn to_json(&self) -> Result<String, serde::Error> {
        serde_json::to_string(self)
    }

    /// Parses a report back from JSON, checking the schema version.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or shape mismatch, or a version error
    /// when `report_version` is newer than this build understands.
    pub fn from_json(s: &str) -> Result<RunReport, serde::Error> {
        let report: RunReport = serde_json::from_str(s)?;
        if report.report_version > REPORT_VERSION {
            return Err(serde::Error::msg(format!(
                "report_version {} is newer than supported version {REPORT_VERSION}",
                report.report_version
            )));
        }
        Ok(report)
    }

    /// Renders the human-readable summary `perfclone report` prints.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run report v{} · command: {} · workload: {}",
            self.report_version, self.command, self.workload
        );
        if !self.stages.is_empty() {
            let _ = writeln!(out, "\nstages:");
            let width = self.stages.iter().map(|s| s.name.len()).max().unwrap_or(0);
            for s in &self.stages {
                let _ = writeln!(
                    out,
                    "  {:width$}  {:>5} call{}  {:>12}",
                    s.name,
                    s.calls,
                    if s.calls == 1 { " " } else { "s" },
                    fmt_ns(s.total_ns),
                );
            }
        }
        if !self.caches.is_empty() {
            let _ = writeln!(out, "\ncaches:");
            for c in &self.caches {
                let _ = writeln!(
                    out,
                    "  {:12}  {} lookups, {} computes, {} hits ({:.1}%)",
                    c.name,
                    c.lookups,
                    c.computes,
                    c.hits,
                    c.hit_rate * 100.0
                );
            }
        }
        if !self.gate.is_empty() {
            let _ = writeln!(out, "\ngate:");
            for a in &self.gate {
                let _ = writeln!(
                    out,
                    "  {:24}  delta {:.4}  (warn {:.4} / fail {:.4})  {}",
                    a.attribute, a.delta, a.warn_at, a.fail_at, a.verdict
                );
            }
        }
        if let Some(sw) = &self.sweep {
            let _ = writeln!(out, "\nsweep:");
            let _ = writeln!(
                out,
                "  {} configs in {} · {:.1} configs/s · {:.3e} instrs/s",
                sw.configs,
                fmt_ns(sw.wall_ns),
                sw.configs_per_sec,
                sw.instrs_per_sec
            );
        }
        if !self.metrics.is_empty() {
            let _ = writeln!(out, "\nmetrics:");
            for m in &self.metrics {
                let _ = writeln!(out, "  {:32}  {:.6}", m.name, m.value);
            }
        }
        let counter = |name: &str| {
            self.counters.iter().find(|c| c.name == name).map(|c| c.value).unwrap_or(0)
        };
        let gauge =
            |name: &str| self.gauges.iter().find(|g| g.name == name).map(|g| g.value).unwrap_or(0);
        if counter("trace.captures") > 0 {
            let _ = writeln!(
                out,
                "\ntrace storage:\n  {} captures · {} in-memory bytes · {} spills \
                 ({} spilled bytes) · {} fallbacks",
                counter("trace.captures"),
                gauge("trace.bytes"),
                counter("trace.spills"),
                gauge("trace.spill.bytes"),
                counter("trace.fallbacks"),
            );
        }
        if counter("grid.shards.executed") + counter("grid.shards.skipped") > 0 {
            let _ = writeln!(
                out,
                "\ngrid:\n  {} cells · {} shards executed · {} shards resumed from journal",
                gauge("grid.cells"),
                counter("grid.shards.executed"),
                counter("grid.shards.skipped"),
            );
        }
        if let Some(deg) = &self.degraded {
            let _ = writeln!(
                out,
                "\ndegraded coverage:\n  {}/{} cells covered · {} retried transient failure(s) \
                 · {} quarantined",
                deg.covered_cells,
                deg.total_cells,
                deg.retries,
                deg.quarantined.len(),
            );
            const SHOWN: usize = 10;
            for q in deg.quarantined.iter().take(SHOWN) {
                let _ = writeln!(
                    out,
                    "  cell {:>6}  {}  [{}] after {} attempt(s): {}",
                    q.cell, q.id, q.kind, q.attempts, q.reason
                );
            }
            if deg.quarantined.len() > SHOWN {
                let _ = writeln!(out, "  … and {} more", deg.quarantined.len() - SHOWN);
            }
        }
        if let Some(tl) = &self.timeline {
            let peak_rss = tl.points.iter().map(|p| p.rss_kib).max().unwrap_or(0);
            let peak_rate = tl.points.iter().map(|p| p.cells_per_s).fold(0.0f64, f64::max);
            let _ = writeln!(
                out,
                "\ntimeline:\n  {} points every {} ms · peak {:.1} cells/s · peak rss {} KiB",
                tl.points.len(),
                tl.interval_ms,
                peak_rate,
                peak_rss,
            );
        }
        if let Some(tr) = &self.trace {
            let _ =
                writeln!(out, "\ntrace:\n  {} events across {} thread(s)", tr.events, tr.threads);
        }
        let _ = writeln!(
            out,
            "\n{} counters · {} gauges · {} histograms · {} spans",
            self.counters.len(),
            self.gauges.len(),
            self.histograms.len(),
            self.spans.len()
        );
        out
    }
}

/// Formats nanoseconds with a readable unit (`1.234 ms`, `2.5 s`, …).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: vec![
                CounterEntry { name: "cache.profile.computes".into(), value: 1 },
                CounterEntry { name: "cache.profile.lookups".into(), value: 4 },
                CounterEntry { name: "synth.walk.steps".into(), value: 123 },
            ],
            gauges: vec![GaugeEntry { name: "synth.walk.budget".into(), value: 9000 }],
            histograms: vec![
                HistogramEntry {
                    name: "profile.block_size".into(),
                    count: 2,
                    buckets: vec![HistogramBucket { lo: 4, hi: 7, count: 2 }],
                },
                HistogramEntry {
                    name: "span.profile.collect.ns".into(),
                    count: 1,
                    buckets: vec![HistogramBucket { lo: 1024, hi: 2047, count: 1 }],
                },
            ],
            stages: vec![
                StageSummary { name: "profile.collect".into(), calls: 1, total_ns: 1500 },
                StageSummary { name: "synth.gen".into(), calls: 2, total_ns: 1000 },
            ],
            spans: vec![
                SpanEntry {
                    id: 1,
                    parent: 0,
                    name: "profile.collect".into(),
                    start_ns: 10,
                    duration_ns: 1500,
                },
                SpanEntry {
                    id: 2,
                    parent: 1,
                    name: "synth.gen".into(),
                    start_ns: 200,
                    duration_ns: 700,
                },
                SpanEntry {
                    id: 3,
                    parent: 0,
                    name: "synth.gen".into(),
                    start_ns: 2000,
                    duration_ns: 300,
                },
            ],
        }
    }

    #[test]
    fn from_snapshot_derives_stages_and_caches() {
        let report = RunReport::from_snapshot("clone", "crc32", sample_snapshot());
        assert_eq!(report.report_version, REPORT_VERSION);
        assert_eq!(
            report.stages,
            vec![
                StageSummary { name: "profile.collect".into(), calls: 1, total_ns: 1500 },
                StageSummary { name: "synth.gen".into(), calls: 2, total_ns: 1000 },
            ]
        );
        assert_eq!(report.caches.len(), 1);
        let c = &report.caches[0];
        assert_eq!((c.name.as_str(), c.lookups, c.computes, c.hits), ("profile", 4, 1, 3));
        assert!((c.hit_rate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut report = RunReport::from_snapshot("clone", "crc32", sample_snapshot());
        report.gate.push(GateAttribute {
            attribute: "instruction mix".into(),
            delta: 0.013,
            warn_at: 0.05,
            fail_at: 0.1,
            verdict: "pass".into(),
        });
        report.sweep = Some(SweepStats {
            configs: 28,
            wall_ns: 2_000_000,
            configs_per_sec: 14_000.0,
            instrs: 1_000_000,
            instrs_per_sec: 5e8,
        });
        report.degraded = Some(DegradedCoverage {
            total_cells: 32,
            covered_cells: 30,
            retries: 3,
            quarantined: vec![QuarantinedCell {
                cell: 5,
                id: "gdeadbeefdeadbeef-c5".into(),
                kind: "injected".into(),
                reason: "injected permanent fault at cell 5 (attempt 0)".into(),
                attempts: 1,
            }],
        });
        report.metrics.push(Metric { name: "gate.worst_delta".into(), value: 0.013 });
        report.timeline = Some(Timeline {
            interval_ms: 1000,
            points: vec![TimelinePoint {
                t_ms: 1000,
                cells_done: 16,
                cells_total: 32,
                cells_per_s: 16.0,
                rss_kib: 51200,
                cache_hit_rate: 0.75,
                retries: 1,
                quarantined: 0,
            }],
        });
        report.trace = Some(TraceSummary { events: 4096, dropped: 0, threads: 8 });
        let json = report.to_json().unwrap();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn v1_documents_without_the_v2_sections_still_parse() {
        let report = RunReport::from_snapshot("clone", "crc32", sample_snapshot());
        let json = report.to_json().unwrap();
        // Rewrite the document the way a v1 writer produced it: version 1
        // and no timeline/trace keys at all.
        let serde::Value::Obj(fields) = serde_json::from_str::<serde::Value>(&json).unwrap() else {
            panic!("report is not a JSON object")
        };
        let v1_fields: Vec<(String, serde::Value)> = fields
            .into_iter()
            .filter(|(k, _)| k != "timeline" && k != "trace")
            .map(|(k, v)| if k == "report_version" { (k, serde::Value::U64(1)) } else { (k, v) })
            .collect();
        let v1_json = serde_json::to_string(&serde::Value::Obj(v1_fields)).unwrap();
        let back = RunReport::from_json(&v1_json).unwrap();
        assert_eq!(back.report_version, 1);
        assert_eq!(back.timeline, None);
        assert_eq!(back.trace, None);
        assert_eq!(back.stages, report.stages);
    }

    #[test]
    fn newer_schema_versions_are_rejected() {
        let mut report = RunReport::from_snapshot("clone", "crc32", sample_snapshot());
        report.report_version = REPORT_VERSION + 1;
        let json = report.to_json().unwrap();
        let err = RunReport::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("newer"), "{err}");
    }

    #[test]
    fn render_mentions_the_major_sections() {
        let report = RunReport::from_snapshot("clone", "crc32", sample_snapshot());
        let text = report.render();
        assert!(text.contains("run report v2"));
        assert!(text.contains("stages:"));
        assert!(text.contains("profile.collect"));
        assert!(text.contains("caches:"));
        assert!(text.contains("profile"));
        assert!(!text.contains("degraded coverage:"), "healthy runs have no degraded section");
    }

    #[test]
    fn render_lists_quarantined_cells_capped() {
        let mut report = RunReport::from_snapshot("grid", "crc32", sample_snapshot());
        let quarantined: Vec<QuarantinedCell> = (0..12)
            .map(|cell| QuarantinedCell {
                cell,
                id: format!("gdeadbeefdeadbeef-c{cell}"),
                kind: "injected".into(),
                reason: format!("injected permanent fault at cell {cell} (attempt 0)"),
                attempts: 1,
            })
            .collect();
        report.degraded =
            Some(DegradedCoverage { total_cells: 32, covered_cells: 20, retries: 4, quarantined });
        let text = report.render();
        assert!(text.contains("degraded coverage:"));
        assert!(text.contains("20/32 cells covered"));
        assert!(text.contains("[injected]"));
        assert!(text.contains("… and 2 more"), "per-cell listing is capped:\n{text}");
    }
}
