//! The traced run: each workload's round decomposed into the public layer
//! calls its facade function makes, each call wrapped in a benchmark-side
//! span, and the per-layer metrics derived from those spans. Every
//! layer-level call of the benchmark lives in this file.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use perfclone::experiments::CacheSweepComparison;
use perfclone::{
    estimate_power, pareto_frontier, profile_program, sweep_trace, synthesize, AddressTrace,
    CellRow, Error, InstrMetaTable, Journal, MachineConfig, Pipeline, TimingResult, TraceStore,
    WorkloadCache,
};
use perfclone_isa::Program;
use perfclone_sim::ReplayChunk;

use crate::stats::Digest;
use crate::trace::Tracer;
use crate::workloads::{
    clone_params, design_configs, hash_rows, hash_sweep, hash_timing, tally_gate, CacheSweep,
    CloneSuite, DesignSweep, Gated, GridDense, Round, CACHE_WINDOW, CLONE_SEEDS, CLONE_WINDOW,
    DESIGN_WINDOW,
};

pub trait Layered {
    /// The untraced round's work, decomposed into layer calls under spans.
    /// Must produce the untraced round's digest.
    fn traced_round(&mut self, run: &Path, tr: &mut Tracer) -> Result<Round, String>;

    /// Decodes, without timing anything else, every record the traced
    /// `rounds` replayed, and adds the decode time and record count to
    /// `tr`. Runs after the traced rounds, outside their wall time.
    fn drain(&self, _rounds: usize, _tr: &mut Tracer) {}
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replays `store` through one pipeline, as `run_timing_store` does.
fn timed_cell(
    tr: &mut Tracer,
    program: &Program,
    store: &TraceStore,
    meta: &InstrMetaTable,
    config: &MachineConfig,
) -> Result<TimingResult, String> {
    let pipeline = tr.span("uarch.pipeline.new", |_| Pipeline::new(*config));
    let report = tr
        .span("uarch.pipeline.run", |_| pipeline.run_batched(store.replay_batched(program, meta)));
    if let Some(f) = store.fault() {
        return Err(f.to_string());
    }
    tr.add("uarch.pipeline.instrs", report.instrs as f64);
    tr.add("uarch.pipeline.cycles", report.cycles as f64);
    tr.add("replay.records", store.len() as f64);
    let power = tr.span("power", |_| estimate_power(config, &report));
    Ok(TimingResult { report, power })
}

/// Batch-decodes `store` `times` times and returns the records decoded.
fn drain_store(program: &Program, store: &TraceStore, times: u64) -> u64 {
    let meta = InstrMetaTable::new(program);
    let mut chunk = ReplayChunk::new();
    let mut records = 0u64;
    for _ in 0..times {
        let mut replay = store.replay_batched(program, &meta);
        loop {
            let n = replay.fill(std::hint::black_box(&mut chunk));
            if n == 0 {
                break;
            }
            records += n as u64;
        }
    }
    records
}

impl Layered for CloneSuite {
    fn traced_round(&mut self, _run: &Path, tr: &mut Tracer) -> Result<Round, String> {
        let mut round = Round::default();
        let mut d = Digest::default();
        let mut tally = [0; 4];
        for (name, program) in &self.kernels {
            for s in 0..CLONE_SEEDS {
                let out: Gated = round.timed(|| {
                    tr.op("clone_suite.op", |tr| {
                        let profile =
                            tr.span("profile", |_| profile_program(program, CLONE_WINDOW))?;
                        tr.add("profile.instrs", profile.total_instrs as f64);
                        let params = clone_params(self.seed, name, s, profile.total_instrs);
                        let clone = tr.span("synth", |_| synthesize(&profile, &params))?;
                        tr.add("synth.static_instrs", clone.len() as f64);
                        let gated = tr.span("validate", |_| self.gate.accept(&profile, &clone));
                        Ok::<_, Error>((profile.total_instrs, clone.len(), gated))
                    })
                });
                tally_gate(&mut tally, &mut d, &out);
            }
        }
        for (key, n) in ["validate.pass", "validate.warn", "validate.fail"].into_iter().zip(tally) {
            tr.add(key, n as f64);
        }
        round.failed = tally[2] + tally[3];
        round.digest = d.value();
        Ok(round)
    }
}

impl DesignSweep {
    /// Captures both programs of a pair through a fresh cache, as the
    /// `design_change_sweep` does once per call.
    fn capture(&self, tr: &mut Tracer, pair: usize) -> Result<[Arc<TraceStore>; 2], String> {
        let p = &self.pairs[pair];
        let cache = WorkloadCache::new();
        let mut capture = |key: String, program: &Program| {
            let store = tr
                .span("sim.capture", |_| cache.packed_trace(&key, program, DESIGN_WINDOW))
                .map_err(err)?;
            tr.add("sim.capture.instrs", store.len() as f64);
            tr.add("sim.capture.bytes", store.stored_bytes() as f64);
            Ok::<_, String>(store)
        };
        Ok([capture(p.name.to_string(), &p.real)?, capture(format!("{}.clone", p.name), &p.clone)?])
    }
}

impl Layered for DesignSweep {
    fn traced_round(&mut self, _run: &Path, tr: &mut Tracer) -> Result<Round, String> {
        let mut round = Round::default();
        let mut d = Digest::default();
        let configs = design_configs();
        for pair in 0..self.pairs.len() {
            let cells = round.timed(|| {
                tr.op("design_sweep.op", |tr| {
                    let stores = self.capture(tr, pair)?;
                    let programs = [&self.pairs[pair].real, &self.pairs[pair].clone];
                    let mut cells = Vec::with_capacity(2 * configs.len());
                    for config in &configs {
                        for (program, store) in programs.iter().zip(&stores) {
                            // run_timing_store builds the table per cell.
                            let meta = tr.span("isa.meta", |_| InstrMetaTable::new(program));
                            cells.push(timed_cell(tr, program, store, &meta, config)?);
                        }
                    }
                    Ok::<_, String>(cells)
                })
            });
            match cells {
                Ok(cells) => cells.iter().for_each(|c| hash_timing(&mut d, c)),
                Err(e) => {
                    round.failed += 1;
                    d.debug(&e);
                }
            }
        }
        round.digest = d.value();
        Ok(round)
    }

    fn drain(&self, rounds: usize, tr: &mut Tracer) {
        let per_store = (rounds * design_configs().len()) as u64;
        let mut off = Tracer::new(false);
        for pair in 0..self.pairs.len() {
            let Ok(stores) = self.capture(&mut off, pair) else { continue };
            let programs = [&self.pairs[pair].real, &self.pairs[pair].clone];
            for (program, store) in programs.iter().zip(&stores) {
                let t = Instant::now();
                let records = drain_store(program, store, per_store);
                tr.add("sim.decode.secs", t.elapsed().as_secs_f64());
                tr.add("sim.decode.records", records as f64);
            }
        }
    }
}

impl Layered for GridDense {
    fn traced_round(&mut self, run: &Path, tr: &mut Tracer) -> Result<Round, String> {
        let dir = self.journal_dir(run, "t");
        let spec = self.spec.clone();
        let (journal, _) =
            tr.span("core.journal.open", |_| Journal::open(&dir, &spec)).map_err(err)?;
        let meta = tr.span("isa.meta", |_| InstrMetaTable::new(&self.clone));
        let mut rows = Vec::with_capacity(spec.cells() as usize);
        let mut round = Round::default();
        for shard in 0..spec.shard_count() {
            let (start, end) = spec.shard_range(shard).ok_or("grid_dense: shard out of range")?;
            let shard_rows = round.timed(|| {
                tr.op("core.grid.shard", |tr| {
                    let mut shard_rows = Vec::with_capacity((end - start) as usize);
                    for cell in start..end {
                        let config =
                            spec.axes.config(cell).ok_or("grid_dense: cell out of range")?;
                        let timing = timed_cell(tr, &self.clone, &self.store, &meta, &config)?;
                        shard_rows.push(CellRow {
                            cell,
                            id: spec.cell_id(cell).to_string(),
                            cycles: timing.report.cycles,
                            instrs: timing.report.instrs,
                            ipc: timing.report.ipc(),
                            power: timing.power.average_power,
                            l1d_mpi: timing.report.l1d_mpi(),
                        });
                    }
                    tr.span("core.journal.write", |_| {
                        journal.record_shard(shard, start, end, &shard_rows)
                    })
                    .map_err(err)?;
                    Ok::<_, String>(shard_rows)
                })
            })?;
            rows.extend(shard_rows);
        }
        tr.span("core.grid.pareto", |_| pareto_frontier(&rows));
        let bytes: u64 = std::fs::read_dir(&dir)
            .map_err(err)?
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum();
        tr.add("core.journal.bytes", bytes as f64);
        let _ = std::fs::remove_dir_all(&dir);
        let mut d = Digest::default();
        hash_rows(&mut d, &rows);
        round.digest = d.value();
        Ok(round)
    }

    fn drain(&self, rounds: usize, tr: &mut Tracer) {
        let t = Instant::now();
        let records = drain_store(&self.clone, &self.store, rounds as u64 * self.spec.cells());
        tr.add("sim.decode.secs", t.elapsed().as_secs_f64());
        tr.add("sim.decode.records", records as f64);
    }
}

impl Layered for CacheSweep {
    fn traced_round(&mut self, _run: &Path, tr: &mut Tracer) -> Result<Round, String> {
        let mut round = Round::default();
        let mut d = Digest::default();
        for p in &self.pairs {
            let sweep = round.timed(|| {
                tr.op("cache_sweep.op", |tr| {
                    let mut mpi = |program: &Program| {
                        let trace = tr.span("uarch.extract", |_| {
                            AddressTrace::extract(program, CACHE_WINDOW)
                        });
                        tr.add("uarch.extract.instrs", trace.instrs() as f64);
                        tr.add("uarch.stackdist.accesses", trace.accesses() as f64);
                        tr.add("uarch.stackdist.configs", self.configs.len() as f64);
                        let points =
                            tr.span("uarch.stackdist", |_| sweep_trace(&trace, &self.configs));
                        points.iter().map(|pt| pt.mpi()).collect::<Vec<f64>>()
                    };
                    let real_mpi = mpi(&p.real);
                    let synth_mpi = mpi(&p.clone);
                    CacheSweepComparison { configs: self.configs.clone(), real_mpi, synth_mpi }
                })
            });
            hash_sweep(&mut d, &sweep);
        }
        round.digest = d.value();
        Ok(round)
    }
}

/// Op times of the two runs the per-layer metrics relate. They ran at
/// different times, so both are calibrated (see `calib`).
pub struct Walls {
    /// The untraced rounds' scaled op time, per as many rounds as the
    /// traced run made.
    pub untraced_s: f64,
    /// The traced rounds' scaled op time.
    pub traced_s: f64,
    /// Scaled over raw op time of the traced rounds, to calibrate spans.
    pub scale: f64,
    /// Whether the workload runs `run_grid` (its glue is reported).
    pub grid: bool,
}

/// Every per-layer metric of `spec::PER_LAYER`, from the traced run.
pub fn per_layer(tr: &Tracer, walls: &Walls) -> BTreeMap<&'static str, f64> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mega = |key: &str| tr.count(key) / 1e6;
    let decode_s = tr.count("sim.decode.secs");
    let pipeline_s = tr.busy("uarch.pipeline.run");
    let leaf_s = tr.timed_leaf_busy() * walls.scale;
    let pass = tr.count("validate.pass");
    let mut m = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        m.insert(k, v);
    };
    put("kernels.build_s", tr.busy("kernels.build"));
    put("profile.calls", tr.calls("profile"));
    put("profile.minstr", mega("profile.instrs"));
    put("profile.busy_s", tr.busy("profile"));
    put("profile.minstr_per_s", ratio(mega("profile.instrs"), tr.busy("profile")));
    put("synth.calls", tr.calls("synth"));
    put("synth.busy_s", tr.busy("synth"));
    put("synth.static_instrs", tr.count("synth.static_instrs"));
    put("validate.calls", tr.calls("validate"));
    put("validate.busy_s", tr.busy("validate"));
    put("validate.pass", pass);
    put("validate.warn", tr.count("validate.warn"));
    put("validate.fail", tr.count("validate.fail"));
    put("validate.pass_frac", ratio(pass, tr.calls("validate")));
    put("sim.capture.calls", tr.calls("sim.capture"));
    put("sim.capture.minstr", mega("sim.capture.instrs"));
    put("sim.capture.busy_s", tr.busy("sim.capture"));
    put(
        "sim.capture.bytes_per_instr",
        ratio(tr.count("sim.capture.bytes"), tr.count("sim.capture.instrs")),
    );
    put("sim.spill.files", tr.count("sim.spill.files"));
    put("sim.spill.bytes", tr.count("sim.spill.bytes"));
    put("sim.decode.busy_s", decode_s);
    put("sim.decode.mrec_per_s", ratio(mega("sim.decode.records"), decode_s));
    put("isa.meta.calls", tr.calls("isa.meta"));
    put("isa.meta.busy_s", tr.busy("isa.meta"));
    put("uarch.pipeline.calls", tr.calls("uarch.pipeline.run"));
    put("uarch.pipeline.minstr", mega("uarch.pipeline.instrs"));
    put("uarch.pipeline.sim_mcycles", mega("uarch.pipeline.cycles"));
    put("uarch.pipeline.busy_s", pipeline_s);
    put(
        "uarch.pipeline.new_us",
        1e6 * ratio(tr.busy("uarch.pipeline.new"), tr.calls("uarch.pipeline.new")),
    );
    put("uarch.pipeline.ns_per_instr", 1e9 * ratio(pipeline_s, tr.count("uarch.pipeline.instrs")));
    put("uarch.extract.calls", tr.calls("uarch.extract"));
    put("uarch.extract.minstr", mega("uarch.extract.instrs"));
    put("uarch.extract.busy_s", tr.busy("uarch.extract"));
    put("uarch.stackdist.busy_s", tr.busy("uarch.stackdist"));
    put("uarch.stackdist.accesses", tr.count("uarch.stackdist.accesses"));
    put("uarch.stackdist.configs", tr.count("uarch.stackdist.configs"));
    put("power.calls", tr.calls("power"));
    put("power.busy_s", tr.busy("power"));
    put("power.us_per_call", 1e6 * ratio(tr.busy("power"), tr.calls("power")));
    put("core.grid.shards", tr.calls("core.grid.shard"));
    put("core.grid.busy_s", tr.busy("core.grid.shard"));
    put("core.grid.self_s", tr.self_time("core.grid.shard"));
    put("core.grid.overhead_s", if walls.grid { walls.untraced_s - leaf_s } else { 0.0 });
    put("core.grid.retries", tr.count("core.grid.retries"));
    put("core.journal.write_s", tr.busy("core.journal.write") + tr.busy("core.journal.open"));
    put("core.journal.bytes", tr.count("core.journal.bytes"));
    put(
        "obs.trace_overhead_pct",
        100.0 * ratio(walls.traced_s - walls.untraced_s, walls.untraced_s),
    );
    put("obs.layer_coverage_pct", 100.0 * ratio(leaf_s, walls.untraced_s));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;

    #[test]
    fn per_layer_fills_exactly_the_spec_metrics() {
        let walls = Walls { untraced_s: 1.0, traced_s: 1.0, scale: 1.0, grid: true };
        let m = per_layer(&Tracer::new(true), &walls);
        let names: Vec<&str> = PER_LAYER.iter().map(|s| s.name).collect();
        assert_eq!(m.len(), names.len());
        assert!(names.iter().all(|n| m.contains_key(n)), "every spec metric is computed");
    }
}
