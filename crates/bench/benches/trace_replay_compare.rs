//! Engineering comparison behind the Table-3/Figure-8 runtimes: a
//! 12-configuration design-change timing sweep evaluated by per-config
//! re-interpretation (`run_timing`: one functional execution *per cell*,
//! the pre-trace path and correctness oracle) versus record-once/
//! replay-many (`PackedTrace::capture` once per program +
//! `run_timing_store` per cell). Asserts bit-identical `PipelineReport`
//! and `PowerReport` values before timing, and prints the wall-clock
//! speedup replay delivers, plus the stream-regeneration microcosts
//! (interpret vs replay) that drive it.

use std::path::Path;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use perfclone::{
    run_timing, run_timing_store, InstrMetaTable, MachineConfig, PackedTrace, TimingResult,
    TraceStore,
};
use perfclone_bench::{
    design_sweep_configs, experiment_params, prepare, scale_from_env, scale_label,
};
use perfclone_isa::Program;
use perfclone_kernels::by_name;
use perfclone_obs::rss::peak_rss_kib;

const KERNEL: &str = "susan";

/// The oracle: one functional execution per (program × config) cell.
fn sweep_interpret(programs: &[&Program], configs: &[MachineConfig]) -> Vec<TimingResult> {
    programs
        .iter()
        .flat_map(|p| configs.iter().map(|c| run_timing(p, c, u64::MAX).expect("timing")))
        .collect()
}

/// Record-once/replay-many: one capture per program, one replay per cell.
fn sweep_replay(programs: &[&Program], configs: &[MachineConfig]) -> Vec<TimingResult> {
    programs
        .iter()
        .flat_map(|p| {
            let trace = TraceStore::Mem(PackedTrace::capture(p, u64::MAX));
            let meta = InstrMetaTable::new(p);
            configs
                .iter()
                .map(|c| run_timing_store(p, &trace, &meta, c, None).expect("timing"))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn bench_replay_vs_interpret(c: &mut Criterion) {
    let kernel = by_name(KERNEL).expect("kernel exists");
    let scale = scale_from_env();
    let bench = prepare(kernel, scale, &experiment_params);
    let programs = [&bench.program, &bench.clone];
    let configs = design_sweep_configs();

    // Correctness gate first: every cell's PipelineReport and PowerReport
    // must be bit-identical between the two paths.
    let interp = sweep_interpret(&programs, &configs);
    let replay = sweep_replay(&programs, &configs);
    assert_eq!(interp.len(), replay.len());
    for (i, (a, b)) in interp.iter().zip(&replay).enumerate() {
        assert_eq!(a.report, b.report, "cell {i}: PipelineReport must be bit-identical");
        assert_eq!(
            a.power.average_power.to_bits(),
            b.power.average_power.to_bits(),
            "cell {i}: PowerReport must be bit-identical"
        );
    }

    let mut group = c.benchmark_group(format!("dsweep12/{KERNEL}"));
    group.sample_size(10);
    group.bench_function("per_config_interpret", |b| {
        b.iter(|| sweep_interpret(&programs, &configs))
    });
    group.bench_function("capture_once_replay", |b| b.iter(|| sweep_replay(&programs, &configs)));
    // The stream-regeneration microcosts that the sweep amortizes away.
    group.bench_function("interpret_stream_only", |b| {
        b.iter(|| perfclone_sim::Simulator::trace(&bench.program, u64::MAX).count())
    });
    let trace = TraceStore::Mem(PackedTrace::capture(&bench.program, u64::MAX));
    group.bench_function("replay_stream_only", |b| b.iter(|| trace.replay(&bench.program).count()));
    group.finish();

    // Headline numbers: one timed run each, so the harness prints explicit
    // speedup lines for EXPERIMENTS.md / CI logs.
    //
    // (1) Trace supply across the sweep: what replay replaces. The
    // interpreter path regenerates the dynamic stream once per config; the
    // replay path captures once and re-decodes per config.
    let n = configs.len();
    let t0 = Instant::now();
    let mut sink = 0usize;
    for _ in 0..n {
        sink += perfclone_sim::Simulator::trace(&bench.program, u64::MAX).count();
    }
    let supply_interp_s = std::hint::black_box(t0.elapsed().as_secs_f64());
    let t1 = Instant::now();
    let packed = TraceStore::Mem(PackedTrace::capture(&bench.program, u64::MAX));
    for _ in 0..n {
        sink += packed.replay(&bench.program).count();
    }
    let supply_replay_s = t1.elapsed().as_secs_f64();
    assert_eq!(sink, 2 * n * packed.len() as usize);

    // (2) End-to-end sweep wall clock (timing-model-bound: the pipeline
    // dominates, so this ratio is far smaller than the supply ratio).
    let t2 = Instant::now();
    let a = sweep_interpret(&programs, &configs);
    let interp_s = t2.elapsed().as_secs_f64();
    let t3 = Instant::now();
    let b = sweep_replay(&programs, &configs);
    let replay_s = t3.elapsed().as_secs_f64();
    assert_eq!(a.len(), b.len());
    println!(
        "\n{KERNEL}: {n}-config trace supply  interpret {:.1}ms  capture+replay {:.1}ms  \
         speedup {:.1}x  ({} instrs, packed {} B = {:.2} B/instr)",
        supply_interp_s * 1e3,
        supply_replay_s * 1e3,
        supply_interp_s / supply_replay_s,
        packed.len(),
        packed.stored_bytes(),
        packed.stored_bytes() as f64 / packed.len() as f64
    );
    println!(
        "{KERNEL}: {n}-config end-to-end sweep  interpret {interp_s:.3}s  replay {replay_s:.3}s  \
         speedup {:.2}x  (pipeline-model-bound)",
        interp_s / replay_s,
    );

    // Trajectory record: the replay-path wall clock and memory footprint
    // for the 12-configuration sweep, checked in per PR and regression-
    // gated in CI (same scheme as `BENCH_grid.json`). Hand-rolled JSON
    // keeps the bench crate dependency-free.
    let rss_kib = peak_rss_kib().unwrap_or(0);
    let json = format!(
        "{{\n  \"bench\": \"trace_replay_compare\",\n  \"workload\": \"{KERNEL}\",\n  \
         \"scale\": \"{}\",\n  \"configs\": {n},\n  \"cells\": {},\n  \
         \"interpret_s\": {interp_s:.3},\n  \"elapsed_s\": {replay_s:.3},\n  \
         \"sweep_speedup\": {:.2},\n  \"supply_speedup\": {:.1},\n  \
         \"peak_rss_kib\": {rss_kib}\n}}\n",
        scale_label(scale),
        2 * n,
        interp_s / replay_s,
        supply_interp_s / supply_replay_s,
    );
    let dest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_replay.json");
    match std::fs::write(&dest, &json) {
        Ok(()) => println!("bench record -> {}", dest.display()),
        Err(e) => eprintln!("perfclone-bench: cannot write {}: {e}", dest.display()),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_replay_vs_interpret
}
criterion_main!(benches);
