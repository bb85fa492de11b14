//! Headline benchmark for the batched SoA replay front end: a 24-cell
//! design sweep (2 programs × 12 configurations) evaluated by the
//! record-at-a-time oracle (`Pipeline::run` pulling `DynInstr`s from
//! `TraceStore::replay`) versus the batched decoder (`Pipeline::
//! run_batched` draining SoA chunks from `replay_batched` through the
//! interned `InstrMetaTable`). Every cell's `PipelineReport` and
//! `PowerReport` are asserted bit-identical between the two paths
//! *before* any number is reported; the headline line then prints the
//! wall-clock speedup the batched decode delivers on the identical work.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use perfclone::{
    estimate_power, InstrMetaTable, MachineConfig, PackedTrace, Pipeline, TimingResult, TraceStore,
};
use perfclone_bench::{design_sweep_configs, experiment_params, prepare, scale_from_env};
use perfclone_isa::Program;
use perfclone_kernels::by_name;

const KERNEL: &str = "susan";

/// One program's replay material: the captured trace and its interned
/// static-resolution table (both built once, outside the timed region —
/// exactly how the sweep engine amortizes them).
struct Prepped<'a> {
    program: &'a Program,
    trace: TraceStore,
    meta: InstrMetaTable,
}

/// The oracle: record-at-a-time replay per cell.
fn sweep_oracle(prepped: &[Prepped<'_>], configs: &[MachineConfig]) -> Vec<TimingResult> {
    prepped
        .iter()
        .flat_map(|p| {
            configs.iter().map(|c| {
                let mut replay = p.trace.replay(p.program);
                let report = Pipeline::new(*c).run(&mut replay);
                let power = estimate_power(c, &report);
                TimingResult { report, power }
            })
        })
        .collect()
}

/// The batched path: chunked SoA decode per cell over the shared table.
fn sweep_batched(prepped: &[Prepped<'_>], configs: &[MachineConfig]) -> Vec<TimingResult> {
    prepped
        .iter()
        .flat_map(|p| {
            configs.iter().map(|c| {
                let replay = p.trace.replay_batched(p.program, &p.meta);
                let report = Pipeline::new(*c).run_batched(replay);
                let power = estimate_power(c, &report);
                TimingResult { report, power }
            })
        })
        .collect()
}

fn bench_batched_vs_oracle(c: &mut Criterion) {
    let kernel = by_name(KERNEL).expect("kernel exists");
    let bench = prepare(kernel, scale_from_env(), &experiment_params);
    let configs = design_sweep_configs();
    let prepped: Vec<Prepped<'_>> = [&bench.program, &bench.clone]
        .into_iter()
        .map(|program| Prepped {
            program,
            trace: TraceStore::Mem(PackedTrace::capture(program, u64::MAX)),
            meta: InstrMetaTable::new(program),
        })
        .collect();

    // Correctness gate first: no number is reported unless every cell is
    // bit-identical across the two decode paths.
    let oracle = sweep_oracle(&prepped, &configs);
    let batched = sweep_batched(&prepped, &configs);
    assert_eq!(oracle.len(), batched.len());
    for (i, (a, b)) in oracle.iter().zip(&batched).enumerate() {
        assert_eq!(a.report, b.report, "cell {i}: PipelineReport must be bit-identical");
        assert_eq!(
            a.power.total_energy.to_bits(),
            b.power.total_energy.to_bits(),
            "cell {i}: total_energy must be bit-identical"
        );
        assert_eq!(
            a.power.average_power.to_bits(),
            b.power.average_power.to_bits(),
            "cell {i}: average_power must be bit-identical"
        );
        assert_eq!(
            a.power.energy_per_instr.to_bits(),
            b.power.energy_per_instr.to_bits(),
            "cell {i}: energy_per_instr must be bit-identical"
        );
    }

    let mut group = c.benchmark_group(format!("batch24/{KERNEL}"));
    group.sample_size(10);
    group
        .bench_function("record_at_a_time_oracle", |b| b.iter(|| sweep_oracle(&prepped, &configs)));
    group.bench_function("batched_soa", |b| b.iter(|| sweep_batched(&prepped, &configs)));
    group.finish();

    // Headline: best-of-three timed runs per arm (minima are robust
    // against interference on shared machines), printed for
    // EXPERIMENTS.md / CI logs.
    let cells = oracle.len();
    let best_of = |sweep: &dyn Fn() -> Vec<TimingResult>| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(sweep().len());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let oracle_s = best_of(&|| sweep_oracle(&prepped, &configs));
    let batched_s = best_of(&|| sweep_batched(&prepped, &configs));
    println!(
        "\n{KERNEL}: {cells}-cell sweep  record-at-a-time {oracle_s:.3}s  batched {batched_s:.3}s  \
         speedup {:.2}x  (reports bit-identical)",
        oracle_s / batched_s,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_batched_vs_oracle
}
criterion_main!(benches);
