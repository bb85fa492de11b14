//! Engineering comparison behind the Figure-4/5 runtimes: the 28-config
//! L1 D-cache sweep evaluated by per-configuration functional replay
//! (`sweep_dcache_replay`, the pre-engine path and correctness oracle)
//! versus the single-pass stack-distance engine (`sweep_dcache`: one trace
//! extraction + one Mattson pass over per-set truncated LRU stacks that
//! stops at the first set count holding the line on top), plus
//! the engine's two halves in isolation (`trace_extraction_only`,
//! `stack_pass_only`). Asserts bit-identical miss counts before timing,
//! and prints the wall-clock speedup the engine delivers.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use perfclone_kernels::{by_name, Scale};
use perfclone_uarch::{cache_sweep, sweep_dcache, sweep_dcache_replay, sweep_trace, AddressTrace};

const KERNEL: &str = "susan";

fn bench_engine_vs_replay(c: &mut Criterion) {
    let program = by_name(KERNEL).expect("kernel exists").build(Scale::Small).program;
    let configs = cache_sweep();

    let engine = sweep_dcache(&program, &configs, u64::MAX);
    let replay = sweep_dcache_replay(&program, &configs, u64::MAX);
    assert_eq!(engine, replay, "engine must be bit-identical to per-config replay");

    let mut group = c.benchmark_group(format!("sweep28/{KERNEL}"));
    group.sample_size(10);
    group.bench_function("per_config_replay", |b| {
        b.iter(|| sweep_dcache_replay(&program, &configs, u64::MAX))
    });
    group.bench_function("single_pass_engine", |b| {
        b.iter(|| sweep_dcache(&program, &configs, u64::MAX))
    });
    group.bench_function("trace_extraction_only", |b| {
        b.iter(|| AddressTrace::extract(&program, u64::MAX))
    });
    let trace = AddressTrace::extract(&program, u64::MAX);
    group.bench_function("stack_pass_only", |b| b.iter(|| sweep_trace(&trace, &configs)));
    group.finish();

    // Headline number: one timed run each, so the harness prints an
    // explicit speedup line for CHANGES.md / CI logs.
    let t0 = Instant::now();
    let r = sweep_dcache_replay(&program, &configs, u64::MAX);
    let replay_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let e = sweep_dcache(&program, &configs, u64::MAX);
    let engine_s = t1.elapsed().as_secs_f64();
    assert_eq!(r, e);
    println!(
        "\n{KERNEL}: 28-config sweep  replay {replay_s:.3}s  engine {engine_s:.3}s  \
         speedup {:.1}x  ({} refs, {} instrs)",
        replay_s / engine_s,
        e[0].accesses,
        e[0].instrs
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_engine_vs_replay
}
criterion_main!(benches);
