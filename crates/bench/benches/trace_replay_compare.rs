//! Engineering comparison behind the Table-3/Figure-8 runtimes: a
//! 12-configuration design-change timing sweep evaluated by per-config
//! re-interpretation (`run_timing`: one functional execution *per cell*,
//! the pre-trace path and correctness oracle) versus record-once/
//! replay-many (`TraceStore::capture` once per program +
//! `run_timing_store` per cell). Asserts bit-identical `PipelineReport`
//! and `PowerReport` values before timing, and prints the wall-clock
//! speedup replay delivers, plus the trace-supply costs (interpret vs
//! capture + replay) that drive it. Writes the replay path's wall clock
//! and peak RSS to `BENCH_replay.json` at the workspace root.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use perfclone::{
    run_timing, run_timing_store, InstrMetaTable, MachineConfig, TimingResult, TraceStore,
};
use perfclone_bench::{
    design_sweep_configs, experiment_params, prepare, scale_from_env, scale_label,
};
use perfclone_isa::Program;
use perfclone_kernels::by_name;
use perfclone_obs::rss::peak_rss_kib;
use perfclone_sim::Simulator;

const KERNEL: &str = "susan";

/// Timed rounds. Each round times all four measurements once, in turn,
/// so a burst of host load lands on every one alike; each reports its
/// minimum.
const ROUNDS: usize = 5;

/// Captures `program` in memory: no cap, so nothing spills.
fn capture(program: &Program) -> TraceStore {
    TraceStore::capture(program, u64::MAX, usize::MAX, &std::env::temp_dir()).expect("capture")
}

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
            let trace = capture(p);
            let meta = InstrMetaTable::new(p);
            configs
                .iter()
                .map(|c| run_timing_store(p, &trace, &meta, c).expect("timing"))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Trace supply across an `n`-config sweep, the part replay replaces:
/// the interpreter regenerates the dynamic stream once per config.
/// Returns the records supplied.
fn supply_interpret(program: &Program, n: usize) -> usize {
    (0..n).map(|_| Simulator::trace(program, u64::MAX).count()).sum()
}

/// The replay path's trace supply: capture once, re-decode per config.
fn supply_replay(program: &Program, n: usize) -> usize {
    let packed = capture(program);
    (0..n).map(|_| packed.replay(program).count()).sum()
}

/// Wall-clock seconds of one call.
fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

fn main() {
    let kernel = by_name(KERNEL).expect("kernel exists");
    let scale = scale_from_env();
    let bench = prepare(kernel, scale, &experiment_params);
    let programs = [&bench.program, &bench.clone];
    let configs = design_sweep_configs();
    let n = configs.len();
    let (instrs, packed_bytes) = {
        let packed = capture(&bench.program);
        (packed.len(), packed.stored_bytes())
    };

    // Correctness gate first, which is also the untimed warm-up: every
    // cell's PipelineReport and PowerReport must be bit-identical between
    // the two paths, and both supply paths must yield every record.
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
    let records = n * instrs as usize;
    assert_eq!(supply_interpret(&bench.program, n), records);
    assert_eq!(supply_replay(&bench.program, n), records);

    let mut supply_interp_s = f64::INFINITY;
    let mut supply_replay_s = f64::INFINITY;
    let mut interp_s = f64::INFINITY;
    let mut replay_s = f64::INFINITY;
    for _ in 0..ROUNDS {
        supply_interp_s = supply_interp_s.min(secs(|| supply_interpret(&bench.program, n)));
        supply_replay_s = supply_replay_s.min(secs(|| supply_replay(&bench.program, n)));
        // End-to-end sweep wall clock (timing-model-bound: the pipeline
        // dominates, so this ratio is far smaller than the supply ratio).
        interp_s = interp_s.min(secs(|| sweep_interpret(&programs, &configs)));
        replay_s = replay_s.min(secs(|| sweep_replay(&programs, &configs)));
    }

    println!(
        "\n{KERNEL}: {n}-config trace supply  interpret {:.1}ms  capture+replay {:.1}ms  \
         speedup {:.1}x  ({} instrs, packed {} B = {:.2} B/instr)",
        supply_interp_s * 1e3,
        supply_replay_s * 1e3,
        supply_interp_s / supply_replay_s,
        instrs,
        packed_bytes,
        packed_bytes as f64 / instrs as f64
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
