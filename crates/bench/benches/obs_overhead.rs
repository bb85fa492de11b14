//! Telemetry overhead gate: the susan 28-config L1 D-cache sweep (the
//! hottest instrumented path — trace extraction plus the single-pass
//! stack-distance engine) timed with the registry enabled versus disabled
//! at runtime, and with event tracing (the registry's event log) on top.
//! The instrumentation batches its publishes once per stage, so the
//! acceptance bound is < 3 % overhead — for metrics alone and for
//! metrics + tracing; the measured numbers are recorded in
//! EXPERIMENTS.md ("Telemetry overhead"). That telemetry leaves the
//! sweep's results unchanged is a test
//! (`tests/observability.rs::telemetry_does_not_change_sweep_results`).

use std::hint::black_box;
use std::time::Instant;

use perfclone_kernels::{by_name, Scale};
use perfclone_uarch::{cache_sweep, sweep_dcache};

const KERNEL: &str = "susan";

/// Timed rounds; a multiple of the arm count, so the rotating order
/// puts every arm in every position equally often.
const ROUNDS: usize = 90;

fn main() {
    let program = by_name(KERNEL).expect("kernel exists").build(Scale::Small).program;
    let configs = cache_sweep();
    // (registry enabled, event tracing): on, on + tracing, off.
    let arms = [(true, false), (true, true), (false, false)];

    // Untimed warm-up: the process's first sweep pays one-time costs
    // (faulting in the heap, cold caches) that would otherwise land on
    // whichever arm runs first.
    black_box(sweep_dcache(&program, &configs, u64::MAX));
    let mut secs = vec![[0.0f64; 3]; ROUNDS];
    for (round, times) in secs.iter_mut().enumerate() {
        for k in 0..arms.len() {
            let arm = (round + k) % arms.len();
            let (enabled, tracing) = arms[arm];
            perfclone_obs::set_enabled(enabled);
            perfclone_obs::set_trace_enabled(tracing);
            let t = Instant::now();
            black_box(sweep_dcache(black_box(&program), &configs, u64::MAX));
            times[arm] = t.elapsed().as_secs_f64();
        }
    }
    perfclone_obs::set_enabled(true);
    perfclone_obs::set_trace_enabled(false);

    // Each arm's time is its best round. An overhead is the median over
    // rounds of the arm's time over the same round's telemetry-off time:
    // the three runs of a round are adjacent, so a spell of host load
    // that slows a whole round cancels, where it would not between two
    // minima taken in different rounds.
    let best = |arm: usize| secs.iter().map(|r| r[arm]).fold(f64::INFINITY, f64::min);
    let overhead = |arm: usize| {
        let mut ratios: Vec<f64> = secs.iter().map(|r| r[arm] / r[2]).collect();
        ratios.sort_by(f64::total_cmp);
        (ratios[ROUNDS / 2] - 1.0) * 100.0
    };
    let (on_s, trace_s, off_s) = (best(0), best(1), best(2));
    let (overhead, trace_overhead) = (overhead(0), overhead(1));
    println!(
        "\n{KERNEL}: 28-config sweep, best of {ROUNDS}  telemetry-on {on_s:.3}s  \
         +tracing {trace_s:.3}s  telemetry-off {off_s:.3}s  overhead {overhead:+.2}%  \
         tracing overhead {trace_overhead:+.2}%  (median per-round ratio; acceptance: < 3% each)"
    );
}
