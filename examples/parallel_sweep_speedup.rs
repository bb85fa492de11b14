//! Timed demonstration of the parallel sweep engine: runs the Table-3
//! design-change sweep (real program and clone on the base machine and
//! the five design changes, twelve timing cells) for every bundled kernel
//! on a 1-thread pool and then on a 4-thread pool, checks the results are
//! bit-identical, and reports the wall-clock speedup. The sweep takes its
//! width from the pool it is called in; width 1 is the serial run.
//!
//! ```text
//! cargo run --release --example parallel_sweep_speedup
//! ```

use std::time::Instant;

use perfclone::experiments::{design_change_sweep, DesignChangeSweep};
use perfclone_isa::Program;
use perfclone_kernels::{catalog, Scale};
use perfclone_repro::prelude::*;

/// Times one kernel's design sweep on a `jobs`-thread pool.
fn timed_sweep(jobs: usize, real: &Program, clone: &Program) -> (DesignChangeSweep, f64) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("pool");
    let start = Instant::now();
    let sweep = pool
        .install(|| design_change_sweep(real, clone, &base_config(), u64::MAX))
        .expect("kernels and clones run to completion");
    (sweep, start.elapsed().as_secs_f64())
}

fn main() {
    let jobs = 4;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cloner =
        Cloner::with_params(SynthesisParams { target_dynamic: 200_000, ..Default::default() });
    let pairs: Vec<_> = catalog()
        .iter()
        .map(|k| {
            let real = k.build(Scale::Tiny).program;
            let clone = cloner.clone_program(&real, u64::MAX).expect("clone").clone;
            (k.name(), real, clone)
        })
        .collect();
    println!(
        "design-change sweep over {} kernels, 1 vs {jobs} threads ({cores} cores detected)\n",
        pairs.len()
    );
    if cores < jobs {
        println!("note: fewer cores than threads — CPU-bound speedup is bounded by core count\n");
    }

    let mut table =
        Table::new(vec!["kernel".into(), "1 thread".into(), "parallel".into(), "speedup".into()]);
    let (mut serial_total, mut par_total) = (0.0f64, 0.0f64);
    for (name, real, clone) in &pairs {
        let (serial, ts) = timed_sweep(1, real, clone);
        let (par, tp) = timed_sweep(jobs, real, clone);
        // Debug renders every f64 exactly, so equal text is equal bits.
        assert_eq!(format!("{serial:?}"), format!("{par:?}"), "{name}: widths diverged");
        serial_total += ts;
        par_total += tp;
        table.row(vec![
            (*name).into(),
            format!("{ts:.3}s"),
            format!("{tp:.3}s"),
            format!("{:.2}x", ts / tp),
        ]);
    }
    let speedup = serial_total / par_total;
    table.row(vec![
        "total".into(),
        format!("{serial_total:.3}s"),
        format!("{par_total:.3}s"),
        format!("{speedup:.2}x"),
    ]);
    println!("{}", table.render());
    println!(
        "\nresults bit-identical at both widths; total speedup {speedup:.2}x on {jobs} threads"
    );
}
