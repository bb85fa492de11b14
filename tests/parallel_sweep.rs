//! Cross-crate integration tests for the parallel design-space sweep
//! engine: every sweep must return, at every pool width, results
//! bit-identical to an independent serial reference, and the first
//! failing cell's error; the shared [`WorkloadCache`] must hand out one
//! `Arc` per workload no matter how many sweep cells ask for it; and
//! everything that crosses a thread boundary must be `Send + Sync`.

use std::sync::Arc;

use perfclone::experiments::{cache_sweep_pair, design_change_sweep};
use perfclone::suite::{suite_mark, Suite};
use perfclone::{
    base_config, cache_sweep, derive_cell_seed, design_changes, run_timing, AddressTrace,
    CacheConfig, Cloner, Gate, MachineConfig, SynthesisParams, TimingResult, WorkloadCache,
    WorkloadProfile,
};
use perfclone_isa::{Program, ProgramBuilder};
use perfclone_kernels::{catalog, Scale};
use perfclone_uarch::simulate_dcache;
use rayon::prelude::*;

/// Everything handed to a rayon task must cross threads.
#[test]
fn sweep_inputs_and_outputs_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
    assert_send_sync::<WorkloadProfile>();
    assert_send_sync::<MachineConfig>();
    assert_send_sync::<CacheConfig>();
    assert_send_sync::<SynthesisParams>();
    assert_send_sync::<Cloner>();
    assert_send_sync::<WorkloadCache>();
    assert_send_sync::<Suite>();
    assert_send_sync::<TimingResult>();
    assert_send_sync::<AddressTrace>();
}

fn tiny_program(index: usize) -> (&'static str, Program) {
    let kernel = &catalog()[index % catalog().len()];
    (kernel.name(), kernel.build(Scale::Tiny).program)
}

/// Runs `f` on a fresh `jobs`-thread pool.
fn at_width<R: Send>(jobs: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("pool").install(f)
}

/// Debug renders every `f64` exactly, so equal text is equal bits.
fn bits(t: &TimingResult) -> String {
    format!("{t:?}")
}

/// Every sweep returns, at width 1 and at widths 4 and 8, exactly
/// what an independent path computes: per-configuration
/// `simulate_dcache` replay for the cache sweep, and one live `run_timing`
/// per (program × configuration) cell for the design-change sweep.
#[test]
fn core_parallel_drivers_are_bit_identical_to_serial() {
    let (name, program) = tiny_program(1);
    let params = SynthesisParams { target_dynamic: 100_000, ..SynthesisParams::default() };
    let clone = Cloner::with_params(params).clone_program(&program, u64::MAX).expect("clone").clone;
    let configs = cache_sweep();
    let mpi = |p: &Program| -> Vec<u64> {
        configs.iter().map(|c| simulate_dcache(p, *c, u64::MAX).mpi().to_bits()).collect()
    };
    let (real_mpi, synth_mpi) = (mpi(&program), mpi(&clone));
    let mut design_configs = vec![base_config()];
    design_configs.extend(design_changes());
    let live: Vec<(&str, String, String)> = design_configs
        .iter()
        .map(|c| {
            let real = run_timing(&program, c, u64::MAX).expect("real");
            let synth = run_timing(&clone, c, u64::MAX).expect("clone");
            (c.name, bits(&real), bits(&synth))
        })
        .collect();

    for jobs in [1, 4, 8] {
        let cmp = at_width(jobs, || cache_sweep_pair(&program, &clone, &configs, u64::MAX));
        assert_eq!(cmp.configs, configs, "{name}: configs, jobs={jobs}");
        let got: Vec<u64> = cmp.real_mpi.iter().map(|m| m.to_bits()).collect();
        assert_eq!(got, real_mpi, "{name}: real MPI, jobs={jobs}");
        let got: Vec<u64> = cmp.synth_mpi.iter().map(|m| m.to_bits()).collect();
        assert_eq!(got, synth_mpi, "{name}: clone MPI, jobs={jobs}");

        let sweep = at_width(jobs, || {
            design_change_sweep(&program, &clone, &base_config(), u64::MAX).expect("sweep")
        });
        let mut rows = vec![(base_config(), &sweep.base_real, &sweep.base_synth)];
        rows.extend(sweep.changes.iter().map(|c| (c.config, &c.real, &c.synth)));
        assert_eq!(rows.len(), live.len(), "jobs={jobs}");
        for ((config, real, synth), (live_config, live_real, live_synth)) in rows.iter().zip(&live)
        {
            assert_eq!(config.name, *live_config, "jobs={jobs}");
            assert_eq!(&bits(real), live_real, "{name} on {}: real, jobs={jobs}", config.name);
            assert_eq!(&bits(synth), live_synth, "{name} on {}: clone, jobs={jobs}", config.name);
        }
    }
}

/// A program of `nops` no-ops and no `halt`: it runs off the end of its
/// text at pc `nops`.
fn falls_off_at(nops: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("fall{nops}"));
    for _ in 0..nops {
        b.nop();
    }
    b.build()
}

/// When several cells fail, the sweeps return the first failure in
/// cell order, identically at every width: base × real for the design
/// sweep (the real program runs off its text at pc 1, the clone at pc 2),
/// and the first failing member for the suite mark.
#[test]
fn first_failing_cell_wins_at_every_width() {
    let (real, clone) = (falls_off_at(1), falls_off_at(2));
    let first = run_timing(&real, &base_config(), u64::MAX).expect_err("real runs off its text");
    let mut suite = Suite::new("faulty");
    let mut b = ProgramBuilder::new("ok");
    b.halt();
    suite.push(b.build(), 1.0).unwrap();
    suite.push(falls_off_at(1), 1.0).unwrap();
    suite.push(falls_off_at(2), 1.0).unwrap();
    for jobs in [1, 4] {
        let err = at_width(jobs, || design_change_sweep(&real, &clone, &base_config(), u64::MAX))
            .expect_err("every cell faults");
        assert_eq!(format!("{err:?}"), format!("{first:?}"), "design sweep, jobs={jobs}");
        let err = at_width(jobs, || suite_mark(&suite, &base_config(), u64::MAX))
            .expect_err("two members fault");
        assert_eq!(format!("{err:?}"), format!("{first:?}"), "suite mark, jobs={jobs}");
    }
    assert!(first.to_string().contains("program counter 1 "), "{first}");
}

/// The whole suite pipeline — gated cloning plus the suite mark — returns
/// at widths 1, 4 and 8 exactly what the test computes member by member:
/// each clone from its own `clone_validated` call, and the mark summed
/// here from per-member `run_timing` results in member order. A different
/// synthesis seed must perturb the clones.
#[test]
fn suite_pipeline_is_deterministic_across_thread_counts_and_runs() {
    let mut suite = Suite::new("integration");
    for (index, kernel) in catalog().iter().take(3).enumerate() {
        suite.push(kernel.build(Scale::Tiny).program, 1.0 + index as f64).unwrap();
    }
    let gate = Gate::default();
    let cloner = Cloner::new();
    let render =
        |s: &Suite| -> Vec<String> { s.entries().map(|(p, w)| format!("{w} {p:?}")).collect() };

    let (mut log_sum, mut power_sum, mut weight_sum) = (0.0f64, 0.0f64, 0.0f64);
    let mut expected = Vec::new();
    for (program, weight) in suite.entries() {
        let (outcome, _report) = cloner.clone_validated(program, u64::MAX, &gate).unwrap();
        let t = run_timing(&outcome.clone, &base_config(), u64::MAX).unwrap();
        log_sum += weight * t.report.ipc().ln();
        power_sum += weight * t.power.average_power;
        weight_sum += weight;
        expected.push(format!("{weight} {:?}", outcome.clone));
    }
    let (ipc_mark, power_mark) = ((log_sum / weight_sum).exp(), power_sum / weight_sum);

    for jobs in [1, 4, 8] {
        let (clones, mark) = at_width(jobs, || {
            let clones = suite.clone_suite(&cloner, &gate).unwrap();
            let mark = suite_mark(&clones, &base_config(), u64::MAX).unwrap();
            (clones, mark)
        });
        assert_eq!(clones.name(), "integration-clone");
        assert_eq!(render(&clones), expected, "clones, jobs={jobs}");
        assert_eq!(mark.ipc_mark.to_bits(), ipc_mark.to_bits(), "IPC mark, jobs={jobs}");
        assert_eq!(mark.power_mark.to_bits(), power_mark.to_bits(), "power mark, jobs={jobs}");
    }
    let reseeded = Cloner::with_params(SynthesisParams { seed: 7, ..SynthesisParams::default() });
    let other = at_width(4, || suite.clone_suite(&reseeded, &gate).unwrap());
    assert_ne!(render(&other), expected, "a different seed must perturb the clones");
}

/// Many parallel sweep cells over the same workload share one cached
/// profile: every cell gets the same `Arc`, and the profiler runs once.
#[test]
fn workload_cache_is_shared_across_a_parallel_sweep() {
    let (name, program) = tiny_program(2);
    let cache = WorkloadCache::new();
    let configs = cache_sweep();

    let profiles: Vec<Arc<WorkloadProfile>> =
        configs.par_iter().map(|_| cache.profile(name, &program, u64::MAX).unwrap()).collect();
    let first = &profiles[0];
    assert!(profiles.iter().all(|p| Arc::ptr_eq(first, p)));

    let stats = cache.snapshot();
    assert_eq!(stats.profile_computes, 1, "profiler must run exactly once");
    assert_eq!(stats.profile_lookups, configs.len() as u64);

    // Clones drawn through the cache are keyed by their synthesis params:
    // per-cell seeds derived from distinct cells yield distinct clones.
    let base = SynthesisParams::default();
    let a = cache
        .clone_program(
            name,
            &program,
            u64::MAX,
            &SynthesisParams { seed: derive_cell_seed(7, name, 0), ..base },
        )
        .unwrap();
    let b = cache
        .clone_program(
            name,
            &program,
            u64::MAX,
            &SynthesisParams { seed: derive_cell_seed(7, name, 1), ..base },
        )
        .unwrap();
    let a_again = cache
        .clone_program(
            name,
            &program,
            u64::MAX,
            &SynthesisParams { seed: derive_cell_seed(7, name, 0), ..base },
        )
        .unwrap();
    assert!(Arc::ptr_eq(&a, &a_again));
    assert!(!Arc::ptr_eq(&a, &b));
}
