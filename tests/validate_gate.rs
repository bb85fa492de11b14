//! Acceptance tests for the fidelity gate and the fault-injection harness:
//! every bundled kernel's clone must pass the default gate, corrupted
//! profiles must be rejected with typed errors (never panics), and the
//! runaway budgets must trip as [`Error::BudgetExhausted`].

use perfclone_isa::{ProgramBuilder, Reg};
use perfclone_kernels::{by_name, catalog, Scale};
use perfclone_repro::prelude::*;
use perfclone_sim::Simulator;
use perfclone_statsim::{synth_trace, TraceParams};
use proptest::prelude::*;
use rayon::prelude::*;

/// Every bundled kernel's clone passes the fidelity gate at the default
/// tolerances (the headline acceptance test for the gate's
/// calibration).
#[test]
fn all_bundled_kernels_pass_the_default_gate() {
    let gate = Gate::default();
    let outcomes: Vec<Option<String>> = catalog()
        .par_iter()
        .map(|k| {
            let program = k.build(Scale::Tiny).program;
            match Cloner::new().clone_validated(&program, u64::MAX, &gate) {
                Ok((_, report)) => {
                    assert_ne!(report.verdict(), Verdict::Fail);
                    None
                }
                Err(e) => Some(format!("{}: {e}", k.name())),
            }
        })
        .collect();
    let failures: Vec<String> = outcomes.into_iter().flatten().collect();
    assert!(failures.is_empty(), "kernels failed the default gate:\n{}", failures.join("\n"));
}

/// Zeroing every stream stride is a structure-preserving corruption: the
/// profile still synthesizes, but the clone's memory behaviour collapses
/// and the gate must fail it, naming the stride-stream attribute.
#[test]
fn zero_stride_corruption_fails_the_gate_naming_streams() {
    let program = by_name("susan").expect("bundled kernel").build(Scale::Tiny).program;
    let profile = profile_program(&program, u64::MAX).expect("profile");
    let perturbed = FaultPlan::single(0xBAD5EED, Fault::ZeroStrideStreams).apply(&profile);
    let clone = Cloner::new().clone_program_from(&perturbed).expect("still synthesizes");

    let report = Gate::default().report(&profile, &clone).expect("gate runs");
    assert_eq!(report.verdict(), Verdict::Fail);
    let worst = report.first_failure().expect("a failing attribute");
    assert_eq!(worst.attribute, Attribute::StrideStreams);
    assert!(report.failure_summary().contains("stride streams"));

    // The result form is a typed error carrying the same report.
    let err = report.clone().into_result().unwrap_err();
    assert!(matches!(err, ValidateError::GateFailed(_)));
    assert!(matches!(Error::from(err), Error::Validate(_)));
}

/// Truncating the SFG's node table leaves dangling edge indices — a
/// structure-breaking corruption every downstream stage must reject with a
/// typed error, never a panic or an out-of-bounds index.
#[test]
fn truncated_nodes_corruption_is_rejected_at_every_stage() {
    let program = by_name("crc32").expect("bundled kernel").build(Scale::Tiny).program;
    let profile = profile_program(&program, u64::MAX).expect("profile");
    let broken = FaultPlan::single(7, Fault::TruncateNodes).apply(&profile);

    assert!(broken.check().is_err(), "truncation must fail structural validation");
    let synth_err = Cloner::new().clone_program_from(&broken).unwrap_err();
    assert!(matches!(synth_err, Error::Synth(SynthError::InvalidProfile(_))));
    let trace_err = synth_trace(&broken, &TraceParams { length: 1000, seed: 1 }).unwrap_err();
    assert!(trace_err.to_string().contains("profile"));
    let gate_err = Gate::default().report(&broken, &program).unwrap_err();
    assert!(matches!(Error::from(gate_err), Error::Validate(_)));
}

/// The fault-injection contract on bundled kernels, under the CLI's
/// default synthesis parameters: every structure-breaking fault makes
/// synthesis reject the profile as invalid, and every other fault still
/// synthesizes a clone that the gate can judge against the pristine
/// profile, whatever its verdict.
#[test]
fn every_fault_honours_its_structure_contract() {
    for name in ["crc32", "susan"] {
        let program = by_name(name).expect("bundled kernel").build(Scale::Tiny).program;
        let profile = profile_program(&program, u64::MAX).expect("profile");
        let cloner = Cloner::with_params(SynthesisParams {
            target_dynamic: profile.total_instrs.clamp(100_000, 2_500_000),
            ..SynthesisParams::default()
        });
        for fault in Fault::ALL {
            let perturbed = FaultPlan::single(0xC10_5E1F, fault).apply(&profile);
            match cloner.clone_program_from(&perturbed) {
                Err(Error::Synth(SynthError::InvalidProfile(_))) if fault.breaks_structure() => {}
                Ok(clone) if !fault.breaks_structure() => {
                    let report = Gate::default().report(&profile, &clone);
                    assert!(report.is_ok(), "{name}/{}: gate errored: {report:?}", fault.label());
                }
                other => panic!("{name}/{}: contract violated: {other:?}", fault.label()),
            }
        }
    }
}

/// A non-halting program trips the budget guard of each layer that has
/// one (the timing model bounds its runs itself), and the unified
/// taxonomy folds each layer's variant into [`Error::BudgetExhausted`]
/// with the stage recorded.
#[test]
fn runaway_programs_exhaust_budgets_with_typed_errors() {
    let mut b = ProgramBuilder::new("spin");
    let top = b.label();
    b.bind(top);
    b.addi(Reg::new(1), Reg::new(1), 1);
    b.j(top);
    let spin = b.build();

    // Functional simulation.
    let sim_err = Simulator::new(&spin).run_budget(10_000).unwrap_err();
    assert!(matches!(
        Error::from(sim_err),
        Error::BudgetExhausted { stage: "sim", budget: 10_000 }
    ));

    // Gate measurement: a clone that never halts cannot pass validation.
    let profile = profile_program(&spin, 100_000).expect("bounded profile");
    let gate = Gate { profile_budget: 50_000, ..Gate::default() };
    let gate_err = gate.report(&profile, &spin).unwrap_err();
    assert!(matches!(
        Error::from(gate_err),
        Error::BudgetExhausted { stage: "validate", budget: 50_000 }
    ));
}

/// A clone that runs off the end of its text while the gate measures it
/// is rejected as `CloneFaulted`, carrying the simulator's own fault,
/// rather than judged or reported as budget exhaustion.
#[test]
fn clone_running_off_its_text_is_rejected_as_faulted() {
    let profile = profile_program(&small_program(50, 8), u64::MAX).expect("profile");
    let mut b = ProgramBuilder::new("fall");
    b.nop(); // no halt: execution falls off the end of the text section
    let fall = b.build();
    let gate = Gate { profile_budget: 1_000, ..Gate::default() };
    let err = gate.report(&profile, &fall).expect_err("the clone faults");
    let ValidateError::CloneFaulted(fault) = err else {
        panic!("expected CloneFaulted, got {err}");
    };
    assert_eq!(fault, Simulator::new(&fall).run(1_000).expect_err("falls off its text"));
}

/// A tiny deterministic loop program used by the property tests (cheap to
/// profile compared to the bundled kernels).
fn small_program(iters: i64, stride: i64) -> perfclone_isa::Program {
    let mut b = ProgramBuilder::new("prop");
    let id = b.stream_alloc(stride, 256);
    let (i, n, t) = (Reg::new(1), Reg::new(2), Reg::new(3));
    b.li(i, 0);
    b.li(n, iters);
    let top = b.label();
    b.bind(top);
    b.ld_stream(t, id, perfclone_isa::MemWidth::B8);
    b.addi(t, t, 3);
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Un-normalized SFG edge probabilities are degraded-but-valid input:
    /// synthesis must either renormalize (and produce a halting clone) or
    /// reject with a typed error — never panic. Same seed, same clone.
    #[test]
    fn unnormalized_edges_are_renormalized_or_rejected(
        seed in 1u64..1_000_000,
        iters in 100i64..500,
    ) {
        let program = small_program(iters, 8);
        let profile = profile_program(&program, u64::MAX).expect("profile");
        let perturbed = FaultPlan::single(seed, Fault::UnnormalizedEdges).apply(&profile);
        let cloner = Cloner::with_params(SynthesisParams {
            target_dynamic: 20_000,
            ..SynthesisParams::default()
        });
        match (cloner.clone_program_from(&perturbed), cloner.clone_program_from(&perturbed)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                let out = Simulator::new(&a).run_budget(10_000_000).expect("clone halts");
                prop_assert!(out.halted);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "nondeterministic outcome: {a:?} vs {b:?}"),
        }
    }

    /// Truncated (and empty) traces yield a typed outcome at every stage:
    /// profiling either succeeds with a structurally valid profile or
    /// returns a typed error, and every downstream stage does the same.
    #[test]
    fn truncated_traces_yield_typed_outcomes_at_every_stage(
        limit in 0u64..2_000,
        iters in 50i64..300,
    ) {
        let program = small_program(iters, 4);
        match profile_program(&program, limit) {
            Err(e) => {
                // Only the empty trace is a profiling error.
                prop_assert_eq!(limit, 0, "unexpected profile error at limit {}: {}", limit, e);
                let is_empty_variant = matches!(e, ProfileError::Empty { .. });
                prop_assert!(is_empty_variant);
            }
            Ok(profile) => {
                prop_assert!(profile.check().is_ok());
                let params = SynthesisParams {
                    target_dynamic: 10_000,
                    ..SynthesisParams::default()
                };
                // Both downstream generators accept any valid profile.
                prop_assert!(Cloner::with_params(params).clone_program_from(&profile).is_ok());
                let trace = synth_trace(&profile, &TraceParams { length: 1_000, seed: 2 });
                prop_assert!(trace.is_ok());
            }
        }
    }

    /// Fault injection is a pure function of (root seed, fault): applying
    /// a plan and synthesizing from the result is bit-identical at any
    /// worker-thread count.
    #[test]
    fn fault_injection_is_deterministic_across_thread_counts(root in 1u64..1_000_000) {
        let program = small_program(300, 8);
        let profile = profile_program(&program, u64::MAX).expect("profile");
        let render = |jobs: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(jobs).build().unwrap();
            pool.install(|| {
                let lines: Vec<String> = Fault::ALL
                    .par_iter()
                    .map(|&fault| {
                        let perturbed = FaultPlan::single(root, fault).apply(&profile);
                        let clone = Cloner::with_params(SynthesisParams {
                            target_dynamic: 10_000,
                            ..SynthesisParams::default()
                        })
                        .clone_program_from(&perturbed);
                        match clone {
                            Ok(p) => format!("{}: ok {:?}", fault.label(), p),
                            Err(e) => format!("{}: err {}", fault.label(), e),
                        }
                    })
                    .collect();
                lines.join("\n")
            })
        };
        let one = render(1);
        prop_assert_eq!(&one, &render(4));
        prop_assert_eq!(&one, &render(2));
    }
}
