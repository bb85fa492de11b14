//! Deterministic profile fault injection.
//!
//! A [`FaultPlan`] perturbs a [`WorkloadProfile`] at defined points so
//! tests can prove that every downstream stage — structural validation,
//! synthesis, statistical simulation, the fidelity gate — returns a typed
//! error or a degraded-but-flagged result instead of panicking. Every
//! perturbation is a pure function of the plan's root seed, the profile's
//! name, and the fault's position in the plan (via
//! [`derive_cell_seed`]), so fault-injected
//! runs are bit-identical at any thread count.

use perfclone_profile::{DepHistogram, EdgeProfile, WorkloadProfile, NUM_DEP_BUCKETS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::seeds::derive_cell_seed;

/// One input perturbation the injector can apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Models a truncated trace: the tail half of the SFG nodes is dropped
    /// while edges and contexts keep referencing them, leaving dangling
    /// cross-references that structural validation must reject.
    TruncateNodes,
    /// Scales a pseudo-random subset of SFG edge counts by a million, so
    /// transition probabilities are only meaningful after renormalization.
    /// Downstream stages must renormalize (they do) — a degraded-but-valid
    /// input, not a rejection.
    UnnormalizedEdges,
    /// Zeroes every stream's dominant stride and collapses its footprint —
    /// a structurally valid profile whose memory behavior is gone. The
    /// fidelity gate must flag the resulting clone.
    ZeroStrideStreams,
    /// Blows every dependency-distance histogram up to near-`u64::MAX`
    /// bucket counts, exercising the saturating arithmetic on every path
    /// that merges or totals histograms.
    OutOfRangeDepDistances,
    /// Scrambles each block's per-class instruction counts, so the block
    /// composition no longer matches its size or terminator. Synthesis must
    /// survive; the fidelity gate must flag the mix drift.
    CorruptRegisterClasses,
}

impl Fault {
    /// Every fault kind, for exhaustive harness sweeps.
    pub const ALL: [Fault; 5] = [
        Fault::TruncateNodes,
        Fault::UnnormalizedEdges,
        Fault::ZeroStrideStreams,
        Fault::OutOfRangeDepDistances,
        Fault::CorruptRegisterClasses,
    ];

    /// Short human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::TruncateNodes => "truncated trace",
            Fault::UnnormalizedEdges => "un-normalized edges",
            Fault::ZeroStrideStreams => "zeroed stride streams",
            Fault::OutOfRangeDepDistances => "out-of-range dep distances",
            Fault::CorruptRegisterClasses => "corrupted register classes",
        }
    }

    /// `true` when the perturbed profile is structurally invalid and must
    /// be rejected by [`WorkloadProfile::check`]; `false` when it stays
    /// structurally valid and downstream stages must instead degrade
    /// gracefully (and the fidelity gate must flag the damage).
    pub fn breaks_structure(&self) -> bool {
        matches!(self, Fault::TruncateNodes)
    }
}

/// A seeded, deterministic sequence of faults to apply to a profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    root: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Creates an empty plan with the given root seed.
    pub fn new(root: u64) -> FaultPlan {
        FaultPlan { root, faults: Vec::new() }
    }

    /// Creates a single-fault plan.
    pub fn single(root: u64, fault: Fault) -> FaultPlan {
        FaultPlan::new(root).with(fault)
    }

    /// Appends a fault to the plan.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// The faults in application order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Applies the plan to a copy of `profile`. Pure: the same plan and
    /// profile always yield the same perturbed profile, regardless of
    /// thread count or call order.
    pub fn apply(&self, profile: &WorkloadProfile) -> WorkloadProfile {
        let mut p = profile.clone();
        for (i, f) in self.faults.iter().enumerate() {
            let seed = derive_cell_seed(self.root, &p.name, i as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            apply_fault(*f, &mut p, &mut rng);
        }
        p
    }
}

fn apply_fault(fault: Fault, p: &mut WorkloadProfile, rng: &mut StdRng) {
    match fault {
        Fault::TruncateNodes => {
            let keep = (p.nodes.len() / 2).max(1);
            p.nodes.truncate(keep);
            // Guarantee at least one dangling reference even for tiny SFGs
            // whose surviving edges all stay in range.
            let dangles = p.edges.iter().any(|e| e.from as usize >= keep || e.to as usize >= keep);
            if !dangles {
                p.edges.push(EdgeProfile { from: 0, to: keep as u32, count: 1 });
            }
        }
        Fault::UnnormalizedEdges => {
            for e in &mut p.edges {
                if rng.gen_bool(0.5) {
                    e.count = e.count.saturating_mul(1_000_000);
                }
            }
        }
        Fault::ZeroStrideStreams => {
            for s in &mut p.streams {
                s.dominant_stride = 0;
                s.dominant_count = 0;
                s.mean_run_len = 1.0;
                s.distinct_strides = 1;
                s.max_addr = s.min_addr;
                s.fwd_breaks = 0;
                s.back_breaks = 0;
                s.mean_back_jump = 0.0;
            }
        }
        Fault::OutOfRangeDepDistances => {
            for c in &mut p.contexts {
                let mut counts = [0u64; NUM_DEP_BUCKETS];
                for b in counts.iter_mut() {
                    *b = u64::MAX - rng.gen_range(0u64..1024);
                }
                c.reg_deps = DepHistogram::from_counts(counts);
                c.mem_deps = DepHistogram::from_counts(counts);
            }
        }
        Fault::CorruptRegisterClasses => {
            for n in &mut p.nodes {
                let r = rng.gen_range(1usize..10);
                n.class_counts.rotate_left(r);
                // Inflate one class so the counts no longer sum to the
                // block size.
                let i = rng.gen_range(0usize..10);
                n.class_counts[i] = n.class_counts[i].saturating_add(7);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfclone_kernels::by_name;
    use perfclone_kernels::Scale;
    use perfclone_profile::profile_program;

    fn crc32_profile() -> WorkloadProfile {
        let build = by_name("crc32").expect("bundled kernel").build(Scale::Tiny);
        profile_program(&build.program, u64::MAX).expect("kernel profiles cleanly")
    }

    #[test]
    fn apply_is_deterministic() {
        let profile = crc32_profile();
        let plan = FaultPlan::new(0xFA_017)
            .with(Fault::UnnormalizedEdges)
            .with(Fault::CorruptRegisterClasses)
            .with(Fault::OutOfRangeDepDistances);
        let a = plan.apply(&profile);
        let b = plan.apply(&profile);
        assert_eq!(a.to_json().expect("json"), b.to_json().expect("json"));
    }

    #[test]
    fn truncate_nodes_breaks_structure() {
        let profile = crc32_profile();
        let bad = FaultPlan::single(1, Fault::TruncateNodes).apply(&profile);
        assert!(bad.check().is_err());
        assert!(Fault::TruncateNodes.breaks_structure());
    }

    #[test]
    fn value_faults_keep_structure() {
        let profile = crc32_profile();
        for f in [
            Fault::UnnormalizedEdges,
            Fault::ZeroStrideStreams,
            Fault::OutOfRangeDepDistances,
            Fault::CorruptRegisterClasses,
        ] {
            let bad = FaultPlan::single(2, f).apply(&profile);
            assert!(bad.check().is_ok(), "{} should stay structurally valid", f.label());
            assert!(!f.breaks_structure());
        }
    }

    #[test]
    fn zeroed_streams_collapse_footprint() {
        let profile = crc32_profile();
        let bad = FaultPlan::single(3, Fault::ZeroStrideStreams).apply(&profile);
        for s in &bad.streams {
            assert_eq!(s.dominant_stride, 0);
            assert_eq!(s.max_addr, s.min_addr);
        }
    }
}
