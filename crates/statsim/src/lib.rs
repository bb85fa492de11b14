//! # perfclone-statsim
//!
//! Statistical simulation — the technique the paper builds on (its §2:
//! Oskin et al., Eeckhout et al., Nussbaum et al.): generate a short
//! **synthetic trace** directly from a statistical workload profile and run
//! it through a timing simulator, with no program in between.
//!
//! Performance cloning and statistical simulation share the profile; they
//! differ in the artifact. A synthetic *trace* is cheap and useful for
//! culling a design space early (1 M instructions is typically enough), but
//! it cannot be compiled, shipped, or run on real hardware. The synthetic
//! *clone* (see `perfclone-synth`) is an executable program. This crate
//! provides the trace path so the repository covers both points of the
//! design space — and so the two can be compared (ablation A4 of the
//! `paper` bench).
//!
//! The generated trace is a stream of [`DynInstr`] records, directly
//! consumable by `perfclone_uarch::Pipeline::run`. Unlike interpreter
//! traces, statistical traces **cannot** be stored in a
//! `perfclone_sim::TraceStore`: the packed format resolves each record's
//! static [`Instr`] from its pc at replay time, but statsim shuffles every
//! block body per dynamic execution, so the same synthetic pc maps to
//! different instructions across visits. A caller that times one trace
//! under several configurations keeps the records and passes them to each
//! run, and the resident footprint is reported by the
//! `statsim.trace.bytes` gauge.
//!
//! # Example
//!
//! ```
//! use perfclone_profile::profile_program;
//! use perfclone_statsim::{synth_trace, TraceParams};
//! use perfclone_isa::{ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new("loop");
//! b.li(Reg::new(1), 0);
//! b.li(Reg::new(2), 500);
//! let top = b.label();
//! b.bind(top);
//! b.addi(Reg::new(1), Reg::new(1), 1);
//! b.blt(Reg::new(1), Reg::new(2), top);
//! b.halt();
//! let profile = profile_program(&b.build(), u64::MAX)?;
//!
//! let trace = synth_trace(&profile, &TraceParams { length: 10_000, seed: 7 })?;
//! assert_eq!(trace.len(), 10_000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::error::Error as StdError;
use std::fmt;

use perfclone_isa::{AluOp, Cond, FReg, FpOp, Instr, InstrClass, MemRef, MemWidth, Reg};
use perfclone_profile::{ProfileError, StreamProfile, WorkloadProfile};
use perfclone_sim::{DynInstr, MemAccess};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Errors surfaced by synthetic trace generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The profile failed structural validation
    /// ([`WorkloadProfile::check`]); generating from it would index out of
    /// bounds.
    InvalidProfile(ProfileError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidProfile(e) => {
                write!(f, "cannot generate a trace from profile: {e}")
            }
        }
    }
}

impl StdError for TraceError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            TraceError::InvalidProfile(e) => Some(e),
        }
    }
}

impl From<ProfileError> for TraceError {
    fn from(e: ProfileError) -> TraceError {
        TraceError::InvalidProfile(e)
    }
}

/// Parameters of synthetic trace generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceParams {
    /// Number of dynamic instructions to generate (statistical simulation
    /// practice: ~1 M).
    pub length: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceParams {
    fn default() -> TraceParams {
        TraceParams { length: 1_000_000, seed: 0x57A7 }
    }
}

/// Per-static-op stream walker state for address generation.
#[derive(Clone, Debug)]
struct Walker {
    base: u64,
    stride: i64,
    length: u64,
    pos: u64,
    width: u8,
    is_store: bool,
}

impl Walker {
    fn from_profile(s: &StreamProfile, base: u64) -> Walker {
        let stride = if s.dominant_stride != 0 { s.dominant_stride } else { 0 };
        let length = (s.mean_run_len.round() as u64).clamp(1, 1 << 20);
        Walker { base, stride, length, pos: 0, width: s.width.max(1), is_store: s.is_store }
    }

    fn next_addr(&mut self) -> u64 {
        let k = self.pos % self.length;
        self.pos += 1;
        (self.base as i64).wrapping_add(k as i64 * self.stride) as u64
    }
}

/// Generates a synthetic trace from the profile's statistical flow graph,
/// instruction mixes, stream statistics, and branch statistics.
///
/// The trace is *correct-path by construction*: every record carries a pc
/// (synthetic layout, one block after another), a branch outcome sampled
/// from the block's transition statistics, and an effective address from
/// the per-op stream walkers.
///
/// # Errors
///
/// Returns [`TraceError::InvalidProfile`] when the profile fails
/// structural validation ([`WorkloadProfile::check`]) — empty, dangling
/// cross-references, inconsistent counts.
pub fn synth_trace(
    profile: &WorkloadProfile,
    params: &TraceParams,
) -> Result<Vec<DynInstr>, TraceError> {
    let _span = perfclone_obs::span!("statsim.gen");
    // All indexing below (branches, mem_ops into walkers) relies on the
    // cross-references this validates.
    profile.check()?;
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Synthetic code layout: each node gets a pc range in discovery order.
    let mut pc_base = Vec::with_capacity(profile.nodes.len());
    let mut next_pc = 0u32;
    for n in &profile.nodes {
        pc_base.push(next_pc);
        next_pc += n.size.max(1);
    }

    // Address walkers per profiled static op; disjoint synthetic regions.
    let mut walkers: Vec<Walker> = Vec::with_capacity(profile.streams.len());
    let mut next_base = 0x4000_0000u64;
    for s in &profile.streams {
        let w = Walker::from_profile(s, next_base);
        next_base += (w.length * w.stride.unsigned_abs().max(1) + 4096) & !4095;
        walkers.push(w);
    }

    // Branch direction state per static branch: iteration-counter modulo
    // realization of the taken/transition rates.
    let mut branch_counters: Vec<u64> = profile.branches.iter().map(|_| 0).collect();

    let total_execs: f64 = profile.nodes.iter().map(|n| n.execs as f64).sum();
    let weights: Vec<f64> = profile.nodes.iter().map(|n| n.execs as f64 / total_execs).collect();

    let mut out = Vec::with_capacity(params.length as usize);
    let mut cur: Option<u32> = None;
    'outer: loop {
        let node_idx = match cur.take() {
            Some(n) => n,
            None => sample_weighted(&weights, &mut rng),
        };
        let node = &profile.nodes[node_idx as usize];
        let base = pc_base[node_idx as usize];

        // Expand the node's class counts into a body; the terminating
        // branch (if any) goes last.
        let mut counts = node.class_counts;
        let term_branch = if counts[InstrClass::Branch.index()] > 0 { node.branch } else { None };
        if term_branch.is_some() {
            counts[InstrClass::Branch.index()] -= 1;
        }
        let mut body: Vec<InstrClass> = Vec::with_capacity(node.size as usize);
        for class in InstrClass::ALL {
            for _ in 0..counts[class.index()] {
                body.push(class);
            }
        }
        for i in (1..body.len()).rev() {
            body.swap(i, rng.gen_range(0..=i));
        }

        let mut mem_idx = 0usize;
        for (slot, class) in body.iter().enumerate() {
            let pc = base + slot as u32;
            let (instr, mem) = synth_instr(*class, node, &mut mem_idx, &mut walkers, &mut rng);
            out.push(DynInstr { pc, instr, next_pc: pc + 1, taken: false, mem });
            if out.len() as u64 >= params.length {
                break 'outer;
            }
        }

        // Successor choice and the terminating control transfer.
        let succs = profile.successors(node_idx);
        let next_node = if succs.is_empty() {
            sample_weighted(&weights, &mut rng)
        } else {
            sample_succ(&succs, &mut rng)
        };
        let next_node_pc = pc_base[next_node as usize];
        let term_pc = base + body.len() as u32;
        if let Some(bi) = term_branch {
            let bidx = bi as usize;
            let stats = &profile.branches[bidx];
            let taken = realize_direction(stats, &mut branch_counters[bidx], &mut rng);
            let next = if taken { next_node_pc } else { term_pc + 1 };
            // Fall-through also proceeds to the successor in SFG terms; the
            // pc fiction only matters to the I-cache and predictor.
            out.push(DynInstr {
                pc: term_pc,
                instr: Instr::Branch {
                    cond: Cond::Eq,
                    rs1: Reg::ZERO,
                    rs2: Reg::ZERO,
                    target: next_node_pc,
                },
                next_pc: next,
                taken,
                mem: None,
            });
        } else {
            out.push(DynInstr {
                pc: term_pc,
                instr: Instr::Jump { target: next_node_pc },
                next_pc: next_node_pc,
                taken: false,
                mem: None,
            });
        }
        if out.len() as u64 >= params.length {
            break;
        }
        cur = Some(next_node);
    }
    out.truncate(params.length as usize);
    perfclone_obs::count!("statsim.traces", 1);
    perfclone_obs::count!("statsim.instrs", out.len() as u64);
    // Statistical traces stay as full `DynInstr` records: the block bodies
    // are RNG-shuffled per dynamic execution, so the same pc maps to
    // different instructions across visits and the pc→instr indirection a
    // `TraceStore` (and the flat pc-indexed `InstrMetaTable` the batched
    // replay interns) relies on does not hold. These records still share
    // the interned static resolution: the pipeline's iterator front end
    // derives the same `InstrMeta::of` per record that the batched path
    // reads from the table, so both feeds are bit-identical currencies.
    // Nothing stores them for replay; this gauge makes the resident cost
    // visible next to `trace.bytes` in run reports.
    perfclone_obs::gauge!(
        "statsim.trace.bytes",
        (out.len() * core::mem::size_of::<DynInstr>()) as u64
    );
    Ok(out)
}

fn sample_weighted(weights: &[f64], rng: &mut StdRng) -> u32 {
    let mut x = rng.gen::<f64>();
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i as u32;
        }
    }
    weights.len() as u32 - 1
}

fn sample_succ(succs: &[(u32, f64)], rng: &mut StdRng) -> u32 {
    let mut x = rng.gen::<f64>();
    for (to, p) in succs {
        x -= p;
        if x <= 0.0 {
            return *to;
        }
    }
    // Callers only reach here with a non-empty successor list; node 0 is
    // the harmless reseed target should that ever change.
    succs.last().map(|s| s.0).unwrap_or(0)
}

/// Realizes a branch direction from taken/transition statistics with a
/// per-branch execution counter (periodic for structured sequences, random
/// for patternless ones).
fn realize_direction(
    stats: &perfclone_profile::BranchProfile,
    counter: &mut u64,
    rng: &mut StdRng,
) -> bool {
    let t = stats.taken_rate();
    let r = stats.transition_rate();
    let k = *counter;
    *counter += 1;
    if r <= 0.05 {
        return t >= 0.5;
    }
    if stats.predictability() < 0.8 {
        return rng.gen::<f64>() < t;
    }
    let p = (2.0 / r).round().clamp(2.0, 64.0) as u64;
    let t_run = ((t * p as f64).round() as u64).clamp(1, p - 1);
    (k % p) < t_run
}

fn width_of(w: u8) -> MemWidth {
    match w {
        1 => MemWidth::B1,
        4 => MemWidth::B4,
        _ => MemWidth::B8,
    }
}

/// Synthesizes one non-control instruction record of the given class.
fn synth_instr(
    class: InstrClass,
    node: &perfclone_profile::BlockProfile,
    mem_idx: &mut usize,
    walkers: &mut [Walker],
    rng: &mut StdRng,
) -> (Instr, Option<MemAccess>) {
    // Registers rotate through a small pool; the trace consumer only looks
    // at defs/uses for dependence tracking, so rotation approximates the
    // profiled dependency distances at pool-size granularity.
    let rd = Reg::new(6 + (rng.gen::<u8>() % 20));
    let rs1 = Reg::new(6 + (rng.gen::<u8>() % 20));
    let rs2 = Reg::new(6 + (rng.gen::<u8>() % 20));
    let fd = FReg::new(rng.gen::<u8>() % 30);
    let fs1 = FReg::new(rng.gen::<u8>() % 30);
    let fs2 = FReg::new(rng.gen::<u8>() % 30);
    match class {
        InstrClass::IntAlu | InstrClass::Branch | InstrClass::Jump => {
            (Instr::Alu { op: AluOp::Add, rd, rs1, rs2 }, None)
        }
        InstrClass::IntMul => (Instr::Mul { rd, rs1, rs2 }, None),
        InstrClass::IntDiv => (Instr::Div { rd, rs1, rs2 }, None),
        InstrClass::FpAlu => (Instr::Fp { op: FpOp::Add, fd, fs1, fs2 }, None),
        InstrClass::FpMul => (Instr::Fp { op: FpOp::Mul, fd, fs1, fs2 }, None),
        InstrClass::FpDiv => (Instr::Fp { op: FpOp::Div, fd, fs1, fs2 }, None),
        InstrClass::Load | InstrClass::Store => {
            let fallback_needed = node.mem_ops.is_empty();
            let (addr, width, is_store) = if fallback_needed {
                (0x7000_0000, MemWidth::B8, class == InstrClass::Store)
            } else {
                let sid = node.mem_ops[*mem_idx % node.mem_ops.len()] as usize;
                *mem_idx += 1;
                let w = &mut walkers[sid];
                (w.next_addr(), width_of(w.width), w.is_store)
            };
            let mem = MemRef::Base { base: Reg::new(5), offset: 0 };
            let instr = if is_store || class == InstrClass::Store {
                Instr::Store { rs: rs1, mem, width }
            } else {
                Instr::Load { rd, mem, width }
            };
            (
                instr,
                Some(MemAccess {
                    addr,
                    bytes: width.bytes() as u8,
                    is_store: is_store || class == InstrClass::Store,
                }),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfclone_kernels::{by_name, Scale};
    use perfclone_profile::profile_program;
    use perfclone_sim::Simulator;
    use perfclone_uarch::{base_config, Pipeline};

    fn profile_of(name: &str) -> WorkloadProfile {
        let p = by_name(name).expect("kernel exists").build(Scale::Tiny).program;
        profile_program(&p, u64::MAX).expect("kernel profiles cleanly")
    }

    #[test]
    fn trace_has_requested_length_and_mix() {
        let profile = profile_of("crc32");
        let trace = synth_trace(&profile, &TraceParams { length: 50_000, seed: 1 }).unwrap();
        assert_eq!(trace.len(), 50_000);
        let loads = trace.iter().filter(|d| d.instr.class() == InstrClass::Load).count() as f64;
        let expected = profile.global_mix()[InstrClass::Load.index()];
        assert!(
            (loads / 50_000.0 - expected).abs() < 0.05,
            "load mix {} vs {}",
            loads / 50_000.0,
            expected
        );
    }

    #[test]
    fn trace_runs_through_the_pipeline() {
        let profile = profile_of("susan");
        let trace = synth_trace(&profile, &TraceParams { length: 30_000, seed: 2 }).unwrap();
        let report = Pipeline::new(base_config()).run(trace);
        assert_eq!(report.instrs, 30_000);
        assert!(report.ipc() > 0.1 && report.ipc() <= 1.0);
    }

    #[test]
    fn trace_ipc_approximates_program_ipc() {
        let name = "adpcm_dec";
        let program = by_name(name).expect("kernel exists").build(Scale::Tiny).program;
        let profile = profile_program(&program, u64::MAX).unwrap();
        let real = Pipeline::new(base_config()).run(Simulator::trace(&program, u64::MAX));
        let trace = synth_trace(&profile, &TraceParams { length: 100_000, seed: 3 }).unwrap();
        let synth = Pipeline::new(base_config()).run(trace);
        let err = (synth.ipc() - real.ipc()).abs() / real.ipc();
        assert!(err < 0.35, "statsim IPC err {err:.3} (real {} synth {})", real.ipc(), synth.ipc());
    }

    #[test]
    fn trace_is_deterministic() {
        let profile = profile_of("bitcount");
        let a = synth_trace(&profile, &TraceParams { length: 5_000, seed: 9 }).unwrap();
        let b = synth_trace(&profile, &TraceParams { length: 5_000, seed: 9 }).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupted_profile_yields_typed_error() {
        let mut profile = profile_of("crc32");
        profile.nodes.truncate(1);
        let err = synth_trace(&profile, &TraceParams::default()).unwrap_err();
        assert!(matches!(err, TraceError::InvalidProfile(_)), "got {err:?}");

        profile.nodes.clear();
        profile.edges.clear();
        profile.contexts.clear();
        let err = synth_trace(&profile, &TraceParams::default()).unwrap_err();
        assert!(matches!(err, TraceError::InvalidProfile(ProfileError::Empty { .. })));
    }

    #[test]
    fn branch_outcomes_follow_taken_rate() {
        let profile = profile_of("crc32");
        let trace = synth_trace(&profile, &TraceParams { length: 80_000, seed: 4 }).unwrap();
        let (mut taken, mut total) = (0u64, 0u64);
        for d in &trace {
            if d.instr.is_cond_branch() {
                total += 1;
                taken += u64::from(d.taken);
            }
        }
        let t_trace = taken as f64 / total as f64;
        let t_prof: f64 = {
            let e: u64 = profile.branches.iter().map(|b| b.execs).sum();
            let t: u64 = profile.branches.iter().map(|b| b.taken).sum();
            t as f64 / e as f64
        };
        assert!((t_trace - t_prof).abs() < 0.1, "taken {t_trace:.3} vs {t_prof:.3}");
    }
}
