//! Clone generation (paper §3.2 steps 2-5, 10-12).

use std::collections::{HashMap, VecDeque};

use perfclone_isa::{AluOp, FReg, Instr, MemWidth, Program, ProgramBuilder, Reg, StreamDesc};
use perfclone_profile::{BranchProfile, DepHistogram, StreamProfile, WorkloadProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::walk::walk_sfg;
use crate::{BranchModel, MemoryModel, SynthError, SynthesisParams};

/// Loop iteration counter.
const ITER: Reg = Reg::new(1);
/// Branch-realization scratch registers.
const TMP: Reg = Reg::new(2);
const TP: Reg = Reg::new(3);
const TT: Reg = Reg::new(4);
/// Loop bound.
const BOUND: Reg = Reg::new(5);
/// Per-iteration random value (splitmix64 of the iteration counter), the
/// entropy source for unpredictable branch realizations.
const RAND: Reg = Reg::new(30);
/// Rotating integer destination pool (paper step 10's register assignment).
const INT_POOL: [Reg; 24] = {
    let mut pool = [Reg::ZERO; 24];
    let mut i = 0;
    while i < 24 {
        pool[i] = Reg::new(6 + i as u8);
        i += 1;
    }
    pool
};
/// Rotating FP destination pool.
const FP_POOL: [FReg; 30] = {
    let mut pool = [FReg::new(0); 30];
    let mut i = 0;
    while i < 30 {
        pool[i] = FReg::new(i as u8);
        i += 1;
    }
    pool
};

/// Maximum per-stream footprint (bytes); streams longer than this are
/// truncated to bound the clone's data segment.
const MAX_STREAM_FOOTPRINT: u64 = 4 << 20;
/// Maximum stream length in accesses.
const MAX_STREAM_LEN: u32 = 1 << 20;

/// Register-assignment state: the most recent producers per type, capped
/// at the pool size so entries are exactly the live registers.
struct Assigner {
    recent_int: VecDeque<(u64, Reg)>,
    recent_fp: VecDeque<(u64, FReg)>,
    int_rr: usize,
    fp_rr: usize,
    pos: u64,
}

impl Assigner {
    fn new() -> Assigner {
        let mut a = Assigner {
            recent_int: VecDeque::new(),
            recent_fp: VecDeque::new(),
            int_rr: 0,
            fp_rr: 0,
            pos: 0,
        };
        // The prologue initializes every pool register; seed the live sets.
        for &r in &INT_POOL {
            a.recent_int.push_back((0, r));
        }
        for &f in &FP_POOL {
            a.recent_fp.push_back((0, f));
        }
        a
    }

    fn next_int_dest(&mut self) -> Reg {
        let r = INT_POOL[self.int_rr % INT_POOL.len()];
        self.int_rr += 1;
        self.recent_int.push_back((self.pos, r));
        while self.recent_int.len() > INT_POOL.len() {
            self.recent_int.pop_front();
        }
        r
    }

    fn next_fp_dest(&mut self) -> FReg {
        let f = FP_POOL[self.fp_rr % FP_POOL.len()];
        self.fp_rr += 1;
        self.recent_fp.push_back((self.pos, f));
        while self.recent_fp.len() > FP_POOL.len() {
            self.recent_fp.pop_front();
        }
        f
    }

    /// Picks the live integer register whose producer position is closest
    /// to `pos - distance` — realizing the sampled dependency distance as
    /// faithfully as the live window allows (step 10).
    fn int_source(&self, distance: u64) -> Reg {
        let desired = self.pos.saturating_sub(distance);
        self.recent_int
            .iter()
            .min_by_key(|(p, _)| p.abs_diff(desired))
            .map(|&(_, r)| r)
            .unwrap_or(INT_POOL[0])
    }

    fn fp_source(&self, distance: u64) -> FReg {
        let desired = self.pos.saturating_sub(distance);
        self.recent_fp
            .iter()
            .min_by_key(|(p, _)| p.abs_diff(desired))
            .map(|&(_, f)| f)
            .unwrap_or(FP_POOL[0])
    }
}

/// Samples a dependency distance from a histogram (bucket by probability,
/// then the bucket's representative distance).
fn sample_distance(hist: &DepHistogram, rng: &mut StdRng) -> u64 {
    let total = hist.total();
    if total == 0 {
        return 1;
    }
    let mut x = rng.gen_range(0..total);
    for (i, &c) in hist.counts().iter().enumerate() {
        if x < c {
            return DepHistogram::representative(i);
        }
        x -= c;
    }
    DepHistogram::representative(hist.counts().len() - 1)
}

fn width_of(w: u8) -> MemWidth {
    match w {
        1 => MemWidth::B1,
        4 => MemWidth::B4,
        _ => MemWidth::B8,
    }
}

/// Returns `true` when a profiled static op is well represented by its
/// single dominant stride (the paper's Figure-3 test, per op).
fn regular(s: &StreamProfile) -> bool {
    if s.execs < 8 {
        return true;
    }
    s.dominant_count as f64 / (s.execs - 1).max(1) as f64 >= 0.5
}

/// Builds the clone's stream table from the profile's per-static-op stride
/// statistics (steps 4 and 11).
///
/// Streams are keyed by the *original* static instruction, so the clone
/// needs exactly as many unique streams as the profile reports — the
/// paper's "unique streams" count (its explanation for the ghostscript
/// outlier: 66 streams vs an average of 18). Two refinements keep the
/// model microarchitecture-independent while preserving working-set size:
///
/// * static ops whose observed address footprints **overlap** touched the
///   same data object in the original; their clone streams are laid into
///   one shared region with their intra-object offsets preserved, so the
///   clone's aggregate footprint matches the original's instead of
///   multiplying per static op;
/// * an op whose dominant stride covers < 50 % of its references (a
///   data-dependent table lookup, say) gets a **weak-stride fallback**: a
///   sub-line-stride walk over the whole shared region, approximating the
///   irregular reuse the single-stride model cannot express. Fallback ops
///   of one region share a walker.
fn plan_streams(b: &mut ProgramBuilder, profile: &WorkloadProfile) -> Vec<perfclone_isa::StreamId> {
    // Group ops by overlapping [min_addr, max_addr] footprints.
    let mut order: Vec<usize> = (0..profile.streams.len()).collect();
    order.sort_by_key(|&i| profile.streams[i].min_addr);
    let mut groups: Vec<(u64, u64, Vec<usize>)> = Vec::new();
    for &i in &order {
        let s = &profile.streams[i];
        // Closed intervals; adjacency (one object ending exactly where the
        // next begins) is NOT overlap — merging adjacent objects would
        // wildly inflate the footprint irregular ops walk.
        let (lo, hi) = (s.min_addr, s.max_addr);
        match groups.last_mut() {
            Some((_, gmax, members)) if lo < *gmax => {
                *gmax = (*gmax).max(hi);
                members.push(i);
            }
            _ => groups.push((lo, hi, vec![i])),
        }
    }

    // Mirror the original data segment: one allocation spanning every
    // stream footprint, with each object at its original offset. Relative
    // placement and alignment determine conflict behaviour, and both are
    // properties of the program's address space, not of any cache.
    let global_min = profile.streams.iter().map(|s| s.min_addr).min().unwrap_or(0);
    let global_max = profile.streams.iter().map(|s| s.max_addr).max().unwrap_or(0);
    let cluster_span = (global_max - global_min + 64).min(16 << 20);
    let raw = b.alloc(cluster_span + 8192);
    let cluster_base = raw + (global_min.wrapping_sub(raw) & 4095);

    let mut plan: Vec<Option<perfclone_isa::StreamId>> = vec![None; profile.streams.len()];
    let mut regular_ops = 0u64;
    let mut fallback_ops = 0u64;
    for (gmin, gmax, members) in groups {
        let gspan = (gmax - gmin + 8).clamp(8, MAX_STREAM_FOOTPRINT);
        let gbase = cluster_base + (gmin - global_min).min(cluster_span - 1);
        let mut fallback_walker: Option<perfclone_isa::StreamId> = None;
        // Streaming members of one group walked the same object in the
        // original; they share one open-ended region (offsets preserved)
        // so their walks share cache lines exactly as the originals did.
        let mut streaming_base: Option<u64> = None;
        for i in members {
            let s = &profile.streams[i];
            let is_regular = regular(s);
            if is_regular {
                regular_ops += 1;
            } else {
                fallback_ops += 1;
            }
            let id = if is_regular {
                let stride = s.dominant_stride;
                let unit = stride.unsigned_abs().max(1);
                // Stream length controls the wrap point and therefore the
                // op's temporal-reuse distance. Run-boundary jumps tell the
                // two cases apart: mostly-forward breaks mean the op keeps
                // progressing through its object (wrap at the whole
                // footprint); mostly-backward breaks mean it returns to
                // re-walk a region of roughly (mean back jump + one run).
                let op_span = s.max_addr - s.min_addr + u64::from(s.width);
                let run = s.mean_run_len.round().max(1.0) as u64;
                // How many times did the original op lap its footprint?
                let laps = (s.execs.saturating_mul(unit)) / op_span.max(1);
                let wrap_bytes = if s.back_breaks > s.fwd_breaks {
                    // Returning op: reuse region = mean back jump + one run.
                    (s.mean_back_jump as u64).saturating_add(run * unit).min(op_span.max(1))
                } else if laps < 2 {
                    // Single-pass streaming op: it never revisited its
                    // data, so the clone must not either — let the walk
                    // run to the footprint cap instead of wrapping.
                    MAX_STREAM_FOOTPRINT
                } else {
                    op_span.max(run * unit)
                };
                let streaming = s.back_breaks <= s.fwd_breaks && laps < 2;
                let mut length = (wrap_bytes / unit)
                    .max(run)
                    .max(1)
                    .min(MAX_STREAM_FOOTPRINT / unit)
                    .min(u64::from(MAX_STREAM_LEN)) as u32;
                let base = if streaming {
                    // A streaming walk must be free to run past the
                    // original footprint (the clone re-executes the op
                    // more often than the original did); the group's
                    // shared streaming region keeps it off the mirrored
                    // cluster while preserving intra-object offsets and
                    // the original alignment.
                    let sbase = *streaming_base.get_or_insert_with(|| {
                        let raw = b.alloc(MAX_STREAM_FOOTPRINT + 8192);
                        raw + (gmin.wrapping_sub(raw) & 4095)
                    });
                    sbase + (s.min_addr - gmin).min(MAX_STREAM_FOOTPRINT - 1)
                } else {
                    // Keep the walk inside the shared region, at the op's
                    // own offset within it.
                    let offset = (s.min_addr - gmin).min(gspan - 1);
                    let avail = gspan - offset;
                    length = length.min((avail / unit).max(1) as u32).max(1);
                    if stride >= 0 {
                        gbase + offset
                    } else {
                        gbase + offset + u64::from(length - 1) * unit
                    }
                };
                b.stream(StreamDesc { base, stride, length })
            } else {
                *fallback_walker.get_or_insert_with(|| {
                    let stride = 16i64;
                    let length = (gspan / 16).clamp(1, u64::from(MAX_STREAM_LEN)) as u32;
                    b.stream(StreamDesc { base: gbase, stride, length })
                })
            };
            plan[i] = Some(id);
        }
    }
    perfclone_obs::count!("synth.streams.regular", regular_ops);
    perfclone_obs::count!("synth.streams.fallback", fallback_ops);
    // The grouping above covers every stream index; the degenerate
    // single-slot stream is the harmless total fallback should that
    // invariant ever break.
    plan.into_iter()
        .map(|p| p.unwrap_or_else(|| b.stream(StreamDesc { base: 0x1000, stride: 0, length: 1 })))
        .collect()
}

/// Generates the synthetic benchmark clone from a workload profile —
/// the paper's §3.2 algorithm.
///
/// # Errors
///
/// Returns [`SynthError::InvalidProfile`] when the profile fails structural
/// validation ([`WorkloadProfile::check`]) — empty, dangling
/// cross-references, inconsistent counts — and
/// [`SynthError::WalkBudgetExhausted`] if the SFG walk outruns its
/// instance budget.
pub fn synthesize(
    profile: &WorkloadProfile,
    params: &SynthesisParams,
) -> Result<Program, SynthError> {
    let _span = perfclone_obs::span!("synth.gen");
    // All indexing below (streams, branches, nodes) relies on the
    // cross-references this validates.
    profile.check()?;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let (target_blocks, body_budget) = if params.target_blocks == 0 {
        // Static-footprint parity: the clone's body should occupy about as
        // much instruction memory as the original program (a program
        // property), with a floor for statistical coverage of tiny loops.
        // Dynamic blocks overlap (shared suffixes), so the extent of the
        // profiled pc range estimates the original size, not the sum of
        // block sizes.
        let extent: u32 = profile
            .nodes
            .iter()
            .map(|n| n.start_pc + n.size)
            .max()
            .unwrap_or(0)
            .saturating_sub(profile.nodes.iter().map(|n| n.start_pc).min().unwrap_or(0));
        (
            (profile.nodes.len() as u32 * 4).clamp(24, 400),
            (extent + 2 * profile.nodes.len() as u32).max(300),
        )
    } else {
        (params.target_blocks, u32::MAX)
    };
    let instances = walk_sfg(profile, target_blocks, body_budget, &mut rng)?;

    // Context-sensitive dependency lookup (§3.1.1): per (pred, node),
    // falling back to per-node merged statistics.
    let mut ctx_map: HashMap<(u32, u32), (DepHistogram, DepHistogram)> = HashMap::new();
    let mut node_merged: HashMap<u32, (DepHistogram, DepHistogram)> = HashMap::new();
    for c in &profile.contexts {
        ctx_map.insert((c.pred, c.node), (c.reg_deps, c.mem_deps));
        let e = node_merged.entry(c.node).or_default();
        e.0.merge(&c.reg_deps);
        e.1.merge(&c.mem_deps);
    }
    let deps_for = |pred: u32, node: u32| -> DepHistogram {
        if params.context_sensitive {
            if let Some((reg, _)) = ctx_map.get(&(pred, node)) {
                return *reg;
            }
        }
        node_merged.get(&node).map(|(reg, _)| *reg).unwrap_or_default()
    };

    let mut b = ProgramBuilder::new(format!("{}-clone", profile.name));

    // ---- prologue: initialize pools, loop counter (steps 10, 11) -------
    for (i, &r) in INT_POOL.iter().enumerate() {
        b.li(r, (i as i64 + 1) * 3 + 1);
    }
    for (i, &f) in FP_POOL.iter().enumerate() {
        b.fli(f, 1.0 + i as f64 * 0.0625);
    }
    b.li(ITER, 0);
    // Loop bound patched below once the body length is known.
    let bound_patch_at = b.here();
    b.li(BOUND, 1);

    let top = b.label();
    b.bind(top);

    // Per-iteration entropy: RAND = splitmix64(ITER). Quasi-periodic
    // iteration hashes are learnable by history predictors; a full mixer
    // is not.
    b.li(TP, 0x9E37_79B9_7F4A_7C15u64 as i64);
    b.mul(TMP, ITER, TP);
    b.srli(TT, TMP, 30);
    b.xor(TMP, TMP, TT);
    b.li(TP, 0xBF58_476D_1CE4_E5B9u64 as i64);
    b.mul(TMP, TMP, TP);
    b.srli(TT, TMP, 27);
    b.xor(TMP, TMP, TT);
    b.li(TP, 0x94D0_49BB_1331_11EBu64 as i64);
    b.mul(TMP, TMP, TP);
    b.srli(TT, TMP, 31);
    b.xor(RAND, TMP, TT);

    // Per-instance labels; the terminator of instance i targets label i+1,
    // the last one targets the loop tail.
    let labels: Vec<_> = (0..instances.len() + 1).map(|_| b.label()).collect();
    let body_start = b.here();

    let mut asg = Assigner::new();
    let alu_ops = [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Or, AluOp::And];
    let mut alu_rr = 0usize;
    let mut fp_toggle = false;
    let stream_plan = plan_streams(&mut b, profile);

    for (idx, inst) in instances.iter().enumerate() {
        b.bind(labels[idx]);
        let node = &profile.nodes[inst.node as usize];
        let reg_deps = deps_for(inst.pred, inst.node);

        // ---- step 2: populate the block per its instruction mix --------
        let mut counts = node.class_counts;
        let branch_stats: Option<&BranchProfile> =
            node.branch.map(|bi| &profile.branches[bi as usize]);
        let has_branch_term =
            branch_stats.is_some() && counts[perfclone_isa::InstrClass::Branch.index()] > 0;
        if has_branch_term {
            counts[perfclone_isa::InstrClass::Branch.index()] -= 1;
        }
        let has_jump_term = !has_branch_term && counts[perfclone_isa::InstrClass::Jump.index()] > 0;
        if has_jump_term {
            counts[perfclone_isa::InstrClass::Jump.index()] -= 1;
        }

        // Expand the class multiset and shuffle it (mix-preserving order).
        let mut body: Vec<perfclone_isa::InstrClass> = Vec::new();
        for class in perfclone_isa::InstrClass::ALL {
            for _ in 0..counts[class.index()] {
                body.push(class);
            }
        }
        for i in (1..body.len()).rev() {
            body.swap(i, rng.gen_range(0..=i));
        }

        // ---- steps 3, 4: emit instructions with deps and streams -------
        let mut mem_idx = 0usize;
        for class in body {
            use perfclone_isa::InstrClass as C;
            match class {
                C::IntAlu | C::Branch | C::Jump => {
                    // Extra control-class counts inside a body (possible
                    // only for truncated tail blocks) degrade to ALU ops.
                    let op = alu_ops[alu_rr % alu_ops.len()];
                    alu_rr += 1;
                    let rs1 = asg.int_source(sample_distance(&reg_deps, &mut rng));
                    let rs2 = asg.int_source(sample_distance(&reg_deps, &mut rng));
                    let rd = asg.next_int_dest();
                    b.emit(Instr::Alu { op, rd, rs1, rs2 });
                }
                C::IntMul => {
                    let rs1 = asg.int_source(sample_distance(&reg_deps, &mut rng));
                    let rs2 = asg.int_source(sample_distance(&reg_deps, &mut rng));
                    let rd = asg.next_int_dest();
                    b.emit(Instr::Mul { rd, rs1, rs2 });
                }
                C::IntDiv => {
                    let rs1 = asg.int_source(sample_distance(&reg_deps, &mut rng));
                    let rs2 = asg.int_source(sample_distance(&reg_deps, &mut rng));
                    let rd = asg.next_int_dest();
                    b.emit(Instr::Div { rd, rs1, rs2 });
                }
                C::FpAlu => {
                    let fs1 = asg.fp_source(sample_distance(&reg_deps, &mut rng));
                    let fs2 = asg.fp_source(sample_distance(&reg_deps, &mut rng));
                    let fd = asg.next_fp_dest();
                    let op =
                        if fp_toggle { perfclone_isa::FpOp::Add } else { perfclone_isa::FpOp::Sub };
                    fp_toggle = !fp_toggle;
                    b.emit(Instr::Fp { op, fd, fs1, fs2 });
                }
                C::FpMul => {
                    let fs1 = asg.fp_source(sample_distance(&reg_deps, &mut rng));
                    let fs2 = asg.fp_source(sample_distance(&reg_deps, &mut rng));
                    let fd = asg.next_fp_dest();
                    b.emit(Instr::Fp { op: perfclone_isa::FpOp::Mul, fd, fs1, fs2 });
                }
                C::FpDiv => {
                    let fs1 = asg.fp_source(sample_distance(&reg_deps, &mut rng));
                    let fs2 = asg.fp_source(sample_distance(&reg_deps, &mut rng));
                    let fd = asg.next_fp_dest();
                    b.emit(Instr::Fp { op: perfclone_isa::FpOp::Div, fd, fs1, fs2 });
                }
                C::Load | C::Store => {
                    let sp_idx = node.mem_ops.get(mem_idx % node.mem_ops.len().max(1)).copied();
                    let sp = sp_idx.map(|i| (i, &profile.streams[i as usize]));
                    mem_idx += 1;
                    let (id, width) = match (params.memory_model, sp) {
                        (MemoryModel::StrideStreams, Some((i, s))) => {
                            (stream_plan[i as usize], width_of(s.width))
                        }
                        (MemoryModel::StrideStreams, None) => (b.stream_alloc(8, 64), MemWidth::B8),
                        (MemoryModel::MissRateTarget { miss_rate, line_bytes }, s) => {
                            let width = s.map(|(_, s)| width_of(s.width)).unwrap_or(MemWidth::B8);
                            if rng.gen::<f64>() < miss_rate {
                                // Streaming region: a new line every access.
                                (b.stream_alloc(i64::from(line_bytes), MAX_STREAM_LEN), width)
                            } else {
                                // Hot slot: always the same line.
                                (
                                    b.stream(StreamDesc {
                                        base: 0x2000_0000,
                                        stride: 0,
                                        length: 1,
                                    }),
                                    width,
                                )
                            }
                        }
                    };
                    if class == C::Load {
                        let rd = asg.next_int_dest();
                        b.ld_stream(rd, id, width);
                    } else {
                        let rs = asg.int_source(sample_distance(&reg_deps, &mut rng));
                        b.sd_stream(rs, id, width);
                    }
                }
            }
            asg.pos += 1;
        }

        // ---- step 5: terminator realizing the branch statistics --------
        let next = labels[idx + 1];
        match branch_stats {
            Some(stats) if has_branch_term => {
                emit_branch(&mut b, &mut asg, stats, params.branch_model, next, &mut rng);
            }
            _ => {
                b.j(next);
                asg.pos += 1;
            }
        }
    }
    b.bind(labels[instances.len()]);

    // ---- step 11: the big loop --------------------------------------
    let body_len = (b.here() - body_start) as u64 + 2;
    b.addi(ITER, ITER, 1);
    b.blt(ITER, BOUND, top);
    b.halt();

    let iterations = (params.target_dynamic / body_len.max(1)).max(1);
    let mut program = b.build();
    patch_bound(&mut program, bound_patch_at, iterations as i64);
    perfclone_obs::count!("synth.clones", 1);
    perfclone_obs::count!("synth.instances", instances.len() as u64);
    perfclone_obs::gauge!("synth.target_dynamic", params.target_dynamic);
    perfclone_obs::record!("synth.static_instrs", program.instrs().len() as u64);
    Ok(program)
}

/// Realizes one conditional branch's direction statistics (step 5).
fn emit_branch(
    b: &mut ProgramBuilder,
    asg: &mut Assigner,
    stats: &BranchProfile,
    model: BranchModel,
    next: perfclone_isa::Label,
    rng: &mut StdRng,
) {
    let t = stats.taken_rate();
    let r = stats.transition_rate();
    match model {
        BranchModel::TransitionRate => {
            if r <= 0.05 {
                // Strongly biased: a statically-resolvable compare.
                if t >= 0.5 {
                    b.bge(Reg::ZERO, Reg::ZERO, next); // always taken
                } else {
                    b.bne(Reg::ZERO, Reg::ZERO, next); // never taken
                }
                asg.pos += 1;
            } else if blend_random(stats, rng) {
                // The direction sequence carries less structure than a
                // periodic pattern would: realize this instance as a
                // pseudo-random sequence with the right taken rate. The
                // blend fraction across instances matches the measured
                // predictability (see `blend_random`).
                emit_hash_branch(b, asg, t, next, rng);
            } else if r >= 0.95 {
                // Alternating every iteration.
                b.andi(TMP, ITER, 1);
                b.beq(TMP, Reg::ZERO, next);
                asg.pos += 2;
            } else {
                // Periodic pattern: taken for the first T of every P
                // iterations -> transition rate 2/P, taken rate T/P. P is
                // rounded to a power of two so the modulo is a single AND —
                // the paper's shift-based modulo mechanism (step 5).
                let p = 1i64 << ((2.0 / r).round().clamp(2.0, 64.0) as u64).ilog2();
                let t_run = ((t * p as f64).round() as i64).clamp(1, p - 1);
                let phase = rng.gen_range(0..p) as i32;
                b.addi(TMP, ITER, phase);
                b.andi(TMP, TMP, (p - 1) as i32);
                b.li(TT, t_run);
                b.blt(TMP, TT, next);
                asg.pos += 4;
            }
        }
        BranchModel::TakenRateOnly => {
            // Prior-work baseline: match the taken rate with a pseudo-
            // random (hash-of-iteration) sequence - right bias, none of
            // the sequence predictability.
            emit_hash_branch(b, asg, t, next, rng);
        }
    }
}

/// Decides whether this instance of a branch should get the pseudo-random
/// realization. The fraction of random instances is chosen so the clone's
/// aggregate misprediction difficulty matches the branch's measured
/// global-history predictability: a periodic pattern costs roughly
/// `0.75 * transition_rate`, a patternless sequence `2 t (1 - t)`, and the
/// target is `1 - predictability`.
fn blend_random(stats: &BranchProfile, rng: &mut StdRng) -> bool {
    let t = stats.taken_rate();
    let r = stats.transition_rate();
    let target = (1.0 - stats.predictability()).max(0.0);
    let mr_periodic = 0.75 * r.min(0.5);
    let mr_random = 2.0 * t * (1.0 - t);
    if mr_random <= mr_periodic + 1e-9 {
        return false;
    }
    let f = ((target - mr_periodic) / (mr_random - mr_periodic)).clamp(0.0, 1.0);
    rng.gen::<f64>() < f
}

/// Emits a branch taken with probability `t` on a pseudo-random
/// (hash-of-iteration) schedule.
fn emit_hash_branch(
    b: &mut ProgramBuilder,
    asg: &mut Assigner,
    t: f64,
    next: perfclone_isa::Label,
    rng: &mut StdRng,
) {
    // Derive this branch's predicate from the shared per-iteration random
    // value with a private odd multiplier, so branches are mutually
    // decorrelated and the sequence is patternless to any history
    // predictor.
    let mult = (rng.gen::<u64>() | 1) as i64;
    let t_scaled = (t * 1024.0).round() as i64;
    b.li(TP, mult);
    b.mul(TMP, RAND, TP);
    b.srli(TMP, TMP, 40);
    b.andi(TMP, TMP, 1023);
    b.li(TT, t_scaled);
    b.blt(TMP, TT, next);
    asg.pos += 6;
}

/// Replaces the placeholder loop bound with the computed trip count.
fn patch_bound(program: &mut Program, at: u32, iterations: i64) {
    // Program is immutable by design; rebuild the single instruction via
    // the public API would be heavy, so the builder leaves `li BOUND, 1`
    // and we swap the instruction here through a crate-internal hook.
    program.patch_instr(at, Instr::Li { rd: BOUND, imm: iterations });
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfclone_profile::profile_program;
    use perfclone_sim::Simulator;

    fn original_program() -> Program {
        // A loop with a load stream, a store stream, FP work, and a
        // biased branch plus an alternating branch.
        let mut b = ProgramBuilder::new("orig");
        let ld_id = b.stream(StreamDesc { base: 0x8000, stride: 16, length: 512 });
        let st_id = b.stream(StreamDesc { base: 0x20000, stride: 8, length: 256 });
        let (i, n, t) = (Reg::new(1), Reg::new(2), Reg::new(3));
        let f0 = FReg::new(0);
        let f1 = FReg::new(1);
        b.li(i, 0);
        b.li(n, 3000);
        b.fli(f0, 1.5);
        b.fli(f1, 0.5);
        let top = b.label();
        let skip = b.label();
        b.bind(top);
        b.ld_stream(Reg::new(4), ld_id, MemWidth::B8);
        b.add(Reg::new(5), Reg::new(4), i);
        b.fmul(f0, f0, f1);
        b.sd_stream(Reg::new(5), st_id, MemWidth::B8);
        b.andi(t, i, 1);
        b.bnez(t, skip); // alternating branch
        b.addi(Reg::new(6), Reg::new(6), 1);
        b.bind(skip);
        b.addi(i, i, 1);
        b.blt(i, n, top); // biased branch
        b.halt();
        b.build()
    }

    fn make_clone(params: &SynthesisParams) -> (Program, perfclone_profile::WorkloadProfile) {
        let orig = original_program();
        let profile = profile_program(&orig, u64::MAX).unwrap();
        (synthesize(&profile, params).unwrap(), profile)
    }

    #[test]
    fn clone_runs_to_completion() {
        let params =
            SynthesisParams { target_blocks: 50, target_dynamic: 50_000, ..Default::default() };
        let (clone, _) = make_clone(&params);
        let mut sim = Simulator::new(&clone);
        let out = sim.run(10_000_000).expect("clone must not fault");
        assert!(out.halted, "clone did not halt");
        // Dynamic length lands near the target.
        assert!(
            out.retired > 25_000 && out.retired < 100_000,
            "retired {} not near target",
            out.retired
        );
    }

    #[test]
    fn clone_is_deterministic() {
        let params =
            SynthesisParams { target_blocks: 30, target_dynamic: 10_000, ..Default::default() };
        let (c1, _) = make_clone(&params);
        let (c2, _) = make_clone(&params);
        assert_eq!(c1.instrs(), c2.instrs());
    }

    #[test]
    fn clone_mix_tracks_original() {
        let params =
            SynthesisParams { target_blocks: 150, target_dynamic: 200_000, ..Default::default() };
        let (clone, orig_profile) = make_clone(&params);
        let clone_profile = profile_program(&clone, u64::MAX).unwrap();
        let orig_mix = orig_profile.global_mix();
        let clone_mix = clone_profile.global_mix();
        use perfclone_isa::InstrClass as C;
        for class in [C::Load, C::Store, C::FpMul] {
            let (o, c) = (orig_mix[class.index()], clone_mix[class.index()]);
            assert!((o - c).abs() < 0.06, "{class}: original {o:.3} clone {c:.3}");
        }
    }

    #[test]
    fn clone_reproduces_dominant_strides() {
        let params =
            SynthesisParams { target_blocks: 120, target_dynamic: 150_000, ..Default::default() };
        let (clone, orig_profile) = make_clone(&params);
        // Clone static ops share one stream walker per original static op,
        // so the walker table (not the per-op profile, whose per-op stride
        // is the interleaved multiple) must carry the original's dominant
        // strides.
        let orig_strides: std::collections::HashSet<i64> =
            orig_profile.streams.iter().map(|s| s.dominant_stride).collect();
        let clone_strides: std::collections::HashSet<i64> =
            clone.streams().iter().map(|d| d.stride).collect();
        for s in &orig_strides {
            assert!(clone_strides.contains(s), "stride {s} missing from clone");
        }
    }

    #[test]
    fn clone_branch_statistics_track_original() {
        let params =
            SynthesisParams { target_blocks: 150, target_dynamic: 200_000, ..Default::default() };
        let (clone, orig_profile) = make_clone(&params);
        let clone_profile = profile_program(&clone, u64::MAX).unwrap();
        // Dynamic-weighted mean taken rate and transition rate must be
        // close.
        let weighted = |p: &perfclone_profile::WorkloadProfile| -> (f64, f64) {
            let total: u64 = p.branches.iter().map(|b| b.execs).sum();
            let taken: u64 = p.branches.iter().map(|b| b.taken).sum();
            let trans: u64 = p.branches.iter().map(|b| b.transitions).sum();
            (taken as f64 / total as f64, trans as f64 / total as f64)
        };
        let (ot, otr) = weighted(&orig_profile);
        let (ct, ctr) = weighted(&clone_profile);
        assert!((ot - ct).abs() < 0.12, "taken rate: orig {ot:.3} clone {ct:.3}");
        assert!((otr - ctr).abs() < 0.12, "transition rate: orig {otr:.3} clone {ctr:.3}");
    }

    #[test]
    fn clone_hides_the_original_code() {
        // The dissemination property: no basic-block of the clone matches
        // any block of the original instruction-for-instruction.
        let params =
            SynthesisParams { target_blocks: 40, target_dynamic: 20_000, ..Default::default() };
        let orig = original_program();
        let (clone, _) = make_clone(&params);
        let window = 4;
        for w_orig in orig.instrs().windows(window) {
            for w_clone in clone.instrs().windows(window) {
                if w_orig == w_clone {
                    panic!("clone leaks a {window}-instruction sequence of the original");
                }
            }
        }
    }

    #[test]
    fn baseline_models_produce_runnable_clones() {
        let params = SynthesisParams {
            target_blocks: 40,
            target_dynamic: 30_000,
            memory_model: MemoryModel::MissRateTarget { miss_rate: 0.2, line_bytes: 32 },
            branch_model: BranchModel::TakenRateOnly,
            ..Default::default()
        };
        let (clone, _) = make_clone(&params);
        let mut sim = Simulator::new(&clone);
        let out = sim.run(10_000_000).unwrap();
        assert!(out.halted);
    }

    #[test]
    fn corrupted_profile_yields_typed_error() {
        let orig = original_program();
        let mut profile = profile_program(&orig, u64::MAX).unwrap();
        // Truncating the node table leaves edges/contexts dangling — the
        // shape a truncated trace produces.
        profile.nodes.truncate(1);
        let err = synthesize(&profile, &SynthesisParams::default()).unwrap_err();
        assert!(matches!(err, SynthError::InvalidProfile(_)), "got {err:?}");
    }

    #[test]
    fn context_insensitive_clone_still_runs() {
        let params = SynthesisParams {
            target_blocks: 40,
            target_dynamic: 30_000,
            context_sensitive: false,
            ..Default::default()
        };
        let (clone, _) = make_clone(&params);
        let mut sim = Simulator::new(&clone);
        assert!(sim.run(10_000_000).unwrap().halted);
    }
}
