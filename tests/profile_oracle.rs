//! The workload profiler held to a record-at-a-time reference collector.
//!
//! [`Profiler`] handles register dependences once per basic block, from a
//! summary of the block's text, derives stride counts from per-stride run
//! totals and updates branch statistics by table lookups. [`Reference`]
//! below is the collector it replaced, kept here as the specification:
//! every dependence, stride and branch direction is handled at the record
//! that produced it, in the plain way. It lives in a test file because the
//! clone inputs need the synthesizer, and a dev-dependency of the profile
//! crate on the synthesizer would cycle.
//!
//! The proptest runs the same deterministic program twice, once a record
//! at a time into the reference (`Simulator::trace`) and once a block at a
//! time into the profiler (`Simulator::run_blocks`), so a fault in the
//! block runner shows as a mismatch instead of feeding both collectors
//! alike. It compares their serialized profiles on three kinds of input:
//! kernels stopped at a random window (which often ends inside a block),
//! clones at random seeds run to `halt`, and small random programs that
//! halt or fall off the end of their text in the middle of a block.
//!
//! A third run, a block at a time into the fidelity gate's
//! [`TotalsCollector`], must give the [`ProfileTotals`] that
//! [`WorkloadProfile::totals`] reads off the reference profile: the same
//! whole-run totals gathered without building the profile.

use std::collections::HashMap;

use perfclone_isa::{InstrClass, InstrMetaTable, Program, ProgramBuilder, Reg};
use perfclone_kernels::{catalog, Scale};
use perfclone_profile::{
    BlockProfile, BranchProfile, ContextProfile, DepHistogram, EdgeProfile, ProfileTotals,
    Profiler, StreamProfile, TotalsCollector, WorkloadProfile,
};
use perfclone_repro::prelude::*;
use perfclone_sim::{DynInstr, Simulator};
use proptest::prelude::*;

/// Cap on distinct strides counted per static memory instruction.
const MAX_STRIDES: usize = 128;

/// The predecessor of the program's first block.
const ENTRY: u32 = u32::MAX;

#[derive(Default)]
struct RefNode {
    start_pc: u32,
    size: u32,
    execs: u64,
    class_counts: [u32; 10],
    mem_ops: Vec<u32>,
    branch: Option<u32>,
    collecting: bool,
}

#[derive(Default)]
struct RefContext {
    pred: u32,
    node: u32,
    count: u64,
    reg_deps: DepHistogram,
    mem_deps: DepHistogram,
}

struct RefStream {
    pc: u32,
    is_store: bool,
    width: u8,
    execs: u64,
    last_addr: Option<u64>,
    min_addr: u64,
    max_addr: u64,
    stride_counts: HashMap<i64, u64>,
    cur_stride: Option<i64>,
    cur_run: u64,
    run_stats: HashMap<i64, (u64, u64)>,
    fwd_breaks: u64,
    back_breaks: u64,
    back_jump_sum: u64,
}

impl RefStream {
    fn new(pc: u32, is_store: bool, width: u8) -> RefStream {
        RefStream {
            pc,
            is_store,
            width,
            execs: 0,
            last_addr: None,
            min_addr: u64::MAX,
            max_addr: 0,
            stride_counts: HashMap::new(),
            cur_stride: None,
            cur_run: 0,
            run_stats: HashMap::new(),
            fwd_breaks: 0,
            back_breaks: 0,
            back_jump_sum: 0,
        }
    }

    fn access(&mut self, addr: u64) {
        self.execs += 1;
        self.min_addr = self.min_addr.min(addr);
        self.max_addr = self.max_addr.max(addr);
        if let Some(last) = self.last_addr {
            let stride = addr.wrapping_sub(last) as i64;
            if self.stride_counts.len() < MAX_STRIDES || self.stride_counts.contains_key(&stride) {
                *self.stride_counts.entry(stride).or_insert(0) += 1;
            }
            match self.cur_stride {
                Some(s) if s == stride => self.cur_run += 1,
                _ => {
                    // Only a run of two or more accesses classifies the
                    // jump that breaks it.
                    if self.cur_stride.is_some() && self.cur_run > 1 {
                        if stride < 0 {
                            self.back_breaks += 1;
                            self.back_jump_sum += stride.unsigned_abs();
                        } else {
                            self.fwd_breaks += 1;
                        }
                    }
                    self.end_run();
                    self.cur_stride = Some(stride);
                    self.cur_run = 1;
                }
            }
        }
        self.last_addr = Some(addr);
    }

    fn end_run(&mut self) {
        if let Some(s) = self.cur_stride.take() {
            let e = self.run_stats.entry(s).or_insert((0, 0));
            e.0 += 1;
            e.1 += self.cur_run;
            self.cur_run = 0;
        }
    }

    fn finish(mut self) -> StreamProfile {
        self.end_run();
        let (dominant_stride, dominant_count) = self
            .stride_counts
            .iter()
            .max_by_key(|(s, c)| (**c, std::cmp::Reverse(s.unsigned_abs()), **s >= 0))
            .map(|(s, c)| (*s, *c))
            .unwrap_or((0, 0));
        let mean_run_len = match self.run_stats.get(&dominant_stride) {
            Some(&(runs, len_sum)) if runs > 0 => len_sum as f64 / runs as f64,
            _ => 1.0,
        };
        StreamProfile {
            pc: self.pc,
            is_store: self.is_store,
            execs: self.execs,
            dominant_stride,
            dominant_count,
            mean_run_len,
            distinct_strides: self.stride_counts.len() as u32,
            width: self.width,
            min_addr: if self.min_addr == u64::MAX { 0 } else { self.min_addr },
            max_addr: self.max_addr,
            fwd_breaks: self.fwd_breaks,
            back_breaks: self.back_breaks,
            mean_back_jump: if self.back_breaks > 0 {
                self.back_jump_sum as f64 / self.back_breaks as f64
            } else {
                0.0
            },
        }
    }
}

struct RefBranch {
    pc: u32,
    execs: u64,
    taken: u64,
    transitions: u64,
    last_dir: Option<bool>,
    counters: Vec<u8>,
    history_hits: u64,
}

/// The record-at-a-time collector: fed every retired record, it produces
/// the same [`WorkloadProfile`] as [`Profiler`], with nothing summarized
/// per block.
struct Reference {
    name: String,
    meta: InstrMetaTable,
    pos: u64,
    node_ids: HashMap<u32, u32>,
    nodes: Vec<RefNode>,
    ctx_ids: HashMap<(u32, u32), usize>,
    contexts: Vec<RefContext>,
    cur_node: Option<u32>,
    prev_node: u32,
    cur_ctx: usize,
    reg_writer: [u64; 64],
    mem_writer: HashMap<u64, u64>,
    stream_ids: HashMap<u32, usize>,
    streams: Vec<RefStream>,
    branch_ids: HashMap<u32, usize>,
    branches: Vec<RefBranch>,
    global_history: u8,
}

impl Reference {
    fn new(program: &Program) -> Reference {
        Reference {
            name: program.name().to_string(),
            meta: InstrMetaTable::new(program),
            pos: 0,
            node_ids: HashMap::new(),
            nodes: Vec::new(),
            ctx_ids: HashMap::new(),
            contexts: Vec::new(),
            cur_node: None,
            prev_node: ENTRY,
            cur_ctx: 0,
            reg_writer: [0; 64],
            mem_writer: HashMap::new(),
            stream_ids: HashMap::new(),
            streams: Vec::new(),
            branch_ids: HashMap::new(),
            branches: Vec::new(),
            global_history: 0,
        }
    }

    fn finish(self) -> WorkloadProfile {
        let nodes = self
            .nodes
            .into_iter()
            .map(|n| BlockProfile {
                start_pc: n.start_pc,
                size: n.size,
                execs: n.execs,
                class_counts: n.class_counts,
                mem_ops: n.mem_ops,
                branch: n.branch,
            })
            .collect();
        let mut edges: Vec<EdgeProfile> = self
            .contexts
            .iter()
            .filter(|c| c.pred != ENTRY)
            .map(|c| EdgeProfile { from: c.pred, to: c.node, count: c.count })
            .collect();
        edges.sort_by_key(|e| (e.from, e.to));
        let mut contexts: Vec<ContextProfile> = self
            .contexts
            .into_iter()
            .map(|c| ContextProfile {
                pred: c.pred,
                node: c.node,
                count: c.count,
                reg_deps: c.reg_deps,
                mem_deps: c.mem_deps,
            })
            .collect();
        contexts.sort_by_key(|c| (c.node, c.pred));
        WorkloadProfile {
            name: self.name,
            total_instrs: self.pos,
            nodes,
            edges,
            contexts,
            streams: self.streams.into_iter().map(RefStream::finish).collect(),
            branches: self
                .branches
                .into_iter()
                .map(|b| BranchProfile {
                    pc: b.pc,
                    execs: b.execs,
                    taken: b.taken,
                    transitions: b.transitions,
                    history_hits: b.history_hits,
                })
                .collect(),
        }
    }

    /// Takes the next retired record.
    fn on_retire(&mut self, d: &DynInstr) {
        let meta = *self.meta.at(d.pc);

        let node = match self.cur_node {
            Some(n) => n,
            None => {
                let nodes = &mut self.nodes;
                let n = *self.node_ids.entry(d.pc).or_insert_with(|| {
                    nodes.push(RefNode { start_pc: d.pc, collecting: true, ..RefNode::default() });
                    (nodes.len() - 1) as u32
                });
                self.cur_node = Some(n);
                self.nodes[n as usize].execs += 1;
                let (pred, contexts) = (self.prev_node, &mut self.contexts);
                self.cur_ctx = *self.ctx_ids.entry((pred, n)).or_insert_with(|| {
                    contexts.push(RefContext { pred, node: n, ..RefContext::default() });
                    contexts.len() - 1
                });
                self.contexts[self.cur_ctx].count += 1;
                n
            }
        };

        let stream_id = d.mem.map(|m| {
            let streams = &mut self.streams;
            *self.stream_ids.entry(d.pc).or_insert_with(|| {
                streams.push(RefStream::new(d.pc, m.is_store, m.bytes));
                streams.len() - 1
            })
        });
        let n = &mut self.nodes[node as usize];
        let collecting = n.collecting;
        if collecting {
            n.size += 1;
            n.class_counts[meta.class.index()] += 1;
            if let Some(sid) = stream_id {
                n.mem_ops.push(sid as u32);
            }
        }

        let pos = self.pos + 1;
        let ctx = &mut self.contexts[self.cur_ctx];
        for &u in meta.uses() {
            let w = self.reg_writer[usize::from(u)];
            if w != 0 {
                ctx.reg_deps.record(pos - w);
            }
        }
        if let Some(m) = d.mem {
            if !m.is_store {
                if let Some(&w) = self.mem_writer.get(&(m.addr >> 3)) {
                    ctx.mem_deps.record(pos - w);
                }
            }
        }
        for &def in meta.defs() {
            self.reg_writer[usize::from(def)] = pos;
        }
        if let Some(m) = d.mem {
            if m.is_store {
                // Byte by byte, wrapping past the top of the address space
                // as the interpreter's memory does.
                for i in 0..u64::from(m.bytes) {
                    self.mem_writer.insert(m.addr.wrapping_add(i) >> 3, pos);
                }
            }
            if let Some(sid) = stream_id {
                self.streams[sid].access(m.addr);
            }
        }

        if meta.cond_branch {
            let branches = &mut self.branches;
            let bid = *self.branch_ids.entry(d.pc).or_insert_with(|| {
                branches.push(RefBranch {
                    pc: d.pc,
                    execs: 0,
                    taken: 0,
                    transitions: 0,
                    last_dir: None,
                    counters: vec![1; 256],
                    history_hits: 0,
                });
                branches.len() - 1
            });
            if collecting {
                self.nodes[node as usize].branch = Some(bid as u32);
            }
            let b = &mut self.branches[bid];
            b.execs += 1;
            if d.taken {
                b.taken += 1;
            }
            if let Some(prev) = b.last_dir {
                if prev != d.taken {
                    b.transitions += 1;
                }
            }
            b.last_dir = Some(d.taken);
            let idx = self.global_history as usize;
            if (b.counters[idx] >= 2) == d.taken {
                b.history_hits += 1;
            }
            let c = &mut b.counters[idx];
            *c = if d.taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
            self.global_history = self.global_history.wrapping_shl(1) | u8::from(d.taken);
        }

        if matches!(meta.class, InstrClass::Branch | InstrClass::Jump) {
            self.nodes[node as usize].collecting = false;
            self.prev_node = node;
            self.cur_node = None;
        }

        self.pos += 1;
    }
}

/// What the three collectors made of one run.
struct Collected {
    /// The profiler's serialized profile.
    profile: String,
    /// The reference's serialized profile.
    reference: String,
    /// The totals collector's totals.
    totals: ProfileTotals,
    /// The totals of the reference's profile.
    reference_totals: ProfileTotals,
}

/// Runs `program` for up to `limit` records (a fault ends the run as the
/// window does), a block at a time into the profiler and into the totals
/// collector, and a record at a time into the reference.
fn collect_all(program: &Program, limit: u64) -> Collected {
    let mut profiler = Profiler::new(program);
    let _ = Simulator::new(program).run_blocks(limit, &mut profiler);
    let mut collector = TotalsCollector::new(program);
    let _ = Simulator::new(program).run_blocks(limit, &mut collector);
    let mut reference = Reference::new(program);
    for d in Simulator::trace(program, limit) {
        reference.on_retire(&d);
    }
    let reference = reference.finish();
    let json = |p: &WorkloadProfile| serde_json::to_string(p).expect("profiles serialize");
    Collected {
        profile: json(&profiler.finish()),
        reference: json(&reference),
        totals: collector.finish(),
        reference_totals: reference.totals(),
    }
}

/// Fails the case, naming `input`, unless the profiler's profile equals the
/// reference's and the collector's totals equal the reference's.
fn check(c: &Collected, input: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        c.profile == c.reference,
        "{input}: {}",
        first_difference(&c.profile, &c.reference)
    );
    prop_assert!(
        c.totals == c.reference_totals,
        "{input}: totals\n  collector: {:?}\n  reference: {:?}",
        c.totals,
        c.reference_totals
    );
    Ok(())
}

/// Where two serializations first differ, with some context on each side.
fn first_difference(actual: &str, expected: &str) -> String {
    let at = actual.bytes().zip(expected.bytes()).take_while(|(a, b)| a == b).count();
    let window =
        |s: &str| s.get(at.saturating_sub(80)..(at + 80).min(s.len())).unwrap_or("").to_string();
    format!(
        "first difference at byte {at}:\n  profiler:  …{}…\n  reference: …{}…",
        window(actual),
        window(expected)
    )
}

/// Retired records of each catalog kernel run to `halt` at `Scale::Tiny`.
fn kernel_lengths() -> &'static [u64] {
    static LENGTHS: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    LENGTHS.get_or_init(|| {
        catalog()
            .iter()
            .map(|k| {
                let program = k.build(Scale::Tiny).program;
                Simulator::new(&program).run(u64::MAX).expect("kernels halt").retired
            })
            .collect()
    })
}

/// Instructions of the random programs: register and FP arithmetic, loads
/// and stores through the moving base register, a load from a hashed
/// offset (a stream with more distinct strides than are counted) and a
/// data-dependent forward branch.
#[derive(Clone, Copy, Debug)]
enum Op {
    Alu(u8, u8, u8),
    Addi(u8, u8),
    Mul(u8, u8, u8),
    Fadd(u8, u8, u8),
    Load(u8, i32),
    Store(u8, i32, bool),
    Gather(u8),
    Skip(u8),
}

fn op() -> impl Strategy<Value = Op> {
    let reg = 1u8..8;
    let load = (reg.clone(), 0i32..8).prop_map(|(d, slot)| Op::Load(d, slot)).boxed();
    let store = (reg.clone(), 0i32..8, any::<bool>())
        .prop_map(|(s, slot, w)| Op::Store(s, slot, w))
        .boxed();
    prop_oneof![
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(d, a, b)| Op::Alu(d, a, b)),
        (reg.clone(), reg.clone()).prop_map(|(d, a)| Op::Addi(d, a)),
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(d, a, b)| Op::Mul(d, a, b)),
        (0u8..4, 0u8..4, 0u8..4).prop_map(|(d, a, b)| Op::Fadd(d, a, b)),
        load.clone(),
        load,
        store.clone(),
        store,
        reg.clone().prop_map(Op::Gather),
        reg.prop_map(Op::Skip),
    ]
}

/// A loop of `body` run `trips` times over an 80-byte buffer whose base
/// moves by `step` bytes a trip, then `tail`, then `halt` or, without it,
/// a fall off the end of the text in the middle of `tail`'s block. From a
/// `base` near the top of the address space, stores wrap round to 0.
fn random_program(
    body: &[Op],
    tail: &[Op],
    trips: i64,
    step: i32,
    base: i64,
    halt: bool,
) -> Program {
    let mut b = ProgramBuilder::new("random");
    let r = Reg::new;
    let f = perfclone_isa::FReg::new;
    let (ptr, i, lim, hashed, golden, early) = (r(8), r(9), r(10), r(11), r(12), r(13));
    b.li(ptr, base);
    b.li(i, 0);
    b.li(lim, trips);
    b.li(golden, 0x9e37_79b1);
    for k in 1..8 {
        b.li(r(k), i64::from(k) * 3 - 7);
    }
    let emit = |b: &mut ProgramBuilder, ops: &[Op]| {
        for op in ops {
            match *op {
                Op::Alu(d, a, c) => b.add(r(d), r(a), r(c)),
                Op::Addi(d, a) => b.addi(r(d), r(a), 1),
                Op::Mul(d, a, c) => b.mul(r(d), r(a), r(c)),
                Op::Fadd(d, a, c) => b.fadd(f(d), f(a), f(c)),
                Op::Load(d, slot) => b.ld(r(d), ptr, slot * 8),
                Op::Store(s, slot, true) => b.sd(r(s), ptr, slot * 8 + 4),
                Op::Store(s, slot, false) => b.sw(r(s), ptr, slot * 8),
                Op::Gather(d) => {
                    // A hashed offset for the first 160 trips, then none:
                    // the later constant stride outnumbers every earlier
                    // one but is not among the first 128 distinct.
                    b.mul(hashed, i, i);
                    b.mul(hashed, hashed, golden);
                    b.srli(hashed, hashed, 7);
                    b.andi(hashed, hashed, 0x3ff8);
                    b.slti(early, i, 160);
                    b.sub(early, Reg::ZERO, early);
                    b.and(hashed, hashed, early);
                    b.add(hashed, hashed, ptr);
                    b.ld(r(d), hashed, 0);
                }
                Op::Skip(c) => {
                    let over = b.label();
                    b.blt(r(c), i, over);
                    b.nop();
                    b.bind(over);
                }
            }
        }
    };
    let top = b.label();
    b.bind(top);
    emit(&mut b, body);
    b.addi(ptr, ptr, step);
    b.addi(i, i, 1);
    b.blt(i, lim, top);
    emit(&mut b, tail);
    b.nop();
    if halt {
        b.halt();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A kernel stopped after `limit` records, often inside a block.
    #[test]
    fn profiler_equals_reference_on_kernel_windows(k in 0..catalog().len(), frac in 0.0f64..1.0) {
        let kernel = &catalog()[k];
        let len = kernel_lengths()[k];
        let limit = 1 + (frac * len as f64) as u64;
        let program = kernel.build(Scale::Tiny).program;
        let input = format!("kernel {} (Tiny, {len} records) at limit {limit}", kernel.name());
        check(&collect_all(&program, limit), &input)?;
    }

    /// A clone at a random synthesis seed, run to `halt`.
    #[test]
    fn profiler_equals_reference_on_clones(k in 0..catalog().len(), seed: u64) {
        let kernel = &catalog()[k];
        let profile = profile_program(&kernel.build(Scale::Tiny).program, u64::MAX)
            .expect("kernel profiles");
        let params = SynthesisParams { seed, target_dynamic: 20_000, ..SynthesisParams::default() };
        let clone = Cloner::with_params(params).clone_program_from(&profile).expect("clone synthesizes");
        let input = format!("clone of {} at seed {seed:#x}, no limit", kernel.name());
        check(&collect_all(&clone, u64::MAX), &input)?;
    }

}

proptest! {
    /// Random programs that halt, or fall off the end of their text in
    /// the middle of a block, under a random window.
    #[test]
    fn profiler_equals_reference_on_random_programs(
        body in proptest::collection::vec(op(), 0..12),
        tail in proptest::collection::vec(op(), 0..6),
        (trips, step, top, halt) in (1i64..300, -24i32..=24, any::<bool>(), any::<bool>()),
        limit in prop_oneof![Just(u64::MAX), 1u64..4000],
    ) {
        let base = if top { -40 } else { 0x4000 };
        let program = random_program(&body, &tail, trips, step, base, halt);
        let input = format!(
            "random program (body {body:?}, tail {tail:?}, {trips} trips, step {step}, \
             base {base:#x}, halt {halt}) at limit {limit}"
        );
        check(&collect_all(&program, limit), &input)?;
    }
}
