//! The online profile collector.
//!
//! Hot-path note: the collector takes the run a basic block at a time from
//! [`Simulator::run_blocks`], inlined into its block loop, so it works once
//! per block and once per memory record, and nothing for the other
//! records. Register dependences depend on the records' values only at a
//! block's live-in uses: when an SFG node is created, [`BlockDeps`]
//! summarizes its block from the program's [`InstrMetaTable`] (the
//! dependences inside the block, its live-in uses and each register's last
//! definition). A block end then reads the register-writer table only for
//! the live-ins and writes only the last definitions, and
//! [`Profiler::finish`] adds each context's inner dependences as its count
//! times the summary. A block the window or a fault cut short gets the
//! summary of its retired prefix instead.
//!
//! The ids interned per pc (SFG node, stream, branch record) sit in one
//! dense pc-indexed slot table. Three maps are keyed by run-time values
//! and stay hashed, with the deterministic multiply-rotate [`FxHashMap`]:
//! the `(pred, cur)` context map, probed at a block entry only when the
//! node's last context differs; the store-chunk `mem_writer` table, probed
//! per load and store; and each stream's per-stride run totals, probed only
//! when a constant-stride run breaks. Their keys are small integers the
//! profiler itself produces, never attacker-controlled data. Profile output
//! is unaffected: every map either has hash-independent insertion logic or
//! is reduced by a total order before it reaches the [`WorkloadProfile`].

use std::cmp::Reverse;

use rustc_hash::FxHashMap;

use perfclone_isa::{InstrClass, InstrMeta, InstrMetaTable, Program};
use perfclone_sim::{BlockObserver, DynInstr, MemAccess, Simulator};

use crate::error::ProfileError;
use crate::hist::DepHistogram;
use crate::model::{
    BlockProfile, BranchProfile, ContextProfile, EdgeProfile, StreamProfile, WorkloadProfile,
};

/// Cap on distinct strides counted per static memory instruction; a real
/// profiler bounds its tables the same way.
const MAX_STRIDES: usize = 128;

/// The predecessor of the program's first block.
const ENTRY: u32 = u32::MAX;

/// A slot id not interned yet.
pub(crate) const UNSEEN: u32 = u32::MAX;

/// Store-writer chunk numbers (8-byte chunks) wrap at the top of the
/// address space, as addresses do.
const CHUNK_MASK: u64 = u64::MAX >> 3;

/// Next state of a 2-bit saturating direction counter, by direction (not
/// taken, taken) and current state.
const NEXT_COUNTER: [[u8; 4]; 2] = [[0, 0, 1, 2], [1, 2, 3, 3]];

/// Whether an instruction ends its block: every control transfer, and
/// `halt` (class `Jump`).
#[inline]
pub(crate) fn ends_block(meta: &InstrMeta) -> bool {
    matches!(meta.class, InstrClass::Branch | InstrClass::Jump)
}

/// The register dependences of one block, fixed by its text. Offsets count
/// records from the block's first.
#[derive(Debug, Default)]
pub(crate) struct BlockDeps {
    /// Dependences whose producer lies earlier in the block: the same in
    /// every complete execution.
    pub(crate) inner: DepHistogram,
    /// `(register, offset)` of each use with no producer earlier in the
    /// block.
    live_ins: Vec<(u8, u32)>,
    /// `(register, offset)` of each register's last definition.
    pub(crate) last_defs: Vec<(u8, u32)>,
}

impl BlockDeps {
    /// Summarizes the block starting at `start`: up to its first
    /// block-ending instruction, or to the end of the text.
    pub(crate) fn of(metas: &[InstrMeta], start: u32) -> BlockDeps {
        let mut deps = BlockDeps::default();
        let mut last_def = [None::<u32>; 64];
        for (off, meta) in (0u32..).zip(&metas[start as usize..]) {
            // Uses read the writers before the instruction's own defs.
            for &u in meta.uses() {
                match last_def[usize::from(u)] {
                    Some(def) => deps.inner.record(u64::from(off - def)),
                    None => deps.live_ins.push((u, off)),
                }
            }
            for &d in meta.defs() {
                last_def[usize::from(d)] = Some(off);
            }
            if ends_block(meta) {
                break;
            }
        }
        deps.last_defs = (0u8..).zip(last_def).filter_map(|(r, off)| Some((r, off?))).collect();
        deps
    }

    /// Records the dependences of the live-in uses into `hist`, for an
    /// execution whose first record sits at position `base`, on the
    /// register writers as of its entry.
    #[inline]
    pub(crate) fn record_live_ins(
        &self,
        hist: &mut DepHistogram,
        reg_writer: &[u64; 64],
        base: u64,
    ) {
        for &(u, off) in &self.live_ins {
            let w = reg_writer[usize::from(u)];
            if w != 0 {
                hist.record(base + u64::from(off) - w);
            }
        }
    }
}

#[derive(Debug, Default)]
struct NodeCollect {
    start_pc: u32,
    size: u32,
    execs: u64,
    class_counts: [u32; 10],
    mem_ops: Vec<u32>,
    branch: Option<u32>,
    /// Until the node's first visit ends, when its composition is known.
    collecting: bool,
    deps: BlockDeps,
    /// The `(pred, context id)` of the node's last entry.
    last_ctx: Option<(u32, u32)>,
}

#[derive(Debug, Default)]
struct CtxCollect {
    pred: u32,
    node: u32,
    count: u64,
    reg_deps: DepHistogram,
    mem_deps: DepHistogram,
}

/// The finished constant-stride runs of one stride.
#[derive(Clone, Copy, Debug, Default)]
struct StrideRuns {
    runs: u64,
    /// Accesses in those runs: every access after a stream's first
    /// extends or starts a run, so this is the stride's count.
    accesses: u64,
    /// Among the stream's first [`MAX_STRIDES`] distinct strides, the only
    /// ones counted. A stride's first access always starts a run, so the
    /// map sees strides in first-access order.
    counted: bool,
}

#[derive(Debug)]
struct StreamCollect {
    pc: u32,
    is_store: bool,
    width: u8,
    execs: u64,
    last_addr: u64,
    min_addr: u64,
    max_addr: u64,
    /// The current run's stride and length (0 before the second access).
    cur_stride: i64,
    cur_run: u64,
    runs: FxHashMap<i64, StrideRuns>,
    fwd_breaks: u64,
    back_breaks: u64,
    back_jump_sum: u64,
}

impl StreamCollect {
    fn new(pc: u32, is_store: bool, width: u8) -> StreamCollect {
        StreamCollect {
            pc,
            is_store,
            width,
            execs: 0,
            last_addr: 0,
            min_addr: u64::MAX,
            max_addr: 0,
            cur_stride: 0,
            cur_run: 0,
            runs: FxHashMap::default(),
            fwd_breaks: 0,
            back_breaks: 0,
            back_jump_sum: 0,
        }
    }

    #[inline]
    fn access(&mut self, addr: u64) {
        let stride = addr.wrapping_sub(self.last_addr) as i64;
        let first = self.execs == 0;
        self.execs += 1;
        self.min_addr = self.min_addr.min(addr);
        self.max_addr = self.max_addr.max(addr);
        self.last_addr = addr;
        if first {
            return;
        }
        // With no run yet (`cur_run` 0), an equal stride starts one of
        // length 1 just as a break would.
        if stride == self.cur_stride {
            self.cur_run += 1;
        } else {
            self.break_run(stride);
        }
    }

    /// Ends the current run at an access of another stride.
    fn break_run(&mut self, stride: i64) {
        // Classify the breaking jump's direction. Singleton runs are
        // excursions (e.g. the jump itself); exiting one back onto the
        // dominant stride is a resume, not a structural break, so only
        // multi-access runs classify.
        if self.cur_run > 1 {
            if stride < 0 {
                self.back_breaks += 1;
                self.back_jump_sum += stride.unsigned_abs();
            } else {
                self.fwd_breaks += 1;
            }
        }
        self.end_run();
        self.cur_stride = stride;
        self.cur_run = 1;
    }

    fn end_run(&mut self) {
        if self.cur_run > 0 {
            let counted = self.runs.len() < MAX_STRIDES;
            let totals = self
                .runs
                .entry(self.cur_stride)
                .or_insert(StrideRuns { counted, ..StrideRuns::default() });
            totals.runs += 1;
            totals.accesses += self.cur_run;
            self.cur_run = 0;
        }
    }

    fn finish(mut self) -> StreamProfile {
        self.end_run();
        // Total order: highest count, then smallest magnitude, then
        // positive before negative — so profiles are deterministic even
        // when stride counts tie (e.g. a length-2 ping-pong stream).
        let (dominant_stride, dominant) = self
            .runs
            .iter()
            .filter(|(_, t)| t.counted)
            .max_by_key(|(s, t)| (t.accesses, Reverse(s.unsigned_abs()), **s >= 0))
            .map(|(s, t)| (*s, *t))
            .unwrap_or_default();
        StreamProfile {
            pc: self.pc,
            is_store: self.is_store,
            execs: self.execs,
            dominant_stride,
            dominant_count: dominant.accesses,
            mean_run_len: if dominant.runs > 0 {
                dominant.accesses as f64 / dominant.runs as f64
            } else {
                1.0
            },
            distinct_strides: self.runs.len().min(MAX_STRIDES) as u32,
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

#[derive(Debug)]
struct BranchCollect {
    pc: u32,
    execs: u64,
    taken: u64,
    transitions: u64,
    /// The last direction (0 or 1), or 2 before the first execution, so
    /// that `last_dir ^ dir == 1` exactly when the direction switched.
    last_dir: u8,
    /// A 2-bit direction counter per global-history pattern.
    counters: Box<[u8; 256]>,
    history_hits: u64,
}

impl BranchCollect {
    fn new(pc: u32) -> BranchCollect {
        BranchCollect {
            pc,
            execs: 0,
            taken: 0,
            transitions: 0,
            last_dir: 2,
            counters: Box::new([1; 256]),
            history_hits: 0,
        }
    }

    /// Counts one execution in direction `taken` after the global
    /// direction history `history`.
    #[inline]
    fn update(&mut self, taken: bool, history: u8) {
        let dir = u8::from(taken);
        self.execs += 1;
        self.taken += u64::from(dir);
        self.transitions += u64::from(self.last_dir ^ dir == 1);
        self.last_dir = dir;
        // Global-history direction model (a sequence-structure attribute,
        // not a hardware predictor): predict each branch from the last
        // eight directions of *any* branch, capturing both self-structure
        // and inter-branch correlation (the two predictability sources of
        // paper 3.1.5); then update.
        let c = &mut self.counters[usize::from(history)];
        self.history_hits += u64::from(*c >> 1 == dir);
        *c = NEXT_COUNTER[usize::from(dir)][usize::from(*c & 3)];
    }
}

/// Ids interned at one pc, in first-seen order (`UNSEEN` until then), so
/// the profile lists nodes, streams and branches in the order execution
/// first reached them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    /// The SFG node of the block starting at this pc.
    pub(crate) node: u32,
    /// The stream of the memory op, or the record of the conditional
    /// branch, at this pc; no instruction is both.
    pub(crate) site: u32,
}

/// A [`BlockObserver`] that builds a [`WorkloadProfile`] from the retired
/// instruction stream, a basic block at a time — the paper's "workload
/// profiler" box (Figure 1).
///
/// A profiler is bound to the [`Program`] it was created for and must be
/// fed that program's blocks as [`Simulator::run_blocks`] delivers them:
/// its per-block summaries assume each block's records follow the block's
/// text. A block cut short ends what it is fed.
///
/// # Panics
///
/// [`enter_block`](BlockObserver::enter_block) panics when the pc lies
/// outside the program, as indexing its tables does.
#[derive(Debug)]
pub struct Profiler {
    name: String,
    meta: InstrMetaTable,
    slots: Vec<Slot>,
    /// Records retired so far; a record's 1-based position is one more.
    pos: u64,
    nodes: Vec<NodeCollect>,
    ctx_ids: FxHashMap<(u32, u32), u32>,
    contexts: Vec<CtxCollect>,
    /// The current (or last) block: its node, start pc and the position
    /// of its first record.
    block_node: u32,
    block_pc: u32,
    block_pos: u64,
    /// Whether the last block entered has not ended: the window or a fault
    /// cut it short.
    open: bool,
    prev_node: u32,
    cur_ctx: usize,
    /// Position of each register's last writer, as of the last block end
    /// (0 = none).
    reg_writer: [u64; 64],
    mem_writer: FxHashMap<u64, u64>,
    streams: Vec<StreamCollect>,
    branches: Vec<BranchCollect>,
    global_history: u8,
}

impl Profiler {
    /// Creates a profiler for `program`, interning its instruction
    /// metadata once.
    pub fn new(program: &Program) -> Profiler {
        Profiler {
            name: program.name().to_string(),
            meta: InstrMetaTable::new(program),
            slots: vec![Slot { node: UNSEEN, site: UNSEEN }; program.len()],
            pos: 0,
            nodes: Vec::new(),
            ctx_ids: FxHashMap::default(),
            contexts: Vec::new(),
            block_node: 0,
            block_pc: 0,
            block_pos: 0,
            open: false,
            prev_node: ENTRY,
            cur_ctx: 0,
            reg_writer: [0; 64],
            mem_writer: FxHashMap::default(),
            streams: Vec::new(),
            branches: Vec::new(),
            global_history: 0,
        }
    }

    #[inline]
    fn node_at(&mut self, pc: u32) -> u32 {
        let slot = &mut self.slots[pc as usize];
        if slot.node == UNSEEN {
            slot.node = self.nodes.len() as u32;
            self.nodes.push(NodeCollect {
                start_pc: pc,
                collecting: true,
                deps: BlockDeps::of(self.meta.as_slice(), pc),
                ..NodeCollect::default()
            });
        }
        slot.node
    }

    #[inline]
    fn stream_at(&mut self, pc: u32, m: &MemAccess) -> u32 {
        let slot = &mut self.slots[pc as usize];
        if slot.site == UNSEEN {
            slot.site = self.streams.len() as u32;
            self.streams.push(StreamCollect::new(pc, m.is_store, m.bytes));
        }
        slot.site
    }

    #[inline]
    fn branch_at(&mut self, pc: u32) -> u32 {
        let slot = &mut self.slots[pc as usize];
        if slot.site == UNSEEN {
            slot.site = self.branches.len() as u32;
            self.branches.push(BranchCollect::new(pc));
        }
        slot.site
    }

    /// Records the static composition of `node`'s block from its first
    /// visit's `len` records: their classes, and the streams of the memory
    /// ops among them, all interned by then.
    fn compose(&mut self, node: u32, len: u32) {
        let n = &mut self.nodes[node as usize];
        let text = n.start_pc as usize..(n.start_pc + len) as usize;
        n.size = len;
        for (meta, slot) in self.meta.as_slice()[text.clone()].iter().zip(&self.slots[text]) {
            n.class_counts[meta.class.index()] += 1;
            if meta.has_mem {
                n.mem_ops.push(slot.site);
            }
        }
    }

    /// Ends the current block at its last record `d`: branch statistics,
    /// then the live-in dependences and the last definitions.
    #[inline]
    fn end_block(&mut self, node: u32, meta: &InstrMeta, d: &DynInstr) {
        if meta.cond_branch {
            let bid = self.branch_at(d.pc);
            let n = &mut self.nodes[node as usize];
            if n.collecting {
                n.branch = Some(bid);
            }
            self.branches[bid as usize].update(d.taken, self.global_history);
            self.global_history = self.global_history.wrapping_shl(1) | u8::from(d.taken);
        }
        let n = &mut self.nodes[node as usize];
        let base = self.block_pos;
        n.deps.record_live_ins(&mut self.contexts[self.cur_ctx].reg_deps, &self.reg_writer, base);
        for &(r, off) in &n.deps.last_defs {
            self.reg_writer[usize::from(r)] = base + u64::from(off);
        }
        n.collecting = false;
        self.prev_node = node;
        self.open = false;
    }

    /// Finalizes collection into a [`WorkloadProfile`].
    pub fn finish(mut self) -> WorkloadProfile {
        // The block the window or a fault cut short counted in its context,
        // but only the summary of its retired prefix applies to it. The
        // prefix holds no block-ending instruction, so a summary over the
        // text cut where the prefix ends covers all of it.
        let unfinished = self.open.then(|| {
            let start = self.block_pc;
            let end = start as usize + (self.pos + 1 - self.block_pos) as usize;
            let prefix = BlockDeps::of(&self.meta.as_slice()[..end], start);
            let ctx = &mut self.contexts[self.cur_ctx];
            prefix.record_live_ins(&mut ctx.reg_deps, &self.reg_writer, self.block_pos);
            ctx.reg_deps.merge(&prefix.inner);
            self.cur_ctx
        });
        for (i, c) in self.contexts.iter_mut().enumerate() {
            let complete = c.count - u64::from(unfinished == Some(i));
            c.reg_deps.add_times(&self.nodes[c.node as usize].deps.inner, complete);
        }
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
        // Every block entry counts its `(pred, cur)` context, so the
        // contexts with a real predecessor are exactly the SFG's edges.
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
        let streams = self.streams.into_iter().map(StreamCollect::finish).collect();
        let branches = self
            .branches
            .into_iter()
            .map(|b| BranchProfile {
                pc: b.pc,
                execs: b.execs,
                taken: b.taken,
                transitions: b.transitions,
                history_hits: b.history_hits,
            })
            .collect();
        WorkloadProfile {
            name: self.name,
            total_instrs: self.pos,
            nodes,
            edges,
            contexts,
            streams,
            branches,
        }
    }
}

impl BlockObserver for Profiler {
    // The three hooks are `#[inline]` so that they fuse into each block
    // loop that drives a profiler: `profile_program`'s here, and the
    // oracle test's in another crate; without LTO a non-generic method is
    // otherwise a call per block and per memory record. `Gate::report`
    // drives the `TotalsCollector` instead, whose hooks are inline too.

    /// Enters the block starting at `pc` and counts its `(pred, cur)`
    /// context, looked up through the node's last one.
    #[inline]
    fn enter_block(&mut self, pc: u32) {
        let n = self.node_at(pc);
        self.block_node = n;
        self.block_pc = pc;
        self.block_pos = self.pos + 1;
        self.open = true;
        let pred = self.prev_node;
        let node = &mut self.nodes[n as usize];
        node.execs += 1;
        let ctx = match node.last_ctx {
            Some((p, c)) if p == pred => c,
            _ => {
                let contexts = &mut self.contexts;
                let c = *self.ctx_ids.entry((pred, n)).or_insert_with(|| {
                    contexts.push(CtxCollect { pred, node: n, ..CtxCollect::default() });
                    (contexts.len() - 1) as u32
                });
                node.last_ctx = Some((pred, c));
                c
            }
        };
        self.cur_ctx = ctx as usize;
        self.contexts[self.cur_ctx].count += 1;
    }

    /// Counts the access of the record at `offset`: its stream, and its
    /// store writer or load dependence.
    #[inline]
    fn on_mem(&mut self, offset: u32, m: MemAccess) {
        let pos = self.block_pos + u64::from(offset);
        let sid = self.stream_at(self.block_pc + offset, &m);
        if m.is_store {
            // One chunk per 8 bytes touched, wrapping past the top of the
            // address space as the interpreter's memory does.
            let first = m.addr >> 3;
            for i in 0..((m.addr & 7) + u64::from(m.bytes) + 7) >> 3 {
                self.mem_writer.insert((first + i) & CHUNK_MASK, pos);
            }
        } else if let Some(&w) = self.mem_writer.get(&(m.addr >> 3)) {
            self.contexts[self.cur_ctx].mem_deps.record(pos - w);
        }
        self.streams[sid as usize].access(m.addr);
    }

    /// Retires the block's `len` records: its composition on the node's
    /// first visit, then, when `last` ends the block, its end.
    #[inline]
    fn exit_block(&mut self, len: u32, last: &DynInstr) {
        let node = self.block_node;
        if self.nodes[node as usize].collecting {
            self.compose(node, len);
        }
        self.pos += u64::from(len);
        let meta = *self.meta.at(last.pc);
        if ends_block(&meta) {
            self.end_block(node, &meta, last);
        }
    }
}

/// Profiles a program for up to `limit` retired instructions — the
/// convenience entry point combining the functional simulator and the
/// [`Profiler`].
///
/// # Errors
///
/// Returns [`ProfileError::Fault`] if the program faults (escapes its text
/// section) and [`ProfileError::Empty`] if nothing retired (e.g. a zero
/// `limit` or an empty program), so no stage downstream ever sees a profile
/// without SFG nodes.
pub fn profile_program(program: &Program, limit: u64) -> Result<WorkloadProfile, ProfileError> {
    let _span = perfclone_obs::span!("profile.collect");
    let mut profiler = Profiler::new(program);
    let mut sim = Simulator::new(program);
    sim.run_blocks(limit, &mut profiler)?;
    let profile = profiler.finish();
    if profile.nodes.is_empty() {
        return Err(ProfileError::Empty { name: profile.name });
    }
    // Telemetry is published once per profile, never per retired
    // instruction, to keep the collector loop clean.
    perfclone_obs::count!("profile.instrs", profile.total_instrs);
    perfclone_obs::count!("profile.blocks", profile.nodes.len() as u64);
    perfclone_obs::count!("profile.edges", profile.edges.len() as u64);
    perfclone_obs::count!("profile.streams", profile.streams.len() as u64);
    perfclone_obs::count!("profile.branches", profile.branches.len() as u64);
    if perfclone_obs::enabled() {
        for n in &profile.nodes {
            perfclone_obs::record!("profile.block_size", u64::from(n.size));
        }
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfclone_isa::{MemWidth, ProgramBuilder, Reg, StreamDesc};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// A loop with one strided load, one biased branch.
    fn strided_loop(n: i64, stride: i64) -> Program {
        let mut b = ProgramBuilder::new("strided");
        let id = b.stream(StreamDesc { base: 0x8000, stride, length: 10_000 });
        let (i, lim, x) = (r(1), r(2), r(3));
        b.li(i, 0);
        b.li(lim, n);
        let top = b.label();
        b.bind(top);
        b.ld_stream(x, id, MemWidth::B8);
        b.add(x, x, i);
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        b.build()
    }

    #[test]
    fn sfg_structure_of_simple_loop() {
        let p = strided_loop(100, 16);
        let prof = profile_program(&p, 100_000).unwrap();
        // Nodes: entry block (li,li,ld,add,addi,blt), loop body (ld..blt),
        // and the halt block.
        assert_eq!(prof.nodes.len(), 3);
        let body = prof.nodes.iter().find(|n| n.start_pc == 2).expect("loop body node");
        assert_eq!(body.execs, 99);
        assert_eq!(body.size, 4);
        // Self-edge dominates.
        let self_edge = prof.edges.iter().find(|e| {
            prof.nodes[e.from as usize].start_pc == 2 && prof.nodes[e.to as usize].start_pc == 2
        });
        assert_eq!(self_edge.unwrap().count, 98);
    }

    #[test]
    fn stride_detection() {
        let p = strided_loop(200, 24);
        let prof = profile_program(&p, 100_000).unwrap();
        assert_eq!(prof.streams.len(), 1);
        let s = &prof.streams[0];
        assert_eq!(s.dominant_stride, 24);
        assert_eq!(s.execs, 200);
        assert_eq!(s.dominant_count, 199);
        assert!((prof.stride_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(s.distinct_strides, 1);
    }

    #[test]
    fn branch_statistics() {
        let p = strided_loop(100, 8);
        let prof = profile_program(&p, 100_000).unwrap();
        assert_eq!(prof.branches.len(), 1);
        let b = &prof.branches[0];
        assert_eq!(b.execs, 100);
        assert_eq!(b.taken, 99);
        // Directions: 99 taken then 1 not-taken -> one transition.
        assert_eq!(b.transitions, 1);
        assert!(b.taken_rate() > 0.98);
        assert!(b.transition_rate() < 0.02);
    }

    #[test]
    fn alternating_branch_has_high_transition_rate() {
        // Branch taken iff i is even.
        let mut b = ProgramBuilder::new("alt");
        let (i, lim, t) = (r(1), r(2), r(3));
        b.li(i, 0);
        b.li(lim, 100);
        let top = b.label();
        let skip = b.label();
        b.bind(top);
        b.andi(t, i, 1);
        b.bnez(t, skip);
        b.nop();
        b.bind(skip);
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        let prof = profile_program(&b.build(), 100_000).unwrap();
        let alt = prof.branches.iter().find(|br| br.pc == 3).unwrap();
        assert!(alt.transition_rate() > 0.95, "rate = {}", alt.transition_rate());
        assert!((alt.taken_rate() - 0.5).abs() < 0.02);
    }

    /// Run to `halt`, and with windows that cut the one block short, where
    /// only the records that retired count.
    #[test]
    fn register_dependency_distances() {
        // add consumes the value produced by the instruction 1 earlier.
        let mut b = ProgramBuilder::new("dep");
        b.li(r(1), 5);
        b.addi(r(2), r(1), 1); // distance 1
        b.nop();
        b.nop();
        b.add(r(3), r(2), r(1)); // distances 3 and 4
        b.halt();
        let p = b.build();
        // The counts of the distance-1, <=2 and <=4 buckets.
        for (limit, want) in [(100, [1, 0, 2]), (5, [1, 0, 2]), (4, [1, 0, 0]), (1, [0, 0, 0])] {
            let prof = profile_program(&p, limit).unwrap();
            let mut merged = DepHistogram::new();
            for c in &prof.contexts {
                merged.merge(&c.reg_deps);
            }
            assert_eq!(merged.total(), want.iter().sum::<u64>(), "limit {limit}");
            assert_eq!(merged.counts()[..3], want, "limit {limit}");
        }
    }

    #[test]
    fn memory_dependency_distances() {
        let mut b = ProgramBuilder::new("memdep");
        let a = b.alloc(8);
        b.li(r(1), a as i64);
        b.li(r(2), 42);
        b.sd(r(2), r(1), 0);
        b.nop();
        b.ld(r(3), r(1), 0); // store->load distance 2
        b.halt();
        let prof = profile_program(&b.build(), 100).unwrap();
        let mut merged = DepHistogram::new();
        for c in &prof.contexts {
            merged.merge(&c.mem_deps);
        }
        assert_eq!(merged.total(), 1);
        assert_eq!(merged.counts()[1], 1); // <=2 bucket
    }

    /// A store that wraps past the top of the address space writes chunk 0
    /// too, so the load of the same address depends on it.
    #[test]
    fn store_wrapping_the_address_space_is_a_writer() {
        let mut b = ProgramBuilder::new("wrap");
        b.li(r(1), -4);
        b.li(r(2), 7);
        b.sd(r(2), r(1), 0);
        b.ld(r(3), r(1), 0); // store->load distance 1
        b.halt();
        let prof = profile_program(&b.build(), 100).unwrap();
        let mut merged = DepHistogram::new();
        for c in &prof.contexts {
            merged.merge(&c.mem_deps);
        }
        assert_eq!((merged.total(), merged.counts()[0]), (1, 1));
    }

    #[test]
    fn profile_counts_all_instructions() {
        let p = strided_loop(10, 8);
        let prof = profile_program(&p, 100_000).unwrap();
        // 2 setup + 10 * 4 loop + halt
        assert_eq!(prof.total_instrs, 2 + 40 + 1);
        let execs_weighted: u64 = prof.nodes.iter().map(|n| u64::from(n.size) * n.execs).sum();
        assert_eq!(execs_weighted, prof.total_instrs);
    }

    #[test]
    fn zero_limit_yields_typed_error() {
        let p = strided_loop(10, 8);
        assert!(matches!(profile_program(&p, 0), Err(ProfileError::Empty { .. })));
    }

    #[test]
    fn faulting_program_yields_typed_error() {
        let mut b = ProgramBuilder::new("fall");
        b.nop(); // no halt: falls off the end
        let err = profile_program(&b.build(), 100).unwrap_err();
        assert!(matches!(err, ProfileError::Fault(_)));
        assert!(err.to_string().contains("faulted"));
    }

    /// The last pc owns the last slot of the table: as a block start and
    /// conditional branch in one program, as a block start and memory op
    /// (faulting off the end right after it) in another.
    #[test]
    fn last_pc_fills_the_last_slot() {
        let mut b = ProgramBuilder::new("last-branch");
        let (exit, last) = (b.label(), b.label());
        b.li(r(1), 7);
        b.j(last);
        b.bind(exit);
        b.halt();
        b.bind(last);
        b.beq(r(1), r(1), exit); // pc 3, always taken
        let prof = profile_program(&b.build(), 100).unwrap();
        let starts: Vec<u32> = prof.nodes.iter().map(|n| n.start_pc).collect();
        assert_eq!(starts, [0, 3, 2]);
        assert_eq!((prof.nodes[1].size, prof.nodes[1].branch), (1, Some(0)));
        assert_eq!(
            (prof.branches[0].pc, prof.branches[0].execs, prof.branches[0].taken),
            (3, 1, 1)
        );

        let mut b = ProgramBuilder::new("last-load");
        let a = b.alloc(8);
        let last = b.label();
        b.li(r(1), a as i64);
        b.j(last);
        b.halt();
        b.bind(last);
        b.ld(r(2), r(1), 0); // pc 3, then off the end
        let p = b.build();
        let mut profiler = Profiler::new(&p);
        let err = Simulator::new(&p).run_blocks(100, &mut profiler).unwrap_err();
        assert!(matches!(err, perfclone_sim::SimError::PcOutOfRange { pc: 4, .. }));
        let prof = profiler.finish();
        let node = prof.nodes.iter().find(|n| n.start_pc == 3).expect("block at the last pc");
        assert_eq!((node.size, node.mem_ops.as_slice()), (1, &[0][..]));
        assert_eq!((prof.streams[0].pc, prof.streams[0].execs), (3, 1));
    }

    /// A block entered from two predecessors (`A→C`, `B→C`) gets one
    /// context per predecessor, each with its own dependence histogram.
    #[test]
    fn two_predecessors_give_two_contexts() {
        let mut b = ProgramBuilder::new("join");
        let (blk_b, blk_c) = (b.label(), b.label());
        let (visits, x, y, lim) = (r(5), r(3), r(4), r(6));
        b.li(visits, 0); // A
        b.j(blk_c);
        b.bind(blk_b);
        b.li(x, 9); // B
        b.j(blk_c);
        b.bind(blk_c);
        b.add(y, x, visits); // C: reads `x` only after B wrote it
        b.addi(visits, visits, 1);
        b.li(lim, 2);
        b.blt(visits, lim, blk_b);
        b.halt();
        let prof = profile_program(&b.build(), 100).unwrap();
        let node = |pc: u32| prof.nodes.iter().position(|n| n.start_pc == pc).unwrap() as u32;
        let (a, bb, c) = (node(0), node(2), node(4));
        let ctx = |pred: u32| prof.contexts.iter().find(|k| k.pred == pred && k.node == c).unwrap();
        let (from_a, from_b) = (ctx(a), ctx(bb));
        assert_eq!((from_a.count, from_b.count), (1, 1));
        // From A: add (visits), addi (visits), blt (visits, lim). From B the
        // add also reads `x`.
        assert_eq!((from_a.reg_deps.total(), from_b.reg_deps.total()), (4, 5));
        assert_ne!(from_a.reg_deps, from_b.reg_deps);
        let edges: Vec<(u32, u32, u64)> =
            prof.edges.iter().map(|e| (e.from, e.to, e.count)).collect();
        assert!(edges.contains(&(a, c, 1)) && edges.contains(&(bb, c, 1)), "{edges:?}");
    }

    /// `halt` ends its block: a record after it (here, the same run fed
    /// twice) enters the block again instead of growing it.
    #[test]
    fn halt_ends_a_block() {
        let mut b = ProgramBuilder::new("halt");
        b.li(r(1), 1);
        b.halt();
        let p = b.build();
        let mut profiler = Profiler::new(&p);
        for _ in 0..2 {
            Simulator::new(&p).run_blocks(10, &mut profiler).unwrap();
        }
        let prof = profiler.finish();
        assert_eq!(prof.nodes.len(), 1);
        assert_eq!((prof.nodes[0].size, prof.nodes[0].execs), (2, 2));
        let edges: Vec<(u32, u32, u64)> =
            prof.edges.iter().map(|e| (e.from, e.to, e.count)).collect();
        assert_eq!(edges, [(0, 0, 1)]);
    }

    #[test]
    #[should_panic]
    fn record_outside_the_program_panics() {
        let mut b = ProgramBuilder::new("short");
        b.halt();
        let mut profiler = Profiler::new(&b.build());
        profiler.enter_block(1);
    }

    #[test]
    fn mean_block_size_is_weighted() {
        let p = strided_loop(100, 8);
        let prof = profile_program(&p, 100_000).unwrap();
        let m = prof.mean_block_size();
        assert!(m > 3.0 && m < 7.0, "mean block size {m}");
    }
}
