//! The whole-run totals the fidelity gate judges, and their two producers.
//!
//! The gate compares a clone with its source on five attribute families,
//! and each comparison reads only totals over the whole run: the dynamic
//! class counts, the register dependence distances merged over every
//! context, the streams' address spans, the branch direction sums and the
//! instruction count. [`WorkloadProfile::totals`] reads them off a full
//! profile, the source's. [`TotalsCollector`] gathers them from a run a
//! basic block at a time and builds nothing else: no flow graph, no
//! contexts, no store-writer map, no stride runs and no direction
//! history. It shares the [`Profiler`](crate::Profiler)'s block
//! summaries, block boundaries and per-pc slots, and
//! `tests/profile_oracle.rs` holds the two producers equal. A new gate
//! attribute lands in [`ProfileTotals`], in both producers and in that
//! oracle together.

use perfclone_isa::{InstrMetaTable, Program};
use perfclone_sim::{BlockObserver, DynInstr, MemAccess};

use crate::collect::{ends_block, BlockDeps, Slot, UNSEEN};
use crate::hist::DepHistogram;
use crate::model::{mix_of, WorkloadProfile};

/// The whole-run totals of one run that the fidelity gate compares.
///
/// The sums over branches are plain sums; the dependence buckets and the
/// footprint saturate, so a corrupted profile's absurd counts stay
/// panic-free.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileTotals {
    /// Retired instructions.
    pub instrs: u64,
    /// Dynamic instructions per class, indexed by
    /// [`InstrClass::index`](perfclone_isa::InstrClass::index): each
    /// block's classes as its first visit found them, times its visits.
    pub class_counts: [u64; 10],
    /// Register dependence distances, every context merged.
    pub reg_deps: DepHistogram,
    /// Streams: the static loads and stores that ran, one each.
    pub streams: usize,
    /// The streams' footprint in bytes: over each stream that executed,
    /// its highest address less its lowest, plus its access width.
    pub footprint: u64,
    /// Conditional branch executions.
    pub branch_execs: u64,
    /// Of those, the ones taken.
    pub branch_taken: u64,
    /// Of those, the ones whose direction differed from the same branch's
    /// previous execution.
    pub branch_transitions: u64,
}

impl ProfileTotals {
    /// The dynamic instruction mix: each class's share of
    /// [`class_counts`](ProfileTotals::class_counts), all zero when no
    /// instruction counted.
    pub fn mix(&self) -> [f64; 10] {
        mix_of(&self.class_counts)
    }
}

/// One stream's contribution to the footprint.
fn span(min_addr: u64, max_addr: u64, width: u8) -> u64 {
    max_addr.saturating_sub(min_addr).saturating_add(u64::from(width))
}

impl WorkloadProfile {
    /// The totals the fidelity gate judges, read off this profile.
    pub fn totals(&self) -> ProfileTotals {
        let mut reg_deps = DepHistogram::new();
        for c in &self.contexts {
            reg_deps.merge(&c.reg_deps);
        }
        ProfileTotals {
            instrs: self.total_instrs,
            class_counts: self.class_counts(),
            reg_deps,
            streams: self.streams.len(),
            footprint: self
                .streams
                .iter()
                .filter(|s| s.execs > 0)
                .fold(0u64, |acc, s| acc.saturating_add(span(s.min_addr, s.max_addr, s.width))),
            branch_execs: self.branches.iter().map(|b| b.execs).sum(),
            branch_taken: self.branches.iter().map(|b| b.taken).sum(),
            branch_transitions: self.branches.iter().map(|b| b.transitions).sum(),
        }
    }
}

/// An SFG node, as far as the totals need it.
#[derive(Debug)]
struct NodeTotals {
    start_pc: u32,
    /// Records of the node's first visit, which fix its composition; 0
    /// until that visit ends.
    size: u32,
    execs: u64,
    deps: BlockDeps,
}

/// A static load or store's accesses, as far as the footprint needs them.
#[derive(Clone, Copy, Debug)]
struct StreamSpan {
    execs: u64,
    /// The access width the text gives the instruction, which each of its
    /// accesses has.
    width: u8,
    min_addr: u64,
    max_addr: u64,
}

/// A [`BlockObserver`] that gathers a run's [`ProfileTotals`] and keeps
/// nothing else — the fidelity gate's measure of a clone.
///
/// Like the [`Profiler`](crate::Profiler), it is bound to the [`Program`]
/// it was created for and is fed one run of that program as
/// [`Simulator::run_blocks`](perfclone_sim::Simulator::run_blocks)
/// delivers it. It works once per block, for the node's visit count and
/// the block's register dependences, and once per memory record, for the
/// stream's address span. Its tables are dense and indexed by pc: every
/// static load, store and conditional branch has its slot from the start,
/// and nodes are interned at their first visit.
///
/// # Panics
///
/// [`enter_block`](BlockObserver::enter_block) panics when the pc lies
/// outside the program, as indexing its tables does.
#[derive(Debug)]
pub struct TotalsCollector {
    meta: InstrMetaTable,
    slots: Vec<Slot>,
    /// Records retired so far; a record's 1-based position is one more.
    pos: u64,
    nodes: Vec<NodeTotals>,
    streams: Vec<StreamSpan>,
    /// Each conditional branch's last direction (0 or 1), or 2 before its
    /// first execution, so that `last ^ dir == 1` exactly when the
    /// direction switched.
    last_dirs: Vec<u8>,
    /// The current (or last) block: its node, start pc and the position
    /// of its first record.
    block_node: u32,
    block_pc: u32,
    block_pos: u64,
    /// Whether the last block entered has not ended: the window or a fault
    /// cut it short.
    open: bool,
    /// Position of each register's last writer, as of the last block end
    /// (0 = none).
    reg_writer: [u64; 64],
    /// The live-in dependences of every block end; the blocks' inner ones
    /// are added at [`finish`](TotalsCollector::finish).
    reg_deps: DepHistogram,
    branch_execs: u64,
    branch_taken: u64,
    branch_transitions: u64,
}

impl TotalsCollector {
    /// Creates a collector for `program`, with a slot for each of its
    /// static loads, stores and conditional branches.
    pub fn new(program: &Program) -> TotalsCollector {
        let meta = InstrMetaTable::new(program);
        let mut slots = vec![Slot { node: UNSEEN, site: UNSEEN }; program.len()];
        let (mut streams, mut last_dirs) = (Vec::new(), Vec::new());
        for ((slot, m), instr) in slots.iter_mut().zip(meta.as_slice()).zip(program.instrs()) {
            if let Some((_, width, _)) = instr.mem_ref() {
                slot.site = streams.len() as u32;
                let width = width.bytes() as u8;
                streams.push(StreamSpan { execs: 0, width, min_addr: u64::MAX, max_addr: 0 });
            } else if m.cond_branch {
                slot.site = last_dirs.len() as u32;
                last_dirs.push(2);
            }
        }
        TotalsCollector {
            meta,
            slots,
            pos: 0,
            nodes: Vec::new(),
            streams,
            last_dirs,
            block_node: 0,
            block_pc: 0,
            block_pos: 0,
            open: false,
            reg_writer: [0; 64],
            reg_deps: DepHistogram::new(),
            branch_execs: 0,
            branch_taken: 0,
            branch_transitions: 0,
        }
    }

    #[inline]
    fn node_at(&mut self, pc: u32) -> u32 {
        let slot = &mut self.slots[pc as usize];
        if slot.node == UNSEEN {
            slot.node = self.nodes.len() as u32;
            self.nodes.push(NodeTotals {
                start_pc: pc,
                size: 0,
                execs: 0,
                deps: BlockDeps::of(self.meta.as_slice(), pc),
            });
        }
        slot.node
    }

    /// Finalizes collection into the run's [`ProfileTotals`].
    pub fn finish(mut self) -> ProfileTotals {
        let metas = self.meta.as_slice();
        // As in `Profiler::finish`: the block the window or a fault cut
        // short gets the summary of its retired prefix, and every other
        // visit the inner dependences of its node's block.
        let unfinished = self.open.then(|| {
            let start = self.block_pc;
            let end = start as usize + (self.pos + 1 - self.block_pos) as usize;
            let prefix = BlockDeps::of(&metas[..end], start);
            prefix.record_live_ins(&mut self.reg_deps, &self.reg_writer, self.block_pos);
            self.reg_deps.merge(&prefix.inner);
            self.block_node
        });
        let mut class_counts = [0u64; 10];
        for (i, n) in (0u32..).zip(&self.nodes) {
            self.reg_deps.add_times(&n.deps.inner, n.execs - u64::from(unfinished == Some(i)));
            let text = n.start_pc as usize..(n.start_pc + n.size) as usize;
            for m in &metas[text] {
                class_counts[m.class.index()] += n.execs;
            }
        }
        let executed = self.streams.iter().filter(|s| s.execs > 0);
        ProfileTotals {
            instrs: self.pos,
            class_counts,
            reg_deps: self.reg_deps,
            streams: executed.clone().count(),
            // A profile's stream reports a lowest address of `u64::MAX`,
            // its "no access yet" value, as 0; so does the footprint here.
            footprint: executed.fold(0u64, |acc, s| {
                let min_addr = if s.min_addr == u64::MAX { 0 } else { s.min_addr };
                acc.saturating_add(span(min_addr, s.max_addr, s.width))
            }),
            branch_execs: self.branch_execs,
            branch_taken: self.branch_taken,
            branch_transitions: self.branch_transitions,
        }
    }
}

impl BlockObserver for TotalsCollector {
    // `#[inline]` so that `Gate::report` in another crate fuses the hooks
    // into its block loop, as the `Profiler`'s are fused into
    // `profile_program`'s.

    /// Enters the block starting at `pc` and counts its node's visit.
    #[inline]
    fn enter_block(&mut self, pc: u32) {
        let n = self.node_at(pc);
        self.nodes[n as usize].execs += 1;
        self.block_node = n;
        self.block_pc = pc;
        self.block_pos = self.pos + 1;
        self.open = true;
    }

    /// Widens the address span of the access's stream.
    #[inline]
    fn on_mem(&mut self, offset: u32, m: MemAccess) {
        let sid = self.slots[(self.block_pc + offset) as usize].site;
        let s = &mut self.streams[sid as usize];
        s.execs += 1;
        s.min_addr = s.min_addr.min(m.addr);
        s.max_addr = s.max_addr.max(m.addr);
    }

    /// Retires the block's `len` records: on the node's first visit its
    /// size, then, when `last` ends the block, the branch's direction and
    /// the block's live-in dependences and last definitions.
    #[inline]
    fn exit_block(&mut self, len: u32, last: &DynInstr) {
        let node = &mut self.nodes[self.block_node as usize];
        if node.size == 0 {
            node.size = len;
        }
        self.pos += u64::from(len);
        let meta = self.meta.at(last.pc);
        if !ends_block(meta) {
            return;
        }
        if meta.cond_branch {
            let dir = u8::from(last.taken);
            let last_dir = &mut self.last_dirs[self.slots[last.pc as usize].site as usize];
            self.branch_execs += 1;
            self.branch_taken += u64::from(dir);
            self.branch_transitions += u64::from(*last_dir ^ dir == 1);
            *last_dir = dir;
        }
        let base = self.block_pos;
        node.deps.record_live_ins(&mut self.reg_deps, &self.reg_writer, base);
        for &(r, off) in &node.deps.last_defs {
            self.reg_writer[usize::from(r)] = base + u64::from(off);
        }
        self.open = false;
    }
}
