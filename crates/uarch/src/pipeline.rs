//! Trace-driven superscalar pipeline timing model (the SimpleScalar
//! `sim-outorder` analogue).
//!
//! The pipeline consumes the correct-path retired-instruction stream of the
//! functional core ([`DynInstr`]) and models fetch (I-cache + branch
//! prediction), dispatch into a ROB/LSQ, out-of-order or in-order issue over
//! a functional-unit pool, execution latencies, a two-level data-cache
//! hierarchy, and in-order commit. Branch mispredictions stall fetch from
//! the mispredicted branch until it resolves, modelling the wrong-path
//! bubble without executing wrong-path instructions.

use perfclone_isa::{Instr, InstrClass, InstrMeta};
use perfclone_sim::{BatchReplay, DynInstr, MemAccess, ReplayChunk};

use crate::cache::{Cache, CacheStats};
use crate::config::{IssuePolicy, MachineConfig};
use crate::predictor::{BranchPredictor, PredictorStats};

/// Execution latency (cycles) for an instruction class, excluding memory.
fn exec_latency(class: InstrClass) -> u32 {
    match class {
        InstrClass::IntAlu | InstrClass::Branch | InstrClass::Jump => 1,
        InstrClass::IntMul => 3,
        InstrClass::IntDiv => 20,
        InstrClass::FpAlu => 2,
        InstrClass::FpMul => 4,
        InstrClass::FpDiv => 12,
        InstrClass::Load | InstrClass::Store => 1, // address generation
    }
}

/// The longest I-line fill: an L2 miss, served by memory and the line's
/// burst over the bus.
#[inline]
fn max_fill(config: &MachineConfig) -> u64 {
    u64::from(config.l2_latency)
        + u64::from(config.mem_latency)
        + u64::from(config.l2.line_bytes / config.mem_bus_bytes)
}

/// The longest latency an issue can schedule: a load that misses to
/// memory (address generation, the L1 access, then a fill), or a divide.
#[inline]
fn max_latency(config: &MachineConfig) -> u64 {
    (2 + max_fill(config)).max(u64::from(exec_latency(InstrClass::IntDiv)))
}

/// `W`, the most cycles that can pass between two consecutive commits, or
/// from the start to the first, while work remains (derived in DESIGN
/// §4h). The oldest uncommitted instruction waits on at most one of an
/// I-line fill or a busy divider, then on its own latency, and on one
/// cycle each to be fetched, dispatched, issued and committed.
#[inline]
fn commit_bound(config: &MachineConfig) -> u64 {
    max_fill(config).max(u64::from(exec_latency(InstrClass::IntDiv))) + max_latency(config) + 4
}

/// Functional-unit groups: the pool each class issues to. Multiply and
/// divide share a group, and a busy divider closes it to both.
const G_INT_ALU: u32 = 0;
const G_INT_MUL: u32 = 1;
const G_FP_ALU: u32 = 2;
const G_FP_MUL: u32 = 3;
const G_MEM: u32 = 4;

fn unit_group(class: InstrClass) -> u32 {
    match class {
        InstrClass::IntAlu | InstrClass::Branch | InstrClass::Jump => G_INT_ALU,
        InstrClass::IntMul | InstrClass::IntDiv => G_INT_MUL,
        InstrClass::FpAlu => G_FP_ALU,
        InstrClass::FpMul | InstrClass::FpDiv => G_FP_MUL,
        InstrClass::Load | InstrClass::Store => G_MEM,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Executing { done_at: u64 },
    Done,
}

/// Fixed-capacity producer list. An instruction reads at most three
/// registers ([`perfclone_isa::Instr::uses`] caps its `OperandList` at 3),
/// so the sequence numbers of its producers always fit inline — keeping
/// [`RobEntry`] `Copy` and the rename/issue paths free of heap traffic.
/// Readiness is checked lazily at issue time ([`Pipeline::deps_satisfied`])
/// instead of by broadcasting wakeups through the window, so the list is
/// immutable once built.
#[derive(Clone, Copy, Debug)]
struct DepList {
    seqs: [u64; 3],
    len: u8,
}

impl DepList {
    const EMPTY: DepList = DepList { seqs: [0; 3], len: 0 };

    #[inline]
    fn contains(&self, seq: u64) -> bool {
        self.seqs[..usize::from(self.len)].contains(&seq)
    }

    #[inline]
    fn push(&mut self, seq: u64) {
        self.seqs[usize::from(self.len)] = seq;
        self.len += 1;
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.seqs[..usize::from(self.len)].iter().copied()
    }
}

/// The record at the head of a [`RecordSource`], read where it lies: its
/// dynamic fields, and the static facts of its instruction. The iterator
/// front end derives those per record via [`InstrMeta::of`]; the batched
/// front end reads the pre-interned per-pc table, so neither touches the
/// instruction enum on the fetch hot path.
#[derive(Clone, Copy, Debug)]
struct Head<'a> {
    meta: &'a InstrMeta,
    pc: u32,
    next_pc: u32,
    taken: bool,
    mem: Option<MemAccess>,
}

/// Record supply for [`Pipeline::run_inner`]: a cursor over whichever
/// front end backs it. Fetch asks [`ready`](RecordSource::ready) whether a
/// record is left, reads it in place through [`view`](RecordSource::view),
/// and consumes it with [`advance`](RecordSource::advance) once it has
/// entered the window — a record that waits on an I-cache miss stays at
/// the head, so no lookahead copy is needed.
trait RecordSource {
    /// `true` while a record is left, loading the next one if needed.
    fn ready(&mut self) -> bool;

    /// The head record; meaningful only after `ready` returned `true`.
    fn view(&self) -> Head<'_>;

    /// Consumes the head record.
    fn advance(&mut self);
}

/// Record-at-a-time front end over any [`DynInstr`] iterator (interpreter
/// output, statsim synthetic traces, or the replay oracle). It holds one
/// record, with its static facts, while fetch has not consumed it.
struct IterSource<I> {
    iter: I,
    head: (InstrMeta, DynInstr),
    /// `head` holds a record fetch has not consumed yet.
    full: bool,
}

impl<I> IterSource<I> {
    fn new(iter: I) -> IterSource<I> {
        // A placeholder until the first record arrives; never viewed
        // while `full` is false.
        let nop = DynInstr { pc: 0, instr: Instr::Nop, next_pc: 1, taken: false, mem: None };
        IterSource { iter, head: (InstrMeta::of(&nop.instr), nop), full: false }
    }
}

impl<I: Iterator<Item = DynInstr>> RecordSource for IterSource<I> {
    #[inline]
    fn ready(&mut self) -> bool {
        if !self.full {
            if let Some(d) = self.iter.next() {
                self.head = (InstrMeta::of(&d.instr), d);
                self.full = true;
            }
        }
        self.full
    }

    #[inline]
    fn view(&self) -> Head<'_> {
        let (meta, d) = &self.head;
        Head { meta, pc: d.pc, next_pc: d.next_pc, taken: d.taken, mem: d.mem }
    }

    #[inline]
    fn advance(&mut self) {
        self.full = false;
    }
}

/// Batched front end: drains a [`BatchReplay`] chunk-by-chunk, re-entering
/// the decoder once per [`ReplayChunk`](perfclone_sim::ReplayChunk) instead
/// of once per record, and hands fetch each record's fields straight from
/// the chunk's arrays. Publishes `replay.batch.*` counters when dropped.
struct BatchSource<'a> {
    replay: BatchReplay<'a>,
    chunk: Box<ReplayChunk>,
    pos: usize,
    chunks: u64,
    records: u64,
}

impl<'a> BatchSource<'a> {
    fn new(replay: BatchReplay<'a>) -> BatchSource<'a> {
        BatchSource { replay, chunk: Box::new(ReplayChunk::new()), pos: 0, chunks: 0, records: 0 }
    }
}

impl RecordSource for BatchSource<'_> {
    #[inline]
    fn ready(&mut self) -> bool {
        if self.pos < self.chunk.len() {
            return true;
        }
        let n = self.replay.fill(&mut self.chunk);
        // A drained fill resets the chunk to empty; reset the cursor with
        // it so re-polling (the run loop asks every cycle while the window
        // drains) keeps hitting this refill path.
        self.pos = 0;
        if n == 0 {
            return false;
        }
        self.chunks += 1;
        self.records += n as u64;
        true
    }

    #[inline]
    fn view(&self) -> Head<'_> {
        let i = self.pos;
        let pc = self.chunk.pc(i);
        Head {
            meta: &self.replay.meta()[pc as usize],
            pc,
            next_pc: self.chunk.next_pc(i),
            taken: self.chunk.taken(i),
            mem: self.chunk.mem(i),
        }
    }

    #[inline]
    fn advance(&mut self) {
        self.pos += 1;
    }
}

impl Drop for BatchSource<'_> {
    fn drop(&mut self) {
        if self.chunks > 0 {
            perfclone_obs::count!("replay.batch.chunks", self.chunks);
            perfclone_obs::count!("replay.batch.records", self.records);
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    seq: u64,
    class: InstrClass,
    state: EntryState,
    deps: DepList,
    is_store: bool,
    is_load: bool,
    addr: u64,
    bytes: u8,
    mispredicted: bool,
    num_uses: u8,
    num_defs: u8,
}

/// Whether the non-empty byte ranges `[a, a + la)` and `[b, b + lb)`
/// share a byte, where a range may wrap past the top of the address
/// space: one range's start lies in the other. Without a wrap this is
/// `a < b + lb && b < a + la`.
#[inline]
fn ranges_overlap(a: u64, la: u8, b: u64, lb: u8) -> bool {
    b.wrapping_sub(a) < u64::from(la) || a.wrapping_sub(b) < u64::from(lb)
}

impl RobEntry {
    fn overlaps(&self, other: &RobEntry) -> bool {
        ranges_overlap(self.addr, self.bytes, other.addr, other.bytes)
    }

    /// Slab filler for [`Window`]; never observed by the model.
    const EMPTY: RobEntry = RobEntry {
        seq: 0,
        class: InstrClass::IntAlu,
        state: EntryState::Waiting,
        deps: DepList::EMPTY,
        is_store: false,
        is_load: false,
        addr: 0,
        bytes: 0,
        mispredicted: false,
        num_uses: 0,
        num_defs: 0,
    };
}

/// Fixed-capacity power-of-two ring holding the in-flight window. The
/// capacity covers the configured ROB plus fetch queue, so pushes guarded
/// by those limits can never overflow; indexing is a mask and an add with
/// none of `VecDeque`'s wrap/bounds branching on the scan-heavy hot path.
#[derive(Debug)]
struct Window {
    slab: Box<[RobEntry]>,
    mask: usize,
    head: usize,
    len: usize,
}

impl Window {
    fn new(min_cap: usize) -> Window {
        let cap = (min_cap + 1).next_power_of_two();
        Window {
            slab: vec![RobEntry::EMPTY; cap].into_boxed_slice(),
            mask: cap - 1,
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.slab[self.head])
    }

    /// Appends an entry at the back and returns its slot, still holding
    /// whatever entry last left it, for the caller to overwrite in place.
    #[inline]
    fn push_slot(&mut self) -> &mut RobEntry {
        debug_assert!(self.len <= self.mask, "window sized for ROB + fetch queue");
        let i = (self.head + self.len) & self.mask;
        self.len += 1;
        &mut self.slab[i]
    }

    #[inline]
    fn pop_front(&mut self) -> Option<RobEntry> {
        if self.len == 0 {
            return None;
        }
        let e = self.slab[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(e)
    }

    #[inline]
    fn at(&self, i: usize) -> &RobEntry {
        debug_assert!(i < self.len);
        &self.slab[(self.head + i) & self.mask]
    }

    #[inline]
    fn at_mut(&mut self, i: usize) -> &mut RobEntry {
        debug_assert!(i < self.len);
        &mut self.slab[(self.head + i) & self.mask]
    }

    /// Slab slot of entry `i`. An entry keeps its slot while it is in the
    /// window, so the issue queue and the completion wheel name entries
    /// by slot.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    /// Inverse of [`slot`](Window::slot).
    #[inline]
    fn index_of(&self, slot: usize) -> usize {
        slot.wrapping_sub(self.head) & self.mask
    }

    #[inline]
    fn in_slot_mut(&mut self, slot: usize) -> &mut RobEntry {
        &mut self.slab[slot]
    }
}

/// End-of-list marker in a [`Wheel`] bucket.
const NIL: u32 = u32::MAX;

/// Most buckets a [`Wheel`] gets, whatever the configured latencies.
const WHEEL_CAP: u64 = 4096;

/// Pending completions on a timing wheel. Bucket `done_at & mask` holds
/// the window slots of the Executing entries due then, linked through
/// `next`; a bitmap of non-empty buckets finds the next completion without
/// visiting empty ones. The wheel is longer than any latency an issue can
/// schedule, so a bucket holds only entries due on its next visit — unless
/// the latencies exceed [`WHEEL_CAP`], when a completion more than one lap
/// away stays in its bucket until the lap in which it falls due.
#[derive(Debug)]
struct Wheel {
    heads: Box<[u32]>,
    next: Box<[u32]>,
    occupied: Box<[u64]>,
    mask: u64,
}

impl Wheel {
    fn new(slots: usize, max_latency: u64) -> Wheel {
        let buckets = max_latency.saturating_add(1).next_power_of_two().clamp(64, WHEEL_CAP);
        Wheel {
            heads: vec![NIL; buckets as usize].into_boxed_slice(),
            next: vec![NIL; slots].into_boxed_slice(),
            occupied: vec![0; buckets as usize / 64].into_boxed_slice(),
            mask: buckets - 1,
        }
    }

    /// Files window slot `slot`, due at `done_at`.
    #[inline]
    fn push(&mut self, slot: usize, done_at: u64) {
        let b = (done_at & self.mask) as usize;
        self.next[slot] = self.heads[b];
        self.heads[b] = slot as u32;
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// Empties the bucket visited at `cycle` and returns its list.
    #[inline]
    fn take(&mut self, cycle: u64) -> u32 {
        let b = (cycle & self.mask) as usize;
        self.occupied[b / 64] &= !(1 << (b % 64));
        std::mem::replace(&mut self.heads[b], NIL)
    }

    /// The first cycle after `now` at which an entry due at `done_at` is
    /// visited: `done_at` itself unless it is more than a lap away.
    #[inline]
    fn visit(&self, now: u64, done_at: u64) -> u64 {
        now + 1 + ((done_at - now - 1) & self.mask)
    }

    /// The first cycle after `now` whose bucket is non-empty, or
    /// `u64::MAX` when the wheel is empty.
    #[inline]
    fn next_visit(&self, now: u64) -> u64 {
        let start = ((now + 1) & self.mask) as usize;
        let bits = self.occupied[start / 64] >> (start % 64);
        if bits != 0 {
            return now + 1 + u64::from(bits.trailing_zeros());
        }
        // The other words in order, then the start word again for its
        // buckets before `start`, which wrap round.
        let words = self.occupied.len();
        for k in 1..=words {
            let w = (start / 64 + k) & (words - 1);
            let bits = self.occupied[w];
            if bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                return now + 1 + (b.wrapping_sub(start) as u64 & self.mask);
            }
        }
        u64::MAX
    }
}

/// The issue queue: Waiting ROB entries in age order, as a list linked
/// through their window slots. An item is the entry's window slot shifted
/// left by 3 over its functional-unit group, so issue can pass over an
/// entry whose group is used up without reading the ROB, and it unlinks
/// an issued entry without moving the others.
#[derive(Debug)]
struct IssueQueue {
    /// Per window slot: the item after that slot's entry, or [`NIL`].
    link: Box<[u32]>,
    /// The oldest item, or [`NIL`] when the queue is empty.
    first: u32,
    /// Window slot of the youngest item (stale while the queue is empty).
    last: usize,
    len: usize,
}

impl IssueQueue {
    fn new(slots: usize) -> IssueQueue {
        IssueQueue { link: vec![NIL; slots].into_boxed_slice(), first: NIL, last: 0, len: 0 }
    }

    #[inline]
    fn push(&mut self, slot: usize, group: u32) {
        let item = (slot as u32) << 3 | group;
        if self.len == 0 {
            self.first = item;
        } else {
            self.link[self.last] = item;
        }
        self.link[slot] = NIL;
        self.last = slot;
        self.len += 1;
    }

    /// Unlinks the item in window slot `slot`, whose predecessor is in
    /// slot `prev` (`None` when it is the oldest), and returns the item
    /// after it.
    #[inline]
    fn unlink(&mut self, prev: Option<usize>, slot: usize) -> u32 {
        let next = self.link[slot];
        match prev {
            None => self.first = next,
            Some(p) => {
                self.link[p] = next;
                if next == NIL {
                    self.last = p;
                }
            }
        }
        self.len -= 1;
        next
    }
}

/// Per-structure activity counts for the power model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Activity {
    /// Instructions fetched.
    pub fetches: u64,
    /// Instructions dispatched into the window.
    pub dispatches: u64,
    /// Instructions issued to functional units.
    pub issues: u64,
    /// Instructions committed.
    pub commits: u64,
    /// Integer ALU operations executed (incl. branches).
    pub int_alu_ops: u64,
    /// Integer multiply/divide operations executed.
    pub int_mul_ops: u64,
    /// FP ALU operations executed.
    pub fp_alu_ops: u64,
    /// FP multiply/divide operations executed.
    pub fp_mul_ops: u64,
    /// Architectural register file reads.
    pub regfile_reads: u64,
    /// Architectural register file writes.
    pub regfile_writes: u64,
    /// Sum over cycles of ROB occupancy (for mean occupancy).
    pub rob_occupancy_sum: u64,
    /// Sum over cycles of LSQ occupancy.
    pub lsq_occupancy_sum: u64,
    /// Cycles the fetch stage was stalled on a branch misprediction.
    pub mispredict_stall_cycles: u64,
    /// Cycles the fetch stage was stalled on an I-cache miss.
    pub icache_stall_cycles: u64,
}

/// Results of one pipeline run. Every field is an exact integer count,
/// so `==` is the bit-identity the replay-equivalence tests rely on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineReport {
    /// Total simulation cycles.
    pub cycles: u64,
    /// Instructions committed.
    pub instrs: u64,
    /// L1 I-cache statistics.
    pub l1i: CacheStats,
    /// L1 D-cache statistics.
    pub l1d: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Branch predictor statistics.
    pub bpred: PredictorStats,
    /// Structure activity counts.
    pub activity: Activity,
}

impl PipelineReport {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// L1-D misses per committed instruction.
    pub fn l1d_mpi(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.l1d.misses as f64 / self.instrs as f64
        }
    }
}

/// The pipeline simulator. Construct with a [`MachineConfig`], then feed a
/// trace with [`run`](Pipeline::run).
#[derive(Debug)]
pub struct Pipeline {
    config: MachineConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    bpred: BranchPredictor,
    cycle: u64,
    /// The in-flight window: entries `[0, rob_len)` are the ROB, entries
    /// `[rob_len, len)` are the fetch queue. Instructions flow strictly
    /// FIFO from fetch through dispatch to commit, so one ring with a
    /// partition index models both queues and dispatch moves the
    /// partition instead of copying entries between deques.
    rob: Window,
    /// Number of entries at the front of [`rob`](Pipeline::rob) that have
    /// been dispatched into the reorder buffer.
    rob_len: usize,
    lsq_count: u32,
    next_seq: u64,
    fetch_blocked_on: Option<u64>,
    icache_ready_at: u64,
    last_fetch_line: u64,
    /// `log2(l1i.line_bytes)` — line sizes are asserted powers of two, so
    /// the per-record line computation in fetch is a shift, not a divide.
    l1i_line_shift: u32,
    /// `l2.line_bytes / mem_bus_bytes`, the memory burst transfer cycles,
    /// hoisted out of the per-miss latency computation.
    mem_burst_cycles: u32,
    int_div_busy_until: u64,
    fp_div_busy_until: u64,
    last_writer: [Option<u64>; 64],
    activity: Activity,
    committed: u64,
    /// The first cycle after the last writeback at which the wheel has a
    /// completion to visit (`u64::MAX` when none): lets
    /// [`writeback`](Pipeline::writeback) skip cycles where nothing can
    /// finish, and gives the stall skip its next completion.
    next_done_at: u64,
    /// Pending completions, filed at issue: an Executing entry cannot leave
    /// the ROB (commit requires Done), so writeback promotes exactly the
    /// entries in the bucket of the current cycle.
    wheel: Wheel,
    /// The ROB's Waiting entries in age order. Dispatch appends, issue
    /// removes, so issue never visits an entry that is not Waiting.
    waiting: IssueQueue,
    /// Units per functional-unit group, indexed by `G_*`.
    units: [u32; 5],
    /// Bit `g` set when group `g` has at least one unit: the free-unit
    /// mask an issue scan starts from, before the divider-busy bits.
    unit_mask: u32,
    /// Store entries currently in the ROB (any state): when zero, a load's
    /// forwarding scan in [`load_latency`](Pipeline::load_latency) cannot
    /// match and is skipped.
    store_count: u32,
    /// Store entries in the ROB that have not finished executing: when
    /// zero, [`load_ready`](Pipeline::load_ready) cannot find a blocking
    /// older store and returns without scanning.
    pending_stores: u32,
    /// `true` after an issue scan that found Waiting entries but issued
    /// nothing. The scan's outcome depends only on which entries are Done
    /// (writeback), which entries are Waiting (dispatch), and the divider
    /// busy times — commit only removes already-Done entries and cannot
    /// unblock anything — so until one of those wake events the re-scan
    /// must be fruitless too and is skipped.
    issue_asleep: bool,
    /// Earliest cycle a busy divider could unblock a sleeping issue scan
    /// (`u64::MAX` when no divider was busy at sleep time).
    issue_wake_at: u64,
    work: Work,
}

/// What one run cost the model, as opposed to what it simulated: pure
/// functions of trace and config, published once per run as the
/// `uarch.pipeline.cycles_skipped` and `uarch.issue.*` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Work {
    /// Cycles the run loop stepped through its stages.
    stepped: u64,
    /// Cycles the stall skip jumped over.
    skipped: u64,
    /// Issue calls that scanned the issue queue.
    scans: u64,
    /// Scans that issued nothing.
    fruitless: u64,
    /// Issue-queue entries the scans read.
    visits: u64,
    /// Readiness checks: visits whose unit group had a free unit.
    evaluated: u64,
}

impl Work {
    #[inline]
    fn publish(&self) {
        perfclone_obs::count!("uarch.pipeline.cycles_skipped", self.skipped);
        perfclone_obs::count!("uarch.issue.scans", self.scans);
        perfclone_obs::count!("uarch.issue.fruitless", self.fruitless);
        perfclone_obs::count!("uarch.issue.visits", self.visits);
        perfclone_obs::count!("uarch.issue.evaluated", self.evaluated);
    }
}

impl Pipeline {
    /// Creates a pipeline with cold caches and predictor.
    pub fn new(config: MachineConfig) -> Pipeline {
        let window = Window::new((config.rob_size + config.fetch_queue) as usize);
        let slots = window.slab.len();
        let units =
            [config.int_alu, config.int_mul, config.fp_alu, config.fp_mul, config.mem_ports];
        let unit_mask =
            units.iter().enumerate().filter(|&(_, &n)| n > 0).fold(0, |m, (g, _)| m | 1 << g);
        Pipeline {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            bpred: BranchPredictor::new(config.predictor),
            cycle: 0,
            wheel: Wheel::new(slots, max_latency(&config)),
            rob: window,
            rob_len: 0,
            lsq_count: 0,
            next_seq: 0,
            fetch_blocked_on: None,
            icache_ready_at: 0,
            last_fetch_line: u64::MAX,
            l1i_line_shift: config.l1i.line_bytes.trailing_zeros(),
            mem_burst_cycles: config.l2.line_bytes / config.mem_bus_bytes,
            int_div_busy_until: 0,
            fp_div_busy_until: 0,
            last_writer: [None; 64],
            activity: Activity::default(),
            committed: 0,
            next_done_at: u64::MAX,
            waiting: IssueQueue::new(slots),
            units,
            unit_mask,
            store_count: 0,
            pending_stores: 0,
            issue_asleep: false,
            issue_wake_at: 0,
            work: Work::default(),
        }
    }

    /// Runs the pipeline over a correct-path trace until every instruction
    /// has committed, returning the report.
    ///
    /// # Panics
    ///
    /// In every build, when no instruction commits within `W` cycles while
    /// work remains. DESIGN §4h proves that bound for any configuration
    /// with at least one unit of each kind the trace uses, so breaking it
    /// is a defect of the model.
    pub fn run<I: IntoIterator<Item = DynInstr>>(self, trace: I) -> PipelineReport {
        self.run_fast(IterSource::new(trace.into_iter()))
    }

    /// Runs the pipeline over a batched trace decoder until every
    /// instruction has committed. Consumes the trace chunk-by-chunk —
    /// avoiding per-record iterator dispatch and per-record `Instr`
    /// inspection — but models the *same* record stream as
    /// [`run`](Pipeline::run) over the replay oracle, bit-identically
    /// (property-tested in the workspace replay suites).
    ///
    /// # Panics
    ///
    /// As [`run`](Pipeline::run), when the model breaks its commit bound.
    pub fn run_batched(self, replay: BatchReplay<'_>) -> PipelineReport {
        self.run_fast(BatchSource::new(replay))
    }

    /// The model with every shortcut on; publishes its work counters.
    fn run_fast<S: RecordSource>(self, trace: S) -> PipelineReport {
        let (report, work) = self.run_inner::<true, _>(trace);
        work.publish();
        report
    }

    /// The model. `FAST` selects its shortcuts: the stall skip, the
    /// completion wheel, the issue queue and issue sleep. The naive
    /// instantiation (`FAST = false`) steps every cycle, scans the whole
    /// ROB for issue and for writeback, and never sleeps; only this
    /// crate's tests run it, as the oracle the fast one must equal.
    ///
    /// Both enforce [`commit_bound`]: a run that goes `W` cycles without a
    /// commit while work remains panics, so no run can loop forever.
    fn run_inner<const FAST: bool, S: RecordSource>(
        mut self,
        mut trace: S,
    ) -> (PipelineReport, Work) {
        let bound = commit_bound(&self.config);
        // The last cycle by which the next instruction must commit.
        let mut commit_by = bound;
        let mut stepped = 0;
        loop {
            let trace_empty = !trace.ready();
            if trace_empty && self.rob.is_empty() {
                break;
            }
            assert!(
                self.cycle < commit_by,
                "pipeline broke its commit bound: no instruction committed in the {bound} \
                 cycles to cycle {}; {} committed, {} in the ROB",
                self.cycle,
                self.committed,
                self.rob_len
            );
            self.cycle += 1;
            stepped += 1;
            let committed = self.committed;
            let issues = self.activity.issues;
            let dispatches = self.activity.dispatches;
            let fetches = self.activity.fetches;
            self.commit();
            if self.committed != committed {
                commit_by = self.cycle + bound;
            }
            let wrote_back = if FAST { self.writeback() } else { self.writeback_scan() };
            if FAST {
                self.issue();
            } else {
                self.issue_scan();
            }
            self.dispatch::<FAST>();
            self.fetch(&mut trace);
            self.activity.rob_occupancy_sum += self.rob_len as u64;
            self.activity.lsq_occupancy_sum += u64::from(self.lsq_count);
            let quiescent = FAST
                && !wrote_back
                && committed == self.committed
                && issues == self.activity.issues
                && dispatches == self.activity.dispatches
                && fetches == self.activity.fetches;
            if quiescent {
                self.skip(commit_by);
            }
        }
        let report = PipelineReport {
            cycles: self.cycle,
            instrs: self.committed,
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            bpred: self.bpred.stats(),
            activity: self.activity,
        };
        (report, Work { stepped, ..self.work })
    }

    /// Stall skip, after a quiescent cycle (no stage moved anything): the
    /// model's state is frozen until the next event — the earliest
    /// in-flight completion (which also unblocks commit, dependents, and
    /// a mispredict-blocked fetch), the I-cache line arrival, or a divider
    /// becoming free. Every one of those times is tracked exactly (a
    /// capped wheel may report a completion's bucket a lap early, which
    /// costs one stepped cycle), so jumping there and accumulating the
    /// per-cycle statistics in bulk is bit-identical to stepping cycle by
    /// cycle. The jump never passes `commit_by`, the cycle by which the
    /// next commit is due: with no event before it (none at all, in a
    /// wedged model), the run loop's bound check trips there.
    #[inline]
    fn skip(&mut self, commit_by: u64) {
        let mut ev = self.next_done_at;
        // A line that arrives this very cycle (a zero-latency refill) is
        // fetched on the next one: an event, not a wedge.
        if self.fetch_blocked_on.is_none() && self.icache_ready_at >= self.cycle {
            ev = ev.min(self.icache_ready_at);
        }
        if self.waiting.len > 0 {
            // A waiting div/mul may be gated only on the divider.
            if self.int_div_busy_until > self.cycle {
                ev = ev.min(self.int_div_busy_until);
            }
            if self.fp_div_busy_until > self.cycle {
                ev = ev.min(self.fp_div_busy_until);
            }
        }
        if ev > self.cycle + 1 {
            // Land one cycle short of the event so the normal loop body
            // executes the event cycle itself.
            let target = (ev - 1).min(commit_by);
            let k = target - self.cycle;
            self.cycle = target;
            self.work.skipped += k;
            self.activity.rob_occupancy_sum += k * self.rob_len as u64;
            self.activity.lsq_occupancy_sum += k * u64::from(self.lsq_count);
            // Replicate fetch's per-cycle stall accounting for the skipped
            // cycles (its branch conditions are constant across them: no
            // writeback ran, so the block holds, and the line-arrival time
            // is beyond the target).
            if self.fetch_blocked_on.is_some() {
                self.activity.mispredict_stall_cycles += k;
            } else if self.icache_ready_at > target {
                self.activity.icache_stall_cycles += k;
            }
        }
    }

    /// Walks the data hierarchy for one access, returning its latency.
    #[inline]
    fn data_latency(&mut self, addr: u64, is_write: bool) -> u32 {
        let r1 = self.l1d.access(addr, is_write);
        if r1.hit {
            return 1;
        }
        let r2 = self.l2.access(addr, false);
        if r1.writeback {
            // L1 victim write-back consumes an L2 write access.
            self.l2.access(addr, true);
        }
        if r2.hit {
            1 + self.config.l2_latency
        } else {
            1 + self.config.l2_latency + self.config.mem_latency + self.mem_burst_cycles
        }
    }

    /// A load's latency at issue time. Forwarding from an older in-flight
    /// store was detected at issue-readiness time; if we got here with an
    /// overlapping Done store still in the ROB, forward in one cycle. With
    /// no store anywhere in the window the scan cannot match — skip it.
    #[inline]
    fn load_latency(&mut self, seq: u64, addr: u64, bytes: u8) -> u32 {
        let mut fwd = false;
        if self.store_count > 0 {
            for i in 0..self.rob.len() {
                let o = self.rob.at(i);
                if o.seq == seq {
                    break;
                }
                if o.is_store && ranges_overlap(o.addr, o.bytes, addr, bytes) {
                    fwd = true;
                    break;
                }
            }
        }
        if fwd {
            2 // agen + forward
        } else {
            1 + self.data_latency(addr, false)
        }
    }

    #[inline]
    fn commit(&mut self) {
        for _ in 0..self.config.commit_width {
            if self.rob_len == 0 {
                break; // window front is a fetch-queue entry (or empty)
            }
            match self.rob.front() {
                Some(e) if e.state == EntryState::Done => {}
                _ => break,
            }
            let Some(e) = self.rob.pop_front() else { break };
            self.rob_len -= 1;
            if e.is_store {
                // Stores write the D-cache at commit; latency is absorbed
                // by the write buffer.
                let r1 = self.l1d.access(e.addr, true);
                if !r1.hit {
                    self.l2.access(e.addr, false);
                    if r1.writeback {
                        self.l2.access(e.addr, true);
                    }
                }
            }
            if e.is_store || e.is_load {
                self.lsq_count -= 1;
            }
            if e.is_store {
                self.store_count -= 1;
            }
            self.activity.commits += 1;
            self.activity.regfile_writes += u64::from(e.num_defs);
            self.committed += 1;
        }
    }

    /// Promotes the completions due this cycle, returning whether any was.
    #[inline]
    fn writeback(&mut self) -> bool {
        let cycle = self.cycle;
        if self.next_done_at > cycle {
            return false; // nothing can finish this cycle
        }
        // Promotion order within a cycle is immaterial: each entry's
        // effects (Done state, store/mispredict bookkeeping) are
        // independent of the others'.
        let mut promoted = false;
        let mut slot = self.wheel.take(cycle);
        while slot != NIL {
            let s = slot as usize;
            slot = self.wheel.next[s];
            match self.rob.in_slot_mut(s).state {
                // Due in a later lap of a capped wheel: file it again.
                EntryState::Executing { done_at } if done_at > cycle => self.wheel.push(s, done_at),
                _ => {
                    self.promote(s);
                    promoted = true;
                }
            }
        }
        self.next_done_at = self.wheel.next_visit(cycle);
        promoted
    }

    /// The naive writeback: scans the whole ROB for due completions.
    fn writeback_scan(&mut self) -> bool {
        let mut promoted = false;
        for idx in 0..self.rob_len {
            if let EntryState::Executing { done_at } = self.rob.at(idx).state {
                if done_at <= self.cycle {
                    self.promote(self.rob.slot(idx));
                    promoted = true;
                }
            }
        }
        promoted
    }

    /// Marks the Executing entry in window slot `slot` Done.
    fn promote(&mut self, slot: usize) {
        let e = self.rob.in_slot_mut(slot);
        debug_assert!(matches!(e.state, EntryState::Executing { .. }));
        e.state = EntryState::Done;
        let (seq, is_store, mispredicted) = (e.seq, e.is_store, e.mispredicted);
        // A new Done entry may satisfy a sleeping scan's deps.
        self.issue_asleep = false;
        if is_store {
            self.pending_stores -= 1;
        }
        if mispredicted && self.fetch_blocked_on == Some(seq) {
            self.fetch_blocked_on = None;
        }
    }

    /// `true` when every producer of ROB entry `idx` has finished
    /// execution (or already committed). O(1) per producer: the window
    /// holds the contiguous in-flight range `[oldest, next_seq)`, so a
    /// sequence number below the window head has committed, one inside
    /// the ROB partition is found by direct indexing, and one at or beyond
    /// the partition is still in the fetch queue (never executed).
    #[inline]
    fn deps_satisfied(&self, idx: usize) -> bool {
        let e = self.rob.at(idx);
        let front = e.seq - idx as u64;
        e.deps.iter().all(|w| {
            w < front || {
                let i = (w - front) as usize;
                i < self.rob_len && self.rob.at(i).state == EntryState::Done
            }
        })
    }

    /// Starts ROB entry `idx` executing this cycle, returning the cycle it
    /// completes. The caller charges the functional unit.
    #[inline(always)]
    fn launch(&mut self, idx: usize) -> u64 {
        let (class, is_load, seq, addr, bytes) = {
            let e = self.rob.at(idx);
            (e.class, e.is_load, e.seq, e.addr, e.bytes)
        };
        let lat = if is_load { self.load_latency(seq, addr, bytes) } else { exec_latency(class) };
        let done_at = self.cycle + u64::from(lat);
        let e = self.rob.at_mut(idx);
        e.state = EntryState::Executing { done_at };
        self.activity.issues += 1;
        self.activity.regfile_reads += u64::from(e.num_uses);
        match class {
            InstrClass::IntAlu | InstrClass::Branch | InstrClass::Jump => {
                self.activity.int_alu_ops += 1;
            }
            InstrClass::IntMul => self.activity.int_mul_ops += 1,
            InstrClass::IntDiv => {
                self.int_div_busy_until = done_at;
                self.activity.int_mul_ops += 1;
            }
            InstrClass::FpAlu => self.activity.fp_alu_ops += 1,
            InstrClass::FpMul => self.activity.fp_mul_ops += 1,
            InstrClass::FpDiv => {
                self.fp_div_busy_until = done_at;
                self.activity.fp_mul_ops += 1;
            }
            InstrClass::Load | InstrClass::Store => {}
        }
        done_at
    }

    /// Issues from the issue queue, oldest first. An entry whose unit
    /// group is used up this cycle is passed over on its tag alone; the
    /// scan ends when the issue width is spent or no group has a free
    /// unit.
    #[inline]
    fn issue(&mut self) {
        if self.waiting.len == 0 {
            return;
        }
        if self.issue_asleep && self.cycle < self.issue_wake_at {
            // The last scan was fruitless and no wake event (writeback
            // promotion, dispatch, divider release) has occurred since:
            // the re-scan would be fruitless too.
            return;
        }
        self.issue_asleep = false;
        let cycle = self.cycle;
        let mut free = self.unit_mask;
        if self.int_div_busy_until > cycle {
            free &= !(1 << G_INT_MUL);
        }
        if self.fp_div_busy_until > cycle {
            free &= !(1 << G_FP_MUL);
        }
        let mut left = self.units;
        let mut budget = self.config.issue_width;
        let in_order = self.config.issue_policy == IssuePolicy::InOrder;
        let mut prev = None;
        let mut item = self.waiting.first;
        let mut visits = 0;
        let mut evaluated = 0;
        while item != NIL && budget > 0 && free != 0 {
            let g = item & 7;
            let slot = (item >> 3) as usize;
            visits += 1;
            let ready = free & (1 << g) != 0 && {
                evaluated += 1;
                let idx = self.rob.index_of(slot);
                self.deps_satisfied(idx) && self.load_ready(idx)
            };
            if !ready {
                if in_order {
                    // In-order issue: stop at the first instruction that
                    // cannot issue this cycle.
                    break;
                }
                prev = Some(slot);
                item = self.waiting.link[slot];
                continue;
            }
            item = self.waiting.unlink(prev, slot);
            let done_at = self.launch(self.rob.index_of(slot));
            self.wheel.push(slot, done_at);
            self.next_done_at = self.next_done_at.min(self.wheel.visit(cycle, done_at));
            budget -= 1;
            left[g as usize] -= 1;
            if left[g as usize] == 0 {
                free &= !(1 << g);
            }
            // An issued divide holds its divider, closing its group.
            if self.int_div_busy_until > cycle {
                free &= !(1 << G_INT_MUL);
            }
            if self.fp_div_busy_until > cycle {
                free &= !(1 << G_FP_MUL);
            }
        }
        self.work.scans += 1;
        self.work.visits += visits;
        self.work.evaluated += evaluated;
        if budget == self.config.issue_width {
            // Issued nothing: sleep until a wake event. A busy divider can
            // unblock a waiting mul/div purely by time passing, so cap the
            // sleep at its release.
            self.work.fruitless += 1;
            self.issue_asleep = true;
            let mut wake = u64::MAX;
            if self.int_div_busy_until > cycle {
                wake = wake.min(self.int_div_busy_until);
            }
            if self.fp_div_busy_until > cycle {
                wake = wake.min(self.fp_div_busy_until);
            }
            self.issue_wake_at = wake;
        }
    }

    /// The naive issue stage: scans the whole ROB, oldest first, checking
    /// every Waiting entry against the free units of its class.
    fn issue_scan(&mut self) {
        let cycle = self.cycle;
        let mut budget = self.config.issue_width;
        let mut int_alu_free = self.config.int_alu;
        let mut int_mul_free = self.config.int_mul;
        let mut fp_alu_free = self.config.fp_alu;
        let mut fp_mul_free = self.config.fp_mul;
        let mut mem_ports_free = self.config.mem_ports;
        for i in 0..self.rob_len {
            if budget == 0 {
                break;
            }
            let (state, class) = {
                let e = self.rob.at(i);
                (e.state, e.class)
            };
            if state != EntryState::Waiting {
                continue;
            }
            let unit_ok = match class {
                InstrClass::IntAlu | InstrClass::Branch | InstrClass::Jump => int_alu_free > 0,
                InstrClass::IntMul | InstrClass::IntDiv => {
                    int_mul_free > 0 && self.int_div_busy_until <= cycle
                }
                InstrClass::FpAlu => fp_alu_free > 0,
                InstrClass::FpMul | InstrClass::FpDiv => {
                    fp_mul_free > 0 && self.fp_div_busy_until <= cycle
                }
                InstrClass::Load | InstrClass::Store => mem_ports_free > 0,
            };
            if unit_ok && self.deps_satisfied(i) && self.load_ready(i) {
                self.launch(i);
                budget -= 1;
                *match class {
                    InstrClass::IntAlu | InstrClass::Branch | InstrClass::Jump => &mut int_alu_free,
                    InstrClass::IntMul | InstrClass::IntDiv => &mut int_mul_free,
                    InstrClass::FpAlu => &mut fp_alu_free,
                    InstrClass::FpMul | InstrClass::FpDiv => &mut fp_mul_free,
                    InstrClass::Load | InstrClass::Store => &mut mem_ports_free,
                } -= 1;
            } else if self.config.issue_policy == IssuePolicy::InOrder {
                break;
            }
        }
    }

    /// Loads may not issue past an older overlapping store that has not
    /// finished address generation/execution.
    fn load_ready(&self, idx: usize) -> bool {
        // With no unfinished store anywhere in the window, no older store
        // can block: skip the O(idx) scan.
        if !self.rob.at(idx).is_load || self.pending_stores == 0 {
            return true;
        }
        let load = self.rob.at(idx);
        for i in 0..idx {
            let older = self.rob.at(i);
            if older.is_store && older.overlaps(load) && older.state != EntryState::Done {
                return false;
            }
        }
        true
    }

    fn dispatch<const FAST: bool>(&mut self) {
        for _ in 0..self.config.decode_width {
            if self.rob_len == self.rob.len() {
                break; // fetch-queue partition is empty
            }
            if self.rob_len >= self.config.rob_size as usize {
                break;
            }
            let front = self.rob.at(self.rob_len);
            let is_mem = front.is_load || front.is_store;
            if is_mem && self.lsq_count >= self.config.lsq_size {
                break;
            }
            let is_store = front.is_store;
            if FAST {
                self.waiting.push(self.rob.slot(self.rob_len), unit_group(front.class));
            }
            // Admit the entry by moving the partition: no data moves.
            self.rob_len += 1;
            if is_mem {
                self.lsq_count += 1;
            }
            if is_store {
                self.store_count += 1;
                self.pending_stores += 1;
            }
            self.activity.dispatches += 1;
            // A new Waiting entry may be issuable where the rest are not.
            self.issue_asleep = false;
        }
    }

    /// Fetches up to `fetch_width` records into the fetch queue. Each
    /// entry is built in its window slot and renamed straight into its
    /// dependence list: an entry built on the stack and copied in is read
    /// back with wider loads than the stores that just wrote its list,
    /// which defeats store-to-load forwarding.
    fn fetch<S: RecordSource>(&mut self, trace: &mut S) {
        if self.fetch_blocked_on.is_some() {
            // Blocked until the mispredicted branch resolves; writeback
            // clears the block.
            self.activity.mispredict_stall_cycles += 1;
            return;
        }
        if self.icache_ready_at > self.cycle {
            self.activity.icache_stall_cycles += 1;
            return;
        }
        let mut budget = self.config.fetch_width;
        while budget > 0 && self.rob.len() - self.rob_len < self.config.fetch_queue as usize {
            if !trace.ready() {
                break;
            }
            let d = trace.view();
            // I-cache access, one per new line.
            let addr = perfclone_isa::Program::instr_addr(d.pc);
            let line = addr >> self.l1i_line_shift;
            if line != self.last_fetch_line {
                let r = self.l1i.access(addr, false);
                self.last_fetch_line = line;
                if !r.hit {
                    let r2 = self.l2.access(addr, false);
                    let lat = if r2.hit {
                        self.config.l2_latency
                    } else {
                        self.config.l2_latency + self.config.mem_latency + self.mem_burst_cycles
                    };
                    self.icache_ready_at = self.cycle + u64::from(lat);
                    return; // instruction fetched once the line arrives
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.activity.fetches += 1;
            budget -= 1;

            let m = d.meta;
            let (mispredicted, stop) = if m.cond_branch {
                let pred = self.bpred.predict_and_update(d.pc, d.taken);
                // A taken branch breaks the fetch group too.
                (pred != d.taken, pred != d.taken || d.taken)
            } else {
                // So does any other redirect (a jump).
                (false, d.next_pc != d.pc.wrapping_add(1))
            };
            if mispredicted {
                self.fetch_blocked_on = Some(seq);
            }
            let (is_load, is_store, addr, bytes) = match d.mem {
                Some(a) => (!a.is_store, a.is_store, a.addr, a.bytes),
                None => (false, false, 0, 0),
            };
            let e = self.rob.push_slot();
            *e = RobEntry {
                seq,
                class: m.class,
                state: EntryState::Waiting,
                deps: DepList::EMPTY,
                is_store,
                is_load,
                addr,
                bytes,
                mispredicted,
                num_uses: m.num_uses,
                num_defs: m.num_defs,
            };
            // Rename: record the last writer of each source register.
            // Whether that producer is still in flight is resolved lazily
            // at issue time ([`deps_satisfied`](Pipeline::deps_satisfied)).
            for &u in m.uses() {
                if let Some(w) = self.last_writer[usize::from(u)] {
                    if !e.deps.contains(w) {
                        e.deps.push(w);
                    }
                }
            }
            // Record this instruction as the latest writer of its defs.
            for &def in m.defs() {
                self.last_writer[usize::from(def)] = Some(seq);
            }
            trace.advance();
            if stop {
                self.last_fetch_line = u64::MAX;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::base_config;
    use perfclone_isa::{ProgramBuilder, Reg};
    use perfclone_sim::Simulator;
    use proptest::prelude::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn run_program(p: &perfclone_isa::Program, config: MachineConfig) -> PipelineReport {
        Pipeline::new(config).run(Simulator::trace(p, u64::MAX))
    }

    /// An independent-ALU-op loop: ILP limited only by width.
    fn alu_loop(n: i64) -> perfclone_isa::Program {
        let mut b = ProgramBuilder::new("alu");
        let (i, lim) = (r(1), r(2));
        b.li(i, 0);
        b.li(lim, n);
        let top = b.label();
        b.bind(top);
        b.addi(r(3), r(3), 1);
        b.addi(r(4), r(4), 1);
        b.addi(r(5), r(5), 1);
        b.addi(r(6), r(6), 1);
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        b.build()
    }

    #[test]
    fn a_store_wrapping_the_address_space_forwards_to_its_load() {
        // An 8-byte store at -4 covers the top four and the bottom four
        // bytes of the address space; the load of the same bytes must
        // wait for it and forward from it exactly as it does at 0x1000.
        let run_at = |addr: i64| {
            let mut b = ProgramBuilder::new("wrap");
            b.li(r(1), addr);
            b.li(r(2), 7);
            b.sd(r(2), r(1), 0);
            b.ld(r(3), r(1), 0);
            b.halt();
            run_program(&b.build(), base_config())
        };
        assert_eq!(run_at(-4), run_at(0x1000));
        assert!(ranges_overlap(u64::MAX - 3, 8, 2, 1));
        assert!(ranges_overlap(2, 1, u64::MAX - 3, 8));
        assert!(!ranges_overlap(u64::MAX - 3, 8, 4, 8));
        assert!(!ranges_overlap(0x1000, 8, 0x1008, 8));
    }

    #[test]
    fn commits_every_instruction() {
        let p = alu_loop(100);
        let rep = run_program(&p, base_config());
        assert_eq!(rep.instrs, 2 + 600 + 1);
        assert!(rep.cycles > 0);
    }

    #[test]
    fn ipc_bounded_by_issue_width() {
        let p = alu_loop(500);
        let rep = run_program(&p, base_config());
        assert!(rep.ipc() <= 1.0 + 1e-9, "ipc = {}", rep.ipc());
        assert!(rep.ipc() > 0.5, "ipc = {}", rep.ipc());
    }

    #[test]
    fn doubling_width_speeds_up_parallel_code() {
        let p = alu_loop(500);
        let base = run_program(&p, base_config());
        let wide = run_program(&p, crate::config::change_double_width());
        assert!(wide.ipc() > 1.2 * base.ipc(), "base {} wide {}", base.ipc(), wide.ipc());
        assert!(wide.ipc() <= 2.0 + 1e-9);
    }

    #[test]
    fn serial_dependence_chain_limits_ipc() {
        // A chain of dependent multiplies: IPC ~ 1/3 (mul latency 3).
        let mut b = ProgramBuilder::new("chain");
        let (i, lim) = (r(1), r(2));
        b.li(i, 0);
        b.li(lim, 300);
        b.li(r(3), 1);
        let top = b.label();
        b.bind(top);
        b.mul(r(3), r(3), r(3));
        b.mul(r(3), r(3), r(3));
        b.mul(r(3), r(3), r(3));
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        let p = b.build();
        let rep = run_program(&p, base_config());
        assert!(rep.ipc() < 0.6, "ipc = {}", rep.ipc());
    }

    #[test]
    fn mispredictions_cost_cycles() {
        // A data-dependent unpredictable branch vs an always-taken one.
        let build = |pattern_random: bool| {
            let mut b = ProgramBuilder::new("br");
            let (i, lim, x, t) = (r(1), r(2), r(3), r(4));
            b.li(i, 0);
            b.li(lim, 2_000);
            b.li(x, 0x9e3779b9);
            let top = b.label();
            let skip = b.label();
            b.bind(top);
            if pattern_random {
                // xorshift for a pseudo-random direction
                b.srli(t, x, 13);
                b.xor(x, x, t);
                b.slli(t, x, 7);
                b.xor(x, x, t);
                b.andi(t, x, 1);
            } else {
                b.li(t, 0);
            }
            b.bnez(t, skip);
            b.nop();
            b.bind(skip);
            b.addi(i, i, 1);
            b.blt(i, lim, top);
            b.halt();
            b.build()
        };
        let predictable = run_program(&build(false), base_config());
        let random = run_program(&build(true), base_config());
        assert!(random.bpred.mispredict_rate() > 0.15);
        assert!(predictable.bpred.mispredict_rate() < 0.05);
        // Per-instruction cost must be visibly higher with random branches.
        let cpi_p = 1.0 / predictable.ipc();
        let cpi_r = 1.0 / random.ipc();
        assert!(cpi_r > cpi_p, "cpi_r {cpi_r} cpi_p {cpi_p}");
    }

    #[test]
    fn cache_misses_cost_cycles() {
        // Stream far beyond L2 vs a tiny resident loop.
        let build = |stride: i64, len: u32| {
            let mut b = ProgramBuilder::new("mem");
            let id = b.stream(perfclone_isa::StreamDesc { base: 0x10_0000, stride, length: len });
            let (i, lim) = (r(1), r(2));
            b.li(i, 0);
            b.li(lim, 3_000);
            let top = b.label();
            b.bind(top);
            b.ld_stream(r(3), id, perfclone_isa::MemWidth::B8);
            b.addi(i, i, 1);
            b.blt(i, lim, top);
            b.halt();
            b.build()
        };
        let resident = run_program(&build(8, 4), base_config());
        let streaming = run_program(&build(64, 1 << 20), base_config());
        assert!(streaming.l1d_mpi() > 0.2, "mpi {}", streaming.l1d_mpi());
        assert!(resident.l1d_mpi() < 0.01, "mpi {}", resident.l1d_mpi());
        assert!(streaming.ipc() < 0.5 * resident.ipc());
    }

    #[test]
    fn in_order_is_not_faster_than_out_of_order() {
        let p = alu_loop(400);
        let ooo = run_program(&p, base_config());
        let ino = run_program(&p, crate::config::change_in_order());
        assert!(ino.ipc() <= ooo.ipc() + 1e-9);
    }

    #[test]
    fn store_load_forwarding_preserves_order() {
        // store then immediately load the same address, repeatedly.
        let mut b = ProgramBuilder::new("fwd");
        let a = b.alloc(8);
        let (i, lim, p_r, v) = (r(1), r(2), r(3), r(4));
        b.li(i, 0);
        b.li(lim, 500);
        b.li(p_r, a as i64);
        let top = b.label();
        b.bind(top);
        b.sd(i, p_r, 0);
        b.ld(v, p_r, 0);
        b.add(v, v, i);
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        let p = b.build();
        let rep = run_program(&p, base_config());
        assert_eq!(rep.instrs, 3 + 500 * 5 + 1);
        // Forwarded loads should not all miss in the cache.
        assert!(rep.l1d_mpi() < 0.05);
    }

    /// A mixed workload exercising loads, stores, forwarding, branches,
    /// and jumps — the record shapes the batched front end must carry.
    fn mixed_program() -> perfclone_isa::Program {
        let mut b = ProgramBuilder::new("mixed");
        let a = b.alloc(64);
        let (i, lim, p_r, v, t) = (r(1), r(2), r(3), r(4), r(5));
        b.li(i, 0);
        b.li(lim, 400);
        b.li(p_r, a as i64);
        let top = b.label();
        let skip = b.label();
        b.bind(top);
        b.sd(i, p_r, 0);
        b.ld(v, p_r, 0);
        b.srli(t, v, 1);
        b.andi(t, t, 1);
        b.bnez(t, skip);
        b.mul(v, v, v);
        b.bind(skip);
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        b.build()
    }

    #[test]
    fn batched_run_is_bit_identical_to_iterator_run() {
        use perfclone_isa::InstrMetaTable;
        use perfclone_sim::TraceStore;
        let p = mixed_program();
        let packed = TraceStore::capture(&p, u64::MAX, usize::MAX, &std::env::temp_dir()).unwrap();
        let meta = InstrMetaTable::new(&p);
        let mut configs = vec![base_config()];
        configs.extend(crate::config::design_changes());
        for config in configs {
            let oracle = Pipeline::new(config).run(packed.replay(&p));
            let batched = Pipeline::new(config).run_batched(packed.replay_batched(&p, &meta));
            assert_eq!(oracle, batched, "batched report diverged for {config:?}");
        }
    }

    /// The model over a recorded trace: the shipped model when `FAST`,
    /// the naive oracle otherwise.
    fn model<const FAST: bool>(
        config: MachineConfig,
        trace: &[DynInstr],
    ) -> (PipelineReport, Work) {
        Pipeline::new(config).run_inner::<FAST, _>(IterSource::new(trace.iter().copied()))
    }

    /// Asserts the fast model equals the naive one on `trace` and keeps
    /// within `W` cycles per committed instruction, returning the fast
    /// run's work. A naive run that never drains trips the bound too.
    fn assert_matches_naive(config: MachineConfig, trace: &[DynInstr]) -> Work {
        let (fast, work) = model::<true>(config, trace);
        let (naive, _) = model::<false>(config, trace);
        assert_eq!(naive, fast, "run diverged for {config:?}");
        let bound = commit_bound(&config);
        assert!(
            fast.cycles <= fast.instrs * bound,
            "{} cycles for {} instructions at W = {bound}",
            fast.cycles,
            fast.instrs
        );
        work
    }

    /// Clones of the Tiny kernels: profiled once, synthesized per seed.
    fn clone_trace(kernel: usize, seed: u64) -> Vec<DynInstr> {
        use perfclone_kernels::{catalog, Scale};
        use perfclone_profile::WorkloadProfile;
        use std::sync::OnceLock;
        static PROFILES: OnceLock<Vec<WorkloadProfile>> = OnceLock::new();
        let profiles = PROFILES.get_or_init(|| {
            catalog()
                .iter()
                .map(|k| {
                    let program = k.build(Scale::Tiny).program;
                    perfclone_profile::profile_program(&program, 20_000).expect("kernel profiles")
                })
                .collect()
        });
        let params = perfclone_synth::SynthesisParams {
            seed,
            target_dynamic: 3_000,
            ..perfclone_synth::SynthesisParams::default()
        };
        let clone = perfclone_synth::synthesize(&profiles[kernel % profiles.len()], &params)
            .expect("clone synthesizes");
        Simulator::trace(&clone, 6_000).collect()
    }

    /// Random machines: every predictor kind and both issue policies over
    /// the width, window, unit and latency ranges the oracle covers.
    fn machine() -> impl Strategy<Value = MachineConfig> {
        use crate::cache::{Assoc, CacheConfig};
        use crate::predictor::PredictorKind;
        let widths = (1u32..=8, 1u32..=8, 1u32..=8, 1u32..=8);
        let window = (1u32..=128, 1u32..=16, 1u32..=64);
        let units = (1u32..=4, 1u32..=4, 1u32..=4, 1u32..=4, 1u32..=4);
        let memory = (1u32..=24, 1u32..=320, 0u32..4, 0u32..4);
        let control = (any::<bool>(), 0u32..7, 1u32..=10, 0u32..=4);
        (widths, window, units, memory, control).prop_map(|(w, win, u, mem, ctl)| {
            let (l2_latency, mem_latency, l1d_log, bus_log) = mem;
            let (in_order, kind, bits, addr_bits) = ctl;
            let predictor = match kind {
                0 => PredictorKind::NotTaken,
                1 => PredictorKind::Taken,
                2 => PredictorKind::Bimodal { table_bits: bits },
                3 => PredictorKind::TwoLevelGAp { history_bits: bits, addr_bits },
                4 => PredictorKind::Gshare { history_bits: bits },
                5 => PredictorKind::TwoLevelPAp { history_bits: bits, addr_bits },
                _ => PredictorKind::Tournament { history_bits: bits, table_bits: bits },
            };
            MachineConfig {
                name: "random",
                fetch_width: w.0,
                decode_width: w.1,
                issue_width: w.2,
                commit_width: w.3,
                rob_size: win.0,
                fetch_queue: win.1,
                lsq_size: win.2,
                int_alu: u.0,
                int_mul: u.1,
                fp_alu: u.2,
                fp_mul: u.3,
                mem_ports: u.4,
                issue_policy: if in_order { IssuePolicy::InOrder } else { IssuePolicy::OutOfOrder },
                predictor,
                l1d: CacheConfig::new(512 << (2 * l1d_log), Assoc::Ways(1 << l1d_log), 32),
                l2_latency,
                mem_latency,
                mem_bus_bytes: 4 << bus_log,
                ..base_config()
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The stall skip, the completion wheel, the issue queue and issue
        /// sleep change nothing the model reports: the naive
        /// instantiation, which steps every cycle and scans the whole ROB,
        /// returns the same report. Both keep within the commit bound.
        #[test]
        fn fast_model_equals_naive_model(
            kernel in 0usize..64,
            seed in any::<u64>(),
            config in machine(),
        ) {
            assert_matches_naive(config, &clone_trace(kernel, seed));
        }
    }

    #[test]
    fn far_completions_wait_on_a_capped_wheel() {
        let config = MachineConfig { mem_latency: 100_000, ..base_config() };
        assert_eq!(Pipeline::new(config).wheel.heads.len() as u64, WHEEL_CAP);
        let trace: Vec<DynInstr> = Simulator::trace(&mixed_program(), 400).collect();
        let work = assert_matches_naive(config, &trace);
        assert!(work.skipped > 100_000, "misses to memory are skipped, not stepped");
    }

    #[test]
    #[should_panic(
        expected = "no instruction committed in the 114 cycles to cycle 114; 0 committed"
    )]
    fn a_wedged_pipeline_panics_in_every_build() {
        // Fetch waits on a branch that will never resolve, so no event can
        // ever move the model again: the stall skip jumps to the commit
        // bound, W = 114 on the base machine, and the bound trips.
        let mut p = Pipeline::new(base_config());
        p.fetch_blocked_on = Some(u64::MAX);
        p.run(Simulator::trace(&alu_loop(10), u64::MAX));
    }

    /// The bound is tight. From a cold start the first instruction, a
    /// load that misses to memory, waits on an I-line fill from memory
    /// (54 cycles on the base machine), then on its own miss (56), and
    /// commits in exactly `W` cycles.
    #[test]
    fn a_cold_first_load_commits_at_the_bound() {
        let mut b = ProgramBuilder::new("cold");
        let s = b.stream(perfclone_isa::StreamDesc { base: 0x10_0000, stride: 8, length: 1 });
        b.ld_stream(r(1), s, perfclone_isa::MemWidth::B8);
        b.halt();
        let rep = Pipeline::new(base_config()).run(Simulator::trace(&b.build(), 1));
        assert_eq!(commit_bound(&base_config()), 114);
        assert_eq!((rep.instrs, rep.cycles), (1, 114));
    }

    /// The work counters of one fixed program, pinned exactly: they are
    /// pure functions of trace and config.
    #[test]
    fn work_counters_are_exact() {
        let trace: Vec<DynInstr> = Simulator::trace(&mixed_program(), u64::MAX).collect();
        let axes = crate::GridAxes::dense();
        let widest = axes.config(axes.cells() - 1).expect("last cell");
        assert_eq!((widest.issue_width, widest.rob_size), (8, 128));
        let expected = [
            Work {
                stepped: 3058,
                skipped: 102,
                scans: 3016,
                fruitless: 12,
                visits: 4379,
                evaluated: 4379,
            },
            Work {
                stepped: 1069,
                skipped: 709,
                scans: 1036,
                fruitless: 8,
                visits: 110_270,
                evaluated: 16_971,
            },
        ];
        for (config, want) in [base_config(), widest].into_iter().zip(expected) {
            let (report, work) = model::<true>(config, &trace);
            assert_eq!(work, want, "{}", config.name);
            assert_eq!(work.stepped + work.skipped, report.cycles);
            assert!(work.visits >= work.evaluated && work.evaluated >= report.activity.issues);
        }
    }

    #[test]
    fn activity_counters_are_consistent() {
        let p = alu_loop(100);
        let rep = run_program(&p, base_config());
        assert_eq!(rep.activity.commits, rep.instrs);
        assert_eq!(rep.activity.fetches, rep.instrs);
        assert_eq!(rep.activity.dispatches, rep.instrs);
        assert_eq!(rep.activity.issues, rep.instrs);
        assert!(rep.activity.rob_occupancy_sum > 0);
    }
}
