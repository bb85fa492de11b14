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

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error as StdError;
use std::fmt;

use perfclone_isa::{InstrClass, InstrMeta};
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
/// Readiness is checked lazily at issue time ([`Pipeline::producer_done`])
/// instead of by broadcasting wakeups through the window, so the list is
/// immutable once built.
#[derive(Clone, Copy, Debug, Default)]
struct DepList {
    seqs: [u64; 3],
    len: u8,
}

impl DepList {
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

/// One retired record with its static facts pre-resolved — the common
/// currency of the pipeline's two front ends. The iterator front end
/// derives it per record via [`InstrMeta::of`]; the batched front end reads
/// the pre-interned per-pc table, so neither touches the instruction enum
/// on the fetch hot path.
#[derive(Clone, Copy, Debug)]
struct FetchRec {
    pc: u32,
    taken: bool,
    redirected: bool,
    cond_branch: bool,
    class: InstrClass,
    num_uses: u8,
    num_defs: u8,
    use_idx: [u8; 3],
    def_idx: [u8; 3],
    is_load: bool,
    is_store: bool,
    addr: u64,
    bytes: u8,
}

impl FetchRec {
    #[inline]
    fn new(m: &InstrMeta, pc: u32, next_pc: u32, taken: bool, mem: Option<MemAccess>) -> FetchRec {
        let (is_load, is_store, addr, bytes) = match mem {
            Some(a) => (!a.is_store, a.is_store, a.addr, a.bytes),
            None => (false, false, 0, 0),
        };
        FetchRec {
            pc,
            taken,
            redirected: next_pc != pc.wrapping_add(1),
            cond_branch: m.cond_branch,
            class: m.class,
            num_uses: m.num_uses,
            num_defs: m.num_defs,
            use_idx: m.use_idx,
            def_idx: m.def_idx,
            is_load,
            is_store,
            addr,
            bytes,
        }
    }

    #[inline]
    fn from_dyn(d: &DynInstr) -> FetchRec {
        FetchRec::new(&InstrMeta::of(&d.instr), d.pc, d.next_pc, d.taken, d.mem)
    }

    /// Flat rename-table indices of source registers, in `Instr::uses` order.
    #[inline]
    fn uses(&self) -> &[u8] {
        &self.use_idx[..usize::from(self.num_uses)]
    }

    /// Flat rename-table indices of destination registers.
    #[inline]
    fn defs(&self) -> &[u8] {
        &self.def_idx[..usize::from(self.num_defs)]
    }
}

/// Record supply for [`Pipeline::run_inner`]: pulls one [`FetchRec`] at a
/// time from whichever front end backs it.
trait RecordSource {
    fn pull(&mut self) -> Option<FetchRec>;
}

/// Record-at-a-time front end over any [`DynInstr`] iterator (interpreter
/// output, statsim synthetic traces, or the replay oracle).
struct IterSource<I>(I);

impl<I: Iterator<Item = DynInstr>> RecordSource for IterSource<I> {
    #[inline]
    fn pull(&mut self) -> Option<FetchRec> {
        self.0.next().map(|d| FetchRec::from_dyn(&d))
    }
}

/// Batched front end: drains a [`BatchReplay`] chunk-by-chunk, re-entering
/// the decoder once per [`ReplayChunk`](perfclone_sim::ReplayChunk) instead
/// of once per record. Publishes `replay.batch.*` counters when dropped.
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
    fn pull(&mut self) -> Option<FetchRec> {
        if self.pos == self.chunk.len() {
            let n = self.replay.fill(&mut self.chunk);
            // A drained fill resets the chunk to empty; reset the cursor
            // with it so re-polling (the run loop peeks every cycle while
            // the window drains) keeps hitting this refill path.
            self.pos = 0;
            if n == 0 {
                return None;
            }
            self.chunks += 1;
            self.records += n as u64;
        }
        let i = self.pos;
        self.pos += 1;
        let pc = self.chunk.pc(i);
        let m = &self.replay.meta()[pc as usize];
        Some(FetchRec::new(m, pc, self.chunk.next_pc(i), self.chunk.taken(i), self.chunk.mem(i)))
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

/// One-slot lookahead on top of a [`RecordSource`], giving fetch the
/// peek/consume protocol without `Peekable`'s per-record iterator dispatch.
struct Feed<S: RecordSource> {
    src: S,
    look: Option<FetchRec>,
}

impl<S: RecordSource> Feed<S> {
    fn new(src: S) -> Feed<S> {
        Feed { src, look: None }
    }

    #[inline]
    fn peek(&mut self) -> Option<&FetchRec> {
        if self.look.is_none() {
            self.look = self.src.pull();
        }
        self.look.as_ref()
    }

    #[inline]
    fn take(&mut self) -> Option<FetchRec> {
        self.look.take().or_else(|| self.src.pull())
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

impl RobEntry {
    fn overlaps(&self, other: &RobEntry) -> bool {
        let a0 = self.addr;
        let a1 = self.addr + u64::from(self.bytes);
        let b0 = other.addr;
        let b1 = other.addr + u64::from(other.bytes);
        a0 < b1 && b0 < a1
    }

    /// Slab filler for [`Window`]; never observed by the model.
    const EMPTY: RobEntry = RobEntry {
        seq: 0,
        class: InstrClass::IntAlu,
        state: EntryState::Waiting,
        deps: DepList { seqs: [0; 3], len: 0 },
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

    #[inline]
    fn push_back(&mut self, e: RobEntry) {
        debug_assert!(self.len <= self.mask, "window sized for ROB + fetch queue");
        let i = (self.head + self.len) & self.mask;
        self.slab[i] = e;
        self.len += 1;
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
    fn get(&self, i: usize) -> Option<&RobEntry> {
        (i < self.len).then(|| &self.slab[(self.head + i) & self.mask])
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> Option<&mut RobEntry> {
        (i < self.len).then(|| &mut self.slab[(self.head + i) & self.mask])
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

/// Errors surfaced by a budgeted pipeline run.
#[derive(Clone, Debug)]
pub enum PipelineError {
    /// The run reached its cycle budget before the trace drained — the
    /// runaway guard for pathological inputs. Carries the partial report
    /// accumulated up to the budget, so callers can still inspect how far
    /// the run got.
    BudgetExhausted {
        /// The cycle budget that was exhausted.
        max_cycles: u64,
        /// Statistics accumulated before the budget tripped.
        report: Box<PipelineReport>,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::BudgetExhausted { max_cycles, report } => write!(
                f,
                "pipeline did not drain within the {max_cycles}-cycle budget \
                 ({} instructions committed)",
                report.instrs
            ),
        }
    }
}

impl StdError for PipelineError {}

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
    /// Earliest `done_at` among Executing entries (`u64::MAX` when none):
    /// lets [`writeback`](Pipeline::writeback) skip work on cycles where
    /// nothing can possibly finish.
    next_done_at: u64,
    /// Pending completions as `(done_at, seq)`, pushed at issue time: an
    /// Executing entry cannot leave the ROB (commit requires Done), so
    /// [`writeback`](Pipeline::writeback) promotes exactly the heap
    /// entries with `done_at <= cycle` instead of scanning the window.
    done_heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Every entry with a sequence number below this is known not to be
    /// Waiting (entries never revert to Waiting), so the issue scan can
    /// start past the already-issued prefix of the window.
    waiting_head_seq: u64,
    /// Waiting entries currently in the ROB: lets [`issue`](Pipeline::issue)
    /// skip its window scan entirely on cycles with nothing to issue.
    rob_waiting: u32,
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
}

impl Pipeline {
    /// Creates a pipeline with cold caches and predictor.
    pub fn new(config: MachineConfig) -> Pipeline {
        Pipeline {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            bpred: BranchPredictor::new(config.predictor),
            cycle: 0,
            rob: Window::new((config.rob_size + config.fetch_queue) as usize),
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
            done_heap: BinaryHeap::with_capacity(config.rob_size as usize + 1),
            waiting_head_seq: 0,
            rob_waiting: 0,
            store_count: 0,
            pending_stores: 0,
            issue_asleep: false,
            issue_wake_at: 0,
        }
    }

    /// Runs the pipeline over a correct-path trace until every instruction
    /// has committed, returning the report.
    pub fn run<I: IntoIterator<Item = DynInstr>>(self, trace: I) -> PipelineReport {
        self.run_inner(Feed::new(IterSource(trace.into_iter())), u64::MAX).0
    }

    /// Runs the pipeline over a batched trace decoder until every
    /// instruction has committed. Consumes the trace chunk-by-chunk —
    /// avoiding per-record iterator dispatch and per-record `Instr`
    /// inspection — but models the *same* record stream as
    /// [`run`](Pipeline::run) over the replay oracle, bit-identically
    /// (property-tested in the workspace replay suites).
    pub fn run_batched(self, replay: BatchReplay<'_>) -> PipelineReport {
        self.run_inner(Feed::new(BatchSource::new(replay)), u64::MAX).0
    }

    /// [`run_batched`](Pipeline::run_batched) with a cycle budget, mirroring
    /// [`run_budgeted`](Pipeline::run_budgeted).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BudgetExhausted`] when the budget trips.
    pub fn run_batched_budgeted(
        self,
        replay: BatchReplay<'_>,
        max_cycles: u64,
    ) -> Result<PipelineReport, PipelineError> {
        let (report, exhausted) = self.run_inner(Feed::new(BatchSource::new(replay)), max_cycles);
        if exhausted {
            Err(PipelineError::BudgetExhausted { max_cycles, report: Box::new(report) })
        } else {
            Ok(report)
        }
    }

    /// [`run`](Pipeline::run) with a cycle budget: if the trace has not
    /// drained within `max_cycles`, returns
    /// [`PipelineError::BudgetExhausted`] carrying the partial report —
    /// the runaway guard for pathological (e.g. synthesized) inputs.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BudgetExhausted`] when the budget trips.
    pub fn run_budgeted<I: IntoIterator<Item = DynInstr>>(
        self,
        trace: I,
        max_cycles: u64,
    ) -> Result<PipelineReport, PipelineError> {
        let (report, exhausted) =
            self.run_inner(Feed::new(IterSource(trace.into_iter())), max_cycles);
        if exhausted {
            Err(PipelineError::BudgetExhausted { max_cycles, report: Box::new(report) })
        } else {
            Ok(report)
        }
    }

    fn run_inner<S: RecordSource>(
        mut self,
        mut trace: Feed<S>,
        max_cycles: u64,
    ) -> (PipelineReport, bool) {
        let mut exhausted = false;
        loop {
            let trace_empty = trace.peek().is_none();
            if trace_empty && self.rob.is_empty() {
                break;
            }
            if self.cycle >= max_cycles {
                exhausted = true;
                break;
            }
            self.cycle += 1;
            let committed = self.committed;
            let issues = self.activity.issues;
            let dispatches = self.activity.dispatches;
            let fetches = self.activity.fetches;
            let wrote_back = self.next_done_at <= self.cycle;
            self.commit();
            self.writeback();
            self.issue();
            self.dispatch();
            self.fetch(&mut trace);
            self.activity.rob_occupancy_sum += self.rob_len as u64;
            self.activity.lsq_occupancy_sum += u64::from(self.lsq_count);
            // Stall skip: on a quiescent cycle (no stage moved anything),
            // the model's state is frozen until the next event — the
            // earliest in-flight completion (which also unblocks commit,
            // dependents, and a mispredict-blocked fetch), the I-cache
            // line arrival, or a divider becoming free. Every one of
            // those times is tracked exactly, so jumping there and
            // accumulating the per-cycle statistics in bulk is
            // bit-identical to stepping cycle by cycle.
            const STALL_SKIP: bool = true;
            let quiescent = STALL_SKIP
                && !wrote_back
                && committed == self.committed
                && issues == self.activity.issues
                && dispatches == self.activity.dispatches
                && fetches == self.activity.fetches;
            if quiescent {
                let mut ev = u64::MAX;
                if self.next_done_at > self.cycle {
                    ev = ev.min(self.next_done_at);
                }
                if self.fetch_blocked_on.is_none() && self.icache_ready_at > self.cycle {
                    ev = ev.min(self.icache_ready_at);
                }
                if self.rob_waiting > 0 {
                    // A waiting div/mul may be gated only on the divider.
                    if self.int_div_busy_until > self.cycle {
                        ev = ev.min(self.int_div_busy_until);
                    }
                    if self.fp_div_busy_until > self.cycle {
                        ev = ev.min(self.fp_div_busy_until);
                    }
                }
                if ev != u64::MAX && ev > self.cycle + 1 {
                    // Land one cycle short of the event so the normal loop
                    // body executes the event cycle itself; never skip past
                    // the budget (its last cycle must run, then trip).
                    let target = (ev - 1).min(max_cycles);
                    let k = target.saturating_sub(self.cycle);
                    self.cycle = target;
                    self.activity.rob_occupancy_sum += k * self.rob_len as u64;
                    self.activity.lsq_occupancy_sum += k * u64::from(self.lsq_count);
                    // Replicate fetch's per-cycle stall accounting for the
                    // skipped cycles (its branch conditions are constant
                    // across them: no writeback ran, so the block holds,
                    // and the line-arrival time is beyond the target).
                    if self.fetch_blocked_on.is_some() {
                        self.activity.mispredict_stall_cycles += k;
                    } else if self.icache_ready_at > target {
                        self.activity.icache_stall_cycles += k;
                    }
                }
            }
            // Defensive bound: a liveness bug would otherwise spin forever.
            debug_assert!(
                self.cycle < 1_000 + 2_000 * (self.committed + 100),
                "pipeline livelock at cycle {}",
                self.cycle
            );
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
        (report, exhausted)
    }

    /// Walks the data hierarchy for one access, returning its latency.
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
    fn load_latency(&mut self, seq: u64, addr: u64, bytes: u8) -> u32 {
        let b0 = addr;
        let b1 = addr + u64::from(bytes);
        let mut fwd = false;
        if self.store_count > 0 {
            for i in 0..self.rob.len() {
                let o = self.rob.at(i);
                if o.seq == seq {
                    break;
                }
                if o.is_store && o.addr < b1 && b0 < o.addr + u64::from(o.bytes) {
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

    fn writeback(&mut self) {
        let cycle = self.cycle;
        if self.next_done_at > cycle {
            return; // nothing can finish this cycle
        }
        // Promote exactly the completions due by now. Promotion order
        // within a cycle is immaterial: each entry's effects (Done state,
        // store/mispredict bookkeeping) are independent of the others'.
        while let Some(&Reverse((done_at, seq))) = self.done_heap.peek() {
            if done_at > cycle {
                break;
            }
            self.done_heap.pop();
            let Some(front_seq) = self.rob.front().map(|e| e.seq) else { break };
            let Some(e) = self.rob.get_mut((seq - front_seq) as usize) else { break };
            debug_assert_eq!(e.seq, seq, "Executing entries stay in the ROB");
            e.state = EntryState::Done;
            let (is_store, mispredicted) = (e.is_store, e.mispredicted);
            // A new Done entry may satisfy a sleeping scan's deps.
            self.issue_asleep = false;
            if is_store {
                self.pending_stores -= 1;
            }
            if mispredicted && self.fetch_blocked_on == Some(seq) {
                self.fetch_blocked_on = None;
            }
        }
        self.next_done_at = self.done_heap.peek().map_or(u64::MAX, |&Reverse((d, _))| d);
    }

    /// `true` when the producer with sequence number `w` has finished
    /// execution (or already committed). O(1): the window holds the
    /// contiguous in-flight range `[oldest, next_seq)`, so a sequence
    /// number below the window head has committed, one inside the ROB
    /// partition is found by direct indexing, and one at or beyond the
    /// partition is still in the fetch queue (never executed).
    #[inline]
    fn producer_done(&self, w: u64) -> bool {
        let Some(front) = self.rob.front() else { return true };
        if w < front.seq {
            return true;
        }
        let idx = (w - front.seq) as usize;
        if idx >= self.rob_len {
            return false; // still in the fetch-queue partition
        }
        match self.rob.get(idx) {
            Some(p) => {
                debug_assert_eq!(p.seq, w, "window seq range must be contiguous");
                p.state == EntryState::Done
            }
            None => false,
        }
    }

    /// `true` when every producer of ROB entry `idx` has finished.
    #[inline]
    fn deps_satisfied(&self, idx: usize) -> bool {
        self.rob.at(idx).deps.iter().all(|w| self.producer_done(w))
    }

    fn issue(&mut self) {
        if self.rob_waiting == 0 {
            // Nothing in the window is Waiting; the scan below could only
            // walk and find nothing. (The waiting-head hint stays valid:
            // entries never revert to Waiting.)
            return;
        }
        if self.issue_asleep && self.cycle < self.issue_wake_at {
            // The last scan was fruitless and no wake event (writeback
            // promotion, dispatch, divider release) has occurred since:
            // the re-scan would be fruitless too.
            return;
        }
        self.issue_asleep = false;
        let mut budget = self.config.issue_width;
        let mut int_alu_free = self.config.int_alu;
        let mut int_mul_free = self.config.int_mul;
        let mut fp_alu_free = self.config.fp_alu;
        let mut fp_mul_free = self.config.fp_mul;
        let mut mem_ports_free = self.config.mem_ports;
        let cycle = self.cycle;

        let Some(front_seq) = self.rob.front().map(|e| e.seq) else { return };
        // Entries below the waiting-head hint are known issued; start past
        // them. The hint is re-established from this scan's outcome below.
        let mut idx = (self.waiting_head_seq.saturating_sub(front_seq)) as usize;
        let mut first_still_waiting: Option<u64> = None;
        while idx < self.rob_len && budget > 0 {
            let (state, class) = {
                let e = self.rob.at(idx);
                (e.state, e.class)
            };
            if state != EntryState::Waiting {
                idx += 1;
                continue;
            }
            let unit_ok = match class {
                InstrClass::IntAlu | InstrClass::Branch | InstrClass::Jump => int_alu_free > 0,
                InstrClass::IntMul => int_mul_free > 0 && self.int_div_busy_until <= cycle,
                InstrClass::IntDiv => int_mul_free > 0 && self.int_div_busy_until <= cycle,
                InstrClass::FpAlu => fp_alu_free > 0,
                InstrClass::FpMul => fp_mul_free > 0 && self.fp_div_busy_until <= cycle,
                InstrClass::FpDiv => fp_mul_free > 0 && self.fp_div_busy_until <= cycle,
                InstrClass::Load | InstrClass::Store => mem_ports_free > 0,
            };
            let ready = unit_ok && self.deps_satisfied(idx) && self.load_ready(idx);
            if ready {
                // Extract the latency inputs as scalars rather than copying
                // the whole entry out of the ROB to satisfy the borrow.
                let (is_load, seq, addr, bytes) = {
                    let e = self.rob.at(idx);
                    (e.is_load, e.seq, e.addr, e.bytes)
                };
                let lat =
                    if is_load { self.load_latency(seq, addr, bytes) } else { exec_latency(class) };
                let done_at = cycle + u64::from(lat);
                self.next_done_at = self.next_done_at.min(done_at);
                self.done_heap.push(Reverse((done_at, front_seq + idx as u64)));
                let e = self.rob.at_mut(idx);
                e.state = EntryState::Executing { done_at };
                self.rob_waiting -= 1;
                budget -= 1;
                self.activity.issues += 1;
                self.activity.regfile_reads += u64::from(e.num_uses);
                match e.class {
                    InstrClass::IntAlu | InstrClass::Branch | InstrClass::Jump => {
                        int_alu_free -= 1;
                        self.activity.int_alu_ops += 1;
                    }
                    InstrClass::IntMul => {
                        int_mul_free -= 1;
                        self.activity.int_mul_ops += 1;
                    }
                    InstrClass::IntDiv => {
                        int_mul_free -= 1;
                        self.int_div_busy_until = cycle + u64::from(lat);
                        self.activity.int_mul_ops += 1;
                    }
                    InstrClass::FpAlu => {
                        fp_alu_free -= 1;
                        self.activity.fp_alu_ops += 1;
                    }
                    InstrClass::FpMul => {
                        fp_mul_free -= 1;
                        self.activity.fp_mul_ops += 1;
                    }
                    InstrClass::FpDiv => {
                        fp_mul_free -= 1;
                        self.fp_div_busy_until = cycle + u64::from(lat);
                        self.activity.fp_mul_ops += 1;
                    }
                    InstrClass::Load | InstrClass::Store => {
                        mem_ports_free -= 1;
                    }
                }
            } else {
                if first_still_waiting.is_none() {
                    first_still_waiting = Some(front_seq + idx as u64);
                }
                if self.config.issue_policy == IssuePolicy::InOrder {
                    // In-order issue: stop at the first instruction that
                    // cannot issue this cycle.
                    break;
                }
            }
            idx += 1;
        }
        // Everything scanned before the first still-Waiting entry issued;
        // if the scan ran dry, everything up to the scan end is non-Waiting.
        self.waiting_head_seq = first_still_waiting.unwrap_or(front_seq + idx as u64);
        if budget == self.config.issue_width {
            // Issued nothing: sleep until a wake event. A busy divider can
            // unblock a waiting mul/div purely by time passing, so cap the
            // sleep at its release.
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

    fn dispatch(&mut self) {
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
            // Admit the entry by moving the partition: no data moves.
            self.rob_len += 1;
            if is_mem {
                self.lsq_count += 1;
            }
            if is_store {
                self.store_count += 1;
                self.pending_stores += 1;
            }
            self.rob_waiting += 1;
            self.activity.dispatches += 1;
            // A new Waiting entry may be issuable where the rest are not.
            self.issue_asleep = false;
        }
    }

    fn fetch<S: RecordSource>(&mut self, trace: &mut Feed<S>) {
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
            let Some(&d) = trace.peek() else { break };
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
            let Some(d) = trace.take() else { break };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.activity.fetches += 1;

            // Rename: record the last writer of each source register.
            // Whether that producer is still in flight is resolved lazily
            // at issue time ([`producer_done`](Pipeline::producer_done)).
            let mut deps = DepList::default();
            for &u in d.uses() {
                if let Some(w) = self.last_writer[usize::from(u)] {
                    if !deps.contains(w) {
                        deps.push(w);
                    }
                }
            }
            let mut entry = RobEntry {
                seq,
                class: d.class,
                state: EntryState::Waiting,
                deps,
                is_store: d.is_store,
                is_load: d.is_load,
                addr: d.addr,
                bytes: d.bytes,
                mispredicted: false,
                num_uses: d.num_uses,
                num_defs: d.num_defs,
            };
            // Record this instruction as the latest writer of its defs.
            for &def in d.defs() {
                self.last_writer[usize::from(def)] = Some(seq);
            }
            budget -= 1;

            let mut stop = false;
            if d.cond_branch {
                let pred = self.bpred.predict_and_update(d.pc, d.taken);
                if pred != d.taken {
                    entry.mispredicted = true;
                    self.fetch_blocked_on = Some(seq);
                    stop = true;
                } else if d.taken {
                    stop = true; // taken-branch fetch break
                }
            } else if d.redirected {
                stop = true; // jumps break the fetch group
            }
            self.rob.push_back(entry);
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

    #[test]
    fn budgeted_run_errors_with_partial_report() {
        let p = alu_loop(500);
        let err = Pipeline::new(base_config())
            .run_budgeted(Simulator::trace(&p, u64::MAX), 50)
            .unwrap_err();
        let PipelineError::BudgetExhausted { max_cycles, report } = err;
        assert_eq!(max_cycles, 50);
        assert!(report.cycles <= 50);
        assert!(report.instrs < 2 + 3000 + 1);
    }

    #[test]
    fn budgeted_run_matches_unbudgeted_when_budget_suffices() {
        let p = alu_loop(100);
        let full = run_program(&p, base_config());
        let budgeted = Pipeline::new(base_config())
            .run_budgeted(Simulator::trace(&p, u64::MAX), u64::MAX)
            .unwrap();
        assert_eq!(budgeted.instrs, full.instrs);
        assert_eq!(budgeted.cycles, full.cycles);
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
        use perfclone_sim::{PackedTrace, TraceStore};
        let p = mixed_program();
        let packed = TraceStore::Mem(PackedTrace::capture(&p, u64::MAX));
        let meta = InstrMetaTable::new(&p);
        let mut configs = vec![base_config()];
        configs.extend(crate::config::design_changes());
        for config in configs {
            let oracle = Pipeline::new(config).run(packed.replay(&p));
            let batched = Pipeline::new(config).run_batched(packed.replay_batched(&p, &meta));
            assert_eq!(oracle, batched, "batched report diverged for {config:?}");
        }
    }

    #[test]
    fn batched_budgeted_matches_iterator_budgeted() {
        use perfclone_isa::InstrMetaTable;
        use perfclone_sim::{PackedTrace, TraceStore};
        let p = mixed_program();
        let packed = TraceStore::Mem(PackedTrace::capture(&p, u64::MAX));
        let meta = InstrMetaTable::new(&p);
        // Ample budget: both succeed with identical reports.
        let full = Pipeline::new(base_config()).run_budgeted(packed.replay(&p), u64::MAX).unwrap();
        let batched = Pipeline::new(base_config())
            .run_batched_budgeted(packed.replay_batched(&p, &meta), u64::MAX)
            .unwrap();
        assert_eq!(full, batched);
        // Tripped budget: both exhaust with identical partial reports.
        let iter_err =
            Pipeline::new(base_config()).run_budgeted(packed.replay(&p), 60).unwrap_err();
        let batch_err = Pipeline::new(base_config())
            .run_batched_budgeted(packed.replay_batched(&p, &meta), 60)
            .unwrap_err();
        let PipelineError::BudgetExhausted { report: a, .. } = iter_err;
        let PipelineError::BudgetExhausted { report: b, .. } = batch_err;
        assert_eq!(a, b, "partial reports at the budget must match");
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
