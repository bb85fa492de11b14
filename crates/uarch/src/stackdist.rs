//! Single-pass multi-configuration cache evaluation: Mattson stack-distance
//! histograms over per-set truncated LRU stacks.
//!
//! The Figure-4/5 experiment replays one workload through 28 L1 D-cache
//! configurations. Re-running the functional simulator per configuration
//! repeats the expensive part — trace generation — 28 times for results
//! that differ only in cache geometry. This module extracts the workload's
//! data-reference trace **once** (see [`AddressTrace`]) and computes exact
//! LRU miss counts for *every* configuration in a single pass per line
//! size.
//!
//! **Mattson et al. (1970), inclusion per set.** Under LRU, the content
//! of an `A`-way set is the `A` most recently used distinct lines mapping
//! to it. An access therefore hits iff its *stack distance* — its position
//! in its set's LRU stack, counting from 0 at the MRU end — is `< A`.
//! Configurations with the same set count `2^j` share one set mapping (the
//! low `j` bits of the line address), so one stack per set and one
//! distance histogram per level serve every associativity at that set
//! count at once.
//!
//! **Truncated stacks.** Distances at or beyond the largest way count any
//! configuration uses at a level (its *cap*) are misses for all of them,
//! so each set's stack keeps only its `cap` most recent lines; a line that
//! falls off re-enters at the MRU end like a cold one.
//!
//! **Early exit by set refinement** (Hill & Smith, "Evaluating
//! Associativity in CPU Caches", 1989). Set counts are powers of two, so
//! each set of a finer level holds a subset of the lines of one set of
//! any coarser level. A line at stack distance 0 at `S` sets is therefore
//! the most recent line of its set at every finer level too, where moving
//! it to the front changes nothing. The pass visits levels in ascending
//! set count and stops at the first that finds the line at distance 0,
//! counting an *exit* there. A level's distance-0 hits are the exits at it
//! and at every coarser level. A truncated stack is a prefix of the full
//! one, so its top is the same line, and the skipped levels would not
//! have changed: every stack stays exactly what it would be without the
//! exit.
//!
//! **Shallow and deep levels.** A level of cap at most 4 (every
//! set-associative level of the paper sweep) keeps each set's lines inline
//! with its fill count, so an access touches one slot. A deeper level (the
//! paper's 512-line fully-associative one) keeps flat stacks plus a
//! presence filter, an open-addressing set of the lines it holds. A line
//! absent from its stack then skips the walk: it costs one shift of the
//! stack, one insert into the filter and, on a full stack, one removal of
//! the line that falls off.
//!
//! **Cost.** An access walks each visited level's set to the line's
//! distance, `O(Σ caps)` in the worst case. On the paper sweep over the 23
//! kernels' and their clones' 200 K-instruction windows, a reference
//! visits 5.3 of the 10 levels on average, and the 7.7% that miss the
//! 512-deep level skip their walk there.
//!
//! Grouping rule: one pass handles every configuration sharing a line
//! size (the line size fixes the address→line mapping); configurations
//! are grouped by `line_bytes` and each group costs one traversal of the
//! trace. The paper's 28-configuration sweep uses 32-byte lines
//! throughout, so the whole sweep is literally one pass.
//!
//! The counts are **bit-identical** to per-configuration [`Cache`]
//! replay (`sweep_dcache_replay` keeps that path as the correctness
//! oracle): the cache model is write-allocate with strict LRU victims, so
//! hit/miss per access is a pure function of stack distance, and stores
//! differ from loads only in dirty bookkeeping, which never affects
//! recency order.
//!
//! [`Cache`]: crate::cache::Cache

use perfclone_isa::Program;
use perfclone_sim::Simulator;

use crate::cache::CacheConfig;
use crate::sweep::DcacheSweepPoint;

/// One dynamic data reference: effective address plus store flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataRef {
    /// Effective byte address.
    pub addr: u64,
    /// `true` for stores.
    pub is_store: bool,
}

/// A workload's data-reference trace, extracted from the functional
/// simulator exactly once and replayable through any number of cache
/// geometries without re-executing the program.
///
/// # Example
///
/// ```
/// use perfclone_isa::{ProgramBuilder, Reg};
/// use perfclone_uarch::{cache_sweep, sweep_trace, AddressTrace};
///
/// let mut b = ProgramBuilder::new("tiny");
/// let p = Reg::new(1);
/// b.li(p, 0x1000);
/// b.ld(Reg::new(2), p, 0);
/// b.halt();
/// let trace = AddressTrace::extract(&b.build(), u64::MAX);
/// assert_eq!(trace.accesses(), 1);
/// let sweep = sweep_trace(&trace, &cache_sweep());
/// assert!(sweep.iter().all(|pt| pt.misses == 1)); // one cold miss each
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AddressTrace {
    instrs: u64,
    refs: Vec<DataRef>,
}

impl AddressTrace {
    /// Runs the functional simulator once (up to `limit` instructions) and
    /// records every retired load/store.
    pub fn extract(program: &Program, limit: u64) -> AddressTrace {
        let _span = perfclone_obs::span!("uarch.trace.extract");
        let mut instrs = 0u64;
        let mut refs = Vec::new();
        for d in Simulator::trace(program, limit) {
            instrs += 1;
            if let Some(m) = d.mem {
                refs.push(DataRef { addr: m.addr, is_store: m.is_store });
            }
        }
        // Batched publish: the retire loop above stays telemetry-free.
        perfclone_obs::count!("uarch.trace.instrs", instrs);
        perfclone_obs::count!("uarch.trace.refs", refs.len() as u64);
        AddressTrace { instrs, refs }
    }

    /// Wraps an already-materialized reference stream (tests, synthetic
    /// traces).
    pub fn from_refs(instrs: u64, refs: Vec<DataRef>) -> AddressTrace {
        AddressTrace { instrs, refs }
    }

    /// Retired instructions behind this trace.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Number of data references.
    pub fn accesses(&self) -> u64 {
        self.refs.len() as u64
    }

    /// The references, in program order.
    pub fn refs(&self) -> &[DataRef] {
        &self.refs
    }
}

/// Largest cap whose sets a level keeps inline (every set-associative
/// level of the paper sweep has cap 1, 2 or 4).
const SHALLOW_CAP: usize = 4;

/// One set of a shallow level: its lines, MRU first, held inline so that
/// an access touches one slot.
#[derive(Clone, Copy, Default)]
struct ShallowSet {
    lines: [u64; SHALLOW_CAP],
    /// Occupied length of `lines`. Slots past it are empty, so no line
    /// value doubles as an empty marker.
    fill: u8,
}

impl ShallowSet {
    /// Moves `line` to the front and returns its old stack distance, or
    /// `None` when it was absent (a full stack's LRU line then drops off).
    #[inline]
    fn touch(&mut self, line: u64, cap: usize) -> Option<usize> {
        let fill = usize::from(self.fill);
        // Move to front in one pass: each slot takes the line above it
        // until the accessed line's old slot is overwritten.
        let mut carry = line;
        for (d, slot) in self.lines[..fill].iter_mut().enumerate() {
            carry = std::mem::replace(slot, carry);
            if carry == line {
                return Some(d);
            }
        }
        if fill < cap {
            self.lines[fill] = carry;
            self.fill += 1;
        }
        None
    }
}

/// The sets of a deep level: flat stacks plus a presence filter over all
/// of them, so that a line absent from its stack skips the walk.
struct DeepSets {
    /// `lines[s * cap..][..fill[s]]` holds set `s`'s lines, MRU first.
    lines: Vec<u64>,
    fill: Vec<usize>,
    /// Exactly the lines the stacks hold.
    present: LineSet,
}

impl DeepSets {
    /// [`ShallowSet::touch`] for set `set`.
    #[inline]
    fn touch(&mut self, set: usize, line: u64, cap: usize) -> Option<usize> {
        let stack = &mut self.lines[set * cap..][..cap];
        let fill = &mut self.fill[set];
        if *fill > 0 && stack[0] == line {
            return Some(0);
        }
        if self.present.contains(line) {
            // The filter is exact, so this walk finds the line.
            let mut carry = line;
            for (d, slot) in stack[..*fill].iter_mut().enumerate() {
                carry = std::mem::replace(slot, carry);
                if carry == line {
                    return Some(d);
                }
            }
        }
        // Absent: shift the stack down one slot without a walk; the LRU
        // line of a full stack drops off and leaves the filter.
        if *fill == cap {
            self.present.remove(stack[cap - 1]);
        } else {
            *fill += 1;
        }
        stack.copy_within(..*fill - 1, 1);
        stack[0] = line;
        self.present.insert(line);
        None
    }
}

/// A set of lines: open addressing with linear probing and deletion by
/// backward shift. Occupancy is kept in flags of its own because every
/// `u64` can be a line. The hash is not keyed, so lines crafted to
/// collide can make a probe scan the whole table; it is at most a quarter
/// full, so every probe ends.
struct LineSet {
    keys: Vec<u64>,
    used: Vec<bool>,
    /// Number of keys held.
    len: usize,
    /// `64 - log2(keys.len())`: a key's home slot is the top bits of its
    /// Fibonacci hash.
    shift: u32,
}

impl LineSet {
    /// An empty set for up to `capacity` lines, at most a quarter full.
    fn with_capacity(capacity: usize) -> LineSet {
        let slots = (4 * capacity).next_power_of_two().max(2);
        LineSet {
            keys: vec![0; slots],
            used: vec![false; slots],
            len: 0,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    fn home(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `line`, or else the empty slot that ends its
    /// probe run, and whether `line` was found.
    fn probe(&self, line: u64) -> (usize, bool) {
        let mask = self.keys.len() - 1;
        let mut i = self.home(line);
        while self.used[i] {
            if self.keys[i] == line {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
        (i, false)
    }

    fn contains(&self, line: u64) -> bool {
        self.probe(line).1
    }

    fn insert(&mut self, line: u64) {
        let (i, found) = self.probe(line);
        if !found {
            // A level that lost track of its lines would fill the table,
            // and then a probe would never meet an empty slot.
            assert!(self.len < self.keys.len() / 4, "line filter over capacity");
            self.keys[i] = line;
            self.used[i] = true;
            self.len += 1;
        }
    }

    fn remove(&mut self, line: u64) {
        let (mut hole, found) = self.probe(line);
        if !found {
            return;
        }
        // Backward shift: pull each later key of the run into the hole
        // when the hole lies on its probe path from its home slot.
        let mask = self.keys.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            if !self.used[i] {
                break;
            }
            let home = self.home(self.keys[i]);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.keys[hole] = self.keys[i];
                hole = i;
            }
        }
        self.used[hole] = false;
        self.len -= 1;
    }
}

/// A level's per-set stacks, stored by its cap.
enum Stacks {
    /// Cap at most [`SHALLOW_CAP`].
    Shallow(Vec<ShallowSet>),
    /// Any deeper cap.
    Deep(DeepSets),
}

/// One set-count level of a pass: a truncated LRU stack per set plus the
/// level's stack-distance histogram.
struct Level {
    sets: u64,
    /// Deepest distance any configuration at this level distinguishes
    /// (its maximum way count), and so each stack's length.
    cap: usize,
    stacks: Stacks,
    /// `hist[d]` counts accesses at stack distance `0 < d < cap` (a
    /// distance-0 access is an exit instead, so `hist[0]` stays 0).
    hist: Vec<u64>,
    /// Accesses that found their line at distance 0 here and stopped: a
    /// distance-0 hit at this level and at every finer one.
    exits: u64,
}

impl Level {
    fn new(sets: u64, cap: usize) -> Level {
        let stacks = if cap <= SHALLOW_CAP {
            Stacks::Shallow(vec![ShallowSet::default(); sets as usize])
        } else {
            Stacks::Deep(DeepSets {
                lines: vec![0; sets as usize * cap],
                fill: vec![0; sets as usize],
                present: LineSet::with_capacity(sets as usize * cap),
            })
        };
        Level { sets, cap, stacks, hist: vec![0; cap], exits: 0 }
    }

    /// Moves `line` to the front of its set's stack and records its
    /// distance. Returns `true` when the line was already at the front,
    /// where the access changes nothing.
    #[inline]
    fn access(&mut self, line: u64) -> bool {
        let set = (line & (self.sets - 1)) as usize;
        let distance = match &mut self.stacks {
            Stacks::Shallow(sets) => sets[set].touch(line, self.cap),
            Stacks::Deep(deep) => deep.touch(set, line, self.cap),
        };
        match distance {
            Some(0) => {
                self.exits += 1;
                return true;
            }
            Some(d) => self.hist[d] += 1,
            None => {}
        }
        false
    }
}

/// Work of one pass, derived from its exits and accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PassWork {
    /// Levels visited, summed over accesses.
    level_visits: u64,
    /// Accesses that stopped at a level holding their line at distance 0.
    early_exits: u64,
}

/// One single-pass evaluation: a [`Level`] per distinct set count among
/// the configurations of one line-size group, in ascending set count.
struct AllAssocPass {
    line_shift: u32,
    levels: Vec<Level>,
    accesses: u64,
}

impl AllAssocPass {
    /// `geometries` are the `(sets, ways)` pairs of the group's configs.
    fn new(line_bytes: u32, geometries: &[(u64, u64)]) -> AllAssocPass {
        let mut caps: Vec<(u64, usize)> = Vec::new();
        for &(sets, ways) in geometries {
            match caps.iter_mut().find(|(s, _)| *s == sets) {
                Some((_, cap)) => *cap = (*cap).max(ways as usize),
                None => caps.push((sets, ways as usize)),
            }
        }
        caps.sort_unstable();
        let levels = caps.into_iter().map(|(sets, cap)| Level::new(sets, cap)).collect();
        AllAssocPass { line_shift: line_bytes.trailing_zeros(), levels, accesses: 0 }
    }

    /// Visits the levels coarsest first and stops at the first that finds
    /// the line at distance 0, which set refinement makes exact (see the
    /// module docs).
    fn access(&mut self, addr: u64) {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        for level in &mut self.levels {
            if level.access(line) {
                return;
            }
        }
    }

    /// Exact LRU miss count of a `(sets, ways)` geometry: distance-0 hits
    /// are the exits at this level and every coarser one.
    fn misses(&self, sets: u64, ways: u64) -> u64 {
        let Some(j) = self.levels.iter().position(|l| l.sets == sets) else {
            return self.accesses;
        };
        let exits: u64 = self.levels[..=j].iter().map(|l| l.exits).sum();
        let deeper: u64 = self.levels[j].hist[..ways as usize].iter().sum();
        self.accesses - exits - deeper
    }

    /// An access that stops at level `i` visited `i + 1` levels; any other
    /// visited them all.
    fn work(&self) -> PassWork {
        let early_exits: u64 = self.levels.iter().map(|l| l.exits).sum();
        let stopped: u64 =
            self.levels.iter().zip(1u64..).map(|(l, visited)| l.exits * visited).sum();
        let walked_through = (self.accesses - early_exits) * self.levels.len() as u64;
        PassWork { level_visits: stopped + walked_through, early_exits }
    }
}

/// A line size and the indices of the configurations that use it.
type Group = (u32, Vec<usize>);

/// Indices of `configs` grouped by line size, group order by first
/// appearance.
fn line_size_groups(configs: &[CacheConfig]) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for (i, c) in configs.iter().enumerate() {
        match groups.iter_mut().find(|(line, _)| *line == c.line_bytes) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((c.line_bytes, vec![i])),
        }
    }
    groups
}

/// One pass of `trace` over the levels of `geometries`.
fn run_pass(trace: &AddressTrace, line_bytes: u32, geometries: &[(u64, u64)]) -> AllAssocPass {
    let mut pass = AllAssocPass::new(line_bytes, geometries);
    for r in trace.refs() {
        pass.access(r.addr);
    }
    pass
}

/// Miss counts of one line-size group's configurations, in group order.
fn run_group(
    trace: &AddressTrace,
    configs: &[CacheConfig],
    line_bytes: u32,
    idxs: &[usize],
) -> Vec<u64> {
    let _span = perfclone_obs::span!("sweep.group");
    let geometries: Vec<(u64, u64)> =
        idxs.iter().map(|&i| (configs[i].sets(), configs[i].ways())).collect();
    let pass = run_pass(trace, line_bytes, &geometries);
    // Published once per pass: the per-reference loop keeps no counter
    // beyond the exits it needs for the miss counts.
    let work = pass.work();
    perfclone_obs::count!("sweep.group_accesses", pass.accesses);
    perfclone_obs::count!("sweep.level_visits", work.level_visits);
    perfclone_obs::count!("sweep.early_exits", work.early_exits);
    geometries.iter().map(|&(sets, ways)| pass.misses(sets, ways)).collect()
}

/// Computes [`DcacheSweepPoint`]s for every configuration from one
/// pre-extracted trace: one stack-distance pass per line-size group,
/// results in `configs` order and bit-identical to per-configuration
/// [`simulate_dcache`](crate::sweep::simulate_dcache) replay.
pub fn sweep_trace(trace: &AddressTrace, configs: &[CacheConfig]) -> Vec<DcacheSweepPoint> {
    let _span = perfclone_obs::span!("sweep.pass");
    perfclone_obs::count!("sweep.configs", configs.len() as u64);
    let mut out: Vec<DcacheSweepPoint> = configs
        .iter()
        .map(|&config| DcacheSweepPoint {
            config,
            instrs: trace.instrs(),
            accesses: trace.accesses(),
            misses: 0,
        })
        .collect();
    for (line_bytes, idxs) in line_size_groups(configs) {
        for (&i, misses) in idxs.iter().zip(run_group(trace, configs, line_bytes, &idxs)) {
            out[i].misses = misses;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Assoc, Cache};
    use crate::config::cache_sweep;
    use crate::sweep::sweep_dcache_replay;
    use perfclone_isa::{MemWidth, ProgramBuilder, Reg, StreamDesc};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn streaming_program(stride: i64, length: u32, n: i64) -> Program {
        let mut b = ProgramBuilder::new("stream");
        let id = b.stream(StreamDesc { base: 0x4_0000, stride, length });
        let (i, lim) = (Reg::new(1), Reg::new(2));
        b.li(i, 0);
        b.li(lim, n);
        let top = b.label();
        b.bind(top);
        b.ld_stream(Reg::new(3), id, MemWidth::B8);
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        b.build()
    }

    fn replay_misses(refs: &[DataRef], config: CacheConfig) -> u64 {
        let mut c = Cache::new(config);
        for r in refs {
            c.access(r.addr, r.is_store);
        }
        c.stats().misses
    }

    #[test]
    fn engine_matches_replay_on_the_paper_sweep() {
        let p = streaming_program(48, 96, 3_000);
        let configs = cache_sweep();
        let engine = sweep_trace(&AddressTrace::extract(&p, u64::MAX), &configs);
        let oracle = sweep_dcache_replay(&p, &configs, u64::MAX);
        assert_eq!(engine, oracle);
    }

    #[test]
    fn mixed_line_sizes_group_correctly() {
        let refs: Vec<DataRef> = (0..4_000u64)
            .map(|i| DataRef { addr: (i * 13) % 4096 * 8, is_store: i % 5 == 0 })
            .collect();
        let trace = AddressTrace::from_refs(4_000, refs.clone());
        let configs = vec![
            CacheConfig::new(512, Assoc::Ways(1), 16),
            CacheConfig::new(1024, Assoc::Ways(2), 64),
            CacheConfig::new(512, Assoc::Full, 16),
            CacheConfig::new(2048, Assoc::Ways(4), 32),
            CacheConfig::new(1024, Assoc::Ways(4), 64),
        ];
        let engine = sweep_trace(&trace, &configs);
        for (pt, &config) in engine.iter().zip(&configs) {
            assert_eq!(pt.misses, replay_misses(&refs, config), "{config}");
            assert_eq!(pt.accesses, 4_000);
        }
    }

    #[test]
    fn distance_zero_and_cold_paths() {
        // Same line twice (distance 0), then a distinct line (cold).
        let refs = vec![
            DataRef { addr: 0x100, is_store: false },
            DataRef { addr: 0x108, is_store: true },
            DataRef { addr: 0x900, is_store: false },
        ];
        let trace = AddressTrace::from_refs(3, refs);
        let config = CacheConfig::new(256, Assoc::Ways(2), 32);
        let pt = &sweep_trace(&trace, &[config])[0];
        assert_eq!(pt.misses, 2);
        assert_eq!(pt.accesses, 3);
    }

    #[test]
    fn line_evicted_from_a_truncated_stack_reenters_at_mru() {
        // Touch many lines, then re-touch the first: it fell off its
        // set's truncated stack long ago, yet the engine must push it
        // back on top so the *next* access hits.
        let mut refs: Vec<DataRef> =
            (0..64u64).map(|i| DataRef { addr: i * 32, is_store: false }).collect();
        refs.push(DataRef { addr: 0, is_store: false });
        refs.push(DataRef { addr: 0, is_store: false });
        let trace = AddressTrace::from_refs(refs.len() as u64, refs.clone());
        let config = CacheConfig::new(128, Assoc::Ways(2), 32);
        assert_eq!(sweep_trace(&trace, &[config])[0].misses, replay_misses(&refs, config));
    }

    #[test]
    fn no_line_value_aliases_an_empty_slot() {
        // With 1-byte lines every u64 is a line address, including the
        // all-zero and all-one patterns an empty-slot sentinel would use.
        let addrs = [u64::MAX, 0, u64::MAX, u64::MAX - 2, 0, 1, u64::MAX, u64::MAX - 1, 0];
        let refs: Vec<DataRef> =
            addrs.iter().map(|&addr| DataRef { addr, is_store: false }).collect();
        let trace = AddressTrace::from_refs(refs.len() as u64, refs.clone());
        let configs = [
            CacheConfig::new(4, Assoc::Ways(1), 1),
            CacheConfig::new(4, Assoc::Ways(2), 1),
            CacheConfig::new(4, Assoc::Full, 1),
            CacheConfig::new(2, Assoc::Full, 1),
        ];
        for (pt, &config) in sweep_trace(&trace, &configs).iter().zip(&configs) {
            assert_eq!(pt.misses, replay_misses(&refs, config), "{config}");
        }
    }

    #[test]
    fn work_counters_are_exact() {
        // Every third reference re-touches the line before it, a 700-line
        // stream overflows even the 512-line fully-associative stack, and
        // a 50-line hot set hits at middling distances.
        let refs: Vec<DataRef> = (0..6_000u64)
            .map(|i| {
                let line = if i % 3 == 2 { i * 7 % 50 } else { i / 3 % 700 };
                DataRef { addr: line * 32 + i % 32, is_store: false }
            })
            .collect();
        let trace = AddressTrace::from_refs(refs.len() as u64, refs);
        let geometries: Vec<(u64, u64)> =
            cache_sweep().iter().map(|c| (c.sets(), c.ways())).collect();
        let pass = run_pass(&trace, 32, &geometries);
        let work = pass.work();
        assert_eq!(pass.levels.len(), 10);
        // An unbounded LRU stack per set and level, walked at every level,
        // gives the same two numbers.
        assert_eq!(work, PassWork { level_visits: 37_916, early_exits: 4_599 });
        assert!(work.level_visits <= pass.accesses * pass.levels.len() as u64);
    }

    /// Keys whose home slot is one of the last two slots of `set` or its
    /// first, so that their probe runs collide and wrap past the end.
    fn colliding_keys(set: &LineSet, n: usize) -> Vec<u64> {
        let last = set.keys.len() - 1;
        (0..=u64::MAX)
            .flat_map(|k| [k, u64::MAX - k])
            .filter(|&k| matches!(set.home(k), h if h + 1 >= last || h == 0))
            .take(n)
            .collect()
    }

    proptest! {
        /// The presence filter agrees with `HashSet` on every key after
        /// each insert and remove, with at most `capacity` keys held.
        #[test]
        fn line_set_matches_hash_set(
            ops in proptest::collection::vec((any::<bool>(), 0usize..12), 1..200),
        ) {
            let capacity = 8;
            let mut set = LineSet::with_capacity(capacity);
            let keys = colliding_keys(&set, 12);
            let mut model = HashSet::new();
            for (insert, k) in ops {
                let key = keys[k];
                if !insert {
                    set.remove(key);
                    model.remove(&key);
                } else if model.len() < capacity || model.contains(&key) {
                    set.insert(key);
                    model.insert(key);
                }
                for key in &keys {
                    prop_assert_eq!(set.contains(*key), model.contains(key), "key {:#x}", key);
                }
            }
            prop_assert_eq!(set.used.iter().filter(|&&u| u).count(), model.len());
            prop_assert_eq!(set.len, model.len());
        }
    }

    #[test]
    fn empty_trace_yields_zero_counts() {
        let trace = AddressTrace::from_refs(0, Vec::new());
        let sweep = sweep_trace(&trace, &cache_sweep());
        assert!(sweep.iter().all(|pt| pt.accesses == 0 && pt.misses == 0 && pt.mpi() == 0.0));
    }
}
