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
//! low `j` bits of the line address), so one stack per set serves every
//! associativity at that set count at once. Only the way counts swept at
//! a level need telling apart, so each level counts its hits per
//! *segment*, the distances between two consecutive way counts: an
//! `A`-way geometry's hits are the segments below `A`.
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
//! with its fill count, so an access touches one slot, and counts each
//! distance as a segment of its own. A deeper level (the paper's 512-line
//! fully-associative one, swept at 8 to 512 ways) keeps each set as a
//! marker-segmented LRU list (Kim, Hill & Wood, "Implementing Stack
//! Simulation for Highly-Associative Memories", 1991): a doubly linked
//! recency list over a pool of `sets × cap` nodes, one line→node map per
//! level, a segment tag on each node and a marker on each segment's last
//! node. A hit reads its segment from its node's tag and moves the node to
//! the front. Every segment above it then gains one node at the top and
//! loses its last node to the next segment, so each of their markers moves
//! one node up. A miss reuses the LRU node: every set's list holds all
//! `cap` of its nodes from the start, the ones it has not filled yet at
//! the LRU end, so a miss is one step of the circular list. No access walks
//! its list, and none learns its exact distance, which no swept geometry
//! needs. That is what sets this apart from the first engine's global
//! recency list, which walked from the front to find each distance.
//!
//! **Cost.** A shallow access is `O(cap)`; a deep one is one map probe
//! plus one marker move per segment bound the line crosses, at most the
//! number of way counts swept at the level. On the paper sweep over the 23
//! kernels' and their clones' 200 K-instruction windows, a reference
//! visits 5.3 of the 10 levels on average. Every reference visits the
//! 512-deep level, and the 85.6% that do not stop there move 1.33 markers
//! on average, where the flat stack it replaced walked each of the 77.8%
//! that hit below the top to an average distance of 26.4.
//!
//! Grouping rule: one pass handles every configuration sharing a line
//! size (the line size fixes the address→line mapping); configurations
//! are grouped by `line_bytes` and each group costs one traversal of the
//! trace. The paper's 28-configuration sweep uses 32-byte lines
//! throughout, so the whole sweep is literally one pass.
//!
//! The counts are **bit-identical** to per-configuration [`Cache`]
//! replay (`simulate_dcache` per configuration is the correctness oracle
//! the tests hold the engine against): the cache model is write-allocate
//! with strict LRU victims, so hit/miss per access is a pure function of
//! stack distance, and stores differ from loads only in dirty
//! bookkeeping, which never affects recency order.
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

/// Where an access found its line in its set's stack.
enum Touch {
    /// At the front, where the access changes nothing.
    Top,
    /// Below the front, in this segment.
    Hit(usize),
    /// Nowhere: a cold line, or one that fell off the truncated stack.
    Miss,
}

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
    /// Moves `line` to the front. A shallow level's segments are single
    /// distances, so a hit's segment is its old stack distance.
    #[inline]
    fn touch(&mut self, line: u64, cap: usize) -> Touch {
        let fill = usize::from(self.fill);
        // Move to front in one pass: each slot takes the line above it
        // until the accessed line's old slot is overwritten.
        let mut carry = line;
        for (d, slot) in self.lines[..fill].iter_mut().enumerate() {
            carry = std::mem::replace(slot, carry);
            if carry == line {
                return if d == 0 { Touch::Top } else { Touch::Hit(d) };
            }
        }
        if fill < cap {
            self.lines[fill] = carry;
            self.fill += 1;
        }
        Touch::Miss
    }
}

/// An empty [`LineMap`] slot's node.
const NIL: u32 = u32::MAX;

/// A node of a deep level's recency lists.
#[derive(Clone, Copy)]
struct Node {
    line: u64,
    /// Neighbours towards the MRU and the LRU end. Each list is circular,
    /// so its MRU node's `prev` is its LRU node.
    prev: u32,
    next: u32,
    /// The segment the node's stack distance falls in.
    seg: u32,
}

/// The sets of a deep level as marker-segmented LRU lists (Kim, Hill &
/// Wood, "Implementing Stack Simulation for Highly-Associative Memories",
/// 1991): each node carries its segment and each segment's last node is
/// marked, so that a hit moves one marker per bound it crossed instead of
/// walking to its distance.
struct MarkerLists {
    /// Set `s` owns nodes `s * cap..(s + 1) * cap`, all of them always on
    /// its list: the lines it holds first, then the nodes it has not
    /// filled yet.
    nodes: Vec<Node>,
    /// Each set's MRU node.
    heads: Vec<u32>,
    /// How many lines each set holds.
    lens: Vec<u32>,
    /// `markers[s * segments + t]` is the last node of set `s`'s segment
    /// `t`, the node at position `bounds[t] - 1`.
    markers: Vec<u32>,
    /// Exactly the lines the lists hold, each with its node.
    map: LineMap,
}

impl MarkerLists {
    fn new(sets: usize, bounds: &[usize]) -> MarkerLists {
        let cap = bounds[bounds.len() - 1];
        assert!(sets * cap < NIL as usize, "deep level of {sets} × {cap} lines");
        let node = |set: usize, pos: usize| (set * cap + pos % cap) as u32;
        let nodes = (0..sets * cap)
            .map(|i| {
                let (set, pos) = (i / cap, i % cap);
                Node {
                    line: 0,
                    prev: node(set, pos + cap - 1),
                    next: node(set, pos + 1),
                    seg: bounds.partition_point(|&b| b <= pos) as u32,
                }
            })
            .collect();
        MarkerLists {
            nodes,
            heads: (0..sets).map(|set| node(set, 0)).collect(),
            lens: vec![0; sets],
            markers: (0..sets)
                .flat_map(|set| bounds.iter().map(move |&b| node(set, b - 1)))
                .collect(),
            map: LineMap::with_capacity(sets * cap),
        }
    }

    /// Moves `line` to the front of set `set`'s list. Segment `t` holds
    /// the stack distances `bounds[t - 1]..bounds[t]` (from 0 for
    /// `t = 0`), and the last bound is the cap.
    #[inline]
    fn touch(&mut self, set: usize, line: u64, bounds: &[usize]) -> Touch {
        let segments = bounds.len();
        let markers = &mut self.markers[set * segments..][..segments];
        let nodes = &mut self.nodes;
        let head = self.heads[set];
        let (node, touch, crossed) = match self.map.get(line) {
            Some(n) if n == head => return Touch::Top,
            Some(n) => {
                let Node { prev, next, seg, .. } = nodes[n as usize];
                if markers[seg as usize] == n {
                    markers[seg as usize] = prev;
                }
                // Unlink, then relink between the LRU node and the head.
                nodes[prev as usize].next = next;
                nodes[next as usize].prev = prev;
                let tail = nodes[head as usize].prev;
                nodes[tail as usize].next = n;
                nodes[head as usize].prev = n;
                nodes[n as usize].prev = tail;
                nodes[n as usize].next = head;
                (n, Touch::Hit(seg as usize), seg as usize)
            }
            None => {
                // The LRU node, the last segment's marker, takes the line
                // (evicting its own once the set is full), and the
                // circular list turns one step to put it in front.
                let tail = nodes[head as usize].prev;
                if self.lens[set] as usize == bounds[segments - 1] {
                    self.map.remove(nodes[tail as usize].line);
                } else {
                    self.lens[set] += 1;
                }
                self.map.insert(line, tail);
                nodes[tail as usize].line = line;
                markers[segments - 1] = nodes[tail as usize].prev;
                (tail, Touch::Miss, segments - 1)
            }
        };
        // Each node above `node` moved down one place, so the last node of
        // every segment it crossed moves into the next segment and that
        // segment's marker moves up to its predecessor.
        for (t, marker) in markers[..crossed].iter_mut().enumerate() {
            let m = &mut nodes[*marker as usize];
            m.seg = t as u32 + 1;
            *marker = m.prev;
        }
        nodes[node as usize].seg = 0;
        self.heads[set] = node;
        touch
    }
}

/// One slot of a [`LineMap`], empty when its node is [`NIL`].
#[derive(Clone, Copy)]
struct Slot {
    line: u64,
    node: u32,
}

/// A map from lines to nodes: open addressing with linear probing and
/// deletion by backward shift. A slot's occupancy is its node rather
/// than its line, because every `u64` can be a line. The hash is not
/// keyed, so lines crafted to collide can make a probe scan the whole
/// table; it is at most a quarter full, so every probe ends.
struct LineMap {
    slots: Vec<Slot>,
    /// Number of lines held.
    len: usize,
    /// `64 - log2(slots.len())`: a line's home slot is the top bits of its
    /// Fibonacci hash.
    shift: u32,
}

impl LineMap {
    /// An empty map for up to `capacity` lines, at most a quarter full.
    fn with_capacity(capacity: usize) -> LineMap {
        let slots = (4 * capacity).next_power_of_two().max(2);
        LineMap {
            slots: vec![Slot { line: 0, node: NIL }; slots],
            len: 0,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    fn home(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `line`, or else the empty slot that ends its
    /// probe run, and whether `line` was found.
    #[inline]
    fn probe(&self, line: u64) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(line);
        loop {
            let slot = self.slots[i];
            if slot.node == NIL {
                return (i, false);
            }
            if slot.line == line {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, line: u64) -> Option<u32> {
        match self.probe(line) {
            (i, true) => Some(self.slots[i].node),
            _ => None,
        }
    }

    /// Maps `line`, which must be absent, to `node`.
    fn insert(&mut self, line: u64, node: u32) {
        // A level that lost track of its nodes would fill the table, and
        // then a probe would never meet an empty slot.
        assert!(self.len < self.slots.len() / 4, "line map over capacity");
        let (i, found) = self.probe(line);
        debug_assert!(!found, "line {line:#x} mapped twice");
        self.slots[i] = Slot { line, node };
        self.len += 1;
    }

    fn remove(&mut self, line: u64) {
        let (mut hole, found) = self.probe(line);
        if !found {
            return;
        }
        // Backward shift: pull each later line of the run into the hole
        // when the hole lies on its probe path from its home slot.
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            if self.slots[i].node == NIL {
                break;
            }
            let home = self.home(self.slots[i].line);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[i];
                hole = i;
            }
        }
        self.slots[hole].node = NIL;
        self.len -= 1;
    }
}

/// A level's per-set stacks, stored by its cap.
enum Stacks {
    /// Cap at most [`SHALLOW_CAP`].
    Shallow(Vec<ShallowSet>),
    /// Any deeper cap.
    Deep(MarkerLists),
}

/// One set-count level of a pass: a truncated LRU stack per set plus the
/// level's hits per segment.
struct Level {
    sets: u64,
    /// Segment bounds, ascending: segment `t` holds the stack distances
    /// `bounds[t - 1]..bounds[t]` (from 0 for `t = 0`). A deep level's
    /// bounds are its distinct way counts; a shallow level's are
    /// `1..=cap`, one segment per distance. Either way every way count
    /// swept at the level is a bound.
    bounds: Vec<usize>,
    /// The last bound: each stack's length.
    cap: usize,
    stacks: Stacks,
    /// `hits[t]` counts accesses that found their line in segment `t`
    /// below the front (a distance-0 access is an exit instead).
    hits: Vec<u64>,
    /// Accesses that found their line at distance 0 here and stopped: a
    /// distance-0 hit at this level and at every finer one.
    exits: u64,
}

impl Level {
    /// `ways` are the distinct way counts swept at `sets` sets, ascending.
    fn new(sets: u64, ways: Vec<usize>) -> Level {
        let cap = ways[ways.len() - 1];
        let (bounds, stacks) = if cap <= SHALLOW_CAP {
            ((1..=cap).collect(), Stacks::Shallow(vec![ShallowSet::default(); sets as usize]))
        } else {
            let deep = MarkerLists::new(sets as usize, &ways);
            (ways, Stacks::Deep(deep))
        };
        Level { sets, hits: vec![0; bounds.len()], bounds, cap, stacks, exits: 0 }
    }

    /// Moves `line` to the front of its set's stack and counts the
    /// segment it was found in. Returns `true` when the line was already
    /// at the front, where the access changes nothing.
    #[inline]
    fn access(&mut self, line: u64) -> bool {
        let set = (line & (self.sets - 1)) as usize;
        let touch = match &mut self.stacks {
            Stacks::Shallow(sets) => sets[set].touch(line, self.cap),
            Stacks::Deep(deep) => deep.touch(set, line, &self.bounds),
        };
        match touch {
            Touch::Top => {
                self.exits += 1;
                return true;
            }
            Touch::Hit(seg) => self.hits[seg] += 1,
            Touch::Miss => {}
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
        let mut geometries = geometries.to_vec();
        geometries.sort_unstable();
        geometries.dedup();
        let levels = geometries
            .chunk_by(|a, b| a.0 == b.0)
            .map(|level| Level::new(level[0].0, level.iter().map(|&(_, w)| w as usize).collect()))
            .collect();
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
    /// are the exits at this level and every coarser one, and the deeper
    /// hits are the segments below the bound `ways`.
    fn misses(&self, sets: u64, ways: u64) -> u64 {
        let Some(j) = self.levels.iter().position(|l| l.sets == sets) else {
            return self.accesses;
        };
        let level = &self.levels[j];
        let exits: u64 = self.levels[..=j].iter().map(|l| l.exits).sum();
        let below = level.bounds.partition_point(|&b| b as u64 <= ways);
        let deeper: u64 = level.hits[..below].iter().sum();
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
    use crate::sweep::simulate_dcache;
    use perfclone_isa::{MemWidth, ProgramBuilder, Reg, StreamDesc};
    use proptest::prelude::*;
    use std::collections::HashMap;

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
        let oracle: Vec<_> = configs.iter().map(|c| simulate_dcache(&p, *c, u64::MAX)).collect();
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

    /// Keys whose home slot is one of the last two slots of `map` or its
    /// first, so that their probe runs collide and wrap past the end.
    fn colliding_keys(map: &LineMap, n: usize) -> Vec<u64> {
        let last = map.slots.len() - 1;
        (0..=u64::MAX)
            .flat_map(|k| [k, u64::MAX - k])
            .filter(|&k| matches!(map.home(k), h if h + 1 >= last || h == 0))
            .take(n)
            .collect()
    }

    /// Checks every deep level of `pass`: each set's list is circular over
    /// all its nodes, each node's segment tag matches its position, each
    /// marker is its segment's last node, and the map holds exactly the
    /// lines of each list's first `lens[set]` nodes, each with its node.
    fn check_deep_levels(pass: &AllAssocPass) -> Result<(), TestCaseError> {
        for level in &pass.levels {
            let Stacks::Deep(deep) = &level.stacks else { continue };
            let segments = level.bounds.len();
            let mut held = 0;
            for set in 0..level.sets as usize {
                let len = deep.lens[set] as usize;
                let mut list = Vec::new();
                let mut n = deep.heads[set];
                for pos in 0..level.cap {
                    let node = deep.nodes[n as usize];
                    prop_assert_eq!(deep.nodes[node.next as usize].prev, n, "set {}", set);
                    let seg = level.bounds.partition_point(|&b| b <= pos);
                    prop_assert_eq!(node.seg as usize, seg, "set {} position {}", set, pos);
                    let mapped = deep.map.get(node.line) == Some(n);
                    prop_assert_eq!(mapped, pos < len, "set {} position {}", set, pos);
                    if mapped {
                        prop_assert_eq!(node.line & (level.sets - 1), set as u64);
                    }
                    list.push(n);
                    n = node.next;
                }
                prop_assert_eq!(n, deep.heads[set], "set {} is not one circle", set);
                let markers = &deep.markers[set * segments..][..segments];
                for (t, &bound) in level.bounds.iter().enumerate() {
                    prop_assert_eq!(markers[t], list[bound - 1], "set {} segment {}", set, t);
                }
                held += len;
            }
            prop_assert_eq!(deep.map.len, held);
            prop_assert_eq!(deep.map.slots.iter().filter(|s| s.node != NIL).count(), held);
        }
        Ok(())
    }

    proptest! {
        /// The line map agrees with `HashMap` on every key after each
        /// insert and remove, with at most `capacity` keys held.
        #[test]
        fn line_map_matches_hash_map(
            ops in proptest::collection::vec((any::<bool>(), 0usize..12), 1..200),
        ) {
            let capacity = 8;
            let mut map = LineMap::with_capacity(capacity);
            let keys = colliding_keys(&map, 12);
            let mut model = HashMap::new();
            for (i, (insert, k)) in ops.into_iter().enumerate() {
                let key = keys[k];
                if !insert {
                    map.remove(key);
                    model.remove(&key);
                } else if model.len() < capacity && !model.contains_key(&key) {
                    map.insert(key, i as u32);
                    model.insert(key, i as u32);
                }
                for key in &keys {
                    prop_assert_eq!(map.get(*key), model.get(key).copied(), "key {:#x}", key);
                }
            }
            prop_assert_eq!(map.slots.iter().filter(|s| s.node != NIL).count(), model.len());
            prop_assert_eq!(map.len, model.len());
        }

        /// After every access of a random stream, the marker lists of a
        /// one-set level at 8/16/64/128 ways and a two-set level at
        /// 1/2/8/16/32 ways keep their tags, markers and map exact.
        #[test]
        fn marker_lists_keep_their_invariants(
            lines in proptest::collection::vec(
                (any::<bool>(), 0u64..320).prop_map(|(hot, l)| if hot { l % 24 } else { l }),
                1..700,
            ),
        ) {
            let geometries: Vec<(u64, u64)> = [8, 16, 64, 128]
                .into_iter()
                .map(|w| (1, w))
                .chain([1, 2, 8, 16, 32].into_iter().map(|w| (2, w)))
                .collect();
            let mut pass = AllAssocPass::new(1, &geometries);
            prop_assert!(pass.levels.iter().all(|l| matches!(l.stacks, Stacks::Deep(_))));
            for line in lines {
                pass.access(line);
                check_deep_levels(&pass)?;
            }
        }
    }

    #[test]
    fn empty_trace_yields_zero_counts() {
        let trace = AddressTrace::from_refs(0, Vec::new());
        let sweep = sweep_trace(&trace, &cache_sweep());
        assert!(sweep.iter().all(|pt| pt.accesses == 0 && pt.misses == 0 && pt.mpi() == 0.0));
    }
}
