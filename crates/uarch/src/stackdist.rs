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
//! falls off re-enters at the MRU end like a cold one. An access costs one
//! move-to-front pass per level, `O(Σ caps)` in the worst case. Levels
//! are independent: the engine does not use Hill & Smith's refinement of
//! `S`-set caches by `2S`-set ones.
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

/// One set-count level of a pass: a truncated LRU stack per set plus the
/// level's stack-distance histogram.
struct Level {
    sets: u64,
    /// Deepest distance any configuration at this level distinguishes
    /// (its maximum way count), and so each stack's length.
    cap: usize,
    /// `stacks[s * cap..][..fill[s]]` holds set `s`'s lines, MRU first.
    stacks: Vec<u64>,
    /// Occupied length of each set's stack. Slots past it are empty, so
    /// no line value doubles as an empty marker.
    fill: Vec<usize>,
    /// `hist[d]` counts accesses at stack distance `d < cap`.
    hist: Vec<u64>,
}

impl Level {
    fn access(&mut self, line: u64) {
        let set = (line & (self.sets - 1)) as usize;
        let stack = &mut self.stacks[set * self.cap..][..self.cap];
        let fill = &mut self.fill[set];
        // Move to front in one pass: each slot takes the line above it
        // until the accessed line's old slot is overwritten.
        let mut carry = line;
        for (d, slot) in stack[..*fill].iter_mut().enumerate() {
            carry = std::mem::replace(slot, carry);
            if carry == line {
                self.hist[d] += 1;
                return;
            }
        }
        // Absent (a miss at every way count): the pushed-down LRU line
        // drops off a full stack.
        if *fill < self.cap {
            stack[*fill] = carry;
            *fill += 1;
        }
    }
}

/// One single-pass evaluation: a [`Level`] per distinct set count among
/// the configurations of one line-size group.
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
        let levels = caps
            .into_iter()
            .map(|(sets, cap)| Level {
                sets,
                cap,
                stacks: vec![0; sets as usize * cap],
                fill: vec![0; sets as usize],
                hist: vec![0; cap],
            })
            .collect();
        AllAssocPass { line_shift: line_bytes.trailing_zeros(), levels, accesses: 0 }
    }

    fn access(&mut self, addr: u64) {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        for level in &mut self.levels {
            level.access(line);
        }
    }

    /// Exact LRU miss count of a `(sets, ways)` geometry.
    fn misses(&self, sets: u64, ways: u64) -> u64 {
        let hits: u64 = self
            .levels
            .iter()
            .find(|l| l.sets == sets)
            .map_or(0, |l| l.hist[..ways as usize].iter().sum());
        self.accesses - hits
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
    let mut pass = AllAssocPass::new(line_bytes, &geometries);
    for r in trace.refs() {
        pass.access(r.addr);
    }
    perfclone_obs::count!("sweep.group_accesses", pass.accesses);
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
    fn empty_trace_yields_zero_counts() {
        let trace = AddressTrace::from_refs(0, Vec::new());
        let sweep = sweep_trace(&trace, &cache_sweep());
        assert!(sweep.iter().all(|pt| pt.accesses == 0 && pt.misses == 0 && pt.mpi() == 0.0));
    }
}
