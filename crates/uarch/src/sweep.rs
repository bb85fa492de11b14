//! Functional (timing-free) cache simulation for the Figure-4/5 sweeps.

use perfclone_isa::Program;
use perfclone_sim::Simulator;

use crate::cache::{Cache, CacheConfig};
use crate::stackdist::{sweep_trace, AddressTrace};

/// Result of replaying a program's data references through one cache.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DcacheSweepPoint {
    /// The cache geometry simulated.
    pub config: CacheConfig,
    /// Retired instructions.
    pub instrs: u64,
    /// Data accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl DcacheSweepPoint {
    /// Misses per instruction — the paper's Figure-4 metric.
    pub fn mpi(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.misses as f64 / self.instrs as f64
        }
    }
}

/// Replays the program's loads and stores through a single data cache,
/// functionally (no pipeline) — how the paper measures misses-per-
/// instruction across its 28 cache configurations.
pub fn simulate_dcache(program: &Program, config: CacheConfig, limit: u64) -> DcacheSweepPoint {
    let mut cache = Cache::new(config);
    let mut instrs = 0u64;
    for d in Simulator::trace(program, limit) {
        instrs += 1;
        if let Some(m) = d.mem {
            cache.access(m.addr, m.is_store);
        }
    }
    let stats = cache.stats();
    DcacheSweepPoint { config, instrs, accesses: stats.accesses, misses: stats.misses }
}

/// Result of replaying data references through a two-level hierarchy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HierarchyPoint {
    /// L1 D-cache geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Retired instructions.
    pub instrs: u64,
    /// L1 statistics.
    pub l1_stats: crate::cache::CacheStats,
    /// L2 statistics (sees L1 misses only).
    pub l2_stats: crate::cache::CacheStats,
}

impl HierarchyPoint {
    /// L2 misses per instruction — the L2-sweep experiment's metric.
    pub fn l2_mpi(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.l2_stats.misses as f64 / self.instrs as f64
        }
    }
}

/// Replays a pre-extracted data-reference trace through an L1 +
/// unified-L2 hierarchy, functionally. L2 sees L1 misses (and L1 dirty
/// evictions as writes), the usual exclusive-of-hits filtering. Callers
/// evaluating many `(l1, l2)` pairs extract the [`AddressTrace`] once and
/// call this per pair instead of paying one functional simulation each.
pub fn simulate_hierarchy_trace(
    trace: &AddressTrace,
    l1: CacheConfig,
    l2: CacheConfig,
) -> HierarchyPoint {
    let mut c1 = Cache::new(l1);
    let mut c2 = Cache::new(l2);
    for m in trace.refs() {
        let r1 = c1.access(m.addr, m.is_store);
        if !r1.hit {
            c2.access(m.addr, false);
            if r1.writeback {
                c2.access(m.addr, true);
            }
        }
    }
    HierarchyPoint { l1, l2, instrs: trace.instrs(), l1_stats: c1.stats(), l2_stats: c2.stats() }
}

/// Evaluates every configuration with the single-pass stack-distance
/// engine: the program's data references are extracted once and one
/// Mattson stack-distance pass per line-size group produces exact LRU miss
/// counts, bit-identical to per-configuration replay (see
/// [`sweep_dcache_replay`], the correctness oracle, and the
/// [`stackdist`](crate::stackdist) module docs for why).
pub fn sweep_dcache(
    program: &Program,
    configs: &[CacheConfig],
    limit: u64,
) -> Vec<DcacheSweepPoint> {
    sweep_trace(&AddressTrace::extract(program, limit), configs)
}

/// Runs [`simulate_dcache`] over a set of configurations — one full
/// functional replay per configuration. This is the pre-engine path, kept
/// as the correctness oracle the property tests and the
/// `sweep_engine_compare` bench hold [`sweep_dcache`] against.
pub fn sweep_dcache_replay(
    program: &Program,
    configs: &[CacheConfig],
    limit: u64,
) -> Vec<DcacheSweepPoint> {
    configs.iter().map(|c| simulate_dcache(program, *c, limit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Assoc;
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

    #[test]
    fn mpi_decreases_with_cache_size() {
        // Working set of 8 KB, cyclic.
        let p = streaming_program(32, 256, 4_000);
        let small = simulate_dcache(&p, CacheConfig::new(1024, Assoc::Ways(2), 32), u64::MAX);
        let large = simulate_dcache(&p, CacheConfig::new(16 * 1024, Assoc::Ways(2), 32), u64::MAX);
        assert!(small.mpi() > 10.0 * large.mpi(), "{} vs {}", small.mpi(), large.mpi());
    }

    #[test]
    fn hierarchy_l2_filters_l1_hits() {
        let p = streaming_program(32, 4096, 8_000);
        let point = simulate_hierarchy_trace(
            &AddressTrace::extract(&p, u64::MAX),
            CacheConfig::new(1024, Assoc::Ways(2), 32),
            CacheConfig::new(64 * 1024, Assoc::Ways(4), 64),
        );
        // Every L2 access corresponds to an L1 miss (loads only here).
        assert!(point.l2_stats.accesses <= point.l1_stats.misses + point.l1_stats.writebacks);
        assert!(point.l2_stats.accesses > 0);
        // A 128 KB working set fits L2 after warmup but thrashes 1 KB L1.
        assert!(point.l1_stats.miss_rate() > 0.4);
        assert!(point.l2_stats.miss_rate() < point.l1_stats.miss_rate());
    }

    #[test]
    fn engine_sweep_equals_replay_oracle() {
        let p = streaming_program(24, 512, 2_000);
        let configs = crate::config::cache_sweep();
        assert_eq!(
            sweep_dcache(&p, &configs, u64::MAX),
            sweep_dcache_replay(&p, &configs, u64::MAX)
        );
    }

    #[test]
    fn sweep_covers_all_configs() {
        let p = streaming_program(8, 64, 500);
        let sweep = sweep_dcache(&p, &crate::config::cache_sweep(), u64::MAX);
        assert_eq!(sweep.len(), 28);
        // Same trace everywhere.
        for w in sweep.windows(2) {
            assert_eq!(w[0].instrs, w[1].instrs);
            assert_eq!(w[0].accesses, w[1].accesses);
        }
    }
}
