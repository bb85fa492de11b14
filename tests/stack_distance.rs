//! Property tests of the single-pass multi-configuration cache engine:
//! the Mattson stack-distance pass must reproduce direct
//! per-configuration LRU [`Cache`] replay *exactly* — same miss count for
//! every geometry, every line size, and both associativity kinds
//! (`Assoc::Ways`, `Assoc::Full`).

use perfclone_kernels::{by_name, Scale};
use perfclone_uarch::{
    cache_sweep, simulate_dcache, sweep_dcache, sweep_trace, AddressTrace, Assoc, Cache,
    CacheConfig, DataRef,
};
use proptest::prelude::*;

/// A geometry matrix stressing every axis the engine groups or levels on:
/// line sizes 16/32/64 B, set counts 1..=64, ways 1/2/4/8, and the
/// fully-associative degenerate case at several capacities.
fn config_matrix() -> Vec<CacheConfig> {
    let mut out = Vec::new();
    for line in [16u32, 32, 64] {
        for size_lines in [4u64, 16, 64] {
            let size = size_lines * u64::from(line);
            for assoc in [Assoc::Ways(1), Assoc::Ways(2), Assoc::Ways(4), Assoc::Full] {
                if let Assoc::Ways(w) = assoc {
                    if u64::from(w) > size_lines {
                        continue;
                    }
                }
                out.push(CacheConfig::new(size, assoc, line));
            }
        }
    }
    out.push(CacheConfig::new(8 * 64, Assoc::Ways(8), 16));
    out
}

/// Geometries whose stacks are deep or shallow at their extremes, with
/// several way counts at each deep level: fully associative at 8, 16, 64,
/// 128 and 512 ways (the paper's 16 KB FA is one 512-deep stack), and two
/// sets at 1, 2, 4, 8, 16, 32 and 64 ways (the 4-way one is the paper's
/// 256 B 4-way, a shallow stack alone).
fn cap_geometries() -> Vec<CacheConfig> {
    let fully = [8u64, 16, 64, 128, 512].map(|ways| CacheConfig::new(ways * 32, Assoc::Full, 32));
    let two_sets = [1u32, 2, 4, 8, 16, 32, 64]
        .map(|ways| CacheConfig::new(2 * u64::from(ways) * 32, Assoc::Ways(ways), 32));
    fully.into_iter().chain(two_sets).collect()
}

/// Streams of segments, each cycling over `ways + delta + 1` distinct
/// lines of one set of one [`cap_geometries`] entry, so that every
/// re-access in the segment has reuse distance `ways + delta` for
/// `delta` in `-1..=1`: just inside, at, and just past each way count.
fn cap_straddling_stream() -> impl Strategy<Value = Vec<DataRef>> {
    let geometries = cap_geometries().len();
    let segment = (0..geometries, -1i64..=1, 0u64..2, 1u64..4, any::<bool>());
    proptest::collection::vec(segment, 1..8).prop_map(|segments| {
        let geometries = cap_geometries();
        let mut refs = Vec::new();
        for (i, (g, delta, set, rounds, is_store)) in segments.into_iter().enumerate() {
            let config = geometries[g];
            let sets = config.sets();
            let distinct = (config.ways() as i64 + delta + 1) as u64;
            let base = i as u64 * 4096 + set % sets;
            for _ in 0..rounds {
                for k in 0..distinct {
                    let addr = (base + k * sets) * u64::from(config.line_bytes);
                    refs.push(DataRef { addr, is_store: is_store && k % 2 == 0 });
                }
            }
        }
        refs
    })
}

fn replay_misses(refs: &[DataRef], config: CacheConfig) -> u64 {
    let mut cache = Cache::new(config);
    for r in refs {
        cache.access(r.addr, r.is_store);
    }
    cache.stats().misses
}

/// Raw (address, is_store) streams with enough reuse to exercise hits,
/// conflict misses, and LRU reordering at every geometry in the matrix.
fn ref_stream() -> impl Strategy<Value = Vec<DataRef>> {
    proptest::collection::vec(
        (0u64..16_384, any::<bool>()).prop_map(|(addr, is_store)| DataRef { addr, is_store }),
        1..600,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactness: single-pass miss counts equal direct LRU replay for
    /// every configuration in the matrix, on arbitrary reference streams.
    /// The matrix without its fully-associative entries has no one-set
    /// level, so there every early exit stops at a level of two or more
    /// sets.
    #[test]
    fn engine_equals_direct_replay_everywhere(refs in ref_stream()) {
        let trace = AddressTrace::from_refs(refs.len() as u64, refs.clone());
        let matrix = config_matrix();
        let set_assoc: Vec<CacheConfig> =
            matrix.iter().copied().filter(|c| c.assoc != Assoc::Full).collect();
        for configs in [matrix, set_assoc] {
            let sweep = sweep_trace(&trace, &configs);
            prop_assert_eq!(sweep.len(), configs.len());
            for (point, &config) in sweep.iter().zip(&configs) {
                prop_assert_eq!(
                    point.misses,
                    replay_misses(&refs, config),
                    "geometry {} diverged from direct replay",
                    config
                );
                prop_assert_eq!(point.accesses, refs.len() as u64);
            }
        }
    }

    /// Tight clustered streams drive deep stack distances and lines
    /// falling off the truncated stack; the fully-associative configs
    /// (one set, one stack) must still match replay exactly.
    #[test]
    fn fully_associative_degenerate_case(lines in proptest::collection::vec(0u64..96, 1..400)) {
        let refs: Vec<DataRef> =
            lines.iter().map(|&l| DataRef { addr: l * 32, is_store: l % 3 == 0 }).collect();
        let trace = AddressTrace::from_refs(refs.len() as u64, refs.clone());
        for size_lines in [2u64, 8, 32, 128] {
            let config = CacheConfig::new(size_lines * 32, Assoc::Full, 32);
            let sweep = sweep_trace(&trace, &[config]);
            prop_assert_eq!(sweep[0].misses, replay_misses(&refs, config), "{}", config);
        }
    }

    /// Reuse distances one below, at, and one above every way count,
    /// evaluated both with all geometries in one pass (a one-set level
    /// whose segments end at 8, 16, 64, 128 and 512, and a two-set level
    /// whose segments end at 1, 2, 4, 8, 16, 32 and 64) and with each
    /// alone (one segment per deep level; the 4-way one is shallow).
    #[test]
    fn engine_matches_replay_across_stack_caps(refs in cap_straddling_stream()) {
        let trace = AddressTrace::from_refs(refs.len() as u64, refs.clone());
        let configs = cap_geometries();
        let together = sweep_trace(&trace, &configs);
        for (point, &config) in together.iter().zip(&configs) {
            let oracle = replay_misses(&refs, config);
            prop_assert_eq!(point.misses, oracle, "{} in one pass", config);
            prop_assert_eq!(sweep_trace(&trace, &[config])[0].misses, oracle, "{} alone", config);
        }
    }
}

/// Acceptance check on a real kernel: the engine-backed [`sweep_dcache`]
/// equals per-configuration [`simulate_dcache`] replay for every
/// configuration of the paper's Figure-4/5 sweep set.
#[test]
fn engine_matches_replay_on_fig04_sweep() {
    let program = by_name("crc32").expect("kernel exists").build(Scale::Tiny).program;
    let configs = cache_sweep();
    assert_eq!(configs.len(), 28);
    let engine = sweep_dcache(&program, &configs, u64::MAX);
    let oracle: Vec<_> = configs.iter().map(|c| simulate_dcache(&program, *c, u64::MAX)).collect();
    assert_eq!(engine, oracle, "single-pass engine diverged from per-config replay");
}
