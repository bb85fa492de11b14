//! Set-associative cache model with LRU replacement.

use std::fmt;

/// Associativity of a cache: n-way or fully associative.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Assoc {
    /// n-way set associative (n ≥ 1; 1 = direct mapped).
    Ways(u32),
    /// Fully associative.
    Full,
}

impl fmt::Display for Assoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Assoc::Ways(1) => write!(f, "DM"),
            Assoc::Ways(n) => write!(f, "{n}-way"),
            Assoc::Full => write!(f, "FA"),
        }
    }
}

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub assoc: Assoc,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two, `size_bytes` is a
    /// multiple of `line_bytes`, and the way count divides the line count.
    pub fn new(size_bytes: u64, assoc: Assoc, line_bytes: u32) -> CacheConfig {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(
            size_bytes.is_multiple_of(u64::from(line_bytes)),
            "size must be a multiple of line size"
        );
        let lines = size_bytes / u64::from(line_bytes);
        if let Assoc::Ways(w) = assoc {
            assert!(w >= 1 && lines.is_multiple_of(u64::from(w)), "ways must divide line count");
            assert!((lines / u64::from(w)).is_power_of_two(), "set count must be a power of two");
        }
        CacheConfig { size_bytes, assoc, line_bytes }
    }

    /// Number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / u64::from(self.line_bytes)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        match self.assoc {
            Assoc::Ways(w) => self.lines() / u64::from(w),
            Assoc::Full => 1,
        }
    }

    /// Ways per set.
    pub fn ways(&self) -> u64 {
        match self.assoc {
            Assoc::Ways(w) => u64::from(w),
            Assoc::Full => self.lines(),
        }
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.size_bytes >= 1024 {
            write!(f, "{}KB/{}/{}B", self.size_bytes / 1024, self.assoc, self.line_bytes)
        } else {
            write!(f, "{}B/{}/{}B", self.size_bytes, self.assoc, self.line_bytes)
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// Hit/miss statistics of one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty evictions (write-backs).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Result of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// `true` when the line was present.
    pub hit: bool,
    /// `true` when a dirty line was evicted to make room.
    pub writeback: bool,
}

/// A write-back, write-allocate, LRU, set-associative cache.
///
/// # Example
///
/// ```
/// use perfclone_uarch::{Assoc, Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(256, Assoc::Ways(1), 32));
/// assert!(!c.access(0, false).hit);  // cold miss
/// assert!(c.access(16, false).hit);  // same line
/// assert!(!c.access(256, false).hit); // conflicts in a 256 B DM cache
/// assert!(!c.access(0, false).hit);  // evicted
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Every line, set-major: set `s` is `lines[s * ways..(s + 1) * ways]`.
    lines: Box<[Line]>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    /// `log2` of the set count: the shift from a line address to its tag.
    set_bits: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        let ways = config.ways();
        Cache {
            config,
            lines: vec![Line::default(); (sets * ways) as usize].into_boxed_slice(),
            ways: ways as usize,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses the byte address, allocating on miss. `is_write` marks the
    /// line dirty.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        self.tick += 1;
        self.stats.accesses += 1;
        let (set_idx, tag) = self.locate(addr);
        let set = &mut self.lines[set_idx * self.ways..(set_idx + 1) * self.ways];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.stamp = self.tick;
            line.dirty |= is_write;
            return AccessResult { hit: true, writeback: false };
        }

        self.stats.misses += 1;
        // Victim: invalid way if any, else LRU.
        let victim = match set.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                set.iter().enumerate().min_by_key(|(_, l)| l.stamp).map(|(i, _)| i).unwrap_or(0)
            }
        };
        let writeback = set[victim].valid && set[victim].dirty;
        if writeback {
            self.stats.writebacks += 1;
        }
        set[victim] = Line { tag, valid: true, dirty: is_write, stamp: self.tick };
        AccessResult { hit: false, writeback }
    }

    /// Probes for presence without updating state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        self.lines[set_idx * self.ways..(set_idx + 1) * self.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// The set `addr` maps to, and its tag there.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        ((line_addr & self.set_mask) as usize, line_addr >> self.set_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = CacheConfig::new(16 * 1024, Assoc::Ways(2), 32);
        assert_eq!(c.lines(), 512);
        assert_eq!(c.sets(), 256);
        assert_eq!(c.ways(), 2);
        let f = CacheConfig::new(1024, Assoc::Full, 32);
        assert_eq!(f.sets(), 1);
        assert_eq!(f.ways(), 32);
    }

    #[test]
    fn lru_within_set() {
        // 2-way, 1 set (64 B, 32 B lines).
        let mut c = Cache::new(CacheConfig::new(64, Assoc::Ways(2), 32));
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // touch A; B is now LRU
        assert!(!c.access(0x200, false).hit); // evicts B
        assert!(c.access(0x000, false).hit); // A still present
        assert!(!c.access(0x100, false).hit); // B gone
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = Cache::new(CacheConfig::new(32, Assoc::Ways(1), 32));
        c.access(0x000, true); // dirty
        let r = c.access(0x100, false); // evict dirty line
        assert!(!r.hit);
        assert!(r.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn fully_associative_has_no_conflicts() {
        // 4 lines FA: 4 distinct lines all fit regardless of address bits.
        let mut c = Cache::new(CacheConfig::new(128, Assoc::Full, 32));
        for a in [0u64, 0x1000, 0x2000, 0x3000] {
            c.access(a, false);
        }
        for a in [0u64, 0x1000, 0x2000, 0x3000] {
            assert!(c.access(a, false).hit);
        }
        // Same working set thrashes a direct-mapped cache of equal size.
        let mut dm = Cache::new(CacheConfig::new(128, Assoc::Ways(1), 32));
        for a in [0u64, 0x1000, 0x2000, 0x3000] {
            dm.access(a, false);
        }
        assert!(!dm.access(0, false).hit);
    }

    #[test]
    fn miss_rate_monotone_in_size_for_streaming() {
        // A cyclic working set larger than the small cache but fitting the
        // big one.
        let run = |size: u64| -> f64 {
            let mut c = Cache::new(CacheConfig::new(size, Assoc::Ways(2), 32));
            for rep in 0..20 {
                let _ = rep;
                for i in 0..64 {
                    c.access(i * 32, false);
                }
            }
            c.stats().miss_rate()
        };
        let small = run(1024); // 32 lines < 64-line working set
        let large = run(4096); // 128 lines > working set
        assert!(small > large);
        assert!(large < 0.1);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = Cache::new(CacheConfig::new(64, Assoc::Ways(2), 32));
        c.access(0x000, false);
        let before = c.stats();
        assert!(c.probe(0x010));
        assert!(!c.probe(0x400));
        assert_eq!(c.stats(), before);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = CacheConfig::new(1024, Assoc::Ways(1), 24);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CacheConfig::new(256, Assoc::Ways(1), 32).to_string(), "256B/DM/32B");
        assert_eq!(CacheConfig::new(16384, Assoc::Ways(4), 32).to_string(), "16KB/4-way/32B");
        assert_eq!(CacheConfig::new(1024, Assoc::Full, 32).to_string(), "1KB/FA/32B");
    }
}
