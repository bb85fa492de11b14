//! Sparse, paged, little-endian byte-addressable memory.

use rustc_hash::FxHashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A sparse 64-bit byte-addressable memory.
///
/// Pages are allocated on first write; reads of untouched memory return
/// zero. All multi-byte accesses are little-endian and may straddle page
/// boundaries. The page table sits on the simulator's innermost loop and
/// is keyed by page numbers the simulator computes itself, so it uses the
/// deterministic fast [`FxHashMap`] rather than `std`'s SipHash map.
///
/// # Example
///
/// ```
/// use perfclone_sim::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0xfff_0000, 0xdead_beef);
/// assert_eq!(m.read_u64(0xfff_0000), 0xdead_beef);
/// assert_eq!(m.read_u8(0x42), 0); // untouched reads as zero
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: FxHashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of 4 KiB pages currently allocated.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page if needed.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page =
            self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: access within one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            if let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                out.copy_from_slice(&page[off..off + N]);
            }
            return out;
        }
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        out
    }

    /// Writes `bytes` starting at `addr`, one page-sized chunk at a time
    /// (a program's data image is loaded this way).
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let (chunk, rest) = bytes.split_at(bytes.len().min(PAGE_SIZE - off));
            let page =
                self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[off..off + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            bytes = rest;
        }
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes::<4>(addr))
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes::<8>(addr))
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads an IEEE-754 double.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an IEEE-754 double.
    #[inline]
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 3; // straddles first/second page
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn float_round_trip() {
        let mut m = Memory::new();
        m.write_f64(64, -1234.5e-6);
        assert_eq!(m.read_f64(64), -1234.5e-6);
    }

    #[test]
    fn overlapping_writes_are_little_endian() {
        let mut m = Memory::new();
        m.write_u32(0, 0xaabbccdd);
        assert_eq!(m.read_u8(0), 0xdd);
        assert_eq!(m.read_u8(3), 0xaa);
    }

    proptest! {
        #[test]
        fn u64_round_trip(addr in 0u64..(1 << 40), value: u64) {
            let mut m = Memory::new();
            m.write_u64(addr, value);
            prop_assert_eq!(m.read_u64(addr), value);
        }

        /// Spans of up to three pages at any offset, including ones that
        /// wrap past the top of the address space, land byte for byte and
        /// allocate the same pages as byte-at-a-time writes.
        #[test]
        fn byte_writes_compose(
            page in prop_oneof![0u64..(1 << 18), Just(u64::MAX >> PAGE_SHIFT)],
            off in 0..PAGE_SIZE as u64,
            bytes in proptest::collection::vec(any::<u8>(), 1..3 * PAGE_SIZE),
        ) {
            let addr = (page << PAGE_SHIFT) | off;
            let mut m = Memory::new();
            m.write_bytes(addr, &bytes);
            let mut reference = Memory::new();
            for (i, b) in bytes.iter().enumerate() {
                reference.write_u8(addr.wrapping_add(i as u64), *b);
            }
            prop_assert_eq!(m.page_count(), reference.page_count());
            for (i, b) in bytes.iter().enumerate() {
                prop_assert_eq!(m.read_u8(addr.wrapping_add(i as u64)), *b);
            }
        }

        #[test]
        fn disjoint_writes_do_not_interfere(a in 0u64..1_000_000, b in 0u64..1_000_000, x: u64, y: u64) {
            prop_assume!(a.abs_diff(b) >= 8);
            let mut m = Memory::new();
            m.write_u64(a, x);
            m.write_u64(b, y);
            prop_assert_eq!(m.read_u64(a), x);
            prop_assert_eq!(m.read_u64(b), y);
        }
    }
}
