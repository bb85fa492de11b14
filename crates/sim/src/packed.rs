//! Record-once/replay-many packed dynamic traces: the encoding, its
//! recorder and its two decoders.
//!
//! A design-space sweep replays the *same* retired-instruction stream
//! through many timing configurations, yet [`Simulator::trace`] regenerates
//! it with a full functional execution per run.
//! [`TraceStore::capture`](crate::TraceStore::capture) records the stream
//! once, in a compact structure-of-arrays encoding, and
//! [`TraceStore::replay`](crate::TraceStore::replay) reconstructs it as
//! [`DynInstr`] records with a zero-allocation iterator — the
//! record-once/replay-many discipline of trace-driven simulators
//! (SimpleScalar's `sim-outorder` trace mode).
//!
//! [`Simulator::trace`]: crate::Simulator::trace
//!
//! # Encoding
//!
//! The functional core retires a *contiguous* correct-path stream: record
//! `i + 1` always starts at record `i`'s `next_pc`, and `halt` ends the
//! stream. Only deviations from fall-through need storing, so per record
//! the trace keeps:
//!
//! * one *redirect* bit — set when `next_pc != pc + 1`;
//! * one *taken* bit — conditional-branch outcome (a taken branch whose
//!   target is `pc + 1` is taken but not redirected, so this cannot be
//!   derived from the redirect bit);
//! * for redirected records only, the signed pc delta `next_pc − pc`,
//!   zigzag + LEB128 varint encoded (loop back-edges are 1–2 bytes);
//! * for memory records only, the effective address (SoA `u64` array) and
//!   the access size with the store flag folded into the top bit.
//!
//! The static [`Instr`] is *not* copied per dynamic record: replay resolves
//! it by pc from the owning [`Program`], which also decides whether a
//! record carries a memory access. Bundled kernels pack to ~2–3 bytes per
//! dynamic instruction versus the 64 of a materialized `Vec<DynInstr>`.
//!
//! # Fault carry-through
//!
//! A program that faults mid-capture produces a trace holding every record
//! retired *before* the fault plus the typed [`SimError`]; replay yields
//! the same truncated stream and surfaces the same fault from
//! [`TraceStore::fault`](crate::TraceStore::fault), mirroring
//! [`Trace::fault`](crate::Trace::fault).
//! [`TraceStore::halted`](crate::TraceStore::halted) distinguishes a clean
//! `halt` from a capture that stopped at its instruction limit.

use perfclone_isa::{Instr, InstrMeta, InstrMetaTable, Program};

use crate::exec::SimError;
use crate::trace::{DynInstr, MemAccess};

/// Borrowed view of a stored trace's raw encoding, whether
/// [`TraceStore`](crate::TraceStore) holds its sections in owned vectors or
/// in the mapping of its spill file. Both decoders are built from it, so
/// the two backings decode identically.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TraceParts<'a> {
    pub program_name: &'a str,
    pub program_len: usize,
    pub start_pc: u32,
    pub len: u64,
    pub redirect_bits: &'a [u64],
    pub taken_bits: &'a [u64],
    pub targets: &'a [u8],
    pub mem_addrs: &'a [u64],
    pub mem_sizes: &'a [u8],
    pub fault: Option<&'a SimError>,
}

impl<'a> TraceParts<'a> {
    /// Asserts the program identity (name and text length) matches the
    /// capture — replaying against different code would silently decode
    /// garbage.
    fn assert_program_matches(&self, program: &Program) {
        assert!(
            program.name() == self.program_name && program.len() == self.program_len,
            "packed trace of {:?} ({} instrs) replayed against {:?} ({} instrs)",
            self.program_name,
            self.program_len,
            program.name(),
            program.len(),
        );
    }

    /// The record-at-a-time decoder.
    pub(crate) fn replay(self, program: &'a Program) -> PackedReplay<'a> {
        self.assert_program_matches(program);
        PackedReplay {
            len: self.len,
            redirect_bits: self.redirect_bits,
            taken_bits: self.taken_bits,
            targets: self.targets,
            mem_addrs: self.mem_addrs,
            mem_sizes: self.mem_sizes,
            fault: self.fault,
            code: program.instrs(),
            idx: 0,
            pc: self.start_pc,
            target_cursor: 0,
            mem_cursor: 0,
        }
    }

    /// The batched decoder, also asserting that `meta` was interned for
    /// `program` (checked by length).
    pub(crate) fn batched(self, program: &'a Program, meta: &'a InstrMetaTable) -> BatchReplay<'a> {
        self.assert_program_matches(program);
        assert!(
            meta.len() == program.len(),
            "interned metadata of {} instrs replayed against {:?} ({} instrs)",
            meta.len(),
            program.name(),
            program.len(),
        );
        BatchReplay {
            len: self.len,
            redirect_bits: self.redirect_bits,
            taken_bits: self.taken_bits,
            targets: self.targets,
            mem_addrs: self.mem_addrs,
            mem_sizes: self.mem_sizes,
            fault: self.fault,
            meta: meta.as_slice(),
            idx: 0,
            pc: self.start_pc,
            target_cursor: 0,
            mem_cursor: 0,
        }
    }
}

/// Incremental builder of the packed encoding: it packs each retired
/// instruction as it streams past. The spilling recorder wraps it, and
/// drains its completed sections to disk past the capture's cap.
///
/// The pushed records must form one contiguous correct-path stream (each
/// record's `pc` equal to its predecessor's `next_pc`), which is what
/// [`Simulator::trace`](crate::Simulator::trace) yields; this is
/// debug-asserted.
#[derive(Clone, Debug, Default)]
pub(crate) struct PackedRecorder {
    pub(crate) start_pc: u32,
    expect_pc: u32,
    pub(crate) len: u64,
    pub(crate) redirect_bits: Vec<u64>,
    pub(crate) taken_bits: Vec<u64>,
    pub(crate) targets: Vec<u8>,
    pub(crate) mem_addrs: Vec<u64>,
    pub(crate) mem_sizes: Vec<u8>,
}

impl PackedRecorder {
    /// Current packed size in bytes: the
    /// [`stored_bytes`](crate::TraceStore::stored_bytes) of the in-memory
    /// store the recording would seal into now, less the program-name
    /// string.
    pub(crate) fn packed_bytes(&self) -> usize {
        std::mem::size_of::<crate::TraceStore>()
            + (self.redirect_bits.len() + self.taken_bits.len() + self.mem_addrs.len()) * 8
            + self.targets.len()
            + self.mem_sizes.len()
    }

    /// Packs one retired instruction.
    pub(crate) fn push(&mut self, d: &DynInstr) {
        if self.len == 0 {
            self.start_pc = d.pc;
        } else {
            debug_assert_eq!(
                d.pc, self.expect_pc,
                "packed capture requires a contiguous retired stream"
            );
        }
        if self.len.is_multiple_of(64) {
            self.redirect_bits.push(0);
            self.taken_bits.push(0);
        }
        let bit = 1u64 << (self.len % 64);
        if let (Some(r), Some(t)) = (self.redirect_bits.last_mut(), self.taken_bits.last_mut()) {
            if d.redirected() {
                *r |= bit;
                let delta = i64::from(d.next_pc) - i64::from(d.pc);
                encode_zigzag(delta, &mut self.targets);
            }
            if d.taken {
                *t |= bit;
            }
        }
        if let Some(m) = d.mem {
            self.mem_addrs.push(m.addr);
            self.mem_sizes.push(m.bytes | if m.is_store { 0x80 } else { 0 });
        }
        self.expect_pc = d.next_pc;
        self.len += 1;
    }
}

/// Iterator over a packed trace's encoding, yielding the recorded
/// [`DynInstr`] stream without allocating — the record-at-a-time oracle
/// the batched decoder is tested against. Created by
/// [`TraceStore::replay`](crate::TraceStore::replay), which feeds it the
/// same raw slices for in-memory and memory-mapped traces, so the two
/// backings decode identically by construction. It resolves every
/// record from the program text and shares nothing with the batched
/// path's interned [`InstrMetaTable`].
#[derive(Clone, Debug)]
pub struct PackedReplay<'a> {
    len: u64,
    redirect_bits: &'a [u64],
    taken_bits: &'a [u64],
    targets: &'a [u8],
    mem_addrs: &'a [u64],
    mem_sizes: &'a [u8],
    fault: Option<&'a SimError>,
    code: &'a [Instr],
    idx: u64,
    pc: u32,
    target_cursor: usize,
    mem_cursor: usize,
}

impl PackedReplay<'_> {
    /// The fault recorded at capture time, if any — the replay analogue of
    /// [`Trace::fault`](crate::Trace::fault): the iterator ends after the
    /// last cleanly retired record and this names what stopped it.
    pub fn fault(&self) -> Option<&SimError> {
        self.fault
    }
}

impl Iterator for PackedReplay<'_> {
    type Item = DynInstr;

    #[inline]
    fn next(&mut self) -> Option<DynInstr> {
        if self.idx == self.len {
            return None;
        }
        let pc = self.pc;
        let instr = self.code[pc as usize];
        let word = (self.idx / 64) as usize;
        let bit = 1u64 << (self.idx % 64);
        let taken = self.taken_bits[word] & bit != 0;
        let next_pc = if self.redirect_bits[word] & bit != 0 {
            let delta = decode_zigzag(self.targets, &mut self.target_cursor);
            i64::from(pc).wrapping_add(delta) as u32
        } else {
            pc.wrapping_add(1)
        };
        // The program decides whether this record carries a memory access;
        // the SoA arrays only hold the dynamic half (address, size, store).
        let mem = if instr.mem_ref().is_some() {
            let addr = self.mem_addrs[self.mem_cursor];
            let sz = self.mem_sizes[self.mem_cursor];
            self.mem_cursor += 1;
            Some(MemAccess { addr, bytes: sz & 0x7f, is_store: sz & 0x80 != 0 })
        } else {
            None
        };
        self.idx += 1;
        self.pc = next_pc;
        Some(DynInstr { pc, instr, next_pc, taken, mem })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::try_from(self.len - self.idx).unwrap_or(usize::MAX);
        (left, Some(left))
    }
}

/// Records per [`ReplayChunk`]: 256 keeps the chunk's SoA arrays (~4.6 KiB)
/// L1-resident while amortizing refill overhead, and is a multiple of 64 so
/// chunk boundaries align with bitset words.
pub const CHUNK_LEN: usize = 256;

/// A reusable structure-of-arrays batch of decoded trace records, filled by
/// [`BatchReplay::fill`]. Consumers index the parallel arrays directly
/// instead of materializing one [`DynInstr`] per record; the static
/// instruction is recovered from `pcs[i]` via the program text or an
/// interned [`InstrMetaTable`].
///
/// `mem_sizes[i] == 0` means record `i` carries no memory access (real
/// accesses are 1/4/8 bytes, with the store flag in bit 7, so 0 is free as
/// a sentinel); `mem_addrs[i]` is only meaningful when `mem_sizes[i] != 0`.
#[derive(Clone, Debug)]
pub struct ReplayChunk {
    len: usize,
    pcs: [u32; CHUNK_LEN],
    next_pcs: [u32; CHUNK_LEN],
    taken: [bool; CHUNK_LEN],
    mem_addrs: [u64; CHUNK_LEN],
    mem_sizes: [u8; CHUNK_LEN],
}

impl Default for ReplayChunk {
    fn default() -> ReplayChunk {
        ReplayChunk::new()
    }
}

impl ReplayChunk {
    /// An empty chunk, ready to be passed to [`BatchReplay::fill`].
    pub fn new() -> ReplayChunk {
        ReplayChunk {
            len: 0,
            pcs: [0; CHUNK_LEN],
            next_pcs: [0; CHUNK_LEN],
            taken: [false; CHUNK_LEN],
            mem_addrs: [0; CHUNK_LEN],
            mem_sizes: [0; CHUNK_LEN],
        }
    }

    /// Number of decoded records in the chunk (0 once the stream is drained).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the last fill decoded nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// pc of record `i`.
    #[inline]
    pub fn pc(&self, i: usize) -> u32 {
        self.pcs[i]
    }

    /// next_pc of record `i`.
    #[inline]
    pub fn next_pc(&self, i: usize) -> u32 {
        self.next_pcs[i]
    }

    /// Taken-conditional-branch flag of record `i`.
    #[inline]
    pub fn taken(&self, i: usize) -> bool {
        self.taken[i]
    }

    /// Memory access of record `i`, if it carries one.
    #[inline]
    pub fn mem(&self, i: usize) -> Option<MemAccess> {
        let sz = self.mem_sizes[i];
        (sz != 0).then(|| MemAccess {
            addr: self.mem_addrs[i],
            bytes: sz & 0x7f,
            is_store: sz & 0x80 != 0,
        })
    }

    /// Reassembles record `i` as a [`DynInstr`], resolving the static
    /// instruction from `code` — the bridge back to the record-at-a-time
    /// currency, used by the batched-vs-oracle equivalence tests.
    pub fn record(&self, i: usize, code: &[Instr]) -> DynInstr {
        assert!(i < self.len, "record {i} out of chunk (len {})", self.len);
        let pc = self.pcs[i];
        DynInstr {
            pc,
            instr: code[pc as usize],
            next_pc: self.next_pcs[i],
            taken: self.taken[i],
            mem: self.mem(i),
        }
    }

    /// Iterates the chunk's records as [`DynInstr`]s (test/oracle bridge).
    pub fn records<'a>(&'a self, code: &'a [Instr]) -> impl Iterator<Item = DynInstr> + 'a {
        (0..self.len).map(move |i| self.record(i, code))
    }
}

/// Batched decoder over a packed trace: each [`fill`](BatchReplay::fill)
/// decodes up to [`CHUNK_LEN`] records into a caller-owned [`ReplayChunk`].
///
/// Unlike [`PackedReplay`]'s per-record probing, the decoder loads each
/// 64-record redirect/taken bitset word once and walks runs of fall-through
/// records with `u64::trailing_zeros` — within a run, `next_pc` is just
/// `pc + 1` and no varint is decoded. Per-pc static questions come from the
/// interned [`InstrMetaTable`] rather than instruction-enum matching.
///
/// Fault/halted state carries through chunk boundaries exactly as in the
/// record-at-a-time path: the decoder stops after the last cleanly retired
/// record (wherever that falls relative to a chunk edge) and
/// [`fault`](BatchReplay::fault) names what stopped the capture.
#[derive(Clone, Debug)]
pub struct BatchReplay<'a> {
    len: u64,
    redirect_bits: &'a [u64],
    taken_bits: &'a [u64],
    targets: &'a [u8],
    mem_addrs: &'a [u64],
    mem_sizes: &'a [u8],
    fault: Option<&'a SimError>,
    meta: &'a [InstrMeta],
    idx: u64,
    pc: u32,
    target_cursor: usize,
    mem_cursor: usize,
}

impl<'a> BatchReplay<'a> {
    /// Decodes the next batch of records into `chunk`, returning how many
    /// were decoded (0 once the stream is drained). The chunk is fully
    /// overwritten up to the returned length; earlier contents past it are
    /// stale.
    pub fn fill(&mut self, chunk: &mut ReplayChunk) -> usize {
        let metas = self.meta;
        let mut slot = 0usize;
        let mut pc = self.pc;
        while slot < CHUNK_LEN && self.idx < self.len {
            // One bitset word covers 64 records; clamp the span to the
            // stream end and the space left in the chunk, then scan the
            // word instead of probing bit-by-bit.
            let word = (self.idx / 64) as usize;
            let off = (self.idx % 64) as u32;
            let span = (64 - u64::from(off)).min(self.len - self.idx).min((CHUNK_LEN - slot) as u64)
                as u32;
            let rword = self.redirect_bits[word] >> off;
            let tword = self.taken_bits[word] >> off;
            let mut i = 0u32;
            while i < span {
                // trailing_zeros finds the entire run of fall-through
                // records at once; within it pc just increments.
                let run = (rword >> i).trailing_zeros().min(span - i);
                for j in i..i + run {
                    chunk.pcs[slot] = pc;
                    chunk.taken[slot] = (tword >> j) & 1 != 0;
                    chunk.mem_sizes[slot] = if metas[pc as usize].has_mem {
                        chunk.mem_addrs[slot] = self.mem_addrs[self.mem_cursor];
                        let sz = self.mem_sizes[self.mem_cursor];
                        self.mem_cursor += 1;
                        sz
                    } else {
                        0
                    };
                    pc = pc.wrapping_add(1);
                    chunk.next_pcs[slot] = pc;
                    slot += 1;
                }
                i += run;
                if i < span {
                    // Redirected record: the only place a varint is decoded.
                    chunk.pcs[slot] = pc;
                    chunk.taken[slot] = (tword >> i) & 1 != 0;
                    chunk.mem_sizes[slot] = if metas[pc as usize].has_mem {
                        chunk.mem_addrs[slot] = self.mem_addrs[self.mem_cursor];
                        let sz = self.mem_sizes[self.mem_cursor];
                        self.mem_cursor += 1;
                        sz
                    } else {
                        0
                    };
                    let delta = decode_zigzag(self.targets, &mut self.target_cursor);
                    pc = i64::from(pc).wrapping_add(delta) as u32;
                    chunk.next_pcs[slot] = pc;
                    slot += 1;
                    i += 1;
                }
            }
            self.idx += u64::from(span);
        }
        self.pc = pc;
        chunk.len = slot;
        slot
    }

    /// Total records in the stream.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the stream holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records not yet decoded into a chunk.
    pub fn remaining(&self) -> u64 {
        self.len - self.idx
    }

    /// The fault recorded at capture time, if any — surfaced after the
    /// last chunk drains, mirroring [`PackedReplay::fault`].
    pub fn fault(&self) -> Option<&SimError> {
        self.fault
    }

    /// The interned per-pc metadata this decoder resolves against.
    #[inline]
    pub fn meta(&self) -> &'a [InstrMeta] {
        self.meta
    }
}

/// Appends `v` as a zigzag-mapped LEB128 varint.
fn encode_zigzag(v: i64, out: &mut Vec<u8>) {
    let mut zz = ((v << 1) ^ (v >> 63)) as u64;
    loop {
        let byte = (zz & 0x7f) as u8;
        zz >>= 7;
        if zz == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one zigzag-mapped LEB128 varint starting at `*cursor`, advancing
/// the cursor past it.
#[inline]
fn decode_zigzag(bytes: &[u8], cursor: &mut usize) -> i64 {
    let mut zz = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[*cursor];
        *cursor += 1;
        zz |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    ((zz >> 1) as i64) ^ -((zz & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulator, TraceStore};
    use perfclone_isa::{MemWidth, ProgramBuilder, Reg, StreamDesc};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// A kernel-shaped program: loop with a conditional back-edge, loads,
    /// stores, a call/return pair, and a halt.
    fn busy_program() -> perfclone_isa::Program {
        let mut b = ProgramBuilder::new("busy");
        let table = b.data_u64(&[1, 2, 3, 4]);
        let id = b.stream(StreamDesc { base: 0x4000, stride: 16, length: 8 });
        let (i, n, acc, ptr, ra) = (r(1), r(2), r(3), r(4), r(31));
        b.li(i, 0);
        b.li(n, 25);
        b.li(ptr, table as i64);
        let func = b.label();
        let top = b.label();
        let done = b.label();
        b.j(top);
        b.bind(func);
        b.ld(acc, ptr, 8);
        b.jr(ra);
        b.bind(top);
        b.ld_stream(acc, id, MemWidth::B8);
        b.sb(acc, ptr, 16);
        b.jal(ra, func);
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.bind(done);
        b.halt();
        b.build()
    }

    /// Captures `p` in memory: no cap, so nothing spills.
    fn capture(p: &perfclone_isa::Program, limit: u64) -> TraceStore {
        TraceStore::capture(p, limit, usize::MAX, &std::env::temp_dir()).unwrap()
    }

    fn assert_replay_equals_trace(p: &perfclone_isa::Program, limit: u64) {
        let direct: Vec<DynInstr> = Simulator::trace(p, limit).collect();
        let packed = capture(p, limit);
        let replayed: Vec<DynInstr> = packed.replay(p).collect();
        assert_eq!(direct, replayed);
        let mut direct_trace = Simulator::trace(p, limit);
        let n = direct_trace.by_ref().count();
        assert_eq!(packed.len(), n as u64);
        assert_eq!(packed.fault(), direct_trace.fault());
    }

    #[test]
    fn replay_reproduces_the_interpreter_stream() {
        let p = busy_program();
        for limit in [0, 1, 7, 64, 65, 1_000, u64::MAX] {
            assert_replay_equals_trace(&p, limit);
        }
    }

    #[test]
    fn faulting_program_carries_its_fault_through() {
        let mut b = ProgramBuilder::new("fall");
        b.nop(); // no halt: falls off the end
        let p = b.build();
        let packed = capture(&p, 100);
        assert_eq!(packed.len(), 1);
        assert!(!packed.halted());
        assert!(matches!(packed.fault(), Some(SimError::PcOutOfRange { pc: 1, .. })));
        assert_replay_equals_trace(&p, 100);
    }

    #[test]
    fn halted_flag_distinguishes_clean_stop_from_limit() {
        let p = busy_program();
        assert!(capture(&p, u64::MAX).halted());
        let truncated = capture(&p, 5);
        assert!(!truncated.halted());
        assert!(truncated.fault().is_none());
        assert_eq!(truncated.len(), 5);
    }

    #[test]
    fn taken_branch_to_fallthrough_is_preserved() {
        // A taken conditional branch whose target *is* pc + 1: taken must
        // round-trip independently of the redirect bit.
        let mut b = ProgramBuilder::new("tft");
        let (x,) = (r(1),);
        b.li(x, 1);
        let next = b.label();
        b.bgt(x, r(0), next); // taken, target == pc + 1
        b.bind(next);
        b.halt();
        let p = b.build();
        let direct: Vec<DynInstr> = Simulator::trace(&p, 100).collect();
        assert!(direct.iter().any(|d| d.taken && !d.redirected()));
        assert_replay_equals_trace(&p, 100);
    }

    #[test]
    fn packing_is_compact() {
        let p = busy_program();
        let packed = capture(&p, u64::MAX);
        let materialized = packed.len() as usize * std::mem::size_of::<DynInstr>();
        assert!(
            packed.stored_bytes() as usize * 4 < materialized,
            "packed {} B vs materialized {} B over {} instrs",
            packed.stored_bytes(),
            materialized,
            packed.len()
        );
    }

    #[test]
    fn zigzag_round_trips() {
        let mut buf = Vec::new();
        let values = [0i64, 1, -1, 2, -2, 63, -64, 8_191, -8_192, i64::from(u32::MAX), -(1 << 31)];
        for v in values {
            encode_zigzag(v, &mut buf);
        }
        let mut cursor = 0;
        for v in values {
            assert_eq!(decode_zigzag(&buf, &mut cursor), v);
        }
        assert_eq!(cursor, buf.len());
    }

    #[test]
    #[should_panic(expected = "replayed against")]
    fn replay_against_wrong_program_panics() {
        let p = busy_program();
        let packed = capture(&p, 100);
        let mut b = ProgramBuilder::new("other");
        b.halt();
        let other = b.build();
        let _ = packed.replay(&other).count();
    }

    /// Drains `packed` through the batched decoder, reassembling
    /// [`DynInstr`]s, and checks the stream (and fault) against the
    /// record-at-a-time oracle.
    fn assert_batched_equals_oracle(p: &perfclone_isa::Program, limit: u64) {
        let packed = capture(p, limit);
        let meta = InstrMetaTable::new(p);
        let oracle: Vec<DynInstr> = packed.replay(p).collect();
        let mut batched = packed.replay_batched(p, &meta);
        let mut chunk = ReplayChunk::new();
        let mut out = Vec::new();
        while batched.fill(&mut chunk) > 0 {
            out.extend(chunk.records(p.instrs()));
        }
        assert_eq!(oracle, out, "batched decode diverged at limit {limit}");
        assert_eq!(batched.remaining(), 0);
        assert_eq!(batched.fault(), packed.fault());
        assert_eq!(batched.fill(&mut chunk), 0, "drained decoder must stay drained");
    }

    #[test]
    fn batched_decode_matches_oracle_across_limits() {
        let p = busy_program();
        // Limits straddle bitset-word (64) and chunk (256) boundaries.
        for limit in [0, 1, 7, 63, 64, 65, 255, 256, 257, 511, 512, 1_000, u64::MAX] {
            assert_batched_equals_oracle(&p, limit);
        }
    }

    #[test]
    fn batched_decode_carries_fault_across_chunk_boundary() {
        // A program that falls off its own end after exactly CHUNK_LEN
        // retired records: the fault lands precisely on a chunk boundary.
        let mut b = ProgramBuilder::new("edge");
        for _ in 0..CHUNK_LEN {
            b.nop();
        }
        let p = b.build();
        let packed = capture(&p, u64::MAX);
        assert_eq!(packed.len(), CHUNK_LEN as u64);
        assert!(packed.fault().is_some());
        assert_batched_equals_oracle(&p, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "replayed against")]
    fn batched_replay_against_wrong_program_panics() {
        let p = busy_program();
        let packed = capture(&p, 100);
        let mut b = ProgramBuilder::new("other");
        b.halt();
        let other = b.build();
        let meta = InstrMetaTable::new(&other);
        let _ = packed.replay_batched(&other, &meta);
    }

    #[test]
    #[should_panic(expected = "interned metadata")]
    fn batched_replay_with_mismatched_meta_panics() {
        let p = busy_program();
        let packed = capture(&p, 100);
        let mut b = ProgramBuilder::new("other");
        b.halt();
        let other = b.build();
        let wrong_meta = InstrMetaTable::new(&other);
        let _ = packed.replay_batched(&p, &wrong_meta);
    }

    #[test]
    fn empty_capture_is_well_formed() {
        let p = busy_program();
        let packed = capture(&p, 0);
        assert!(packed.is_empty());
        assert!(!packed.halted());
        assert!(packed.fault().is_none());
        assert_eq!(packed.replay(&p).count(), 0);
    }
}
