//! Disk spill for packed traces: the out-of-core half of the
//! record-once/replay-many discipline.
//!
//! When a capture's packed encoding outgrows its memory budget
//! (`PERFCLONE_TRACE_CAP`), the recorder streams the encoding's completed
//! prefix to per-section segment files instead of abandoning the capture,
//! then seals everything into a single spill file that
//! [`SpilledTrace::open`] memory-maps back for replay. [`TraceStore`]
//! replays a spilled trace through the *same* decoders as an in-memory
//! [`PackedTrace`] — the two backings hand them identical raw slices, so
//! replay equivalence holds by construction.
//!
//! # File format (`PCSPILL1`, little-endian throughout)
//!
//! ```text
//! offset size field
//!      0    8 magic  b"PCSPILL1"
//!      8    4 version (currently 1)
//!     12    4 flags: bit 0 = halted, bit 1 = fault present
//!     16    4 start_pc
//!     20    4 name_len        (program-name bytes)
//!     24    8 program_len     (static instruction count)
//!     32    8 len             (dynamic records)
//!     40    8 n_words         (= ceil(len / 64) bitset words)
//!     48    8 n_targets       (zigzag-LEB128 target-delta bytes)
//!     56    8 n_mem           (memory records)
//!     64    8 fault_len       (encoded-fault bytes; 0 when none)
//!     72    8 checksum        (FNV-1a 64 over every byte after the header)
//!     80      program name, encoded fault, zero padding to 8 alignment
//!      …      redirect_bits  n_words × 8
//!      …      taken_bits     n_words × 8
//!      …      mem_addrs      n_mem × 8
//!      …      targets        n_targets
//!      …      mem_sizes      n_mem
//! ```
//!
//! The `u64` sections precede the byte sections so every word array sits at
//! an 8-aligned file offset, letting the mapped bytes be reinterpreted as
//! `&[u64]` directly.
//!
//! # Atomicity and cleanup
//!
//! Every file is written to a `…tmp-<pid>` sibling and `rename`d into
//! place only once complete, so a `SIGKILL` at any instant leaves either
//! no file or a whole file — never a torn one that poisons a resumed
//! sweep. Segment and unrenamed temp files are removed on `Drop`, and
//! [`SpilledTrace::open`] verifies magic, version, geometry, and checksum
//! before trusting a byte, returning a typed [`TraceError`] (never
//! panicking) on anything short of a pristine file.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use perfclone_isa::{InstrMetaTable, Program};

use crate::exec::SimError;
use crate::faultfs;
use crate::packed::{BatchReplay, PackedRecorder, PackedReplay, PackedTrace, TraceParts};
use crate::trace::DynInstr;

/// Magic bytes opening every spill file.
pub const SPILL_MAGIC: [u8; 8] = *b"PCSPILL1";
/// Current spill format version.
pub const SPILL_VERSION: u32 = 1;
const HEADER_LEN: usize = 80;
const FAULT_ENC_LEN: usize = 17;

/// Typed error for spill-file I/O and validation. Corrupted or truncated
/// files surface here — opening a spill file never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// An operating-system I/O operation failed.
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// The operation (`"open"`, `"read"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The OS error text.
        detail: String,
    },
    /// The file does not start with the spill magic.
    BadMagic {
        /// The offending file.
        path: PathBuf,
    },
    /// The file's format version is not the one this build writes.
    BadVersion {
        /// The offending file.
        path: PathBuf,
        /// The version the file claims.
        version: u32,
    },
    /// The file is structurally inconsistent (bad geometry, truncated
    /// sections, checksum mismatch, undecodable fault, …).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to validate.
        detail: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, op, detail } => {
                write!(f, "spill {op} of '{}' failed: {detail}", path.display())
            }
            TraceError::BadMagic { path } => {
                write!(f, "'{}' is not a spill file (bad magic)", path.display())
            }
            TraceError::BadVersion { path, version } => write!(
                f,
                "'{}' has unsupported spill version {version} (expected {SPILL_VERSION})",
                path.display()
            ),
            TraceError::Corrupt { path, detail } => {
                write!(f, "spill file '{}' is corrupt: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for TraceError {}

fn io_at<'a>(path: &'a Path, op: &'static str) -> impl FnOnce(io::Error) -> TraceError + 'a {
    move |e| TraceError::Io { path: path.to_path_buf(), op, detail: e.to_string() }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> TraceError {
    TraceError::Corrupt { path: path.to_path_buf(), detail: detail.into() }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    acc
}

fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Removes `path` when dropped unless disarmed — the guard that keeps a
/// killed or failed writer from leaving temp files behind.
struct TempGuard {
    path: PathBuf,
    armed: bool,
}

impl TempGuard {
    fn new(path: PathBuf) -> TempGuard {
        TempGuard { path, armed: true }
    }

    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for TempGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Sibling temp path for an atomic write of `path`: same directory, with a
/// `.tmp-<pid>` suffix so concurrent processes never collide and resume
/// sweeps can recognize (and reap) strays.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(".tmp-{}", std::process::id()));
    path.with_file_name(name)
}

/// Extracts the owning pid from a spill artifact's file name, or `None`
/// when the name is not one of the shapes this crate produces:
///
/// * unrenamed temps — `<anything>.tmp-<pid>` (sink temps and
///   `.seg.tmp-<pid>` segment files);
/// * sealed capture spills — `perfclone-<name>-<pid>-<seq>.spill`, the
///   stem [`capture`](crate::SpillingRecorder) builds, which are private
///   to their process (delete-on-drop) and stranded by a `SIGKILL`.
fn stray_pid(name: &str) -> Option<u32> {
    if let Some((_, pid)) = name.rsplit_once(".tmp-") {
        return pid.parse().ok();
    }
    let stem = name.strip_suffix(".spill")?;
    let mut parts = stem.rsplitn(3, '-');
    let _seq: u64 = parts.next()?.parse().ok()?;
    let pid: u32 = parts.next()?.parse().ok()?;
    parts.next()?; // the sanitized program name must be present too.
    Some(pid)
}

/// `true` when `pid` is a live process. Only Linux has a cheap, portable
/// answer (`/proc/<pid>`); elsewhere every pid is conservatively treated
/// as alive, so nothing is ever reaped by mistake.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        true
    }
}

/// Reaps spill artifacts stranded in `dir` by dead processes, returning
/// how many files were removed.
///
/// Segment files and unrenamed sink temps are normally removed on `Drop`,
/// and sealed capture spills on [`SpilledTrace`] drop — but a `SIGKILL`
/// (the crash/kill harness, an OOM kill, a cancelled CI job) runs no
/// destructors, stranding `PCSPILL1` files in the spill directory forever.
/// This sweep mirrors the journal's stray-temp reaping: it removes only
/// files whose name matches a shape this crate writes (`perfclone-` stems
/// and `.tmp-<pid>` temps), whose embedded pid parses, and whose owning
/// process is provably dead. Files owned by live processes — including
/// this one — are never touched.
pub fn reap_stray_spills(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut reaped = 0;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("perfclone-") {
            continue;
        }
        let Some(pid) = stray_pid(&name) else { continue };
        if pid_alive(pid) {
            continue;
        }
        if fs::remove_file(entry.path()).is_ok() {
            reaped += 1;
        }
    }
    reaped
}

/// Fixed-size spill-file header (see the module docs for the layout).
#[derive(Clone, Copy, Debug)]
struct Header {
    flags: u32,
    start_pc: u32,
    name_len: u32,
    program_len: u64,
    len: u64,
    n_words: u64,
    n_targets: u64,
    n_mem: u64,
    fault_len: u64,
    checksum: u64,
}

const FLAG_HALTED: u32 = 1;
const FLAG_FAULT: u32 = 2;

impl Header {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&SPILL_MAGIC);
        out[8..12].copy_from_slice(&SPILL_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.flags.to_le_bytes());
        out[16..20].copy_from_slice(&self.start_pc.to_le_bytes());
        out[20..24].copy_from_slice(&self.name_len.to_le_bytes());
        out[24..32].copy_from_slice(&self.program_len.to_le_bytes());
        out[32..40].copy_from_slice(&self.len.to_le_bytes());
        out[40..48].copy_from_slice(&self.n_words.to_le_bytes());
        out[48..56].copy_from_slice(&self.n_targets.to_le_bytes());
        out[56..64].copy_from_slice(&self.n_mem.to_le_bytes());
        out[64..72].copy_from_slice(&self.fault_len.to_le_bytes());
        out[72..80].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    fn decode(path: &Path, b: &[u8; HEADER_LEN]) -> Result<Header, TraceError> {
        let u32_at = |at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        let u64_at = |at: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[at..at + 8]);
            u64::from_le_bytes(w)
        };
        if b[0..8] != SPILL_MAGIC {
            return Err(TraceError::BadMagic { path: path.to_path_buf() });
        }
        let version = u32_at(8);
        if version != SPILL_VERSION {
            return Err(TraceError::BadVersion { path: path.to_path_buf(), version });
        }
        Ok(Header {
            flags: u32_at(12),
            start_pc: u32_at(16),
            name_len: u32_at(20),
            program_len: u64_at(24),
            len: u64_at(32),
            n_words: u64_at(40),
            n_targets: u64_at(48),
            n_mem: u64_at(56),
            fault_len: u64_at(64),
            checksum: u64_at(72),
        })
    }
}

fn encode_fault(f: &SimError) -> [u8; FAULT_ENC_LEN] {
    let (tag, a, b) = match *f {
        SimError::PcOutOfRange { pc, len } => (1u8, u64::from(pc), len as u64),
        SimError::BudgetExhausted { budget } => (2u8, budget, 0u64),
    };
    let mut out = [0u8; FAULT_ENC_LEN];
    out[0] = tag;
    out[1..9].copy_from_slice(&a.to_le_bytes());
    out[9..17].copy_from_slice(&b.to_le_bytes());
    out
}

fn decode_fault(path: &Path, bytes: &[u8]) -> Result<SimError, TraceError> {
    if bytes.len() != FAULT_ENC_LEN {
        return Err(corrupt(
            path,
            format!("fault record is {} bytes, expected {FAULT_ENC_LEN}", bytes.len()),
        ));
    }
    let word = |at: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(w)
    };
    let (a, b) = (word(1), word(9));
    match bytes[0] {
        1 => Ok(SimError::PcOutOfRange {
            pc: u32::try_from(a).map_err(|_| corrupt(path, "fault pc out of u32 range"))?,
            len: usize::try_from(b).map_err(|_| corrupt(path, "fault len out of range"))?,
        }),
        2 => Ok(SimError::BudgetExhausted { budget: a }),
        t => Err(corrupt(path, format!("unknown fault tag {t}"))),
    }
}

/// Streaming writer for a spill file: header placeholder first, every
/// subsequent byte checksummed on the way through, header patched with the
/// final checksum, then an atomic rename into place.
struct SpillSink {
    w: io::BufWriter<File>,
    final_path: PathBuf,
    guard: TempGuard,
    hash: u64,
}

impl SpillSink {
    fn create(final_path: &Path) -> Result<SpillSink, TraceError> {
        let tmp = tmp_sibling(final_path);
        faultfs::check_write(&tmp).map_err(io_at(&tmp, "create"))?;
        let file = File::create(&tmp).map_err(io_at(&tmp, "create"))?;
        let guard = TempGuard::new(tmp);
        let mut w = io::BufWriter::new(file);
        w.write_all(&[0u8; HEADER_LEN]).map_err(io_at(final_path, "write"))?;
        Ok(SpillSink { w, final_path: final_path.to_path_buf(), guard, hash: FNV_OFFSET })
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.hash = fnv1a(self.hash, bytes);
        self.w.write_all(bytes).map_err(io_at(&self.final_path, "write"))
    }

    fn finish(mut self, mut header: Header) -> Result<(), TraceError> {
        header.checksum = self.hash;
        self.w.flush().map_err(io_at(&self.final_path, "flush"))?;
        let mut file = self.w.into_inner().map_err(|e| TraceError::Io {
            path: self.final_path.clone(),
            op: "flush",
            detail: e.to_string(),
        })?;
        file.seek(SeekFrom::Start(0)).map_err(io_at(&self.final_path, "seek"))?;
        file.write_all(&header.encode()).map_err(io_at(&self.final_path, "write"))?;
        file.sync_all().map_err(io_at(&self.final_path, "sync"))?;
        drop(file);
        faultfs::rename(&self.guard.path, &self.final_path)
            .map_err(io_at(&self.final_path, "rename"))?;
        self.guard.disarm();
        Ok(())
    }
}

/// Writes name, fault, and alignment padding — the variable-length metadata
/// between the header and the sections.
fn write_meta(
    sink: &mut SpillSink,
    program_name: &str,
    fault: Option<&SimError>,
) -> Result<(), TraceError> {
    sink.write(program_name.as_bytes())?;
    let mut meta_len = program_name.len();
    if let Some(f) = fault {
        sink.write(&encode_fault(f))?;
        meta_len += FAULT_ENC_LEN;
    }
    let pad = align8(HEADER_LEN + meta_len) - (HEADER_LEN + meta_len);
    sink.write(&[0u8; 8][..pad])
}

/// A packed trace whose encoding lives in a spill file, replayed through a
/// read-only memory mapping (with an owned-buffer fallback on platforms
/// without `mmap`). Opened by [`SpilledTrace::open`] or produced by
/// [`SpillingRecorder::finish`].
#[derive(Debug)]
pub struct SpilledTrace {
    path: PathBuf,
    program_name: String,
    program_len: usize,
    start_pc: u32,
    len: u64,
    halted: bool,
    fault: Option<SimError>,
    n_words: usize,
    n_targets: usize,
    n_mem: usize,
    /// Byte offset of `redirect_bits` within the file.
    sections_at: usize,
    file_bytes: u64,
    backing: Backing,
    delete_on_drop: bool,
}

#[derive(Debug)]
enum Backing {
    /// The whole file, memory-mapped; section slices borrow the mapping.
    #[cfg(unix)]
    Map(map::Mmap),
    /// Typed copies of the sections (non-unix platforms, or when the
    /// mapping fails); semantics identical to `Map`.
    Owned {
        redirect_bits: Vec<u64>,
        taken_bits: Vec<u64>,
        mem_addrs: Vec<u64>,
        targets: Vec<u8>,
        mem_sizes: Vec<u8>,
    },
}

impl SpilledTrace {
    /// Opens and validates a spill file, memory-mapping its sections.
    ///
    /// Validation covers magic, version, section geometry against the file
    /// size, UTF-8 of the program name, the fault record, and the FNV-1a
    /// checksum of the whole payload — a corrupted or truncated file
    /// yields a typed error, never a panic, and a file that passes cannot
    /// take replay out of bounds.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on filesystem failure, [`TraceError::BadMagic`] /
    /// [`TraceError::BadVersion`] / [`TraceError::Corrupt`] on validation
    /// failure.
    pub fn open(path: &Path) -> Result<SpilledTrace, TraceError> {
        let mut file = File::open(path).map_err(io_at(path, "open"))?;
        let file_bytes = file.metadata().map_err(io_at(path, "stat"))?.len();
        let mut hdr_bytes = [0u8; HEADER_LEN];
        file.read_exact(&mut hdr_bytes).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                corrupt(path, format!("file is {file_bytes} bytes, shorter than the header"))
            } else {
                io_at(path, "read")(e)
            }
        })?;
        let h = Header::decode(path, &hdr_bytes)?;

        let name_len = usize::try_from(h.name_len).unwrap_or(usize::MAX);
        let fault_len = usize::try_from(h.fault_len).unwrap_or(usize::MAX);
        let n_words =
            usize::try_from(h.n_words).map_err(|_| corrupt(path, "word count out of range"))?;
        let n_targets =
            usize::try_from(h.n_targets).map_err(|_| corrupt(path, "target count out of range"))?;
        let n_mem =
            usize::try_from(h.n_mem).map_err(|_| corrupt(path, "mem count out of range"))?;
        if name_len > 1 << 16 {
            return Err(corrupt(path, format!("implausible program-name length {name_len}")));
        }
        if h.flags & FLAG_FAULT != 0 && fault_len != FAULT_ENC_LEN {
            return Err(corrupt(path, format!("fault flag set but fault_len is {fault_len}")));
        }
        if h.flags & FLAG_FAULT == 0 && fault_len != 0 {
            return Err(corrupt(path, "fault_len set without the fault flag"));
        }
        if h.n_words != h.len.div_ceil(64) {
            return Err(corrupt(
                path,
                format!("{} bitset words inconsistent with {} records", h.n_words, h.len),
            ));
        }
        if h.n_mem > h.len {
            return Err(corrupt(path, "more memory records than records"));
        }
        let sections_at = align8(HEADER_LEN + name_len + fault_len);
        let expected = (sections_at as u64)
            .checked_add(h.n_words.saturating_mul(16))
            .and_then(|x| x.checked_add(h.n_mem.checked_mul(8)?))
            .and_then(|x| x.checked_add(h.n_targets))
            .and_then(|x| x.checked_add(h.n_mem))
            .ok_or_else(|| corrupt(path, "section sizes overflow"))?;
        if expected != file_bytes {
            return Err(corrupt(
                path,
                format!("file is {file_bytes} bytes, geometry implies {expected}"),
            ));
        }

        let mut meta = vec![0u8; name_len + fault_len];
        file.read_exact(&mut meta).map_err(io_at(path, "read"))?;
        let program_name = std::str::from_utf8(&meta[..name_len])
            .map_err(|_| corrupt(path, "program name is not UTF-8"))?
            .to_string();
        let fault =
            if fault_len == 0 { None } else { Some(decode_fault(path, &meta[name_len..])?) };
        let program_len = usize::try_from(h.program_len)
            .map_err(|_| corrupt(path, "program length out of range"))?;

        let file_len =
            usize::try_from(file_bytes).map_err(|_| corrupt(path, "file too large to map"))?;
        let backing =
            Self::map_or_read(path, &mut file, file_len, sections_at, n_words, n_targets, n_mem)?;
        let payload_hash = match &backing {
            #[cfg(unix)]
            Backing::Map(m) => fnv1a(FNV_OFFSET, &m.bytes()[HEADER_LEN..]),
            Backing::Owned { .. } => {
                // Owned backing re-reads the payload to hash it exactly as
                // written (sections were parsed from the same buffer).
                file.seek(SeekFrom::Start(HEADER_LEN as u64)).map_err(io_at(path, "seek"))?;
                let mut payload = Vec::new();
                file.read_to_end(&mut payload).map_err(io_at(path, "read"))?;
                fnv1a(FNV_OFFSET, &payload)
            }
        };
        if payload_hash != h.checksum {
            return Err(corrupt(
                path,
                format!(
                    "checksum mismatch: stored {:#018x}, computed {payload_hash:#018x}",
                    h.checksum
                ),
            ));
        }

        Ok(SpilledTrace {
            path: path.to_path_buf(),
            program_name,
            program_len,
            start_pc: h.start_pc,
            len: h.len,
            halted: h.flags & FLAG_HALTED != 0,
            fault,
            n_words,
            n_targets,
            n_mem,
            sections_at,
            file_bytes,
            backing,
            delete_on_drop: false,
        })
    }

    /// Maps the file read-only, falling back to reading typed section
    /// copies when mapping is unavailable or misaligned.
    fn map_or_read(
        path: &Path,
        file: &mut File,
        #[cfg_attr(not(unix), allow(unused_variables))] file_len: usize,
        sections_at: usize,
        n_words: usize,
        n_targets: usize,
        n_mem: usize,
    ) -> Result<Backing, TraceError> {
        #[cfg(unix)]
        {
            if let Some(m) = map::Mmap::map(file, file_len) {
                // Word sections sit at 8-aligned offsets from a
                // page-aligned base; double-check before reinterpreting.
                if (m.bytes().as_ptr() as usize + sections_at).is_multiple_of(8) {
                    return Ok(Backing::Map(m));
                }
            }
        }
        file.seek(SeekFrom::Start(sections_at as u64)).map_err(io_at(path, "seek"))?;
        let mut read_words = |n: usize| -> Result<Vec<u64>, TraceError> {
            let mut buf = vec![0u8; n * 8];
            file.read_exact(&mut buf).map_err(io_at(path, "read"))?;
            Ok(buf
                .chunks_exact(8)
                .map(|c| {
                    let mut w = [0u8; 8];
                    w.copy_from_slice(c);
                    u64::from_le_bytes(w)
                })
                .collect())
        };
        let redirect_bits = read_words(n_words)?;
        let taken_bits = read_words(n_words)?;
        let mem_addrs = read_words(n_mem)?;
        let mut targets = vec![0u8; n_targets];
        file.read_exact(&mut targets).map_err(io_at(path, "read"))?;
        let mut mem_sizes = vec![0u8; n_mem];
        file.read_exact(&mut mem_sizes).map_err(io_at(path, "read"))?;
        Ok(Backing::Owned { redirect_bits, taken_bits, mem_addrs, targets, mem_sizes })
    }

    #[cfg(unix)]
    fn mapped_words(&self, m: &map::Mmap, offset: usize, n: usize) -> &[u64] {
        // Safety: `open` validated that [offset, offset + n*8) lies inside
        // the mapping and that the address is 8-aligned; u64 has no
        // invalid bit patterns, and the mapping is private and read-only.
        unsafe { std::slice::from_raw_parts(m.bytes().as_ptr().add(offset).cast::<u64>(), n) }
    }

    fn redirect_bits(&self) -> &[u64] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map(m) => self.mapped_words(m, self.sections_at, self.n_words),
            Backing::Owned { redirect_bits, .. } => redirect_bits,
        }
    }

    fn taken_bits(&self) -> &[u64] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map(m) => {
                self.mapped_words(m, self.sections_at + self.n_words * 8, self.n_words)
            }
            Backing::Owned { taken_bits, .. } => taken_bits,
        }
    }

    fn mem_addrs(&self) -> &[u64] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map(m) => {
                self.mapped_words(m, self.sections_at + self.n_words * 16, self.n_mem)
            }
            Backing::Owned { mem_addrs, .. } => mem_addrs,
        }
    }

    fn targets(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map(m) => {
                let at = self.sections_at + self.n_words * 16 + self.n_mem * 8;
                &m.bytes()[at..at + self.n_targets]
            }
            Backing::Owned { targets, .. } => targets,
        }
    }

    fn mem_sizes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map(m) => {
                let at = self.sections_at + self.n_words * 16 + self.n_mem * 8 + self.n_targets;
                &m.bytes()[at..at + self.n_mem]
            }
            Backing::Owned { mem_sizes, .. } => mem_sizes,
        }
    }

    /// Number of retired instructions recorded.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no instructions were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when the capture ended with the program executing `halt` —
    /// see [`PackedTrace::halted`].
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The fault that ended the capture early, if any — see
    /// [`PackedTrace::fault`].
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref()
    }

    /// Name of the program this trace was captured from.
    pub fn program_name(&self) -> &str {
        &self.program_name
    }

    /// The spill file backing this trace.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Size of the spill file in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// `true` when the sections are served from a memory mapping (as
    /// opposed to the owned-buffer fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map(_) => true,
            Backing::Owned { .. } => false,
        }
    }

    /// Arranges for the spill file to be removed when this value drops —
    /// the lifecycle for capture-produced spills, whose file is an
    /// implementation detail of one process's cache.
    pub fn delete_on_drop(&mut self, yes: bool) {
        self.delete_on_drop = yes;
    }

    /// Borrowed view of the mapped encoding, which [`TraceStore`] hands to
    /// the decoders.
    fn parts(&self) -> TraceParts<'_> {
        TraceParts {
            program_name: &self.program_name,
            program_len: self.program_len,
            start_pc: self.start_pc,
            len: self.len,
            redirect_bits: self.redirect_bits(),
            taken_bits: self.taken_bits(),
            targets: self.targets(),
            mem_addrs: self.mem_addrs(),
            mem_sizes: self.mem_sizes(),
            fault: self.fault.as_ref(),
        }
    }
}

impl Drop for SpilledTrace {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Where a capture's packed trace ended up: in memory when it fit the
/// budget, or in a spill file replayed via mmap when it did not. Both
/// variants replay identically; holders never need to care which they got.
#[derive(Debug)]
pub enum TraceStore {
    /// The encoding fit the memory budget.
    Mem(PackedTrace),
    /// The encoding was spilled to disk.
    Spilled(SpilledTrace),
}

impl TraceStore {
    /// Number of retired instructions recorded.
    pub fn len(&self) -> u64 {
        match self {
            TraceStore::Mem(t) => t.len(),
            TraceStore::Spilled(t) => t.len(),
        }
    }

    /// `true` when no instructions were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the capture ended with the program executing `halt`.
    pub fn halted(&self) -> bool {
        match self {
            TraceStore::Mem(t) => t.halted(),
            TraceStore::Spilled(t) => t.halted(),
        }
    }

    /// The fault that ended the capture early, if any.
    pub fn fault(&self) -> Option<&SimError> {
        match self {
            TraceStore::Mem(t) => t.fault(),
            TraceStore::Spilled(t) => t.fault(),
        }
    }

    /// Name of the program the trace was captured from.
    pub fn program_name(&self) -> &str {
        match self {
            TraceStore::Mem(t) => t.program_name(),
            TraceStore::Spilled(t) => t.program_name(),
        }
    }

    /// Bytes the encoding occupies — heap bytes for the in-memory variant,
    /// file bytes for the spilled one.
    pub fn stored_bytes(&self) -> u64 {
        match self {
            TraceStore::Mem(t) => t.packed_bytes() as u64,
            TraceStore::Spilled(t) => t.file_bytes(),
        }
    }

    /// `true` for the spilled variant.
    pub fn is_spilled(&self) -> bool {
        matches!(self, TraceStore::Spilled(_))
    }

    /// The spill file path, when spilled.
    pub fn spill_path(&self) -> Option<&Path> {
        match self {
            TraceStore::Mem(_) => None,
            TraceStore::Spilled(t) => Some(t.path()),
        }
    }

    /// Replays the recorded stream record at a time — the oracle the
    /// fidelity gate and the equivalence tests use. Both backings decode
    /// through the same iterator.
    ///
    /// # Panics
    ///
    /// Panics if `program` is not the program the trace was captured from
    /// (checked by name and text length) — replaying against different
    /// code would silently decode garbage.
    pub fn replay<'a>(&'a self, program: &'a Program) -> PackedReplay<'a> {
        self.parts().replay(program)
    }

    /// A batched decoder over the recorded stream: [`BatchReplay::fill`]
    /// decodes up to [`CHUNK_LEN`](crate::CHUNK_LEN) records at a time into
    /// a reusable [`ReplayChunk`](crate::ReplayChunk), resolving per-pc
    /// static questions from the interned `meta`. Yields the exact record
    /// stream of [`replay`](TraceStore::replay), chunked, for both backings.
    ///
    /// # Panics
    ///
    /// As [`replay`](TraceStore::replay), and also if `meta` was not built
    /// for `program` (checked by length).
    pub fn replay_batched<'a>(
        &'a self,
        program: &'a Program,
        meta: &'a InstrMetaTable,
    ) -> BatchReplay<'a> {
        self.parts().batched(program, meta)
    }

    fn parts(&self) -> TraceParts<'_> {
        match self {
            TraceStore::Mem(t) => t.parts(),
            TraceStore::Spilled(t) => t.parts(),
        }
    }
}

/// One append-only section segment of an in-progress spill. Removes its
/// file on drop; [`SpillingRecorder::finish`] copies the segments into the
/// final spill file while they are still alive.
struct SegWriter {
    w: io::BufWriter<File>,
    path: PathBuf,
}

impl SegWriter {
    fn create(dir: &Path, stem: &str, kind: &str) -> Result<SegWriter, TraceError> {
        let path = dir.join(format!("{stem}.{kind}.seg.tmp-{}", std::process::id()));
        faultfs::check_write(&path).map_err(io_at(&path, "create"))?;
        let file = File::create(&path).map_err(io_at(&path, "create"))?;
        Ok(SegWriter { w: io::BufWriter::new(file), path })
    }

    fn write_words(&mut self, words: &[u64]) -> Result<(), TraceError> {
        for word in words {
            self.w.write_all(&word.to_le_bytes()).map_err(io_at(&self.path, "write"))?;
        }
        Ok(())
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.w.write_all(bytes).map_err(io_at(&self.path, "write"))
    }

    /// Flushes buffered data and streams the segment's bytes into `sink`.
    fn copy_into(&mut self, sink: &mut SpillSink) -> Result<(), TraceError> {
        self.w.flush().map_err(io_at(&self.path, "flush"))?;
        let mut f = File::open(&self.path).map_err(io_at(&self.path, "open"))?;
        let mut buf = vec![0u8; 1 << 16];
        loop {
            let n = f.read(&mut buf).map_err(io_at(&self.path, "read"))?;
            if n == 0 {
                return Ok(());
            }
            sink.write(&buf[..n])?;
        }
    }
}

impl Drop for SegWriter {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

struct Segments {
    redirect: SegWriter,
    taken: SegWriter,
    addrs: SegWriter,
    targets: SegWriter,
    sizes: SegWriter,
}

impl Segments {
    fn create(dir: &Path, stem: &str) -> Result<Segments, TraceError> {
        Ok(Segments {
            redirect: SegWriter::create(dir, stem, "redirect")?,
            taken: SegWriter::create(dir, stem, "taken")?,
            addrs: SegWriter::create(dir, stem, "addrs")?,
            targets: SegWriter::create(dir, stem, "targets")?,
            sizes: SegWriter::create(dir, stem, "sizes")?,
        })
    }
}

/// A [`PackedRecorder`] with an out-of-core overflow path: records pack
/// into memory up to `mem_budget` bytes, after which the encoding's
/// completed prefix drains to segment files in `dir`, keeping resident
/// memory bounded by the budget regardless of stream length.
/// [`finish`](SpillingRecorder::finish) returns [`TraceStore::Mem`] when
/// everything fit, or assembles the segments into a spill file and returns
/// [`TraceStore::Spilled`].
pub struct SpillingRecorder {
    rec: PackedRecorder,
    mem_budget: usize,
    dir: PathBuf,
    stem: String,
    final_path: PathBuf,
    segs: Option<Segments>,
    words_flushed: usize,
    targets_flushed: u64,
    mem_flushed: u64,
}

impl SpillingRecorder {
    /// Creates a recorder that spills to `dir/<stem>.spill` when the
    /// packed encoding exceeds `mem_budget` bytes.
    pub fn new(mem_budget: usize, dir: &Path, stem: &str) -> SpillingRecorder {
        SpillingRecorder {
            rec: PackedRecorder::new(),
            mem_budget,
            dir: dir.to_path_buf(),
            stem: stem.to_string(),
            final_path: dir.join(format!("{stem}.spill")),
            segs: None,
            words_flushed: 0,
            targets_flushed: 0,
            mem_flushed: 0,
        }
    }

    /// Number of records packed so far.
    pub fn len(&self) -> u64 {
        self.rec.len
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rec.len == 0
    }

    /// `true` once any part of the encoding has been drained to disk.
    pub fn spilled(&self) -> bool {
        self.segs.is_some()
    }

    /// Packs one retired instruction, draining to disk if the in-memory
    /// encoding has outgrown the budget.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError::Io`] if the drain's filesystem writes fail;
    /// segment files already created are removed when the recorder drops.
    pub fn push(&mut self, d: &DynInstr) -> Result<(), TraceError> {
        self.rec.push(d);
        if self.rec.packed_bytes() > self.mem_budget {
            self.drain(false)?;
        }
        Ok(())
    }

    /// Drains the encoding's completed prefix (or, at `finish`, everything
    /// including the partial trailing bitset word) to the segments.
    fn drain(&mut self, all: bool) -> Result<(), TraceError> {
        if self.segs.is_none() {
            fs::create_dir_all(&self.dir).map_err(io_at(&self.dir, "create_dir"))?;
            self.segs = Some(Segments::create(&self.dir, &self.stem)?);
        }
        let Some(segs) = self.segs.as_mut() else {
            return Ok(());
        };
        // Only fully populated bitset words may leave memory early; the
        // trailing word is still accumulating bits.
        let complete = usize::try_from(self.rec.len / 64).unwrap_or(usize::MAX);
        let n = if all {
            self.rec.redirect_bits.len()
        } else {
            complete.saturating_sub(self.words_flushed)
        };
        segs.redirect.write_words(&self.rec.redirect_bits[..n])?;
        segs.taken.write_words(&self.rec.taken_bits[..n])?;
        self.rec.redirect_bits.drain(..n);
        self.rec.taken_bits.drain(..n);
        self.words_flushed += n;
        segs.addrs.write_words(&self.rec.mem_addrs)?;
        self.mem_flushed += self.rec.mem_addrs.len() as u64;
        self.rec.mem_addrs.clear();
        segs.targets.write_bytes(&self.rec.targets)?;
        self.targets_flushed += self.rec.targets.len() as u64;
        self.rec.targets.clear();
        segs.sizes.write_bytes(&self.rec.mem_sizes)?;
        self.rec.mem_sizes.clear();
        Ok(())
    }

    /// Seals the recording: an in-memory [`PackedTrace`] when nothing was
    /// drained, otherwise the assembled spill file opened back as a
    /// [`SpilledTrace`] (marked delete-on-drop — the file is this
    /// capture's private storage).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if assembling, renaming, or re-opening the
    /// spill file fails. All temp files are cleaned up on every path.
    pub fn finish(
        mut self,
        program: &Program,
        halted: bool,
        fault: Option<SimError>,
    ) -> Result<TraceStore, TraceError> {
        if self.segs.is_none() {
            let rec = std::mem::take(&mut self.rec);
            return Ok(TraceStore::Mem(rec.finish(program, halted, fault)));
        }
        self.drain(true)?;
        let mut flags = 0u32;
        if halted {
            flags |= FLAG_HALTED;
        }
        if fault.is_some() {
            flags |= FLAG_FAULT;
        }
        let header = Header {
            flags,
            start_pc: self.rec.start_pc,
            name_len: program.name().len() as u32,
            program_len: program.len() as u64,
            len: self.rec.len,
            n_words: self.words_flushed as u64,
            n_targets: self.targets_flushed,
            n_mem: self.mem_flushed,
            fault_len: if fault.is_some() { FAULT_ENC_LEN as u64 } else { 0 },
            checksum: 0,
        };
        let mut sink = SpillSink::create(&self.final_path)?;
        write_meta(&mut sink, program.name(), fault.as_ref())?;
        // Segment drop (end of this function, success or error) removes
        // the temp files; copy while they are alive.
        let Some(mut segs) = self.segs.take() else {
            return Err(corrupt(&self.final_path, "spill segments vanished"));
        };
        segs.redirect.copy_into(&mut sink)?;
        segs.taken.copy_into(&mut sink)?;
        segs.addrs.copy_into(&mut sink)?;
        segs.targets.copy_into(&mut sink)?;
        segs.sizes.copy_into(&mut sink)?;
        sink.finish(header)?;
        drop(segs);
        let mut spilled = SpilledTrace::open(&self.final_path)?;
        spilled.delete_on_drop(true);
        Ok(TraceStore::Spilled(spilled))
    }
}

#[cfg(unix)]
mod map {
    //! Minimal read-only `mmap` wrapper. The workspace builds offline
    //! without the `libc` crate, so the two symbols are declared directly;
    //! `std` already links the platform C library on unix.

    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A private read-only mapping of a whole file, unmapped on drop.
    #[derive(Debug)]
    pub struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // Safety: the mapping is immutable (PROT_READ, MAP_PRIVATE) for its
    // whole lifetime, so shared references from any thread are sound.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` read-only; `None` when the kernel
        /// refuses (callers fall back to owned reads).
        pub fn map(file: &File, len: usize) -> Option<Mmap> {
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr.is_null() || ptr as isize == -1 {
                None
            } else {
                Some(Mmap { ptr, len })
            }
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            // Safety: ptr/len come from a successful mmap that lives as
            // long as self.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // Safety: ptr/len are the exact values a successful mmap
            // returned; the mapping is unmapped exactly once.
            unsafe {
                munmap(self.ptr.cast_mut(), self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Simulator;
    use perfclone_isa::{MemWidth, ProgramBuilder, Reg, StreamDesc};

    fn busy_program() -> Program {
        let mut b = ProgramBuilder::new("busy");
        let table = b.data_u64(&[1, 2, 3, 4]);
        let id = b.stream(StreamDesc { base: 0x4000, stride: 16, length: 8 });
        let (i, n, acc, ptr) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        b.li(i, 0);
        b.li(n, 40);
        b.li(ptr, table as i64);
        let top = b.label();
        b.bind(top);
        b.ld_stream(acc, id, MemWidth::B8);
        b.sb(acc, ptr, 16);
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        b.build()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfclone-spill-test-{}-{tag}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Captures `p` through a [`SpillingRecorder`] with `budget` bytes of
    /// memory; a zero budget spills every non-empty capture.
    fn record(p: &Program, limit: u64, budget: usize, dir: &Path, stem: &str) -> TraceStore {
        let mut rec = SpillingRecorder::new(budget, dir, stem);
        let mut trace = Simulator::trace(p, limit);
        for d in &mut trace {
            rec.push(&d).unwrap();
        }
        let fault = trace.fault().cloned();
        let halted = trace.into_inner().is_halted();
        rec.finish(p, halted, fault).unwrap()
    }

    #[test]
    fn stray_pid_parses_only_this_crates_shapes() {
        assert_eq!(stray_pid("perfclone-crc32-123-0.spill"), Some(123));
        assert_eq!(stray_pid("perfclone-a_b-9-17.spill"), Some(9));
        assert_eq!(stray_pid("perfclone-crc32-123-0.spill.tmp-456"), Some(456));
        assert_eq!(stray_pid("perfclone-crc32-123-0.addrs.seg.tmp-456"), Some(456));
        assert_eq!(stray_pid("perfclone-noseq.spill"), None);
        assert_eq!(stray_pid("perfclone-crc32-x-0.spill"), None);
        assert_eq!(stray_pid("busy.spill"), None);
        assert_eq!(stray_pid("shard-000001.json"), None);
    }

    #[test]
    fn reap_removes_dead_pid_strays_and_keeps_live_ones() {
        let dir = tmp_dir("reap");
        // A pid above the kernel's pid_max (4 194 304 on Linux) can never
        // be alive, so these strays are provably dead.
        let dead = 4_000_000_000u32;
        let dead_spill = dir.join(format!("perfclone-crc32-{dead}-0.spill"));
        let dead_seg = dir.join(format!("perfclone-crc32-{dead}-1.addrs.seg.tmp-{dead}"));
        let dead_tmp = dir.join(format!("perfclone-crc32-{dead}-2.spill.tmp-{dead}"));
        let live = dir.join(format!("perfclone-crc32-{}-0.spill", std::process::id()));
        let unrelated = dir.join("busy.spill");
        for f in [&dead_spill, &dead_seg, &dead_tmp, &live, &unrelated] {
            fs::write(f, b"x").unwrap();
        }
        let reaped = reap_stray_spills(&dir);
        if cfg!(target_os = "linux") {
            assert_eq!(reaped, 3);
            assert!(!dead_spill.exists() && !dead_seg.exists() && !dead_tmp.exists());
        } else {
            // Without a pid-liveness oracle nothing is reaped.
            assert_eq!(reaped, 0);
        }
        assert!(live.exists(), "live-pid spill must survive");
        assert!(unrelated.exists(), "non-perfclone files must never be touched");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_round_trips_and_maps() {
        let p = busy_program();
        let packed = PackedTrace::capture(&p, u64::MAX);
        let dir = tmp_dir("roundtrip");
        let store = record(&p, u64::MAX, 0, &dir, "busy");
        let TraceStore::Spilled(spilled) = &store else {
            panic!("a zero budget must spill");
        };
        assert_eq!(spilled.len(), packed.len());
        assert_eq!(spilled.halted(), packed.halted());
        assert_eq!(spilled.fault(), packed.fault());
        assert!(spilled.is_mapped(), "unix CI should serve spills via mmap");
        let direct: Vec<DynInstr> = packed.parts().replay(&p).collect();
        let mapped: Vec<DynInstr> = store.replay(&p).collect();
        assert_eq!(direct, mapped);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spilled_batched_decode_matches_in_memory_oracle() {
        let p = busy_program();
        let meta = InstrMetaTable::new(&p);
        let packed = PackedTrace::capture(&p, u64::MAX);
        let dir = tmp_dir("batched");
        let spilled = record(&p, u64::MAX, 0, &dir, "busy");
        assert!(spilled.is_spilled());
        let oracle: Vec<DynInstr> = packed.parts().replay(&p).collect();
        let mut batched = spilled.replay_batched(&p, &meta);
        let mut chunk = crate::ReplayChunk::new();
        let mut out = Vec::new();
        while batched.fill(&mut chunk) > 0 {
            out.extend(chunk.records(p.instrs()));
        }
        assert_eq!(oracle, out, "mmap-backed batched decode must match");
        assert_eq!(batched.fault(), packed.fault());
        drop(spilled);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spilling_recorder_stays_in_memory_under_budget() {
        let p = busy_program();
        let dir = tmp_dir("mem");
        let store = record(&p, u64::MAX, usize::MAX, &dir, "busy");
        assert!(store.fault().is_none());
        assert!(!store.is_spilled());
        assert_eq!(store.len(), PackedTrace::capture(&p, u64::MAX).len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spilling_recorder_matches_direct_capture() {
        let p = busy_program();
        let dir = tmp_dir("spill");
        // Budgets far below the encoding size force a drain per record (0)
        // or many drain cycles (160); the limits straddle the 64-record
        // bitset words that drain early only once complete.
        for budget in [0, 160] {
            for limit in [1, 2, 63, 64, 65, 128, u64::MAX] {
                let store = record(&p, limit, budget, &dir, "busy");
                let direct = PackedTrace::capture(&p, limit);
                assert_eq!(store.is_spilled(), budget == 0 || direct.packed_bytes() > budget);
                let replayed: Vec<DynInstr> = store.replay(&p).collect();
                assert_eq!(direct.parts().replay(&p).collect::<Vec<_>>(), replayed);
                assert_eq!(store.halted(), direct.halted());
                if !store.is_spilled() {
                    continue;
                }
                // Only the final spill file remains — segments are gone.
                let names: Vec<String> = fs::read_dir(&dir)
                    .unwrap()
                    .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                    .collect();
                assert_eq!(names, vec!["busy.spill".to_string()], "leftovers: {names:?}");
                let path = store.spill_path().unwrap().to_path_buf();
                drop(store);
                assert!(!path.exists(), "capture-produced spill should delete on drop");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulted_trace_round_trips_through_spill() {
        let mut b = ProgramBuilder::new("fall");
        b.nop(); // no halt: falls off the end
        let p = b.build();
        let packed = PackedTrace::capture(&p, 100);
        assert!(packed.fault().is_some());
        let dir = tmp_dir("fault");
        let spilled = record(&p, 100, 0, &dir, "fall");
        assert!(spilled.is_spilled());
        assert_eq!(spilled.fault(), packed.fault());
        assert!(!spilled.halted());
        let a: Vec<DynInstr> = packed.parts().replay(&p).collect();
        let b2: Vec<DynInstr> = spilled.replay(&p).collect();
        assert_eq!(a, b2);
        drop(spilled);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_files_yield_typed_errors() {
        let p = busy_program();
        let dir = tmp_dir("corrupt");
        let store = record(&p, u64::MAX, 0, &dir, "busy");
        let pristine = fs::read(store.spill_path().unwrap()).unwrap();
        drop(store);
        let path = dir.join("copy.spill");

        // Flipped payload byte: checksum mismatch.
        let mut bad = pristine.clone();
        let mid = HEADER_LEN + (bad.len() - HEADER_LEN) / 2;
        bad[mid] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(SpilledTrace::open(&path), Err(TraceError::Corrupt { .. })));

        // Truncated file: geometry mismatch.
        fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
        assert!(matches!(SpilledTrace::open(&path), Err(TraceError::Corrupt { .. })));

        // Bad magic.
        let mut bad = pristine.clone();
        bad[0] = b'X';
        fs::write(&path, &bad).unwrap();
        assert!(matches!(SpilledTrace::open(&path), Err(TraceError::BadMagic { .. })));

        // Unsupported version.
        let mut bad = pristine.clone();
        bad[8] = 99;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            SpilledTrace::open(&path),
            Err(TraceError::BadVersion { version: 99, .. })
        ));

        // Shorter than a header.
        fs::write(&path, &pristine[..10]).unwrap();
        assert!(matches!(SpilledTrace::open(&path), Err(TraceError::Corrupt { .. })));

        fs::remove_dir_all(&dir).unwrap();
    }
}
