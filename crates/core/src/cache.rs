//! Shared workload cache for parallel experiments.
//!
//! A design-space sweep runs the same workload against many machine
//! configurations. Profiling the workload, synthesizing its clone,
//! capturing its packed dynamic trace (the [`TraceStore`]
//! record-once/replay-many artifact that `run_timing_trace` replays per
//! configuration) and interning its per-pc instruction metadata are
//! configuration-independent, so repeating them per cell wastes most of
//! the sweep's time. A [`WorkloadCache`] computes each artifact once — on
//! whichever thread asks first — and hands every subsequent requester the
//! same [`Arc`]-shared value. Each memo reports `cache.<memo>.lookups` /
//! `cache.<memo>.computes` counters (`profile`, `clone`, `trace`, `meta`)
//! so run reports show real hit rates.
//!
//! Concurrency: the key→slot map sits behind a [`Mutex`] held only long
//! enough to find or insert a slot; the (expensive) computation itself
//! runs inside the slot's [`OnceLock`], outside the map lock, so two
//! threads asking for *different* workloads never serialize on each
//! other, and two threads asking for the *same* workload compute it
//! exactly once.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use std::path::PathBuf;

use perfclone_isa::{InstrMetaTable, Program};
use perfclone_profile::{profile_program, WorkloadProfile};
use perfclone_sim::TraceStore;
use perfclone_synth::{synthesize, MemoryModel, SynthesisParams};

use crate::Error;

/// Default `PERFCLONE_TRACE_CAP`: 1 GiB of packed trace per capture. The
/// bundled kernels pack to a few MB, so the cap only bites on
/// multi-hundred-million-instruction captures.
pub const DEFAULT_TRACE_CAP: usize = 1 << 30;

/// The process-wide resident packed-trace byte budget:
/// `PERFCLONE_TRACE_CAP` parsed once (unset or unparsable falls back to
/// [`DEFAULT_TRACE_CAP`]). A capture over the budget spills to disk, so
/// `0` spills every non-empty capture.
pub fn trace_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("PERFCLONE_TRACE_CAP")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_TRACE_CAP)
    })
}

/// Bytes of every in-memory capture this process made, mirrored into the
/// `trace.bytes` gauge for run reports. It only grows: a capture dropped
/// since is still counted.
static PACKED_BYTES_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Total bytes of spilled trace files produced by this process, mirrored
/// into the `trace.spill.bytes` gauge.
static SPILL_BYTES_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Where over-cap captures spill: `PERFCLONE_SPILL_DIR`, or the system
/// temp dir when unset. Parsed once per process.
pub(crate) fn spill_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = match std::env::var("PERFCLONE_SPILL_DIR") {
            Ok(dir) if !dir.trim().is_empty() => PathBuf::from(dir),
            _ => std::env::temp_dir(),
        };
        // Reap spill files orphaned by dead processes (a SIGKILL
        // mid-capture leaves both sealed spills and `.tmp-<pid>` segment
        // temps behind; Drop never ran). Once per process, on first use.
        let reaped = perfclone_sim::reap_stray_spills(&dir);
        if reaped > 0 {
            perfclone_obs::count!("trace.spill.reaped", reaped);
            eprintln!(
                "perfclone: reaped {reaped} stray spill file(s) from dead processes in '{}'",
                dir.display()
            );
        }
        dir
    })
}

/// Captures the packed trace of `program` under the `cap_bytes` memory
/// budget, publishing the `trace.bytes` gauge on success.
///
/// An over-cap capture spills to disk and is replayed via mmap
/// (`trace.spills` counter, `trace.spill.bytes` gauge, plus a stderr
/// note). When the spill itself fails, the capture is abandoned whole —
/// never truncated — with the `trace.fallbacks` counter and a stderr
/// note, and the timing path falls back to direct interpretation.
///
/// This is the one capture choke point: the [`WorkloadCache`] memo and the
/// capture-per-call experiment drivers both route through it.
///
/// # Errors
///
/// Returns [`Error::Spill`] when the spill path fails.
pub(crate) fn capture_packed(
    program: &Program,
    limit: u64,
    cap_bytes: usize,
) -> Result<TraceStore, Error> {
    let _span = perfclone_obs::span!("sim.trace.capture");
    match TraceStore::capture(program, limit, cap_bytes, spill_dir()) {
        Ok(store) => {
            publish_capture(program, &store, cap_bytes);
            Ok(store)
        }
        Err(e) => {
            perfclone_obs::count!("trace.fallbacks", 1);
            eprintln!(
                "perfclone: spilling over-cap packed trace of '{}' failed ({e}); \
                 falling back to direct interpretation",
                program.name()
            );
            Err(Error::Spill(e))
        }
    }
}

/// Publishes a successful capture's counters/gauges and, for spills, the
/// stderr announcement (the cap must never *silently* change a run's
/// storage class).
fn publish_capture(program: &Program, store: &TraceStore, cap_bytes: usize) {
    perfclone_obs::count!("trace.captures", 1);
    perfclone_obs::count!("trace.capture.instrs", store.len());
    let bytes = store.stored_bytes();
    match store.spill_path() {
        None => {
            let total = PACKED_BYTES_TOTAL.fetch_add(bytes, Ordering::Relaxed) + bytes;
            perfclone_obs::gauge!("trace.bytes", total);
        }
        Some(path) => {
            perfclone_obs::count!("trace.spills", 1);
            // The spill file was just sealed (written, synced, renamed).
            perfclone_obs::instant!("trace.spill.seal");
            let total = SPILL_BYTES_TOTAL.fetch_add(bytes, Ordering::Relaxed) + bytes;
            perfclone_obs::gauge!("trace.spill.bytes", total);
            eprintln!(
                "perfclone: packed trace of '{}' exceeded PERFCLONE_TRACE_CAP ({cap_bytes} B); \
                 spilled {bytes} B to '{}' and replaying via mmap",
                program.name(),
                path.display()
            );
        }
    }
}

/// One memoization table: key → lazily-computed `Result<Arc<V>, Error>`.
/// Failed computations are memoized too — a corrupt workload fails once
/// and every later requester gets the same (cloned) error instead of
/// re-running the doomed computation.
/// A memoized computation slot: filled exactly once, then shared.
type Slot<V> = Arc<OnceLock<Result<Arc<V>, Error>>>;

struct Memo<K, V> {
    map: Mutex<HashMap<K, Slot<V>>>,
    lookups: AtomicU64,
    computes: AtomicU64,
    /// Global registry mirrors (`cache.<name>.lookups` / `.computes`),
    /// resolved once at construction. The per-instance atomics above stay
    /// authoritative for [`WorkloadCache::snapshot`]; the mirrors feed
    /// run reports, which aggregate across every cache in the process.
    g_lookups: &'static perfclone_obs::Counter,
    g_computes: &'static perfclone_obs::Counter,
}

impl<K: Eq + Hash, V> Memo<K, V> {
    fn new(name: &str) -> Memo<K, V> {
        Memo {
            map: Mutex::new(HashMap::new()),
            lookups: AtomicU64::new(0),
            computes: AtomicU64::new(0),
            g_lookups: perfclone_obs::counter(&format!("cache.{name}.lookups")),
            g_computes: perfclone_obs::counter(&format!("cache.{name}.computes")),
        }
    }

    fn get_or_compute(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, Error>,
    ) -> Result<Arc<V>, Error> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.g_lookups.incr();
        let slot = {
            // A thread that panicked while holding this lock only held it
            // across HashMap::entry (computations run outside the lock),
            // so the map itself is never left half-updated: recover it.
            let mut map = match self.map.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            map.entry(key).or_default().clone()
        };
        let mut computed = false;
        let result = slot
            .get_or_init(|| {
                computed = true;
                self.computes.fetch_add(1, Ordering::Relaxed);
                self.g_computes.incr();
                compute().map(Arc::new)
            })
            .clone();
        if !computed {
            // Served from an already-filled slot: a cache hit.
            perfclone_obs::instant!("cache.hit");
        }
        result
    }
}

/// A [`SynthesisParams`] image with `Eq + Hash` (the params struct holds
/// an `f64` miss-rate target, hashed here by bit pattern).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ParamsKey {
    seed: u64,
    target_blocks: u32,
    target_dynamic: u64,
    memory_model: (u8, u64, u32),
    branch_model: u8,
    context_sensitive: bool,
}

impl ParamsKey {
    fn of(p: &SynthesisParams) -> ParamsKey {
        ParamsKey {
            seed: p.seed,
            target_blocks: p.target_blocks,
            target_dynamic: p.target_dynamic,
            memory_model: match p.memory_model {
                MemoryModel::StrideStreams => (0, 0, 0),
                MemoryModel::MissRateTarget { miss_rate, line_bytes } => {
                    (1, miss_rate.to_bits(), line_bytes)
                }
            },
            branch_model: p.branch_model as u8,
            context_sensitive: p.context_sensitive,
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct ProfileKey {
    workload: String,
    limit: u64,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct CloneKey {
    workload: String,
    limit: u64,
    params: ParamsKey,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct PackedKey {
    workload: String,
    limit: u64,
}

/// Keyed by workload *and* program length: the table is pc-indexed, so a
/// caller that reuses a workload name for a re-synthesized program of a
/// different length must not be served the stale table.
#[derive(Clone, PartialEq, Eq, Hash)]
struct MetaKey {
    workload: String,
    program_len: usize,
}

/// Hit/compute counters of a [`WorkloadCache`], for observability and
/// tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkloadCacheStats {
    /// Profile lookups served.
    pub profile_lookups: u64,
    /// Profiles actually computed (lookups − computes = hits).
    pub profile_computes: u64,
    /// Clone lookups served.
    pub clone_lookups: u64,
    /// Clones actually synthesized.
    pub clone_computes: u64,
    /// Packed dynamic-trace (timing-replay input) lookups served.
    pub packed_trace_lookups: u64,
    /// Packed dynamic traces actually captured (failed spills count too:
    /// the outcome — including the fallback signal — is memoized).
    pub packed_trace_computes: u64,
    /// Interned per-pc instruction-metadata table lookups served.
    pub meta_lookups: u64,
    /// Metadata tables actually built.
    pub meta_computes: u64,
}

/// Memoizes the per-workload artifacts a sweep re-uses across cells: the
/// microarchitecture-independent profile, the synthesized clone program,
/// the packed dynamic trace, and the interned instruction-metadata table.
///
/// Entries are keyed by a caller-chosen workload name plus every input
/// that affects the artifact (profiling or capture limit, synthesis
/// parameters, program length) — the caller must use distinct names for
/// distinct programs. The cache is `Sync`; share one instance by
/// reference across a sweep's worker threads.
pub struct WorkloadCache {
    profiles: Memo<ProfileKey, WorkloadProfile>,
    clones: Memo<CloneKey, Program>,
    packed_traces: Memo<PackedKey, TraceStore>,
    metas: Memo<MetaKey, InstrMetaTable>,
}

impl Default for WorkloadCache {
    fn default() -> WorkloadCache {
        WorkloadCache {
            profiles: Memo::new("profile"),
            clones: Memo::new("clone"),
            packed_traces: Memo::new("trace"),
            metas: Memo::new("meta"),
        }
    }
}

impl WorkloadCache {
    /// Creates an empty cache.
    pub fn new() -> WorkloadCache {
        WorkloadCache::default()
    }

    /// The profile of `program` (up to `limit` instructions), computed on
    /// first request and shared thereafter.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] / [`Error::Profile`] if profiling fails; the
    /// failure is memoized like a success, so a corrupt workload is
    /// profiled (and fails) exactly once.
    pub fn profile(
        &self,
        workload: &str,
        program: &Program,
        limit: u64,
    ) -> Result<Arc<WorkloadProfile>, Error> {
        let key = ProfileKey { workload: workload.to_string(), limit };
        self.profiles.get_or_compute(key, || Ok(profile_program(program, limit)?))
    }

    /// The synthesized clone of `program` under `params`, built from the
    /// cached profile.
    ///
    /// # Errors
    ///
    /// Everything [`profile`](WorkloadCache::profile) returns, plus
    /// [`Error::Synth`] if synthesis fails.
    pub fn clone_program(
        &self,
        workload: &str,
        program: &Program,
        limit: u64,
        params: &SynthesisParams,
    ) -> Result<Arc<Program>, Error> {
        let key = CloneKey { workload: workload.to_string(), limit, params: ParamsKey::of(params) };
        self.clones.get_or_compute(key, || {
            let profile = self.profile(workload, program, limit)?;
            Ok(synthesize(&profile, params)?)
        })
    }

    /// The packed dynamic trace of `program` (up to `limit` instructions)
    /// — the record-once/replay-many input of
    /// [`run_timing_trace`](crate::run_timing_trace) — captured on first
    /// request under the process-wide [`trace_cap`] memory budget and
    /// shared thereafter, so a timing sweep pays one functional execution
    /// per `(workload, limit)` no matter how many machine configurations
    /// (or rayon workers) consume it. An over-cap capture comes back
    /// spilled: on disk, replayed via mmap.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spill`] when spill I/O fails; the outcome is
    /// memoized either way, so an unstorable workload is probed exactly
    /// once and every later requester immediately falls back to direct
    /// interpretation.
    pub fn packed_trace(
        &self,
        workload: &str,
        program: &Program,
        limit: u64,
    ) -> Result<Arc<TraceStore>, Error> {
        self.packed_trace_capped(workload, program, limit, trace_cap())
    }

    /// [`packed_trace`](WorkloadCache::packed_trace) with an explicit byte
    /// cap instead of the process-wide `PERFCLONE_TRACE_CAP`. The memo is
    /// keyed by `(workload, limit)` only, so the first capture's cap wins.
    fn packed_trace_capped(
        &self,
        workload: &str,
        program: &Program,
        limit: u64,
        cap_bytes: usize,
    ) -> Result<Arc<TraceStore>, Error> {
        let key = PackedKey { workload: workload.to_string(), limit };
        self.packed_traces.get_or_compute(key, || capture_packed(program, limit, cap_bytes))
    }

    /// The interned per-pc [`InstrMetaTable`] of `program` — the flat
    /// static-resolution table the batched replay front end indexes per
    /// retired record — built on first request and shared across every
    /// cell (and rayon worker) replaying this workload.
    pub fn instr_meta(&self, workload: &str, program: &Program) -> Arc<InstrMetaTable> {
        let key = MetaKey { workload: workload.to_string(), program_len: program.len() };
        self.metas
            .get_or_compute(key, || Ok(InstrMetaTable::new(program)))
            // Interning is infallible, so the Err arm is unreachable;
            // recomputing (uncached) keeps this API infallible too.
            .unwrap_or_else(|_| Arc::new(InstrMetaTable::new(program)))
    }

    /// A point-in-time copy of all lookup/compute counters, read once
    /// each with `Ordering::Relaxed`.
    ///
    /// Torn-read semantics: the eight loads are not a single atomic
    /// transaction, so a snapshot taken while workers are mid-flight may
    /// pair a `lookups` value with a `computes` value from a slightly
    /// later instant (e.g. `computes > lookups − hits` transiently).
    /// This is benign — each individual counter is exact, and snapshots
    /// taken at a quiescent point (after a sweep joins, as the CLI and
    /// tests do) are globally consistent. The same counters are mirrored
    /// into the telemetry registry as `cache.<memo>.lookups` /
    /// `cache.<memo>.computes` for run reports.
    pub fn snapshot(&self) -> WorkloadCacheStats {
        WorkloadCacheStats {
            profile_lookups: self.profiles.lookups.load(Ordering::Relaxed),
            profile_computes: self.profiles.computes.load(Ordering::Relaxed),
            clone_lookups: self.clones.lookups.load(Ordering::Relaxed),
            clone_computes: self.clones.computes.load(Ordering::Relaxed),
            packed_trace_lookups: self.packed_traces.lookups.load(Ordering::Relaxed),
            packed_trace_computes: self.packed_traces.computes.load(Ordering::Relaxed),
            meta_lookups: self.metas.lookups.load(Ordering::Relaxed),
            meta_computes: self.metas.computes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfclone_kernels::{by_name, Scale};

    fn program(name: &str) -> Program {
        by_name(name).expect("kernel exists").build(Scale::Tiny).program
    }

    #[test]
    fn profile_hits_return_the_same_arc() {
        let cache = WorkloadCache::new();
        let p = program("crc32");
        let a = cache.profile("crc32", &p, 100_000).unwrap();
        let b = cache.profile("crc32", &p, 100_000).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.snapshot();
        assert_eq!(stats.profile_lookups, 2);
        assert_eq!(stats.profile_computes, 1);
    }

    #[test]
    fn different_workloads_and_limits_miss() {
        let cache = WorkloadCache::new();
        let crc = program("crc32");
        let bit = program("bitcount");
        let a = cache.profile("crc32", &crc, 100_000).unwrap();
        let b = cache.profile("bitcount", &bit, 100_000).unwrap();
        let c = cache.profile("crc32", &crc, 50_000).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.snapshot().profile_computes, 3);
    }

    #[test]
    fn cached_profile_equals_direct_profile() {
        let cache = WorkloadCache::new();
        let p = program("crc32");
        let cached = cache.profile("crc32", &p, 100_000).unwrap();
        let direct = profile_program(&p, 100_000).unwrap();
        assert_eq!(
            cached.to_json().unwrap(),
            direct.to_json().unwrap(),
            "cache must be transparent"
        );
    }

    #[test]
    fn clone_keyed_by_params() {
        let cache = WorkloadCache::new();
        let p = program("crc32");
        let params = SynthesisParams { target_dynamic: 50_000, ..SynthesisParams::default() };
        let a = cache.clone_program("crc32", &p, u64::MAX, &params).unwrap();
        let b = cache.clone_program("crc32", &p, u64::MAX, &params).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let reseeded = SynthesisParams { seed: 99, ..params };
        let c = cache.clone_program("crc32", &p, u64::MAX, &reseeded).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        // Both clones share one underlying profile.
        assert_eq!(cache.snapshot().profile_computes, 1);
        assert_eq!(cache.snapshot().clone_computes, 2);
    }

    /// An over-cap workload is captured exactly once: the capture spills to
    /// disk (it never truncates) and the spilled store is memoized, so every
    /// later requester shares the same on-disk trace. (When the spill itself
    /// fails, the memoized outcome is a typed `Error::Spill` and timing falls
    /// back to live interpretation; `crates/cli/tests/spill_fallback.rs`
    /// covers that path.)
    #[test]
    fn capped_capture_is_memoized_as_spill() {
        let p = program("susan");
        let cache = WorkloadCache::new();
        for _ in 0..3 {
            let store = cache
                .packed_trace_capped("susan-tiny", &p, 50_000, 64)
                .expect("64 bytes cannot hold the trace resident, so it must spill");
            assert!(store.is_spilled(), "an over-cap capture must be on disk");
            assert!(store.halted(), "the full stream (not a truncation) must be on disk");
        }
        let stats = cache.snapshot();
        assert_eq!(stats.packed_trace_computes, 1, "over-cap capture must be memoized");
        assert_eq!(stats.packed_trace_lookups, 3);
    }

    #[test]
    fn concurrent_requests_compute_once() {
        let cache = WorkloadCache::new();
        let p = program("crc32");
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| cache.profile("crc32", &p, 100_000).unwrap()))
                .collect();
            let arcs: Vec<_> = handles.into_iter().map(|h| h.join().expect("no panic")).collect();
            for pair in arcs.windows(2) {
                assert!(Arc::ptr_eq(&pair[0], &pair[1]));
            }
        });
        assert_eq!(cache.snapshot().profile_computes, 1);
    }
}
