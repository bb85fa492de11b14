//! Append-only on-disk journal for sharded sweeps.
//!
//! A journal is a directory holding one `spec.json` (the grid's identity:
//! spec hash, cell count, shard size) plus one `shard-NNNNNN.json` per
//! completed shard, each carrying that shard's metric rows, plus one
//! `quarantine-NNNNNN.json` per cell a `--keep-going` sweep gave up on. A
//! killed sweep resumes by reloading the directory: shards with a record
//! on disk are *skipped* and their journaled rows merged verbatim, which
//! is what makes resume bit-identical — the resumed run never recomputes
//! (and so can never perturb) a completed shard.
//!
//! # Crash safety
//!
//! Every file is written to a `<name>.tmp-<pid>` sibling and `rename`d
//! into place, so a record either exists whole or not at all; a `SIGKILL`
//! mid-write leaves only a stray temp file, which [`Journal::open`] reaps
//! on the next resume. Records are additionally validated on load (spec
//! hash, shard range, row order, metric finiteness, and a checksum over
//! every row field, so a flipped byte that leaves the JSON valid cannot
//! pass for a journaled result). A record that fails
//! *structural* validation — truncated by a torn rename, corrupted by bit
//! rot, or short-written by a failing disk — is **demoted, not fatal**:
//! the bad file is set aside (renamed `*.corrupt`), a stderr warning and
//! the `grid.journal.truncated_recovered` counter record the recovery,
//! and the shard is treated as pending and re-executed. Only genuine
//! identity conflicts (a parseable `spec.json` for a *different* grid, or
//! a newer journal version) and live I/O failures remain hard errors,
//! because silently re-executing over a different sweep's data would be
//! worse than stopping. All file writes route through
//! [`perfclone_sim::faultfs`], so the chaos harness can drive every one
//! of these recovery paths deterministically.
//!
//! # Bit-identical resume and floats
//!
//! Metric rows hold `f64`s, serialized with the shortest representation
//! that round-trips exactly for finite values. Non-finite metrics would
//! *not* round-trip (JSON has no NaN/Inf), so
//! [`Journal::record_shard`] refuses them with
//! [`JournalError::NonFinite`] instead of silently breaking the
//! resume-equals-rerun contract.
//!
//! # Quarantine records
//!
//! Under `--keep-going`, a cell whose execution fails permanently (after
//! transient retries are exhausted) is quarantined:
//! `quarantine-NNNNNN.json` records the cell, its stable ID, a typed
//! failure kind, the human-readable reason, and how many attempts were
//! made. The owning shard's record then legitimately *omits* that cell's
//! row — load validation accepts a gap exactly when a quarantine record
//! covers it. A journaled row always wins over a stale quarantine record
//! (the record is dropped and its file removed), so a cell that later
//! succeeds is never reported as lost.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::grid::{fnv1a, CellRow, GridSpec};

/// Current journal format version (recorded in `spec.json`). Version 2
/// added the shard records' row checksum.
pub const JOURNAL_VERSION: u32 = 2;

/// Typed error for journal I/O and validation.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalError {
    /// A filesystem operation failed.
    Io {
        /// The path the operation targeted.
        path: PathBuf,
        /// The OS error text.
        detail: String,
    },
    /// The journal directory belongs to a different grid spec — resuming
    /// would merge rows from a different design space.
    SpecMismatch {
        /// The journal's `spec.json`.
        path: PathBuf,
        /// The running sweep's spec hash.
        expected: u64,
        /// The spec hash found on disk.
        found: u64,
    },
    /// A journal file failed structural validation.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to validate.
        detail: String,
    },
    /// A metric row holds a non-finite value, which cannot round-trip
    /// through the journal bit-identically.
    NonFinite {
        /// The cell whose row was rejected.
        cell: u64,
        /// The offending metric.
        metric: &'static str,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, detail } => {
                write!(f, "journal I/O on '{}' failed: {detail}", path.display())
            }
            JournalError::SpecMismatch { path, expected, found } => write!(
                f,
                "journal '{}' was written for grid spec {found:#018x}, \
                 but this sweep is grid spec {expected:#018x}",
                path.display()
            ),
            JournalError::Corrupt { path, detail } => {
                write!(f, "journal file '{}' is corrupt: {detail}", path.display())
            }
            JournalError::NonFinite { cell, metric } => {
                write!(f, "cell {cell} produced a non-finite {metric}; refusing to journal it")
            }
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(path: &Path, e: &io::Error) -> JournalError {
    JournalError::Io { path: path.to_path_buf(), detail: e.to_string() }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> JournalError {
    JournalError::Corrupt { path: path.to_path_buf(), detail: detail.into() }
}

/// `spec.json`: the journal directory's identity record.
#[derive(Serialize, Deserialize)]
struct SpecDoc {
    version: u32,
    spec_hash: u64,
    workload: String,
    scale: String,
    limit: u64,
    cells: u64,
    shard_size: u64,
    axes: String,
}

/// One completed shard's on-disk record.
#[derive(Serialize, Deserialize)]
struct ShardRecord {
    spec_hash: u64,
    shard: u64,
    start: u64,
    end: u64,
    rows: Vec<CellRow>,
    /// [`rows_checksum`] of `rows`.
    checksum: u64,
}

/// FNV-1a over every field of every row, the `f64`s by their bits. A byte
/// flip that keeps the record valid JSON (inside an id, an integer or a
/// float) still changes a field, so it changes this sum.
fn rows_checksum(rows: &[CellRow]) -> u64 {
    let mut bytes = Vec::new();
    for row in rows {
        bytes.extend_from_slice(&row.cell.to_le_bytes());
        bytes.extend_from_slice(&(row.id.len() as u64).to_le_bytes());
        bytes.extend_from_slice(row.id.as_bytes());
        for v in
            [row.cycles, row.instrs, row.ipc.to_bits(), row.power.to_bits(), row.l1d_mpi.to_bits()]
        {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// One quarantined cell, as surfaced to callers and the run report: the
/// payload of a `quarantine-NNNNNN.json` record (which additionally pins
/// the owning spec hash on disk).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Linear cell index.
    pub cell: u64,
    /// The cell's stable ID (`g<spec-hash>-c<index>`).
    pub id: String,
    /// Typed failure kind ([`Error::kind`](crate::Error::kind)).
    pub kind: String,
    /// Human-readable failure description.
    pub reason: String,
    /// Execution attempts made before giving up (1 = no retries).
    pub attempts: u32,
}

/// `quarantine-NNNNNN.json` on-disk form: the record plus the spec hash.
#[derive(Serialize, Deserialize)]
struct QuarantineDoc {
    spec_hash: u64,
    cell: u64,
    id: String,
    kind: String,
    reason: String,
    attempts: u32,
}

/// Everything [`Journal::open`] recovered from the directory.
#[derive(Debug, Default)]
pub struct JournalLoad {
    /// Completed shards' rows, keyed by shard index (rows may omit
    /// quarantined cells).
    pub shards: BTreeMap<u64, Vec<CellRow>>,
    /// Quarantined cells, keyed by cell index.
    pub quarantined: BTreeMap<u64, QuarantineRecord>,
    /// Records demoted to pending because they failed structural
    /// validation (truncated, corrupted, or inconsistent); their shards
    /// will be re-executed.
    pub recovered: u64,
}

/// Removes `path` on drop unless disarmed.
struct TempGuard {
    path: PathBuf,
    armed: bool,
}

impl TempGuard {
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

/// Atomically writes `text` to `path` (temp sibling + rename); the temp
/// file is removed if anything fails before the rename. Routed through
/// [`perfclone_sim::faultfs`] so the chaos harness can inject ENOSPC,
/// short writes, torn renames, and corruption here.
fn write_atomic(path: &Path, text: &str) -> Result<(), JournalError> {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(".tmp-{}", std::process::id()));
    let tmp = path.with_file_name(name);
    perfclone_sim::faultfs::write_file(&tmp, text.as_bytes()).map_err(|e| io_err(&tmp, &e))?;
    let guard = TempGuard { path: tmp.clone(), armed: true };
    perfclone_sim::faultfs::rename(&tmp, path).map_err(|e| io_err(path, &e))?;
    guard.disarm();
    Ok(())
}

fn check_finite(rows: &[CellRow]) -> Result<(), JournalError> {
    for row in rows {
        for (metric, value) in [("ipc", row.ipc), ("power", row.power), ("l1d_mpi", row.l1d_mpi)] {
            if !value.is_finite() {
                return Err(JournalError::NonFinite { cell: row.cell, metric });
            }
        }
    }
    Ok(())
}

/// Demotes a structurally invalid record: warns, sets the file aside as
/// `<name>.corrupt` (preserved as evidence, never reparsed), and counts
/// the recovery. The caller then treats the shard/cell as pending.
fn demote(path: &Path, why: &JournalError) {
    eprintln!(
        "perfclone: journal record '{}' failed validation ({why}); \
         demoting to pending — that work will be re-executed",
        path.display()
    );
    let mut bad = path.as_os_str().to_os_string();
    bad.push(".corrupt");
    let _ = fs::rename(path, &bad);
    perfclone_obs::count!("grid.journal.truncated_recovered", 1);
}

/// An open journal directory bound to one grid spec. Created by
/// [`Journal::open`], which also returns everything already journaled.
pub struct Journal {
    dir: PathBuf,
    spec_hash: u64,
}

impl Journal {
    /// Opens (creating if necessary) the journal at `dir` for `spec`,
    /// reaping stray temp files and loading every shard and quarantine
    /// record.
    ///
    /// Structurally invalid records (truncated final shard from a torn
    /// rename, flipped bytes, inconsistent geometry) are demoted to
    /// pending — see the module docs — rather than refusing the whole
    /// journal.
    ///
    /// # Errors
    ///
    /// [`JournalError::SpecMismatch`] when the directory's parseable
    /// `spec.json` belongs to a different grid, [`JournalError::Corrupt`]
    /// when it claims a newer journal version, [`JournalError::Io`] on
    /// filesystem failure.
    pub fn open(dir: &Path, spec: &GridSpec) -> Result<(Journal, JournalLoad), JournalError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        let spec_hash = spec.spec_hash();
        let spec_path = dir.join("spec.json");
        let mut load = JournalLoad::default();
        let mut need_spec = true;
        if spec_path.exists() {
            let text = fs::read_to_string(&spec_path).map_err(|e| io_err(&spec_path, &e))?;
            match serde_json::from_str::<SpecDoc>(&text) {
                Ok(doc) => {
                    if doc.version > JOURNAL_VERSION {
                        // A newer tool's journal: refusing is the only
                        // safe answer (we cannot judge its records).
                        return Err(corrupt(
                            &spec_path,
                            format!("journal version {} (expected {JOURNAL_VERSION})", doc.version),
                        ));
                    }
                    if doc.spec_hash != spec_hash
                        || doc.cells != spec.cells()
                        || doc.shard_size != spec.shard_size
                    {
                        return Err(JournalError::SpecMismatch {
                            path: spec_path,
                            expected: spec_hash,
                            found: doc.spec_hash,
                        });
                    }
                    need_spec = false;
                }
                Err(e) => {
                    // An unparsable identity record (torn or corrupted).
                    // Each shard record still pins the spec hash it was
                    // written for, so identity is re-checked per record;
                    // demote and rewrite the identity.
                    demote(&spec_path, &corrupt(&spec_path, e.to_string()));
                    load.recovered += 1;
                }
            }
        }
        if need_spec {
            let doc = SpecDoc {
                version: JOURNAL_VERSION,
                spec_hash,
                workload: spec.workload.clone(),
                scale: spec.scale.clone(),
                limit: spec.limit,
                cells: spec.cells(),
                shard_size: spec.shard_size,
                axes: spec.axes.canonical(),
            };
            let text =
                serde_json::to_string(&doc).map_err(|e| corrupt(&spec_path, e.to_string()))?;
            write_atomic(&spec_path, &text)?;
        }

        // Pass 1: inventory the directory, reaping unpublished temps.
        let mut shard_files: Vec<(u64, PathBuf)> = Vec::new();
        let mut quarantine_files: Vec<(u64, PathBuf)> = Vec::new();
        let entries = fs::read_dir(dir).map_err(|e| io_err(dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(dir, &e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.contains(".tmp-") {
                // A writer died mid-write (or pre-rename); the record was
                // never published, so the stray is safe to reap.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            let numbered = |prefix: &str| {
                name.strip_prefix(prefix)
                    .and_then(|s| s.strip_suffix(".json"))
                    .and_then(|num| num.parse::<u64>().ok())
            };
            if let Some(shard) = numbered("shard-") {
                shard_files.push((shard, entry.path()));
            } else if let Some(cell) = numbered("quarantine-") {
                quarantine_files.push((cell, entry.path()));
            }
        }

        // Pass 2: quarantine records first — shard validation needs them
        // to judge row gaps.
        for (cell, path) in quarantine_files {
            match Self::load_quarantine(&path, spec, spec_hash, cell) {
                Ok(rec) => {
                    load.quarantined.insert(cell, rec);
                }
                Err(e @ JournalError::Io { .. }) => return Err(e),
                Err(e) => {
                    demote(&path, &e);
                    load.recovered += 1;
                }
            }
        }

        // Pass 3: shard records, validated against the quarantine set.
        for (shard, path) in shard_files {
            match Self::load_shard(&path, spec, spec_hash, shard, &load.quarantined) {
                Ok(rows) => {
                    load.shards.insert(shard, rows);
                }
                Err(e @ JournalError::Io { .. }) => return Err(e),
                Err(e) => {
                    demote(&path, &e);
                    load.recovered += 1;
                }
            }
        }

        // A journaled row wins over a stale quarantine record: drop the
        // record (and its file) so a cell that later succeeded is never
        // reported as lost coverage.
        for rows in load.shards.values() {
            for row in rows {
                if load.quarantined.remove(&row.cell).is_some() {
                    let _ = fs::remove_file(Self::quarantine_path(dir, row.cell));
                }
            }
        }
        Ok((Journal { dir: dir.to_path_buf(), spec_hash }, load))
    }

    fn quarantine_path(dir: &Path, cell: u64) -> PathBuf {
        dir.join(format!("quarantine-{cell:06}.json"))
    }

    /// Loads and validates one quarantine record.
    fn load_quarantine(
        path: &Path,
        spec: &GridSpec,
        spec_hash: u64,
        cell: u64,
    ) -> Result<QuarantineRecord, JournalError> {
        let text = fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        let doc: QuarantineDoc =
            serde_json::from_str(&text).map_err(|e| corrupt(path, e.to_string()))?;
        if doc.spec_hash != spec_hash {
            return Err(JournalError::SpecMismatch {
                path: path.to_path_buf(),
                expected: spec_hash,
                found: doc.spec_hash,
            });
        }
        if doc.cell != cell {
            return Err(corrupt(
                path,
                format!("file names cell {cell} but records cell {}", doc.cell),
            ));
        }
        if cell >= spec.cells() {
            return Err(corrupt(path, format!("quarantined cell {cell} out of range")));
        }
        Ok(QuarantineRecord {
            cell: doc.cell,
            id: doc.id,
            kind: doc.kind,
            reason: doc.reason,
            attempts: doc.attempts,
        })
    }

    /// Loads and validates one shard record. Rows must be strictly
    /// increasing within the shard's cell range, a missing cell is
    /// accepted exactly when `quarantined` covers it, and the rows must
    /// match the record's checksum.
    fn load_shard(
        path: &Path,
        spec: &GridSpec,
        spec_hash: u64,
        shard: u64,
        quarantined: &BTreeMap<u64, QuarantineRecord>,
    ) -> Result<Vec<CellRow>, JournalError> {
        let text = fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        let rec: ShardRecord =
            serde_json::from_str(&text).map_err(|e| corrupt(path, e.to_string()))?;
        if rec.spec_hash != spec_hash {
            return Err(JournalError::SpecMismatch {
                path: path.to_path_buf(),
                expected: spec_hash,
                found: rec.spec_hash,
            });
        }
        if rec.shard != shard {
            return Err(corrupt(
                path,
                format!("file names shard {shard} but records shard {}", rec.shard),
            ));
        }
        let Some((start, end)) = spec.shard_range(shard) else {
            return Err(corrupt(path, format!("shard {shard} out of range")));
        };
        if (rec.start, rec.end) != (start, end) {
            return Err(corrupt(
                path,
                format!(
                    "shard {shard} covers cells {}..{} but the spec says {start}..{end}",
                    rec.start, rec.end
                ),
            ));
        }
        let mut expect = start;
        for row in &rec.rows {
            if row.cell < expect || row.cell >= end {
                return Err(corrupt(
                    path,
                    format!(
                        "row for cell {} is out of order or range (expected ≥ {expect}, < {end})",
                        row.cell
                    ),
                ));
            }
            for missing in expect..row.cell {
                if !quarantined.contains_key(&missing) {
                    return Err(corrupt(
                        path,
                        format!(
                            "shard {shard} has no row for cell {missing} \
                             and no quarantine record covers it"
                        ),
                    ));
                }
            }
            expect = row.cell + 1;
        }
        for missing in expect..end {
            if !quarantined.contains_key(&missing) {
                return Err(corrupt(
                    path,
                    format!(
                        "shard {shard} has no row for cell {missing} \
                         and no quarantine record covers it"
                    ),
                ));
            }
        }
        check_finite(&rec.rows)
            .map_err(|e| corrupt(path, format!("journaled row is non-finite: {e}")))?;
        let sum = rows_checksum(&rec.rows);
        if sum != rec.checksum {
            return Err(corrupt(
                path,
                format!(
                    "rows checksum {sum:#018x} does not match the recorded {:#018x}",
                    rec.checksum
                ),
            ));
        }
        Ok(rec.rows)
    }

    /// Atomically publishes one completed shard's rows. Rows may omit
    /// quarantined cells; [`Journal::open`] validates gaps against the
    /// quarantine records published alongside.
    ///
    /// # Errors
    ///
    /// [`JournalError::NonFinite`] when a row cannot round-trip,
    /// [`JournalError::Io`] on filesystem failure.
    pub fn record_shard(
        &self,
        shard: u64,
        start: u64,
        end: u64,
        rows: &[CellRow],
    ) -> Result<(), JournalError> {
        check_finite(rows)?;
        let rec = ShardRecord {
            spec_hash: self.spec_hash,
            shard,
            start,
            end,
            rows: rows.to_vec(),
            checksum: rows_checksum(rows),
        };
        let path = self.dir.join(format!("shard-{shard:06}.json"));
        let text = serde_json::to_string(&rec).map_err(|e| corrupt(&path, e.to_string()))?;
        perfclone_obs::instant!("journal.write.shard");
        write_atomic(&path, &text)
    }

    /// Atomically publishes one quarantined cell's record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure.
    pub fn record_quarantine(&self, rec: &QuarantineRecord) -> Result<(), JournalError> {
        let doc = QuarantineDoc {
            spec_hash: self.spec_hash,
            cell: rec.cell,
            id: rec.id.clone(),
            kind: rec.kind.clone(),
            reason: rec.reason.clone(),
            attempts: rec.attempts,
        };
        let path = Self::quarantine_path(&self.dir, rec.cell);
        let text = serde_json::to_string(&doc).map_err(|e| corrupt(&path, e.to_string()))?;
        perfclone_obs::instant!("journal.write.quarantine");
        write_atomic(&path, &text)
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
