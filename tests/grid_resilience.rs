//! Fault-tolerance tests for the sweep supervisor: transient faults are
//! retried to success with a deterministic schedule at any thread count,
//! permanent faults quarantine under `--keep-going` (and abort typed
//! without it), quarantine records survive resume, and truncated journal
//! records demote to pending instead of poisoning the sweep.

use std::path::PathBuf;

use perfclone::{
    parse_fault_injector, run_grid_with, CellRow, Error, ErrorClass, GridAxes, GridOutcome,
    GridPolicy, GridSpec, Journal, WorkloadCache,
};
use perfclone_kernels::{by_name, Scale};
use proptest::prelude::*;

fn tiny_program() -> perfclone_isa::Program {
    by_name("crc32").expect("kernel exists").build(Scale::Tiny).program
}

fn spec_with(max_cells: u64, shard_size: u64) -> GridSpec {
    GridSpec {
        workload: "crc32".into(),
        scale: "tiny".into(),
        limit: 20_000,
        axes: GridAxes::small(),
        max_cells,
        shard_size,
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("perfclone-grid-resilience-{}-{tag}", std::process::id()))
}

/// A supervision policy that never sleeps: retry determinism must not
/// depend on backoff timing, only on the per-cell attempt counter.
fn fast_policy(keep_going: bool) -> GridPolicy {
    GridPolicy { keep_going, backoff_base_ms: 0, ..GridPolicy::default() }
}

fn sweep(
    program: &perfclone_isa::Program,
    spec: &GridSpec,
    journal: &std::path::Path,
    policy: &GridPolicy,
    faults: Option<&str>,
) -> Result<GridOutcome, Error> {
    let injector = faults.and_then(parse_fault_injector);
    let cache = WorkloadCache::new();
    run_grid_with(program, spec, journal, &cache, policy, injector.as_deref(), |_| {})
}

/// Transient faults are retried to success and the merged rows are
/// bit-identical across 1-, 4-, and 8-thread pools: the retry schedule
/// is a function of (seed, cell, attempt), never of the interleaving.
#[test]
fn transient_retries_are_deterministic_across_thread_counts() {
    let program = tiny_program();
    let spec = spec_with(12, 5);
    // Cells 1, 4, and 7 fail transiently for 1, 2, and 1 attempts.
    let faults = "1=trans,4=trans:2,7=trans";
    let mut row_sets = Vec::new();
    for (i, jobs) in [1usize, 4, 8].into_iter().enumerate() {
        let journal = temp_journal(&format!("retry-threads-{i}"));
        let _ = std::fs::remove_dir_all(&journal);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("pool");
        let outcome = pool
            .install(|| sweep(&program, &spec, &journal, &fast_policy(false), Some(faults)))
            .expect("transients retry to success");
        assert_eq!(outcome.rows.len() as u64, spec.cells(), "full coverage at {jobs} threads");
        assert_eq!(outcome.retries, 4, "1+2+1 retries at {jobs} threads");
        assert!(outcome.quarantined.is_empty());
        assert!(outcome.full_coverage());
        row_sets.push(outcome.rows);
        let _ = std::fs::remove_dir_all(&journal);
    }
    assert_eq!(row_sets[0], row_sets[1], "rows must not depend on thread count");
    assert_eq!(row_sets[0], row_sets[2], "rows must not depend on thread count");
}

/// Under `keep_going`, permanently-failing cells are quarantined with
/// typed records and the rest of the sweep completes; resuming honours
/// the quarantine even when the fault injector is gone.
#[test]
fn permanent_faults_quarantine_and_survive_resume() {
    let program = tiny_program();
    let spec = spec_with(12, 4);
    let journal = temp_journal("quarantine");
    let _ = std::fs::remove_dir_all(&journal);
    let first = sweep(&program, &spec, &journal, &fast_policy(true), Some("3=perm,10=perm"))
        .expect("keep-going completes");
    assert_eq!(first.rows.len() as u64, spec.cells() - 2);
    assert!(!first.full_coverage());
    assert!(first.rows.iter().all(|r| r.cell != 3 && r.cell != 10));
    let cells: Vec<u64> = first.quarantined.iter().map(|q| q.cell).collect();
    assert_eq!(cells, vec![3, 10]);
    for q in &first.quarantined {
        assert_eq!(q.kind, "injected");
        assert_eq!(q.attempts, 1, "permanent faults are not retried");
        assert_eq!(q.id, spec.cell_id(q.cell).to_string());
        assert!(q.reason.contains("injected"), "reason: {}", q.reason);
    }
    // Resume with no injector at all: the quarantined cells are *not*
    // re-executed (they would succeed now), proving the records gate.
    let resumed = sweep(&program, &spec, &journal, &fast_policy(true), None)
        .expect("degraded resume completes");
    assert_eq!(resumed.rows, first.rows, "resume must be bit-identical");
    assert_eq!(resumed.quarantined, first.quarantined);
    assert_eq!(resumed.executed_shards, 0, "nothing left to execute");

    // Without keep_going, the same journal is a typed degraded-coverage
    // abort, not a silent partial merge.
    match sweep(&program, &spec, &journal, &fast_policy(false), None) {
        Err(Error::DegradedJournal { quarantined, .. }) => assert_eq!(quarantined, 2),
        other => panic!("expected DegradedJournal, got {other:?}"),
    }

    // Deleting the quarantine records is the documented retry path: the
    // affected shards re-execute and (faults gone) reach full coverage.
    for cell in [3u64, 10] {
        std::fs::remove_file(journal.join(format!("quarantine-{cell:06}.json")))
            .expect("remove quarantine record");
    }
    let healed = sweep(&program, &spec, &journal, &fast_policy(false), None).expect("healed sweep");
    assert!(healed.full_coverage());
    assert_eq!(healed.rows.len() as u64, spec.cells());
    let _ = std::fs::remove_dir_all(&journal);
}

/// Without `keep_going` a permanent fault aborts the sweep with the
/// original typed error, and the error taxonomy classifies it as such.
#[test]
fn permanent_fault_without_keep_going_aborts_typed() {
    let program = tiny_program();
    let spec = spec_with(8, 3);
    let journal = temp_journal("abort");
    let _ = std::fs::remove_dir_all(&journal);
    match sweep(&program, &spec, &journal, &fast_policy(false), Some("2=perm")) {
        Err(err @ Error::Injected { cell: 2, transient: false, .. }) => {
            assert_eq!(err.classify(), ErrorClass::Permanent);
            assert_eq!(err.kind(), "injected");
        }
        other => panic!("expected a permanent injected fault, got {other:?}"),
    }
    // A transient classification is retryable by definition.
    let transient = Error::Injected { cell: 2, attempt: 0, transient: true };
    assert_eq!(transient.classify(), ErrorClass::Transient);
    let _ = std::fs::remove_dir_all(&journal);
}

/// A cell deadline fails exactly the cells whose run takes more cycles
/// than it, as a permanent pipeline `BudgetExhausted`: without
/// `keep_going` the sweep aborts with that error; with it, exactly those
/// cells are quarantined and every other row equals the unbounded
/// sweep's. A deadline at the largest count covers every cell.
#[test]
fn cell_deadline_fails_exactly_the_cells_over_it() {
    let program = tiny_program();
    let spec = spec_with(12, 4);
    let journal = temp_journal("deadline");
    let run = |policy: &GridPolicy| {
        let _ = std::fs::remove_dir_all(&journal);
        let outcome = sweep(&program, &spec, &journal, policy, None);
        let _ = std::fs::remove_dir_all(&journal);
        outcome
    };
    let unbounded = run(&fast_policy(false)).expect("unbounded sweep");
    assert_eq!(unbounded.rows.len() as u64, spec.cells());
    let mut counts: Vec<u64> = unbounded.rows.iter().map(|r| r.cycles).collect();
    counts.sort_unstable();
    counts.dedup();
    assert!(counts.len() >= 2, "the cells need two distinct cycle counts: {counts:?}");
    let k = counts.len() / 2 - 1;
    let d = counts[k] + (counts[k + 1] - counts[k]) / 2;
    let over: Vec<u64> = unbounded.rows.iter().filter(|r| r.cycles > d).map(|r| r.cell).collect();
    assert!(!over.is_empty() && over.len() < unbounded.rows.len());
    let bounded =
        |keep_going: bool, d: u64| GridPolicy { cell_deadline: Some(d), ..fast_policy(keep_going) };

    match run(&bounded(false, d)) {
        Err(err @ Error::BudgetExhausted { stage: "pipeline", budget }) if budget == d => {
            assert_eq!(err.classify(), ErrorClass::Permanent);
        }
        other => panic!("expected a pipeline budget of {d} exhausted, got {other:?}"),
    }

    let degraded = run(&bounded(true, d)).expect("keep-going completes");
    let quarantined: Vec<u64> = degraded.quarantined.iter().map(|q| q.cell).collect();
    assert_eq!(quarantined, over, "exactly the cells over {d} cycles are quarantined");
    for q in &degraded.quarantined {
        assert_eq!(q.kind, "budget-exhausted");
        assert_eq!(q.attempts, 1, "a deadline is permanent, never retried");
    }
    let kept: Vec<CellRow> = unbounded.rows.iter().filter(|r| r.cycles <= d).cloned().collect();
    assert_eq!(degraded.rows, kept, "rows under the deadline are the unbounded rows");

    let largest = counts[counts.len() - 1];
    let full = run(&bounded(false, largest)).expect("a deadline at the largest count");
    assert!(full.full_coverage());
    assert_eq!(full.rows, unbounded.rows);
}

/// Killing a sweep mid-flight (simulated by deleting a subset of shard
/// records) and re-running with the same fault schedule reproduces the
/// uninterrupted outcome bit-for-bit, quarantines included.
#[test]
fn interrupted_then_resumed_sweep_is_identical() {
    let program = tiny_program();
    let spec = spec_with(12, 3);
    let faults = "1=trans:2,6=perm,9=trans";
    let full_journal = temp_journal("uninterrupted");
    let cut_journal = temp_journal("interrupted");
    let _ = std::fs::remove_dir_all(&full_journal);
    let _ = std::fs::remove_dir_all(&cut_journal);
    let full = sweep(&program, &spec, &full_journal, &fast_policy(true), Some(faults))
        .expect("uninterrupted sweep");

    sweep(&program, &spec, &cut_journal, &fast_policy(true), Some(faults)).expect("first pass");
    // "Crash": lose two of the four shard records.
    for shard in [1u64, 3] {
        std::fs::remove_file(cut_journal.join(format!("shard-{shard:06}.json")))
            .expect("delete shard record");
    }
    let resumed = sweep(&program, &spec, &cut_journal, &fast_policy(true), Some(faults))
        .expect("resumed sweep");
    assert_eq!(resumed.rows, full.rows, "interrupted+resumed must match uninterrupted");
    assert_eq!(resumed.quarantined, full.quarantined);
    assert_eq!(resumed.executed_shards, 2);
    let _ = std::fs::remove_dir_all(&full_journal);
    let _ = std::fs::remove_dir_all(&cut_journal);
}

/// A shard record truncated mid-write (torn rename, power loss) is
/// demoted to pending with a recovery counter and re-executed; the
/// resumed rows are identical to the originals.
#[test]
fn truncated_final_shard_demotes_and_recovers() {
    let program = tiny_program();
    let spec = spec_with(10, 4);
    let journal = temp_journal("truncated");
    let _ = std::fs::remove_dir_all(&journal);
    let first = sweep(&program, &spec, &journal, &fast_policy(false), None).expect("seed journal");
    let last = spec.shard_count() - 1;
    let victim = journal.join(format!("shard-{last:06}.json"));
    let bytes = std::fs::read(&victim).expect("read final shard record");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate final shard record");

    let resumed =
        sweep(&program, &spec, &journal, &fast_policy(false), None).expect("recovered sweep");
    assert_eq!(resumed.recovered_shards, 1, "one demoted record");
    assert_eq!(resumed.executed_shards, 1, "only the demoted shard re-executes");
    assert_eq!(resumed.rows, first.rows, "recovery must be bit-identical");
    // The torn record is preserved as evidence, not deleted.
    assert!(journal.join(format!("shard-{last:06}.json.corrupt")).exists());
    let _ = std::fs::remove_dir_all(&journal);
}

/// Replaces the character at `at` in `path`'s text with `with`.
fn overwrite_char(path: &std::path::Path, at: usize, with: char) {
    let mut text = std::fs::read_to_string(path).expect("read shard record");
    text.replace_range(at..at + 1, &with.to_string());
    std::fs::write(path, text).expect("rewrite shard record");
}

/// A flipped byte that keeps a shard record valid JSON, inside a row id or
/// inside a numeric field, fails the record's row checksum: `Journal::open`
/// demotes the shard, and the resumed sweep re-executes it and merges
/// bit-identically.
#[test]
fn valid_json_byte_flips_demote_and_recompute() {
    let program = tiny_program();
    let spec = spec_with(10, 4);
    let journal = temp_journal("flipped");
    let _ = std::fs::remove_dir_all(&journal);
    let first = sweep(&program, &spec, &journal, &fast_policy(false), None).expect("seed journal");

    // Shard 0: one hex digit of the first row's id (`"id":"g<hash>-c0"`).
    let shard0 = journal.join("shard-000000.json");
    let text = std::fs::read_to_string(&shard0).expect("read shard 0");
    let at = text.find("\"id\":\"g").expect("a row id") + 8;
    overwrite_char(&shard0, at, if &text[at..=at] == "a" { 'b' } else { 'a' });
    // Shard 1: the last digit of the first row's cycle count.
    let shard1 = journal.join("shard-000001.json");
    let text = std::fs::read_to_string(&shard1).expect("read shard 1");
    let digits = text.find("\"cycles\":").expect("a cycle count") + 9;
    let at = digits + text[digits..].find(|c: char| !c.is_ascii_digit()).expect("number ends") - 1;
    let last = text.as_bytes()[at] - b'0';
    overwrite_char(&shard1, at, char::from(b'0' + (last + 1) % 10));
    #[derive(serde::Deserialize)]
    struct Rows {
        rows: Vec<CellRow>,
    }
    let parsed = |path: &std::path::Path| -> Vec<CellRow> {
        let text = std::fs::read_to_string(path).expect("reread");
        serde_json::from_str::<Rows>(&text).expect("the flip keeps the record parseable").rows
    };
    assert_ne!(parsed(&shard0)[0].id, first.rows[0].id);
    assert_ne!(parsed(&shard1)[0].cycles, first.rows[4].cycles);

    let (_, load) = Journal::open(&journal, &spec).expect("journal opens");
    assert_eq!(load.recovered, 2, "both flipped records demoted");
    assert!(!load.shards.contains_key(&0) && !load.shards.contains_key(&1));
    assert!(journal.join("shard-000000.json.corrupt").exists());
    assert!(journal.join("shard-000001.json.corrupt").exists());

    let resumed =
        sweep(&program, &spec, &journal, &fast_policy(false), None).expect("recovered sweep");
    assert_eq!(resumed.executed_shards, 2, "only the demoted shards re-execute");
    assert_eq!(resumed.rows, first.rows, "recovery must be bit-identical");
    let _ = std::fs::remove_dir_all(&journal);
}

proptest! {
    /// The fault-injector grammar: for any schedule of permanent and
    /// transient cells, the injector fires exactly on the scheduled
    /// (cell, attempt) pairs — permanents forever, transients only below
    /// their attempt threshold — and everything it emits classifies
    /// accordingly.
    #[test]
    fn fault_injector_schedule_round_trips(
        perm_cells in proptest::collection::vec(0u64..32, 0..4),
        trans_cells in proptest::collection::vec((32u64..64, 1u32..4), 0..4),
    ) {
        let perm: std::collections::BTreeSet<u64> = perm_cells.into_iter().collect();
        let trans: std::collections::BTreeMap<u64, u32> = trans_cells.into_iter().collect();
        let mut parts: Vec<String> = perm.iter().map(|c| format!("{c}=perm")).collect();
        parts.extend(trans.iter().map(|(c, k)| format!("{c}=trans:{k}")));
        let schedule = parts.join(",");
        match parse_fault_injector(&schedule) {
            None => prop_assert!(perm.is_empty() && trans.is_empty()),
            Some(injector) => {
                for cell in 0u64..64 {
                    for attempt in 0u32..5 {
                        let fired = injector(cell, attempt);
                        let expect_perm = perm.contains(&cell);
                        let expect_trans = trans.get(&cell).is_some_and(|&k| attempt < k);
                        prop_assert_eq!(fired.is_some(), expect_perm || expect_trans);
                        if let Some(err) = fired {
                            prop_assert_eq!(
                                err.classify(),
                                if expect_perm { ErrorClass::Permanent } else { ErrorClass::Transient }
                            );
                        }
                    }
                }
            }
        }
    }

    /// Backoff is deterministic, seeded, and capped for any policy.
    #[test]
    fn backoff_is_bounded_and_deterministic(
        base in 0u64..200,
        cap in 1u64..2_000,
        seed in any::<u64>(),
        cell in 0u64..1_000,
        attempt in 0u32..40,
    ) {
        let policy = GridPolicy {
            backoff_base_ms: base,
            backoff_cap_ms: cap,
            seed,
            ..GridPolicy::default()
        };
        let a = policy.backoff("crc32", cell, attempt);
        let b = policy.backoff("crc32", cell, attempt);
        prop_assert_eq!(a, b, "backoff must be a pure function");
        prop_assert!(a.as_millis() as u64 <= cap.max(base), "bounded by the cap");
        if base == 0 {
            prop_assert_eq!(a, std::time::Duration::ZERO);
        }
    }
}
