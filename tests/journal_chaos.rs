//! The sweep-resilience contract under filesystem chaos, end to end: a
//! keep-going grid sweep with injected cell faults runs against a journal
//! whose writes and renames the seeded `faultfs` shim fails, shortens,
//! tears and corrupts. Retries, quarantine, degraded resume, durable
//! quarantine records, the strict-mode abort and parity with a fault-free
//! sweep must all hold.
//!
//! This is a test binary of its own because the fault plan is
//! process-global and first-wins: a journal write by any other test in
//! the same process would fix the plan from `PERFCLONE_FAULTFS` before
//! this test could install its own.

use std::path::Path;

use perfclone::{
    faultfs, parse_fault_injector, run_grid, run_grid_with, CellRow, Error, GridAxes, GridOutcome,
    GridPolicy, GridSpec, WorkloadCache,
};
use perfclone_kernels::{by_name, Scale};

#[test]
fn keep_going_sweep_survives_journal_chaos() {
    let pid = std::process::id();
    let faulty_tag = format!("perfclone-journal-chaos-faulty-{pid}");
    let faulty = std::env::temp_dir().join(&faulty_tag);
    let clean = std::env::temp_dir().join(format!("perfclone-journal-chaos-clean-{pid}"));
    let _ = std::fs::remove_dir_all(&faulty);
    let _ = std::fs::remove_dir_all(&clean);
    let seed = 0xC7A0_5EED;
    let plan = faultfs::FaultFsPlan {
        seed,
        enospc: 11,
        short: 13,
        torn: 7,
        corrupt: 9,
        scope: Some(faulty_tag),
    };
    assert!(faultfs::install(plan), "no guarded I/O may precede the install");

    let program = by_name("crc32").expect("bundled kernel").build(Scale::Tiny).program;
    let spec = GridSpec {
        workload: "crc32".into(),
        scale: "tiny".into(),
        limit: 20_000,
        axes: GridAxes::small(),
        max_cells: 12,
        shard_size: 4,
    };
    // Cells 2 and 9 fail permanently, cell 5 for two attempts and cell 11
    // for one: exactly 3 retries and 2 quarantined cells.
    let injector = parse_fault_injector("2=perm,5=trans:2,9=perm,11=trans").expect("parses");
    let quarantined = vec![2u64, 9];
    // Retry headroom absorbs injected ENOSPC bursts on journal writes.
    let policy = GridPolicy {
        keep_going: true,
        max_retries: 5,
        backoff_base_ms: 0,
        seed,
        ..GridPolicy::default()
    };
    let cache = WorkloadCache::new();
    // The shim's schedule keys on a process-wide operation counter, so one
    // worker keeps the order of journal operations, and the faults they
    // meet, fixed.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let sweep = |dir: &Path, inject: bool| {
        let injector = inject.then_some(injector.as_ref());
        pool.install(|| run_grid_with(&program, &spec, dir, &cache, &policy, injector, |_| {}))
    };
    let cells = |o: &GridOutcome| o.quarantined.iter().map(|q| q.cell).collect::<Vec<u64>>();

    // Keep-going completes with degraded coverage: a row per healthy cell,
    // a typed quarantine record per permanent fault, a retry per
    // transient one.
    let first = sweep(&faulty, true).expect("keep-going sweep completes");
    assert_eq!(first.rows.len(), 10);
    assert_eq!(cells(&first), quarantined);
    for q in &first.quarantined {
        assert_eq!((q.kind.as_str(), q.attempts), ("injected", 1), "cell {}", q.cell);
    }
    assert_eq!(first.retries, 3);

    // Resuming honours the quarantine and merges bit-identically; records
    // the shim tore or corrupted are demoted and re-executed on the way.
    let resumed = sweep(&faulty, true).expect("degraded resume completes");
    assert_eq!(resumed.rows, first.rows);
    assert_eq!(cells(&resumed), quarantined);

    // A torn rename may eat a freshly published quarantine record, but
    // each resume re-executes the affected shard and republishes it.
    let persisted =
        || quarantined.iter().all(|c| faulty.join(format!("quarantine-{c:06}.json")).is_file());
    let mut resumes = 0;
    while !persisted() && resumes < 6 {
        sweep(&faulty, true).expect("republishing resume completes");
        resumes += 1;
    }
    assert!(persisted(), "quarantine records still missing after {resumes} resumes");

    // Without keep-going, a quarantined journal is a typed abort, not a
    // silent partial result.
    let strict = pool.install(|| run_grid(&program, &spec, &faulty, &cache, |_| {}));
    assert!(
        matches!(strict, Err(Error::DegradedJournal { quarantined: 2, .. })),
        "expected a degraded-journal abort, got {strict:?}"
    );

    // Supervision never perturbs what it does not quarantine.
    let fault_free = sweep(&clean, false).expect("fault-free sweep completes");
    assert!(fault_free.quarantined.is_empty());
    let survivors: Vec<CellRow> =
        fault_free.rows.into_iter().filter(|r| !quarantined.contains(&r.cell)).collect();
    assert_eq!(survivors, first.rows);

    let injected = faultfs::injected();
    assert!(
        injected.enospc + injected.short + injected.torn + injected.corrupt > 0,
        "the shim injected nothing: {injected:?}"
    );
    let _ = std::fs::remove_dir_all(&faulty);
    let _ = std::fs::remove_dir_all(&clean);
}
