//! The live-interpretation fallback: when spilling an over-cap trace
//! fails, `perfclone dsweep` must announce the fallback on stderr and
//! still print exactly what a normal run prints. The failure is forced by
//! pointing `PERFCLONE_SPILL_DIR` below a plain file, so creating the
//! spill directory fails with ENOTDIR.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_perfclone");

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("perfclone-spill-fallback-{}-{name}", std::process::id()))
}

/// Runs a tiny design sweep with `envs` set. Telemetry is off so stdout
/// carries no wall-clock footer and two runs compare byte for byte.
fn dsweep(envs: &[(&str, &str)]) -> Output {
    Command::new(BIN)
        .args(["dsweep", "crc32", "--scale", "tiny", "--dynamic", "20000"])
        .env("PERFCLONE_OBS", "0")
        .envs(envs.iter().copied())
        .output()
        .expect("run perfclone dsweep")
}

#[test]
fn failed_spill_falls_back_with_identical_stdout() {
    let blocker = temp("blocker");
    std::fs::write(&blocker, b"not a directory").expect("create blocker file");
    let spill_dir = blocker.join("spill");
    let spill_dir = spill_dir.to_str().expect("temp path is UTF-8");

    let fallback = dsweep(&[("PERFCLONE_TRACE_CAP", "1024"), ("PERFCLONE_SPILL_DIR", spill_dir)]);
    let normal = dsweep(&[]);
    let _ = std::fs::remove_file(&blocker);
    assert!(fallback.status.success(), "dsweep with a failing spill failed: {fallback:?}");
    assert!(normal.status.success(), "dsweep failed: {normal:?}");

    let stderr = String::from_utf8_lossy(&fallback.stderr);
    assert!(
        stderr.contains("falling back to direct interpretation"),
        "the fallback must announce itself on stderr: {stderr}"
    );
    assert!(!stderr.contains("replaying via mmap"), "no capture may have spilled: {stderr}");
    assert!(!normal.stdout.is_empty(), "the sweep printed nothing");
    assert_eq!(
        String::from_utf8_lossy(&fallback.stdout),
        String::from_utf8_lossy(&normal.stdout),
        "live-interpretation fallback must print exactly what replay prints"
    );
}
