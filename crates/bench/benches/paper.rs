//! Regenerates the paper's evaluation: every table EXPERIMENTS.md records,
//! from one clone population with each shared timing cell run once (see
//! `perfclone_bench::paper`). `PERFCLONE_SCALE`, `PERFCLONE_KERNELS`,
//! `PERFCLONE_JOBS`, `PERFCLONE_SEED` and `PERFCLONE_REPORT` apply.

fn main() {
    perfclone_bench::paper::run();
}
