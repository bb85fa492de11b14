//! Standing bit-identity guard for the timing model and the power model.
//!
//! Every catalog kernel at `Scale::Tiny` and its fixed-seed clone are
//! captured once and replayed through the pipeline on the base machine,
//! the five Table-3 design changes and the widest cell of
//! `GridAxes::dense()`; one cell per program also runs live through
//! `run_timing`. Every field of each `PipelineReport` and the `to_bits` of
//! each `PowerReport` are FNV-1a hashed and compared with constants
//! recorded before the fetch stage built window entries in place. Fetch,
//! dispatch and commit are shared by the fast model and its naive oracle,
//! and by both record sources, so only a recorded hash catches a change
//! there that moves a report.

use perfclone_kernels::{catalog, Scale};
use perfclone_repro::power::PowerBreakdown;
use perfclone_repro::prelude::*;
use perfclone_repro::uarch::{Activity, CacheStats, PredictorStats};

/// A short window keeps the debug-build run to a few seconds; every
/// configuration still sees cold and warm caches, mispredictions and
/// full windows.
const WINDOW: u64 = 8_000;

/// Synthesis seed of every clone.
const SEED: u64 = 0x5EED;

/// `(kernel, replayed reports, replayed power, live cell)` hashes.
const GOLDEN: [(&str, u64, u64, u64); 23] = [
    ("basicmath", 0xa2e5a9044afce1e1, 0x99203a40f9575ea5, 0xb6f2d4d4c92c3f2d),
    ("bitcount", 0xa1b795173e7d9be5, 0x3720244e9da7ff02, 0xeb110f20a980bdb8),
    ("qsort", 0x8ce491d52a7c331d, 0x6bc0d2c561e25906, 0xc9a3c654fb6f66bd),
    ("susan", 0xbfb0376c17118a0e, 0x7534300b9230cb85, 0x6e0324d3ec78ec13),
    ("dijkstra", 0x1bf4844c94707de9, 0xc69bdca778de5f2a, 0xa05069a5aa69ffb7),
    ("patricia", 0x2dd6ec4608ab2000, 0x69f37f3346b33057, 0x4153677bd18e49e9),
    ("blowfish", 0x0b2c3ed2ebbc8233, 0x5f6530e74f0e0d9f, 0xad98eb57e9ed826f),
    ("rijndael", 0xbc7d59e933632d05, 0x1ae9fe689a59167b, 0x815e7ebb80513d17),
    ("sha", 0xfa4d959e0cb8b6a8, 0xdb6e6ff5d24a1f01, 0x153ae0e226dc15b8),
    ("adpcm_enc", 0xe434cf29378b44c1, 0xba4f786569a5a677, 0x6186a9ba4956f641),
    ("adpcm_dec", 0xfc3c75349708ac56, 0xec3676b635a49130, 0x1a9b4327cf9f7770),
    ("crc32", 0xa5d9fab857a2fdf6, 0xeafa1192f418d133, 0xb25b860c934af68b),
    ("fft", 0xe741248a16c6df44, 0x4eff7d9f10d1fbe3, 0xc9404b53c87a4ad2),
    ("gsm", 0xe4d0fd6bec7c2c4c, 0xa3529efe9fa2a93a, 0xd6e90d576b92d862),
    ("stringsearch", 0xd607dc30c6e30817, 0x09cfd76bd7db0a50, 0xbb61999df59dc168),
    ("ispell", 0x914b34dd9ddb6074, 0xb5ce872343edfe08, 0xcbe0924d251a408b),
    ("ghostscript", 0x8014287c714b76ca, 0x0990bc5bf35b51a0, 0x773f9d707678399f),
    ("jpeg_enc", 0x386d4664c360f98b, 0x3e2594c170863deb, 0xa62cfc397f5e9bc4),
    ("jpeg_dec", 0x6f50d839c4cf1ac6, 0x152e26663f881d0e, 0xa96e7ef973a24920),
    ("lame", 0xe0925290174390a7, 0x7475b01be254cab9, 0x05f0694285113f7c),
    ("mpeg2_dec", 0xe2a24377ca4a5449, 0x13009c153679d9a1, 0x557980fbef178927),
    ("g721_enc", 0x64f5d332e3426752, 0xd3ae39905bb21154, 0x8090ed47fd9274d0),
    ("epic", 0xfbac9761d1e67294, 0x3986a0676ecbd511, 0x276554b5d90793e9),
];

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    fn cache(&mut self, c: &CacheStats) {
        let CacheStats { accesses, misses, writebacks } = *c;
        self.words(&[accesses, misses, writebacks]);
    }

    /// Every field, destructured so that a new one fails to compile here
    /// instead of passing unhashed.
    fn report(&mut self, r: &PipelineReport) {
        let PipelineReport { cycles, instrs, l1i, l1d, l2, bpred, activity } = r;
        self.words(&[*cycles, *instrs]);
        for c in [l1i, l1d, l2] {
            self.cache(c);
        }
        let PredictorStats { lookups, mispredicts } = *bpred;
        self.words(&[lookups, mispredicts]);
        let Activity {
            fetches,
            dispatches,
            issues,
            commits,
            int_alu_ops,
            int_mul_ops,
            fp_alu_ops,
            fp_mul_ops,
            regfile_reads,
            regfile_writes,
            rob_occupancy_sum,
            lsq_occupancy_sum,
            mispredict_stall_cycles,
            icache_stall_cycles,
        } = *activity;
        self.words(&[
            fetches,
            dispatches,
            issues,
            commits,
            int_alu_ops,
            int_mul_ops,
            fp_alu_ops,
            fp_mul_ops,
            regfile_reads,
            regfile_writes,
            rob_occupancy_sum,
            lsq_occupancy_sum,
            mispredict_stall_cycles,
            icache_stall_cycles,
        ]);
    }

    fn power(&mut self, p: &PowerReport) {
        let PowerReport { total_energy, average_power, energy_per_instr, breakdown } = p;
        let PowerBreakdown { frontend, bpred, rob, lsq, regfile, alus, l1i, l1d, l2, clock } =
            breakdown;
        for x in [
            total_energy,
            average_power,
            energy_per_instr,
            frontend,
            bpred,
            rob,
            lsq,
            regfile,
            alus,
            l1i,
            l1d,
            l2,
            clock,
        ] {
            self.word(x.to_bits());
        }
    }
}

/// The base machine, the five design changes, and the widest dense-grid
/// cell: 8-wide, a 128-entry ROB and 320-cycle memory.
fn configs() -> Vec<MachineConfig> {
    let axes = GridAxes::dense();
    let widest = axes.config(axes.cells() - 1).expect("the grid has cells");
    assert_eq!((widest.issue_width, widest.rob_size, widest.mem_latency), (8, 128, 320));
    let mut configs = vec![base_config()];
    configs.extend(design_changes());
    configs.push(widest);
    configs
}

fn hashes(kernel: &perfclone_kernels::Kernel) -> (&'static str, u64, u64, u64) {
    let program = kernel.build(Scale::Tiny).program;
    let profile = profile_program(&program, WINDOW).expect("kernel profiles");
    let params =
        SynthesisParams { seed: SEED, target_dynamic: WINDOW, ..SynthesisParams::default() };
    let clone =
        Cloner::with_params(params).clone_program_from(&profile).expect("clone synthesizes");
    let (mut reports, mut power, mut live) = (Fnv::new(), Fnv::new(), Fnv::new());
    for p in [&program, &clone] {
        let store = TraceStore::capture(p, WINDOW, usize::MAX, &std::env::temp_dir())
            .expect("an uncapped capture stays in memory");
        let meta = InstrMetaTable::new(p);
        for config in configs() {
            let t = run_timing_store(p, &store, &meta, &config).expect("replay runs");
            reports.report(&t.report);
            power.power(&t.power);
        }
        let t = run_timing(p, &base_config(), WINDOW).expect("live run");
        live.report(&t.report);
        live.power(&t.power);
    }
    (kernel.name(), reports.0, power.0, live.0)
}

#[test]
fn pipeline_and_power_reports_match_the_recorded_hashes() {
    let actual: Vec<(&str, u64, u64, u64)> = catalog().iter().map(hashes).collect();
    let table: String = actual
        .iter()
        .map(|(k, r, p, l)| format!("    (\"{k}\", {r:#018x}, {p:#018x}, {l:#018x}),\n"))
        .collect();
    assert_eq!(actual.as_slice(), GOLDEN.as_slice(), "actual hashes:\n{table}");
}
