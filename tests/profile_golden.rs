//! Standing bit-identity guard for the profiler and the gate's measurement
//! of a clone.
//!
//! Every catalog kernel at `Scale::Tiny` is profiled, cloned at a fixed
//! seed, its clone profiled, and the clone gated against the kernel's
//! profile. The `serde_json` of both profiles and the `to_bits` of the
//! gate's attribute deltas are FNV-1a hashed and compared with constants
//! recorded from the hash-map profiler that the table-driven collector
//! replaced.

use perfclone_kernels::{catalog, Scale};
use perfclone_repro::prelude::*;

/// Short clones keep the debug-build run to a few seconds; the profiler
/// sees the same mix of blocks, streams and branches at any length.
const CLONE_DYNAMIC: u64 = 100_000;

/// `(kernel, profile, clone profile, gate deltas)` hashes.
const GOLDEN: [(&str, u64, u64, u64); 23] = [
    ("basicmath", 0x2b52c91bc6b9edd8, 0xf2742ea5ebcf3ebf, 0xadb174219712757c),
    ("bitcount", 0x898c8c3c36483965, 0xd23e7987eb6644f4, 0x5a1f31b7ea75d95e),
    ("qsort", 0x68b3ac21e9da3cf8, 0xce8afb8481926dc8, 0x983fbd74ad4f9bf7),
    ("susan", 0x3154a28a498ac576, 0x7633a258e48295bf, 0x62235d2cd3bc8173),
    ("dijkstra", 0x914b996f47414dd2, 0x291034c3ddb177dc, 0x731dfc0f9e275b60),
    ("patricia", 0xa5c16efd3877f6a3, 0xc0d06f8f6de32fab, 0xcffe6c1619e937bf),
    ("blowfish", 0x350dc91002ee0281, 0x036970af0305df8b, 0x1a09460c8bf4ade4),
    ("rijndael", 0x111e3965f6bc2d6f, 0x0777966f27e779c1, 0x1a81b68c9eccf7a1),
    ("sha", 0xf5cbe52799c09ce4, 0x3dfe55ccc878cda8, 0x4ec28f98ab34a675),
    ("adpcm_enc", 0xd805a9bd7c80afad, 0xff79ce7e44f299eb, 0xcec02f2f94f6dfff),
    ("adpcm_dec", 0xa6d4fcf5737e357c, 0xadbeefc483bdbab6, 0xe2b9c4c6354fff87),
    ("crc32", 0x0452fa98284e51ef, 0xa7e6b9f138ef043c, 0x8d0f28d43a5e7a31),
    ("fft", 0x39034c8ea6236f09, 0xa608960b820400ce, 0x9482ef1f4163d54d),
    ("gsm", 0x018888f544ba6540, 0xd9383c7e72635b5c, 0x9f158ff3a22dad2d),
    ("stringsearch", 0x356ac09b3c5528ce, 0x4f4a616fa288b86c, 0x49fa734332e92b0c),
    ("ispell", 0xb4f05d1b3713ebcd, 0xe464cffa21505989, 0xad2c12e94c3a22ed),
    ("ghostscript", 0x6e6534fe884d981d, 0xafda7d6033134475, 0x4e2b6fa6580f411f),
    ("jpeg_enc", 0x507d364538dba6be, 0x918191851ddcaf9a, 0x4322e6d0508df259),
    ("jpeg_dec", 0x26f7c63c2e28181f, 0xe40a2259c5c11823, 0x872e3ecab95ffcfb),
    ("lame", 0x44d62c7b7add9114, 0x5f1bfe1e4216ed31, 0xd820d225a016df25),
    ("mpeg2_dec", 0xd3c71d1516cf901d, 0x445fdfedebd05c60, 0x88573cffa1a80ab5),
    ("g721_enc", 0x8904a3f3c2a06503, 0xfc3ea24d02879449, 0xa2a0e1bf78067f8b),
    ("epic", 0xcc9e837504a651fb, 0xe63443749e9142ae, 0xf4309a742c164236),
];

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn profile_hash(profile: &WorkloadProfile) -> u64 {
    let json = serde_json::to_string(profile).expect("profiles serialize");
    fnv1a(FNV_OFFSET, json.as_bytes())
}

fn hashes(kernel: &perfclone_kernels::Kernel) -> (&'static str, u64, u64, u64) {
    let program = kernel.build(Scale::Tiny).program;
    let profile = profile_program(&program, u64::MAX).expect("kernel profiles");
    let params = SynthesisParams { target_dynamic: CLONE_DYNAMIC, ..SynthesisParams::default() };
    let clone =
        Cloner::with_params(params).clone_program_from(&profile).expect("clone synthesizes");
    let clone_profile = profile_program(&clone, u64::MAX).expect("clone profiles");
    let report = Gate::default().report(&profile, &clone).expect("gate runs");
    let deltas = report
        .attributes
        .iter()
        .fold(fnv1a(FNV_OFFSET, &report.clone_instrs.to_le_bytes()), |h, a| {
            fnv1a(h, &a.delta.to_bits().to_le_bytes())
        });
    (kernel.name(), profile_hash(&profile), profile_hash(&clone_profile), deltas)
}

#[test]
fn profiles_and_gate_deltas_match_the_recorded_hashes() {
    let actual: Vec<(&str, u64, u64, u64)> = catalog().iter().map(hashes).collect();
    let table: String = actual
        .iter()
        .map(|(k, p, c, g)| format!("    (\"{k}\", {p:#018x}, {c:#018x}, {g:#018x}),\n"))
        .collect();
    assert_eq!(actual.as_slice(), GOLDEN.as_slice(), "actual hashes:\n{table}");
}
