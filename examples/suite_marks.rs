//! Suite marks: the EEMBC-style scenario from the paper's introduction.
//! A vendor cares about a weighted mix of proprietary telecom programs;
//! the architect receives only the cloned suite — and the suite-level
//! mark must still rank machines the same way.
//!
//! ```sh
//! cargo run --release --example suite_marks
//! ```

use perfclone::suite::{suite_mark, Suite};
use perfclone_repro::prelude::*;
use perfclone_uarch::design_changes;

fn main() {
    // The proprietary suite: telecom mix with vendor-specific weights.
    let mut real = Suite::new("vendor-telemark");
    for (name, weight) in [("crc32", 3.0), ("adpcm_enc", 2.0), ("viterbi", 2.0), ("gsm", 1.0)] {
        let program = perfclone_kernels::by_name(name)
            .expect("kernel exists")
            .build(perfclone_kernels::Scale::Small)
            .program;
        real.push(program, weight).expect("positive weight");
    }

    println!("cloning the {}-member suite ...", real.len());
    let clones =
        real.clone_suite(&Cloner::new(), &Gate::default()).expect("clones pass the fidelity gate");

    let mut configs = vec![base_config()];
    configs.extend(design_changes());

    let mut table = Table::new(vec![
        "machine".into(),
        "mark (real suite)".into(),
        "mark (cloned suite)".into(),
        "error".into(),
    ]);
    let mut real_marks = Vec::new();
    let mut clone_marks = Vec::new();
    for config in &configs {
        let r = suite_mark(&real, config, u64::MAX).expect("mark");
        let c = suite_mark(&clones, config, u64::MAX).expect("mark");
        real_marks.push(r.ipc_mark);
        clone_marks.push(c.ipc_mark);
        table.row(vec![
            config.name.to_string(),
            format!("{:.3}", r.ipc_mark),
            format!("{:.3}", c.ipc_mark),
            format!("{:.1}%", 100.0 * ((c.ipc_mark - r.ipc_mark) / r.ipc_mark).abs()),
        ]);
    }
    println!("\nweighted geometric-mean IPC marks:\n\n{}", table.render());
    println!("machine ranking correlation: {:.3}", spearman(&real_marks, &clone_marks));
    println!("(a purchase decision made from the cloned suite picks the same machine)");
}
