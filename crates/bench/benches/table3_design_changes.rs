//! Table 3: average relative error in IPC and power of the synthetic
//! clone, per the paper's §5.2 formula, in response to the five design
//! changes: (1) 2× ROB+LSQ, (2) ½ L1-D, (3) 2× fetch/decode/issue width,
//! (4) GAp → not-taken predictor, (5) out-of-order → in-order issue.
//!
//! The paper reports average relative errors of 5.81/1.48/5.41/6.51/3.26 %
//! for IPC and 3.41/0.39/4.59/1.80/1.22 % for power, averaging 4.49 % IPC
//! and 2.28 % power.

use perfclone::experiments::design_change_sweep;
use perfclone::{base_config, Table};
use perfclone_bench::{init_parallelism, mean, prepare_all_par};

fn main() {
    init_parallelism();
    let base = base_config();
    let benches = prepare_all_par();
    let mut ipc_errs = vec![Vec::new(); 5];
    let mut pow_errs = vec![Vec::new(); 5];
    let mut names = vec![String::new(); 5];
    for bench in &benches {
        eprintln!("  sweeping {} ...", bench.kernel.name());
        let sweep =
            design_change_sweep(&bench.program, &bench.clone, &base, u64::MAX).expect("timing");
        for i in 0..5 {
            ipc_errs[i].push(sweep.ipc_relative_error(i));
            pow_errs[i].push(sweep.power_relative_error(i));
            names[i] = sweep.changes[i].config.name.to_string();
        }
    }
    let mut table = Table::new(vec![
        "design change".into(),
        "avg rel. error IPC".into(),
        "avg rel. error power".into(),
    ]);
    let labels = [
        "1. double ROB + LSQ entries",
        "2. halve L1 D-cache",
        "3. double fetch/decode/issue width",
        "4. 2-level GAp -> not-taken predictor",
        "5. out-of-order -> in-order issue",
    ];
    let mut all_ipc = Vec::new();
    let mut all_pow = Vec::new();
    for i in 0..5 {
        let (mi, mp) = (mean(&ipc_errs[i]), mean(&pow_errs[i]));
        all_ipc.push(mi);
        all_pow.push(mp);
        table.row(vec![
            format!("{} ({})", labels[i], names[i]),
            format!("{:.2}%", 100.0 * mi),
            format!("{:.2}%", 100.0 * mp),
        ]);
    }
    table.row(vec![
        "average".into(),
        format!("{:.2}%", 100.0 * mean(&all_ipc)),
        format!("{:.2}%", 100.0 * mean(&all_pow)),
    ]);
    println!("\nTable 3 — relative error of the clone under five design changes\n");
    println!("{}", table.render());
    println!("(paper: IPC 5.81/1.48/5.41/6.51/3.26%, avg 4.49%; power 3.41/0.39/4.59/1.80/1.22%, avg 2.28%)");
}
