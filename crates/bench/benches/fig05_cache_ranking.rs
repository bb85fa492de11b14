//! Figure 5: scatter of cache-configuration rankings — for each of the 28
//! configurations, the average rank (1 = fewest misses per instruction)
//! assigned by the real benchmarks vs by their synthetic clones. Perfect
//! relative accuracy puts every point on the 45° line.

use perfclone::experiments::cache_sweep_pair;
use perfclone::{cache_sweep, rank, spearman, Table};
use perfclone_bench::{init_parallelism, prepare_all_par};

fn main() {
    init_parallelism();
    let configs = cache_sweep();
    let n = configs.len();
    let mut real_rank_sum = vec![0.0f64; n];
    let mut synth_rank_sum = vec![0.0f64; n];
    let mut benchmarks = 0usize;
    for bench in prepare_all_par() {
        let sweep = cache_sweep_pair(&bench.program, &bench.clone, &configs, u64::MAX);
        let (rr, rs) = sweep.rankings();
        for i in 0..n {
            real_rank_sum[i] += rr[i];
            synth_rank_sum[i] += rs[i];
        }
        benchmarks += 1;
    }
    let real_avg: Vec<f64> = real_rank_sum.iter().map(|s| s / benchmarks as f64).collect();
    let synth_avg: Vec<f64> = synth_rank_sum.iter().map(|s| s / benchmarks as f64).collect();
    // Re-rank the averages so both axes are 1..=28 as in the figure.
    let real_final = rank(&real_avg);
    let synth_final = rank(&synth_avg);

    let mut table = Table::new(vec![
        "cache config".into(),
        "rank (real)".into(),
        "rank (clone)".into(),
        "|delta|".into(),
    ]);
    let mut max_delta = 0.0f64;
    for i in 0..n {
        let d = (real_final[i] - synth_final[i]).abs();
        max_delta = max_delta.max(d);
        table.row(vec![
            configs[i].to_string(),
            format!("{:.1}", real_final[i]),
            format!("{:.1}", synth_final[i]),
            format!("{d:.1}"),
        ]);
    }
    println!("\nFigure 5 — cache-configuration ranking, real vs clone (45-degree scatter)\n");
    println!("{}", table.render());
    println!(
        "rank correlation (spearman): {:.3}   max rank deviation: {:.1}",
        spearman(&real_final, &synth_final),
        max_delta
    );
    println!("(paper: all points close to the 45-degree line through the origin)");
}
