//! **Figure 10** — Effect of skew: host CPU utilization over time for two
//! DSM-Sort runs on two hosts and 16 ASUs, with and without load
//! management.
//!
//! Paper setup: the first half of the input is uniform, the second half
//! exponential. The baseline statically assigns half of the α subsets to
//! each host; the load-managed run spreads every subset across both hosts
//! with simple randomization (SR). Expected shape: the static run's host
//! utilizations diverge when the skewed half arrives and the run finishes
//! later; the SR run keeps both hosts nearly identical and terminates
//! earlier.

use lmas_bench::{fx, scaled_n, write_csv, Table};
use lmas_emulator::ClusterConfig;
use lmas_sort::skew::{fig10_data_per_asu, uniform_assuming_splitters};
use lmas_sort::{run_pass1, DsmConfig, LoadMode};

fn main() {
    let n = scaled_n(1 << 20, 1 << 16);
    let d = 16usize;
    let h = 2usize;
    let alpha = 16usize;
    let beta = 4096usize;
    let cluster = ClusterConfig::era_2002(h, d, 8.0);
    let dsm = DsmConfig::new(alpha, beta, 8, 4096);
    // Splitters calibrated for uniform keys: the exponential half then
    // floods the low buckets, which is the imbalance the figure shows.
    let splitters = uniform_assuming_splitters(alpha);
    let bin_s = cluster.util_bin.as_secs_f64();

    println!("Figure 10: host CPU utilization under skew (n={n}, H={h}, D={d}, α={alpha}, c=8)");

    let mut series: Vec<Vec<f64>> = Vec::new();
    for (label, mode) in [
        ("no load control", LoadMode::Static),
        ("load-managed (SR)", LoadMode::managed_sr()),
    ] {
        let data = fig10_data_per_asu(n, d, 42);
        let run = run_pass1(&cluster, data, splitters.clone(), &dsm, mode).expect("fig10 run");
        let h0 = run.report.host_cpu_series(0).to_vec();
        let h1 = run.report.host_cpu_series(1).to_vec();
        let m0 = run.report.nodes[0].mean_cpu_util;
        let m1 = run.report.nodes[1].mean_cpu_util;
        println!(
            "{label:>18}: makespan {:>10}  host0 mean {:>5.1}%  host1 mean {:>5.1}%",
            run.report.makespan.to_string(),
            m0 * 100.0,
            m1 * 100.0
        );
        series.push(h0);
        series.push(h1);
    }

    let mut table = Table::new("t static_h0 static_h1 managed_h0 managed_h1");
    let bins = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for b in 0..bins {
        let utils: Vec<f64> = series
            .iter()
            .map(|s| s.get(b).copied().unwrap_or(0.0))
            .collect();
        table.series(fx(b as f64 * bin_s, 3), &utils, 4);
    }
    write_csv("fig10_utilization.csv", &table);
}
