//! **T2** — sensitivity to the host/ASU CPU ratio `c`.
//!
//! The paper simulates ASUs "with performance scaled to give c = 4, 8".
//! This sweep reruns the Figure 9 grid at both ratios for a fixed large
//! α: faster ASUs (c = 4) shift every crossover left and raise speedups
//! wherever the ASUs were the bottleneck.

use lmas_bench::{scaled_n, write_csv, Json, Table};
use lmas_core::{generate_rec128, KeyDist};
use lmas_emulator::ClusterConfig;
use lmas_sort::{choose_splitters, pass1_speedup, split_across_asus, DsmConfig, LoadMode};
use rayon::prelude::*;

const ASU_COUNTS: [usize; 6] = [2, 4, 8, 16, 32, 64];

fn main() {
    let n = scaled_n(1 << 18, 1 << 14);
    let beta = 4096;
    let alpha = 64usize;
    let data = generate_rec128(n, KeyDist::Uniform, 3);
    let splitters = choose_splitters(&data, alpha);
    let dsm = DsmConfig::new(alpha, beta, 8, 4096);

    println!("T2: pass-1 speedup at c = 4 vs c = 8 (α={alpha}, β={beta}, n={n}, H=1)");
    let mut table = Table::new(&format!(
        "c{}",
        ASU_COUNTS.map(|d| format!(" D{d}")).concat()
    ));
    let mut by_c = Vec::new();
    for c in [4.0f64, 8.0] {
        // Independent emulations: sweep in parallel on the bench host.
        let series: Vec<f64> = ASU_COUNTS
            .par_iter()
            .map(|&d| {
                let cluster = ClusterConfig::era_2002(1, d, c);
                let per_asu = split_across_asus(&data, d);
                let (s, _, _) =
                    pass1_speedup(&cluster, per_asu, splitters.clone(), &dsm, LoadMode::Static)
                        .expect("c-sensitivity run");
                s
            })
            .collect();
        table.series(Json::Num(c.to_string()), &series, 4);
        by_c.push(series);
    }
    write_csv("c_sensitivity.csv", &table);
    // Sanity: c=4 dominates c=8 wherever the ASUs bind (small D).
    let gain = by_c[0][0] / by_c[1][0];
    println!("c=4 over c=8 at D=2: {gain:.2}× (ASU-bound region)");
}
