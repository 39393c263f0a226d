//! **Figure 9** — Speedup of DSM-Sort (first pass, run formation) over a
//! passive-storage baseline, as ASUs are added to one host, per α.
//!
//! Paper setup: 128-byte records, 4-byte keys; one host; ASUs at 1/8 the
//! host clock (c = 8); α ∈ {1, 4, 16, 64, 256} plus an adaptive series;
//! speedup relative to conventional storage with all computation on the
//! host. "This experiment uses one host, which saturates at 16 ASUs."
//!
//! Expected shape: slowdown (< 1) at few ASUs for large α; speedup grows
//! with D and saturates once the host is the bottleneck; at large D,
//! larger α wins; `adaptive` tracks the upper envelope.

use lmas_bench::{scaled_n, write_csv, Table};
use lmas_core::{generate_rec128, KeyDist, Rec128};
use lmas_emulator::ClusterConfig;
use lmas_sort::{
    adaptive_alpha, choose_splitters, pass1_speedup, split_across_asus, DsmConfig, LoadMode,
    ALPHA_CANDIDATES,
};
use rayon::prelude::*;

const ASU_COUNTS: [usize; 6] = [2, 4, 8, 16, 32, 64];

fn main() {
    let n = scaled_n(1 << 18, 1 << 14);
    let beta = 4096;
    let c = 8.0;
    let data = generate_rec128(n, KeyDist::Uniform, 1);
    println!("Figure 9: DSM-Sort pass-1 speedup vs #ASUs (n={n}, β={beta}, c={c}, H=1)");

    let mut table = Table::new(&format!(
        "alpha{}",
        ASU_COUNTS.map(|d| format!(" D{d}")).concat()
    ));
    let mut speedups: Vec<(u64, Vec<f64>)> = Vec::new();
    for &alpha in &ALPHA_CANDIDATES {
        let splitters = choose_splitters(&data, alpha as usize);
        let dsm = DsmConfig::new(alpha as usize, beta, 8, 4096);
        // Each emulation is single-threaded and independent: sweep the
        // cluster sizes in parallel on the bench host.
        let series: Vec<f64> = ASU_COUNTS
            .par_iter()
            .map(|&d| {
                let cluster = ClusterConfig::era_2002(1, d, c);
                let per_asu = split_across_asus(&data, d);
                let (s, _, _) =
                    pass1_speedup(&cluster, per_asu, splitters.clone(), &dsm, LoadMode::Static)
                        .expect("fig9 run");
                s
            })
            .collect();
        table.series(alpha, &series, 4);
        speedups.push((alpha, series));
    }

    // Adaptive series: the model picks α at each cluster size.
    let mut adaptive = Vec::new();
    let mut picks = Vec::new();
    for (i, &d) in ASU_COUNTS.iter().enumerate() {
        let cluster = ClusterConfig::era_2002(1, d, c);
        let pick = adaptive_alpha::<Rec128>(&cluster, beta);
        picks.push(pick);
        let s = speedups
            .iter()
            .find(|(a, _)| *a == pick)
            .map(|(_, series)| series[i])
            .expect("pick among candidates");
        adaptive.push(s);
    }
    table.series("adaptive", &adaptive, 4);
    write_csv("fig9_speedup.csv", &table);
    println!("  (adaptive α picks per D: {picks:?})");
}
