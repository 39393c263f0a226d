//! **T5** — shared-ASU interference and adaptation.
//!
//! Section 1: "network storage is a shared resource, and storage-based
//! computation should not occur if it interferes with storage access for
//! other applications"; Section 8 flags performance isolation as future
//! work. This experiment dials up background tenants on the ASUs
//! (consuming a fraction of ASU CPU) and measures DSM-Sort pass-1
//! speedup for fixed α values versus the model-adaptive pick, which sees
//! the *effective* host/ASU ratio and backs off the distribute order as
//! the ASUs get busier.
//!
//! Expected shape: fixed large α degrades steeply (the offloaded
//! distribute now contends with tenants); the adaptive configuration
//! degrades gracefully toward the passive baseline (speedup → 1) and
//! never falls far below it.

use lmas_bench::{scaled_n, write_csv, Table};
use lmas_core::{generate_rec128, generate_rec8, KeyDist, Rec128, Rec8};
use lmas_emulator::ClusterConfig;
use lmas_sched::{run_scheduled, ArrivalSpec, SchedSpec};
use lmas_sim::SimTime;
use lmas_sort::{
    adaptive_alpha, choose_splitters, pass1_speedup, run_pass1_baseline, split_across_asus,
    DsmConfig, LoadMode,
};
use rayon::prelude::*;

fn main() {
    let n = scaled_n(1 << 17, 1 << 14);
    let beta = 4096;
    let d = 16usize;
    let data = generate_rec128(n, KeyDist::Uniform, 5);
    let backgrounds = [0.0f64, 0.25, 0.5, 0.75, 0.9];

    println!("T5: DSM-Sort pass-1 speedup vs background ASU load (n={n}, H=1, D={d}, c=8)");
    let mut table = Table::new(&format!(
        "series{}",
        backgrounds.map(|b| format!(" bg{b}")).concat()
    ));

    let measure = |alpha: usize, bg: f64| -> f64 {
        let cluster = ClusterConfig::era_2002(1, d, 8.0).with_background(bg, 0.0);
        let splitters = choose_splitters(&data, alpha);
        let dsm = DsmConfig::new(alpha, beta, 8, 4096);
        let per_asu = split_across_asus(&data, d);
        let (s, _, _) =
            pass1_speedup(&cluster, per_asu, splitters, &dsm, LoadMode::Static).expect("run");
        s
    };

    // The adaptive α picks come from the closed-form model (no
    // emulation), so they are computed up front; every (α, background)
    // cell is then an independent emulation and the full grid — fixed
    // series and adaptive — fans out across threads at once. Results
    // return in input order, keeping output byte-identical to the serial
    // sweep.
    let picks: Vec<usize> = backgrounds
        .iter()
        .map(|&b| {
            let cluster = ClusterConfig::era_2002(1, d, 8.0).with_background(b, 0.0);
            adaptive_alpha::<Rec128>(&cluster, beta) as usize
        })
        .collect();
    let mut jobs: Vec<(usize, f64)> = Vec::new();
    for alpha in [16usize, 256] {
        jobs.extend(backgrounds.iter().map(|&b| (alpha, b)));
    }
    jobs.extend(picks.iter().zip(&backgrounds).map(|(&p, &b)| (p, b)));
    let grid: Vec<f64> = jobs.par_iter().map(|&(a, b)| measure(a, b)).collect();

    let nb = backgrounds.len();
    for (i, alpha) in [16usize, 256].into_iter().enumerate() {
        table.series(format!("alpha{alpha}"), &grid[i * nb..(i + 1) * nb], 4);
    }
    table.series("adaptive", &grid[2 * nb..], 4);

    // Scheduler-routed series: the adaptive α pick per load, but the
    // job enters through the multi-tenant scheduler (arrival →
    // admission gate → merged-run emulator) rather than run_pass1
    // directly. Speedup is against the passive baseline on the same
    // seeded input; tracking the adaptive row shows the scheduler
    // stack preserves the interference-adaptation story end to end.
    let sched_seed = 0x5C4E_D202u64;
    // run_scheduled derives job 0's data seed this way; regenerate the
    // identical input for the baseline run.
    let data_seed = sched_seed ^ 0x9E37_79B9_7F4A_7C15u64;
    let sched: Vec<f64> = backgrounds
        .par_iter()
        .map(|&bg| {
            let cluster = ClusterConfig::era_2002(1, d, 8.0).with_background(bg, 0.0);
            let alpha = adaptive_alpha::<Rec8>(&cluster, beta) as usize;
            let dsm = DsmConfig::new(alpha, beta, 8, 4096);
            let sdata = generate_rec8(n, KeyDist::Uniform, data_seed);
            let splitters = choose_splitters(&sdata, alpha);
            let per_asu = split_across_asus(&sdata, d);
            let base =
                run_pass1_baseline::<Rec8>(&cluster, per_asu, splitters, &dsm).expect("baseline");
            let spec = SchedSpec::new(ArrivalSpec::new().job(0, 0, SimTime::ZERO), vec![n])
                .with_seed(sched_seed);
            let out = run_scheduled(&cluster, &dsm, &spec).expect("scheduled run");
            assert_eq!(out.completed(), 1, "the scheduled job completes");
            base.report.makespan.as_nanos() as f64 / out.makespan.as_nanos() as f64
        })
        .collect();
    table.series("sched", &sched, 4);
    write_csv("interference.csv", &table);
    println!("  (adaptive α picks per load: {picks:?})");
}
