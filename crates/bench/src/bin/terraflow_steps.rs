//! **F-TF** — per-step TerraFlow scaling (Section 4.1).
//!
//! "Thus data parallelism in ASUs may improve the first two steps of the
//! watershed computation considerably while offering limited improvement
//! of the final step." This experiment grows the ASU pool and times each
//! step: restructure (step 1) and the elevation sort (step 2) speed up;
//! the time-forward color propagation (step 3) stays flat — Amdahl's law
//! in a terrain pipeline.

use lmas_bench::{fx, write_csv, Table};
use lmas_emulator::ClusterConfig;
use lmas_gis::{fractal_terrain, matches_oracle, run_terraflow};
use lmas_sort::{DsmConfig, LoadMode};
use rayon::prelude::*;

fn main() {
    let side = if lmas_bench::scale() < 1.0 { 65 } else { 257 };
    let grid = fractal_terrain(side, side, 0.55, 13);
    println!(
        "F-TF: TerraFlow per-step times vs #ASUs ({side}×{side} grid, {} cells, H=1, c=8)",
        side * side
    );
    let mut table = Table::new("d step1_s step2_s step3_s total_s watersheds");

    let mut dsm = DsmConfig::new(8, 1024, 8, 4096);
    dsm.input_packet_records = 512;
    // One full TerraFlow pipeline per pool size, each an independent
    // emulation over the same grid — the four runs fan out across
    // threads and report in input order (output identical to serial).
    let ds = [2usize, 4, 8, 16];
    let outcomes: Vec<_> = ds
        .par_iter()
        .map(|&d| {
            let cluster = ClusterConfig::era_2002(1, d, 8.0);
            run_terraflow(&cluster, &grid, &dsm, LoadMode::Static).expect("terraflow")
        })
        .collect();
    // The pipeline is deterministic per pool size; auditing the smallest
    // run against the sequential oracle matches the serial sweep's
    // check-the-first behavior.
    assert!(
        matches_oracle(&grid, &outcomes[0]),
        "labels differ from oracle"
    );
    for (&d, out) in ds.iter().zip(&outcomes) {
        let (t1, t2, t3) = out.times;
        let [t1, t2, t3, total] = [t1, t2, t3, out.total()].map(|t| fx(t.as_secs_f64(), 6));
        table.row(vec![d.into(), t1, t2, t3, total, out.watersheds.into()]);
    }
    write_csv("terraflow_steps.csv", &table);
}
