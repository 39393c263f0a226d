//! **T3** — splitting the merge fan-in between ASUs and hosts.
//!
//! Section 4.3: "The merge is divided between hosts and ASUs, so that
//! γ₁·γ₂ = γ", and Section 3.3 notes the fan-in "may vary to adjust the
//! balance of load between sort pipeline phases". This experiment forms
//! runs once (pass 1), then replays pass 2 under every power-of-two
//! (γ₁, γ₂) split of the same total γ, reporting merge-pass makespans.
//! Expected shape: pushing fan-in onto the ASU pool helps until the ASUs
//! (at 1/c speed) saturate; the model-picked split sits near the
//! minimum.

use lmas_bench::{fx, scaled_n, write_csv, Table};
use lmas_core::{generate_rec128, KeyDist, Rec128};
use lmas_emulator::ClusterConfig;
use lmas_sort::{choose_splitters, run_pass1, run_pass2, split_across_asus, DsmConfig, LoadMode};
use rayon::prelude::*;

fn main() {
    // Geometry chosen so (a) each (subset, ASU) pair holds many runs —
    // runs per subset per ASU = n / (β·α·D) = 2^18 / (64·4·16) = 64 — and
    // (b) the ASU pool (16 ASUs at c=4 → 4 host-equivalents) is strong
    // enough relative to the 2 hosts that an interior (γ1, γ2) split is
    // optimal rather than dumping all fan-in on the hosts.
    let n = scaled_n(1 << 18, 1 << 16);
    let d = 16usize;
    let alpha = 4usize;
    let beta = 64usize;
    let gamma_total = 1024usize;
    let cluster = ClusterConfig::era_2002(2, d, 4.0);
    let data = generate_rec128(n, KeyDist::Uniform, 11);
    let splitters = choose_splitters(&data, alpha);

    // Form runs once with a generous pass-1 config.
    let p1cfg = DsmConfig::new(alpha, beta, gamma_total, 4096);
    let per_asu = split_across_asus(&data, d);
    let p1 = run_pass1(
        &cluster,
        per_asu,
        splitters.clone(),
        &p1cfg,
        LoadMode::Static,
    )
    .expect("run formation");

    println!(
        "T3: merge-pass makespan vs (γ1, γ2) split (n={n}, D={d}, α={alpha}, β={beta}, γ={gamma_total})"
    );
    let mut table = Table::new("gamma1 gamma2 merge_seconds");

    // Every (γ1, γ2) split replays pass 2 independently over the same
    // frozen pass-1 runs, so the whole sweep fans out across threads;
    // results come back in input order, keeping output byte-identical to
    // the serial sweep.
    let g1s: Vec<usize> = (0..=8).map(|e| 1usize << e).collect();
    let times: Vec<f64> = g1s
        .par_iter()
        .map(|&g1| {
            let g2cap = gamma_total.div_ceil(g1) * d + d; // striping slack
            let dsm = DsmConfig::new(alpha, beta, g1, g2cap);
            let p2 = run_pass2(&cluster, p1.runs_per_asu.clone(), splitters.clone(), &dsm)
                .expect("merge pass");
            let sorted = lmas_sort::verify_rec128_output(&p2.output, n).expect("sorted");
            assert_eq!(sorted.len() as u64, n);
            p2.report.makespan.as_secs_f64()
        })
        .collect();

    let mut best = (0usize, 0usize, f64::INFINITY);
    for (&g1, &t) in g1s.iter().zip(&times) {
        table.row(vec![g1.into(), gamma_total.div_ceil(g1).into(), fx(t, 6)]);
        if t < best.2 {
            best = (g1, gamma_total.div_ceil(g1), t);
        }
    }
    write_csv("gamma_split.csv", &table);
    println!("best split: γ1={} γ2={} ({:.4}s)", best.0, best.1, best.2);

    let model = cluster.pipeline_model(Rec128::SIZE);
    let (mg1, mg2) = model.pick_gamma_split_bounded(gamma_total as u64, gamma_total as u64);
    println!("model pick:  γ1={mg1} γ2={mg2}");
}

use lmas_core::Record;
