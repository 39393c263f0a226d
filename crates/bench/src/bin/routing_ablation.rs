//! **T4** — routing-policy ablation under skew (Section 3.3).
//!
//! "The routing of records across functor instances may be responsive to
//! dynamic load conditions visible to the system. In some cases,
//! randomized routing techniques like simple randomization (SR) may
//! reduce data dependencies…" This ablation runs the Figure 10 workload
//! under every load-managed routing policy plus the static baseline and
//! reports makespan and the host-utilization gap.

use lmas_bench::{fx, scaled_n, write_csv, Table};
use lmas_core::RoutingPolicy;
use lmas_emulator::ClusterConfig;
use lmas_sort::skew::{fig10_data_per_asu, uniform_assuming_splitters};
use lmas_sort::{run_pass1, DsmConfig, LoadMode};
use rayon::prelude::*;

fn main() {
    let n = scaled_n(1 << 19, 1 << 15);
    let d = 16usize;
    let h = 2usize;
    let alpha = 16usize;
    let cluster = ClusterConfig::era_2002(h, d, 8.0);
    let dsm = DsmConfig::new(alpha, 4096, 8, 4096);
    let splitters = uniform_assuming_splitters(alpha);

    println!("T4: routing policies on the skewed Figure-10 workload (n={n}, H={h}, D={d})");
    let mut table = Table::new("policy makespan_s host0_util host1_util gap");

    let modes: [(&str, LoadMode); 4] = [
        ("static (no control)", LoadMode::Static),
        ("round-robin", LoadMode::Managed(RoutingPolicy::RoundRobin)),
        (
            "simple randomization",
            LoadMode::Managed(RoutingPolicy::SimpleRandomization),
        ),
        ("load-aware", LoadMode::Managed(RoutingPolicy::LoadAware)),
    ];
    // Each policy runs the same fixed-seed workload in its own emulation;
    // the four runs are independent, so they fan out across threads and
    // report in input order (output identical to the serial sweep).
    let results: Vec<(f64, f64, f64)> = modes
        .par_iter()
        .map(|&(_, mode)| {
            let data = fig10_data_per_asu(n, d, 42);
            let run = run_pass1(&cluster, data, splitters.clone(), &dsm, mode).expect("run");
            let m0 = run.report.nodes[0].mean_cpu_util;
            let m1 = run.report.nodes[1].mean_cpu_util;
            (run.report.makespan.as_secs_f64(), m0, m1)
        })
        .collect();

    for ((name, _), (t, m0, m1)) in modes.iter().zip(results) {
        let gap = (m0 - m1).abs();
        table.row(vec![
            (*name).into(),
            fx(t, 6),
            fx(m0, 4),
            fx(m1, 4),
            fx(gap, 4),
        ]);
    }
    write_csv("routing_ablation.csv", &table);
}
