//! **F-PLACE** — planner vs manual placement: pass-1 makespan of
//! DSM-Sort under naive all-hosts and all-ASUs layouts, the planned
//! (`LoadMode::Auto`) layout, and the planned layout with the runtime
//! balancer armed, across a small (H, D, c) cluster grid.
//!
//! Gates, each over every cell:
//! - `verified_planned_not_worse`: the planned layout is never slower
//!   than either naive layout;
//! - `verified_idle_balancer_identical`: a balancer whose deadbands are
//!   too wide to ever fire leaves the planned run *byte-identical* (same
//!   makespan, zero reweights) — the weight channel is genuinely dormant
//!   until used.
//!
//! The planner's analytic prediction is recorded next to the measured
//! makespan (accuracy is asserted in the sort test suite).
//!
//! Output: `results/BENCH_placement.json`.

use lmas_bench::{scaled_n, GateFailure, Json, Report, Table};
use lmas_core::{generate_rec128, KeyDist, NodeId, Rec128};
use lmas_emulator::{BalanceSpec, ClusterConfig};
use lmas_sim::SimDuration;
use lmas_sort::dsm::static_host_of;
use lmas_sort::{
    choose_splitters, run_pass1, run_pass1_placed, split_across_asus, DsmConfig, LoadMode,
};
use rayon::prelude::*;

/// (hosts, asus, cpu-ratio c) grid — one small, the 2002 testbed shape,
/// a disk-heavy shape, and a host-heavy shape with slower ASUs.
const GRID: [(usize, usize, f64); 4] = [(1, 2, 8.0), (2, 4, 8.0), (2, 8, 8.0), (4, 8, 4.0)];

fn main() -> Result<(), GateFailure> {
    let n = scaled_n(20_000, 4_000);
    let dsm = DsmConfig::new(8, 256, 4, 64);

    println!("F-PLACE: pass-1 makespan (ns) by placement strategy (n={n}, α=8, β=256)");

    // Each cell: its table row, then its two gate conditions.
    let cells: Vec<(Vec<Json>, bool, bool)> = GRID
        .par_iter()
        .map(|&(h, d, c)| {
            let cluster = ClusterConfig::era_2002(h, d, c);
            let data = generate_rec128(n, KeyDist::Uniform, 7);
            let splitters = choose_splitters(&data, dsm.alpha);
            let per_asu = split_across_asus(&data, d);
            let run_placed = |nodes: Vec<NodeId>| {
                run_pass1_placed::<Rec128>(
                    &cluster,
                    per_asu.clone(),
                    splitters.clone(),
                    &dsm,
                    &nodes,
                )
                .expect("manual layout runs")
            };

            // Naive manual layouts: every sorter on hosts (the paper's
            // static assignment) and every sorter on ASUs.
            let hosts_run = run_placed(
                (0..dsm.alpha)
                    .map(|i| NodeId::Host(static_host_of(i, dsm.alpha, h)))
                    .collect(),
            );
            let asus_run = run_placed((0..dsm.alpha).map(|i| NodeId::Asu(i % d)).collect());
            // The explicit all-hosts layout must be the Static mode,
            // reached by another door.
            let static_run = run_pass1(
                &cluster,
                per_asu.clone(),
                splitters.clone(),
                &dsm,
                LoadMode::Static,
            )
            .expect("static mode runs");
            assert_eq!(
                hosts_run.report.makespan, static_run.report.makespan,
                "placed all-hosts layout must match LoadMode::Static"
            );

            // Planned layout, then the same plan with the balancer armed
            // (defaults) and with deadbands no run can ever exceed.
            let planned = run_pass1(
                &cluster,
                per_asu.clone(),
                splitters.clone(),
                &dsm,
                LoadMode::Auto,
            )
            .expect("planned run");
            let plan = planned.plan.as_ref().expect("auto carries its plan");
            let balanced_cluster =
                cluster.with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
            let balanced = run_pass1(
                &balanced_cluster,
                per_asu.clone(),
                splitters.clone(),
                &dsm,
                LoadMode::Auto,
            )
            .expect("balanced run");
            let idle_cluster = cluster.with_balancer(
                BalanceSpec::every(SimDuration::from_micros(500))
                    .with_deadband(u64::MAX)
                    .with_cpu_deadband(SimDuration::from_nanos(u64::MAX)),
            );
            let idle = run_pass1(&idle_cluster, per_asu, splitters, &dsm, LoadMode::Auto)
                .expect("idle-balancer run");
            let idle_identical =
                idle.report.reweights == 0 && idle.report.makespan == planned.report.makespan;

            let [hosts_ns, asus_ns, planned_ns] =
                [&hosts_run, &asus_run, &planned].map(|r| r.report.makespan.as_nanos());
            let row = vec![
                format!("H{h}D{d}c{c:.0}").into(),
                hosts_ns.into(),
                asus_ns.into(),
                planned_ns.into(),
                (plan.estimate.makespan_ns as u64).into(),
                balanced.report.makespan.as_nanos().into(),
                balanced.report.reweights.into(),
                (plan.assignment[1].len() / dsm.alpha).into(),
            ];
            let not_worse = planned_ns <= hosts_ns && planned_ns <= asus_ns;
            (row, not_worse, idle_identical)
        })
        .collect();

    let mut table = Table::new(
        "cluster hosts_ns asus_ns planned_ns predicted_ns balanced_ns reweights sorters_per_subset",
    );
    let (mut not_worse, mut idle_identical) = (true, true);
    for (row, nw, idle) in cells {
        table.row(row);
        not_worse &= nw;
        idle_identical &= idle;
    }
    let mut report = Report::new("BENCH_placement.json");
    report.keyed(&table);
    report.gate("verified_planned_not_worse", not_worse);
    report.gate("verified_idle_balancer_identical", idle_identical);
    report.write()
}
