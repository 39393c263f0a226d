//! **F-FT** — cost of masking a crash: makespan inflation vs crash time,
//! replica spread, and routing policy.
//!
//! Crashes the last ASU at a sweep of points through pass 1 of DSM-Sort
//! and lets the fault layer mask it: deliveries bounce, the heartbeat
//! detector fences the dead node, routing fails over to survivors, and
//! a repair pass re-dispatches whatever died with the node. The gate
//! `verified_byte_identical` holds when every cell's final output is
//! byte-identical to the fault-free golden run — a number only counts if
//! recovery was *exact*.
//!
//! Output: `results/BENCH_faults.json` with per-(policy, crash-fraction)
//! total-makespan inflation ratios and fault-layer counters.

use lmas_bench::{fx, scaled_n, GateFailure, Json, Report, Table};
use lmas_core::{generate_rec128, KeyDist, RoutingPolicy};
use lmas_emulator::{asu_index, ClusterConfig, FaultSpec};
use lmas_sim::{FaultPlan, SimTime};
use lmas_sort::{canonical_equal, run_dsm_sort, run_dsm_sort_faulty, DsmConfig, LoadMode};
use rayon::prelude::*;

const HOSTS: usize = 2;
const ASUS: usize = 4;
const CRASH_FRACS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

fn policies() -> [(&'static str, LoadMode); 4] {
    [
        ("static", LoadMode::Static),
        ("rr", LoadMode::Managed(RoutingPolicy::RoundRobin)),
        ("sr", LoadMode::Managed(RoutingPolicy::SimpleRandomization)),
        ("load", LoadMode::Managed(RoutingPolicy::LoadAware)),
    ]
}

fn main() -> Result<(), GateFailure> {
    let n = scaled_n(20_000, 4_000);
    let cluster = ClusterConfig::era_2002(HOSTS, ASUS, 8.0);
    let dsm = DsmConfig::new(8, 512, 8, 4096);
    let data = generate_rec128(n, KeyDist::Uniform, 11);
    let victim = asu_index(&cluster, ASUS - 1);

    println!(
        "F-FT: makespan inflation masking a crash of ASU {} (n={n}, H={HOSTS}, D={ASUS})",
        ASUS - 1
    );
    // Fault-free goldens, one per policy (in parallel), then the full
    // policy × crash-time grid of masked runs.
    let goldens: Vec<_> = policies()
        .par_iter()
        .map(|&(_, mode)| {
            run_dsm_sort(&cluster, data.clone(), &dsm, mode).expect("fault-free golden run")
        })
        .collect();
    let jobs: Vec<(usize, f64)> = (0..policies().len())
        .flat_map(|p| CRASH_FRACS.iter().map(move |&f| (p, f)))
        .collect();
    // Each cell: its table row, and whether recovery was exact.
    let cells: Vec<(Vec<Json>, bool)> = jobs
        .par_iter()
        .map(|&(p, frac)| {
            let (name, mode) = policies()[p];
            let golden = &goldens[p];
            let t = SimTime((golden.pass1.makespan.as_secs_f64() * frac * 1e9) as u64);
            let spec = FaultSpec::with_plan(FaultPlan::new().crash(victim, t));
            let faulted = run_dsm_sort_faulty(&cluster, &spec, data.clone(), &dsm, mode)
                .expect("masked run completes");
            let inflation = faulted.total.as_secs_f64() / golden.total.as_secs_f64();
            assert!(
                inflation >= 1.0,
                "a masked crash cannot beat the fault-free run"
            );
            let s = faulted.pass1.fault;
            let row = vec![
                format!("{name}/t{frac:.1}").into(),
                fx(inflation, 4),
                faulted.recovered_records.into(),
                s.retries.into(),
                s.nacks.into(),
                s.fenced_instances.into(),
            ];
            (
                row,
                canonical_equal(&golden.output, &faulted.output).is_ok(),
            )
        })
        .collect();

    let mut table = Table::new("cell inflation recovered_records retries nacks fenced");
    let mut identical = true;
    for (row, exact) in cells {
        table.row(row);
        identical &= exact;
    }
    let mut report = Report::new("BENCH_faults.json");
    report.keyed(&table);
    report.gate("verified_byte_identical", identical);
    report.write()
}
