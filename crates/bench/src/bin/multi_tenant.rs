//! **F-MT** — multi-tenant scheduling: job latency under open arrivals,
//! naive static stacking vs interference-aware residual planning.
//!
//! The scheduler turns the emulator into a job-serving system (ISSUE
//! 10): seeded Poisson arrivals from several tenants, per-tenant
//! quotas, and a pluggable dispatch policy. This sweep measures p50 and
//! p99 job latency over an offered-utilization × tenant-count × policy
//! grid, comparing:
//!
//! - **naive** — FCFS dispatch, every job on the static block-subset
//!   layout (concurrent jobs stack their sorters on the same hosts);
//! - **aware** — the swept policy, each job planned against the
//!   residual capacity left by jobs predicted to still be running.
//!
//! Jobs come in two kinds, interactive (n) and batch (4n) in a 3:1
//! mix, so the dispatch policies genuinely differ: SPJF slips short
//! jobs past a queued batch (better p50, worse p99 than FCFS), and
//! weighted-fair sits between them.
//!
//! Gates of the artifact:
//! - `verified_aware_beats_naive_p{50,99}_at_70pct`: at every swept cell
//!   at ≥ 70% offered utilization, aware beats naive on **both** p50 and
//!   p99 latency;
//! - `verified_all_admitted_complete`: deep queues admit everything (no
//!   rejections cloud percentiles) and every admitted job completes;
//! - `verified_deterministic`: the hottest cell, run twice, is
//!   byte-identical.
//!
//! Output: `results/BENCH_sched.json`.

use lmas_bench::{fx, scaled_n, GateFailure, Json, Report, Table};
use lmas_core::Rec8;
use lmas_emulator::ClusterConfig;
use lmas_sched::{run_scheduled, ArrivalSpec, Policy, SchedSpec};
use lmas_sim::SimDuration;
use lmas_sort::{plan_pass1_coded, DsmConfig};
use rayon::prelude::*;

const UTILS: [f64; 3] = [0.5, 0.75, 0.9];
const TENANTS: [usize; 2] = [2, 3];
const POLICIES: [Policy; 3] = [Policy::Fcfs, Policy::Spjf, Policy::WeightedFair];
/// Expected jobs per cell (Poisson; the realized count is seeded).
const TARGET_JOBS: f64 = 12.0;
const SEED: u64 = 0xF17_2026;

fn main() -> Result<(), GateFailure> {
    // Geometry matters: α = 2 on four hosts means the static layout
    // pins every job's sorters onto hosts 0 and 2, leaving 1 and 3
    // permanently idle — exactly the headroom residual planning can
    // place concurrent jobs into. A mild ASU slowdown (c = 2) keeps
    // the movable host-side sort dominant; at c = 8 the pinned ASU
    // distribute/collect stages are the common-mode bottleneck and no
    // placement can separate the two paths.
    let n = scaled_n(2_500, 800);
    let cluster = ClusterConfig::era_2002(4, 4, 2.0);
    let dsm = DsmConfig::new(2, 256, 4, 64);

    // Two job kinds — interactive (n) and batch (4n), 3:1 mix — so the
    // dispatch policies have a real decision to make: with one kind
    // every job predicts the same cost and SPJF's (cost, id) order
    // degenerates to FCFS.
    let kinds = vec![n, 4 * n];
    let mix: [u64; 2] = [3, 1];

    // The mix-weighted mean solo cost is the utilization currency:
    // offered utilization ρ with T tenants of mean inter-arrival M is
    // E[C]·T/M.
    let cost = |records: u64| {
        let (_, solo) = plan_pass1_coded::<Rec8>(&cluster, &dsm, records, &[1]).expect("solo plan");
        solo.estimate.makespan_ns
    };
    let cost_ns = (3.0 * cost(n) + cost(4 * n)) / 4.0;

    let spec_for = |util: f64, tenants: usize, policy: Policy, aware: bool| {
        let mean_ns = (cost_ns * tenants as f64 / util) as u64;
        let horizon_ns = (TARGET_JOBS / tenants as f64 * mean_ns as f64) as u64;
        let arrivals = ArrivalSpec::poisson(
            SEED,
            tenants,
            SimDuration::from_nanos(mean_ns.max(1)),
            SimDuration::from_nanos(horizon_ns.max(1)),
            &mix,
        );
        SchedSpec::new(arrivals, kinds.clone())
            .with_policy(policy)
            .with_quota(2)
            .with_queue_cap(64)
            .with_load_limit(1.2)
            .with_aware(aware)
            .with_seed(SEED)
    };

    println!(
        "F-MT: job latency (ns) by offered utilization, naive stack vs aware placement \
         (n={n}/job, H=4, D=4, c=2, α=2)"
    );
    let grid: Vec<(f64, usize, Policy)> = UTILS
        .iter()
        .flat_map(|&u| {
            TENANTS
                .iter()
                .flat_map(move |&t| POLICIES.iter().map(move |&p| (u, t, p)))
        })
        .collect();

    // Each cell: its table row, then its share of the first three gates.
    let cells: Vec<(Vec<Json>, [bool; 3])> = grid
        .par_iter()
        .map(|&(util, tenants, policy)| {
            let naive = run_scheduled(
                &cluster,
                &dsm,
                &spec_for(util, tenants, Policy::Fcfs, false),
            )
            .expect("naive run");
            let aware = run_scheduled(&cluster, &dsm, &spec_for(util, tenants, policy, true))
                .expect("aware run");
            for out in [&naive, &aware] {
                assert!(out.jobs.len() >= 4, "cell too sparse to rank latencies");
            }
            let all_complete = [&naive, &aware]
                .iter()
                .all(|o| o.rejections.is_empty() && o.completed() == o.jobs.len());
            let [naive_p50, naive_p99, aware_p50, aware_p99] = [
                (&naive, 0.50),
                (&naive, 0.99),
                (&aware, 0.50),
                (&aware, 0.99),
            ]
            .map(|(o, q)| o.latency_percentile(q).expect("completed jobs").as_nanos());
            let row = vec![
                format!("u{util:.2}_t{tenants}_{}", policy.name()).into(),
                fx(util, 2),
                tenants.into(),
                policy.name().into(),
                naive.jobs.len().into(),
                naive_p50.into(),
                naive_p99.into(),
                aware_p50.into(),
                aware_p99.into(),
            ];
            // The tentpole gate: at ≥ 70% offered utilization, interference-
            // aware placement beats the naive stack on both percentiles, in
            // every swept cell.
            let hot = util >= 0.7;
            let gates = [
                !hot || aware_p50 < naive_p50,
                !hot || aware_p99 < naive_p99,
                all_complete,
            ];
            (row, gates)
        })
        .collect();

    // Determinism: the hottest cell, run twice, byte-identical.
    let (u0, t0, p0) = grid[grid.len() - 1];
    let rerun = |aware| {
        run_scheduled(&cluster, &dsm, &spec_for(u0, t0, p0, aware))
            .expect("rerun")
            .to_json()
    };
    let deterministic = rerun(true) == rerun(true) && rerun(false) == rerun(false);

    let mut table = Table::new(
        "cell util tenants policy jobs naive_p50_ns naive_p99_ns aware_p50_ns aware_p99_ns",
    );
    let mut ok = [true; 3];
    for (row, cell_ok) in cells {
        table.row(row);
        for (o, c) in ok.iter_mut().zip(cell_ok) {
            *o &= c;
        }
    }
    let mut report = Report::new("BENCH_sched.json");
    report.keyed(&table);
    report.gate("verified_aware_beats_naive_p50_at_70pct", ok[0]);
    report.gate("verified_aware_beats_naive_p99_at_70pct", ok[1]);
    report.gate("verified_all_admitted_complete", ok[2]);
    report.gate("verified_deterministic", deterministic);
    report.write()
}
