//! **F-RF** — fleet-scale durability under background re-replication:
//! measured replica-distribution trajectories vs the mean-field ODE.
//!
//! Sweeps fleet size × per-node repair bandwidth under seeded Poisson
//! crash/recovery schedules (`FaultPlan::poisson`) with the repair
//! engine on, averages the measured replica histogram trajectory over a
//! few seeds, and compares mean available copies and the absorbed
//! (data-loss) fraction against `mean_field_trajectory` (Sun et al.,
//! arXiv 1701.00335). The sweep spans an undersized repair tier — where
//! the fleet cannot keep up and blocks drain to zero copies — through a
//! comfortable one where the distribution hugs the replication target.
//!
//! The gate `verified_mean_field` holds when every cell meets the model
//! error bounds: the bench is a *validation gate*, not just a figure.
//!
//! Output: `results/BENCH_repair.json` with per-(fleet, bandwidth)
//! trajectory errors, loss fractions, and repair counters.

use lmas_bench::{fx, obj, scaled_n, GateFailure, Json, Report, Table};
use lmas_core::functor::lib::MapFunctor;
use lmas_core::{
    packetize, EdgeKind, FlowGraph, Functor, NodeId, Placement, Rec8, RoutingPolicy, Work,
};
use lmas_emulator::{
    mean_copies, mean_field_trajectory, run_job_with_faults, ClusterConfig, EmulationReport,
    FaultSpec, Job, MeanFieldParams, RepairSpec,
};
use lmas_sim::{FaultPlan, SimDuration, SimTime};
use rayon::prelude::*;
use std::collections::BTreeMap;

const MIB: u64 = 1 << 20;
/// Replication target.
const TARGET: u32 = 3;
/// Blocks per fleet node (population scales with the fleet).
const BLOCKS_PER_NODE: u64 = 10;
const BLOCK_BYTES: u64 = 64 * MIB;
/// Mean node lifetime / downtime of the Poisson schedule.
const MTTF_SECS: u64 = 1_800;
const MTTR_SECS: u64 = 120;
/// Trajectory comparison grid.
const SAMPLE_SECS: u64 = 60;
/// Seeds averaged per cell (the ODE is the N→∞ mean; a finite fleet
/// fluctuates around it).
const SEEDS: [u64; 3] = [11, 23, 47];

/// Fleet sizes × per-node repair bandwidth (MiB/s). At 1 MiB/s one
/// block takes 64 s to re-replicate — against a 1 800 s node lifetime
/// the fleet falls behind and loses data; at 16 MiB/s repair wins.
const FLEETS: [usize; 2] = [16, 32];
const BW_MIB: [u64; 3] = [1, 4, 16];

/// Error tolerances (absolute, in copies against a target of 3, and in
/// absorbed block fraction). The fluid model is an *optimistic* bound:
/// it assumes any up node can source any degraded block with perfect
/// pacing, while the engine binds each repair to an up holder, loses
/// in-flight work to crashes, and drains bursty per-node queues — so
/// measured mean copies sit at or below the ODE everywhere
/// (`SLACK_ABOVE` absorbs finite-fleet fluctuation). While repair
/// capacity exceeds failure demand the gap stays small (`TIGHT_TOL`);
/// in the saturated tier (ρ > 1) the ~15 % effective-capacity loss
/// compounds over the horizon — queues outlive their source nodes and
/// bounce — so the binding checks there are the one-sided ones
/// (measured never beats the fluid bound, loss at least the ODE's) and
/// `SAT_TOL` is only a sanity cap on the divergence.
const SLACK_ABOVE: f64 = 0.15;
const TIGHT_TOL: f64 = 0.35;
const SAT_TOL: f64 = 1.6;
const LOSS_TOL: f64 = 0.12;

/// One seeded fleet run: a tiny foreground relay job (repair dominates
/// the calendar) on a 1-host × `fleet`-ASU cluster, the Poisson fault
/// schedule over every ASU, and the repair engine on.
fn fleet_run(fleet: usize, bw: f64, seed: u64, horizon: SimDuration) -> EmulationReport<Rec8> {
    let mut cfg = ClusterConfig::era_2002(1, fleet, 8.0);
    // Multi-hour horizons: bin utilization by the minute, or the
    // per-node ledgers dwarf the simulation itself.
    cfg.util_bin = SimDuration::from_secs(60);
    let plan = FaultPlan::poisson(
        seed,
        cfg.hosts..cfg.hosts + cfg.asus,
        SimDuration::from_secs(MTTF_SECS),
        SimDuration::from_secs(MTTR_SECS),
        horizon,
    );
    let rs = RepairSpec::new(BLOCKS_PER_NODE * fleet as u64, TARGET, BLOCK_BYTES, bw)
        .with_sampling(SimDuration::from_secs(SAMPLE_SECS));
    let spec = FaultSpec::with_plan(plan).with_repair(rs);

    let relay = |_| -> Box<dyn Functor<Rec8>> {
        Box::new(MapFunctor::new("relay", Work::compares(4), |r: Rec8| r))
    };
    let data: Vec<Rec8> = (0..200u32).map(|i| Rec8 { key: i, tag: i }).collect();
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, relay);
    let mid = g.add_stage(fleet, relay);
    g.connect(src, mid, RoutingPolicy::RoundRobin, EdgeKind::Set)
        .unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Host(0));
    for i in 0..fleet {
        placement.assign(mid, i, NodeId::Asu(i));
    }
    let mut inputs = BTreeMap::new();
    inputs.insert((src.0, 0usize), packetize(data, 50));
    run_job_with_faults(
        &cfg,
        &spec,
        Job {
            graph: g,
            placement,
            inputs,
        },
    )
    .expect("fleet run completes")
}

/// Evaluate a piecewise-constant sampled trajectory at `t`: the last
/// sample at or before `t` (the initial state before the first sample).
fn hist_at(report: &EmulationReport<Rec8>, t: SimTime, blocks: u64) -> Vec<f64> {
    let mut last: Option<&Vec<u64>> = None;
    for s in &report.repair_trajectory {
        if s.at > t {
            break;
        }
        last = Some(&s.hist);
    }
    match last {
        Some(h) => h.iter().map(|&c| c as f64 / blocks as f64).collect(),
        None => {
            let mut x = vec![0.0; TARGET as usize + 1];
            x[TARGET as usize] = 1.0;
            x
        }
    }
}

fn main() -> Result<(), GateFailure> {
    // `LMAS_SCALE` shrinks the horizon for quick runs.
    let horizon_secs = scaled_n(6 * 3600, 1_200);
    let horizon = SimDuration::from_secs(horizon_secs);
    let grid: Vec<SimTime> = (0..=horizon_secs / SAMPLE_SECS)
        .map(|k| SimTime(k * SAMPLE_SECS * 1_000_000_000))
        .collect();

    println!(
        "F-RF: replica durability vs mean-field ODE (r={TARGET}, {BLOCKS_PER_NODE} blocks/node, \
         {}MiB blocks, mttf={MTTF_SECS}s, mttr={MTTR_SECS}s, horizon={horizon_secs}s, \
         {} seeds/cell)",
        BLOCK_BYTES / MIB,
        SEEDS.len()
    );

    let jobs: Vec<(usize, u64)> = FLEETS
        .iter()
        .flat_map(|&fleet| BW_MIB.iter().map(move |&bw_mib| (fleet, bw_mib)))
        .collect();
    // Each cell: its table row, and whether it meets the ODE's bounds.
    let cells: Vec<(Vec<Json>, bool)> = jobs
        .par_iter()
        .map(|&(fleet, bw_mib)| {
            let bw = bw_mib as f64 * MIB as f64;
            let blocks = BLOCKS_PER_NODE * fleet as u64;
            let runs: Vec<EmulationReport<Rec8>> = SEEDS
                .par_iter()
                .map(|&seed| fleet_run(fleet, bw, seed, horizon))
                .collect();

            let ode = mean_field_trajectory(
                &MeanFieldParams {
                    nodes: fleet,
                    target: TARGET,
                    blocks,
                    mttf: SimDuration::from_secs(MTTF_SECS),
                    mttr: SimDuration::from_secs(MTTR_SECS),
                    block_repair: SimDuration::from_secs_f64(BLOCK_BYTES as f64 / bw),
                },
                &grid,
            );

            // max_t |measured − ODE| and max_t (measured − ODE) of the
            // seed-averaged mean copies: how far the fleet strays from,
            // and ever beats, the fluid bound.
            let mut max_err = 0.0f64;
            let mut max_above = f64::MIN;
            for (i, &t) in grid.iter().enumerate() {
                let measured: f64 = runs
                    .iter()
                    .map(|r| mean_copies(&hist_at(r, t, blocks)))
                    .sum::<f64>()
                    / runs.len() as f64;
                let diff = measured - mean_copies(&ode[i]);
                max_err = max_err.max(diff.abs());
                max_above = max_above.max(diff);
            }
            let t_end = *grid.last().expect("non-empty grid");
            let loss_measured: f64 = runs
                .iter()
                .map(|r| hist_at(r, t_end, blocks)[0])
                .sum::<f64>()
                / runs.len() as f64;
            let loss_ode = ode.last().expect("non-empty ode")[0];

            let sum = |f: fn(&EmulationReport<Rec8>) -> u64| -> u64 {
                runs.iter().map(f).sum::<u64>() / runs.len() as u64
            };
            // Copy-destruction demand (each node destroys its
            // `BLOCKS_PER_NODE · r` copies every mttf) over the fluid
            // repair capacity (one block per `block_repair` per up node).
            let up_frac = MTTF_SECS as f64 / (MTTF_SECS + MTTR_SECS) as f64;
            let block_repair = BLOCK_BYTES as f64 / bw;
            let rho = BLOCKS_PER_NODE as f64 * TARGET as f64 * block_repair
                / (MTTF_SECS as f64 * up_frac);
            // The validation gate. Everywhere: the fleet never beats the
            // fluid bound by more than fluctuation slack. Unsaturated
            // (ρ < 0.8): trajectory and terminal loss track the ODE
            // tightly. Saturated: the known capacity gap compounds, so
            // only the loose cap applies — but loss must be at least the
            // ODE's (repair cannot do better than the fluid limit says).
            let ok = max_above <= SLACK_ABOVE
                && if rho < 0.8 {
                    max_err <= TIGHT_TOL && (loss_measured - loss_ode).abs() <= LOSS_TOL
                } else {
                    max_err <= SAT_TOL && loss_measured >= loss_ode - LOSS_TOL
                };
            let row = vec![
                format!("d{fleet}/bw{bw_mib}").into(),
                fx(rho, 4),
                fx(max_err, 4),
                fx(max_above, 4),
                fx(loss_measured, 4),
                fx(loss_ode, 4),
                sum(|r| r.repair.enqueued).into(),
                sum(|r| r.repair.completed).into(),
                sum(|r| r.repair.reassigned).into(),
                sum(|r| r.repair.bytes_repaired).into(),
            ];
            (row, ok)
        })
        .collect();

    let mut table = Table::new(
        "cell rho max_mean_copy_err max_above_ode loss_measured loss_ode \
         enqueued completed reassigned bytes_repaired",
    );
    let mut within_bounds = true;
    for (row, ok) in cells {
        table.row(row);
        within_bounds &= ok;
    }
    let mut report = Report::new("BENCH_repair.json");
    report.keyed(&table);
    let tol = |x: f64| Json::Num(x.to_string());
    report.put(
        "tolerances",
        obj([
            ("slack_above", tol(SLACK_ABOVE)),
            ("tight_tol", tol(TIGHT_TOL)),
            ("sat_tol", tol(SAT_TOL)),
            ("loss_tol", tol(LOSS_TOL)),
        ]),
    );
    report.gate("verified_mean_field", within_bounds);
    report.write()
}
