//! Pinned golden for a repair-enabled multi-host run: a seeded Poisson
//! fault schedule over a 4-host × 8-ASU fleet with background
//! re-replication on. Every virtual-time observable is frozen here, and
//! the same constants must hold sequentially and under the partitioned
//! kernel at 2 and 4 threads — repair drift across simulator rewrites
//! shows up as a hard diff against these pins.

use lmas_core::functor::lib::MapFunctor;
use lmas_core::{
    packetize, EdgeKind, FlowGraph, Functor, NodeId, Placement, Rec8, RoutingPolicy, Work,
};
use lmas_emulator::{
    run_job_with_faults, ClusterConfig, EmulationReport, FaultSpec, Job, RepairSpec,
};
use lmas_sim::{fnv1a, FaultPlan, SimDuration};
use std::collections::BTreeMap;

const HOSTS: usize = 4;
const ASUS: usize = 8;
const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// The frozen scenario: source on host 0 → relay on every ASU → sink on
/// host 3, under a seeded Poisson crash/recovery schedule with repair.
fn pinned_run(threads: usize) -> EmulationReport<Rec8> {
    let cfg = ClusterConfig::era_2002(HOSTS, ASUS, 8.0).with_threads(threads);
    let plan = FaultPlan::poisson(
        0xD15C,
        HOSTS..HOSTS + ASUS,
        SimDuration::from_millis(200),
        SimDuration::from_millis(10),
        SimDuration::from_millis(160),
    );
    let rs = RepairSpec::new(96, 3, 256 * KIB, 256.0 * MIB as f64)
        .with_sampling(SimDuration::from_millis(10));
    let spec = FaultSpec::with_plan(plan).with_repair(rs);

    let relay = |_| -> Box<dyn Functor<Rec8>> {
        Box::new(MapFunctor::new("relay", Work::compares(4), |r: Rec8| r))
    };
    let data: Vec<Rec8> = (0..2_000u32).map(|i| Rec8 { key: i, tag: i }).collect();
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, relay);
    let mid = g.add_stage(ASUS, relay);
    let dst = g.add_stage(1, relay);
    g.connect(src, mid, RoutingPolicy::RoundRobin, EdgeKind::Set)
        .unwrap();
    g.connect(mid, dst, RoutingPolicy::Static, EdgeKind::Set)
        .unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Host(0));
    for i in 0..ASUS {
        placement.assign(mid, i, NodeId::Asu(i));
    }
    placement.assign(dst, 0, NodeId::Host(HOSTS - 1));
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
    .unwrap()
}

fn assert_pinned(r: &EmulationReport<Rec8>) {
    assert_eq!(r.makespan.as_nanos(), 294_943_378, "makespan");
    // A partitioned run also dispatches its cross-partition
    // end-of-stream marks, which must equal their closed form.
    let marks = r.census.get("EosMark").expect("a census row");
    assert_eq!(marks, r.par.map_or(0, |p| p.eos_marks), "EosMark closed form");
    assert_eq!(r.dispatched - marks, 2_156, "dispatched, marks aside");
    assert_eq!(r.repair.enqueued, 313, "enqueued");
    assert_eq!(r.repair.completed, 286, "completed");
    assert_eq!(r.repair.reassigned, 22, "reassigned");
    assert_eq!(r.repair.wasted, 5, "wasted");
    assert_eq!(r.repair.blocks_lost, 14, "blocks_lost");
    assert_eq!(r.repair.bytes_repaired, 74_973_184, "bytes_repaired");
    assert_eq!(r.replica_hist, vec![8, 0, 0, 88], "replica_hist");
    assert_eq!(r.repair_trajectory.len(), 325, "trajectory len");
    let traj_fnv = fnv1a(r.repair_trajectory.iter().flat_map(|s| {
        s.at.0
            .to_le_bytes()
            .into_iter()
            .chain(s.hist.iter().flat_map(|c| c.to_le_bytes()))
    }));
    assert_eq!(traj_fnv, 0x4607_b336_cf43_4cd6, "trajectory fnv");
    assert_eq!(
        r.repair_src_bytes,
        vec![
            9_175_040, 1_572_864, 17_825_792, 9_961_472, 10_223_616, 10_223_616, 9_699_328,
            8_912_896
        ],
        "repair_src_bytes"
    );
    assert_eq!(r.fault.detections, 3, "detections");
}

#[test]
fn repair_golden_holds_sequentially_and_at_every_thread_count() {
    let seq = pinned_run(1);
    assert!(seq.par.is_none(), "threads=1 runs the sequential engine");
    assert_pinned(&seq);
    for threads in [2usize, 4] {
        let par = pinned_run(threads);
        let stats = par
            .par
            .as_ref()
            .expect("multi-host threaded run parallelizes");
        assert!(
            stats.partitions > 1,
            "threads={threads} actually partitions"
        );
        assert_eq!(
            par.par_fallback, None,
            "repair introduces no fallback reason"
        );
        assert_pinned(&par);
    }
}

#[test]
#[ignore]
fn dump() {
    let r = pinned_run(1);
    println!("makespan {}", r.makespan.as_nanos());
    println!("dispatched {}", r.dispatched);
    println!(
        "repair enq {} comp {} reass {} wasted {} lost {} bytes {}",
        r.repair.enqueued,
        r.repair.completed,
        r.repair.reassigned,
        r.repair.wasted,
        r.repair.blocks_lost,
        r.repair.bytes_repaired
    );
    println!("hist {:?}", r.replica_hist);
    println!("traj_len {}", r.repair_trajectory.len());
    let traj_fnv = fnv1a(r.repair_trajectory.iter().flat_map(|s| {
        s.at.0
            .to_le_bytes()
            .into_iter()
            .chain(s.hist.iter().flat_map(|c| c.to_le_bytes()))
    }));
    println!("traj_fnv {traj_fnv:#018x}");
    println!("src_bytes {:?}", r.repair_src_bytes);
    println!("detections {}", r.fault.detections);
}
