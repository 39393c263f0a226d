//! Background re-replication: end-to-end repair runs through the real
//! runtime — bandwidth-cap pacing, convergence to the replication
//! target, cancellation on timely recovery, and byte-identical
//! determinism across seeds and thread counts.

use lmas_core::functor::lib::MapFunctor;
use lmas_core::{
    packetize, EdgeKind, FlowGraph, Functor, NodeId, Placement, Rec8, RoutingPolicy, Work,
};
use lmas_emulator::{
    asu_index, run_job_with_faults, ClusterConfig, FaultSpec, Job, JobError, RepairSpec,
};
use lmas_sim::{FaultPlan, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn relay_factory() -> impl Fn(usize) -> Box<dyn Functor<Rec8>> + Send + Sync + 'static {
    |_| Box::new(MapFunctor::new("relay", Work::compares(4), |r: Rec8| r))
}

type Inputs = BTreeMap<(usize, usize), Vec<lmas_core::Packet<Rec8>>>;

/// Source on host 0 → relay replicated across the ASUs → sink on the
/// last host: the foreground job repair traffic contends with.
fn fleet_job(hosts: usize, asus: usize, n: u32) -> (FlowGraph<Rec8>, Placement, Inputs) {
    let data: Vec<Rec8> = (0..n).map(|i| Rec8 { key: i, tag: i }).collect();
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, relay_factory());
    let mid = g.add_stage(asus, relay_factory());
    let dst = g.add_stage(1, relay_factory());
    g.connect(src, mid, RoutingPolicy::RoundRobin, EdgeKind::Set)
        .unwrap();
    g.connect(mid, dst, RoutingPolicy::Static, EdgeKind::Set)
        .unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Host(0));
    for i in 0..asus {
        placement.assign(mid, i, NodeId::Asu(i));
    }
    placement.assign(dst, 0, NodeId::Host(hosts - 1));
    let mut inputs = BTreeMap::new();
    inputs.insert((src.0, 0usize), packetize(data, 50));
    (g, placement, inputs)
}

const MIB: u64 = 1 << 20;

/// A crash with no recovery: the detector fires, every block the dead
/// ASU held is re-replicated onto survivors, and the final histogram is
/// back at the replication target with zero loss.
#[test]
fn crash_repairs_back_to_target_on_survivors() {
    let cfg = ClusterConfig::era_2002(2, 6, 8.0);
    let rs =
        RepairSpec::new(64, 2, MIB, 64.0 * MIB as f64).with_sampling(SimDuration::from_millis(20));
    let plan = FaultPlan::new().crash(asu_index(&cfg, 1), SimTime(2_000_000));
    let spec = FaultSpec::with_plan(plan).with_repair(rs);
    let (g, placement, inputs) = fleet_job(2, 6, 1_000);
    let report = run_job_with_faults(
        &cfg,
        &spec,
        Job {
            graph: g,
            placement,
            inputs,
        },
    )
    .unwrap();

    assert!(report.repair.enqueued > 0, "the crash triggered repairs");
    assert_eq!(report.repair.blocks_lost, 0, "r=2 survives one crash");
    assert_eq!(
        report.replica_hist,
        vec![0, 0, 64],
        "all blocks back at target"
    );
    assert_eq!(
        report.repair.bytes_repaired,
        report.repair.completed * MIB,
        "every credited repair moved one block"
    );
    // The dead ASU sourced nothing; survivors carried the traffic.
    assert_eq!(
        report.repair_src_bytes[1], 0,
        "no repair sourced from the dead node"
    );
    assert!(report.repair_src_bytes.iter().sum::<u64>() >= report.repair.completed * MIB);
    // Trajectory: sampled, starts at target, dips, returns.
    assert!(!report.repair_trajectory.is_empty(), "sampling was on");
    assert_eq!(report.repair_trajectory[0].hist, vec![0, 0, 64]);
    assert!(
        report.repair_trajectory.iter().any(|s| s.hist[1] > 0),
        "the degraded phase is visible in the trajectory"
    );
}

/// Recovery inside the heartbeat timeout: the detector never fires, but
/// the crash destroyed the node's copies, so it rejoins blank and its
/// rejoin report triggers the repairs.
#[test]
fn timely_recovery_rejoins_blank_and_repairs_at_rejoin() {
    let cfg = ClusterConfig::era_2002(1, 4, 8.0);
    let t_crash = SimTime(1_000_000);
    let t_back = t_crash + SimDuration::from_millis(5); // < 15 ms timeout
    let plan = FaultPlan::new()
        .crash(asu_index(&cfg, 2), t_crash)
        .recover(asu_index(&cfg, 2), t_back);
    let rs = RepairSpec::new(32, 2, MIB, 64.0 * MIB as f64);
    let spec = FaultSpec::with_plan(plan).with_repair(rs);
    let (g, placement, inputs) = fleet_job(1, 4, 500);
    let r = run_job_with_faults(
        &cfg,
        &spec,
        Job {
            graph: g,
            placement,
            inputs,
        },
    )
    .unwrap();
    assert_eq!(r.fault.detections, 0, "recovered before the timeout");
    assert!(r.repair.enqueued > 0, "the rejoin report triggers repairs");
    assert_eq!(r.replica_hist, vec![0, 0, 32], "and they converge");
    assert_eq!(r.repair.blocks_lost, 0);
}

/// A repair spec that does not fit the cluster is a typed error.
#[test]
fn invalid_repair_spec_is_a_typed_error() {
    let cfg = ClusterConfig::era_2002(1, 2, 8.0);
    let plan = FaultPlan::new().crash(asu_index(&cfg, 0), SimTime(1_000_000));
    let spec =
        FaultSpec::with_plan(plan).with_repair(RepairSpec::new(16, 3, MIB, 64.0 * MIB as f64)); // r=3 > 2 ASUs
    let (g, placement, inputs) = fleet_job(1, 2, 100);
    let err = run_job_with_faults(
        &cfg,
        &spec,
        Job {
            graph: g,
            placement,
            inputs,
        },
    )
    .unwrap_err();
    assert!(matches!(err, JobError::RepairConfig(_)), "got {err}");
}

/// The same repair-enabled run is byte-identical sequentially and under
/// the partitioned kernel at 2 and 4 threads — and none of them fall
/// back ([`lmas_emulator::EmulationReport::par_fallback`] stays `None`).
#[test]
fn repair_runs_identically_across_thread_counts() {
    let base = ClusterConfig::era_2002(4, 8, 8.0);
    let run = |threads: usize| {
        let cfg = base.with_threads(threads);
        let plan = FaultPlan::poisson(
            0xFEED,
            base.hosts..base.hosts + base.asus,
            SimDuration::from_millis(40),
            SimDuration::from_millis(8),
            SimDuration::from_millis(120),
        );
        let rs = RepairSpec::new(96, 3, MIB / 4, 256.0 * MIB as f64)
            .with_sampling(SimDuration::from_millis(10));
        let spec = FaultSpec::with_plan(plan).with_repair(rs);
        let (g, placement, inputs) = fleet_job(4, 8, 2_000);
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
    };
    let seq = run(1);
    assert!(
        seq.repair.enqueued > 0,
        "the sweep actually exercised repair"
    );
    for threads in [2usize, 4] {
        let par = run(threads);
        assert!(par.par.is_some(), "threads={threads} ran partitioned");
        assert_eq!(par.par_fallback, None, "no new fallback reason");
        assert_eq!(seq.makespan, par.makespan, "threads={threads}");
        // Every census row but the cross-partition end-of-stream marks
        // is the same at any partition count; those equal their closed
        // form.
        let rows = |r: &lmas_emulator::EmulationReport<_>| -> Vec<(&str, u64)> {
            r.census.rows().filter(|&(k, _)| k != "EosMark").collect()
        };
        assert_eq!(rows(&seq), rows(&par), "threads={threads}");
        assert_eq!(
            par.census.get("EosMark"),
            par.par.map(|p| p.eos_marks),
            "threads={threads}"
        );
        assert_eq!(seq.repair, par.repair, "threads={threads}");
        assert_eq!(seq.replica_hist, par.replica_hist, "threads={threads}");
        assert_eq!(
            seq.repair_trajectory, par.repair_trajectory,
            "threads={threads}"
        );
        assert_eq!(
            seq.repair_src_bytes, par.repair_src_bytes,
            "threads={threads}"
        );
        assert_eq!(seq.fault, par.fault, "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random seeded fault schedules through the real runtime: the
    /// per-node pacing cap bounds what any ASU sources, no repair is
    /// ever sourced from a node while it is down (audited via the dead
    /// ASU's byte counter against its downtime), the histogram always
    /// accounts for every block, and the same seed reruns identically.
    #[test]
    fn repair_invariants_under_random_fault_schedules(
        seed in any::<u64>(),
        asus in 4usize..8,
        blocks in 16u64..64,
        bw_mib in 16u64..128,
    ) {
        let cfg = ClusterConfig::era_2002(2, asus, 8.0);
        let bw = bw_mib as f64 * MIB as f64;
        let run = || {
            let plan = FaultPlan::poisson(
                seed,
                cfg.hosts..cfg.hosts + cfg.asus,
                SimDuration::from_millis(30),
                SimDuration::from_millis(10),
                SimDuration::from_millis(90),
            );
            let rs = RepairSpec::new(blocks, 2, MIB / 4, bw);
            let spec = FaultSpec::with_plan(plan).with_repair(rs);
            let (g, placement, inputs) = fleet_job(2, asus, 400);
            run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs }).unwrap()
        };
        let a = run();
        // Histogram always partitions the block population.
        prop_assert_eq!(a.replica_hist.iter().sum::<u64>(), blocks);
        // Pacing: one block per `block_bytes / bw` per node, so over a
        // makespan of T seconds a node sources at most bw·T bytes plus
        // one block of slack (the first dispatch is not paced).
        let t_secs = a.makespan.as_nanos() as f64 / 1e9;
        for (d, &bytes) in a.repair_src_bytes.iter().enumerate() {
            prop_assert!(
                bytes as f64 <= bw * t_secs + (MIB / 4) as f64,
                "ASU {} sourced {} bytes in {}s against a {}B/s cap",
                d, bytes, t_secs, bw
            );
        }
        // Same seed, same bytes: the whole report is deterministic.
        let b = run();
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.dispatched, b.dispatched);
        prop_assert_eq!(a.repair, b.repair);
        prop_assert_eq!(a.replica_hist, b.replica_hist);
        prop_assert_eq!(a.repair_src_bytes, b.repair_src_bytes);
    }
}
