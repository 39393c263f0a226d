//! Pins the runs whose routing reads the live backlog.
//!
//! `LoadAware` and `PowerOfTwoChoices` are the only policies whose picks
//! depend on the per-instance queue depths, so they are the runs that
//! would move if the backlog gauge's bookkeeping changed. Each policy
//! runs the skewed-replica shape (one replica on a c× slower ASU, one on
//! the host) fault-free and under a plan that crashes and recovers the
//! host replica's node mid-run while one link drops 5 % of its frames:
//! the crash clears the replica's queue, and the bounced and dropped
//! deliveries roll back the sender's optimistic charges. Makespan, dispatch count, fault
//! counters and the FNV-1a of the rendered queue statistics are pinned.

use lmas_core::functor::lib::MapFunctor;
use lmas_core::{
    generate_rec8, packetize, EdgeKind, FlowGraph, Functor, KeyDist, NodeId, Placement, Rec8,
    RoutingPolicy, Work,
};
use lmas_emulator::{
    asu_index, node_index, run_job_with_faults, ClusterConfig, EmulationReport, FaultSpec, Job,
};
use lmas_sim::{fnv1a, FaultPlan, SimTime};
use std::collections::BTreeMap;

/// Source on ASU 0 feeding a two-replica stage: replica 0 on the 8×
/// slower ASU 1, replica 1 on host 0 (the `skew_job` shape of
/// `runtime_tests.rs`, with the routing policy a parameter).
fn skew_job(
    cfg: &ClusterConfig,
    spec: &FaultSpec,
    routing: RoutingPolicy,
) -> EmulationReport<Rec8> {
    let data = generate_rec8(30_000, KeyDist::Uniform, 13);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, |_| {
        Box::new(MapFunctor::new("id", Work::ZERO, |r: Rec8| r)) as Box<dyn Functor<Rec8>>
    });
    let work = g.add_stage(2, |_| {
        Box::new(MapFunctor::new("burn", Work::compares(64), |r: Rec8| r)) as Box<dyn Functor<Rec8>>
    });
    g.connect(src, work, routing, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(work, 0, NodeId::Asu(1));
    placement.assign(work, 1, NodeId::Host(0));
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data, 200));
    run_job_with_faults(
        cfg,
        spec,
        Job {
            graph: g,
            placement,
            inputs,
        },
    )
    .unwrap()
}

/// One line of every pinned observable.
fn pin(r: &EmulationReport<Rec8>) -> String {
    let f = r.fault;
    format!(
        "makespan {} dispatched {} fault {} {} {} {} {} {} {} queues_fnv {:016x}",
        r.makespan.as_nanos(),
        r.dispatched,
        f.retries,
        f.nacks,
        f.drops,
        f.lost_queued_records,
        f.abandoned_records,
        f.fenced_instances,
        f.detections,
        fnv1a(format!("{:?}", r.queue_stats).bytes()),
    )
}

#[test]
fn backlog_routed_runs_are_pinned() {
    let cfg = ClusterConfig::era_2002(1, 2, 8.0);
    let expected = [
        (
            RoutingPolicy::LoadAware,
            "makespan 270803600 dispatched 757 fault 0 0 0 0 0 0 0 queues_fnv 07145381d34e07f5",
            "makespan 1601363600 dispatched 1252 fault 178 170 8 7200 0 1 1 queues_fnv 8fe0d32801312972",
        ),
        (
            RoutingPolicy::PowerOfTwoChoices,
            "makespan 665843600 dispatched 757 fault 0 0 0 0 0 0 0 queues_fnv a958f9d2c6dda4cd",
            "makespan 840083600 dispatched 797 fault 35 30 5 13000 0 1 1 queues_fnv 725be14fd231dc91",
        ),
    ];
    for (routing, clean_pin, faulted_pin) in expected {
        let clean = skew_job(&cfg, &FaultSpec::none(), routing);
        // Crash the host replica's node a tenth of the way in, while the
        // source still streams, and bring it back a fifth of the
        // fault-free makespan later (the detector fires in between); drop
        // 5 % of the source's frames to the host throughout.
        let tenth = clean.makespan.as_nanos() / 10;
        let host0 = node_index(&cfg, NodeId::Host(0));
        let plan = FaultPlan::new()
            .crash(host0, SimTime(tenth))
            .recover(host0, SimTime(3 * tenth))
            .link_loss(asu_index(&cfg, 0), host0, SimTime::ZERO, 0.05);
        let faulted = skew_job(&cfg, &FaultSpec::with_plan(plan), routing);
        assert!(
            faulted.fault.nacks > 0,
            "{routing:?}: the plan must bounce deliveries"
        );
        assert_eq!(pin(&clean), clean_pin, "{routing:?} fault-free");
        assert_eq!(pin(&faulted), faulted_pin, "{routing:?} faulted");
    }
}
