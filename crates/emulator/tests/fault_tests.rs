//! Fault-injection tests: crash failover, detection latency, fencing,
//! degraded mode, lossy links, and chaos determinism.

use lmas_core::functor::lib::MapFunctor;
use lmas_core::{
    packetize, EdgeKind, FlowGraph, Functor, NodeId, Placement, Rec8, RoutingPolicy, Work,
};
use lmas_emulator::{
    asu_index, run_job, run_job_with_faults, ClusterConfig, FaultSpec, Job, JobError, NodeHealth,
};
use lmas_sim::{FaultPlan, SimDuration, SimTime};
use std::collections::BTreeMap;

fn relay_factory() -> impl Fn(usize) -> Box<dyn Functor<Rec8>> + Send + Sync + 'static {
    |_| Box::new(MapFunctor::new("relay", Work::compares(4), |r: Rec8| r))
}

type Inputs = BTreeMap<(usize, usize), Vec<lmas_core::Packet<Rec8>>>;

/// Source on host 0 → relay replicated on the ASUs → sink on host 0.
fn replicated_relay_job(
    n: u32,
    replicas: usize,
    routing: RoutingPolicy,
) -> (FlowGraph<Rec8>, Placement, Inputs) {
    let data: Vec<Rec8> = (0..n).map(|i| Rec8 { key: i, tag: i }).collect();
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, relay_factory());
    let mid = g.add_stage(replicas, relay_factory());
    let dst = g.add_stage(1, relay_factory());
    g.connect(src, mid, routing, EdgeKind::Set).unwrap();
    g.connect(mid, dst, RoutingPolicy::Static, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Host(0));
    for i in 0..replicas {
        placement.assign(mid, i, NodeId::Asu(i));
    }
    placement.assign(dst, 0, NodeId::Host(0));
    let mut inputs = BTreeMap::new();
    inputs.insert((src.0, 0usize), packetize(data, 50));
    (g, placement, inputs)
}

fn sorted_tags(records: &[Rec8]) -> Vec<u32> {
    let mut t: Vec<u32> = records.iter().map(|r| r.tag).collect();
    t.sort_unstable();
    t
}

/// Crash one of two relay replicas mid-run: deliveries bounce, fail over
/// to the survivor, and every record is either delivered or accounted
/// lost with the dead node. The job drains without manual intervention.
#[test]
fn crash_fails_over_to_surviving_replica_and_conserves_records() {
    let cfg = ClusterConfig::era_2002(1, 2, 8.0);
    let n = 2_000u32;
    let (g0, p0, i0) = replicated_relay_job(n, 2, RoutingPolicy::RoundRobin);
    let base = run_job(&cfg, Job { graph: g0, placement: p0, inputs: i0 }).unwrap();
    // Crash early, while the source is still streaming, so deliveries
    // are genuinely in flight when the node dies.
    let early = SimTime((base.makespan.0 / 8).max(200_000));

    let plan = FaultPlan::new().crash(asu_index(&cfg, 1), early);
    let spec = FaultSpec::with_plan(plan);
    let (g, placement, inputs) = replicated_relay_job(n, 2, RoutingPolicy::RoundRobin);
    let report = run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs }).unwrap();

    let delivered = report.sink_records().len() as u64;
    let lost = report.fault.lost_queued_records + report.fault.abandoned_records;
    assert_eq!(delivered + lost, n as u64, "every record delivered or accounted lost");
    assert!(delivered > 0, "the survivor kept the pipeline alive");
    assert!(report.fault.nacks > 0, "deliveries bounced off the dead node");
    assert!(report.fault.retries > 0, "bounced deliveries were retried");
    assert_eq!(report.fault.detections, 1, "the heartbeat detected the crash");
    assert!(report.fault.fenced_instances >= 1, "the dead relay was fenced");
    assert_eq!(report.down_nodes, vec![NodeId::Asu(1)]);
    assert!(
        report.makespan > base.makespan,
        "masking a crash costs time: {:?} vs fault-free {:?}",
        report.makespan,
        base.makespan
    );
    let dead = report.nodes.iter().find(|nr| nr.id == NodeId::Asu(1)).unwrap();
    assert_eq!(dead.health, NodeHealth::Down);
}

/// With a single replica and `fail_fast`, losing it is a typed error
/// carrying partial progress — not a panic, not a hang.
#[test]
fn all_replicas_down_is_a_typed_error_under_fail_fast() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let n = 2_000u32;
    let (g0, p0, i0) = replicated_relay_job(n, 1, RoutingPolicy::Static);
    let base = run_job(&cfg, Job { graph: g0, placement: p0, inputs: i0 }).unwrap();

    // Crash while the source is still streaming so deliveries are in
    // flight; with one replica there is nowhere to fail over to.
    let plan = FaultPlan::new()
        .crash(asu_index(&cfg, 0), SimTime((base.makespan.0 / 8).max(200_000)));
    let spec = FaultSpec::with_plan(plan).failing_fast(true);
    let (g, placement, inputs) = replicated_relay_job(n, 1, RoutingPolicy::Static);
    let err = run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs }).unwrap_err();
    match err {
        JobError::AllReplicasDown { stage, at, records_processed } => {
            assert_eq!(stage, 1, "the relay stage was unreachable");
            assert!(at > SimTime::ZERO);
            assert!(records_processed > 0, "partial progress is reported");
            assert!(records_processed < 3 * n as u64, "but not full progress");
        }
        other => panic!("expected AllReplicasDown, got {other}"),
    }
}

/// A degraded node is slower, not dead: no NACKs, no detection, no
/// fencing — just a longer makespan (the false-positive guard).
#[test]
fn degraded_node_is_slow_but_never_declared_down() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let n = 1_000u32;
    let (g0, p0, i0) = replicated_relay_job(n, 1, RoutingPolicy::Static);
    let base = run_job(&cfg, Job { graph: g0, placement: p0, inputs: i0 }).unwrap();

    let plan = FaultPlan::new().degrade(asu_index(&cfg, 0), SimTime::ZERO, 0.25, 0.5);
    let spec = FaultSpec::with_plan(plan);
    let (g, placement, inputs) = replicated_relay_job(n, 1, RoutingPolicy::Static);
    let report = run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs }).unwrap();

    assert_eq!(report.sink_records().len() as u64, n as u64, "nothing lost");
    assert_eq!(report.fault.nacks, 0);
    assert_eq!(report.fault.detections, 0, "slowness is not failure");
    assert_eq!(report.fault.fenced_instances, 0);
    assert!(report.down_nodes.is_empty());
    assert!(
        report.makespan > base.makespan,
        "a 4x slower CPU shows up in the makespan"
    );
    let node = report.nodes.iter().find(|nr| nr.id == NodeId::Asu(0)).unwrap();
    assert!(matches!(node.health, NodeHealth::Degraded { .. }));
}

/// A crash repaired within the heartbeat timeout never trips the
/// detector: bounced packets retry against the same node and land once
/// it returns.
#[test]
fn fast_recovery_beats_the_failure_detector() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let n = 2_000u32;
    let (g0, p0, i0) = replicated_relay_job(n, 1, RoutingPolicy::Static);
    let base = run_job(&cfg, Job { graph: g0, placement: p0, inputs: i0 }).unwrap();
    let t_crash = SimTime((base.makespan.0 / 8).max(200_000));
    let t_back = t_crash + SimDuration::from_millis(5); // < 15 ms timeout

    let plan = FaultPlan::new()
        .crash(asu_index(&cfg, 0), t_crash)
        .recover(asu_index(&cfg, 0), t_back);
    let spec = FaultSpec::with_plan(plan);
    let (g, placement, inputs) = replicated_relay_job(n, 1, RoutingPolicy::Static);
    let report = run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs }).unwrap();

    let delivered = report.sink_records().len() as u64;
    let lost = report.fault.lost_queued_records + report.fault.abandoned_records;
    assert_eq!(delivered + lost, n as u64);
    assert!(report.fault.nacks > 0, "the outage bounced in-flight packets");
    assert_eq!(report.fault.detections, 0, "recovered before the timeout");
    assert_eq!(report.fault.fenced_instances, 0);
    assert!(report.down_nodes.is_empty());
}

/// A lossy link drops frames, the NACK/retry path redelivers them, and
/// the sink still sees every record exactly once.
#[test]
fn lossy_link_redelivers_every_record() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let n = 2_000u32;
    // 30% loss on host 0 → ASU 0 (the source → relay link) from t = 0.
    let plan = FaultPlan::new().link_loss(0, asu_index(&cfg, 0), SimTime::ZERO, 0.3);
    let spec = FaultSpec::with_plan(plan);
    let (g, placement, inputs) = replicated_relay_job(n, 1, RoutingPolicy::Static);
    let report = run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs }).unwrap();

    assert!(report.fault.drops > 0, "the link actually dropped frames");
    assert!(report.fault.retries >= report.fault.drops);
    let delivered = report.sink_records().len() as u64;
    assert_eq!(
        delivered + report.fault.abandoned_records,
        n as u64,
        "every record delivered or abandoned after the retry budget"
    );
    assert_eq!(
        sorted_tags(&report.sink_records()).len(),
        delivered as usize,
        "no duplicates from redelivery"
    );
}

/// A plan naming a node outside the cluster is rejected up front.
#[test]
fn out_of_range_plan_node_is_rejected() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let plan = FaultPlan::new().crash(99, SimTime(1));
    let spec = FaultSpec::with_plan(plan);
    let (g, placement, inputs) = replicated_relay_job(100, 1, RoutingPolicy::Static);
    let err = run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs }).unwrap_err();
    assert!(matches!(err, JobError::FaultPlanNode { node: 99 }));
}

/// A zero heartbeat period under an active plan is caller input the
/// detector cannot run on: a typed error on both drivers, not an abort.
/// An inactive spec never consults the detector, so it still runs.
#[test]
fn zero_heartbeat_period_is_a_typed_error() {
    for threads in [1, 2] {
        let cfg = ClusterConfig::era_2002(2, 1, 8.0).with_threads(threads);
        let job = || {
            let (graph, placement, inputs) = replicated_relay_job(100, 1, RoutingPolicy::Static);
            Job { graph, placement, inputs }
        };
        let mut spec = FaultSpec::with_plan(FaultPlan::new().crash(asu_index(&cfg, 0), SimTime(1)));
        spec.heartbeat_period = SimDuration::ZERO;
        let err = run_job_with_faults(&cfg, &spec, job()).unwrap_err();
        assert!(matches!(err, JobError::FaultConfig(_)), "threads {threads}: {err}");

        let mut idle = FaultSpec::none();
        idle.heartbeat_period = SimDuration::ZERO;
        run_job_with_faults(&cfg, &idle, job()).expect("an empty plan needs no detector");
    }
}

/// The same seeded chaos run, executed twice, is bit-identical: same
/// makespan, same fault counters, same dispatch count, same output.
#[test]
fn same_seed_chaos_runs_are_identical() {
    let cfg = ClusterConfig::era_2002(1, 2, 8.0);
    let n = 2_000u32;
    let run = || {
        let plan = FaultPlan::new()
            .crash(asu_index(&cfg, 1), SimTime(3_000_000))
            .link_loss(0, asu_index(&cfg, 0), SimTime::ZERO, 0.1);
        let spec = FaultSpec::with_plan(plan);
        let (g, placement, inputs) =
            replicated_relay_job(n, 2, RoutingPolicy::SimpleRandomization);
        run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs }).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.dispatched, b.dispatched);
    assert_eq!(a.fault, b.fault);
    assert_eq!(sorted_tags(&a.sink_records()), sorted_tags(&b.sink_records()));
}

/// An inactive spec is the fault-free runtime, bit for bit.
#[test]
fn inactive_spec_matches_fault_free_run_exactly() {
    let cfg = ClusterConfig::era_2002(1, 2, 8.0);
    let (g0, p0, i0) = replicated_relay_job(1_000, 2, RoutingPolicy::LoadAware);
    let base = run_job(&cfg, Job { graph: g0, placement: p0, inputs: i0 }).unwrap();
    let (g, placement, inputs) = replicated_relay_job(1_000, 2, RoutingPolicy::LoadAware);
    let spec = FaultSpec::none();
    let same = run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs }).unwrap();
    assert_eq!(base.makespan, same.makespan);
    assert_eq!(base.dispatched, same.dispatched);
    assert!(same.fault.is_quiet());
    assert_eq!(
        sorted_tags(&base.sink_records()),
        sorted_tags(&same.sink_records())
    );
}
