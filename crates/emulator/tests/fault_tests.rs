//! Fault-injection tests: crash failover, detection latency, fencing,
//! degraded mode, lossy links, and chaos determinism.

use lmas_core::functor::lib::MapFunctor;
use lmas_core::{
    packetize, EdgeKind, FlowGraph, Functor, NodeId, Placement, Rec8, RoutingPolicy, Work,
};
use lmas_emulator::{
    asu_index, run_job, run_job_with_faults, ClusterConfig, FaultSpec, FaultStats, Job, JobError,
    NodeHealth,
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

/// With a single replica, losing it leaves nowhere to fail over: once
/// the retry budget runs out the records are abandoned, counted, and the
/// run still drains to a report — not an error, not a hang.
#[test]
fn all_replicas_down_abandons_records_in_degraded_mode() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let n = 2_000u32;
    let (g0, p0, i0) = replicated_relay_job(n, 1, RoutingPolicy::Static);
    let base = run_job(&cfg, Job { graph: g0, placement: p0, inputs: i0 }).unwrap();

    // Crash while the source is still streaming so deliveries are in
    // flight; with one replica there is nowhere to fail over to.
    let plan = FaultPlan::new()
        .crash(asu_index(&cfg, 0), SimTime((base.makespan.0 / 8).max(200_000)));
    let spec = FaultSpec::with_plan(plan);
    let (g, placement, inputs) = replicated_relay_job(n, 1, RoutingPolicy::Static);
    let report = run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs })
        .expect("degraded mode drains");

    let delivered = report.sink_records().len() as u64;
    assert!(report.fault.abandoned_records > 0, "the retry budget ran out");
    assert_eq!(
        delivered + report.fault.lost_queued_records + report.fault.abandoned_records,
        n as u64,
        "every record delivered or accounted lost"
    );
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

/// A source's ASU crashes while the source is still reading its input
/// and comes back before the detector's timeout. The crash kills the
/// read chain for good and no fence ever speaks for the source, so the
/// revive ends its stream: every instance, sinks included, flushes
/// exactly once, and the run loses only what the source had not yet
/// delivered. Sequential and two-partition runs agree.
#[test]
fn source_revived_before_detection_ends_its_stream() {
    let n = 4_000u32;
    let run = |threads: usize, spec: &FaultSpec| {
        let cfg = ClusterConfig::era_2002(2, 2, 8.0)
            .with_trace(1 << 14)
            .with_threads(threads);
        let mut g: FlowGraph<Rec8> = FlowGraph::new();
        let src = g.add_source_stage(2, relay_factory());
        let mid = g.add_stage(2, relay_factory());
        let dst = g.add_stage(2, relay_factory());
        g.connect(src, mid, RoutingPolicy::RoundRobin, EdgeKind::Set).unwrap();
        g.connect(mid, dst, RoutingPolicy::Static, EdgeKind::Set).unwrap();
        let mut placement = Placement::new();
        let mut inputs = BTreeMap::new();
        for i in 0..2 {
            let data: Vec<Rec8> = (0..n).map(|t| Rec8 { key: t, tag: t }).collect();
            placement.assign(src, i, NodeId::Asu(i));
            placement.assign(mid, i, NodeId::Host(i));
            placement.assign(dst, i, NodeId::Host(i));
            inputs.insert((src.0, i), packetize(data, 50));
        }
        run_job_with_faults(&cfg, spec, Job { graph: g, placement, inputs }).unwrap()
    };
    let cfg = ClusterConfig::era_2002(2, 2, 8.0);
    // 50 µs in, the source has read about a fifth of its input.
    let t_crash = SimTime(50_000);
    let plan = FaultPlan::new()
        .crash(asu_index(&cfg, 0), t_crash)
        .recover(asu_index(&cfg, 0), t_crash + SimDuration::from_millis(5));
    let spec = FaultSpec::with_plan(plan);
    let seq = run(1, &spec);
    let par = run(2, &spec);
    assert_eq!(par.par.map(|p| p.partitions), Some(2), "ran partitioned");
    for r in [&seq, &par] {
        assert_eq!(r.fault.detections, 0, "recovered before the timeout");
        assert_eq!(r.fault.fenced_instances, 0);
        for subject in ["s0.i0", "s0.i1", "s1.i0", "s1.i1", "s2.i0", "s2.i1"] {
            let flushes = r
                .trace
                .entries()
                .filter(|e| e.subject.as_str() == subject && e.detail == "flush")
                .count();
            assert_eq!(flushes, 1, "{subject} flushes exactly once");
        }
        let delivered = r.sink_records().len() as u64;
        assert!(
            delivered + r.fault.lost_queued_records < 2 * n as u64,
            "the crash left part of the input unread"
        );
        assert!(delivered >= n as u64, "the other source delivered everything");
    }
    assert_eq!(seq.makespan, par.makespan);
    assert_eq!(seq.sink_outputs, par.sink_outputs);
}

/// A plan whose one event is a `Degrade` landing after the job ends is
/// a no-op: the controller dispatches it, and nothing else moves — same
/// makespan and sink outputs as `run_job`, and quiet fault counters.
#[test]
fn degrade_after_the_job_ends_changes_nothing() {
    let cfg = ClusterConfig::era_2002(1, 2, 8.0);
    for routing in [RoutingPolicy::RoundRobin, RoutingPolicy::SimpleRandomization] {
        let (g0, p0, i0) = replicated_relay_job(1_000, 2, routing);
        let base = run_job(&cfg, Job { graph: g0, placement: p0, inputs: i0 }).unwrap();
        let late = SimTime(base.makespan.0) + SimDuration::from_millis(1);
        let plan = FaultPlan::new().degrade(asu_index(&cfg, 0), late, 0.5, 0.5);
        let (g, placement, inputs) = replicated_relay_job(1_000, 2, routing);
        let spec = FaultSpec::with_plan(plan);
        let r = run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs }).unwrap();
        assert_eq!(r.census.get("FaultStep"), Some(1), "the step was dispatched");
        assert_eq!(r.makespan, base.makespan, "{routing:?}");
        assert_eq!(r.sink_outputs, base.sink_outputs, "{routing:?}");
        assert_eq!(r.fault, FaultStats::default(), "{routing:?}");
        assert_eq!(r.dispatched, base.dispatched + 1, "{routing:?}: one extra event");
    }
}

/// A sender's node crashes before the sender flushes, is detected and
/// fenced, then recovers. The fault controller reports end of stream for
/// the fenced sender, and the revived instance, though it hears end of
/// stream itself, never flushes or reports its own. So each stage's
/// countdown hears exactly once from every sender (a second report would
/// trip its underflow `debug_assert`), every other instance flushes
/// exactly once, and the sequential and two-partition runs agree.
#[test]
fn fenced_sender_reports_end_of_stream_exactly_once() {
    let run = |threads: usize| {
        let cfg = ClusterConfig::era_2002(2, 4, 8.0)
            .with_trace(1 << 14)
            .with_threads(threads);
        let data: Vec<Rec8> = (0..20_000u32).map(|i| Rec8 { key: i, tag: i }).collect();
        let mut g: FlowGraph<Rec8> = FlowGraph::new();
        let src = g.add_source_stage(2, relay_factory());
        let mid = g.add_stage(4, relay_factory());
        let dst = g.add_stage(1, relay_factory());
        g.connect(src, mid, RoutingPolicy::RoundRobin, EdgeKind::Set).unwrap();
        g.connect(mid, dst, RoutingPolicy::Static, EdgeKind::Set).unwrap();
        let mut placement = Placement::new();
        let mut inputs = BTreeMap::new();
        for h in 0..2 {
            placement.assign(src, h, NodeId::Host(h));
            inputs.insert((src.0, h), packetize(data.clone(), 50));
        }
        for a in 0..4 {
            placement.assign(mid, a, NodeId::Asu(a));
        }
        placement.assign(dst, 0, NodeId::Host(1));
        // Relay 1's ASU dies while the sources still stream, is detected
        // (and the relay fenced) 15-20 ms later, and comes back before
        // the sources finish.
        let plan = FaultPlan::new()
            .crash(asu_index(&cfg, 1), SimTime(1_000_000))
            .recover(asu_index(&cfg, 1), SimTime(30_000_000));
        let spec = FaultSpec::with_plan(plan);
        run_job_with_faults(&cfg, &spec, Job { graph: g, placement, inputs }).unwrap()
    };
    let seq = run(1);
    let par = run(2);
    assert_eq!(par.par.map(|p| p.partitions), Some(2), "ran partitioned");
    for r in [&seq, &par] {
        assert_eq!(r.fault.detections, 1);
        assert_eq!(r.fault.fenced_instances, 1, "only the crashed relay");
        assert!(r.down_nodes.is_empty(), "the node recovered");
        let flushes = |subject: &str| {
            r.trace
                .entries()
                .filter(|e| e.subject.as_str() == subject && e.detail == "flush")
                .count()
        };
        assert_eq!(flushes("s1.i1"), 0, "the fenced relay never flushes");
        for s in ["s0.i0", "s0.i1", "s1.i0", "s1.i2", "s1.i3", "s2.i0"] {
            assert_eq!(flushes(s), 1, "{s} flushes exactly once");
        }
        // One countdown `Eos` per receiver (4 relays + 1 sink) plus the
        // two sources' own end of input.
        assert_eq!(r.census.get("Eos"), Some(7));
        assert_eq!(r.census.get("EosMark"), Some(r.par.map_or(0, |p| p.eos_marks)));
        assert_eq!(r.trace.dropped(), 0);
    }
    assert_eq!(seq.makespan, par.makespan, "threads 1 and 2 agree");
    assert_eq!(seq.sink_records().len(), par.sink_records().len());
}
