//! The partition decision as one table: `(shape, threads) →
//! (partitions, fallback reason)`.
//!
//! `run_job_inner` decides in one place whether a job runs on the plain
//! calendar or under `run_partitioned`, and with how many partitions.
//! Every row below pins one outcome of that decision: the four
//! fallback reasons (`"scheduler"`, `"backlog routing"`, `"zero
//! latency"`, `"fault plan"`), the zero-latency boundary from both
//! sides (a zero `link_latency` with a positive NIC frame overhead
//! still yields a positive minimum cross-node delay and parallelizes),
//! the faulted and balanced shapes that must partition, the one-host
//! cluster that must go through the partitioned driver with a single
//! partition, and `threads == 1`, which never consults the chain.
//! Whatever the decision, the report must equal the `threads = 1` run.

use lmas_core::functor::lib::MapFunctor;
use lmas_core::{
    generate_rec8, packetize, EdgeKind, FlowGraph, Functor, KeyDist, NodeId, Placement, Rec8,
    RoutingPolicy, Work,
};
use lmas_emulator::{
    asu_index, run_job, run_job_with_faults, run_jobs, BalanceSpec, ClusterConfig,
    EmulationReport, FaultSpec, GateDecision, Job, SchedGate, TenantJob,
};
use lmas_sim::{FaultPlan, SimDuration, SimTime};
use std::collections::BTreeMap;

fn identity_factory() -> impl Fn(usize) -> Box<dyn Functor<Rec8>> + Send + 'static {
    |_| Box::new(MapFunctor::new("id", Work::compares(8), |r: Rec8| r))
}

/// Two-ASU, two-host job with a replicated downstream stage so every
/// routing policy (and the balancer) has freedom to exercise. On a
/// one-host cluster both downstream replicas share host 0.
fn job(cfg: &ClusterConfig, routing: RoutingPolicy) -> Job<Rec8> {
    let data = generate_rec8(4_000, KeyDist::Uniform, 9);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(2, identity_factory());
    let dst = g.add_stage(2, identity_factory());
    g.connect(src, dst, routing, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(src, 1, NodeId::Asu(1));
    placement.assign(dst, 0, NodeId::Host(0));
    placement.assign(dst, 1, NodeId::Host(1 % cfg.hosts));
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data.clone(), 100));
    inputs.insert((0usize, 1usize), packetize(data, 100));
    Job {
        graph: g,
        placement,
        inputs,
    }
}

fn cfg() -> ClusterConfig {
    ClusterConfig::era_2002(2, 2, 8.0)
}

struct AdmitAll;
impl SchedGate for AdmitAll {
    fn on_arrival(&mut self, _job: usize, _now: SimTime) -> GateDecision {
        GateDecision::Dispatch
    }
    fn on_completion(&mut self, _job: usize, _now: SimTime) -> Vec<usize> {
        Vec::new()
    }
}

type Run = Box<dyn Fn(&ClusterConfig) -> EmulationReport<Rec8>>;

/// `(shape, cluster, run, threads) → (partitions, fallback reason)`.
type Row = (
    &'static str,
    ClusterConfig,
    Run,
    usize,
    Option<usize>,
    Option<&'static str>,
);

/// The job under `routing`, fault-free.
fn plain(routing: RoutingPolicy) -> Run {
    Box::new(move |c| run_job(c, job(c, routing)).unwrap())
}

/// The round-robin job with ASU 0 crashing mid-run.
fn crashing(fail_fast: bool) -> Run {
    Box::new(move |c| {
        let plan = FaultPlan::new().crash(asu_index(c, 0), SimTime(200_000));
        let spec = FaultSpec::with_plan(plan).failing_fast(fail_fast);
        run_job_with_faults(c, &spec, job(c, RoutingPolicy::RoundRobin)).unwrap()
    })
}

/// Two tenants' jobs behind an admit-all gate (`run_jobs`).
fn gated() -> Run {
    Box::new(|c| {
        let tenant_job = |tenant, arrival| TenantJob {
            tenant,
            arrival,
            job: job(c, RoutingPolicy::RoundRobin),
        };
        let jobs = vec![tenant_job(0, SimTime::ZERO), tenant_job(1, SimTime(50_000))];
        run_jobs(c, jobs, Box::new(AdmitAll)).unwrap().report
    })
}

/// Everything the partition decision must leave untouched.
fn observables(r: &EmulationReport<Rec8>) -> impl PartialEq + std::fmt::Debug {
    let queues: Vec<_> = r
        .queue_stats
        .iter()
        .map(|q| (q.stage.clone(), q.instances.clone()))
        .collect();
    (
        r.makespan,
        r.dispatched,
        r.stage_records_in.clone(),
        queues,
        r.sink_records(),
    )
}

#[test]
fn partition_decision_table() {
    let zero = {
        // Zero propagation latency AND zero per-frame NIC overhead: no
        // cross-node message can be bounded away from "now".
        let mut c = cfg();
        c.link_latency = SimDuration::ZERO;
        c.nic_frame_overhead_bytes = 0;
        c
    };
    // Zero latency but a positive per-frame overhead: the minimum
    // cross-node delay is the NIC service time of an empty frame, a
    // valid (if narrow) conservative lookahead.
    let framed = zero.with_nic_frame_overhead(64);
    let balanced = cfg().with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
    let one_host = ClusterConfig::era_2002(1, 2, 8.0);

    use RoutingPolicy::{LoadAware, PowerOfTwoChoices, RoundRobin, SimpleRandomization};
    #[rustfmt::skip]
    let table: Vec<Row> = vec![
        ("scheduler",           cfg(),    gated(),                    4, None,    Some("scheduler")),
        ("power of two",        cfg(),    plain(PowerOfTwoChoices),   4, None,    Some("backlog routing")),
        ("load aware",          cfg(),    plain(LoadAware),           4, None,    Some("backlog routing")),
        ("zero delay",          zero,     plain(RoundRobin),          4, None,    Some("zero latency")),
        ("fail-fast plan",      cfg(),    crashing(true),             4, None,    Some("fault plan")),
        ("frame overhead only", framed,   plain(RoundRobin),          4, Some(2), None),
        ("randomized routing",  cfg(),    plain(SimpleRandomization), 4, Some(2), None),
        ("ordinary plan",       cfg(),    crashing(false),            4, Some(2), None),
        ("snapshot balancer",   balanced, plain(SimpleRandomization), 4, Some(2), None),
        ("two threads",         cfg(),    plain(RoundRobin),          2, Some(2), None),
        ("one host",            one_host, plain(RoundRobin),          4, Some(1), None),
        // threads == 1 never consults the eligibility chain — even a
        // shape that would be ineligible reports no reason.
        ("one thread",          cfg(),    plain(PowerOfTwoChoices),   1, None,    None),
    ];

    for (shape, cluster, run, threads, partitions, reason) in table {
        let r = run(&cluster.with_threads(threads));
        assert_eq!(
            r.par.as_ref().map(|p| p.partitions),
            partitions,
            "{shape}: partitions"
        );
        assert_eq!(r.par_fallback, reason, "{shape}: fallback reason");
        let seq = run(&cluster.with_threads(1));
        assert!(seq.par.is_none() && seq.par_fallback.is_none(), "{shape}");
        assert_eq!(
            observables(&r),
            observables(&seq),
            "{shape}: the decision must not change the report"
        );
    }
}
