//! The partition decision as one table: `(shape, threads) →
//! (partitions, fallback reason)`.
//!
//! `run_job_inner` decides in one place whether a job runs on the plain
//! calendar or under `run_partitioned`, and with how many partitions.
//! Every row below pins one outcome of that decision: the three
//! fallback reasons (`"scheduler"`, `"backlog routing"`, `"zero
//! latency"`), the faulted and balanced shapes that must partition, the
//! one-host cluster that must go through the partitioned driver with a
//! single partition, and `threads == 1`, which never consults the chain.
//! Whatever the decision, the report must equal the `threads = 1` run,
//! with one exception: a partitioned run also dispatches the
//! cross-partition end-of-stream marks (`EosMark`), whose count must
//! equal its closed form.

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
use std::collections::{BTreeMap, BTreeSet};

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
fn crashing() -> Run {
    Box::new(|c| {
        let plan = FaultPlan::new().crash(asu_index(c, 0), SimTime(200_000));
        let spec = FaultSpec::with_plan(plan);
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
        run_jobs(c, &FaultSpec::none(), jobs, Box::new(AdmitAll))
            .unwrap()
            .report
    })
}

/// Everything the partition decision must leave untouched: every
/// census row but `EosMark` included.
fn observables(r: &EmulationReport<Rec8>) -> impl PartialEq + std::fmt::Debug {
    let queues: Vec<_> = r
        .queue_stats
        .iter()
        .map(|q| (q.stage.clone(), q.instances.clone()))
        .collect();
    let census: Vec<_> = r.census.rows().filter(|&(k, _)| k != "EosMark").collect();
    (
        r.makespan,
        census,
        r.stage_records_in.clone(),
        queues,
        r.sink_records(),
    )
}

/// The closed form of the `EosMark` row when `job` runs on
/// `partitions` partitions: per sender, the partitions other than its
/// own that own one of its receivers. Hosts split into contiguous blocks
/// (host `h` → `h·P/H`) and ASU `a` goes with host `a mod H`.
fn eos_marks(cfg: &ClusterConfig, partitions: usize, job: &Job<Rec8>) -> u64 {
    let part = |id: NodeId| {
        let h = match id {
            NodeId::Host(h) => h,
            NodeId::Asu(a) => a % cfg.hosts,
        };
        h * partitions / cfg.hosts
    };
    let stages = job.graph.stages();
    let parts_of = |s: lmas_core::StageId| -> Vec<usize> {
        (0..stages[s.0].replication)
            .map(|i| part(job.placement.node_of(s, i).expect("placed")))
            .collect()
    };
    let mut marks = 0;
    for e in job.graph.edges() {
        let receivers: BTreeSet<usize> = parts_of(e.to).into_iter().collect();
        for own in parts_of(e.from) {
            marks += receivers.iter().filter(|&&p| p != own).count() as u64;
        }
    }
    marks
}

#[test]
fn partition_decision_table() {
    let zero = {
        // Zero link latency: no cross-node message can be bounded away
        // from "now".
        let mut c = cfg();
        c.link_latency = SimDuration::ZERO;
        c
    };
    let balanced = cfg().with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
    let one_host = ClusterConfig::era_2002(1, 2, 8.0);

    use RoutingPolicy::{LoadAware, PowerOfTwoChoices, RoundRobin, SimpleRandomization};
    #[rustfmt::skip]
    let table: Vec<Row> = vec![
        ("scheduler",           cfg(),    gated(),                    4, None,    Some("scheduler")),
        ("power of two",        cfg(),    plain(PowerOfTwoChoices),   4, None,    Some("backlog routing")),
        ("load aware",          cfg(),    plain(LoadAware),           4, None,    Some("backlog routing")),
        ("zero delay",          zero,     plain(RoundRobin),          4, None,    Some("zero latency")),
        ("randomized routing",  cfg(),    plain(SimpleRandomization), 4, Some(2), None),
        ("ordinary plan",       cfg(),    crashing(),                 4, Some(2), None),
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
        let marks = r.census.get("EosMark").expect("a census row");
        let closed_form = eos_marks(&cluster, partitions.unwrap_or(1), &job(&cluster, RoundRobin));
        assert_eq!(marks, closed_form, "{shape}: EosMark closed form");
        assert_eq!(r.par.map_or(0, |p| p.eos_marks), marks, "{shape}: reported closed form");
        assert_eq!(r.census.total(), r.dispatched, "{shape}: census covers dispatched");
        let seq = run(&cluster.with_threads(1));
        assert!(seq.par.is_none() && seq.par_fallback.is_none(), "{shape}");
        assert_eq!(
            observables(&r),
            observables(&seq),
            "{shape}: the decision must not change the report"
        );
    }
}
