//! The scheduler composed with every other layer, as one table:
//! `(shape, cluster, fault spec, routing) → a lone job through
//! run_jobs equals the direct run, and a multi-job mix replays`.
//!
//! A multi-tenant run uses the one run path a lone job uses, so it
//! inherits faults, repair, link loss, degradation, the balancer,
//! backlog routing and the storage substrate. Each row pins that:
//!
//! - a lone job through `run_jobs` equals `run_job_with_faults` under the
//!   same spec: makespan, sink outputs, fault and repair counters, and
//!   every census row but the scheduler's own (`JobArrive`, `JobDone`);
//! - a three-job mix behind a one-at-a-time gate, so jobs queue across
//!   the plan's faults, completes every job and replays byte for byte;
//! - at `threads = 2` the gated run still records the `"scheduler"`
//!   fallback.
//!
//! Below the table, the invariant that makes faults safe under a gate:
//! the fault protocol acts only on dispatched jobs, and every sink
//! instance reports end of stream exactly once, flushed or fenced.

use lmas_core::functor::lib::MapFunctor;
use lmas_core::{
    generate_rec8, packetize, EdgeKind, FlowGraph, Functor, KeyDist, NodeId, Placement, Rec8,
    RoutingPolicy, Work,
};
use lmas_emulator::{
    asu_index, node_index, run_job_with_faults, run_jobs, BalanceSpec, ClusterConfig,
    EmulationReport, FaultSpec, GateDecision, Job, MultiJobReport, RepairSpec, SchedEventKind,
    SchedGate, TenantJob,
};
use lmas_sim::{FaultPlan, SimDuration, SimTime};
use lmas_storage::StorageSpec;
use std::collections::{BTreeMap, VecDeque};

const MIB: u64 = 1 << 20;

fn identity_factory() -> impl Fn(usize) -> Box<dyn Functor<Rec8>> + Send + 'static {
    |_| Box::new(MapFunctor::new("id", Work::compares(8), |r: Rec8| r))
}

/// Two sources on ASUs 0 and 1 feed a two-replica sink stage on hosts 0
/// and 1, so every routing policy (and the balancer) has a choice.
fn job(routing: RoutingPolicy, seed: u64) -> Job<Rec8> {
    let data = generate_rec8(4_000, KeyDist::Uniform, seed);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(2, identity_factory());
    let dst = g.add_stage(2, identity_factory());
    g.connect(src, dst, routing, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(src, 1, NodeId::Asu(1));
    placement.assign(dst, 0, NodeId::Host(0));
    placement.assign(dst, 1, NodeId::Host(1));
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data.clone(), 100));
    inputs.insert((0usize, 1usize), packetize(data, 100));
    Job {
        graph: g,
        placement,
        inputs,
    }
}

/// A one-stage-per-node job: a source on `src` feeding one sink on
/// `sink`.
fn pair(src: NodeId, sink: NodeId, records: u64) -> Job<Rec8> {
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let s = g.add_source_stage(1, identity_factory());
    let k = g.add_stage(1, identity_factory());
    g.connect(s, k, RoutingPolicy::Static, EdgeKind::Stream)
        .unwrap();
    let mut placement = Placement::new();
    placement.assign(s, 0, src);
    placement.assign(k, 0, sink);
    let data = generate_rec8(records, KeyDist::Uniform, 5);
    let inputs = BTreeMap::from([((0usize, 0usize), packetize(data, 50))]);
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

/// FCFS with a quota of one: every later arrival queues.
#[derive(Default)]
struct OneAtATime {
    running: bool,
    queue: VecDeque<usize>,
}
impl SchedGate for OneAtATime {
    fn on_arrival(&mut self, job: usize, _now: SimTime) -> GateDecision {
        if self.running {
            self.queue.push_back(job);
            GateDecision::Queue
        } else {
            self.running = true;
            GateDecision::Dispatch
        }
    }
    fn on_completion(&mut self, _job: usize, _now: SimTime) -> Vec<usize> {
        self.running = !self.queue.is_empty();
        self.queue.pop_front().into_iter().collect()
    }
}

/// Everything a gate must leave untouched in a job's report: every
/// census row but the scheduler's own and, when `marks` is false, the
/// cross-partition end-of-stream marks a sequential gated run never
/// sends.
fn observables(r: &EmulationReport<Rec8>, marks: bool) -> impl PartialEq + std::fmt::Debug {
    let census: Vec<_> = r
        .census
        .rows()
        .filter(|&(k, _)| k != "JobArrive" && k != "JobDone" && (marks || k != "EosMark"))
        .collect();
    (
        r.makespan,
        r.sink_outputs.clone(),
        r.fault,
        r.repair,
        (r.replica_hist.clone(), r.repair_trajectory.clone()),
        census,
        (r.stage_records_in.clone(), r.records_processed, r.reweights),
        r.down_nodes.clone(),
    )
}

/// Three jobs at 0, 50 and 100 µs behind a one-at-a-time gate.
fn mix(c: &ClusterConfig, spec: &FaultSpec, routing: RoutingPolicy) -> MultiJobReport<Rec8> {
    let jobs = (0..3)
        .map(|j| TenantJob {
            tenant: j,
            arrival: SimTime(50_000 * j as u64),
            job: job(routing, 9 + j as u64),
        })
        .collect();
    run_jobs(c, spec, jobs, Box::<OneAtATime>::default()).unwrap()
}

/// `(shape, cluster, fault spec, routing)`.
type Row = (&'static str, ClusterConfig, FaultSpec, RoutingPolicy);

#[test]
fn scheduler_composes_with_every_layer() {
    let c = cfg();
    let (host1, asu0) = (node_index(&c, NodeId::Host(1)), asu_index(&c, 0));
    // A sink's node crashes mid-run: its sink completes its job by fence.
    let crash = FaultSpec::with_plan(FaultPlan::new().crash(host1, SimTime(200_000)));
    // A third ASU gives the lost copies somewhere to go.
    let three_asus = ClusterConfig::era_2002(2, 3, 8.0);
    let repair = FaultSpec::with_plan(FaultPlan::new().crash(asu0, SimTime(200_000)))
        .with_repair(RepairSpec::new(16, 2, MIB / 4, 64.0 * MIB as f64));
    let loss = FaultSpec::with_plan(FaultPlan::new().link_loss(asu0, 0, SimTime::ZERO, 0.2));
    let degrade =
        FaultSpec::with_plan(FaultPlan::new().degrade(0, SimTime(100_000), 0.5, 0.5));
    let balanced = c.with_balancer(BalanceSpec {
        deadband: 32,
        cpu_deadband: SimDuration::ZERO,
        ..BalanceSpec::every(SimDuration::from_micros(500))
    });
    let storage = c.with_storage(StorageSpec::striped(2).with_pool(64).with_read_ahead(2));

    use RoutingPolicy::{LoadAware, RoundRobin, SimpleRandomization};
    #[rustfmt::skip]
    let table: Vec<Row> = vec![
        ("crash",           c,                    crash.clone(),      RoundRobin),
        ("crash + repair",  three_asus,           repair,             RoundRobin),
        ("link loss",       c,                    loss,               RoundRobin),
        ("degrade",         c,                    degrade,            RoundRobin),
        ("balancer",        balanced,             FaultSpec::none(),  SimpleRandomization),
        ("load aware",      c,                    FaultSpec::none(),  LoadAware),
        ("striped + pool",  storage,              FaultSpec::none(),  RoundRobin),
        ("threads = 2",     c.with_threads(2),    crash,              RoundRobin),
    ];

    for (shape, cluster, spec, routing) in table {
        let direct = run_job_with_faults(&cluster, &spec, job(routing, 9)).unwrap();
        let lone = run_jobs(
            &cluster,
            &spec,
            vec![TenantJob {
                tenant: 0,
                arrival: SimTime::ZERO,
                job: job(routing, 9),
            }],
            Box::new(AdmitAll),
        )
        .unwrap();
        assert!(lone.jobs[0].completed_at.is_some(), "{shape}: lone job completes");
        let sequential = cluster.threads <= 1;
        assert_eq!(
            lone.report.par_fallback,
            (!sequential).then_some("scheduler"),
            "{shape}: fallback reason"
        );
        assert_eq!(
            observables(&lone.report, sequential),
            observables(&direct, sequential),
            "{shape}: a lone gated job is the direct run"
        );
        let census = &lone.report.census;
        assert_eq!(census.get("JobArrive"), Some(1), "{shape}");
        assert_eq!(census.get("JobDone"), Some(1), "{shape}");

        let a = mix(&cluster, &spec, routing);
        assert!(
            a.jobs.iter().all(|j| j.completed_at.is_some()),
            "{shape}: every job completes: {:?}",
            a.jobs
        );
        assert!(a.jobs[2].queue_wait > SimDuration::ZERO, "{shape}: job 2 queued");
        let b = mix(&cluster, &spec, routing);
        assert_eq!(a.events, b.events, "{shape}: gate log replays");
        assert_eq!(a.jobs, b.jobs, "{shape}: job stats replay");
        assert_eq!(
            observables(&a.report, true),
            observables(&b.report, true),
            "{shape}: report replays"
        );
        assert_eq!(a.report.dispatched, b.report.dispatched, "{shape}");
    }
}

/// Dispatches job 0, queues job 1 and never returns it, rejects job 2.
struct FirstOnly;
impl SchedGate for FirstOnly {
    fn on_arrival(&mut self, job: usize, _now: SimTime) -> GateDecision {
        match job {
            0 => GateDecision::Dispatch,
            1 => GateDecision::Queue,
            _ => GateDecision::Reject,
        }
    }
    fn on_completion(&mut self, _job: usize, _now: SimTime) -> Vec<usize> {
        Vec::new()
    }
}

fn completions(r: &MultiJobReport<Rec8>) -> Vec<usize> {
    r.events
        .iter()
        .filter(|e| e.kind == SchedEventKind::Complete)
        .map(|e| e.job)
        .collect()
}

/// A queued or rejected job holds no emulated resources: when the node
/// under all of its senders (and its sink) crashes and is detected
/// down, no crash kills it and no fence completes it.
#[test]
fn undispatched_jobs_never_complete_when_their_nodes_crash() {
    let c = cfg();
    let asu1 = asu_index(&c, 1);
    let spec = FaultSpec::with_plan(FaultPlan::new().crash(asu1, SimTime(100_000)));
    let tenant_job = |j: usize, src| TenantJob {
        tenant: j,
        arrival: SimTime(10_000 * j as u64),
        job: pair(src, NodeId::Host(0), 400),
    };
    let jobs = vec![
        tenant_job(0, NodeId::Asu(0)),
        tenant_job(1, NodeId::Asu(1)),
        tenant_job(2, NodeId::Asu(1)),
    ];
    let r = run_jobs(&c, &spec, jobs, Box::new(FirstOnly)).unwrap();
    assert_eq!(r.report.fault.detections, 1, "the crash was detected");
    assert_eq!(completions(&r), vec![0], "only the dispatched job completes");
    assert!(r.jobs[1].dispatched_at.is_none() && r.jobs[1].completed_at.is_none());
    assert!(r.jobs[2].rejected && r.jobs[2].completed_at.is_none());
    assert_eq!(
        r.report.fault.fenced_instances, 0,
        "nothing of the undispatched jobs is fenced"
    );
    assert_eq!(r.report.census.get("Kill"), Some(0), "nothing is killed");
}

/// Jobs dispatched after their nodes were detected down: the dead
/// instances die and are fenced at the dispatch instant, so the jobs
/// complete. Job 1's source is dead; everything of job 2 is.
#[test]
fn jobs_dispatched_onto_detected_down_nodes_complete_by_fence() {
    let c = cfg();
    let (asu1, host1) = (asu_index(&c, 1), node_index(&c, NodeId::Host(1)));
    let plan = FaultPlan::new()
        .crash(asu1, SimTime(1_000))
        .crash(host1, SimTime(1_000));
    let spec = FaultSpec::with_plan(plan);
    let late = SimTime(30_000_000);
    let jobs = vec![
        TenantJob {
            tenant: 0,
            arrival: SimTime::ZERO,
            job: pair(NodeId::Asu(0), NodeId::Host(0), 400),
        },
        TenantJob {
            tenant: 1,
            arrival: late,
            job: pair(NodeId::Asu(1), NodeId::Host(0), 400),
        },
        TenantJob {
            tenant: 2,
            arrival: late,
            job: pair(NodeId::Asu(1), NodeId::Host(1), 400),
        },
    ];
    let r = run_jobs(&c, &spec, jobs, Box::new(AdmitAll)).unwrap();
    assert_eq!(r.report.fault.detections, 2, "both crashes detected before the arrivals");
    for j in 1..3 {
        let js = &r.jobs[j];
        assert_eq!(js.dispatched_at, Some(late), "job {j}");
        assert!(js.completed_at.is_some(), "job {j} completes by fence");
    }
    assert_eq!(
        r.jobs[2].completed_at,
        Some(late),
        "a job with nothing alive completes at its dispatch"
    );
    assert_eq!(r.report.fault.fenced_instances, 3, "one dead instance in job 1, two in job 2");
    assert_eq!(r.report.census.get("Kill"), Some(3), "each dead instance dies at dispatch");
    assert_eq!(r.report.records_processed, 2 * 400, "jobs 0 and 1 sink nothing twice");
}

/// A job whose source's ASU crashes mid-read and comes back before the
/// detector fires still completes: the revive ends the source's
/// stream. So the job frees its tenant's one slot and the job queued
/// behind it runs.
#[test]
fn a_source_revived_before_detection_completes_its_job() {
    let c = cfg();
    let run = |spec: &FaultSpec| {
        let jobs = vec![
            TenantJob {
                tenant: 0,
                arrival: SimTime::ZERO,
                job: pair(NodeId::Asu(0), NodeId::Host(0), 4_000),
            },
            TenantJob {
                tenant: 0,
                arrival: SimTime(10_000),
                job: pair(NodeId::Asu(1), NodeId::Host(1), 400),
            },
        ];
        run_jobs(&c, spec, jobs, Box::<OneAtATime>::default()).unwrap()
    };
    let clean = run(&FaultSpec::none());
    // 50 µs in, job 0's source is still reading its input.
    let t_crash = SimTime(50_000);
    let asu0 = asu_index(&c, 0);
    let r = run(&FaultSpec::with_plan(
        FaultPlan::new()
            .crash(asu0, t_crash)
            .recover(asu0, t_crash + SimDuration::from_millis(5)),
    ));
    assert_eq!(r.report.fault.detections, 0, "recovered before the timeout");
    assert_eq!(r.report.census.get("Kill"), Some(1), "the source died");
    assert_eq!(completions(&r), vec![0, 1], "both jobs complete, in order");
    assert_eq!(
        r.jobs[1].dispatched_at, r.jobs[0].completed_at,
        "job 0's completion freed the slot job 1 waited for"
    );
    assert!(
        r.report.records_processed < clean.report.records_processed,
        "job 0's source never read part of its input"
    );
}

/// A sink that flushed is never counted again when its node later
/// crashes and is detected down: its job completes once, at the flush.
#[test]
fn a_flushed_sink_is_never_fenced() {
    let c = cfg();
    let run = |spec: &FaultSpec| {
        let jobs = vec![TenantJob {
            tenant: 0,
            arrival: SimTime::ZERO,
            job: pair(NodeId::Asu(0), NodeId::Host(1), 400),
        }];
        run_jobs(&c, spec, jobs, Box::new(AdmitAll)).unwrap()
    };
    let clean = run(&FaultSpec::none());
    let done = clean.jobs[0].completed_at.expect("completes");
    let host1 = node_index(&c, NodeId::Host(1));
    let crashed = run(&FaultSpec::with_plan(
        FaultPlan::new().crash(host1, done + SimDuration::from_millis(1)),
    ));
    assert_eq!(crashed.report.fault.detections, 1, "the crash was detected");
    assert_eq!(crashed.report.fault.fenced_instances, 0, "the sink had flushed");
    assert_eq!(completions(&crashed), vec![0], "one completion");
    assert_eq!(crashed.jobs[0].completed_at, Some(done));
}
