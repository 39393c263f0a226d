//! Multi-tenant job scheduling on the emulated cluster.
//!
//! [`run_jobs`] merges several independent jobs into one flow graph and
//! runs them **concurrently** on the same emulated nodes, contending
//! for the same CPUs, disks and links in virtual time. Each job arrives
//! at its own instant and passes through a pluggable [`SchedGate`] —
//! the admission/fairness policy — which decides whether it dispatches
//! immediately, waits in the gate's queue, or is rejected. A queued job
//! holds no emulated resources: its sources are only kicked when the
//! gate dispatches it (typically from [`SchedGate::on_completion`] as
//! running jobs finish).
//!
//! The runtime stays deterministic end to end: arrivals are explicit
//! [`SimTime`]s (see [`lmas_sim::ArrivalSpec`]), the gate runs inside
//! the event loop, and a lone job arriving at time zero replays the
//! direct [`run_job`](crate::runtime::run_job) path event for event.
//! Policy lives above this module (in `lmas-sched`); this module only
//! defines the mechanism: merge, gate, dispatch, completion detection,
//! and per-job accounting.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use lmas_core::{Packet, Record, StageId};
use lmas_sim::{SimDuration, SimTime};

use crate::config::ClusterConfig;
use crate::metrics::StageUsage;
use crate::runtime::{run_job_sched, EmulationReport, Job, JobError, SchedSetup};

/// Decision of a [`SchedGate`] for a newly arrived job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// Start the job now.
    Dispatch,
    /// Hold the job; the gate must dispatch it later from
    /// [`SchedGate::on_completion`] (or never, if it starves it —
    /// starved jobs simply report as never dispatched).
    Queue,
    /// Turn the job away; it never runs.
    Reject,
}

/// The pluggable admission + fairness policy of a multi-tenant run.
///
/// The gate runs *inside* the deterministic event loop: `on_arrival`
/// fires at each job's arrival instant, `on_completion` when the last
/// sink instance of a running job flushes. Both receive virtual time.
/// The contract is work conservation in the scheduler's sense: any job
/// the gate queues must eventually be returned by some `on_completion`
/// call (jobs it never returns simply never run — the runtime drains
/// and reports them as undispatched rather than deadlocking).
///
/// Determinism: gates must be pure functions of the call sequence —
/// same decisions for the same arrivals/completions in the same order.
/// All policies in `lmas-sched` (FCFS, SPJF, weighted-fair) are.
pub trait SchedGate {
    /// Job `job` arrived at `now`; admit, queue, or reject it.
    fn on_arrival(&mut self, job: usize, now: SimTime) -> GateDecision;
    /// Job `job` completed at `now`; return the queued jobs to dispatch
    /// next (in order).
    fn on_completion(&mut self, job: usize, now: SimTime) -> Vec<usize>;
}

/// What happened to a job at the gate (one log entry per transition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEventKind {
    /// The job reached the gate.
    Arrive,
    /// The gate started the job (sources kicked this instant).
    Dispatch,
    /// The gate held the job for later dispatch.
    Queued,
    /// The gate turned the job away.
    Rejected,
    /// The job's last sink instance flushed.
    Complete,
}

/// One scheduler transition, stamped with virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// When the transition happened.
    pub at: SimTime,
    /// Which job.
    pub job: usize,
    /// What happened.
    pub kind: SchedEventKind,
}

/// One tenant's job submission for [`run_jobs`].
pub struct TenantJob<R: Record> {
    /// Submitting tenant (dense index, embedding-defined).
    pub tenant: usize,
    /// Virtual arrival instant.
    pub arrival: SimTime,
    /// The job itself (graph, placement, inputs) — exactly what
    /// [`run_job`](crate::runtime::run_job) would take.
    pub job: Job<R>,
}

/// Per-job outcome of a multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStats {
    /// Submitting tenant.
    pub tenant: usize,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Dispatch instant, if the gate ever started the job.
    pub dispatched_at: Option<SimTime>,
    /// Completion instant (last sink flush), if the job finished.
    pub completed_at: Option<SimTime>,
    /// The gate rejected the job outright.
    pub rejected: bool,
    /// Time spent held at the gate (`dispatched_at - arrival`; zero
    /// when dispatched on arrival or never dispatched).
    pub queue_wait: SimDuration,
    /// Resource usage attributed to this job's stages (grant windows
    /// and byte volumes charged on their behalf).
    pub usage: StageUsage,
    /// This job's `[start, end)` stage range in the merged graph —
    /// indexes into the report's per-stage vectors.
    pub stages: (usize, usize),
}

impl JobStats {
    /// End-to-end latency (arrival → completion), if the job finished.
    pub fn latency(&self) -> Option<SimDuration> {
        self.completed_at.map(|c| c.since(self.arrival))
    }
}

/// Result of [`run_jobs`]: the merged-cluster report plus per-job
/// statistics and the full gate transition log.
pub struct MultiJobReport<R: Record> {
    /// The underlying emulation report for the merged run. Per-stage
    /// vectors cover all jobs' stages; [`JobStats::stages`] slices them
    /// per job.
    pub report: EmulationReport<R>,
    /// Per-job outcomes, indexed by submission order.
    pub jobs: Vec<JobStats>,
    /// Every gate transition, in virtual-time order.
    pub events: Vec<SchedEvent>,
}

/// Run several jobs concurrently on one emulated cluster under a
/// scheduler gate.
///
/// The jobs' graphs are merged into a single [`FlowGraph`] (stage
/// indices offset per job, so each job's range is contiguous) and run
/// fault-free on the sequential engine. Job `j` of the gate/report is
/// `jobs[j]`. See the module docs for the scheduling semantics.
///
/// # Errors
///
/// Graph/placement validation errors surface exactly as for a single
/// job. A job with an empty graph is rejected up front (it could never
/// complete), and so is an empty job list ([`JobError::NoJobs`]).
pub fn run_jobs<R: Record>(
    cfg: &ClusterConfig,
    jobs: Vec<TenantJob<R>>,
    gate: Box<dyn SchedGate>,
) -> Result<MultiJobReport<R>, JobError> {
    if jobs.is_empty() {
        return Err(JobError::NoJobs);
    }
    let mut graph = lmas_core::FlowGraph::new();
    let mut placement = lmas_core::Placement::new();
    let mut inputs: BTreeMap<(usize, usize), Vec<Packet<R>>> = BTreeMap::new();
    let mut stage_job: Vec<usize> = Vec::new();
    let mut sources: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut sinks: Vec<usize> = Vec::new();
    let mut arrivals: Vec<SimTime> = Vec::new();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut tenants: Vec<usize> = Vec::new();

    for (j, tj) in jobs.into_iter().enumerate() {
        let TenantJob {
            tenant,
            arrival,
            job,
        } = tj;
        let Job {
            graph: g,
            placement: p,
            inputs: inp,
        } = job;
        if g.stages().is_empty() {
            return Err(JobError::Graph(lmas_core::GraphError::Empty));
        }
        let base = graph.stages().len();
        let mut srcs = Vec::new();
        let mut sink_insts = 0usize;
        for (s, st) in g.stages().iter().enumerate() {
            let ms = base + s;
            stage_job.push(j);
            for i in 0..st.replication {
                // Unassigned instances surface as the runtime's usual
                // UnplacedInstance error.
                if let Some(n) = p.node_of(StageId(s), i) {
                    placement.assign(StageId(ms), i, n);
                }
            }
            if st.is_source {
                for i in 0..st.replication {
                    srcs.push((ms, i));
                }
            }
            if g.out_edge(StageId(s)).is_none() {
                sink_insts += st.replication;
            }
        }
        for ((s, i), v) in inp {
            inputs.insert((base + s, i), v);
        }
        // The job's stages and edges move into the merged graph as they
        // are: same probed metadata, same factory handles.
        graph.append(g);
        sources.push(srcs);
        sinks.push(sink_insts);
        arrivals.push(arrival);
        ranges.push((base, graph.stages().len()));
        tenants.push(tenant);
    }

    let log: Rc<RefCell<Vec<SchedEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let setup = SchedSetup {
        arrivals: arrivals.clone(),
        stage_job,
        sources,
        sinks,
        gate,
        log: log.clone(),
    };
    let report = run_job_sched(
        cfg,
        Job {
            graph,
            placement,
            inputs,
        },
        setup,
    )?;
    // The scheduler actor dropped with the simulation, so the log is
    // uniquely owned again.
    let events = Rc::try_unwrap(log)
        .map(|c| c.into_inner())
        .unwrap_or_else(|rc| rc.borrow().clone());

    let mut out: Vec<JobStats> = ranges
        .iter()
        .zip(&tenants)
        .zip(&arrivals)
        .map(|((&(a, b), &tenant), &arrival)| {
            let mut usage = StageUsage::default();
            for s in a..b {
                usage.absorb(&report.stage_usage[s]);
            }
            JobStats {
                tenant,
                arrival,
                dispatched_at: None,
                completed_at: None,
                rejected: false,
                queue_wait: SimDuration::from_nanos(0),
                usage,
                stages: (a, b),
            }
        })
        .collect();
    for e in &events {
        let js = &mut out[e.job];
        match e.kind {
            SchedEventKind::Dispatch => js.dispatched_at = Some(e.at),
            SchedEventKind::Complete => js.completed_at = Some(e.at),
            SchedEventKind::Rejected => js.rejected = true,
            SchedEventKind::Arrive | SchedEventKind::Queued => {}
        }
    }
    for js in &mut out {
        if let Some(d) = js.dispatched_at {
            js.queue_wait = d.saturating_since(js.arrival);
        }
    }

    Ok(MultiJobReport {
        report,
        jobs: out,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AdmitAll;
    impl SchedGate for AdmitAll {
        fn on_arrival(&mut self, _job: usize, _now: SimTime) -> GateDecision {
            GateDecision::Dispatch
        }
        fn on_completion(&mut self, _job: usize, _now: SimTime) -> Vec<usize> {
            Vec::new()
        }
    }

    /// One-at-a-time FCFS: at most one job runs; the rest queue.
    struct OneAtATime {
        running: bool,
        queue: std::collections::VecDeque<usize>,
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
            match self.queue.pop_front() {
                Some(next) => vec![next],
                None => {
                    self.running = false;
                    Vec::new()
                }
            }
        }
    }

    struct RejectAll;
    impl SchedGate for RejectAll {
        fn on_arrival(&mut self, _job: usize, _now: SimTime) -> GateDecision {
            GateDecision::Reject
        }
        fn on_completion(&mut self, _job: usize, _now: SimTime) -> Vec<usize> {
            Vec::new()
        }
    }

    use lmas_core::functor::lib::MapFunctor;
    use lmas_core::{
        generate_rec8, packetize, EdgeKind, KeyDist, NodeId, Rec8, RoutingPolicy, Work,
    };

    fn tiny_job(records: u64) -> Job<Rec8> {
        let mut g = lmas_core::FlowGraph::new();
        let idf = || |_: usize| -> Box<dyn lmas_core::Functor<Rec8>> {
            Box::new(MapFunctor::new("id", Work::ZERO, |r: Rec8| r))
        };
        let src = g.add_source_stage(1, idf());
        let sink = g.add_stage(1, idf());
        g.connect(src, sink, RoutingPolicy::Static, EdgeKind::Stream)
            .expect("valid edge");
        let mut p = lmas_core::Placement::new();
        p.assign(src, 0, NodeId::Asu(0));
        p.assign(sink, 0, NodeId::Host(0));
        let mut inputs = BTreeMap::new();
        inputs.insert(
            (0usize, 0usize),
            packetize(generate_rec8(records, KeyDist::Uniform, 1), 32),
        );
        Job {
            graph: g,
            placement: p,
            inputs,
        }
    }

    fn cfg() -> ClusterConfig {
        ClusterConfig::era_2002(1, 2, 8.0)
    }

    #[test]
    fn single_job_matches_direct_run() {
        let cfg = cfg();
        let direct =
            crate::runtime::run_job(&cfg, tiny_job(32)).expect("direct run succeeds");
        let multi = run_jobs(
            &cfg,
            vec![TenantJob {
                tenant: 0,
                arrival: SimTime::ZERO,
                job: tiny_job(32),
            }],
            Box::new(AdmitAll),
        )
        .expect("gated run succeeds");
        // Byte-identical observables: only the dispatch count differs
        // (the gated run adds JobArrive/SinkFlushed bookkeeping events).
        assert_eq!(multi.report.makespan, direct.makespan);
        assert_eq!(multi.report.records_processed, direct.records_processed);
        assert_eq!(multi.report.sink_outputs, direct.sink_outputs);
        assert_eq!(multi.report.stage_records_in, direct.stage_records_in);
        assert_eq!(multi.jobs.len(), 1);
        assert_eq!(multi.jobs[0].dispatched_at, Some(SimTime::ZERO));
        assert!(multi.jobs[0].completed_at.is_some());
        assert!(multi.jobs[0].usage.disk_read_bytes > 0);
    }

    #[test]
    fn queued_job_waits_for_the_running_one() {
        let cfg = cfg();
        let gate = OneAtATime {
            running: false,
            queue: std::collections::VecDeque::new(),
        };
        let r = run_jobs(
            &cfg,
            vec![
                TenantJob {
                    tenant: 0,
                    arrival: SimTime::ZERO,
                    job: tiny_job(64),
                },
                TenantJob {
                    tenant: 1,
                    arrival: SimTime(1),
                    job: tiny_job(64),
                },
            ],
            Box::new(gate),
        )
        .expect("gated run succeeds");
        let (a, b) = (&r.jobs[0], &r.jobs[1]);
        assert_eq!(a.dispatched_at, Some(SimTime::ZERO));
        // Job 1 dispatches exactly when job 0 completes.
        assert_eq!(b.dispatched_at, a.completed_at);
        assert!(b.queue_wait > SimDuration::from_nanos(0));
        assert!(b.completed_at.expect("finishes") > a.completed_at.expect("finishes"));
    }

    #[test]
    fn rejected_job_never_runs_and_uses_nothing() {
        let cfg = cfg();
        let r = run_jobs(
            &cfg,
            vec![TenantJob {
                tenant: 0,
                arrival: SimTime(5),
                job: tiny_job(16),
            }],
            Box::new(RejectAll),
        )
        .expect("run drains");
        let js = &r.jobs[0];
        assert!(js.rejected);
        assert_eq!(js.dispatched_at, None);
        assert_eq!(js.completed_at, None);
        assert_eq!(js.usage, StageUsage::default());
        // A rejected trailing arrival must not stretch the makespan.
        assert_eq!(r.report.makespan, SimDuration::from_nanos(0));
    }

    #[test]
    fn concurrent_jobs_contend_and_attribute_usage() {
        let cfg = cfg();
        // Both jobs admitted at once on the same nodes: each finishes
        // later than it would alone, and usage splits between them.
        let alone = run_jobs(
            &cfg,
            vec![TenantJob {
                tenant: 0,
                arrival: SimTime::ZERO,
                job: tiny_job(64),
            }],
            Box::new(AdmitAll),
        )
        .expect("solo run");
        let both = run_jobs(
            &cfg,
            vec![
                TenantJob {
                    tenant: 0,
                    arrival: SimTime::ZERO,
                    job: tiny_job(64),
                },
                TenantJob {
                    tenant: 1,
                    arrival: SimTime::ZERO,
                    job: tiny_job(64),
                },
            ],
            Box::new(AdmitAll),
        )
        .expect("contended run");
        let solo = alone.jobs[0].latency().expect("finished");
        for js in &both.jobs {
            let lat = js.latency().expect("finished");
            assert!(
                lat >= solo,
                "contended latency {lat:?} below solo {solo:?}"
            );
            assert!(js.usage.cpu_busy_ns > 0);
            assert_eq!(
                js.usage.disk_read_bytes,
                alone.jobs[0].usage.disk_read_bytes
            );
        }
        // Attribution is conserved: per-job usage sums to the totals.
        let read: u64 = both.jobs.iter().map(|j| j.usage.disk_read_bytes).sum();
        let whole: u64 = both
            .report
            .stage_usage
            .iter()
            .map(|u| u.disk_read_bytes)
            .sum();
        assert_eq!(read, whole);
    }

    #[test]
    fn empty_job_list_is_a_typed_error() {
        let err = run_jobs::<Rec8>(&cfg(), Vec::new(), Box::new(AdmitAll))
            .err()
            .expect("nothing to run");
        assert!(matches!(err, JobError::NoJobs), "{err}");
        assert!(err.to_string().contains("no jobs"), "{err}");
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = cfg();
        let mk = || {
            let gate = OneAtATime {
                running: false,
                queue: std::collections::VecDeque::new(),
            };
            run_jobs(
                &cfg,
                vec![
                    TenantJob {
                        tenant: 0,
                        arrival: SimTime::ZERO,
                        job: tiny_job(48),
                    },
                    TenantJob {
                        tenant: 1,
                        arrival: SimTime(100),
                        job: tiny_job(48),
                    },
                    TenantJob {
                        tenant: 0,
                        arrival: SimTime(200),
                        job: tiny_job(48),
                    },
                ],
                Box::new(gate),
            )
            .expect("run succeeds")
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.events, b.events);
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.report.dispatched, b.report.dispatched);
        assert_eq!(a.jobs, b.jobs);
    }
}
