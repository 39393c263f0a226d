//! The dataflow runtime: compiles a (graph, placement) pair onto the
//! emulated cluster and executes it.
//!
//! Every functor instance becomes a simulation actor on its assigned
//! node. Functor code runs *for real* (records are genuinely
//! transformed); virtual time is charged per the declared cost bounds
//! through the node's FCFS CPU resource, so co-located instances contend
//! naturally. Packets crossing nodes serialize on the sender's NIC and
//! arrive one link latency later; source instances stream their input
//! from the local disk model; sink outputs are written back to the local
//! disk and captured for the caller.
//!
//! End-of-stream follows the classic dataflow protocol: an instance that
//! has consumed its input and heard end of stream from every upstream
//! sender flushes its functor, forwards the flush outputs, then reports
//! its own end of stream downstream. One countdown per downstream stage
//! collects those reports and tells each receiver once, at the instant
//! its last per-sender mark would have arrived (`eos.rs`). Because the
//! report rides the same FCFS NIC as data, it never overtakes packets
//! from the same sender.
//!
//! ## Fault-masked delivery
//!
//! Every run goes through one failure model (see [`crate::fault`]); a
//! fault-free run is the empty plan, not a separate mode. Per partition,
//! a controller replays the [`FaultSpec`]'s plan in virtual time,
//! flipping node health, and a precomputed [`DetectedTimeline`] stands
//! in for the heartbeat failure detector (detections land on the first
//! heartbeat tick past the timeout after each crash). Delivery is
//! optimistic-with-recovery: every routed packet carries its delivery
//! metadata, and one arriving at a down node bounces back as a NACK;
//! the sender re-routes it through [`Router::pick_routed`], whose
//! liveness predicate reads the *detected* node health, after a
//! deterministic exponential backoff. Down nodes are thus masked, not
//! fatal. An empty plan seeds the controller with nothing, marks no
//! node down and no link lossy, so it sends no control message and
//! takes no draw: [`run_job`] is that run.
//!
//! Three decisions still ask whether the plan is empty, each for its
//! own reason: background repair engages only under a plan (nothing is
//! lost without one), coded frames ship only without one (a frame has
//! no per-packet NACK identity), and DSM-Sort gathers record tags for
//! its repair diff only under one (`lmas-sort`).
//!
//! Because the detector and link-loss schedules are static timelines and
//! every remaining protocol message (NACK bounces, end-of-stream marks,
//! balancer reports and weight updates) travels with at least the minimum
//! cross-node delay, faulted and balanced runs partition cleanly: the
//! parallel engine replays them byte-identically (see
//! [`EmulationReport::par_fallback`] for the few shapes that still
//! route sequentially).
//!
//! ## Layout
//!
//! This file holds the entry points, [`JobError`], the report types and
//! the one place that decides how a job executes. One builder (`build`)
//! compiles every job, driven as partition 0 of 1 on the plain calendar
//! or as `P` partitions under [`lmas_sim::run_partitioned`]. The actors
//! live one protocol per file, mirroring DESIGN.md §5: `msg`, `instance`
//! (dataflow), `eos` (end-of-stream countdowns), `fault_ctl`, `balancer`,
//! `repair_actors`, `sched_actor`.
//!
//! [`DetectedTimeline`]: crate::fault::DetectedTimeline
//! [`Router::pick_routed`]: lmas_core::Router::pick_routed

mod balancer;
mod build;
mod eos;
mod fault_ctl;
mod instance;
mod msg;
mod repair_actors;
mod sched_actor;

pub(crate) use sched_actor::SchedSetup;

use crate::config::ClusterConfig;
use crate::fault::{FaultSpec, FaultStats, NodeHealth};
use crate::metrics::{SinkOutputs, StageQueueStats, StageUsage};
use crate::repair::{RepairSample, RepairStats};
use build::{assemble, parallel_eligible, Shared};
use lmas_core::{
    FlowGraph, GraphError, NodeId, Packet, Placement, PlacementError, Record, StageId,
};
use lmas_sim::{run_partitioned, FaultEvent, LogHist, RunOutcome, SimDuration, Simulation, Trace};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A complete job: what to run, where, and on which data.
pub struct Job<R: Record> {
    /// The dataflow program.
    pub graph: FlowGraph<R>,
    /// Instance → node assignment.
    pub placement: Placement,
    /// External input per **source** stage instance: the packets stored
    /// on that instance's node, streamed in through the disk model.
    pub inputs: BTreeMap<(usize, usize), Vec<Packet<R>>>,
}

/// Why a job could not run (or could not finish).
#[derive(Debug)]
pub enum JobError {
    /// The graph failed validation.
    Graph(GraphError),
    /// The placement failed validation.
    Placement(PlacementError),
    /// Input supplied for an instance that is not a source.
    InputForNonSource {
        /// Stage index.
        stage: usize,
        /// Instance index.
        instance: usize,
    },
    /// Input supplied for a `(stage, instance)` the graph does not have
    /// (stage out of range, or instance at or past the replication).
    InputForUnknownInstance {
        /// Stage index.
        stage: usize,
        /// Instance index.
        instance: usize,
    },
    /// A non-source stage has no incoming edge (it would never start).
    DisconnectedStage(StageId),
    /// A multi-tenant run ([`run_jobs`](crate::multi::run_jobs)) was
    /// handed an empty job list.
    NoJobs,
    /// An instance has no node assigned (surfaced as a typed error so a
    /// fault-injected run never aborts the process).
    UnplacedInstance {
        /// Stage index.
        stage: usize,
        /// Instance index.
        instance: usize,
    },
    /// A fault-plan event names a node outside the cluster.
    FaultPlanNode {
        /// The offending node index (valid indices are
        /// `0..hosts + asus`).
        node: usize,
    },
    /// The repair spec does not fit the cluster (see
    /// [`RepairSpec::validate`](crate::repair::RepairSpec::validate)).
    RepairConfig(&'static str),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Graph(e) => write!(f, "graph error: {e}"),
            JobError::Placement(e) => write!(f, "placement error: {e}"),
            JobError::InputForNonSource { stage, instance } => {
                write!(
                    f,
                    "input supplied for non-source stage {stage} instance {instance}"
                )
            }
            JobError::InputForUnknownInstance { stage, instance } => {
                write!(
                    f,
                    "input supplied for stage {stage} instance {instance}, which does not exist"
                )
            }
            JobError::DisconnectedStage(s) => {
                write!(f, "non-source stage {s:?} has no incoming edge")
            }
            JobError::NoJobs => write!(f, "no jobs to run"),
            JobError::UnplacedInstance { stage, instance } => {
                write!(f, "stage {stage} instance {instance} has no node assigned")
            }
            JobError::FaultPlanNode { node } => {
                write!(
                    f,
                    "fault plan names node {node}, which is not in the cluster"
                )
            }
            JobError::RepairConfig(why) => write!(f, "repair spec invalid: {why}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<GraphError> for JobError {
    fn from(e: GraphError) -> Self {
        JobError::Graph(e)
    }
}

impl From<PlacementError> for JobError {
    fn from(e: PlacementError) -> Self {
        JobError::Placement(e)
    }
}

/// Summary of one node after a run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Which node.
    pub id: NodeId,
    /// Mean CPU utilization over the run.
    pub mean_cpu_util: f64,
    /// Total CPU busy time.
    pub cpu_busy: SimDuration,
    /// CPU utilization per [`ClusterConfig::util_bin`] bin.
    pub cpu_series: Vec<f64>,
    /// Records processed on this node.
    pub records: u64,
    /// Disk counters: (reads, writes, bytes read, bytes written),
    /// aggregated across the node's spindles.
    pub disk: (u64, u64, u64, u64),
    /// Per-spindle transfer counters (one entry per disk; a single entry
    /// for unstriped nodes).
    pub per_disk: Vec<lmas_storage::BteStats>,
    /// Per-spindle media busy time, parallel to `per_disk`.
    pub per_disk_busy: Vec<SimDuration>,
    /// Buffer-pool counters (all zero when the pool is disabled).
    pub pool: lmas_storage::PoolStats,
    /// NIC busy time.
    pub nic_busy: SimDuration,
    /// Payload bytes this node put on the wire (zero-byte end-of-stream
    /// charges carry none) — the measured shuffle volume a coded edge
    /// divides by `r`.
    pub nic_bytes_tx: u64,
    /// Peak functor-state bytes observed.
    pub peak_state_bytes: usize,
    /// Health at the end of the run.
    pub health: NodeHealth,
}

/// The result of running a [`Job`].
#[derive(Debug)]
pub struct EmulationReport<R: Record> {
    /// Job completion time (all CPUs drained, disks quiesced).
    pub makespan: SimDuration,
    /// Per-node summaries: hosts first, then ASUs.
    pub nodes: Vec<NodeReport>,
    /// Declared work per stage, with stage names.
    pub stage_work: Vec<(String, lmas_core::Work)>,
    /// Records entering each stage.
    pub stage_records_in: Vec<u64>,
    /// Resource attribution per stage (indexed by stage id): CPU grant
    /// busy/wait, disk bytes and read latency, NIC payload bytes and
    /// serialization time charged on the stage's behalf. Observational
    /// only — identical virtual times with or without it — and the
    /// basis for per-job accounting in multi-tenant runs.
    pub stage_usage: Vec<StageUsage>,
    /// Sink outputs keyed by `(stage, instance)`, `(port, packet)` pairs.
    pub sink_outputs: SinkOutputs<R>,
    /// Total records processed.
    pub records_processed: u64,
    /// Memory-contract violations (empty on a clean run).
    pub mem_violations: Vec<String>,
    /// Simulator events dispatched while running the job.
    pub dispatched: u64,
    /// The same dispatches split by message kind; the rows sum to
    /// [`dispatched`](EmulationReport::dispatched).
    pub census: DispatchCensus,
    /// Event trace of the run (empty unless
    /// [`ClusterConfig::trace_capacity`] asked for one).
    pub trace: Trace,
    /// Nodes still down when the run ended (hosts-then-ASUs ids).
    /// Orchestration layers use this to tell which sink outputs were
    /// lost with their node.
    pub down_nodes: Vec<NodeId>,
    /// Fault-layer activity counters (all zero on a fault-free run).
    pub fault: FaultStats,
    /// Time-weighted per-instance backlog statistics, one entry per
    /// stage (sources never queue, so theirs stay zero): records routed
    /// to an instance and not yet started, those on the wire included —
    /// the depth `LoadAware` and `PowerOfTwoChoices` read, not the
    /// arrived queue each watched instance reports to the balancer.
    pub queue_stats: Vec<StageQueueStats>,
    /// Times the runtime balancer re-weighted replica routing (zero
    /// when disabled, never outside its deadband, or when no in-edge
    /// reads weights over more than one replica — in each case the run
    /// is byte-identical to a balancer-free one in virtual time).
    pub reweights: u64,
    /// Background re-replication counters (quiet unless the fault spec
    /// carried a [`RepairSpec`](crate::repair::RepairSpec)).
    pub repair: RepairStats,
    /// Replica-distribution trajectory: the blocks-per-copy-count
    /// histogram sampled every
    /// [`RepairSpec::sample_every`](crate::repair::RepairSpec::sample_every)
    /// (empty when sampling is off or repair never ran).
    pub repair_trajectory: Vec<RepairSample>,
    /// Final replica histogram, `hist[k]` = blocks with `k` available
    /// copies for `k = 0..=target` (empty when repair is off).
    pub replica_hist: Vec<u64>,
    /// Repair bytes *sourced* per ASU ordinal — the quantity the
    /// per-node repair-bandwidth cap paces (empty when repair is off).
    pub repair_src_bytes: Vec<u64>,
    /// Parallel-execution counters, present only when the partitioned
    /// engine ran the job ([`ClusterConfig::threads`] > 1 and the run was
    /// eligible). Everything *else* in the report is byte-identical
    /// either way; this field is the only trace the parallel kernel
    /// leaves.
    pub par: Option<ParRunStats>,
    /// Why a `threads > 1` run routed to the sequential engine anyway,
    /// or `None` when it ran partitioned (or never asked to). The
    /// reasons: `"scheduler"` (a gated multi-tenant run holds source
    /// seeds back until dispatch), `"backlog routing"` (a
    /// backlog-sensitive policy reads live cross-partition queue
    /// depths) and `"zero latency"` (no link latency, hence no
    /// lookahead). Always `None` at `threads == 1`.
    pub par_fallback: Option<&'static str>,
}

/// How the partitioned engine executed a run (see
/// [`ClusterConfig::with_threads`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParRunStats {
    /// Partitions (worker threads) actually used — `min(threads, hosts)`.
    pub partitions: usize,
    /// Conservative lookahead windows executed.
    pub windows: u64,
    /// Critical-path dispatches: `Σ_w max_p dispatches(p, w)`. The
    /// virtual-parallelism floor — `dispatched / critical_dispatched` is
    /// the model speedup an ideally parallel host could reach.
    pub critical_dispatched: u64,
    /// Cross-partition messages exchanged.
    pub remote_messages: u64,
    /// The closed form of the census's `EosMark` row: per upstream
    /// sender, the partitions other than its own that own one of its
    /// receivers. The row equals it once every sender reached end of
    /// stream; it is the one row that depends on the partition count by
    /// design.
    pub eos_marks: u64,
    /// Log2 histogram of conservative window widths (virtual ns).
    /// Deterministic: same run, same histogram.
    pub window_width_hist: LogHist,
    /// Log2 histogram of per-window barrier waits (wall-clock ns).
    /// **Not** deterministic — scheduling noise; never diff it.
    pub barrier_wait_hist: LogHist,
}

/// Dispatched events per message kind: how a run spends its events
/// (data, end of stream, fault, balance, repair and scheduler traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchCensus {
    counts: [u64; msg::KINDS.len()],
}

impl DispatchCensus {
    /// Count one dispatch of census row `kind`.
    pub(crate) fn note(&mut self, kind: usize) {
        self.counts[kind] += 1;
    }

    /// Add another partition's counts.
    pub(crate) fn absorb(&mut self, other: &DispatchCensus) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Every row as `(message kind, dispatches)`, zero rows included.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        msg::KINDS.iter().copied().zip(self.counts.iter().copied())
    }

    /// Dispatches of message kind `kind` (a variant name such as
    /// `"Eos"`); `None` for a name that is no message kind.
    pub fn get(&self, kind: &str) -> Option<u64> {
        self.rows().find(|&(k, _)| k == kind).map(|(_, n)| n)
    }

    /// All dispatches.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl fmt::Display for DispatchCensus {
    /// The non-zero rows as `Kind=count`, space-separated, in row order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for (kind, n) in self.rows().filter(|&(_, n)| n > 0) {
            write!(f, "{sep}{kind}={n}")?;
            sep = " ";
        }
        Ok(())
    }
}

impl<R: Record> EmulationReport<R> {
    /// The captured sink packets in `(stage, instance)` then emission
    /// order, borrowed — no records are copied. Packets arrive here by
    /// move from the sink actors, so the whole capture path is zero-copy.
    pub fn sink_packets(&self) -> impl Iterator<Item = &Packet<R>> {
        self.sink_outputs.values().flatten().map(|(_, p)| p)
    }

    /// All records captured at sinks, in `(stage, instance)` then
    /// emission order. Copies every record; prefer
    /// [`sink_packets`](EmulationReport::sink_packets) for read-only
    /// access.
    pub fn sink_records(&self) -> Vec<R> {
        self.sink_packets()
            .flat_map(|p| p.records().iter().cloned())
            .collect()
    }

    /// CPU utilization series of host `i`, or `None` when no such host
    /// was part of the run.
    pub fn try_host_cpu_series(&self, i: usize) -> Option<&[f64]> {
        self.nodes
            .iter()
            .find(|nr| nr.id == NodeId::Host(i))
            .map(|nr| nr.cpu_series.as_slice())
    }

    /// CPU utilization series of host `i`; empty when no such host was
    /// part of the run (see
    /// [`try_host_cpu_series`](EmulationReport::try_host_cpu_series) to
    /// distinguish that case).
    pub fn host_cpu_series(&self, i: usize) -> &[f64] {
        self.try_host_cpu_series(i).unwrap_or(&[])
    }
}

/// Run `job` on the cluster described by `cfg` with no faults.
pub fn run_job<R: Record>(
    cfg: &ClusterConfig,
    job: Job<R>,
) -> Result<EmulationReport<R>, JobError> {
    run_job_with_faults(cfg, &FaultSpec::none(), job)
}

/// Run `job` on the cluster described by `cfg` under the fault plan in
/// `spec`. [`run_job`] is this call with the empty plan, which seeds no
/// fault step and marks no node down, so it dispatches no fault event.
pub fn run_job_with_faults<R: Record>(
    cfg: &ClusterConfig,
    spec: &FaultSpec,
    job: Job<R>,
) -> Result<EmulationReport<R>, JobError> {
    run_job_inner(cfg, spec, job, None)
}

/// Validate the job, decide how it executes, and run the one builder
/// under the chosen driver. `sched` gates a merged multi-job graph
/// ([`run_jobs`](crate::multi::run_jobs)); such a run is
/// sequential-only (`threads > 1` records the `"scheduler"` fallback
/// reason).
pub(crate) fn run_job_inner<R: Record>(
    cfg: &ClusterConfig,
    spec: &FaultSpec,
    job: Job<R>,
    sched: Option<SchedSetup>,
) -> Result<EmulationReport<R>, JobError> {
    let Job {
        graph,
        placement,
        inputs,
    } = job;
    graph.validate()?;
    placement.validate(&graph.placement_rows(), cfg.asu_mem_bytes)?;
    for (s, stage) in graph.stages().iter().enumerate() {
        if !stage.is_source && graph.in_degree(StageId(s)) == 0 {
            return Err(JobError::DisconnectedStage(StageId(s)));
        }
    }
    for &(stage, instance) in inputs.keys() {
        match graph.stages().get(stage) {
            Some(st) if instance < st.replication => {
                if !st.is_source {
                    return Err(JobError::InputForNonSource { stage, instance });
                }
            }
            _ => return Err(JobError::InputForUnknownInstance { stage, instance }),
        }
    }
    for ev in spec.plan.sorted_events() {
        let bad = match ev {
            FaultEvent::LinkLoss { from, to, .. } => from.max(to),
            other => other.node(),
        };
        if bad >= cfg.total_nodes() {
            return Err(JobError::FaultPlanNode { node: bad });
        }
    }
    // A repair spec that does not fit the cluster is a typed error
    // whether or not a plan engages it — before anything runs.
    if let Some(rs) = &spec.repair {
        if let Err(why) = rs.validate(cfg.asus) {
            return Err(JobError::RepairConfig(why));
        }
    }

    // The partition decision, in one place. `threads > 1` asks for the
    // partitioned engine; three shapes it cannot reproduce stay on the
    // plain calendar and record why. Faulted and balanced runs
    // partition fine.
    let par_fallback: Option<&'static str> = if cfg.threads <= 1 {
        None
    } else if sched.is_some() {
        // Gated runs hold back source seeds until the scheduler
        // dispatches them — cross-partition control flow the
        // conservative engine has no lookahead for.
        Some("scheduler")
    } else if !parallel_eligible(&graph) {
        // Reads live cross-partition queue depths at pick time.
        Some("backlog routing")
    } else if cfg.link_latency.as_nanos() == 0 {
        // The link latency is the minimum cross-node delay, hence the
        // lookahead; zero leaves none.
        Some("zero latency")
    } else {
        None
    };
    // One partition per thread, at most one per host. A one-host
    // cluster still goes through `run_partitioned` (with one
    // partition) when asked to: that run is what proves the two
    // drivers agree.
    let partitions =
        (cfg.threads > 1 && par_fallback.is_none()).then(|| cfg.threads.min(cfg.hosts).max(1));

    let shared = Arc::new(Shared::new(cfg, spec, graph, &placement, partitions)?);
    let mut workers = shared.workers(inputs);
    let Some(nparts) = partitions else {
        // Sequential: partition 0 of 1 on the plain calendar, on this
        // thread — no keyed calendar, no barrier, nothing to reduce.
        let mut worker = workers.pop().expect("one partition");
        let mut sim = Simulation::new(cfg.seed);
        let built = worker.build_part(&mut sim, sched);
        let outcome = sim.run();
        debug_assert_eq!(outcome, RunOutcome::Drained, "job should drain");
        let dispatched = sim.dispatched();
        let part = worker.finish_part(built, sim, &|v| v);
        return Ok(assemble(
            &shared,
            vec![part],
            dispatched,
            None,
            par_fallback,
        ));
    };
    let outcome = run_partitioned(
        cfg.seed,
        Arc::new(shared.owners()),
        cfg.link_latency,
        workers,
    );
    let par = ParRunStats {
        partitions: nparts,
        windows: outcome.windows,
        critical_dispatched: outcome.critical_dispatched,
        remote_messages: outcome.remote_messages,
        eos_marks: shared.eos_marks,
        window_width_hist: outcome.window_width_hist,
        barrier_wait_hist: outcome.barrier_wait_hist,
    };
    Ok(assemble(
        &shared,
        outcome.results,
        outcome.dispatched,
        Some(par),
        None,
    ))
}
