//! DSM-Sort orchestration: the two passes of Figure 7 on the emulator.
//!
//! **Pass 1 (run formation).** The input, initially distributed across
//! the ASUs, streams through α-way distribute functors *on the ASUs*;
//! records travel to block-sort functors on the hosts that form sorted
//! runs of β records per subset; the runs return to the ASUs and are
//! stored (striped round-robin).
//!
//! **Pass 2 (merge).** Each ASU merges its locally stored runs γ₁ at a
//! time per subset; the merged runs of subset `b` flow to host-merge
//! instance `b`, which performs the final γ₂-way merge and stripes the
//! sorted subset back across the ASUs.
//!
//! The first pass is what Figure 9 times ("We report timings from the
//! first pass of sorting (run formation), omitting the final merge
//! phases"); [`run_dsm_sort`] runs both and verifies the output. What
//! the planner is told about the passes lives in [`crate::planner`].

use crate::config::{DsmConfig, DsmConfigError, LoadMode};
use crate::functors::{FullMergeFunctor, SubsetMergeFunctor};
use crate::planner::{plan_pass1, plan_pass2};
use lmas_core::functor::lib::{BlockSortFunctor, DistributeFunctor, RelayFunctor};
use lmas_core::kernels::splitters_of_keys;
use lmas_core::{
    packetize, EdgeKind, FlowGraph, Functor, NodeId, Packet, Placement, Record, RouteScope,
    RoutingPolicy, StageId,
};
use lmas_plan::PlanOutcome;
use lmas_emulator::{
    run_job, run_job_with_faults, ClusterConfig, EmulationReport, FaultSpec, Job, JobError,
};
use lmas_sim::SimDuration;
use std::collections::BTreeMap;
use std::fmt;

/// The planner's wiring contract was violated when compiling a pass
/// graph: a placement decision requires data the caller did not supply.
/// Typed (rather than a panic) so orchestration layers can report which
/// wire broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanWireError {
    /// An explicit block-sort layout was selected but no sorter nodes
    /// were provided.
    MissingSorterNodes,
}

impl fmt::Display for PlanWireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanWireError::MissingSorterNodes => {
                write!(f, "explicit sorter layout selected but no sorter nodes supplied")
            }
        }
    }
}

impl std::error::Error for PlanWireError {}

/// DSM-Sort failure.
#[derive(Debug)]
pub enum DsmError {
    /// Bad configuration.
    Config(DsmConfigError),
    /// The emulator rejected a pass.
    Job(JobError),
    /// Input shape mismatch.
    InputShape(String),
    /// The planner could not place a pass (`LoadMode::Auto`).
    Plan(lmas_plan::PlanError),
    /// The planner's wiring was internally inconsistent.
    Wire(PlanWireError),
    /// Fault recovery found a record in the surviving runs more than
    /// once (a retry delivered after its original was processed).
    DuplicateSurvivor {
        /// The record's [`Record::tag64`].
        tag: u64,
        /// Every ASU whose runs hold a copy.
        asus: Vec<usize>,
    },
    /// Fault recovery found a record in the surviving runs whose tag the
    /// input never carried.
    ForeignSurvivor {
        /// The record's [`Record::tag64`].
        tag: u64,
        /// Every ASU whose runs hold it.
        asus: Vec<usize>,
    },
}

impl fmt::Display for DsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsmError::Config(e) => write!(f, "configuration: {e}"),
            DsmError::Job(e) => write!(f, "job: {e}"),
            DsmError::InputShape(s) => write!(f, "input: {s}"),
            DsmError::Plan(e) => write!(f, "planner: {e}"),
            DsmError::Wire(e) => write!(f, "plan wiring: {e}"),
            DsmError::DuplicateSurvivor { tag, asus } => write!(
                f,
                "recovery: record with tag {tag} survived pass 1 more than once (runs on ASUs {asus:?})"
            ),
            DsmError::ForeignSurvivor { tag, asus } => write!(
                f,
                "recovery: surviving record with tag {tag} (runs on ASUs {asus:?}) is not in the input"
            ),
        }
    }
}

impl std::error::Error for DsmError {}

impl From<DsmConfigError> for DsmError {
    fn from(e: DsmConfigError) -> Self {
        DsmError::Config(e)
    }
}

impl From<JobError> for DsmError {
    fn from(e: JobError) -> Self {
        DsmError::Job(e)
    }
}

impl From<PlanWireError> for DsmError {
    fn from(e: PlanWireError) -> Self {
        DsmError::Wire(e)
    }
}

/// Sorted runs resident on each ASU: `runs[asu]` is that ASU's run
/// packets in storage order.
pub type RunsPerAsu<R> = Vec<Vec<Packet<R>>>;

/// Result of pass 1: the emulation report and the sorted runs now stored
/// on each ASU.
pub struct Pass1Result<R: Record> {
    /// Timing and utilization of the pass.
    pub report: EmulationReport<R>,
    /// Runs stored per ASU (striped round-robin by the collector stage).
    pub runs_per_asu: Vec<Vec<Packet<R>>>,
    /// The planner's account when the pass ran under
    /// [`LoadMode::Auto`]; `None` for static/managed placement.
    pub plan: Option<PlanOutcome>,
    /// Coded broadcast-group size the distribute edge actually ran with
    /// (planner-chosen in Auto mode, `DsmConfig::coded_r` otherwise).
    pub coded_r: usize,
}

/// Result of pass 2: the report and the final sorted stripes.
pub struct Pass2Result<R: Record> {
    /// Timing and utilization of the pass.
    pub report: EmulationReport<R>,
    /// Sorted output stripes as stored across the ASUs.
    pub output: Vec<Packet<R>>,
    /// The planner's account when the pass ran under
    /// [`run_pass2_auto`]; `None` for the static layout.
    pub plan: Option<PlanOutcome>,
}

/// Outcome of a full two-pass DSM-Sort.
pub struct DsmOutcome<R: Record> {
    /// Pass-1 report (the quantity Figure 9 measures).
    pub pass1: EmulationReport<R>,
    /// Pass-2 report.
    pub pass2: EmulationReport<R>,
    /// Total emulated time (pass 1 + pass 2).
    pub total: SimDuration,
    /// Final sorted stripes.
    pub output: Vec<Packet<R>>,
    /// The splitters used by the distribute.
    pub splitters: Vec<<R as Record>::Key>,
    /// Planner decisions and analytic predictions when run under
    /// [`LoadMode::Auto`]; `None` otherwise.
    pub plan: Option<DsmPlanInfo>,
}

/// What the planner decided (and predicted) for an Auto-mode sort.
/// The predictions are the analytic estimator's makespans for the
/// placements actually run, so they can be validated against the
/// measured reports.
#[derive(Debug, Clone)]
pub struct DsmPlanInfo {
    /// Block-sort replicas per subset chosen for pass 1 (the winning
    /// replication degree of the candidate sweep).
    pub sorters_per_subset: usize,
    /// Coded broadcast-group size chosen for the pass-1 distribute
    /// shuffle (1 = uncoded; the predicted tradeoff curve behind the
    /// choice is in `pass1_report_json` under `coded_curve`).
    pub coded_r: usize,
    /// Predicted pass-1 makespan.
    pub pass1_predicted: SimDuration,
    /// Predicted pass-2 makespan.
    pub pass2_predicted: SimDuration,
    /// Machine-readable pass-1 plan report (JSON).
    pub pass1_report_json: String,
    /// Machine-readable pass-2 plan report (JSON).
    pub pass2_report_json: String,
}

/// Host index for static subset assignment: subset `i` of α pinned to a
/// contiguous block of hosts ("assigns half of the α distribute subsets
/// to one host, and the other half to the second host").
pub fn static_host_of(subset: usize, alpha: usize, hosts: usize) -> usize {
    (subset * hosts / alpha).min(hosts - 1)
}

/// When the cluster opted into functor-tuned prefetch
/// (`auto_read_ahead` with a buffer pool), return a copy of the config
/// with the read-ahead window set from the pass's source functor hint;
/// otherwise return the config unchanged.
fn tuned_cluster(cluster: &ClusterConfig, hint: usize) -> ClusterConfig {
    let mut c = *cluster;
    if c.storage.pool_frames > 0 && c.storage.auto_read_ahead {
        c.storage.read_ahead = hint.max(1);
    }
    c
}

/// Run pass 1 (distribute on ASUs → block-sort on hosts → runs back to
/// ASUs). `data_per_asu[d]` is ASU `d`'s initially resident input.
pub fn run_pass1<R: Record>(
    cluster: &ClusterConfig,
    data_per_asu: Vec<Vec<R>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    mode: LoadMode,
) -> Result<Pass1Result<R>, DsmError> {
    run_pass1_with(cluster, &FaultSpec::none(), data_per_asu, splitters, dsm, mode)
}

/// [`run_pass1`] under a fault plan. With an inactive spec this is
/// exactly `run_pass1`; under faults the report's `down_nodes` and
/// `fault` fields say what was lost, and
/// [`run_dsm_sort_faulty`](crate::fault::run_dsm_sort_faulty) knows how
/// to repair it.
pub fn run_pass1_with<R: Record>(
    cluster: &ClusterConfig,
    spec: &FaultSpec,
    data_per_asu: Vec<Vec<R>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    mode: LoadMode,
) -> Result<Pass1Result<R>, DsmError> {
    run_pass1_inner(cluster, spec, data_per_asu, splitters, dsm, mode, None)
}

/// Run pass 1 with an explicit block-sort placement: `sorter_nodes[b]`
/// hosts the (single) sorter of subset `b`, statically routed. This is
/// the manual-layout hook the placement sweep benchmarks against the
/// planner (e.g. all sorters on hosts, or all on ASUs).
pub fn run_pass1_placed<R: Record>(
    cluster: &ClusterConfig,
    data_per_asu: Vec<Vec<R>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    sorter_nodes: &[NodeId],
) -> Result<Pass1Result<R>, DsmError> {
    if sorter_nodes.len() != dsm.alpha {
        return Err(DsmError::InputShape(format!(
            "{} sorter nodes for α = {} subsets",
            sorter_nodes.len(),
            dsm.alpha
        )));
    }
    run_pass1_inner(
        cluster,
        &FaultSpec::none(),
        data_per_asu,
        splitters,
        dsm,
        LoadMode::Static,
        Some(sorter_nodes),
    )
}

/// A pass-1 job built but not run — the job-factory hook for the
/// multi-tenant scheduler in `lmas-sched`. [`run_pass1`] is exactly
/// "build, run, collect"; this exposes the build so several tenants'
/// jobs can be merged into one [`lmas_emulator::multi::run_jobs`] call.
pub struct Pass1Job<R: Record> {
    /// The runnable (graph, placement, inputs) triple.
    pub job: Job<R>,
    /// Stage id of the collect sinks (the report's `sink_outputs` keys
    /// on it; in a merged graph, offset by the job's stage base).
    pub collect: StageId,
    /// Broadcast-group size actually wired on the distribute edge.
    pub coded_r: usize,
    /// Planner account when [`LoadMode::Auto`] chose the layout.
    pub plan: Option<PlanOutcome>,
    /// The (possibly read-ahead-tuned) cluster the job was built for —
    /// a pure function of the input cluster for a given record type, so
    /// same-cluster jobs share one merged multi-tenant run.
    pub cluster: ClusterConfig,
}

/// Build a pass-1 job without running it (see [`Pass1Job`]). Identical
/// validation and graph construction to [`run_pass1`].
pub fn build_pass1_job<R: Record>(
    cluster: &ClusterConfig,
    data_per_asu: Vec<Vec<R>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    mode: LoadMode,
) -> Result<Pass1Job<R>, DsmError> {
    build_pass1_inner(cluster, data_per_asu, splitters, dsm, mode, None)
}

/// Build a pass-1 job with an explicit sorter layout without running it
/// (the placed counterpart of [`build_pass1_job`]; interface mirrors
/// [`run_pass1_placed`]).
pub fn build_pass1_job_placed<R: Record>(
    cluster: &ClusterConfig,
    data_per_asu: Vec<Vec<R>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    sorter_nodes: &[NodeId],
) -> Result<Pass1Job<R>, DsmError> {
    if sorter_nodes.len() != dsm.alpha {
        return Err(DsmError::InputShape(format!(
            "{} sorter nodes for α = {} subsets",
            sorter_nodes.len(),
            dsm.alpha
        )));
    }
    build_pass1_inner(
        cluster,
        data_per_asu,
        splitters,
        dsm,
        LoadMode::Static,
        Some(sorter_nodes),
    )
}

fn run_pass1_inner<R: Record>(
    cluster: &ClusterConfig,
    spec: &FaultSpec,
    data_per_asu: Vec<Vec<R>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    mode: LoadMode,
    sorter_nodes: Option<&[NodeId]>,
) -> Result<Pass1Result<R>, DsmError> {
    let d = cluster.asus;
    let built = build_pass1_inner(cluster, data_per_asu, splitters, dsm, mode, sorter_nodes)?;
    let report = run_job_with_faults(&built.cluster, spec, built.job)?;
    let runs_per_asu = (0..d)
        .map(|asu| {
            report
                .sink_outputs
                .get(&(built.collect.0, asu))
                .map(|v| v.iter().map(|(_, p)| p.clone()).collect())
                .unwrap_or_default()
        })
        .collect();
    Ok(Pass1Result {
        report,
        runs_per_asu,
        coded_r: built.coded_r,
        plan: built.plan,
    })
}

fn build_pass1_inner<R: Record>(
    cluster: &ClusterConfig,
    data_per_asu: Vec<Vec<R>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    mode: LoadMode,
    sorter_nodes: Option<&[NodeId]>,
) -> Result<Pass1Job<R>, DsmError> {
    // Pass 1 is γ-independent: validate parameter shape only. The
    // two-pass capacity rule (α·β·γ ≥ n) is enforced by run_dsm_sort.
    dsm.validate_for(1)?;
    if data_per_asu.len() != cluster.asus {
        return Err(DsmError::InputShape(format!(
            "data_per_asu has {} entries for {} ASUs",
            data_per_asu.len(),
            cluster.asus
        )));
    }
    if splitters.len() + 1 != dsm.alpha {
        return Err(DsmError::InputShape(format!(
            "{} splitters do not make α = {} subsets",
            splitters.len(),
            dsm.alpha
        )));
    }

    let d = cluster.asus;
    let h = cluster.hosts;
    let alpha = dsm.alpha;
    let beta = dsm.beta;
    // Source functors know their streaming depth: let the distribute
    // stage pick the ASU read-ahead window when auto-tuning is on.
    let cluster = tuned_cluster(
        cluster,
        DistributeFunctor::<R>::new(splitters.clone()).read_ahead_hint(),
    );

    // Auto mode asks the planner first: it sweeps replication degrees
    // and host/ASU assignments over the declared costs, and the rest of
    // this function builds the graph the winning candidate describes.
    let n: u64 = data_per_asu.iter().map(|v| v.len() as u64).sum();
    let auto_plan = match mode {
        LoadMode::Auto => Some(plan_pass1::<R>(&cluster, dsm, n)?),
        _ => None,
    };

    let mut g: FlowGraph<R> = FlowGraph::new();
    let sp = splitters.clone();
    let distribute = g.add_source_stage(d, move |_| {
        Box::new(DistributeFunctor::<R>::new(sp.clone())) as Box<dyn Functor<R>>
    });
    let (sort_repl, scope, routing) = match (mode, &auto_plan) {
        // Explicit layout: one sorter per subset on the given node.
        _ if sorter_nodes.is_some() => (alpha, RouteScope::Global, RoutingPolicy::Static),
        (LoadMode::Static, _) => (alpha, RouteScope::Global, RoutingPolicy::Static),
        (LoadMode::Managed(policy), _) => (
            alpha * h,
            RouteScope::PortGroups { group_size: h },
            policy,
        ),
        (LoadMode::Auto, Some((k, _, _))) if *k > 1 => (
            alpha * k,
            RouteScope::PortGroups { group_size: *k },
            RoutingPolicy::PowerOfTwoChoices,
        ),
        (LoadMode::Auto, _) => (alpha, RouteScope::Global, RoutingPolicy::Static),
    };
    // The effective broadcast-group size: the planner's pick under
    // Auto, the configured value otherwise.
    let coded_r = match (&mode, &auto_plan) {
        (_, Some((_, r, _))) => *r,
        _ => dsm.coded_r,
    };
    let block_sort = g.add_stage(sort_repl, move |_| {
        Box::new(BlockSortFunctor::<R>::new(beta)) as Box<dyn Functor<R>>
    });
    let collect = g.add_stage(d, |_| {
        Box::new(RelayFunctor::new("collect-runs")) as Box<dyn Functor<R>>
    });
    g.connect_coded(distribute, block_sort, routing, EdgeKind::Set, scope, coded_r)
        .map_err(JobError::Graph)?;
    // Striped writeback of runs across the ASUs.
    g.connect(block_sort, collect, RoutingPolicy::RoundRobin, EdgeKind::Set)
        .map_err(JobError::Graph)?;

    let mut placement = Placement::new();
    placement.spread_over_asus(distribute, d, d);
    match (mode, &auto_plan) {
        _ if sorter_nodes.is_some() => {
            for (i, &node) in explicit_sorters(sorter_nodes)?.iter().enumerate() {
                placement.assign(block_sort, i, node);
            }
        }
        (LoadMode::Static, _) => {
            for i in 0..alpha {
                placement.assign(block_sort, i, NodeId::Host(static_host_of(i, alpha, h)));
            }
        }
        (LoadMode::Managed(_), _) => {
            // Instance b·H + j runs on host j: every subset has one
            // sorter per host.
            for i in 0..sort_repl {
                placement.assign(block_sort, i, NodeId::Host(i % h));
            }
        }
        (LoadMode::Auto, Some((_, _, out))) => {
            // The spec listed stages as [distribute, block-sort,
            // collect]; the block-sort assignment carries over verbatim
            // (instance b·k + j is sorter j of subset b).
            for (i, &node) in out.assignment[1].iter().enumerate() {
                placement.assign(block_sort, i, node);
            }
        }
        (LoadMode::Auto, None) => unreachable!("Auto always plans"),
    }
    placement.spread_over_asus(collect, d, d);

    let mut inputs = BTreeMap::new();
    for (asu, data) in data_per_asu.into_iter().enumerate() {
        inputs.insert(
            (distribute.0, asu),
            packetize(data, dsm.input_packet_records),
        );
    }

    Ok(Pass1Job {
        job: Job { graph: g, placement, inputs },
        collect,
        coded_r,
        plan: auto_plan.map(|(_, _, out)| out),
        cluster,
    })
}

/// Resolve an explicit sorter layout, or fail with the typed wire
/// error (instead of the panic this used to be) when the caller
/// selected an explicit layout without supplying the nodes.
fn explicit_sorters(sorter_nodes: Option<&[NodeId]>) -> Result<&[NodeId], PlanWireError> {
    sorter_nodes.ok_or(PlanWireError::MissingSorterNodes)
}

/// Run pass 2 (γ₁-way subset merges on ASUs → γ₂-way final merge per
/// subset on hosts → striped sorted output back to ASUs).
pub fn run_pass2<R: Record>(
    cluster: &ClusterConfig,
    runs_per_asu: Vec<Vec<Packet<R>>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
) -> Result<Pass2Result<R>, DsmError> {
    run_pass2_with(cluster, &FaultSpec::none(), runs_per_asu, splitters, dsm)
}

/// [`run_pass2`] under a fault plan (inactive spec ⇒ identical runs).
pub fn run_pass2_with<R: Record>(
    cluster: &ClusterConfig,
    spec: &FaultSpec,
    runs_per_asu: Vec<Vec<Packet<R>>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
) -> Result<Pass2Result<R>, DsmError> {
    run_pass2_inner(cluster, spec, runs_per_asu, splitters, dsm, None)
}

/// [`run_pass2`] with the host-merge placement chosen by the planner
/// from the declared merge costs — the `LoadMode::Auto` merge phase.
pub fn run_pass2_auto<R: Record>(
    cluster: &ClusterConfig,
    runs_per_asu: Vec<Vec<Packet<R>>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
) -> Result<Pass2Result<R>, DsmError> {
    let n: u64 = runs_per_asu
        .iter()
        .flatten()
        .map(|p| p.len() as u64)
        .sum();
    let outcome = plan_pass2::<R>(cluster, dsm, n)?;
    let hosts = outcome.assignment[1].clone();
    let mut res = run_pass2_inner(
        cluster,
        &FaultSpec::none(),
        runs_per_asu,
        splitters,
        dsm,
        Some(&hosts),
    )?;
    res.plan = Some(outcome);
    Ok(res)
}

/// Pass 2 as `mode` runs it: the planner's host-merge placement under
/// [`LoadMode::Auto`], the static layout otherwise. Every driver (plain,
/// multi-pass, faulted) makes that choice here.
pub(crate) fn run_pass2_in_mode<R: Record>(
    cluster: &ClusterConfig,
    runs_per_asu: Vec<Vec<Packet<R>>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    mode: LoadMode,
) -> Result<Pass2Result<R>, DsmError> {
    match mode {
        LoadMode::Auto => run_pass2_auto(cluster, runs_per_asu, splitters, dsm),
        _ => run_pass2(cluster, runs_per_asu, splitters, dsm),
    }
}

fn run_pass2_inner<R: Record>(
    cluster: &ClusterConfig,
    spec: &FaultSpec,
    runs_per_asu: Vec<Vec<Packet<R>>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    host_merge_nodes: Option<&[NodeId]>,
) -> Result<Pass2Result<R>, DsmError> {
    if runs_per_asu.len() != cluster.asus {
        return Err(DsmError::InputShape(format!(
            "runs_per_asu has {} entries for {} ASUs",
            runs_per_asu.len(),
            cluster.asus
        )));
    }
    let d = cluster.asus;
    let h = cluster.hosts;
    let alpha = dsm.alpha;
    let (gamma1, gamma2) = (dsm.gamma1, dsm.gamma2);
    let stripe = dsm.stripe_records;
    let cluster = tuned_cluster(
        cluster,
        SubsetMergeFunctor::<R>::new(splitters.clone(), gamma1).read_ahead_hint(),
    );

    let mut g: FlowGraph<R> = FlowGraph::new();
    let sp = splitters.clone();
    let asu_merge = g.add_source_stage(d, move |_| {
        Box::new(SubsetMergeFunctor::<R>::new(sp.clone(), gamma1)) as Box<dyn Functor<R>>
    });
    let host_merge = g.add_stage(alpha, move |_| {
        Box::new(FullMergeFunctor::<R>::new(gamma2, stripe)) as Box<dyn Functor<R>>
    });
    let collect = g.add_stage(d, |_| {
        Box::new(RelayFunctor::new("collect-sorted")) as Box<dyn Functor<R>>
    });
    // Subset port b → host-merge instance b; coded when configured.
    g.connect_coded(
        asu_merge,
        host_merge,
        RoutingPolicy::Static,
        EdgeKind::Set,
        RouteScope::Global,
        dsm.coded_r,
    )
    .map_err(JobError::Graph)?;
    g.connect(host_merge, collect, RoutingPolicy::RoundRobin, EdgeKind::Set)
        .map_err(JobError::Graph)?;

    let mut placement = Placement::new();
    placement.spread_over_asus(asu_merge, d, d);
    match host_merge_nodes {
        Some(nodes) => {
            for (i, &node) in nodes.iter().enumerate() {
                placement.assign(host_merge, i, node);
            }
        }
        None => {
            placement.spread_over_hosts(host_merge, alpha, h);
        }
    }
    placement.spread_over_asus(collect, d, d);

    let mut inputs = BTreeMap::new();
    for (asu, runs) in runs_per_asu.into_iter().enumerate() {
        inputs.insert((asu_merge.0, asu), runs);
    }

    let report = run_job_with_faults(&cluster, spec, Job { graph: g, placement, inputs })?;
    let output = report
        .sink_outputs
        .values()
        .flatten()
        .map(|(_, p)| p.clone())
        .collect();
    Ok(Pass2Result { report, output, plan: None })
}

/// Outcome of a multi-pass DSM-Sort (γ too small for two passes).
pub struct DsmMultiOutcome<R: Record> {
    /// Pass-1 (run formation) report.
    pub pass1: EmulationReport<R>,
    /// One report per intermediate ASU-local merge pass.
    pub intermediate: Vec<EmulationReport<R>>,
    /// The final (host-involving) merge pass report.
    pub final_merge: EmulationReport<R>,
    /// Total emulated time across all passes.
    pub total: SimDuration,
    /// Final sorted stripes.
    pub output: Vec<Packet<R>>,
    /// The splitters used.
    pub splitters: Vec<<R as Record>::Key>,
}

/// One intermediate merge pass: every ASU merges its *local* runs γ₁ at
/// a time, per subset, writing the longer runs back locally — no network
/// traffic, matching the paper's host↔ASU-only communication model.
pub fn run_intermediate_merge<R: Record>(
    cluster: &ClusterConfig,
    runs_per_asu: Vec<Vec<Packet<R>>>,
    splitters: Vec<R::Key>,
    gamma1: usize,
) -> Result<(EmulationReport<R>, RunsPerAsu<R>), DsmError> {
    let d = cluster.asus;
    if runs_per_asu.len() != d {
        return Err(DsmError::InputShape(format!(
            "runs_per_asu has {} entries for {} ASUs",
            runs_per_asu.len(),
            d
        )));
    }
    let cluster = tuned_cluster(
        cluster,
        SubsetMergeFunctor::<R>::new(splitters.clone(), gamma1).read_ahead_hint(),
    );
    let mut g: FlowGraph<R> = FlowGraph::new();
    let sp = splitters.clone();
    // Source == sink: merged runs stay on their ASU.
    let merge = g.add_source_stage(d, move |_| {
        Box::new(SubsetMergeFunctor::<R>::new(sp.clone(), gamma1)) as Box<dyn Functor<R>>
    });
    let mut placement = Placement::new();
    placement.spread_over_asus(merge, d, d);
    let mut inputs = BTreeMap::new();
    for (asu, runs) in runs_per_asu.into_iter().enumerate() {
        inputs.insert((merge.0, asu), runs);
    }
    let report = run_job(&cluster, Job { graph: g, placement, inputs })?;
    let merged = (0..d)
        .map(|asu| {
            report
                .sink_outputs
                .get(&(merge.0, asu))
                .map(|v| v.iter().map(|(_, p)| p.clone()).collect())
                .unwrap_or_default()
        })
        .collect();
    Ok((report, merged))
}

/// Largest number of runs any single subset contributes to the final
/// host merge (after the pass-2 ASU-side γ₁ reduction).
fn max_host_fanin<R: Record>(
    runs_per_asu: &[Vec<Packet<R>>],
    splitters: &[R::Key],
    gamma1: usize,
) -> usize {
    let alpha = splitters.len() + 1;
    let mut per_subset = vec![0usize; alpha];
    for runs in runs_per_asu {
        let mut local = vec![0usize; alpha];
        for run in runs {
            if let Some(k) = run.min_key() {
                local[lmas_core::kernels::bucket_of(k, splitters)] += 1;
            }
        }
        for (s, &c) in local.iter().enumerate() {
            per_subset[s] += c.div_ceil(gamma1);
        }
    }
    per_subset.into_iter().max().unwrap_or(0)
}

/// Full DSM-Sort that inserts intermediate ASU-local merge passes while
/// the final host fan-in would exceed γ₂ — "more passes may
/// theoretically be required if γ is small, but two passes are
/// sufficient in practice" (Section 4.3). A safety valve errors out
/// rather than looping if γ₁ = 1 can make no progress.
pub fn run_dsm_sort_multipass<R: Record>(
    cluster: &ClusterConfig,
    data: Vec<R>,
    dsm: &DsmConfig,
    mode: LoadMode,
) -> Result<DsmMultiOutcome<R>, DsmError> {
    // Multi-pass relaxes the two-pass capacity rule: validate parameter
    // shape only (nonzero knobs), not α·β·γ ≥ n.
    dsm.validate_for(1)?;
    if dsm.gamma1 < 2 {
        return Err(DsmError::InputShape(
            "multi-pass merging needs γ₁ ≥ 2 to make progress".into(),
        ));
    }
    let splitters = choose_splitters(&data, dsm.alpha);
    let per_asu = split_across_asus(&data, cluster.asus);
    drop(data);
    let p1 = run_pass1(cluster, per_asu, splitters.clone(), dsm, mode)?;
    let mut total = p1.report.makespan;
    let mut runs = p1.runs_per_asu;
    let mut intermediate = Vec::new();
    while max_host_fanin(&runs, &splitters, dsm.gamma1) > dsm.gamma2 {
        let (report, merged) =
            run_intermediate_merge(cluster, runs, splitters.clone(), dsm.gamma1)?;
        total += report.makespan;
        intermediate.push(report);
        runs = merged;
        if intermediate.len() > 64 {
            return Err(DsmError::InputShape(
                "merge did not converge in 64 passes".into(),
            ));
        }
    }
    let p2 = run_pass2_in_mode(cluster, runs, splitters.clone(), dsm, mode)?;
    total += p2.report.makespan;
    Ok(DsmMultiOutcome {
        pass1: p1.report,
        intermediate,
        final_merge: p2.report,
        total,
        output: p2.output,
        splitters,
    })
}

/// Sample-based splitter selection for an α-way distribute over `data`.
pub fn choose_splitters<R: Record>(data: &[R], alpha: usize) -> Vec<R::Key> {
    let sample_target = (alpha * 64).max(1024).min(data.len().max(1));
    let stride = (data.len() / sample_target).max(1);
    let sample: Vec<R::Key> = data.iter().step_by(stride).map(Record::key).collect();
    splitters_of_keys(sample, alpha)
}

/// Split `data` into `d` near-equal contiguous chunks (the "input data
/// initially distributed across the ASUs" layout).
pub fn split_across_asus<R: Clone>(data: &[R], d: usize) -> Vec<Vec<R>> {
    assert!(d > 0, "need at least one ASU");
    let n = data.len();
    (0..d)
        .map(|i| {
            let lo = i * n / d;
            let hi = (i + 1) * n / d;
            data[lo..hi].to_vec()
        })
        .collect()
}

/// Run the full two-pass DSM-Sort on `data` (split contiguously across
/// the ASUs), with sampled splitters.
pub fn run_dsm_sort<R: Record>(
    cluster: &ClusterConfig,
    data: Vec<R>,
    dsm: &DsmConfig,
    mode: LoadMode,
) -> Result<DsmOutcome<R>, DsmError> {
    dsm.validate_for(data.len() as u64)?;
    let splitters = choose_splitters(&data, dsm.alpha);
    let per_asu = split_across_asus(&data, cluster.asus);
    drop(data);
    let p1 = run_pass1(cluster, per_asu, splitters.clone(), dsm, mode)?;
    let p2 = run_pass2_in_mode(cluster, p1.runs_per_asu, splitters.clone(), dsm, mode)?;
    let total = p1.report.makespan + p2.report.makespan;
    let plan = plan_info(dsm, p1.coded_r, p1.plan.as_ref(), p2.plan.as_ref());
    Ok(DsmOutcome {
        pass1: p1.report,
        pass2: p2.report,
        total,
        output: p2.output,
        splitters,
        plan,
    })
}

/// Fold the two pass plans into a [`DsmPlanInfo`] (both present only in
/// Auto mode).
fn plan_info(
    dsm: &DsmConfig,
    coded_r: usize,
    p1: Option<&PlanOutcome>,
    p2: Option<&PlanOutcome>,
) -> Option<DsmPlanInfo> {
    let (p1, p2) = (p1?, p2?);
    Some(DsmPlanInfo {
        sorters_per_subset: p1.assignment[1].len() / dsm.alpha.max(1),
        coded_r,
        pass1_predicted: SimDuration::from_nanos(p1.estimate.makespan_ns as u64),
        pass2_predicted: SimDuration::from_nanos(p2.estimate.makespan_ns as u64),
        pass1_report_json: p1.report.render_json(),
        pass2_report_json: p2.report.render_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_host_assignment_splits_contiguously() {
        // 4 subsets over 2 hosts: halves.
        assert_eq!(static_host_of(0, 4, 2), 0);
        assert_eq!(static_host_of(1, 4, 2), 0);
        assert_eq!(static_host_of(2, 4, 2), 1);
        assert_eq!(static_host_of(3, 4, 2), 1);
        // More hosts than subsets: spread, clamped.
        assert_eq!(static_host_of(0, 2, 4), 0);
        assert_eq!(static_host_of(1, 2, 4), 2);
        // α = 1 on any host count stays in range.
        assert_eq!(static_host_of(0, 1, 3), 0);
    }

    #[test]
    fn split_across_asus_covers_everything() {
        let data: Vec<u32> = (0..10).collect();
        let chunks = split_across_asus(&data, 3);
        assert_eq!(chunks.len(), 3);
        let flat: Vec<u32> = chunks.concat();
        assert_eq!(flat, data);
        assert!(chunks.iter().all(|c| !c.is_empty()));
    }

    #[test]
    fn choose_splitters_has_alpha_minus_one_keys() {
        let data = lmas_core::generate_rec8(10_000, lmas_core::KeyDist::Uniform, 1);
        let sp = choose_splitters(&data, 16);
        assert_eq!(sp.len(), 15);
        assert!(sp.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn missing_sorter_layout_is_a_typed_error() {
        assert_eq!(
            explicit_sorters(None),
            Err(PlanWireError::MissingSorterNodes)
        );
        let nodes = [NodeId::Host(0), NodeId::Host(1)];
        assert_eq!(explicit_sorters(Some(&nodes)).unwrap(), &nodes);
        let err = DsmError::from(PlanWireError::MissingSorterNodes);
        assert!(err.to_string().contains("sorter"));
    }
}
