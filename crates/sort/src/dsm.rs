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
//! phases"). [`run_dsm_sort`], [`run_dsm_sort_multipass`] and
//! [`run_dsm_sort_faulty`](crate::fault::run_dsm_sort_faulty) are one
//! driver: pass 1, the repair of whatever a fault plan lost, the
//! ASU-local intermediate merges the multi-pass entry allows, then
//! pass 2, all reported in one [`DsmOutcome`]. What the planner is told
//! about the passes lives in [`crate::planner`].

use crate::config::{DsmConfig, DsmConfigError, LoadMode};
use crate::fault::{repair_lost, TagIndex};
use crate::functors::{FullMergeFunctor, SubsetMergeFunctor};
use crate::planner::{pass1_spec, pass2_spec, plan_pass1, plan_pass2};
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

/// Sorted runs resident on each ASU: `runs[asu]` is that ASU's run
/// packets in storage order.
pub type RunsPerAsu<R> = Vec<Vec<Packet<R>>>;

/// One ASU's initially resident pass-1 input, in either form the pass-1
/// builders take: records still to be cut into input packets
/// (`Vec<R>`, cut by [`packetize`]), or packets already cut at the input
/// packet size (`Vec<Packet<R>>`, e.g. from [`split_into_packets`]),
/// which are used as they are.
pub trait AsuInput<R: Record> {
    /// Records held.
    fn record_count(&self) -> u64;
    /// The source's input packets of at most `packet_records` records.
    fn into_packets(self, packet_records: usize) -> Vec<Packet<R>>;
}

impl<R: Record> AsuInput<R> for Vec<R> {
    fn record_count(&self) -> u64 {
        self.len() as u64
    }
    fn into_packets(self, packet_records: usize) -> Vec<Packet<R>> {
        packetize(self, packet_records)
    }
}

impl<R: Record> AsuInput<R> for Vec<Packet<R>> {
    fn record_count(&self) -> u64 {
        self.iter().map(|p| p.len() as u64).sum()
    }
    fn into_packets(self, packet_records: usize) -> Vec<Packet<R>> {
        debug_assert!(self.iter().all(|p| p.len() <= packet_records));
        self
    }
}

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
    /// [`LoadMode::Auto`]; `None` for the static layout.
    pub plan: Option<PlanOutcome>,
}

/// Outcome of a full DSM-Sort, whichever entry ran it: the plain
/// two-pass sort, the faulted sort with its repair pass, or the
/// multi-pass sort with its intermediate merges.
pub struct DsmOutcome<R: Record> {
    /// Pass-1 report (the quantity Figure 9 measures).
    pub pass1: EmulationReport<R>,
    /// The repair pass, when a fault plan lost records.
    pub repair: Option<EmulationReport<R>>,
    /// One report per intermediate ASU-local merge pass.
    pub intermediate: Vec<EmulationReport<R>>,
    /// Pass-2 (final merge) report.
    pub pass2: EmulationReport<R>,
    /// Total emulated time across every pass.
    pub total: SimDuration,
    /// Final sorted stripes.
    pub output: Vec<Packet<R>>,
    /// The splitters used by the distribute.
    pub splitters: Vec<<R as Record>::Key>,
    /// Planner decisions and analytic predictions when run under
    /// [`LoadMode::Auto`]; `None` otherwise.
    pub plan: Option<DsmPlanInfo>,
    /// Records the tag diff found missing and re-dispatched.
    pub recovered_records: u64,
    /// ASUs still down at the end of pass 1 (their stored runs were
    /// unreachable and their records went through repair).
    pub lost_asus: Vec<usize>,
    /// The realised fan-in of pass 2's widest host merge: the runs one
    /// subset's host merge received, each ASU contributing its runs of
    /// the subset γ₁-merged. Above γ₂ when a two-pass configuration runs
    /// wider than declared (e.g. more ASUs than γ₂); the multi-pass entry
    /// merges until it is at most γ₂.
    pub host_fanin: usize,
}

impl<R: Record> DsmOutcome<R> {
    /// Every pass's report in pass order: pass 1, the repair pass, the
    /// intermediate merges, pass 2.
    pub fn passes(&self) -> impl Iterator<Item = &EmulationReport<R>> {
        std::iter::once(&self.pass1)
            .chain(&self.repair)
            .chain(&self.intermediate)
            .chain(std::iter::once(&self.pass2))
    }
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
/// ASUs). `data_per_asu[d]` is ASU `d`'s initially resident input, as
/// records or as input packets ([`AsuInput`]).
pub fn run_pass1<R: Record>(
    cluster: &ClusterConfig,
    data_per_asu: Vec<impl AsuInput<R>>,
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
    data_per_asu: Vec<impl AsuInput<R>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    mode: LoadMode,
) -> Result<Pass1Result<R>, DsmError> {
    run_pass1_job(spec, build_pass1_job(cluster, data_per_asu, splitters, dsm, mode)?)
}

/// Run pass 1 with an explicit block-sort placement: `sorter_nodes[b]`
/// hosts the (single) sorter of subset `b`, statically routed. This is
/// the manual-layout hook the placement sweep benchmarks against the
/// planner (e.g. all sorters on hosts, or all on ASUs).
pub fn run_pass1_placed<R: Record>(
    cluster: &ClusterConfig,
    data_per_asu: Vec<impl AsuInput<R>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    sorter_nodes: &[NodeId],
) -> Result<Pass1Result<R>, DsmError> {
    let built = build_pass1_job_placed(cluster, data_per_asu, splitters, dsm, sorter_nodes)?;
    run_pass1_job(&FaultSpec::none(), built)
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
    data_per_asu: Vec<impl AsuInput<R>>,
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
    data_per_asu: Vec<impl AsuInput<R>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    sorter_nodes: &[NodeId],
) -> Result<Pass1Job<R>, DsmError> {
    build_pass1_inner(
        cluster,
        data_per_asu,
        splitters,
        dsm,
        LoadMode::Static,
        Some(sorter_nodes),
    )
}

/// Run a built pass-1 job under `spec` and collect the runs it stored.
fn run_pass1_job<R: Record>(
    spec: &FaultSpec,
    built: Pass1Job<R>,
) -> Result<Pass1Result<R>, DsmError> {
    let report = run_job_with_faults(&built.cluster, spec, built.job)?;
    let runs_per_asu = runs_at(&report, built.collect, built.cluster.asus);
    Ok(Pass1Result {
        report,
        runs_per_asu,
        coded_r: built.coded_r,
        plan: built.plan,
    })
}

fn build_pass1_inner<R: Record>(
    cluster: &ClusterConfig,
    data_per_asu: Vec<impl AsuInput<R>>,
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
    if let Some(nodes) = sorter_nodes.filter(|n| n.len() != dsm.alpha) {
        return Err(DsmError::InputShape(format!(
            "{} sorter nodes for α = {} subsets",
            nodes.len(),
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
    let n: u64 = data_per_asu.iter().map(AsuInput::record_count).sum();
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
    match (sorter_nodes, mode, &auto_plan) {
        (Some(nodes), _, _) => {
            for (i, &node) in nodes.iter().enumerate() {
                placement.assign(block_sort, i, node);
            }
        }
        (None, LoadMode::Static, _) => {
            for i in 0..alpha {
                placement.assign(block_sort, i, NodeId::Host(static_host_of(i, alpha, h)));
            }
        }
        (None, LoadMode::Managed(_), _) => {
            // Instance b·H + j runs on host j: every subset has one
            // sorter per host.
            for i in 0..sort_repl {
                placement.assign(block_sort, i, NodeId::Host(i % h));
            }
        }
        (None, LoadMode::Auto, Some((_, _, out))) => {
            // The spec listed stages as [distribute, block-sort,
            // collect]; the block-sort assignment carries over verbatim
            // (instance b·k + j is sorter j of subset b).
            for (i, &node) in out.assignment[1].iter().enumerate() {
                placement.assign(block_sort, i, node);
            }
        }
        (None, LoadMode::Auto, None) => unreachable!("Auto always plans"),
    }
    placement.spread_over_asus(collect, d, d);

    let mut inputs = BTreeMap::new();
    for (asu, data) in data_per_asu.into_iter().enumerate() {
        inputs.insert(
            (distribute.0, asu),
            data.into_packets(dsm.input_packet_records),
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

/// Run pass 2 (γ₁-way subset merges on ASUs → γ₂-way final merge per
/// subset on hosts → striped sorted output back to ASUs).
pub fn run_pass2<R: Record>(
    cluster: &ClusterConfig,
    runs_per_asu: Vec<Vec<Packet<R>>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
) -> Result<Pass2Result<R>, DsmError> {
    run_pass2_in_mode(cluster, runs_per_asu, splitters, dsm, LoadMode::Static)
}

/// Pass 2 as `mode` runs it: under [`LoadMode::Auto`] the planner places
/// the host merges from the declared merge costs; every other mode uses
/// the static layout.
fn run_pass2_in_mode<R: Record>(
    cluster: &ClusterConfig,
    runs_per_asu: Vec<Vec<Packet<R>>>,
    splitters: Vec<R::Key>,
    dsm: &DsmConfig,
    mode: LoadMode,
) -> Result<Pass2Result<R>, DsmError> {
    if runs_per_asu.len() != cluster.asus {
        return Err(DsmError::InputShape(format!(
            "runs_per_asu has {} entries for {} ASUs",
            runs_per_asu.len(),
            cluster.asus
        )));
    }
    let plan = match mode {
        LoadMode::Auto => Some(plan_pass2::<R>(cluster, dsm, records_in(&runs_per_asu))?),
        _ => None,
    };
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
    match &plan {
        // The spec listed stages as [ASU merge, host merge, collect].
        Some(out) => {
            for (i, &node) in out.assignment[1].iter().enumerate() {
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

    let report = run_job(&cluster, Job { graph: g, placement, inputs })?;
    let output = report.sink_packets().cloned().collect();
    Ok(Pass2Result { report, output, plan })
}

/// One intermediate merge pass: every ASU merges its *local* runs γ₁ at
/// a time, per subset, writing the longer runs back locally — no network
/// traffic, matching the paper's host↔ASU-only communication model.
fn run_intermediate_merge<R: Record>(
    cluster: &ClusterConfig,
    runs_per_asu: RunsPerAsu<R>,
    splitters: &[R::Key],
    gamma1: usize,
) -> Result<(EmulationReport<R>, RunsPerAsu<R>), DsmError> {
    let d = cluster.asus;
    let cluster = tuned_cluster(
        cluster,
        SubsetMergeFunctor::<R>::new(splitters.to_vec(), gamma1).read_ahead_hint(),
    );
    let mut g: FlowGraph<R> = FlowGraph::new();
    let sp = splitters.to_vec();
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
    let merged = runs_at(&report, merge, d);
    Ok((report, merged))
}

/// The packets `report` captured at instances `0..d` of sink `stage`:
/// the runs now stored on each ASU.
fn runs_at<R: Record>(report: &EmulationReport<R>, stage: StageId, d: usize) -> RunsPerAsu<R> {
    (0..d)
        .map(|asu| {
            report
                .sink_outputs
                .get(&(stage.0, asu))
                .map(|v| v.iter().map(|(_, p)| p.clone()).collect())
                .unwrap_or_default()
        })
        .collect()
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

/// Sample-based splitter selection for an α-way distribute over `data`.
pub fn choose_splitters<R: Record>(data: &[R], alpha: usize) -> Vec<R::Key> {
    let sample_target = (alpha * 64).max(1024).min(data.len().max(1));
    let stride = (data.len() / sample_target).max(1);
    let sample: Vec<R::Key> = data.iter().step_by(stride).map(Record::key).collect();
    splitters_of_keys(sample, alpha)
}

/// ASU `i`'s share of an `n`-record input split `d` ways: a near-equal
/// contiguous chunk.
fn asu_share(i: usize, n: usize, d: usize) -> std::ops::Range<usize> {
    i * n / d..(i + 1) * n / d
}

/// Split `data` into `d` near-equal contiguous chunks (the "input data
/// initially distributed across the ASUs" layout).
pub fn split_across_asus<R: Clone>(data: &[R], d: usize) -> Vec<Vec<R>> {
    assert!(d > 0, "need at least one ASU");
    (0..d).map(|i| data[asu_share(i, data.len(), d)].to_vec()).collect()
}

/// [`split_across_asus`] then [`packetize`] each chunk at
/// `packet_records`, in one copy: every record goes from `data` straight
/// into its ASU's input packet. Packet for packet the same as the
/// two-step form.
pub fn split_into_packets<R: Record>(
    data: &[R],
    d: usize,
    packet_records: usize,
) -> Vec<Vec<Packet<R>>> {
    split_gathering_tags(data, d, packet_records, None)
}

/// [`split_into_packets`], appending every record's [`Record::tag64`]
/// to `tags` (in input order) while its packet is copied, so a faulted
/// sort indexes its input without a second scan.
fn split_gathering_tags<R: Record>(
    data: &[R],
    d: usize,
    packet_records: usize,
    mut tags: Option<&mut Vec<u64>>,
) -> Vec<Vec<Packet<R>>> {
    assert!(d > 0, "need at least one ASU");
    assert!(packet_records > 0, "packet size must be positive");
    (0..d)
        .map(|i| {
            data[asu_share(i, data.len(), d)]
                .chunks(packet_records)
                .map(|c| {
                    if let Some(tags) = tags.as_deref_mut() {
                        tags.extend(c.iter().map(Record::tag64));
                    }
                    Packet::new(c.to_vec())
                })
                .collect()
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
    dsm_sort(cluster, &FaultSpec::none(), data, dsm, mode, MergePasses::Two)
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
) -> Result<DsmOutcome<R>, DsmError> {
    dsm_sort(cluster, &FaultSpec::none(), data, dsm, mode, MergePasses::AsNeeded)
}

/// Which merge passes follow pass 1; fixed by the entry point.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum MergePasses {
    /// The final merge only; the configuration must satisfy α·β·γ ≥ n.
    Two,
    /// Intermediate ASU-local merges while the final host fan-in would
    /// exceed γ₂, then the final merge.
    AsNeeded,
}

/// The one DSM-Sort driver behind every entry point: pass 1 under
/// `spec`, the repair of whatever the plan lost (`fault::repair_lost`),
/// the intermediate merges `passes` allows, then pass 2.
pub(crate) fn dsm_sort<R: Record>(
    cluster: &ClusterConfig,
    spec: &FaultSpec,
    data: Vec<R>,
    dsm: &DsmConfig,
    mode: LoadMode,
    passes: MergePasses,
) -> Result<DsmOutcome<R>, DsmError> {
    match passes {
        MergePasses::Two => dsm.validate_for(data.len() as u64)?,
        // Intermediate merges relax the two-pass capacity rule: validate
        // parameter shape only (nonzero knobs), not α·β·γ ≥ n.
        MergePasses::AsNeeded => {
            dsm.validate_for(1)?;
            if dsm.gamma1 < 2 {
                return Err(DsmError::InputShape(
                    "multi-pass merging needs γ₁ ≥ 2 to make progress".into(),
                ));
            }
        }
    }
    let splitters = choose_splitters(&data, dsm.alpha);
    let n = data.len() as u64;

    // Built (and the tags checked) before pass 1 runs, from the tags
    // the split gathers. Under an active plan the input stays alive as
    // the "replica" lost records are re-read from; without one nothing
    // can be lost and it is freed once split.
    let mut tags = spec.is_active().then(|| Vec::with_capacity(data.len()));
    let per_asu =
        split_gathering_tags(&data, cluster.asus, dsm.input_packet_records, tags.as_mut());
    let index = tags.map(TagIndex::from_tags).transpose()?;
    let replica = index.map(|index| (index, data));

    let p1 = run_pass1_with(cluster, spec, per_asu, splitters.clone(), dsm, mode)?;
    let mut runs = p1.runs_per_asu;
    let (repair, recovered_records, lost_asus) = match replica {
        Some(rep) => repair_lost(cluster, rep, &p1.report, &mut runs, &splitters, dsm, mode)?,
        None => (None, 0, Vec::new()),
    };
    let mut intermediate = Vec::new();
    let mut host_fanin = max_host_fanin(&runs, &splitters, dsm.gamma1);
    while passes == MergePasses::AsNeeded && host_fanin > dsm.gamma2 {
        let (report, merged) = run_intermediate_merge(cluster, runs, &splitters, dsm.gamma1)?;
        intermediate.push(report);
        runs = merged;
        host_fanin = max_host_fanin(&runs, &splitters, dsm.gamma1);
        if intermediate.len() > 64 {
            return Err(DsmError::InputShape(
                "merge did not converge in 64 passes".into(),
            ));
        }
    }
    // Pass 2 runs fault-free on the original cluster: the plan's events
    // already fired, and offline ASUs simply hold no runs to merge.
    let merged = records_in(&runs);
    let p2 = run_pass2_in_mode(cluster, runs, splitters.clone(), dsm, mode)?;
    let mut out = DsmOutcome {
        pass1: p1.report,
        repair,
        intermediate,
        pass2: p2.report,
        total: SimDuration::ZERO,
        output: p2.output,
        splitters,
        plan: plan_info::<R>(
            cluster.asus,
            dsm,
            (n, p1.coded_r, p1.plan.as_ref()),
            (merged, p2.plan.as_ref()),
        ),
        recovered_records,
        lost_asus,
        host_fanin,
    };
    out.total = out.passes().fold(SimDuration::ZERO, |t, r| t + r.makespan);
    Ok(out)
}

/// Records held by `runs`: what pass 2 merges (and plans for).
fn records_in<R: Record>(runs: &[Vec<Packet<R>>]) -> u64 {
    runs.iter().flatten().map(|p| p.len() as u64).sum()
}

/// Fold the two pass plans into a [`DsmPlanInfo`] (both present only in
/// Auto mode) on `d` ASUs: pass 1 planned `n1` records and chose
/// broadcast group `r`, pass 2 planned `n2`. Each JSON account is
/// rendered against the spec its plan was made from — for pass 1 the
/// winning `(k, r)` cell of the sweep.
fn plan_info<R: Record>(
    d: usize,
    dsm: &DsmConfig,
    (n1, r, p1): (u64, usize, Option<&PlanOutcome>),
    (n2, p2): (u64, Option<&PlanOutcome>),
) -> Option<DsmPlanInfo> {
    let (p1, p2) = (p1?, p2?);
    let k = p1.assignment[1].len() / dsm.alpha.max(1);
    Some(DsmPlanInfo {
        sorters_per_subset: k,
        coded_r: r,
        pass1_predicted: SimDuration::from_nanos(p1.estimate.makespan_ns as u64),
        pass2_predicted: SimDuration::from_nanos(p2.estimate.makespan_ns as u64),
        pass1_report_json: p1.render_json(&pass1_spec::<R>(dsm, d, n1, k, r)),
        pass2_report_json: p2.render_json(&pass2_spec::<R>(dsm, d, n2)),
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
    fn one_copy_split_equals_split_then_packetize() {
        let data = lmas_core::generate_rec8(1_000, lmas_core::KeyDist::Uniform, 3);
        // n = 0, n < d, packet size 1, packet size > n, and the ordinary
        // cases in between.
        for (n, d, packet) in [
            (0, 3, 4),
            (2, 5, 1),
            (3, 7, 64),
            (10, 3, 1),
            (10, 3, 11),
            (1_000, 4, 64),
            (1_000, 7, 1_024),
            (997, 16, 5),
        ] {
            let data = &data[..n];
            let want: Vec<Vec<Packet<lmas_core::Rec8>>> = split_across_asus(data, d)
                .into_iter()
                .map(|chunk| packetize(chunk, packet))
                .collect();
            assert_eq!(split_into_packets(data, d, packet), want, "n={n} d={d} packet={packet}");
        }
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
        let cluster = ClusterConfig::era_2002(2, 2, 8.0);
        let dsm = DsmConfig::new(2, 64, 4, 4);
        let data = lmas_core::generate_rec8(200, lmas_core::KeyDist::Uniform, 1);
        let splitters = choose_splitters(&data, dsm.alpha);
        let per_asu = split_across_asus(&data, cluster.asus);
        let one = [NodeId::Host(0)];
        let want = "1 sorter nodes for α = 2 subsets";
        match run_pass1_placed(&cluster, per_asu.clone(), splitters.clone(), &dsm, &one) {
            Err(DsmError::InputShape(s)) => assert_eq!(s, want),
            Err(e) => panic!("run_pass1_placed: {e}"),
            Ok(_) => panic!("run_pass1_placed accepted one sorter for α = 2"),
        }
        match build_pass1_job_placed(&cluster, per_asu, splitters, &dsm, &one) {
            Err(DsmError::InputShape(s)) => assert_eq!(s, want),
            Err(e) => panic!("build_pass1_job_placed: {e}"),
            Ok(_) => panic!("build_pass1_job_placed accepted one sorter for α = 2"),
        }
    }
}
