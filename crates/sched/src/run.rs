//! End-to-end multi-tenant runs: arrivals → planning → gate → emulator.
//!
//! [`run_scheduled`] replays an [`ArrivalSpec`] against a
//! [`PolicyGate`]: each arrival instantiates a pass-1 DSM-Sort job from
//! the tenant's job mix, phase-1 planning predicts its cost and
//! per-node footprint, and the merged job set runs concurrently on one
//! emulated cluster under the configured admission/fairness policy.
//!
//! Placement comes in two flavours, selected by [`SchedSpec::aware`]:
//!
//! - **naive** — every job takes the static block-subset layout
//!   ([`LoadMode::Static`]), so concurrent jobs stack their sorters on
//!   the same hosts;
//! - **interference-aware** — each job is planned against the
//!   [`ResidualCapacity`] left by the jobs predicted to still be
//!   running at its arrival, so planning places around them.
//!
//! Both paths are pure functions of `(cluster, dsm, spec)`: planning
//! uses predicted (not measured) occupancy, so the whole run — gate
//! decisions included — is byte-replayable from the seed.

use crate::error::SchedError;
use crate::policy::{GateConfig, JobShape, Policy, PolicyGate};
use lmas_core::{generate_rec8, KeyDist, Rec8};
use lmas_emulator::{
    run_jobs, ClusterConfig, FaultSpec, JobError, JobStats, SchedEvent, TenantJob,
};
use lmas_plan::{Estimate, ResidualCapacity};
use lmas_sim::{ArrivalSpec, SimDuration, SimTime};
use lmas_sort::{
    build_pass1_job, build_pass1_job_placed, choose_splitters, split_into_packets, DsmConfig,
    DsmError, LoadMode, Pass1Planner,
};

/// Everything a multi-tenant run needs beyond the cluster and sort
/// configuration. Build with [`SchedSpec::new`] and chain the `with_*`
/// setters.
#[derive(Debug, Clone)]
pub struct SchedSpec {
    /// The open-arrival schedule (who submits what, when).
    pub arrivals: ArrivalSpec,
    /// Record count per job kind: an arrival of kind `k` sorts
    /// `kind_records[k]` records.
    pub kind_records: Vec<u64>,
    /// Dispatch policy for queued jobs.
    pub policy: Policy,
    /// Max running jobs per tenant.
    pub quota: usize,
    /// Max queued jobs per tenant (arrivals beyond it are rejected).
    pub queue_cap: usize,
    /// Saturation threshold for the load gate (predicted per-node CPU
    /// occupancy).
    pub load_limit: f64,
    /// Per-tenant weights for [`Policy::WeightedFair`] (empty = all 1).
    pub weights: Vec<u64>,
    /// Interference-aware placement (residual-capacity planning) rather
    /// than the naive static layout.
    pub aware: bool,
    /// Seed for per-job input data (combined with the job index).
    pub seed: u64,
}

impl SchedSpec {
    /// A spec with permissive defaults: FCFS, quota 1, queue cap 8,
    /// load limit 1.0, uniform weights, naive placement. An empty
    /// `kind_records` is refused by [`run_scheduled`]
    /// ([`SchedRunError::NoJobKinds`]).
    pub fn new(arrivals: ArrivalSpec, kind_records: Vec<u64>) -> SchedSpec {
        SchedSpec {
            arrivals,
            kind_records,
            policy: Policy::Fcfs,
            quota: 1,
            queue_cap: 8,
            load_limit: 1.0,
            weights: Vec::new(),
            aware: false,
            seed: 0x5EED_0001,
        }
    }

    /// Set the dispatch policy.
    pub fn with_policy(mut self, policy: Policy) -> SchedSpec {
        self.policy = policy;
        self
    }

    /// Set the per-tenant running quota.
    pub fn with_quota(mut self, quota: usize) -> SchedSpec {
        self.quota = quota;
        self
    }

    /// Set the per-tenant queue bound.
    pub fn with_queue_cap(mut self, cap: usize) -> SchedSpec {
        self.queue_cap = cap;
        self
    }

    /// Set the load gate's saturation threshold.
    pub fn with_load_limit(mut self, limit: f64) -> SchedSpec {
        self.load_limit = limit;
        self
    }

    /// Set per-tenant weights (for [`Policy::WeightedFair`]).
    pub fn with_weights(mut self, weights: Vec<u64>) -> SchedSpec {
        self.weights = weights;
        self
    }

    /// Select interference-aware (residual-planned) placement.
    pub fn with_aware(mut self, aware: bool) -> SchedSpec {
        self.aware = aware;
        self
    }

    /// Set the input-data seed.
    pub fn with_seed(mut self, seed: u64) -> SchedSpec {
        self.seed = seed;
        self
    }
}

/// Why a whole multi-tenant run (as opposed to one job) failed.
#[derive(Debug)]
pub enum SchedRunError {
    /// Job construction failed (configuration or input shape).
    Dsm(DsmError),
    /// The emulator rejected the merged run.
    Job(JobError),
    /// [`SchedSpec::kind_records`] is empty: no arrival could name a
    /// job kind.
    NoJobKinds,
    /// An arrival names a job kind outside [`SchedSpec::kind_records`].
    UnknownKind {
        /// The arrival's position in firing order.
        job: usize,
        /// The kind it asked for.
        kind: usize,
        /// Job kinds the spec defines.
        kinds: usize,
    },
}

impl std::fmt::Display for SchedRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedRunError::Dsm(e) => write!(f, "job build: {e}"),
            SchedRunError::Job(e) => write!(f, "emulator: {e}"),
            SchedRunError::NoJobKinds => write!(f, "spec defines no job kinds"),
            SchedRunError::UnknownKind { job, kind, kinds } => write!(
                f,
                "arrival {job} asks for job kind {kind}, but the spec defines {kinds}"
            ),
        }
    }
}

impl std::error::Error for SchedRunError {}

impl From<DsmError> for SchedRunError {
    fn from(e: DsmError) -> Self {
        SchedRunError::Dsm(e)
    }
}

impl From<JobError> for SchedRunError {
    fn from(e: JobError) -> Self {
        SchedRunError::Job(e)
    }
}

/// Outcome of one multi-tenant run.
#[derive(Debug, Default)]
pub struct SchedOutcome {
    /// Policy name the run used (stable key: `fcfs`/`spjf`/`wfq`).
    pub policy: &'static str,
    /// Whether placement was interference-aware.
    pub aware: bool,
    /// Per-job outcomes, in arrival order (rejected jobs included).
    pub jobs: Vec<JobStats>,
    /// Job kind per job, parallel to `jobs`.
    pub kinds: Vec<usize>,
    /// Predicted makespan per job (the gate's scheduling currency),
    /// parallel to `jobs`.
    pub predicted_ns: Vec<u64>,
    /// Every gate transition, in virtual-time order.
    pub events: Vec<SchedEvent>,
    /// Typed rejection record, in rejection order.
    pub rejections: Vec<SchedError>,
    /// Merged-run makespan.
    pub makespan: SimDuration,
    /// Records processed across all dispatched jobs.
    pub records_processed: u64,
}

impl SchedOutcome {
    /// Completed job count.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.completed_at.is_some()).count()
    }

    /// Latency (arrival → completion) of completed jobs, sorted.
    pub fn latencies(&self) -> Vec<SimDuration> {
        let mut ls: Vec<SimDuration> = self.jobs.iter().filter_map(|j| j.latency()).collect();
        ls.sort();
        ls
    }

    /// Nearest-rank latency percentile over completed jobs (`p` in
    /// `(0, 1]`); `None` when nothing completed.
    pub fn latency_percentile(&self, p: f64) -> Option<SimDuration> {
        let ls = self.latencies();
        if ls.is_empty() {
            return None;
        }
        let rank = ((p * ls.len() as f64).ceil() as usize).clamp(1, ls.len());
        Some(ls[rank - 1])
    }

    /// Mean queue wait across all dispatched jobs.
    pub fn mean_queue_wait(&self) -> SimDuration {
        let waited: Vec<&JobStats> = self
            .jobs
            .iter()
            .filter(|j| j.dispatched_at.is_some())
            .collect();
        if waited.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = waited.iter().map(|j| j.queue_wait.as_nanos()).sum();
        SimDuration::from_nanos(total / waited.len() as u64)
    }

    /// Render the outcome as a deterministic JSON object (no float
    /// formatting ambiguity: everything integral).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"policy\": \"{}\",\n", self.policy));
        s.push_str(&format!("  \"aware\": {},\n", self.aware));
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs.len()));
        s.push_str(&format!("  \"completed\": {},\n", self.completed()));
        s.push_str(&format!("  \"rejected\": {},\n", self.rejections.len()));
        s.push_str(&format!(
            "  \"p50_latency_ns\": {},\n",
            self.latency_percentile(0.50)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        s.push_str(&format!(
            "  \"p99_latency_ns\": {},\n",
            self.latency_percentile(0.99)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        s.push_str(&format!(
            "  \"mean_queue_wait_ns\": {},\n",
            self.mean_queue_wait().as_nanos()
        ));
        s.push_str(&format!(
            "  \"makespan_ns\": {},\n",
            self.makespan.as_nanos()
        ));
        s.push_str(&format!(
            "  \"records_processed\": {},\n",
            self.records_processed
        ));
        s.push_str("  \"per_job\": [\n");
        for (j, stats) in self.jobs.iter().enumerate() {
            let lat = stats
                .latency()
                .map(|d| d.as_nanos().to_string())
                .unwrap_or_else(|| "null".into());
            s.push_str(&format!(
                "    {{\"tenant\": {}, \"kind\": {}, \"arrival_ns\": {}, \
                 \"predicted_ns\": {}, \"queue_wait_ns\": {}, \"latency_ns\": {}, \
                 \"rejected\": {}}}{}\n",
                stats.tenant,
                self.kinds[j],
                stats.arrival.0,
                self.predicted_ns[j],
                stats.queue_wait.as_nanos(),
                lat,
                stats.rejected,
                if j + 1 < self.jobs.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Congestion slack on predicted-active windows: a job is treated as
/// occupying its nodes for `WINDOW_STRETCH ×` its standalone makespan.
/// Contended jobs run slower than their solo estimate, so un-stretched
/// windows expire before the next arrival and planning would see an
/// empty cluster exactly when it matters most.
const WINDOW_STRETCH: f64 = 2.5;

/// Per-node predicted occupancy shares of one planned job, in
/// [`ResidualCapacity`] node order (hosts first, then ASUs).
struct Footprint {
    start: SimTime,
    done_pred: SimTime,
    cpu: Vec<f64>,
    disk: Vec<f64>,
    nic: Vec<f64>,
}

impl Footprint {
    /// How much of this job's occupancy is still ahead at `at`: 1 just
    /// after dispatch, linearly decaying to 0 at the predicted window
    /// end. Without the decay, a few overlapping windows drive every
    /// node to the residual floor and the planner loses the gradient
    /// that tells it which hosts are *more* loaded.
    fn remaining(&self, at: SimTime) -> f64 {
        if at >= self.done_pred {
            return 0.0;
        }
        let total = self.done_pred.0.saturating_sub(self.start.0).max(1);
        let left = self.done_pred.0.saturating_sub(at.0);
        (left as f64 / total as f64).clamp(0.0, 1.0)
    }
}

/// Extract a job's predicted per-node occupancy from its *solo*
/// estimate: the fraction of the standalone makespan each node spends
/// busy on it. Residual estimates inflate with the congestion they
/// were planned under, so footprints always come from the full-rate
/// scoring of the chosen assignment — otherwise jobs planned on a busy
/// cluster would under-charge the gate and over-admit.
fn footprint(estimate: &Estimate, hosts: usize, nodes: usize, at: SimTime) -> Footprint {
    let mk = estimate.makespan_ns.max(1.0);
    let mut fp = Footprint {
        start: at,
        done_pred: at + SimDuration::from_nanos((mk * WINDOW_STRETCH) as u64),
        cpu: vec![0.0; nodes],
        disk: vec![0.0; nodes],
        nic: vec![0.0; nodes],
    };
    let fill = |slot: &mut Vec<f64>, loads: &[(lmas_core::NodeId, f64)]| {
        for &(node, ns) in loads {
            let ui = ResidualCapacity::node_index(hosts, node);
            if ui < slot.len() {
                slot[ui] += (ns / mk).clamp(0.0, 1.0);
            }
        }
    };
    fill(&mut fp.cpu, &estimate.node_cpu_ns);
    fill(&mut fp.disk, &estimate.node_disk_ns);
    fill(&mut fp.nic, &estimate.node_nic_ns);
    fp
}

/// Run the full multi-tenant pipeline (see the module docs).
///
/// # Errors
///
/// [`SchedRunError::NoJobKinds`] / [`SchedRunError::UnknownKind`] for a
/// spec whose arrivals cannot be matched to job kinds;
/// [`SchedRunError::Dsm`] / [`SchedRunError::Job`] for configuration,
/// input-shape, or emulator failures. Admission rejections are *not*
/// errors — they land in [`SchedOutcome::rejections`].
pub fn run_scheduled(
    cluster: &ClusterConfig,
    dsm: &DsmConfig,
    spec: &SchedSpec,
) -> Result<SchedOutcome, SchedRunError> {
    if spec.kind_records.is_empty() {
        return Err(SchedRunError::NoJobKinds);
    }
    let events = spec.arrivals.sorted_events();
    if events.is_empty() {
        return Ok(SchedOutcome {
            policy: spec.policy.name(),
            aware: spec.aware,
            ..SchedOutcome::default()
        });
    }
    // Checked before any input is cut into packets at the configured size.
    dsm.validate_for(1).map_err(DsmError::from)?;
    let tenants = events.iter().map(|e| e.tenant).max().unwrap_or(0) + 1;
    let nodes = cluster.hosts + cluster.asus;

    let mut tenant_jobs: Vec<TenantJob<Rec8>> = Vec::with_capacity(events.len());
    let mut shapes: Vec<JobShape> = Vec::with_capacity(events.len());
    let mut kinds: Vec<usize> = Vec::with_capacity(events.len());
    let mut predicted_ns: Vec<u64> = Vec::with_capacity(events.len());
    let mut shared_cluster: Option<ClusterConfig> = None;
    // One planner per job kind: its spec, shape and buffers are built
    // at the kind's first arrival and reused by every later one.
    let mut planners: Vec<Option<Pass1Planner>> =
        spec.kind_records.iter().map(|_| None).collect();
    // Footprints of the jobs still inside their predicted window, in
    // arrival order. Arrivals come time-sorted, so an expired window
    // stays expired and is dropped instead of rescanned; the live ones
    // keep their order, hence the `occupy` sums theirs.
    let mut live: Vec<Footprint> = Vec::new();
    let mut res = ResidualCapacity::full(nodes);

    for (j, e) in events.iter().enumerate() {
        let Some(&n) = spec.kind_records.get(e.kind) else {
            return Err(SchedRunError::UnknownKind {
                job: j,
                kind: e.kind,
                kinds: spec.kind_records.len(),
            });
        };
        let planner =
            planners[e.kind].get_or_insert_with(|| Pass1Planner::new::<Rec8>(cluster, dsm, n));
        let data_seed = spec.seed ^ ((j as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let data = generate_rec8(n, KeyDist::Uniform, data_seed);
        let splitters = choose_splitters(&data, dsm.alpha);
        let per_asu = split_into_packets(&data, cluster.asus, dsm.input_packet_records);

        let (assignment, built) = if spec.aware {
            // Plan against the capacity left by jobs predicted to still
            // be running at this arrival.
            live.retain(|fp| e.at < fp.done_pred);
            res.reset();
            for fp in &live {
                let w = fp.remaining(e.at);
                for u in 0..nodes {
                    res.occupy(u, fp.cpu[u] * w, fp.disk[u] * w, fp.nic[u] * w);
                }
            }
            let outcome = planner.plan_residual(&res)?;
            let built =
                build_pass1_job_placed(cluster, per_asu, splitters, dsm, &outcome.assignment[1])?;
            (outcome.assignment, built)
        } else {
            // Naive: predict on (and run with) the static block-subset
            // layout — concurrent jobs stack onto the same hosts.
            let outcome = planner.plan_static()?;
            let built = build_pass1_job(cluster, per_asu, splitters, dsm, LoadMode::Static)?;
            (outcome.assignment, built)
        };

        // Gate currency: the chosen assignment scored on an EMPTY
        // cluster. Same units for both paths — residual-planned jobs
        // are charged what they demand, not what congestion predicts.
        let solo = planner.estimate_solo(&assignment);
        let fp = footprint(&solo, cluster.hosts, nodes, e.at);
        let cost_ns = (solo.makespan_ns.max(1.0)) as u64;
        shapes.push(JobShape {
            tenant: e.tenant,
            cost_ns,
            cpu_share: fp.cpu.clone(),
        });
        if spec.aware {
            live.push(fp);
        }
        predicted_ns.push(cost_ns);
        kinds.push(e.kind);
        shared_cluster.get_or_insert(built.cluster);
        tenant_jobs.push(TenantJob {
            tenant: e.tenant,
            arrival: e.at,
            job: built.job,
        });
    }

    let (gate, rejection_log) = PolicyGate::new(
        GateConfig {
            policy: spec.policy,
            tenants,
            quota: spec.quota,
            queue_cap: spec.queue_cap,
            load_limit: spec.load_limit,
            weights: spec.weights.clone(),
        },
        shapes,
    );
    let run_cluster = shared_cluster.expect("at least one job was built");
    let rep = run_jobs(&run_cluster, &FaultSpec::none(), tenant_jobs, Box::new(gate))?;
    let rejections = rejection_log.borrow().clone();

    Ok(SchedOutcome {
        policy: spec.policy.name(),
        aware: spec.aware,
        jobs: rep.jobs,
        kinds,
        predicted_ns,
        events: rep.events,
        rejections,
        makespan: rep.report.makespan,
        records_processed: rep.report.records_processed,
    })
}
