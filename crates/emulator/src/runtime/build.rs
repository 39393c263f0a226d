//! The one engine build path: a `(FlowGraph, Placement)` pair compiles
//! onto the emulated machine exactly once.
//!
//! [`Shared`] holds the tables every partition reads, built once per
//! job. [`EmWorker::build_part`] installs one partition's actors and
//! seeds, [`EmWorker::finish_part`] harvests it after the drain, and
//! [`assemble`] merges the harvests into the report. The two drivers in
//! [`run_job_inner`](super) differ only in what they run the builder
//! on: the sequential engine is partition 0 of 1 on the plain calendar
//! (no thread, identity max-reduction, live gauges); the partitioned
//! engine is `P` workers under [`lmas_sim::run_partitioned`] (keyed
//! calendars, gauge journals).
//!
//! The contract that makes the two agree, stated once:
//!
//! - **Slot layout.** Actor ids are positions in `instances (stage-major)
//!   | one fault controller per partition | balancer | repair agents
//!   (ASU order) | repair coordinator | scheduler`; absent protocols
//!   take no slots. Balancer, coordinator and scheduler live on
//!   partition 0, everything else on its node's partition.
//! - **Seeding order.** Per owned instance, in slot order: `SourceNext`
//!   (sources of an ungated run) then `SampleTick` (watched instances);
//!   then fault steps, detections, repair steps, the repair sample grid
//!   and job arrivals.
//!
//! On the plain calendar slot and seed order fix every same-instant
//! tiebreak; on keyed calendars they fix the dispatch keys. Either way
//! a one-partition build is the sequential build.

use super::balancer::{watched_stages, SnapTarget, SnapshotBalancer};
use super::fault_ctl::{FaultController, FenceTargets};
use super::instance::{
    node_speed, Downstream, GaugeHandle, GaugePart, InstFlags, InstanceActor, InstanceFault,
    RaState, SampleState,
};
use super::msg::Msg;
use super::repair_actors::{RepairAgent, RepairCoordinator};
use super::sched_actor::{SchedActor, SchedSetup};
use super::{EmulationReport, JobError, NodeReport, ParRunStats};
use crate::config::ClusterConfig;
use crate::fault::{node_index, DetectedTimeline, FaultSpec, LossTimeline, NodeHealth};
use crate::metrics::{GaugeJournal, Metrics, StageGauge, StageQueueStats};
use crate::node::NodeRes;
use crate::repair::{repair_timeline, RepairEngine, RepairEv, RepairSpec};
use lmas_core::{FlowGraph, NodeId, Packet, Placement, Record, RouteScope, Router, StageId};
use lmas_sim::{
    ActorId, DetRng, FaultEvent, ParOps, PartitionWorker, SimDuration, SimTime, Simulation, Trace,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Whether the partitioned engine can reproduce this graph's routing
/// draws bit-for-bit. Backlog-sensitive policies (LoadAware, power of
/// two choices) read the live cross-partition queue depths at pick time,
/// which a deferred gauge journal cannot provide; they stay sequential.
/// Single-instance groups never exercise a choice, so any policy is fine
/// there.
pub(super) fn parallel_eligible<R: Record>(graph: &FlowGraph<R>) -> bool {
    use lmas_core::RoutingPolicy::{RoundRobin, SimpleRandomization, Static};
    graph.edges().iter().all(|e| {
        let group_size = match e.scope {
            RouteScope::Global => graph.stages()[e.to.0].replication,
            RouteScope::PortGroups { group_size } => group_size,
        };
        group_size <= 1 || matches!(e.routing, Static | RoundRobin | SimpleRandomization)
    })
}

/// The partition a node belongs to: hosts are split into `P` contiguous
/// blocks (host `h` → partition `h·P/H`), and ASU `a` is co-located
/// with host `a mod H` — the host that era-style placements pair it
/// with — so the dominant ASU→host data streams stay partition-local
/// and only inter-host traffic (which always pays
/// [`ClusterConfig::link_latency`], the lookahead) crosses threads.
///
/// Blocks, not `h mod P`: placements that stride hosts (e.g. Static
/// mode's `α` sorters at hosts `i·H/α`) collide onto one partition
/// whenever the stride is a multiple of `P`, serialising the run. A
/// contiguous split spreads any stride narrower than a block evenly.
/// (For `H ≤ 2` the two mappings coincide.)
fn node_partition(hosts: usize, nparts: usize, id: NodeId) -> u32 {
    let h = match id {
        NodeId::Host(h) => h,
        NodeId::Asu(a) => a % hosts,
    };
    (h * nparts / hosts) as u32
}

/// One row of the global instance table: stage-major order, so index
/// == global actor id == global instance tag.
struct InstSpec {
    stage: usize,
    instance: usize,
    node: NodeId,
    part: u32,
}

/// Source inputs keyed by `(stage, instance)`.
type Inputs<R> = BTreeMap<(usize, usize), Vec<Packet<R>>>;

/// Everything about a job that every partition reads and none writes,
/// computed once (the builder itself holds only per-partition state).
pub(super) struct Shared<R: Record> {
    cfg: ClusterConfig,
    spec: FaultSpec,
    /// The fault layer is on (a controller slot exists per partition).
    active: bool,
    /// Background re-replication is on (implies `active`).
    repair: Option<RepairSpec>,
    nparts: usize,
    /// The run is under `run_partitioned`: calendars are keyed, so
    /// gauge mutations are journaled instead of applied live.
    keyed: bool,
    /// Minimum cross-node delay — the control delay and the lookahead.
    ctl: SimDuration,
    graph: FlowGraph<R>,
    specs: Vec<InstSpec>,
    /// First global instance index of each stage.
    stage_base: Vec<usize>,
    /// EOS marks each instance of a stage waits for: one per upstream
    /// instance, plus a source's own end-of-input.
    eos_expected: Vec<usize>,
    /// Precomputed detector verdicts and link-loss schedule.
    detected: Arc<DetectedTimeline>,
    loss: Arc<LossTimeline>,
    /// Stages the balancer watches (empty = balancer off or idle).
    watched: Vec<usize>,
    /// Repair-coordinator event feed (empty when repair is off).
    repair_tl: Arc<Vec<(SimTime, RepairEv)>>,
    /// Fault-controller tables (empty when the fault layer is off).
    instances_on: Arc<Vec<Vec<usize>>>,
    inst_downstream: Arc<FenceTargets>,
    /// Slot layout (module docs): the balancer's slot, ASU ordinal 0's
    /// repair agent, and the first slot past every protocol actor — the
    /// scheduler's on a gated run.
    bal_slot: usize,
    agents_base: usize,
    sched_slot: usize,
}

impl<R: Record> Shared<R> {
    /// Resolve `placement` into the instance table and derive every
    /// shared table from it. `partitions` is `Some(P)` for a run under
    /// `run_partitioned`, `None` for the plain calendar.
    pub(super) fn new(
        cfg: &ClusterConfig,
        spec: &FaultSpec,
        graph: FlowGraph<R>,
        placement: &Placement,
        ctl: SimDuration,
        partitions: Option<usize>,
    ) -> Result<Shared<R>, JobError> {
        let nparts = partitions.unwrap_or(1);
        let stages = graph.stages();
        let mut specs: Vec<InstSpec> = Vec::new();
        let mut stage_base: Vec<usize> = Vec::with_capacity(stages.len());
        for (s, stage) in stages.iter().enumerate() {
            stage_base.push(specs.len());
            for i in 0..stage.replication {
                let node = placement
                    .node_of(StageId(s), i)
                    .ok_or(JobError::UnplacedInstance {
                        stage: s,
                        instance: i,
                    })?;
                specs.push(InstSpec {
                    stage: s,
                    instance: i,
                    node,
                    part: node_partition(cfg.hosts, nparts, node),
                });
            }
        }
        let mut eos_expected: Vec<usize> =
            stages.iter().map(|s| usize::from(s.is_source)).collect();
        for e in graph.edges() {
            eos_expected[e.to.0] += stages[e.from.0].replication;
        }

        let active = spec.is_active();
        let total_nodes = cfg.total_nodes();
        // Cheap to build and unused when inactive.
        let detected = Arc::new(DetectedTimeline::build(
            &spec.plan,
            spec.heartbeat_period,
            spec.heartbeat_timeout,
            total_nodes,
        ));
        let loss = Arc::new(LossTimeline::build(&spec.plan, total_nodes));
        let mut instances_on: Vec<Vec<usize>> = Vec::new();
        let mut inst_downstream: FenceTargets = Vec::new();
        if active {
            instances_on.resize(total_nodes, Vec::new());
            inst_downstream.reserve(specs.len());
            for (gi, sp) in specs.iter().enumerate() {
                instances_on[node_index(cfg, sp.node)].push(gi);
                inst_downstream.push(graph.out_edge(StageId(sp.stage)).map(|e| {
                    let base = stage_base[e.to.0];
                    (base..base + stages[e.to.0].replication)
                        .map(|gj| (ActorId(gj), node_index(cfg, specs[gj].node)))
                        .collect()
                }));
            }
        }
        // Background re-replication engages only with the fault layer
        // on: without a plan there is nothing to repair.
        let repair = if active { spec.repair } else { None };
        let repair_tl = Arc::new(if repair.is_some() {
            repair_timeline(&spec.plan, &detected, cfg.hosts, cfg.asus)
        } else {
            Vec::new()
        });
        let watched = if cfg.balance.is_active() {
            watched_stages(&graph)
        } else {
            Vec::new()
        };

        let bal_slot = specs.len() + if active { nparts } else { 0 };
        let agents_base = bal_slot + usize::from(!watched.is_empty());
        let sched_slot = agents_base + repair.map_or(0, |_| cfg.asus + 1);
        Ok(Shared {
            cfg: *cfg,
            spec: spec.clone(),
            active,
            repair,
            nparts,
            keyed: partitions.is_some(),
            ctl,
            graph,
            specs,
            stage_base,
            eos_expected,
            detected,
            loss,
            watched,
            repair_tl,
            instances_on: Arc::new(instances_on),
            inst_downstream: Arc::new(inst_downstream),
            bal_slot,
            agents_base,
            sched_slot,
        })
    }

    /// Partition owning dense node index `n`.
    fn node_part(&self, n: usize) -> u32 {
        let id = if n < self.cfg.hosts {
            NodeId::Host(n)
        } else {
            NodeId::Asu(n - self.cfg.hosts)
        };
        node_partition(self.cfg.hosts, self.nparts, id)
    }

    /// Actor-ownership table of a partitioned run, in slot order.
    pub(super) fn owners(&self) -> Vec<u32> {
        let mut owners: Vec<u32> = self.specs.iter().map(|sp| sp.part).collect();
        if self.active {
            owners.extend(0..self.nparts as u32);
        }
        if !self.watched.is_empty() {
            owners.push(0);
        }
        if self.repair.is_some() {
            owners.extend((0..self.cfg.asus).map(|d| self.node_part(self.cfg.hosts + d)));
            owners.push(0);
        }
        debug_assert_eq!(
            owners.len(),
            self.sched_slot,
            "owners follow the slot layout"
        );
        owners
    }

    /// One worker per partition, each holding the source inputs of the
    /// instances it owns. Every key names an instance: `run_job_inner`
    /// checked that before anything was built.
    pub(super) fn workers(self: &Arc<Self>, inputs: Inputs<R>) -> Vec<EmWorker<R>> {
        let mut by_part: Vec<Inputs<R>> = (0..self.nparts).map(|_| BTreeMap::new()).collect();
        for ((stage, instance), packets) in inputs {
            let part = self.specs[self.stage_base[stage] + instance].part;
            by_part[part as usize].insert((stage, instance), packets);
        }
        by_part
            .into_iter()
            .enumerate()
            .map(|(p, inputs)| EmWorker {
                part: p as u32,
                shared: self.clone(),
                inputs,
            })
            .collect()
    }
}

/// What one partition hands back after the run drains.
pub(super) struct EmPartOut<R: Record> {
    /// The run's end instant (identical on every partition — it is the
    /// result of a collective max-reduction).
    end: SimTime,
    /// Reports for the nodes this partition owns, keyed by dense node
    /// index for the final hosts-then-ASUs ordering.
    nodes: Vec<(usize, NodeReport)>,
    metrics: Metrics<R>,
    /// Per-stage gauges: the live gauge itself, or this partition's
    /// share of the gauge mutations.
    gauges: Vec<GaugePart>,
}

/// Thread-local state carried from build to finish (`Rc` handles shared
/// with the actors; never crosses threads).
pub(super) struct EmBuilt<R: Record> {
    /// Owned nodes, indexed by dense node index (`None` = another
    /// partition's node).
    nodes: Vec<Option<Rc<RefCell<NodeRes>>>>,
    gauges: Vec<GaugeHandle>,
    pub(super) metrics: Rc<RefCell<Metrics<R>>>,
    /// A scheduler gates the run's sources.
    gated: bool,
}

/// Builds and harvests one partition of an emulation.
pub(super) struct EmWorker<R: Record> {
    part: u32,
    shared: Arc<Shared<R>>,
    /// Source inputs for instances this partition owns.
    inputs: Inputs<R>,
}

impl<R: Record> EmWorker<R> {
    /// Install this partition's actors and seeds (module docs give the
    /// slot layout and seeding order). `sched` gates a multi-tenant run;
    /// it is not `Send`, so it arrives here, on the thread that runs
    /// the one partition a gated run ever has.
    pub(super) fn build_part(
        &mut self,
        sim: &mut Simulation<Msg<R>>,
        sched: Option<SchedSetup>,
    ) -> EmBuilt<R> {
        let sh = &*self.shared;
        let (cfg, graph, part) = (&sh.cfg, &sh.graph, self.part);
        let n_inst = sh.specs.len();
        let bal_actor = ActorId(sh.bal_slot);
        let sched_actor = ActorId(sh.sched_slot);
        debug_assert!(
            sched.is_none() || (sh.nparts == 1 && !sh.active),
            "gated runs are fault-free and never partition"
        );
        sim.reserve_to(sh.sched_slot + usize::from(sched.is_some()));

        // Every node is instantiated by exactly one partition (reports
        // cover idle nodes too); only owned actors ever touch it.
        let nodes: Vec<Option<Rc<RefCell<NodeRes>>>> = (0..cfg.hosts)
            .map(NodeId::Host)
            .chain((0..cfg.asus).map(NodeId::Asu))
            .map(|id| {
                (node_partition(cfg.hosts, sh.nparts, id) == part)
                    .then(|| Rc::new(RefCell::new(NodeRes::new(id, cfg))))
            })
            .collect();
        let gauges: Vec<GaugeHandle> = graph
            .stages()
            .iter()
            .map(|s| GaugeHandle::new(s.replication, sh.keyed))
            .collect();
        let metrics = Rc::new(RefCell::new(Metrics::<R>::new(graph.stages().len())));
        if cfg.trace_capacity > 0 {
            // Full capacity per partition: each ring then retains a
            // suffix of its own pushes that is guaranteed to cover its
            // share of the global tail window (see `Trace::merge`).
            metrics.borrow_mut().trace = Trace::enabled(cfg.trace_capacity);
        }
        // Fencing/flush flags: global-length per partition, but only
        // owned instances (and the partition's own controller) ever
        // read or write an entry — instance partition == node partition
        // by construction, so every flag access stays partition-local.
        let flags = Rc::new(RefCell::new(vec![InstFlags::default(); n_inst]));

        for (idx, sp) in sh.specs.iter().enumerate() {
            if sp.part != part {
                continue;
            }
            let stage = &graph.stages()[sp.stage];
            let out_edge = graph.out_edge(StageId(sp.stage));
            let down = out_edge.map(|e| {
                let to = e.to.0;
                let to_stage = &graph.stages()[to];
                let base = sh.stage_base[to];
                let dests = base..base + to_stage.replication;
                let node_ids: Vec<NodeId> =
                    sh.specs[dests.clone()].iter().map(|d| d.node).collect();
                let node_idx = node_ids.iter().map(|&id| node_index(cfg, id)).collect();
                let capacities = node_ids.iter().map(|&id| node_speed(cfg, id)).collect();
                let group_size = match e.scope {
                    RouteScope::Global => to_stage.replication,
                    RouteScope::PortGroups { group_size } => group_size,
                };
                // Staging buffers exist only on a coded edge.
                let coded_groups = if e.coded_group > 1 {
                    to_stage.replication.div_ceil(e.coded_group)
                } else {
                    0
                };
                Downstream {
                    actors: dests.map(ActorId).collect(),
                    node_ids,
                    node_idx,
                    capacities,
                    // One stream per sender, indexed by global instance
                    // order, so SR draws align however the run is split.
                    router: Router::new(e.routing, cfg.seed, idx as u64),
                    gauge: gauges[to].clone(),
                    weights: Vec::new(),
                    group_size,
                    dest_stage: to,
                    coded_r: e.coded_group,
                    coded_buf: vec![Vec::new(); coded_groups],
                }
            });
            let source_data: VecDeque<Packet<R>> = self
                .inputs
                .remove(&(sp.stage, sp.instance))
                .map(Into::into)
                .unwrap_or_default();
            let watched_here = sh.watched.binary_search(&sp.stage).is_ok();
            let actor = InstanceActor {
                stage: sp.stage,
                instance: sp.instance,
                functor: stage.instantiate(sp.instance),
                node: nodes[node_index(cfg, sp.node)]
                    .as_ref()
                    .expect("instance placed on an owned node")
                    .clone(),
                queue: VecDeque::new(),
                pending: None,
                eos_expected: sh.eos_expected[sp.stage],
                eos_seen: 0,
                flushed: false,
                down,
                source_data,
                is_source: stage.is_source,
                source_live: true,
                ra: (cfg.storage.pool_frames > 0 && stage.is_source).then(|| RaState {
                    window: cfg.storage.read_ahead + 1,
                    staged: 0,
                    pending: false,
                    eos_sent: false,
                }),
                global_tag: idx as u64,
                epoch: 0,
                my_gauge: (!stage.is_source).then(|| (gauges[sp.stage].clone(), sp.instance)),
                metrics: metrics.clone(),
                link_rate: cfg.link_bytes_per_sec,
                latency: cfg.link_latency,
                ctl: sh.ctl,
                fault: sh.active.then(|| InstanceFault {
                    detected: sh.detected.clone(),
                    loss: sh.loss.clone(),
                    flags: flags.clone(),
                    backoff: sh.spec.backoff,
                    fail_fast: sh.spec.fail_fast,
                    my_node: node_index(cfg, sp.node),
                    my_global: idx,
                    factory: stage.factory_handle(),
                    // Keyed by global instance index: the same stream
                    // whichever partition hosts the instance.
                    rng: DetRng::stream(cfg.seed, (1u64 << 62) | idx as u64),
                }),
                sample: watched_here.then(|| SampleState {
                    period: cfg.balance.period,
                    report_delay: cfg.balance.period.max(sh.ctl),
                    balancer: bal_actor,
                }),
                // Sink instances of a gated run report their flush to
                // the scheduler so it can detect job completion.
                sched: sched
                    .as_ref()
                    .filter(|_| out_edge.is_none())
                    .map(|ss| (sched_actor, ss.stage_job[sp.stage])),
            };
            sim.install(ActorId(idx), Box::new(actor));
            // Gated runs hold source seeds back: the scheduler sends the
            // first `SourceNext` at each job's dispatch instant.
            if stage.is_source && sched.is_none() {
                sim.seed_message(ActorId(idx), SimTime::ZERO, Msg::SourceNext);
            }
            if watched_here {
                // First sample lands one period in.
                sim.seed_message(
                    ActorId(idx),
                    SimTime(cfg.balance.period.as_nanos()),
                    Msg::SampleTick,
                );
            }
        }

        if sh.active {
            // This partition's fault controller: seeded only with the
            // plan steps and detection verdicts whose node it owns, so
            // every event is dispatched exactly once globally and all
            // node/instance touches are partition-local. Health steps
            // first, then verdicts, so same-instant steps tiebreak the
            // same way on every partition. Link-loss steps are never
            // seeded: senders sample the loss timeline directly.
            let ctrl = ActorId(n_inst + part as usize);
            let events = sh.spec.plan.sorted_events();
            for (i, ev) in events.iter().enumerate() {
                if matches!(ev, FaultEvent::LinkLoss { .. }) {
                    continue;
                }
                if sh.node_part(ev.node()) == part {
                    sim.seed_message(ctrl, ev.at(), Msg::FaultStep(i));
                }
            }
            for &(node, at) in sh.detected.detections() {
                if sh.node_part(node) == part {
                    sim.seed_message(ctrl, at, Msg::Detect(node));
                }
            }
            sim.install(
                ctrl,
                Box::new(FaultController {
                    events,
                    nodes: nodes.clone(),
                    flags: flags.clone(),
                    instances_on: sh.instances_on.clone(),
                    inst_downstream: sh.inst_downstream.clone(),
                    ctl: sh.ctl,
                    metrics: metrics.clone(),
                }),
            );
        }

        // The balancer watches every replicated stage that is fed
        // through a policy with routing freedom and re-weights its
        // upstream routers by inverse backlog. Purely reactive: the
        // watched instances seeded above drive it.
        if !sh.watched.is_empty() && part == 0 {
            let targets: Vec<SnapTarget> = sh
                .watched
                .iter()
                .map(|&s| SnapTarget {
                    stage: s,
                    replication: graph.stages()[s].replication,
                    senders: graph
                        .edges()
                        .iter()
                        .filter(|e| e.to.0 == s)
                        .flat_map(|e| {
                            let base = sh.stage_base[e.from.0];
                            (base..base + graph.stages()[e.from.0].replication).map(ActorId)
                        })
                        .collect(),
                })
                .collect();
            sim.install(
                bal_actor,
                Box::new(SnapshotBalancer {
                    spec: cfg.balance,
                    targets,
                    snap: BTreeMap::new(),
                    pending: false,
                    ctl: sh.ctl,
                    cur: BTreeMap::new(),
                    metrics: metrics.clone(),
                }),
            );
        }

        if let Some(rs) = sh.repair {
            // Agents for ASU ordinals 0..D (each on its node's
            // partition), then the coordinator on partition 0 (it owns
            // the engine and the trajectory record).
            let coord = ActorId(sh.agents_base + cfg.asus);
            metrics.borrow_mut().repair_src_bytes = vec![0; cfg.asus];
            for d in 0..cfg.asus {
                let Some(node) = &nodes[cfg.hosts + d] else {
                    continue;
                };
                sim.install(
                    ActorId(sh.agents_base + d),
                    Box::new(RepairAgent {
                        ordinal: d,
                        node: node.clone(),
                        coord,
                        agents_base: sh.agents_base,
                        queue: VecDeque::new(),
                        busy: false,
                        next_slot: SimTime::ZERO,
                        wbuf: Vec::new(),
                        wflush_at: SimTime::NEVER,
                        pace: rs.pace(),
                        link_rate: cfg.link_bytes_per_sec,
                        latency: cfg.link_latency,
                        ctl: sh.ctl,
                        metrics: metrics.clone(),
                    }),
                );
            }
            if part == 0 {
                let engine = RepairEngine::new(rs, cfg.asus);
                // Initial mirror: a run whose plan never touches an ASU
                // still reports the placement's (all-at-target) histogram.
                metrics.borrow_mut().replica_hist = engine.hist().to_vec();
                // Timeline steps, then the sampling grid.
                for (i, &(at, _)) in sh.repair_tl.iter().enumerate() {
                    sim.seed_message(coord, at, Msg::RepairStep(i));
                }
                if rs.sample_every.as_nanos() > 0 {
                    if let Some(&(last, _)) = sh.repair_tl.last() {
                        let mut k = 0u64;
                        loop {
                            let at = SimTime(k.saturating_mul(rs.sample_every.as_nanos()));
                            if at > last {
                                break;
                            }
                            sim.seed_message(coord, at, Msg::RepairSampleTick);
                            k += 1;
                        }
                    }
                }
                sim.install(
                    coord,
                    Box::new(RepairCoordinator {
                        engine,
                        timeline: sh.repair_tl.clone(),
                        agents: (0..cfg.asus).map(|d| ActorId(sh.agents_base + d)).collect(),
                        ctl: sh.ctl,
                        sampling: rs.sample_every.as_nanos() > 0,
                        buf: Vec::new(),
                        flush_at: SimTime::NEVER,
                        metrics: metrics.clone(),
                    }),
                );
            }
        }

        // Multi-tenant gate: seed one `JobArrive` per job at its arrival
        // instant and install the scheduler actor. A lone job arriving at
        // time zero replays the direct path exactly — its `JobArrive` is
        // the only seed at zero, and dispatching enqueues the job's
        // `SourceNext`s in the same stage-major order the loop above seeds.
        let gated = sched.is_some();
        if let Some(ss) = sched {
            debug_assert_eq!(ss.stage_job.len(), graph.stages().len());
            for (j, &at) in ss.arrivals.iter().enumerate() {
                sim.seed_message(sched_actor, at, Msg::JobArrive(j));
            }
            let n_jobs = ss.arrivals.len();
            let sources: Vec<Vec<ActorId>> = ss
                .sources
                .iter()
                .map(|srcs| {
                    srcs.iter()
                        .map(|&(s, i)| ActorId(sh.stage_base[s] + i))
                        .collect()
                })
                .collect();
            sim.install(
                sched_actor,
                Box::new(SchedActor {
                    gate: ss.gate,
                    sources,
                    sinks_expected: ss.sinks,
                    sinks_seen: vec![0; n_jobs],
                    done: vec![false; n_jobs],
                    log: ss.log,
                    metrics: metrics.clone(),
                }),
            );
        }
        EmBuilt {
            nodes,
            gauges,
            metrics,
            gated,
        }
    }

    /// Harvest this partition once the run has drained. `reduce_max` is
    /// the collective max over all partitions (the identity at one);
    /// every partition calls it the same number of times.
    pub(super) fn finish_part(
        self,
        built: EmBuilt<R>,
        sim: Simulation<Msg<R>>,
        reduce_max: &dyn Fn(u64) -> u64,
    ) -> EmPartOut<R> {
        let sh = &*self.shared;
        // Makespan: last event anywhere, every CPU queue drained, every
        // disk quiesced. Under faults, plan events with no application
        // effect (e.g. a recovery after the data drained) should not
        // count: start from the last *application* activity instead of
        // the last dispatch. The same applies to the balancer's trailing
        // sample ticks and to a gated run's trailing arrival that the
        // gate rejected. The global last activity is the max of the
        // partition-local ones, which the reduction folds in.
        let mut local = if sh.active || sh.cfg.balance.is_active() || built.gated {
            built.metrics.borrow().last_activity
        } else {
            sim.now()
        };
        for n in built.nodes.iter().flatten() {
            let n = n.borrow();
            local = local.max(n.cpu_free_at()).max(n.disk_quiesce());
        }
        let mut end = SimTime(reduce_max(local.as_nanos()));
        // Flush staged storage (scheduler residue, dirty pool frames):
        // the job only completes once write-behind data is durable. All
        // nodes drain from the same (agreed) base instant, so neither
        // loop nor partition order can matter. Skipped entirely for the
        // plain spec (nothing is ever staged) to keep the legacy path
        // byte-identical.
        if !sh.cfg.storage.is_plain() {
            let base = end;
            let mut local = end;
            for n in built.nodes.iter().flatten() {
                local = local.max(n.borrow_mut().storage_drain(base));
            }
            end = SimTime(reduce_max(local.as_nanos()));
        }
        // Release the actors (and their Rc clones of metrics/gauges).
        drop(sim);

        let nodes = built
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(ni, n)| n.as_ref().map(|n| (ni, n)))
            .map(|(ni, n)| {
                let n = n.borrow();
                (
                    ni,
                    NodeReport {
                        id: n.id,
                        mean_cpu_util: n.mean_cpu_utilization(end),
                        cpu_busy: n.cpu_busy(),
                        cpu_series: n.cpu_utilization(end),
                        records: n.records_processed(),
                        disk: n.disk_counters(),
                        per_disk: n.per_disk_stats(),
                        per_disk_busy: n.per_disk_busy(),
                        pool: n.pool_stats(),
                        nic_busy: n.nic_busy(),
                        nic_bytes_tx: n.nic_bytes_tx(),
                        peak_state_bytes: n.peak_state_bytes(),
                        health: n.health(),
                    },
                )
            })
            .collect();
        // Every actor was dropped with the simulation, so this Rc should
        // be unique; if an embedding keeps one alive anyway, degrade to a
        // clone-out instead of aborting a run that already finished.
        let metrics = match Rc::try_unwrap(built.metrics) {
            Ok(cell) => cell.into_inner(),
            Err(rc) => {
                debug_assert!(false, "metrics still shared after the simulation dropped");
                rc.borrow().clone()
            }
        };
        EmPartOut {
            end,
            nodes,
            metrics,
            gauges: built
                .gauges
                .into_iter()
                .map(GaugeHandle::into_part)
                .collect(),
        }
    }
}

impl<R: Record> PartitionWorker<Msg<R>, EmPartOut<R>> for EmWorker<R> {
    type Built = EmBuilt<R>;

    fn build(&mut self, sim: &mut Simulation<Msg<R>>) -> EmBuilt<R> {
        self.build_part(sim, None)
    }

    fn finish(self, built: EmBuilt<R>, sim: Simulation<Msg<R>>, ops: &ParOps<'_>) -> EmPartOut<R> {
        self.finish_part(built, sim, &|v| ops.allreduce_max(v))
    }
}

/// One stage's gauge as a sequential run leaves it: the live gauge
/// itself, or the partitions' journals replayed in dispatch order.
fn settle(parts: Vec<GaugePart>) -> StageGauge {
    let mut journals = Vec::with_capacity(parts.len());
    for p in parts {
        match p {
            GaugePart::Live(g) => return g,
            GaugePart::Journal(j) => journals.push(j),
        }
    }
    GaugeJournal::replay(journals)
}

/// Merge the partitions' harvests into the report. With one partition
/// every merge below is a stable sort of already-ordered data, so the
/// same code serves both drivers; `par` and `par_fallback` are the only
/// fields that tell them apart.
pub(super) fn assemble<R: Record>(
    sh: &Shared<R>,
    parts: Vec<EmPartOut<R>>,
    dispatched: u64,
    par: Option<ParRunStats>,
    par_fallback: Option<&'static str>,
) -> EmulationReport<R> {
    let stages = sh.graph.stages();
    let end = parts.first().map_or(SimTime::ZERO, |r| r.end);
    debug_assert!(parts.iter().all(|r| r.end == end));
    let mut node_reports: Vec<(usize, NodeReport)> = Vec::with_capacity(sh.cfg.total_nodes());
    let mut metrics_parts: Vec<Metrics<R>> = Vec::with_capacity(parts.len());
    let mut gauge_parts: Vec<Vec<GaugePart>> = stages.iter().map(|_| Vec::new()).collect();
    for part in parts {
        node_reports.extend(part.nodes);
        metrics_parts.push(part.metrics);
        for (s, g) in part.gauges.into_iter().enumerate() {
            gauge_parts[s].push(g);
        }
    }
    node_reports.sort_by_key(|&(ni, _)| ni);
    debug_assert_eq!(
        node_reports.len(),
        sh.cfg.total_nodes(),
        "every node reported once"
    );
    let m = Metrics::merge(metrics_parts);
    // A `fail_fast` stop returns its typed error before harvesting, and
    // such specs never partition, so no report carries a fatal fault.
    debug_assert!(m.fatal.is_none(), "fatal fault reached the report");
    let down_nodes: Vec<NodeId> = node_reports
        .iter()
        .filter(|(_, r)| matches!(r.health, NodeHealth::Down))
        .map(|(_, r)| r.id)
        .collect();

    let stage_work = stages
        .iter()
        .zip(&m.stage_work)
        .map(|(s, &w)| (s.name.clone(), w))
        .collect();
    let queue_stats = stages
        .iter()
        .zip(gauge_parts)
        .map(|(st, parts)| StageQueueStats {
            stage: st.name.clone(),
            instances: settle(parts).stats(end),
        })
        .collect();

    EmulationReport {
        makespan: end.since(SimTime::ZERO),
        nodes: node_reports.into_iter().map(|(_, r)| r).collect(),
        stage_work,
        stage_records_in: m.stage_records_in,
        stage_usage: m.stage_usage,
        sink_outputs: m.sink_outputs,
        records_processed: m.records_processed,
        mem_violations: m.mem_violations,
        dispatched,
        trace: m.trace,
        down_nodes,
        fault: m.fault,
        queue_stats,
        reweights: m.reweights,
        repair: m.repair,
        repair_trajectory: m.repair_samples,
        replica_hist: m.replica_hist,
        repair_src_bytes: m.repair_src_bytes,
        par,
        par_fallback,
    }
}
