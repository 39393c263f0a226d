//! Planner inputs: the cluster shape and the per-stage work declaration.
//!
//! The paper's premise (Section 3.3) is that functors declare *bounded
//! cost per unit of I/O* so the system — not the application — can
//! decide placement and replication. [`PlanSpec`] is that declaration in
//! planner form: a stage list mirroring a `FlowGraph`, annotated with
//! per-record [`Work`], record volumes, packetization, and flush
//! behavior; [`ClusterShape`] is the machine model (H hosts, D ASUs,
//! CPU ratio c, disk/link rates) the estimator prices it against.

use lmas_core::adapt::PipelineModel;
use lmas_core::cost::{CostModel, Work};
use lmas_core::functor::FunctorKind;
use lmas_core::placement::{NodeId, PlacementError, StageId};
use std::fmt;

/// The cluster model the planner optimizes against. Mirrors the
/// emulator's `ClusterConfig` (era-2002 defaults) without depending on
/// the emulator crate.
#[derive(Debug, Clone, Copy)]
pub struct ClusterShape {
    /// Number of dedicated hosts, H.
    pub hosts: usize,
    /// Number of active storage units, D.
    pub asus: usize,
    /// Host-to-ASU CPU speed ratio c (an ASU runs at 1/c).
    pub cpu_ratio_c: f64,
    /// Work → time conversion.
    pub cost: CostModel,
    /// Aggregate disk bandwidth per ASU brick, bytes/sec.
    pub asu_disk_rate: f64,
    /// Disk bandwidth of a host's private disk, bytes/sec.
    pub host_disk_rate: f64,
    /// Host↔ASU link bandwidth, bytes/sec.
    pub link_rate: f64,
    /// One-way link latency in nanoseconds.
    pub link_latency_ns: f64,
    /// Memory available for functor state on an ASU, bytes.
    pub asu_mem: usize,
}

impl ClusterShape {
    /// The paper-era cluster: gigabit links at 50 µs, 100 MB/s disk
    /// bricks, 32 MiB of ASU functor memory — matching the emulator's
    /// `ClusterConfig::era_2002(hosts, asus, c)`.
    pub fn era_2002(hosts: usize, asus: usize, cpu_ratio_c: f64) -> ClusterShape {
        ClusterShape {
            hosts,
            asus,
            cpu_ratio_c,
            cost: CostModel::p3_750mhz(),
            asu_disk_rate: 100.0e6,
            host_disk_rate: 100.0e6,
            link_rate: 1.0e9,
            link_latency_ns: 50_000.0,
            asu_mem: 32 << 20,
        }
    }

    /// Override the per-ASU aggregate disk rate (e.g. multi-disk bricks).
    pub fn with_asu_disk_rate(mut self, rate: f64) -> ClusterShape {
        self.asu_disk_rate = rate;
        self
    }

    /// All nodes in planner order: hosts first, then ASUs.
    pub fn nodes(&self) -> Vec<NodeId> {
        (0..self.hosts)
            .map(NodeId::Host)
            .chain((0..self.asus).map(NodeId::Asu))
            .collect()
    }

    /// Total node count.
    pub fn total_nodes(&self) -> usize {
        self.hosts + self.asus
    }

    /// Relative CPU speed of `node` (host = 1.0).
    pub fn node_speed(&self, node: NodeId) -> f64 {
        match node {
            NodeId::Host(_) => 1.0,
            NodeId::Asu(_) => 1.0 / self.cpu_ratio_c,
        }
    }

    /// Disk bandwidth local to `node`, bytes/sec.
    pub fn disk_rate(&self, node: NodeId) -> f64 {
        match node {
            NodeId::Host(_) => self.host_disk_rate,
            NodeId::Asu(_) => self.asu_disk_rate,
        }
    }

    /// Bridge to the phase-rate model of `lmas-core::adapt` for knob
    /// picking (α, γ-split) at a given record size.
    pub fn pipeline_model(&self, record_size: usize) -> PipelineModel {
        PipelineModel {
            cost: self.cost,
            hosts: self.hosts,
            asus: self.asus,
            cpu_ratio_c: self.cpu_ratio_c,
            disk_rate: self.asu_disk_rate,
            link_rate: self.link_rate,
            record_size,
        }
    }
}

/// One stage of the dataflow, annotated with the declared work the
/// planner prices.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Stage name (diagnostics and reports).
    pub name: String,
    /// Number of parallel instances.
    pub replication: usize,
    /// Placement contract of the functor.
    pub kind: FunctorKind,
    /// True when the stage reads its input from local disk.
    pub is_source: bool,
    /// Declared CPU work per record passing one instance.
    pub per_record: Work,
    /// Total records entering the stage (across all instances).
    pub records: u64,
    /// Bytes the stage reads from disk (sources; split across instances).
    pub bytes_in: u64,
    /// Bytes the stage writes to disk (sinks; split across instances).
    pub bytes_out: u64,
    /// Records per packet on the stage's inbound edge (pipelining grain).
    pub packet_records: u64,
    /// Extra work each instance performs at flush (end of stream).
    pub flush_per_instance: Work,
    /// True when the stage emits only at flush (a barrier: downstream
    /// cannot overlap with it, e.g. a full fan-in merge).
    pub blocking: bool,
    /// Per-instance placement pins (data residency); empty = all free.
    pub pinned: Vec<Option<NodeId>>,
    /// Coded-shuffle broadcast-group size on this stage's *inbound*
    /// edge (1 = uncoded). Senders pay an `(r-1)`-way replicated disk
    /// write per remote record and ship 1/r of the shuffle bytes.
    pub coded_group: usize,
}

impl StageSpec {
    /// A free (unpinned), non-source stage with no declared work.
    pub fn new(name: &str, replication: usize, kind: FunctorKind) -> StageSpec {
        StageSpec {
            name: name.to_string(),
            replication,
            kind,
            is_source: false,
            per_record: Work::ZERO,
            records: 0,
            bytes_in: 0,
            bytes_out: 0,
            packet_records: 1024,
            flush_per_instance: Work::ZERO,
            blocking: false,
            pinned: Vec::new(),
            coded_group: 1,
        }
    }

    /// Declare per-record work and total records.
    pub fn with_work(mut self, per_record: Work, records: u64) -> StageSpec {
        self.per_record = per_record;
        self.records = records;
        self
    }

    /// Mark as a disk source reading `bytes_in` in total.
    pub fn with_source(mut self, bytes_in: u64) -> StageSpec {
        self.is_source = true;
        self.bytes_in = bytes_in;
        self
    }

    /// Declare disk output (sinks).
    pub fn with_sink_bytes(mut self, bytes_out: u64) -> StageSpec {
        self.bytes_out = bytes_out;
        self
    }

    /// Set the inbound packet grain.
    pub fn with_packet_records(mut self, packet_records: u64) -> StageSpec {
        self.packet_records = packet_records.max(1);
        self
    }

    /// Declare flush work and whether the stage is a barrier.
    pub fn with_flush(mut self, flush: Work, blocking: bool) -> StageSpec {
        self.flush_per_instance = flush;
        self.blocking = blocking;
        self
    }

    /// Pin every instance: `pins[i]` fixes instance `i` when `Some`.
    pub fn with_pins(mut self, pins: Vec<Option<NodeId>>) -> StageSpec {
        self.pinned = pins;
        self
    }

    /// Set the coded broadcast-group size of the stage's inbound edge.
    pub fn with_coded(mut self, coded_group: usize) -> StageSpec {
        self.coded_group = coded_group.max(1);
        self
    }

    /// Pin instance `i` to `Asu(i % asus)` — the data-residency pattern
    /// of distribute/collect stages.
    pub fn pinned_per_asu(mut self, asus: usize) -> StageSpec {
        self.pinned = (0..self.replication)
            .map(|i| Some(NodeId::Asu(i % asus)))
            .collect();
        self
    }
}

/// A dataflow edge between stage indices of a [`PlanSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEdge {
    /// Producing stage index.
    pub from: usize,
    /// Consuming stage index.
    pub to: usize,
}

/// The full planner input: stages, edges, record size.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// Fixed record size in bytes.
    pub record_bytes: u64,
    /// Stages, indexed by the edge endpoints.
    pub stages: Vec<StageSpec>,
    /// Dataflow edges.
    pub edges: Vec<PlanEdge>,
}

/// Why planning failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The spec has no stages.
    EmptySpec,
    /// A stage declared zero instances.
    ZeroReplication {
        /// Offending stage index.
        stage: usize,
    },
    /// `pinned` is non-empty but does not cover every instance, or pins
    /// an instance onto a node outside the cluster.
    BadPin {
        /// Offending stage index.
        stage: usize,
    },
    /// An edge references a stage index out of range.
    BadEdge {
        /// Offending edge position.
        edge: usize,
    },
    /// The stage graph has a cycle.
    Cycle,
    /// No node can legally run an instance (e.g. a host-only stage on a
    /// cluster with zero hosts).
    NoFeasibleNode {
        /// Offending stage index.
        stage: usize,
    },
    /// Graph hints do not cover every stage.
    HintMismatch {
        /// Stages in the graph.
        expected: usize,
        /// Hints provided.
        got: usize,
    },
    /// A residual-capacity view does not cover the cluster's nodes.
    ResidualShape {
        /// Nodes in the cluster (hosts + ASUs).
        expected: usize,
        /// Nodes the residual view covers.
        got: usize,
    },
    /// The final placement failed `Placement::validate` — a planner bug
    /// surfaced as a typed error rather than an invalid artifact.
    Invalid(PlacementError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptySpec => write!(f, "plan spec has no stages"),
            PlanError::ZeroReplication { stage } => {
                write!(f, "stage {stage} declares zero instances")
            }
            PlanError::BadPin { stage } => {
                write!(f, "stage {stage} has malformed placement pins")
            }
            PlanError::BadEdge { edge } => {
                write!(f, "edge {edge} references a stage out of range")
            }
            PlanError::Cycle => write!(f, "stage graph has a cycle"),
            PlanError::NoFeasibleNode { stage } => {
                write!(f, "no node can run stage {stage}")
            }
            PlanError::HintMismatch { expected, got } => write!(
                f,
                "graph has {expected} stages but {got} hints were given"
            ),
            PlanError::ResidualShape { expected, got } => write!(
                f,
                "cluster has {expected} nodes but the residual view covers {got}"
            ),
            PlanError::Invalid(e) => write!(f, "planned placement invalid: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl PlanSpec {
    /// Validate the spec and return a deterministic topological order of
    /// stage indices (Kahn's algorithm, ready stages taken in index
    /// order).
    pub fn topo_order(&self) -> Result<Vec<usize>, PlanError> {
        let mut order = Vec::new();
        self.topo_order_into(&mut order, &mut (Vec::new(), Vec::new()))?;
        Ok(order)
    }

    /// [`topo_order`](Self::topo_order) into caller-kept buffers:
    /// `order` receives the result, `work` is Kahn's in-degree table
    /// and ready list.
    pub(crate) fn topo_order_into(
        &self,
        order: &mut Vec<usize>,
        work: &mut (Vec<usize>, Vec<usize>),
    ) -> Result<(), PlanError> {
        if self.stages.is_empty() {
            return Err(PlanError::EmptySpec);
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.replication == 0 {
                return Err(PlanError::ZeroReplication { stage: i });
            }
            if !s.pinned.is_empty() && s.pinned.len() != s.replication {
                return Err(PlanError::BadPin { stage: i });
            }
        }
        let n = self.stages.len();
        for (e, edge) in self.edges.iter().enumerate() {
            if edge.from >= n || edge.to >= n {
                return Err(PlanError::BadEdge { edge: e });
            }
        }
        let (indeg, ready) = work;
        indeg.clear();
        indeg.resize(n, 0);
        for e in &self.edges {
            indeg[e.to] += 1;
        }
        order.clear();
        ready.clear();
        ready.extend((0..n).filter(|&i| indeg[i] == 0));
        while let Some(&s) = ready.first() {
            ready.remove(0);
            order.push(s);
            for e in self.edges.iter().filter(|e| e.from == s) {
                indeg[e.to] -= 1;
                if indeg[e.to] == 0 {
                    // Keep the ready list sorted so the order is a pure
                    // function of the spec.
                    let pos = ready
                        .iter()
                        .position(|&r| r > e.to)
                        .unwrap_or(ready.len());
                    ready.insert(pos, e.to);
                }
            }
        }
        if order.len() != n {
            return Err(PlanError::Cycle);
        }
        Ok(())
    }

    /// In-edges of stage `t`.
    pub fn in_edges(&self, t: usize) -> impl Iterator<Item = &PlanEdge> {
        self.edges.iter().filter(move |e| e.to == t)
    }

    /// True when `s` has no out-edge (a sink).
    pub fn is_sink(&self, s: usize) -> bool {
        !self.edges.iter().any(|e| e.from == s)
    }

    /// Rows for `Placement::validate`.
    pub fn placement_rows(&self) -> Vec<(StageId, usize, FunctorKind)> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, s)| (StageId(i), s.replication, s.kind))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(nstages: usize, edges: &[(usize, usize)]) -> PlanSpec {
        PlanSpec {
            record_bytes: 128,
            stages: (0..nstages)
                .map(|i| {
                    StageSpec::new(
                        &format!("s{i}"),
                        1,
                        FunctorKind::AsuEligible { max_state_bytes: 0 },
                    )
                })
                .collect(),
            edges: edges
                .iter()
                .map(|&(from, to)| PlanEdge { from, to })
                .collect(),
        }
    }

    #[test]
    fn topo_order_is_deterministic_and_valid() {
        let s = spec(4, &[(0, 2), (1, 2), (2, 3)]);
        assert_eq!(s.topo_order().unwrap(), vec![0, 1, 2, 3]);
        // Diamond: both orders of the middle pair are topologically
        // valid; index order breaks the tie.
        let d = spec(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(d.topo_order().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn topo_rejects_cycles_and_bad_specs() {
        assert_eq!(
            spec(0, &[]).topo_order(),
            Err(PlanError::EmptySpec)
        );
        assert_eq!(
            spec(2, &[(0, 1), (1, 0)]).topo_order(),
            Err(PlanError::Cycle)
        );
        assert_eq!(
            spec(2, &[(0, 5)]).topo_order(),
            Err(PlanError::BadEdge { edge: 0 })
        );
        let mut z = spec(1, &[]);
        z.stages[0].replication = 0;
        assert_eq!(
            z.topo_order(),
            Err(PlanError::ZeroReplication { stage: 0 })
        );
        let mut p = spec(1, &[]);
        p.stages[0].pinned = vec![None, None];
        assert_eq!(p.topo_order(), Err(PlanError::BadPin { stage: 0 }));
    }

    #[test]
    fn shape_rates_and_speeds() {
        let shape = ClusterShape::era_2002(2, 4, 8.0);
        assert_eq!(shape.total_nodes(), 6);
        assert_eq!(shape.node_speed(NodeId::Host(0)), 1.0);
        assert_eq!(shape.node_speed(NodeId::Asu(1)), 0.125);
        assert_eq!(shape.nodes()[0], NodeId::Host(0));
        assert_eq!(shape.nodes()[2], NodeId::Asu(0));
        let m = shape.pipeline_model(128);
        assert_eq!(m.hosts, 2);
        assert_eq!(m.asus, 4);
    }
}
