//! Dataflow graphs: functor stages wired by routed edges.
//!
//! Programs in the model are "composed … to build complete programs that
//! process data as it moves from stored input to output, possibly in
//! multiple passes" (Section 3.1). A [`FlowGraph`] is one pass: a DAG of
//! stages, each replicated into some number of functor instances, joined
//! by edges that name a routing policy and an ordering contract
//! ([`EdgeKind::Set`] lets the system reorder and rebalance;
//! [`EdgeKind::Stream`] preserves sequence).
//!
//! The graph is *structure only* — the emulator compiles it against a
//! [`Placement`](crate::placement::Placement) to run.

use crate::functor::{Functor, FunctorKind};
use crate::placement::StageId;
use crate::record::Record;
use crate::routing::RoutingPolicy;
use std::fmt;
use std::sync::Arc;

/// A shared handle to a stage's functor factory.
///
/// The factory is reference-counted so the emulator can keep a handle per
/// instance actor and rebuild a functor from scratch after a crash
/// (volatile functor state is lost with the node; a recovered instance
/// restarts from the factory's initial state).
pub type StageFactory<R> = Arc<dyn Fn(usize) -> Box<dyn Functor<R>> + Send + Sync>;

/// Ordering contract of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Unordered: packets may be delivered to any instance in any order —
    /// the system load-balances freely.
    Set,
    /// Ordered: packets are delivered in emission order; routing must be
    /// static to preserve per-port sequence.
    Stream,
}

/// How an edge's destination instances are scoped.
///
/// `PortGroups` realizes the paper's load-managed distribution (Figure
/// 10): "each of the α subsets is spread across both hosts". The
/// destination stage's instances are partitioned into contiguous groups
/// of `group_size`; a packet leaving port `p` is confined to group
/// `p mod (replication / group_size)`, and the routing policy picks
/// *within* that group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteScope {
    /// The policy picks among all destination instances.
    Global,
    /// The policy picks within the port's instance group.
    PortGroups {
        /// Instances per group; must divide the destination replication.
        group_size: usize,
    },
}

/// A connection from every output port of `from` to the instances of `to`.
/// The source port number is passed to the router as its static hint, so
/// `Static` routing pins port `p` to instance `p mod replication(to)`.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Producing stage.
    pub from: StageId,
    /// Consuming stage.
    pub to: StageId,
    /// How packets choose a destination instance.
    pub routing: RoutingPolicy,
    /// Ordering contract.
    pub kind: EdgeKind,
    /// Destination scoping (global or per-port groups).
    pub scope: RouteScope,
    /// Coded-shuffle broadcast-group size `r`. Destination instances are
    /// partitioned into contiguous groups of `r`; the emulator coalesces
    /// every `r` remote packets bound for one group into a single coded
    /// frame (one NIC send, per-member receives), with each sender paying
    /// an `(r-1)`-way replicated disk write for the side information.
    /// `1` means uncoded point-to-point delivery.
    pub coded_group: usize,
}

/// A stage: `replication` instances of one functor.
pub struct Stage<R: Record> {
    /// Stage name (from the probe functor).
    pub name: String,
    /// Number of parallel instances.
    pub replication: usize,
    /// Output ports per instance.
    pub out_ports: usize,
    /// Execution contract (from the probe functor).
    pub kind: FunctorKind,
    /// Whether external input is injected into this stage.
    pub is_source: bool,
    factory: StageFactory<R>,
}

impl<R: Record> Stage<R> {
    /// Build the functor for instance `i`.
    pub fn instantiate(&self, i: usize) -> Box<dyn Functor<R>> {
        (self.factory)(i)
    }

    /// A shared handle to this stage's factory (for crash-restart:
    /// rebuilding an instance's functor resets it to initial state).
    pub fn factory_handle(&self) -> StageFactory<R> {
        Arc::clone(&self.factory)
    }
}

impl<R: Record> fmt::Debug for Stage<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stage")
            .field("name", &self.name)
            .field("replication", &self.replication)
            .field("out_ports", &self.out_ports)
            .field("is_source", &self.is_source)
            .finish()
    }
}

/// Graph construction/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no stages.
    Empty,
    /// No stage is marked as a source.
    NoSource,
    /// A stage already has an outgoing edge.
    MultipleOutEdges(StageId),
    /// An edge references a stage that does not exist.
    DanglingEdge(StageId),
    /// The edges form a cycle.
    Cycle,
    /// Stream edges require static routing to preserve order.
    StreamNeedsStaticRouting(StageId),
    /// A stage would have zero instances.
    ZeroReplication(StageId),
    /// A port-group size does not divide the destination replication.
    BadGroupSize {
        /// The destination stage.
        to: StageId,
        /// The offending group size.
        group_size: usize,
    },
    /// A coded broadcast-group size is zero or exceeds the destination
    /// replication (a group wider than the stage can never fill).
    BadCodedGroup {
        /// The destination stage.
        to: StageId,
        /// The offending coded-group size.
        coded_group: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph has no stages"),
            GraphError::NoSource => write!(f, "no source stage"),
            GraphError::MultipleOutEdges(s) => {
                write!(f, "stage {s:?} has multiple outgoing edges")
            }
            GraphError::DanglingEdge(s) => write!(f, "edge references unknown stage {s:?}"),
            GraphError::Cycle => write!(f, "graph contains a cycle"),
            GraphError::StreamNeedsStaticRouting(s) => write!(
                f,
                "stream edge out of {s:?} must use static routing to preserve order"
            ),
            GraphError::ZeroReplication(s) => write!(f, "stage {s:?} has zero instances"),
            GraphError::BadGroupSize { to, group_size } => write!(
                f,
                "group size {group_size} does not divide the replication of stage {to:?}"
            ),
            GraphError::BadCodedGroup { to, coded_group } => write!(
                f,
                "coded group size {coded_group} invalid for the replication of stage {to:?}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// A dataflow program: stages plus routed edges.
pub struct FlowGraph<R: Record> {
    stages: Vec<Stage<R>>,
    edges: Vec<Edge>,
}

impl<R: Record> Default for FlowGraph<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Record> FlowGraph<R> {
    /// An empty graph.
    pub fn new() -> FlowGraph<R> {
        FlowGraph {
            stages: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add a stage of `replication` instances built by `factory`.
    /// A probe instance is constructed to capture name/ports/kind.
    pub fn add_stage<F>(&mut self, replication: usize, factory: F) -> StageId
    where
        F: Fn(usize) -> Box<dyn Functor<R>> + Send + Sync + 'static,
    {
        self.add_stage_inner(replication, factory, false)
    }

    /// Add a stage that receives external input (container scans feed it).
    pub fn add_source_stage<F>(&mut self, replication: usize, factory: F) -> StageId
    where
        F: Fn(usize) -> Box<dyn Functor<R>> + Send + Sync + 'static,
    {
        self.add_stage_inner(replication, factory, true)
    }

    fn add_stage_inner<F>(&mut self, replication: usize, factory: F, is_source: bool) -> StageId
    where
        F: Fn(usize) -> Box<dyn Functor<R>> + Send + Sync + 'static,
    {
        let probe = factory(0);
        let id = StageId(self.stages.len());
        self.stages.push(Stage {
            name: probe.name(),
            replication,
            out_ports: probe.out_ports(),
            kind: probe.kind(),
            is_source,
            factory: Arc::new(factory),
        });
        id
    }

    /// Connect all output ports of `from` to the instances of `to`.
    pub fn connect(
        &mut self,
        from: StageId,
        to: StageId,
        routing: RoutingPolicy,
        kind: EdgeKind,
    ) -> Result<(), GraphError> {
        self.connect_scoped(from, to, routing, kind, RouteScope::Global)
    }

    /// [`FlowGraph::connect`] with explicit destination scoping.
    pub fn connect_scoped(
        &mut self,
        from: StageId,
        to: StageId,
        routing: RoutingPolicy,
        kind: EdgeKind,
        scope: RouteScope,
    ) -> Result<(), GraphError> {
        self.connect_coded(from, to, routing, kind, scope, 1)
    }

    /// [`FlowGraph::connect_scoped`] with a coded broadcast-group size.
    /// `coded_group = 1` is plain point-to-point delivery; `r > 1` groups
    /// the destination instances into contiguous broadcast groups of `r`
    /// and lets the emulator coalesce their shuffle traffic into coded
    /// frames (one NIC send per `r` remote packets).
    pub fn connect_coded(
        &mut self,
        from: StageId,
        to: StageId,
        routing: RoutingPolicy,
        kind: EdgeKind,
        scope: RouteScope,
        coded_group: usize,
    ) -> Result<(), GraphError> {
        for s in [from, to] {
            if s.0 >= self.stages.len() {
                return Err(GraphError::DanglingEdge(s));
            }
        }
        if self.edges.iter().any(|e| e.from == from) {
            return Err(GraphError::MultipleOutEdges(from));
        }
        if kind == EdgeKind::Stream && routing != RoutingPolicy::Static {
            return Err(GraphError::StreamNeedsStaticRouting(from));
        }
        if let RouteScope::PortGroups { group_size } = scope {
            let repl = self.stages[to.0].replication;
            if group_size == 0 || !repl.is_multiple_of(group_size) {
                return Err(GraphError::BadGroupSize { to, group_size });
            }
        }
        if coded_group == 0 || coded_group > self.stages[to.0].replication {
            return Err(GraphError::BadCodedGroup { to, coded_group });
        }
        self.edges.push(Edge {
            from,
            to,
            routing,
            kind,
            scope,
            coded_group,
        });
        Ok(())
    }

    /// Move every stage and edge of `other` onto the end of this graph
    /// and return the [`StageId`] offset they now sit at: `other`'s
    /// stage `s` is `StageId(offset + s)` here. Stages keep the
    /// metadata their probe reported and their factory handle, and
    /// edges were checked when `other` connected them, so nothing is
    /// instantiated or re-validated — merging `j` jobs costs the sum of
    /// their stage and edge counts.
    pub fn append(&mut self, other: FlowGraph<R>) -> usize {
        let offset = self.stages.len();
        self.stages.extend(other.stages);
        self.edges.extend(other.edges.into_iter().map(|e| Edge {
            from: StageId(e.from.0 + offset),
            to: StageId(e.to.0 + offset),
            ..e
        }));
        offset
    }

    /// The stages, indexed by [`StageId`].
    pub fn stages(&self) -> &[Stage<R>] {
        &self.stages
    }

    /// A stage by id.
    pub fn stage(&self, id: StageId) -> &Stage<R> {
        &self.stages[id.0]
    }

    /// The edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The single outgoing edge of `stage`, if any (sinks have none).
    pub fn out_edge(&self, stage: StageId) -> Option<&Edge> {
        self.edges.iter().find(|e| e.from == stage)
    }

    /// The number of replicas one pick on `edge` chooses among: the
    /// destination's replication under [`RouteScope::Global`], the
    /// group size under [`RouteScope::PortGroups`].
    pub fn group_size(&self, edge: &Edge) -> usize {
        match edge.scope {
            RouteScope::Global => self.stages[edge.to.0].replication,
            RouteScope::PortGroups { group_size } => group_size,
        }
    }

    /// Number of incoming edges of `stage`.
    pub fn in_degree(&self, stage: StageId) -> usize {
        self.edges.iter().filter(|e| e.to == stage).count()
    }

    /// `(stage, replication, kind)` rows for placement validation.
    pub fn placement_rows(&self) -> Vec<(StageId, usize, FunctorKind)> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, s)| (StageId(i), s.replication, s.kind))
            .collect()
    }

    /// Validate the graph and return a topological order of stages.
    pub fn validate(&self) -> Result<Vec<StageId>, GraphError> {
        if self.stages.is_empty() {
            return Err(GraphError::Empty);
        }
        if !self.stages.iter().any(|s| s.is_source) {
            return Err(GraphError::NoSource);
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.replication == 0 {
                return Err(GraphError::ZeroReplication(StageId(i)));
            }
        }
        // Kahn's algorithm.
        let n = self.stages.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to.0] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        ready.sort_unstable();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(StageId(i));
            for e in &self.edges {
                if e.from.0 == i {
                    indeg[e.to.0] -= 1;
                    if indeg[e.to.0] == 0 {
                        ready.push(e.to.0);
                    }
                }
            }
        }
        if order.len() != n {
            return Err(GraphError::Cycle);
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Work;
    use crate::functor::lib::MapFunctor;
    use crate::record::Rec8;

    fn ident(replication: usize, g: &mut FlowGraph<Rec8>, source: bool) -> StageId {
        let f = |_: usize| -> Box<dyn Functor<Rec8>> {
            Box::new(MapFunctor::new("id", Work::ZERO, |r: Rec8| r))
        };
        if source {
            g.add_source_stage(replication, f)
        } else {
            g.add_stage(replication, f)
        }
    }

    #[test]
    fn linear_pipeline_validates_in_order() {
        let mut g = FlowGraph::new();
        let a = ident(2, &mut g, true);
        let b = ident(3, &mut g, false);
        let c = ident(1, &mut g, false);
        g.connect(a, b, RoutingPolicy::RoundRobin, EdgeKind::Set).unwrap();
        g.connect(b, c, RoutingPolicy::Static, EdgeKind::Stream).unwrap();
        let order = g.validate().unwrap();
        assert_eq!(order, vec![a, b, c]);
        assert_eq!(g.out_edge(a).unwrap().to, b);
        assert!(g.out_edge(c).is_none());
        assert_eq!(g.in_degree(c), 1);
        assert_eq!(g.in_degree(a), 0);
    }

    #[test]
    fn stage_metadata_captured_from_probe() {
        let mut g = FlowGraph::new();
        let a = ident(4, &mut g, true);
        assert_eq!(g.stage(a).name, "id");
        assert_eq!(g.stage(a).replication, 4);
        assert_eq!(g.stage(a).out_ports, 1);
        assert!(g.stage(a).is_source);
        let rows = g.placement_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, 4);
    }

    #[test]
    fn empty_and_sourceless_graphs_rejected() {
        let g: FlowGraph<Rec8> = FlowGraph::new();
        assert_eq!(g.validate().unwrap_err(), GraphError::Empty);
        let mut g2 = FlowGraph::new();
        ident(1, &mut g2, false);
        assert_eq!(g2.validate().unwrap_err(), GraphError::NoSource);
    }

    #[test]
    fn cycle_detected() {
        let mut g = FlowGraph::new();
        let a = ident(1, &mut g, true);
        let b = ident(1, &mut g, false);
        g.connect(a, b, RoutingPolicy::Static, EdgeKind::Set).unwrap();
        g.connect(b, a, RoutingPolicy::Static, EdgeKind::Set).unwrap();
        assert_eq!(g.validate().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn duplicate_out_edges_rejected() {
        let mut g = FlowGraph::new();
        let a = ident(1, &mut g, true);
        let b = ident(1, &mut g, false);
        let c = ident(1, &mut g, false);
        g.connect(a, b, RoutingPolicy::Static, EdgeKind::Set).unwrap();
        assert_eq!(
            g.connect(a, c, RoutingPolicy::Static, EdgeKind::Set),
            Err(GraphError::MultipleOutEdges(a))
        );
    }

    #[test]
    fn stream_edges_require_static_routing() {
        let mut g = FlowGraph::new();
        let a = ident(1, &mut g, true);
        let b = ident(1, &mut g, false);
        assert_eq!(
            g.connect(a, b, RoutingPolicy::SimpleRandomization, EdgeKind::Stream),
            Err(GraphError::StreamNeedsStaticRouting(a))
        );
    }

    #[test]
    fn dangling_edge_rejected() {
        let mut g = FlowGraph::new();
        let a = ident(1, &mut g, true);
        assert_eq!(
            g.connect(a, StageId(9), RoutingPolicy::Static, EdgeKind::Set),
            Err(GraphError::DanglingEdge(StageId(9)))
        );
    }

    #[test]
    fn scoped_edge_validates_group_size() {
        let mut g = FlowGraph::new();
        let a = ident(1, &mut g, true);
        let b = ident(6, &mut g, false);
        assert_eq!(
            g.connect_scoped(
                a,
                b,
                RoutingPolicy::SimpleRandomization,
                EdgeKind::Set,
                RouteScope::PortGroups { group_size: 4 },
            ),
            Err(GraphError::BadGroupSize { to: b, group_size: 4 })
        );
        g.connect_scoped(
            a,
            b,
            RoutingPolicy::SimpleRandomization,
            EdgeKind::Set,
            RouteScope::PortGroups { group_size: 3 },
        )
        .unwrap();
        assert_eq!(
            g.out_edge(a).unwrap().scope,
            RouteScope::PortGroups { group_size: 3 }
        );
    }

    #[test]
    fn zero_group_size_rejected() {
        let mut g = FlowGraph::new();
        let a = ident(1, &mut g, true);
        let b = ident(2, &mut g, false);
        assert!(matches!(
            g.connect_scoped(
                a,
                b,
                RoutingPolicy::Static,
                EdgeKind::Set,
                RouteScope::PortGroups { group_size: 0 },
            ),
            Err(GraphError::BadGroupSize { .. })
        ));
    }

    #[test]
    fn coded_group_bounds_enforced() {
        let mut g = FlowGraph::new();
        let a = ident(1, &mut g, true);
        let b = ident(4, &mut g, false);
        assert_eq!(
            g.connect_coded(a, b, RoutingPolicy::Static, EdgeKind::Set, RouteScope::Global, 0),
            Err(GraphError::BadCodedGroup { to: b, coded_group: 0 })
        );
        assert_eq!(
            g.connect_coded(a, b, RoutingPolicy::Static, EdgeKind::Set, RouteScope::Global, 5),
            Err(GraphError::BadCodedGroup { to: b, coded_group: 5 })
        );
        g.connect_coded(a, b, RoutingPolicy::Static, EdgeKind::Set, RouteScope::Global, 2)
            .unwrap();
        assert_eq!(g.out_edge(a).unwrap().coded_group, 2);
        // Plain connect defaults to uncoded.
        let mut g2 = FlowGraph::new();
        let x = ident(1, &mut g2, true);
        let y = ident(2, &mut g2, false);
        g2.connect(x, y, RoutingPolicy::Static, EdgeKind::Set).unwrap();
        assert_eq!(g2.out_edge(x).unwrap().coded_group, 1);
    }

    #[test]
    fn append_offsets_stages_and_edges() {
        let mut a = FlowGraph::new();
        let a0 = ident(2, &mut a, true);
        let a1 = ident(3, &mut a, false);
        a.connect(a0, a1, RoutingPolicy::RoundRobin, EdgeKind::Set).unwrap();
        let mut b = FlowGraph::new();
        let b0 = ident(1, &mut b, true);
        let b1 = ident(4, &mut b, false);
        b.connect_coded(
            b0,
            b1,
            RoutingPolicy::SimpleRandomization,
            EdgeKind::Set,
            RouteScope::PortGroups { group_size: 2 },
            2,
        )
        .unwrap();
        assert_eq!(a.append(b), 2);
        assert_eq!(a.stages().len(), 4);
        let reps: Vec<usize> = a.stages().iter().map(|s| s.replication).collect();
        assert_eq!(reps, [2, 3, 1, 4]);
        assert!(a.stage(StageId(2)).is_source && !a.stage(StageId(3)).is_source);
        let e = *a.out_edge(StageId(2)).unwrap();
        assert_eq!((e.from, e.to), (StageId(2), StageId(3)));
        assert_eq!(e.routing, RoutingPolicy::SimpleRandomization);
        assert_eq!(e.scope, RouteScope::PortGroups { group_size: 2 });
        assert_eq!(e.coded_group, 2);
        assert_eq!(a.out_edge(a0).unwrap().to, a1);
        assert_eq!(a.validate().unwrap().len(), 4);
        // Appending onto an empty graph is the identity.
        let mut empty = FlowGraph::new();
        assert_eq!(empty.append(a), 0);
        assert_eq!(empty.edges().len(), 2);
    }

    #[test]
    fn zero_replication_rejected() {
        let mut g = FlowGraph::new();
        ident(0, &mut g, true);
        assert_eq!(
            g.validate().unwrap_err(),
            GraphError::ZeroReplication(StageId(0))
        );
    }
}
