//! Placement: which node runs each functor instance.
//!
//! The mapping of functors to hosts and ASUs is "configurable and
//! potentially dynamic" (Section 8); a [`Placement`] is one concrete
//! assignment, validated against node memory limits and each functor's
//! [`FunctorKind`] contract.

use crate::functor::FunctorKind;
use std::collections::HashMap;
use std::fmt;

/// A node of the emulated system: a powerful host or an ASU.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord,
)]
pub enum NodeId {
    /// Dedicated application host `i` (large memory, full-speed CPU).
    Host(usize),
    /// Active storage unit `i` (co-located disk, slower CPU, bounded
    /// memory, possibly shared).
    Asu(usize),
}

impl NodeId {
    /// True for ASUs.
    pub fn is_asu(&self) -> bool {
        matches!(self, NodeId::Asu(_))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Host(i) => write!(f, "host{i}"),
            NodeId::Asu(i) => write!(f, "asu{i}"),
        }
    }
}

/// Identifies a stage within a [`crate::graph::FlowGraph`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord,
)]
pub struct StageId(pub usize);

/// Assignment of every `(stage, instance)` to a node.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    map: HashMap<(StageId, usize), NodeId>,
}

/// Placement validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// An instance has no assigned node.
    Unassigned {
        /// The stage missing an assignment.
        stage: StageId,
        /// The instance index.
        instance: usize,
    },
    /// A host-only or over-budget functor was placed on an ASU.
    NotAsuEligible {
        /// The offending stage.
        stage: StageId,
        /// The instance index.
        instance: usize,
        /// The ASU it was placed on.
        node: NodeId,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::Unassigned { stage, instance } => {
                write!(f, "stage {stage:?} instance {instance} has no node")
            }
            PlacementError::NotAsuEligible {
                stage,
                instance,
                node,
            } => write!(
                f,
                "stage {stage:?} instance {instance} cannot run on {node}: \
                 functor is not ASU-eligible within the ASU memory bound"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

impl Placement {
    /// An empty placement.
    pub fn new() -> Placement {
        Placement::default()
    }

    /// Assign instance `instance` of `stage` to `node`.
    pub fn assign(&mut self, stage: StageId, instance: usize, node: NodeId) -> &mut Self {
        self.map.insert((stage, instance), node);
        self
    }

    /// Assign instance `i` of `stage` to `Host(i % hosts)`.
    pub fn spread_over_hosts(&mut self, stage: StageId, n: usize, hosts: usize) -> &mut Self {
        assert!(hosts > 0, "need at least one host");
        for i in 0..n {
            self.assign(stage, i, NodeId::Host(i % hosts));
        }
        self
    }

    /// Assign instance `i` of `stage` to `Asu(i % asus)` (one instance per
    /// ASU when `n == asus`).
    pub fn spread_over_asus(&mut self, stage: StageId, n: usize, asus: usize) -> &mut Self {
        assert!(asus > 0, "need at least one ASU");
        for i in 0..n {
            self.assign(stage, i, NodeId::Asu(i % asus));
        }
        self
    }

    /// The node of `(stage, instance)`, if assigned.
    pub fn node_of(&self, stage: StageId, instance: usize) -> Option<NodeId> {
        self.map.get(&(stage, instance)).copied()
    }

    /// All instances of `stage` placed on ASUs.
    pub fn asu_instances(&self, stage: StageId) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .map
            .iter()
            .filter(|((s, _), n)| *s == stage && n.is_asu())
            .map(|((_, i), _)| *i)
            .collect();
        v.sort_unstable();
        v
    }

    /// Validate instance coverage and ASU-eligibility.
    ///
    /// * `stages` — `(stage, replication, kind)` for every stage;
    /// * `asu_mem` — per-ASU memory available for functor state.
    pub fn validate(
        &self,
        stages: &[(StageId, usize, FunctorKind)],
        asu_mem: usize,
    ) -> Result<(), PlacementError> {
        for &(stage, replication, kind) in stages {
            for instance in 0..replication {
                match self.node_of(stage, instance) {
                    None => return Err(PlacementError::Unassigned { stage, instance }),
                    Some(node @ NodeId::Asu(_)) => {
                        if !kind.asu_placeable(asu_mem) {
                            return Err(PlacementError::NotAsuEligible {
                                stage,
                                instance,
                                node,
                            });
                        }
                    }
                    Some(NodeId::Host(_)) => {}
                }
            }
        }
        Ok(())
    }

    /// Number of assignments.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no assignments exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S0: StageId = StageId(0);
    const S1: StageId = StageId(1);

    #[test]
    fn assign_and_lookup() {
        let mut p = Placement::new();
        p.assign(S0, 0, NodeId::Asu(3));
        assert_eq!(p.node_of(S0, 0), Some(NodeId::Asu(3)));
        assert_eq!(p.node_of(S0, 1), None);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn spread_helpers_round_robin() {
        let mut p = Placement::new();
        p.spread_over_hosts(S0, 5, 2);
        assert_eq!(p.node_of(S0, 0), Some(NodeId::Host(0)));
        assert_eq!(p.node_of(S0, 1), Some(NodeId::Host(1)));
        assert_eq!(p.node_of(S0, 4), Some(NodeId::Host(0)));
        p.spread_over_asus(S1, 4, 4);
        assert_eq!(p.asu_instances(S1), vec![0, 1, 2, 3]);
    }

    #[test]
    fn validate_catches_unassigned() {
        let p = Placement::new();
        let stages = [(S0, 1, FunctorKind::HostOnly)];
        assert_eq!(
            p.validate(&stages, 1024),
            Err(PlacementError::Unassigned {
                stage: S0,
                instance: 0
            })
        );
    }

    #[test]
    fn validate_rejects_host_only_on_asu() {
        let mut p = Placement::new();
        p.assign(S0, 0, NodeId::Asu(0));
        let stages = [(S0, 1, FunctorKind::HostOnly)];
        assert!(matches!(
            p.validate(&stages, usize::MAX),
            Err(PlacementError::NotAsuEligible { .. })
        ));
    }

    #[test]
    fn validate_enforces_asu_memory_bound() {
        let mut p = Placement::new();
        p.assign(S0, 0, NodeId::Asu(0));
        let big = [(
            S0,
            1,
            FunctorKind::AsuEligible {
                max_state_bytes: 1 << 20,
            },
        )];
        assert!(p.validate(&big, 1 << 10).is_err());
        assert!(p.validate(&big, 1 << 20).is_ok());
        // Hosts are unconstrained.
        let mut p2 = Placement::new();
        p2.assign(S0, 0, NodeId::Host(0));
        assert!(p2.validate(&big, 0).is_ok());
    }

    #[test]
    fn display_names() {
        assert_eq!(NodeId::Host(2).to_string(), "host2");
        assert_eq!(NodeId::Asu(7).to_string(), "asu7");
        assert!(NodeId::Asu(0).is_asu());
        assert!(!NodeId::Host(0).is_asu());
    }
}
