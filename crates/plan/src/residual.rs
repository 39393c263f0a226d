//! Residual capacity: what fraction of each node's CPU, disk, and NIC
//! is still available to a *new* job once the jobs already running on
//! the cluster have taken their share.
//!
//! The estimator's raw rates describe an empty cluster. A multi-tenant
//! scheduler instead derives, for every node, the fraction of each
//! resource class the currently running jobs occupy (their predicted
//! per-node busy time over their predicted makespan) and hands the
//! *remainder* to [`estimate_residual`](crate::estimate::estimate_residual)
//! / [`plan_residual`](crate::search::plan_residual): a node half-busy
//! with someone else's sort effectively has half the CPU rate, so the
//! bottleneck-makespan search routes new work around it.
//!
//! Fractions are clamped to [`ResidualCapacity::FLOOR`] — a saturated
//! node never divides by zero, it just looks extremely slow. A
//! [`ResidualCapacity::full`] view (all 1.0) reproduces the raw-rate
//! estimate bit for bit (multiplying a rate by 1.0 is exact in IEEE
//! 754), which is what keeps every pre-scheduler golden unchanged.

use lmas_core::placement::NodeId;

/// Per-node fractional headroom in planner node order (hosts `0..H`,
/// then ASUs `H..H+D`), each component in `(0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualCapacity {
    /// CPU headroom fraction per node.
    pub cpu: Vec<f64>,
    /// Disk-bandwidth headroom fraction per node.
    pub disk: Vec<f64>,
    /// Outbound-NIC headroom fraction per node.
    pub nic: Vec<f64>,
}

impl ResidualCapacity {
    /// Minimum headroom a node is ever modeled with: occupancy beyond
    /// this makes the node look 20× slow rather than infinitely slow,
    /// keeping every estimate finite and the search total.
    pub const FLOOR: f64 = 0.05;

    /// An empty cluster: full headroom everywhere. Estimates taken
    /// against this view are bit-identical to the raw-rate estimator.
    pub fn full(nodes: usize) -> Self {
        ResidualCapacity {
            cpu: vec![1.0; nodes],
            disk: vec![1.0; nodes],
            nic: vec![1.0; nodes],
        }
    }

    /// Back to full headroom everywhere, keeping the buffers (a ledger
    /// rebuilt per arrival starts here).
    pub fn reset(&mut self) {
        self.cpu.fill(1.0);
        self.disk.fill(1.0);
        self.nic.fill(1.0);
    }

    /// Number of nodes this view covers.
    pub fn len(&self) -> usize {
        self.cpu.len()
    }

    /// True when the view covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.cpu.is_empty()
    }

    /// True when every component is exactly 1.0 (the empty-cluster view).
    pub fn is_full(&self) -> bool {
        self.cpu.iter().all(|&f| f == 1.0)
            && self.disk.iter().all(|&f| f == 1.0)
            && self.nic.iter().all(|&f| f == 1.0)
    }

    /// Planner node index of `node` given the host count (hosts first,
    /// then ASUs) — the order [`full`](Self::full) and the estimator use.
    pub fn node_index(hosts: usize, node: NodeId) -> usize {
        match node {
            NodeId::Host(i) => i,
            NodeId::Asu(i) => hosts + i,
        }
    }

    /// Subtract a running job's share of node `ui`'s resources, clamping
    /// each component to [`FLOOR`](Self::FLOOR). Shares outside [0, 1]
    /// are clamped before subtraction so a mis-scaled caller cannot
    /// produce negative headroom.
    pub fn occupy(&mut self, ui: usize, cpu: f64, disk: f64, nic: f64) {
        let take = |slot: &mut f64, share: f64| {
            *slot = (*slot - share.clamp(0.0, 1.0)).max(Self::FLOOR);
        };
        take(&mut self.cpu[ui], cpu);
        take(&mut self.disk[ui], disk);
        take(&mut self.nic[ui], nic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_is_full() {
        let r = ResidualCapacity::full(5);
        assert_eq!(r.len(), 5);
        assert!(r.is_full());
    }

    #[test]
    fn occupy_clamps_to_floor() {
        let mut r = ResidualCapacity::full(2);
        r.occupy(0, 0.7, 2.5, -0.3);
        assert!((r.cpu[0] - 0.3).abs() < 1e-12);
        assert_eq!(r.disk[0], ResidualCapacity::FLOOR);
        assert_eq!(r.nic[0], 1.0);
        r.occupy(0, 0.9, 0.0, 0.0);
        assert_eq!(r.cpu[0], ResidualCapacity::FLOOR);
        assert!(!r.is_full());
        r.reset();
        assert_eq!(r, ResidualCapacity::full(2));
    }

    #[test]
    fn node_index_orders_hosts_then_asus() {
        assert_eq!(ResidualCapacity::node_index(2, NodeId::Host(1)), 1);
        assert_eq!(ResidualCapacity::node_index(2, NodeId::Asu(0)), 2);
        assert_eq!(ResidualCapacity::node_index(2, NodeId::Asu(3)), 5);
    }
}
