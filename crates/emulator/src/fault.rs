//! Fault injection surface of the emulator.
//!
//! A [`FaultSpec`] bundles a deterministic [`FaultPlan`] with optional
//! background repair; the recovery protocol runs at fixed 2002-era
//! settings ([`HEARTBEAT_PERIOD`], [`HEARTBEAT_TIMEOUT`] and
//! [`BackoffPolicy::default_2002`](lmas_sim::BackoffPolicy::default_2002)
//! retries). Every run goes through this layer: [`FaultSpec::none`]
//! is the plan with no events, and
//! [`run_job`](crate::runtime::run_job) is
//! [`run_job_with_faults`](crate::runtime::run_job_with_faults) with
//! it. An empty plan seeds no fault step, marks no node down and no
//! link lossy, so it sends no control message and takes no draw.
//!
//! What the layer models:
//!
//! - **Crash**: the node's instances stop (in-flight and queued work is
//!   lost with volatile state); packets arriving at the node bounce back
//!   to their senders as NACKs, which retry with exponential backoff
//!   against the live replicas the failure detector currently reports;
//!   records whose retry budget runs out are abandoned (counted in
//!   [`FaultStats`]) and the run drains.
//! - **Detection latency is charged**: senders keep routing to a dead
//!   node until the heartbeat timeout expires; every such delivery pays
//!   a bounce round-trip plus backoff before failing over.
//! - **Fencing**: once a node is *detected* down, unflushed instances
//!   on it have end of stream reported on their behalf so the pipeline
//!   drains instead of waiting forever.
//! - **Degrade**: the node keeps running with scaled CPU speed and disk
//!   rate — and is *not* detected as failed (no false positives from
//!   slowness alone).
//! - **LinkLoss**: each packet on the edge is dropped with the given
//!   probability (decided by the sender's deterministic RNG); the loss
//!   is surfaced as a NACK after a round trip and retried.

use crate::config::ClusterConfig;
use crate::repair::RepairSpec;
use lmas_core::NodeId;
use lmas_sim::{FaultEvent, FaultPlan, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Health of one emulated node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeHealth {
    /// Fully operational.
    Up,
    /// Running with scaled-down resources.
    Degraded {
        /// Remaining fraction of CPU speed, in `(0, 1]`.
        cpu_factor: f64,
        /// Remaining fraction of disk bandwidth, in `(0, 1]`.
        disk_factor: f64,
    },
    /// Crashed: processes nothing, bounces deliveries.
    Down,
}

/// Heartbeat probe cadence of the failure detector.
pub const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_millis(5);

/// Silence threshold before a node is declared Down. Detection lands on
/// the first heartbeat tick at or after `crash + timeout`, so that
/// latency is charged in virtual time (senders keep paying bounce
/// round-trips until then).
pub const HEARTBEAT_TIMEOUT: SimDuration = SimDuration::from_millis(15);

/// Fault-injection parameters for one run.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// The scheduled fault events (node indices per [`node_index`]).
    pub plan: FaultPlan,
    /// Background re-replication of durable blocks (see
    /// [`RepairSpec`]). `None` (the default) leaves the runtime exactly
    /// as before; `Some` tracks a replicated block population across
    /// the plan's crashes and repairs it under per-node bandwidth caps
    /// that contend with the foreground job.
    pub repair: Option<RepairSpec>,
}

impl FaultSpec {
    /// No faults: the plan with no events.
    pub fn none() -> FaultSpec {
        FaultSpec::with_plan(FaultPlan::new())
    }

    /// `plan` without background repair.
    pub fn with_plan(plan: FaultPlan) -> FaultSpec {
        FaultSpec { plan, repair: None }
    }

    /// This spec with background re-replication enabled per `repair`.
    pub fn with_repair(mut self, repair: RepairSpec) -> FaultSpec {
        self.repair = Some(repair);
        self
    }

    /// Whether the plan has any event. Only three decisions ask:
    /// background repair engages only under a plan, coded frames ship
    /// only without one, and DSM-Sort gathers record tags only under
    /// one.
    pub fn is_active(&self) -> bool {
        !self.plan.is_empty()
    }
}

/// Counters of fault-layer activity during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets re-sent after a NACK or drop.
    pub retries: u64,
    /// Deliveries bounced by a down node.
    pub nacks: u64,
    /// Packets dropped by lossy links.
    pub drops: u64,
    /// Records lost when a crash discarded an instance's queue and
    /// in-flight unit.
    pub lost_queued_records: u64,
    /// Records abandoned after the retry budget was exhausted.
    pub abandoned_records: u64,
    /// Instances that had end of stream reported on their behalf after
    /// their node was detected down.
    pub fenced_instances: u64,
    /// Down-node detections by the heartbeat controller.
    pub detections: u64,
}

impl FaultStats {
    /// True when no fault-layer event fired (a clean run).
    pub fn is_quiet(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Fold another partition's counters into this one (all fields are
    /// sums, so absorption is order-independent).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.retries += other.retries;
        self.nacks += other.nacks;
        self.drops += other.drops;
        self.lost_queued_records += other.lost_queued_records;
        self.abandoned_records += other.abandoned_records;
        self.fenced_instances += other.fenced_instances;
        self.detections += other.detections;
    }
}

/// The failure detector's verdict over time, precomputed from the plan.
///
/// Detection timing is a pure function of the plan and the protocol
/// knobs: a crash at `tc` is detected at `td = tc + k·period` where
/// `k = max(1, ceil(timeout / period))` — the first heartbeat tick (on
/// a grid anchored at the crash) at or after the silence threshold —
/// *unless* the node recovers at some `tr ≤ td`, in which case the
/// detector never fires (recovery is announced, not timed out, so the
/// detected mask flips back up at `tr` itself). Precomputing the
/// timeline turns the detector from a live ticking actor into static
/// data every partition can consult without synchronizing, which is
/// what lets faulted runs use the partitioned engine.
#[derive(Debug, Clone)]
pub struct DetectedTimeline {
    /// Per node: time-sorted `(at_ns, up)` flips of the *detected*
    /// status. A flip takes effect at `t >= at_ns`. Empty = always up.
    flips: Vec<Vec<(u64, bool)>>,
    /// Valid detections as `(node, at)`, sorted by `(at, node)` — one
    /// entry per crash that outlives its detection window. Harnesses
    /// seed exactly one detection event per entry, so the dispatch
    /// count is independent of the partition count.
    detections: Vec<(usize, SimTime)>,
}

impl DetectedTimeline {
    /// Build the timeline for `total_nodes` nodes from the plan's
    /// crash/recover events under the given heartbeat knobs.
    pub fn build(
        plan: &FaultPlan,
        period: SimDuration,
        timeout: SimDuration,
        total_nodes: usize,
    ) -> DetectedTimeline {
        let p = period.as_nanos().max(1);
        let k = timeout.as_nanos().div_ceil(p).max(1);
        let delay = k.saturating_mul(p);
        let mut flips: Vec<Vec<(u64, bool)>> = vec![Vec::new(); total_nodes];
        let mut detections: Vec<(usize, SimTime)> = Vec::new();
        // Per-node replay of the controller's state machine: `pending`
        // is the outstanding detection deadline, `detected_up` the mask.
        let mut pending: Vec<Option<u64>> = vec![None; total_nodes];
        let mut detected_up: Vec<bool> = vec![true; total_nodes];
        let mut fire = |node: usize,
                        td: u64,
                        flips: &mut Vec<Vec<(u64, bool)>>,
                        detected_up: &mut Vec<bool>| {
            flips[node].push((td, false));
            detections.push((node, SimTime(td)));
            detected_up[node] = false;
        };
        for ev in plan.sorted_events() {
            let node = ev.node();
            if node >= total_nodes {
                continue;
            }
            let te = ev.at().0;
            match ev {
                FaultEvent::Crash { .. } => {
                    // A deadline that expired strictly before (or at)
                    // this re-crash fires first; otherwise the restart
                    // of the down clock supersedes it.
                    if let Some(td) = pending[node].take() {
                        if td <= te {
                            fire(node, td, &mut flips, &mut detected_up);
                        }
                    }
                    if detected_up[node] {
                        pending[node] = Some(te.saturating_add(delay));
                    }
                }
                FaultEvent::Recover { .. } => {
                    // Recovery at the deadline itself beats the
                    // detector (`tr <= td` cancels).
                    if let Some(td) = pending[node].take() {
                        if td < te {
                            fire(node, td, &mut flips, &mut detected_up);
                        }
                    }
                    if !detected_up[node] {
                        detected_up[node] = true;
                        flips[node].push((te, true));
                    }
                }
                FaultEvent::Degrade { .. } | FaultEvent::LinkLoss { .. } => {
                    // Slowness is not failure; links are not nodes.
                }
            }
        }
        for (node, slot) in pending.iter_mut().enumerate() {
            if let Some(td) = slot.take() {
                fire(node, td, &mut flips, &mut detected_up);
            }
        }
        detections.sort_by_key(|&(n, at)| (at, n));
        DetectedTimeline { flips, detections }
    }

    /// Does the detector consider `node` up at `t`?
    pub fn is_up(&self, node: usize, t: SimTime) -> bool {
        let flips = &self.flips[node];
        let i = flips.partition_point(|&(at, _)| at <= t.0);
        i == 0 || flips[i - 1].1
    }

    /// The valid detections, `(node, at)` sorted by `(at, node)`.
    pub fn detections(&self) -> &[(usize, SimTime)] {
        &self.detections
    }
}

/// Per-directed-link packet-loss probability over time, precomputed
/// from the plan's `LinkLoss` events. Like [`DetectedTimeline`], static
/// data replaces a live mutation so every partition can sample loss at
/// send time without a shared cell. Sparse: it holds only the links the
/// plan names, so its size follows the plan, not the fleet.
#[derive(Debug, Clone)]
pub struct LossTimeline {
    /// `(from, to)` → time-sorted `(at_ns, drop_prob)` steps; the rate
    /// in force at `t` is the last step with `at_ns <= t`. Same-instant
    /// duplicates keep plan insertion order, so the later entry wins —
    /// matching live replay.
    steps: BTreeMap<(usize, usize), Vec<(u64, f64)>>,
}

impl LossTimeline {
    /// Build the timeline for `total_nodes` nodes; steps on a link with
    /// an endpoint outside the cluster are ignored.
    pub fn build(plan: &FaultPlan, total_nodes: usize) -> LossTimeline {
        let mut steps: BTreeMap<(usize, usize), Vec<(u64, f64)>> = BTreeMap::new();
        for ev in plan.sorted_events() {
            if let FaultEvent::LinkLoss {
                from,
                to,
                at,
                drop_prob,
            } = ev
            {
                if from >= total_nodes || to >= total_nodes {
                    continue;
                }
                steps.entry((from, to)).or_default().push((at.0, drop_prob));
            }
        }
        LossTimeline { steps }
    }

    /// The drop probability in force on `from → to` at `t` (0 on a link
    /// the plan never names).
    pub fn prob(&self, from: usize, to: usize, t: SimTime) -> f64 {
        let Some(steps) = self.steps.get(&(from, to)) else {
            return 0.0;
        };
        let i = steps.partition_point(|&(at, _)| at <= t.0);
        if i == 0 {
            0.0
        } else {
            steps[i - 1].1
        }
    }
}

/// The dense node index the fault layer uses: hosts first (`0..H`),
/// then ASUs (`H..H+D`) — the same order as
/// [`EmulationReport::nodes`](crate::EmulationReport::nodes).
pub fn node_index(cfg: &ClusterConfig, id: NodeId) -> usize {
    match id {
        NodeId::Host(i) => i,
        NodeId::Asu(i) => cfg.hosts + i,
    }
}

/// The node index of ASU `d` (convenience for building [`FaultPlan`]s).
pub fn asu_index(cfg: &ClusterConfig, d: usize) -> usize {
    node_index(cfg, NodeId::Asu(d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_indices_are_hosts_then_asus() {
        let cfg = ClusterConfig::era_2002(2, 3, 8.0);
        assert_eq!(node_index(&cfg, NodeId::Host(1)), 1);
        assert_eq!(node_index(&cfg, NodeId::Asu(0)), 2);
        assert_eq!(asu_index(&cfg, 2), 4);
    }

    #[test]
    fn empty_plan_is_inactive() {
        assert!(!FaultSpec::none().is_active());
        assert!(FaultSpec::with_plan(FaultPlan::new().crash(0, SimTime(5))).is_active());
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn detection_lands_on_the_first_tick_past_the_timeout() {
        // 5 ms heartbeats, 15 ms timeout → detection at crash + 15 ms;
        // a 7 ms timeout rounds up to the 10 ms tick.
        let plan = FaultPlan::new().crash(1, SimTime(ms(2).as_nanos()));
        let t = DetectedTimeline::build(&plan, ms(5), ms(15), 3);
        assert_eq!(t.detections(), &[(1, SimTime(ms(17).as_nanos()))]);
        assert!(t.is_up(1, SimTime(ms(17).as_nanos() - 1)));
        assert!(!t.is_up(1, SimTime(ms(17).as_nanos())));
        assert!(t.is_up(0, SimTime(u64::MAX)), "unfaulted node stays up");

        let t = DetectedTimeline::build(&plan, ms(5), SimDuration::from_millis(7), 3);
        assert_eq!(t.detections(), &[(1, SimTime(ms(12).as_nanos()))]);
    }

    #[test]
    fn fast_recovery_cancels_detection_and_slow_recovery_flips_back() {
        // Recover inside the window (even exactly at the deadline):
        // never detected.
        let fast = FaultPlan::new()
            .crash(0, SimTime(0))
            .recover(0, SimTime(ms(15).as_nanos()));
        let t = DetectedTimeline::build(&fast, ms(5), ms(15), 1);
        assert!(t.detections().is_empty());
        assert!(t.is_up(0, SimTime(u64::MAX)));

        // Recover after the deadline: down in [td, tr), up from tr.
        let slow = FaultPlan::new()
            .crash(0, SimTime(0))
            .recover(0, SimTime(ms(40).as_nanos()));
        let t = DetectedTimeline::build(&slow, ms(5), ms(15), 1);
        assert_eq!(t.detections(), &[(0, SimTime(ms(15).as_nanos()))]);
        assert!(!t.is_up(0, SimTime(ms(20).as_nanos())));
        assert!(t.is_up(0, SimTime(ms(40).as_nanos())));
    }

    #[test]
    fn recrash_restarts_the_detection_clock() {
        // Second crash before the first deadline supersedes it; one
        // detection, anchored at the re-crash.
        let plan = FaultPlan::new()
            .crash(0, SimTime(0))
            .crash(0, SimTime(ms(10).as_nanos()));
        let t = DetectedTimeline::build(&plan, ms(5), ms(15), 1);
        assert_eq!(t.detections(), &[(0, SimTime(ms(25).as_nanos()))]);
        // Crash while already detected down adds nothing.
        let plan = FaultPlan::new()
            .crash(0, SimTime(0))
            .crash(0, SimTime(ms(20).as_nanos()));
        let t = DetectedTimeline::build(&plan, ms(5), ms(15), 1);
        assert_eq!(t.detections(), &[(0, SimTime(ms(15).as_nanos()))]);
    }

    #[test]
    fn loss_timeline_steps_and_restores() {
        let plan = FaultPlan::new()
            .link_loss(0, 1, SimTime(100), 0.5)
            .link_loss(0, 1, SimTime(200), 0.0);
        let t = LossTimeline::build(&plan, 2);
        assert_eq!(t.prob(0, 1, SimTime(99)), 0.0);
        assert_eq!(t.prob(0, 1, SimTime(100)), 0.5);
        assert_eq!(t.prob(0, 1, SimTime(250)), 0.0, "zero restores the link");
        assert_eq!(t.prob(1, 0, SimTime(150)), 0.0, "links are directed");
    }

    #[test]
    fn loss_timeline_keeps_links_apart() {
        let plan = FaultPlan::new()
            .link_loss(0, 1, SimTime(100), 0.5)
            .link_loss(1, 0, SimTime(50), 0.25)
            .link_loss(2, 1, SimTime(100), 0.1)
            // Same instant on one link: the later step wins.
            .link_loss(2, 1, SimTime(300), 0.2)
            .link_loss(2, 1, SimTime(300), 0.3)
            // Endpoints outside a 3-node cluster are ignored.
            .link_loss(3, 0, SimTime(0), 0.9)
            .link_loss(0, 7, SimTime(0), 0.9);
        let t = LossTimeline::build(&plan, 3);
        assert_eq!(t.prob(0, 1, SimTime(100)), 0.5);
        assert_eq!(t.prob(1, 0, SimTime(60)), 0.25, "directions are apart");
        assert_eq!(t.prob(1, 0, SimTime(40)), 0.0);
        assert_eq!(t.prob(2, 1, SimTime(299)), 0.1);
        assert_eq!(t.prob(2, 1, SimTime(300)), 0.3, "the later step wins");
        assert_eq!(t.prob(1, 2, SimTime(300)), 0.0);
        assert_eq!(t.prob(0, 2, SimTime(500)), 0.0, "an unnamed link");
        assert_eq!(t.prob(3, 0, SimTime(10)), 0.0, "out of range: ignored");
        assert_eq!(t.prob(0, 7, SimTime(10)), 0.0);
        assert_eq!(t.steps.len(), 3, "one entry per named in-range link");
    }

    #[test]
    fn loss_timeline_is_sized_by_the_plan_not_the_fleet() {
        // 2^20 nodes: a table per node pair would be 2^40 entries.
        let nodes = 1 << 20;
        let plan = FaultPlan::new()
            .link_loss(0, nodes - 1, SimTime(10), 0.05)
            .link_loss(nodes - 1, 0, SimTime(20), 0.5)
            .crash(5, SimTime(30));
        let t = LossTimeline::build(&plan, nodes);
        assert_eq!(t.steps.len(), 2);
        assert_eq!(t.prob(0, nodes - 1, SimTime(10)), 0.05);
        assert_eq!(t.prob(nodes - 1, 0, SimTime(19)), 0.0);
        assert_eq!(t.prob(nodes - 1, 0, SimTime(20)), 0.5);
        assert_eq!(t.prob(12_345, 54_321, SimTime(99)), 0.0);
    }

    #[test]
    fn fault_stats_absorb_sums_fieldwise() {
        let mut a = FaultStats {
            retries: 1,
            nacks: 2,
            ..FaultStats::default()
        };
        let b = FaultStats {
            retries: 10,
            detections: 3,
            ..FaultStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.retries, 11);
        assert_eq!(a.nacks, 2);
        assert_eq!(a.detections, 3);
        assert!(!a.is_quiet());
    }
}
