//! The fault protocol's controller side (DESIGN.md §5): replays node
//! health steps and detector verdicts, and fences the dead.

use super::eos::EosFabric;
use super::instance::InstFlags;
use super::msg::Msg;
use crate::fault::{DetectedTimeline, NodeHealth};
use crate::metrics::Metrics;
use crate::node::NodeRes;
use lmas_core::Record;
use lmas_sim::{ActorId, Ctx, FaultEvent, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// An instance the controller acts for: `(global index == actor id,
/// stage)`.
pub(super) type Resident = (usize, usize);

/// Per dense node, the instances resident on it.
pub(super) type NodeInstances = Vec<Vec<Resident>>;

/// One job's instances, each as `(dense node, resident)`.
pub(super) type Members = Vec<(usize, Resident)>;

/// The fault controller: replays the plan's node-health steps and the
/// detector timeline's precomputed verdicts. There is one controller
/// per partition, each seeded only with the events whose node it owns
/// (a one-partition run's single controller owns every node). Every
/// send it makes is either node-local (`send_now` to instances resident
/// on the event's node) or carries the link latency, so replay is
/// byte-identical however the actors partition.
///
/// It acts only for instances in its table. A multi-tenant run's
/// scheduler shares the controller and adds each job's instances at
/// dispatch ([`admit`](Self::admit)): a queued or rejected job holds no
/// emulated resources, so no crash kills it and no fence completes it.
pub(super) struct FaultController<R: Record> {
    pub(super) events: Vec<FaultEvent>,
    /// Node objects this controller owns (dense index; `None` = another
    /// partition's node, which this controller is never asked about).
    pub(super) nodes: Vec<Option<Rc<RefCell<NodeRes>>>>,
    pub(super) flags: Rc<RefCell<Vec<InstFlags>>>,
    /// Per owned node, the instances it acts for, in slot order.
    pub(super) instances_on: RefCell<NodeInstances>,
    /// The detector's verdicts, for instances admitted after one landed.
    pub(super) detected: Arc<DetectedTimeline>,
    /// This partition's end-of-stream countdowns.
    pub(super) eos: Rc<EosFabric>,
    /// Minimum cross-node delay (the parallel lookahead); fence marks
    /// for other nodes travel with it.
    pub(super) link_latency: SimDuration,
    pub(super) metrics: Rc<RefCell<Metrics<R>>>,
}

impl<R: Record> FaultController<R> {
    /// The node a step names — always owned by this controller: plan
    /// events are bounds-checked against the cluster before the run
    /// starts, and a partition's controller is seeded only with steps
    /// for nodes it owns. A miss is a seeding bug, not a user-reachable
    /// state, so it degrades to skipping the step instead of aborting
    /// the run.
    fn node(&self, n: usize) -> Option<&Rc<RefCell<NodeRes>>> {
        let nd = self.nodes[n].as_ref();
        debug_assert!(nd.is_some(), "fault event on an unowned node");
        nd
    }

    /// End of stream on behalf of an unflushed, unfenced instance on a
    /// detected-down node, so consumers stop waiting for the dead and a
    /// dead sink's job can complete. It reaches consumers on the dead
    /// node itself at once (the node-local convention) and those on
    /// other nodes one control delay later, like any cross-node control
    /// message.
    fn fence(&self, ctx: &mut Ctx<'_, Msg<R>>, node: usize, (gi, stage): Resident) {
        {
            let mut f = self.flags.borrow_mut();
            if f[gi].flushed || f[gi].fenced {
                return;
            }
            f[gi].fenced = true;
        }
        self.metrics.borrow_mut().fault.fenced_instances += 1;
        let now = ctx.now();
        self.eos
            .send_eos(ctx, stage, node, now, Some(now + self.link_latency));
    }

    /// A job's instances join the table at its dispatch. One on a down
    /// node dies at once, one on a detected-down node is fenced at once:
    /// as if the crash or the detection happened now.
    pub(super) fn admit(&self, ctx: &mut Ctx<'_, Msg<R>>, members: Members) {
        for (node, r) in members {
            self.instances_on.borrow_mut()[node].push(r);
            if self.node(node).is_some_and(|nd| nd.borrow().is_down()) {
                ctx.send_now(ActorId(r.0), Msg::Kill);
            }
            if !self.detected.is_up(node, ctx.now()) {
                self.fence(ctx, node, r);
            }
        }
    }

    fn apply(&self, ctx: &mut Ctx<'_, Msg<R>>, i: usize) {
        let now = ctx.now();
        let key = ctx.dispatch_key();
        match self.events[i] {
            FaultEvent::Crash { node, .. } => {
                let Some(nd) = self.node(node) else { return };
                nd.borrow_mut().set_health(NodeHealth::Down);
                for &(gi, _) in self.instances_on.borrow()[node].iter() {
                    ctx.send_now(ActorId(gi), Msg::Kill);
                }
                self.metrics
                    .borrow_mut()
                    .trace
                    .record_with_key(now, key, || ("fault", format!("crash node {node}")));
            }
            FaultEvent::Recover { node, .. } => {
                let Some(nd) = self.node(node) else { return };
                nd.borrow_mut().set_health(NodeHealth::Up);
                for &(gi, _) in self.instances_on.borrow()[node].iter() {
                    ctx.send_now(ActorId(gi), Msg::Revive);
                }
                self.metrics
                    .borrow_mut()
                    .trace
                    .record_with_key(now, key, || ("fault", format!("recover node {node}")));
            }
            FaultEvent::Degrade {
                node,
                cpu_factor,
                disk_factor,
                ..
            } => {
                let Some(nd) = self.node(node) else { return };
                nd.borrow_mut().set_health(NodeHealth::Degraded {
                    cpu_factor,
                    disk_factor,
                });
                self.metrics
                    .borrow_mut()
                    .trace
                    .record_with_key(now, key, || ("fault", format!("degrade node {node}")));
            }
            FaultEvent::LinkLoss { .. } => {
                // Senders sample the loss timeline directly; loss steps
                // are never seeded as controller events.
                unreachable!("LinkLoss is not a controller step")
            }
        }
    }

    /// A precomputed detection verdict lands: count it and fence every
    /// instance on the node.
    fn detect(&self, ctx: &mut Ctx<'_, Msg<R>>, node: usize) {
        let now = ctx.now();
        let key = ctx.dispatch_key();
        {
            let mut m = self.metrics.borrow_mut();
            m.fault.detections += 1;
            m.trace
                .record_with_key(now, key, || ("fault", format!("detected node {node} down")));
        }
        for &r in self.instances_on.borrow()[node].iter() {
            self.fence(ctx, node, r);
        }
    }
}

/// Installed behind an `Rc`: a multi-tenant run's scheduler holds the
/// other handle and admits jobs through it.
impl<R: Record> lmas_sim::Actor<Msg<R>> for Rc<FaultController<R>> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::FaultStep(i) => self.apply(ctx, i),
            Msg::Detect(n) => self.detect(ctx, n),
            _ => unreachable!("non-fault message delivered to the controller"),
        }
    }
}
