//! The fault protocol's controller side (DESIGN.md §5): replays node
//! health steps and detector verdicts, and fences the dead.

use super::instance::InstFlags;
use super::msg::{par_key, Msg};
use crate::fault::NodeHealth;
use crate::metrics::Metrics;
use crate::node::NodeRes;
use lmas_core::Record;
use lmas_sim::{ActorId, Ctx, FaultEvent, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Downstream `(actor, dense node)` fencing targets per global instance
/// (`None` for sinks).
pub(super) type FenceTargets = Vec<Option<Vec<(ActorId, usize)>>>;

/// The fault controller: replays the plan's node-health steps and the
/// detector timeline's precomputed verdicts. There is one controller
/// per partition, each seeded only with the events whose node it owns
/// (a one-partition run's single controller owns every node). Every
/// send it makes is either node-local (`send_now` to instances resident
/// on the event's node) or carries the control delay, so replay is
/// byte-identical however the actors partition.
pub(super) struct FaultController<R: Record> {
    pub(super) events: Vec<FaultEvent>,
    /// Node objects this controller owns (dense index; `None` = another
    /// partition's node, which this controller is never asked about).
    pub(super) nodes: Vec<Option<Rc<RefCell<NodeRes>>>>,
    pub(super) flags: Rc<RefCell<Vec<InstFlags>>>,
    /// Global instance indices (== actor ids) resident on each node.
    /// Like `inst_downstream`, a pure function of the instance table,
    /// so one copy serves every partition.
    pub(super) instances_on: Arc<Vec<Vec<usize>>>,
    pub(super) inst_downstream: Arc<FenceTargets>,
    /// Minimum cross-node delay (the parallel lookahead); fence EOS to
    /// other nodes travels with it.
    pub(super) ctl: SimDuration,
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

    /// EOS on behalf of every unflushed instance on a detected-down
    /// node, so downstream consumers stop waiting for the dead. Marks
    /// for consumers on the dead node itself land immediately (the
    /// node-local convention); marks for other nodes travel one control
    /// delay, like any cross-node control message.
    fn fence_node(&mut self, ctx: &mut Ctx<'_, Msg<R>>, node: usize) {
        for i in 0..self.instances_on[node].len() {
            let gi = self.instances_on[node][i];
            let already = {
                let f = self.flags.borrow();
                f[gi].flushed || f[gi].fenced
            };
            if already {
                continue;
            }
            self.flags.borrow_mut()[gi].fenced = true;
            self.metrics.borrow_mut().fault.fenced_instances += 1;
            if let Some(targets) = &self.inst_downstream[gi] {
                for &(a, target_node) in targets {
                    if target_node == node {
                        ctx.send_now(a, Msg::Eos);
                    } else {
                        ctx.send(a, self.ctl, Msg::Eos);
                    }
                }
            }
        }
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, Msg<R>>, i: usize) {
        let now = ctx.now();
        let key = par_key(ctx);
        match self.events[i] {
            FaultEvent::Crash { node, .. } => {
                let Some(nd) = self.node(node) else { return };
                nd.borrow_mut().set_health(NodeHealth::Down);
                for j in 0..self.instances_on[node].len() {
                    let gi = self.instances_on[node][j];
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
                for j in 0..self.instances_on[node].len() {
                    let gi = self.instances_on[node][j];
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

    /// A precomputed detection verdict lands: count it and fence. The
    /// routing masks flip on their own (instances sample the timeline).
    fn detect(&mut self, ctx: &mut Ctx<'_, Msg<R>>, node: usize) {
        let now = ctx.now();
        let key = par_key(ctx);
        {
            let mut m = self.metrics.borrow_mut();
            m.fault.detections += 1;
            m.trace
                .record_with_key(now, key, || ("fault", format!("detected node {node} down")));
        }
        self.fence_node(ctx, node);
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for FaultController<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::FaultStep(i) => self.apply(ctx, i),
            Msg::Detect(n) => self.detect(ctx, n),
            _ => unreachable!("non-fault message delivered to the controller"),
        }
    }
}
