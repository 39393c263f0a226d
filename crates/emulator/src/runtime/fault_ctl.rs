//! The fault protocol's controller side (DESIGN.md §5): replays node
//! health steps and detector verdicts, and fences the dead.

use super::eos::EosFabric;
use super::instance::InstFlags;
use super::msg::Msg;
use crate::fault::NodeHealth;
use crate::metrics::Metrics;
use crate::node::NodeRes;
use lmas_core::Record;
use lmas_sim::{ActorId, Ctx, FaultEvent, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Per dense node, the instances resident on it as `(global index,
/// destination stage)`.
pub(super) type NodeInstances = Vec<Vec<(usize, Option<usize>)>>;

/// The fault controller: replays the plan's node-health steps and the
/// detector timeline's precomputed verdicts. There is one controller
/// per partition, each seeded only with the events whose node it owns
/// (a one-partition run's single controller owns every node). Every
/// send it makes is either node-local (`send_now` to instances resident
/// on the event's node) or carries the link latency, so replay is
/// byte-identical however the actors partition.
pub(super) struct FaultController<R: Record> {
    pub(super) events: Vec<FaultEvent>,
    /// Node objects this controller owns (dense index; `None` = another
    /// partition's node, which this controller is never asked about).
    pub(super) nodes: Vec<Option<Rc<RefCell<NodeRes>>>>,
    pub(super) flags: Rc<RefCell<Vec<InstFlags>>>,
    /// Per node, each resident instance as `(global index == actor id,
    /// the stage it sends to, `None` for sinks)`. A pure function of
    /// the instance table, so one copy serves every partition.
    pub(super) instances_on: Arc<NodeInstances>,
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

    /// End of stream on behalf of every unflushed instance on a
    /// detected-down node, so downstream consumers stop waiting for the
    /// dead. It reaches consumers on the dead node itself at once (the
    /// node-local convention) and those on other nodes one control
    /// delay later, like any cross-node control message.
    fn fence_node(&mut self, ctx: &mut Ctx<'_, Msg<R>>, node: usize) {
        for i in 0..self.instances_on[node].len() {
            let (gi, dest) = self.instances_on[node][i];
            let already = {
                let f = self.flags.borrow();
                f[gi].flushed || f[gi].fenced
            };
            if already {
                continue;
            }
            self.flags.borrow_mut()[gi].fenced = true;
            self.metrics.borrow_mut().fault.fenced_instances += 1;
            if let Some(stage) = dest {
                let now = ctx.now();
                let remote = now + self.link_latency;
                self.eos.send_eos(ctx, stage, node, now, Some(remote));
            }
        }
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, Msg<R>>, i: usize) {
        let now = ctx.now();
        let key = ctx.dispatch_key();
        match self.events[i] {
            FaultEvent::Crash { node, .. } => {
                let Some(nd) = self.node(node) else { return };
                nd.borrow_mut().set_health(NodeHealth::Down);
                for &(gi, _) in self.instances_on[node].iter() {
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
                for &(gi, _) in self.instances_on[node].iter() {
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
        let key = ctx.dispatch_key();
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
