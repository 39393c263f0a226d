//! The balance protocol's reactive side (DESIGN.md §5): the snapshot
//! balancer that turns the instances' depth reports into routing
//! weights (the weight function itself lives in [`crate::balance`]).

use super::msg::Msg;
use crate::balance;
use crate::metrics::Metrics;
use lmas_core::{Edge, FlowGraph, Record};
use lmas_sim::{ActorId, Ctx, SimDuration};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// One stage the snapshot balancer re-weights: its replication (for
/// zero-filling missing reports) and the upstream sender instances on
/// its [`steerable`] in-edges, the only ones that receive
/// `WeightUpdate`s.
pub(super) struct SnapTarget {
    pub(super) stage: usize,
    pub(super) replication: usize,
    pub(super) senders: Vec<ActorId>,
}

/// The runtime load balancer (Section 8's feedback loop). Purely
/// reactive — it holds no timer and reads no shared state: watched
/// instances self-sample on the `k·period` grid and ship
/// [`Msg::DepthReport`]s with a fixed delay; a batch of reports
/// triggers one reweight from the snapshot they form, and changed
/// weights travel to the senders as [`Msg::WeightUpdate`]s with the
/// link latency (weights compose with the fault layer's detected-up
/// mask, which stays an independent filter). The balancer thus
/// always acts on the *previous* window's backlog — one window of
/// staleness buys an actor protocol the partitioned engine replays
/// byte-identically.
pub(super) struct SnapshotBalancer<R: Record> {
    pub(super) spec: balance::BalanceSpec,
    pub(super) targets: Vec<SnapTarget>,
    /// Latest report per `(stage, replica)`: `(depth, cpu_ns)`.
    pub(super) snap: BTreeMap<(usize, usize), (u64, u64)>,
    /// A `BalanceTick` is queued for the batch currently landing.
    pub(super) pending: bool,
    /// Minimum cross-node delay; weight updates travel with it.
    pub(super) link_latency: SimDuration,
    /// Weights currently in force per stage (absent = never reweighted).
    pub(super) cur: BTreeMap<usize, Arc<[f64]>>,
    pub(super) metrics: Rc<RefCell<Metrics<R>>>,
}

impl<R: Record> SnapshotBalancer<R> {
    fn rebalance(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        let now = ctx.now();
        for t in &self.targets {
            let mut depths = Vec::with_capacity(t.replication);
            let mut cpu = Vec::with_capacity(t.replication);
            for j in 0..t.replication {
                let (d, c) = self.snap.get(&(t.stage, j)).copied().unwrap_or((0, 0));
                depths.push(d);
                cpu.push(c);
            }
            let new = balance::reweight(
                &depths,
                &cpu,
                self.spec.deadband,
                self.spec.cpu_deadband.as_nanos(),
                balance::MIN_WEIGHT,
            );
            if let Some(w) = new {
                if self.cur.get(&t.stage).map(|c| &c[..]) != Some(&w[..]) {
                    let stage = t.stage;
                    let key = ctx.dispatch_key();
                    let mut m = self.metrics.borrow_mut();
                    m.reweights += 1;
                    m.trace.record_with_key(now, key, || {
                        ("balance", format!("reweight stage {stage}: {w:?}"))
                    });
                    drop(m);
                    let w: Arc<[f64]> = w.into();
                    for &a in &t.senders {
                        ctx.send(
                            a,
                            self.link_latency,
                            Msg::WeightUpdate {
                                stage,
                                weights: w.clone(),
                            },
                        );
                    }
                    self.cur.insert(stage, w);
                }
            }
        }
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for SnapshotBalancer<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::DepthReport {
                stage,
                replica,
                depth,
                cpu_ns,
            } => {
                self.snap.insert((stage, replica), (depth, cpu_ns));
                if !self.pending {
                    // Reweight once the whole batch is in: reports of a
                    // grid instant all arrive at the same virtual time
                    // (uniform shipping delay), so a 1 ns deferral runs
                    // after the last of them and before anything else.
                    self.pending = true;
                    ctx.send(ctx.me(), SimDuration::from_nanos(1), Msg::BalanceTick);
                }
            }
            Msg::BalanceTick => {
                self.pending = false;
                self.rebalance(ctx);
            }
            _ => unreachable!("non-balance message delivered to the balancer"),
        }
    }
}

/// Whether a reweight of `e`'s destination stage can move a pick on
/// `e`: its policy reads weights and each pick chooses among more than
/// one replica.
pub(super) fn steerable<R: Record>(graph: &FlowGraph<R>, e: &Edge) -> bool {
    e.routing.reads_weights() && graph.group_size(e) > 1
}

/// The stages the runtime balancer watches: those with a
/// [`steerable`] in-edge, sorted and deduped. A stage fed only through
/// Static or RoundRobin edges, or only through one-replica groups, is
/// never sampled: no weight could change where its records go.
pub(super) fn watched_stages<R: Record>(graph: &FlowGraph<R>) -> Vec<usize> {
    let mut watched: Vec<usize> = graph
        .edges()
        .iter()
        .filter(|e| steerable(graph, e))
        .map(|e| e.to.0)
        .collect();
    watched.sort_unstable();
    watched.dedup();
    watched
}
