//! The repair protocol (DESIGN.md §5): the coordinator driving the
//! pure [`RepairEngine`] and the per-ASU agents that pace and charge
//! every transfer.

use super::msg::Msg;
use crate::metrics::Metrics;
use crate::node::NodeRes;
use crate::repair::{RepairCmd, RepairEngine, RepairEv, RepairJob};
use lmas_core::Record;
use lmas_sim::{ActorId, Ctx, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// A completion buffered at the coordinator until the instant's
/// [`Msg::RepairFlush`]: either a landed/failed transfer or a bounce.
pub(super) enum RepairOutcome {
    Done {
        id: u64,
        block: u64,
        dest: u32,
        ok: bool,
    },
    Bounce {
        id: u64,
        block: u64,
    },
}

impl RepairOutcome {
    /// Assignment id — unique per outcome, the canonical flush order.
    fn id(&self) -> u64 {
        match *self {
            RepairOutcome::Done { id, .. } | RepairOutcome::Bounce { id, .. } => id,
        }
    }
}

/// The background re-replication coordinator (see [`crate::repair`]):
/// replays the precomputed repair timeline through the pure
/// [`RepairEngine`] and exchanges transfer commands with the per-ASU
/// repair agents. Exactly like the fault controller, every input is
/// either pre-seeded static data or a message that travelled at least
/// one link latency, so repair runs partition cleanly (the coordinator
/// lives on partition 0).
///
/// The engine is the ground truth for replica state; transfers are
/// *optimistic* — a source that crashes after dispatch still delivers
/// (the bytes were on the wire), and completions are validated by
/// assignment id at credit time. A crashed agent hands its queue back
/// within one pacing interval, so no assignment is ever stranded.
pub(super) struct RepairCoordinator<R: Record> {
    pub(super) engine: RepairEngine,
    pub(super) timeline: Arc<Vec<(SimTime, RepairEv)>>,
    /// Repair agent of ASU ordinal `d`.
    pub(super) agents: Vec<ActorId>,
    pub(super) link_latency: SimDuration,
    /// Trajectory recording on (`RepairSpec::sample_every > 0`).
    pub(super) sampling: bool,
    /// Completions awaiting this instant's flush. The engine's source
    /// and destination choices read mutable load state, so same-instant
    /// completions are applied in assignment-id order at the flush —
    /// never in arrival order, which the sequential and partitioned
    /// engines do not agree on.
    pub(super) buf: Vec<RepairOutcome>,
    /// Instant the pending [`Msg::RepairFlush`] was scheduled for (at
    /// most one is ever in flight).
    pub(super) flush_at: SimTime,
    pub(super) metrics: Rc<RefCell<Metrics<R>>>,
}

impl<R: Record> RepairCoordinator<R> {
    /// Ship the engine's commands and mirror its state into the run
    /// metrics (the report reads the mirror after the drain).
    fn emit(&mut self, ctx: &mut Ctx<'_, Msg<R>>, cmds: Vec<RepairCmd>) {
        for RepairCmd { src, job } in cmds {
            ctx.send(
                self.agents[src as usize],
                self.link_latency,
                Msg::RepairFetch(job),
            );
        }
        let mut m = self.metrics.borrow_mut();
        m.repair = self.engine.stats;
        m.replica_hist = self.engine.hist().to_vec();
    }

    /// Buffer a completion and make sure this instant's flush is
    /// scheduled. The flush self-message fires after every other repair
    /// message at the instant in both engines, so applying the buffer
    /// there (in id order) erases any arrival-order difference between
    /// the sequential and partitioned runs.
    fn defer(&mut self, ctx: &mut Ctx<'_, Msg<R>>, o: RepairOutcome) {
        self.buf.push(o);
        let now = ctx.now();
        if self.flush_at != now {
            self.flush_at = now;
            ctx.send_now(ctx.me(), Msg::RepairFlush);
        }
    }

    /// Record a trajectory point, coalescing same-instant entries (the
    /// last write at an instant wins). All same-instant engine updates
    /// are applied by the canonical-order flush, so the surviving entry
    /// — the post-instant state — is identical across thread counts.
    fn record(&mut self, now: SimTime) {
        if !self.sampling {
            return;
        }
        let s = self.engine.sample(now);
        let mut m = self.metrics.borrow_mut();
        if let Some(last) = m.repair_samples.last_mut() {
            if last.at == s.at {
                *last = s;
                return;
            }
        }
        m.repair_samples.push(s);
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for RepairCoordinator<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::RepairStep(i) => {
                let (_, ev) = self.timeline[i];
                let cmds = self.engine.on_event(ev);
                self.emit(ctx, cmds);
                self.record(ctx.now());
            }
            Msg::RepairDone {
                id,
                block,
                dest,
                ok,
            } => {
                self.defer(
                    ctx,
                    RepairOutcome::Done {
                        id,
                        block,
                        dest,
                        ok,
                    },
                );
            }
            Msg::RepairBounce { id, block } => {
                self.defer(ctx, RepairOutcome::Bounce { id, block });
            }
            Msg::RepairFlush => {
                let mut buf = std::mem::take(&mut self.buf);
                buf.sort_unstable_by_key(RepairOutcome::id);
                for o in buf {
                    let cmds = match o {
                        RepairOutcome::Done {
                            id,
                            block,
                            dest,
                            ok,
                        } => self.engine.on_done(id, block, dest, ok),
                        RepairOutcome::Bounce { id, block } => self.engine.on_bounce(id, block),
                    };
                    self.emit(ctx, cmds);
                }
                self.record(ctx.now());
            }
            Msg::RepairSampleTick => self.record(ctx.now()),
            _ => unreachable!("non-repair message delivered to the coordinator"),
        }
    }
}

/// One repair agent per ASU: queues the transfers the coordinator
/// assigns to this ASU as a *source*, paces dispatches to the per-node
/// repair-bandwidth cap, and charges every transfer through the node's
/// real disk and NIC — repair contends with foreground work on the same
/// FCFS resources (and repair writes extend the disk-quiesce horizon,
/// so the makespan honestly includes trailing re-replication).
pub(super) struct RepairAgent<R: Record> {
    /// This agent's ASU ordinal.
    pub(super) ordinal: usize,
    pub(super) node: Rc<RefCell<NodeRes>>,
    pub(super) coord: ActorId,
    /// Actor id of ASU ordinal 0's agent (destination `d` is `base + d`).
    pub(super) agents_base: usize,
    pub(super) queue: VecDeque<RepairJob>,
    /// A pacing chain ([`Msg::RepairNext`]) is in flight.
    pub(super) busy: bool,
    /// Earliest instant the next transfer may start (the pacing cap:
    /// one block per `pace` per node).
    pub(super) next_slot: SimTime,
    /// Destination writes that arrived at the current instant, buffered
    /// until its [`Msg::RepairWriteFlush`].
    pub(super) wbuf: Vec<RepairJob>,
    /// Instant the pending [`Msg::RepairWriteFlush`] was scheduled for.
    pub(super) wflush_at: SimTime,
    pub(super) pace: SimDuration,
    pub(super) link_rate: f64,
    pub(super) link_latency: SimDuration,
    pub(super) metrics: Rc<RefCell<Metrics<R>>>,
}

impl<R: Record> RepairAgent<R> {
    fn bounce(&mut self, ctx: &mut Ctx<'_, Msg<R>>, job: RepairJob) {
        ctx.send(
            self.coord,
            self.link_latency,
            Msg::RepairBounce {
                id: job.id,
                block: job.block,
            },
        );
    }

    /// Dispatch the next queued transfer, respecting the pacing cap. At
    /// most one chain event is ever outstanding (`busy`), so a queue is
    /// revisited within one pacing interval — in particular, a crashed
    /// agent hands its whole queue back to the coordinator by then.
    fn pump(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        let now = ctx.now();
        if self.node.borrow().is_down() {
            while let Some(job) = self.queue.pop_front() {
                self.bounce(ctx, job);
            }
            self.busy = false;
            return;
        }
        if now < self.next_slot {
            ctx.send_at(ctx.me(), self.next_slot, Msg::RepairNext);
            return;
        }
        let Some(job) = self.queue.pop_front() else {
            self.busy = false;
            return;
        };
        self.next_slot = now + self.pace;
        let (ready, grant_end) = {
            let mut n = self.node.borrow_mut();
            let ready = n.disk_read(now, job.bytes);
            let grant = n.charge_nic(ready, job.bytes, self.link_rate);
            (ready, grant.end)
        };
        self.metrics.borrow_mut().repair_src_bytes[self.ordinal] += job.bytes;
        // Arrival pays the full NIC serialization plus the link latency,
        // so even an agent-local hop travels at least one link latency —
        // the partitioned lookahead holds for every repair message.
        ctx.send_at(
            ActorId(self.agents_base + job.dest as usize),
            grant_end + self.link_latency,
            Msg::RepairWrite(job),
        );
        ctx.send_at(ctx.me(), ready.max(self.next_slot), Msg::RepairNext);
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for RepairAgent<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::RepairFetch(job) => {
                if self.node.borrow().is_down() {
                    self.bounce(ctx, job);
                    return;
                }
                if job.critical {
                    // Blocks more than one copy down jump the queue:
                    // they sit after earlier critical jobs but ahead of
                    // every single-copy-down repair. Insertion order is
                    // deterministic (one coordinator feeds each agent).
                    let pos = self
                        .queue
                        .iter()
                        .position(|j| !j.critical)
                        .unwrap_or(self.queue.len());
                    self.queue.insert(pos, job);
                } else {
                    self.queue.push_back(job);
                }
                if !self.busy {
                    self.busy = true;
                    self.pump(ctx);
                }
            }
            Msg::RepairNext => self.pump(ctx),
            Msg::RepairWrite(job) => {
                self.wbuf.push(job);
                let now = ctx.now();
                if self.wflush_at != now {
                    self.wflush_at = now;
                    ctx.send_now(ctx.me(), Msg::RepairWriteFlush);
                }
            }
            Msg::RepairWriteFlush => {
                let now = ctx.now();
                let mut wbuf = std::mem::take(&mut self.wbuf);
                wbuf.sort_unstable_by_key(|j| j.id);
                for job in wbuf {
                    let ok = !self.node.borrow().is_down();
                    let done_at = if ok {
                        // The new copy pays the destination's disk; the
                        // run only quiesces once it is durable.
                        self.node.borrow_mut().disk_write(now, job.bytes).max(now)
                    } else {
                        now
                    };
                    ctx.send_at(
                        self.coord,
                        done_at + self.link_latency,
                        Msg::RepairDone {
                            id: job.id,
                            block: job.block,
                            dest: job.dest,
                            ok,
                        },
                    );
                }
            }
            _ => unreachable!("non-repair message delivered to a repair agent"),
        }
    }
}
