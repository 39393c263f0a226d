//! The dataflow protocol: one [`InstanceActor`] per functor instance
//! (DESIGN.md §5) — queueing, CPU service windows, routing and delivery
//! (fault-masked, or coded without a plan), end-of-stream, source streaming and
//! the self-sampling half of the snapshot balancer.

use super::eos::EosFabric;
use super::msg::{DeliveryMeta, Msg};
use crate::fault::{DetectedTimeline, LossTimeline};
use crate::metrics::{Backlog, Metrics};
use crate::node::NodeRes;
use lmas_core::{Emit, Functor, Packet, Record, Router, StageFactory, Work};
use lmas_sim::{ActorId, BackoffPolicy, Ctx, DetRng, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

pub(super) enum Unit<R: Record> {
    Process(Packet<R>),
    Flush,
}

/// Read-ahead pipeline state of a source instance (present only when the
/// storage buffer pool is enabled; legacy sources stream unbounded).
///
/// The source may hold at most `window = read_ahead + 1` packets between
/// disk arrival and CPU completion: one being processed plus `read_ahead`
/// staged in pool frames. A frame is freed only when its packet's
/// processing unit *completes*, so `read_ahead == 0` is genuinely serial
/// demand paging (read, process, read, …) while `read_ahead >= 1`
/// overlaps the next packet's media time with this packet's CPU time.
#[derive(Debug)]
pub(super) struct RaState {
    /// Staging window in packets (`read_ahead + 1`).
    pub(super) window: usize,
    /// Packets arrived from disk whose processing has not completed.
    pub(super) staged: usize,
    /// A disk read is in flight.
    pub(super) pending: bool,
}

/// Per-instance fencing/flush flags shared between the instances and
/// the fault controller.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct InstFlags {
    /// The instance flushed (its own end of stream has been sent).
    pub(super) flushed: bool,
    /// The controller sent end of stream on this instance's behalf; it
    /// must never send its own, even if revived.
    pub(super) fenced: bool,
}

/// One stage's receivers, as every sender into it sees them: built
/// once per job and shared by `Arc`, so a sender holds no per-receiver
/// copy. Identity only: a remote node *object* may live on another
/// partition; everything delivery needs (same-node test, capacity)
/// derives from the dense index and the config.
pub(super) struct Receivers {
    /// The receiving stage.
    pub(super) stage: usize,
    /// Global instance index (== actor id) of instance 0; instance `j`
    /// is actor `first + j`.
    pub(super) first: usize,
    /// Dense node index per instance.
    pub(super) node: Vec<usize>,
    /// Relative CPU speed of each instance's node (routing capacity).
    pub(super) capacity: Vec<f64>,
}

impl Receivers {
    /// Actor of instance `j`.
    pub(super) fn actor(&self, j: usize) -> ActorId {
        ActorId(self.first + j)
    }
}

/// A sender's side of its out-edge: the shared receiver table plus
/// only what this sender owns.
pub(super) struct Downstream<R: Record> {
    pub(super) to: Arc<Receivers>,
    pub(super) router: Router,
    /// Balancer-set routing weights for the destination stage, replaced
    /// by [`Msg::WeightUpdate`]s (one allocation per reweight, shared by
    /// every sender); `None` until (unless) the balancer's first
    /// reweight, so an untouched run draws identically to the
    /// weightless router path.
    pub(super) weights: Option<Arc<[f64]>>,
    /// Instances per port group (= replication for global scope).
    pub(super) group_size: usize,
    /// Coded broadcast-group size of this edge (1 = plain delivery).
    /// With `r > 1` the destinations partition into groups of `r`
    /// consecutive instances; every r-th remote packet ships as one
    /// multicast frame (one NIC charge at the frame's max payload) and
    /// the sender pays an `(r-1)`-fold replicated side-information disk
    /// write per packet.
    pub(super) coded_r: usize,
    /// Staged `(dest, packet)`s awaiting a full coded frame, keyed by
    /// group; only groups holding packets have an entry (always empty
    /// when `coded_r == 1`).
    pub(super) coded_buf: BTreeMap<usize, Vec<(usize, Packet<R>)>>,
}

/// Fault-layer state held by each instance actor. Every run has it: a
/// fault-free run is the empty plan, whose timelines never mark a node
/// down or a link lossy, so no draw is ever taken from `rng`.
///
/// Detector verdicts and link-loss probabilities are *timelines* —
/// immutable, precomputed, shared by `Arc` — so an instance samples
/// them at any virtual instant without cross-partition state. The loss
/// and backoff draws come from a per-instance seed stream (derived from
/// the global instance index), identical however the run is
/// partitioned.
pub(super) struct InstanceFault<R: Record> {
    pub(super) detected: Arc<DetectedTimeline>,
    pub(super) loss: Arc<LossTimeline>,
    pub(super) flags: Rc<RefCell<Vec<InstFlags>>>,
    pub(super) backoff: BackoffPolicy,
    pub(super) factory: StageFactory<R>,
    /// Private stream: loss draws and backoff jitter.
    pub(super) rng: DetRng,
}

/// Snapshot-balancer sampling state of one watched instance: it samples
/// its own backlog on the `k·period` grid and ships the reading to the
/// balancer with a fixed delay, so the balancer reweights from the
/// *previous* window's snapshot in both engines.
pub(super) struct SampleState {
    pub(super) period: SimDuration,
    /// Shipping delay of a report: `period.max(link_latency)` — uniform for all
    /// replicas, and at least the cross-partition lookahead.
    pub(super) report_delay: SimDuration,
    pub(super) balancer: ActorId,
}

pub(super) struct InstanceActor<R: Record> {
    pub(super) stage: usize,
    pub(super) instance: usize,
    pub(super) functor: Box<dyn Functor<R>>,
    pub(super) node: Rc<RefCell<NodeRes>>,
    /// Dense index of `node`.
    pub(super) node_ix: usize,
    pub(super) queue: VecDeque<Packet<R>>,
    pub(super) pending: Option<Unit<R>>,
    /// End-of-stream marks to wait for: one from the stage's countdown
    /// if it has upstream senders, plus a source's own end of input.
    pub(super) eos_expected: usize,
    pub(super) eos_seen: usize,
    /// This partition's end-of-stream countdowns: the downstream
    /// stage's, which this instance reports to once, and its own
    /// stage's, which its `EosMark`s count down.
    pub(super) eos: Rc<EosFabric>,
    pub(super) flushed: bool,
    pub(super) down: Option<Downstream<R>>,
    pub(super) source_data: VecDeque<Packet<R>>,
    pub(super) is_source: bool,
    /// False once a crash kills the source read chain (it never
    /// resumes; a read landing afterwards is from the dead chain).
    pub(super) source_live: bool,
    /// A source's own end of input has been counted: its input ran
    /// out, or its revive ended the stream.
    pub(super) input_ended: bool,
    /// Windowed read-ahead staging (pool-enabled sources only).
    pub(super) ra: Option<RaState>,
    /// Globally unique instance tag, the global instance index (== actor
    /// id): identifies this instance's output stream to the disk
    /// scheduler (runs never merge across tags) and its fencing flags.
    pub(super) global_tag: u64,
    /// Incremented on crash; stale `Work` from a previous life is
    /// discarded by the stamp.
    pub(super) epoch: u64,
    pub(super) metrics: Rc<RefCell<Metrics<R>>>,
    pub(super) link_rate: f64,
    /// One-way link latency, the minimum cross-node delay: data and
    /// every control message (NACK bounce, end-of-stream mark, weight
    /// update) travel with at least this much, which is exactly the
    /// parallel engine's lookahead.
    pub(super) link_latency: SimDuration,
    pub(super) fault: InstanceFault<R>,
    /// Snapshot-balancer sampling (watched instances only).
    pub(super) sample: Option<SampleState>,
}

impl<R: Record> InstanceActor<R> {
    fn is_down(&self) -> bool {
        self.node.borrow().is_down()
    }

    fn is_fenced(&self) -> bool {
        self.fault.flags.borrow()[self.global_tag as usize].fenced
    }

    fn try_start(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        if self.pending.is_some() || self.is_down() {
            return;
        }
        if let Some(p) = self.queue.pop_front() {
            let cost = self.functor.cost(&p);
            {
                let mut m = self.metrics.borrow_mut();
                if !self.is_source {
                    let (at, key, n) = (ctx.now(), ctx.dispatch_key(), p.len() as u64);
                    m.note_backlog(at, key, self.stage, self.instance, Backlog::Sub(n));
                }
                m.stage_work[self.stage] += cost;
                m.stage_records_in[self.stage] += p.len() as u64;
            }
            self.start_unit(ctx, cost, Unit::Process(p));
        } else if self.eos_seen >= self.eos_expected && !self.flushed && !self.is_fenced() {
            let cost = self.functor.flush_cost();
            self.metrics.borrow_mut().stage_work[self.stage] += cost;
            self.start_unit(ctx, cost, Unit::Flush);
        }
    }

    /// Book `cost` on the node's CPU from now; `unit` completes (as a
    /// `Work` self-message) when the service window ends.
    fn start_unit(&mut self, ctx: &mut Ctx<'_, Msg<R>>, cost: Work, unit: Unit<R>) {
        let grant = self.node.borrow_mut().charge_cpu(ctx.now(), cost);
        {
            let mut m = self.metrics.borrow_mut();
            let u = &mut m.stage_usage[self.stage];
            u.cpu_busy_ns += grant.end.since(grant.start).as_nanos();
            u.cpu_wait_ns += grant.queue_delay(ctx.now()).as_nanos();
        }
        self.pending = Some(unit);
        ctx.send_at(ctx.me(), grant.end, Msg::Work(self.epoch));
    }

    fn complete_unit(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        let Some(unit) = self.pending.take() else {
            // A unit discarded by Kill (stale stamps from before a
            // crash are already filtered by the epoch check).
            return;
        };
        let mut emit = Emit::new(self.functor.out_ports());
        let mut just_flushed = false;
        match unit {
            Unit::Process(p) => {
                // The packet's staging frame frees only now, at CPU
                // completion — read-ahead depth really bounds memory.
                if let Some(ra) = &mut self.ra {
                    ra.staged = ra.staged.saturating_sub(1);
                }
                let n = p.len() as u64;
                self.node.borrow_mut().note_records(n);
                let (stage, instance) = (self.stage, self.instance);
                let key = ctx.dispatch_key();
                let mut m = self.metrics.borrow_mut();
                m.records_processed += n;
                m.note_activity(ctx.now());
                m.trace.record_with_key(ctx.now(), key, || {
                    (format!("s{stage}.i{instance}"), format!("proc {n} recs"))
                });
                drop(m);
                self.functor.process(p, &mut emit);
            }
            Unit::Flush => {
                self.functor.flush(&mut emit);
                self.flushed = true;
                just_flushed = true;
                let (stage, instance) = (self.stage, self.instance);
                let key = ctx.dispatch_key();
                let mut m = self.metrics.borrow_mut();
                m.note_activity(ctx.now());
                m.trace.record_with_key(ctx.now(), key, || {
                    (format!("s{stage}.i{instance}"), "flush")
                });
                drop(m);
                self.fault.flags.borrow_mut()[self.global_tag as usize].flushed = true;
            }
        }
        let state = self.functor.state_bytes();
        {
            let mut node = self.node.borrow_mut();
            node.note_state_bytes(state);
            if state > node.mem_bytes {
                let id = node.id;
                drop(node);
                self.metrics.borrow_mut().note_violation(
                    ctx.now(),
                    ctx.dispatch_key(),
                    format!(
                        "stage {} instance {} exceeds {} memory: {} bytes of functor state",
                        self.stage, self.instance, id, state
                    ),
                );
            }
        }
        self.route_outputs(ctx, emit.take());
        if just_flushed {
            self.report_eos(ctx);
        }
        self.try_start(ctx);
        if self.ra.is_some() {
            // A frame freed: see whether the read pipeline can refill.
            self.source_next(ctx);
        }
    }

    fn route_outputs(&mut self, ctx: &mut Ctx<'_, Msg<R>>, outputs: Vec<(usize, Packet<R>)>) {
        if self.down.is_some() {
            for (port, p) in outputs {
                self.route_packet(ctx, port, p, 0);
            }
        } else {
            // Sink: write results to the local disk (staged through the
            // scheduler/pool when the substrate is on) and capture them.
            let now = ctx.now();
            let mut node = self.node.borrow_mut();
            let mut m = self.metrics.borrow_mut();
            for (port, p) in outputs {
                let bytes = p.bytes() as u64;
                node.disk_write_sink(now, self.global_tag, bytes);
                m.note_activity(now);
                m.stage_usage[self.stage].disk_write_bytes += bytes;
                m.sink_outputs
                    .entry((self.stage, self.instance))
                    .or_default()
                    .push((port, p));
            }
        }
    }

    /// Route one packet downstream. `attempt` is 0 for fresh emissions
    /// and counts prior failed deliveries for retries.
    fn route_packet(&mut self, ctx: &mut Ctx<'_, Msg<R>>, port: usize, p: Packet<R>, attempt: u32) {
        // Invariant, not user input: emissions only route here when the
        // stage has an out edge (sink outputs go to disk in `emit`), and
        // the graph is validated before any actor exists. A miss would
        // be a runtime bug; degrade by dropping the packet rather than
        // aborting a run that is otherwise healthy.
        let Some(d) = self.down.as_mut() else {
            debug_assert!(false, "route_packet needs a downstream");
            return;
        };
        // A port is confined to its instance group; the policy picks
        // within it (group == whole stage for Global).
        let to = &*d.to;
        let groups = to.node.len() / d.group_size;
        let base = (port % groups) * d.group_size;
        let picked = {
            let (now, detected) = (ctx.now(), &self.fault.detected);
            // Only the plain calendar routes by backlog: a partition
            // sees just its own share of the depths.
            debug_assert!(
                d.group_size <= 1
                    || !d.router.policy().reads_backlog()
                    || ctx.dispatch_key() == (0, 0),
                "backlog-routed pick on a partition of a parallel run"
            );
            let m = self.metrics.borrow();
            let backlog = m.depths(to.stage);
            // Empty until the balancer's first reweight: `pick_routed`
            // then makes the unweighted draws.
            let wslice: &[f64] = match &d.weights {
                Some(w) => &w[base..base + d.group_size],
                None => &[],
            };
            d.router.pick_routed(
                d.group_size,
                port / groups,
                &backlog[base..base + d.group_size],
                &to.capacity[base..base + d.group_size],
                wslice,
                |j| detected.is_up(to.node[base + j], now),
            )
        };
        let Some(rel) = picked else {
            // No replica is (detected) live. Hold the packet through the
            // backoff schedule — a recovery may land — then give up.
            let meta = DeliveryMeta {
                sender: ctx.me(),
                port,
                dest: usize::MAX,
                attempt,
            };
            self.redeliver(ctx, p, meta);
            return;
        };
        let dest = base + rel;
        // Optimistic backlog charge; a NACK rolls it back.
        let (at, key, change) = (ctx.now(), ctx.dispatch_key(), Backlog::Add(p.len() as u64));
        self.metrics
            .borrow_mut()
            .note_backlog(at, key, to.stage, dest, change);
        // Coded delivery (`coded_r > 1` only without a plan; see the
        // build). Same-node packets are free as in the plain path;
        // remote packets pay the (r-1)-way replicated side-information
        // write immediately, then wait in the group's staging buffer
        // until r packets form a frame — one NIC charge at the frame's
        // widest payload, all members delivered at the grant.
        if d.coded_r > 1 {
            let now = ctx.now();
            if to.node[dest] == self.node_ix {
                ctx.send_at(to.actor(dest), now, Msg::Arrive { p, meta: None });
                return;
            }
            let r = d.coded_r;
            self.node
                .borrow_mut()
                .disk_write(now, (r as u64 - 1) * p.bytes() as u64);
            self.metrics.borrow_mut().stage_usage[self.stage].disk_write_bytes +=
                (r as u64 - 1) * p.bytes() as u64;
            let group = dest / r;
            let staged = d.coded_buf.entry(group).or_default();
            staged.push((dest, p));
            if staged.len() == r {
                let members = d.coded_buf.remove(&group).unwrap_or_default();
                self.ship_coded(ctx, members);
            }
            return;
        }
        let (deliver_at, nic_busy) = delivery_time(
            ctx.now(),
            &self.node,
            self.node_ix != to.node[dest],
            p.bytes() as u64,
            self.link_rate,
            self.link_latency,
        );
        if let Some(busy) = nic_busy {
            let mut m = self.metrics.borrow_mut();
            let u = &mut m.stage_usage[self.stage];
            u.nic_bytes += p.bytes() as u64;
            u.nic_busy_ns += busy.as_nanos();
        }
        let meta = DeliveryMeta {
            sender: ctx.me(),
            port,
            dest,
            attempt,
        };
        let f = &mut self.fault;
        let prob = f.loss.prob(self.node_ix, to.node[dest], ctx.now());
        if prob > 0.0 && f.rng.gen_f64() < prob {
            // The frame left the NIC but never arrived; the loss
            // surfaces as a NACK one link latency later (the receiver's
            // link-level reject), and the retry path takes over.
            self.metrics.borrow_mut().fault.drops += 1;
            ctx.send_at(
                ctx.me(),
                deliver_at + self.link_latency,
                Msg::Nack { p, meta },
            );
        } else {
            let meta = Some(meta);
            ctx.send_at(to.actor(dest), deliver_at, Msg::Arrive { p, meta });
        }
    }

    /// Schedule a retry for a failed delivery, or give up when the
    /// attempt budget is exhausted.
    fn redeliver(&mut self, ctx: &mut Ctx<'_, Msg<R>>, p: Packet<R>, mut meta: DeliveryMeta) {
        if self.is_down() {
            // The sender itself died while the bounce was in flight; the
            // packet dies with it (a repair pass recovers the records).
            self.metrics.borrow_mut().fault.lost_queued_records += p.len() as u64;
            return;
        }
        let f = &mut self.fault;
        meta.attempt += 1;
        match f.backoff.delay(meta.attempt, &mut f.rng) {
            Some(delay) => {
                self.metrics.borrow_mut().fault.retries += 1;
                ctx.send(ctx.me(), delay, Msg::Retry { p, meta });
            }
            None => {
                self.metrics.borrow_mut().fault.abandoned_records += p.len() as u64;
            }
        }
    }

    /// Ship the staged `members` of one coded group as one frame: one
    /// NIC charge at the widest member payload, every member delivered
    /// at the grant.
    fn ship_coded(&mut self, ctx: &mut Ctx<'_, Msg<R>>, members: Vec<(usize, Packet<R>)>) {
        let Some(d) = self.down.as_ref() else { return };
        let frame = members
            .iter()
            .map(|(_, q)| q.bytes() as u64)
            .max()
            .unwrap_or(0);
        let grant = self
            .node
            .borrow_mut()
            .charge_nic(ctx.now(), frame, self.link_rate);
        {
            let mut m = self.metrics.borrow_mut();
            let u = &mut m.stage_usage[self.stage];
            u.nic_bytes += frame;
            u.nic_busy_ns += grant.end.since(grant.start).as_nanos();
        }
        let at = grant.end + self.link_latency;
        for (di, q) in members {
            ctx.send_at(d.to.actor(di), at, Msg::Arrive { p: q, meta: None });
        }
    }

    /// Ship every partially-filled coded frame, in ascending group
    /// order (end of stream: no more packets will complete them).
    /// Charged before the end-of-stream charge so the FCFS NIC keeps
    /// data ahead of it.
    fn flush_coded(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        let staged = self
            .down
            .as_mut()
            .map(|d| std::mem::take(&mut d.coded_buf))
            .unwrap_or_default();
        for members in staged.into_values() {
            self.ship_coded(ctx, members);
        }
    }

    /// Report end of stream to the fabric, once: to the downstream
    /// stage's countdown, or, for a sink, to its job's countdown (sink
    /// writes were charged above, so the job's disk traffic is already
    /// accounted).
    fn report_eos(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        if self.is_fenced() {
            // The controller already spoke for this instance.
            return;
        }
        self.flush_coded(ctx);
        let now = ctx.now();
        let mut remote = None;
        if let Some(d) = &self.down {
            // End of stream rides the NIC (zero payload) so it stays
            // behind data. Every remote mark would serialize zero bytes,
            // so one zero-length charge stands in for all of them: it
            // opens the same window and leaves `free_at` where they would.
            remote = d.to.node.iter().any(|&n| n != self.node_ix).then(|| {
                let g = self.node.borrow_mut().charge_nic(now, 0, self.link_rate);
                g.end + self.link_latency
            });
            let (stage, instance, fanout) = (self.stage, self.instance, d.to.node.len());
            let key = ctx.dispatch_key();
            self.metrics
                .borrow_mut()
                .trace
                .record_with_key(now, key, || {
                    (format!("s{stage}.i{instance}"), format!("eos -> {fanout}"))
                });
        }
        self.eos.send_eos(ctx, self.stage, self.node_ix, now, remote);
    }

    fn source_next(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        if !self.source_live {
            return;
        }
        if let Some(ra) = &mut self.ra {
            // Windowed streaming: at most one read in flight, at most
            // `window` packets staged between disk arrival and CPU
            // completion. Called again on every arrival and completion,
            // so the pipeline refills as frames free up.
            if ra.pending || ra.staged >= ra.window {
                return;
            }
            if let Some(p) = self.source_data.pop_front() {
                ra.pending = true;
                self.read_packet(ctx, p);
            } else if !self.input_ended {
                self.input_ended = true;
                ctx.send_at(ctx.me(), ctx.now(), Msg::Eos);
            }
            return;
        }
        if let Some(p) = self.source_data.pop_front() {
            let ready = self.read_packet(ctx, p);
            ctx.send_at(ctx.me(), ready, Msg::SourceNext);
        } else {
            self.input_ended = true;
            ctx.send_at(ctx.me(), ctx.now(), Msg::Eos);
        }
    }

    /// Stream `p` in through the local disk model: it arrives at this
    /// instance once the read completes (the returned instant).
    fn read_packet(&mut self, ctx: &mut Ctx<'_, Msg<R>>, p: Packet<R>) -> SimTime {
        let ready = self
            .node
            .borrow_mut()
            .disk_read(ctx.now(), p.bytes() as u64);
        {
            let mut m = self.metrics.borrow_mut();
            m.note_activity(ready);
            let u = &mut m.stage_usage[self.stage];
            u.disk_read_bytes += p.bytes() as u64;
            u.disk_wait_ns += ready.saturating_since(ctx.now()).as_nanos();
        }
        ctx.send_at(ctx.me(), ready, Msg::Arrive { p, meta: None });
        ready
    }

    /// The node crashed: volatile state (queue, in-flight unit, functor
    /// state) is lost; the functor is rebuilt from its factory so a
    /// revived instance restarts clean.
    fn kill(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        self.epoch += 1;
        let mut lost = 0u64;
        if let Some(Unit::Process(p)) = self.pending.take() {
            lost += p.len() as u64;
        }
        for p in self.queue.drain(..) {
            lost += p.len() as u64;
        }
        self.source_live = false;
        if let Some(ra) = &mut self.ra {
            // Staged packets died with the node; the read chain is dead
            // (source_live above), so the pipeline never refills.
            ra.staged = 0;
            ra.pending = false;
        }
        self.functor = (self.fault.factory)(self.instance);
        let (stage, instance) = (self.stage, self.instance);
        let key = ctx.dispatch_key();
        let mut m = self.metrics.borrow_mut();
        if !self.is_source {
            m.note_backlog(ctx.now(), key, stage, instance, Backlog::Clear);
        }
        m.fault.lost_queued_records += lost;
        m.trace.record_with_key(ctx.now(), key, || {
            (
                format!("s{stage}.i{instance}"),
                format!("killed, lost {lost} recs"),
            )
        });
    }

    /// `SampleTick`: sample own backlog and ship a `DepthReport` to the
    /// balancer; re-arm on the sampling grid. Stops (without reporting
    /// or re-arming) once the instance has flushed or its node went
    /// down, so a drained job's calendar actually empties. Sampling
    /// never restarts after a crash — see the `Revive` handler.
    fn sample_tick(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        let s = self
            .sample
            .as_ref()
            .expect("SampleTick without sampling state");
        if self.node.borrow().is_down() || self.flushed {
            return;
        }
        let depth: u64 = self.queue.iter().map(|p| p.len() as u64).sum();
        let now = ctx.now();
        let cpu_ns = self
            .node
            .borrow()
            .cpu_free_at()
            .as_nanos()
            .saturating_sub(now.as_nanos());
        ctx.send(
            s.balancer,
            s.report_delay,
            Msg::DepthReport {
                stage: self.stage,
                replica: self.instance,
                depth,
                cpu_ns,
            },
        );
        ctx.send(ctx.me(), s.period, Msg::SampleTick);
    }
}

/// Arrival instant of a packet, plus the NIC serialization time charged
/// for it (`None` for a same-node hand-off, which never touches the NIC).
fn delivery_time(
    now: SimTime,
    from: &Rc<RefCell<NodeRes>>,
    remote: bool,
    bytes: u64,
    link_rate: f64,
    latency: SimDuration,
) -> (SimTime, Option<SimDuration>) {
    if remote {
        let grant = from.borrow_mut().charge_nic(now, bytes, link_rate);
        (grant.end + latency, Some(grant.end.since(grant.start)))
    } else {
        (now, None)
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for InstanceActor<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::Arrive { p, meta } => {
                // Under a plan only a source's own reads carry no meta;
                // one landing after a crash killed the read chain is
                // from the dead chain, whose stream may have ended.
                let dead_read = meta.is_none() && !self.source_live;
                if self.is_down() || dead_read {
                    match meta {
                        Some(meta) => {
                            // Bounce: a control-plane NACK back to the
                            // sender, one link latency later (the
                            // minimum cross-node delay, so the parallel
                            // engine's lookahead always covers it).
                            self.metrics.borrow_mut().fault.nacks += 1;
                            ctx.send(meta.sender, self.link_latency, Msg::Nack { p, meta });
                        }
                        None => {
                            // A source self-delivery racing the crash;
                            // the records stay durable on disk and are
                            // recovered by a repair pass.
                            self.metrics.borrow_mut().fault.lost_queued_records += p.len() as u64;
                        }
                    }
                    return;
                }
                if let Some(ra) = &mut self.ra {
                    // A source self-delivery: the in-flight read landed
                    // and now occupies a staging frame.
                    ra.pending = false;
                    ra.staged += 1;
                }
                self.queue.push_back(p);
                self.try_start(ctx);
                if self.ra.is_some() {
                    self.source_next(ctx);
                }
            }
            Msg::Nack { p, meta } => {
                // Roll back the optimistic backlog charge, then retry.
                if meta.dest != usize::MAX {
                    if let Some(d) = &self.down {
                        let (at, key, n) = (ctx.now(), ctx.dispatch_key(), p.len() as u64);
                        let mut m = self.metrics.borrow_mut();
                        m.note_backlog(at, key, d.to.stage, meta.dest, Backlog::Sub(n));
                    }
                }
                self.redeliver(ctx, p, meta);
            }
            Msg::Retry { p, meta } => {
                if self.is_down() {
                    self.metrics.borrow_mut().fault.lost_queued_records += p.len() as u64;
                    return;
                }
                self.route_packet(ctx, meta.port, p, meta.attempt);
            }
            Msg::EosMark { stage, node } => {
                debug_assert_eq!(stage, self.stage, "end-of-stream mark for another stage");
                self.eos.on_mark(ctx, stage, node);
            }
            Msg::Eos => {
                self.eos_seen += 1;
                debug_assert!(
                    self.eos_seen <= self.eos_expected,
                    "stage {} instance {} saw too many EOS",
                    self.stage,
                    self.instance
                );
                self.try_start(ctx);
            }
            Msg::Work(epoch) => {
                if epoch == self.epoch {
                    self.complete_unit(ctx);
                }
                // Stale stamps belong to a pre-crash life of this
                // instance; the service window died with the node.
            }
            Msg::SourceNext => {
                debug_assert!(self.is_source);
                self.source_next(ctx);
            }
            Msg::Kill => self.kill(ctx),
            Msg::Revive => {
                // Fresh volatile state; process whatever arrives from now
                // on. Source read chains do not resume (their unread
                // extent is re-dispatched by orchestration-level repair).
                // A source the detector never fenced (its crash was
                // shorter than the timeout) and whose input had not run
                // out ends its stream here, or no one ever would; a
                // fenced one stays silent, the controller spoke for it.
                if self.is_source && !self.input_ended && !self.is_fenced() {
                    self.input_ended = true;
                    self.eos_seen += 1;
                }
                self.try_start(ctx);
                // Sampling does NOT resume: a revived instance may
                // never see another EOS (its pre-crash incarnation
                // consumed them), so a perpetual sampling chain would
                // keep the calendar alive forever. The balancer's
                // zero-filled snapshot reads the revived replica as
                // unloaded — the clean slate it actually has.
            }
            Msg::SampleTick => self.sample_tick(ctx),
            Msg::WeightUpdate { stage, weights } => {
                if let Some(d) = &mut self.down {
                    debug_assert_eq!(d.to.stage, stage, "weight update for the wrong stage");
                    d.weights = Some(weights);
                }
            }
            Msg::FaultStep(_)
            | Msg::Detect(_)
            | Msg::BalanceTick
            | Msg::DepthReport { .. }
            | Msg::JobArrive(_)
            | Msg::JobDone(_)
            | Msg::RepairStep(_)
            | Msg::RepairFetch(_)
            | Msg::RepairNext
            | Msg::RepairWrite(_)
            | Msg::RepairDone { .. }
            | Msg::RepairBounce { .. }
            | Msg::RepairSampleTick
            | Msg::RepairFlush
            | Msg::RepairWriteFlush => {
                unreachable!("controller message delivered to an instance")
            }
        }
    }
}
