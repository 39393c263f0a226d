//! The dataflow protocol: one [`InstanceActor`] per functor instance
//! (DESIGN.md §5) — queueing, CPU service windows, routing and delivery
//! (plain, coded, fault-masked), end-of-stream, source streaming and
//! the self-sampling half of the snapshot balancer.

use super::msg::{par_key, DeliveryMeta, Msg};
use crate::config::ClusterConfig;
use crate::fault::{DetectedTimeline, FatalFault, LossTimeline};
use crate::metrics::{GaugeJournal, Metrics, StageGauge};
use crate::node::NodeRes;
use lmas_core::{Emit, Functor, NodeId, Packet, Record, Router, StageFactory, UpMask, Work};
use lmas_sim::{ActorId, BackoffPolicy, Ctx, DetRng, SimDuration, SimTime};
use std::cell::{Ref, RefCell};
use std::collections::VecDeque;
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
    /// EOS already sent (the input stream is exhausted).
    pub(super) eos_sent: bool,
}

/// Per-instance fencing/flush flags shared between the instances and
/// the fault controller.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct InstFlags {
    /// The instance flushed (its own EOS has been broadcast).
    pub(super) flushed: bool,
    /// The controller broadcast EOS on this instance's behalf; it must
    /// never broadcast its own, even if revived.
    pub(super) fenced: bool,
}

/// The backlog gauge a sender/receiver mutates: a shared live gauge on
/// the plain calendar, or this partition's deferred journal under
/// `run_partitioned` (merged into the exact sequential gauge after the
/// run — see [`GaugeJournal::replay`]).
#[derive(Clone)]
pub(super) enum GaugeHandle {
    Live(Rc<RefCell<StageGauge>>),
    Journal(Rc<RefCell<GaugeJournal>>),
}

/// What a [`GaugeHandle`] leaves behind once the actors are gone: the
/// gauge itself, or one partition's share of its mutations.
pub(super) enum GaugePart {
    Live(StageGauge),
    Journal(GaugeJournal),
}

impl GaugeHandle {
    /// A gauge over `n` instances: journaled when the run is `keyed`
    /// (dispatch keys exist to order the replay), live otherwise.
    pub(super) fn new(n: usize, keyed: bool) -> GaugeHandle {
        if keyed {
            GaugeHandle::Journal(Rc::new(RefCell::new(GaugeJournal::new(n))))
        } else {
            GaugeHandle::Live(Rc::new(RefCell::new(StageGauge::new(n))))
        }
    }

    /// Take the contents out (the actors, and with them every other
    /// clone of the handle, have been dropped; a surviving clone
    /// degrades to a copy).
    pub(super) fn into_part(self) -> GaugePart {
        match self {
            GaugeHandle::Live(g) => GaugePart::Live(
                Rc::try_unwrap(g).map_or_else(|rc| rc.borrow().clone(), RefCell::into_inner),
            ),
            GaugeHandle::Journal(j) => GaugePart::Journal(
                Rc::try_unwrap(j).map_or_else(|rc| rc.borrow().clone(), RefCell::into_inner),
            ),
        }
    }

    fn add(&self, i: usize, records: u64, now: SimTime, key: (u64, u64)) {
        match self {
            GaugeHandle::Live(g) => g.borrow_mut().add(i, records, now),
            GaugeHandle::Journal(j) => j.borrow_mut().add(i, records, now, key),
        }
    }

    fn sub(&self, i: usize, records: u64, now: SimTime, key: (u64, u64)) {
        match self {
            GaugeHandle::Live(g) => g.borrow_mut().sub(i, records, now),
            GaugeHandle::Journal(j) => j.borrow_mut().sub(i, records, now, key),
        }
    }

    fn clear(&self, i: usize, now: SimTime, key: (u64, u64)) {
        match self {
            GaugeHandle::Live(g) => g.borrow_mut().clear(i, now),
            GaugeHandle::Journal(j) => j.borrow_mut().clear(i, now, key),
        }
    }

    /// Instantaneous per-instance depths. Journals return zeros: the
    /// partitioned runtime only engages for backlog-insensitive routing,
    /// so the values feed slice arithmetic, never a pick.
    fn depths(&self) -> Ref<'_, [u64]> {
        match self {
            GaugeHandle::Live(g) => Ref::map(g.borrow(), |g| g.depths()),
            GaugeHandle::Journal(j) => Ref::map(j.borrow(), |j| j.depths()),
        }
    }
}

pub(super) struct Downstream<R: Record> {
    pub(super) actors: Vec<ActorId>,
    /// Node of each destination instance. Identity only — the remote
    /// node *object* may live on another partition; everything delivery
    /// needs (same-node test, capacity) derives from the id and config.
    pub(super) node_ids: Vec<NodeId>,
    /// Dense node index per destination instance (fault-mask lookups).
    pub(super) node_idx: Vec<usize>,
    pub(super) capacities: Vec<f64>,
    pub(super) router: Router,
    pub(super) gauge: GaugeHandle,
    /// Balancer-set routing weights for the destination stage, owned
    /// per sender and replaced by [`Msg::WeightUpdate`]s; empty until
    /// (unless) the balancer's first reweight, so an untouched run
    /// draws identically to the weightless router path.
    pub(super) weights: Vec<f64>,
    /// Instances per port group (= replication for global scope).
    pub(super) group_size: usize,
    /// Destination stage id (for `AllReplicasDown` reporting).
    pub(super) dest_stage: usize,
    /// Coded broadcast-group size of this edge (1 = plain delivery).
    /// With `r > 1` the destinations partition into groups of `r`
    /// consecutive instances; every r-th remote packet ships as one
    /// multicast frame (one NIC charge at the frame's max payload) and
    /// the sender pays an `(r-1)`-fold replicated side-information disk
    /// write per packet.
    pub(super) coded_r: usize,
    /// Per-group staging buffers of `(dest, packet)` awaiting a full
    /// coded frame (empty and untouched when `coded_r == 1`).
    pub(super) coded_buf: Vec<Vec<(usize, Packet<R>)>>,
}

/// Fault-layer state held by each instance actor (present only when the
/// spec is active — `None` keeps the fault-free path allocation- and
/// draw-identical to the pre-fault runtime).
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
    pub(super) fail_fast: bool,
    pub(super) my_node: usize,
    pub(super) my_global: usize,
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
    /// Shipping delay of a report: `period.max(ctl)` — uniform for all
    /// replicas, and at least the cross-partition lookahead.
    pub(super) report_delay: SimDuration,
    pub(super) balancer: ActorId,
}

pub(super) struct InstanceActor<R: Record> {
    pub(super) stage: usize,
    pub(super) instance: usize,
    pub(super) functor: Box<dyn Functor<R>>,
    pub(super) node: Rc<RefCell<NodeRes>>,
    pub(super) queue: VecDeque<Packet<R>>,
    pub(super) pending: Option<Unit<R>>,
    pub(super) eos_expected: usize,
    pub(super) eos_seen: usize,
    pub(super) flushed: bool,
    pub(super) down: Option<Downstream<R>>,
    pub(super) source_data: VecDeque<Packet<R>>,
    pub(super) is_source: bool,
    /// False once a crash kills the source read chain.
    pub(super) source_live: bool,
    /// Windowed read-ahead staging (pool-enabled sources only).
    pub(super) ra: Option<RaState>,
    /// Globally unique instance tag: identifies this instance's output
    /// stream to the disk scheduler (runs never merge across tags).
    pub(super) global_tag: u64,
    /// Incremented on crash; stale `Work` from a previous life is
    /// discarded by the stamp.
    pub(super) epoch: u64,
    pub(super) my_gauge: Option<(GaugeHandle, usize)>,
    pub(super) metrics: Rc<RefCell<Metrics<R>>>,
    pub(super) link_rate: f64,
    pub(super) latency: SimDuration,
    /// Minimum cross-node delay (latency + NIC frame-overhead service):
    /// every control message (NACK bounce, fence EOS, weight update)
    /// travels with at least this much, which is exactly the parallel
    /// engine's lookahead.
    pub(super) ctl: SimDuration,
    pub(super) fault: Option<InstanceFault<R>>,
    /// Snapshot-balancer sampling (watched instances only).
    pub(super) sample: Option<SampleState>,
    /// Multi-tenant runs only: `(scheduler actor, owning job)` of a
    /// *sink* instance, which notifies the scheduler when it flushes.
    /// `None` everywhere else — single-job runs carry no scheduler.
    pub(super) sched: Option<(ActorId, usize)>,
}

impl<R: Record> InstanceActor<R> {
    fn is_down(&self) -> bool {
        self.fault.is_some() && self.node.borrow().is_down()
    }

    fn is_fenced(&self) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.flags.borrow()[f.my_global].fenced)
    }

    fn try_start(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        if self.pending.is_some() || self.is_down() {
            return;
        }
        if let Some(p) = self.queue.pop_front() {
            if let Some((gauge, idx)) = &self.my_gauge {
                gauge.sub(*idx, p.len() as u64, ctx.now(), par_key(ctx));
            }
            let cost = self.functor.cost(&p);
            {
                let mut m = self.metrics.borrow_mut();
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
            // A stale Work stamp from before a crash (already filtered by
            // the epoch check) or a unit discarded by Kill.
            debug_assert!(self.fault.is_some(), "Work without a pending unit");
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
                let key = par_key(ctx);
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
                let key = par_key(ctx);
                let mut m = self.metrics.borrow_mut();
                m.note_activity(ctx.now());
                m.trace.record_with_key(ctx.now(), key, || {
                    (format!("s{stage}.i{instance}"), "flush")
                });
                drop(m);
                if let Some(f) = &self.fault {
                    f.flags.borrow_mut()[f.my_global].flushed = true;
                }
            }
        }
        let state = self.functor.state_bytes();
        {
            let mut node = self.node.borrow_mut();
            node.note_state_bytes(state);
            if state > node.mem_bytes {
                let id = node.id;
                drop(node);
                self.metrics.borrow_mut().note_violation_keyed(
                    ctx.now(),
                    par_key(ctx),
                    format!(
                        "stage {} instance {} exceeds {} memory: {} bytes of functor state",
                        self.stage, self.instance, id, state
                    ),
                );
            }
        }
        self.route_outputs(ctx, emit.take());
        if just_flushed {
            self.broadcast_eos(ctx);
            // A multi-tenant sink reports its flush to the scheduler at
            // the flush instant (sink writes were charged above, so the
            // job's disk traffic is already accounted). Scheduler runs
            // are sequential-only; a zero-delay control send is safe.
            if let Some((sched, job)) = self.sched {
                ctx.send_now(sched, Msg::SinkFlushed(job));
            }
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
        let groups = d.actors.len() / d.group_size;
        let base = (port % groups) * d.group_size;
        let picked = {
            let now = ctx.now();
            let up = match &self.fault {
                Some(f) => UpMask::from_fn(d.group_size, |j| {
                    f.detected.is_up(d.node_idx[base + j], now)
                }),
                None => UpMask::All,
            };
            let backlog = d.gauge.depths();
            // Empty until the balancer's first reweight: `pick_routed`
            // then makes the unweighted draws.
            let wslice: &[f64] = if d.weights.is_empty() {
                &[]
            } else {
                &d.weights[base..base + d.group_size]
            };
            d.router.pick_routed(
                d.group_size,
                port / groups,
                &backlog[base..base + d.group_size],
                &d.capacities[base..base + d.group_size],
                wslice,
                &up,
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
        d.gauge.add(dest, p.len() as u64, ctx.now(), par_key(ctx));
        // Coded delivery (fault-free runs only: coded frames have no
        // per-packet NACK identity). Same-node packets are free as in
        // the plain path; remote packets pay the (r-1)-way replicated
        // side-information write immediately, then wait in the group's
        // staging buffer until r packets form a frame — one NIC charge
        // at the frame's widest payload, all members delivered at the
        // grant.
        if d.coded_r > 1 && self.fault.is_none() {
            let now = ctx.now();
            let my_id = self.node.borrow().id;
            if d.node_ids[dest] == my_id {
                ctx.send_at(d.actors[dest], now, Msg::Arrive { p, meta: None });
                return;
            }
            let r = d.coded_r;
            self.node
                .borrow_mut()
                .disk_write(now, (r as u64 - 1) * p.bytes() as u64);
            self.metrics.borrow_mut().stage_usage[self.stage].disk_write_bytes +=
                (r as u64 - 1) * p.bytes() as u64;
            let group = dest / r;
            d.coded_buf[group].push((dest, p));
            if d.coded_buf[group].len() == r {
                self.ship_coded(ctx, group);
            }
            return;
        }
        let (deliver_at, nic_busy) = delivery_time(
            ctx.now(),
            &self.node,
            d.node_ids[dest],
            p.bytes() as u64,
            self.link_rate,
            self.latency,
        );
        if let Some(busy) = nic_busy {
            let mut m = self.metrics.borrow_mut();
            let u = &mut m.stage_usage[self.stage];
            u.nic_bytes += p.bytes() as u64;
            u.nic_busy_ns += busy.as_nanos();
        }
        let to_actor = d.actors[dest];
        match &mut self.fault {
            None => {
                ctx.send_at(to_actor, deliver_at, Msg::Arrive { p, meta: None });
            }
            Some(f) => {
                let meta = DeliveryMeta {
                    sender: ctx.me(),
                    port,
                    dest,
                    attempt,
                };
                let prob = f.loss.prob(f.my_node, d.node_idx[dest], ctx.now());
                if prob > 0.0 && f.rng.gen_f64() < prob {
                    // The frame left the NIC but never arrived; the loss
                    // surfaces as a NACK one control delay later (the
                    // receiver's link-level reject), and the retry path
                    // takes over.
                    self.metrics.borrow_mut().fault.drops += 1;
                    ctx.send_at(ctx.me(), deliver_at + self.ctl, Msg::Nack { p, meta });
                } else {
                    ctx.send_at(
                        to_actor,
                        deliver_at,
                        Msg::Arrive {
                            p,
                            meta: Some(meta),
                        },
                    );
                }
            }
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
        // Invariant, not user input: NACKs and retries carry delivery
        // metadata, which is only ever attached under an active fault
        // spec — the same condition that populates `self.fault`. If the
        // pairing ever broke, the honest degradation is the one the
        // fault layer already defines for undeliverable packets: count
        // the records lost and move on.
        let Some(f) = self.fault.as_mut() else {
            debug_assert!(false, "redeliver requires fault mode");
            self.metrics.borrow_mut().fault.lost_queued_records += p.len() as u64;
            return;
        };
        meta.attempt += 1;
        match f.backoff.delay(meta.attempt, &mut f.rng) {
            Some(delay) => {
                self.metrics.borrow_mut().fault.retries += 1;
                ctx.send(ctx.me(), delay, Msg::Retry { p, meta });
            }
            None => {
                let fail_fast = f.fail_fast;
                let stage = self
                    .down
                    .as_ref()
                    .map(|d| d.dest_stage)
                    .unwrap_or(self.stage);
                let mut m = self.metrics.borrow_mut();
                m.fault.abandoned_records += p.len() as u64;
                if fail_fast && m.fatal.is_none() {
                    m.fatal = Some(FatalFault {
                        stage,
                        at: ctx.now(),
                    });
                    drop(m);
                    ctx.request_stop();
                }
            }
        }
    }

    /// Ship the staged members of coded `group`, if any, as one frame:
    /// one NIC charge at the widest member payload, every member
    /// delivered at the grant.
    fn ship_coded(&mut self, ctx: &mut Ctx<'_, Msg<R>>, group: usize) {
        let Some(d) = self.down.as_mut() else { return };
        if d.coded_buf[group].is_empty() {
            return;
        }
        let frame = d.coded_buf[group]
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
        let at = grant.end + self.latency;
        for (di, q) in d.coded_buf[group].drain(..) {
            ctx.send_at(d.actors[di], at, Msg::Arrive { p: q, meta: None });
        }
    }

    /// Ship every partially-filled coded frame (end of stream: no more
    /// packets will complete them). Charged before the EOS batch so the
    /// FCFS NIC keeps data ahead of the EOS marks.
    fn flush_coded(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        let groups = self.down.as_ref().map_or(0, |d| d.coded_buf.len());
        for group in 0..groups {
            self.ship_coded(ctx, group);
        }
    }

    fn broadcast_eos(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        if self.is_fenced() {
            // The controller already spoke for this instance.
            return;
        }
        self.flush_coded(ctx);
        if let Some(d) = &mut self.down {
            // EOS rides the NIC (zero payload) so it stays behind data.
            // Every remote mark serializes zero bytes, so one batched NIC
            // charge stands in for the per-destination charges: k
            // zero-length grants at the same instant share one window and
            // leave `free_at` where a lone charge would (the ledger sees
            // no busy time either way).
            let now = ctx.now();
            let my_id = self.node.borrow().id;
            let remote = d.node_ids.iter().filter(|&&id| id != my_id).count();
            let deliver_remote = if remote > 0 {
                let g =
                    self.node
                        .borrow_mut()
                        .charge_nic_batch(now, 0, self.link_rate, remote as u64);
                g.end + self.latency
            } else {
                now
            };
            let (stage, instance, fanout) = (self.stage, self.instance, d.actors.len());
            let key = par_key(ctx);
            self.metrics
                .borrow_mut()
                .trace
                .record_with_key(now, key, || {
                    (format!("s{stage}.i{instance}"), format!("eos -> {fanout}"))
                });
            for i in 0..d.actors.len() {
                let at = if d.node_ids[i] == my_id {
                    now
                } else {
                    deliver_remote
                };
                ctx.send_at(d.actors[i], at, Msg::Eos);
            }
        }
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
            } else if !ra.eos_sent {
                ra.eos_sent = true;
                ctx.send_at(ctx.me(), ctx.now(), Msg::Eos);
            }
            return;
        }
        if let Some(p) = self.source_data.pop_front() {
            let ready = self.read_packet(ctx, p);
            ctx.send_at(ctx.me(), ready, Msg::SourceNext);
        } else {
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
        debug_assert!(self.fault.is_some(), "Kill outside fault mode");
        self.epoch += 1;
        let mut lost = 0u64;
        if let Some(Unit::Process(p)) = self.pending.take() {
            lost += p.len() as u64;
        }
        for p in self.queue.drain(..) {
            lost += p.len() as u64;
        }
        if let Some((gauge, idx)) = &self.my_gauge {
            gauge.clear(*idx, ctx.now(), par_key(ctx));
        }
        self.source_live = false;
        if let Some(ra) = &mut self.ra {
            // Staged packets died with the node; the read chain is dead
            // (source_live above), so the pipeline never refills.
            ra.staged = 0;
            ra.pending = false;
        }
        if let Some(f) = &self.fault {
            self.functor = (f.factory)(self.instance);
        }
        let (stage, instance) = (self.stage, self.instance);
        let key = par_key(ctx);
        let mut m = self.metrics.borrow_mut();
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
    to: NodeId,
    bytes: u64,
    link_rate: f64,
    latency: SimDuration,
) -> (SimTime, Option<SimDuration>) {
    let same_node = from.borrow().id == to;
    if same_node {
        (now, None)
    } else {
        let grant = from.borrow_mut().charge_nic(now, bytes, link_rate);
        (grant.end + latency, Some(grant.end.since(grant.start)))
    }
}

/// Relative CPU speed of node `id` under `cfg` — bit-identical to the
/// `speed` a fresh [`NodeRes::new`] would report, without needing the
/// node object (partitions instantiate only the nodes they own, but
/// routing capacities cover remote destinations too).
pub(super) fn node_speed(cfg: &ClusterConfig, id: NodeId) -> f64 {
    match id {
        NodeId::Host(_) => cfg.host_speed(),
        NodeId::Asu(_) => cfg.asu_speed() * (1.0 - cfg.background_asu_cpu),
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for InstanceActor<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::Arrive { p, meta } => {
                if self.is_down() {
                    match meta {
                        Some(meta) => {
                            // Bounce: a control-plane NACK back to the
                            // sender, one control delay later (the
                            // minimum cross-node delay, so the parallel
                            // engine's lookahead always covers it).
                            self.metrics.borrow_mut().fault.nacks += 1;
                            ctx.send(meta.sender, self.ctl, Msg::Nack { p, meta });
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
                        d.gauge
                            .sub(meta.dest, p.len() as u64, ctx.now(), par_key(ctx));
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
                debug_assert!(self.fault.is_some(), "Revive outside fault mode");
                // Fresh volatile state; process whatever arrives from now
                // on. Source read chains do not resume (their unread
                // extent is re-dispatched by orchestration-level repair).
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
                    debug_assert_eq!(d.dest_stage, stage, "weight update for the wrong stage");
                    d.weights = weights;
                }
            }
            Msg::FaultStep(_)
            | Msg::Detect(_)
            | Msg::BalanceTick
            | Msg::DepthReport { .. }
            | Msg::JobArrive(_)
            | Msg::SinkFlushed(_)
            | Msg::RepairStep(_)
            | Msg::RepairFetch(_)
            | Msg::RepairCancel(_)
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
