//! The one message type every runtime actor speaks, and the delivery
//! metadata a bounced packet carries back to its sender.

use crate::repair::RepairJob;
use lmas_core::{Packet, Record};
use lmas_sim::{ActorId, Ctx};

/// Routing/retry metadata carried with a delivery so a bounced packet
/// can find its way back to the sender and out again.
#[derive(Debug, Clone, Copy)]
pub(super) struct DeliveryMeta {
    /// The sending instance actor (NACKs return here).
    pub(super) sender: ActorId,
    /// The emission port (re-routing stays within the port's group).
    pub(super) port: usize,
    /// Destination instance index (for backlog-gauge rollback).
    pub(super) dest: usize,
    /// Delivery attempts so far (0 = first send).
    pub(super) attempt: u32,
}

pub(super) enum Msg<R: Record> {
    /// A data packet. `meta` is `Some` only under an active fault spec;
    /// fault-free runs carry `None` and skip all bounce bookkeeping.
    Arrive {
        p: Packet<R>,
        meta: Option<DeliveryMeta>,
    },
    /// A delivery bounced (down node or lossy link); returned to sender.
    Nack {
        p: Packet<R>,
        meta: DeliveryMeta,
    },
    /// Backoff expired: sender re-routes the packet.
    Retry {
        p: Packet<R>,
        meta: DeliveryMeta,
    },
    Eos,
    /// A CPU service window completed. The epoch stamp discards windows
    /// that belonged to a life of this instance before a crash.
    Work(u64),
    SourceNext,
    /// Controller → instance: your node crashed. Volatile state dies.
    Kill,
    /// Controller → instance: your node recovered (fresh state).
    Revive,
    /// Controller: apply plan event `i`.
    FaultStep(usize),
    /// Controller: the failure detector's (precomputed) verdict that
    /// `node` is down lands now — fence its unflushed instances.
    Detect(usize),
    /// Instance: sample own backlog and report it to the balancer.
    SampleTick,
    /// Instance → balancer: one backlog sample, taken on the sampling
    /// grid and shipped with a fixed delay (snapshot protocol).
    DepthReport {
        /// Reporting stage.
        stage: usize,
        /// Reporting replica within the stage.
        replica: usize,
        /// Queued records at the replica when sampled.
        depth: u64,
        /// Node CPU backlog (ns past the sampling instant).
        cpu_ns: u64,
    },
    /// Balancer → senders: new routing weights for a stage.
    WeightUpdate {
        /// Destination stage the weights apply to.
        stage: usize,
        /// One weight per replica.
        weights: Vec<f64>,
    },
    /// Balancer: a snapshot batch landed; recompute weights.
    BalanceTick,
    /// Repair coordinator: apply precomputed timeline entry `i` (a
    /// crash / recover / detect on a replica-holding ASU).
    RepairStep(usize),
    /// Coordinator → source agent: queue this transfer.
    RepairFetch(RepairJob),
    /// Coordinator → source agent: drop the queued assignment with this
    /// id, if it is still queued (a timely recovery made it moot).
    RepairCancel(u64),
    /// Repair agent self-message: dispatch the next queued transfer
    /// (the pacing chain).
    RepairNext,
    /// Source agent → destination agent: the block's bytes arrive.
    RepairWrite(RepairJob),
    /// Destination agent → coordinator: the transfer landed (`ok`) or
    /// bounced off a down destination (`!ok`).
    RepairDone {
        /// Assignment id.
        id: u64,
        /// Block repaired.
        block: u64,
        /// Destination ASU ordinal.
        dest: u32,
        /// Whether the copy was written.
        ok: bool,
    },
    /// Source agent → coordinator: a queued assignment bounced off this
    /// (now down) source; pick another.
    RepairBounce {
        /// Assignment id.
        id: u64,
        /// Block whose repair bounced.
        block: u64,
    },
    /// Coordinator: record one replica-histogram trajectory sample.
    RepairSampleTick,
    /// Scheduler: job `j` (of a multi-tenant run) reaches the admission
    /// gate at its arrival instant.
    JobArrive(usize),
    /// Sink instance → scheduler: one sink instance of job `j` flushed.
    /// The scheduler counts these to detect job completion.
    SinkFlushed(usize),
    /// Coordinator self-message: apply the completions buffered at this
    /// instant in canonical (assignment-id) order. Engine decisions
    /// depend on mutable load state, so same-instant completions must
    /// reach it in an arrival-order-independent sequence — the flush
    /// fires after every other message at the instant in both engines
    /// (seeds sort first; runtime sends carry strictly earlier send
    /// times because the control delay is positive).
    RepairFlush,
    /// Agent self-message: charge the destination writes that arrived
    /// at this instant through the disk in canonical (assignment-id)
    /// order. The disk ledger is FCFS, so same-instant arrivals from
    /// different sources must charge it in an arrival-order-independent
    /// sequence — like [`Msg::RepairFlush`], the sentinel fires after
    /// every other message at the instant in both engines.
    RepairWriteFlush,
}

/// The dispatch ordering key of the current event — `(0, 0)` in
/// sequential mode, where side effects are already totally ordered.
pub(super) fn par_key<M>(ctx: &Ctx<'_, M>) -> (u64, u64) {
    ctx.par_key().unwrap_or((0, 0))
}
