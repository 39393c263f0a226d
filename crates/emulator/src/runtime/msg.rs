//! The one message type every runtime actor speaks, and the delivery
//! metadata a bounced packet carries back to its sender.

use crate::repair::RepairJob;
use lmas_core::{Packet, Record};
use lmas_sim::ActorId;
use std::sync::Arc;

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

/// Census row names, one per [`Msg`] variant, in [`Msg::kind`] order.
pub(super) const KINDS: [&str; 26] = [
    "Arrive",
    "Nack",
    "Retry",
    "Eos",
    "EosMark",
    "Work",
    "SourceNext",
    "Kill",
    "Revive",
    "FaultStep",
    "Detect",
    "SampleTick",
    "DepthReport",
    "WeightUpdate",
    "BalanceTick",
    "RepairStep",
    "RepairFetch",
    "RepairNext",
    "RepairWrite",
    "RepairDone",
    "RepairBounce",
    "RepairSampleTick",
    "JobArrive",
    "JobDone",
    "RepairFlush",
    "RepairWriteFlush",
];

pub(super) enum Msg<R: Record> {
    /// A data packet. `meta` is `Some` on every routed delivery, so a
    /// down receiver can bounce it; `None` marks a source's read from
    /// its own disk and a coded-frame member, which have no sender to
    /// bounce to.
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
    /// End of stream: every upstream sender of this instance's stage
    /// is done. Sent once per receiver, by the stage's countdown
    /// (`eos.rs`); a source also sends one to itself at end of input.
    Eos,
    /// Sender → anchor receiver on another partition: one upstream
    /// sender of `stage`, on dense node `node`, reached end of stream.
    /// Lands at the sender's remote-delivery instant and counts down the
    /// anchor partition's countdown there.
    EosMark {
        /// The receiving stage.
        stage: usize,
        /// Dense node index of the sender.
        node: usize,
    },
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
        /// One weight per replica, one allocation shared by every
        /// sender the reweight reaches.
        weights: Arc<[f64]>,
    },
    /// Balancer: a snapshot batch landed; recompute weights.
    BalanceTick,
    /// Repair coordinator: apply precomputed timeline entry `i` (a
    /// crash / recover / detect on a replica-holding ASU).
    RepairStep(usize),
    /// Coordinator → source agent: queue this transfer.
    RepairFetch(RepairJob),
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
    /// Job countdown → scheduler: the last sink instance of job `j`
    /// reported end of stream (flushed or fenced); the job is complete.
    JobDone(usize),
    /// Coordinator self-message: apply the completions buffered at this
    /// instant in canonical (assignment-id) order. Engine decisions
    /// depend on mutable load state, so same-instant completions must
    /// reach it in an arrival-order-independent sequence — the flush
    /// fires after every other message at the instant in both engines
    /// (seeds sort first; runtime sends carry strictly earlier send
    /// times because the link latency is positive).
    RepairFlush,
    /// Agent self-message: charge the destination writes that arrived
    /// at this instant through the disk in canonical (assignment-id)
    /// order. The disk ledger is FCFS, so same-instant arrivals from
    /// different sources must charge it in an arrival-order-independent
    /// sequence — like [`Msg::RepairFlush`], the sentinel fires after
    /// every other message at the instant in both engines.
    RepairWriteFlush,
}

impl<R: Record> Msg<R> {
    /// This message's census row (an index into [`KINDS`]).
    pub(super) fn kind(&self) -> usize {
        match self {
            Msg::Arrive { .. } => 0,
            Msg::Nack { .. } => 1,
            Msg::Retry { .. } => 2,
            Msg::Eos => 3,
            Msg::EosMark { .. } => 4,
            Msg::Work(_) => 5,
            Msg::SourceNext => 6,
            Msg::Kill => 7,
            Msg::Revive => 8,
            Msg::FaultStep(_) => 9,
            Msg::Detect(_) => 10,
            Msg::SampleTick => 11,
            Msg::DepthReport { .. } => 12,
            Msg::WeightUpdate { .. } => 13,
            Msg::BalanceTick => 14,
            Msg::RepairStep(_) => 15,
            Msg::RepairFetch(_) => 16,
            Msg::RepairNext => 17,
            Msg::RepairWrite(_) => 18,
            Msg::RepairDone { .. } => 19,
            Msg::RepairBounce { .. } => 20,
            Msg::RepairSampleTick => 21,
            Msg::JobArrive(_) => 22,
            Msg::JobDone(_) => 23,
            Msg::RepairFlush => 24,
            Msg::RepairWriteFlush => 25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmas_core::Rec8;

    #[test]
    fn census_rows_name_their_variants() {
        let named: [(Msg<Rec8>, &str); 12] = [
            (Msg::Eos, "Eos"),
            (Msg::EosMark { stage: 0, node: 0 }, "EosMark"),
            (Msg::Work(0), "Work"),
            (Msg::SourceNext, "SourceNext"),
            (Msg::Kill, "Kill"),
            (Msg::Detect(0), "Detect"),
            (Msg::SampleTick, "SampleTick"),
            (Msg::BalanceTick, "BalanceTick"),
            (Msg::RepairNext, "RepairNext"),
            (Msg::JobArrive(0), "JobArrive"),
            (Msg::JobDone(0), "JobDone"),
            (Msg::RepairWriteFlush, "RepairWriteFlush"),
        ];
        for (msg, name) in named {
            assert_eq!(KINDS[msg.kind()], name);
        }
    }
}
