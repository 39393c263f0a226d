//! End of stream in O(senders + receivers) (DESIGN.md §5): one
//! countdown per (downstream stage, partition) stands in for the
//! all-to-all mesh of per-receiver marks.
//!
//! A receiver acts only on the last end-of-stream mark it would get. A
//! sender's marks to receivers on its own node arrive at once (`local`);
//! its marks to every other node ride one zero-byte NIC charge and all
//! land at one instant (`remote`). So receiver `r` on node `n`
//! is done at `max(latest local instant on n, latest remote instant
//! from a node ≠ n)`. The countdown keeps exactly what that needs: the
//! latest local instant per receiver node and the two latest remote
//! instants from distinct sender nodes. When its last sender reports, it
//! sends each receiver one [`Msg::Eos`] at that receiver's instant.
//!
//! Under the partitioned engine every partition that owns receivers of
//! a stage keeps its own countdown. A sender reports to its own
//! partition's countdown directly and sends one [`Msg::EosMark`] to an
//! anchor receiver of every other such partition, timed at its remote
//! instant. Receivers in another partition sit on another node, so the
//! mark always carries at least the link latency, the lookahead.
//!
//! A sink has no downstream stage. In a multi-tenant run its report
//! counts its job down instead ([`JobCountdown`]); the scheduler hears of
//! the job once, when its last sink reports.

use super::msg::Msg;
use lmas_core::Record;
use lmas_sim::{ActorId, Ctx, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The end-of-stream countdown of one downstream stage on one partition.
pub(super) struct EosCountdown {
    /// Upstream senders that have not reported yet.
    left: usize,
    /// The receivers this partition owns: `(actor, index into local)`.
    receivers: Vec<(ActorId, usize)>,
    /// Per distinct receiver node, ascending: the dense node and its
    /// latest same-node report instant (`ZERO` = none).
    local: Vec<(usize, SimTime)>,
    /// The two latest remote instants from distinct sender nodes, as
    /// `(instant, dense node)`, latest first.
    top: [Option<(SimTime, usize)>; 2],
}

impl EosCountdown {
    /// A countdown over `senders` upstream senders for `receivers`, each
    /// `(actor, dense node)`: its size follows the receivers, not the
    /// cluster.
    pub(super) fn new(senders: usize, receivers: Vec<(ActorId, usize)>) -> Self {
        let mut nodes: Vec<usize> = receivers.iter().map(|&(_, n)| n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let slot = |n| nodes.binary_search(&n).expect("a receiver's own node");
        EosCountdown {
            left: senders,
            receivers: receivers.iter().map(|&(a, n)| (a, slot(n))).collect(),
            local: nodes.iter().map(|&n| (n, SimTime::ZERO)).collect(),
            top: [None, None],
        }
    }

    /// One sender on dense node `node` reached end of stream. Receivers
    /// on `node` hear of it at `local` (`None` for a mark from another
    /// partition, which owns no receiver on that node); receivers on any
    /// other node hear of it at `remote` (`None` when the sender has no
    /// receiver on another node). Returns whether this was the last
    /// sender, i.e. whether [`deliveries`](Self::deliveries) is final.
    pub(super) fn report(
        &mut self,
        node: usize,
        local: Option<SimTime>,
        remote: Option<SimTime>,
    ) -> bool {
        debug_assert!(self.left > 0, "end-of-stream countdown underflow");
        self.left = self.left.saturating_sub(1);
        // A node that holds no receiver has no one to hear it locally.
        let slot = self.local.binary_search_by_key(&node, |&(n, _)| n);
        if let (Some(at), Ok(i)) = (local, slot) {
            self.local[i].1 = self.local[i].1.max(at);
        }
        if let Some(at) = remote {
            self.note_remote(at, node);
        }
        self.left == 0
    }

    fn note_remote(&mut self, at: SimTime, node: usize) {
        let entry = Some((at, node));
        let [first, second] = &mut self.top;
        match *first {
            Some((t, n)) if n == node => *first = Some((t.max(at), n)),
            Some((t, _)) if at <= t => match *second {
                Some((t2, _)) if at <= t2 => {}
                _ => *second = entry,
            },
            _ => {
                *second = *first;
                *first = entry;
            }
        }
    }

    /// Latest remote instant from a node other than `node`.
    fn remote_excluding(&self, node: usize) -> SimTime {
        let pick = match self.top {
            [Some((_, n)), second] if n == node => second,
            [first, _] => first,
        };
        pick.map_or(SimTime::ZERO, |(t, _)| t)
    }

    /// Each receiver with the instant its end of stream lands: exactly
    /// when its last per-sender mark would have.
    pub(super) fn deliveries(&self) -> impl Iterator<Item = (ActorId, SimTime)> + '_ {
        self.receivers.iter().map(|&(a, slot)| {
            let (node, local) = self.local[slot];
            (a, local.max(self.remote_excluding(node)))
        })
    }
}

/// A multi-tenant run's job completion: per job, the sink instances
/// that have not reported end of stream. A job is done when its last
/// sink reports, whether it flushed or was fenced.
pub(super) struct JobCountdown {
    /// The scheduler, told of each job once, at that instant.
    pub(super) sched: ActorId,
    /// Owning job of each stage.
    pub(super) stage_job: Vec<usize>,
    /// Unreported sink instances per job.
    pub(super) left: RefCell<Vec<usize>>,
}

impl JobCountdown {
    fn report<R: Record>(&self, ctx: &mut Ctx<'_, Msg<R>>, stage: usize) {
        let job = self.stage_job[stage];
        let mut left = self.left.borrow_mut();
        debug_assert!(left[job] > 0, "job {job}: a sink reported twice");
        left[job] = left[job].saturating_sub(1);
        if left[job] == 0 {
            ctx.send_now(self.sched, Msg::JobDone(job));
        }
    }
}

/// One partition's end-of-stream fabric, shared by its instances and
/// its fault controller.
pub(super) struct EosFabric {
    /// This partition.
    pub(super) part: u32,
    /// Per stage: the stage its out-edge feeds, `None` for a sink. The
    /// same table on every partition.
    pub(super) next: Arc<Vec<Option<usize>>>,
    /// Per stage: this partition's countdown, or `None` when the stage
    /// has no upstream senders or no instance here.
    pub(super) countdowns: Vec<Option<RefCell<EosCountdown>>>,
    /// Per stage: the anchor receiver of every partition owning an
    /// instance of the stage. The same table on every partition.
    pub(super) anchors: Arc<Vec<BTreeMap<u32, ActorId>>>,
    /// A multi-tenant run's job countdown; `None` for a lone job, whose
    /// end is the calendar draining.
    pub(super) jobs: Option<JobCountdown>,
}

impl EosFabric {
    /// An instance of stage `from`, on dense node `node`, reached end of
    /// stream: its receivers on `node` hear of it at `local`, all others
    /// at `remote` (see [`EosCountdown::report`]); a sink counts its job
    /// down. Sent by the instance itself after its flush, or by the
    /// fault controller for a fenced instance; exactly once per instance
    /// either way.
    pub(super) fn send_eos<R: Record>(
        &self,
        ctx: &mut Ctx<'_, Msg<R>>,
        from: usize,
        node: usize,
        local: SimTime,
        remote: Option<SimTime>,
    ) {
        let Some(stage) = self.next[from] else {
            if let Some(jobs) = &self.jobs {
                jobs.report(ctx, from);
            }
            return;
        };
        for (&p, &anchor) in &self.anchors[stage] {
            if p == self.part {
                continue;
            }
            // Another partition's receivers sit on other nodes, so the
            // sender has a remote instant.
            let Some(at) = remote else {
                debug_assert!(
                    false,
                    "receivers on another partition but no remote instant"
                );
                continue;
            };
            ctx.send_at(anchor, at, Msg::EosMark { stage, node });
        }
        self.count(ctx, stage, node, Some(local), remote);
    }

    /// An [`Msg::EosMark`] reached this partition's anchor receiver of
    /// `stage`: a sender on another partition's node `node` is done, and
    /// this instant is its remote instant.
    pub(super) fn on_mark<R: Record>(&self, ctx: &mut Ctx<'_, Msg<R>>, stage: usize, node: usize) {
        let now = ctx.now();
        self.count(ctx, stage, node, None, Some(now));
    }

    fn count<R: Record>(
        &self,
        ctx: &mut Ctx<'_, Msg<R>>,
        stage: usize,
        node: usize,
        local: Option<SimTime>,
        remote: Option<SimTime>,
    ) {
        let Some(cd) = &self.countdowns[stage] else {
            return;
        };
        let mut cd = cd.borrow_mut();
        if cd.report(node, local, remote) {
            for (a, at) in cd.deliveries() {
                ctx.send_at(a, at, Msg::Eos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const LATENCY: u64 = 5;

    /// One upstream sender as today's per-receiver broadcast saw it.
    #[derive(Debug, Clone, Copy)]
    struct Sender {
        node: usize,
        /// Flush instant.
        now: u64,
        /// NIC queueing ahead of its zero-byte charge.
        nic_wait: u64,
    }

    impl Sender {
        /// Its remote instant, present only with a receiver elsewhere.
        fn remote(&self, receivers: &[usize]) -> Option<SimTime> {
            receivers
                .iter()
                .any(|&n| n != self.node)
                .then_some(SimTime(self.now + self.nic_wait + LATENCY))
        }
    }

    /// The per-receiver broadcast: each receiver's last mark instant.
    fn brute_force(senders: &[Sender], receivers: &[usize]) -> Vec<SimTime> {
        receivers
            .iter()
            .map(|&r| {
                senders
                    .iter()
                    .map(|s| match s.node == r {
                        true => SimTime(s.now),
                        false => s.remote(receivers).expect("receiver elsewhere"),
                    })
                    .max()
                    .expect("at least one sender")
            })
            .collect()
    }

    /// The fabric's protocol with nodes split over partitions by
    /// `part_of`: every partition owning receivers runs a countdown,
    /// fed in dispatch (time) order by its own senders' reports and by
    /// the marks of every other partition's senders. Returns each
    /// receiver's `Eos` instants (exactly one each when correct).
    fn fabric(
        senders: &[Sender],
        receivers: &[usize],
        part_of: &dyn Fn(usize) -> usize,
    ) -> Vec<Vec<SimTime>> {
        let mut got: Vec<Vec<SimTime>> = vec![Vec::new(); receivers.len()];
        let mut parts: Vec<usize> = receivers.iter().map(|&n| part_of(n)).collect();
        parts.sort_unstable();
        parts.dedup();
        for q in parts {
            let mine: Vec<(ActorId, usize)> = receivers
                .iter()
                .enumerate()
                .filter(|&(_, &n)| part_of(n) == q)
                .map(|(i, &n)| (ActorId(i), n))
                .collect();
            let mut cd = EosCountdown::new(senders.len(), mine);
            // (dispatch instant, node, local, remote) per report.
            let mut reports: Vec<(SimTime, usize, Option<SimTime>, Option<SimTime>)> = senders
                .iter()
                .map(|s| {
                    let remote = s.remote(receivers);
                    if part_of(s.node) == q {
                        (SimTime(s.now), s.node, Some(SimTime(s.now)), remote)
                    } else {
                        let at = remote.expect("a mark rides the remote instant");
                        (at, s.node, None, Some(at))
                    }
                })
                .collect();
            reports.sort_by_key(|r| r.0);
            let mut fired = 0;
            for (i, &(at, node, local, remote)) in reports.iter().enumerate() {
                if cd.report(node, local, remote) {
                    fired += 1;
                    assert_eq!(i + 1, reports.len(), "fires on the last report only");
                    for (a, d) in cd.deliveries() {
                        assert!(d >= at, "delivery before the report that fired it");
                        got[a.0].push(d);
                    }
                }
            }
            assert_eq!(fired, 1, "partition {q} fires exactly once");
        }
        got
    }

    fn check(senders: &[Sender], receivers: &[usize], parts: usize) {
        let part_of = |n: usize| n % parts;
        let want = brute_force(senders, receivers);
        let got = fabric(senders, receivers, &part_of);
        for (r, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(g, &vec![*w], "receiver {r} on node {}", receivers[r]);
        }
    }

    fn s(node: usize, now: u64, nic_wait: u64) -> Sender {
        Sender {
            node,
            now,
            nic_wait,
        }
    }

    #[test]
    fn sender_without_remote_receivers_reports_local_only() {
        // Every receiver sits on node 0 with both senders: no NIC
        // charge, no remote instant, the latest flush wins.
        check(&[s(0, 10, 0), s(0, 40, 0)], &[0, 0], 1);
    }

    #[test]
    fn top_remote_node_is_excluded_for_its_own_receivers() {
        // Node 1's sender has the latest remote instant (63), but its
        // own receiver hears it locally at 50 and node 2's remote 36.
        check(&[s(1, 50, 8), s(2, 30, 1)], &[1, 2], 1);
    }

    #[test]
    fn receivers_on_nodes_without_senders_take_the_top_remote() {
        check(&[s(0, 5, 0), s(1, 9, 3)], &[2, 3, 3], 1);
    }

    #[test]
    fn cross_partition_marks_count_down_every_partition() {
        check(&[s(0, 5, 0), s(1, 9, 3), s(2, 2, 40)], &[0, 1, 2, 3], 2);
        check(&[s(0, 5, 0), s(1, 9, 3), s(2, 2, 40)], &[0, 1, 2, 3], 3);
    }

    #[test]
    fn senders_on_nodes_without_receivers_count_only_remotely() {
        // Receivers on 2 of 65 536 nodes; the latest sender (node 40 000)
        // holds none, and its local report must not land anywhere.
        let senders = [s(7, 20, 0), s(40_000, 90, 0), s(65_535, 30, 2), s(3, 10, 0)];
        check(&senders, &[3, 7, 7], 1);
        check(&senders, &[3, 7, 7], 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The countdown against the brute force of today's per-receiver
        /// broadcast, over random senders, receivers and partitionings:
        /// every partition fires once, on its last report, and every
        /// receiver gets exactly one `Eos`, at its last mark's instant.
        #[test]
        fn countdown_matches_per_receiver_broadcast(
            nodes in 1usize..6,
            parts in 1usize..4,
            raw_senders in prop::collection::vec((0usize..6, 0u64..50, 0u64..20), 1..8),
            raw_receivers in prop::collection::vec(0usize..6, 1..8),
        ) {
            let senders: Vec<Sender> = raw_senders
                .iter()
                .map(|&(n, now, wait)| s(n % nodes, now, wait))
                .collect();
            let receivers: Vec<usize> = raw_receivers.iter().map(|&n| n % nodes).collect();
            check(&senders, &receivers, parts);
        }

        /// The same on a 65 536-node fleet whose receivers sit on 4
        /// nodes: about two senders in three are on nodes that hold no
        /// receiver.
        #[test]
        fn countdown_matches_broadcast_with_sparse_receivers(
            parts in 1usize..4,
            raw_senders in prop::collection::vec((0usize..65_536, 0u64..50, 0u64..20), 1..16),
            raw_receivers in prop::collection::vec(0usize..4, 1..8),
        ) {
            let senders: Vec<Sender> = raw_senders
                .iter()
                .map(|&(n, now, wait)| s(if n % 3 == 0 { n % 4 } else { n }, now, wait))
                .collect();
            check(&senders, &raw_receivers, parts);
        }
    }
}
