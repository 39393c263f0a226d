//! The event queue: a totally ordered calendar of future work.
//!
//! Every event carries one [`EventKey`] and the calendar pops in
//! ascending key order, so a run's dispatch order is a pure function of
//! the keys it minted — independent of hash-map iteration, heap
//! tie-breaking, insertion order and, under [`crate::par`], thread
//! interleaving. Keys are minted in one of two ways:
//!
//! - [`EventQueue::schedule`] (the sequential engine) stamps
//!   `(time, 0, seq)` with a sequence number assigned at scheduling time:
//!   two events at the same instant fire in the order they were
//!   scheduled.
//! - [`EventQueue::push`] (one partition of a parallel run) takes a key
//!   the engine computed from partition-local counters; see
//!   [`EventKey`].
//!
//! ## Internals
//!
//! The calendar is a **4-ary min-heap** over recycled payload slots, plus
//! a **same-instant FIFO fast lane**:
//!
//! - Payloads live in a slot arena with a free list, so steady-state
//!   scheduling allocates nothing: a fired event's slot is reused by the
//!   next insert.
//! - The heap orders `(key, slot)` entries stored inline in the heap
//!   array (one cache line holds two), so comparisons during sifting
//!   never chase the arena.
//! - Events inserted **at the instant currently firing** — the
//!   `send_now` cascades that dominate the emulator's dispatch mix —
//!   bypass the heap: while their keys keep ascending (which both ways of
//!   minting guarantee within an instant) they append to a FIFO lane. A
//!   pop takes whichever of (lane front, heap top) has the smaller key,
//!   so the total order is the key order however an event was routed.
//!
//! There is no cancellation: a timeout that may be overtaken is modelled
//! by the handler ignoring a stale shot, and the paper's idiom of posting
//! a wakeup at `t = ∞` by not scheduling and waking with a message.

use crate::time::SimTime;
use std::collections::VecDeque;

/// The one ordering key of the calendar: events are totally ordered by
/// `(arrival time, schedule time, packed tiebreak)`.
///
/// The sequential engine orders same-instant events by a global sequence
/// number assigned at scheduling time and mints `(at, 0, seq)`
/// ([`EventQueue::schedule`]) — with `sched` constant, exactly the
/// `(time, seq)` order. Worker threads cannot share such a counter
/// without re-serializing the run, so a partition mints a key it can
/// compute locally:
///
/// - `at` — the arrival instant (the primary sort, as before);
/// - `sched` — the virtual instant the event was *scheduled* at. Runs
///   execute in virtual-time order, so sequence numbers are assigned in
///   ascending `sched` order; sorting by `sched` reproduces the seq
///   order across scheduling instants exactly.
/// - `packed` — a tiebreak within one scheduling instant: one bit of
///   *kind* (seed messages sort below runtime sends, as their seqs are
///   assigned before the run starts; seeds tiebreak on a per-partition
///   issuance counter, the order the build loop schedules them in), then
///   a 48-bit **partition-chronological counter** (send counter for
///   runtime sends, seed counter for seeds) and the 15-bit issuing
///   partition index.
///
/// The counter increments on every send a partition makes, in dispatch
/// order — it is the partition-local restriction of the sequential
/// engine's global sequence number. With **one** partition it *is* that
/// sequence number, so single-partition parallel runs reproduce the
/// sequential dispatch order exactly, same-instant FIFO cascades
/// included. Across partitions, two events tie on `(at, sched)` only
/// when they were scheduled concurrently in different workers — an
/// ordering the sequential engine resolves by global chronology, which
/// no local key can reconstruct; the counter-then-partition tiebreak
/// keeps that residual case deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Arrival instant.
    pub at: SimTime,
    /// Scheduling instant (nanoseconds); 0 for [`EventQueue::schedule`].
    pub sched: u64,
    /// `kind:1 | partition-send-counter:48 | partition:15`, or the global
    /// sequence number for [`EventQueue::schedule`].
    pub packed: u64,
}

/// Heap and lane entries carry the full ordering key inline so
/// comparisons never chase the slot arena.
#[derive(Clone, Copy)]
struct Entry {
    key: EventKey,
    slot: u32,
}

/// A deterministic future-event calendar.
pub struct EventQueue<M> {
    /// Payload arena; `None` marks a slot on the free list.
    slots: Vec<Option<M>>,
    /// Recycled slot indices: the calendar's envelope free list.
    free: Vec<u32>,
    /// 4-ary min-heap of the events not in the lane.
    heap: Vec<Entry>,
    /// Same-instant FIFO: key-ascending entries inserted at `front_time`.
    lane: VecDeque<Entry>,
    /// Time of the most recently popped event — "the current instant".
    front_time: SimTime,
    next_seq: u64,
    fired: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// An empty calendar.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            lane: VecDeque::new(),
            front_time: SimTime::ZERO,
            next_seq: 0,
            fired: 0,
        }
    }

    /// Schedule `payload` to fire at `time`, after everything already
    /// scheduled for that instant: the key is `(time, 0, seq)`. `time`
    /// must be finite (not [`SimTime::NEVER`]) — model indefinite
    /// blocking by simply not scheduling, and waking via an explicit
    /// message instead.
    pub fn schedule(&mut self, time: SimTime, payload: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push(EventKey { at: time, sched: 0, packed: seq }, payload);
    }

    /// Insert an event under an explicit key. Keys must be unique (the
    /// engine includes a chronological counter in each), which makes pop
    /// order a function of the key set alone; `key.at` must be finite.
    #[inline]
    pub fn push(&mut self, key: EventKey, payload: M) {
        assert!(
            key.at != SimTime::NEVER,
            "cannot schedule at t=∞; wake blocked parties with a message"
        );
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(payload);
                i
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "calendar slot overflow");
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        };
        let entry = Entry { key, slot };
        if key.at == self.front_time && self.lane.back().is_none_or(|b| b.key < key) {
            // send_now fast lane: same instant as the event being
            // dispatched, key above everything already in the lane.
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, M)> {
        self.pop_not_after(SimTime::NEVER).map(|(key, payload)| (key.at, payload))
    }

    /// Remove and return the smallest-key event if it fires at or before
    /// `horizon` (inclusive); `None` when the calendar is empty or the
    /// next event is later. One call replaces the peek-then-pop pair in
    /// dispatch loops.
    #[inline]
    pub fn pop_not_after(&mut self, horizon: SimTime) -> Option<(EventKey, M)> {
        let from_lane = match (self.lane.front(), self.heap.first()) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(l), Some(h)) => l.key < h.key,
        };
        let entry = if from_lane {
            if self.lane[0].key.at > horizon {
                return None;
            }
            self.lane.pop_front().expect("lane front exists")
        } else {
            let top = self.heap[0];
            if top.key.at > horizon {
                return None;
            }
            let last = self.heap.pop().expect("heap top exists");
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.sift_down(0);
            }
            top
        };
        let payload = self.slots[entry.slot as usize]
            .take()
            .expect("pending event has a payload");
        self.free.push(entry.slot);
        self.fired += 1;
        self.front_time = entry.key.at;
        Some((entry.key, payload))
    }

    /// Time of the earliest event without removing it. O(1).
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = self.lane.front().map(|e| e.key.at);
        let heap = self.heap.first().map(|e| e.key.at);
        match (lane, heap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Number of pending (inserted, not yet fired) events. O(1).
    pub fn live_len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Lifetime counters: (scheduled, fired).
    pub fn counters(&self) -> (u64, u64) {
        (self.fired + self.live_len() as u64, self.fired)
    }

    // ---- 4-ary heap primitives (children of i: 4i+1 ..= 4i+4) ----

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[i].key < self.heap[parent].key {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first = 4 * i + 1;
            if first >= self.heap.len() {
                break;
            }
            let last = (first + 4).min(self.heap.len());
            let mut min = first;
            for c in first + 1..last {
                if self.heap[c].key < self.heap[min].key {
                    min = c;
                }
            }
            if self.heap[min].key < self.heap[i].key {
                self.heap.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    #[should_panic(expected = "t=∞")]
    fn scheduling_at_never_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::NEVER, ());
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), ());
        q.schedule(SimTime(2), ());
        q.pop();
        assert_eq!(q.counters(), (2, 1));
    }

    #[test]
    fn same_instant_cascade_stays_fifo() {
        // Mimics a send_now chain: each pop schedules a successor at the
        // popped instant; successors must fire after everything already
        // scheduled for that instant, in schedule order.
        let mut q = EventQueue::new();
        q.schedule(SimTime(7), 0u32);
        q.schedule(SimTime(7), 1u32);
        let mut order = Vec::new();
        let mut next = 2u32;
        while let Some((t, v)) = q.pop() {
            assert_eq!(t, SimTime(7));
            order.push(v);
            if next < 6 {
                q.schedule(t, next);
                next += 1;
            }
        }
        assert_eq!(order, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn lane_and_heap_interleave_by_seq() {
        let mut q = EventQueue::new();
        // Heap-resident events at t=5 scheduled first...
        q.schedule(SimTime(5), "early-a");
        q.schedule(SimTime(5), "early-b");
        q.schedule(SimTime(3), "first");
        assert_eq!(q.pop(), Some((SimTime(3), "first")));
        // ...then a pop at t=5 opens the fast lane; lane entries carry
        // later seqs and must fire after the heap's same-time entries.
        assert_eq!(q.pop(), Some((SimTime(5), "early-a")));
        q.schedule(SimTime(5), "lane-a");
        q.schedule(SimTime(5), "lane-b");
        assert_eq!(q.pop(), Some((SimTime(5), "early-b")));
        assert_eq!(q.pop(), Some((SimTime(5), "lane-a")));
        assert_eq!(q.pop(), Some((SimTime(5), "lane-b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_not_after_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "x");
        q.schedule(SimTime(20), "y");
        let key = |at, seq| EventKey { at: SimTime(at), sched: 0, packed: seq };
        assert_eq!(q.pop_not_after(SimTime(5)), None);
        assert_eq!(q.pop_not_after(SimTime(15)), Some((key(10, 0), "x")));
        assert_eq!(q.pop_not_after(SimTime(15)), None);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime(20)));
        assert_eq!(q.pop_not_after(SimTime(20)), Some((key(20, 1), "y")));
        assert!(q.is_empty());
    }

    #[test]
    fn explicit_keys_pop_in_key_order_whatever_the_route() {
        // What a partition does: keys computed by the caller, inserted in
        // an order unrelated to theirs. A key at the firing instant that
        // does not ascend past the lane's back must take the heap.
        let key = |at, sched, packed| EventKey { at: SimTime(at), sched, packed };
        let mut q = EventQueue::new();
        q.push(key(4, 0, 9), "seed");
        assert_eq!(q.pop(), Some((SimTime(4), "seed")));
        q.push(key(4, 4, 7), "lane-7");
        q.push(key(4, 4, 8), "lane-8");
        q.push(key(4, 3, 2), "late-arrival-below-the-lane");
        q.push(key(4, 4, 5), "below-the-lane-back");
        q.push(key(6, 1, 0), "later");
        assert_eq!(q.live_len(), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, m)| m).collect();
        assert_eq!(
            order,
            ["late-arrival-below-the-lane", "below-the-lane-back", "lane-7", "lane-8", "later"]
        );
    }

    #[test]
    fn steady_state_reuses_payload_slots() {
        let mut q = EventQueue::new();
        for t in 0..8u64 {
            q.schedule(SimTime(t), t);
        }
        // Hold eight pending across heap and lane inserts alike.
        for _ in 0..1000 {
            let (t, v) = q.pop().expect("held non-empty");
            q.schedule(SimTime(t.0 + v % 3), v);
        }
        assert_eq!(q.slots.len(), 8);
    }
}
