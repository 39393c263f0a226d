//! FCFS service resources: the CPUs, disks, and network links of the
//! emulated cluster.
//!
//! A [`Resource`] is a non-preemptive first-come-first-served server.
//! `acquire(now, service)` books the next available slot and returns the
//! `(start, end)` of service; the caller schedules its own completion event
//! at `end`. This models the paper's emulator, where each execution segment
//! or I/O occupies its device exclusively and the event queue enforces
//! causal order.

use crate::intern::{intern, Name};
use crate::stats::UtilizationLedger;
use crate::time::{SimDuration, SimTime};

/// The booked service window returned by an acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service begins (>= request time).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

impl Grant {
    /// Time spent queueing before service started.
    pub fn queue_delay(&self, requested_at: SimTime) -> SimDuration {
        self.start.since(requested_at)
    }
}

/// A single FCFS server with utilization accounting.
#[derive(Debug)]
pub struct Resource {
    name: Name,
    free_at: SimTime,
    ledger: UtilizationLedger,
    grants: u64,
}

impl Resource {
    /// A new idle resource. `bin_width` sets the resolution of the
    /// utilization series this resource records. The name is interned:
    /// resources sharing a name share one allocation.
    pub fn new(name: impl AsRef<str>, bin_width: SimDuration) -> Self {
        Resource {
            name: intern(name.as_ref()),
            free_at: SimTime::ZERO,
            ledger: UtilizationLedger::new(bin_width),
            grants: 0,
        }
    }

    /// Book `service` time starting no earlier than `now`, behind any work
    /// already booked. Zero-length service is permitted and returns an
    /// empty window at the queue tail without occupying the server.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Grant {
        let start = now.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        self.ledger.add_busy(start, end);
        self.grants += 1;
        Grant { start, end }
    }

    /// Book `count` back-to-back services of `each` starting no earlier
    /// than `now`, in one accounting step. Bit-identical to calling
    /// [`Resource::acquire`] `count` times with `each` (the windows are
    /// contiguous, so the per-bin busy charges sum to the same values and
    /// `free_at` lands at the same instant) but touches the
    /// [`UtilizationLedger`] once. Returns the spanning window; the
    /// `i`-th sub-grant is `[start + each·i, start + each·(i+1))`.
    pub fn acquire_batch(&mut self, now: SimTime, count: u64, each: SimDuration) -> Grant {
        let start = now.max(self.free_at);
        let end = start + each * count;
        self.free_at = end;
        self.ledger.add_busy(start, end);
        self.grants += count;
        Grant { start, end }
    }

    /// The earliest time a new request would begin service.
    pub fn next_free(&self) -> SimTime {
        self.free_at
    }

    /// Whether the server is idle at `now`.
    pub fn is_idle(&self, now: SimTime) -> bool {
        self.free_at <= now
    }

    /// Backlog from `now` until the last booked work finishes.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.free_at.saturating_since(now)
    }

    /// Resource name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total busy time booked.
    pub fn total_busy(&self) -> SimDuration {
        self.ledger.total_busy()
    }

    /// Utilization series over `[0, horizon]` (see [`UtilizationLedger`]).
    pub fn utilization_series(&self, horizon: SimTime) -> Vec<f64> {
        self.ledger.series(horizon)
    }

    /// Mean utilization over `[0, horizon]`.
    pub fn mean_utilization(&self, horizon: SimTime) -> f64 {
        self.ledger.mean_utilization(horizon)
    }

    /// The ledger's bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.ledger.bin_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIN: SimDuration = SimDuration(1_000);

    #[test]
    fn fcfs_serializes_overlapping_requests() {
        let mut r = Resource::new("cpu", BIN);
        let a = r.acquire(SimTime(0), SimDuration(100));
        let b = r.acquire(SimTime(10), SimDuration(50));
        assert_eq!(a, Grant { start: SimTime(0), end: SimTime(100) });
        assert_eq!(b, Grant { start: SimTime(100), end: SimTime(150) });
        assert_eq!(b.queue_delay(SimTime(10)), SimDuration(90));
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new("disk", BIN);
        r.acquire(SimTime(0), SimDuration(10));
        let g = r.acquire(SimTime(500), SimDuration(10));
        assert_eq!(g.start, SimTime(500));
        assert!(r.is_idle(SimTime(600)));
        assert!(!r.is_idle(SimTime(505)));
    }

    #[test]
    fn backlog_reflects_booked_work() {
        let mut r = Resource::new("cpu", BIN);
        r.acquire(SimTime(0), SimDuration(100));
        assert_eq!(r.backlog(SimTime(30)), SimDuration(70));
        assert_eq!(r.backlog(SimTime(200)), SimDuration::ZERO);
    }

    #[test]
    fn zero_service_does_not_occupy() {
        let mut r = Resource::new("cpu", BIN);
        let g = r.acquire(SimTime(5), SimDuration::ZERO);
        assert_eq!(g.start, g.end);
        assert_eq!(r.total_busy(), SimDuration::ZERO);
        assert!(r.is_idle(SimTime(5)));
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut r = Resource::new("cpu", BIN);
        r.acquire(SimTime(0), SimDuration(500));
        let s = r.utilization_series(SimTime(999));
        assert_eq!(s.len(), 1);
        assert!((s[0] - 0.5).abs() < 1e-12);
        assert!((r.mean_utilization(SimTime(1000)) - 0.5).abs() < 1e-12);
        assert_eq!(r.grants(), 1);
    }

    #[test]
    fn acquire_batch_matches_repeated_acquires() {
        let mut batched = Resource::new("cpu", SimDuration(10));
        let mut looped = Resource::new("cpu", SimDuration(10));
        // Pre-book some work so the batch queues behind it.
        batched.acquire(SimTime(0), SimDuration(37));
        looped.acquire(SimTime(0), SimDuration(37));
        let g = batched.acquire_batch(SimTime(2), 5, SimDuration(9));
        let mut first = None;
        let mut last = None;
        for _ in 0..5 {
            let gi = looped.acquire(SimTime(2), SimDuration(9));
            first.get_or_insert(gi.start);
            last = Some(gi.end);
        }
        assert_eq!(g.start, first.unwrap());
        assert_eq!(g.end, last.unwrap());
        assert_eq!(batched.next_free(), looped.next_free());
        assert_eq!(batched.grants(), looped.grants());
        assert_eq!(batched.total_busy(), looped.total_busy());
        assert_eq!(
            batched.utilization_series(SimTime(100)),
            looped.utilization_series(SimTime(100))
        );
    }

    #[test]
    fn acquire_batch_of_zero_service_is_an_empty_window() {
        let mut r = Resource::new("nic", BIN);
        r.acquire(SimTime(0), SimDuration(50));
        let g = r.acquire_batch(SimTime(10), 3, SimDuration::ZERO);
        assert_eq!(g.start, SimTime(50));
        assert_eq!(g.end, SimTime(50));
        assert_eq!(r.grants(), 4);
        assert_eq!(r.total_busy(), SimDuration(50));
    }
}
